"""Random kitchen sink feature map approximating the Gaussian kernel.

Frequencies Omega_1..Omega_k are drawn i.i.d. from N(0, sigma^-2 I), the
Fourier transform of exp(-||x - y||^2 / (2 sigma^2)).  The explicit map

    Z(x) = sqrt(1/k) [cos(x^T Omega_1) ... cos(x^T Omega_k),
                      sin(x^T Omega_1) ... sin(x^T Omega_k)]

satisfies <Z(x), Z(y)> ~= K(x, y), so a linear model on Z-space stands in
for a kernel machine.  The output dimension D = 2k must be even.

Sampling uses numpy's seeded PCG64 generator; the same (d_in, D, sigma,
seed) always reproduces the same frequency matrix bit-for-bit, which is what
makes persisted models portable.  The frequencies are drawn one after
another, each as d_in consecutive normals, so the maps of one (d_in, sigma,
seed) nest: the D' map is bit for bit the first D'/2 frequencies (columns)
of the D map for every even D' <= D.  A narrower map's lift is then
sqrt(D/D') times the wider lift's first D'/2 cos and first D'/2 sin
columns.  Maps saved before this draw name the generator ``numpy-pcg64``
and draw their frequencies as d_in rows of k, which do not nest; they are
drawn that way again when loaded.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import NumericError

__all__ = [
    "PRNG_ID",
    "PCG64_ROWS_ID",
    "MAX_SEED",
    "MAX_MAP_ENTRIES",
    "RksMap",
    "check_map_size",
    "sample_map",
    "transform",
    "median_heuristic_sigma",
]

# The generator ids a map may name: sample_map draws the k frequencies one
# after another (a k x d_in draw, transposed), so that maps nest; a map that
# names PCG64_ROWS_ID draws a d_in x k matrix, as every map did before.
PRNG_ID = "numpy-pcg64-nested"
PCG64_ROWS_ID = "numpy-pcg64"

# Largest seed sample_map takes: a model file stores the map's seed as an i64.
MAX_SEED = (1 << 63) - 1

# Largest d_in x dim_out map sample_map draws (a 64 MiB frequency matrix of
# d_in x dim_out/2), so every map a run fits is one load_model will draw
# again; shipped sweeps draw at most 512 x 4000.
MAX_MAP_ENTRIES = 1 << 24

# Fewest entries per thread of transform's cos, sin and scaling.  On 2 vCPUs
# two threads were slower than one below about 0.7 million entries (thread
# start-up, and BLAS threads still spinning after the projection), level at
# 3.3 million and 13% faster at 6.6 million.
_LIFT_SLICE_ENTRIES = 1 << 20

MEDIAN_MAX_POINTS = 1000  # most rows whose pairwise distances median_heuristic_sigma forms


@dataclass
class RksMap:
    """Sampled frequency matrix (d_in x k) plus the recipe that produced it,
    ``prng`` naming how the generator drew it."""

    omega: np.ndarray
    sigma: float
    seed: int
    prng: str = PRNG_ID

    @property
    def d_in(self) -> int:
        return self.omega.shape[0]

    @property
    def k(self) -> int:
        return self.omega.shape[1]

    @property
    def dim_out(self) -> int:
        return 2 * self.omega.shape[1]

    def prefix(self, dim_out: int) -> RksMap:
        """The map of this recipe with output dimension ``dim_out``, without a
        draw: as the maps nest, its frequencies are this map's first
        dim_out/2, which it holds as a view.  A map drawn under another
        generator than PRNG_ID does not nest, and is a ValueError."""
        if self.prng != PRNG_ID:
            raise ValueError(f"maps drawn under {self.prng!r} do not nest")
        if not (2 <= dim_out <= self.dim_out and dim_out % 2 == 0):
            raise ValueError(f"output dimension must be even and in [2, {self.dim_out}], got {dim_out}")
        return RksMap(omega=self.omega[:, : dim_out // 2], sigma=self.sigma, seed=self.seed, prng=self.prng)


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def check_map_size(d_in: int, dim_out: int) -> None:
    """Refuse (ValueError) a d_in x dim_out map over MAX_MAP_ENTRIES entries."""
    if d_in * dim_out > MAX_MAP_ENTRIES:
        raise ValueError(f"map of {d_in} x {dim_out} exceeds the {MAX_MAP_ENTRIES}-entry limit")


def sample_map(d_in: int, dim_out: int, sigma: float, seed: int, prng: str = PRNG_ID) -> RksMap:
    """Draw k = dim_out/2 Gaussian frequency columns with std 1/sigma.

    Under PRNG_ID the columns are drawn one after another, so the map
    nests (see the module docstring); under PCG64_ROWS_ID the matrix is
    drawn row by row.  The recipe is checked before anything is drawn,
    including the generator id, that the seed is at most MAX_SEED and that
    the map has at most MAX_MAP_ENTRIES entries (d_in x dim_out).  A sigma
    so small that a frequency overflows is refused once they are drawn.
    """
    if dim_out < 2 or dim_out % 2 != 0:
        raise ValueError(f"output dimension must be even (cos/sin pairs), got {dim_out}")
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError(f"bandwidth sigma must be finite and positive, got {sigma}")
    if d_in < 1:
        raise ValueError(f"input dimension must be >= 1, got {d_in}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if seed > MAX_SEED:
        raise ValueError(f"seed must be <= {MAX_SEED}, got {seed}")
    if prng not in (PRNG_ID, PCG64_ROWS_ID):
        raise ValueError(f"unknown generator {prng!r}")
    check_map_size(d_in, dim_out)
    rng = np.random.default_rng(seed)
    k = dim_out // 2
    with np.errstate(over="ignore"):
        if prng == PRNG_ID:
            # divided before the transpose, so that numpy divides the draw in place
            omega = (rng.standard_normal((k, d_in)) / sigma).T
        else:
            omega = rng.standard_normal((d_in, k)) / sigma
    if not (math.isfinite(omega.min()) and math.isfinite(omega.max())):
        raise ValueError(f"bandwidth sigma {sigma!r} is too small: a frequency overflows")
    return RksMap(omega=omega, sigma=float(sigma), seed=int(seed), prng=prng)


def transform(
    rks: RksMap,
    x: np.ndarray,
    freqs: slice = slice(None),
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Map one vector (d_in,) or a batch (n, d_in) into Z-space (.., 2k).

    Layout is the cos block followed by the sin block; every output row has
    unit Euclidean norm by the Pythagorean identity.  ``freqs``, a slice of
    the k frequencies, lifts through those alone: the output then holds
    their cos columns, then their sin columns, each scaled by sqrt(1/k) as
    in the whole map, so the frequency blocks of a map together hold the
    columns of its whole lift (each block's projection is its own matrix
    product, so it may round differently).  The projection is written into
    the output's sin half, cos is taken from it into the cos half, then sin
    in place, so the output (or ``out``, a C-contiguous array of the
    output's shape) is the only array written.  Cos, sin and the scaling
    run on row slices of at least _LIFT_SLICE_ENTRIES entries, one thread
    per slice and at most one per CPU this process may use; each entry is
    computed as in one thread, so the output does not depend on the
    count.  A projection past the float range gives non-finite entries
    without a numpy warning; the trainers' and ``predict``'s finiteness
    check reports them.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != rks.d_in:
        raise ValueError(f"expected input dim {rks.d_in}, got {x.shape[-1]}")
    omega = rks.omega[:, freqs]
    k = omega.shape[1]
    z = np.empty(x.shape[:-1] + (2 * k,)) if out is None else out
    rows = z.reshape(-1, 2 * k)
    scale = np.sqrt(1.0 / rks.k)
    with np.errstate(over="ignore", invalid="ignore"):
        np.matmul(x, omega, out=z[..., k:])

    def lift(bounds: tuple[int, int]) -> None:
        part = rows[bounds[0] : bounds[1]]
        proj = part[:, k:]
        # the error state is per thread, so it is set here
        with np.errstate(over="ignore", invalid="ignore"):
            np.cos(proj, out=part[:, :k])
            np.sin(proj, out=proj)
            part *= scale

    slices = min(_usable_cpus(), max(1, rows.size // _LIFT_SLICE_ENTRIES))
    bounds = [(len(rows) * i // slices, len(rows) * (i + 1) // slices) for i in range(slices)]
    if slices == 1:
        lift(bounds[0])
    else:
        # imported here, not with the module: concurrent.futures loads logging,
        # which importing offdetect and a one-slice lift do not need
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=slices) as pool:
            for _ in pool.map(lift, bounds):
                pass
    return z


def median_heuristic_sigma(sample: np.ndarray, seed: int = 0) -> float:
    """Bandwidth = median pairwise Euclidean distance over (a subsample of)
    the rows.

    At most ``MEDIAN_MAX_POINTS`` rows enter the O(n^2) distance computation,
    chosen by a seeded draw so the result is reproducible.  The rows are
    centered on their coordinate-wise median, which leaves every distance
    unchanged, and the squared distances are read from one Gram matrix G of
    the centered rows as G_ii + G_jj - 2 G_ij, clipped at 0.  Each carries a
    rounding error of about 1e-16 times its two rows' squared norms, so the
    median matches an exact distance computation to about 1e-16 relative
    unless most distances are many orders of magnitude shorter than the
    rows' spread about their median (which, unlike the mean, one outlying
    value cannot move).  The Gram product need not give equal rows equal
    entries (BLAS sums a diagonal entry and an off-diagonal one in
    different orders), so the distance of each pair of bitwise-equal rows
    is set to exactly 0; on rows that are all distinct nothing changes.  Falls
    back to 1.0 when the median distance is zero (e.g. all points
    identical, or most pairs equal).  Rows so large that the Gram matrix
    or the median overflows raise NumericError.
    """
    sample = np.asarray(sample, dtype=np.float64)
    if sample.ndim != 2 or sample.shape[0] < 2:
        raise ValueError("median heuristic needs at least 2 vectors")
    if sample.shape[0] > MEDIAN_MAX_POINTS:
        rng = np.random.default_rng(seed)
        idx = rng.choice(sample.shape[0], size=MEDIAN_MAX_POINTS, replace=False)
        sample = sample[np.sort(idx)]
    # an overflow is reported by the NumericError below, not by numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        centered = sample - np.median(sample, axis=0)
        gram = centered @ centered.T
        sq_norms = gram.diagonal()
        i, j = np.triu_indices(len(gram), k=1)
        sq_dist = sq_norms[i] + sq_norms[j] - 2.0 * gram[i, j]
        # bitwise-equal rows are 0 apart, which the Gram entries need not
        # give: label the rows by their bytes, each read as one void scalar
        # (an all-zero Gram matrix of 0-dim rows needs no labels)
        if sample.shape[1]:
            row_bytes = np.dtype((np.void, sample[0].nbytes))
            distinct, label = np.unique(np.ascontiguousarray(sample).view(row_bytes)[:, 0], return_inverse=True)
            if len(distinct) < len(sample):
                sq_dist[label[i] == label[j]] = 0.0
        median = float(np.median(np.sqrt(np.maximum(sq_dist, 0.0, out=sq_dist))))
        # overflowing rows can leave the median finite (rounded to 0, say),
        # but not the Gram sum
        finite = math.isfinite(gram.sum()) and math.isfinite(median)
    if not finite:
        raise NumericError("median-heuristic bandwidth overflows: features too large")
    return median if median > 0.0 else 1.0
