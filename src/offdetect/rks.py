"""Random kitchen sink feature map approximating the Gaussian kernel.

Frequencies Omega_1..Omega_k are drawn i.i.d. from N(0, sigma^-2 I), the
Fourier transform of exp(-||x - y||^2 / (2 sigma^2)).  The explicit map

    Z(x) = sqrt(1/k) [cos(x^T Omega_1) ... cos(x^T Omega_k),
                      sin(x^T Omega_1) ... sin(x^T Omega_k)]

satisfies <Z(x), Z(y)> ~= K(x, y), so a linear model on Z-space stands in
for a kernel machine.  The output dimension D = 2k must be even.

Sampling uses numpy's seeded PCG64 generator; the same (d_in, D, sigma,
seed) always reproduces the same frequency matrix bit-for-bit, which is what
makes persisted models portable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PRNG_ID",
    "MAX_MAP_ENTRIES",
    "RksMap",
    "check_map_size",
    "sample_map",
    "transform",
    "approx_kernel",
    "median_heuristic_sigma",
]

PRNG_ID = "numpy-pcg64"

# Largest d_in x dim_out map sample_map draws (a 64 MiB frequency matrix of
# d_in x dim_out/2), so every map a run fits is one load_model will draw
# again; shipped sweeps draw at most 512 x 4000.
MAX_MAP_ENTRIES = 1 << 24

MEDIAN_MAX_POINTS = 1000  # most rows whose pairwise distances median_heuristic_sigma forms


@dataclass
class RksMap:
    """Sampled frequency matrix (d_in x k) plus the recipe that produced it."""

    omega: np.ndarray
    sigma: float
    seed: int

    @property
    def d_in(self) -> int:
        return self.omega.shape[0]

    @property
    def k(self) -> int:
        return self.omega.shape[1]

    @property
    def dim_out(self) -> int:
        return 2 * self.omega.shape[1]


def check_map_size(d_in: int, dim_out: int) -> None:
    """Refuse (ValueError) a d_in x dim_out map over MAX_MAP_ENTRIES entries."""
    if d_in * dim_out > MAX_MAP_ENTRIES:
        raise ValueError(f"map of {d_in} x {dim_out} exceeds the {MAX_MAP_ENTRIES}-entry limit")


def sample_map(d_in: int, dim_out: int, sigma: float, seed: int) -> RksMap:
    """Draw k = dim_out/2 Gaussian frequency columns with std 1/sigma.

    The recipe is checked before anything is drawn, including that the map
    has at most MAX_MAP_ENTRIES entries (d_in x dim_out).
    """
    if dim_out < 2 or dim_out % 2 != 0:
        raise ValueError(f"output dimension must be even (cos/sin pairs), got {dim_out}")
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError(f"bandwidth sigma must be finite and positive, got {sigma}")
    if d_in < 1:
        raise ValueError(f"input dimension must be >= 1, got {d_in}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    check_map_size(d_in, dim_out)
    rng = np.random.default_rng(seed)
    omega = rng.standard_normal((d_in, dim_out // 2)) / sigma
    return RksMap(omega=omega, sigma=float(sigma), seed=int(seed))


def transform(rks: RksMap, x: np.ndarray) -> np.ndarray:
    """Map one vector (d_in,) or a batch (n, d_in) into Z-space (.., 2k).

    Layout is the cos block followed by the sin block; every output row has
    unit Euclidean norm by the Pythagorean identity.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != rks.d_in:
        raise ValueError(f"expected input dim {rks.d_in}, got {x.shape[-1]}")
    proj = x @ rks.omega
    z = np.empty(proj.shape[:-1] + (rks.dim_out,))
    np.cos(proj, out=z[..., : rks.k])
    np.sin(proj, out=z[..., rks.k :])
    z *= np.sqrt(1.0 / rks.k)
    return z


def approx_kernel(rks: RksMap, x: np.ndarray, y: np.ndarray) -> float:
    """Kernel estimate <Z(x), Z(y)>."""
    return float(np.dot(transform(rks, x), transform(rks, y)))


def median_heuristic_sigma(sample: np.ndarray, seed: int = 0) -> float:
    """Bandwidth = median pairwise Euclidean distance over (a subsample of)
    the rows.

    At most ``MEDIAN_MAX_POINTS`` rows enter the O(n^2) distance computation,
    chosen by a seeded draw so the result is reproducible.  The rows are
    centered on their column mean, which leaves every distance unchanged,
    and the squared distances are read from one Gram matrix G of the
    centered rows as G_ii + G_jj - 2 G_ij, clipped at 0.  Each carries a
    rounding error of about 1e-16 times its two rows' squared norms, so the
    median matches an exact distance computation to about 1e-16 relative
    unless most distances are many orders of magnitude shorter than the
    rows' spread about their mean.  Identical rows give identical Gram
    entries, so their distance is exactly 0.  Falls back to 1.0 when the median
    distance is zero (e.g. all points identical).
    """
    sample = np.asarray(sample, dtype=np.float64)
    if sample.ndim != 2 or sample.shape[0] < 2:
        raise ValueError("median heuristic needs at least 2 vectors")
    if sample.shape[0] > MEDIAN_MAX_POINTS:
        rng = np.random.default_rng(seed)
        idx = rng.choice(sample.shape[0], size=MEDIAN_MAX_POINTS, replace=False)
        sample = sample[np.sort(idx)]
    centered = sample - sample.mean(axis=0)
    gram = centered @ centered.T
    sq_norms = gram.diagonal()
    i, j = np.triu_indices(len(gram), k=1)
    sq_dist = sq_norms[i] + sq_norms[j] - 2.0 * gram[i, j]
    median = float(np.median(np.sqrt(np.maximum(sq_dist, 0.0, out=sq_dist))))
    return median if median > 0.0 else 1.0
