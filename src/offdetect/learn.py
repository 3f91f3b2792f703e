"""Linear classifiers over feature matrices: regularized least squares,
hinge-loss SVM by stochastic subgradient, logistic regression, and Gaussian
naive Bayes.

Labels are encoded OFF -> +1, NOT -> -1 throughout; predictions map the
score sign back to the label strings.  A LinearModel may carry an embedded
random-feature map, in which case prediction lifts raw inputs through the
map before scoring, so persisted models are self-contained.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .corpus import SIGN_TO_LABEL
from .errors import DataError, NumericError
from .rks import RksMap, transform

__all__ = [
    "LinearModel",
    "GnbModel",
    "train_rlsc",
    "train_rlsc_nested",
    "train_linear_svm",
    "train_logreg",
    "train_gnb",
    "predict",
    "svm_objective",
    "logreg_loss_grad",
]

# Lazy SVM solver: steps per shrink-scale chunk, and the most rows scored per
# margin look-ahead.  A look-ahead gathers window x dim floats; gathering a
# whole chunk at once would raise peak memory by megabytes on OLID-size inputs.
_SVM_CHUNK = 4096
_SVM_WINDOW = 32
# Columns per block of the ridge solve's Cholesky factorization: besides the
# Gram matrix it factors in place, a step holds one (panel rows x block)
# product.  Of 96 to 512, 128 to 192 were fastest at 1,001 to 3,310 unknowns
# (2 vCPUs).
_CHOLESKY_BLOCK = 128
# Rows per panel of the Gram matrix's stored lower triangle: a whole number
# of blocks, so that no block of the factorization straddles two panels.
_PANEL_ROWS = 3 * _CHOLESKY_BLOCK
# Most entries of one block of the lift that train_rlsc makes (32 MiB of
# float64): it lifts its input this many entries at a time, rows for the
# primal system and frequencies for the dual, and holds no whole lift.  The
# bench sweep's D = 4000 dual (3,310 rows) streams four blocks of 500
# frequencies, where 2^23 entries gave two blocks of 1,000 and a 25 MiB
# higher peak; the re-lift this costs is paid back by the narrower points
# that train_rlsc_nested fits without a lift.
_LIFT_BLOCK_ENTRIES = 1 << 22
# Columns per product that a later lift block adds into a Gram panel:
# numpy's matmul cannot add into its output, so each part goes through one
# scratch buffer of at most _PANEL_ROWS x this many floats (3 MiB), where a
# whole panel's temporary took up to 9 MiB at the bench sweep's D = 4000.
# The buffer is made once per solve: a temporary per part left the process's
# heap 28 MiB larger on one bench corpus.
_ADD_COLUMNS = 1024


@dataclass
class LinearModel:
    """Weights + bias for score = w . x + bias, sign read out as OFF/NOT."""

    kind: str
    w: np.ndarray
    bias: float
    hyper: dict
    rks: RksMap | None = None


@dataclass
class GnbModel:
    """Per-class diagonal Gaussians; class rows ordered [OFF(+1), NOT(-1)]."""

    means: np.ndarray
    variances: np.ndarray
    priors: np.ndarray
    var_floor: float


def _as_matrix(F) -> np.ndarray:
    """``F`` as a 2-d float64 array, without a copy when it is one already;
    a non-finite entry is a DataError."""
    values = np.asarray(F, dtype=np.float64)
    if values.ndim != 2:
        raise DataError(f"feature matrix must be 2-d, got shape {values.shape}")
    if not _all_finite(values):
        raise DataError("feature matrix contains non-finite entries")
    return values


def _all_finite(values: np.ndarray) -> bool:
    """Every entry finite, read from the minimum and maximum: no mask is held."""
    return not values.size or (math.isfinite(values.min()) and math.isfinite(values.max()))


def _training_pair(F, y) -> tuple[np.ndarray, np.ndarray]:
    X = _as_matrix(F)
    y = np.asarray(y, dtype=np.float64).ravel()
    if X.shape[0] == 0:
        raise DataError("empty training set (zero rows)")
    if y.shape[0] != X.shape[0]:
        raise DataError(f"{X.shape[0]} rows but {y.shape[0]} labels")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise DataError("labels must be +1 or -1")
    return X, y


def _require_two_classes(y: np.ndarray) -> None:
    if np.all(y == y[0]):
        raise NumericError("degenerate training set: only one class present")


def _lower_panels(k: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """A buffer for the lower triangle of a symmetric k x k matrix, and the
    row panels cut from it: each covers rows [i0, i1), at most _PANEL_ROWS
    of them, and columns [0, i1), as one C-contiguous view.  A panel's
    diagonal square is stored whole, so the buffer holds about half of the
    k^2 entries plus k * _PANEL_ROWS / 2."""
    bounds = [(i0, min(i0 + _PANEL_ROWS, k)) for i0 in range(0, k, _PANEL_ROWS)]
    buffer = np.empty(sum((i1 - i0) * i1 for i0, i1 in bounds))
    panels, start = [], 0
    for i0, i1 in bounds:
        stop = start + (i1 - i0) * i1
        panels.append(buffer[start:stop].reshape(i1 - i0, i1))
        start = stop
    return buffer, panels


def _panel_rows(panel: np.ndarray) -> tuple[int, int]:
    """The rows [i0, i1) of the whole matrix that `panel` holds."""
    return panel.shape[1] - len(panel), panel.shape[1]


def _column_blocks(panels: list[np.ndarray]):
    """(q, i0, j0, j1) for each block of at most _CHOLESKY_BLOCK columns
    [j0, j1), in order: its diagonal block lies in panel q, whose rows
    start at i0."""
    for q, panel in enumerate(panels):
        i0, i1 = _panel_rows(panel)
        for j0 in range(i0, i1, _CHOLESKY_BLOCK):
            yield q, i0, j0, min(j0 + _CHOLESKY_BLOCK, i1)


def _cholesky_in_place(panels: list[np.ndarray]) -> list[np.ndarray]:
    """Overwrite the lower triangle of the symmetric positive definite
    matrix held in the row panels of _lower_panels with its Cholesky factor
    L, a = L L^T, and return the panels.

    Left-looking and blocked (Golub & Van Loan, Matrix Computations, 4.2):
    each block of columns takes one product per panel it spans against the
    columns already factored, LAPACK factors its diagonal block L11, and
    the rows below are multiplied by inv(L11^T), again one product per
    panel.  Only the lower triangle is read, and no copy larger than one
    panel's block of columns is made.  The strict upper triangle of
    inv(L11^T), which _cholesky_solve reuses, is kept above L11, where
    nothing else is read.  Raises LinAlgError when the matrix is not
    positive definite.

    LAPACK's LU inverts the upper triangular L11^T without exchanging a
    row, by plain back substitution.  Inverting L11 itself, it pivots: on
    the mini hodmd2_rks_rlsc system (condition number 2e5) the weights'
    error was then 4.3 times that of LAPACK's own Cholesky solve, against
    0.6 times this way.
    """
    for q, i0, j0, j1 in _column_blocks(panels):
        panel = panels[q]
        rows = panel[j0 - i0 : j1 - i0]
        if j0:
            for part in [panel[j0 - i0 :]] + panels[q + 1 :]:
                part[:, j0:j1] -= part[:, :j0] @ rows[:, :j0].T
        factor = np.linalg.cholesky(rows[:, j0:j1])
        inverse = np.linalg.inv(factor.T)
        rows[:, j0:j1] = factor + np.triu(inverse, 1)
        for part in [panel[j1 - i0 :]] + panels[q + 1 :]:
            part[:, j0:j1] = part[:, j0:j1] @ inverse
    return panels


def _diagonal_inverse(block: np.ndarray) -> np.ndarray:
    """inv(L11^T) for a diagonal block that _cholesky_in_place leaves: its
    strict upper triangle as stored above L11, its diagonal 1 / diag(L11)."""
    inverse = np.triu(block, 1)
    np.fill_diagonal(inverse, 1.0 / block.diagonal())
    return inverse


def _cholesky_solve(panels: list[np.ndarray], b: np.ndarray) -> np.ndarray:
    """Solve L L^T x = b for the factor L that _cholesky_in_place leaves in
    `panels`: forward, then back substitution over the same blocks of rows.
    Each diagonal block is inverted by the inverse that the factorization
    kept above it, and each step reads only its own rows of L."""
    blocks = [(panels[q][j0 - i0 : j1 - i0], j0, j1) for q, i0, j0, j1 in _column_blocks(panels)]
    x = np.array(b, dtype=np.float64)
    for rows, j0, j1 in blocks:
        x[j0:j1] = _diagonal_inverse(rows[:, j0:j1]).T @ (x[j0:j1] - rows[:, :j0] @ x[:j0])
    for rows, j0, j1 in reversed(blocks):
        x[j0:j1] = _diagonal_inverse(rows[:, j0:j1]) @ x[j0:j1]
        x[:j0] -= rows[:, :j0].T @ x[j0:j1]
    return x


def _lift_bounds(count: int, width: int) -> list[tuple[int, int]]:
    """[start, stop) bounds that cut ``count`` units (rows or frequencies)
    of ``width`` entries each into the fewest near-equal blocks of at most
    _LIFT_BLOCK_ENTRIES entries."""
    parts = max(1, -(-count // max(1, _LIFT_BLOCK_ENTRIES // width)))
    return [(count * j // parts, count * (j + 1) // parts) for j in range(parts)]


def _lift_buffer(X: np.ndarray, rks: RksMap | None, bounds, by_rows: bool) -> np.ndarray | None:
    """The flat buffer that _lifted_blocks writes each block of ``bounds``
    into (see there for ``by_rows``); None without a map."""
    if rks is None:
        return None
    most = max(stop - start for start, stop in bounds)
    return np.empty(most * (rks.dim_out if by_rows else 2 * len(X)))


def _lifted_blocks(X: np.ndarray, rks: RksMap | None, bounds, by_rows: bool, buffer):
    """Yield the lift of X through ``rks`` one block per [start, stop) of
    ``bounds``: rows of the lifted matrix (``by_rows``), else frequencies,
    a block then holding their cos and sin columns.  Every block is
    written into ``buffer`` (see _lift_buffer), so a block is valid only
    until the next one is made.  A non-finite block (a projection past the
    float range) is a DataError.  Without a map, X is its own one block."""
    if rks is None:
        yield X
        return
    for start, stop in bounds:
        if by_rows:
            rows, freqs, shape = X[start:stop], slice(None), (stop - start, rks.dim_out)
        else:
            rows, freqs, shape = X, slice(start, stop), (len(X), 2 * (stop - start))
        out = buffer[: shape[0] * shape[1]].reshape(shape)
        yield _as_matrix(transform(rks, rows, freqs, out=out))


def _add_gram(panels: list[np.ndarray], A: np.ndarray, limit: int, scratch) -> None:
    """Add A A^T into the first ``limit`` rows and columns held in
    ``panels``: the panel of rows [i0, i1) takes A[i0:i1] @ A[:i1]^T.  The
    first block of a sum (``scratch`` None) writes its products into the
    panels; every later block adds them _ADD_COLUMNS columns at a time,
    each part written into the flat buffer ``scratch`` first."""
    for panel in panels:
        i0, i1 = _panel_rows(panel)
        stop = min(i1, limit)
        out, a, b = panel[: stop - i0, :stop], A[i0:stop], A[:stop].T
        if scratch is None:
            np.matmul(a, b, out=out)
            continue
        for c0 in range(0, stop, _ADD_COLUMNS):
            part = out[:, c0 : c0 + _ADD_COLUMNS]
            product = scratch[: part.size].reshape(part.shape)
            np.matmul(a, b[:, c0 : c0 + _ADD_COLUMNS], out=product)
            part += product


def _solve(buffer: np.ndarray, panels: list[np.ndarray], lam: float, b: np.ndarray) -> np.ndarray:
    """Add lam to the diagonal of the Gram matrix held in ``panels``, cut
    from ``buffer``, and solve it for ``b`` by Cholesky."""
    for panel in panels:
        i0, i1 = _panel_rows(panel)
        panel.flat[i0 :: i1 + 1] += lam
    # one sum in place of a Gram-sized finiteness mask: every stored entry
    # is written by now, and any inf or nan among them makes it non-finite;
    # a sum of finite entries past the float range is read again, entry by
    # entry
    if not (math.isfinite(buffer.sum()) or _all_finite(buffer)):
        raise NumericError("normal-equation matrix overflows: features too large")
    try:
        return _cholesky_solve(_cholesky_in_place(panels), b)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"normal-equation solve failed: {exc}") from exc


def _ridge_system(X: np.ndarray, y: np.ndarray, rks: RksMap | None, fit_intercept: bool):
    """The normal-equation system of train_rlsc (see there), formed and not
    yet solved: (Gram buffer, its row panels, right-hand side, dual).
    ``dual`` is None for the primal system; for the dual it is the (bounds,
    lift buffer, last lifted block) that w = Z^T a reads."""
    n = len(X)
    dim = X.shape[1] if rks is None else rks.dim_out
    k = dim + 1 if fit_intercept else dim
    primal = k <= n
    gram, panels = _lower_panels(k if primal else n)
    if rks is None:
        bounds = [(0, n)]
    else:
        bounds = _lift_bounds(n, dim) if primal else _lift_bounds(rks.k, 2 * n)
    buffer = _lift_buffer(X, rks, bounds, primal)
    # room for any part of a panel that a later block adds into it
    parts = len(panels[0]) * min(_ADD_COLUMNS, panels[-1].shape[1])
    scratch = np.empty(parts) if len(bounds) > 1 else None
    blocks = _lifted_blocks(X, rks, bounds, primal, buffer)
    for j, ((b0, b1), Z) in enumerate(zip(bounds, blocks)):
        _add_gram(panels, Z.T if primal else Z, dim if primal else n, scratch if j else None)
        if primal:
            rhs = Z.T @ y[b0:b1] if j == 0 else rhs + Z.T @ y[b0:b1]
            if fit_intercept:
                sums = Z.sum(axis=0) if j == 0 else sums + Z.sum(axis=0)
    if not primal:
        if fit_intercept:
            for panel in panels:
                panel += 1.0
        return gram, panels, y, (bounds, buffer, Z)
    if fit_intercept:
        panel = panels[-1]
        i0, _ = _panel_rows(panel)
        panel[:-1, dim] = sums[i0:]
        panel[-1, :dim] = sums
        panel[-1, dim] = n
        rhs = np.append(rhs, y.sum())
    return gram, panels, rhs, None


def _sub_system(panels: list[np.ndarray], rhs: np.ndarray, k: int, sub_k: int, fit_intercept: bool):
    """The primal system of the first ``sub_k`` of a map's k frequencies,
    copied from the map's own primal system (``panels``, ``rhs``, see
    train_rlsc_nested): (Gram buffer, row panels, right-hand side).  Row a
    of the copy is source row idx[a] at the columns idx[:a + 1], times
    scale[a] * scale[:a + 1]; what its panels hold above their diagonal is
    mirrored from below it."""
    # the source rows: cos [0, sub_k), sin [k, k + sub_k), the intercept border
    idx = np.concatenate([np.arange(sub_k), np.arange(k, k + sub_k), np.arange(2 * k, 2 * k + fit_intercept)])
    scale = np.full(len(idx), math.sqrt(k / sub_k))
    scale[2 * sub_k :] = 1.0
    gram, sub = _lower_panels(len(idx))
    for panel in sub:
        r0, r1 = _panel_rows(panel)
        for a in range(r0, r1):
            source = panels[idx[a] // _PANEL_ROWS][idx[a] % _PANEL_ROWS]
            np.multiply(source[idx[: a + 1]], scale[a] * scale[: a + 1], out=panel[a - r0, : a + 1])
        square = panel[:, r0:r1]
        upper = np.triu_indices(r1 - r0, 1)
        square[upper] = square.T[upper]
    return gram, sub, rhs[idx] * scale


def _rlsc_model(w: np.ndarray, bias: float, lam: float, rks: RksMap | None) -> LinearModel:
    if not (np.isfinite(w).all() and math.isfinite(bias)):
        raise NumericError("normal-equation solve gave non-finite weights")
    return LinearModel(kind="rlsc", w=w, bias=bias, hyper={"lam": float(lam)}, rks=rks)


def _primal_model(gram, panels, rhs, lam: float, fit_intercept: bool, rks: RksMap | None) -> LinearModel:
    """The model that solving the primal system (``gram``, ``panels``,
    ``rhs``) gives; the panels are factored in place."""
    solution = _solve(gram, panels, lam, rhs)
    w, bias = (solution[:-1], float(solution[-1])) if fit_intercept else (solution, 0.0)
    return _rlsc_model(w, bias, lam, rks)


def _check_ridge_inputs(F, y, lam: float, maps) -> tuple[np.ndarray, np.ndarray]:
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"ridge strength lam must be positive, got {lam}")
    X, y = _training_pair(F, y)
    for rks in maps:
        if rks is not None and X.shape[1] != rks.d_in:
            raise DataError(f"feature dim {X.shape[1]} does not match map input {rks.d_in}")
    return X, y


def train_rlsc(
    F, y, lam: float = 1e-3, fit_intercept: bool = True, rks: RksMap | None = None
) -> LinearModel:
    """Ridge regression on +-1 targets: w minimizing ||Z w - y||^2 + lam ||w||^2,
    where Z is F, or with a map ``rks`` F lifted through it (the model then
    carries the map).

    The intercept is the weight of a constant-1 column regularized like
    every other weight, but that column is never formed: its products with
    Z are Z's column sums and n.  One Cholesky solve of the smaller
    normal-equation system.  With k = dim + 1 unknowns (dim without an
    intercept), the primal, taken when k <= n, is the bordered system
    [[Z^T Z, Z^T 1], [1^T Z, n]] + lam I with right-hand side [Z^T y, sum y].
    Otherwise the dual (Z Z^T + 1 1^T + lam I) a = y gives w = Z^T a and
    bias = sum a.  The Gram matrix's lower triangle is kept in row panels
    of _PANEL_ROWS rows cut from one buffer, about half of the
    min(dim + 1, n)^2 entries.  A blocked Cholesky in numpy alone factors
    it in place, holding at most one (panel rows x _CHOLESKY_BLOCK)
    product besides it.

    With a map, no (n, dim) lifted matrix is held: the solve lifts F in
    blocks of at most _LIFT_BLOCK_ENTRIES entries, each written into one
    lift buffer made once per solve.  The primal lifts row blocks and adds
    each one's products, its column sums and its part of Z^T y; the dual
    lifts frequency blocks, each holding its cos and sin columns, and adds
    each Z_b Z_b^T.  Every block after the first adds its products through
    one scratch buffer of at most _PANEL_ROWS x _ADD_COLUMNS floats.  For
    w = Z^T a the dual takes the last block, still in the lift buffer, and
    lifts the others again into that buffer.  With one block, which covers
    every lift of up to 2^22 entries, this is the computation on the whole
    lifted matrix, bit for bit; more blocks change only the order in which
    the Gram matrix and Z^T y are summed.  A lifted block that is not
    finite is a DataError, as a non-finite F is.  Features so large that
    the Gram matrix or the weights overflow raise NumericError, and so does
    a Gram matrix that rounding leaves not positive definite.
    """
    X, y = _check_ridge_inputs(F, y, lam, [rks])
    # an overflow is reported by the NumericError below, not by numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        gram, panels, rhs, dual = _ridge_system(X, y, rks, fit_intercept)
        if dual is None:
            return _primal_model(gram, panels, rhs, lam, fit_intercept, rks)
        a = _solve(gram, panels, lam, rhs)
        bias = float(a.sum()) if fit_intercept else 0.0
        if rks is None:
            w = X.T @ a
        else:
            bounds, buffer, Z = dual
            w = np.empty(rks.dim_out)
            # the last block, still in the buffer, then the others lifted again
            again = zip(bounds[:-1], _lifted_blocks(X, rks, bounds[:-1], False, buffer))
            for (f0, f1), Z in itertools.chain([(bounds[-1], Z)], again):
                part = Z.T @ a
                w[f0:f1], w[rks.k + f0 : rks.k + f1] = part[: f1 - f0], part[f1 - f0 :]
    return _rlsc_model(w, bias, lam, rks)


def train_rlsc_nested(
    F, y, maps: list[RksMap], lam: float = 1e-3, fit_intercept: bool = True
) -> list[LinearModel]:
    """train_rlsc with each map of ``maps``, in one call: one model per map,
    in input order, each train_rlsc's up to rounding.  The maps must nest,
    each one's frequencies the first columns of the widest one's, as
    rks.sample_map draws the maps of one (d_in, sigma, seed); a map that
    does not is a ValueError.

    The maps are fitted widest first.  A map whose system is dual (dim + 1
    > n) is fitted by train_rlsc.  The widest primal map lifts F and forms
    its system once.  The lift of a narrower map of k' frequencies is
    sqrt(k/k') times the cos columns [0, k') and sin columns [k, k + k')
    of the lift of the next wider primal map (k frequencies), so its
    system is a copy of that sub-block of the wider one: those rows and
    columns and the intercept border, the Gram entries scaled by k/k' and
    the border and Z^T y by sqrt(k/k').  The copy is taken before the wider
    system is factored in place, so at most two systems are held at once,
    and a narrower primal map neither lifts nor forms a Gram matrix.
    """
    X, y = _check_ridge_inputs(F, y, lam, maps)
    widest = max(maps, key=lambda rks: rks.k)
    for rks in maps:
        if not np.array_equal(rks.omega, widest.omega[:, : rks.k]):
            raise ValueError(f"the {rks.dim_out}-dim map is not nested in the {widest.dim_out}-dim map")
    order = sorted(range(len(maps)), key=lambda i: -maps[i].k)
    extra = 1 if fit_intercept else 0
    primal = [i for i in order if maps[i].dim_out + extra <= len(X)]
    models: list = [None] * len(maps)
    for i in order:
        if i not in primal:
            models[i] = train_rlsc(X, y, lam=lam, fit_intercept=fit_intercept, rks=maps[i])
    system = None
    # an overflow is reported by the NumericError below, not by numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for i, narrower in zip(primal, primal[1:] + [None]):
            wider = system or _ridge_system(X, y, maps[i], fit_intercept)[:3]
            if narrower is not None:
                system = _sub_system(wider[1], wider[2], maps[i].k, maps[narrower].k, fit_intercept)
            models[i] = _primal_model(*wider, lam, fit_intercept, maps[i])
    return models


def svm_objective(w: np.ndarray, bias: float, F, y, C: float) -> float:
    """Primal hinge objective 0.5 ||w||^2 + C * sum_i max(0, 1 - y_i s_i)."""
    X, y = _training_pair(F, y)
    margins = y * (X @ w + bias)
    return float(0.5 * np.dot(w, w) + C * np.sum(np.maximum(0.0, 1.0 - margins)))


def train_linear_svm(F, y, C: float = 1000.0, epochs: int = 200, seed: int = 0) -> LinearModel:
    """Hinge-loss SVM by seeded stochastic subgradient descent.

    Runs a fixed budget of epochs * n averaged SGD steps on the objective
    0.5 ||w||^2 + C sum_i hinge_i, in its per-sample scaling (strength
    lam = 1 / (C n) on the mean hinge); it does not solve that objective to
    optimality.  At large C it can end far above the optimum: on the bench
    corpus's averaged word vectors at C = 1000, 200 epochs end at objective
    58,290 where dual coordinate descent reaches 121.  One uniformly sampled
    row per step, step size eta_t = 1/sqrt(t): unlike the 1/(lam t)
    schedule, the step scale does not blow up with C, so large control
    parameters stay stable.  Every step shrinks w by max(0, 1 - eta_t lam);
    a step whose row fails the margin test also adds eta_t y_i x_i.  The
    bias is a separate unregularized term moved only by hinge subgradients.
    The returned weights average the iterates of the second half of the
    run, which is what actually converges.

    Most steps only shrink w, so the solver never touches w on them.  It
    holds w = s v with a scalar scale s taken per chunk of steps from the
    running product of the shrink factors, and folds s back into v at each
    chunk end and before s would drop below 1/2.  The tail average is kept the
    same way: a running sum of s times v, corrected on each active step
    through a per-sample coefficient and finished with one X^T product.  A
    margin look-ahead scores the next scheduled rows against v at once and
    jumps to the first one that fails, so Python runs only on the steps that
    change w.  Its length (1 to 32 rows) follows the observed share of
    active steps, so runs where most steps fail the margin test score one
    row at a time, about as fast as the per-step loop.  Steps that shrink w by more than half (eta_t lam > 1/2,
    possible only when C n < 2) form a prefix of the run and take the plain
    per-step recurrence.  The iterates are those of the per-step loop up
    to floating-point rounding, so weights agree with it to about 1e-13
    relative, not bit for bit; reruns on the same inputs are bit-identical.
    Deterministic given (data, C, epochs, seed).  Features so large that a
    margin or the weights overflow raise NumericError.
    """
    if not (math.isfinite(C) and C > 0):
        raise ValueError(f"control parameter C must be positive, got {C}")
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    X, y = _training_pair(F, y)
    _require_two_classes(y)
    # a margin or weight past the float range ends the run, rather than
    # training on infinities and nans
    try:
        with np.errstate(over="raise", invalid="raise"):
            w_avg, bias_avg = _svm_steps(X, y, C, epochs, seed)
    except FloatingPointError as exc:
        raise NumericError("SVM margins or weights overflow: features too large") from exc
    hyper = {"C": float(C), "epochs": int(epochs), "seed": int(seed)}
    return LinearModel(kind="svm_linear", w=w_avg, bias=float(bias_avg), hyper=hyper)


def _svm_steps(
    X: np.ndarray, y: np.ndarray, C: float, epochs: int, seed: int
) -> tuple[np.ndarray, float]:
    """The steps of train_linear_svm; returns the tail-averaged (w, bias)."""
    n, dim = X.shape
    lam = 1.0 / (C * n)
    steps = epochs * n
    # the step order, drawn a step or a chunk at a time just before it runs:
    # successive draws from one generator give the same rows as one draw of
    # all steps, without holding the epochs x n array
    rng = np.random.default_rng(seed)
    tail_start = steps // 2

    w = np.zeros(dim)
    bias = 0.0
    w_sum = np.zeros(dim)
    bias_sum = 0.0
    # Steps that shrink w by more than half: eta_t lam falls with t, so they
    # form a prefix, which runs the per-step recurrence on w itself.
    t0 = 0
    while t0 < steps:
        eta = 1.0 / np.sqrt(t0 + 1.0)
        shrink = max(0.0, 1.0 - eta * lam)
        if shrink >= 0.5:
            break
        i = int(rng.integers(0, n))
        active = y[i] * (X[i] @ w + bias) < 1.0
        w *= shrink
        if active:
            w += eta * y[i] * X[i]
            bias += eta * y[i]
        if t0 >= tail_start:
            w_sum += w
            bias_sum += bias
        t0 += 1

    # Lazy phase.  Each chunk starts from v = w.  After the shrink of local
    # step k, w = scale[k] v, so adding g to w adds g / scale[k] to v.  The
    # chunk's tail steps sum to ssum[L] v_end, less ssum[k] g / scale[k] for
    # each active step k, whose update the ssum[k] earlier tail weight never
    # saw; coef gathers those corrections per sample, bias_sum the bias ones.
    v = w
    coef = np.zeros(n)
    win = _SVM_WINDOW
    while t0 < steps:
        t = np.arange(t0, min(t0 + _SVM_CHUNK, steps))
        eta = 1.0 / np.sqrt(t + 1.0)
        scale = np.cumprod(1.0 - eta * lam)
        L = int(np.count_nonzero(scale >= 0.5))
        rows = rng.integers(0, n, size=L)
        y_rows = y[rows]
        before = np.concatenate(([1.0], scale[: L - 1]))
        tail_scale = np.where(t[:L] >= tail_start, scale[:L], 0.0)
        ssum = np.concatenate(([0.0], np.cumsum(tail_scale)))
        first_tail = max(t0, tail_start)
        p = 0
        while p < L:
            # Score the next win rows against v (a single row by a plain dot
            # product); k is the first active step among them, or -1.  The
            # window doubles after a run of inactive steps and halves when
            # its first row is already active, so it stays long while active
            # steps are rare and falls to single rows when most steps are.
            # Per-step reads go through .item(): Python scalars index X and
            # do arithmetic faster than numpy scalars do.
            if win == 1:
                q = p + 1
                fails = y_rows.item(p) * (before.item(p) * X[rows.item(p)].dot(v) + bias) < 1.0
                k = p if fails else -1
            else:
                q = min(p + win, L)
                fails = y_rows[p:q] * (before[p:q] * (X[rows[p:q]] @ v) + bias) < 1.0
                j = int(fails.argmax())
                k = p + j if fails[j] else -1
            if k < 0:
                p = q
                win = min(2 * win, _SVM_WINDOW)
                continue
            if k == p:
                win = max(1, win // 2)
            i = rows.item(k)
            step = eta.item(k) * y_rows.item(k)
            dv = step / scale.item(k)
            v += dv * X[i]
            bias += step
            coef[i] -= ssum.item(k) * dv
            bias_sum -= max(0, t0 + k - first_tail) * step
            p = k + 1
        w_sum += ssum[L] * v
        bias_sum += max(0, t0 + L - first_tail) * bias
        v *= scale[L - 1]
        t0 += L

    tail = steps - tail_start
    return (w_sum + X.T @ coef) / tail, bias_sum / tail


def logreg_loss_grad(w_full: np.ndarray, X: np.ndarray, y: np.ndarray, l2: float):
    """Mean logistic loss with L2 penalty, and its analytic gradient, at
    w_full = [w, bias]: the bias weighs a constant-1 column never formed."""
    margins = y * (X @ w_full[:-1] + w_full[-1])
    loss = float(np.mean(np.logaddexp(0.0, -margins)) + 0.5 * l2 * np.dot(w_full, w_full))
    # d/dz log(1 + e^{-yz}) = -y * sigmoid(-yz)
    r = -y * (0.5 * (1.0 - np.tanh(0.5 * margins)))
    grad = np.append(X.T @ r, r.sum()) / len(X) + l2 * w_full
    return loss, grad


def train_logreg(F, y, lr: float = 0.1, epochs: int = 500, l2: float = 1e-3) -> LinearModel:
    """L2-regularized logistic regression by full-batch gradient descent.

    The intercept is the weight of a constant-1 column regularized like the
    others and, as in train_rlsc, never formed.  The step is the requested
    rate capped at 1 / (s / 4n + l2), s >= sigma_max([X 1])^2, so a large
    regularizer cannot destabilize the descent: s is n plus the top
    eigenvalue of the smaller of X^T X and X X^T if min(n, dim + 1) <= 2000,
    else plus ||X||_F^2.  Optimization starts from zero weights.  Features
    so large that the step bound or the weights overflow raise NumericError.
    """
    if not (math.isfinite(lr) and lr > 0):
        raise ValueError(f"learning rate must be positive, got {lr}")
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    if not (math.isfinite(l2) and l2 >= 0):
        raise ValueError(f"l2 strength must be >= 0, got {l2}")
    X, y = _training_pair(F, y)
    _require_two_classes(y)
    n, dim = X.shape
    # an overflow is reported by the NumericError below, not by numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        if min(n, dim + 1) <= 2000:
            gram = X.T @ X if dim <= n else X @ X.T
            top = np.linalg.eigvalsh(gram)[-1] if _all_finite(gram) else math.inf
        else:
            top = np.einsum("ij,ij->", X, X)
        smoothness = (top + n) / (4.0 * n) + l2
    if not math.isfinite(smoothness):
        raise NumericError("logistic step bound overflows: features too large")
    step = min(lr, 1.0 / smoothness)
    w_full = np.zeros(dim + 1)
    for _ in range(epochs):
        _, grad = logreg_loss_grad(w_full, X, y, l2)
        w_full -= step * grad
    if not np.isfinite(w_full).all():
        raise NumericError("logistic regression gave non-finite weights")
    w, bias = w_full[:-1], float(w_full[-1])
    hyper = {"lr": float(lr), "epochs": int(epochs), "l2": float(l2)}
    return LinearModel(kind="logreg", w=w, bias=bias, hyper=hyper)


def train_gnb(F, y, var_floor: float = 1e-9) -> GnbModel:
    """Per-class diagonal Gaussians with a variance floor; priors from counts.
    Features so large that a class mean or variance overflows raise
    NumericError."""
    if not (math.isfinite(var_floor) and var_floor > 0):
        raise ValueError(f"variance floor must be positive, got {var_floor}")
    X, y = _training_pair(F, y)
    _require_two_classes(y)
    means = []
    variances = []
    priors = []
    # an overflow is reported by the NumericError below, not by numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for sign in (+1.0, -1.0):
            rows = X[y == sign]
            means.append(rows.mean(axis=0))
            variances.append(np.maximum(rows.var(axis=0), var_floor))
            priors.append(rows.shape[0] / X.shape[0])
    means, variances = np.array(means), np.array(variances)
    if not (np.isfinite(means).all() and np.isfinite(variances).all()):
        raise NumericError("class means or variances overflow: features too large")
    return GnbModel(
        means=means,
        variances=variances,
        priors=np.array(priors),
        var_floor=float(var_floor),
    )


def _gnb_scores(model: GnbModel, X: np.ndarray) -> np.ndarray:
    log_posts = []
    for cls in range(2):
        mu = model.means[cls]
        var = model.variances[cls]
        ll = -0.5 * np.sum(np.log(2.0 * np.pi) + np.log(var) + (X - mu) ** 2 / var, axis=1)
        log_posts.append(np.log(model.priors[cls]) + ll)
    return log_posts[0] - log_posts[1]


def predict(model, F) -> list[tuple[str, float]]:
    """Per-row (label, raw score); score >= 0 reads as OFF.

    A LinearModel with an embedded random-feature map expects raw inputs of
    the map's input dimension and lifts them before scoring, in blocks of
    rows as train_rlsc's primal system does, so no more than
    _LIFT_BLOCK_ENTRIES lifted entries are held; inputs that the lift
    overflows are a DataError, as non-finite inputs are.  An overflowing
    score keeps its sign; one left with none is a NumericError.
    """
    X = _as_matrix(F)
    if isinstance(model, LinearModel):
        rks = model.rks
        if rks is not None and X.shape[1] != rks.d_in:
            raise DataError(f"feature dim {X.shape[1]} does not match map input {rks.d_in}")
        dim = X.shape[1] if rks is None else rks.dim_out
        if dim != model.w.shape[0]:
            raise DataError(f"feature dim {dim} does not match model dim {model.w.shape[0]}")
        bounds = [(0, len(X))] if rks is None else _lift_bounds(len(X), dim)
        blocks = _lifted_blocks(X, rks, bounds, True, _lift_buffer(X, rks, bounds, True))
        scores = np.empty(len(X))
        with np.errstate(over="ignore", invalid="ignore"):  # reported below
            for (r0, r1), Z in zip(bounds, blocks):
                scores[r0:r1] = Z @ model.w + model.bias
    elif isinstance(model, GnbModel):
        if X.shape[1] != model.means.shape[1]:
            raise DataError(
                f"feature dim {X.shape[1]} does not match model dim {model.means.shape[1]}"
            )
        with np.errstate(over="ignore", invalid="ignore"):  # reported below
            scores = _gnb_scores(model, X)
    else:
        raise TypeError(f"unsupported model type {type(model).__name__}")
    if np.isnan(scores).any():
        raise NumericError("prediction scores overflow: features too large")
    return [(SIGN_TO_LABEL[+1] if s >= 0 else SIGN_TO_LABEL[-1], float(s)) for s in scores]
