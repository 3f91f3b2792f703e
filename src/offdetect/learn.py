"""Linear classifiers over feature matrices: regularized least squares,
hinge-loss SVM by stochastic subgradient, logistic regression, and Gaussian
naive Bayes.

Labels are encoded OFF -> +1, NOT -> -1 throughout; predictions map the
score sign back to the label strings.  A LinearModel may carry an embedded
random-feature map, in which case prediction lifts raw inputs through the
map before scoring, so persisted models are self-contained.
"""

from __future__ import annotations

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
    values = np.asarray(F, dtype=np.float64)
    if values.ndim != 2:
        raise DataError(f"feature matrix must be 2-d, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise DataError("feature matrix contains non-finite entries")
    return values


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


def _augment(X: np.ndarray) -> np.ndarray:
    return np.hstack([X, np.ones((X.shape[0], 1))])


def train_rlsc(F, y, lam: float = 1e-3, fit_intercept: bool = True) -> LinearModel:
    """Ridge regression on +-1 targets: w minimizing ||X w - y||^2 + lam ||w||^2.

    The intercept is the weight of a constant-1 column regularized like
    every other weight, but that column is never formed: its products with
    X are X's column sums and n.  One Cholesky solve of the smaller
    normal-equation system.  With k = dim + 1 unknowns (dim without an
    intercept), the primal, taken when k <= n, is the bordered system
    [[X^T X, X^T 1], [1^T X, n]] + lam I with right-hand side [X^T y, sum y].
    Otherwise the dual (X X^T + 1 1^T + lam I) a = y gives w = X^T a and
    bias = sum a.  Either way the solve holds X and one Gram matrix, with
    no widened copy of X.  Features so large that the Gram matrix or the
    weights overflow raise NumericError.
    """
    # imported here: scipy is slow to import and no other trainer needs it
    import scipy.linalg

    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"ridge strength lam must be positive, got {lam}")
    X, y = _training_pair(F, y)
    n, dim = X.shape
    k = dim + 1 if fit_intercept else dim
    primal = k <= n
    if primal:
        gram = np.empty((k, k))
        np.matmul(X.T, X, out=gram[:dim, :dim])
        rhs = X.T @ y
        if fit_intercept:
            gram[dim, :dim] = gram[:dim, dim] = X.sum(axis=0)
            gram[dim, dim] = n
            rhs = np.append(rhs, y.sum())
    else:
        gram = X @ X.T
        if fit_intercept:
            gram += 1.0
    gram.flat[:: len(gram) + 1] += lam
    # one sum in place of scipy's Gram-sized finiteness mask: any inf or nan
    # entry makes it non-finite, and so does a sum past the float range
    if not math.isfinite(gram.sum()):
        raise NumericError("normal-equation matrix overflows: features too large")
    try:
        # numpy fills a matrix times its transpose symmetrically, so its
        # Fortran-ordered transpose is the same matrix and LAPACK factors it in place
        factor = scipy.linalg.cho_factor(gram.T, overwrite_a=True, check_finite=False)
        solution = scipy.linalg.cho_solve(factor, rhs if primal else y, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise NumericError(f"normal-equation solve failed: {exc}") from exc
    if not primal:
        w, bias = X.T @ solution, float(solution.sum()) if fit_intercept else 0.0
    elif fit_intercept:
        w, bias = solution[:-1], float(solution[-1])
    else:
        w, bias = solution, 0.0
    if not (np.isfinite(w).all() and math.isfinite(bias)):
        raise NumericError("normal-equation solve gave non-finite weights")
    return LinearModel(kind="rlsc", w=w, bias=bias, hyper={"lam": float(lam)})


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
    Deterministic given (data, C, epochs, seed).
    """
    if not (math.isfinite(C) and C > 0):
        raise ValueError(f"control parameter C must be positive, got {C}")
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    X, y = _training_pair(F, y)
    _require_two_classes(y)
    n, dim = X.shape
    lam = 1.0 / (C * n)
    steps = epochs * n
    order = np.random.default_rng(seed).integers(0, n, size=steps)
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
        i = order[t0]
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
        rows = order[t0 : t0 + L]
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
    w_avg = (w_sum + X.T @ coef) / tail
    bias_avg = bias_sum / tail
    hyper = {"C": float(C), "epochs": int(epochs), "seed": int(seed)}
    return LinearModel(kind="svm_linear", w=w_avg, bias=float(bias_avg), hyper=hyper)


def logreg_loss_grad(w_full: np.ndarray, Xa: np.ndarray, y: np.ndarray, l2: float):
    """Mean logistic loss with L2 penalty, and its analytic gradient."""
    z = Xa @ w_full
    margins = y * z
    loss = float(np.mean(np.logaddexp(0.0, -margins)) + 0.5 * l2 * np.dot(w_full, w_full))
    # d/dz log(1 + e^{-yz}) = -y * sigmoid(-yz)
    sig = 0.5 * (1.0 - np.tanh(0.5 * margins))
    grad = Xa.T @ (-y * sig) / Xa.shape[0] + l2 * w_full
    return loss, grad


def train_logreg(
    F, y, lr: float = 0.1, epochs: int = 500, l2: float = 1e-3, seed: int = 0
) -> LinearModel:
    """L2-regularized logistic regression by full-batch gradient descent.

    The intercept is an appended constant-1 column regularized uniformly.
    The step is the requested rate capped at the loss's curvature bound
    1 / (sigma_max(X)^2 / 4n + l2), so a large regularizer cannot
    destabilize the descent.  Optimization starts from zero weights; the
    seed only tags the run.
    """
    if not (math.isfinite(lr) and lr > 0):
        raise ValueError(f"learning rate must be positive, got {lr}")
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    if not (math.isfinite(l2) and l2 >= 0):
        raise ValueError(f"l2 strength must be >= 0, got {l2}")
    X, y = _training_pair(F, y)
    _require_two_classes(y)
    Xa = _augment(X)
    if min(Xa.shape) <= 2000:
        top_sv = np.linalg.svd(Xa, compute_uv=False)[0]
        smoothness = top_sv**2 / (4.0 * Xa.shape[0]) + l2
    else:
        smoothness = np.sum(Xa * Xa) / (4.0 * Xa.shape[0]) + l2
    step = min(lr, 1.0 / smoothness)
    w_full = np.zeros(Xa.shape[1])
    for _ in range(epochs):
        _, grad = logreg_loss_grad(w_full, Xa, y, l2)
        w_full -= step * grad
    w, bias = w_full[:-1], float(w_full[-1])
    hyper = {"lr": float(lr), "epochs": int(epochs), "l2": float(l2), "seed": int(seed)}
    return LinearModel(kind="logreg", w=w, bias=bias, hyper=hyper)


def train_gnb(F, y, var_floor: float = 1e-9) -> GnbModel:
    """Per-class diagonal Gaussians with a variance floor; priors from counts."""
    if not (math.isfinite(var_floor) and var_floor > 0):
        raise ValueError(f"variance floor must be positive, got {var_floor}")
    X, y = _training_pair(F, y)
    _require_two_classes(y)
    means = []
    variances = []
    priors = []
    for sign in (+1.0, -1.0):
        rows = X[y == sign]
        means.append(rows.mean(axis=0))
        variances.append(np.maximum(rows.var(axis=0), var_floor))
        priors.append(rows.shape[0] / X.shape[0])
    return GnbModel(
        means=np.array(means),
        variances=np.array(variances),
        priors=np.array(priors),
        var_floor=float(var_floor),
    )


def _gnb_scores(model: GnbModel, X: np.ndarray) -> np.ndarray:
    log_posts = []
    for cls in range(2):
        mu = model.means[cls]
        var = model.variances[cls]
        ll = -0.5 * np.sum(np.log(2.0 * np.pi * var) + (X - mu) ** 2 / var, axis=1)
        log_posts.append(np.log(model.priors[cls]) + ll)
    return log_posts[0] - log_posts[1]


def predict(model, F) -> list[tuple[str, float]]:
    """Per-row (label, raw score); score >= 0 reads as OFF.

    A LinearModel with an embedded random-feature map expects raw inputs of
    the map's input dimension and lifts them before scoring.
    """
    X = _as_matrix(F)
    if isinstance(model, LinearModel):
        if model.rks is not None:
            if X.shape[1] != model.rks.d_in:
                raise DataError(
                    f"feature dim {X.shape[1]} does not match map input {model.rks.d_in}"
                )
            X = transform(model.rks, X)
        if X.shape[1] != model.w.shape[0]:
            raise DataError(f"feature dim {X.shape[1]} does not match model dim {model.w.shape[0]}")
        scores = X @ model.w + model.bias
    elif isinstance(model, GnbModel):
        if X.shape[1] != model.means.shape[1]:
            raise DataError(
                f"feature dim {X.shape[1]} does not match model dim {model.means.shape[1]}"
            )
        scores = _gnb_scores(model, X)
    else:
        raise TypeError(f"unsupported model type {type(model).__name__}")
    return [(SIGN_TO_LABEL[+1] if s >= 0 else SIGN_TO_LABEL[-1], float(s)) for s in scores]
