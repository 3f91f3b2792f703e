"""Dynamic mode decomposition of word-vector signals, with delay embedding.

A tweet's ordered word vectors x_1..x_L are treated as snapshots of a
linear evolution x_{k+1} = A x_k, fitted by the rank-r exact-DMD operator
A_r = X' V_r S_r^-1 U_r^T (Tu et al. 2014) of the snapshot matrix X, its
one-step shift X' and the truncated SVD X ~= U_r S_r V_r^T.  Delay order
d >= 2 stacks d consecutive snapshots into one column,
y_k = [x_k; ...; x_{k+d-1}], which lets a linear model capture oscillations
a first-order fit cannot (higher-order DMD, Le Clainche & Vega 2017); d = 1
is plain DMD.  The sentence feature is the last n rows of A_r applied to the
last stacked snapshot: the one-step extrapolation x_{L+1}, for every d.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError

__all__ = ["MAX_DELAY_ORDER", "HodmdConfig", "sentence_feature"]

# Highest delay order d.  A 280-character tweet holds at most 140 tokens, so
# a higher order only pads every tweet further.  A tweet of L tokens is padded
# to L' = max(L, d + 1) columns; for n-dim word vectors its stacked snapshots
# hold min(n, L') * d * (L' - d + 1) floats, which featurize bounds per work
# unit: 64 tweets of 140 tokens and 300-dim vectors at d = 70 trace 742 MB in
# one sentence_feature call, and 25 MB in a two-worker featurize call.
MAX_DELAY_ORDER = 140


@dataclass(frozen=True)
class HodmdConfig:
    """Delay order d (1 = plain DMD, at most MAX_DELAY_ORDER), max rank,
    relative singular-value cutoff."""

    d: int = 1
    r_max: int = 10
    sv_rel_tol: float = 1e-10

    def __post_init__(self) -> None:
        if not 1 <= self.d <= MAX_DELAY_ORDER:
            raise ValueError(f"delay order must be in [1, {MAX_DELAY_ORDER}], got {self.d}")
        if self.r_max < 1:
            raise ValueError(f"r_max must be >= 1, got {self.r_max}")
        if not 0.0 < self.sv_rel_tol < 1.0:
            raise ValueError(f"sv_rel_tol must be in (0, 1), got {self.sv_rel_tol}")


def sentence_feature(seq: np.ndarray, cfg: HodmdConfig = HodmdConfig()) -> np.ndarray:
    """Fixed-length feature: x_{L+1}, one step of the rank-r DMD operator.

    ``seq`` is one signal, an (n, L) array, giving an (n,) feature, or a
    stack of G signals of the same length, a (G, n, L) array, giving a
    (G, n) one.  X = [y_1 .. y_{L-d}] and X' = [y_2 .. y_{L-d+1}] hold the
    stacked snapshots, r = min(r_max, the count of X's singular values above
    sv_rel_tol times the largest), and the feature is the last n rows of
    A_r y_{L-d+1}, so its length is n whatever the tweet length.  It is
    linear in the last snapshot and forms no eigenvalues or powers, so
    rounding moves it little: an exact signed permutation of the channels
    permutes it to about 1e-11 relative.

    Total on any input: an empty sequence (or an all-zero signal) maps to
    the zero vector, and a sequence shorter than d+1 columns is padded by
    repeating its last column.
    """
    values = np.asarray(seq, dtype=np.float64)
    if values.ndim == 2:
        return _stacked_feature(values[None], cfg)[0]
    return _stacked_feature(values, cfg)


def _stacked_feature(values: np.ndarray, cfg: HodmdConfig) -> np.ndarray:
    """sentence_feature of a (G, n, L) stack, decomposed in a compressed basis.

    Each signal factors as V = Q R (Q: n x k orthonormal, k = min(n, L)),
    so its stacked snapshots are blockdiag(Q, ...) times the same stacking
    of R.  That change of basis leaves the singular values, V_r and the
    coefficients c = S_r^-1 U_r^T y_{L-d+1} unchanged, so the SVD runs on
    k*d rows instead of n*d and Q is never formed.  With w = V_r c,
    A_r y_{L-d+1} = X' w, and the last n rows of X' are the observed tokens
    x_{d+1..L}, so the feature is V[:, d:] w.
    """
    G, n, L = values.shape
    out = np.zeros((G, n), dtype=np.float64)
    d = cfg.d
    if L == 0:
        return out
    if L < d + 1:
        pad = np.repeat(values[:, :, -1:], d + 1 - L, axis=2)
        values = np.concatenate([values, pad], axis=2)
        L = d + 1
    live = np.any(values[:, :, :-1], axis=(1, 2))  # all-zero X: the zero vector
    if not np.any(live):
        return out
    values = values[live]
    try:
        R = np.linalg.qr(values, mode="r")
        stacked = np.concatenate([R[:, :, i : L - d + 1 + i] for i in range(d)], axis=1)
        U, s, Vh = np.linalg.svd(stacked[:, :, :-1], full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"decomposition failed: {exc}") from exc
    # a rank is at most the count of singular values, so an r_max past it
    # (even past the int64 range) changes nothing
    ranks = np.minimum(min(cfg.r_max, s.shape[1]), np.count_nonzero(s > cfg.sv_rel_tol * s[:, :1], axis=1))
    kept = np.arange(s.shape[1]) < ranks[:, None]
    coeffs = (U.transpose(0, 2, 1) @ stacked[:, :, -1:])[:, :, 0]
    c = np.divide(coeffs, s, out=np.zeros_like(s), where=kept)
    w = Vh.transpose(0, 2, 1) @ c[:, :, None]
    out[live] = (values[:, :, d:] @ w)[:, :, 0]
    return out
