"""Dynamic mode decomposition of word-vector signals, with delay embedding.

A tweet's ordered word vectors x_1..x_L are treated as snapshots of a
linear evolution x_{k+1} = A x_k.  The operator A is never formed: its
action is carried by the triple (Phi, Lambda, b) obtained from the truncated
SVD of the snapshot matrix, so that Phi Lambda^{k-1} b estimates snapshot k.

Delay order d >= 2 stacks d consecutive snapshots into one column,
y_k = [x_k; ...; x_{k+d-1}], before decomposing, which lets a linear model
capture oscillations a first-order fit cannot (higher-order DMD).  d = 1 is
plain DMD.

The sentence feature is the real part of the first n rows of the fit's next
stacked snapshot y_{L-d+2}: the one-step extrapolation x_{L+1} for d = 1,
but the fit's value at the observed token x_{L-d+2} for d >= 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError

__all__ = ["HodmdConfig", "sentence_feature"]


@dataclass(frozen=True)
class HodmdConfig:
    """Delay order d (1 = plain DMD), max rank, relative singular-value cutoff."""

    d: int = 1
    r_max: int = 10
    sv_rel_tol: float = 1e-10

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError(f"delay order must be >= 1, got {self.d}")
        if self.r_max < 1:
            raise ValueError(f"r_max must be >= 1, got {self.r_max}")
        if not 0.0 < self.sv_rel_tol < 1.0:
            raise ValueError(f"sv_rel_tol must be in (0, 1), got {self.sv_rel_tol}")


def sentence_feature(seq: np.ndarray, cfg: HodmdConfig = HodmdConfig()) -> np.ndarray:
    """Fixed-length feature: the fit's next stacked snapshot, first n rows.

    ``seq`` is one signal, an (n, L) array, giving an (n,) feature, or a
    stack of G signals of the same length, a (G, n, L) array, giving a
    (G, n) one.  Each signal is decomposed
    (after delay embedding), Phi Lambda^{m_s} b is evaluated where
    m_s = L-d+1 is the stacked-snapshot count, and the real part of its
    first n components is kept, so the output length equals the channel
    count n regardless of tweet length.  Those rows are the fit's value at
    token L-d+2: the one-step extrapolation x_{L+1} for d = 1, but an
    observed token for d >= 2 (the last n rows would hold x_{L+1}).

    Total on any input: an empty sequence (or an all-zero signal) maps to
    the zero vector, and a sequence shorter than d+1 columns is padded by
    repeating its last column.
    """
    values = np.asarray(seq, dtype=np.float64)
    if values.ndim == 2:
        return _stacked_feature(values[None], cfg)[0]
    return _stacked_feature(values, cfg)


def _stacked_feature(values: np.ndarray, cfg: HodmdConfig) -> np.ndarray:
    """sentence_feature of a (G, n, L) stack, computed in a compressed basis.

    Each signal is factored V = Q_s R_s (Q_s: n x k orthonormal, k =
    min(n, L)).  Its delay-stacked snapshots are then blockdiag(Q_s, ...)
    times the same stacking of R_s, and exact DMD is invariant under that
    orthonormal change of basis: the singular values, rank, eigenvalues and
    least-squares amplitudes are those of the stacked R_s, and the modes are
    the stacked-R_s modes mapped through blockdiag(Q_s, ...).  So the
    decomposition runs on k*d rows instead of n*d, and the feature is
    Q_s Re(z[:k]) for the compressed extrapolation z.
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
    try:
        Q, R = np.linalg.qr(values[live])
        k = R.shape[1]
        stacked = np.concatenate([R[:, :, i : L - d + 1 + i] for i in range(d)], axis=1)
        X, Xp = stacked[:, :, :-1], stacked[:, :, 1:]
        U, s, Vh = np.linalg.svd(X, full_matrices=False)
        ranks = np.minimum(cfg.r_max, np.count_nonzero(s > cfg.sv_rel_tol * s[:, :1], axis=1))
        z = np.empty((X.shape[0], k), dtype=np.complex128)
        for r in np.unique(ranks):
            group = np.flatnonzero(ranks == r)
            lifted = (Xp[group] @ Vh[group, :r].transpose(0, 2, 1)) / s[group, None, :r]
            atilde = U[group, :, :r].transpose(0, 2, 1) @ lifted
            eigenvalues, W = np.linalg.eig(atilde)
            Phi = lifted @ W
            amplitudes = (np.linalg.pinv(Phi, rcond=cfg.sv_rel_tol) @ X[group, :, :1])[:, :, 0]
            step = (eigenvalues ** (L - d + 1) * amplitudes)[:, :, None]
            z[group] = (Phi[:, :k] @ step)[:, :, 0]
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"decomposition failed: {exc}") from exc
    out[live] = (Q @ z.real[:, :, None])[:, :, 0]
    return out
