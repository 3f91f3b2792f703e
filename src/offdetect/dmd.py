"""Dynamic mode decomposition of word-vector signals, with delay embedding.

A tweet's ordered word vectors x_1..x_{m+1} are treated as snapshots of a
linear evolution x_{k+1} = A x_k.  The operator A is never formed: its
action is carried by the triple (Phi, Lambda, b) obtained from the truncated
SVD of the snapshot matrix, so that Phi Lambda^k b estimates x_{k+1}.

Delay order d >= 2 stacks d consecutive snapshots into one column before
decomposing, which lets a linear model capture oscillations a first-order
fit cannot (higher-order DMD).  d = 1 is plain DMD.

The fixed-length sentence feature is the real part of the extrapolation one
step past the final observed (stacked) snapshot, truncated to the original
channel count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError

__all__ = [
    "SnapshotPair",
    "DmdDecomposition",
    "HodmdConfig",
    "build_snapshots",
    "compute_dmd",
    "predict_state",
    "reconstruction_error",
    "sentence_feature",
]


@dataclass
class SnapshotPair:
    """Time-lagged matrices: Xp's columns are X's shifted one step forward."""

    X: np.ndarray
    Xp: np.ndarray

    @property
    def n_snapshots(self) -> int:
        """Count of distinct stacked snapshot vectors covered by (X, Xp)."""
        return self.X.shape[1] + 1


@dataclass
class DmdDecomposition:
    """Modes Phi (columns), eigenvalues, amplitudes b = Phi^+ x_1, rank r."""

    Phi: np.ndarray
    eigenvalues: np.ndarray
    amplitudes: np.ndarray
    rank: int


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


def build_snapshots(seq: np.ndarray, d: int = 1) -> SnapshotPair:
    """Delay-embed an (n, L) sequence at order d and split into lagged pairs.

    Columns y_k = [x_k; ...; x_{k+d-1}] (length n*d) give
    X = [y_1 .. y_{L-d}] and Xp = [y_2 .. y_{L-d+1}] for a sequence of
    L columns.  Requires L >= d + 1.
    """
    L = seq.shape[1]
    if L < d + 1:
        raise NumericError(f"sequence of {L} columns is too short for delay order {d}")
    stacked = np.vstack([seq[:, i : L - d + 1 + i] for i in range(d)])
    return SnapshotPair(X=stacked[:, :-1], Xp=stacked[:, 1:])


def compute_dmd(snap: SnapshotPair, cfg: HodmdConfig = HodmdConfig()) -> DmdDecomposition:
    """Exact DMD of a snapshot pair via the truncated SVD of X.

    X = U S V^H; the rank keeps singular values above cfg.sv_rel_tol
    relative to the largest, capped at cfg.r_max.  The reduced operator
    U_r^H Xp V_r S_r^{-1} is diagonalized, modes are lifted through Xp, and
    amplitudes solve Phi b = x_1 in the least-squares sense.
    """
    X, Xp = snap.X, snap.Xp
    if not np.any(X):
        raise NumericError("degenerate signal: snapshot matrix X is all zero")
    try:
        U, s, Vh = np.linalg.svd(X, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD of snapshot matrix failed: {exc}") from exc
    r = min(cfg.r_max, int(np.count_nonzero(s > cfg.sv_rel_tol * s[0])))
    Ur = U[:, :r]
    sr = s[:r]
    Vr = Vh[:r].conj().T
    lifted = (Xp @ Vr) / sr
    atilde = Ur.conj().T @ lifted
    try:
        eigenvalues, W = np.linalg.eig(atilde)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition of reduced operator failed: {exc}") from exc
    Phi = lifted @ W
    x1 = X[:, 0].astype(np.complex128)
    amplitudes, *_ = np.linalg.lstsq(Phi, x1, rcond=cfg.sv_rel_tol)
    return DmdDecomposition(Phi=Phi, eigenvalues=eigenvalues, amplitudes=amplitudes, rank=r)


def predict_state(dec: DmdDecomposition, k: int) -> np.ndarray:
    """DMD estimate of snapshot x_{k+1}: Phi Lambda^k b (complex vector)."""
    if k < 0:
        raise ValueError(f"step index must be >= 0, got {k}")
    return dec.Phi @ (dec.eigenvalues**k * dec.amplitudes)


def reconstruction_error(dec: DmdDecomposition, snap: SnapshotPair) -> float:
    """max_k ||Phi Lambda^{k-1} b - y_k||_2 / max_k ||y_k||_2 over all
    observed stacked snapshots y_1..y_{m_s}."""
    observed = np.column_stack([snap.X, snap.Xp[:, -1]])
    m_s = observed.shape[1]
    powers = dec.eigenvalues[:, None] ** np.arange(m_s)[None, :]
    predicted = dec.Phi @ (powers * dec.amplitudes[:, None])
    scale = np.max(np.linalg.norm(observed, axis=0))
    if scale == 0.0:
        return 0.0
    err = np.max(np.linalg.norm(predicted - observed, axis=0))
    return float(err / scale)


def sentence_feature(seq: np.ndarray, cfg: HodmdConfig = HodmdConfig()) -> np.ndarray:
    """Fixed-length feature: one-step extrapolation past the last snapshot.

    ``seq`` is one signal, an (n, L) array, giving an (n,) feature, or a
    stack of G signals of the same length, a (G, n, L) array, giving a
    (G, n) one.  Each signal is decomposed
    (after delay embedding), Phi Lambda^{m_s} b is evaluated where m_s is
    the stacked-snapshot count, and the real part of its first n
    components is kept, so the output length equals the channel count n
    regardless of tweet length.

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
