"""Per-tweet exact DMD (Tu et al. 2014): the oracle the DMD tests check
``offdetect.dmd.sentence_feature`` against.

A sequence x_1..x_L of n-channel snapshots is delay-embedded at order d
into stacked snapshots y_k = [x_k; ...; x_{k+d-1}] (k = 1..L-d+1), split
into the lagged pair X = [y_1 .. y_{L-d}], Xp = [y_2 .. y_{L-d+1}], and
decomposed in the full n*d-row space, one sequence at a time.  The library
computes the same decomposition for stacks of equal-length sequences in a
compressed basis; only the tests run this one.  Not collected by pytest:
the test modules import it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from offdetect.dmd import HodmdConfig
from offdetect.errors import NumericError


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
    """DMD estimate of stacked snapshot y_{k+1}: Phi Lambda^k b (complex vector)."""
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
