"""EDMD fits, the consistency index, and worst-case error certificates.

All numerics live in the empirical L2 space of the data: functions are
identified with coefficient vectors against a dictionary, and the inner
product of two functions is the dot product of their evaluation rows
divided by the number of snapshots.

The consistency index of a dictionary on paired data ``(P, Q) =
(Psi(X), Psi(X+))`` is the largest eigenvalue of ``M_C = I - K_F K_B``,
where ``K_F = Q P+`` and ``K_B = P Q+`` are the forward and backward EDMD
matrices.  Although ``M_C`` itself is not symmetric, it is similar to a
symmetric PSD matrix, and its spectrum is exactly ``sin^2`` of the
principal angles between the row spaces of ``Q`` and ``P`` (padded with
exact ones for rank deficits).  This module computes the index from the
singular values of the sine matrix ``V_q - V_p (V_p' V_q)`` built from
the right singular subspaces: unlike the cosine route ``1 - cos^2``,
the sine route has no cancellation near invariance, so an invariant
dictionary scores ~1e-28 instead of ~1e-16, and the square root stays
meaningful.  Its right singular vectors are the Q-side principal
directions, which yield the worst-case certificate directly.
Symmetrizing ``I - K_F K_B`` entrywise would NOT be correct — on generic
data its asymmetry is O(1) and naive symmetrization shifts the top
eigenvalue; the similar symmetric matrix ``U_q (I - C C') U_q'`` is what
"symmetrized M_C" means here.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np

from .dynamics import AugmentedSnapshots
from .errors import DegenerateData, DimensionMismatch, RankWarning
from .observables import NormalDictionary

Array = np.ndarray

PINV_CUTOFF = 1e-10


def _svd_pinv(P: Array, cutoff: float) -> Array:
    U, sv, Vt = np.linalg.svd(P, full_matrices=False)
    keep = sv > cutoff * (sv[0] if sv.size else 0.0)
    inv = np.zeros_like(sv)
    inv[keep] = 1.0 / sv[keep]
    return (Vt.T * inv) @ U.T


@dataclasses.dataclass
class EdmdFit:
    """Least-squares Koopman approximation ``K`` with rank diagnostics.

    ``K`` minimizes ``||Psi_Xplus - K Psi_X||_F``; it is the unique
    minimizer exactly when ``Psi_X`` has full row rank, which
    ``rank_report`` records (a failed check warns, it does not raise:
    the pseudo-inverse solution is still well defined).
    """

    K: Array
    rank_report: dict


@dataclasses.dataclass
class ConsistencyReport:
    """Consistency index of a dictionary on paired data, with certificate.

    Attributes
    ----------
    index : float
        Largest eigenvalue of ``M_C``, clamped to [0, 1].
    sqrt_index : float
        Worst-case relative one-step prediction error over the span.
    trace_lower, trace_upper : float
        ``trace(M_C)/s`` and ``trace(M_C)``: cheap bounds with
        ``trace_lower <= index <= trace_upper``.
    worst_coeffs : array, shape (s,)
        Coefficients of a maximizing function: its EDMD prediction error
        attains ``sqrt_index`` (the certificate), and no function in the
        span does worse.
    K_F, K_B : array, shape (s, s)
        Forward and backward EDMD matrices.
    eigenvalues : array
        Full spectrum of ``M_C`` (clamped), descending.
    pre_clamp_index : float
        Index before clamping; its excess over [0, 1] is a numerical
        health diagnostic.
    asymmetry : float
        Relative Frobenius asymmetry of the raw ``I - K_F K_B`` (large on
        generic data; diagnostic only).
    rank_flags : dict
        Row-rank checks for both data matrices; when either fails the
        report is advisory.
    advisory : bool
    """

    index: float
    sqrt_index: float
    trace_lower: float
    trace_upper: float
    worst_coeffs: Array
    K_F: Array
    K_B: Array
    eigenvalues: Array
    pre_clamp_index: float
    asymmetry: float
    rank_flags: dict
    advisory: bool


def fit_edmd(Psi_X: Array, Psi_Xplus: Array, cutoff: float = PINV_CUTOFF) -> EdmdFit:
    """Fit ``K = Psi_Xplus @ pinv(Psi_X)`` (SVD pseudo-inverse).

    Singular values below ``cutoff`` times the largest are treated as
    zero.  Raises :class:`DegenerateData` when ``Psi_X`` is identically
    zero; a mere rank deficiency only warns (:class:`RankWarning`).
    """
    P = np.atleast_2d(np.asarray(Psi_X, dtype=float))
    Q = np.atleast_2d(np.asarray(Psi_Xplus, dtype=float))
    if P.shape != Q.shape:
        raise DimensionMismatch(f"data shapes differ: {P.shape} vs {Q.shape}")
    if not np.any(P):
        raise DegenerateData("Psi(X) is identically zero")
    s = P.shape[0]
    sp = np.linalg.svd(P, compute_uv=False)
    sq = np.linalg.svd(Q, compute_uv=False)
    rank_p = int(np.sum(sp > cutoff * sp[0]))
    rank_q = int(np.sum(sq > cutoff * (sq[0] if sq.size and sq[0] > 0 else 1.0)))
    report = {
        "row_rank_ok_X": rank_p == s,
        "row_rank_ok_Xplus": rank_q == s,
        "min_singular_values": (float(sp[-1]), float(sq[-1]) if sq.size else 0.0),
    }
    if not report["row_rank_ok_X"]:
        warnings.warn(
            f"Psi(X) row rank {rank_p} < {s}: EDMD solution is not unique",
            RankWarning,
            stacklevel=2,
        )
    return EdmdFit(K=Q @ _svd_pinv(P, cutoff), rank_report=report)


def _pick_maximizer(candidates: list[Array]) -> Array:
    """Deterministic tie-break among unit-norm eigenvector candidates.

    Each candidate is sign-normalized so its first nonzero entry is
    positive; the winner has the lexicographically largest absolute-value
    sequence (largest absolute first nonzero entry first).
    """
    normed = []
    for v in candidates:
        v = v / np.linalg.norm(v)
        nz = np.flatnonzero(np.abs(v) > 1e-12)
        if nz.size and v[nz[0]] < 0:
            v = -v
        normed.append(v)
    best = max(normed, key=lambda v: tuple(np.abs(v)))
    return best


def consistency_index(Psi_X: Array, Psi_Xplus: Array,
                      cutoff: float = PINV_CUTOFF) -> ConsistencyReport:
    """Consistency index, trace bounds, and worst-case certificate.

    Computed from the principal angles between the row spaces of the two
    data matrices (see the module docstring): with thin SVDs
    ``P = U_p S_p V_p'`` and ``Q = U_q S_q V_q'``, the singular values of
    the sine matrix ``S = V_q - V_p (V_p' V_q)`` are the sines of the
    principal angles, the spectrum of ``M_C`` is their squares (padded
    with exact ones for a rank deficit of ``Q``), and the worst-case
    function is ``w = U_q S_q^{-1} b_max`` for the right singular
    direction of the largest sine.

    The maximum of the relative prediction error over the span is
    attained at ``worst_coeffs`` and equals ``sqrt_index``; both matrices
    full row rank is the nominal regime, anything else flags the report
    advisory.
    """
    P = np.atleast_2d(np.asarray(Psi_X, dtype=float))
    Q = np.atleast_2d(np.asarray(Psi_Xplus, dtype=float))
    if P.shape != Q.shape:
        raise DimensionMismatch(f"data shapes differ: {P.shape} vs {Q.shape}")
    if not np.any(P):
        raise DegenerateData("Psi(X) is identically zero")
    if not np.any(Q):
        raise DegenerateData("Psi(Xplus) is identically zero")
    s = P.shape[0]

    Up, sp, Vpt = np.linalg.svd(P, full_matrices=False)
    Uq, sq, Vqt = np.linalg.svd(Q, full_matrices=False)
    rank_p = int(np.sum(sp > cutoff * sp[0]))
    rank_q = int(np.sum(sq > cutoff * sq[0]))
    rank_flags = {
        "row_rank_ok_X": rank_p == s,
        "row_rank_ok_Xplus": rank_q == s,
        "min_singular_values": (float(sp[-1]), float(sq[-1])),
    }
    advisory = not (rank_flags["row_rank_ok_X"] and rank_flags["row_rank_ok_Xplus"])
    if advisory:
        warnings.warn(
            "consistency index on rank-deficient data is advisory",
            RankWarning,
            stacklevel=2,
        )

    Vp = Vpt[:rank_p].T
    Vq = Vqt[:rank_q].T
    S = Vq - Vp @ (Vp.T @ Vq)
    _, sines, Bt = np.linalg.svd(S, full_matrices=False)
    # Spectrum within the row space of Q (sines, descending), plus exact
    # ones for any rank deficit of Q.
    within = sines**2
    eigs = np.concatenate([within, np.ones(s - rank_q)])
    pre_clamp_index = float(eigs.max())
    eigs = np.clip(eigs, 0.0, 1.0)
    index = float(eigs.max())
    trace_upper = float(eigs.sum())
    trace_lower = trace_upper / s

    # Certificate direction: restrict to row(Q)-supported coefficients so
    # the error ratio has a nonzero denominator.
    top = within.max()
    cand_idx = np.flatnonzero(within >= top - 1e-12)
    candidates = [Uq[:, :rank_q] @ (Bt[i] / sq[:rank_q]) for i in cand_idx]
    worst = _pick_maximizer(candidates)

    K_F = Q @ _svd_pinv(P, cutoff)
    K_B = P @ _svd_pinv(Q, cutoff)
    M_raw = np.eye(s) - K_F @ K_B
    denom = max(1.0, float(np.linalg.norm(M_raw)))
    asymmetry = float(np.linalg.norm(M_raw - M_raw.T) / denom)

    eigs_sorted = np.sort(eigs)[::-1]
    return ConsistencyReport(
        index=index,
        sqrt_index=float(np.sqrt(index)),
        trace_lower=trace_lower,
        trace_upper=trace_upper,
        worst_coeffs=worst,
        K_F=K_F,
        K_B=K_B,
        eigenvalues=eigs_sorted,
        pre_clamp_index=pre_clamp_index,
        asymmetry=asymmetry,
        rank_flags=rank_flags,
        advisory=advisory,
    )


def invariance_proximity(nd: NormalDictionary, aug: AugmentedSnapshots,
                         cutoff: float = PINV_CUTOFF) -> ConsistencyReport:
    """Consistency report of an augmented dictionary on stacked data.

    ``sqrt_index`` is the invariance proximity: the tight worst-case
    relative one-step prediction error over the spanned space, and the
    quantity the dictionary-learning loss drives down.
    """
    P, Q = nd.eval_pair(aug)
    return consistency_index(P, Q, cutoff=cutoff)


def predict_function(fit: EdmdFit, w, Psi_x):
    """EDMD prediction of the advanced observable: ``w' K Psi(x)``.

    ``Psi_x`` may be one evaluation vector ``(s,)`` or a matrix ``(s, N)``
    of evaluations; returns a scalar or an ``(N,)`` array accordingly.
    """
    w = np.asarray(w, dtype=float).reshape(-1)
    K = fit.K
    if w.shape != (K.shape[0],):
        raise DimensionMismatch(f"w must have length {K.shape[0]}, got {w.shape}")
    Psi_x = np.asarray(Psi_x, dtype=float)
    if Psi_x.ndim == 1:
        if Psi_x.shape != (K.shape[1],):
            raise DimensionMismatch("Psi_x length does not match the fit")
        return float(w @ K @ Psi_x)
    if Psi_x.shape[0] != K.shape[1]:
        raise DimensionMismatch("Psi_x row count does not match the fit")
    return (w @ K) @ Psi_x


def projection_residual(fit: EdmdFit, Psi_X: Array, Psi_Xplus: Array):
    """Fit residual ``Psi(X+) - K Psi(X)`` and its per-snapshot norms.

    A diagnostic only: unlike the consistency index, its size depends on
    the chosen basis (a row rescaling changes it), so it is never used as
    a training loss.
    """
    P = np.atleast_2d(np.asarray(Psi_X, dtype=float))
    Q = np.atleast_2d(np.asarray(Psi_Xplus, dtype=float))
    R = Q - fit.K @ P
    return R, np.linalg.norm(R, axis=0)


def report_to_json(report: ConsistencyReport) -> dict:
    """JSON-ready summary of a consistency report."""
    return {
        "index": report.index,
        "sqrt_index": report.sqrt_index,
        "trace_lower": report.trace_lower,
        "trace_upper": report.trace_upper,
        "worst_coeffs": [float(v) for v in report.worst_coeffs],
        "rank_flags": {
            "row_rank_ok_X": report.rank_flags["row_rank_ok_X"],
            "row_rank_ok_Xplus": report.rank_flags["row_rank_ok_Xplus"],
            "min_singular_values": [float(v) for v in report.rank_flags["min_singular_values"]],
        },
        "pre_clamp_index": report.pre_clamp_index,
        "advisory": report.advisory,
    }
