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
exact ones for rank deficits).  Symmetrizing ``I - K_F K_B`` entrywise
would NOT be correct: on generic data its asymmetry is O(1).

Every result comes from one factorization of the data, the triangular
factor of a tall-skinny QR (principal angles: Bjorck and Golub, 1973):

    [X' Y'] = [Q1 Q2] [[R11, R12], [0, R22]]

for data ``X`` (a, N) and ``Y`` (b, N), so ``X = R11' Q1'`` and ``Y =
R12' Q1' + R22' Q2'`` with orthonormal ``[Q1 Q2]``; with fewer than
``a + b`` snapshots R is padded with zero rows to be square.  Only the
small blocks are factored further:

* least squares: ``Y pinv(X) = R12' pinv(R11')``, the pseudo-inverse
  taken from the SVD of the a-by-a block ``R11``, whose singular values
  are those of ``X`` (the rank checks run on them);
* the index: with ``W S V' = svd([R12; R22])``, the columns of
  ``[Q1 Q2] W`` are an orthonormal basis of row(Q), and their components
  outside row(P) are ``[Ua_perp' W[:s]; W[s:]]``, where ``Ua_perp`` holds
  the left singular vectors of ``R11`` past its rank.  The singular
  values of that matrix are the sines of the principal angles.  They are
  read off directly, never formed as ``1 - cos^2``, so the route has no
  cancellation near invariance: an invariant dictionary scores ~1e-28
  instead of ~1e-16, and the square root stays meaningful.  With
  full-rank ``P`` the top block is empty and the sines are those of the
  R22 rows of ``W`` alone.
* the certificate: a right singular vector ``b`` of the sine matrix is a
  Q-side principal direction, and ``w = V (b / S)`` is the dictionary
  function that attains it;
* ``K_F = R12' pinv(R11')`` and ``K_B = R11' W[:s] S^-1 V'``.

A dataset given as a dictionary and snapshots is never evaluated whole.
:func:`stream` evaluates it ``CHUNK`` columns at a time into the R factor
of one data matrix (TSQR: Demmel, Grigori, Hoemmen and Langou, 2012),

    A = [P' Q' U' (H(X) u_1)' ... (H(X) u_m)' X'],   H(X) = P[:l],

taking ``R_i = qr(A_i)`` of each chunk and merging ``R = qr([R; R_i])``.
Memory is O(k^2 + CHUNK k) for ``k = 2s + m + lm + n`` columns, whatever
the snapshot count, and ``CHUNK`` is a fixed literal, so the result does
not depend on the machine.  Since ``A = Q R`` with orthonormal ``Q``, any
subset of R's columns is an isometric image of the matching data rows:
Gram matrices, principal angles, singular values, least-squares
solutions and residual norms are the same on ``R[:, cols]'`` as on the
rows themselves.  So the existing kernels run on R's columns unchanged,
each on a k-row operand whose QR costs microseconds.  The
:class:`StreamedR` that :func:`stream` returns is the one handle on that
R, and its consumers ask it for blocks by name: the consistency index
reads ``(P, Q)`` (:meth:`StreamedR.report`, which is
:func:`invariance_proximity`), the baselines of :mod:`kooplift.models`
fit ``HXplus`` on ``HX``, ``HU`` and ``U`` (:meth:`StreamedR.lstsq`), and
the state decoder fits ``X`` on ``HX`` (:meth:`StreamedR.state_decoder`).
One pass of the dictionary over the data serves them all.
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

# Columns per streamed chunk.  A literal, never derived from the machine,
# the thread count or the environment: the merge order fixes the rounding,
# and outputs must be byte-identical across machines at one thread count.
CHUNK = 1000


def _r_blocks(X: Array, Y: Array):
    """``R11`` (a, a), ``R12`` (a, b) and ``R22`` (b, b) of ``qr([X' Y'])``.

    The one factorization of a data-sized operand; R is padded with zero
    rows to be square when there are fewer than ``a + b`` snapshots.
    """
    a, k = X.shape[0], X.shape[0] + Y.shape[0]
    R = np.linalg.qr(np.vstack([X, Y]).T, mode="r")
    if R.shape[0] < k:
        R = np.vstack([R, np.zeros((k - R.shape[0], k))])
    return R[:a, :a], R[:a, a:], R[a:, a:]


def _rank(sv: Array, cutoff: float) -> int:
    """Singular values above ``cutoff`` times the largest (sorted descending)."""
    return int(np.sum(sv > cutoff * sv[0]))


def _solve(R11: Array, R12: Array, cutoff: float):
    """``Y pinv(X) = R12' pinv(R11')`` and the SVD of ``R11`` behind it.

    Returns ``(K, Ua, sv, rank)``: ``R11 = Ua diag(sv) Va'``, whose
    singular values are those of ``X``; the ones at or below ``cutoff``
    times the largest are treated as zero.
    """
    Ua, sv, Vat = np.linalg.svd(R11)
    rank = _rank(sv, cutoff)
    K = ((R12.T @ Ua[:, :rank]) / sv[:rank]) @ Vat[:rank]
    return K, Ua, sv, rank


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
        Forward and backward EDMD matrices; ``K_F`` is bit for bit the
        ``K`` of :func:`fit_edmd` on the same data (see :attr:`fit`).
    eigenvalues : array
        Full spectrum of ``M_C`` (clamped), descending.
    pre_clamp_index : float
        Index before clamping; its excess over [0, 1] is a numerical
        health diagnostic.
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
    rank_flags: dict
    advisory: bool

    @property
    def fit(self) -> EdmdFit:
        """The forward EDMD fit with these rank checks, as :func:`fit_edmd` gives it."""
        return EdmdFit(K=self.K_F, rank_report=dict(self.rank_flags))


def _check_finite(name: str, M: Array, first: int = 0) -> None:
    """Raise :class:`DegenerateData` naming ``M`` and its first non-finite snapshot.

    ``first`` is the snapshot index of ``M``'s first column.
    """
    ok = np.isfinite(M).all(axis=0)
    if not ok.all():
        raise DegenerateData(
            f"{name} is not finite at snapshot {first + int(np.argmin(ok))}")


def _pair(Psi_X: Array, Psi_Xplus: Array):
    P = np.atleast_2d(np.asarray(Psi_X, dtype=float))
    Q = np.atleast_2d(np.asarray(Psi_Xplus, dtype=float))
    if P.shape != Q.shape:
        raise DimensionMismatch(f"data shapes differ: {P.shape} vs {Q.shape}")
    _check_finite("Psi(X)", P)
    _check_finite("Psi(Xplus)", Q)
    if not np.any(P):
        raise DegenerateData("Psi(X) is identically zero")
    return P, Q


def _factor_pair(P: Array, Q: Array, cutoff: float):
    """The shared start of :func:`fit_edmd` and :func:`consistency_index`.

    One QR of ``[P' Q']``, then ``K_F`` with the SVD of ``R11``, the SVD
    ``W S V'`` of ``[R12; R22]`` (the singular values of Q) and the rank
    checks of both.
    """
    s, N = P.shape
    R11, R12, R22 = _r_blocks(P, Q)
    K_F, Ua, sp, rank_p = _solve(R11, R12, cutoff)
    W, sq, Vt = np.linalg.svd(np.vstack([R12, R22]), full_matrices=False)
    rank_q = _rank(sq, cutoff)
    n = min(s, N)
    rank_flags = {
        "row_rank_ok_X": rank_p == s,
        "row_rank_ok_Xplus": rank_q == s,
        "min_singular_values": (float(sp[n - 1]), float(sq[n - 1])),
    }
    return K_F, (R11, Ua, rank_p), (W, sq, Vt, rank_q), rank_flags


def fit_edmd(Psi_X: Array, Psi_Xplus: Array, cutoff: float = PINV_CUTOFF) -> EdmdFit:
    """Fit ``K = Psi_Xplus @ pinv(Psi_X)`` from one QR of ``[Psi_X' Psi_Xplus']``.

    Singular values below ``cutoff`` times the largest are treated as
    zero.  Raises :class:`DegenerateData` when ``Psi_X`` is identically
    zero or either matrix is not finite; a mere rank deficiency only warns
    (:class:`RankWarning`).  The
    result equals ``consistency_index(Psi_X, Psi_Xplus).fit`` bit for bit.
    """
    P, Q = _pair(Psi_X, Psi_Xplus)
    K, (_, _, rank_p), _, report = _factor_pair(P, Q, cutoff)
    if not report["row_rank_ok_X"]:
        warnings.warn(
            f"Psi(X) row rank {rank_p} < {P.shape[0]}: EDMD solution is not unique",
            RankWarning,
            stacklevel=2,
        )
    return EdmdFit(K=K, rank_report=report)


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
    data matrices, read off the R factor of one QR of ``[P' Q']`` (see
    the module docstring): the sines are the singular values of
    ``[Ua_perp' W[:s]; W[s:]]``, taken directly rather than as ``1 -
    cos^2``, so they carry no cancellation near invariance.  The spectrum
    of ``M_C`` is their squares, padded with exact ones for a rank
    deficit of ``Q``, and the worst-case function is ``w = V (b_max /
    S)`` for the right singular direction ``b_max`` of the largest sine.

    The maximum of the relative prediction error over the span is
    attained at ``worst_coeffs`` and equals ``sqrt_index``; both matrices
    full row rank is the nominal regime, anything else flags the report
    advisory.
    """
    P, Q = _pair(Psi_X, Psi_Xplus)
    if not np.any(Q):
        raise DegenerateData("Psi(Xplus) is identically zero")
    s = P.shape[0]
    K_F, (R11, Ua, rank_p), (W, sq, Vt, rank_q), rank_flags = _factor_pair(P, Q, cutoff)
    advisory = not (rank_flags["row_rank_ok_X"] and rank_flags["row_rank_ok_Xplus"])
    if advisory:
        warnings.warn(
            "consistency index on rank-deficient data is advisory",
            RankWarning,
            stacklevel=2,
        )

    Wr, sr, Vr = W[:, :rank_q], sq[:rank_q], Vt[:rank_q].T
    _, sines, Bt = np.linalg.svd(np.vstack([Ua[:, rank_p:].T @ Wr[:s], Wr[s:]]),
                                 full_matrices=False)
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
    worst = _pick_maximizer([Vr @ (Bt[i] / sr) for i in cand_idx])

    K_B = ((R11.T @ Wr[:s]) / sr) @ Vr.T

    return ConsistencyReport(
        index=index,
        sqrt_index=float(np.sqrt(index)),
        trace_lower=trace_lower,
        trace_upper=trace_upper,
        worst_coeffs=worst,
        K_F=K_F,
        K_B=K_B,
        eigenvalues=np.sort(eigs)[::-1],
        pre_clamp_index=pre_clamp_index,
        rank_flags=rank_flags,
        advisory=advisory,
    )


@dataclasses.dataclass(frozen=True)
class StreamedR:
    """The streamed R of one dataset under one dictionary, as :func:`stream` builds it.

    Its columns hold the blocks ``P``, ``Q``, ``U``, ``HU`` (the rows
    ``H(X) u_i``) and ``X`` of the data matrix; ``HX`` and ``HXplus`` are
    the first ``l`` columns of ``P`` and ``Q``.  Consumers ask for blocks
    by name, so only this module knows the layout.  :meth:`cols` gives
    named blocks side by side, each an isometric image of those data rows
    (transposed), so any fit, residual norm or angle computed on them
    equals the one on the data.  ``n`` is the state dimension, the width
    of ``X``.
    """

    R: Array
    s: int
    l: int
    m: int
    n: int

    def cols(self, *names: str) -> Array:
        s, l, m = self.s, self.l, self.m
        spans = {"P": (0, s), "Q": (s, 2 * s), "HX": (0, l), "HXplus": (s, s + l),
                 "U": (2 * s, 2 * s + m), "HU": (2 * s + m, 2 * s + m + l * m),
                 "X": (2 * s + m + l * m, self.R.shape[1])}
        return self.R[:, np.concatenate([np.arange(*spans[n]) for n in names])]

    def report(self, cutoff: float = PINV_CUTOFF) -> ConsistencyReport:
        """The consistency report of the data, from the P and Q columns of R."""
        return consistency_index(self.cols("P").T, self.cols("Q").T, cutoff=cutoff)

    def lstsq(self, regressor: tuple, target: tuple):
        """``(K, singular values)``: ``K = Y pinv(X)`` from one QR of ``[X' Y']``.

        ``X`` and ``Y`` are the columns of the ``regressor`` and ``target``
        blocks (tuples of names), transposed.  The ``min(a, N)`` singular
        values of the a-row ``X`` are sorted descending, for the caller's
        rank checks.
        """
        X = self.cols(*regressor).T
        R11, R12, _ = _r_blocks(X, self.cols(*target).T)
        K, _, sv, _ = _solve(R11, R12, PINV_CUTOFF)
        return K, sv[:min(X.shape)]

    def state_decoder(self):
        """``(D, residual)``: the least-squares map with ``X ~ D H(X)``.

        Read off the ``HX`` and ``X`` blocks; the residual is relative
        (Frobenius), so callers can judge whether ``H`` resolves the state.
        """
        RH, RX = self.cols("HX"), self.cols("X")
        D, _ = self.lstsq(("HX",), ("X",))
        return D, float(np.linalg.norm(RX - RH @ D.T) / max(np.linalg.norm(RX), 1e-300))


def stream(nd: NormalDictionary, aug: AugmentedSnapshots) -> StreamedR:
    """Evaluate ``nd`` on ``aug`` ``CHUNK`` columns at a time into one :class:`StreamedR`.

    Each chunk of the data matrix is factored and merged into the running
    R with one QR of ``[R; R_i]``, so no operand has more than ``CHUNK``
    rows (for ``k <= CHUNK / 2``); R has ``min(N, k)`` rows.  Raises
    :class:`DegenerateData` naming ``Psi(X)`` or ``Psi(Xplus)`` and the
    first snapshot where the dictionary is not finite.
    """
    n, Z, Zp, R = aug.state_dim, aug.Z, aug.Zplus, None
    for a in range(0, max(aug.n_snapshots, 1), CHUNK):
        b = min(a + CHUNK, aug.n_snapshots)
        P, Q = nd.eval_pair(AugmentedSnapshots(Z=Z[:, a:b], Zplus=Zp[:, a:b],
                                               state_dim=n, input_dim=aug.input_dim))
        _check_finite("Psi(X)", P, a)
        _check_finite("Psi(Xplus)", Q, a)
        A = np.vstack([P, Q, Z[n:, a:b], *(P[:nd.l] * u for u in Z[n:, a:b]), Z[:n, a:b]])
        del P, Q  # A holds copies: free these before the next chunk is evaluated
        _check_finite("the data matrix", A, a)
        Ri = np.linalg.qr(A.T, mode="r")
        R = Ri if R is None else np.linalg.qr(np.vstack([R, Ri]), mode="r")
    return StreamedR(R, s=nd.s, l=nd.l, m=aug.input_dim, n=n)


def invariance_proximity(nd: NormalDictionary, aug: AugmentedSnapshots,
                         cutoff: float = PINV_CUTOFF) -> ConsistencyReport:
    """Consistency report of an augmented dictionary on stacked data.

    ``sqrt_index`` is the invariance proximity: the tight worst-case
    relative one-step prediction error over the spanned space, and the
    quantity the dictionary-learning loss drives down.  The data are
    streamed ``CHUNK`` columns at a time into one R factor (see the module
    docstring), so memory does not grow with the snapshot count.
    """
    return stream(nd, aug).report(cutoff)


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
