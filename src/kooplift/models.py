"""Input-state separable models, lifted baselines, and rollouts.

A separable model advances a lifted state ``z = H(x)`` linearly with an
input-dependent matrix: ``z+ = A_of(u) z`` where ``A_of(u) = A11 +
A12 Gtilde(u)``.  Lifted linear, bilinear, and switched-linear models are
special cases; this module fits all of them from snapshot data, converts
between them where exact embeddings exist, rolls out predictions, and
saves and loads each of them.  A linear model is a bilinear one with no
``B_i`` terms (:func:`LinearLiftedModel` builds it), so one class and one
least-squares fitter serve both baselines.

Every lifted model speaks one transition protocol, the universal form
``z_{k+1} = A_k z_k + b_k``: ``transitions(U)`` returns the per-step maps
for a whole input sequence ``U`` (m, T) in one batch, ``A`` of shape
(T, L, L) and ``b`` of shape (L, T) or None.  The separable model runs
Gtilde once over all T inputs (``A_k = A11 + A12 Gtilde(u_k)``); the
bilinear model gives ``A + sum_i u_i B_i`` with ``b = C u``, the linear
one ``A`` with ``b = B u``, the switched one ``matrices[u_k]``.  Each
model also has ``input_dim`` and lifts one state ``(n,)`` or a block of
states ``(n, B)``.  Rollouts step an (L, B) block of lifted states
through these maps, so a model's initial conditions roll out together;
``step_lifted`` keeps each model's one-step definition in its own terms.

State estimates are read from lifted trajectories by the fixed-head
convention (rows of H named ``x1..xn`` hold the state) whenever those
rows exist; otherwise a least-squares decoder is fitted and carried with
its training residual.
"""

from __future__ import annotations

import dataclasses
import json
import warnings
from pathlib import Path

import numpy as np

from .dynamics import ControlSystem, SnapshotSet, _simulate_many, to_augmented
from .edmd import (ConsistencyReport, EdmdFit, PINV_CUTOFF, _DataR, _lstsq, _stream,
                   _stream_r, fit_edmd)
from .errors import (
    ConfigError,
    DegenerateData,
    DimensionMismatch,
    NonFiniteState,
    RankDeficientAtInput,
    RankWarning,
    UnknownInputValue,
)
from .observables import (
    InputMatrixFunction,
    NormalDictionary,
    StateDictionary,
    _FILE_KEYS,
    _any,
    _boolean,
    _equal,
    _list_of,
    _number,
    _numeric,
    _one_of,
    check_json,
    dictionary_from_json,
    dictionary_to_json,
    eval_matrix,
)

Array = np.ndarray


def _head_rows(names, state_dim: int):
    """Indices of rows named x1..xn, or None when any is missing."""
    rows = []
    for i in range(state_dim):
        target = f"x{i + 1}"
        try:
            rows.append(tuple(names).index(target))
        except ValueError:
            return None
    return tuple(rows)


def head_dictionary(nd: NormalDictionary) -> StateDictionary:
    """A copy of the state block ``nd.H`` whose ``source`` is ``nd``.

    Models on this basis serialize through ``nd``'s descriptor, read when
    they are saved, so trained parameters are saved as they are then.
    ``nd.H`` itself is left as it is.
    """
    return dataclasses.replace(nd.H, source=nd)


def _lift(psi: StateDictionary, x) -> Array:
    """``psi`` at one state ``(n,)``, or at every column of an ``(n, B)`` block."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 2:
        return eval_matrix(psi, x)
    return psi(x.reshape(-1))


class _LiftedModel:
    """What every lifted model shares: its state dictionary ``basis`` and its JSON form.

    A model names its JSON ``kind`` and the key under which
    :func:`model_to_json` stores the descriptor of its basis's source
    dictionary, and ``_from_json`` rebuilds the model from the values of
    the keys of its kind's table (``_model_table``), which
    :func:`model_to_json` writes from the attributes of the same names.
    """

    source_key = "head_of"

    @property
    def basis(self) -> StateDictionary:
        return self.psi

    @property
    def state_dim(self) -> int:
        return self.basis.domain_dim

    def lift(self, x) -> Array:
        """The lifted state of one state ``(n,)``, or of each column of ``(n, B)``."""
        return _lift(self.basis, x)

    def readout_rows(self):
        return _head_rows(self.basis.names, self.state_dim)


def fit_state_decoder(psi: StateDictionary, X: Array):
    """Least-squares map D with ``X ~ D psi(X)``; returns (D, residual).

    The residual is relative (Frobenius), reported so callers can judge
    whether the dictionary actually resolves the state.  ``psi`` is
    evaluated in chunks into the R of ``[psi(X); X]'``
    (:func:`kooplift.edmd._stream`), whose column blocks ``RH`` and ``RX``
    are isometric images of ``psi(X)'`` and ``X'``: the fit and the
    residual norms are read off them.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    R = _stream(X.shape[1], lambda a, b: np.vstack([eval_matrix(psi, X[:, a:b]), X[:, a:b]]))
    RH, RX = R[:, :psi.dim], R[:, psi.dim:]
    D, _ = _lstsq(RH.T, RX.T)
    resid = float(np.linalg.norm(RX - RH @ D.T) / max(np.linalg.norm(RX), 1e-300))
    return D, resid


@dataclasses.dataclass
class SeparableModel(_LiftedModel):
    """Lifted model ``z+ = (A11 + A12 Gtilde(u)) z`` with ``z = H(x)``.

    ``A12`` and ``Gtilde`` are None when the dictionary has no input
    rows (s = l); then the model is input-independent.  ``source_index``
    is the invariance proximity of the fit the model came from: the
    certified worst-case relative one-step prediction error over
    span(H).  ``A21``/``A22`` keep the discarded blocks of the full fit
    for diagnostics.  The model serializes when ``H`` came from
    :func:`head_dictionary`, as in :func:`extract_normal`.
    """

    kind = "separable"
    source_key = "gtilde_descriptor"

    H: StateDictionary
    A11: Array
    A12: Array | None
    Gtilde: object | None
    source_index: float | None
    A21: Array | None = None
    A22: Array | None = None
    decoder: tuple | None = None

    @property
    def l(self) -> int:
        return self.A11.shape[0]

    @property
    def s(self) -> int:
        return self.l if self.A12 is None else self.l + self.A12.shape[1]

    @property
    def basis(self) -> StateDictionary:
        return self.H

    @property
    def input_dim(self) -> int | None:
        """m, or None when the model has no input rows (it then ignores inputs)."""
        return None if self.A12 is None else self.Gtilde.domain_dim

    def A_of(self, u) -> Array:
        """Input-dependent lifted transition matrix ``A11 + A12 Gtilde(u)``."""
        if self.A12 is None:
            return self.A11
        u = np.asarray(u, dtype=float).reshape(-1)
        return self.A11 + self.A12 @ self.Gtilde(u)

    def transitions(self, U: Array) -> tuple[Array, None]:
        """``A_of(u_k)`` for every column of ``U``: Gtilde runs once over all of them."""
        U = np.asarray(U, dtype=float)
        T = U.shape[1]
        if self.A12 is None:
            return np.broadcast_to(self.A11, (T, self.l, self.l)), None
        # Contiguous slices, so that each product is the BLAS call ``A_of`` makes.
        G = np.ascontiguousarray(self.Gtilde.batch(U).transpose(2, 0, 1))
        return self.A11 + self.A12 @ G, None

    def step_lifted(self, z: Array, u) -> Array:
        return self.A_of(u) @ z

    @classmethod
    def _from_json(cls, f: dict, basis: StateDictionary, decoder) -> "SeparableModel":
        return cls(H=basis, A11=f["A11"], A12=f["A12"], Gtilde=basis.source.Gtilde,
                   source_index=f["source_index"], A21=f["A21"], A22=f["A22"], decoder=decoder)


@dataclasses.dataclass
class BilinearLiftedModel(_LiftedModel):
    """Lifted bilinear model ``psi(x+) ~ A psi(x) + sum_i u_i B_i psi(x) [+ C u]``.

    A lifted linear model ``psi(x+) ~ A psi(x) + B u`` is one with no
    ``B_i`` terms and ``C = B`` (:func:`LinearLiftedModel`); its JSON kind
    is ``"linear"``, with keys ``A`` and ``B`` only, and ``B`` reads ``C``.
    ``advisory`` flags a fit whose regressor was rank-deficient.
    """

    psi: StateDictionary
    A: Array
    Bs: tuple = ()
    C: Array | None = None
    decoder: tuple | None = None
    advisory: bool = False

    @property
    def kind(self) -> str:
        return "bilinear" if self.Bs else "linear"

    @property
    def B(self) -> Array | None:
        return self.C

    @property
    def input_dim(self) -> int:
        return len(self.Bs) if self.Bs else self.C.shape[1]

    def transitions(self, U: Array) -> tuple[Array, Array | None]:
        """``A + sum_i u_i B_i`` at every column of ``U``, with ``b = C u``."""
        U = np.asarray(U, dtype=float)
        A = (self.A + np.tensordot(U.T, np.stack(self.Bs), axes=1) if self.Bs
             else np.broadcast_to(self.A, (U.shape[1],) + self.A.shape))
        return A, None if self.C is None else self.C @ U

    def step_lifted(self, z: Array, u) -> Array:
        u = np.asarray(u, dtype=float).reshape(-1)
        out = self.A @ z
        for ui, Bi in zip(u, self.Bs):
            out = out + ui * (Bi @ z)
        if self.C is not None:
            out = out + self.C @ u
        return out

    @classmethod
    def _from_json(cls, f: dict, basis: StateDictionary, decoder) -> "BilinearLiftedModel":
        return cls(psi=basis, A=f["A"], Bs=tuple(f.get("Bs", ())), C=f.get("C", f.get("B")),
                   decoder=decoder, advisory=f.get("advisory", False))


def LinearLiftedModel(psi: StateDictionary, A: Array, B: Array, decoder=None):
    """Lifted linear model ``psi(x+) ~ A psi(x) + B u``: a bilinear one with ``C = B``."""
    return BilinearLiftedModel(psi=psi, A=A, C=B, decoder=decoder)


def _input_key(u) -> tuple:
    """A switched model's key of the input value ``u``: a tuple of floats."""
    return tuple(np.asarray(u, dtype=float).reshape(-1).tolist())


def _by_input(pairs, what: str, path: str, suffix: str) -> dict:
    """``{_input_key(u): A}`` of ``(u, A)`` pairs, refusing a repeated input value.

    The one check of a switched model's input values, whether read from a
    file or fitted: the ``i``-th pair is named ``path[i]`` and ``suffix``
    in the :class:`ConfigError` of ``what``.
    """
    matrices = {}
    for i, (u, A) in enumerate(pairs):
        if matrices.setdefault(_input_key(u), A) is not A:
            raise ConfigError(f"{what}: '{path}[{i}]{suffix}' repeats the input value "
                              f"{list(_input_key(u))} of an earlier entry")
    return matrices


@dataclasses.dataclass
class SwitchedLinearModel(_LiftedModel):
    """One lifted transition matrix per input value in a finite set.

    ``matrices`` maps each input value, a tuple of m floats, to its l-by-l
    matrix; its JSON kind is ``"switched"``, with a ``matrices`` list of
    ``{"u", "A"}`` entries.
    """

    kind = "switched"

    psi: StateDictionary
    matrices: dict
    decoder: tuple | None = None

    @property
    def input_dim(self) -> int | None:
        return len(next(iter(self.matrices))) if self.matrices else None

    def matrix_at(self, u) -> Array:
        key = _input_key(u)
        if key not in self.matrices:
            raise UnknownInputValue(f"no matrix fitted for input {key}; "
                                    f"known values: {sorted(self.matrices)}")
        return self.matrices[key]

    def transitions(self, U: Array) -> tuple[Array, None]:
        """``matrix_at(u_k)`` for every column; an unknown value raises as there."""
        U = np.asarray(U, dtype=float)
        L = self.psi.dim
        return np.array([self.matrix_at(u) for u in U.T]).reshape(-1, L, L), None

    def step_lifted(self, z: Array, u) -> Array:
        return self.matrix_at(u) @ z

    @classmethod
    def _from_json(cls, f: dict, basis: StateDictionary, decoder) -> "SwitchedLinearModel":
        return cls(psi=basis, matrices=f["matrices"], decoder=decoder)


def extract_normal(fit: EdmdFit, nd: NormalDictionary, source_index=None) -> SeparableModel:
    """Separable model from an EDMD fit on a normal-form dictionary.

    Splits the fitted s-by-s matrix into blocks at row/column l; the
    model's transition is ``A_of(u) = A11 + A12 Gtilde(u)``, constant
    when s = l.  ``source_index`` may be a float or the ConsistencyReport
    of the same fit (its sqrt_index is stored): it certifies the model's
    worst-case one-step error.
    """
    s, l = nd.s, nd.l
    if fit.K.shape != (s, s):
        raise DimensionMismatch(f"fit is {fit.K.shape}, dictionary needs ({s}, {s})")
    if isinstance(source_index, ConsistencyReport):
        source_index = source_index.sqrt_index
    K = fit.K
    if s == l:
        A11, A12, A21, A22 = K.copy(), None, None, None
        gt = None
    else:
        A11 = K[:l, :l].copy()
        A12 = K[:l, l:].copy()
        A21 = K[l:, :l].copy()
        A22 = K[l:, l:].copy()
        gt = nd.Gtilde
    return SeparableModel(
        H=head_dictionary(nd),
        A11=A11,
        A12=A12,
        Gtilde=gt,
        source_index=None if source_index is None else float(source_index),
        A21=A21,
        A22=A22,
    )


def extract_pseudoinverse(A: Array, G_eval, u, tol: float = 1e-8) -> Array:
    """Separable matrix at one input: ``pinv(G(u)) A G(u)``.

    ``G_eval`` maps an input vector to the s-by-l separable-combination
    matrix (a NormalDictionary's ``G_of`` works directly).  Requires
    ``G(u)`` full column rank; raises :class:`RankDeficientAtInput`
    naming the offending input otherwise.  One thin SVD
    ``G = W diag(sv) V'`` gives both the rank check and the solve,
    ``V diag(1/sv) W' A G``, so the error grows with cond(G(u)), where the
    normal equations ``(G'G)^{-1} G'AG`` square it.
    """
    if isinstance(G_eval, NormalDictionary):
        G_eval = G_eval.G_of
    u = np.asarray(u, dtype=float).reshape(-1)
    G = np.atleast_2d(np.asarray(G_eval(u), dtype=float))
    A = np.asarray(A, dtype=float)
    if A.shape != (G.shape[0], G.shape[0]):
        raise DimensionMismatch(f"A is {A.shape}, G(u) is {G.shape}")
    W, sv, Vt = np.linalg.svd(G, full_matrices=False)
    if sv[0] == 0.0 or sv[-1] <= tol * sv[0] or G.shape[0] < G.shape[1]:
        raise RankDeficientAtInput(f"G(u) is rank-deficient at u = {u.tolist()}")
    return Vt.T @ ((W.T @ A @ G) / sv[:, None])


def _coerce_inputs(inputs, input_dim: int) -> Array:
    U = np.asarray(inputs, dtype=float)
    if U.size == 0:
        return np.zeros((input_dim, 0))
    if U.ndim == 1:
        U = U[None, :] if input_dim == 1 else U[:, None]
    if U.shape[0] != input_dim and U.shape[1] == input_dim:
        U = U.T
    if U.shape[0] != input_dim:
        raise DimensionMismatch(f"inputs must be (m, L) with m={input_dim}, got {U.shape}")
    return U


def _roll(model, Z0: Array, U: Array) -> tuple[Array, Array]:
    """Step the lifted block ``Z0`` (L, B) through the inputs ``U`` (m, T).

    Returns the trajectories, shape (L, T+1, B), and for each column the
    first step at which it became non-finite (0 if it never did).  A
    failed column is reset to zero, so it raises no further overflow, and
    its later entries mean nothing; the loop ends once every column has
    failed.
    """
    T = U.shape[1]
    out = np.empty((T + 1,) + Z0.shape)
    out[0] = Z0
    failed = np.zeros(Z0.shape[1], dtype=int)
    A, b = model.transitions(U) if T else (None, None)
    for k in range(T):
        Z = out[k + 1]
        np.matmul(A[k], out[k], out=Z)
        if b is not None:
            Z += b[:, k, None]
        if not np.isfinite(Z).all():
            failed[(failed == 0) & ~np.isfinite(Z).all(axis=0)] = k + 1
            if failed.all():
                break
            Z[:, failed > 0] = 0.0
    return out.transpose(1, 0, 2), failed


def rollout(model, x0, inputs, input_dim: int | None = None) -> Array:
    """Open-loop lifted rollout: columns ``z_0 = lift(x0)``, ``z_{k+1} = A_k z_k + b_k``.

    Works for any lifted model (separable, linear, bilinear, switched)
    through its ``transitions``.  ``inputs`` is (m, L) (an empty list
    yields the single column ``lift(x0)``); ``input_dim`` defaults to the
    model's, and to the row count of ``inputs`` for a model that ignores
    its inputs.  Returns the (L, T+1) lifted trajectory.  Raises
    :class:`NonFiniteState` with the step index on overflow.  Multi-step
    error is not certified: the source_index bound is one-step only, so
    rollouts are reported without a guarantee.
    """
    if input_dim is None:
        input_dim = model.input_dim
    if input_dim is None:
        U0 = np.atleast_2d(np.asarray(inputs, dtype=float))
        input_dim = U0.shape[0] if U0.size else 1
    U = _coerce_inputs(inputs, input_dim)
    z0 = model.lift(np.asarray(x0, dtype=float).reshape(-1))
    Z, failed = _roll(model, z0[:, None], U)
    if failed[0]:
        err = NonFiniteState(f"lifted state became non-finite at step {failed[0]}")
        err.step = int(failed[0])
        raise err
    return np.ascontiguousarray(Z[:, :, 0])


def states_from_lifted(model, Z_lift: Array) -> Array:
    """State estimates from lifted trajectory columns.

    Uses the fixed-head rows of the model's dictionary when present
    (exact by construction); otherwise the model's fitted least-squares
    decoder.  Raises :class:`ConfigError` when neither exists.
    """
    Z_lift = np.atleast_2d(np.asarray(Z_lift, dtype=float))
    rows = model.readout_rows()
    if rows is not None:
        return Z_lift[list(rows)]
    if model.decoder is not None:
        return model.decoder[0] @ Z_lift
    raise ConfigError(
        "dictionary has no state head and no decoder was fitted; "
        "call with_decoder(...) first"
    )


def with_decoder(model, X: Array):
    """Copy of the model carrying a least-squares state decoder.

    The decoder maps lifted coordinates back to states; its relative
    training residual rides along as ``model.decoder[1]``.
    """
    D, resid = fit_state_decoder(model.basis, X)
    return dataclasses.replace(model, decoder=(D, resid))


def predict_observable(model: SeparableModel, v_h, x, u) -> float:
    """One-step prediction of the observable ``v_h' H``: ``v_h' A_of(u) H(x)``.

    When the model's source_index is delta, the relative L2 error of this
    prediction over the training measure is at most delta for every
    observable in span(H) with nonzero advanced norm.
    """
    v_h = np.asarray(v_h, dtype=float).reshape(-1)
    if v_h.shape[0] != model.l:
        raise DimensionMismatch(f"v_h must have length {model.l}")
    return float(v_h @ model.A_of(u) @ model.lift(x))


def _baseline(psi: StateDictionary, d: _DataR, blocks: tuple, regressor: str):
    """The lifted fit of ``HXplus`` on the column ``blocks`` of a streamed R.

    ``blocks`` is ``HX``, then ``HU`` for the ``B_i`` terms, then ``U`` for
    the ``C u`` term; ``regressor`` names the regressor in the error and
    the warning.
    """
    R = d.cols(*blocks)
    if not np.any(R):
        raise DegenerateData(f"{regressor} is identically zero")
    AB, sv = _lstsq(R.T, d.cols("HXplus").T)
    advisory = bool(sv[-1] <= PINV_CUTOFF * sv[0])
    if advisory:
        warnings.warn(f"{regressor} is rank-deficient; fit is not unique",
                      RankWarning, stacklevel=4)
    l, m = d.l, d.m if "HU" in blocks else 0  # m is the count of B_i terms
    Bs = tuple(AB[:, (i + 1) * l:(i + 2) * l] for i in range(m))
    C = AB[:, (m + 1) * l:] if "U" in blocks else None
    return BilinearLiftedModel(psi=psi, A=AB[:, :l], Bs=Bs, C=C, advisory=advisory)


def _linear_baseline(psi: StateDictionary, d: _DataR) -> BilinearLiftedModel:
    """:func:`fit_linear_baseline` read off the columns of a streamed R."""
    return _baseline(psi, d, ("HX", "U"), "regressor [psi(X); U]")


def _bilinear_baseline(psi: StateDictionary, d: _DataR,
                       include_input_term: bool = False) -> BilinearLiftedModel:
    """:func:`fit_bilinear_baseline` read off the columns of a streamed R."""
    blocks = ("HX", "HU", "U") if include_input_term else ("HX", "HU")
    return _baseline(psi, d, blocks, "bilinear regressor")


def fit_linear_baseline(psi: StateDictionary, ss: SnapshotSet) -> BilinearLiftedModel:
    """Least-squares lifted linear fit ``[A, B] = psi(X+) pinv([psi(X); U])``.

    ``psi`` is evaluated in chunks into one R factor (:func:`kooplift.
    edmd._stream_r` of its control-independent extension); the fit is read
    off its columns.
    """
    d = _stream_r(NormalDictionary(psi, None, ss.X.shape[0], ss.U.shape[0]), to_augmented(ss))
    return _linear_baseline(psi, d)


def fit_bilinear_baseline(psi: StateDictionary, ss: SnapshotSet,
                          include_input_term: bool = False) -> BilinearLiftedModel:
    """Least-squares lifted bilinear fit on rows ``[psi(X); psi(X)u_1; ...]``.

    The direct ``C u`` term is omitted by default (the conventional
    comparison form); ``include_input_term=True`` appends the ``U`` block
    to the regressor.  A rank-deficient regressor (for example a single
    constant input channel, which makes A and B collinear) flags the
    model advisory and warns.  Like :func:`fit_linear_baseline`, the fit
    is read off the columns of one streamed R factor.
    """
    d = _stream_r(NormalDictionary(psi, None, ss.X.shape[0], ss.U.shape[0]), to_augmented(ss))
    return _bilinear_baseline(psi, d, include_input_term)


def switched_from_constant_inputs(psi: StateDictionary, subsets) -> SwitchedLinearModel:
    """One EDMD fit per constant input value.

    ``subsets`` is a sequence of ``(u_value, SnapshotSet)`` pairs, each
    collected under that constant input; a value that repeats an earlier
    one raises :class:`ConfigError` naming it, as the model-file reader
    does.  Lookup at prediction time is exact on the fitted values and
    raises :class:`UnknownInputValue` elsewhere.
    """
    fits = ((u, fit_edmd(eval_matrix(psi, ss.X), eval_matrix(psi, ss.Xplus)).K)
            for u, ss in subsets)
    return SwitchedLinearModel(psi=psi, matrices=_by_input(
        fits, "switched_from_constant_inputs", "subsets", ""))


def bilinear_as_separable(model: BilinearLiftedModel) -> SeparableModel:
    """Exact separable embedding of a bilinear model via the constant function.

    Appends the constant observable to the dictionary and encodes
    ``A z + sum_i u_i B_i z + C u`` as ``(A11 + A12 Gtilde(u)) [z; 1]``
    with block-identity input rows, reproducing bilinear predictions
    exactly.  A linear model (no ``B_i``) embeds through its ``C u`` rows alone.
    """
    psi, A, Bs, C = model.psi, model.A, model.Bs, model.C
    k = A.shape[0]
    m, nb = model.input_dim, len(Bs)
    L = k + 1

    def h_fn(X):
        return np.vstack([eval_matrix(psi, X), np.ones((1, X.shape[1]))])

    H = StateDictionary(dim=L, fn=h_fn, names=tuple(psi.names) + ("1",),
                        domain_dim=psi.domain_dim)
    A11 = np.zeros((L, L))
    A11[:k, :k] = A
    A11[k, k] = 1.0

    n_cols = nb * L + (m if C is not None else 0)
    A12 = np.zeros((L, n_cols))
    for i in range(nb):
        A12[:k, i * L:i * L + k] = Bs[i]
    if C is not None:
        A12[:k, nb * L:] = C

    def gt_fn(U):
        G = np.zeros((n_cols, L, U.shape[1]))
        diag = np.arange(L)
        for i in range(nb):
            G[i * L + diag, diag] = U[i]
        if C is not None:
            G[nb * L + np.arange(m), L - 1] = U
        return G

    gt = InputMatrixFunction(rows=n_cols, cols=L, fn=gt_fn, domain_dim=m)
    return SeparableModel(H=H, A11=A11, A12=A12, Gtilde=gt, source_index=None)


# ----------------------------------------------------------------------
# Rollout evaluation


def evaluate_rollouts(system: ControlSystem, models: dict, x0s, n_steps: int,
                      seed: int) -> dict:
    """Compare model rollouts against simulated truth on a random test input.

    The test signal is piecewise constant with hold 1: each step's input
    is drawn uniformly from the system's input box using the named seed.
    Returns per-model, per-state RMSE (aggregated over all initial
    conditions and steps; a diverged rollout scores infinity and records
    its divergence step) plus the per-step trajectories.

    Each model rolls all ``x0s`` as one lifted block through its
    ``transitions``, which it computes once for the test signal.  A
    column that goes non-finite records its step; ``diverged_at`` is the
    earliest of them, and that ``x0``'s trajectory is None.  ``n_steps``
    below 1 raises :class:`ConfigError`.
    """
    if n_steps < 1:
        raise ConfigError(f"need at least 1 rollout step, got {n_steps}")
    rng = np.random.default_rng(seed)
    lo, hi = system.input_box
    U = rng.uniform(lo, hi, size=(n_steps, system.input_dim)).T
    x0s = [np.asarray(x0, dtype=float).reshape(-1) for x0 in x0s]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        truths = [tr.states for tr in _simulate_many(system, x0s, U)]

    results = {}
    trajectories = {"truth": truths, "inputs": U}
    X0 = np.column_stack(x0s)
    for name, model in models.items():
        Z, failed = _roll(model, model.lift(X0), U)
        preds = [None] * len(x0s)
        kept = np.flatnonzero(failed == 0)
        if kept.size:
            states = states_from_lifted(model, Z[:, :, kept].reshape(Z.shape[0], -1))
            states = states.reshape(states.shape[0], Z.shape[1], kept.size)
            for pos, j in enumerate(kept):
                preds[j] = states[:, :, pos]
        diverged_at = int(failed[failed > 0].min()) if failed.any() else None
        err_sq = np.zeros(system.state_dim)
        count = 0
        finite = True
        for truth, pred in zip(truths, preds):
            if pred is None or not np.all(np.isfinite(pred)):
                finite = False
                break
            err_sq += ((pred - truth) ** 2).sum(axis=1)
            count += truth.shape[1]
        if finite and count:
            rmse = np.sqrt(err_sq / count)
        else:
            rmse = np.full(system.state_dim, np.inf)
        results[name] = {
            "rmse": [float(v) for v in rmse],
            "diverged_at": diverged_at,
        }
        trajectories[name] = preds
    return {"rmse": results, "trajectories": trajectories,
            "n_steps": int(n_steps), "seed": int(seed)}


# ----------------------------------------------------------------------
# Serialization


MODEL_FORMAT = "kooplift-model-v1"


def _json_value(value):
    """``value`` as written: an array, or a tuple of arrays, as nested lists of floats.

    A switched model's ``matrices`` are written as a list of ``{"u", "A"}`` entries.
    """
    if isinstance(value, dict):
        return [{"u": _json_value(u), "A": _json_value(A)} for u, A in value.items()]
    return np.asarray(value, float).tolist() if isinstance(value, (np.ndarray, tuple)) else value


_MODEL_CLASSES = {"separable": SeparableModel, "linear": BilinearLiftedModel,
                  "bilinear": BilinearLiftedModel, "switched": SwitchedLinearModel}


def _switched_matrices(m: int, l: int):
    """The check of a switched model's ``matrices``: a dict from input value to matrix.

    Each entry's ``u`` has length m and its ``A`` is l x l; a repeated
    input value is refused, since the dict would keep only one matrix.
    """
    entry = {"u": (_numeric(m), ...), "A": (_numeric(l, l), ...)}
    entries = _list_of(lambda value, path, what: check_json(entry, value, what, path),
                       "one or more objects with keys 'u' and 'A'", least=1)
    return lambda value, path, what: _by_input(
        ((f["u"], f["A"]) for f in entries(value, path, what)), what, path, ".u")


def _model_table(kind: str, source: NormalDictionary) -> dict:
    """The keys of a ``kind`` model file besides those every kind shares.

    The model's basis is the head of ``source``, and each matrix's shape
    follows from it: l rows of H, r = s - l input rows and m inputs.  A
    separable model with no input rows has null off-diagonal blocks.
    """
    l, r, m = source.l, source.s - source.l, source.input_dim
    block = _numeric if r else lambda *shape: _equal(None)
    return {"separable": {"l": (_equal(l), None), "s": (_equal(l + r), None),
                          "A11": (_numeric(l, l), ...), "A12": (block(l, r), ...),
                          "A21": (block(r, l), None), "A22": (block(r, r), None),
                          "source_index": (_number(0.0, 1.0), None)},
            "linear": {"A": (_numeric(l, l), ...), "B": (_numeric(l, m), ...)},
            "bilinear": {"A": (_numeric(l, l), ...), "Bs": (_numeric(m, l, l), ...),
                         "C": (_numeric(l, m), None), "advisory": (_boolean, False)},
            "switched": {"matrices": (_switched_matrices(m, l), ...)}}[kind]


def model_to_json(model) -> dict:
    """JSON-ready description of a fitted model.

    The parts every kind shares: ``format``, ``kind``, the descriptor of
    the dictionary the basis was taken from (under the class's
    ``source_key``; the Gtilde function and the basis are rebuilt from it)
    and the decoder.  Then each key of the kind's table, from the model's
    attribute of that name.  Only a basis from :func:`head_dictionary` of
    a serializable dictionary serializes.
    """
    source = model.basis.source
    if source is None:
        raise ConfigError(f"{model.kind} model's basis is not the head of a dictionary; "
                          "fit models on head_dictionary(nd) of a serializable nd")
    decoder = None if model.decoder is None else {"D": _json_value(model.decoder[0]),
                                                  "residual": model.decoder[1]}
    return {"format": MODEL_FORMAT, "kind": model.kind,
            model.source_key: dictionary_to_json(source), "decoder": decoder,
            **{key: _json_value(getattr(model, key)) for key in _model_table(model.kind, source)}}


def model_from_json(obj: dict):
    """Rebuild a model from :func:`model_to_json` output.

    ``kind`` picks the class, and the dictionary under its ``source_key``
    is rebuilt first (:func:`~kooplift.observables.dictionary_from_json`),
    since its basis fixes the shape of every matrix: l rows of H, s - l
    input rows, m inputs and n states.  :func:`~kooplift.observables.
    check_json` then checks the object against one table: the keys every
    kind shares (``format``, ``kind``, ``meta``, the descriptor and ``decoder``,
    whose ``D`` is n x l and whose ``residual`` is a finite number >= 0)
    and the class's own.  A separable model's ``source_index`` is null or
    a finite number in [0, 1], and its ``l`` and ``s`` must be the basis's;
    a bilinear model's ``advisory`` is a JSON boolean; a switched model's
    ``matrices`` is a non-empty list of ``{"u", "A"}`` entries whose ``u``
    values differ.  An unknown or missing key, or a value of the wrong
    type, range or shape, raises :class:`ConfigError` naming its path,
    inside the dictionary too (``gtilde_descriptor.dims.s``).
    """
    if not isinstance(obj, dict) or obj.get("format") != MODEL_FORMAT:
        raise ConfigError("not a kooplift model JSON object")
    what = "kooplift model JSON object"
    cls = _MODEL_CLASSES[_one_of(_MODEL_CLASSES, "model kind")(obj.get("kind"), "kind", what)]
    if cls.source_key not in obj:
        raise ConfigError(f"{what} has no {cls.source_key!r} key")
    source = dictionary_from_json(obj[cls.source_key], what, cls.source_key)
    decoder = {"D": (_numeric(source.state_dim, source.l), ...), "residual": (_number(0.0), ...)}
    f = check_json({**_FILE_KEYS, cls.source_key: (_any, ...), "decoder": (decoder, None),
                    **_model_table(obj["kind"], source)}, obj, what)
    decoder = None if f["decoder"] is None else (f["decoder"]["D"], f["decoder"]["residual"])
    return cls._from_json(f, head_dictionary(source), decoder)


def save_model(model, path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(model_to_json(model), indent=2, sort_keys=True) + "\n")
    return path


def load_model(path):
    return model_from_json(json.loads(Path(path).read_text()))
