"""Input-state separable models, lifted baselines, and rollouts.

A separable model advances a lifted state ``z = H(x)`` linearly with an
input-dependent matrix: ``z+ = A_of(u) z`` where ``A_of(u) = A11 +
A12 Gtilde(u)``.  Lifted linear, bilinear, and switched-linear models are
special cases; this module fits all of them from snapshot data, converts
between them where exact embeddings exist, and rolls out predictions.

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

from .dynamics import ControlSystem, SnapshotSet, _simulate_many
from .edmd import ConsistencyReport, EdmdFit, PINV_CUTOFF, _svd_pinv, fit_edmd
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
    NormalDictionary,
    StateDictionary,
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
    """The state block H of a dictionary, tagged for model serialization.

    Baselines fitted on this head carry a reference back to the full
    dictionary so they can be saved and reloaded.
    """
    psi = nd.H
    object.__setattr__(psi, "_source_dictionary", nd)
    return psi


def fit_state_decoder(psi: StateDictionary, X: Array):
    """Least-squares map D with ``X ~ D psi(X)``; returns (D, residual).

    The residual is relative (Frobenius), reported so callers can judge
    whether the dictionary actually resolves the state.
    """
    PX = eval_matrix(psi, X)
    D = np.asarray(X, dtype=float) @ _svd_pinv(PX, PINV_CUTOFF)
    resid = float(np.linalg.norm(X - D @ PX) / max(np.linalg.norm(X), 1e-300))
    return D, resid


@dataclasses.dataclass
class SeparableModel:
    """Lifted model ``z+ = (A11 + A12 Gtilde(u)) z`` with ``z = H(x)``.

    ``A12`` and ``Gtilde`` are None when the dictionary has no input
    rows (s = l); then the model is input-independent.  ``source_index``
    is the invariance proximity of the fit the model came from: the
    certified worst-case relative one-step prediction error over
    span(H).  ``A21``/``A22`` keep the discarded blocks of the full fit
    for diagnostics.
    """

    H: StateDictionary
    A11: Array
    A12: Array | None
    Gtilde: object | None
    source_index: float | None
    A21: Array | None = None
    A22: Array | None = None
    decoder: tuple | None = None
    source_dictionary: NormalDictionary | None = dataclasses.field(
        default=None, repr=False)

    @property
    def l(self) -> int:
        return self.A11.shape[0]

    @property
    def s(self) -> int:
        return self.l if self.A12 is None else self.l + self.A12.shape[1]

    @property
    def state_dim(self) -> int:
        return self.H.domain_dim

    def A_of(self, u) -> Array:
        """Input-dependent lifted transition matrix ``A11 + A12 Gtilde(u)``."""
        if self.A12 is None:
            return self.A11
        u = np.asarray(u, dtype=float).reshape(-1)
        return self.A11 + self.A12 @ self.Gtilde(u)

    def lift(self, x) -> Array:
        return self.H(np.asarray(x, dtype=float).reshape(-1))

    def step_lifted(self, z: Array, u) -> Array:
        return self.A_of(u) @ z

    def readout_rows(self):
        return _head_rows(self.H.names, self.state_dim)


@dataclasses.dataclass
class LinearLiftedModel:
    """Lifted linear model ``psi(x+) ~ A psi(x) + B u``."""

    psi: StateDictionary
    A: Array
    B: Array
    decoder: tuple | None = None

    @property
    def state_dim(self) -> int:
        return self.psi.domain_dim

    def lift(self, x) -> Array:
        return self.psi(np.asarray(x, dtype=float).reshape(-1))

    def step_lifted(self, z: Array, u) -> Array:
        u = np.asarray(u, dtype=float).reshape(-1)
        return self.A @ z + self.B @ u

    def readout_rows(self):
        return _head_rows(self.psi.names, self.state_dim)


@dataclasses.dataclass
class BilinearLiftedModel:
    """Lifted bilinear model ``psi(x+) ~ A psi(x) + sum_i u_i B_i psi(x) [+ C u]``."""

    psi: StateDictionary
    A: Array
    Bs: tuple
    C: Array | None = None
    decoder: tuple | None = None
    advisory: bool = False

    @property
    def state_dim(self) -> int:
        return self.psi.domain_dim

    @property
    def input_dim(self) -> int:
        return len(self.Bs)

    def lift(self, x) -> Array:
        return self.psi(np.asarray(x, dtype=float).reshape(-1))

    def step_lifted(self, z: Array, u) -> Array:
        u = np.asarray(u, dtype=float).reshape(-1)
        out = self.A @ z
        for ui, Bi in zip(u, self.Bs):
            out = out + ui * (Bi @ z)
        if self.C is not None:
            out = out + self.C @ u
        return out

    def readout_rows(self):
        return _head_rows(self.psi.names, self.state_dim)


@dataclasses.dataclass
class SwitchedLinearModel:
    """One lifted transition matrix per input value in a finite set."""

    psi: StateDictionary
    matrices: dict
    decoder: tuple | None = None

    @property
    def state_dim(self) -> int:
        return self.psi.domain_dim

    def matrix_at(self, u) -> Array:
        key = tuple(float(v) for v in np.asarray(u, dtype=float).reshape(-1))
        try:
            return self.matrices[key]
        except KeyError:
            known = sorted(self.matrices)
            raise UnknownInputValue(
                f"no matrix fitted for input {key}; known values: {known}"
            ) from None

    def lift(self, x) -> Array:
        return self.psi(np.asarray(x, dtype=float).reshape(-1))

    def step_lifted(self, z: Array, u) -> Array:
        return self.matrix_at(u) @ z

    def readout_rows(self):
        return _head_rows(self.psi.names, self.state_dim)


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
        H=nd.H,
        A11=A11,
        A12=A12,
        Gtilde=gt,
        source_index=None if source_index is None else float(source_index),
        A21=A21,
        A22=A22,
        source_dictionary=nd,
    )


def extract_pseudoinverse(A: Array, G_eval, u, tol: float = 1e-8) -> Array:
    """Separable matrix at one input: ``(G(u)' G(u))^{-1} G(u)' A G(u)``.

    ``G_eval`` maps an input vector to the s-by-l separable-combination
    matrix (a NormalDictionary's ``G_of`` works directly).  Requires
    ``G(u)`` full column rank; raises :class:`RankDeficientAtInput`
    naming the offending input otherwise.
    """
    if isinstance(G_eval, NormalDictionary):
        G_eval = G_eval.G_of
    u = np.asarray(u, dtype=float).reshape(-1)
    G = np.atleast_2d(np.asarray(G_eval(u), dtype=float))
    A = np.asarray(A, dtype=float)
    if A.shape != (G.shape[0], G.shape[0]):
        raise DimensionMismatch(f"A is {A.shape}, G(u) is {G.shape}")
    sv = np.linalg.svd(G, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] <= tol * sv[0] or G.shape[0] < G.shape[1]:
        raise RankDeficientAtInput(f"G(u) is rank-deficient at u = {u.tolist()}")
    return np.linalg.solve(G.T @ G, G.T @ A @ G)


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


def rollout(model, x0, inputs, input_dim: int | None = None) -> Array:
    """Open-loop lifted rollout: columns ``z_0 = lift(x0)``, ``z_{k+1} = step(z_k, u_k)``.

    Works for any lifted model (separable, linear, bilinear, switched).
    ``inputs`` is (m, L) (an empty list yields the single column
    ``lift(x0)``).  Raises :class:`NonFiniteState` with the step index on
    overflow.  Multi-step error is not certified: the source_index bound
    is one-step only, so rollouts are reported without a guarantee.
    """
    if input_dim is None:
        if isinstance(model, SeparableModel) and model.A12 is not None:
            input_dim = model.Gtilde.domain_dim
        elif isinstance(model, LinearLiftedModel):
            input_dim = model.B.shape[1]
        elif isinstance(model, BilinearLiftedModel):
            input_dim = model.input_dim
        elif isinstance(model, SwitchedLinearModel) and model.matrices:
            input_dim = len(next(iter(model.matrices)))
        else:
            U0 = np.atleast_2d(np.asarray(inputs, dtype=float))
            input_dim = U0.shape[0] if U0.size else 1
    U = _coerce_inputs(inputs, input_dim)
    z = model.lift(x0)
    out = np.empty((z.shape[0], U.shape[1] + 1))
    out[:, 0] = z
    for k in range(U.shape[1]):
        z = model.step_lifted(z, U[:, k])
        if not np.all(np.isfinite(z)):
            err = NonFiniteState(f"lifted state became non-finite at step {k + 1}")
            err.step = k + 1
            raise err
        out[:, k + 1] = z
    return out


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
    psi = model.H if isinstance(model, SeparableModel) else model.psi
    D, resid = fit_state_decoder(psi, X)
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


def fit_linear_baseline(psi: StateDictionary, ss: SnapshotSet) -> LinearLiftedModel:
    """Least-squares lifted linear fit ``[A, B] = psi(X+) pinv([psi(X); U])``."""
    PX = eval_matrix(psi, ss.X)
    PXp = eval_matrix(psi, ss.Xplus)
    R = np.vstack([PX, ss.U])
    if not np.any(R):
        raise DegenerateData("regressor [psi(X); U] is identically zero")
    sv = np.linalg.svd(R, compute_uv=False)
    if sv[-1] <= PINV_CUTOFF * sv[0]:
        warnings.warn("regressor [psi(X); U] is rank-deficient; fit is not unique",
                      RankWarning, stacklevel=2)
    AB = PXp @ _svd_pinv(R, PINV_CUTOFF)
    k = PX.shape[0]
    return LinearLiftedModel(psi=psi, A=AB[:, :k], B=AB[:, k:])


def fit_bilinear_baseline(psi: StateDictionary, ss: SnapshotSet,
                          include_input_term: bool = False) -> BilinearLiftedModel:
    """Least-squares lifted bilinear fit on rows ``[psi(X); psi(X)u_1; ...]``.

    The direct ``C u`` term is omitted by default (the conventional
    comparison form); ``include_input_term=True`` appends the ``U`` block
    to the regressor.  A rank-deficient regressor (for example a single
    constant input channel, which makes A and B collinear) flags the
    model advisory and warns.
    """
    PX = eval_matrix(psi, ss.X)
    PXp = eval_matrix(psi, ss.Xplus)
    m = ss.U.shape[0]
    blocks = [PX] + [PX * ss.U[i] for i in range(m)]
    if include_input_term:
        blocks.append(ss.U)
    R = np.vstack(blocks)
    if not np.any(R):
        raise DegenerateData("bilinear regressor is identically zero")
    sv = np.linalg.svd(R, compute_uv=False)
    advisory = bool(sv[-1] <= PINV_CUTOFF * sv[0])
    if advisory:
        warnings.warn("bilinear regressor is rank-deficient; fit is not unique",
                      RankWarning, stacklevel=2)
    AB = PXp @ _svd_pinv(R, PINV_CUTOFF)
    k = PX.shape[0]
    A = AB[:, :k]
    Bs = tuple(AB[:, (i + 1) * k:(i + 2) * k] for i in range(m))
    C = AB[:, (m + 1) * k:] if include_input_term else None
    return BilinearLiftedModel(psi=psi, A=A, Bs=Bs, C=C, advisory=advisory)


def switched_from_constant_inputs(psi: StateDictionary, subsets) -> SwitchedLinearModel:
    """One EDMD fit per constant input value.

    ``subsets`` is a sequence of ``(u_value, SnapshotSet)`` pairs, each
    collected under that constant input.  Lookup at prediction time is
    exact on the fitted values and raises :class:`UnknownInputValue`
    elsewhere.
    """
    matrices = {}
    for u_value, ss in subsets:
        key = tuple(float(v) for v in np.asarray(u_value, dtype=float).reshape(-1))
        fit = fit_edmd(eval_matrix(psi, ss.X), eval_matrix(psi, ss.Xplus))
        matrices[key] = fit.K
    return SwitchedLinearModel(psi=psi, matrices=matrices)


def bilinear_as_separable(model: BilinearLiftedModel) -> SeparableModel:
    """Exact separable embedding of a bilinear model via the constant function.

    Appends the constant observable to the dictionary and encodes
    ``A z + sum_i u_i B_i z + C u`` as ``(A11 + A12 Gtilde(u)) [z; 1]``
    with block-identity input rows, reproducing bilinear predictions
    exactly.
    """
    psi, A, Bs, C = model.psi, model.A, model.Bs, model.C
    k = A.shape[0]
    m = len(Bs)
    L = k + 1

    def h_fn(x):
        return np.concatenate([psi(x), [1.0]])

    def h_batch(X):
        PX = eval_matrix(psi, X)
        return np.vstack([PX, np.ones((1, PX.shape[1]))])

    H = StateDictionary(
        dim=L,
        fn=h_fn,
        names=tuple(psi.names) + ("1",),
        domain_dim=psi.domain_dim,
        batch_fn=h_batch,
    )
    A11 = np.zeros((L, L))
    A11[:k, :k] = A
    A11[k, k] = 1.0

    n_cols = m * L + (m if C is not None else 0)
    A12 = np.zeros((L, n_cols))
    for i in range(m):
        A12[:k, i * L:i * L + k] = Bs[i]
    if C is not None:
        A12[:k, m * L:] = C

    def gt_fn(U):
        G = np.zeros((n_cols, L, U.shape[1]))
        diag = np.arange(L)
        for i in range(m):
            G[i * L + diag, diag] = U[i]
            if C is not None:
                G[m * L + i, L - 1] = U[i]
        return G

    from .observables import InputMatrixFunction

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
    """
    rng = np.random.default_rng(seed)
    lo, hi = system.input_box
    U = rng.uniform(lo, hi, size=(n_steps, system.input_dim)).T
    x0s = [np.asarray(x0, dtype=float).reshape(-1) for x0 in x0s]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        truths = [tr.states for tr in _simulate_many(system, x0s, U)]

    results = {}
    trajectories = {"truth": truths, "inputs": U}
    for name, model in models.items():
        preds = []
        diverged_at = None
        for x0 in x0s:
            try:
                Z = rollout(model, x0, U, input_dim=system.input_dim)
                preds.append(states_from_lifted(model, Z))
            except NonFiniteState as err:
                step_idx = getattr(err, "step", U.shape[1])
                diverged_at = step_idx if diverged_at is None else min(diverged_at, step_idx)
                preds.append(None)
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


def _matrix(M):
    return None if M is None else [[float(v) for v in row] for row in np.atleast_2d(M)]


def model_to_json(model) -> dict:
    """JSON-ready description of a fitted model.

    Separable models reference their dictionary's JSON descriptor (the
    Gtilde function is reconstructed from it); baselines built on the
    state head of a serializable dictionary do the same.
    """
    if isinstance(model, SeparableModel):
        if model.source_dictionary is None:
            raise ConfigError("separable model has no serializable dictionary")
        return {
            "format": "kooplift-model-v1",
            "kind": "separable",
            "l": model.l,
            "s": model.s,
            "A11": _matrix(model.A11),
            "A12": _matrix(model.A12),
            "A21": _matrix(model.A21),
            "A22": _matrix(model.A22),
            "gtilde_descriptor": dictionary_to_json(model.source_dictionary),
            "source_index": model.source_index,
            "decoder": None if model.decoder is None else
                {"D": _matrix(model.decoder[0]), "residual": model.decoder[1]},
        }
    if isinstance(model, (LinearLiftedModel, BilinearLiftedModel)):
        nd = getattr(model.psi, "_source_dictionary", None)
        if nd is None:
            raise ConfigError("baseline dictionary is not serializable; "
                              "fit baselines on a serializable dictionary head")
        base = {
            "format": "kooplift-model-v1",
            "head_of": dictionary_to_json(nd),
            "decoder": None if model.decoder is None else
                {"D": _matrix(model.decoder[0]), "residual": model.decoder[1]},
        }
        if isinstance(model, LinearLiftedModel):
            base.update({"kind": "linear", "A": _matrix(model.A), "B": _matrix(model.B)})
        else:
            base.update({
                "kind": "bilinear",
                "A": _matrix(model.A),
                "Bs": [_matrix(Bi) for Bi in model.Bs],
                "C": _matrix(model.C),
                "advisory": model.advisory,
            })
        return base
    raise ConfigError(f"cannot serialize model of type {type(model).__name__}")


def model_from_json(obj: dict):
    """Rebuild a model from :func:`model_to_json` output."""
    if obj.get("format") != "kooplift-model-v1":
        raise ConfigError("not a kooplift model JSON object")
    kind = obj["kind"]
    decoder = obj.get("decoder")
    dec = None if decoder is None else (np.asarray(decoder["D"], dtype=float),
                                        float(decoder["residual"]))
    if kind == "separable":
        nd = dictionary_from_json(obj["gtilde_descriptor"])
        arr = lambda M: None if M is None else np.asarray(M, dtype=float)
        return SeparableModel(
            H=nd.H,
            A11=arr(obj["A11"]),
            A12=arr(obj["A12"]),
            Gtilde=nd.Gtilde,
            source_index=obj.get("source_index"),
            A21=arr(obj.get("A21")),
            A22=arr(obj.get("A22")),
            decoder=dec,
            source_dictionary=nd,
        )
    if kind in ("linear", "bilinear"):
        nd = dictionary_from_json(obj["head_of"])
        psi = head_dictionary(nd)
        if kind == "linear":
            return LinearLiftedModel(psi=psi, A=np.asarray(obj["A"], dtype=float),
                                     B=np.asarray(obj["B"], dtype=float), decoder=dec)
        return BilinearLiftedModel(
            psi=psi,
            A=np.asarray(obj["A"], dtype=float),
            Bs=tuple(np.asarray(Bi, dtype=float) for Bi in obj["Bs"]),
            C=None if obj.get("C") is None else np.asarray(obj["C"], dtype=float),
            decoder=dec,
            advisory=bool(obj.get("advisory", False)),
        )
    raise ConfigError(f"unknown model kind {kind!r}")


def save_model(model, path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(model_to_json(model), indent=2, sort_keys=True) + "\n")
    return path


def load_model(path):
    return model_from_json(json.loads(Path(path).read_text()))
