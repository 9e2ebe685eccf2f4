"""Dictionary learning by minimizing the invariance proximity.

The training loss is the trace surrogate of the consistency index: with
``P = Phi(Z)`` and ``Q = Phi(Z+)`` evaluated on a batch,

    L = s - Tr(Gp^-1 Cpq Gq^-1 Cpq')

where ``Gp = P P' + eps_p I``, ``Gq = Q Q' + eps_q I`` and ``Cpq = P Q'``.
Without the ridge terms this is exactly ``Tr(M_C) = Tr(I - K_F K_B)``,
an upper bound on the index that sandwiches it together with ``Tr/s``;
the ridge (scaled by the mean squared dictionary magnitude) makes the
loss smooth where the data Gram matrices lose rank.  Reported metrics
always use the exact, ridge-free definition from :mod:`kooplift.edmd`.

Gradients are exact and computed in closed form (s-by-s solves plus one
reverse pass through the dictionary), so no automatic differentiation
framework is involved:

    dL/dP = 2 Gp^-1 Cpq Gq^-1 (Cpq' Gp^-1 P - Q) + (dL/deps_p) d(eps_p)/dP
    dL/dQ = 2 Gq^-1 Cpq' Gp^-1 (Cpq Gq^-1 Q - P) + (dL/deps_q) d(eps_q)/dQ

including the dependence of the ridge magnitudes on the data, so finite
differences agree to their noise floor regardless of conditioning.

A training step (:func:`loss_gradient`) makes one forward and one backward
pass through the dictionary's networks.  The forward pass evaluates H once
on the ``2B`` state columns ``[X | X+]`` of a batch of ``B`` snapshots, and
Gtilde once on the input ``U``, which the augmented map holds, so ``Z`` and
``Z+`` share it; P and Q are read off that one pass.  The backward pass
takes ``[dL/dP | dL/dQ]`` together: H on ``2B`` columns, Gtilde on ``B``
columns with the two upstream signals summed.  The per-epoch metrics go
through ``eval_aug`` and so accept any object that has it.

Training follows the conventional recipe: split the data in half, run a
moment-based adaptive gradient method (decay 0.9/0.999, stabilizer 1e-8)
with a linearly decreasing learning rate over shuffled mini-batches, and
keep the parameters that score the best held-out proximity.
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path

import numpy as np

from .dynamics import (
    AugmentedSnapshots,
    ControlSystem,
    SnapshotSet,
    run_experiments,
    to_augmented,
)
from .edmd import consistency_index, fit_edmd, invariance_proximity
from .errors import ConfigError, DegenerateData, NonFiniteGradient, NonFiniteLoss
from .models import (
    SeparableModel,
    evaluate_rollouts,
    extract_normal,
    fit_bilinear_baseline,
    fit_linear_baseline,
    head_dictionary,
    rollout,
    states_from_lifted,
)
from .observables import (
    NormalDictionary,
    TrainableNormalDictionary,
    example_poly_normal_basis,
    parametric_family,
)

Array = np.ndarray


@dataclasses.dataclass
class TrainConfig:
    """Configuration for dictionary training.

    ``family`` holds the dictionary-family keywords: ``kind`` plus the
    family parameters (``total_degree``, ``widths``, or ``blocks`` and
    ``width``, optional ``activation`` and ``fixed_head``); the special
    kind ``"example_poly_basis"`` selects the frozen builtin basis, which
    skips optimization entirely.  ``s`` and ``l`` are the augmented and
    state dictionary dimensions (taken from the basis for the frozen
    kind).  The learning rate decreases linearly from ``lr_start`` to
    ``lr_end`` over the epochs.  ``loss_mode`` selects the metric
    recorded in the loss curves; optimization always uses trace-mode
    gradients (the max-eigenvalue mode is evaluation-only, since its
    gradient degenerates at eigenvalue crossings).  ``x_scale`` and
    ``u_scale`` are per-coordinate multipliers applied to the data before
    training and folded back into the dictionary afterwards, so reported
    proximities always refer to original coordinates.
    """

    family: dict
    s: int | None = None
    l: int | None = None
    epochs: int = 100
    batch_size: int = 200
    lr_start: float = 5e-4
    lr_end: float = 1e-6
    seed: int = 0
    loss_mode: str = "trace"
    x_scale: object = None
    u_scale: object = None
    ridge_scale: float = 1e-10
    split_fraction: float = 0.5

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (0.0 < self.lr_end <= self.lr_start):
            raise ConfigError(
                f"need 0 < lr_end <= lr_start, got {self.lr_start} -> {self.lr_end}")
        if self.loss_mode not in ("trace", "max_eig"):
            raise ConfigError(f"loss_mode must be 'trace' or 'max_eig', got {self.loss_mode!r}")
        if not (0.0 < self.split_fraction < 1.0):
            raise ConfigError("split_fraction must be in (0, 1)")


@dataclasses.dataclass
class TrainReport:
    """Per-epoch curves, final metrics, and counters from one training run.

    ``train_curve`` records the loss (in ``loss_mode``) on the training
    half after each epoch; ``val_curve`` records the held-out invariance
    proximity (max-eigenvalue based, in [0, 1]) used for checkpoint
    selection.  Final proximities are ridge-free and computed in original
    coordinates.  ``wall_time`` is informational and excluded from the
    deterministic JSON so that metric files are byte-reproducible.
    """

    train_curve: list
    val_curve: list
    lr_schedule: list
    final_proximity_train: float
    final_proximity_test: float
    wall_time: float
    nan_batches: int
    aborted: bool
    best_epoch: int
    data_rejections: int = 0
    train_indices: Array | None = dataclasses.field(default=None, repr=False)
    val_indices: Array | None = dataclasses.field(default=None, repr=False)


def _scaled(aug: AugmentedSnapshots, x_scale, u_scale) -> AugmentedSnapshots:
    n = aug.state_dim
    mul = np.concatenate([np.asarray(x_scale, dtype=float),
                          np.asarray(u_scale, dtype=float)])[:, None]
    return AugmentedSnapshots(Z=aug.Z * mul, Zplus=aug.Zplus * mul,
                              state_dim=n, input_dim=aug.input_dim)


def _columns(aug: AugmentedSnapshots, idx) -> AugmentedSnapshots:
    return AugmentedSnapshots(Z=aug.Z[:, idx], Zplus=aug.Zplus[:, idx],
                              state_dim=aug.state_dim, input_dim=aug.input_dim)


def _gram_terms(nd, P: Array, Q: Array, ridge_scale: float):
    if not (np.all(np.isfinite(P)) and np.all(np.isfinite(Q))):
        raise NonFiniteLoss(
            f"dictionary evaluation is not finite (parameter norm {_param_norm(nd)})")
    s = P.shape[0]
    eps_p = ridge_scale * float(np.sum(P * P)) / s
    eps_q = ridge_scale * float(np.sum(Q * Q)) / s
    Gp = P @ P.T + eps_p * np.eye(s)
    Gq = Q @ Q.T + eps_q * np.eye(s)
    return Gp, Gq


def loss(nd: NormalDictionary, batch: AugmentedSnapshots, mode: str = "trace",
         ridge_scale: float = 1e-10, params=None) -> float:
    """Ridge-regularized non-invariance loss of a dictionary on a batch.

    ``trace`` mode returns ``Tr(M_C)``, the training surrogate;
    ``max_eig`` returns ``lambda_max(M_C)``, the consistency index
    itself.  Both replace pseudo-inverses with ridge solves (scale set by
    ``ridge_scale`` times the mean squared dictionary magnitude), so on
    rank-deficient batches they remain finite and smooth.  ``params``
    optionally sets the dictionary parameters first.
    """
    if params is not None:
        nd.set_params(np.asarray(params, dtype=float))
    if mode not in ("trace", "max_eig"):
        raise ConfigError(f"mode must be 'trace' or 'max_eig', got {mode!r}")
    P = nd.eval_aug(batch.Z)
    Q = nd.eval_aug(batch.Zplus)
    Gp, Gq = _gram_terms(nd, P, Q, ridge_scale)
    s = P.shape[0]
    Cpq = P @ Q.T
    if mode == "trace":
        T1 = np.linalg.solve(Gp, Cpq)
        T2 = np.linalg.solve(Gq, Cpq.T)
        value = s - float(np.sum(T1 * T2.T))
    else:
        K_F = np.linalg.solve(Gp, Cpq).T
        K_B = np.linalg.solve(Gq, Cpq.T).T
        M = np.eye(s) - K_F @ K_B
        value = float(np.max(np.linalg.eigvals(M).real))
    if not np.isfinite(value):
        pnorm = _param_norm(nd)
        raise NonFiniteLoss(f"loss is not finite (parameter norm {pnorm})")
    return value


def _param_norm(nd) -> str:
    get = getattr(nd, "get_params", None)
    if get is None:
        return "n/a"
    return f"{float(np.linalg.norm(get())):.6g}"


def loss_gradient(nd: TrainableNormalDictionary, batch: AugmentedSnapshots,
                  ridge_scale: float = 1e-10, params=None):
    """Trace-mode loss and its exact parameter gradient.

    Returns ``(value, gradient)`` with the gradient laid out like
    ``nd.get_params()`` (frozen head rows contribute no entries).  The
    max-eigenvalue mode has no gradient here: its top eigenvector is
    discontinuous at crossings.

    One forward and one backward pass per call: H runs on the ``2B``
    state columns ``[X | X+]`` and Gtilde once on the inputs, which ``Z``
    and ``Z+`` share whenever the snapshots come from the augmented map
    (checked entry by entry; otherwise Gtilde also runs on ``U+``).  The
    backward pass takes ``[dL/dP | dL/dQ]`` in one block.
    """
    if params is not None:
        nd.set_params(np.asarray(params, dtype=float))
    n, B = batch.state_dim, batch.n_snapshots
    U = batch.Z[n:]
    if not np.array_equal(U, batch.Zplus[n:]):
        U = np.hstack([U, batch.Zplus[n:]])
    fwd = nd._forward(np.hstack([batch.Z[:n], batch.Zplus[:n]]), U)
    Phi = nd._stack(fwd)
    P, Q = Phi[:, :B], Phi[:, B:]
    Gp, Gq = _gram_terms(nd, P, Q, ridge_scale)
    s = P.shape[0]
    Cpq = P @ Q.T
    T1 = np.linalg.solve(Gp, Cpq)
    T2 = np.linalg.solve(Gq, Cpq.T)
    value = s - float(np.sum(T1 * T2.T))
    Xp = np.linalg.solve(Gp, P)
    Yq = np.linalg.solve(Gq, Q)
    dP = 2.0 * (T1 @ (T2 @ Xp - Yq))
    dQ = 2.0 * (T2 @ (T1 @ Yq - Xp))
    # The ridge magnitudes eps = ridge_scale*Tr(.)/s depend on P and Q;
    # their exact contribution keeps the gradient correct even where the
    # Gram matrices are poorly conditioned and the ridge carries weight.
    dL_deps_p = float(np.trace(np.linalg.solve(Gp, T1 @ T2)))
    dL_deps_q = float(np.trace(np.linalg.solve(Gq, T2 @ T1)))
    dP = dP + (2.0 * ridge_scale / s) * dL_deps_p * P
    dQ = dQ + (2.0 * ridge_scale / s) * dL_deps_q * Q
    grad = nd._backward(fwd, np.hstack([dP, dQ]))
    if not np.isfinite(value):
        raise NonFiniteLoss(f"loss is not finite (parameter norm {_param_norm(nd)})")
    if not np.all(np.isfinite(grad)):
        raise NonFiniteGradient(
            f"gradient is not finite (parameter norm {_param_norm(nd)})")
    return value, grad


def _build_dictionary(config: TrainConfig, state_dim: int, input_dim: int):
    fam = dict(config.family)
    kind = fam.pop("kind", None)
    if kind is None:
        raise ConfigError("family spec needs a 'kind' entry")
    if kind == "example_poly_basis":
        return example_poly_normal_basis(truncate=fam.pop("truncate", ()))
    if config.s is None or config.l is None:
        raise ConfigError("parametric families need explicit s and l")
    fam.setdefault("seed", config.seed)
    return parametric_family(kind, state_dim=state_dim, input_dim=input_dim,
                             s=config.s, l=config.l, **fam)


def _proximity(nd: NormalDictionary, batch: AugmentedSnapshots,
               ridge_scale: float) -> float:
    lam = loss(nd, batch, mode="max_eig", ridge_scale=ridge_scale)
    return float(np.sqrt(np.clip(lam, 0.0, 1.0)))


def _final_proximity(nd: NormalDictionary, aug: AugmentedSnapshots) -> float:
    """Ridge-free proximity for the report; NaN when not computable.

    Aborted runs can leave non-finite data or parameters behind; the
    report must still be returned, so evaluation failures degrade to NaN
    instead of raising.
    """
    try:
        return invariance_proximity(nd, aug).sqrt_index
    except (np.linalg.LinAlgError, DegenerateData, NonFiniteLoss, ValueError):
        return float("nan")


def train(config: TrainConfig, data: AugmentedSnapshots):
    """Optimize a dictionary on augmented snapshots.

    Splits the snapshots in half (shuffled by the config seed), runs the
    adaptive gradient method over mini-batches of the training half with
    the linear learning-rate schedule, records per-epoch curves, and
    returns ``(dictionary, report)`` where the dictionary carries the
    best-by-validation parameters rebased to original coordinates.

    A frozen (parameter-free) family skips the optimization loop and is
    evaluated as-is.  More than 3 consecutive non-finite batches abort
    training; the report then carries ``aborted=True`` and the best
    parameters seen so far.
    """
    t0 = time.perf_counter()
    N = data.n_snapshots
    if config.batch_size > N:
        raise ConfigError(f"batch_size {config.batch_size} exceeds N={N}")
    nd = _build_dictionary(config, data.state_dim, data.input_dim)

    rng = np.random.default_rng([config.seed, 1])
    perm = rng.permutation(N)
    n_train = int(round(config.split_fraction * N))
    n_train = min(max(n_train, 1), N - 1)
    train_idx = np.sort(perm[:n_train])
    val_idx = np.sort(perm[n_train:])
    train_aug = _columns(data, train_idx)
    val_aug = _columns(data, val_idx)

    trainable = isinstance(nd, TrainableNormalDictionary) and nd.n_params > 0
    if not trainable:
        report = TrainReport(
            train_curve=[], val_curve=[], lr_schedule=[],
            final_proximity_train=_final_proximity(nd, train_aug),
            final_proximity_test=_final_proximity(nd, val_aug),
            wall_time=time.perf_counter() - t0,
            nan_batches=0, aborted=False, best_epoch=0,
            train_indices=train_idx, val_indices=val_idx,
        )
        return nd, report

    x_scale = np.ones(data.state_dim) if config.x_scale is None \
        else np.asarray(config.x_scale, dtype=float)
    u_scale = np.ones(data.input_dim) if config.u_scale is None \
        else np.asarray(config.u_scale, dtype=float)
    train_s = _scaled(train_aug, x_scale, u_scale)
    val_s = _scaled(val_aug, x_scale, u_scale)

    theta = nd.get_params()
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    beta1, beta2, stab = 0.9, 0.999, 1e-8
    t_step = 0

    shuffler = np.random.default_rng([config.seed, 2])
    train_curve, val_curve, lr_schedule = [], [], []
    nan_batches = 0
    consecutive_bad = 0
    aborted = False
    best_metric = np.inf
    best_theta = theta.copy()
    best_epoch = 0

    for epoch in range(config.epochs):
        if config.epochs == 1:
            lr = config.lr_start
        else:
            frac = epoch / (config.epochs - 1)
            lr = config.lr_start + (config.lr_end - config.lr_start) * frac
        lr_schedule.append(float(lr))

        order = shuffler.permutation(n_train)
        for start in range(0, n_train, config.batch_size):
            cols = order[start:start + config.batch_size]
            batch = _columns(train_s, cols)
            try:
                nd.set_params(theta)
                _, grad = loss_gradient(nd, batch, ridge_scale=config.ridge_scale)
            except (NonFiniteLoss, NonFiniteGradient):
                nan_batches += 1
                consecutive_bad += 1
                if consecutive_bad > 3:
                    aborted = True
                    break
                continue
            consecutive_bad = 0
            t_step += 1
            m = beta1 * m + (1 - beta1) * grad
            v = beta2 * v + (1 - beta2) * grad * grad
            m_hat = m / (1 - beta1**t_step)
            v_hat = v / (1 - beta2**t_step)
            theta = theta - lr * m_hat / (np.sqrt(v_hat) + stab)
        if aborted:
            break

        nd.set_params(theta)
        try:
            train_curve.append(loss(nd, train_s, mode=config.loss_mode,
                                    ridge_scale=config.ridge_scale))
            val_metric = _proximity(nd, val_s, config.ridge_scale)
        except NonFiniteLoss:
            nan_batches += 1
            train_curve.append(float("nan"))
            val_curve.append(float("nan"))
            continue
        val_curve.append(val_metric)
        if val_metric < best_metric:
            best_metric = val_metric
            best_theta = theta.copy()
            best_epoch = epoch

    nd.set_params(best_theta)
    final_nd = nd.with_input_scaling(x_scale, u_scale)
    report = TrainReport(
        train_curve=train_curve,
        val_curve=val_curve,
        lr_schedule=lr_schedule,
        final_proximity_train=_final_proximity(final_nd, train_aug),
        final_proximity_test=_final_proximity(final_nd, val_aug),
        wall_time=time.perf_counter() - t0,
        nan_batches=nan_batches,
        aborted=aborted,
        best_epoch=best_epoch,
        train_indices=train_idx,
        val_indices=val_idx,
    )
    return final_nd, report


@dataclasses.dataclass
class PipelineResult:
    """Everything the end-to-end pipeline produces."""

    dictionary: NormalDictionary
    separable: SeparableModel
    linear: object
    bilinear: object
    train_report: TrainReport
    consistency: object
    evaluation: dict | None
    one_step: dict | None


def _one_step_state_errors(models: dict, ss: SnapshotSet) -> dict:
    out = {}
    denom = float(np.linalg.norm(ss.Xplus))
    for name, model in models.items():
        preds = np.empty_like(ss.Xplus)
        for j in range(ss.X.shape[1]):
            z = model.step_lifted(model.lift(ss.X[:, j]), ss.U[:, j])
            preds[:, j] = states_from_lifted(model, z[:, None])[:, 0]
        out[name] = float(np.linalg.norm(preds - ss.Xplus) / max(denom, 1e-300))
    return out


def pipeline(config: TrainConfig, system_or_dataset, plan=None, *,
             eval_steps: int = 600, eval_x0s=None, eval_seed=None) -> PipelineResult:
    """Train a dictionary, extract the separable model, fit baselines, evaluate.

    With a control system, snapshots are generated via ``run_experiments``
    (``plan`` required) and models are evaluated on fresh rollouts with a
    piecewise-constant random test input; with a ready dataset, models
    are compared by one-step state prediction error on the held-out half.
    The EDMD fit, the extraction, and both baselines use the training
    half only; the baselines share the learned dictionary's state block,
    so all three models predict in the same lifted dimension.
    """
    if isinstance(system_or_dataset, ControlSystem):
        system = system_or_dataset
        if plan is None:
            raise ConfigError("pipeline needs an ExperimentPlan to generate data")
        ss = run_experiments(system, plan)
    else:
        system = None
        ss = system_or_dataset
    aug = to_augmented(ss)

    nd, report = train(config, aug)
    report.data_rejections = ss.rejected
    train_aug = _columns(aug, report.train_indices)
    val_aug = _columns(aug, report.val_indices)

    P = nd.eval_aug(train_aug.Z)
    Q = nd.eval_aug(train_aug.Zplus)
    fit = fit_edmd(P, Q)
    consistency = consistency_index(P, Q)
    separable = extract_normal(fit, nd, consistency)

    X_tr, U_tr, Xp_tr = train_aug.split()
    ss_train = SnapshotSet(X=X_tr, Xplus=Xp_tr, U=U_tr)
    psi = head_dictionary(nd)
    linear = fit_linear_baseline(psi, ss_train)
    bilinear = fit_bilinear_baseline(psi, ss_train)

    models = {"separable": separable, "linear": linear, "bilinear": bilinear}
    evaluation = None
    one_step = None
    if system is not None:
        sig_seed = (config.seed + 1000) if eval_seed is None else int(eval_seed)
        if eval_x0s is None:
            lo, hi = system.state_box
            x0_rng = np.random.default_rng([sig_seed, 7])
            eval_x0s = [x0_rng.uniform(lo, hi) for _ in range(3)]
        evaluation = evaluate_rollouts(system, models, eval_x0s, eval_steps, sig_seed)
    else:
        X_v, U_v, Xp_v = val_aug.split()
        one_step = _one_step_state_errors(models, SnapshotSet(X=X_v, Xplus=Xp_v, U=U_v))

    return PipelineResult(
        dictionary=nd,
        separable=separable,
        linear=linear,
        bilinear=bilinear,
        train_report=report,
        consistency=consistency,
        evaluation=evaluation,
        one_step=one_step,
    )


# ----------------------------------------------------------------------
# Serialization


def config_to_json(config: TrainConfig) -> dict:
    out = dataclasses.asdict(config)
    for key in ("x_scale", "u_scale"):
        if out[key] is not None:
            out[key] = [float(v) for v in np.asarray(out[key]).reshape(-1)]
    return out


def config_from_json(obj: dict) -> TrainConfig:
    fields = {f.name for f in dataclasses.fields(TrainConfig)}
    unknown = set(obj) - fields
    if unknown:
        raise ConfigError(f"unknown TrainConfig keys: {sorted(unknown)}")
    return TrainConfig(**obj)


def _json_float(v):
    """Strict-JSON float: non-finite values map to null."""
    v = float(v)
    return v if np.isfinite(v) else None


def report_to_json(report: TrainReport, include_timing: bool = False) -> dict:
    """JSON-ready training report.

    ``wall_time`` is included only on request so that metric files stay
    byte-identical across reruns; timing belongs in a separate sidecar.
    Non-finite entries (possible on aborted runs) serialize as null.
    """
    out = {
        "train_curve": [_json_float(v) for v in report.train_curve],
        "val_curve": [_json_float(v) for v in report.val_curve],
        "lr_schedule": [_json_float(v) for v in report.lr_schedule],
        "final_proximity_train": _json_float(report.final_proximity_train),
        "final_proximity_test": _json_float(report.final_proximity_test),
        "nan_batches": int(report.nan_batches),
        "aborted": bool(report.aborted),
        "best_epoch": int(report.best_epoch),
        "data_rejections": int(report.data_rejections),
    }
    if include_timing:
        out["wall_time"] = float(report.wall_time)
    return out


def report_to_csv(report: TrainReport, path) -> Path:
    """Per-epoch curve CSV: epoch, learning rate, train loss, held-out proximity."""
    lines = ["epoch,lr,train_loss,val_proximity"]
    for i, (lr, tr, va) in enumerate(zip(report.lr_schedule, report.train_curve,
                                         report.val_curve)):
        lines.append(f"{i},{lr!r},{tr!r},{va!r}")
    path = Path(path)
    path.write_text("\n".join(lines) + "\n")
    return path
