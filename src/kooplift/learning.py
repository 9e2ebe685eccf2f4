"""Dictionary learning by minimizing the invariance proximity.

The training loss is the trace surrogate of the consistency index.  With
``P = Phi(Z)`` and ``Q = Phi(Z+)`` evaluated on a batch of N snapshots
(s-by-N each), take the reduced QR factorizations

    [P'; sqrt(eps_p) I] = Qa Rp,    [Q'; sqrt(eps_q) I] = Qb Rq

and let A and B be the top N rows of Qa and Qb, so ``A = P' Rp^-1``,
``B = Q' Rq^-1``, and ``M = A' B`` is s-by-s.  The loss is

    L = s - ||M||_F^2 = s - Tr(Gp^-1 Cpq Gq^-1 Cpq')

where ``Gp = P P' + eps_p I = Rp' Rp``, ``Gq = Q Q' + eps_q I = Rq' Rq``
and ``Cpq = P Q'``.  Without the ridge terms this is exactly
``Tr(M_C) = Tr(I - K_F K_B)``, the sum of the squared sines of the
principal angles between the row spaces of P and Q: an upper bound on
the index that sandwiches it together with ``Tr/s``.  The ridge (scaled
by the mean squared dictionary magnitude) makes the loss smooth where
the data lose rank.  Like the index of :mod:`kooplift.edmd`, the loss is
read off orthonormal bases (Bjorck and Golub, 1973) and never forms a
Gram matrix, so its rounding error grows with ``sqrt(cond(Gp))``, not
``cond(Gp)``.  Reported metrics, the per-epoch held-out one included,
always use the exact, ridge-free index of :mod:`kooplift.edmd` (one
streamed R of the data per evaluation).

Gradients are exact and computed in closed form (two s-by-s triangular
solves plus one reverse pass through the dictionary), so no automatic
differentiation framework is involved.  With ``Sp = Rp^-1 M`` and
``Sq = Rq^-1 M'``,

    dL/dP = 2 Sp (M' A' - B') + (2 r / s) ||Sp||_F^2 P
    dL/dQ = 2 Sq (M B' - A') + (2 r / s) ||Sq||_F^2 Q

where ``r`` is the ridge scale, ``eps_p = r ||P||_F^2 / s`` and
``eps_q = r ||Q||_F^2 / s``.  The last terms are the dependence of the
ridge magnitudes on the data (``||Sp||_F^2 = dL/deps_p``), so finite
differences agree to their noise floor regardless of conditioning.

A training step (:func:`loss_gradient`) makes one forward and one backward
pass through the dictionary's networks, with the QR kernel between them.
The forward pass evaluates H once on the ``2N`` state columns ``[X | X+]``
of the batch, and Gtilde once on the input ``U``, which the augmented map
holds, so ``Z`` and ``Z+`` share it; P and Q are read off that one pass.
The backward pass takes ``[dL/dP | dL/dQ]`` together: H on ``2N``
columns, Gtilde on ``N`` columns with the two upstream signals summed.
:func:`loss` is the same kernel without the gradients, so it equals the
step's value bit for bit.  It evaluates through ``eval_pair``, which runs
Gtilde once on the held input; it also accepts any object that only has
``eval_aug``, and then evaluates it on ``Z`` and ``Z+`` in turn.

Each epoch costs one extra pass, on the held-out half only: the training
curve is the mean of the epoch's minibatch losses, which the steps have
already computed, and the validation curve is the exact held-out
invariance proximity (``sqrt_index`` of :func:`~kooplift.edmd.
consistency_index`), which also selects the checkpoint.  That pass
evaluates the dictionary rebased to original coordinates on the unscaled
held-out half, streamed in chunks into one R factor
(:func:`kooplift.edmd.invariance_proximity`), so the curve is in original
coordinates.  The best epoch's R (k-by-k, a few kilobytes) is kept, and
``final_proximity_test`` is read off it: equal to the curve's best entry
bit for bit, with no further pass.

Each dataset half is thus evaluated once after training: the training
half, streamed into its R, gives ``final_proximity_train`` and the
consistency report.  The pipeline reads everything else off that R: the
EDMD fit of the extracted model (``report.fit``), its certificate, and
both baselines (least squares on R's column blocks, no second pass of
H).  It compares models on held-out data through the models' batched
transition protocol (:mod:`kooplift.models`).

Training (:func:`train`) follows the conventional recipe in named
stages.  ``_split`` cuts the data in half.  Each epoch, ``_epoch`` runs
shuffled mini-batches through :func:`loss_gradient` and one Adam update,
``_adam_update`` (decay 0.9/0.999, stabilizer 1e-8, a linearly
decreasing learning rate), and applies the abort rule;
``_held_out_proximity`` then scores the epoch, and the parameters with
the best held-out proximity are kept.  The report is built in one place,
at the end.  A frozen family runs zero epochs through the same stages.

The dictionary owns the one parameter vector, ``theta``
(:class:`~kooplift.observables.TrainableNormalDictionary`): its
networks' weights are views of it, and so are those of the rebased copy
that scores the held-out half.  ``_adam_update`` updates it in place, so
no step copies parameters into the networks; the only other write is the
best epoch's parameters, put back once after the last epoch.
"""

from __future__ import annotations

import dataclasses
import time
import warnings
from pathlib import Path

import numpy as np

from .dynamics import (
    AugmentedSnapshots,
    ControlSystem,
    SnapshotSet,
    run_experiments,
    to_augmented,
)
from .edmd import ConsistencyReport, _DataR, _stream_r
from .errors import ConfigError, DegenerateData, NonFiniteGradient, NonFiniteLoss, RankWarning
from .models import (
    SeparableModel,
    _bilinear_baseline,
    _linear_baseline,
    evaluate_rollouts,
    extract_normal,
    head_dictionary,
    states_from_lifted,
)
from .observables import (
    EXAMPLE_POLY_BASIS,
    FAMILIES,
    NormalDictionary,
    TrainableNormalDictionary,
    _any,
    _integer,
    _number,
    _one_of,
    check_json,
    example_poly_normal_basis,
    json_array,
    json_number,
    parametric_family,
)

Array = np.ndarray


@dataclasses.dataclass
class TrainConfig:
    """Configuration for dictionary training.

    ``family`` holds ``kind`` and exactly the parameters that kind takes
    in :data:`kooplift.observables.FAMILIES` (``total_degree``,
    ``widths``, or ``blocks`` and ``width``, optional ``activation``,
    ``fixed_head`` and ``seed``, which defaults to the config's
    ``seed``); the special kind ``"example_poly_basis"`` selects the
    frozen builtin basis, which skips optimization entirely and takes
    only ``truncate``.  Any other key, or a value of the wrong type or
    range, raises :class:`ConfigError` naming its path (``family.widths[1]``)
    when the config is made, so before any data are read.  ``seed`` is a
    non-negative integer.  ``s`` and ``l`` are the augmented and
    state dictionary dimensions (taken from the basis for the frozen
    kind), with ``s >= l >= 1`` when both are set.  The learning rate
    decreases linearly from ``lr_start`` to ``lr_end`` over the epochs,
    with ``0 < lr_end <= lr_start < inf``; the ridge scale is a finite
    number >= 0.  Optimization minimizes the trace loss;
    the held-out metric is the exact index, so there is no metric to
    choose (the former ``loss_mode`` key is accepted by
    :func:`config_from_json` for old files and ignored).  ``x_scale`` and
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
    x_scale: object = None
    u_scale: object = None
    ridge_scale: float = 1e-10
    split_fraction: float = 0.5

    def __post_init__(self):
        what = "TrainConfig"
        _integer(1)(self.epochs, "epochs", what)
        _integer(1)(self.batch_size, "batch_size", what)
        if not (0.0 < self.lr_end <= self.lr_start < np.inf):
            raise ConfigError(f"{what}: need 0 < lr_end <= lr_start < inf, "
                              f"got {self.lr_start} -> {self.lr_end}")
        _number(0.0)(self.ridge_scale, "ridge_scale", what)
        if not (0.0 < self.split_fraction < 1.0):
            raise ConfigError("split_fraction must be in (0, 1)")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.s is not None and self.l is not None and not self.s >= self.l >= 1:
            raise ConfigError(f"{what}: need s >= l >= 1, got s={self.s}, l={self.l}")
        if not isinstance(self.family, dict):
            raise ConfigError(f"{what}: 'family' must be a JSON object, got {self.family!r}")
        kind = _one_of(FAMILIES, "family kind")(self.family.get("kind"), "family.kind", what)
        check_json({"kind": (_any, ...), **FAMILIES[kind]}, self.family, what, "family")


@dataclasses.dataclass
class TrainReport:
    """Per-epoch curves, final metrics, and counters from one training run.

    ``train_curve`` records, per epoch, the mean trace loss of that
    epoch's minibatches (those that stayed finite; NaN when none did),
    in the scaled training coordinates.  ``val_curve`` records the exact,
    ridge-free invariance proximity of the held-out half after each epoch
    (the ``sqrt_index`` of the consistency index, in [0, 1]; NaN when it
    could not be evaluated), which selects the checkpoint; it is computed
    in original coordinates, by the rebased dictionary on the unscaled
    data, at the cost of one streamed pass over the held-out half per
    epoch.  Final proximities are ridge-free and computed in original
    coordinates; ``final_proximity_test`` is read off the best epoch's
    held-out R, so it equals ``val_curve[best_epoch]`` bit for bit.
    ``lr_schedule`` holds each epoch's learning rate.  The three curves
    have one entry per epoch begun: the epoch in which a run aborts
    records the mean loss of its finite batches (NaN when none was
    finite) and a NaN held-out entry, since no held-out pass runs.
    ``wall_time`` is informational and excluded from the deterministic
    JSON so that metric files are byte-reproducible.
    ``train_consistency`` is the consistency report behind
    ``final_proximity_train`` (None when it could not be computed), and
    ``train_r`` the streamed R of the training half it was read off
    (:func:`kooplift.edmd._stream_r`; None when the half could not be
    evaluated), from which the pipeline also fits the baselines; like the
    index arrays, neither is serialized.
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
    train_consistency: ConsistencyReport | None = dataclasses.field(default=None, repr=False)
    train_r: _DataR | None = dataclasses.field(default=None, repr=False)


def _scaled(aug: AugmentedSnapshots, x_scale, u_scale) -> AugmentedSnapshots:
    n = aug.state_dim
    mul = np.concatenate([np.asarray(x_scale, dtype=float),
                          np.asarray(u_scale, dtype=float)])[:, None]
    return AugmentedSnapshots(Z=aug.Z * mul, Zplus=aug.Zplus * mul,
                              state_dim=n, input_dim=aug.input_dim)


def _columns(aug: AugmentedSnapshots, idx) -> AugmentedSnapshots:
    return AugmentedSnapshots(Z=aug.Z[:, idx], Zplus=aug.Zplus[:, idx],
                              state_dim=aug.state_dim, input_dim=aug.input_dim)


def _trace_loss(nd, P: Array, Q: Array, ridge_scale: float, grad: bool):
    """The trace loss of ``(P, Q)`` and, with ``grad``, its gradients.

    Returns ``(value, dL/dP, dL/dQ)``; the gradients are None without
    ``grad``.  The value is ``s - ||A' B||_F^2`` with A, B the top N rows
    of the orthonormal factors of ``[P'; sqrt(eps_p) I]`` and
    ``[Q'; sqrt(eps_q) I]`` (see the module docstring), so no Gram matrix
    is formed.  ``nd`` only names the parameter norm in the errors.
    """
    if not (np.all(np.isfinite(P)) and np.all(np.isfinite(Q))):
        raise NonFiniteLoss(
            f"dictionary evaluation is not finite (parameter norm {_param_norm(nd)})")
    s, N = P.shape
    eps_p = ridge_scale * float(np.sum(P * P)) / s
    eps_q = ridge_scale * float(np.sum(Q * Q)) / s
    Qa, Rp = np.linalg.qr(np.vstack([P.T, np.sqrt(eps_p) * np.eye(s)]))
    Qb, Rq = np.linalg.qr(np.vstack([Q.T, np.sqrt(eps_q) * np.eye(s)]))
    A, B = Qa[:N], Qb[:N]
    M = A.T @ B
    value = s - float(np.sum(M * M))
    if not np.isfinite(value):
        raise NonFiniteLoss(f"loss is not finite (parameter norm {_param_norm(nd)})")
    if not grad:
        return value, None, None
    Sp = np.linalg.solve(Rp, M)
    Sq = np.linalg.solve(Rq, M.T)
    # The ridge magnitudes eps = ridge_scale*Tr(.)/s depend on P and Q;
    # their exact contribution keeps the gradient correct even where the
    # data are poorly conditioned and the ridge carries weight.
    dP = 2.0 * (Sp @ (M.T @ A.T - B.T)) + (2.0 * ridge_scale / s) * float(np.sum(Sp * Sp)) * P
    dQ = 2.0 * (Sq @ (M @ B.T - A.T)) + (2.0 * ridge_scale / s) * float(np.sum(Sq * Sq)) * Q
    return value, dP, dQ


def loss(nd: NormalDictionary, batch: AugmentedSnapshots, ridge_scale: float = 1e-10) -> float:
    """Ridge-regularized non-invariance loss of a dictionary on a batch.

    Returns ``Tr(M_C)``, the training surrogate, with pseudo-inverses
    replaced by ridge-regularized projections (scale set by
    ``ridge_scale`` times the mean squared dictionary magnitude), so on
    rank-deficient batches it stays finite and smooth.  It lies between
    the consistency index and ``s`` times it (up to the ridge), and is
    computed from two QR factorizations, as the value half of
    :func:`loss_gradient`: the two agree bit for bit.
    """
    if isinstance(nd, NormalDictionary):
        P, Q = nd.eval_pair(batch)
    else:
        P, Q = nd.eval_aug(batch.Z), nd.eval_aug(batch.Zplus)
    return _trace_loss(nd, P, Q, ridge_scale, grad=False)[0]


def _param_norm(nd) -> str:
    theta = getattr(nd, "theta", None)
    return "n/a" if theta is None else f"{float(np.linalg.norm(theta)):.6g}"


def loss_gradient(nd: TrainableNormalDictionary, batch: AugmentedSnapshots,
                  ridge_scale: float = 1e-10):
    """The trace loss and its exact parameter gradient.

    Returns ``(value, gradient)`` with the gradient laid out like
    ``nd.get_params()`` (frozen head rows contribute no entries); the
    value equals :func:`loss` bit for bit.

    One forward and one backward pass per call: H runs on the ``2B``
    state columns ``[X | X+]`` and Gtilde once on the inputs, which ``Z``
    and ``Z+`` share whenever the snapshots come from the augmented map
    (checked entry by entry; otherwise Gtilde also runs on ``U+``).  The
    QR kernel between them gives ``dL/dP`` and ``dL/dQ``, and the
    backward pass takes ``[dL/dP | dL/dQ]`` in one block.  A non-finite
    value raises :class:`NonFiniteLoss` before the backward pass runs.
    """
    n, B = batch.state_dim, batch.n_snapshots
    U = batch.Z[n:]
    if not np.array_equal(U, batch.Zplus[n:]):
        U = np.hstack([U, batch.Zplus[n:]])
    fwd = nd._forward(np.hstack([batch.Z[:n], batch.Zplus[:n]]), U, grad=True)
    Phi = nd._stack(fwd[0], fwd[1])
    value, dP, dQ = _trace_loss(nd, Phi[:, :B], Phi[:, B:], ridge_scale, grad=True)
    grad = nd._backward(fwd, np.hstack([dP, dQ]))
    if not np.all(np.isfinite(grad)):
        raise NonFiniteGradient(
            f"gradient is not finite (parameter norm {_param_norm(nd)})")
    return value, grad


def _build_dictionary(config: TrainConfig, state_dim: int, input_dim: int):
    family = dict(config.family)
    kind = family.pop("kind")
    if kind == EXAMPLE_POLY_BASIS:
        return example_poly_normal_basis(**family)
    if config.s is None or config.l is None:
        raise ConfigError("parametric families need explicit s and l")
    return parametric_family(kind, state_dim=state_dim, input_dim=input_dim,
                             s=config.s, l=config.l, **{"seed": config.seed, **family})


def _held_out_proximity(nd: NormalDictionary, batch: AugmentedSnapshots):
    """Exact invariance proximity of ``nd`` on ``batch``: the per-epoch metric.

    Returns ``(R, sqrt_index)``, the streamed R of ``batch`` and the
    proximity read off it.  Raises :class:`DegenerateData` on a non-finite
    evaluation; the rank warnings are left to the final reports, so the
    loop does not warn once per epoch.
    """
    d = _stream_r(nd, batch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RankWarning)
        return d, d.report().sqrt_index


def _final_consistency(nd: NormalDictionary, aug: AugmentedSnapshots, d: _DataR | None = None):
    """``(R, report)`` for the final metrics, streaming ``aug`` unless ``d`` is its R.

    Aborted runs can leave non-finite data or parameters behind; the
    report must still be returned, so evaluation failures degrade to None
    (a NaN proximity) instead of raising.
    """
    try:
        d = _stream_r(nd, aug) if d is None else d
        return d, d.report()
    except (np.linalg.LinAlgError, DegenerateData, ValueError):
        return d, None


def _sqrt_index(report) -> float:
    return float("nan") if report is None else report.sqrt_index


def _split(config: TrainConfig, N: int):
    """Training and held-out column indices, each sorted.

    One permutation drawn from ``[seed, 1]``, cut at ``split_fraction``
    with at least one column on each side.
    """
    perm = np.random.default_rng([config.seed, 1]).permutation(N)
    n_train = min(max(int(round(config.split_fraction * N)), 1), N - 1)
    return np.sort(perm[:n_train]), np.sort(perm[n_train:])


@dataclasses.dataclass
class _Adam:
    """Adam's state: the moment estimates ``m`` and ``v`` and the step count ``t``."""

    m: Array
    v: Array
    t: int = 0


def _adam_update(adam: _Adam, theta: Array, grad: Array, lr: float) -> None:
    """One Adam step (decay 0.9/0.999, stabilizer 1e-8) on ``theta``.

    ``m``, ``v`` and ``theta`` are updated in place, by the operations of
    ``m = b1 m + (1 - b1) g``, ``v = b2 v + (1 - b2) g g`` and
    ``theta -= lr m_hat / (sqrt(v_hat) + 1e-8)`` in their order, so the
    step is bit for bit that of the textbook expressions.
    """
    b1, b2 = 0.9, 0.999
    adam.t += 1
    adam.m *= b1
    adam.m += (1 - b1) * grad
    adam.v *= b2
    adam.v += (1 - b2) * grad * grad
    step = adam.m / (1 - b1**adam.t)
    step *= lr
    step /= np.sqrt(adam.v / (1 - b2**adam.t)) + 1e-8
    theta -= step


@dataclasses.dataclass
class _Run:
    """What training carries from batch to batch and epoch to epoch.

    ``bad_run`` counts the non-finite batches in a row, across epoch
    boundaries; more than 3 abort the run.
    """

    adam: _Adam
    nan_batches: int = 0
    bad_run: int = 0

    @property
    def aborted(self) -> bool:
        return self.bad_run > 3


def _epoch(nd: TrainableNormalDictionary, run: _Run, batches, lr: float,
           ridge_scale: float) -> float:
    """Run one epoch's minibatch steps; return the mean loss of its finite batches.

    Each step's Adam update writes into ``nd.theta``, the vector the
    networks' weights are views of, so the next step sees it.  A batch
    whose loss or gradient is not finite is skipped and counted; the
    epoch stops at the batch that aborts the run.  The mean is NaN when
    no batch was finite.
    """
    losses = []
    for batch in batches:
        try:
            value, grad = loss_gradient(nd, batch, ridge_scale=ridge_scale)
        except (NonFiniteLoss, NonFiniteGradient):
            run.nan_batches += 1
            run.bad_run += 1
            if run.aborted:
                break
            continue
        run.bad_run = 0
        losses.append(value)
        _adam_update(run.adam, nd.theta, grad, lr)
    return float(np.mean(losses)) if losses else float("nan")


def train(config: TrainConfig, data: AugmentedSnapshots):
    """Optimize a dictionary on augmented snapshots.

    Returns ``(dictionary, report)``; the dictionary carries the
    best-by-validation parameters rebased to original coordinates.  The
    stages: ``_split`` halves the snapshots (a permutation drawn from
    ``[seed, 1]``); each epoch takes its learning rate off the linear
    schedule, and ``_epoch`` runs shuffled mini-batches of the scaled
    training half (orders drawn from ``[seed, 2]``) through
    :func:`loss_gradient` and ``_adam_update``; ``_held_out_proximity``
    then scores the held-out half and the best epoch is kept.  The
    :class:`TrainReport` is built once, at the end.

    A frozen (parameter-free) family runs zero epochs and is evaluated as
    built; its ``x_scale`` and ``u_scale`` are ignored.  More than 3
    consecutive non-finite batches abort training; the report then
    carries ``aborted=True`` and the best parameters seen so far.
    """
    t0 = time.perf_counter()
    N = data.n_snapshots
    if config.batch_size > N:
        raise ConfigError(f"batch_size {config.batch_size} exceeds N={N}")
    nd = _build_dictionary(config, data.state_dim, data.input_dim)
    train_idx, val_idx = _split(config, N)
    train_aug, val_aug = _columns(data, train_idx), _columns(data, val_idx)

    epochs, final_nd, theta = 0, nd, np.zeros(0)
    if isinstance(nd, TrainableNormalDictionary) and nd.n_params > 0:
        # ``final_nd`` shares nd's parameter vector; its scales are checked against the data.
        final_nd = nd.with_input_scaling(config.x_scale, config.u_scale)
        train_s = _scaled(train_aug, final_nd.x_scale, final_nd.u_scale)
        epochs, theta = config.epochs, nd.theta
    run = _Run(_Adam(np.zeros_like(theta), np.zeros_like(theta)))
    shuffler = np.random.default_rng([config.seed, 2])
    train_curve, val_curve, lr_schedule = [], [], []
    best_metric, best_epoch, best_theta, best_val_r = np.inf, 0, theta.copy(), None

    for epoch in range(epochs):
        lr = config.lr_start + (config.lr_end - config.lr_start) * (epoch / max(epochs - 1, 1))
        lr_schedule.append(float(lr))
        order = shuffler.permutation(len(train_idx))
        batches = (_columns(train_s, order[i:i + config.batch_size])
                   for i in range(0, len(order), config.batch_size))
        train_curve.append(_epoch(nd, run, batches, lr, config.ridge_scale))
        if run.aborted:
            val_curve.append(float("nan"))
            break
        try:
            val_r, val_metric = _held_out_proximity(final_nd, val_aug)
        except (DegenerateData, np.linalg.LinAlgError):
            run.nan_batches += 1
            val_r, val_metric = None, float("nan")
        val_curve.append(val_metric)
        if val_metric < best_metric:
            best_metric, best_epoch, best_val_r = val_metric, epoch, val_r
            best_theta = theta.copy()

    theta[...] = best_theta  # the one write besides Adam's steps; a frozen family has none
    train_r, train_consistency = _final_consistency(final_nd, train_aug)
    report = TrainReport(
        train_curve=train_curve, val_curve=val_curve, lr_schedule=lr_schedule,
        final_proximity_train=_sqrt_index(train_consistency),
        final_proximity_test=_sqrt_index(_final_consistency(final_nd, val_aug, best_val_r)[1]),
        wall_time=time.perf_counter() - t0, nan_batches=run.nan_batches, aborted=run.aborted,
        best_epoch=best_epoch, train_indices=train_idx, val_indices=val_idx,
        train_consistency=train_consistency, train_r=train_r)
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
    """Relative one-step state error of each model: every snapshot in one batched step."""
    out = {}
    denom = float(np.linalg.norm(ss.Xplus))
    for name, model in models.items():
        A, b = model.transitions(ss.U)
        Zp = np.einsum("Nij,jN->iN", A, model.lift(ss.X))
        if b is not None:
            Zp += b
        preds = states_from_lifted(model, Zp)
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

    # ``train`` streamed the training half once into an R factor and
    # certified this dictionary from it; the fit, the certificate and both
    # baselines are read off that R.  Only a failed certificate (an aborted
    # run) is recomputed, to raise its error.
    d, consistency = report.train_r, report.train_consistency
    if consistency is None:
        d = _stream_r(nd, train_aug)
        consistency = d.report()
    separable = extract_normal(consistency.fit, nd, consistency)
    psi = head_dictionary(nd)
    linear = _linear_baseline(psi, d)
    bilinear = _bilinear_baseline(psi, d)

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


def _scale(value, path: str, what: str) -> list:
    """A list of numbers; its length is checked against the data in :func:`train`."""
    return json_array(value, path, what, (None,)).tolist()


# The JSON form of a TrainConfig: each key's check and its default, the
# dataclass's.  The table checks JSON types; TrainConfig checks the family
# and the ranges, so that a config made in Python is checked alike.
# ``loss_mode`` is read from files written before the held-out metric
# became the exact index, and dropped: it is no longer a choice.
_CONFIG = {
    "family": (_any, ...),
    "s": (_integer(), None), "l": (_integer(), None),
    "epochs": (_integer(), 100), "batch_size": (_integer(), 200),
    "lr_start": (json_number, 5e-4), "lr_end": (json_number, 1e-6),
    "seed": (_integer(), 0),
    "x_scale": (_scale, None), "u_scale": (_scale, None),
    "ridge_scale": (json_number, 1e-10), "split_fraction": (json_number, 0.5),
    "loss_mode": (_one_of(("trace", "max_eig"), "loss_mode"), None),
}


def config_from_json(obj: dict) -> TrainConfig:
    """TrainConfig from its JSON form, checked by :func:`check_json`.

    An unknown or missing key, or a value of the wrong JSON type, raises
    :class:`ConfigError` naming its path; :class:`TrainConfig` then checks
    the family and the ranges.  ``loss_mode``, from older files, must be
    ``"trace"`` or ``"max_eig"`` and is dropped.
    """
    config = check_json(_CONFIG, obj, "TrainConfig")
    del config["loss_mode"]
    return TrainConfig(**config)


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


def _curve_lines(report: TrainReport) -> list[str]:
    lines = ["epoch,lr,train_loss,val_proximity"]
    for i, (lr, tr, va) in enumerate(zip(report.lr_schedule, report.train_curve,
                                         report.val_curve)):
        lines.append(f"{i},{lr!r},{tr!r},{va!r}")
    return lines


def report_to_csv(report: TrainReport, path) -> Path:
    """Per-epoch curve CSV: epoch, learning rate, train loss, held-out proximity."""
    path = Path(path)
    path.write_text("\n".join(_curve_lines(report)) + "\n")
    return path
