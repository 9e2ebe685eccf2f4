"""Golden files: saved dictionaries and models load, re-save and evaluate unchanged.

The JSON files in ``tests/fixtures/`` were written by :func:`save_dictionary`
and :func:`save_model` from the builders below.  Each must load, re-save
byte for byte, and evaluate like a freshly built object within the
round-trip tolerances of the serialization tests.  The files pin the
on-disk format: rewrite them (``python tests/test_golden.py``) only for a
deliberate format change.

``network_outputs.json`` pins the arithmetic of the network families
instead: ``eval_aug`` and the trace loss with its gradient of MLP and
residual-MLP dictionaries at fixed parameters, compared bit for bit.  A
loaded dictionary is compared with a fresh build through the same code
above, so only these values catch a change in the order of a network's
sums.

``train_outputs.json`` pins a whole training run the same way: the
curves, the final proximities, the counters and a digest of the final
parameters of :func:`train` on small datasets, compared at atol 0, so
a change in the order of the optimizer's arithmetic or its random draws
shows.  The aborted run's curves are not pinned; its counters, proximities
and parameters are.
"""

import hashlib
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

import kooplift as kl
from kooplift.dynamics import AugmentedSnapshots
from kooplift.errors import RankWarning
from kooplift.learning import TrainConfig, loss_gradient, train
from kooplift.models import (extract_normal, fit_bilinear_baseline, fit_linear_baseline,
                             head_dictionary, load_model, save_model, states_from_lifted,
                             switched_from_constant_inputs, with_decoder)

FIXTURES = Path(__file__).parent / "fixtures"

# name -> (builder, atol of the evaluation check)
DICTIONARIES = {
    "dict_example": (lambda: kl.example_poly_normal_basis(), 0.0),
    "dict_example_truncated": (
        lambda: kl.example_poly_normal_basis(truncate=("sin(u)", "u^2")), 0.0),
    "dict_polynomial_scaled": (
        lambda: kl.parametric_family("polynomial", state_dim=2, input_dim=1, s=7, l=4,
                                     total_degree=2, seed=7)
        .with_input_scaling([2.0, 0.5], [1.5]), 1e-14),
    "dict_headless": (
        lambda: kl.parametric_family("polynomial", state_dim=2, input_dim=1, s=8, l=5,
                                     fixed_head=None, total_degree=2, seed=2), 1e-14),
}


def _dictionary(name):
    return DICTIONARIES[name][0]()


def _separable(nd, ss):
    report = kl.invariance_proximity(nd, kl.to_augmented(ss))
    return extract_normal(report.fit, nd, report)


# The constant input values of the switched model.
SWITCHED_INPUTS = (-1.0, 0.0, 0.5)


def _switched():
    """One EDMD fit per constant input on 50 random states each, as ``TestSwitchedModel``."""
    system, rng = kl.example_poly(), np.random.default_rng(8)
    subsets = []
    for u in SWITCHED_INPUTS:
        X = np.vstack([rng.uniform(-2, 2, size=50), rng.uniform(-8, 8, size=50)])
        Xplus = np.column_stack([system.step_map(X[:, j], np.array([u])) for j in range(50)])
        subsets.append(([u], kl.SnapshotSet(X=X, Xplus=Xplus, U=np.full((1, 50), u))))
    return switched_from_constant_inputs(head_dictionary(_dictionary("dict_example")), subsets)


MODELS = {
    "model_separable_decoder":
        lambda ss: with_decoder(_separable(_dictionary("dict_headless"), ss), ss.X),
    "model_separable": lambda ss: _separable(_dictionary("dict_example"), ss),
    "model_linear":
        lambda ss: fit_linear_baseline(head_dictionary(_dictionary("dict_example")), ss),
    "model_bilinear":
        lambda ss: fit_bilinear_baseline(head_dictionary(_dictionary("dict_polynomial_scaled")),
                                         ss, include_input_term=True),
    "model_switched": lambda ss: _switched(),
}


# name -> family keyword arguments; every network has softplus activations.
NETWORKS = {
    "mlp_state_head": dict(kind="mlp", widths=[6, 5]),
    "mlp_headless": dict(kind="mlp", widths=[6, 5], fixed_head=None),
    "residual_mlp_state_head": dict(kind="residual_mlp", blocks=2, width=6),
    "residual_mlp_headless": dict(kind="residual_mlp", blocks=2, width=6, fixed_head=None),
}


def _network_outputs(name):
    """``eval_aug`` on a fixed ``Z`` and ``loss_gradient`` on a fixed batch.

    The initial biases are zero, so the parameters are perturbed: every
    bias then takes part in the sums whose order the values pin.
    """
    nd = kl.parametric_family(state_dim=2, input_dim=1, s=7, l=4, seed=5, **NETWORKS[name])
    rng = np.random.default_rng(31)
    nd.set_params(nd.get_params() + 0.3 * rng.standard_normal(nd.n_params))
    Z = np.vstack([rng.uniform(-2, 2, size=(2, 12)), rng.uniform(-1, 1, size=(1, 12))])
    Zplus = np.vstack([rng.uniform(-2, 2, size=(2, 12)), Z[2:]])
    value, grad = loss_gradient(nd, AugmentedSnapshots(Z, Zplus, 2, 1))
    return {"eval_aug": nd.eval_aug(Z).tolist(), "loss": value, "gradient": grad.tolist()}


def _example_aug(experiments):
    plan = kl.ExperimentPlan(num_experiments=experiments, steps_per_experiment=5, rng_seed=17)
    return kl.to_augmented(kl.run_experiments(kl.example_poly(g=0.0), plan))


def _motor_case():
    plan = kl.ExperimentPlan(num_experiments=40, steps_per_experiment=5, rng_seed=0,
                             input_mode="constant")
    aug = kl.to_augmented(kl.run_experiments(kl.get_system("dc_motor_tanh"), plan))
    config = TrainConfig(family={"kind": "residual_mlp", "blocks": 1, "width": 8,
                                 "fixed_head": [0, 1]},
                         s=8, l=4, epochs=3, batch_size=50, lr_start=5e-3, lr_end=1e-4,
                         seed=2, x_scale=[1 / 5, 1 / 80], u_scale=[1 / 2])
    return config, aug


def _polynomial_case():
    config = TrainConfig(family={"kind": "polynomial", "total_degree": 2, "seed": 2},
                         s=7, l=4, epochs=3, batch_size=50, lr_start=1e-2, lr_end=1e-3,
                         seed=9)
    return config, _example_aug(100)


def _frozen_case():
    # The scales do not apply to a frozen basis: they are ignored, not checked.
    config = TrainConfig(family={"kind": "example_poly_basis"}, seed=5,
                         x_scale=[1 / 5, 1 / 80], u_scale=[1 / 2])
    return config, _example_aug(100)


def _held_out_nan_case():
    # One non-finite held-out column: every held-out pass fails and is counted.
    config = TrainConfig(family={"kind": "polynomial", "total_degree": 2},
                         s=7, l=4, epochs=3, batch_size=50, seed=4)
    aug = _example_aug(100)
    Z = aug.Z.copy()
    Z[0, train(config, aug)[1].val_indices[3]] = np.nan
    return config, AugmentedSnapshots(Z, aug.Zplus, 2, 1)


def _aborted_case():
    # Every fifth training column is non-finite: the first epoch completes
    # and the second aborts after some finite batches.
    config = TrainConfig(family={"kind": "polynomial", "total_degree": 2}, s=7, l=4,
                         epochs=8, batch_size=2, lr_start=1e-2, lr_end=1e-3, seed=2)
    aug = _example_aug(40)
    split = train(TrainConfig(family={"kind": "example_poly_basis"}, seed=2), aug)[1]
    Z = aug.Z.copy()
    Z[0, split.train_indices[::5]] = np.nan
    return config, AugmentedSnapshots(Z, aug.Zplus, 2, 1)


# name -> builder of (config, data)
TRAINING_RUNS = {
    "residual_mlp_motor_scales": _motor_case,
    "polynomial": _polynomial_case,
    "example_poly_basis": _frozen_case,
    "held_out_nan": _held_out_nan_case,
    "aborted": _aborted_case,
}
CURVES = ("train_curve", "val_curve", "lr_schedule")


def _train_outputs(name):
    """The report of one training run and the sha256 of its final parameters.

    A frozen basis has no parameter vector, so its digest is None.  The
    aborted run leaves out its curves.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        config, aug = TRAINING_RUNS[name]()
        nd, report = train(config, aug)
    get = getattr(nd, "get_params", None)
    out = {key: getattr(report, key) for key in (
        *CURVES, "final_proximity_train", "final_proximity_test", "best_epoch",
        "nan_batches", "aborted")}
    out["params_sha256"] = None if get is None else hashlib.sha256(get().tobytes()).hexdigest()
    if report.aborted:
        for key in CURVES:
            del out[key]
    return out


def _snapshots():
    plan = kl.ExperimentPlan(num_experiments=30, steps_per_experiment=5, rng_seed=3,
                             input_mode="piecewise")
    return kl.run_experiments(kl.example_poly(), plan)


def _build_model(name, ss):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RankWarning)
        return MODELS[name](ss)


@pytest.fixture(scope="module")
def snapshots():
    return _snapshots()


@pytest.mark.parametrize("name", sorted(DICTIONARIES))
def test_dictionary_file_round_trips(name, tmp_path):
    path = FIXTURES / f"{name}.json"
    nd = kl.load_dictionary(path)
    assert kl.save_dictionary(nd, tmp_path / "again.json").read_bytes() == path.read_bytes()
    rng = np.random.default_rng(21)
    Z = np.vstack([rng.uniform(-2, 2, size=(2, 40)), rng.uniform(-1, 1, size=(1, 40))])
    np.testing.assert_allclose(nd.eval_aug(Z), _dictionary(name).eval_aug(Z),
                               rtol=0, atol=DICTIONARIES[name][1])


@pytest.mark.parametrize("name", sorted(MODELS))
def test_model_file_round_trips(name, snapshots, tmp_path):
    path = FIXTURES / f"{name}.json"
    model = load_model(path)
    assert save_model(model, tmp_path / "again.json").read_bytes() == path.read_bytes()
    fresh = _build_model(name, snapshots)
    rng = np.random.default_rng(22)
    U = rng.uniform(-1, 1, size=(1, 6))
    if name == "model_switched":  # a switched model has matrices only at its fitted inputs
        U = rng.choice(SWITCHED_INPUTS, size=(1, 6))
    X = rng.uniform(-2, 2, size=(2, 4))
    (A, b), (A0, b0) = model.transitions(U), fresh.transitions(U)
    np.testing.assert_allclose(A, A0, atol=1e-14)
    assert (b is None) == (b0 is None)
    if b is not None:
        np.testing.assert_allclose(b, b0, atol=1e-14)
    Z, Z0 = model.lift(X), fresh.lift(X)
    np.testing.assert_allclose(Z, Z0, atol=1e-14)
    np.testing.assert_allclose(states_from_lifted(model, Z), states_from_lifted(fresh, Z0),
                               atol=1e-14)
    assert (model.decoder is None) == (fresh.decoder is None)


@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_network_outputs_are_pinned(name):
    pinned = json.loads((FIXTURES / "network_outputs.json").read_text())[name]
    outputs = _network_outputs(name)
    for key in ("eval_aug", "gradient"):
        np.testing.assert_array_equal(np.array(outputs[key]), np.array(pinned[key]), err_msg=key)
    assert outputs["loss"] == pinned["loss"]


@pytest.mark.parametrize("name", list(TRAINING_RUNS))
def test_train_outputs_are_pinned(name):
    pinned = json.loads((FIXTURES / "train_outputs.json").read_text())[name]
    outputs = _train_outputs(name)
    assert sorted(outputs) == sorted(pinned)
    for key, value in pinned.items():
        np.testing.assert_array_equal(np.asarray(outputs[key]), np.asarray(value), err_msg=key)

if __name__ == "__main__":
    FIXTURES.mkdir(exist_ok=True)
    for name in DICTIONARIES:
        kl.save_dictionary(_dictionary(name), FIXTURES / f"{name}.json")
    ss = _snapshots()
    for name in MODELS:
        save_model(_build_model(name, ss), FIXTURES / f"{name}.json")
    outputs = {name: _network_outputs(name) for name in NETWORKS}
    (FIXTURES / "network_outputs.json").write_text(json.dumps(outputs, indent=1) + "\n")
    outputs = {name: _train_outputs(name) for name in TRAINING_RUNS}
    (FIXTURES / "train_outputs.json").write_text(json.dumps(outputs, indent=1) + "\n")
