"""Tests for the training loss, its gradient, the optimizer, and the pipeline."""

import dataclasses
import json
import warnings

import numpy as np
import pytest

import kooplift as kl
from kooplift.dynamics import AugmentedSnapshots
from kooplift.errors import ConfigError, NonFiniteGradient, NonFiniteLoss
from kooplift.learning import (PipelineResult, TrainConfig, config_from_json,
                               config_to_json, loss, loss_gradient, pipeline,
                               report_to_csv, report_to_json, train)
from kooplift.observables import monomial_featurizer, parametric_family


def _exact_params():
    """Family parameters reproducing the invariant basis of the zero-sine system.

    Head rows pick the x1^2 and constant monomials; the input block pairs
    u with the x1 column and u, u^2 with the constant column, which spans
    every advanced dictionary function when the sine channel is off.
    """
    Wh = np.zeros((2, 6))
    Wh[0, 3] = 1.0
    Wh[1, 0] = 1.0
    Wg = np.zeros((12, 3))
    Wg[0, 1] = 1.0
    Wg[7, 1] = 1.0
    Wg[11, 2] = 1.0
    return np.concatenate([Wh.ravel(), Wg.ravel()])


@pytest.fixture(scope="module")
def zero_sine_augmented():
    sys0 = kl.example_poly(g=0.0)
    plan = kl.ExperimentPlan(num_experiments=100, steps_per_experiment=5,
                             rng_seed=17)
    return kl.to_augmented(kl.run_experiments(sys0, plan))


@pytest.fixture(scope="module")
def wide_excitation_augmented():
    # Single-step experiments over a wide state box: the quadratic term is
    # weak near the origin, so narrow data leaves near-invariant spans
    # that omit it; wide excitation makes its defect order one.
    wide = dataclasses.replace(
        kl.example_poly(g=0.0),
        state_box=np.array([[-5.0, -5.0], [5.0, 5.0]]),
        input_box=np.array([[-2.0], [2.0]]),
    )
    plan = kl.ExperimentPlan(num_experiments=1500, steps_per_experiment=1,
                             rng_seed=21)
    return kl.to_augmented(kl.run_experiments(wide, plan))


class TestLoss:
    def test_invariant_basis_near_zero_both_modes(self, poly_basis,
                                                  poly_augmented):
        # the spec-level ridge leaves a measurable floor; a tiny ridge
        # exposes the true near-zero loss of the invariant basis
        for mode in ("trace", "max_eig"):
            val = loss(poly_basis, poly_augmented, mode=mode,
                       ridge_scale=1e-13)
            assert 0.0 <= val <= 1e-8

    def test_trace_dominates_max_eig(self, poly_augmented):
        nd = kl.example_poly_normal_basis(truncate=("u^2",))
        tr = loss(nd, poly_augmented, mode="trace", ridge_scale=1e-12)
        me = loss(nd, poly_augmented, mode="max_eig", ridge_scale=1e-12)
        s = 7
        assert me <= tr + 1e-12
        assert tr <= s * me + 1e-12

    def test_recombination_invariance(self, poly_augmented):
        nd = kl.example_poly_normal_basis(truncate=("u^2",))
        rng = np.random.default_rng(0)

        class Recombined:
            def __init__(self, base, M):
                self.base, self.M = base, M

            def eval_aug(self, Z):
                return self.M @ self.base.eval_aug(Z)

        # the ridge magnitude follows the recombined data scale, so drift
        # is linear in ridge_scale; a near-zero ridge exposes the exact
        # basis invariance
        for mode in ("trace", "max_eig"):
            base = loss(nd, poly_augmented, mode=mode, ridge_scale=1e-16)
            for _ in range(3):
                while True:
                    M = rng.normal(size=(7, 7))
                    if np.linalg.cond(M) <= 1e2:
                        break
                other = loss(Recombined(nd, M), poly_augmented, mode=mode,
                             ridge_scale=1e-16)
                assert abs(other - base) <= 1e-9

    def test_unknown_mode_rejected(self, poly_basis, poly_augmented):
        with pytest.raises(ConfigError):
            loss(poly_basis, poly_augmented, mode="frobenius")


class TestLossGradient:
    def test_matches_finite_differences(self, poly_augmented):
        nd = parametric_family("polynomial", state_dim=2, input_dim=1,
                               s=7, l=4, total_degree=2, seed=5)
        theta0 = nd.get_params()
        _, grad = loss_gradient(nd, poly_augmented, params=theta0.copy())
        assert grad.shape == (nd.n_params,)
        rng = np.random.default_rng(6)
        step = 1e-5
        for i in rng.choice(nd.n_params, size=10, replace=False):
            plus = theta0.copy()
            plus[i] += step
            minus = theta0.copy()
            minus[i] -= step
            fd = (loss(nd, poly_augmented, params=plus)
                  - loss(nd, poly_augmented, params=minus)) / (2 * step)
            # abs floor covers entries below the central-difference noise
            assert fd == pytest.approx(grad[i], rel=1e-3, abs=1e-7)

    def test_vanishes_at_exact_solution(self, zero_sine_augmented):
        nd = parametric_family("polynomial", state_dim=2, input_dim=1,
                               s=7, l=4, total_degree=2, seed=0)
        val, grad = loss_gradient(nd, zero_sine_augmented,
                                  ridge_scale=1e-13, params=_exact_params())
        assert val <= 1e-8
        assert np.linalg.norm(grad) <= 1e-6


def _reference_step(nd, batch, ridge_scale=1e-10):
    """The training step written out pass by pass: ``eval_aug`` on ``Z`` and
    on ``Z+``, the Gram terms, and ``vjp_aug`` once per block.

    Returns ``(value, gradient, scale)``, where ``scale`` is the sum of the
    norms of the two ``vjp_aug`` terms, the size any reordering of their
    sum is measured against.
    """
    P = nd.eval_aug(batch.Z)
    Q = nd.eval_aug(batch.Zplus)
    if not (np.all(np.isfinite(P)) and np.all(np.isfinite(Q))):
        raise NonFiniteLoss("dictionary evaluation is not finite")
    s = P.shape[0]
    eps_p = ridge_scale * float(np.sum(P * P)) / s
    eps_q = ridge_scale * float(np.sum(Q * Q)) / s
    Gp = P @ P.T + eps_p * np.eye(s)
    Gq = Q @ Q.T + eps_q * np.eye(s)
    Cpq = P @ Q.T
    T1 = np.linalg.solve(Gp, Cpq)
    T2 = np.linalg.solve(Gq, Cpq.T)
    value = s - float(np.sum(T1 * T2.T))
    Xp = np.linalg.solve(Gp, P)
    Yq = np.linalg.solve(Gq, Q)
    dP = 2.0 * (T1 @ (T2 @ Xp - Yq))
    dQ = 2.0 * (T2 @ (T1 @ Yq - Xp))
    dP = dP + (2.0 * ridge_scale / s) * float(np.trace(np.linalg.solve(Gp, T1 @ T2))) * P
    dQ = dQ + (2.0 * ridge_scale / s) * float(np.trace(np.linalg.solve(Gq, T2 @ T1))) * Q
    gP = nd.vjp_aug(batch.Z, dP)
    gQ = nd.vjp_aug(batch.Zplus, dQ)
    grad = gP + gQ
    if not np.isfinite(value):
        raise NonFiniteLoss("loss is not finite")
    if not np.all(np.isfinite(grad)):
        raise NonFiniteGradient("gradient is not finite")
    return value, grad, np.linalg.norm(gP) + np.linalg.norm(gQ)


_FAMILIES = {
    "polynomial": {"total_degree": 2},
    "mlp": {"widths": [8, 6]},
    "residual_mlp": {"blocks": 2, "width": 8},
}


@pytest.fixture(scope="module")
def motor_augmented():
    plan = kl.ExperimentPlan(num_experiments=30, steps_per_experiment=5, rng_seed=4)
    return kl.to_augmented(kl.run_experiments(kl.dc_motor_tanh(), plan))


class TestFusedStep:
    """``loss_gradient`` (one forward, one backward) against the pass-by-pass step."""

    @pytest.mark.parametrize("inputs", ["held", "differ"])
    @pytest.mark.parametrize("s", [4, 9])
    @pytest.mark.parametrize("fixed_head", ["state", None])
    @pytest.mark.parametrize("kind", sorted(_FAMILIES))
    def test_matches_pass_by_pass_step(self, motor_augmented, kind, fixed_head, s, inputs):
        batch = motor_augmented
        if inputs == "differ":
            rng = np.random.default_rng(8)
            Zplus = batch.Zplus.copy()
            Zplus[batch.state_dim:] += rng.uniform(-0.5, 0.5, size=Zplus[batch.state_dim:].shape)
            batch = AugmentedSnapshots(Z=batch.Z, Zplus=Zplus, state_dim=batch.state_dim,
                                       input_dim=batch.input_dim)
        nd = parametric_family(kind, state_dim=2, input_dim=1, s=s, l=4,
                               fixed_head=fixed_head, seed=9, **_FAMILIES[kind])
        ref_value, ref_grad, scale = _reference_step(nd, batch)
        value, grad = loss_gradient(nd, batch)
        # The forward passes agree bit for bit, so the value does too.  The
        # backward pass sums the Z and Z+ contributions over 2B columns in
        # another order: allow 8x the rounding bound of a 2B-term sum, with
        # the norms of the two vjp_aug terms standing in for the magnitudes.
        assert value == ref_value
        assert grad.shape == ref_grad.shape == (nd.n_params,)
        tol = 8 * (2 * batch.n_snapshots) * np.finfo(float).eps * scale
        assert np.linalg.norm(grad - ref_grad) <= tol

    def test_non_finite_dictionary_raises_loss_error(self, motor_augmented):
        Z = motor_augmented.Z.copy()
        Z[0, 3] = np.inf
        batch = AugmentedSnapshots(Z=Z, Zplus=motor_augmented.Zplus, state_dim=2, input_dim=1)
        nd = parametric_family("mlp", state_dim=2, input_dim=1, s=9, l=4, widths=[8], seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(NonFiniteLoss):
                _reference_step(nd, batch)
            with pytest.raises(NonFiniteLoss):
                loss_gradient(nd, batch)

    def test_overflowing_backward_raises_gradient_error(self):
        # States near 4e153 put x^2 features near 1e307; subnormal weights
        # keep Phi finite, so the loss is finite and the backward pass,
        # which multiplies by the features again, overflows.
        rng = np.random.default_rng(0)
        X, Xplus = rng.uniform(1, 3, size=(2, 2, 400)) * 4e153
        U = rng.uniform(-1, 1, size=(1, 400))
        batch = AugmentedSnapshots(Z=np.vstack([X, U]), Zplus=np.vstack([Xplus, U]),
                                   state_dim=2, input_dim=1)
        nd = parametric_family("polynomial", state_dim=2, input_dim=1, s=2, l=2,
                               fixed_head=None, total_degree=2, seed=0)
        nd.set_params(nd.get_params() * 1e-310)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(NonFiniteGradient):
                _reference_step(nd, batch)
            with pytest.raises(NonFiniteGradient):
                loss_gradient(nd, batch)

    def test_train_counts_the_same_bad_batches(self, zero_sine_augmented, monkeypatch):
        Z = zero_sine_augmented.Z.copy()
        Z[0, ::97] = np.nan
        aug = AugmentedSnapshots(Z=Z, Zplus=zero_sine_augmented.Zplus, state_dim=2,
                                 input_dim=1)
        config = TrainConfig(family={"kind": "polynomial", "total_degree": 2},
                             s=7, l=4, epochs=2, batch_size=25, seed=2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, fused = train(config, aug)
            monkeypatch.setattr(kl.learning, "loss_gradient",
                                lambda nd, batch, ridge_scale: _reference_step(
                                    nd, batch, ridge_scale)[:2])
            _, reference = train(config, aug)
        assert fused.nan_batches == reference.nan_batches > 2
        assert fused.aborted == reference.aborted
        assert fused.best_epoch == reference.best_epoch


class TestTrainConfig:
    def test_validation_errors(self):
        fam = {"kind": "polynomial", "total_degree": 2}
        with pytest.raises(ConfigError):
            TrainConfig(family=fam, epochs=0)
        with pytest.raises(ConfigError):
            TrainConfig(family=fam, batch_size=0)
        with pytest.raises(ConfigError):
            TrainConfig(family=fam, lr_start=1e-4, lr_end=1e-3)
        with pytest.raises(ConfigError):
            TrainConfig(family=fam, lr_end=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(family=fam, loss_mode="hinge")
        with pytest.raises(ConfigError):
            TrainConfig(family=fam, split_fraction=1.0)

    def test_json_round_trip(self):
        cfg = TrainConfig(family={"kind": "polynomial", "total_degree": 2},
                          s=7, l=4, epochs=3, x_scale=[2.0, 0.5],
                          u_scale=[1.5])
        back = config_from_json(config_to_json(cfg))
        assert back == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            config_from_json({"family": {"kind": "polynomial"},
                              "learning_rate": 0.1})


class TestTrain:
    def test_reaches_invariance_on_wide_excitation(self,
                                                   wide_excitation_augmented):
        config = TrainConfig(
            family={"kind": "polynomial", "total_degree": 2, "seed": 1},
            s=7, l=4, epochs=200, batch_size=150,
            lr_start=5e-2, lr_end=1e-3, seed=3,
        )
        nd, report = train(config, wide_excitation_augmented)
        assert not report.aborted
        assert report.final_proximity_train <= 1e-3
        assert report.final_proximity_test <= 1e-3

    def test_scale_robustness_is_soft(self, wide_excitation_augmented):
        config = TrainConfig(
            family={"kind": "polynomial", "total_degree": 2, "seed": 1},
            s=7, l=4, epochs=200, batch_size=150,
            lr_start=5e-2, lr_end=1e-3, seed=3,
            x_scale=[0.2, 0.2], u_scale=[0.5],
        )
        _, report = train(config, wide_excitation_augmented)
        print(f"scaled-coordinates proximity (soft): "
              f"train {report.final_proximity_train:.3e} "
              f"test {report.final_proximity_test:.3e}")

    def test_deterministic(self, zero_sine_augmented):
        config = TrainConfig(
            family={"kind": "polynomial", "total_degree": 2, "seed": 2},
            s=7, l=4, epochs=2, batch_size=50, lr_start=1e-2, lr_end=1e-3,
            seed=9,
        )
        nd_a, rep_a = train(config, zero_sine_augmented)
        nd_b, rep_b = train(config, zero_sine_augmented)
        np.testing.assert_array_equal(nd_a.get_params(), nd_b.get_params())
        assert rep_a.train_curve == rep_b.train_curve
        assert rep_a.val_curve == rep_b.val_curve

    def test_curves_and_schedule_shapes(self, zero_sine_augmented):
        config = TrainConfig(
            family={"kind": "polynomial", "total_degree": 2},
            s=7, l=4, epochs=5, batch_size=100, lr_start=1e-2, lr_end=1e-4,
            seed=1,
        )
        _, report = train(config, zero_sine_augmented)
        assert len(report.train_curve) == 5
        assert len(report.val_curve) == 5
        np.testing.assert_allclose(report.lr_schedule,
                                   np.linspace(1e-2, 1e-4, 5), rtol=1e-12)
        assert all(0.0 <= v <= 1.0 for v in report.val_curve)
        assert 0.0 <= report.final_proximity_train <= 1.0
        assert 0.0 <= report.final_proximity_test <= 1.0

    def test_frozen_family_skips_optimization(self, poly_augmented):
        config = TrainConfig(family={"kind": "example_poly_basis"})
        nd, report = train(config, poly_augmented)
        assert report.train_curve == [] and report.val_curve == []
        assert report.best_epoch == 0 and not report.aborted
        assert report.final_proximity_train <= 1e-5

    def test_persistent_non_finite_aborts(self):
        rng = np.random.default_rng(3)
        Z = rng.normal(size=(3, 50))
        Zplus = rng.normal(size=(3, 50))
        Z[0, :] = np.inf
        aug = AugmentedSnapshots(Z=Z, Zplus=Zplus, state_dim=2, input_dim=1)
        config = TrainConfig(family={"kind": "polynomial", "total_degree": 2},
                             s=7, l=4, epochs=1, batch_size=5, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, report = train(config, aug)
        assert report.aborted
        assert report.nan_batches == 4
        assert np.isnan(report.final_proximity_train)
        # the report must still serialize to strict JSON
        payload = json.dumps(report_to_json(report))
        assert json.loads(payload)["final_proximity_train"] is None

    def test_batch_size_exceeding_data_rejected(self, zero_sine_augmented):
        config = TrainConfig(family={"kind": "polynomial", "total_degree": 2},
                             s=7, l=4, batch_size=10**6)
        with pytest.raises(ConfigError):
            train(config, zero_sine_augmented)

    def test_report_csv_columns(self, zero_sine_augmented, tmp_path):
        config = TrainConfig(family={"kind": "polynomial", "total_degree": 2},
                             s=7, l=4, epochs=2, batch_size=50,
                             lr_start=1e-2, lr_end=1e-3)
        _, report = train(config, zero_sine_augmented)
        path = report_to_csv(report, tmp_path / "curve.csv")
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "epoch,lr,train_loss,val_proximity"
        assert len(lines) == 3


class TestPipeline:
    def test_dataset_comparison_with_frozen_basis(self, poly_system):
        plan = kl.ExperimentPlan(num_experiments=150, steps_per_experiment=8,
                                 rng_seed=23)
        ss = kl.run_experiments(poly_system, plan)
        config = TrainConfig(family={"kind": "example_poly_basis"}, seed=4)
        res = pipeline(config, ss)
        assert isinstance(res, PipelineResult)
        assert res.evaluation is None and res.one_step is not None

        bound = res.consistency.sqrt_index
        assert res.one_step["separable"] <= bound + 1e-8
        # the sine and squared-input channels are outside both baselines
        assert res.one_step["separable"] < res.one_step["linear"]
        assert res.one_step["separable"] < res.one_step["bilinear"]

    def test_certificate_attained_on_training_half(self, poly_system):
        plan = kl.ExperimentPlan(num_experiments=100, steps_per_experiment=6,
                                 rng_seed=29)
        ss = kl.run_experiments(poly_system, plan)
        config = TrainConfig(family={"kind": "example_poly_basis"}, seed=4)
        res = pipeline(config, ss)
        aug = kl.to_augmented(ss)
        idx = res.train_report.train_indices
        P = res.dictionary.eval_aug(aug.Z[:, idx])
        Q = res.dictionary.eval_aug(aug.Zplus[:, idx])
        w = res.consistency.worst_coeffs
        K_F = Q @ np.linalg.pinv(P)
        achieved = (np.linalg.norm(w @ Q - (w @ K_F) @ P)
                    / np.linalg.norm(w @ Q))
        assert achieved == pytest.approx(res.consistency.sqrt_index, abs=1e-6)

    def test_rollout_evaluation_with_system(self, poly_system):
        plan = kl.ExperimentPlan(num_experiments=150, steps_per_experiment=8,
                                 rng_seed=31)
        config = TrainConfig(family={"kind": "example_poly_basis"}, seed=4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = pipeline(config, poly_system, plan, eval_steps=100)
        assert res.one_step is None and res.evaluation is not None
        rmse = res.evaluation["rmse"]
        assert max(rmse["separable"]["rmse"]) <= 1e-6
        assert rmse["linear"]["rmse"][1] > rmse["separable"]["rmse"][1]
        assert rmse["bilinear"]["rmse"][1] > rmse["separable"]["rmse"][1]

    def test_system_without_plan_rejected(self, poly_system):
        config = TrainConfig(family={"kind": "example_poly_basis"})
        with pytest.raises(ConfigError):
            pipeline(config, poly_system)
