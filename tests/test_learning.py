"""Tests for the training loss, its gradient, the optimizer, and the pipeline."""

import dataclasses
import json
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

import kooplift as kl
from kooplift.dynamics import AugmentedSnapshots
from kooplift.edmd import CHUNK
from kooplift.errors import ConfigError, DegenerateData, NonFiniteGradient, NonFiniteLoss
from kooplift.learning import (PipelineResult, TrainConfig, config_from_json,
                               config_to_json, loss, loss_gradient, pipeline,
                               report_to_csv, report_to_json, train, _trace_loss)
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
        val = loss(poly_basis, poly_augmented, ridge_scale=1e-13)
        assert 0.0 <= val <= 1e-8
        # and the exact index, which the held-out curve now records
        assert kl.invariance_proximity(poly_basis, poly_augmented).index <= 1e-8

    def test_trace_sandwiches_the_index(self, poly_augmented):
        nd = kl.example_poly_normal_basis(truncate=("u^2",))
        tr = loss(nd, poly_augmented, ridge_scale=1e-12)
        index = kl.invariance_proximity(nd, poly_augmented).index
        s = 7
        assert index <= tr + 1e-12
        assert tr <= s * index + 1e-12

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
        base = loss(nd, poly_augmented, ridge_scale=1e-16)
        for _ in range(3):
            while True:
                M = rng.normal(size=(7, 7))
                if np.linalg.cond(M) <= 1e2:
                    break
            other = loss(Recombined(nd, M), poly_augmented, ridge_scale=1e-16)
            assert abs(other - base) <= 1e-9


class TestLossGradient:
    def test_matches_finite_differences(self, poly_augmented):
        nd = parametric_family("polynomial", state_dim=2, input_dim=1,
                               s=7, l=4, total_degree=2, seed=5)
        theta0 = nd.get_params()
        _, grad = loss_gradient(nd, poly_augmented)
        assert grad.shape == (nd.n_params,)
        rng = np.random.default_rng(6)
        step = 1e-5
        for i in rng.choice(nd.n_params, size=10, replace=False):
            plus = theta0.copy()
            plus[i] += step
            minus = theta0.copy()
            minus[i] -= step
            nd.set_params(plus)
            loss_plus = loss(nd, poly_augmented)
            nd.set_params(minus)
            fd = (loss_plus - loss(nd, poly_augmented)) / (2 * step)
            # abs floor covers entries below the central-difference noise
            assert fd == pytest.approx(grad[i], rel=1e-3, abs=1e-7)

    def test_vanishes_at_exact_solution(self, zero_sine_augmented):
        nd = parametric_family("polynomial", state_dim=2, input_dim=1,
                               s=7, l=4, total_degree=2, seed=0)
        nd.set_params(_exact_params())
        val, grad = loss_gradient(nd, zero_sine_augmented, ridge_scale=1e-13)
        assert val <= 1e-8
        assert np.linalg.norm(grad) <= 1e-6


def _reference_step(nd, batch, ridge_scale=1e-10):
    """The training step written out pass by pass: ``eval_aug`` on ``Z`` and
    on ``Z+``, the trace-loss kernel, and ``vjp_aug`` once per block.

    Returns ``(value, gradient, scale)``, where ``scale`` is the sum of the
    norms of the two ``vjp_aug`` terms, the size any reordering of their
    sum is measured against.
    """
    P = nd.eval_aug(batch.Z)
    Q = nd.eval_aug(batch.Zplus)
    value, dP, dQ = _trace_loss(nd, P, Q, ridge_scale, grad=True)
    gP = nd.vjp_aug(batch.Z, dP)
    gQ = nd.vjp_aug(batch.Zplus, dQ)
    grad = gP + gQ
    if not np.all(np.isfinite(grad)):
        raise NonFiniteGradient("gradient is not finite")
    return value, grad, np.linalg.norm(gP) + np.linalg.norm(gQ)


def _normal_equations(P, Q, ridge_scale, exact=False):
    """The trace loss and its gradients from the ridge Gram matrices.

    With ``Gp = P P' + eps_p I``, ``Gq = Q Q' + eps_q I`` and ``C = P Q'``,
    the value is ``s - Tr(Gp^-1 C Gq^-1 C')`` and the gradients are

        dL/dP = 2 Gp^-1 C Gq^-1 (C' Gp^-1 P - Q) + (2 r / s) Tr(Gp^-2 C Gq^-1 C') P

    and its mirror image, solved directly.  In floats this is accurate to
    about ``cond(Gp) * eps``, so it is a reference only on well-conditioned
    data.  With ``exact`` the arithmetic is rational (``Fraction``) on the
    exact values of P, Q, ``r`` and of the float ridges ``eps_p``, ``eps_q``
    the code computes: the same ridge loss without rounding.  The value is
    then a ``Fraction`` and the gradients are rounded to float.
    """
    s = P.shape[0]
    eps_p = ridge_scale * float(np.sum(P * P)) / s
    eps_q = ridge_scale * float(np.sum(Q * Q)) / s
    solve, eye = np.linalg.solve, np.eye(s)
    if exact:
        P, Q = (np.vectorize(Fraction, otypes=[object])(A) for A in (P, Q))
        eps_p, eps_q, ridge_scale = Fraction(eps_p), Fraction(eps_q), Fraction(ridge_scale)
        solve, eye = _exact_solve, np.eye(s, dtype=int).astype(object)
    Gp = P @ P.T + eps_p * eye
    Gq = Q @ Q.T + eps_q * eye
    Cpq = P @ Q.T
    T1 = solve(Gp, Cpq)
    T2 = solve(Gq, Cpq.T)
    value = s - np.sum(T1 * T2.T)
    Xp = solve(Gp, P)
    Yq = solve(Gq, Q)
    dP = 2 * (T1 @ (T2 @ Xp - Yq)) + (2 * ridge_scale / s) * np.trace(solve(Gp, T1 @ T2)) * P
    dQ = 2 * (T2 @ (T1 @ Yq - Xp)) + (2 * ridge_scale / s) * np.trace(solve(Gq, T2 @ T1)) * Q
    return value, dP.astype(float), dQ.astype(float)


def _exact_solve(G, B):
    """``G^-1 B`` for object arrays of ``Fraction``, by Gauss-Jordan elimination."""
    n = G.shape[0]
    W = np.hstack([G, B])
    for k in range(n):
        pivot = next(i for i in range(k, n) if W[i, k] != 0)
        W[[k, pivot]] = W[[pivot, k]]
        W[k] = W[k] / W[k, k]
        for i in range(n):
            if i != k:
                W[i] = W[i] - W[i, k] * W[k]
    return W[:, n:]


class _Given:
    """A dictionary stand-in whose values on ``Z`` (zeros) and ``Z+`` (ones) are given."""

    def __init__(self, P, Q):
        self.P, self.Q = P, Q

    def eval_aug(self, Z):
        return self.P if Z[0, 0] == 0 else self.Q


def _given_batch(N):
    return AugmentedSnapshots(Z=np.zeros((3, N)), Zplus=np.ones((3, N)), state_dim=2,
                              input_dim=1)


class TestTraceLossKernel:
    """The QR kernel against the normal equations it replaces."""

    def test_matches_exact_arithmetic_when_ill_conditioned(self):
        # Two nearly collinear rows put cond(P P') and cond(Q Q') near 3.4e10.
        # There the normal equations miss the value by 5.9e-9 relative and
        # M formed by triangular solves on P Q' by 1.5e-10; the kernel, which
        # loses about sqrt(cond) * eps, by 3.9e-13.
        rng = np.random.default_rng(0)
        P = rng.normal(size=(6, 40))
        P[1] = P[0] + 1e-5 * rng.normal(size=40)
        Q = np.roll(P, 1, axis=1) + 1e-6 * rng.normal(size=(6, 40))
        assert min(np.linalg.cond(P @ P.T), np.linalg.cond(Q @ Q.T)) > 1e10
        exact, dP_exact, dQ_exact = _normal_equations(P, Q, 1e-10, exact=True)
        value = loss(_Given(P, Q), _given_batch(40), ridge_scale=1e-10)
        assert float(abs(Fraction(value) - exact) / exact) <= 1e-11

        value, dP, dQ = _trace_loss(None, P, Q, 1e-10, grad=True)
        assert float(abs(Fraction(value) - exact) / exact) <= 1e-11
        # The gradients go through R^-1: allow 16 * cond(R) * eps relative,
        # cond(R) = sqrt(cond(Gram)), about 2e5 here.
        kappa = max(np.linalg.cond(P @ P.T), np.linalg.cond(Q @ Q.T)) ** 0.5
        tol = 16 * kappa * np.finfo(float).eps
        assert np.linalg.norm(dP - dP_exact) <= tol * np.linalg.norm(dP_exact)
        assert np.linalg.norm(dQ - dQ_exact) <= tol * np.linalg.norm(dQ_exact)

    @pytest.mark.parametrize("ridge_scale", [1e-10, 1e-3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_normal_equations_when_well_conditioned(self, seed, ridge_scale):
        rng = np.random.default_rng(seed)
        P = rng.normal(size=(6, 40)) * np.logspace(0, 1.5, 6)[:, None]
        Q = np.roll(P, 1, axis=1) + 0.3 * rng.normal(size=(6, 40))
        assert np.linalg.cond(P @ P.T) <= 1e4 and np.linalg.cond(Q @ Q.T) <= 1e4
        ref_value, ref_dP, ref_dQ = _normal_equations(P, Q, ridge_scale)
        value, dP, dQ = _trace_loss(None, P, Q, ridge_scale, grad=True)
        assert value == pytest.approx(ref_value, rel=1e-12)
        assert np.linalg.norm(dP - ref_dP) <= 1e-12 * np.linalg.norm(ref_dP)
        assert np.linalg.norm(dQ - ref_dQ) <= 1e-12 * np.linalg.norm(ref_dQ)


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
        # The forward passes agree bit for bit, so the value does too, and
        # loss is the kernel's value half.  The backward pass sums the Z
        # and Z+ contributions over 2B columns in another order: allow 8x
        # the rounding bound of a 2B-term sum, with the norms of the two
        # vjp_aug terms standing in for the magnitudes.
        assert value == ref_value == loss(nd, batch)
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
            config_from_json({"family": fam, "loss_mode": "hinge"})
        with pytest.raises(ConfigError):
            TrainConfig(family=fam, split_fraction=1.0)
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            TrainConfig(family=fam, seed=-2)

    @pytest.mark.parametrize("mode", ["trace", "max_eig"])
    def test_legacy_loss_mode_still_loads(self, mode):
        obj = {"family": {"kind": "polynomial", "total_degree": 2}, "s": 7, "l": 4,
               "loss_mode": mode}
        cfg = config_from_json(obj)
        assert cfg == TrainConfig(family=obj["family"], s=7, l=4)
        assert "loss_mode" in obj and "loss_mode" not in config_to_json(cfg)

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

    @pytest.mark.parametrize("edit, key", [
        ({"epochs": "3"}, "'epochs' must be an integer"),
        ({"s": "6"}, "'s' must be an integer"),
        ({"lr_start": "x"}, "'lr_start' must be a number"),
        ({"batch_size": 2.5}, "'batch_size' must be an integer"),
        ({"epochs": None}, "'epochs' must be an integer"),
        ({"seed": True}, "'seed' must be an integer"),
        ({"u_scale": "x"}, "'u_scale' must be a numeric array"),
        ({"family": {"kind": ["mlp"]}}, "'family.kind' must be a string"),
        ({"family": {"kind": "mlp", "widths": [4, 2.5]}}, "'family.widths[1]' must be an integer"),
        ({"family": {"kind": "mlp", "widths": [4], "activation": 1}},
         "'family.activation' must be a string"),
        ({"family": {"kind": "polynomial", "total_degree": 2, "fixed_head": "x"}},
         "'family.fixed_head' must be a list of integers"),
        ({"family": {"kind": "example_poly_basis", "truncate": 5}},
         "'family.truncate' must be a list of strings"),
        ({"ridge_scale": -1.0}, "'ridge_scale' must be finite and >= 0.0"),
        ({"ridge_scale": float("nan")}, "'ridge_scale' must be finite and >= 0.0"),
        ({"ridge_scale": 1e400}, "'ridge_scale' must be finite and >= 0.0"),
        ({"lr_start": float("inf")}, "need 0 < lr_end <= lr_start < inf"),
        ({"s": 3}, "need s >= l >= 1, got s=3, l=4"),
        ({"s": 3, "l": 0}, "need s >= l >= 1, got s=3, l=0"),
    ])
    def test_value_of_the_wrong_type_names_its_key(self, edit, key):
        obj = {"family": {"kind": "polynomial", "total_degree": 2}, "s": 7, "l": 4, **edit}
        with pytest.raises(ConfigError, match=re.escape(key)):
            config_from_json(obj)

    def test_null_loads_where_the_default_is_null(self):
        fam = {"kind": "polynomial", "total_degree": 2, "fixed_head": None}
        cfg = config_from_json({"family": fam, "s": None, "l": None, "x_scale": None})
        assert cfg == TrainConfig(family=fam)

    def test_scale_of_the_wrong_length_names_its_key(self, zero_sine_augmented):
        config = TrainConfig(family={"kind": "polynomial", "total_degree": 2}, s=7, l=4,
                             epochs=1, batch_size=50, x_scale=[1.0])
        with pytest.raises(ConfigError, match="'x_scale' must be a numeric array of shape 2"):
            train(config, zero_sine_augmented)


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

    def test_aborted_epoch_has_an_entry_in_every_curve(self, zero_sine_augmented,
                                                       monkeypatch):
        # Ten batches an epoch; every step after the twelfth is non-finite,
        # so the second epoch aborts after two finite batches.
        values, held_out = [], []
        held_out_proximity = kl.learning._held_out_proximity

        def failing(nd, batch, ridge_scale):
            if len(values) == 12:
                raise NonFiniteLoss("forced")
            value, grad = loss_gradient(nd, batch, ridge_scale=ridge_scale)
            values.append(value)
            return value, grad

        def counting(nd, batch):
            held_out.append(batch.n_snapshots)
            return held_out_proximity(nd, batch)

        monkeypatch.setattr(kl.learning, "loss_gradient", failing)
        monkeypatch.setattr(kl.learning, "_held_out_proximity", counting)
        config = TrainConfig(family={"kind": "polynomial", "total_degree": 2},
                             s=7, l=4, epochs=3, batch_size=25, seed=1)
        _, report = train(config, zero_sine_augmented)
        assert report.aborted and report.nan_batches == 4
        assert len(report.lr_schedule) == len(report.train_curve) == len(report.val_curve) == 2
        assert report.train_curve[1] == float(np.mean(values[10:]))
        assert np.isnan(report.val_curve[1]) and len(held_out) == 1

    def test_aborted_run_writes_its_last_epoch(self, tmp_path):
        # The data of test_persistent_non_finite_aborts: no batch is finite.
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
        assert report.aborted and report.lr_schedule == [config.lr_start]
        assert len(report.train_curve) == len(report.val_curve) == 1
        assert np.isnan(report.train_curve).all() and np.isnan(report.val_curve).all()
        lines = report_to_csv(report, tmp_path / "curve.csv").read_text().strip().split("\n")
        assert lines[1:] == [f"0,{config.lr_start!r},nan,nan"]

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


class TestEpochMetrics:
    """The per-epoch curves: minibatch-loss means and the exact held-out index."""

    # Unit scales, and the motor's scales of criterion 7.
    @pytest.mark.parametrize("family, scales", [
        (family, scales)
        for scales in [(None, None), ([1 / 5, 1 / 80], [1 / 2])]
        for family in [{"kind": "polynomial", "total_degree": 2},
                       {"kind": "residual_mlp", "blocks": 1, "width": 8}]
    ], ids=["family0", "family1", "family0-motor_scales", "family1-motor_scales"])
    def test_best_val_is_the_final_test_proximity(self, zero_sine_augmented, family, scales):
        config = TrainConfig(family=family, s=7, l=4, epochs=4, batch_size=50,
                             lr_start=1e-2, lr_end=1e-3, seed=5,
                             x_scale=scales[0], u_scale=scales[1])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, report = train(config, zero_sine_augmented)
        assert report.val_curve[report.best_epoch] == report.final_proximity_test

    def test_frozen_final_test_is_the_held_out_proximity(self, zero_sine_augmented):
        config = TrainConfig(family={"kind": "example_poly_basis"}, seed=5)
        nd, report = train(config, zero_sine_augmented)
        val = AugmentedSnapshots(Z=zero_sine_augmented.Z[:, report.val_indices],
                                 Zplus=zero_sine_augmented.Zplus[:, report.val_indices],
                                 state_dim=2, input_dim=1)
        assert report.final_proximity_test == kl.invariance_proximity(nd, val).sqrt_index

    def test_train_curve_is_the_mean_of_the_epoch_losses(self, zero_sine_augmented,
                                                         monkeypatch):
        values = []

        def recording(nd, batch, ridge_scale):
            value, grad = loss_gradient(nd, batch, ridge_scale=ridge_scale)
            values.append(value)
            return value, grad

        monkeypatch.setattr(kl.learning, "loss_gradient", recording)
        config = TrainConfig(family={"kind": "polynomial", "total_degree": 2},
                             s=7, l=4, epochs=3, batch_size=60, seed=1)
        _, report = train(config, zero_sine_augmented)
        per_epoch = -(-(zero_sine_augmented.n_snapshots // 2) // 60)
        assert len(values) == 3 * per_epoch
        for e in range(3):
            assert report.train_curve[e] == float(
                np.mean(values[e * per_epoch:(e + 1) * per_epoch]))

    def test_failed_held_out_evaluation_counts_and_skips(self, zero_sine_augmented):
        config = TrainConfig(family={"kind": "polynomial", "total_degree": 2},
                             s=7, l=4, epochs=3, batch_size=50, seed=4)
        _, clean = train(config, zero_sine_augmented)
        Z = zero_sine_augmented.Z.copy()
        Z[0, clean.val_indices[3]] = np.nan
        aug = AugmentedSnapshots(Z=Z, Zplus=zero_sine_augmented.Zplus, state_dim=2,
                                 input_dim=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, report = train(config, aug)
        assert report.train_curve == clean.train_curve
        assert all(np.isnan(report.val_curve)) and len(report.val_curve) == 3
        assert report.nan_batches == 3 and not report.aborted
        assert report.best_epoch == 0

    def test_no_rank_warning_per_epoch(self, zero_sine_augmented):
        # With every input at zero, the input block of the dictionary
        # vanishes and both data matrices lose rank.
        Z, Zplus = zero_sine_augmented.Z.copy(), zero_sine_augmented.Zplus.copy()
        Z[2] = Zplus[2] = 0.0
        aug = AugmentedSnapshots(Z=Z, Zplus=Zplus, state_dim=2, input_dim=1)
        config = TrainConfig(family={"kind": "polynomial", "total_degree": 2},
                             s=7, l=4, epochs=5, batch_size=100, seed=2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _, report = train(config, aug)
        assert len(report.val_curve) == 5
        rank = [w for w in caught if issubclass(w.category, kl.errors.RankWarning)]
        # the two final reports, training and held-out half
        assert len(rank) == 2


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

    @pytest.mark.parametrize("family", [{"kind": "example_poly_basis"},
                                        {"kind": "polynomial", "total_degree": 2}])
    def test_certificate_is_the_one_train_computed(self, poly_system, family):
        plan = kl.ExperimentPlan(num_experiments=60, steps_per_experiment=5,
                                 rng_seed=37)
        ss = kl.run_experiments(poly_system, plan)
        config = TrainConfig(family=family, s=7, l=4, epochs=2, batch_size=50, seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = pipeline(config, ss)
        rep = res.train_report
        assert res.consistency is rep.train_consistency
        assert res.consistency.sqrt_index == rep.final_proximity_train
        assert "train_consistency" not in report_to_json(rep)
        assert "train_consistency" not in repr(rep)

    @pytest.mark.parametrize("family", [{"kind": "example_poly_basis"},
                                        {"kind": "polynomial", "total_degree": 2}])
    def test_each_half_is_streamed_once_per_pass(self, poly_system, family, monkeypatch):
        # Halves of 1250 snapshots: two chunks each.
        plan = kl.ExperimentPlan(num_experiments=250, steps_per_experiment=10, rng_seed=41)
        ss = kl.run_experiments(poly_system, plan)
        config = TrainConfig(family=family, s=7, l=4, epochs=2, batch_size=250, seed=3)
        columns, heights = [], []
        eval_pair = kl.NormalDictionary.eval_pair

        def counting(nd, aug):
            columns.append(aug.n_snapshots)
            return eval_pair(nd, aug)

        monkeypatch.setattr(kl.NormalDictionary, "eval_pair", counting)
        for name in ("svd", "qr", "pinv", "lstsq", "solve", "eig", "eigh", "eigvals"):
            fn = getattr(np.linalg, name)

            def recording(a, *args, _fn=fn, **kwargs):
                heights.append(np.shape(a)[0])
                return _fn(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recording)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = pipeline(config, ss)
        rep = res.train_report
        passes = len(rep.val_curve) or 1  # a frozen family: the final report only
        assert sum(columns) == len(rep.train_indices) + passes * len(rep.val_indices)
        assert max(columns) <= CHUNK < len(rep.train_indices)
        assert max(heights) <= CHUNK

    def test_aborted_run_raises_what_the_fit_raises(self):
        # Every training column is non-finite: train aborts and cannot
        # certify, and the pipeline's own fit then names the bad data.
        rng = np.random.default_rng(3)
        X = rng.normal(size=(2, 50))
        X[0] = np.inf
        ss = kl.SnapshotSet(X=X, Xplus=rng.normal(size=(2, 50)), U=rng.normal(size=(1, 50)))
        config = TrainConfig(family={"kind": "polynomial", "total_degree": 2},
                             s=7, l=4, epochs=1, batch_size=5, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, report = train(config, kl.to_augmented(ss))
            assert report.aborted and report.train_consistency is None
            with pytest.raises(DegenerateData, match=r"Psi\(X\) is not finite at snapshot 0"):
                pipeline(config, ss)

    def test_system_without_plan_rejected(self, poly_system):
        config = TrainConfig(family={"kind": "example_poly_basis"})
        with pytest.raises(ConfigError):
            pipeline(config, poly_system)
