"""Tests for separable model extraction, baselines, rollouts, and serialization."""

import warnings

import numpy as np
import pytest

import kooplift as kl
from kooplift.dynamics import ControlSystem, SnapshotSet, simulate
from kooplift.errors import (ConfigError, DegenerateData, DimensionMismatch,
                             NonFiniteState, RankDeficientAtInput, RankWarning,
                             UnknownInputValue)
from kooplift.models import (bilinear_as_separable, evaluate_rollouts,
                             extract_normal, extract_pseudoinverse,
                             fit_bilinear_baseline, fit_linear_baseline,
                             head_dictionary, load_model, model_from_json,
                             model_to_json, predict_observable, rollout,
                             save_model, states_from_lifted, with_decoder)
from kooplift.observables import StateDictionary, eval_matrix


def _hand_transition(params, u):
    """Exact 4x4 transition on [x1, x2, x1^2, 1] for the polynomial example."""
    p = params
    a, b, c, d = p["a"], p["b"], p["c"], p["d"]
    e, f, g, h = p["e"], p["f"], p["g"], p["h"]
    return np.array([
        [a, 0.0, 0.0, b * u],
        [e * u, c, d, f * u + g * np.sin(u) + h],
        [2 * a * b * u, 0.0, a * a, (b * u) ** 2],
        [0.0, 0.0, 0.0, 1.0],
    ])


def _identity_basis():
    return StateDictionary(
        dim=2,
        fn=lambda x: np.asarray(x, dtype=float),
        names=("x1", "x2"),
        domain_dim=2,
    )


@pytest.fixture(scope="module")
def poly_fit(poly_basis, poly_augmented):
    P = poly_basis.eval_aug(poly_augmented.Z)
    Q = poly_basis.eval_aug(poly_augmented.Zplus)
    return kl.fit_edmd(P, Q)


@pytest.fixture(scope="module")
def poly_model(poly_fit, poly_basis, poly_augmented):
    P = poly_basis.eval_aug(poly_augmented.Z)
    Q = poly_basis.eval_aug(poly_augmented.Zplus)
    rep = kl.consistency_index(P, Q)
    return extract_normal(poly_fit, poly_basis, source_index=rep)


class TestExtractNormal:
    def test_transition_matches_hand_formula(self, poly_model, poly_system):
        for u in (-1.0, -0.3, 0.0, 0.5, 1.0):
            want = _hand_transition(poly_system.params, u)
            np.testing.assert_allclose(poly_model.A_of([u]), want, atol=1e-8)

    def test_block_shapes(self, poly_model):
        assert poly_model.A11.shape == (4, 4)
        assert poly_model.A12.shape == (4, 4)
        assert poly_model.A21.shape == (4, 4)
        assert poly_model.A22.shape == (4, 4)
        assert poly_model.s == 8 and poly_model.l == 4

    def test_source_index_recorded(self, poly_model):
        assert poly_model.source_index is not None
        assert poly_model.source_index <= 1e-8

    def test_wrong_fit_shape_rejected(self, poly_basis):
        rng = np.random.default_rng(0)
        P = rng.normal(size=(5, 30))
        fit = kl.fit_edmd(P, P)
        with pytest.raises(DimensionMismatch):
            extract_normal(fit, poly_basis)

    def test_input_free_dictionary_gives_constant_model(self, poly_augmented):
        nd = kl.example_poly_normal_basis(
            truncate=("x1*u", "u", "u^2", "sin(u)"))
        assert nd.s == nd.l == 4
        P = nd.eval_aug(poly_augmented.Z)
        Q = nd.eval_aug(poly_augmented.Zplus)
        fit = kl.fit_edmd(P, Q)
        model = extract_normal(fit, nd)
        assert model.A12 is None and model.Gtilde is None
        np.testing.assert_array_equal(model.A_of([0.7]), model.A11)
        np.testing.assert_array_equal(model.A_of([-2.0]), model.A11)


class TestExtractPseudoinverse:
    def test_agrees_with_block_extraction(self, poly_fit, poly_basis, poly_model):
        rng = np.random.default_rng(1)
        for u in rng.uniform(-1, 1, size=20):
            A_pinv = extract_pseudoinverse(poly_fit.K, poly_basis, [u])
            np.testing.assert_allclose(A_pinv, poly_model.A_of([u]), atol=1e-9)

    def test_rank_deficient_input_named(self):
        G_eval = lambda u: np.array([[u[0]]])
        A = np.array([[1.0]])
        with pytest.raises(RankDeficientAtInput, match=r"0\.0"):
            extract_pseudoinverse(A, G_eval, [0.0])

    def test_shape_mismatch(self, poly_basis):
        with pytest.raises(DimensionMismatch):
            extract_pseudoinverse(np.eye(3), poly_basis, [0.5])


class TestRollout:
    def test_matches_simulation(self, poly_system, poly_model):
        rng = np.random.default_rng(2)
        x0 = np.array([0.3, -0.4])
        U = rng.uniform(-1, 1, size=(1, 50))
        truth = simulate(poly_system, x0, U).states
        Z = rollout(poly_model, x0, U)
        X_hat = states_from_lifted(poly_model, Z)
        np.testing.assert_allclose(X_hat, truth, atol=1e-9)

    def test_empty_inputs_single_column(self, poly_model):
        Z = rollout(poly_model, [0.3, -0.4], [])
        assert Z.shape == (4, 1)
        np.testing.assert_array_equal(Z[:, 0], poly_model.lift([0.3, -0.4]))

    def test_divergence_reports_step(self):
        psi = StateDictionary(dim=1, fn=lambda x: np.asarray(x, dtype=float),
                              names=("x1",), domain_dim=1)
        model = kl.models.LinearLiftedModel(
            psi=psi, A=np.array([[1e200]]), B=np.zeros((1, 1)))
        with np.errstate(over="ignore"):
            with pytest.raises(NonFiniteState) as exc:
                rollout(model, [1.0], np.zeros((1, 5)))
        assert exc.value.step == 2


class TestPredictObservable:
    def test_state_component_formula(self, poly_model, poly_system):
        p = poly_system.params
        rng = np.random.default_rng(3)
        e2 = np.array([0.0, 1.0, 0.0, 0.0])
        for _ in range(20):
            x1, x2 = rng.uniform(-2, 2), rng.uniform(-8, 8)
            u = rng.uniform(-1, 1)
            want = (p["c"] * x2 + p["d"] * x1**2 + p["e"] * x1 * u
                    + p["f"] * u + p["g"] * np.sin(u) + p["h"])
            got = predict_observable(poly_model, e2, [x1, x2], [u])
            assert got == pytest.approx(want, abs=1e-9)

    def test_wrong_length_rejected(self, poly_model):
        with pytest.raises(DimensionMismatch):
            predict_observable(poly_model, np.ones(3), [0.0, 0.0], [0.0])


class TestOneStepBound:
    def test_certified_worst_case_over_state_span(self, poly_augmented):
        """Random observables respect the bound; the certificate attains it."""
        nd = kl.example_poly_normal_basis(
            truncate=("x1*u", "u", "u^2", "sin(u)"))
        P = nd.eval_aug(poly_augmented.Z)
        Q = nd.eval_aug(poly_augmented.Zplus)
        fit = kl.fit_edmd(P, Q)
        rep = kl.consistency_index(P, Q)
        model = extract_normal(fit, nd, source_index=rep)
        assert model.source_index > 1e-3

        rng = np.random.default_rng(4)
        def rel_err(h):
            pred = (h @ model.A11) @ P
            truth = h @ Q
            return np.linalg.norm(pred - truth) / np.linalg.norm(truth)

        for _ in range(200):
            assert rel_err(rng.normal(size=4)) <= model.source_index + 1e-8
        assert rel_err(rep.worst_coeffs) == pytest.approx(
            model.source_index, abs=1e-6)


class TestLinearBaseline:
    def test_exact_on_linear_system(self):
        A0 = np.array([[0.6, 0.1], [-0.2, 0.7]])
        B0 = np.array([[0.5], [1.0]])
        sys = ControlSystem(
            name="linear2",
            state_dim=2,
            input_dim=1,
            step_map=lambda x, u: A0 @ x + B0 @ u,
            state_box=[[-5.0, -5.0], [5.0, 5.0]],
            input_box=[[-1.0], [1.0]],
            dt=None,
            params={},
        )
        plan = kl.ExperimentPlan(num_experiments=50, steps_per_experiment=4,
                                 rng_seed=5)
        ss = kl.run_experiments(sys, plan)
        model = fit_linear_baseline(_identity_basis(), ss)
        np.testing.assert_allclose(model.A, A0, atol=1e-10)
        np.testing.assert_allclose(model.B, B0, atol=1e-10)

    def test_zero_regressor_degenerate(self):
        ss = SnapshotSet(X=np.zeros((2, 10)), Xplus=np.zeros((2, 10)),
                         U=np.zeros((1, 10)))
        psi = StateDictionary(dim=1, fn=lambda x: np.zeros(1), names=("z",),
                              domain_dim=2)
        with pytest.raises(DegenerateData):
            fit_linear_baseline(psi, ss)


class TestBilinearBaseline:
    def test_exact_on_bilinear_system(self):
        A0 = np.array([[0.5, 0.2], [0.0, 0.6]])
        B1 = np.array([[0.1, -0.3], [0.4, 0.2]])
        sys = ControlSystem(
            name="bilinear2",
            state_dim=2,
            input_dim=1,
            step_map=lambda x, u: A0 @ x + u[0] * (B1 @ x),
            state_box=[[-5.0, -5.0], [5.0, 5.0]],
            input_box=[[-1.0], [1.0]],
            dt=None,
            params={},
        )
        plan = kl.ExperimentPlan(num_experiments=60, steps_per_experiment=4,
                                 rng_seed=6)
        ss = kl.run_experiments(sys, plan)
        model = fit_bilinear_baseline(_identity_basis(), ss)
        assert not model.advisory
        np.testing.assert_allclose(model.A, A0, atol=1e-8)
        np.testing.assert_allclose(model.Bs[0], B1, atol=1e-8)

    def test_constant_input_channel_is_advisory(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(2, 40))
        ss = SnapshotSet(X=X, Xplus=0.5 * X, U=np.ones((1, 40)))
        with pytest.warns(RankWarning):
            model = fit_bilinear_baseline(_identity_basis(), ss)
        assert model.advisory


class TestSwitchedModel:
    def _constant_input_subsets(self, sys, values, rng):
        subsets = []
        for u in values:
            X = np.vstack([rng.uniform(-2, 2, size=50),
                           rng.uniform(-8, 8, size=50)])
            Xplus = np.column_stack(
                [sys.step_map(X[:, j], np.array([u])) for j in range(50)])
            subsets.append(([u], SnapshotSet(X=X, Xplus=Xplus,
                                             U=np.full((1, 50), u))))
        return subsets

    def test_matrices_match_separable_transition(self, poly_system, poly_model):
        rng = np.random.default_rng(8)
        values = (-1.0, 0.0, 0.5)
        psi = head_dictionary(kl.example_poly_normal_basis())
        subsets = self._constant_input_subsets(poly_system, values, rng)
        switched = kl.models.switched_from_constant_inputs(psi, subsets)
        for u in values:
            np.testing.assert_allclose(switched.matrix_at([u]),
                                       poly_model.A_of([u]), atol=1e-8)

    def test_unknown_value_lists_known(self, poly_system):
        rng = np.random.default_rng(9)
        psi = head_dictionary(kl.example_poly_normal_basis())
        subsets = self._constant_input_subsets(poly_system, (0.0, 1.0), rng)
        switched = kl.models.switched_from_constant_inputs(psi, subsets)
        with pytest.raises(UnknownInputValue, match=r"0\.0.*1\.0"):
            switched.matrix_at([0.25])


class TestBilinearAsSeparable:
    def test_exact_embedding(self):
        rng = np.random.default_rng(10)
        psi = _identity_basis()
        model = kl.models.BilinearLiftedModel(
            psi=psi,
            A=rng.normal(size=(2, 2)),
            Bs=(rng.normal(size=(2, 2)),),
            C=rng.normal(size=(2, 1)),
        )
        sep = bilinear_as_separable(model)
        assert sep.l == 3 and sep.H.names[-1] == "1"
        for _ in range(100):
            x = rng.uniform(-2, 2, size=2)
            u = rng.uniform(-1, 1, size=1)
            want = model.step_lifted(psi(x), u)
            got = sep.A_of(u) @ sep.lift(x)
            np.testing.assert_allclose(got[:2], want, atol=1e-12)
            assert got[2] == pytest.approx(1.0, abs=1e-12)


class TestEvaluateRollouts:
    def test_exact_model_near_zero_rmse(self, poly_system, poly_model):
        out = evaluate_rollouts(poly_system, {"sep": poly_model},
                                x0s=[[0.2, 0.1], [-0.5, 1.0]],
                                n_steps=30, seed=12)
        rmse = out["rmse"]["sep"]["rmse"]
        assert max(rmse) <= 1e-9
        assert out["rmse"]["sep"]["diverged_at"] is None
        assert len(out["trajectories"]["truth"]) == 2
        assert out["trajectories"]["inputs"].shape == (1, 30)

    def test_divergent_model_scores_infinity(self, poly_system):
        psi = _identity_basis()
        bad = kl.models.LinearLiftedModel(
            psi=psi, A=1e200 * np.eye(2), B=np.zeros((2, 1)))
        with np.errstate(over="ignore"):
            out = evaluate_rollouts(poly_system, {"bad": bad},
                                    x0s=[[0.5, 0.5]], n_steps=10, seed=13)
        assert np.isinf(out["rmse"]["bad"]["rmse"]).all()
        assert out["rmse"]["bad"]["diverged_at"] is not None

    def test_truth_equals_per_x0_simulate(self):
        motor = kl.dc_motor_tanh()
        x0s = [[0.3, -1.0], [-0.8, 2.0], [0.0, 0.0]]
        out = evaluate_rollouts(motor, {}, x0s, n_steps=120, seed=15)
        U = out["trajectories"]["inputs"]
        assert len(out["trajectories"]["truth"]) == len(x0s)
        for x0, truth in zip(x0s, out["trajectories"]["truth"]):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                np.testing.assert_array_equal(truth, simulate(motor, x0, U).states)

    def test_diverging_truth_raises_what_simulate_raises(self):
        # x+ = x*x: |x| > 1 overflows, the larger the sooner.  The second
        # initial state overflows in x2, later than the third does in x1;
        # the per-x0 loop reaches the second first.
        def square(x, u):
            with np.errstate(over="ignore"):
                return x * x + 0.0 * u

        system = ControlSystem(state_dim=2, input_dim=1, step_map=square,
                               state_box=np.array([[-1.0, -1.0], [1.0, 1.0]]),
                               input_box=np.array([[-1.0], [1.0]]), name="square")
        x0s = [[0.5, -0.9], [0.2, 3.0], [40.0, 0.1]]
        U = np.zeros((1, 30))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(NonFiniteState) as expected:
                for x0 in x0s:
                    simulate(system, x0, U)
            with pytest.raises(NonFiniteState) as got:
                evaluate_rollouts(system, {}, x0s, n_steps=30, seed=16)
        assert "x2" in str(expected.value)
        assert str(got.value) == str(expected.value)

    def test_seed_determinism(self, poly_system, poly_model):
        a = evaluate_rollouts(poly_system, {"m": poly_model}, [[0.1, 0.2]],
                              n_steps=5, seed=14)
        b = evaluate_rollouts(poly_system, {"m": poly_model}, [[0.1, 0.2]],
                              n_steps=5, seed=14)
        np.testing.assert_array_equal(a["trajectories"]["inputs"],
                                      b["trajectories"]["inputs"])


class TestStateReadout:
    def test_head_rows_exact(self, poly_model):
        Z = np.arange(16.0).reshape(8, 2)
        X_hat = states_from_lifted(poly_model, Z)
        np.testing.assert_array_equal(X_hat, Z[:2])

    def test_headless_dictionary_needs_decoder(self, poly_snapshots):
        psi = StateDictionary(
            dim=2,
            fn=lambda x: np.array([x[0] + x[1], x[0] - x[1]]),
            names=("sum", "diff"),
            domain_dim=2,
        )
        model = kl.models.LinearLiftedModel(psi=psi, A=np.eye(2),
                                            B=np.zeros((2, 1)))
        Z = eval_matrix(psi, poly_snapshots.X[:, :5])
        with pytest.raises(ConfigError, match="decoder"):
            states_from_lifted(model, Z)
        model = with_decoder(model, poly_snapshots.X)
        assert model.decoder[1] <= 1e-12
        np.testing.assert_allclose(states_from_lifted(model, Z),
                                   poly_snapshots.X[:, :5], atol=1e-10)


class TestModelSerialization:
    def test_separable_round_trip(self, poly_model, poly_snapshots, tmp_path):
        model = with_decoder(poly_model, poly_snapshots.X)
        path = save_model(model, tmp_path / "model.json")
        back = load_model(path)
        rng = np.random.default_rng(15)
        for u in rng.uniform(-1, 1, size=5):
            np.testing.assert_allclose(back.A_of([u]), model.A_of([u]),
                                       atol=1e-14)
        x = np.array([0.4, -1.2])
        np.testing.assert_allclose(back.lift(x), model.lift(x), atol=1e-14)
        assert back.source_index == pytest.approx(model.source_index)
        np.testing.assert_allclose(back.decoder[0], model.decoder[0],
                                   atol=1e-14)

    def test_linear_round_trip(self, poly_snapshots, tmp_path):
        psi = head_dictionary(kl.example_poly_normal_basis())
        model = fit_linear_baseline(psi, poly_snapshots)
        back = load_model(save_model(model, tmp_path / "lin.json"))
        np.testing.assert_allclose(back.A, model.A, atol=1e-14)
        np.testing.assert_allclose(back.B, model.B, atol=1e-14)
        x = np.array([0.3, 0.7])
        np.testing.assert_allclose(back.lift(x), model.lift(x), atol=1e-14)

    def test_bilinear_round_trip(self, poly_snapshots, tmp_path):
        psi = head_dictionary(kl.example_poly_normal_basis())
        model = fit_bilinear_baseline(psi, poly_snapshots)
        back = load_model(save_model(model, tmp_path / "bil.json"))
        np.testing.assert_allclose(back.A, model.A, atol=1e-14)
        np.testing.assert_allclose(back.Bs[0], model.Bs[0], atol=1e-14)
        assert back.C is None and back.advisory == model.advisory

    def test_switched_not_serializable(self, poly_system):
        rng = np.random.default_rng(16)
        psi = head_dictionary(kl.example_poly_normal_basis())
        X = rng.normal(size=(2, 30))
        Xplus = np.column_stack(
            [poly_system.step_map(X[:, j], np.array([0.0])) for j in range(30)])
        switched = kl.models.switched_from_constant_inputs(
            psi, [([0.0], SnapshotSet(X=X, Xplus=Xplus, U=np.zeros((1, 30))))])
        with pytest.raises(ConfigError):
            model_to_json(switched)

    def test_foreign_json_rejected(self):
        with pytest.raises(ConfigError):
            model_from_json({"format": "something-else", "kind": "separable"})

    def test_hand_built_model_without_descriptor_rejected(self):
        psi = _identity_basis()
        model = kl.models.LinearLiftedModel(psi=psi, A=np.eye(2),
                                            B=np.zeros((2, 1)))
        with pytest.raises(ConfigError):
            model_to_json(model)
