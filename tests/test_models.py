"""Tests for separable model extraction, baselines, rollouts, and serialization."""

import warnings
from fractions import Fraction

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
from kooplift.edmd import CHUNK, _stream_r
from kooplift.models import _bilinear_baseline, _linear_baseline
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


class TestPseudoinverseAccuracy:
    """``extract_pseudoinverse`` against exact rational arithmetic on an ill-conditioned G."""

    @staticmethod
    def _exact(A, G):
        """``(G'G)^-1 G'AG`` on the floats' exact values, by Gauss-Jordan elimination."""
        A, G = (np.vectorize(Fraction, otypes=[object])(M) for M in (A, G))
        l = G.shape[1]
        W = np.hstack([G.T @ G, G.T @ A @ G])
        for k in range(l):
            W[k] = W[k] / W[k, k]
            for i in range(l):
                if i != k:
                    W[i] = W[i] - W[i, k] * W[k]
        return W[:, l:].astype(float)

    @pytest.mark.parametrize("seed", range(5))
    def test_error_grows_with_cond_not_its_square(self, seed):
        # cond(G) = 1e6 passes the 1e-8 rank check; the normal equations
        # err by about 1e-6 to 4e-5 relative here, one SVD by at most 3.2e-10.
        rng = np.random.default_rng(seed)
        W, _ = np.linalg.qr(rng.standard_normal((6, 3)))
        V, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        G = W @ np.diag([1.0, 1e-3, 1e-6]) @ V.T
        A = rng.standard_normal((6, 6))
        got = extract_pseudoinverse(A, lambda u: G, [0.0])
        want = self._exact(A, G)
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


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


def _protocol_models(poly_model, poly_augmented, poly_snapshots):
    """One model of every kind, on the polynomial example's data."""
    psi = head_dictionary(kl.example_poly_normal_basis())
    none = kl.example_poly_normal_basis(truncate=("x1*u", "u", "u^2", "sin(u)"))
    headless = kl.parametric_family("polynomial", state_dim=2, input_dim=1, s=8,
                                    l=5, fixed_head=None, total_degree=2, seed=2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RankWarning)
        headless_model = with_decoder(
            extract_normal(kl.fit_edmd(*headless.eval_pair(poly_augmented)), headless),
            poly_snapshots.X)
        return {
            "separable": poly_model,
            "separable_without_A12": extract_normal(
                kl.fit_edmd(*none.eval_pair(poly_augmented)), none),
            "linear": fit_linear_baseline(psi, poly_snapshots),
            "bilinear": fit_bilinear_baseline(psi, poly_snapshots),
            "bilinear_with_C": fit_bilinear_baseline(psi, poly_snapshots,
                                                     include_input_term=True),
            "switched": kl.models.SwitchedLinearModel(
                psi=psi, matrices={(v,): poly_model.A_of([v]) for v in _SWITCH_VALUES}),
            "headless_with_decoder": headless_model,
        }


_SWITCH_VALUES = (-0.5, 0.0, 0.25, 1.0)


def _step_lifted_loop(model, x0, U):
    """Reference rollout: ``step_lifted`` one step and one initial state at a time."""
    z = model.lift(x0)
    cols = [z]
    for k in range(U.shape[1]):
        z = model.step_lifted(z, U[:, k])
        cols.append(z)
    return np.column_stack(cols)


def _assert_within_rounding(got, ref, name):
    """Columns of ``got`` within 64 eps of the largest reference column.

    A block step sums the same products as ``step_lifted`` in another
    order (and the bilinear one folds ``sum_i u_i B_i`` into the matrix
    first); over these 25-step rollouts that moves a state by at most
    about 5 eps times the trajectory's size.
    """
    tol = 64 * np.finfo(float).eps * np.max(np.linalg.norm(ref, axis=0))
    assert got.shape == ref.shape, name
    assert np.max(np.linalg.norm(got - ref, axis=0)) <= tol, name


_X0S = ([0.3, -0.4], [-0.7, 0.9], [0.05, 0.6])


class TestTransitionProtocol:
    """Every lifted model rolls out through ``transitions`` on (L, B) blocks."""

    @pytest.fixture(scope="class")
    def zoo(self, poly_model, poly_augmented, poly_snapshots):
        return _protocol_models(poly_model, poly_augmented, poly_snapshots)

    @pytest.fixture(scope="class")
    def inputs(self):
        return np.random.default_rng(40).choice(_SWITCH_VALUES, size=(1, 25))

    @pytest.mark.parametrize("name", ["separable", "separable_without_A12", "linear",
                                      "bilinear", "bilinear_with_C", "switched",
                                      "headless_with_decoder"])
    @pytest.mark.parametrize("B", [1, 3])
    def test_block_rollout_matches_step_lifted_loop(self, zoo, inputs, name, B):
        model = zoo[name]
        x0s = [np.asarray(x0) for x0 in _X0S[:B]]
        Z, failed = kl.models._roll(model, model.lift(np.column_stack(x0s)), inputs)
        assert Z.shape == (model.lift(x0s[0]).shape[0], inputs.shape[1] + 1, B)
        assert not failed.any()
        for j, x0 in enumerate(x0s):
            ref = _step_lifted_loop(model, x0, inputs)
            _assert_within_rounding(Z[:, :, j], ref, name)
            if B == 1:
                got = rollout(model, x0, inputs)
                assert got.flags.c_contiguous
                _assert_within_rounding(got, ref, name)

    @pytest.mark.parametrize("name", ["separable", "linear", "bilinear_with_C",
                                      "headless_with_decoder"])
    def test_evaluate_rollouts_matches_per_x0_loop(self, zoo, poly_system, name):
        model = zoo[name]
        out = evaluate_rollouts(poly_system, {name: model}, _X0S, n_steps=20, seed=41)
        U = out["trajectories"]["inputs"]
        for x0, pred in zip(_X0S, out["trajectories"][name]):
            ref = _step_lifted_loop(model, np.asarray(x0), U)
            _assert_within_rounding(pred, states_from_lifted(model, ref), name)

    def test_input_dim_of_every_kind(self, zoo):
        assert {name: m.input_dim for name, m in zoo.items()} == {
            "separable": 1, "separable_without_A12": None, "linear": 1, "bilinear": 1,
            "bilinear_with_C": 1, "switched": 1, "headless_with_decoder": 1}

    def test_lift_of_a_block_is_lift_of_each_column(self, zoo):
        X = np.array(_X0S).T
        for name, model in zoo.items():
            block = model.lift(X)
            for j in range(X.shape[1]):
                np.testing.assert_allclose(block[:, j], model.lift(X[:, j]),
                                           rtol=1e-15, atol=0, err_msg=name)

    def test_switched_unknown_value_still_raises(self, zoo):
        with pytest.raises(UnknownInputValue, match="0.3"):
            rollout(zoo["switched"], [0.1, 0.2], np.array([[0.0, 0.3]]))

    def test_each_x0_diverges_at_its_own_step(self):
        # x1 contracts; x2 grows by 1e100 a step, so an x2 of 1e-191 first
        # overflows at step 5 and one of 1e10 at step 3.  The first x0 has
        # no x2 and stays finite.
        psi = _identity_basis()
        model = kl.models.LinearLiftedModel(
            psi=psi, A=np.diag([0.5, 1e100]), B=np.array([[1.0], [0.0]]))
        system = ControlSystem(state_dim=2, input_dim=1,
                               step_map=lambda x, u: 0.5 * x + 0.0 * u,
                               state_box=np.array([[-1.0, -1.0], [1.0, 1.0]]),
                               input_box=np.array([[-1.0], [1.0]]), name="contract")
        x0s = [[0.8, 0.0], [0.4, 1e-191], [-0.3, 1e10]]
        with np.errstate(over="ignore", invalid="ignore"):
            out = evaluate_rollouts(system, {"m": model}, x0s, n_steps=12, seed=42)
            U = out["trajectories"]["inputs"]
            for x0, step in zip(x0s[1:], (5, 3)):
                with pytest.raises(NonFiniteState) as exc:
                    rollout(model, x0, U)
                assert exc.value.step == step
        assert out["rmse"]["m"]["diverged_at"] == 3
        assert np.isinf(out["rmse"]["m"]["rmse"]).all()
        first, second, third = out["trajectories"]["m"]
        assert second is None and third is None
        np.testing.assert_array_equal(first, rollout(model, x0s[0], U))


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
        psi = StateDictionary(dim=1, fn=lambda X: np.zeros((1, X.shape[1])), names=("z",),
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

    def test_linear_model_embeds_through_its_input_rows(self):
        rng = np.random.default_rng(11)
        psi = _identity_basis()
        model = kl.models.LinearLiftedModel(psi=psi, A=rng.normal(size=(2, 2)),
                                            B=rng.normal(size=(2, 2)))
        sep = bilinear_as_separable(model)
        assert sep.A12.shape == (3, 2)
        for _ in range(20):
            x, u = rng.uniform(-2, 2, size=2), rng.uniform(-1, 1, size=2)
            got = sep.A_of(u) @ sep.lift(x)
            np.testing.assert_allclose(got, np.append(model.step_lifted(psi(x), u), 1.0),
                                       atol=1e-12)


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

    def test_switched_round_trip(self, poly_system, tmp_path):
        rng = np.random.default_rng(16)
        psi = head_dictionary(kl.example_poly_normal_basis())
        subsets = TestSwitchedModel()._constant_input_subsets(poly_system, (-1.0, 0.0, 0.5), rng)
        switched = kl.models.switched_from_constant_inputs(psi, subsets)
        back = load_model(save_model(switched, tmp_path / "switched.json"))
        assert list(back.matrices) == list(switched.matrices)
        for u, A in switched.matrices.items():
            np.testing.assert_array_equal(back.matrices[u], A)
        U = np.array([[0.5, -1.0, 0.0, 0.5]])
        np.testing.assert_array_equal(back.transitions(U)[0], switched.transitions(U)[0])
        assert back.transitions(U)[1] is None

    def test_head_dictionary_leaves_the_dictionary_unchanged(self, poly_snapshots):
        nd = kl.example_poly_normal_basis()
        H, before = nd.H, dict(vars(nd.H))
        psi = head_dictionary(nd)
        assert nd.H is H and vars(H) == before and psi is not H
        assert psi.source is nd and H.source is None
        with pytest.raises(ConfigError):
            model_to_json(fit_linear_baseline(nd.H, poly_snapshots))
        assert model_to_json(fit_linear_baseline(psi, poly_snapshots))["kind"] == "linear"

    def test_saved_parameters_are_those_at_save_time(self, poly_snapshots):
        nd = kl.parametric_family("polynomial", state_dim=2, input_dim=1, s=7, l=4,
                                  total_degree=2, seed=3)
        model = fit_linear_baseline(head_dictionary(nd), poly_snapshots)
        nd.set_params(nd.get_params() + 1.0)
        assert model_to_json(model)["head_of"]["parameters"] == nd.get_params().tolist()

    def test_foreign_json_rejected(self):
        with pytest.raises(ConfigError):
            model_from_json({"format": "something-else", "kind": "separable"})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown model kind"):
            model_from_json({"format": "kooplift-model-v1", "kind": "affine"})

    def test_hand_built_model_without_descriptor_rejected(self):
        psi = _identity_basis()
        model = kl.models.LinearLiftedModel(psi=psi, A=np.eye(2),
                                            B=np.zeros((2, 1)))
        with pytest.raises(ConfigError):
            model_to_json(model)


class TestLeastSquaresKernel:
    """Baselines and the decoder from the QR kernel, against ``np.linalg.lstsq``."""

    def _poly_psi(self):
        return head_dictionary(kl.example_poly_normal_basis())

    @staticmethod
    def _lstsq(R, Y):
        return np.linalg.lstsq(R.T, Y.T, rcond=None)[0].T

    def test_linear_baseline(self, poly_snapshots):
        psi = self._poly_psi()
        model = fit_linear_baseline(psi, poly_snapshots)
        PX = eval_matrix(psi, poly_snapshots.X)
        AB = self._lstsq(np.vstack([PX, poly_snapshots.U]), eval_matrix(psi, poly_snapshots.Xplus))
        np.testing.assert_allclose(np.hstack([model.A, model.B]), AB, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("include_input_term", [False, True])
    def test_bilinear_baseline(self, poly_snapshots, include_input_term):
        psi = self._poly_psi()
        ss = poly_snapshots
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankWarning)
            model = fit_bilinear_baseline(psi, ss, include_input_term=include_input_term)
        PX = eval_matrix(psi, ss.X)
        blocks = [PX, PX * ss.U[0]] + ([ss.U] if include_input_term else [])
        AB = self._lstsq(np.vstack(blocks), eval_matrix(psi, ss.Xplus))
        got = np.hstack([model.A, *model.Bs] + ([model.C] if include_input_term else []))
        np.testing.assert_allclose(got, AB, rtol=0, atol=1e-10)
        # psi holds the constant function, so with the U block the row
        # 1*u appears twice: rank-deficient, and lstsq's minimum-norm fit.
        assert model.advisory == include_input_term

    def test_rank_warnings_unchanged(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(2, 40))
        # A constant input channel makes the bilinear blocks collinear and
        # the linear regressor [X; U] stays full rank.
        ss = SnapshotSet(X=X, Xplus=0.5 * X, U=np.ones((1, 40)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RankWarning)
            fit_linear_baseline(_identity_basis(), ss)
        with pytest.warns(RankWarning, match="bilinear regressor"):
            fit_bilinear_baseline(_identity_basis(), ss)
        dup = SnapshotSet(X=np.vstack([X[0], X[0]]), Xplus=X, U=rng.normal(size=(1, 40)))
        with pytest.warns(RankWarning, match=r"regressor \[psi\(X\); U\]"):
            model = fit_linear_baseline(_identity_basis(), dup)
        # the minimum-norm solution, as lstsq gives it
        R = np.vstack([dup.X, dup.U])
        np.testing.assert_allclose(np.hstack([model.A, model.B]), self._lstsq(R, dup.Xplus),
                                   rtol=0, atol=1e-10)

    @pytest.mark.parametrize("include_input_term", [False, True])
    def test_pipeline_fits_from_the_streamed_r(self, poly_snapshots, include_input_term):
        # The pipeline's route: one streamed R of the full data matrix, whose
        # P, Q blocks are the augmented dictionary's (s > l), then both fits
        # from its columns.
        nd = kl.example_poly_normal_basis()
        ss = poly_snapshots
        assert ss.n_snapshots > CHUNK
        d = _stream_r(nd, kl.to_augmented(ss))
        psi = self._poly_psi()
        PX, PXp = eval_matrix(psi, ss.X), eval_matrix(psi, ss.Xplus)
        linear = _linear_baseline(psi, d)
        np.testing.assert_allclose(np.hstack([linear.A, linear.B]),
                                   self._lstsq(np.vstack([PX, ss.U]), PXp), rtol=0, atol=1e-10)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankWarning)
            bilinear = _bilinear_baseline(psi, d, include_input_term)
        blocks = [PX, PX * ss.U[0]] + ([ss.U] if include_input_term else [])
        got = np.hstack([bilinear.A, *bilinear.Bs] + ([bilinear.C] if include_input_term else []))
        np.testing.assert_allclose(got, self._lstsq(np.vstack(blocks), PXp), rtol=0, atol=1e-10)
        assert bilinear.advisory == include_input_term

    def test_state_decoder(self, poly_snapshots):
        psi = StateDictionary(dim=3, fn=lambda x: np.array([x[0] + x[1], x[0] - x[1], x[0] ** 2]),
                              names=("sum", "diff", "sq"), domain_dim=2)
        X = poly_snapshots.X
        D, resid = kl.models.fit_state_decoder(psi, X)
        np.testing.assert_allclose(D, self._lstsq(eval_matrix(psi, X), X), rtol=0, atol=1e-12)
        assert resid <= 1e-12
