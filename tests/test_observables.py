"""Tests for dictionaries, separable decomposition, and normal forms."""

import itertools
import json
import warnings

import numpy as np
import pytest

import kooplift as kl
from kooplift.errors import ConfigError, DimensionMismatch, RankDeficientProbe
from kooplift.models import extract_normal
from kooplift.observables import (FAMILIES, _coefficient_stack, _monomial_exponents,
                                  _sigmoid, _softplus)


def _random_aug(rng, n=2, m=1, N=30):
    return np.vstack([rng.uniform(-1, 1, (n, N)), rng.uniform(-2, 2, (m, N))])


class TestEvalMatrix:
    def test_state_basis_point(self):
        H = kl.example_poly_state_basis()
        np.testing.assert_array_equal(
            kl.eval_matrix(H, np.array([[2.0], [3.0]]))[:, 0], [2.0, 3.0, 4.0, 1.0])

    def test_constant_row_all_ones(self):
        H = kl.example_poly_state_basis()
        X = np.random.default_rng(0).uniform(-1, 1, (2, 17))
        np.testing.assert_array_equal(kl.eval_matrix(H, X)[3], np.ones(17))

    def test_empty_data(self, poly_basis):
        H = kl.example_poly_state_basis()
        assert kl.eval_matrix(H, np.zeros((2, 0))).shape == (4, 0)
        assert poly_basis.eval_aug(np.zeros((3, 0))).shape == (8, 0)

    def test_dimension_mismatch(self):
        H = kl.example_poly_state_basis()
        with pytest.raises(DimensionMismatch):
            kl.eval_matrix(H, np.zeros((3, 5)))

    def test_one_point_call_is_fn_on_one_column(self):
        H = kl.example_poly_state_basis()
        x = np.array([0.3, -1.7])
        np.testing.assert_array_equal(H(x), H.fn(x[:, None])[:, 0])
        assert H(x).shape == (4,)
        with pytest.raises(DimensionMismatch):
            H(np.zeros(3))

    def test_wrong_output_shape_raises(self):
        H = kl.StateDictionary(dim=2, fn=lambda X: X[:1], domain_dim=2)
        with pytest.raises(DimensionMismatch):
            H(np.zeros(2))
        with pytest.raises(DimensionMismatch):
            kl.eval_matrix(H, np.zeros((2, 5)))


class TestNormalForm:
    def test_top_block_is_head_exactly(self, poly_basis):
        rng = np.random.default_rng(1)
        Z = _random_aug(rng)
        Phi = poly_basis.eval_aug(Z)
        Hm = kl.eval_matrix(poly_basis.H, Z[:2])
        np.testing.assert_array_equal(Phi[: poly_basis.l], Hm)

    def test_g_of_has_identity_top(self, poly_basis):
        G = poly_basis.G_of(np.array([0.7]))
        np.testing.assert_array_equal(G[:4], np.eye(4))
        assert G.shape == (8, 4)

    def test_builtin_shape(self, poly_basis):
        assert (poly_basis.s, poly_basis.l) == (8, 4)
        assert poly_basis.H.names == ("x1", "x2", "x1^2", "1")


def _assert_matches_column_loop(nd, Z):
    """``eval_aug`` against ``vstack([h, Gtilde(u) @ h])`` built one column at a time.

    The batched contraction may sum in another order, so the tolerance is
    fixed beforehand from the operands: cols * eps * max|Gtilde| * max|H|.
    """
    n = nd.state_dim
    cols, g_max = [], 0.0
    for j in range(Z.shape[1]):
        h = nd.H(Z[:n, j])
        if nd.Gtilde is None:
            cols.append(h)
            continue
        G = nd.Gtilde(Z[n:, j])
        g_max = max(g_max, float(np.max(np.abs(G))))
        cols.append(np.concatenate([h, G @ h]))
    want = np.column_stack(cols)
    h_max = float(np.max(np.abs(want[: nd.l])))
    cols_g = nd.Gtilde.cols if nd.Gtilde is not None else 0
    tol = cols_g * np.finfo(float).eps * g_max * h_max
    got = nd.eval_aug(Z)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=tol)


_BOTTOM_ROWS = ("x1*u", "u", "u^2", "sin(u)")


class TestBatchedEvalAug:
    @pytest.mark.parametrize("truncate", [
        t for r in range(len(_BOTTOM_ROWS) + 1)
        for t in itertools.combinations(_BOTTOM_ROWS, r)])
    def test_poly_basis_matches_column_loop(self, truncate):
        rng = np.random.default_rng(len(truncate))
        nd = kl.example_poly_normal_basis(truncate=truncate)
        _assert_matches_column_loop(nd, _random_aug(rng, N=200))

    @pytest.mark.parametrize("with_input_term", [False, True])
    def test_bilinear_embedding_matches_column_loop(self, with_input_term):
        from kooplift.models import BilinearLiftedModel, bilinear_as_separable

        rng = np.random.default_rng(4)
        psi = kl.example_poly_state_basis()
        model = BilinearLiftedModel(
            psi=psi, A=rng.normal(size=(4, 4)),
            Bs=tuple(rng.normal(size=(4, 4)) for _ in range(2)),
            C=rng.normal(size=(4, 2)) if with_input_term else None)
        sep = bilinear_as_separable(model)
        nd = kl.NormalDictionary(sep.H, sep.Gtilde, state_dim=2, input_dim=2)
        _assert_matches_column_loop(nd, _random_aug(rng, m=2, N=200))

    def test_wrong_gtilde_shape_names_expected_shape(self):
        gt = kl.InputMatrixFunction(rows=2, cols=4, fn=lambda U: np.zeros((2, 4)),
                                    domain_dim=1)
        nd = kl.NormalDictionary(kl.example_poly_state_basis(), gt,
                                 state_dim=2, input_dim=1)
        with pytest.raises(DimensionMismatch, match=r"expected \(2, 4, 7\)"):
            nd.eval_aug(np.zeros((3, 7)))
        with pytest.raises(DimensionMismatch, match=r"expected \(2, 4, 1\)"):
            gt([0.5])


def _pair_data(rng, inputs, N=150):
    """Augmented snapshots on random states: held inputs, or input rows that differ."""
    Z = _random_aug(rng, N=N)
    Zplus = np.vstack([rng.uniform(-1, 1, (2, N)), Z[2:]])
    if inputs == "differ":
        Zplus[2:] = rng.uniform(-2, 2, (1, N))
    return kl.AugmentedSnapshots(Z=Z, Zplus=Zplus, state_dim=2, input_dim=1)


def _assert_pair_is_two_eval_aug(nd, aug):
    P, Q = nd.eval_pair(aug)
    np.testing.assert_array_equal(P, nd.eval_aug(aug.Z))
    np.testing.assert_array_equal(Q, nd.eval_aug(aug.Zplus))
    assert P.shape == Q.shape == (nd.s, aug.n_snapshots)


class TestEvalPair:
    """``eval_pair`` is ``(eval_aug(Z), eval_aug(Z+))`` bit for bit."""

    @pytest.mark.parametrize("inputs", ["held", "differ"])
    @pytest.mark.parametrize("truncate", [
        t for r in range(len(_BOTTOM_ROWS) + 1)
        for t in itertools.combinations(_BOTTOM_ROWS, r)])
    def test_poly_basis_and_truncations(self, truncate, inputs):
        rng = np.random.default_rng(len(truncate))
        nd = kl.example_poly_normal_basis(truncate=truncate)
        _assert_pair_is_two_eval_aug(nd, _pair_data(rng, inputs))

    @pytest.mark.parametrize("inputs", ["held", "differ"])
    @pytest.mark.parametrize("s", [4, 9])
    @pytest.mark.parametrize("fixed_head", ["state", None])
    @pytest.mark.parametrize("kind, spec", [
        ("polynomial", {"total_degree": 2}),
        ("mlp", {"widths": [8, 6]}),
        ("residual_mlp", {"blocks": 2, "width": 8}),
    ])
    def test_parametric_families(self, kind, spec, fixed_head, s, inputs):
        rng = np.random.default_rng(s)
        nd = kl.parametric_family(kind, state_dim=2, input_dim=1, s=s, l=4,
                                  fixed_head=fixed_head, seed=3, **spec)
        nd = nd.with_input_scaling([0.5, 2.0], [0.25])
        _assert_pair_is_two_eval_aug(nd, _pair_data(rng, inputs))

    def test_on_snapshots_of_the_augmented_map(self, poly_basis, poly_augmented):
        _assert_pair_is_two_eval_aug(poly_basis, poly_augmented)

    @pytest.mark.parametrize("inputs, calls", [("held", 1), ("differ", 2)])
    def test_gtilde_runs_once_on_held_inputs(self, inputs, calls):
        base = kl.example_poly_normal_basis()
        seen = []

        def fn(U):
            seen.append(U.shape)
            return base.Gtilde.fn(U)

        gt = kl.InputMatrixFunction(rows=4, cols=4, fn=fn, domain_dim=1)
        nd = kl.NormalDictionary(base.H, gt, state_dim=2, input_dim=1)
        nd.eval_pair(_pair_data(np.random.default_rng(0), inputs, N=40))
        assert seen == [(1, 40)] * calls


class TestControlIndependentExtension:
    def test_zero_padding(self, poly_basis):
        ext = kl.control_independent_extension([1.0, 0.0, 0.0, 0.0], poly_basis)
        np.testing.assert_array_equal(ext, [1, 0, 0, 0, 0, 0, 0, 0])

    def test_u_independence_exact(self, poly_basis):
        rng = np.random.default_rng(2)
        v = rng.normal(size=4)
        ext = kl.control_independent_extension(v, poly_basis)
        x = rng.uniform(-1, 1, 2)
        h_val = float(v @ poly_basis.H(x))
        vals = []
        for _ in range(20):
            u = rng.uniform(-2, 2, 1)
            vals.append(float(ext @ poly_basis.eval(x, u)))
        assert np.var(vals) == 0.0
        assert vals[0] == h_val

    def test_linearity(self, poly_basis):
        rng = np.random.default_rng(3)
        h1, h2 = rng.normal(size=(2, 4))
        a, b = 2.5, -1.25
        lhs = kl.control_independent_extension(a * h1 + b * h2, poly_basis)
        rhs = (a * kl.control_independent_extension(h1, poly_basis)
               + b * kl.control_independent_extension(h2, poly_basis))
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-15)


def _one(V):
    return 1.0


def _example_terms():
    """The eight product terms of the example basis, as column-block factors."""
    return [
        [(_one, lambda X: X[0])],
        [(_one, lambda X: X[1])],
        [(_one, lambda X: X[0] ** 2)],
        [(_one, _one)],
        [(lambda U: U[0], lambda X: X[0])],
        [(lambda U: U[0], _one)],
        [(lambda U: U[0] ** 2, _one)],
        [(lambda U: np.sin(U[0]), _one)],
    ]


def _input_function(rows, cols, fn):
    return kl.InputMatrixFunction(rows=rows, cols=cols, fn=fn, domain_dim=1)


def _scrambled(M, G):
    """``M G(u)`` for a dictionary's ``G(u) = [I; Gtilde(u)]`` or an input function."""
    s, l = M.shape[0], (G.l if isinstance(G, kl.NormalDictionary) else G.cols)
    return _input_function(s, l, lambda U: np.tensordot(
        M, _coefficient_stack(G, U).transpose(1, 2, 0), axes=1))


# G(u) = [u; u^2] spans no constant combination, so no W has W G(u) = I.
_NOT_NORMAL = _input_function(2, 1, lambda U: np.stack([U[0], U[0] ** 2])[:, None, :])


class TestDecomposeSeparable:
    def test_example_terms_recover_state_dimension(self):
        rng = np.random.default_rng(4)
        probes = rng.uniform(-1, 1, (2, 40))
        G, H_prime = kl.decompose_separable(_example_terms(), probes)
        assert H_prime.dim == 4 and (G.rows, G.cols) == (8, 4)
        # H' must span {x1, x2, x1^2, 1}: cross-projection leaves no residual
        X = rng.uniform(-1, 1, (2, 60))
        target = kl.eval_matrix(kl.example_poly_state_basis(), X)
        got = kl.eval_matrix(H_prime, X)
        coeff = target @ np.linalg.pinv(got)
        assert np.linalg.norm(coeff @ got - target) <= 1e-8 * np.linalg.norm(target)

    def test_reconstruction_on_fresh_grid(self):
        rng = np.random.default_rng(5)
        probes = rng.uniform(-1, 1, (2, 40))
        terms = _example_terms()
        G, H_prime = kl.decompose_separable(terms, probes)
        X = rng.uniform(-1, 1, (2, 30))
        U = rng.uniform(-2, 2, (1, 30))
        # A constant factor is a scalar, so a term may be one too: broadcast.
        want = np.array([sum(p(U) * q(X) for p, q in tl) + np.zeros(30) for tl in terms])
        got = np.einsum("ikN,kN->iN", G.batch(U), kl.eval_matrix(H_prime, X))
        assert np.all(np.max(np.abs(got - want), axis=0)
                      <= 1e-8 * (1 + np.max(np.abs(want), axis=0)))

    def test_single_term(self):
        rng = np.random.default_rng(6)
        terms = [[(lambda U: np.cos(U[0]), lambda X: X[0] - X[1])]]
        G, H_prime = kl.decompose_separable(terms, rng.uniform(-1, 1, (2, 10)))
        assert H_prime.dim == 1
        x = np.array([0.3, -0.7])
        u = np.array([1.1])
        np.testing.assert_allclose(G(u) @ H_prime(x),
                                   [np.cos(1.1) * (0.3 + 0.7)], rtol=1e-12)

    def test_duplicate_state_factors_collapse(self):
        rng = np.random.default_rng(7)
        terms = [
            [(lambda U: U[0], lambda X: X[0])],
            [(lambda U: U[0] ** 2, lambda X: X[0])],
        ]
        _, H_prime = kl.decompose_separable(terms, rng.uniform(-1, 1, (2, 10)))
        assert H_prime.dim == 1

    def test_too_few_probes_rejected(self):
        rng = np.random.default_rng(8)
        with pytest.raises(RankDeficientProbe, match="probe"):
            kl.decompose_separable(_example_terms(), rng.uniform(-1, 1, (2, 5)))


class TestRankCondition:
    def test_normal_form_always_full_rank(self, poly_basis):
        us = np.linspace(-4, 4, 9)[None]
        res = kl.check_rank_condition(poly_basis, us, tol=1e-8)
        assert res["full_rank"] and res["failing_inputs"].shape == (1, 0)

    def test_scalar_g_fails_at_zero(self):
        G = _input_function(1, 1, lambda U: U[None])
        res = kl.check_rank_condition(G, np.array([[0.0, 1.0]]), tol=1e-8)
        assert not res["full_rank"]
        assert res["failing_inputs"].tolist() == [[0.0]]


class TestVerifyNormality:
    def test_already_normal(self, poly_basis):
        us = np.array([[-1.0, 0.5, 2.0]])
        res = kl.verify_normality(poly_basis, us, tol=1e-8)
        assert res["normal"] and res["residual"] <= 1e-12
        np.testing.assert_allclose(res["transform"][:4] @ poly_basis.G_of(us[:, 0]),
                                   np.eye(4), atol=1e-10)

    def test_scrambled_normal_form_recovered(self, poly_basis):
        rng = np.random.default_rng(9)
        M = rng.normal(size=(8, 8)) + 4 * np.eye(8)
        G = _scrambled(M, poly_basis)
        us = np.array([[-2.0, -0.5, 1.0, 3.0]])
        res = kl.verify_normality(G, us, tol=1e-8)
        assert res["normal"]
        for u in us.T:
            top = (res["transform"] @ G(u))[:4]
            np.testing.assert_allclose(top, np.eye(4), atol=1e-8)

    def test_not_normal_without_constant_combination(self):
        us = np.array([[1.0, 2.0, 3.0]])
        res = kl.verify_normality(_NOT_NORMAL, us, tol=1e-8)
        assert not res["normal"]
        assert res["residual"] > 1e-3

    def test_verdict_is_basis_change_covariant(self, poly_basis):
        rng = np.random.default_rng(10)
        us = np.array([[-1.5, 0.25, 2.5]])
        for _ in range(5):
            M8 = rng.normal(size=(8, 8)) + 4 * np.eye(8)
            M2 = rng.normal(size=(2, 2)) + 4 * np.eye(2)
            assert kl.verify_normality(_scrambled(M8, poly_basis), us, tol=1e-8)["normal"]
            assert not kl.verify_normality(_scrambled(M2, _NOT_NORMAL), us, tol=1e-8)["normal"]


class TestNormalFormDictionary:
    @staticmethod
    def _build(terms, n_probes=40, us=None):
        rng = np.random.default_rng(11)
        system = kl.example_poly()
        lo, hi = system.state_box
        probes = rng.uniform(lo[:, None], hi[:, None], (2, n_probes))
        us = rng.uniform(-1, 1, (1, 50)) if us is None else np.asarray(us)
        return kl.normal_form_dictionary(terms, probes, us)

    def test_example_terms_recover_the_system(self):
        """Criterion 1's data: the constructed basis is invariant and its model exact."""
        nd = self._build(_example_terms())
        assert (nd.s, nd.l, nd.descriptor) == (8, 4, None)
        system = kl.example_poly()
        plan = kl.ExperimentPlan(num_experiments=200, steps_per_experiment=10, rng_seed=7)
        aug = kl.to_augmented(kl.run_experiments(system, plan))
        P, Q = nd.eval_pair(aug)
        fit = kl.fit_edmd(P, Q)
        rep = kl.consistency_index(P, Q)
        assert rep.sqrt_index <= 1e-8
        assert np.linalg.norm(Q - fit.K @ P) <= 1e-8 * np.linalg.norm(Q)
        model = extract_normal(fit, nd, source_index=rep)
        rng = np.random.default_rng(12)
        lo, hi = system.state_box
        X = rng.uniform(lo[:, None], hi[:, None], (2, 200))
        U = rng.uniform(-1, 1, (1, 200))
        A = model.transitions(U)[0]
        lifted = np.einsum("Nij,jN->iN", A, kl.eval_matrix(nd.H, X))
        assert np.max(np.abs(lifted - kl.eval_matrix(nd.H, system.step_map(X, U)))) <= 1e-8
        with pytest.raises(ConfigError, match="serializ"):
            kl.dictionary_to_json(nd)

    def test_too_few_probes_raise(self):
        with pytest.raises(RankDeficientProbe, match="probe"):
            self._build(_example_terms(), n_probes=5)

    def test_g_singular_at_zero_raises(self):
        with pytest.raises(ConfigError, match="rank condition.*\\[0.0\\]"):
            self._build([[(lambda U: U[0], lambda X: X[0])]], us=[[-1.0, 0.0, 1.0]])

    def test_non_normal_span_raises(self):
        terms = [[(lambda U: U[0], _one)], [(lambda U: U[0] ** 2, _one)]]
        with pytest.raises(ConfigError, match="normality check"):
            self._build(terms, us=[[1.0, 2.0, 3.0]])


@pytest.mark.parametrize("check", ["rank", "normality", "constructor"])
def test_list_of_sample_vectors_is_rejected(check):
    """Per-sample vectors would read as one sample of many coordinates."""
    samples = [np.array([v]) for v in (-1.0, 0.5, 2.0)]
    probes = np.random.default_rng(4).uniform(-1, 1, (2, 40))
    G, _ = kl.decompose_separable(_example_terms(), probes)
    run = {"rank": lambda: kl.check_rank_condition(G, samples),
           "normality": lambda: kl.verify_normality(G, samples),
           "constructor": lambda: kl.normal_form_dictionary(_example_terms(), probes, samples)}
    with pytest.raises(DimensionMismatch, match="one sample per column"):
        run[check]()


def _masked_sigmoid(z):
    """The sigmoid as formerly written: one exponential per sign, scattered by masks."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class TestActivations:
    GRID = np.concatenate([
        [0.0, 1e-300, -1e-300, 5e-324, -5e-324, 37.0, -37.0, 745.0, -745.0,
         800.0, -800.0, 1e300, -1e300],
        np.linspace(-800.0, 800.0, 40001),
    ])

    @staticmethod
    def _assert_relative(got, ref, rtol):
        assert got.shape == ref.shape
        assert np.all(np.abs(got - ref) <= rtol * np.abs(ref))

    def test_softplus_matches_logaddexp(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="warn", under="ignore"):
                got = _softplus(self.GRID)
        self._assert_relative(got, np.logaddexp(0.0, self.GRID), 4.5e-16)

    def test_sigmoid_matches_masked_formula(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="warn", under="ignore"):
                got = _sigmoid(self.GRID)
        self._assert_relative(got, _masked_sigmoid(self.GRID), 4.5e-16)

    def test_sigmoid_is_the_derivative_of_softplus(self):
        z = np.linspace(-30.0, 30.0, 601)
        h = 1e-5
        fd = (_softplus(z + h) - _softplus(z - h)) / (2 * h)
        np.testing.assert_allclose(_sigmoid(z), fd, rtol=1e-8, atol=1e-10)


class TestParametricFamily:
    def test_polynomial_feature_count(self):
        nd = kl.parametric_family("polynomial", state_dim=2, input_dim=1,
                                  s=7, l=4, total_degree=2, seed=0)
        assert len(_monomial_exponents(2, 2)) == 6
        # 2 trained H rows x 6 state features + 12 Gtilde entries x 3 input features
        assert nd.n_params == 2 * 6 + 12 * 3

    def test_fixed_head_rows_are_state(self):
        nd = kl.parametric_family("polynomial", state_dim=2, input_dim=1,
                                  s=7, l=4, total_degree=2, seed=0)
        rng = np.random.default_rng(11)
        Z = _random_aug(rng)
        Phi = nd.eval_aug(Z)
        np.testing.assert_allclose(Phi[:2], Z[:2], rtol=0, atol=1e-14)

    def test_gradient_matches_finite_differences(self):
        """Parameter gradient of a scalar readout against central differences."""
        rng = np.random.default_rng(12)
        Z = _random_aug(rng, N=12)
        w = rng.normal(size=7)
        nd = kl.parametric_family("polynomial", state_dim=2, input_dim=1,
                                  s=7, l=4, total_degree=2, seed=3)
        base = nd.get_params()
        Wbar = np.tile(w[:, None], (1, Z.shape[1]))

        def readout(theta):
            nd.set_params(theta)
            return float(np.sum(w[:, None] * nd.eval_aug(Z)))

        for _ in range(10):
            theta = base + rng.normal(size=base.size) * 0.3
            nd.set_params(theta)
            nd.eval_aug(Z)
            grad = nd.vjp_aug(Z, Wbar)
            step = 1e-5
            for idx in rng.choice(theta.size, size=6, replace=False):
                ep = np.zeros_like(theta)
                ep[idx] = step
                fd = (readout(theta + ep) - readout(theta - ep)) / (2 * step)
                denom = max(abs(fd), abs(grad[idx]), 1e-8)
                assert abs(fd - grad[idx]) / denom <= 1e-4

    def test_full_size_architecture_constructs(self):
        nd = kl.parametric_family("residual_mlp", state_dim=2, input_dim=1,
                                  s=20, l=4, blocks=5, width=64, seed=0)
        Z = _random_aug(np.random.default_rng(13), N=4)
        assert nd.eval_aug(Z).shape == (20, 4)

    def test_config_errors(self):
        with pytest.raises(ConfigError):
            kl.parametric_family("polynomial", state_dim=2, input_dim=1,
                                 s=3, l=4, total_degree=2)
        with pytest.raises(ConfigError):
            kl.parametric_family("polynomial", state_dim=2, input_dim=1,
                                 s=7, l=4)
        with pytest.raises(ConfigError):
            kl.parametric_family("whatnot", state_dim=2, input_dim=1,
                                 s=7, l=4)
        with pytest.raises(ConfigError):
            kl.parametric_family("mlp", state_dim=2, input_dim=1,
                                 s=7, l=4, widths=[0])
        with pytest.raises(ConfigError, match="'total_degree' must be an integer"):
            kl.parametric_family("polynomial", state_dim=2, input_dim=1,
                                 s=7, l=4, total_degree=2.7)
        with pytest.raises(ConfigError, match="takes no 'widths' key"):
            kl.parametric_family("polynomial", state_dim=2, input_dim=1,
                                 s=7, l=4, total_degree=2, widths=[3])

    def test_deterministic_initialization(self):
        a = kl.parametric_family("mlp", state_dim=2, input_dim=1,
                                 s=6, l=3, widths=[8, 8], seed=42)
        b = kl.parametric_family("mlp", state_dim=2, input_dim=1,
                                 s=6, l=3, widths=[8, 8], seed=42)
        np.testing.assert_array_equal(a.get_params(), b.get_params())


class TestParameterVector:
    """``theta`` is the one store of a trainable dictionary's weights."""

    @staticmethod
    def _family():
        return kl.parametric_family("residual_mlp", state_dim=2, input_dim=1, s=9, l=4,
                                    blocks=2, width=8, seed=4)

    @staticmethod
    def _batch(rng, N=40):
        Z = _random_aug(rng, N=N)
        Zplus = np.vstack([rng.uniform(-1, 1, (2, N)), Z[2:]])
        return kl.AugmentedSnapshots(Z=Z, Zplus=Zplus, state_dim=2, input_dim=1)

    def test_adam_step_in_place_equals_set_params(self):
        """An Adam step on ``theta`` changes evaluation and gradient as ``set_params`` does."""
        from kooplift.learning import _Adam, _adam_update, loss_gradient

        batch = self._batch(np.random.default_rng(15))
        edited, reference = self._family(), self._family()
        _, grad = loss_gradient(edited, batch)
        zeros = np.zeros(edited.n_params)
        _adam_update(_Adam(zeros.copy(), zeros.copy()), edited.theta, grad, 1e-2)
        theta = reference.get_params()
        _adam_update(_Adam(zeros.copy(), zeros.copy()), theta, grad, 1e-2)
        reference.set_params(theta)
        assert not np.array_equal(edited.get_params(), self._family().get_params())
        np.testing.assert_array_equal(edited.eval_aug(batch.Z), reference.eval_aug(batch.Z))
        for a, b in zip(loss_gradient(edited, batch), loss_gradient(reference, batch)):
            np.testing.assert_array_equal(a, b)

    def test_scaled_copy_sees_the_edit(self):
        Z = _random_aug(np.random.default_rng(16))
        nd, reference = self._family(), self._family()
        scaled = nd.with_input_scaling([2.0, 0.5], [1.5])
        nd.theta *= 1.25
        reference.set_params(reference.get_params() * 1.25)
        np.testing.assert_array_equal(scaled.get_params(), reference.get_params())
        np.testing.assert_array_equal(
            scaled.eval_aug(Z), reference.with_input_scaling([2.0, 0.5], [1.5]).eval_aug(Z))

    def test_get_params_is_a_copy(self):
        Z = _random_aug(np.random.default_rng(17))
        nd = self._family()
        before, saved = nd.eval_aug(Z), nd.theta.copy()
        nd.get_params()[:] += 1.0
        np.testing.assert_array_equal(nd.theta, saved)
        np.testing.assert_array_equal(nd.eval_aug(Z), before)

    def test_set_params_checks_the_length(self):
        nd = self._family()
        with pytest.raises(DimensionMismatch, match=f"expected {nd.n_params} parameters, got 3"):
            nd.set_params(np.zeros(3))


class TestSerialization:
    def test_builtin_round_trip(self, poly_basis, tmp_path):
        obj = kl.dictionary_to_json(poly_basis)
        assert obj["kind"] == "example_poly_basis"
        nd2 = kl.dictionary_from_json(json.loads(json.dumps(obj)))
        rng = np.random.default_rng(14)
        Z = _random_aug(rng)
        np.testing.assert_array_equal(poly_basis.eval_aug(Z), nd2.eval_aug(Z))

    @pytest.mark.parametrize("kind", sorted(set(FAMILIES) - {"example_poly_basis"}))
    def test_every_family_builds_from_its_required_keys(self, kind):
        """Each parametric kind of the table builds from its required keys and round-trips."""
        examples = {"total_degree": 2, "widths": [5], "blocks": 1, "width": 5}
        required = {key: examples[key] for key, (_, default) in FAMILIES[kind].items()
                    if default is ...}
        nd = kl.parametric_family(kind, state_dim=2, input_dim=1, s=7, l=4, **required)
        obj = kl.dictionary_to_json(nd)
        nd2 = kl.dictionary_from_json(json.loads(json.dumps(obj)))
        assert kl.dictionary_to_json(nd2) == obj
        Z = _random_aug(np.random.default_rng(15))
        np.testing.assert_array_equal(nd.eval_aug(Z), nd2.eval_aug(Z))

    def test_truncated_builtin_round_trip(self):
        nd = kl.example_poly_normal_basis(truncate=("sin(u)", "u^2"))
        nd2 = kl.dictionary_from_json(kl.dictionary_to_json(nd))
        assert nd2.s == nd.s
        Z = _random_aug(np.random.default_rng(15))
        np.testing.assert_array_equal(nd.eval_aug(Z), nd2.eval_aug(Z))

    def test_parametric_round_trip_with_scaling(self, tmp_path):
        nd = kl.parametric_family("polynomial", state_dim=2, input_dim=1,
                                  s=7, l=4, total_degree=2, seed=7)
        nd = nd.with_input_scaling([2.0, 0.5], [1.5])
        path = tmp_path / "dict.json"
        kl.save_dictionary(nd, path)
        nd2 = kl.load_dictionary(path)
        Z = _random_aug(np.random.default_rng(16))
        np.testing.assert_allclose(nd.eval_aug(Z), nd2.eval_aug(Z),
                                   rtol=0, atol=1e-14)

    def test_rejects_foreign_json(self):
        with pytest.raises(ConfigError):
            kl.dictionary_from_json({"format": "something-else"})
