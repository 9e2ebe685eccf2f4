"""Tests for EDMD fits, the consistency index, and its certificate."""

import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

import kooplift as kl
from kooplift.dynamics import AugmentedSnapshots
from kooplift.edmd import CHUNK, PINV_CUTOFF
from kooplift.errors import DegenerateData, RankWarning


def _relative_error(w, P, Q):
    """Worst-case functional: ||w'Q - w'K_F P|| / ||w'Q|| on the data."""
    K_F = Q @ np.linalg.pinv(P)
    num = np.linalg.norm(w @ Q - (w @ K_F) @ P)
    den = np.linalg.norm(w @ Q)
    return num / den


class TestFitEdmd:
    def test_identity_dynamics(self):
        rng = np.random.default_rng(0)
        P = rng.normal(size=(4, 50))
        fit = kl.fit_edmd(P, P)
        np.testing.assert_allclose(fit.K, np.eye(4), atol=1e-10)

    def test_scalar_multiple(self):
        rng = np.random.default_rng(1)
        P = rng.normal(size=(4, 50))
        fit = kl.fit_edmd(P, 2.0 * P)
        np.testing.assert_allclose(fit.K, 2.0 * np.eye(4), atol=1e-10)

    def test_normal_equation_oracle(self):
        rng = np.random.default_rng(2)
        P = rng.normal(size=(4, 50))
        Q = rng.normal(size=(4, 50))
        fit = kl.fit_edmd(P, Q)
        K_ne = (Q @ P.T) @ np.linalg.inv(P @ P.T)
        np.testing.assert_allclose(fit.K, K_ne, atol=1e-10)

    def test_zero_data_degenerate(self):
        with pytest.raises(DegenerateData):
            kl.fit_edmd(np.zeros((3, 10)), np.ones((3, 10)))

    def test_rank_deficiency_warns_not_errors(self):
        rng = np.random.default_rng(3)
        P = rng.normal(size=(3, 20))
        P[2] = P[0] + P[1]
        with pytest.warns(RankWarning):
            fit = kl.fit_edmd(P, P)
        assert not fit.rank_report["row_rank_ok_X"]
        # pseudo-inverse solution still reproduces the data map
        np.testing.assert_allclose(fit.K @ P, P, atol=1e-8)


class TestConsistencyIndex:
    def test_invariant_dictionary_near_zero(self, poly_basis, poly_augmented):
        report = kl.invariance_proximity(poly_basis, poly_augmented)
        assert report.index <= 1e-10
        assert report.sqrt_index <= 1e-5

    def test_basis_invariance(self):
        rng = np.random.default_rng(4)
        P = rng.normal(size=(5, 80))
        Q = P + 0.05 * rng.normal(size=(5, 80))
        base = kl.consistency_index(P, Q).index
        for _ in range(5):
            while True:
                M = rng.normal(size=(5, 5))
                if np.linalg.cond(M) <= 1e3:
                    break
            other = kl.consistency_index(M @ P, M @ Q).index
            assert abs(other - base) <= 1e-9

    def test_certificate_beats_monte_carlo(self):
        """worst_coeffs attains sqrt_index; no sampled vector exceeds it."""
        rng = np.random.default_rng(5)
        for _ in range(5):
            s, N = 5, 70
            P = rng.normal(size=(s, N))
            Q = P + 0.1 * rng.normal(size=(s, N))
            rep = kl.consistency_index(P, Q)
            achieved = _relative_error(rep.worst_coeffs, P, Q)
            assert abs(achieved - rep.sqrt_index) <= 1e-8
            for _ in range(2000):
                w = rng.normal(size=s)
                assert _relative_error(w, P, Q) <= rep.sqrt_index + 1e-8

    def test_trace_sandwich_and_clamp(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            s = int(rng.integers(2, 6))
            N = int(rng.integers(4 * s, 80))
            P = rng.normal(size=(s, N))
            Q = P + rng.uniform(0, 0.5) * rng.normal(size=(s, N))
            rep = kl.consistency_index(P, Q)
            assert 0.0 <= rep.index <= 1.0
            assert rep.pre_clamp_index <= 1.0 + 1e-10
            assert rep.trace_lower <= rep.index + 1e-12
            assert rep.index <= rep.trace_upper + 1e-12

    def test_eigenvalues_sorted_and_clamped(self):
        rng = np.random.default_rng(7)
        P = rng.normal(size=(4, 50))
        Q = P + 0.2 * rng.normal(size=(4, 50))
        rep = kl.consistency_index(P, Q)
        eigs = rep.eigenvalues
        assert np.all(np.diff(eigs) <= 1e-15)
        assert np.all((eigs >= 0.0) & (eigs <= 1.0))
        assert rep.index == eigs[0]

    def test_brute_force_spectrum_agreement(self):
        """Sine-route eigenvalues match eig(I - K_F K_B) directly."""
        rng = np.random.default_rng(8)
        for _ in range(10):
            s, N = 4, 60
            P = rng.normal(size=(s, N))
            Q = P + 0.3 * rng.normal(size=(s, N))
            rep = kl.consistency_index(P, Q)
            K_F = Q @ np.linalg.pinv(P)
            K_B = P @ np.linalg.pinv(Q)
            brute = np.max(np.real(np.linalg.eigvals(np.eye(s) - K_F @ K_B)))
            assert abs(rep.index - brute) <= 1e-9

    def test_rank_deficiency_flagged_advisory(self):
        rng = np.random.default_rng(9)
        P = rng.normal(size=(3, 20))
        P[2] = P[0]
        with pytest.warns(RankWarning):
            rep = kl.consistency_index(P, P.copy())
        assert rep.advisory

    def test_degenerate_data(self):
        with pytest.raises(DegenerateData):
            kl.consistency_index(np.zeros((3, 5)), np.zeros((3, 5)))


class TestInvarianceProximity:
    def test_truncated_basis_clearly_non_invariant(self, poly_augmented):
        nd = kl.example_poly_normal_basis(truncate=("u^2",))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = kl.invariance_proximity(nd, poly_augmented)
        assert rep.sqrt_index > 0.01

    def test_proximity_in_unit_interval(self, poly_augmented):
        for drop in (("sin(u)",), ("u^2", "sin(u)"), ("x1*u",)):
            nd = kl.example_poly_normal_basis(truncate=drop)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                rep = kl.invariance_proximity(nd, poly_augmented)
            assert 0.0 <= rep.sqrt_index <= 1.0


class TestPredictFunction:
    def test_row_readout(self):
        rng = np.random.default_rng(11)
        P = rng.normal(size=(4, 40))
        Q = rng.normal(size=(4, 40))
        fit = kl.fit_edmd(P, Q)
        z = rng.normal(size=4)
        for i in range(4):
            w = np.zeros(4)
            w[i] = 1.0
            assert kl.predict_function(fit, w, z) == pytest.approx(
                float(fit.K[i] @ z), rel=1e-14)

    def test_linearity_in_coefficients(self):
        rng = np.random.default_rng(12)
        P = rng.normal(size=(4, 40))
        fit = kl.fit_edmd(P, rng.normal(size=(4, 40)))
        w1, w2 = rng.normal(size=(2, 4))
        z = rng.normal(size=4)
        lhs = kl.predict_function(fit, 2.0 * w1 - 3.0 * w2, z)
        rhs = 2.0 * kl.predict_function(fit, w1, z) - 3.0 * kl.predict_function(fit, w2, z)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_exact_composition_on_invariant_subspace(
            self, poly_system, poly_basis, poly_augmented):
        P = poly_basis.eval_aug(poly_augmented.Z)
        Q = poly_basis.eval_aug(poly_augmented.Zplus)
        fit = kl.fit_edmd(P, Q)
        rng = np.random.default_rng(13)
        w = rng.normal(size=8)
        for _ in range(100):
            j = int(rng.integers(poly_augmented.n_snapshots))
            z = poly_augmented.Z[:, j]
            x_next = poly_augmented.Zplus[:2, j]
            want = float(w @ poly_basis.eval(x_next, z[2:]))
            got = kl.predict_function(fit, w, poly_basis.eval(z[:2], z[2:]))
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


class TestProjectionResidual:
    def test_invariant_residual_zero(self, poly_basis, poly_augmented):
        P = poly_basis.eval_aug(poly_augmented.Z)
        Q = poly_basis.eval_aug(poly_augmented.Zplus)
        fit = kl.fit_edmd(P, Q)
        R, norms = kl.projection_residual(fit, P, Q)
        assert np.max(norms) <= 1e-9

    def test_basis_dependence_of_residual(self):
        """Row scaling changes the residual norm but not the index."""
        rng = np.random.default_rng(14)
        P = rng.normal(size=(4, 60))
        Q = P + 0.2 * rng.normal(size=(4, 60))
        fit = kl.fit_edmd(P, Q)
        R, _ = kl.projection_residual(fit, P, Q)
        D = np.diag([10.0, 1.0, 0.1, 1.0])
        fit_s = kl.fit_edmd(D @ P, D @ Q)
        R_s, _ = kl.projection_residual(fit_s, D @ P, D @ Q)
        assert abs(np.linalg.norm(R) - np.linalg.norm(R_s)) > 1e-6
        idx = kl.consistency_index(P, Q).index
        idx_s = kl.consistency_index(D @ P, D @ Q).index
        assert abs(idx - idx_s) <= 1e-9

    def test_least_squares_optimality(self):
        rng = np.random.default_rng(15)
        P = rng.normal(size=(4, 60))
        Q = P + 0.2 * rng.normal(size=(4, 60))
        fit = kl.fit_edmd(P, Q)
        R, _ = kl.projection_residual(fit, P, Q)
        base = np.linalg.norm(R)
        for _ in range(20):
            Delta = 1e-3 * rng.normal(size=(4, 4))
            perturbed = np.linalg.norm(Q - (fit.K + Delta) @ P)
            assert perturbed >= base - 1e-12


# ----------------------------------------------------------------------
# The QR kernel against the SVD route it replaced


def _svd_pinv(A, cutoff=PINV_CUTOFF):
    U, sv, Vt = np.linalg.svd(A, full_matrices=False)
    keep = sv > cutoff * (sv[0] if sv.size else 0.0)
    inv = np.zeros_like(sv)
    inv[keep] = 1.0 / sv[keep]
    return (Vt.T * inv) @ U.T


def _svd_route(P, Q, cutoff=PINV_CUTOFF):
    """The consistency index from thin SVDs of P, Q and the N x s sine matrix."""
    s = P.shape[0]
    Up, sp, Vpt = np.linalg.svd(P, full_matrices=False)
    Uq, sq, Vqt = np.linalg.svd(Q, full_matrices=False)
    rank_p = int(np.sum(sp > cutoff * sp[0]))
    rank_q = int(np.sum(sq > cutoff * sq[0]))
    Vp, Vq = Vpt[:rank_p].T, Vqt[:rank_q].T
    _, sines, Bt = np.linalg.svd(Vq - Vp @ (Vp.T @ Vq), full_matrices=False)
    within = sines**2
    eigs = np.concatenate([within, np.ones(s - rank_q)])
    cand = np.flatnonzero(within >= within.max() - 1e-12)
    return {
        "index": float(np.clip(eigs, 0.0, 1.0).max()),
        "pre_clamp_index": float(eigs.max()),
        "eigenvalues": np.sort(np.clip(eigs, 0.0, 1.0))[::-1],
        "worst_coeffs": [Uq[:, :rank_q] @ (Bt[i] / sq[:rank_q]) for i in cand],
        "K_F": Q @ _svd_pinv(P, cutoff),
        "K_B": P @ _svd_pinv(Q, cutoff),
        "rank_ok": (rank_p == s, rank_q == s),
    }


def _kernel_cases():
    rng = np.random.default_rng(40)
    cases = []
    for kind in ("full rank", "rank-deficient P", "rank-deficient Q", "N < 2s"):
        for _ in range(25):
            s = int(rng.integers(2, 8))
            N = int(rng.integers(s, 2 * s)) if kind == "N < 2s" else int(rng.integers(2 * s + 1, 80))
            P = rng.normal(size=(s, N))
            Q = P + rng.uniform(0.0, 0.5) * rng.normal(size=(s, N))
            if kind == "rank-deficient P":
                P[-1] = P[0] - 2.0 * P[1 % (s - 1)]
            elif kind == "rank-deficient Q":
                Q[-1] = 3.0 * Q[0]
            cases.append((kind, P, Q))
    return cases


_CASES = _kernel_cases()
_BOTTOM_ROWS = ("x1*u", "u", "u^2", "sin(u)")
_TRUNCATIONS = [t for r in range(len(_BOTTOM_ROWS) + 1)
                for t in itertools.combinations(_BOTTOM_ROWS, r)]


def _assert_matches_svd_route(P, Q):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RankWarning)
        rep = kl.consistency_index(P, Q)
        fit = kl.fit_edmd(P, Q)
    ref = _svd_route(P, Q)
    assert (rep.rank_flags["row_rank_ok_X"], rep.rank_flags["row_rank_ok_Xplus"]) == ref["rank_ok"]
    assert abs(rep.index - ref["index"]) <= 1e-13
    assert abs(rep.pre_clamp_index - ref["pre_clamp_index"]) <= 1e-13
    np.testing.assert_allclose(rep.eigenvalues, ref["eigenvalues"], rtol=0, atol=1e-13)
    for got, want in ((rep.K_F, ref["K_F"]), (rep.K_B, ref["K_B"])):
        assert np.linalg.norm(got - want) <= 1e-12 * max(1.0, np.linalg.norm(want))
    np.testing.assert_array_equal(fit.K, rep.K_F)
    np.testing.assert_array_equal(rep.fit.K, fit.K)
    assert rep.fit.rank_report == fit.rank_report == rep.rank_flags
    # With N <= 2s, or a tied top sine (the rank-deficient-Q cases have an
    # exact one), another maximizer may be picked; it attains the index.
    top = ref["eigenvalues"]
    if P.shape[1] > 2 * P.shape[0] and (top.size < 2 or top[0] - top[1] > 1e-8):
        # Up to sign, against one of the reference's tied maximizers.
        w = rep.worst_coeffs
        assert min(min(np.linalg.norm(w - c / np.linalg.norm(c)),
                       np.linalg.norm(w + c / np.linalg.norm(c)))
                   for c in ref["worst_coeffs"]) <= 1e-8
    else:
        assert abs(_relative_error(rep.worst_coeffs, P, Q) - rep.sqrt_index) <= 1e-8


class TestQrKernel:
    @pytest.mark.parametrize("case", range(len(_CASES)),
                             ids=[f"{kind}-{i}" for i, (kind, _, _) in enumerate(_CASES)])
    def test_random_cases_match_svd_route(self, case):
        _assert_matches_svd_route(*_CASES[case][1:])

    @pytest.mark.parametrize("truncate", _TRUNCATIONS)
    def test_example_basis_truncations_match_svd_route(self, poly_augmented, truncate):
        _assert_matches_svd_route(*kl.example_poly_normal_basis(truncate=truncate)
                                  .eval_pair(poly_augmented))

    def test_invariant_basis_floor_no_higher(self, poly_basis, poly_augmented):
        P, Q = poly_basis.eval_pair(poly_augmented)
        rep = kl.consistency_index(P, Q)
        ref = _svd_route(P, Q)
        assert rep.sqrt_index <= max(np.sqrt(ref["index"]), 1.5e-13)
        assert not rep.advisory

    def test_one_factorization_of_the_data(self, monkeypatch):
        rng = np.random.default_rng(41)
        P = rng.normal(size=(6, 500))
        Q = P + 0.1 * rng.normal(size=(6, 500))
        calls = []
        for name in ("svd", "svdvals", "qr", "pinv", "lstsq", "eig", "eigh", "eigvals"):
            fn = getattr(np.linalg, name, None)
            if fn is None:
                continue

            def counting(a, *args, _fn=fn, _name=name, **kwargs):
                calls.append((_name, np.shape(a)))
                return _fn(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        kl.consistency_index(P, Q)
        data_sized = [c for c in calls if max(c[1]) >= P.shape[1]]
        assert data_sized == [("qr", (500, 12))]
        assert all(max(shape) <= 12 for _, shape in calls[1:])


# ----------------------------------------------------------------------
# The streamed R against the one-shot kernel


def _poly_data(N, seed=0):
    """``N`` snapshots of the polynomial example at uniform states and inputs."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(2, N))
    U = rng.uniform(-1, 1, size=(1, N))
    Xp = kl.example_poly().step_map(X, U)
    return AugmentedSnapshots(Z=np.vstack([X, U]), Zplus=np.vstack([Xp, U]),
                              state_dim=2, input_dim=1)


# Without the sin(u) row the basis is not invariant: a non-trivial index.
_STREAM_ND = kl.example_poly_normal_basis(truncate=("sin(u)",))


def _assert_stream_matches_one_shot(nd, aug):
    P, Q = nd.eval_pair(aug)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RankWarning)
        want = kl.consistency_index(P, Q)
        got = kl.invariance_proximity(nd, aug)
    for key in ("row_rank_ok_X", "row_rank_ok_Xplus"):
        assert got.rank_flags[key] == want.rank_flags[key]
    assert abs(got.index - want.index) <= 1e-13
    assert abs(got.pre_clamp_index - want.pre_clamp_index) <= 1e-13
    np.testing.assert_allclose(got.eigenvalues, want.eigenvalues, rtol=0, atol=1e-13)
    for g, w in ((got.K_F, want.K_F), (got.K_B, want.K_B)):
        assert np.linalg.norm(g - w) <= 1e-12 * max(1.0, np.linalg.norm(w))
    w = got.worst_coeffs
    if min(np.linalg.norm(w - want.worst_coeffs), np.linalg.norm(w + want.worst_coeffs)) > 1e-8:
        assert abs(_relative_error(w, P, Q) - got.sqrt_index) <= 1e-8


class TestStream:
    @pytest.mark.parametrize("N", [1, 2 * _STREAM_ND.s - 1, CHUNK - 1, CHUNK, CHUNK + 1,
                                   2 * CHUNK + 7])
    def test_matches_the_one_shot_kernel(self, N):
        _assert_stream_matches_one_shot(_STREAM_ND, _poly_data(N))

    def test_non_finite_last_chunk_raises(self):
        aug = _poly_data(2 * CHUNK + 7)
        aug.Zplus[1, -1] = np.nan
        last = 2 * CHUNK + 6
        with pytest.raises(DegenerateData, match=rf"Psi\(Xplus\) is not finite at snapshot {last}"):
            kl.invariance_proximity(_STREAM_ND, aug)

    def test_zero_first_chunk_is_not_degenerate(self):
        # A head-only dictionary with no constant row vanishes at the origin.
        H = kl.StateDictionary(dim=3, fn=lambda x: np.array([x[0], x[1], x[0] * x[1]]),
                               names=("x1", "x2", "x1*x2"), domain_dim=2)
        nd = kl.NormalDictionary(H, None, state_dim=2, input_dim=1)
        aug = _poly_data(2 * CHUNK + 7)
        aug.Z[:, :CHUNK] = 0.0
        aug.Zplus[:, :CHUNK] = 0.0
        _assert_stream_matches_one_shot(nd, aug)

    def test_no_factored_operand_taller_than_a_chunk(self, monkeypatch):
        aug = _poly_data(3 * CHUNK)
        heights = []
        for name in ("svd", "svdvals", "qr", "pinv", "lstsq", "eig", "eigh", "eigvals"):
            fn = getattr(np.linalg, name, None)
            if fn is None:
                continue

            def recording(a, *args, _fn=fn, **kwargs):
                heights.append(np.shape(a)[0])
                return _fn(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recording)
        kl.invariance_proximity(_STREAM_ND, aug)
        assert heights.count(CHUNK) == 3
        assert max(heights) == CHUNK

    def test_memory_does_not_grow_with_the_snapshot_count(self):
        peaks = []
        for N in (5_000, 50_000):
            aug = _poly_data(N)
            tracemalloc.start()
            try:
                kl.invariance_proximity(_STREAM_ND, aug)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # One evaluation of P alone at 50 000 snapshots is 2.8 MB.
        assert peaks[1] <= 1.05 * peaks[0] < 1e6

    def test_non_finite_in_memory_data_is_named(self):
        P, Q = _STREAM_ND.eval_pair(_poly_data(50))
        Q[2, 17] = np.inf
        with pytest.raises(DegenerateData, match=r"Psi\(Xplus\) is not finite at snapshot 17"):
            kl.consistency_index(P, Q)
        with pytest.raises(DegenerateData, match=r"Psi\(X\) is not finite at snapshot 17"):
            kl.fit_edmd(Q, P)
