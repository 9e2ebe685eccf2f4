"""Acceptance suite: one test per release criterion, plus determinism.

Each criterion is implemented as a deterministic compute function that
returns a JSON-ready metrics dict; its test asserts the stated
tolerances and prints one pass/fail line.  The final test re-runs every
compute with identical seeds and compares the serialized metric files
byte for byte.
"""

import dataclasses
import json
import time
import warnings

import numpy as np
import pytest

import kooplift as kl
from kooplift.learning import TrainConfig, pipeline
from kooplift.models import (BilinearLiftedModel, bilinear_as_separable,
                             extract_normal, extract_pseudoinverse,
                             head_dictionary, switched_from_constant_inputs)
from kooplift.observables import StateDictionary, parametric_family


def _poly_hand_lifted(p):
    """Exact 8x8 one-step matrix on [x1,x2,x1^2,1,x1*u,u,u^2,sin(u)]."""
    a, b, c, d = p["a"], p["b"], p["c"], p["d"]
    e, f, g, h = p["e"], p["f"], p["g"], p["h"]
    return np.array([
        [a, 0, 0, 0, 0, b, 0, 0],
        [0, c, d, h, e, f, 0, g],
        [0, 0, a * a, 0, 2 * a * b, 0, b * b, 0],
        [0, 0, 0, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, a, 0, b, 0],
        [0, 0, 0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 0, 0, 1],
    ], dtype=float)


def _poly_hand_transition(p, u):
    """Exact 4x4 input-dependent transition on the state block."""
    a, b, c, d = p["a"], p["b"], p["c"], p["d"]
    e, f, g, h = p["e"], p["f"], p["g"], p["h"]
    return np.array([
        [a, 0.0, 0.0, b * u],
        [e * u, c, d, f * u + g * np.sin(u) + h],
        [2 * a * b * u, 0.0, a * a, (b * u) ** 2],
        [0.0, 0.0, 0.0, 1.0],
    ])


def _relative_errors(W, P, Q, K_F):
    """Row-wise relative one-step errors ||wQ - wK_F P|| / ||wQ||."""
    W = np.atleast_2d(W)
    num = np.linalg.norm(W @ Q - (W @ K_F) @ P, axis=1)
    den = np.linalg.norm(W @ Q, axis=1)
    return num / den


def _poly_data(seed=7):
    system = kl.example_poly()
    plan = kl.ExperimentPlan(num_experiments=200, steps_per_experiment=10,
                             rng_seed=seed)
    ss = kl.run_experiments(system, plan)
    return system, ss, kl.to_augmented(ss)


# ----------------------------------------------------------------------
# Criterion computes


def _compute_c1():
    t0 = time.perf_counter()
    system, ss, aug = _poly_data()
    nd = kl.example_poly_normal_basis()
    P = nd.eval_aug(aug.Z)
    Q = nd.eval_aug(aug.Zplus)
    fit = kl.fit_edmd(P, Q)
    rep = kl.consistency_index(P, Q)
    model = extract_normal(fit, nd, source_index=rep)

    K_err = float(np.max(np.abs(fit.K - _poly_hand_lifted(system.params))))
    A_errs = {}
    for u in (-1.0, 0.0, 0.5, 2.0):
        want = _poly_hand_transition(system.params, u)
        A_errs[repr(u)] = float(np.max(np.abs(model.A_of([u]) - want)))
    return {
        "n_snapshots": int(aug.n_snapshots),
        "K_max_abs_err": K_err,
        "proximity": float(rep.sqrt_index),
        "A_of_max_abs_err": A_errs,
        "runtime_s_budget": 5.0,
        "_runtime": time.perf_counter() - t0,
    }


def _compute_c2():
    t0 = time.perf_counter()
    rng = np.random.default_rng(100)
    cases = []
    for _ in range(20):
        s = int(rng.integers(2, 7))
        N = int(rng.integers(8 * s, 201))
        P = rng.normal(size=(s, N))
        Q = P + rng.uniform(0.05, 0.5) * rng.normal(size=(s, N))
        rep = kl.consistency_index(P, Q)
        K_F = Q @ np.linalg.pinv(P)
        cert = float(_relative_errors(rep.worst_coeffs, P, Q, K_F)[0])
        W = rng.normal(size=(10_000, s))
        mc = _relative_errors(W, P, Q, K_F)
        cases.append({
            "s": s,
            "N": N,
            "sqrt_index": float(rep.sqrt_index),
            "cert_gap": float(abs(cert - rep.sqrt_index)),
            "mc_excess": float(np.max(mc) - rep.sqrt_index),
        })
    return {
        "cases": cases,
        "runtime_s_budget": 30.0,
        "_runtime": time.perf_counter() - t0,
    }


def _compute_c3():
    rng = np.random.default_rng(200)
    worst = {"pre_clamp_excess": 0.0, "basis_dev": 0.0, "sandwich_slack": 0.0}
    in_unit = True
    for _ in range(50):
        s = int(rng.integers(2, 6))
        N = int(rng.integers(6 * s, 120))
        P = rng.normal(size=(s, N))
        Q = P + rng.uniform(0.0, 0.6) * rng.normal(size=(s, N))
        rep = kl.consistency_index(P, Q)
        in_unit = in_unit and 0.0 <= rep.index <= 1.0
        excess = max(rep.pre_clamp_index - 1.0, -rep.pre_clamp_index, 0.0)
        worst["pre_clamp_excess"] = max(worst["pre_clamp_excess"], float(excess))
        worst["sandwich_slack"] = max(
            worst["sandwich_slack"],
            float(rep.trace_lower - rep.index),
            float(rep.index - rep.trace_upper),
        )
        for _ in range(5):
            while True:
                M = rng.normal(size=(s, s))
                if np.linalg.cond(M) <= 1e3:
                    break
            other = kl.consistency_index(M @ P, M @ Q)
            worst["basis_dev"] = max(worst["basis_dev"],
                                     float(abs(other.index - rep.index)))
    return {"index_always_in_unit_interval": bool(in_unit), **worst}


def _compute_c4():
    _, _, aug = _poly_data()
    nd = kl.example_poly_normal_basis(truncate=("x1*u", "u", "u^2", "sin(u)"))
    P = nd.eval_aug(aug.Z)
    Q = nd.eval_aug(aug.Zplus)
    fit = kl.fit_edmd(P, Q)
    rep = kl.consistency_index(P, Q)
    model = extract_normal(fit, nd, source_index=rep)

    rng = np.random.default_rng(300)
    H_mat = rng.normal(size=(1000, 4))
    # the certificate direction rides along so the bound is attained
    W = np.vstack([H_mat, rep.worst_coeffs[None, :]])
    K_F = Q @ np.linalg.pinv(P)
    rel = _relative_errors(W, P, Q, K_F)
    keep = np.linalg.norm(W @ Q, axis=1) > 1e-12
    rel = rel[keep]
    return {
        "source_index": float(model.source_index),
        "n_functions": int(rel.size),
        "max_excess_over_bound": float(np.max(rel) - model.source_index),
        "closest_gap_to_bound": float(np.min(model.source_index - rel)),
    }


def _compute_c5():
    system, ss, aug = _poly_data()
    nd = kl.example_poly_normal_basis()
    P = nd.eval_aug(aug.Z)
    Q = nd.eval_aug(aug.Zplus)
    fit = kl.fit_edmd(P, Q)
    model = extract_normal(fit, nd)

    rng = np.random.default_rng(400)
    cross = 0.0
    for u in rng.uniform(-1, 1, size=20):
        A_pinv = extract_pseudoinverse(fit.K, nd, [u])
        cross = max(cross, float(np.max(np.abs(A_pinv - model.A_of([u])))))

    switched_dev = 0.0
    psi = head_dictionary(nd)
    subsets = []
    for u in (-1.0, 0.0, 0.5):
        X = np.vstack([rng.uniform(-2, 2, size=60),
                       rng.uniform(-8, 8, size=60)])
        Xplus = np.column_stack(
            [system.step_map(X[:, j], np.array([u])) for j in range(60)])
        subsets.append(([u], kl.SnapshotSet(X=X, Xplus=Xplus,
                                            U=np.full((1, 60), u))))
    switched = switched_from_constant_inputs(psi, subsets)
    for u in (-1.0, 0.0, 0.5):
        switched_dev = max(switched_dev, float(np.max(np.abs(
            switched.matrix_at([u]) - model.A_of([u])))))

    ident = StateDictionary(dim=2, fn=lambda x: np.asarray(x, dtype=float),
                            names=("x1", "x2"), domain_dim=2)
    bil = BilinearLiftedModel(
        psi=ident,
        A=rng.normal(size=(2, 2)),
        Bs=(rng.normal(size=(2, 2)),),
        C=rng.normal(size=(2, 1)),
    )
    sep = bilinear_as_separable(bil)
    embed_dev = 0.0
    for _ in range(100):
        x = rng.uniform(-2, 2, size=2)
        u = rng.uniform(-1, 1, size=1)
        want = bil.step_lifted(ident(x), u)
        got = (sep.A_of(u) @ sep.lift(x))[:2]
        embed_dev = max(embed_dev, float(np.max(np.abs(got - want))))
    return {
        "cross_extraction_max_dev": cross,
        "switched_max_dev": switched_dev,
        "bilinear_embedding_max_dev": embed_dev,
    }


def _compute_c6():
    from kooplift.learning import loss, loss_gradient

    _, _, aug = _poly_data()
    batch = kl.AugmentedSnapshots(Z=aug.Z[:, :300], Zplus=aug.Zplus[:, :300],
                                  state_dim=2, input_dim=1)
    families = {
        "polynomial": parametric_family(
            "polynomial", state_dim=2, input_dim=1, s=7, l=4,
            total_degree=2, seed=0),
        "residual_mlp": parametric_family(
            "residual_mlp", state_dim=2, input_dim=1, s=9, l=4,
            blocks=2, width=8, seed=0),
    }
    def fd_deriv(nd, theta, i, h=1e-4):
        # fourth-order central difference: small enough truncation at a
        # step large enough to stay clear of cancellation noise
        vals = []
        for off in (h, -h, 2 * h, -2 * h):
            t = theta.copy()
            t[i] += off
            vals.append(loss(nd, batch, params=t))
        return (8 * (vals[0] - vals[1]) - (vals[2] - vals[3])) / (12 * h)

    rng = np.random.default_rng(500)
    out = {}
    for name, nd in families.items():
        theta0 = nd.get_params()
        worst_rel = 0.0
        for _ in range(10):
            theta = theta0 + 0.3 * rng.normal(size=theta0.size)
            _, grad = loss_gradient(nd, batch, params=theta.copy())
            for i in rng.choice(theta.size, size=3, replace=False):
                fd = fd_deriv(nd, theta, i)
                denom = max(abs(fd), abs(grad[i]), 1e-4)
                worst_rel = max(worst_rel, float(abs(fd - grad[i]) / denom))
        out[name] = worst_rel
    return out


def _compute_c7():
    t0 = time.perf_counter()
    out = {}
    for name in ("dc_motor_tanh", "dc_motor_tanhcos"):
        system = kl.get_system(name)
        runs = []
        for seed in (0, 1, 2):
            plan = kl.ExperimentPlan(num_experiments=1000,
                                     steps_per_experiment=10,
                                     rng_seed=seed, input_mode="constant")
            config = TrainConfig(
                family={"kind": "residual_mlp", "blocks": 2, "width": 32,
                        "seed": seed},
                s=20, l=4, epochs=150, batch_size=200,
                lr_start=5e-4, lr_end=1e-6, seed=seed,
                x_scale=[1 / 5, 1 / 80], u_scale=[1 / 2],
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                res = pipeline(config, system, plan, eval_steps=600)
            rmse = res.evaluation["rmse"]
            sep, lin, bil = (rmse[n]["rmse"][1]
                             for n in ("separable", "linear", "bilinear"))
            runs.append({
                "seed": seed,
                "proximity_train": float(
                    res.train_report.final_proximity_train),
                "x2_rmse": {"separable": float(sep), "linear": float(lin),
                            "bilinear": float(bil)},
                "separable_strictly_best": bool(sep < lin and sep < bil),
            })
        out[name] = {
            "runs": runs,
            "wins": int(sum(r["separable_strictly_best"] for r in runs)),
        }
    out["runtime_s_budget"] = 1800.0
    out["_runtime"] = time.perf_counter() - t0
    return out


_COMPUTES = {
    "c1": _compute_c1,
    "c2": _compute_c2,
    "c3": _compute_c3,
    "c4": _compute_c4,
    "c5": _compute_c5,
    "c6": _compute_c6,
    "c7": _compute_c7,
}


def _serialize(metrics: dict) -> bytes:
    clean = {k: v for k, v in metrics.items() if not k.startswith("_")}
    return (json.dumps(clean, indent=2, sort_keys=True) + "\n").encode()


@pytest.fixture(scope="module")
def cache():
    return {}


def _metrics(cache, key):
    if key not in cache:
        cache[key] = _COMPUTES[key]()
    return cache[key]


# ----------------------------------------------------------------------
# Criterion tests


def test_criterion_1_exact_recovery(cache):
    m = _metrics(cache, "c1")
    assert m["n_snapshots"] == 2000
    assert m["K_max_abs_err"] <= 1e-8
    assert m["proximity"] <= 1e-8
    assert all(v <= 1e-8 for v in m["A_of_max_abs_err"].values())
    assert m["_runtime"] < 5.0
    print("criterion 1 (exact recovery on the polynomial example): PASS")


def test_criterion_2_worst_case_certificate(cache):
    m = _metrics(cache, "c2")
    assert len(m["cases"]) == 20
    for case in m["cases"]:
        assert case["cert_gap"] <= 1e-8
        assert case["mc_excess"] <= 1e-8
    assert m["_runtime"] < 30.0
    print("criterion 2 (certificate attains the worst case, 20 cases x 1e4 "
          "samples): PASS")


def test_criterion_3_index_properties(cache):
    m = _metrics(cache, "c3")
    assert m["index_always_in_unit_interval"]
    assert m["pre_clamp_excess"] <= 1e-10
    assert m["basis_dev"] <= 1e-9
    assert m["sandwich_slack"] <= 1e-12
    print("criterion 3 (clamp, basis invariance, trace sandwich over 50 "
          "cases): PASS")


def test_criterion_4_one_step_error_bound(cache):
    m = _metrics(cache, "c4")
    assert m["source_index"] > 1e-3
    assert m["n_functions"] >= 1000
    assert m["max_excess_over_bound"] <= 1e-8
    assert m["closest_gap_to_bound"] <= 1e-6
    print("criterion 4 (certified one-step bound on a truncated "
          "dictionary): PASS")


def test_criterion_5_extraction_agreements(cache):
    m = _metrics(cache, "c5")
    assert m["cross_extraction_max_dev"] <= 1e-9
    assert m["switched_max_dev"] <= 1e-8
    assert m["bilinear_embedding_max_dev"] <= 1e-12
    print("criterion 5 (pseudo-inverse, switched, and bilinear extraction "
          "agree): PASS")


def test_criterion_6_gradient_correctness(cache):
    m = _metrics(cache, "c6")
    assert m["polynomial"] <= 1e-3
    assert m["residual_mlp"] <= 1e-3
    print("criterion 6 (exact gradients match finite differences for both "
          "families): PASS")


@pytest.mark.slow
def test_criterion_7_motor_reproduction(cache):
    m = _metrics(cache, "c7")
    for name in ("dc_motor_tanh", "dc_motor_tanhcos"):
        assert m[name]["wins"] >= 2, m[name]
    assert m["_runtime"] < 1800.0
    print("criterion 7 (separable model beats both baselines on the motors): "
          "PASS")


@pytest.mark.slow
def test_criterion_8_determinism(cache, tmp_path):
    for key in sorted(_COMPUTES):
        first = _serialize(_metrics(cache, key))
        again = _serialize(_COMPUTES[key]())
        (tmp_path / f"{key}_a.json").write_bytes(first)
        (tmp_path / f"{key}_b.json").write_bytes(again)
        assert first == again, f"{key} metrics changed across identical reruns"
    print("criterion 8 (byte-identical metric files across reruns): PASS")
