"""The benchmark's three workloads: inputs from a seed, the timed call, output checks.

Each workload is a ``Workload`` of three functions:

* ``setup(seed, workdir)`` builds every input from the seed (not timed as a
  run; it is the ``setup_s`` metric);
* ``run(inputs)`` is the timed call into kooplift and returns its outputs;
* ``check(inputs, outputs)`` returns ``(problems, values)``: the list of
  failed output checks (empty when correct) and the checked values, which
  a traced and an untraced run must reproduce exactly.

The checks follow the paper's guarantees and run outside the timed region.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
from pathlib import Path
from typing import Callable

import numpy as np

import kooplift as kl
from kooplift import cli, learning, models

# Calls into kooplift go through module attributes so that a traced run, which
# swaps those attributes for recording wrappers, sees every one of them.

# Coordinate scales of criterion 7 for the DC motor: bring current, speed and
# input to O(1) before they reach the networks.
MOTOR_X_SCALE = [1 / 5, 1 / 80]
MOTOR_U_SCALE = [1 / 2]

# motor_train: criterion 7's settings with fewer epochs, so that one run takes
# a few seconds and a measurement holds several runs.  Per-epoch work is
# criterion 7's.
MOTOR_EXPERIMENTS = 1000
MOTOR_EPOCHS = 3
MOTOR_EVAL_STEPS = 600

# poly_chain: the CLI chain on the polynomial example and its invariant basis.
POLY_EXPERIMENTS = 2000
POLY_PREDICT_STEPS = 200
POLY_COMPARE_STEPS = 600

# certify_learned: a fixed-initialization residual MLP dictionary on a large
# piecewise-input motor dataset.
CERTIFY_EXPERIMENTS = 5000
CERTIFY_INIT_SEED = 0

STEPS_PER_EXPERIMENT = 10

# The paper's exactness claims, checked to the tolerance of the acceptance
# criteria (1 and 2).
EXACT_TOL = 1e-8


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable
    run: Callable
    check: Callable


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()[:16]


def _in_unit_interval(v) -> bool:
    return math.isfinite(v) and 0.0 <= v <= 1.0


# ----------------------------------------------------------------------
# motor_train


def motor_setup(seed: int, workdir: Path, experiments: int = MOTOR_EXPERIMENTS,
                epochs: int = MOTOR_EPOCHS, eval_steps: int = MOTOR_EVAL_STEPS) -> dict:
    plan = kl.ExperimentPlan(num_experiments=experiments,
                             steps_per_experiment=STEPS_PER_EXPERIMENT,
                             rng_seed=seed, input_mode="constant")
    config = learning.TrainConfig(
        family={"kind": "residual_mlp", "blocks": 2, "width": 32, "seed": seed},
        s=20, l=4, epochs=epochs, batch_size=200, lr_start=5e-4, lr_end=1e-6,
        seed=seed, x_scale=MOTOR_X_SCALE, u_scale=MOTOR_U_SCALE,
    )
    return {"system": kl.get_system("dc_motor_tanh"), "plan": plan, "config": config,
            "eval_steps": eval_steps}


def motor_run(inputs: dict):
    return learning.pipeline(inputs["config"], inputs["system"], inputs["plan"],
                    eval_steps=inputs["eval_steps"])


def motor_check(inputs: dict, res) -> tuple[list, dict]:
    rep = res.train_report
    rmse = res.evaluation["rmse"]
    problems = []
    if rep.aborted:
        problems.append("training aborted on non-finite batches")
    for name in ("final_proximity_train", "final_proximity_test"):
        if not _in_unit_interval(getattr(rep, name)):
            problems.append(f"{name} = {getattr(rep, name)!r} is not in [0, 1]")
    sep = rmse["separable"]
    if sep["diverged_at"] is not None or not all(map(math.isfinite, sep["rmse"])):
        problems.append(f"separable rollout is not finite: {sep}")
    values = {
        "proximity_train": float(rep.final_proximity_train),
        "proximity_test": float(rep.final_proximity_test),
        "rmse": {name: r["rmse"] for name, r in rmse.items()},
        "separable": _digest(res.separable.A11, res.separable.A12),
    }
    return problems, values


# ----------------------------------------------------------------------
# poly_chain


def _example_poly_step(x, u, p):
    """The polynomial example's map, written out here as an independent oracle."""
    x1, x2 = x
    return np.array([p["a"] * x1 + p["b"] * u,
                     p["c"] * x2 + p["d"] * x1**2 + p["e"] * x1 * u + p["f"] * u
                     + p["g"] * np.sin(u) + p["h"]])


def poly_setup(seed: int, workdir: Path, experiments: int = POLY_EXPERIMENTS) -> dict:
    out = Path(workdir) / "poly_chain"
    out.mkdir(parents=True, exist_ok=True)
    system = kl.example_poly()
    rng = np.random.default_rng([seed, 1])
    x0 = rng.uniform(*system.state_box)
    U = rng.uniform(*system.input_box, size=(POLY_PREDICT_STEPS, 1))
    inputs_csv = out / "inputs.csv"
    inputs_csv.write_text("u1\n" + "".join(f"{float(u)!r}\n" for u in U[:, 0]))
    data, model = str(out / "snapshots.csv"), str(out / "model.json")
    common = ["--seed", str(seed), "--out", str(out)]
    argvs = [
        ["simulate", "--system", "example_poly", "--experiments", str(experiments),
         "--steps", str(STEPS_PER_EXPERIMENT)] + common,
        ["consistency", "--data", data, "--dictionary", "example_poly_basis"] + common,
        ["extract", "--data", data, "--dictionary", "example_poly_basis"] + common,
        ["predict", "--model", model, "--x0=" + ",".join(repr(float(v)) for v in x0),
         "--inputs", str(inputs_csv)] + common,
        ["compare", "--system", "example_poly", "--models", model, model,
         "--steps", str(POLY_COMPARE_STEPS)] + common,
    ]
    return {"out": out, "argvs": argvs, "x0": x0, "U": U[:, 0],
            "params": dict(system.params)}


def poly_run(inputs: dict) -> list:
    """Exit codes of the chain; it stops at the first non-zero exit."""
    codes = []
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for argv in inputs["argvs"]:
            codes.append(cli.main(argv))
            if codes[-1] != 0:
                break
    return codes


def poly_check(inputs: dict, codes: list) -> tuple[list, dict]:
    if codes != [0] * len(inputs["argvs"]):
        return [f"CLI exit codes {codes}"], {"codes": codes}
    out = inputs["out"]
    problems = []
    index = json.loads((out / "consistency.json").read_text())["index"]
    if not 0.0 <= index <= EXACT_TOL:
        problems.append(f"consistency index {index!r} exceeds {EXACT_TOL}")
    rmse = json.loads((out / "rmse.json").read_text())["rmse"]
    for name, r in rmse.items():
        if r["diverged_at"] is not None or not all(v <= EXACT_TOL for v in r["rmse"]):
            problems.append(f"compare RMSE of {name} against truth: {r}")
    rows = [ln for ln in (out / "prediction.csv").read_text().splitlines()
            if ln and not ln.startswith("#")][1:]
    pred = np.array([[float(v) for v in ln.split(",")[1:]] for ln in rows])
    truth = [np.asarray(inputs["x0"], dtype=float)]
    for u in inputs["U"]:
        truth.append(_example_poly_step(truth[-1], u, inputs["params"]))
    truth = np.array(truth)
    err = float(np.max(np.abs(pred - truth))) if pred.shape == truth.shape else math.inf
    if not err <= EXACT_TOL * max(1.0, float(np.max(np.abs(truth)))):
        problems.append(f"predicted states differ from the exact map by {err!r}")
    values = {"index": index, "rmse": {k: r["rmse"] for k, r in rmse.items()},
              "predict_max_error": err}
    return problems, values


# ----------------------------------------------------------------------
# certify_learned


def certify_setup(seed: int, workdir: Path, experiments: int = CERTIFY_EXPERIMENTS) -> dict:
    plan = kl.ExperimentPlan(num_experiments=experiments,
                             steps_per_experiment=STEPS_PER_EXPERIMENT,
                             rng_seed=seed, input_mode="piecewise", hold_steps=1)
    ss = kl.run_experiments(kl.get_system("dc_motor_tanh"), plan)
    nd = kl.parametric_family("residual_mlp", state_dim=2, input_dim=1, s=40, l=8,
                              blocks=2, width=32, seed=CERTIFY_INIT_SEED)
    return {"ss": ss, "aug": kl.to_augmented(ss),
            "nd": nd.with_input_scaling(MOTOR_X_SCALE, MOTOR_U_SCALE)}


def certify_run(inputs: dict) -> dict:
    nd, aug, ss = inputs["nd"], inputs["aug"], inputs["ss"]
    P = nd.eval_aug(aug.Z)
    Q = nd.eval_aug(aug.Zplus)
    fit = kl.fit_edmd(P, Q)
    report = kl.consistency_index(P, Q)
    psi = models.head_dictionary(nd)
    return {"P": P, "Q": Q, "fit": fit, "report": report,
            "model": models.extract_normal(fit, nd, report),
            "linear": models.fit_linear_baseline(psi, ss),
            "bilinear": models.fit_bilinear_baseline(psi, ss)}


def relative_error(w, P, Q, K) -> float:
    """Relative one-step error of the function ``w`` under ``K`` (criterion 2's ratio)."""
    num = np.linalg.norm(w @ Q - (w @ K) @ P)
    return float(num / np.linalg.norm(w @ Q))


def certify_check(inputs: dict, out: dict) -> tuple[list, dict]:
    rep, fit = out["report"], out["fit"]
    problems = []
    if not (0.0 <= rep.index <= 1.0):
        problems.append(f"consistency index {rep.index!r} is not in [0, 1]")
    attained = relative_error(rep.worst_coeffs, out["P"], out["Q"], fit.K)
    if not abs(attained - rep.sqrt_index) <= EXACT_TOL:
        problems.append(f"worst_coeffs attains {attained!r}, sqrt_index is "
                        f"{rep.sqrt_index!r}")
    if out["model"].source_index != rep.sqrt_index:
        problems.append("extracted model does not carry the certified proximity")
    lin, bil = out["linear"], out["bilinear"]
    if not all(np.all(np.isfinite(M)) for M in (lin.A, lin.B, bil.A, *bil.Bs)):
        problems.append("a baseline fit is not finite")
    values = {"index": rep.index, "sqrt_index": rep.sqrt_index, "attained": attained,
              "K": _digest(fit.K), "linear": _digest(lin.A, lin.B),
              "bilinear": _digest(bil.A, *bil.Bs)}
    return problems, values


WORKLOADS = {
    w.name: w for w in (
        Workload("motor_train",
                 "the paper's headline experiment: the only workload where learning "
                 "does the work",
                 motor_setup, motor_run, motor_check),
        Workload("poly_chain",
                 "the CLI chain on the exact-recovery path: simulation, the "
                 "per-column eval_aug loop and CSV/JSON I/O, no training",
                 poly_setup, poly_run, poly_check),
        Workload("certify_learned",
                 "certify and extract on 50k snapshots: data-sized SVDs, a batched "
                 "network forward and the baseline fits",
                 certify_setup, certify_run, certify_check),
    )
}
