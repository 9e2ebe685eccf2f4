"""Self-tests of the benchmark: output checks, span arithmetic, tracing transparency.

    python3 -m pytest perfbench -q

The workloads run here at a fraction of their benchmark size.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import kooplift  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

pytestmark = pytest.mark.filterwarnings("ignore::kooplift.errors.OutOfBoxWarning")

SMALL = {
    "motor_train": {"experiments": 60, "epochs": 1, "eval_steps": 50},
    "poly_chain": {"experiments": 100},
    "certify_learned": {"experiments": 100},
}


def _small(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    return wl, wl.setup(3, tmp_path, **SMALL[name])


def test_perturbed_K_fails_the_certificate_check(tmp_path):
    wl, inputs = _small("certify_learned", tmp_path)
    out = wl.run(inputs)
    assert wl.check(inputs, out)[0] == []
    fit = out["fit"]
    out["fit"] = dataclasses.replace(fit, K=fit.K + 1e-6 * np.ones_like(fit.K))
    problems, _ = wl.check(inputs, out)
    assert any("worst_coeffs attains" in p for p in problems)


def test_inexact_poly_outputs_fail_their_checks(tmp_path):
    wl, inputs = _small("poly_chain", tmp_path)
    codes = wl.run(inputs)
    assert wl.check(inputs, codes)[0] == []
    rmse_path = inputs["out"] / "rmse.json"
    rmse = json.loads(rmse_path.read_text())
    rmse["rmse"]["model"]["rmse"][0] = 1e-6
    rmse_path.write_text(json.dumps(rmse))
    assert any("compare RMSE" in p for p in wl.check(inputs, codes)[0])
    assert wl.check(inputs, codes[:2] + [4])[0] == ["CLI exit codes [0, 0, 4]"]


def test_aborted_training_fails_its_check(tmp_path):
    wl, inputs = _small("motor_train", tmp_path)
    res = wl.run(inputs)
    assert wl.check(inputs, res)[0] == []
    res.train_report.aborted = True
    res.train_report.final_proximity_test = float("nan")
    problems, _ = wl.check(inputs, res)
    assert len(problems) == 2


def test_self_time_on_a_synthetic_nested_trace():
    ticks = iter([0, 1, 2, 4, 5, 8, 9, 10,      # cli.main > cmd_extract > load, fit
                  10, 11, 13, 13, 14, 15, 18, 20,  # one training step
                  20, 21, 22, 23])              # an epoch-end loss outside any step
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    with tracer.span("cli.main") as main:
        main.attrs["rc"] = 0
        with tracer.span("cli.cmd_extract"):
            with tracer.span("dynamics.load_snapshots"):
                pass
            with tracer.span("edmd.fit_edmd"):
                pass
    with tracer.span("learning.loss_gradient") as step:
        step.attrs["ok"] = True
        for name in ("observables.eval_aug", "observables.eval_aug", "observables.vjp_aug"):
            with tracer.span(name):
                pass
    with tracer.span("learning.loss") as loss:
        loss.attrs["mode"] = "trace"
        with tracer.span("observables.eval_aug"):
            pass
    m = tracing.layer_metrics(tracer.spans)
    assert m["cli.extract_s"] == 8
    assert m["cli.self_s"] == 10 - (2 + 3)
    assert m["learning.step_s"] == 10
    assert m["learning.step.forward_s"] == 3
    assert m["learning.step.vjp_s"] == 3
    assert m["learning.step.gram_s"] == 10 - (3 + 3)
    assert m["learning.dict_passes_per_step"] == 3
    assert m["learning.epoch_eval.train_loss_s"] == 3
    assert m["observables.eval_aug_s"] == 4
    assert tracing._covered([(0, 2), (1, 3), (5, 6), (9, 12)], 0, 10) == 5


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_reproduces_untraced_values(name, tmp_path):
    wl, inputs = _small(name, tmp_path)
    _, untraced = wl.check(inputs, wl.run(inputs))
    originals = (kooplift.edmd.fit_edmd, kooplift.fit_edmd, np.linalg.svd)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        out = wl.run(inputs)
    problems, traced = wl.check(inputs, out)
    assert problems == []
    assert traced == untraced
    metrics = tracing.layer_metrics(tracer.spans)
    assert list(metrics) == [n for n, _, _ in tracing.PER_LAYER if n != "trace.overhead_s"]
    assert metrics["edmd.factorizations"] > 0
    assert (kooplift.edmd.fit_edmd, kooplift.fit_edmd, np.linalg.svd) == originals


def test_benchmark_json_matches_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = [w["name"] for w in spec["workloads"]]
    assert gated == [name for name in workloads.WORKLOADS if name in gated]
    assert [w["why"] for w in spec["workloads"]] == [workloads.WORKLOADS[n].why for n in gated]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in tracing.PER_LAYER]
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "run_s", "peak_rss_mb"]


def test_refuses_to_run_without_kooplift_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "poly_chain",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
