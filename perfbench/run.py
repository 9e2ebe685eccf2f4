"""Benchmark of kooplift: one workload per call, or all of them.

    python3 perfbench/run.py --workload motor_train --seed 0 --seconds 52 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 52 --trace 0

Run from anywhere; it benchmarks the sources in ``src/`` beside this
directory.  It prints readable lines and, as its last line, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones (``setup_s``, ``run_s``,
``peak_rss_mb``); with ``--trace 1`` they are the per-layer ones of
``tracing.PER_LAYER``, measured in traced runs that alternate with untraced
runs of the same inputs.

Exit status: 0 when every output check passed, 1 when one failed (the JSON
line is still printed), 2 when the benchmark cannot run at all, for example
when there are no kooplift sources beside it.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"

# One BLAS thread in every process the benchmark starts: the last digits of
# the consistency index change with the thread count, and two threads were no
# faster on these problem sizes.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# setup_s is the median of the fresh-process imports plus the median of
# SETUP_REPEATS input generations.  Both are timed between the timed runs, so
# that they spread over the measurement as the runs do and a spell of load on
# the host hits few of them.
SETUP_REPEATS = 3


@dataclasses.dataclass
class Run:
    seconds: float
    traced: bool
    problems: list
    values: dict | None
    layers: dict | None = None
    warmup: bool = False


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   help="motor_train, poly_chain, certify_learned, or all")
    p.add_argument("--seed", type=int, default=0, help="seed of the generated inputs (>= 0)")
    p.add_argument("--seconds", type=float, default=52.0,
                   help="how long to keep repeating the timed run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1 reports per-layer metrics from traced runs")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def _import_seconds() -> float:
    """Wall time of importing kooplift in a fresh interpreter.

    The child times its own import: timing it from here would add the
    50 ms polling steps in which ``subprocess`` waits for a child.
    """
    code = (f"import sys, time; t = time.perf_counter(); sys.path.insert(0, {str(SRC)!r}); "
            "import kooplift; print(time.perf_counter() - t)")
    return float(subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                                capture_output=True, text=True).stdout)


def _environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, check=True,
                                    timeout=30).stdout.strip()
    sources = sorted((SRC / "kooplift").glob("*.py"))
    digest = hashlib.sha256(b"".join(p.read_bytes() for p in sources)).hexdigest()[:16]
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": nproc,
        "commit": commit,
        "src_sha256": digest,
        "src_lines": sum(len(p.read_text().splitlines()) for p in sources),
    }


def _run_once(wl, inputs, tracing, traced: bool) -> Run:
    """One timed run of the workload, then its output checks (not timed)."""
    tracer = tracing.Tracer() if traced else None
    with tracing.instrument(tracer) if traced else contextlib.nullcontext():
        t0 = time.perf_counter()
        try:
            out, err = wl.run(inputs), None
        except (Exception, SystemExit) as exc:  # a failed run is counted, not fatal
            out, err = None, exc
        seconds = time.perf_counter() - t0
    if err is not None:
        return Run(seconds, traced, [f"raised {type(err).__name__}: {err}"], None)
    problems, values = wl.check(inputs, out)
    layers = tracing.layer_metrics(tracer.spans) if traced else None
    return Run(seconds, traced, problems, values, layers)


def _setup(wl, seed: int, workdir: Path):
    t0 = time.perf_counter()
    inputs = wl.setup(seed, workdir)
    return inputs, time.perf_counter() - t0


def _measure(wl, seed: int, workdir: Path, tracing, seconds: float, trace: bool):
    """Set-up, a warm-up run, then runs repeated until ``seconds`` have passed.

    The warm-up run is checked but not timed: it pays the first-call costs
    (memory growth, lazy initialisation) that later runs in the process do
    not.  With ``trace``, traced and untraced runs come in pairs whose order
    alternates, so neither side always runs first.  Without it, a
    fresh-process import is timed after each run, and the inputs are
    generated again (and dropped) after the first runs until there are
    SETUP_REPEATS set-up times.  Returns the runs, the set-up times and the
    import times.
    """
    inputs, seconds_setup = _setup(wl, seed, workdir)
    setups, imports = [seconds_setup], []
    runs = [_run_once(wl, inputs, tracing, traced=False)]
    runs[0].warmup = True
    order = (False, True) if trace else (False,)
    deadline = time.perf_counter() + seconds
    while len(runs) == 1 or time.perf_counter() < deadline:
        for traced in order:
            runs.append(_run_once(wl, inputs, tracing, traced))
        order = order[::-1]
        if not trace:
            imports.append(_import_seconds())
            if len(setups) < SETUP_REPEATS:
                setups.append(_setup(wl, seed, workdir)[1])
    return runs, setups, imports


def _per_layer(runs: list[Run], tracing) -> dict:
    """Per-layer metrics: medians of times, counts that must repeat exactly."""
    plain = [r for r in runs if not r.traced and not r.warmup]
    traced = [r for r in runs if r.traced]
    for traced_run in traced:
        if traced_run.values != runs[0].values and not traced_run.problems:
            traced_run.problems.append("traced run changed the checked output values")
    layers = [r.layers for r in traced if r.layers is not None]
    metrics = {}
    for name, unit, _ in tracing.PER_LAYER:
        if name == "trace.overhead_s":
            # Differences within adjacent pairs cancel the machine's slow drift.
            value = statistics.median(t.seconds - p.seconds for p, t in zip(plain, traced))
        elif not layers:
            value = 0
        elif unit == "s":
            value = statistics.median(m[name] for m in layers)
        else:
            value = layers[0][name]
            if any(m[name] != value for m in layers[1:]):
                traced[-1].problems.append(f"counter {name} changed between identical runs")
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def run_workload(args) -> int:
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    workdir = WORKDIR / str(os.getpid())
    try:
        runs, setup_times, imports = _measure(wl, args.seed, workdir, tracing, args.seconds,
                                              bool(args.trace))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = _per_layer(runs, tracing) if args.trace else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORKDIR.rmdir()

    failed = [r for r in runs if r.problems]
    times = [r.seconds for r in runs if not r.traced and not r.warmup]
    name = wl.name
    print(f"{name}: {wl.why}")
    print(f"{name} env {json.dumps(_environment(), sort_keys=True)}")
    for r in failed:
        print(f"{name} FAILED: {'; '.join(r.problems)}")
    print(f"{name} error_rate {len(failed)}/{len(runs)} = {len(failed) / len(runs):.3f}")
    if metrics is None:
        import_s = statistics.median(imports)
        setup_s = import_s + statistics.median(setup_times)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "run_s": {"value": statistics.median(times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        print(f"{name} setup_s {setup_s:.4f} s (median of {len(imports)} imports, "
              f"{import_s:.4f} s, + median of {len(setup_times)} input generations)")
        print(f"{name} run_s {statistics.median(times):.4f} s median, "
              f"{max(times):.4f} s max, of {len(times)} runs")
        print(f"{name} peak_rss_mb {peak_rss_mb:.1f} MB")
        if runs[0].values and "proximity_test" in runs[0].values:
            print(f"{name} proximity_test {runs[0].values['proximity_test']!r}")
    else:
        traced = [r.seconds for r in runs if r.traced]
        print(f"{name} run_s {statistics.median(times):.4f} s untraced, "
              f"{statistics.median(traced):.4f} s traced, medians of {len(traced)} pairs")
        for key, m in metrics.items():
            print(f"{name} {key} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": not failed, "attempted": len(runs), "failed": len(failed),
                      "metrics": metrics}, allow_nan=False))
    return 1 if failed else 0


def run_all(args) -> int:
    """Each workload in its own process (peak memory is per process); one summary."""
    import workloads

    metrics, attempted, failed, correct = {}, 0, 0, True
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{name} printed no result (exit {proc.returncode})", file=sys.stderr)
            return 2
        print("\n".join(lines[:-1]))
        correct = correct and result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}, allow_nan=False))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = _parse(argv)
    # Pinned before numpy is first imported, in this process and its children.
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "kooplift" / "__init__.py").is_file():
        print(f"no kooplift sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import kooplift

    # Motor experiments leave the sampling box now and then; that is expected.
    warnings.simplefilter("ignore", kooplift.OutOfBoxWarning)

    if not Path(kooplift.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"imported kooplift from {kooplift.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
