"""Command-line harness: dataset generation, fitting, learning, and comparison.

Subcommands
-----------
simulate
    Generate a snapshot dataset from randomized experiments on a builtin
    system and write it as CSV, a binary copy that later commands load
    instead of parsing the CSV, and a JSON manifest.
edmd
    Fit the lifted one-step matrix on a dataset with a given dictionary
    and write the matrix and a rank report.
consistency
    Compute the consistency index, its certificate, and rank flags.
learn
    Train a dictionary by minimizing the subspace-deviation loss and
    write the dictionary, the training report, and the per-epoch curve.
extract
    Fit, score, and extract the input-state separable model.
predict
    Roll a saved model forward from an initial state under an input file.
compare
    Roll several saved models against the simulated truth on a random
    piecewise-constant test input (hold 1 step, uniform over the input
    box from a named seed) and write per-model, per-state RMSE tables
    plus a per-step trajectory CSV suitable for plotting.

Exit codes: 0 success, 2 usage or configuration error, 3 simulation
failure, 4 numerical failure.  Every output file embeds the tool
version, the seed, and a hash of the effective configuration; rerunning
a command with identical inputs reproduces outputs byte for byte, so
wall-clock timing goes to a separate ``timing.json`` sidecar.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import (
    BUILTIN_SYSTEMS,
    ExperimentPlan,
    _next_row,
    _read_rows,
    _sha256,
    get_system,
    load_snapshots,
    run_experiments,
    save_snapshots,
    to_augmented,
)
from . import edmd as edmd_mod
from . import learning as learning_mod
from .errors import (
    ConfigError,
    DegenerateData,
    DimensionMismatch,
    KoopliftError,
    NonFiniteGradient,
    NonFiniteLoss,
    NonFiniteState,
    RankDeficientAtInput,
    RankDeficientProbe,
    UnknownInputValue,
)
from .models import (
    evaluate_rollouts,
    extract_normal,
    load_model,
    model_to_json,
    rollout,
    states_from_lifted,
    with_decoder,
)
from .observables import (
    DICTIONARY_FORMAT,
    EXAMPLE_POLY_BASIS,
    dictionary_from_json,
    dictionary_to_json,
)

_USAGE_ERRORS = (ConfigError, DimensionMismatch, UnknownInputValue)
_NUMERICAL_ERRORS = (
    DegenerateData,
    NonFiniteLoss,
    NonFiniteGradient,
    RankDeficientAtInput,
    RankDeficientProbe,
    np.linalg.LinAlgError,
)


# ----------------------------------------------------------------------
# Provenance stamps and deterministic writers


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _config_hash(cfg: dict) -> str:
    return hashlib.sha256(_canonical(cfg).encode()).hexdigest()[:12]


def _file_digest(path) -> str:
    return _sha256(path)[:12]


def _stamp(seed: int, cfg: dict) -> dict:
    """Provenance block embedded in every output file.

    The hash covers the effective configuration with file inputs replaced
    by digests of their contents, so reruns from different directories
    still produce byte-identical outputs.
    """
    return {
        "tool": "kooplift",
        "version": __version__,
        "seed": int(seed),
        "config_hash": _config_hash(cfg),
    }


def _stamp_comment(stamp: dict) -> str:
    return (f"kooplift {stamp['version']} seed={stamp['seed']} "
            f"config={stamp['config_hash']}")


def _write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, stamp: dict, header: str, rows) -> None:
    lines = ["# " + _stamp_comment(stamp), header]
    lines.extend(rows)
    path.write_text("\n".join(lines) + "\n")


def _write_timing(out: Path, command: str, seconds: float) -> None:
    _write_json(out / "timing.json", {"command": command,
                                      "wall_time_s": float(seconds)})


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ----------------------------------------------------------------------
# Shared argument handling


def _parse_floats(text: str, what: str) -> np.ndarray:
    try:
        return np.array([float(t) for t in text.split(",") if t.strip() != ""])
    except ValueError:
        raise ConfigError(f"{what} must be comma-separated numbers, got {text!r}") from None


def _load_dictionary_arg(spec: str):
    path = Path(spec)
    if path.exists():
        return dictionary_from_json(json.loads(path.read_text()))
    if spec == EXAMPLE_POLY_BASIS:
        return dictionary_from_json({"format": DICTIONARY_FORMAT, "kind": spec})
    raise ConfigError(
        f"dictionary {spec!r} is neither a file nor a builtin name "
        f"(builtin: {EXAMPLE_POLY_BASIS})")


def _dictionary_digest(spec: str) -> str:
    path = Path(spec)
    if path.exists():
        return _file_digest(path)
    return spec


def _load_augmented(data_path: str):
    """``(digest, snapshots, augmented data)`` of a snapshot CSV.

    The file is hashed once: the digest stamps the outputs and tells
    :func:`load_snapshots` whether the CSV's binary copy may be used.
    """
    if not Path(data_path).exists():
        raise ConfigError(f"data file {data_path} does not exist")
    sha256 = _sha256(data_path)
    ss = load_snapshots(data_path, sha256)
    return sha256[:12], ss, to_augmented(ss)


def _read_inputs(path) -> np.ndarray:
    """Read an input-sequence CSV (one row per step, columns u1..um).

    An optional ``u...`` header row gives the width, else the first row
    does; blank and ``#`` lines are skipped.  The rows are parsed as
    snapshot rows are, and a ragged or non-numeric row raises
    :class:`ConfigError` naming its file line.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"input file {path} does not exist")
    with path.open() as f:
        first = _next_row(f, 0)
        U = np.empty((0, 0))
        if first is not None:
            lineno, line = first
            if not line.startswith("u"):
                f.seek(0)
                lineno = 0
            U = _read_rows(path, f, lineno, line.count(",") + 1)
    if U.shape[0] == 0:
        raise ConfigError(f"{path}: input sequence is empty")
    return U.T


# ----------------------------------------------------------------------
# Subcommands


def cmd_simulate(args) -> int:
    t0 = time.perf_counter()
    cfg = {
        "command": "simulate",
        "system": args.system,
        "experiments": args.experiments,
        "steps": args.steps,
        "seed": args.seed,
        "mode": args.mode,
        "hold": args.hold,
        "dt": args.dt,
    }
    stamp = _stamp(args.seed, cfg)
    system = get_system(args.system, dt=args.dt)
    plan = ExperimentPlan(
        num_experiments=args.experiments,
        steps_per_experiment=args.steps,
        rng_seed=args.seed,
        input_mode=args.mode,
        hold_steps=args.hold,
    )
    ss = run_experiments(system, plan)
    if ss.n_snapshots == 0:
        raise NonFiniteState("every experiment diverged; no snapshots collected")
    out = _out_dir(args)
    save_snapshots(ss, out / "snapshots.csv",
                   manifest_extra={"meta": stamp},
                   comment=_stamp_comment(stamp))
    _write_timing(out, "simulate", time.perf_counter() - t0)
    print(f"wrote {ss.n_snapshots} snapshots to {out / 'snapshots.csv'}")
    return 0


def cmd_edmd(args) -> int:
    t0 = time.perf_counter()
    data, _, aug = _load_augmented(args.data)
    cfg = {
        "command": "edmd",
        "data": data,
        "dictionary": _dictionary_digest(args.dictionary),
        "tol": args.tol,
    }
    stamp = _stamp(args.seed, cfg)
    nd = _load_dictionary_arg(args.dictionary)
    d = edmd_mod._stream_r(nd, aug)
    cutoff = args.tol if args.tol is not None else edmd_mod.PINV_CUTOFF
    fit = edmd_mod.fit_edmd(d.cols("P").T, d.cols("Q").T, cutoff=cutoff)
    out = _out_dir(args)
    _write_csv(out / "K.csv", stamp,
               ",".join(f"k{j+1}" for j in range(fit.K.shape[1])),
               (",".join(repr(float(v)) for v in row) for row in fit.K))
    _write_json(out / "edmd_report.json", {
        "meta": stamp,
        "s": int(fit.K.shape[0]),
        "n_snapshots": int(aug.n_snapshots),
        "rank_report": {
            "row_rank_ok_X": bool(fit.rank_report["row_rank_ok_X"]),
            "row_rank_ok_Xplus": bool(fit.rank_report["row_rank_ok_Xplus"]),
            "min_singular_values": [float(v) for v in
                                    fit.rank_report["min_singular_values"]],
        },
    })
    _write_timing(out, "edmd", time.perf_counter() - t0)
    print(f"wrote {out / 'K.csv'}")
    return 0


def cmd_consistency(args) -> int:
    t0 = time.perf_counter()
    data, _, aug = _load_augmented(args.data)
    cfg = {
        "command": "consistency",
        "data": data,
        "dictionary": _dictionary_digest(args.dictionary),
        "tol": args.tol,
    }
    stamp = _stamp(args.seed, cfg)
    nd = _load_dictionary_arg(args.dictionary)
    cutoff = args.tol if args.tol is not None else edmd_mod.PINV_CUTOFF
    report = edmd_mod.invariance_proximity(nd, aug, cutoff=cutoff)
    payload = edmd_mod.report_to_json(report)
    payload["meta"] = stamp
    out = _out_dir(args)
    _write_json(out / "consistency.json", payload)
    _write_timing(out, "consistency", time.perf_counter() - t0)
    print(f"index {report.index:.6e} (proximity {report.sqrt_index:.6e})")
    return 0


def cmd_learn(args) -> int:
    t0 = time.perf_counter()
    config_path = Path(args.config)
    if not config_path.exists():
        raise ConfigError(f"config file {config_path} does not exist")
    cfg_obj = json.loads(config_path.read_text())
    if args.seed is not None:
        cfg_obj["seed"] = args.seed
    config = learning_mod.config_from_json(cfg_obj)
    data, _, aug = _load_augmented(args.data)
    cfg = {
        "command": "learn",
        "data": data,
        "config": learning_mod.config_to_json(config),
    }
    stamp = _stamp(config.seed, cfg)
    nd, report = learning_mod.train(config, aug)

    out = _out_dir(args)
    dict_payload = dictionary_to_json(nd)
    dict_payload["meta"] = stamp
    _write_json(out / "dictionary.json", dict_payload)
    report_payload = learning_mod.report_to_json(report)
    report_payload["meta"] = stamp
    _write_json(out / "train_report.json", report_payload)
    curve_path = out / "train_curve.csv"
    learning_mod.report_to_csv(report, curve_path)
    curve_path.write_text("# " + _stamp_comment(stamp) + "\n"
                          + curve_path.read_text())
    _write_timing(out, "learn", time.perf_counter() - t0)
    if report.aborted:
        print("training aborted on persistent non-finite loss; "
              "partial report written", file=sys.stderr)
        return 4
    print(f"final proximity train {report.final_proximity_train:.6e} "
          f"test {report.final_proximity_test:.6e}")
    return 0


def cmd_extract(args) -> int:
    t0 = time.perf_counter()
    data, ss, aug = _load_augmented(args.data)
    cfg = {
        "command": "extract",
        "data": data,
        "dictionary": _dictionary_digest(args.dictionary),
        "tol": args.tol,
    }
    stamp = _stamp(args.seed, cfg)
    nd = _load_dictionary_arg(args.dictionary)
    cutoff = args.tol if args.tol is not None else edmd_mod.PINV_CUTOFF
    report = edmd_mod.invariance_proximity(nd, aug, cutoff=cutoff)
    model = extract_normal(report.fit, nd, source_index=report)
    if model.readout_rows() is None:
        model = with_decoder(model, ss.X)
    out = _out_dir(args)
    payload = model_to_json(model)
    payload["meta"] = stamp
    _write_json(out / "model.json", payload)
    _write_json(out / "extract_report.json", {
        "meta": stamp,
        "source_index": float(model.source_index),
        "index": float(report.index),
        "l": int(model.l),
        "s": int(model.s),
    })
    _write_timing(out, "extract", time.perf_counter() - t0)
    print(f"wrote {out / 'model.json'} (source_index "
          f"{model.source_index:.6e})")
    return 0


def cmd_predict(args) -> int:
    t0 = time.perf_counter()
    cfg = {
        "command": "predict",
        "model": _file_digest(args.model) if Path(args.model).exists() else args.model,
        "x0": args.x0,
        "inputs": _file_digest(args.inputs) if Path(args.inputs).exists() else args.inputs,
    }
    stamp = _stamp(args.seed, cfg)
    model_path = Path(args.model)
    if not model_path.exists():
        raise ConfigError(f"model file {model_path} does not exist")
    model = load_model(model_path)
    x0 = _parse_floats(args.x0, "--x0")
    U = _read_inputs(args.inputs)
    try:
        Z = rollout(model, x0, U, input_dim=U.shape[0])
        states = states_from_lifted(model, Z)
    except NonFiniteState as err:
        print(f"error: model rollout diverged: {err}", file=sys.stderr)
        return 4
    out = _out_dir(args)
    n = states.shape[0]
    header = "step," + ",".join(f"x{i+1}" for i in range(n))
    rows = (f"{k}," + ",".join(repr(float(states[i, k])) for i in range(n))
            for k in range(states.shape[1]))
    _write_csv(out / "prediction.csv", stamp, header, rows)
    _write_timing(out, "predict", time.perf_counter() - t0)
    print(f"wrote {out / 'prediction.csv'} ({states.shape[1]} rows)")
    return 0


def _unique_names(paths) -> list[str]:
    names = []
    for path in paths:
        base = Path(path).stem
        name = base
        k = 2
        while name in names:
            name = f"{base}_{k}"
            k += 1
        names.append(name)
    return names


def cmd_compare(args) -> int:
    t0 = time.perf_counter()
    if len(args.models) < 2:
        raise ConfigError("compare requires at least 2 model files")
    for path in args.models:
        if not Path(path).exists():
            raise ConfigError(f"model file {path} does not exist")
    cfg = {
        "command": "compare",
        "system": args.system,
        "models": [_file_digest(p) for p in args.models],
        "steps": args.steps,
        "seed": args.seed,
        "x0": args.x0,
        "dt": args.dt,
    }
    stamp = _stamp(args.seed, cfg)
    system = get_system(args.system, dt=args.dt)
    names = _unique_names(args.models)
    models = {name: load_model(path) for name, path in zip(names, args.models)}
    if args.x0 is not None:
        x0 = _parse_floats(args.x0, "--x0")
        if x0.size != system.state_dim:
            raise ConfigError(f"--x0 must have {system.state_dim} entries")
    else:
        lo, hi = system.state_box
        x0 = np.random.default_rng([args.seed, 7]).uniform(lo, hi)

    result = evaluate_rollouts(system, models, [x0], args.steps, args.seed)

    out = _out_dir(args)
    _write_json(out / "rmse.json", {
        "meta": stamp,
        "system": args.system,
        "n_steps": int(args.steps),
        "x0": [float(v) for v in x0],
        "rmse": result["rmse"],
    })
    rows = []
    for name in names:
        per_state = result["rmse"][name]["rmse"]
        for i, v in enumerate(per_state):
            rows.append(f"{name},x{i+1},{float(v)!r}")
    _write_csv(out / "rmse.csv", stamp, "model,state,rmse", rows)

    traj = result["trajectories"]
    truth = traj["truth"][0]
    U = traj["inputs"]
    n, m = system.state_dim, system.input_dim
    header = ["step"]
    header += [f"u{j+1}" for j in range(m)]
    header += [f"truth_x{i+1}" for i in range(n)]
    for name in names:
        header += [f"{name}_x{i+1}" for i in range(n)]
    lines = []
    for k in range(truth.shape[1]):
        cells = [str(k)]
        for j in range(m):
            cells.append(repr(float(U[j, k])) if k < U.shape[1] else "nan")
        cells.extend(repr(float(truth[i, k])) for i in range(n))
        for name in names:
            pred = traj[name][0]
            if pred is None or k >= pred.shape[1]:
                cells.extend("nan" for _ in range(n))
            else:
                cells.extend(repr(float(pred[i, k])) for i in range(n))
        lines.append(",".join(cells))
    _write_csv(out / "trajectory.csv", stamp, ",".join(header), lines)
    _write_timing(out, "compare", time.perf_counter() - t0)

    for name in names:
        rmse = result["rmse"][name]["rmse"]
        print(f"{name}: " + "  ".join(f"x{i+1} {v:.6e}"
                                      for i, v in enumerate(rmse)))
    return 0


# ----------------------------------------------------------------------
# Parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kooplift",
        description="Lifted linear-parameter modeling of controlled dynamics.",
    )
    parser.add_argument("--version", action="version",
                        version=f"kooplift {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed_default=0):
        p.add_argument("--seed", type=int, default=seed_default,
                       help="seed recorded in outputs and used for any sampling")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--tol", type=float, default=None,
                       help="numerical cutoff override where applicable")

    p = sub.add_parser("simulate", help="generate a snapshot dataset")
    p.add_argument("--system", required=True,
                   help=f"builtin system ({', '.join(BUILTIN_SYSTEMS)})")
    p.add_argument("--experiments", type=int, default=100)
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--mode", choices=("constant", "piecewise"),
                   default="constant", help="input policy per experiment")
    p.add_argument("--hold", type=int, default=1,
                   help="steps each piecewise input value is held")
    p.add_argument("--dt", type=float, default=0.005)
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("edmd", help="fit the lifted one-step matrix")
    p.add_argument("--data", required=True, help="snapshot CSV")
    p.add_argument("--dictionary", required=True,
                   help="dictionary JSON file or builtin name")
    common(p)
    p.set_defaults(func=cmd_edmd)

    p = sub.add_parser("consistency",
                       help="consistency index and certificate")
    p.add_argument("--data", required=True, help="snapshot CSV")
    p.add_argument("--dictionary", required=True,
                   help="dictionary JSON file or builtin name")
    common(p)
    p.set_defaults(func=cmd_consistency)

    p = sub.add_parser("learn", help="train a dictionary on a dataset")
    p.add_argument("--data", required=True, help="snapshot CSV")
    p.add_argument("--config", required=True, help="training config JSON")
    common(p, seed_default=None)
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("extract",
                       help="extract the input-state separable model")
    p.add_argument("--data", required=True, help="snapshot CSV")
    p.add_argument("--dictionary", required=True,
                   help="dictionary JSON file or builtin name")
    common(p)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("predict", help="roll a saved model forward")
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--x0", required=True,
                   help="comma-separated initial state")
    p.add_argument("--inputs", required=True,
                   help="input-sequence CSV, one row per step")
    common(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("compare",
                       help="compare saved models against simulated truth")
    p.add_argument("--system", required=True)
    p.add_argument("--models", required=True, nargs="+",
                   help="two or more model JSON files")
    p.add_argument("--steps", type=int, default=600)
    p.add_argument("--x0", default=None,
                   help="comma-separated initial state (default: drawn "
                        "from the state box using the seed)")
    p.add_argument("--dt", type=float, default=0.005)
    common(p)
    p.set_defaults(func=cmd_compare)

    return parser


def _attach_negative_values(argv) -> list[str]:
    """Spell ``--x0 -1.2,3`` as ``--x0=-1.2,3``.

    argparse reads a separate value with a leading minus as an option
    unless it is a single number, so a state list starting with a negative
    coordinate would otherwise fail to parse.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] == "--x0" and re.match(r"-\.?\d", argv[i]):
            argv[i - 1:i + 1] = [f"--x0={argv[i]}"]
    return argv


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_attach_negative_values(argv))
    try:
        return args.func(args)
    except _USAGE_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except NonFiniteState as err:
        print(f"error: simulation failed: {err}", file=sys.stderr)
        return 3
    except _NUMERICAL_ERRORS as err:
        print(f"error: numerical failure: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
