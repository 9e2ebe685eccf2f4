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

``edmd``, ``consistency`` and ``extract`` take ``--tol``, the relative
cutoff of the pseudo-inverses' singular values; the other subcommands
have no numerical cutoff and reject it.

Exit codes: 0 success, 2 usage or configuration error (a negative
``--seed``, ``compare --steps`` below 1, an input file that is missing
or a directory, or a config, model or dictionary file that is not a JSON
object, lacks a key, holds a family key its kind does not take, or holds
a value of the wrong type, range or shape, included), 3 simulation
failure, 4 numerical failure.

Every subcommand is a ``cmd_*`` function that :func:`main` calls with
the parsed arguments and a private outputs object.  That object owns
the provenance stamp (tool version, seed, and a hash of the command and
its effective configuration), embeds it in every file the command
writes, and makes ``--out`` on the first write.  Rerunning a command
with identical inputs reproduces its outputs byte for byte, so
:func:`main` puts the wall-clock time in a separate ``timing.json``
sidecar, written when the command returns and only if it wrote an
output: a command that fails before writing leaves no files.
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
    model_from_json,
    model_to_json,
    rollout,
    states_from_lifted,
    with_decoder,
)
from .observables import (
    EXAMPLE_POLY_BASIS,
    dictionary_from_json,
    dictionary_to_json,
    example_poly_normal_basis,
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
# Provenance stamps and the output directory


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _config_hash(cfg: dict) -> str:
    return hashlib.sha256(_canonical(cfg).encode()).hexdigest()[:12]


def _file_digest(path) -> str:
    return _sha256(path)[:12]


def _write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


class _Outputs:
    """One command's output directory and the provenance stamp of its files.

    :meth:`stamp` runs before the first write.  Its block goes into every
    output: as ``meta`` in JSON files and snapshot manifests, and as a
    leading ``#`` line in CSVs.  The hash covers the command and its
    effective configuration, with file inputs replaced by digests of
    their contents, so reruns from different directories still produce
    byte-identical outputs.  The directory is made on the first write, so
    a command that stops before writing leaves nothing behind.
    """

    def __init__(self, directory, command: str):
        self.directory = Path(directory)
        self.command = command
        self.meta = None
        self.written = False

    def stamp(self, seed: int, cfg: dict) -> None:
        self.meta = {
            "tool": "kooplift",
            "version": __version__,
            "seed": int(seed),
            "config_hash": _config_hash({"command": self.command, **cfg}),
        }

    def _comment(self) -> str:
        return (f"kooplift {self.meta['version']} seed={self.meta['seed']} "
                f"config={self.meta['config_hash']}")

    def _path(self, name: str) -> Path:
        self.directory.mkdir(parents=True, exist_ok=True)
        self.written = True
        return self.directory / name

    def json(self, name: str, obj: dict) -> Path:
        path = self._path(name)
        _write_json(path, {**obj, "meta": self.meta})
        return path

    def csv(self, name: str, header: str, rows) -> Path:
        path = self._path(name)
        path.write_text("\n".join(["# " + self._comment(), header, *rows]) + "\n")
        return path

    def snapshots(self, name: str, ss) -> Path:
        """A snapshot CSV with its binary copy and its manifest, which holds ``meta``."""
        path = self._path(name)
        save_snapshots(ss, path, manifest_extra={"meta": self.meta}, comment=self._comment())
        return path


# ----------------------------------------------------------------------
# Input files and arguments


def _require_file(path, what: str) -> Path:
    path = Path(path)
    if not path.is_file():
        problem = "is not a file" if path.exists() else "does not exist"
        raise ConfigError(f"{what} file {path} {problem}")
    return path


def _read_json(path, what: str, build):
    """``build`` of the JSON object in a ``what`` file.

    The one reader of the JSON files the commands take.  A file that is
    missing, not valid JSON or not a JSON object raises
    :class:`ConfigError`, and ``build`` raising :class:`ConfigError` or
    :class:`DimensionMismatch` raises the same kind of error; each message
    starts with the file's path.
    """
    path = _require_file(path, what)
    try:
        obj = json.loads(path.read_text())
    except ValueError as exc:
        raise ConfigError(f"{path}: {what} file is not valid JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: {what} file is not a JSON object")
    try:
        return build(obj)
    except (ConfigError, DimensionMismatch) as err:
        raise type(err)(f"{path}: {err}") from None


def _parse_floats(text: str, what: str) -> np.ndarray:
    try:
        return np.array([float(t) for t in text.split(",") if t.strip() != ""])
    except ValueError:
        raise ConfigError(f"{what} must be comma-separated numbers, got {text!r}") from None


def _load_augmented(data_path: str):
    """``(digest, snapshots, augmented data)`` of a snapshot CSV.

    The file is hashed once: the digest stamps the outputs and tells
    :func:`load_snapshots` whether the CSV's binary copy may be used.
    """
    sha256 = _sha256(_require_file(data_path, "data"))
    ss = load_snapshots(data_path, sha256)
    return sha256[:12], ss, to_augmented(ss)


def _dictionary_inputs(args, out: _Outputs):
    """Prologue of ``edmd``, ``consistency`` and ``extract``.

    Loads the data and the dictionary (a JSON file, else a builtin name),
    stamps ``out`` with both digests and ``--tol``, and returns
    ``(snapshots, augmented data, dictionary, cutoff)``.
    """
    data, ss, aug = _load_augmented(args.data)
    spec = args.dictionary
    if Path(spec).is_file():
        digest, nd = _file_digest(spec), _read_json(spec, "dictionary", dictionary_from_json)
    elif spec == EXAMPLE_POLY_BASIS:
        digest, nd = spec, example_poly_normal_basis()
    else:
        raise ConfigError(
            f"dictionary {spec!r} is neither a file nor a builtin name "
            f"(builtin: {EXAMPLE_POLY_BASIS})")
    out.stamp(args.seed, {"data": data, "dictionary": digest, "tol": args.tol})
    cutoff = args.tol if args.tol is not None else edmd_mod.PINV_CUTOFF
    return ss, aug, nd, cutoff


def _read_inputs(path: Path) -> np.ndarray:
    """Read an input-sequence CSV (one row per step, columns u1..um).

    An optional ``u...`` header row gives the width, else the first row
    does; blank and ``#`` lines are skipped.  The rows are parsed as
    snapshot rows are, and a ragged or non-numeric row raises
    :class:`ConfigError` naming its file line.
    """
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
# Subcommands: each takes the parsed arguments and its outputs


def cmd_simulate(args, out: _Outputs) -> int:
    out.stamp(args.seed, {
        "system": args.system,
        "experiments": args.experiments,
        "steps": args.steps,
        "seed": args.seed,
        "mode": args.mode,
        "hold": args.hold,
        "dt": args.dt,
    })
    system = get_system(args.system, dt=args.dt)
    plan = ExperimentPlan(
        num_experiments=args.experiments,
        steps_per_experiment=args.steps,
        rng_seed=args.seed,
        input_mode=args.mode,
        hold_steps=args.hold,
    )
    ss = run_experiments(system, plan)
    path = out.snapshots("snapshots.csv", ss)
    print(f"wrote {ss.n_snapshots} snapshots to {path}")
    return 0


def cmd_edmd(args, out: _Outputs) -> int:
    _, aug, nd, cutoff = _dictionary_inputs(args, out)
    d = edmd_mod._stream_r(nd, aug)
    fit = edmd_mod.fit_edmd(d.cols("P").T, d.cols("Q").T, cutoff=cutoff)
    path = out.csv("K.csv", ",".join(f"k{j+1}" for j in range(fit.K.shape[1])),
                   (",".join(repr(float(v)) for v in row) for row in fit.K))
    out.json("edmd_report.json", {
        "s": int(fit.K.shape[0]),
        "n_snapshots": int(aug.n_snapshots),
        "rank_report": {
            "row_rank_ok_X": bool(fit.rank_report["row_rank_ok_X"]),
            "row_rank_ok_Xplus": bool(fit.rank_report["row_rank_ok_Xplus"]),
            "min_singular_values": [float(v) for v in
                                    fit.rank_report["min_singular_values"]],
        },
    })
    print(f"wrote {path}")
    return 0


def cmd_consistency(args, out: _Outputs) -> int:
    _, aug, nd, cutoff = _dictionary_inputs(args, out)
    report = edmd_mod.invariance_proximity(nd, aug, cutoff=cutoff)
    out.json("consistency.json", edmd_mod.report_to_json(report))
    print(f"index {report.index:.6e} (proximity {report.sqrt_index:.6e})")
    return 0


def cmd_learn(args, out: _Outputs) -> int:
    config = _read_json(args.config, "config", lambda obj: learning_mod.config_from_json(
        obj if args.seed is None else {**obj, "seed": args.seed}))
    data, _, aug = _load_augmented(args.data)
    out.stamp(config.seed, {"data": data, "config": learning_mod.config_to_json(config)})
    nd, report = learning_mod.train(config, aug)
    out.json("dictionary.json", dictionary_to_json(nd))
    out.json("train_report.json", learning_mod.report_to_json(report))
    header, *rows = learning_mod._curve_lines(report)
    out.csv("train_curve.csv", header, rows)
    if report.aborted:
        print("training aborted on persistent non-finite loss; "
              "partial report written", file=sys.stderr)
        return 4
    print(f"final proximity train {report.final_proximity_train:.6e} "
          f"test {report.final_proximity_test:.6e}")
    return 0


def cmd_extract(args, out: _Outputs) -> int:
    ss, aug, nd, cutoff = _dictionary_inputs(args, out)
    report = edmd_mod.invariance_proximity(nd, aug, cutoff=cutoff)
    model = extract_normal(report.fit, nd, source_index=report)
    if model.readout_rows() is None:
        model = with_decoder(model, ss.X)
    path = out.json("model.json", model_to_json(model))
    out.json("extract_report.json", {
        "source_index": float(model.source_index),
        "index": float(report.index),
        "l": int(model.l),
        "s": int(model.s),
    })
    print(f"wrote {path} (source_index "
          f"{model.source_index:.6e})")
    return 0


def cmd_predict(args, out: _Outputs) -> int:
    model_path = _require_file(args.model, "model")
    inputs_path = _require_file(args.inputs, "input")
    out.stamp(args.seed, {
        "model": _file_digest(model_path),
        "x0": args.x0,
        "inputs": _file_digest(inputs_path),
    })
    model = _read_json(model_path, "model", model_from_json)
    x0 = _parse_floats(args.x0, "--x0")
    U = _read_inputs(inputs_path)
    try:
        Z = rollout(model, x0, U, input_dim=U.shape[0])
        states = states_from_lifted(model, Z)
    except NonFiniteState as err:
        print(f"error: model rollout diverged: {err}", file=sys.stderr)
        return 4
    n = states.shape[0]
    header = "step," + ",".join(f"x{i+1}" for i in range(n))
    rows = (f"{k}," + ",".join(repr(float(states[i, k])) for i in range(n))
            for k in range(states.shape[1]))
    path = out.csv("prediction.csv", header, rows)
    print(f"wrote {path} ({states.shape[1]} rows)")
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


def cmd_compare(args, out: _Outputs) -> int:
    if len(args.models) < 2:
        raise ConfigError("compare requires at least 2 model files")
    paths = [_require_file(path, "model") for path in args.models]
    out.stamp(args.seed, {
        "system": args.system,
        "models": [_file_digest(p) for p in paths],
        "steps": args.steps,
        "seed": args.seed,
        "x0": args.x0,
        "dt": args.dt,
    })
    system = get_system(args.system, dt=args.dt)
    names = _unique_names(args.models)
    models = {name: _read_json(path, "model", model_from_json)
              for name, path in zip(names, paths)}
    if args.x0 is not None:
        x0 = _parse_floats(args.x0, "--x0")
        if x0.size != system.state_dim:
            raise ConfigError(f"--x0 must have {system.state_dim} entries")
    else:
        lo, hi = system.state_box
        x0 = np.random.default_rng([args.seed, 7]).uniform(lo, hi)

    result = evaluate_rollouts(system, models, [x0], args.steps, args.seed)

    out.json("rmse.json", {
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
    out.csv("rmse.csv", "model,state,rmse", rows)

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
    out.csv("trajectory.csv", ",".join(header), lines)

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

    def dictionary_command(name, func, text):
        p = sub.add_parser(name, help=text)
        p.add_argument("--data", required=True, help="snapshot CSV")
        p.add_argument("--dictionary", required=True,
                       help="dictionary JSON file or builtin name")
        p.add_argument("--tol", type=float, default=None,
                       help="relative cutoff of the pseudo-inverses' singular "
                            "values (default: edmd.PINV_CUTOFF)")
        common(p)
        p.set_defaults(func=func)

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

    dictionary_command("edmd", cmd_edmd, "fit the lifted one-step matrix")
    dictionary_command("consistency", cmd_consistency,
                       "consistency index and certificate")

    p = sub.add_parser("learn", help="train a dictionary on a dataset")
    p.add_argument("--data", required=True, help="snapshot CSV")
    p.add_argument("--config", required=True, help="training config JSON")
    common(p, seed_default=None)
    p.set_defaults(func=cmd_learn)

    dictionary_command("extract", cmd_extract,
                       "extract the input-state separable model")

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
    if (args.seed or 0) < 0:  # numpy's generators take no negative seed
        parser.error(f"argument --seed: must be a non-negative integer, got {args.seed}")
    t0 = time.perf_counter()
    out = _Outputs(args.out, args.command)
    try:
        rc = args.func(args, out)
    except _USAGE_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except NonFiniteState as err:
        print(f"error: simulation failed: {err}", file=sys.stderr)
        return 3
    except _NUMERICAL_ERRORS as err:
        print(f"error: numerical failure: {err}", file=sys.stderr)
        return 4
    if out.written:
        _write_json(out.directory / "timing.json",
                    {"command": args.command, "wall_time_s": time.perf_counter() - t0})
    return rc


if __name__ == "__main__":
    sys.exit(main())
