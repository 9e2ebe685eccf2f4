"""Discrete-time control systems, simulation, and snapshot datasets.

A :class:`ControlSystem` is a deterministic map ``x+ = T(x, u)`` together
with sampling boxes for states and inputs.  Fixing the input turns it into
a family of autonomous maps; pairing the state with the (held) input gives
the augmented map ``(x, u) -> (T(x, u), u)`` on which all lifted-model
numerics in this package operate.

Step maps act on column blocks ``(n, B), (m, B) -> (n, B)``, so a batch of
experiments advances in lockstep, one column each.

The module also provides an RK4 discretizer for continuous-time dynamics,
batch experiment generation with seeded randomness, and CSV persistence of
snapshot datasets, with a digest-checked binary copy that spares a reload
the parse.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import warnings
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatch,
    NonFiniteState,
    OutOfBoxWarning,
)

Array = np.ndarray


def _as_box(box, k: int, what: str) -> Array:
    b = np.asarray(box, dtype=float)
    if b.shape != (2, k):
        raise DimensionMismatch(
            f"{what} box must have shape (2, {k}) (lower row, upper row), got {b.shape}"
        )
    if np.any(b[0] > b[1]):
        raise ConfigError(f"{what} box has a lower bound above an upper bound")
    return b


@dataclasses.dataclass(frozen=True)
class ControlSystem:
    """A discrete-time control system ``x+ = T(x, u)`` with sampling boxes.

    Parameters
    ----------
    name : str
        Identifier used in manifests and error messages.
    state_dim, input_dim : int
        Dimensions n and m of the state and input vectors.
    step_map : callable
        Function ``(X, U) -> X+`` on column blocks: ``(n, B)`` states and
        ``(m, B)`` inputs map to ``(n, B)`` successors, column j of the
        result being ``T(X[:, j], U[:, j])``.  Elementwise numpy code
        (rows unpacked as ``x1, x2 = X``) meets this as written.  Must be
        total and finite on the boxes.
    state_box, input_box : array, shape (2, n) / (2, m)
        Row 0 holds lower bounds, row 1 upper bounds, used for sampling.
    dt : float or None
        Sampling period when the map discretizes an ODE, else None.
    params : dict
        Named constants of the dynamics (kept for manifests and oracles).
    """

    name: str
    state_dim: int
    input_dim: int
    step_map: Callable[[Array, Array], Array]
    state_box: Array
    input_box: Array
    dt: float | None = None
    params: dict = dataclasses.field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "state_box", _as_box(self.state_box, self.state_dim, "state"))
        object.__setattr__(self, "input_box", _as_box(self.input_box, self.input_dim, "input"))


@dataclasses.dataclass(frozen=True)
class Trajectory:
    """States ``(n, L+1)`` and the inputs ``(m, L)`` that produced them."""

    states: Array
    inputs: Array
    out_of_box_count: int = 0

    def __len__(self) -> int:
        return self.states.shape[1]


@dataclasses.dataclass
class SnapshotSet:
    """Paired snapshot matrices ``X``, ``Xplus`` (n x N) and ``U`` (m x N).

    ``Uplus`` is the same object as ``U``: inputs are held over each step,
    so the successor input equals the current one by construction.
    """

    X: Array
    Xplus: Array
    U: Array
    rejected: int = 0
    meta: dict = dataclasses.field(default_factory=dict)

    def __post_init__(self):
        self.X = np.atleast_2d(np.asarray(self.X, dtype=float))
        self.Xplus = np.atleast_2d(np.asarray(self.Xplus, dtype=float))
        self.U = np.atleast_2d(np.asarray(self.U, dtype=float))
        if not (self.X.shape[1] == self.Xplus.shape[1] == self.U.shape[1]):
            raise DimensionMismatch(
                f"snapshot column counts differ: X {self.X.shape}, "
                f"Xplus {self.Xplus.shape}, U {self.U.shape}"
            )
        if self.X.shape[0] != self.Xplus.shape[0]:
            raise DimensionMismatch("X and Xplus row counts differ")

    @property
    def Uplus(self) -> Array:
        return self.U

    @property
    def n_snapshots(self) -> int:
        return self.X.shape[1]


@dataclasses.dataclass(frozen=True)
class AugmentedSnapshots:
    """Stacked data ``Z = [X; U]`` and ``Zplus = [Xplus; U]``."""

    Z: Array
    Zplus: Array
    state_dim: int
    input_dim: int

    @property
    def n_snapshots(self) -> int:
        return self.Z.shape[1]

    def split(self) -> tuple[Array, Array, Array]:
        """Return (X, U, Xplus) recovered from the stacked matrices."""
        n = self.state_dim
        return self.Z[:n], self.Z[n:], self.Zplus[:n]


@dataclasses.dataclass(frozen=True)
class ExperimentPlan:
    """Batch-experiment description for :func:`run_experiments`.

    ``input_mode`` is either ``"constant"`` (one input draw held for the
    whole experiment) or ``"piecewise"`` (a fresh draw every ``hold_steps``
    steps).
    """

    num_experiments: int
    steps_per_experiment: int
    rng_seed: int
    input_mode: str = "constant"
    hold_steps: int = 1

    def __post_init__(self):
        if self.num_experiments < 1 or self.steps_per_experiment < 1:
            raise ConfigError("experiment counts must be >= 1")
        mode = _canonical_mode(self.input_mode)
        object.__setattr__(self, "input_mode", mode)
        if mode == "piecewise" and self.hold_steps < 1:
            raise ConfigError("hold_steps must be >= 1")


def _canonical_mode(mode: str) -> str:
    aliases = {
        "constant": "constant",
        "constant-per-experiment": "constant",
        "piecewise": "piecewise",
        "piecewise-constant": "piecewise",
    }
    if mode not in aliases:
        raise ConfigError(
            f"unknown input_mode {mode!r}; expected 'constant' or 'piecewise'"
        )
    return aliases[mode]


def _check_vector(v, k: int, what: str) -> Array:
    arr = np.asarray(v, dtype=float).reshape(-1)
    if arr.shape != (k,):
        raise DimensionMismatch(f"{what} must have {k} coordinates, got shape {arr.shape}")
    return arr


def _advance(sys: ControlSystem, X: Array, U: Array) -> Array:
    """One step of the map on a column block, shape-checked: ``(n, B) -> (n, B)``."""
    Xp = np.asarray(sys.step_map(X, U), dtype=float)
    if Xp.shape != X.shape:
        raise DimensionMismatch(
            f"step_map of {sys.name!r} returned shape {Xp.shape}, expected {X.shape}"
        )
    return Xp


def _outside(V: Array, box: Array) -> Array:
    """Per column of ``V`` (n rows, columns last): does any coordinate lie outside ``box``?"""
    return np.any((V < box[0][:, None]) | (V > box[1][:, None]), axis=-2)


def _non_finite(sys: ControlSystem, xp: Array) -> NonFiniteState:
    bad = int(np.flatnonzero(~np.isfinite(xp))[0])
    return NonFiniteState(
        f"state coordinate x{bad + 1} became non-finite after one step of {sys.name!r}"
    )


def _lockstep(sys: ControlSystem, X0: Array, U: Array):
    """Advance B experiments together under per-step inputs.

    ``X0`` is ``(n, B)`` and ``U`` is ``(L, m, B)``: ``U[k]`` holds every
    experiment's input at step k.  Returns ``(states, diverged, outside)``:

    * ``states`` is ``(L+1, n, B)`` with ``states[k+1] = T(states[k], U[k])``;
    * ``diverged[b]`` is the step at which experiment b first produced a
      non-finite state, or -1.  That state is stored, and the experiment is
      not stepped again (its later states are NaN);
    * ``outside[b]`` counts the steps of experiment b whose state or input
      started outside the sampling boxes; it is meaningful only for an
      experiment that did not diverge.
    """
    L = U.shape[0]
    n, B = X0.shape
    states = np.full((L + 1, n, B), np.nan)
    states[0] = X0
    diverged = np.full(B, -1)
    live = np.arange(B)
    for k in range(L):
        everyone = live.size == B
        x = states[k] if everyone else states[k][:, live]
        u = U[k] if everyone else U[k][:, live]
        xp = _advance(sys, x, u)
        if everyone:
            states[k + 1] = xp
        else:
            states[k + 1][:, live] = xp
        if not np.isfinite(xp).all():
            finite = np.all(np.isfinite(xp), axis=0)
            diverged[live[~finite]] = k
            live = live[finite]
            if live.size == 0:
                break
    outside = np.sum(_outside(states[:-1], sys.state_box) | _outside(U, sys.input_box), axis=0)
    return states, diverged, outside


def step(sys: ControlSystem, x, u) -> Array:
    """Advance the system one step: ``x+ = T(x, u)``.

    States or inputs outside the declared boxes are allowed (the map is
    still evaluated) but raise an :class:`OutOfBoxWarning`.  A non-finite
    result raises :class:`NonFiniteState` naming the offending coordinate.
    """
    x = _check_vector(x, sys.state_dim, "state")
    u = _check_vector(u, sys.input_dim, "input")
    if _outside(x[:, None], sys.state_box)[0]:
        warnings.warn(f"state outside sampling box of {sys.name!r}", OutOfBoxWarning, stacklevel=2)
    if _outside(u[:, None], sys.input_box)[0]:
        warnings.warn(f"input outside sampling box of {sys.name!r}", OutOfBoxWarning, stacklevel=2)
    states, diverged, _ = _lockstep(sys, x[:, None], u[None, :, None])
    if diverged[0] >= 0:
        raise _non_finite(sys, states[1, :, 0])
    return states[1, :, 0]


def augmented_step(sys: ControlSystem, x, u) -> tuple[Array, Array]:
    """One step of the augmented map: ``(x, u) -> (T(x, u), u)``.

    The second component is the input vector itself, bit-identical: the
    augmented system holds the input constant, which is what makes the
    constant-input family a restriction of a single autonomous map.
    """
    u_arr = _check_vector(u, sys.input_dim, "input")
    return step(sys, x, u_arr), u_arr


def simulate(sys: ControlSystem, x0, inputs) -> Trajectory:
    """Roll the system forward under an input sequence.

    Parameters
    ----------
    sys : ControlSystem
    x0 : array, shape (n,)
    inputs : array-like, shape (m, L) or sequence of L input vectors

    Returns
    -------
    Trajectory
        ``states`` has L+1 columns; column k+1 replays ``step`` on column k.
        Out-of-box excursions are counted (single aggregated warning), never
        clipped: clipping would silently change the dynamics.
    """
    (trajectory,) = _simulate_many(sys, [x0], inputs)
    if trajectory.out_of_box_count:
        warnings.warn(
            f"{trajectory.out_of_box_count} of {trajectory.inputs.shape[1]} steps started "
            f"outside the sampling box of {sys.name!r}",
            OutOfBoxWarning,
            stacklevel=2,
        )
    return trajectory


def _simulate_many(sys: ControlSystem, x0s, inputs) -> list[Trajectory]:
    """:func:`simulate` from every state in ``x0s`` under the same inputs, as one block.

    Trajectory b equals ``simulate(sys, x0s[b], inputs)``.  A trajectory
    that goes non-finite raises the ``NonFiniteState`` that ``simulate``
    raises for the first such ``x0``.  Nothing is warned: out-of-box
    steps are only counted.
    """
    X0 = np.zeros((sys.state_dim, len(x0s)))
    for b, x0 in enumerate(x0s):
        X0[:, b] = _check_vector(x0, sys.state_dim, "state")
    U = np.atleast_2d(np.asarray(inputs, dtype=float))
    if U.shape[0] != sys.input_dim:
        U = U.T
    if U.shape[0] != sys.input_dim or U.shape[1] == 0:
        raise DimensionMismatch(
            f"inputs must be (m, L) with m={sys.input_dim} and L >= 1, got {U.shape}"
        )
    B = X0.shape[1]
    states, diverged, outside = _lockstep(sys, X0, np.repeat(U.T[:, :, None], B, axis=2))
    bad = np.flatnonzero(diverged >= 0)
    if bad.size:
        k = int(diverged[bad[0]])
        raise NonFiniteState(f"{_non_finite(sys, states[k + 1, :, bad[0]])} (at step {k})")
    return [Trajectory(states=states[:, :, b].T.copy(), inputs=U.copy(),
                       out_of_box_count=int(outside[b])) for b in range(B)]


def discretize_rk4(
    ode_rhs: Callable[[Array, Array], Array],
    dt: float,
    *,
    state_dim: int,
    input_dim: int,
    state_box,
    input_box,
    name: str = "rk4-discretized",
    params: dict | None = None,
) -> ControlSystem:
    """Discretize ``xdot = f(x, u)`` with one classical RK4 step per sample.

    ``ode_rhs`` maps column blocks like a step map: ``(n, B)`` states and
    ``(m, B)`` inputs to ``(n, B)`` derivatives, one column per point.
    The input is held constant over each interval of length ``dt``
    (zero-order hold).  Classical RK4 is a deliberate, documented choice:
    fixed cost, no adaptivity, empirical order 4 — testable against a
    fine-step run of the same scheme.
    """
    if dt <= 0:
        raise ConfigError("dt must be positive")

    def rk4_step(x: Array, u: Array) -> Array:
        k1 = np.asarray(ode_rhs(x, u), dtype=float)
        k2 = np.asarray(ode_rhs(x + 0.5 * dt * k1, u), dtype=float)
        k3 = np.asarray(ode_rhs(x + 0.5 * dt * k2, u), dtype=float)
        k4 = np.asarray(ode_rhs(x + dt * k3, u), dtype=float)
        return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    return ControlSystem(
        name=name,
        state_dim=state_dim,
        input_dim=input_dim,
        step_map=rk4_step,
        state_box=state_box,
        input_box=input_box,
        dt=dt,
        params=dict(params or {}),
    )


def run_experiments(sys: ControlSystem, plan: ExperimentPlan) -> SnapshotSet:
    """Generate a snapshot dataset from randomized experiments.

    Initial conditions are uniform over ``state_box`` and inputs uniform
    over ``input_box``, all drawn from one generator seeded with
    ``plan.rng_seed`` in a fixed order (per experiment: its initial state,
    then its inputs), so identical plans reproduce bit-identical datasets.
    All experiments are then stepped together, one column each.  Every
    consecutive pair ``(x_k, u_k, x_{k+1})`` becomes one snapshot, ordered
    experiment by experiment; an experiment that produces a non-finite
    state is dropped whole and counted in ``rejected``.
    """
    rng = np.random.default_rng(plan.rng_seed)
    n, m = sys.state_dim, sys.input_dim
    steps = plan.steps_per_experiment
    E = plan.num_experiments
    # One draw per experiment holds its initial state, then its input values;
    # drawing them as rows of one matrix keeps the generator's order.
    holds = plan.hold_steps if plan.input_mode == "piecewise" else steps
    n_holds = math.ceil(steps / holds)
    lo = np.concatenate([sys.state_box[0], np.tile(sys.input_box[0], n_holds)])
    hi = np.concatenate([sys.state_box[1], np.tile(sys.input_box[1], n_holds)])
    draws = rng.uniform(lo, hi, size=(E, n + n_holds * m))
    X0 = draws[:, :n].T
    held = draws[:, n:].reshape(E, n_holds, m)
    U = np.ascontiguousarray(np.repeat(held, holds, axis=1)[:, :steps].transpose(1, 2, 0))
    states, diverged, outside = _lockstep(sys, X0, U)
    kept = diverged < 0
    rejected = int(E - kept.sum())
    if not kept.any():
        raise NonFiniteState(f"all {E} experiments on {sys.name!r} diverged")
    outside_total = int(outside[kept].sum())
    if outside_total:
        warnings.warn(
            f"{outside_total} snapshot states lay outside the sampling box of {sys.name!r}",
            OutOfBoxWarning,
            stacklevel=2,
        )
    meta = {
        "system_name": sys.name,
        "seed": plan.rng_seed,
        "dt": sys.dt,
        "out_of_box": outside_total,
    }

    def columns(A: Array) -> Array:
        # (steps, rows, E) -> (rows, kept experiments x steps), experiment-major
        A = A[:, :, kept]
        return A.transpose(1, 2, 0).reshape(A.shape[1], -1)

    return SnapshotSet(
        X=columns(states[:-1]),
        Xplus=columns(states[1:]),
        U=columns(U),
        rejected=rejected,
        meta=meta,
    )


def to_augmented(ss: SnapshotSet) -> AugmentedSnapshots:
    """Stack snapshots into augmented data ``Z = [X; U]``, ``Zplus = [Xplus; U]``.

    The input block of ``Zplus`` is ``U`` itself (inputs are held), so the
    last m rows of ``Z`` and ``Zplus`` agree exactly.
    """
    if ss.X.shape[1] != ss.U.shape[1]:
        raise DimensionMismatch("snapshot column counts differ")
    return AugmentedSnapshots(
        Z=np.vstack([ss.X, ss.U]),
        Zplus=np.vstack([ss.Xplus, ss.U]),
        state_dim=ss.X.shape[0],
        input_dim=ss.U.shape[0],
    )


# ----------------------------------------------------------------------
# CSV persistence


def _csv_header(n: int, m: int) -> str:
    cols = (
        [f"x{i + 1}" for i in range(n)]
        + [f"u{j + 1}" for j in range(m)]
        + [f"x{i + 1}p" for i in range(n)]
    )
    return ",".join(cols)


def _format_rows(rows: Array) -> str:
    """The CSV lines of a block of rows, each value written with ``repr``.

    ``repr`` runs once per distinct bit pattern of the block, not once per
    field: snapshot data repeat most values (a successor state is the next
    snapshot's state, a held input repeats over its experiment).  Bit
    patterns rather than values keep ``0.0`` apart from ``-0.0``.
    """
    bits = np.ascontiguousarray(rows, dtype=np.float64).view(np.int64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    texts = np.array([*map(repr, distinct.view(np.float64).tolist()), ",", "\n"], dtype=object)
    # Interleave field indices with separators; numpy 1.x returns a flat
    # inverse and numpy 2.x one shaped like ``bits``, so reshape explicitly.
    index = np.full((bits.shape[0], 2 * bits.shape[1]), len(distinct))
    index[:, 0::2] = inverse.reshape(bits.shape)
    index[:, -1] = len(distinct) + 1
    return "".join(texts[index].ravel().tolist())


def save_snapshots(ss: SnapshotSet, csv_path, manifest_extra: dict | None = None,
                   comment: str | None = None) -> Path:
    """Write a snapshot CSV (one row per snapshot), its binary copy and a JSON manifest.

    The manifest records ``{n, m, N, seed, system_name, dt}`` next to the
    CSV as ``<stem>.manifest.json``.  Floats are written with ``repr`` so
    the round trip is exact and byte-reproducible.  ``comment`` becomes a
    leading ``#`` line (provenance stamps); readers skip such lines.

    ``<stem>.npy`` holds the ``(N, 2n + m)`` float64 rows that parsing the
    CSV returns: the saved bits, except that every NaN is the one the
    parser gives for ``nan`` (``repr`` drops a NaN's sign and payload).
    The manifest's ``csv_sha256`` and ``rows_sha256`` are the sha256 of
    the two files' bytes, which :func:`load_snapshots` checks before it
    uses the copy.  The manifest is written last, so a write that fails
    part-way leaves none vouching for files that do not match it.

    Rows are formatted and written in blocks of 1000, so memory does not
    grow with N; within a block each distinct bit pattern is formatted
    once and its text reused for every field that holds it.
    """
    csv_path = Path(csv_path)
    if _rows_path(csv_path) == csv_path:
        raise ConfigError(f"{csv_path}: a snapshot CSV may not take its binary copy's name")
    n, m = ss.X.shape[0], ss.U.shape[0]
    npy_header = io.BytesIO()
    np.lib.format.write_array_header_1_0(npy_header, {
        "descr": np.lib.format.dtype_to_descr(np.dtype(np.float64)),
        "fortran_order": False,
        "shape": (ss.n_snapshots, 2 * n + m),
    })
    csv_hash, rows_hash = _new_sha256(), _new_sha256()
    with csv_path.open("wb") as f, _rows_path(csv_path).open("wb") as g:

        def put(out, digest, data):
            out.write(data)
            digest.update(data)

        head = "" if comment is None else "# " + comment + "\n"
        put(f, csv_hash, (head + _csv_header(n, m) + "\n").encode())
        put(g, rows_hash, npy_header.getvalue())
        for s in range(0, ss.n_snapshots, 1000):
            block = (ss.X[:, s:s + 1000], ss.U[:, s:s + 1000], ss.Xplus[:, s:s + 1000])
            rows = np.concatenate(block).T.copy()
            rows[np.isnan(rows)] = np.nan
            put(f, csv_hash, _format_rows(rows).encode())
            put(g, rows_hash, rows)
    manifest = {
        "n": n,
        "m": m,
        "N": ss.n_snapshots,
        "seed": ss.meta.get("seed"),
        "system_name": ss.meta.get("system_name"),
        "dt": ss.meta.get("dt"),
    }
    manifest.update(manifest_extra or {})
    manifest["csv_sha256"] = csv_hash.hexdigest()
    manifest["rows_sha256"] = rows_hash.hexdigest()
    manifest_path = manifest_path_for(csv_path)
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest_path


def manifest_path_for(csv_path) -> Path:
    csv_path = Path(csv_path)
    return csv_path.with_name(csv_path.stem + ".manifest.json")


def _rows_path(csv_path: Path) -> Path:
    return csv_path.with_name(csv_path.stem + ".npy")


def _new_sha256():
    # Imported here: loading hashlib (OpenSSL) would add about 4 ms to
    # ``import kooplift``, which needs no digest.
    import hashlib

    return hashlib.sha256()


def _sha256(path) -> str:
    """The sha256 hex digest of a file's bytes, read through one 64 KiB buffer."""
    digest = _new_sha256()
    buffer = memoryview(bytearray(1 << 16))
    with open(path, "rb", buffering=0) as f:
        while size := f.readinto(buffer):
            digest.update(buffer[:size])
    return digest.hexdigest()


def _is_number(field: str) -> bool:
    """Whether numpy's C reader parses ``field``: ``float``'s grammar without
    the digit-group underscores and non-ASCII digits that ``float`` also takes."""
    field = field.strip()
    if "_" in field or not field.isascii():
        return False
    try:
        float(field)
    except ValueError:
        return False
    return True


def _malformed_row(csv_path, body, width: int) -> ConfigError:
    """The error naming the first malformed row of ``body``, ``(line number, text)`` pairs."""
    for i, line in body:
        parts = line.split(",")
        if len(parts) != width:
            return ConfigError(f"{csv_path}: malformed CSV row at line {i} (expected {width} fields)")
        if not all(map(_is_number, parts)):
            return ConfigError(f"{csv_path}: malformed CSV row at line {i} (non-numeric field)")
    return ConfigError(f"{csv_path}: malformed snapshot CSV")


def _next_row(f, lineno: int):
    """Read the open text file ``f`` up to its next line that is neither blank
    nor a ``#`` comment; ``lineno`` is the number of the line read last.
    Returns ``(line number, stripped line)``, or ``None`` at the end."""
    while line := f.readline():
        lineno += 1
        line = line.strip()
        if line and not line.startswith("#"):
            return lineno, line
    return None


def _read_rows(csv_path, f, lineno: int, width: int) -> Array:
    """Parse the rows left in the open text file ``f`` into an ``(N, width)`` array.

    ``lineno`` is the number of the line read last.  One ``np.loadtxt``
    call, numpy's C tokenizer, parses a clean remainder.  Blank lines
    holding whitespace and ``#`` lines between rows make it fail; then the
    rows are re-read without them and parsed again, and if that fails too,
    :func:`_malformed_row` rescans them to name the first bad one.
    """
    start = f.tell()
    if _next_row(f, lineno) is None:
        return np.empty((0, width))
    f.seek(start)
    try:
        data = np.loadtxt(f, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        data = None
    if data is not None and data.shape[1] == width:
        return data
    f.seek(start)
    rows = [(i, ln.strip()) for i, ln in enumerate(f.read().split("\n"), start=lineno + 1)
            if ln.strip() and not ln.lstrip().startswith("#")]
    try:
        data = np.loadtxt([ln for _, ln in rows], delimiter=",", comments=None, ndmin=2)
    except ValueError:
        raise _malformed_row(csv_path, rows, width) from None
    if data.shape[1] != width:
        raise _malformed_row(csv_path, rows, width)
    return data


def _stored_rows(csv_path: Path, manifest: dict, width: int, csv_sha256: str | None):
    """The rows of the binary copy beside ``csv_path``, or None unless it is verified.

    It is returned only when the CSV's digest (``csv_sha256`` when the
    caller has it, else computed) is the manifest's ``csv_sha256``, the
    copy's digest is its ``rows_sha256``, and the copy is a C-ordered
    float64 ``(N, width)`` array, N being the manifest's.
    """
    path = _rows_path(csv_path)
    try:
        if (_sha256(path) != manifest["rows_sha256"]
                or (csv_sha256 or _sha256(csv_path)) != manifest["csv_sha256"]):
            return None
        rows = np.load(path)
    except (KeyError, OSError, ValueError):
        return None
    if (rows.dtype != np.float64 or rows.shape != (manifest.get("N"), width)
            or not rows.flags.c_contiguous):
        return None
    return rows


def _read_manifest(mpath: Path) -> dict:
    """The manifest at ``mpath``; :class:`ConfigError` unless it is a JSON object."""
    try:
        raw = json.loads(mpath.read_text())
    except ValueError as exc:
        raise ConfigError(f"{mpath}: snapshot manifest is not valid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{mpath}: snapshot manifest is not a JSON object")
    return raw


def load_snapshots(csv_path, csv_sha256: str | None = None) -> SnapshotSet:
    """Load a snapshot CSV written by :func:`save_snapshots`.

    When the manifest's digests vouch for both the CSV and its binary copy
    ``<stem>.npy`` (see :func:`save_snapshots`), the rows come from the
    copy, bit-identical to what the parse gives, and the CSV is read only
    for its header and its digest.  ``csv_sha256``, the sha256 hex digest
    of the CSV's bytes, spares that read when the caller has it already.
    A CSV edited after writing, a missing, edited or truncated copy, or a
    manifest without the digests (files written by earlier versions)
    sends the load to the parse below, silently.

    Blank lines and lines starting with ``#`` are skipped.  Raises
    :class:`ConfigError` naming the file line number on any malformed row,
    and naming the manifest when it is not a JSON object.
    The rows are parsed by numpy's C reader (``np.loadtxt``), whose float
    grammar is ``float``'s without digit-group underscores: ``1_0`` is a
    non-numeric field.  They are rescanned one by one only to name a
    malformed one.
    """
    csv_path = Path(csv_path)
    mpath = manifest_path_for(csv_path)
    raw = _read_manifest(mpath) if mpath.exists() else None
    with csv_path.open() as f:
        first = _next_row(f, 0)
        if first is None:
            raise ConfigError(f"{csv_path}: empty snapshot CSV")
        lineno, line = first
        header = line.split(",")
        n = sum(1 for c in header if c.startswith("x") and not c.endswith("p"))
        m = sum(1 for c in header if c.startswith("u"))
        if n == 0 or m == 0 or header != _csv_header(n, m).split(","):
            raise ConfigError(f"{csv_path}: unrecognized snapshot CSV header {line!r}")
        data = None if raw is None else _stored_rows(csv_path, raw, 2 * n + m, csv_sha256)
        if data is None:
            data = _read_rows(csv_path, f, lineno, 2 * n + m)
    meta = {} if raw is None else {key: raw.get(key) for key in ("system_name", "seed", "dt")}
    return SnapshotSet(X=data[:, :n].T, Xplus=data[:, n + m :].T, U=data[:, n : n + m].T, meta=meta)


# ----------------------------------------------------------------------
# Builtin systems


def example_poly(
    a: float = 0.5,
    b: float = 1.0,
    c: float = 0.8,
    d: float = 0.1,
    e: float = 0.2,
    f: float = 0.3,
    g: float = 0.4,
    h: float = 0.05,
) -> ControlSystem:
    """Two-state polynomial benchmark system with a sine input channel.

    .. math::

        x_1^+ &= a x_1 + b u \\\\
        x_2^+ &= c x_2 + d x_1^2 + e x_1 u + f u + g \\sin(u) + h

    The default coefficients keep ``|a|, |c| < 1`` so that every
    constant-input map is stable, and the default boxes
    ``[-2, 2] x [-8, 8]`` with ``u in [-1, 1]`` are forward invariant:
    experiment trajectories never leave them.
    """

    def step_map(x: Array, u: Array) -> Array:
        x1, x2 = x
        uu = u[0]
        return np.array(
            [
                a * x1 + b * uu,
                c * x2 + d * x1**2 + e * x1 * uu + f * uu + g * np.sin(uu) + h,
            ]
        )

    return ControlSystem(
        name="example_poly",
        state_dim=2,
        input_dim=1,
        step_map=step_map,
        state_box=[[-2.0, -8.0], [2.0, 8.0]],
        input_box=[[-1.0], [1.0]],
        dt=None,
        params=dict(a=a, b=b, c=c, d=d, e=e, f=f, g=g, h=h),
    )


DC_MOTOR_PARAMS = {
    "R_a": 12.345,
    "L_a": 0.314,
    "k_m": 0.253,
    "u_a": 60.0,
    "B": 0.00732,
    "tau_l": 1.47,
    "J": 0.00441,
}


def _dc_motor(name: str, f_of_u: Callable[[float], float], dt: float) -> ControlSystem:
    p = DC_MOTOR_PARAMS

    def rhs(x: Array, u: Array) -> Array:
        current, speed = x
        fu = f_of_u(u[0])
        d_current = (-p["R_a"] * current - p["k_m"] * speed * fu + p["u_a"]) / p["L_a"]
        d_speed = (-p["B"] * speed + p["k_m"] * current * fu - p["tau_l"]) / p["J"]
        return np.array([d_current, d_speed])

    return discretize_rk4(
        rhs,
        dt,
        state_dim=2,
        input_dim=1,
        state_box=[[-5.0, -250.0], [15.0, 125.0]],
        input_box=[[-4.0], [4.0]],
        name=name,
        params={**p, "dt": dt},
    )


def dc_motor_tanh(dt: float = 0.005) -> ControlSystem:
    """DC motor with field nonlinearity ``f(u) = 2 tanh(u)``, RK4 at ``dt``."""
    return _dc_motor("dc_motor_tanh", lambda v: 2.0 * np.tanh(v), dt)


def dc_motor_tanhcos(dt: float = 0.005) -> ControlSystem:
    """DC motor with field nonlinearity ``f(u) = 2 tanh(u cos(u))``."""
    return _dc_motor("dc_motor_tanhcos", lambda v: 2.0 * np.tanh(v * np.cos(v)), dt)


BUILTIN_SYSTEMS = ("dc_motor_tanh", "dc_motor_tanhcos", "example_poly")


def get_system(name: str, dt: float = 0.005) -> ControlSystem:
    """Look up a builtin system by name (``dt`` applies to the motors)."""
    if name == "example_poly":
        return example_poly()
    if name == "dc_motor_tanh":
        return dc_motor_tanh(dt)
    if name == "dc_motor_tanhcos":
        return dc_motor_tanhcos(dt)
    raise ConfigError(f"unknown system {name!r}; builtins: {', '.join(BUILTIN_SYSTEMS)}")
