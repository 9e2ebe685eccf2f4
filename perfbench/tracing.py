"""Spans around kooplift's public functions, recorded from outside the package.

``instrument(tracer)`` replaces every public function of the six layer
modules (``dynamics``, ``observables``, ``edmd``, ``models``, ``learning``,
``cli``), the dictionary evaluation methods ``eval_aug`` / ``vjp_aug``, and
the SVD/QR entry points of ``numpy.linalg`` by wrappers that record spans,
and puts the originals back on exit.  A span's layer is the module that
defines the function.  Nothing is patched outside the ``with`` block, so an
untraced run executes the package exactly as shipped.

``layer_metrics(spans)`` turns the spans of one run into the per-layer
metrics listed in ``PER_LAYER``.  Times are inclusive span durations unless
a metric says otherwise; a layer's self time is its span's duration minus
the part of it covered by spans of other layers.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import inspect
import math
import os
import sys
import time

import numpy as np
from kooplift.errors import NonFiniteState

LAYERS = ("dynamics", "observables", "edmd", "models", "learning", "cli")

# Methods are not module functions, so they are listed by class.
METHODS = (
    ("NormalDictionary", "eval_aug"),
    ("TrainableNormalDictionary", "eval_aug"),
    ("TrainableNormalDictionary", "vjp_aug"),
)

# numpy.linalg entry points that factorize their operand (SVD or QR based).
FACTORIZATIONS = ("svd", "svdvals", "qr", "pinv", "lstsq")

# Layers whose spans count the factorizations of data-sized operands.
FACTORING_LAYERS = ("edmd", "models")

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("dynamics.run_experiments_s", "s", "lower"),
    ("dynamics.simulate_calls", "count", "lower"),
    ("dynamics.experiments", "count", "higher"),
    ("dynamics.rejected", "count", "lower"),
    ("dynamics.save_snapshots_s", "s", "lower"),
    ("dynamics.load_snapshots_s", "s", "lower"),
    ("dynamics.csv_bytes", "bytes", "lower"),
    ("observables.eval_aug_s", "s", "lower"),
    ("observables.eval_aug_columns", "count", "lower"),
    ("observables.vjp_aug_s", "s", "lower"),
    ("observables.vjp_aug_calls", "count", "lower"),
    ("edmd.fit_edmd_s", "s", "lower"),
    ("edmd.consistency_index_s", "s", "lower"),
    ("edmd.factorizations", "count", "lower"),
    ("edmd.factor_bytes", "bytes", "lower"),
    ("models.rollout_s", "s", "lower"),
    ("models.rollout_steps", "count", "lower"),
    ("models.diverged", "count", "lower"),
    ("models.baselines_s", "s", "lower"),
    ("models.factorizations", "count", "lower"),
    ("learning.train_s", "s", "lower"),
    ("learning.steps", "count", "lower"),
    ("learning.step_s", "s", "lower"),
    ("learning.step.forward_s", "s", "lower"),
    ("learning.step.vjp_s", "s", "lower"),
    ("learning.step.gram_s", "s", "lower"),
    ("learning.epoch_eval.train_loss_s", "s", "lower"),
    ("learning.epoch_eval.val_metric_s", "s", "lower"),
    ("learning.dict_passes_per_step", "count", "lower"),
    ("learning.nan_batches", "count", "lower"),
    ("learning.batches", "count", "lower"),
    ("cli.simulate_s", "s", "lower"),
    ("cli.consistency_s", "s", "lower"),
    ("cli.extract_s", "s", "lower"),
    ("cli.predict_s", "s", "lower"),
    ("cli.compare_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.nonzero_exits", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


@dataclasses.dataclass
class Span:
    """One call into a layer: name ``layer.function``, interval, parent index."""

    name: str
    parent: int | None
    start: float
    end: float = math.nan
    attrs: dict = dataclasses.field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects the spans of one run in memory; the run is the trace id."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        sp = Span(name, self._stack[-1] if self._stack else None, self.clock())
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        try:
            yield sp
        finally:
            sp.end = self.clock()
            self._stack.pop()

    def innermost(self, layers) -> Span | None:
        """The most recently opened, still open span of one of ``layers``."""
        for i in reversed(self._stack):
            if self.spans[i].layer in layers:
                return self.spans[i]
        return None


# ----------------------------------------------------------------------
# Span arithmetic


def _children(spans) -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for i, sp in enumerate(spans):
        if sp.parent is not None:
            kids.setdefault(sp.parent, []).append(i)
    return kids


def _topmost(spans, kids, i, match):
    """Descendants of span ``i`` that satisfy ``match``, not below another match."""
    found, todo = [], list(kids.get(i, ()))
    while todo:
        j = todo.pop()
        if match(spans[j]):
            found.append(j)
        else:
            todo.extend(kids.get(j, ()))
    return found


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_time(spans, i, kids=None) -> float:
    """Duration of span ``i`` minus the time its other-layer descendants cover."""
    kids = _children(spans) if kids is None else kids
    sp = spans[i]
    other = _topmost(spans, kids, i, lambda s: s.layer != sp.layer)
    return sp.duration - _covered([(spans[j].start, spans[j].end) for j in other],
                                  sp.start, sp.end)


def _has_ancestor(spans, i, name) -> bool:
    p = spans[i].parent
    while p is not None:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def _per_call(spans, name, key) -> float:
    """Mean of attribute ``key`` over the spans named ``name`` (0 without calls)."""
    calls = [sp.attrs.get(key, 0) for sp in spans if sp.name == name]
    return sum(calls) / len(calls) if calls else 0.0


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced run (everything but ``trace.overhead_s``)."""
    kids = _children(spans)

    def idx(*names):
        return [i for i, sp in enumerate(spans) if sp.name in names]

    def total(*names):
        return float(sum(spans[i].duration for i in idx(*names)))

    def attr(names, key):
        return sum(spans[i].attrs.get(key, 0) for i in idx(*names))

    steps = idx("learning.loss_gradient")
    forward = [j for i in steps
               for j in _topmost(spans, kids, i, lambda s: s.name == "observables.eval_aug")]
    vjp = [j for i in steps
           for j in _topmost(spans, kids, i, lambda s: s.name == "observables.vjp_aug")]
    epoch_eval = [i for i in idx("learning.loss")
                  if not _has_ancestor(spans, i, "learning.loss_gradient")]

    def eval_time(mode):
        return float(sum(spans[i].duration for i in epoch_eval
                         if spans[i].attrs.get("mode") == mode))

    return {
        "dynamics.run_experiments_s": total("dynamics.run_experiments"),
        "dynamics.simulate_calls": len(idx("dynamics.simulate")),
        "dynamics.experiments": attr(["dynamics.run_experiments"], "experiments"),
        "dynamics.rejected": attr(["dynamics.run_experiments"], "rejected"),
        "dynamics.save_snapshots_s": total("dynamics.save_snapshots"),
        "dynamics.load_snapshots_s": total("dynamics.load_snapshots"),
        "dynamics.csv_bytes": attr(["dynamics.save_snapshots", "dynamics.load_snapshots"],
                                   "bytes"),
        "observables.eval_aug_s": total("observables.eval_aug"),
        "observables.eval_aug_columns": attr(["observables.eval_aug"], "columns"),
        "observables.vjp_aug_s": total("observables.vjp_aug"),
        "observables.vjp_aug_calls": len(idx("observables.vjp_aug")),
        "edmd.fit_edmd_s": total("edmd.fit_edmd"),
        "edmd.consistency_index_s": total("edmd.consistency_index"),
        "edmd.factorizations": (_per_call(spans, "edmd.fit_edmd", "factorizations")
                                + _per_call(spans, "edmd.consistency_index",
                                            "factorizations")),
        "edmd.factor_bytes": (_per_call(spans, "edmd.fit_edmd", "factor_bytes")
                              + _per_call(spans, "edmd.consistency_index", "factor_bytes")),
        "models.rollout_s": total("models.rollout"),
        "models.rollout_steps": attr(["models.rollout"], "steps"),
        "models.diverged": attr(["models.rollout"], "diverged"),
        "models.baselines_s": total("models.fit_linear_baseline",
                                    "models.fit_bilinear_baseline"),
        "models.factorizations": sum(sp.attrs.get("factorizations", 0)
                                     for sp in spans if sp.layer == "models"),
        "learning.train_s": total("learning.train"),
        "learning.steps": sum(1 for i in steps if spans[i].attrs.get("ok")),
        "learning.step_s": total("learning.loss_gradient"),
        "learning.step.forward_s": float(sum(spans[j].duration for j in forward)),
        "learning.step.vjp_s": float(sum(spans[j].duration for j in vjp)),
        "learning.step.gram_s": float(sum(self_time(spans, i, kids) for i in steps)),
        "learning.epoch_eval.train_loss_s": eval_time("trace"),
        "learning.epoch_eval.val_metric_s": eval_time("max_eig"),
        "learning.dict_passes_per_step": (len(forward) + len(vjp)) / len(steps)
                                         if steps else 0.0,
        "learning.nan_batches": attr(["learning.train"], "nan_batches"),
        "learning.batches": len(steps),
        "cli.simulate_s": total("cli.cmd_simulate"),
        "cli.consistency_s": total("cli.cmd_consistency"),
        "cli.extract_s": total("cli.cmd_extract"),
        "cli.predict_s": total("cli.cmd_predict"),
        "cli.compare_s": total("cli.cmd_compare"),
        "cli.self_s": float(sum(self_time(spans, i, kids) for i in idx("cli.main"))),
        "cli.nonzero_exits": sum(1 for i in idx("cli.main") if spans[i].attrs.get("rc")),
    }


# ----------------------------------------------------------------------
# Per-function attributes, taken at the same boundaries as the spans.
# Each hook gets (span, bound arguments, result, raised exception or None).


def _run_experiments(sp, args, result, err):
    sp.attrs["experiments"] = args["plan"].num_experiments
    sp.attrs["rejected"] = 0 if result is None else result.rejected


def _csv_size(sp, args, result, err):
    if err is None:
        sp.attrs["bytes"] = os.path.getsize(args["csv_path"])


def _eval_aug(sp, args, result, err):
    sp.attrs["columns"] = np.shape(args["Z"])[-1]


def _rollout(sp, args, result, err):
    if result is not None:
        sp.attrs["steps"] = result.shape[1] - 1
    else:
        sp.attrs["steps"] = getattr(err, "step", 0)
        sp.attrs["diverged"] = int(isinstance(err, NonFiniteState))


def _loss(sp, args, result, err):
    sp.attrs["mode"] = args["mode"]


def _loss_gradient(sp, args, result, err):
    sp.attrs["ok"] = err is None


def _train(sp, args, result, err):
    if result is not None:
        sp.attrs["nan_batches"] = result[1].nan_batches


def _main(sp, args, result, err):
    sp.attrs["rc"] = err.code if isinstance(err, SystemExit) else result


HOOKS = {
    "dynamics.run_experiments": _run_experiments,
    "dynamics.save_snapshots": _csv_size,
    "dynamics.load_snapshots": _csv_size,
    "observables.eval_aug": _eval_aug,
    "models.rollout": _rollout,
    "learning.loss": _loss,
    "learning.loss_gradient": _loss_gradient,
    "learning.train": _train,
    "cli.main": _main,
}


def _data_length(args, kwargs) -> int:
    """Snapshot count N of a call: longest trailing axis among its data arguments."""
    n = 0
    for a in (*args, *kwargs.values()):
        if isinstance(a, np.ndarray) and a.ndim >= 2:
            n = max(n, a.shape[-1])
        elif hasattr(a, "n_snapshots"):
            n = max(n, a.n_snapshots)
    return n


def _wrap(tracer: Tracer, name: str, fn):
    hook = HOOKS.get(name)
    sig = inspect.signature(fn) if hook else None
    factoring = name.split(".", 1)[0] in FACTORING_LAYERS

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as sp:
            if factoring:
                sp.attrs["n_long"] = _data_length(args, kwargs)
            result = err = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                err = exc
                raise
            finally:
                if hook:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    hook(sp, bound.arguments, result, err)

    return wrapper


def _wrap_factorization(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(a, *args, **kwargs):
        sp = tracer.innermost(FACTORING_LAYERS)
        arr = np.asarray(a)
        if sp is not None and arr.ndim and max(arr.shape) >= sp.attrs.get("n_long", 0) > 0:
            sp.attrs["factorizations"] = sp.attrs.get("factorizations", 0) + 1
            sp.attrs["factor_bytes"] = sp.attrs.get("factor_bytes", 0) + arr.nbytes
        return fn(arr, *args, **kwargs)

    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Record spans into ``tracer`` for every call made inside the block."""
    modules = {layer: importlib.import_module(f"kooplift.{layer}") for layer in LAYERS}
    package = [m for name, m in sys.modules.items()
               if m is not None and (name == "kooplift" or name.startswith("kooplift."))]
    undo = []

    def replace_everywhere(fn, wrapper):
        for mod in package:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    undo.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)

    try:
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    replace_everywhere(fn, _wrap(tracer, f"{layer}.{attr}", fn))
        for cls_name, meth in METHODS:
            cls = getattr(modules["observables"], cls_name)
            fn = cls.__dict__[meth]
            undo.append((cls, meth, fn))
            setattr(cls, meth, _wrap(tracer, f"observables.{meth}", fn))
        for name in FACTORIZATIONS:
            fn = getattr(np.linalg, name, None)
            if fn is not None:
                undo.append((np.linalg, name, fn))
                setattr(np.linalg, name, _wrap_factorization(tracer, fn))
        yield tracer
    finally:
        for obj, attr, fn in reversed(undo):
            setattr(obj, attr, fn)
