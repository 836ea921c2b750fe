"""Outside-in span tracing of the beamshadow layers.

The benchmark wraps each layer's public functions from outside the package:
every module attribute that is bound to a traced function object is replaced
by a wrapper, so calls through ``from .x import f`` copies are recorded under
the binding the caller actually uses.  Nothing in ``src/`` is modified.

A span is ``(id, name, start, end, parent, thread)``.  Parents come from a
per-thread stack; a span opened on a thread with an empty stack (a pool
worker) is parented to the innermost open span of the thread that opened the
root span, which is the frame that submitted the work.  A span's self time is
its duration minus the union of its children's intervals, so concurrent
children are never subtracted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import threading
import time
import types
from collections import defaultdict

LAYERS = (
    "sphere",
    "fields",
    "distortion",
    "codebook",
    "metrics",
    "fileio",
    "link",
    "experiment",
    "cli",
)

# private functions traced because a per-layer metric is defined on them
EXTRA_SPANS = {("experiment", "_run_scenario"): "experiment.scenario"}


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "thread")

    def __init__(self, id, name, start, end, parent, thread):
        self.id, self.name, self.start, self.end = id, name, start, end
        self.parent, self.thread = parent, thread

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {s: getattr(self, s) for s in self.__slots__}


class Tracer:
    """In-memory span recorder plus per-span counters (bytes, entries...)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._root_stack: list | None = None

    def reset(self) -> None:
        self.spans = []
        self.counters = defaultdict(float)
        self._root_stack = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1][0]
        elif self._root_stack:
            parent = self._root_stack[-1][0]
        else:
            parent = None
            self._root_stack = stack
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        frame = [sid, name, parent, time.perf_counter()]
        stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        sid, name, parent, start = frame
        span = Span(sid, name, start, end, parent, threading.get_ident())
        with self._lock:
            self.spans.append(span)

    def count(self, key: str, amount: float) -> None:
        with self._lock:
            self.counters[key] += amount

    def maximum(self, key: str, value: float) -> None:
        with self._lock:
            self.counters[key] = max(self.counters.get(key, value), value)


def union_length(intervals) -> float:
    """Total length covered by a collection of (start, end) intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _child_intervals(spans) -> dict[int, list[tuple[float, float]]]:
    """Span id -> its children's intervals, clipped to the span."""
    by_id = {s.id: s for s in spans}
    out = defaultdict(list)
    for c in spans:
        parent = by_id.get(c.parent)
        if parent is not None:
            out[parent.id].append((max(c.start, parent.start), min(c.end, parent.end)))
    return out


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = _child_intervals(spans)
    return {s.id: s.duration - union_length(children.get(s.id, ())) for s in spans}


def accounting(spans, op_s: float) -> dict:
    """Split one traced op's wall time into span self times, the time that
    concurrent children add on top of the wall clock, and the unspanned rest.

    ``op_s == self_sum_s - concurrent_excess_s + unspanned_s`` up to rounding.
    """
    selfs = self_times(spans)
    excess = sum(
        sum(max(hi - lo, 0.0) for lo, hi in clipped) - union_length(clipped)
        for clipped in _child_intervals(spans).values()
    )
    roots = [s for s in spans if s.parent is None]
    root_s = sum(s.duration for s in roots)
    self_sum = sum(selfs.values())
    return {
        "op_s": op_s,
        "self_sum_s": self_sum,
        "concurrent_excess_s": excess,
        "unspanned_s": op_s - root_s,
        "residual_s": op_s - (self_sum - excess + (op_s - root_s)),
    }


def summarize(spans) -> dict[str, dict]:
    """Per span name: calls, total duration and total self time."""
    selfs = self_times(spans)
    table: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for s in spans:
        row = table[s.name]
        row["calls"] += 1
        row["total_s"] += s.duration
        row["self_s"] += selfs[s.id]
    return dict(table)


# --- counters taken at layer boundaries --------------------------------------


def _n_directions(field, roi) -> int:
    return int(roi.mask.sum()) if roi is not None else int(field.grid.n_directions)


def _gain_map_hook(tracer, args, result):
    scheme = args["scheme"]
    if not isinstance(scheme, str):
        n = _n_directions(args["field"], args.get("roi"))
        tracer.count("codebook.entries_searched", n * len(scheme))


def _amp_gain_map_hook(tracer, args, result):
    field = args["field"]
    size = (2 ** args["b_bits"]) ** (field.n_antennas - 1)
    tracer.count("codebook.entries_searched", _n_directions(field, args.get("roi")) * size)


def _write_hook(tracer, args, result):
    tracer.count("fileio.bytes_written", os.path.getsize(args["path"]))


def _read_hook(tracer, args, result):
    tracer.count("fileio.bytes_read", os.path.getsize(args["path"]))


def _workers_hook(tracer, args, result):
    tracer.maximum("experiment.workers", result)


def _trials_hook(tracer, args, result):
    tracer.count("link.trials", args["n_trials"])


HOOKS = {
    "codebook.gain_map": _gain_map_hook,
    "codebook.amp_gain_map": _amp_gain_map_hook,
    "fileio.write_field_file": _write_hook,
    "fileio.write_distortion_file": _write_hook,
    "fileio.write_gain_map_csv": _write_hook,
    "fileio.read_field_file": _read_hook,
    "fileio.read_distortion_file": _read_hook,
    "experiment.resolve_workers": _workers_hook,
    "link.theorem_trials": _trials_hook,
}


def _wrap(tracer: Tracer, name: str, fn):
    hook = HOOKS.get(name)
    sig = inspect.signature(fn) if hook else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(frame)
        if hook is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            hook(tracer, bound.arguments, result)
        return result

    return wrapper


def traced_functions(package: str = "beamshadow") -> tuple[dict, list[str]]:
    """(function object -> span name) for every layer's public functions,
    plus the layers whose module could not be imported."""
    targets, absent = {}, []
    for layer in LAYERS:
        try:
            mod = importlib.import_module(f"{package}.{layer}")
        except ImportError:
            absent.append(layer)
            continue
        for attr, obj in vars(mod).items():
            if (
                isinstance(obj, types.FunctionType)
                and obj.__module__ == mod.__name__
                and not attr.startswith("_")
            ):
                targets[obj] = f"{layer}.{attr}"
    for (layer, attr), span_name in EXTRA_SPANS.items():
        mod = sys.modules.get(f"{package}.{layer}")
        obj = getattr(mod, attr, None) if mod is not None else None
        if isinstance(obj, types.FunctionType):
            targets[obj] = span_name
    return targets, absent


class Installation:
    """Wrappers installed on every binding of the traced functions."""

    def __init__(self, tracer: Tracer, package: str = "beamshadow"):
        self.targets, self.absent_layers = traced_functions(package)
        self.span_names = set(self.targets.values())
        self._patches = []
        wrappers = {fn: _wrap(tracer, name, fn) for fn, name in self.targets.items()}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                try:
                    wrapper = wrappers.get(obj)
                except TypeError:  # unhashable attribute
                    continue
                if wrapper is not None:
                    self._patches.append((mod, attr, obj, wrapper))

    def enable(self) -> None:
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def disable(self) -> None:
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)
