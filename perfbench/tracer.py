"""Benchmark-side spans around calls into fracpath.

``Tracer.install`` replaces every public function of the layer modules, and
every other reference to it inside the package (``experiments.ito_check`` is
the same function as ``follmer.ito_check``), by a wrapper that records a
span: id, parent id, name, start, end, items, run id. Spans stay in memory
and are written out by ``dump``. ``uninstall`` restores the originals, so
one process can alternate traced and untraced passes.

Times come from ``time.monotonic_ns`` (CLOCK_MONOTONIC, shared by all
processes on the host), so spans recorded in CLI subprocesses line up with
the spans of the process that started them.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict

LAYER_MODULES = (
    "paths",
    "partitions",
    "variation",
    "fracops",
    "follmer",
    "isometry",
    "experiments",
    "registry",
    "cli",
)
# methods traced in addition to module-level functions
LAYER_METHODS = (("paths", "SampledPath", "value_at"),)


def _size(x) -> int:
    return int(getattr(x, "size", 1))


def _intervals(part) -> int:
    return int(part.n_intervals)


# span name -> items of one call, from (args, kwargs, result); default 1
ITEMS = {
    "partitions.cantor_value_grid": lambda a, k, r: r[0].times.size,
    "paths.value_at": lambda a, k, r: _size(r),
    "follmer.ito_check": lambda a, k, r: r.n_increments,
    "variation.pth_variation_partial": lambda a, k, r: _intervals(a[1]),
    "variation.phi_variation_partial": lambda a, k, r: _intervals(a[1]),
    "variation.variation_table": lambda a, k, r: _intervals(a[1]),
    "experiments.cantor_stage": lambda a, k, r: r.n_increments,
    "paths.fbm_path": lambda a, k, r: r.times.size,
    "partitions.value_grid_partition": lambda a, k, r: a[0].times.size,
    "partitions.badic": lambda a, k, r: r.times.size,
    "partitions.osc": lambda a, k, r: _intervals(a[1]),
    "isometry.isometry_check": lambda a, k, r: sum(_intervals(p) for p in a[3]),
    "experiments.fbm_variation_experiment": lambda a, k, r: a[1] * len(r.seeds),
    "follmer.kernel_profile": lambda a, k, r: _size(r),
    "experiments.bump_decomposition": lambda a, k, r: r.n_increments,
}

# span name -> counters added per call, from (args, kwargs, result)
COUNTERS = {
    "follmer.ito_check": lambda a, k, r: {
        "follmer.ito_check.increments": r.n_increments,
        "follmer.ito_check.zero_increments": r.n_zero_increments,
    },
}


class Tracer:
    """Records spans of one process; ``root`` is the span id new top-level
    spans hang from (a span of the parent process, or 0)."""

    def __init__(self, run_id: str, root: int = 0):
        self.run_id = run_id
        self.root = root
        self.spans: list[tuple] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._base = os.getpid() << 32
        self._next = 1
        self._patches: list[tuple] = []

    # ------------------------------------------------------------------ spans

    def _new_id(self) -> int:
        sid = self._base | self._next
        self._next += 1
        return sid

    def begin(self) -> tuple[int, int, int]:
        sid = self._new_id()
        parent = self._stack[-1] if self._stack else self.root
        self._stack.append(sid)
        return sid, parent, time.monotonic_ns()

    def end(self, token, name: str, items: int = 1) -> None:
        sid, parent, start = token
        stop = time.monotonic_ns()
        self._stack.pop()
        self.spans.append((sid, parent, name, start, stop, int(items), self.run_id))

    @contextlib.contextmanager
    def span(self, name: str):
        """A benchmark-side span; yields its id, for child processes."""
        token = self.begin()
        try:
            yield token[0]
        finally:
            self.end(token, name)

    def record(self, name: str, start: int, stop: int, parent: int | None = None) -> int:
        """A finished span measured elsewhere (e.g. spawn to import end)."""
        sid = self._new_id()
        if parent is None:
            parent = self._stack[-1] if self._stack else self.root
        self.spans.append((sid, parent, name, start, stop, 1, self.run_id))
        return sid

    # ---------------------------------------------------------------- install

    def _wrap(self, name: str, fn):
        tracer = self
        items_of = ITEMS.get(name)
        counters_of = COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            token = tracer.begin()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.end(token, name, 0)
                raise
            tracer.end(token, name, items_of(args, kwargs, result) if items_of else 1)
            if counters_of is not None:
                for key, value in counters_of(args, kwargs, result).items():
                    tracer.counters[key] += int(value)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {m: importlib.import_module(f"fracpath.{m}") for m in LAYER_MODULES}
        wrapped = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrapped[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        package = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "fracpath"]
        for mod in package:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
        for short, cls_name, meth in LAYER_METHODS:
            cls = getattr(mods[short], cls_name)
            self._patch(cls, meth, self._wrap(f"{short}.{meth}", cls.__dict__[meth]))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ----------------------------------------------------------------- output

    def dump(self, path) -> None:
        with open(path, "a") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(SPAN_FIELDS, s))) + "\n")
            fh.write(json.dumps({"counters": dict(self.counters), "run": self.run_id}) + "\n")


SPAN_FIELDS = ("id", "parent", "name", "start", "end", "items", "run")


def load(path) -> tuple[list[tuple], dict[str, int]]:
    """Spans and summed counters from a file written by ``Tracer.dump``."""
    spans, counters = [], defaultdict(int)
    with open(path) as fh:
        for line in fh:
            row = json.loads(line)
            if "counters" in row:
                for key, value in row["counters"].items():
                    counters[key] += value
            else:
                spans.append(tuple(row[f] for f in SPAN_FIELDS))
    return spans, counters


def self_times(spans) -> dict[str, dict]:
    """Per span name: calls, self time (duration minus the time its direct
    children cover), inclusive time of its outermost calls, and items."""
    by_id = {s[0]: s for s in spans}
    child_ns: dict[int, int] = defaultdict(int)
    for sid, parent, _name, start, stop, _items, _run in spans:
        child_ns[parent] += stop - start
    table: dict[str, dict] = {}
    for sid, parent, name, start, stop, items, _run in spans:
        row = table.setdefault(name, {"calls": 0, "self_ns": 0, "incl_ns": 0, "items": 0})
        row["calls"] += 1
        row["self_ns"] += stop - start - child_ns[sid]
        row["items"] += items
        up = by_id.get(parent)
        while up is not None and up[2] != name:
            up = by_id.get(up[1])
        if up is None:
            row["incl_ns"] += stop - start
    return table
