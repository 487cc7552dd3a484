"""Runtime span tracing of the ``delayed_oco`` package, installed from outside.

``Tracer.install`` replaces, in place, every public function and method the
package defines (module functions, class methods, static and class methods,
property getters) with a wrapper that records one span per call.  A function
imported by name into another module (``as_decision`` in ``losses`` and
``environments``, ``block_schedule`` in ``environments``) is replaced at that
binding too, under the span name ``<module>.<name>@<binding module>``, so
calls are counted at every binding.  ``uninstall`` restores the originals.

Spans are kept in memory as parallel arrays: name id, start and end
(``perf_counter_ns``), parent span index, unit-call id and one integer probe
value (for example the number of feedback items an ``ingest`` received).
Self time is a span's duration minus the durations of its direct children,
so summing self times over all spans of a unit call gives the root span's
duration exactly, with nested calls (``MildOGD.ingest`` calling
``DelayedOGD.ingest`` per expert) counted once.
"""

from __future__ import annotations

import functools
import inspect
import re
import sys
import time
from array import array

import numpy as np

PACKAGE = "delayed_oco"
MODULES = ("geometry", "losses", "delay", "learners", "environments",
           "metrics", "harness", "cli")

# Probe values recorded at span end.  They read plain attributes and lengths
# only, never a wrapped property, so a probe never opens a span of its own.
_PROBES = {
    "delay.FeedbackQueue.push": lambda args, result: len(args[0]),
    "delay.FeedbackQueue.pop": lambda args, result: len(result),
    "harness.simulate": lambda args, result: int(result.decisions.shape[0]),
}
_INGEST = re.compile(r"^learners\.\w+\.ingest$")


def _probe_for(name: str):
    if _INGEST.match(name):
        return lambda args, result: len(args[2])
    return _PROBES.get(name)


class Tracer:
    """Span recorder; ``only`` restricts wrapping to the named spans."""

    def __init__(self, only: tuple[str, ...] | None = None):
        self.only = only
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.call = array("i")
        self.value = array("q")
        self._stack = [-1]
        self.call_id = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        probe = _probe_for(name.split("@")[0])
        names, starts, ends = self.name, self.start, self.end
        parents, calls, values, stack = self.parent, self.call, self.value, self._stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            calls.append(tracer.call_id)
            values.append(0)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if probe is not None:
                values[idx] = probe(args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def span(self, name: str, call_id: int):
        """Context manager for a root span (one unit call of a workload)."""
        return _RootSpan(self, self._name_id(name), call_id)

    # -- installation ------------------------------------------------------
    def _wanted(self, name: str) -> bool:
        return self.only is None or name.split("@")[0] in self.only

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {short: sys.modules[f"{PACKAGE}.{short}"] for short in MODULES}
        own: dict[int, tuple[object, str]] = {}  # id(function) -> (function, span name)
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    # private base classes too: their public methods are what
                    # subclasses such as DogdDoublingTrick run
                    self._install_class(short, obj)
                elif inspect.isfunction(obj) and not attr.startswith("_"):
                    own[id(obj)] = (obj, f"{short}.{attr}")
        # Replace each function at every module binding, the package included.
        bindings = dict(mods)
        bindings[PACKAGE] = sys.modules[PACKAGE]
        for short, mod in bindings.items():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in own:
                    fn, name = own[id(obj)]
                    home = name.split(".")[0]
                    span_name = name if short == home else f"{name}@{short}"
                    if self._wanted(span_name):
                        self._patch(mod, attr, self._wrap(fn, span_name))
        return self

    def _install_class(self, short: str, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if not self._wanted(name):
                continue
            if isinstance(member, staticmethod):
                new = staticmethod(self._wrap(member.__func__, name))
            elif isinstance(member, classmethod):
                new = classmethod(self._wrap(member.__func__, name))
            elif isinstance(member, property) and member.fget is not None:
                new = property(self._wrap(member.fget, name), member.fset,
                               member.fdel, member.__doc__)
            elif inspect.isfunction(member):
                new = self._wrap(member, name)
            else:
                continue
            self._patch(cls, attr, new)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- export ------------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "call": np.frombuffer(self.call, dtype=np.int32).copy(),
            "value": np.frombuffer(self.value, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


class _RootSpan:
    def __init__(self, tracer: Tracer, nid: int, call_id: int):
        self.tracer, self.nid, self.call_id = tracer, nid, call_id

    def __enter__(self):
        tr = self.tracer
        tr.call_id = self.call_id
        self.idx = len(tr.name)
        tr.name.append(self.nid)
        tr.parent.append(tr._stack[-1])
        tr.call.append(self.call_id)
        tr.value.append(0)
        tr.start.append(time.perf_counter_ns())
        tr.end.append(0)
        tr._stack.append(self.idx)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.end[self.idx] = time.perf_counter_ns()
        tr._stack.pop()
        tr.call_id = -1
        return False


class SpanTable:
    """Spans of one unit call with per-span duration and self time (ns)."""

    def __init__(self, tracer: Tracer, call_id: int):
        arr = tracer.arrays()
        keep = np.flatnonzero(arr["call"] == call_id)
        if keep.size == 0:
            raise ValueError(f"no spans recorded for unit call {call_id}")
        remap = np.full(arr["name"].size + 1, -1, dtype=np.int64)
        remap[keep] = np.arange(keep.size)
        parent = arr["parent"][keep].astype(np.int64)
        self.parent = np.where(parent >= 0, remap[parent], -1)
        self.names = list(tracer.names)
        self.name = arr["name"][keep]
        self.value = arr["value"][keep]
        self.dur = (arr["end_ns"][keep] - arr["start_ns"][keep]).astype(np.float64)
        child = self.parent >= 0
        self.child_sum = np.bincount(self.parent[child], weights=self.dur[child],
                                     minlength=keep.size)
        self.self_ns = self.dur - self.child_sum
        roots = np.flatnonzero(self.parent < 0)
        if roots.size != 1:
            raise ValueError(f"unit call {call_id} has {roots.size} root spans")
        self.root = int(roots[0])

    def mask(self, pattern: str) -> np.ndarray:
        """Spans whose name, binding suffix removed, matches ``pattern``."""
        rx = re.compile(pattern)
        hit = np.array([bool(rx.match(n.split("@")[0])) for n in self.names] + [False])
        return hit[self.name]

    def top(self, mask: np.ndarray) -> np.ndarray:
        """Spans in ``mask`` whose direct parent is not in ``mask``."""
        parent_in = np.zeros_like(mask)
        has = self.parent >= 0
        parent_in[has] = mask[self.parent[has]]
        return mask & ~parent_in

    def with_parent(self, mask: np.ndarray, parent_mask: np.ndarray) -> np.ndarray:
        out = np.zeros_like(mask)
        has = self.parent >= 0
        out[has] = mask[has] & parent_mask[self.parent[has]]
        return out

    def by_name(self) -> dict[str, dict]:
        """Per span name: calls, inclusive ms and self ms."""
        out = {}
        for nid in np.unique(self.name):
            m = self.name == nid
            out[self.names[nid]] = {"calls": int(m.sum()),
                                    "incl_ms": float(self.dur[m].sum() / 1e6),
                                    "self_ms": float(self.self_ns[m].sum() / 1e6)}
        return dict(sorted(out.items(), key=lambda kv: -kv[1]["self_ms"]))
