"""Spans recorded from outside a program, at the calls between its modules.

A ``Recorder`` keeps every span in memory (up to a cap) and aggregates all
of them per (caller span, callee) edge. Self time is a span's duration
minus the durations of its child spans; the children of one span never
overlap, because the program runs on one thread. A ``Patcher`` installs
wrappers by replacing attributes and puts every original back on
``restore``.
"""

from __future__ import annotations

import functools
import json
import time
import types

ROOT = "harness"


class Recorder:
    def __init__(self, clock=time.perf_counter, keep: int = 100_000):
        self.clock = clock
        self.keep = keep
        self.stack: list = []   # open frames: [name, child_s, start, id]
        self.edges: dict = {}   # (parent, name) -> [calls, total_s, self_s, amount]
        self.counts: dict = {}  # name -> calls, for counted-only methods
        self.spans: list = []   # (id, parent id or -1, name, start, end)
        self.dropped = 0
        self.root_s = 0.0
        self._next = 0

    def open(self, name: str) -> list:
        frame = [name, 0.0, self.clock(), self._next]
        self._next += 1
        self.stack.append(frame)
        return frame

    def close(self, frame: list, amount: int = 0):
        end = self.clock()
        name, child_s, start, sid = self.stack.pop()
        if frame[3] != sid:
            raise RuntimeError(f"span {name} closed out of order")
        dur = end - start
        if self.stack:
            parent = self.stack[-1]
            parent[1] += dur
            pname, pid = parent[0], parent[3]
        else:
            self.root_s += dur
            pname, pid = ROOT, -1
        e = self.edges.get((pname, name))
        if e is None:
            e = self.edges[(pname, name)] = [0, 0.0, 0.0, 0]
        e[0] += 1
        e[1] += dur
        e[2] += dur - child_s
        e[3] += amount
        if len(self.spans) < self.keep:
            self.spans.append((sid, pid, name, start, end))
        else:
            self.dropped += 1

    # -- aggregates -------------------------------------------------------

    def by_name(self) -> dict:
        """name -> [calls, total_s, self_s, amount] over all callers."""
        out: dict = {}
        for (_, name), e in self.edges.items():
            acc = out.setdefault(name, [0, 0.0, 0.0, 0])
            for k in range(4):
                acc[k] += e[k]
        return out

    def layer_self(self) -> dict:
        """Self time per layer, the layer being the span name's prefix."""
        out: dict = {}
        for (_, name), e in self.edges.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + e[2]
        return out

    def dump(self, path: str, extra: dict = None):
        """Write the kept spans and the aggregates as one JSON document."""
        doc = {"spans": [list(s) for s in self.spans],
               "dropped": self.dropped,
               "edges": [[p, n, *e] for (p, n), e in
                         sorted(self.edges.items())],
               "counts": self.counts, **(extra or {})}
        with open(path, "w") as f:
            json.dump(doc, f)


def span(rec: Recorder, name: str, fn, amount=None):
    """``fn`` wrapped in a span; ``amount(args, result)`` adds a count
    (bytes, words) to the span's edge."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            rec.close(frame)
            raise
        rec.close(frame, amount(args, result) if amount else 0)
        return result

    return wrapper


def counted(rec: Recorder, name: str, fn):
    """``fn`` wrapped to count its calls, without a span."""
    counts = rec.counts
    counts.setdefault(name, 0)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


class Patcher:
    def __init__(self):
        self._undo: list = []

    def set(self, obj, attr: str, value):
        self._undo.append((obj, attr, obj.__dict__[attr]
                           if isinstance(obj, type) else getattr(obj, attr),
                           False))
        setattr(obj, attr, value)

    def set_item(self, mapping: dict, key, value):
        old = mapping[key]
        self._undo.append((mapping, key, old, True))
        mapping[key] = value

    def wrap_method(self, cls: type, attr: str, make):
        """Replace a method with ``make(function)``, keeping it a
        staticmethod or classmethod if it was one."""
        raw = cls.__dict__[attr]
        if isinstance(raw, (staticmethod, classmethod)):
            self.set(cls, attr, type(raw)(make(raw.__func__)))
        else:
            self.set(cls, attr, make(raw))

    def restore(self):
        while self._undo:
            obj, attr, old, item = self._undo.pop()
            if item:
                obj[attr] = old
            else:
                setattr(obj, attr, old)


def module_functions(module: types.ModuleType, package: str):
    """(attribute, function, defining module's last name) for every
    function in ``module``'s namespace defined in another module of
    ``package``: the names through which it calls other modules."""
    own = module.__name__
    for attr, obj in sorted(vars(module).items()):
        if (isinstance(obj, types.FunctionType)
                and obj.__module__.startswith(package + ".")
                and obj.__module__ != own):
            yield attr, obj, obj.__module__.rsplit(".", 1)[1]


def proxy_module(rec: Recorder, module: types.ModuleType, layer: str):
    """A stand-in for ``module`` whose own functions are wrapped in spans,
    for a caller that reaches them as ``module.name``."""
    ns = types.SimpleNamespace(**vars(module))
    for attr, obj in vars(module).items():
        if (isinstance(obj, types.FunctionType)
                and obj.__module__ == module.__name__):
            setattr(ns, attr, span(rec, f"{layer}.{obj.__name__}", obj))
    return ns
