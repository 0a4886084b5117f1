"""Span tracing around the public functions of the fedlsm layers.

A Tracer wraps functions from outside the package: `installed()` replaces
every binding of each target function in the loaded `fedlsm` modules, so
a module that imported the function by name is traced too, and restores
the originals on exit.  Each call records one span (name, start, end,
parent span, round id, operation id) in flat arrays; hooks add counts
taken from the call's arguments and result.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager

from arith import self_times

PACKAGE = "fedlsm"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.round_id = 0
        self.op_id = 0
        self.reset()

    def reset(self) -> None:
        """Drop recorded spans and counts (name ids are kept)."""
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.round = array("l")
        self.op = array("l")
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, hook=None):
        """Return fn recording a span per call; hook(counts, args, kwargs,
        result) runs after the span closes."""
        nid = self._intern(name)
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t = tracer
            idx = len(t.start)
            t.name.append(nid)
            t.parent.append(t._stack[-1] if t._stack else -1)
            t.round.append(t.round_id)
            t.op.append(t.op_id)
            t.end.append(0.0)
            t._stack.append(idx)
            t.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t.end[idx] = clock()
                t._stack.pop()
            if hook is not None:
                hook(t.counts, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self, targets):
        """Trace each (module, attribute, span name, hook) target.

        A target that no longer exists raises AttributeError, so a
        renamed layer function stops the traced run instead of reading
        zero.
        """
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == PACKAGE
                                         or k.startswith(PACKAGE + "."))]
        patched = []
        try:
            for modname, attr, span, hook in targets:
                original = getattr(sys.modules[modname], attr)
                wrapped = self.wrap(span, original, hook)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)
                            patched.append((mod, key, original))
            yield self
        finally:
            for mod, key, original in reversed(patched):
                setattr(mod, key, original)

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds, inclusive
        durations, and the number of direct children by child name."""
        selfs = self_times(self.start, self.end, self.parent)
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                   "durations": [], "children": Counter()})
        for i, nid in enumerate(self.name):
            rec = out[self.names[nid]]
            dur = self.end[i] - self.start[i]
            rec["calls"] += 1
            rec["total_s"] += dur
            rec["self_s"] += selfs[i]
            rec["durations"].append(dur)
            p = self.parent[i]
            if p >= 0:
                out[self.names[self.name[p]]]["children"][self.names[nid]] += 1
        return out

    def calls_per_round(self, name: str) -> Counter:
        """Number of `name` spans per (operation id, round id)."""
        nid = self._ids.get(name)
        return Counter((self.op[i], self.round[i])
                       for i, n in enumerate(self.name) if n == nid)
