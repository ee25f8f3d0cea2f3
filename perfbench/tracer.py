"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps engine functions from outside: it replaces every module
binding of a target function (``from .x import f`` copies the name into
each importing module, so one target can have several bindings) and every
class attribute holding a target method.  Each call through a wrapper
records one span -- name, parent span, op id, start and end in
nanoseconds -- into flat arrays, and ``restore()`` puts every original
object back.  A target that cannot be found is an error, so the traced
functions cannot vanish from the engine unnoticed.

Self time is a span's duration minus the time its children cover.  The
tracer runs in one thread and children are recorded on a stack, so the
children of a span never overlap and their durations simply add up.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import defaultdict

WRAPPED = "__perfbench_wrapped__"

#: Span name of the harness's counting after a traced call.
COUNT_SPAN = "trace.count"


class Target:
    """One function or method to trace.

    ``path`` is ``"module:attr"`` or ``"module:Class.attr"``.  ``flat``
    makes the wrapper route calls made while it is active straight to the
    original, so a recursive function yields one span per outside entry
    and the stack is no deeper than in an untraced run.  ``count`` is
    called as ``count(counters, args, result)`` after a call returns; its
    time is a ``COUNT_SPAN`` span, so it is no part of any traced span's
    self time.
    """

    def __init__(self, name, path, flat=False, count=None):
        self.name = name
        self.path = path
        self.flat = flat
        self.count = count

    def resolve(self):
        module_name, _, attr_path = self.path.partition(":")
        module = sys.modules.get(module_name)
        if module is None:
            return None, None, None
        holder = module
        *owners, attr = attr_path.split(".")
        for owner in owners:
            holder = getattr(holder, owner, None)
            if holder is None:
                return None, None, None
        original = holder.__dict__.get(attr) if owners else getattr(holder, attr, None)
        return holder, attr, original


def _package_modules(package):
    return [(name, module) for name, module in list(sys.modules.items())
            if module is not None and (name == package or name.startswith(package + "."))]


def _bindings(original, package):
    """Every (holder, attr) in the package's modules bound to ``original``."""
    return [(module, attr) for _, module in _package_modules(package)
            for attr, value in list(vars(module).items()) if value is original]


def leftover_wrappers(package="vira"):
    """Names of module or class attributes in the package still wrapped."""
    left = []
    for mod_name, module in _package_modules(package):
        for attr, value in list(vars(module).items()):
            if getattr(value, WRAPPED, False):
                left.append(f"{mod_name}.{attr}")
            if isinstance(value, type) and value.__module__ == mod_name:
                for cattr, cvalue in list(vars(value).items()):
                    if getattr(cvalue, WRAPPED, False):
                        left.append(f"{mod_name}.{attr}.{cattr}")
    return left


class Tracer:
    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack: list[int] = []
        self.op = -1
        self.counters: dict[str, int] = defaultdict(int)
        self._patches: list[tuple] = []

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def record(self, name, parent, op, start, end):
        """Append a finished span; returns its index."""
        self.span_name.append(self.name_id(name))
        self.span_parent.append(parent)
        self.span_op.append(op)
        self.span_start.append(start)
        self.span_end.append(end)
        return len(self.span_start) - 1

    # -- installing and removing wrappers -------------------------------

    def install(self, targets, package="vira"):
        """Wrap every target; raises LookupError, wrapping nothing, when a
        target is not found."""
        resolved = [(target, *target.resolve()) for target in targets]
        missing = [target.path for target, _, _, original in resolved if original is None]
        if missing:
            raise LookupError(f"traced functions not found: {', '.join(missing)}")
        for target, holder, attr, original in resolved:
            bindings = [(holder, attr)] if isinstance(holder, type) else _bindings(original, package)
            wrapper = self._wrap(target, original, bindings)
            for owner, name in bindings:
                self._patches.append((owner, name, original))
                setattr(owner, name, wrapper)

    def restore(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _wrap(self, target, fn, bindings):
        nid = self.name_id(target.name)
        count_nid = self.name_id(COUNT_SPAN) if target.count is not None else -1
        clock = self.clock
        stack = self.stack
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends = self.span_start, self.span_end
        counters, count, flat = self.counters, target.count, target.flat
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            if flat:
                for owner, name in bindings:
                    setattr(owner, name, fn)
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                if flat:
                    for owner, name in bindings:
                        setattr(owner, name, wrapper)
            if count is not None:
                idx = len(starts)
                names.append(count_nid)
                parents.append(stack[-1] if stack else -1)
                ops.append(tracer.op)
                starts.append(clock())
                ends.append(0)
                try:
                    count(counters, args, result)
                finally:
                    ends[idx] = clock()
            return result

        setattr(wrapper, WRAPPED, True)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", target.name)
        return wrapper

    # -- analysis -------------------------------------------------------

    def summary(self):
        """``{name: {"calls", "busy_s", "self_s"}}`` over all spans.

        busy_s adds up the spans that have no ancestor of the same name, so
        nested calls of one function are not counted twice.
        """
        n = len(self.span_start)
        child_ns = [0] * n
        # ancestor-name sets, interned: set id per span
        set_of = [0] * n
        sets = [frozenset()]
        grow: dict[tuple[int, int], int] = {}
        busy_ns = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        calls = [0] * len(self.names)
        for i in range(n):
            p = self.span_parent[i]
            dur = self.span_end[i] - self.span_start[i]
            nid = self.span_name[i]
            if p >= 0:
                child_ns[p] += dur
                key = (set_of[p], self.span_name[p])
                sid = grow.get(key)
                if sid is None:
                    sid = grow[key] = len(sets)
                    sets.append(sets[set_of[p]] | {self.span_name[p]})
                set_of[i] = sid
            calls[nid] += 1
            if nid not in sets[set_of[i]]:
                busy_ns[nid] += dur
        for i in range(n):
            nid = self.span_name[i]
            self_ns[nid] += self.span_end[i] - self.span_start[i] - child_ns[i]
        return {
            name: {"calls": calls[nid], "busy_s": busy_ns[nid] / 1e9,
                   "self_s": self_ns[nid] / 1e9}
            for nid, name in enumerate(self.names)
        }

    def write(self, path):
        """Write every span as gzip'd tab-separated text."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tparent\top\tname\tstart_ns\tend_ns\n")
            names = self.names
            for i in range(len(self.span_start)):
                fh.write(
                    f"{i}\t{self.span_parent[i]}\t{self.span_op[i]}\t"
                    f"{names[self.span_name[i]]}\t{self.span_start[i]}\t{self.span_end[i]}\n"
                )
