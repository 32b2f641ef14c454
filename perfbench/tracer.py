"""Spans and call counts recorded from outside the package.

`Tracer.install` replaces the public functions of each `pbdss` module,
and a few public methods, with wrappers that record one span per call:
name, start, end, parent span, the operation it belongs to, and whether
it raised.  A name imported into another module is wrapped there too,
so `pbdss.cli.repair_multi` and `pbdss.repair.repair_multi` both record
`repair.repair_multi`.  Spans stay in memory until the run ends.

`Counters.install` wraps the hot leaf calls (field add/sub/mul, read-trace
reads, oracle pattern checks) with counters only.  It runs in its own
pass so the counting cost never lands in a span.
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass

MODULES = ("gf", "layout", "class_a", "class_b", "repair", "metrics", "oracle", "cli")

# Leaf helpers called in inner loops; a span on each would measure the tracer.
UNWRAPPED = {"mod_k", "in_q_set", "q_column", "r_set", "q_set", "x_set", "read_cost",
             "psi_argmax", "psi", "xi_threshold", "symbol_bits", "field_arith"}

METHODS = {
    "gf": {"FieldSpec": ("__init__", "dense_tables")},
    "class_a": {"ClassASpec": ("build", "from_json_dict")},
    "class_b": {"ClassBSpec": ("from_json_dict",)},
    "repair": {"CodeSpec": ("build", "from_json", "from_json_dict", "to_json")},
}


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: int  # index into Tracer.spans, -1 at top level
    op: int  # operation id, -1 during set-up
    label: str
    raised: str | None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op = -1
        self.label = "setup"
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = Span(name, time.perf_counter_ns(), 0, stack[-1] if stack else -1,
                        self.op, self.label, None)
            spans.append(span)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span.raised = type(exc).__name__
                raise
            finally:
                stack.pop()
                span.end = time.perf_counter_ns()

        return traced

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, package) -> None:
        for short in MODULES:
            mod = getattr(package, short)
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__.startswith("pbdss.") and attr not in UNWRAPPED):
                    span_name = f"{obj.__module__[len('pbdss.'):]}.{obj.__qualname__}"
                    self._replace(mod, attr, self._wrap(span_name, obj))
            for cls_name, methods in METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    raw = cls.__dict__[meth]
                    name = f"{short}.{cls_name}.{meth}"
                    if isinstance(raw, classmethod):
                        self._replace(cls, meth, classmethod(self._wrap(name, raw.__func__)))
                    else:
                        self._replace(cls, meth, self._wrap(name, raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def begin(self, op: int, label: str) -> None:
        self.op, self.label = op, label


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the time its child spans cover (ns)."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


class Counters:
    """Exact call counts at the hot leaf boundaries."""

    def __init__(self):
        self.add = self.sub = self.mul = 0
        self.reads = self.read_hits = 0
        self.patterns = 0
        self._in_sub = False
        self._undo: list[tuple[object, str, object]] = []

    def install(self, package) -> None:
        field_cls = package.gf.FieldSpec
        add, sub, mul = field_cls.add, field_cls.sub, field_cls.mul
        read = package.repair.ReadTrace.read
        decodable = package.oracle._ml_decodable_rows

        def c_add(fs, a, b):
            if not self._in_sub:  # FieldSpec.sub adds internally; count the sub once
                self.add += 1
            return add(fs, a, b)

        def c_sub(fs, a, b):
            self.sub += 1
            self._in_sub = True
            try:
                return sub(fs, a, b)
            finally:
                self._in_sub = False

        def c_mul(fs, a, b):
            self.mul += 1
            return mul(fs, a, b)

        def c_read(trace, node, row):
            issued = read(trace, node, row)
            self.reads += 1
            self.read_hits += issued == 0
            return issued

        def c_decodable(*args):
            self.patterns += 1
            return decodable(*args)

        for owner, attr, new in ((field_cls, "add", c_add), (field_cls, "sub", c_sub),
                                 (field_cls, "mul", c_mul), (package.repair.ReadTrace, "read", c_read),
                                 (package.oracle, "_ml_decodable_rows", c_decodable)):
            self._undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)
