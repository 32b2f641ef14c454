"""Repair schedules, compiled into plans, with exact read and cache accounting.

A repair session reads symbols one at a time; everything read or repaired
stays cached for the rest of the session, and a cached position is never
read again.  A schedule does the same arithmetic whatever the data, so it
runs once per (code, target node, erased-node set), on symbolic stages,
and is compiled into a RepairPlan that plan.execute replays.  The
per-node bandwidth figures all come from the ReadTrace of that plan, and
the operation counts from its stages, never from closed forms.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from .class_a import ClassASpec, _compact, _interned, decode_multi_class_a, decode_plan
from .class_b import ClassBSpec, construct1_parities, construct2_parities
from .gf import FieldSpec
from .layout import CodeArray, DataArray, q_set
from .plan import NodePos, ReadTrace, RepairPlan, Stage, execute, positions

# Plans are cached by value.  The bound holds the unmasked plans (one per
# node, plus encode) of as many codes as class_a._interned keeps, 16, at up
# to 31 nodes each: n <= 3k - tau - 2 reaches 31 at k = 11.
REPAIR_PLAN_CACHE_SIZE = 16 * 32


@dataclass(frozen=True)
class CodeSpec:
    """A full two-class code: MDS/piggyback part plus sum-parity part."""

    field: FieldSpec
    class_a: ClassASpec
    class_b: ClassBSpec

    def __post_init__(self):
        a, b = self.class_a, self.class_b
        if a.field != self.field:
            raise ValueError("class A spec uses a different field")
        if (a.k, a.tau, a.n_a) != (b.k, b.tau, b.n_a):
            raise ValueError("class A and class B shapes disagree")
        # every plan lookup hashes the spec: hash it once, outside the fields
        object.__setattr__(self, "_hash", hash((self.field, a, b)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def k(self) -> int:
        return self.class_a.k

    @property
    def tau(self) -> int:
        return self.class_a.tau

    @property
    def n_a(self) -> int:
        return self.class_a.n_a

    @property
    def n_b(self) -> int:
        return self.class_b.n_b

    @property
    def n(self) -> int:
        return self.n_a + self.n_b - self.k

    @property
    def rate(self) -> float:
        return self.k / self.n

    def fault_tolerance(self):
        return self.class_a.fault_tolerance()

    @classmethod
    def build(
        cls,
        k: int,
        n_a: int,
        n_b: int,
        tau: int,
        *,
        construction: int = 1,
        field: FieldSpec | None = None,
        remark1: bool = False,
    ) -> "CodeSpec":
        spec_a = ClassASpec.build(n_a, k, tau, field)
        if construction == 1:
            spec_b = construct1_parities(k, n_a, n_b, tau, remark1=remark1)
        elif construction == 2:
            spec_b = construct2_parities(k, n_a, n_b, tau)
        else:
            raise ValueError(f"unknown construction {construction}")
        return cls(spec_a.field, spec_a, spec_b)

    def to_json_dict(self) -> dict:
        f = self.field
        return {
            "format": "PBDSS1",
            "k": self.k,
            "field": {"p": f.p, "m": f.m, "reduction": list(f.reduction)},
            "classA": self.class_a.to_json_dict(),
            "classB": self.class_b.to_json_dict(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json_dict(cls, d: dict) -> "CodeSpec":
        _check_json(d, _SPEC_SCHEMA, "")
        fd = d["field"]
        if fd["m"] > 1 or "reduction" in fd:
            _check_json(fd, {"reduction": [int]}, "field")
        field = FieldSpec(fd["p"], fd["m"], tuple(fd["reduction"]) if "reduction" in fd else None)
        k = d["k"]
        spec_a = ClassASpec.from_json_dict(d["classA"], field, k)
        spec_b = ClassBSpec.from_json_dict(d["classB"], k, spec_a.tau, spec_a.n_a)
        return cls(field, spec_a, spec_b)

    @classmethod
    def from_json(cls, text: str) -> "CodeSpec":
        return cls.from_json_dict(json.loads(text))


# Keys a spec JSON must hold: a dict lists required keys, [x] is a list of x.
_SPEC_SCHEMA = {
    "k": int,
    "field": {"p": int, "m": int},
    "classA": {"nA": int, "tau": int, "alpha": [[int]]},
    "classB": {"nB": int, "construction": int, "parities": [[[[int]]]]},
}


def _check_json(value, schema, where: str) -> None:
    """Raise ValueError naming the first key of `value` that is missing or ill-typed."""
    if isinstance(schema, dict):
        if not isinstance(value, dict):
            raise ValueError(f"spec JSON: {repr(where) if where else 'the spec'} must be an object")
        for key, sub in schema.items():
            name = f"{where}.{key}" if where else key
            if key not in value:
                raise ValueError(f"spec JSON: missing key {name!r}")
            _check_json(value[key], sub, name)
    elif isinstance(schema, list):
        if not isinstance(value, list):
            raise ValueError(f"spec JSON: {where!r} must be a list")
        for i, item in enumerate(value):
            if type(item) is not int or schema[0] is not int:
                _check_json(item, schema[0], f"{where}[{i}]")
    elif type(value) is not int:
        raise ValueError(f"spec JSON: {where!r} must be an integer, got {type(value).__name__}")


def encode(spec: CodeSpec, data: DataArray, counter=None) -> CodeArray:
    """Systematic columns, then MDS/piggyback parities, then sum parities.

    Replays the encode plan: every parity symbol from the data.
    """
    if data.field != spec.field:
        raise ValueError("data array and spec use different fields")
    if data.k != spec.k:
        raise ValueError("data array dimension does not match spec")
    k, n = spec.k, spec.n
    parities, _ = execute(repair_plan(_interned(spec), None, ()), data.rows, counter)
    columns = parities.reshape(n - k, k).T.tolist()
    rows = [data.rows[i] + columns[i] for i in range(k)]
    return CodeArray(spec.field, k, n, rows, [[False] * n for _ in range(k)])


def puncture(spec: CodeSpec, count: int) -> CodeSpec:
    """Drop the last `count` sum-parity nodes (storage for bandwidth)."""
    if not 0 <= count <= spec.n_b - spec.k:
        raise ValueError(f"puncture count {count} outside [0, {spec.n_b - spec.k}]")
    if count == 0:
        return spec
    b = spec.class_b
    new_b = ClassBSpec(
        b.k, b.tau, b.n_a, b.n_b - count, b.construction, b.parities[: len(b.parities) - count]
    )
    return CodeSpec(spec.field, spec.class_a, new_b)


class _ReadsErased(Exception):
    """The schedule would read a symbol of an erased node."""


class _Session:
    """One repair session run on symbols: its stages and its read trace.

    In a data-node session every recovered symbol joins the cache and
    counts the reads it issued; in a parity-node session (or encode) each
    symbol is an independent download and counts every term it takes.
    """

    def __init__(self, spec: CodeSpec, erased, independent: bool):
        self.spec, self.f = spec, spec.field
        self.at = positions(spec.n, spec.k)
        self.erased = erased
        self.independent = independent
        self.trace = ReadTrace()
        self.stages: list[Stage] = []

    def stage(self, kind: str, symbol: NodePos, parity: NodePos | None, coeffs, sources, adds: int,
              muls: int) -> None:
        trace = self.trace
        reads = []
        for pos in sources:
            if pos in trace.cache:
                continue
            if pos[0] in self.erased:
                raise _ReadsErased
            trace.reads.append(pos)
            trace.cache.add(pos)
            reads.append(pos)
        self.stages.append(Stage(kind, symbol, parity, tuple(coeffs), tuple(sources), tuple(reads), adds, muls))
        if self.independent:
            trace.per_symbol[symbol] = len(sources)
        else:
            trace.cache.add(symbol)
            trace.per_symbol[symbol] = len(reads)

    def row_mds(self, kind: str, row: int, col: int) -> None:
        """d[row][col] from its row and the first MDS parity: the k-1
        siblings in cyclic order from row+1, then the parity."""
        f, k, at = self.f, self.spec.k, self.at
        alpha = [a[0] for a in self.spec.class_a.alpha]
        inv = f.inv(alpha[col])
        siblings = [c for c in ((row + off) % k for off in range(1, k + 1)) if c != col]
        coeffs = [f.neg(f.mul(inv, alpha[c])) for c in siblings] + [inv]
        sources = [at[c][row] for c in siblings] + [at[k][row]]
        self.stage(kind, at[col][row], at[k][row], coeffs, sources, k - 1, k)

    def via_sum_parity(self, i: int, j: int) -> bool:
        """d[i][j] through the covering sum parity with the fewest uncached
        reads (ties: largest node, then smallest parity index); False when
        every covering parity still needs an unrepaired column-j symbol."""
        b, cache, at = self.spec.class_b, self.trace.cache, self.at
        candidates = []
        for node, t in b.covering_parities((i, j)):
            cost = 0 if (node, t) in cache else 1
            for r, c in b.node_parities(node)[t]:
                if (r, c) == (i, j) or (c, r) in cache:
                    continue
                if c == j:  # sits in the failed column and is not repaired yet
                    break
                cost += 1
            else:
                candidates.append((cost, -node, t))
        if not candidates:
            return False
        _, neg_node, t = min(candidates)
        node = -neg_node
        others = [at[c][r] for r, c in b.node_parities(node)[t] if (r, c) != (i, j)]
        minus = self.f.neg(1)
        self.stage("sum", at[j][i], at[node][t], [1] + [minus] * len(others), [at[node][t]] + others,
                   len(others), 0)
        return True

    def data_node(self, j: int) -> None:
        """The two-stage schedule of repair_data_node; sum-parity repairs
        that must wait for another column-j symbol get a second pass."""
        spec, f, k, at = self.spec, self.f, self.spec.k, self.at
        self.row_mds("row-mds", j, j)
        for u in spec.class_a.piggybacked_columns:
            pig_row = spec.class_a.piggyback_source(j, u)[0]
            coeffs = [1] + [f.neg(a[u - k]) for a in spec.class_a.alpha]
            sources = [at[u][j]] + [at[l][j] for l in range(k)]
            self.stage("piggyback", at[j][pig_row], at[u][j], coeffs, sources, k, k)
        deferred = [i for i, _ in q_set(j, k, spec.tau)]
        for _ in range(2):
            deferred = [i for i in deferred if not self.via_sum_parity(i, j)]
        for i in deferred:
            self.row_mds("fallback", i, j)

    def parity_node(self, node: int) -> None:
        """Every symbol of a parity node from the data it combines: k
        alpha-terms for an MDS parity, plus its piggyback, or the terms of
        a sum parity."""
        spec, k, n_a, at = self.spec, self.spec.k, self.spec.n_a, self.at
        if node >= n_a:
            for t, par in enumerate(spec.class_b.node_parities(node)):
                self.stage("sum-parity", at[node][t], None, [1] * len(par), [at[c][r] for r, c in par],
                           max(len(par) - 1, 0), 0)
            return
        for i in range(k):
            coeffs = [a[node - k] for a in spec.class_a.alpha]
            sources = [at[l][i] for l in range(k)]
            if node >= n_a - spec.tau:
                r, c = spec.class_a.piggyback_source(i, node)
                coeffs.append(1)
                sources.append(at[c][r])
            self.stage("mds-parity", at[node][i], None, coeffs, sources, len(sources) - 1, k)

    def plan(self) -> RepairPlan:
        """Compose the stages into one matrix from the reads to the outputs.

        Each output is a sparse form over the reads: a stored source
        contributes its read, a source that an earlier stage recovered
        contributes that stage's form.  Matrix rows follow the (node, row)
        order of the outputs.
        """
        f, trace = self.f, self.trace
        reads = tuple(trace.reads)
        col = {pos: t for t, pos in enumerate(reads)}
        forms: dict[NodePos, dict[int, int]] = {}
        for st in self.stages:
            form: dict[int, int] = {}
            for coeff, pos in zip(st.coeffs, st.sources):
                source = forms[pos] if pos in forms else {col[pos]: 1}
                for t, c in source.items():
                    c = coeff if c == 1 else f.mul(coeff, c)
                    form[t] = f.add(form[t], c) if t in form else c
            forms[st.symbol] = form
        rows, cols, values = [], [], []
        for s, symbol in enumerate(sorted(forms)):
            rows += [s] * len(forms[symbol])
            cols += forms[symbol]
            values += forms[symbol].values()
        matrix = np.zeros((len(forms), len(reads)), dtype=_compact(f))
        matrix[rows, cols] = values
        return RepairPlan(
            f,
            reads,
            matrix,
            tuple(self.stages),
            tuple(trace.per_symbol.items()),
            frozenset(trace.cache),
        )


def _escalate(spec: CodeSpec, node: int, erased: tuple[int, ...]) -> RepairPlan:
    """The target's rows of the decode plan of erased + target, as one
    decode stage per symbol over the symbols those rows use."""
    k = spec.k
    decode = decode_plan(spec, tuple(sorted((*erased, node))))
    if decode.matrix is None:
        return RepairPlan(spec.field, (), None, error=decode.error, rank=decode.rank, needed=decode.needed)
    s = decode.nodes.index(node)
    rows = decode.matrix[s * k : (s + 1) * k].tolist()
    session = _Session(spec, (), independent=node >= k)
    for i, row in enumerate(rows):
        used = [t for t, c in enumerate(row) if c]
        session.stage("decode", session.at[node][i], None, [row[t] for t in used],
                      [decode.reads[t] for t in used], max(len(used) - 1, 0), len(used))
    return session.plan()


@functools.lru_cache(maxsize=REPAIR_PLAN_CACHE_SIZE)
def repair_plan(code: CodeSpec, node: int | None, erased: tuple[int, ...]) -> RepairPlan:
    """Compile the repair of `node` with `erased` (sorted) lost too; cached by value.

    `node` None compiles encode: every parity symbol from the data.  A
    schedule that would read a symbol of an erased node escalates to the
    decode plan of the erased nodes plus the target, whose matrix is None
    (replay raises UnrecoverableErasureError) exactly when the class-A
    part of that pattern is not decodable.
    """
    session = _Session(code, set(erased), independent=node is None or node >= code.k)
    try:
        if node is None:
            for c in range(code.k, code.n):
                session.parity_node(c)
        elif node < code.k:
            session.data_node(node)
        else:
            session.parity_node(node)
    except _ReadsErased:
        return _escalate(code, node, erased)
    return session.plan()


def _repair(array: CodeArray, node: int, spec: CodeSpec, counter):
    erased = array.erased_nodes()
    erased.discard(node)
    values, trace = execute(repair_plan(_interned(spec), node, tuple(sorted(erased))), array.rows, counter)
    return values[:, 0].tolist(), trace


def repair_data_node(array: CodeArray, j: int, spec: CodeSpec, counter=None):
    """Repair data node j with the two-stage schedule.

    Stage one reads row j and tau+1 of the MDS/piggyback parities,
    recovering d[j][j] and the tau piggybacked symbols.  Stage two clears
    the remaining column symbols through sum parities, choosing for each
    symbol the parity with the fewest uncached reads (ties: largest node,
    then smallest parity index).  Symbols no parity covers fall back to a
    plain MDS repair at up to k reads.

    Every other node with a masked symbol counts as erased, and is never
    read (see repair_plan).  Returns the column and the ReadTrace; the
    field-operation counts of the plan's stages go to `counter`.
    """
    if not 0 <= j < spec.k:
        raise ValueError(f"data node index {j} out of range")
    return _repair(array, j, spec, counter)


def repair_parity_node(array: CodeArray, node: int, spec: CodeSpec, counter=None):
    """Repair one parity node, each symbol as an independent download.

    Per-symbol read counts follow the node class: k for a plain MDS
    parity, k+1 for a piggybacked one, and the term count for a sum
    parity.  per_symbol carries those independent counts; the read list
    still never repeats a position.
    """
    if not spec.k <= node < spec.n:
        raise ValueError(f"parity node index {node} out of range")
    return _repair(array, node, spec, counter)


def repair_multi(array: CodeArray, failed, spec: CodeSpec):
    """Repair any mix of failed nodes; returns the columns of `failed`.

    Every node with a masked symbol counts as erased too, so no masked
    symbol is read.  Sum-parity nodes never participate in correction:
    the multi-node decoder recovers the data and re-encodes every erased
    parity column.
    """
    failed = sorted(set(failed))
    if any(not 0 <= x < spec.n for x in failed):
        raise ValueError("failed node index out of range")
    columns = decode_multi_class_a(array, spec, failed)
    return {node: columns[node] for node in failed}
