"""Repair schedules with exact read and cache accounting.

A repair session reads symbols one at a time; everything read or repaired
stays cached for the rest of the session, and a cached position is never
read again.  The per-node bandwidth figures all come from the ReadTrace
produced here, never from closed forms.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field

from .class_a import ClassASpec, UnrecoverableErasureError, decode_multi_class_a, encode_class_a
from .class_b import ClassBSpec, construct1_parities, construct2_parities
from .gf import FieldSpec
from .layout import CodeArray, DataArray, q_set, r_set

NodePos = tuple[int, int]  # (node, row)


@dataclass
class ReadTrace:
    """Ordered log of (node, row) reads plus the session cache."""

    reads: list[NodePos] = dc_field(default_factory=list)
    cache: set[NodePos] = dc_field(default_factory=set)
    per_symbol: dict[NodePos, int] = dc_field(default_factory=dict)

    @property
    def total(self) -> int:
        return len(self.reads)

    def read(self, node: int, row: int) -> int:
        """Read one symbol unless cached; returns 1 if a read was issued."""
        pos = (node, row)
        if pos in self.cache:
            return 0
        self.reads.append(pos)
        self.cache.add(pos)
        return 1

    def mark_repaired(self, node: int, row: int) -> None:
        self.cache.add((node, row))

    def to_json_dict(self) -> dict:
        return {
            "reads": [list(p) for p in self.reads],
            "perSymbol": {f"{n}:{r}": c for (n, r), c in self.per_symbol.items()},
            "total": self.total,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


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
    """Systematic columns, then MDS/piggyback parities, then sum parities."""
    k, n = spec.k, spec.n
    a_par = encode_class_a(data, spec.class_a, counter)
    rows = [list(data.rows[i]) + a_par[i] + [0] * (spec.n_b - k) for i in range(k)]
    f = spec.field
    for off, node in enumerate(spec.class_b.parities):
        for t, par in enumerate(node):
            acc = 0
            for pos in par:
                acc = f.add(acc, data[pos])
            if counter is not None and par:
                counter.adds += len(par) - 1
            rows[t][spec.n_a + off] = acc
    erased = [[False] * n for _ in range(k)]
    return CodeArray(f, k, n, rows, erased)


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


def _solve_row_mds(spec: CodeSpec, trace: ReadTrace, array: CodeArray, row: int,
                   target_col: int, known: dict[int, int] | None = None, counter=None) -> int:
    """Recover one data symbol from its row and the first MDS parity.

    Reads the k-1 sibling data symbols (cyclic order from row+1) and the
    parity, then isolates the target: k multiplications, k-1 additions.
    `known` supplies values for columns that are erased but already
    repaired this session.
    """
    f, k = spec.field, spec.k
    for off in range(1, k + 1):
        col = (row + off) % k
        if col != target_col:
            trace.read(col, row)
    trace.read(k, row)
    acc = array.rows[row][k]
    for l in range(k):
        if l != target_col:
            val = known[l] if known and l in known else array.rows[row][l]
            acc = f.sub(acc, f.mul(spec.class_a.alpha[l][0], val))
    value = f.mul(f.inv(spec.class_a.alpha[target_col][0]), acc)
    if counter is not None:
        counter.muls += k
        counter.adds += k - 1
    return value


def repair_data_node(array: CodeArray, j: int, spec: CodeSpec, counter=None):
    """Repair data node j with the two-stage schedule.

    Stage one reads row j and tau+1 of the MDS/piggyback parities,
    recovering d[j][j] and the tau piggybacked symbols.  Stage two clears
    the remaining column symbols through sum parities, choosing for each
    symbol the parity with the fewest uncached reads (ties: largest node,
    then smallest parity index).  Symbols no parity covers fall back to a
    plain MDS repair at up to k reads.
    """
    k, n_a, tau, f = spec.k, spec.n_a, spec.tau, spec.field
    if not 0 <= j < k:
        raise ValueError(f"data node index {j} out of range")
    trace = ReadTrace()
    recovered: dict[int, int] = {}
    known_row_j = {l: array.rows[j][l] for l in range(k) if l != j}

    before = trace.total
    value = _solve_row_mds(spec, trace, array, j, j, counter=counter)
    recovered[j] = value
    known_row_j[j] = value
    trace.mark_repaired(j, j)
    trace.per_symbol[(j, j)] = trace.total - before

    for u in spec.class_a.piggybacked_columns:
        before = trace.total
        trace.read(u, j)
        acc = 0
        for l in range(k):
            acc = f.add(acc, f.mul(spec.class_a.alpha[l][u - k], known_row_j[l]))
        pig_row = spec.class_a.piggyback_source(j, u)[0]
        recovered[pig_row] = f.sub(array.rows[j][u], acc)
        trace.mark_repaired(j, pig_row)
        if counter is not None:
            counter.muls += k
            counter.adds += k
        trace.per_symbol[(j, pig_row)] = trace.total - before

    pending = [pos[0] for pos in q_set(j, k, tau)]
    deferred: list[int] = []
    for passno in range(2):
        queue, deferred = (pending, []) if passno == 0 else (deferred, [])
        for i in queue:
            outcome = _repair_via_class_b(array, spec, trace, recovered, i, j, counter)
            if outcome == "defer":
                deferred.append(i)
    for i in deferred:
        before = trace.total
        recovered[i] = _solve_row_mds(spec, trace, array, i, j, counter=counter)
        trace.mark_repaired(j, i)
        trace.per_symbol[(j, i)] = trace.total - before

    column = [recovered[i] for i in range(k)]
    return column, trace


def _repair_via_class_b(array, spec, trace, recovered, i, j, counter):
    """Try to repair d[i][j] through a covering sum parity; returns
    "done" or "defer" (no usable parity right now)."""
    f = spec.field
    candidates = []
    for node, t in spec.class_b.covering_parities((i, j)):
        par = spec.class_b.node_parities(node)[t]
        cost = 0 if (node, t) in trace.cache else 1
        usable = True
        for (r, c) in par:
            if (r, c) == (i, j):
                continue
            if (c, r) in trace.cache:
                continue
            if c == j:  # sits in the failed column and is not repaired yet
                usable = False
                break
            cost += 1
        if usable:
            candidates.append((cost, -node, t))
    if not candidates:
        return "defer"
    _, neg_node, t = min(candidates)
    node = -neg_node
    par = spec.class_b.node_parities(node)[t]
    before = trace.total
    trace.read(node, t)
    acc = array.rows[t][node]
    for (r, c) in par:
        if (r, c) == (i, j):
            continue
        trace.read(c, r)
        val = recovered[r] if c == j else array.rows[r][c]
        acc = f.sub(acc, val)
    if counter is not None:
        counter.adds += len(par) - 1
    recovered[i] = acc
    trace.mark_repaired(j, i)
    trace.per_symbol[(j, i)] = trace.total - before
    return "done"


def repair_parity_node(array: CodeArray, node: int, spec: CodeSpec, counter=None):
    """Repair one parity node, each symbol as an independent download.

    Per-symbol read counts follow the node class: k for a plain MDS
    parity, k+1 for a piggybacked one, and the term count for a sum
    parity.  per_symbol carries those independent counts; the read list
    still never repeats a position.
    """
    k, n_a, f = spec.k, spec.n_a, spec.field
    if not spec.k <= node < spec.n:
        raise ValueError(f"parity node index {node} out of range")
    trace = ReadTrace()
    column = []
    if node < n_a:
        for i in range(k):
            count = 0
            acc = 0
            for l in range(k):
                count += 1
                trace.read(l, i)
                acc = f.add(acc, f.mul(spec.class_a.alpha[l][node - k], array.rows[i][l]))
            if counter is not None:
                counter.muls += k
                counter.adds += k - 1
            if node >= n_a - spec.tau:
                r, c = spec.class_a.piggyback_source(i, node)
                count += 1
                trace.read(c, r)
                acc = f.add(acc, array.rows[r][c])
                if counter is not None:
                    counter.adds += 1
            column.append(acc)
            trace.per_symbol[(node, i)] = count
    else:
        for t, par in enumerate(spec.class_b.node_parities(node)):
            acc = 0
            for (r, c) in par:
                trace.read(c, r)
                acc = f.add(acc, array.rows[r][c])
            if counter is not None and par:
                counter.adds += len(par) - 1
            column.append(acc)
            trace.per_symbol[(node, t)] = len(par)
    return column, trace


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
