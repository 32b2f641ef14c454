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

from .class_a import ClassASpec, _compact, _interned, decode_plan
from .class_b import ClassBSpec, construct1_parities, construct2_parities
from .gf import FieldSpec, cached_field
from .layout import CodeArray, DataArray, q_set
from .plan import NodePos, ReadTrace, RepairPlan, Stage, execute, positions, replay

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
        # every plan lookup hashes the spec, and every repair reads its
        # shape: set both once, outside the fields (so eq, repr and the
        # JSON see only the three parts)
        for name, value in (("_hash", hash((self.field, a, b))), ("k", a.k), ("tau", a.tau),
                            ("n_a", a.n_a), ("n_b", b.n_b), ("n", a.n_a + b.n_b - a.k)):
            object.__setattr__(self, name, value)

    def __hash__(self) -> int:
        return self._hash

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
            if remark1:
                raise ValueError("remark1 applies to construction 1 only")
            spec_b = construct2_parities(k, n_a, n_b, tau)
        else:
            raise ValueError(f"unknown construction {construction}")
        return cls(spec_a.field, spec_a, spec_b)

    def to_json_dict(self) -> dict:
        f = self.field
        return {
            "format": "PBDSS1",
            "k": self.k,
            "field": {"p": f.p, "m": f.m, "reduction": f.reduction},
            "classA": self.class_a.to_json_dict(),
            "classB": self.class_b.to_json_dict(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, d: dict) -> "CodeSpec":
        _check_json(d, _SPEC_SCHEMA, "")
        fd = d["field"]
        if fd["m"] > 1 or "reduction" in fd:
            _check_json(fd, {"reduction": [int]}, "field")
        field = cached_field(fd["p"], fd["m"], tuple(fd["reduction"]) if "reduction" in fd else None)
        k = d["k"]
        spec_a = ClassASpec.from_json_dict(d["classA"], field, k)
        spec_b = ClassBSpec.from_json_dict(d["classB"], k, spec_a.tau, spec_a.n_a)
        return cls(field, spec_a, spec_b)

    @classmethod
    def from_json(cls, text: str) -> "CodeSpec":
        try:
            doc = json.loads(text)
        except RecursionError:  # not a ValueError; a valid spec nests six levels deep
            raise ValueError("spec JSON nests too deeply") from None
        return cls.from_json_dict(doc)


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


def encode(spec: CodeSpec, data: DataArray) -> CodeArray:
    """Systematic columns, then MDS/piggyback parities, then sum parities.

    Replays the encode plan, every parity symbol from the data, and builds
    no read trace; its operation counts are that plan's totals.
    """
    if data.field != spec.field:
        raise ValueError("data array and spec use different fields")
    if data.k != spec.k:
        raise ValueError("data array dimension does not match spec")
    k, n = spec.k, spec.n
    plan = repair_plan(_interned(spec), None, ())
    symbols = np.empty((k, n), dtype=np.uint16)
    symbols[:, :k] = data.symbols
    symbols[:, k:] = replay(plan, data.symbols).reshape(n - k, k).T
    symbols.flags.writeable = False
    return CodeArray._wrap(spec.field, symbols)


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
        self.lost = erased
        self.independent = independent
        self.trace = ReadTrace()
        self.stages: list[Stage] = []

    def stage(self, kind: str, symbol: NodePos, parity: NodePos | None, coeffs, sources, adds: int,
              muls: int) -> None:
        trace = self.trace
        if any(pos[0] in self.lost and pos not in trace.cache for pos in sources):
            raise _ReadsErased
        issued = sum(trace.read(*pos) for pos in sources)
        self.stages.append(Stage(kind, symbol, parity, tuple(coeffs), tuple(sources), adds, muls))
        if self.independent:
            trace.per_symbol[symbol] = len(sources)
        else:
            trace.cache.add(symbol)
            trace.per_symbol[symbol] = issued

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

    def plan(self, traced: bool = True) -> RepairPlan:
        """Compose the stages into one matrix from the reads to the outputs.

        Each output is a sparse form over the reads: a stored source
        contributes its read, a source that an earlier stage recovered
        contributes that stage's form.  Matrix rows follow the (node, row)
        order of the outputs.  When `traced` (a single-node repair), the
        plan keeps the session's read trace, frozen, for execute to return.
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
        return RepairPlan(f, reads, matrix, tuple(self.stages), trace.frozen() if traced else None)


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
    return session.plan(traced=node is not None)


def _check_array(array: CodeArray, spec: CodeSpec) -> None:
    """Raise ValueError unless `array` holds a stripe of `spec`: its field,
    k rows and at least n nodes (a punctured spec repairs from the
    full-width array).  The field is compared by identity first: arrays
    and specs read from files share one cached FieldSpec."""
    if array.field is not spec.field and array.field != spec.field:
        raise ValueError(f"array is over {array.field!r}, but the spec is over {spec.field!r}")
    if array.k != spec.k or array.n < spec.n:
        raise ValueError(f"array is {array.k} x {array.n}, but the spec needs {spec.k} rows "
                         f"and at least {spec.n} nodes")


def _repair(array: CodeArray, node: int, spec: CodeSpec):
    _check_array(array, spec)
    erased = array.erased_nodes  # increasing; a wider array may be masked past n
    if erased == (node,):
        erased = ()
    elif erased:
        erased = tuple(x for x in erased if x != node and x < spec.n)
    values, trace = execute(repair_plan(_interned(spec), node, erased), array.symbols)
    return values.tolist(), trace


def repair_data_node(array: CodeArray, j: int, spec: CodeSpec):
    """Repair data node j with the two-stage schedule.

    Stage one reads row j and tau+1 of the MDS/piggyback parities,
    recovering d[j][j] and the tau piggybacked symbols.  Stage two clears
    the remaining column symbols through sum parities, choosing for each
    symbol the parity with the fewest uncached reads (ties: largest node,
    then smallest parity index).  Symbols no parity covers fall back to a
    plain MDS repair at up to k reads.

    Every other node with a masked symbol counts as erased, and is never
    read (see repair_plan).  Returns the column and the ReadTrace; the
    field-operation counts are the plan's totals.
    """
    if not 0 <= j < spec.k:
        raise ValueError(f"data node index {j} out of range")
    return _repair(array, j, spec)


def repair_parity_node(array: CodeArray, node: int, spec: CodeSpec):
    """Repair one parity node, each symbol as an independent download.

    Per-symbol read counts follow the node class: k for a plain MDS
    parity, k+1 for a piggybacked one, and the term count for a sum
    parity.  per_symbol carries those independent counts; the read list
    still never repeats a position.
    """
    if not spec.k <= node < spec.n:
        raise ValueError(f"parity node index {node} out of range")
    return _repair(array, node, spec)


def repair_multi(array: CodeArray, failed, spec: CodeSpec):
    """Repair any mix of failed nodes; returns the columns of `failed`, in
    increasing node order.

    Every node of the code with a masked symbol counts as erased too, so
    no masked symbol is read, but only `failed` is returned.  Sum-parity
    nodes never participate in correction: the decode recovers the data
    and re-encodes every erased parity column.  The pattern's decode plan
    is compiled once and cached (class_a.decode_plan), as is a read
    array's mask (layout.read_code_array), so a repeated pattern costs one
    set union, one sort, one plan lookup and one replay.
    """
    _check_array(array, spec)
    failed = set(failed)
    if failed and (min(failed) < 0 or max(failed) >= spec.n):
        raise ValueError("failed node index out of range")
    # a wider array may be masked past n, where nothing is read
    pattern = tuple(sorted(failed.union(x for x in array.erased_nodes if x < spec.n)))
    columns = replay(decode_plan(_interned(spec), pattern), array.symbols).reshape(len(pattern), spec.k)
    return {node: column for node, column in zip(pattern, columns.tolist()) if node in failed}
