"""Compiled single-node repair and encode plans, and the executor that replays them.

A plan is checked against the data it must restore under random erasure
masks (oracle.ml_decodable decides which patterns must raise), stage by
stage against scalar FieldSpec arithmetic, at L = 4096 and L = 65,536
lanes against L = 1, against the generator, and through its bounded
cache.  Its compiled terms must rebuild its matrix, replay must handle
hand-built edge plans and any array layout, and the read trace each
execute returns must be an independent copy of the one the session
logged while it was compiled.
"""

import dataclasses
import functools
import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pbdss.class_a import (
    ClassASpec,
    UnrecoverableErasureError,
    _generator,
    _interned,
    decode_plan,
    fault_tolerance,
)
from pbdss.class_b import construct1_parities, construct2_parities
from pbdss.gf import FieldSpec
from pbdss.layout import CodeArray, DataArray
from pbdss.metrics import OpCounter
from pbdss.oracle import ml_decodable
from pbdss.plan import ReadTrace, RepairPlan, execute, replay
from pbdss.repair import (
    REPAIR_PLAN_CACHE_SIZE,
    CodeSpec,
    encode,
    puncture,
    repair_data_node,
    repair_parity_node,
    repair_plan,
)


def _repair(array, node, code, counter=None):
    fn = repair_data_node if node < code.k else repair_parity_node
    return fn(array, node, code, counter)


def _masked(code, stored, lost, rng):
    """`stored` with the nodes in `lost` masked and their symbols overwritten."""
    rows = [[rng.randrange(code.field.q) if c in lost else v for c, v in enumerate(row)] for row in stored.rows]
    mask = [[c in lost for c in range(code.n)] for _ in range(code.k)]
    return CodeArray(code.field, code.k, code.n, rows, mask)


# -- erasure masks -------------------------------------------------------------

# (k, n_a, n_b, tau) per field
MASK_SHAPES = {
    (2, 3): (5, 7, 8, 1),
    (3, 2): (5, 8, 6, 1),
    (11, 1): (5, 9, 7, 2),
    (2, 8): (9, 12, 11, 2),
}


@functools.cache
def _code(field):
    k, n_a, n_b, tau = MASK_SHAPES[field]
    return CodeSpec.build(k, n_a, n_b, tau, field=FieldSpec(*field))


@st.composite
def _mask_cases(draw):
    code = _code(draw(st.sampled_from(sorted(MASK_SHAPES))))
    f = fault_tolerance(code.n_a, code.k, code.tau).f
    target = draw(st.integers(0, code.n - 1))
    others = draw(st.lists(st.integers(0, code.n - 1).filter(lambda x: x != target),
                           min_size=1, max_size=f, unique=True))
    return code, target, sorted(others), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_mask_cases())
def test_masked_repair_never_reads_a_masked_symbol(case):
    code, target, others, seed = case
    rng = random.Random(seed)
    stored = encode(code, DataArray.random(code.field, code.k, rng))
    lost = {target, *others}
    array = _masked(code, stored, lost, rng)
    pattern = sorted(x for x in lost if x < code.n_a)
    if not ml_decodable(code.class_a, pattern):
        with pytest.raises(UnrecoverableErasureError) as exc:
            _repair(array, target, code)
        assert str(exc.value) == f"erasure pattern {pattern} is not decodable"
        assert exc.value.needed == code.k**2
        return
    column, trace = _repair(array, target, code)
    assert not {node for node, _ in trace.reads} & lost
    assert column == [row[target] for row in stored.rows]
    assert len(set(trace.reads)) == trace.total
    if target < code.k:  # a data-node session counts each read once
        assert sum(trace.per_symbol.values()) == trace.total


def test_masked_neighbour_escalates_to_decode(spec_10_5):
    # nodes 0 and 1 lost and zeroed: the schedule for node 0 would read
    # node 1, so the repair decodes both instead
    data = DataArray.random(spec_10_5.field, 5, random.Random(3))
    array = encode(spec_10_5, data)
    array.erase_nodes([0, 1])
    for row in array.rows:
        row[0] = row[1] = 0
    counter = OpCounter()
    column, trace = repair_data_node(array, 0, spec_10_5, counter)
    assert column == [row[0] for row in data.rows]
    assert all(node not in (0, 1) for node, _ in trace.reads)
    plan = repair_plan(_interned(spec_10_5), 0, (1,))
    assert {s.kind for s in plan.stages} == {"decode"}
    counts = (sum(s.adds for s in plan.stages), sum(s.muls for s in plan.stages))
    assert (counter.adds, counter.muls) == counts != (0, 0)
    array.erase_nodes([2])  # three data nodes of a code with f = 2
    with pytest.raises(UnrecoverableErasureError) as exc:
        repair_data_node(array, 0, spec_10_5)
    assert (str(exc.value), exc.value.rank, exc.value.needed) == (
        "erasure pattern [0, 1, 2] is not decodable", 20, 25)


def test_masked_unused_node_keeps_the_schedule(spec_9_5):
    # masking a parity node that the schedule never reads (here the second
    # MDS parity) changes nothing
    data = DataArray.random(spec_9_5.field, 5, random.Random(4))
    array = encode(spec_9_5, data)
    _, plain = repair_data_node(array, 0, spec_9_5)
    unused = sorted(set(range(5, spec_9_5.n)) - {node for node, _ in plain.reads})
    assert unused == [6]
    array.erase_nodes(unused)
    column, trace = repair_data_node(array, 0, spec_9_5)
    assert column == [row[0] for row in data.rows]
    assert trace.reads == plain.reads and trace.per_symbol == plain.per_symbol


# -- stages, lanes and the generator --------------------------------------------


def _scalar_replay(f, plan, rows):
    """Each stage in order with FieldSpec arithmetic; outputs in (node, row) order."""
    values = {}
    for stage in plan.stages:
        acc = 0
        for coeff, (node, row) in zip(stage.coeffs, stage.sources):
            acc = f.add(acc, f.mul(coeff, values[node, row] if (node, row) in values else rows[row][node]))
        values[stage.symbol] = acc
    return [values[pos] for pos in sorted(values)]


def _criterion_5_codes():
    """Both constructions of every (k, n_a, tau) of the criterion-5 sweep."""
    for k in range(4, 9):
        for n_a in range(k + 2, min(k + 4, 2 * k - 1) + 1):
            for tau in range(1, n_a - k):
                spec_a = ClassASpec.build(n_a, k, tau)
                for build in (construct1_parities, construct2_parities):
                    yield CodeSpec(spec_a.field, spec_a, build(k, n_a, 2 * k - tau - 1, tau))


def test_stage_replay_equals_composed_matrix():
    rng = random.Random(17)
    codes = list(_criterion_5_codes())
    checked = 0
    for code in codes:
        k, n, f = code.k, code.n, code.field
        stripes = [encode(code, DataArray.random(f, k, rng)).rows for _ in range(20)]
        block = np.array(stripes, dtype=np.int64).transpose(1, 2, 0)  # (k, n, 20)
        for node in [None, *range(n)]:
            plan = repair_plan(_interned(code), node, ())
            composed = replay(plan, block)
            for lane, rows in enumerate(stripes):
                assert _scalar_replay(f, plan, rows) == composed[:, lane].tolist(), (code, node, lane)
            if node is not None:
                assert (composed == block[:, node]).all(), (code, node)
            checked += 1
    assert len(codes) == 54 and checked == sum(code.n + 1 for code in codes)


STRIPE_SHAPES = [  # (k, n_a, n_b, tau, construction, (p, m))
    (5, 7, 8, 1, 1, (2, 3)),
    (5, 8, 6, 1, 1, (3, 2)),
    (7, 10, 8, 2, 1, (11, 1)),
    (9, 12, 11, 2, 1, (13, 1)),
    (9, 12, 11, 2, 1, (2, 8)),
    (10, 15, 11, 4, 2, (2, 8)),
]


@functools.cache
def _stripe_code(shape):
    k, n_a, n_b, tau, construction, field = shape
    return _interned(CodeSpec.build(k, n_a, n_b, tau, construction=construction, field=FieldSpec(*field)))


@pytest.mark.parametrize("shape", STRIPE_SHAPES, ids=lambda s: "-".join(map(str, s[:5])) + "-gf%d^%d" % s[5])
def test_lanes_equal_single_lane_replays(shape):
    code = _stripe_code(shape)
    k, n, q, lanes = code.k, code.n, code.field.q, 4096
    rng = np.random.default_rng(q * k)
    data = rng.integers(0, q, size=(k, k, lanes), dtype=np.uint8)
    parities = replay(repair_plan(_interned(code), None, ()), data)
    stored = np.concatenate([data, parities.reshape(n - k, k, lanes).transpose(1, 0, 2)], axis=1)
    picks = [0, 1, lanes - 1, *rng.integers(0, lanes, size=5).tolist()]
    for lane in picks:
        single = encode(code, DataArray(code.field, data[:, :, lane].tolist()))
        assert single.rows == stored[:, :, lane].tolist()
    for node in range(n):
        plan = repair_plan(_interned(code), node, ())
        out = replay(plan, stored)
        assert (out == stored[:, node]).all()  # every lane of a true codeword
        for lane in picks:
            column, _ = execute(plan, stored[:, :, lane])
            assert column.tolist() == out[:, lane].tolist()


@pytest.mark.parametrize("shape", STRIPE_SHAPES, ids=lambda s: "-".join(map(str, s[:5])) + "-gf%d^%d" % s[5])
def test_64k_lanes_equal_single_lane_replays(shape):
    """Encode and two repairs at L = 65,536, lanes taken a block at a time:
    every lane a codeword, sampled lanes equal to L = 1 replays."""
    code = _stripe_code(shape)
    k, n, q, lanes = code.k, code.n, code.field.q, 1 << 16
    rng = np.random.default_rng(q * k + 1)
    data = rng.integers(0, q, size=(k, k, lanes), dtype=np.uint8)
    parities = replay(repair_plan(code, None, ()), data)
    assert parities.shape == ((n - k) * k, lanes) and parities.dtype == np.uint8
    stored = np.concatenate([data, parities.reshape(n - k, k, lanes).transpose(1, 0, 2)], axis=1)
    picks = [0, lanes - 1, *rng.integers(0, lanes, size=6).tolist()]
    for lane in picks:
        single = encode(code, DataArray(code.field, data[:, :, lane].tolist()))
        assert single.rows == stored[:, :, lane].tolist()
    for node in (0, n - 1):
        plan = repair_plan(code, node, ())
        out = replay(plan, stored)
        assert (out == stored[:, node]).all()
        for lane in picks:
            assert replay(plan, stored[:, :, lane]).tolist() == out[:, lane].tolist()


def test_encode_replay_memory_stays_bounded():
    """A (16,10) construction-2 GF(2^8) encode of 65,536 lanes (6.25 MiB of
    data) allocates well under 64 MiB: its temporaries are one block of
    lanes, never one int64 per term and lane."""
    code = _stripe_code(STRIPE_SHAPES[-1])
    plan = repair_plan(code, None, ())
    data = np.random.default_rng(5).integers(0, 256, size=(10, 10, 1 << 16), dtype=np.uint8)
    tracemalloc.start()
    try:
        replay(plan, data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20


def _rebuilt(plan):
    """The dense matrix the plan's terms stand for."""
    terms, exp = plan.terms, plan.field.tables.exp
    rows = np.repeat(np.arange(len(terms.starts)), np.diff([*terms.starts, len(terms.logs)]))
    dense = np.zeros(plan.matrix.shape, dtype=np.int64)
    dense[rows, terms.reads] = exp[terms.logs]
    return dense, rows


def _check_terms(plan):
    terms, matrix = plan.terms, plan.matrix
    assert {a.dtype for a in terms} == {np.dtype(np.int32)}
    dense, rows = _rebuilt(plan)
    assert (dense == matrix).all()
    # the nonzero entries in row-major order, plus one zero term per empty row
    empty = int((~matrix.any(axis=1)).sum())
    assert len(terms.logs) == np.count_nonzero(matrix) + empty
    assert (np.diff(rows * matrix.shape[1] + terms.reads) > 0).all()


def test_terms_rebuild_every_matrix(spec_10_5):
    checked = 0
    for shape in STRIPE_SHAPES:
        code = _stripe_code(shape)
        for node in [None, *range(code.n)]:
            _check_terms(repair_plan(code, node, ()))
            checked += 1
    code = _interned(spec_10_5)
    undecodable = 0
    for t in range(1, 4):
        for erased in itertools.combinations(range(code.n), t):
            plan = decode_plan(code, erased)
            if plan.matrix is None:
                assert plan.terms is None
                undecodable += 1
                continue
            _check_terms(plan)
            checked += 1
    assert checked == 6 + sum(_stripe_code(s).n for s in STRIPE_SHAPES) + 175 - undecodable
    assert undecodable > 0


@pytest.mark.parametrize("field", [(2, 3), (11, 1), (3, 2), (2, 8)])
def test_sparse_replay_edge_plans(field):
    """Hand-built plans: an all-zero row, a one-term plan, an all-zero
    matrix, a plan that reads nothing, and all-zero read values."""
    f = FieldSpec(*field)
    rng = random.Random(f.q)
    reads = ((0, 0), (1, 0), (0, 1), (2, 1))
    stored = [[rng.randrange(1, f.q) for _ in range(3)] for _ in range(2)]
    zeros = [[0] * 3 for _ in range(2)]
    c = [rng.randrange(1, f.q) for _ in range(4)]
    cases = [
        (reads, [[0, 0, 0, 0], [c[0], 0, c[1], 0], [0, 0, 0, 0], [0, c[2], 0, c[3]], [0, 0, 0, 0]]),
        (reads[3:], [[c[0]]]),
        (reads[:2], [[0, 0], [0, 0]]),
        ((), [[], []]),
    ]
    for plan_reads, rows in cases:
        matrix = np.array(rows, dtype=np.uint8 if f.q <= 256 else np.uint16).reshape(len(rows), len(plan_reads))
        plan = RepairPlan(f, plan_reads, matrix)
        for values in (stored, zeros):
            want = [functools.reduce(f.add, [f.mul(int(coeff), values[r][node])
                                             for coeff, (node, r) in zip(row, plan_reads)], 0)
                    for row in matrix]
            assert replay(plan, np.asarray(values)).tolist() == want
            block = np.repeat(np.array(values, dtype=np.int64)[:, :, None], 3, axis=2)
            assert replay(plan, block).tolist() == [[w] * 3 for w in want]
        if plan_reads:
            _check_terms(plan)


def _session_walk(plan, data_node: bool) -> ReadTrace:
    """The trace a session logs while it runs the plan's stages: each
    uncached source is read once; in a data-node session each repaired
    symbol joins the cache and counts the reads it issued, in a parity
    session (or encode) each symbol counts every term it takes."""
    walk = ReadTrace()
    for st in plan.stages:
        issued = sum(walk.read(*pos) for pos in st.sources)
        if data_node:
            walk.cache.add(st.symbol)
        walk.per_symbol[st.symbol] = issued if data_node else len(st.sources)
    return walk


def test_rebuilt_traces_equal_the_session_logs(spec_10_5, spec_9_5):
    """Every node of the six stripe shapes, unmasked and with its next node
    masked (most data nodes then escalate to a decode), plus the masked and
    escalated cases above: the trace execute returns (reads, cache and
    per-symbol counts) equals the session's log."""
    codes = [_stripe_code(shape) for shape in STRIPE_SHAPES]
    cases = [(code, node, lost) for code in codes for node in range(code.n) for lost in ((), ((node + 1) % code.n,))]
    cases += [(spec_10_5, 0, (1,)), (spec_9_5, 0, (6,)), (spec_9_5, 7, (3,))]
    kinds = set()
    for code, node, lost in cases:
        rng = random.Random(node)
        stored = encode(code, DataArray.random(code.field, code.k, rng))
        array = _masked(code, stored, {node, *lost}, rng)
        try:
            column, trace = _repair(array, node, code)
        except UnrecoverableErasureError:
            continue
        plan = repair_plan(_interned(code), node, tuple(sorted(lost)))
        kinds |= {st.kind for st in plan.stages}
        walk = _session_walk(plan, node < code.k)
        assert column == [row[node] for row in stored.rows]
        assert (trace.reads, trace.cache, list(trace.per_symbol.items())) == (
            walk.reads, walk.cache, list(walk.per_symbol.items())), (code.n, code.k, node, lost)
        assert execute(plan, stored.symbols)[1] == trace
    assert {"decode", "row-mds", "sum", "mds-parity", "sum-parity"} <= kinds


def test_execute_returns_independent_traces(spec_10_5):
    """Each execute copies the plan's prebuilt trace: mutating one result
    leaves the next and the plan unchanged.  Encode and decode plans are
    never executed and carry no trace."""
    code = _interned(spec_10_5)
    stored = encode(code, DataArray.random(code.field, code.k, random.Random(12))).symbols
    for node, erased in ((0, ()), (code.k, ()), (code.n - 1, ()), (0, (1,))):
        plan = repair_plan(code, node, erased)
        pristine = ReadTrace(list(plan.trace.reads), set(plan.trace.cache), dict(plan.trace.per_symbol))
        first, second = execute(plan, stored)[1], execute(plan, stored)[1]
        first.reads.append((node, 0))
        first.cache.add((node, 0))
        first.per_symbol[node, 0] = 99
        assert second == pristine and plan.trace == pristine, (node, erased)
    assert repair_plan(code, None, ()).trace is None
    for erased in ((0,), (0, 1), (5, 7), (0, 1, 2)):  # (0, 1, 2) is undecodable
        assert decode_plan(code, erased).trace is None
        assert decode_plan(code.class_a, tuple(x for x in erased if x < code.n_a)).trace is None
    with pytest.raises(ValueError, match="read trace"):
        execute(decode_plan(code, (0,)), stored)


def test_replay_over_any_layout(spec_10_5):
    """Replay reads the same symbols from a C- or Fortran-ordered (k, n)
    array, a strided lane view, the (k, k) data (encode) and, under a
    punctured spec, the full-width array; each plan keeps one offset array
    per width it has been replayed over."""
    code = _interned(spec_10_5)
    k, n, lanes = code.k, code.n, 6
    repair_plan.cache_clear()  # fresh plans: no widths seen by other tests
    rng = np.random.default_rng(13)
    data = rng.integers(0, code.field.q, size=(k, k, lanes), dtype=np.uint16)
    encode_plan = repair_plan(code, None, ())
    parities = replay(encode_plan, data)
    stored = np.concatenate([data, parities.reshape(n - k, k, lanes).transpose(1, 0, 2)], axis=1)
    wide = np.zeros((k, n, 2 * lanes), dtype=np.uint16)
    wide[..., ::2] = stored
    strided = wide[..., ::2]
    assert not strided.flags.c_contiguous
    assert (replay(encode_plan, np.asfortranarray(data[:, :, 0])) == parities[:, 0]).all()
    assert (replay(encode_plan, strided[:, :k]) == parities).all()
    for node in range(n):
        plan = repair_plan(code, node, ())
        assert (replay(plan, strided) == stored[:, node]).all()
        for lane in (0, lanes - 1):
            single = np.asfortranarray(stored[:, :, lane])
            assert single.flags.f_contiguous and not single.flags.c_contiguous
            assert (replay(plan, single) == stored[:, node, lane]).all()
    punctured = _interned(puncture(code, 2))
    for node in range(punctured.n):
        plan = repair_plan(punctured, node, ())
        for _ in range(3):
            full = replay(plan, stored[:, :, 1])
            assert (full == replay(plan, stored[:, : punctured.n, 1])).all()
            assert (full == stored[:, node, 1]).all()
        assert sorted(plan.offsets) == [punctured.n, n]
    assert sorted(encode_plan.offsets) == [k]
    assert all(sorted(repair_plan(code, node, ()).offsets) == [n] for node in range(n))
    with pytest.raises(IndexError):  # node 0's plan reads the parity node k
        replay(repair_plan(code, 0, ()), stored[:, :k, 0])


def test_encode_plan_is_the_generator(spec_10_5, spec_7_4_h):
    for code in (spec_10_5, spec_7_4_h):
        k = code.k
        plan = repair_plan(_interned(code), None, ())
        gen = _generator(_interned(code))
        want = [[int(gen[c, i, j, r]) for j, r in plan.reads] for c in range(k, code.n) for i in range(k)]
        assert plan.matrix.tolist() == want
        assert sorted(plan.reads) == [(j, r) for j in range(k) for r in range(k)]


# -- plan cache and spec hashing -------------------------------------------------


def test_plan_cache_stays_at_its_bound(spec_10_5):
    nodes = range(spec_10_5.n)
    keys = [(node, erased) for t in range(4) for node in nodes
            for erased in itertools.combinations([x for x in nodes if x != node], t)]
    keys = keys[: REPAIR_PLAN_CACHE_SIZE + 10]
    repair_plan.cache_clear()
    for node, erased in keys:
        repair_plan(spec_10_5, node, erased)
    info = repair_plan.cache_info()
    assert info.maxsize == info.currsize == REPAIR_PLAN_CACHE_SIZE
    assert info.misses == len(keys)
    repair_plan(spec_10_5, *keys[-1])
    repair_plan(spec_10_5, *keys[0])  # the oldest plan was evicted
    info = repair_plan.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, len(keys) + 1, REPAIR_PLAN_CACHE_SIZE)


def test_spec_from_json_hashes_equal_and_shares_plans(spec_10_5):
    back = CodeSpec.from_json(spec_10_5.to_json())
    assert back == spec_10_5 and back is not spec_10_5
    assert hash(back) == hash(spec_10_5) and hash(back.class_b) == hash(spec_10_5.class_b)
    assert "_hash" not in repr(back) + back.to_json()
    assert "_hash" not in {f.name for f in dataclasses.fields(back) + dataclasses.fields(back.class_b)}
    array = encode(spec_10_5, DataArray.random(spec_10_5.field, 5, random.Random(6)))
    repair_plan.cache_clear()
    first = repair_data_node(array, 2, spec_10_5)
    again = repair_data_node(array, 2, back)
    info = repair_plan.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert first[0] == again[0] and first[1] == again[1]
    assert repair_plan(_interned(back), 2, ()) is repair_plan(_interned(spec_10_5), 2, ())


def test_cold_replay_equals_warm(spec_9_5):
    data = DataArray.random(spec_9_5.field, 5, random.Random(8))
    array = encode(spec_9_5, data)
    array.erase_nodes([3])

    def outcome(node):
        counter = OpCounter()
        column, trace = _repair(array, node, spec_9_5, counter)
        return column, trace.to_json(), sorted(trace.cache), counter.adds, counter.muls

    for node in range(spec_9_5.n):
        repair_plan.cache_clear()
        cold = outcome(node)
        assert outcome(node) == cold
        assert repair_plan.cache_info().hits == 1
