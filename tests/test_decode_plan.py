"""Decode plans and the O(q)-table kernels they run on.

`gf.eliminate` and `gf.matmul` are checked against the scalar reference
(`row_reduce`/`solve_values` and per-element loops), exhaustively on small
cases.  The compiled multi-node decode is checked against `oracle`, which
shares no scheduler logic with it, over random erasure patterns whose lost
symbols are overwritten.
"""

import functools
import hashlib
import itertools
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pbdss.class_a import (
    PLAN_CACHE_SIZE,
    ClassASpec,
    UnrecoverableErasureError,
    _rotation_parities,
    decode_multi_class_a,
    decode_plan,
    fault_tolerance,
)
from pbdss.gf import (
    RANK_BATCH_ENTRIES,
    FieldSpec,
    _gauss_jordan,
    batch_rank,
    eliminate,
    matmul,
    matrix_rank,
    row_reduce,
    solve_values,
)
from pbdss.layout import CodeArray, DataArray
from pbdss.oracle import generator_rows, ml_decodable, ml_decode
from pbdss.repair import CodeSpec, encode, repair_multi


def _matmul_reference(f, a, b, cols):
    return [[functools.reduce(f.add, (f.mul(x, r[c]) for x, r in zip(row, b)), 0) for c in range(cols)]
            for row in a]


# -- kernels -----------------------------------------------------------------


def test_eliminate_matches_solve_values():
    rng = random.Random(7)
    for f in (FieldSpec(2, 3), FieldSpec(3, 2), FieldSpec(13), FieldSpec(2, 11)):
        for _ in range(60):
            n, m = rng.randrange(1, 7), rng.randrange(1, 7)
            a = [[rng.randrange(f.q) for _ in range(m)] for _ in range(n)]
            b = [rng.randrange(f.q) for _ in range(n)]
            want = solve_values(f, a, b)
            rank, rhs = eliminate(f, a, np.array(b)[:, None])
            assert rank == want.rank == matrix_rank(f, a)
            if rank == m:  # the solution when consistent, else a nonzero residual
                assert rhs[m:].any() != want.consistent
                if want.solution is not None:
                    assert rhs[:m, 0].tolist() == want.solution


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_eliminate_every_2x2_and_2x1(p, m):
    f = FieldSpec(p, m)
    for a in itertools.product(range(f.q), repeat=4):
        mat = [list(a[:2]), list(a[2:])]
        rank, left = eliminate(f, mat, np.eye(2, dtype=np.int64))
        assert rank == matrix_rank(f, mat)
        if rank == 2:
            assert matmul(f, left, mat).tolist() == [[1, 0], [0, 1]]
            red, _ = row_reduce(f, [mat[i] + [int(i == j) for j in range(2)] for i in range(2)])
            assert left.tolist() == [row[2:] for row in red]
    for col in itertools.product(range(f.q), repeat=2):  # a tall left inverse
        rank, left = eliminate(f, [[c] for c in col], np.eye(2, dtype=np.int64))
        assert rank == int(any(col))
        if rank:
            assert matmul(f, left[:1], [[c] for c in col]).tolist() == [[1]]


def test_eliminate_empty():
    f = FieldSpec(11)
    rank, rhs = eliminate(f, np.zeros((0, 3), dtype=np.int64), np.zeros((0, 2), dtype=np.int64))
    assert rank == 0 and rhs.shape == (0, 2)
    rank, rhs = eliminate(f, np.zeros((2, 0), dtype=np.int64), np.eye(2, dtype=np.int64))
    assert rank == 0 and rhs.tolist() == [[1, 0], [0, 1]]


# Tall systems of full column rank in which a pivot row is swapped up at
# a column after the first.  A rule that took the first nonzero unused row
# in the original row order would pivot on another row at some column, so
# these pin the pivot order, and with it the left inverse, that every
# decode plan is built from.
PIVOT_ORDER_CASES = [
    ((2, 3),
     [[0, 4, 0], [0, 7, 0], [5, 6, 0], [6, 7, 6], [0, 3, 0]],
     [[0, 1, 2, 0, 0], [0, 4, 0, 0, 0], [0, 2, 2, 3, 0], [1, 6, 0, 0, 0], [0, 7, 0, 0, 1]]),
    ((3, 2),
     [[0, 7, 0], [0, 5, 0], [5, 8, 0], [0, 0, 7], [0, 3, 4]],
     [[0, 7, 4, 0, 0], [0, 4, 0, 0, 0], [0, 0, 0, 8, 0], [1, 1, 0, 0, 0], [0, 7, 0, 6, 1]]),
    ((11, 1),
     [[0, 0, 9], [2, 8, 0], [3, 1, 4], [0, 0, 0], [10, 0, 4]],
     [[0, 4, 1, 0, 10], [0, 6, 8, 0, 3], [0, 1, 3, 0, 0], [0, 0, 0, 1, 0], [1, 2, 6, 0, 0]]),
]


@pytest.mark.parametrize("field,a,want", PIVOT_ORDER_CASES, ids=["gf%d^%d" % case[0] for case in PIVOT_ORDER_CASES])
def test_eliminate_pins_pivot_order(field, a, want):
    """E @ I is exactly E, rows below the rank included; its first 3 rows
    are a left inverse of a."""
    f = FieldSpec(*field)
    rank, left = eliminate(f, a, np.eye(5, dtype=np.int64))
    assert rank == 3 and left.tolist() == want
    assert matmul(f, left[:3], a).tolist() == np.eye(3, dtype=np.int64).tolist()


def test_lockstep_right_hand_sides_match_one_at_a_time():
    """The kernel on a stack with right-hand sides gives each matrix what
    eliminate gives it alone, though in one column some matrices swap or
    find no pivot while the others do not."""
    rng = np.random.default_rng(11)
    for f in (FieldSpec(2, 3), FieldSpec(3, 2), FieldSpec(11)):
        a = rng.integers(0, f.q, (40, 5, 4)) * (rng.random((40, 5, 4)) < 0.5)
        rhs = rng.integers(0, f.q, (40, 5, 3))
        ranks, reduced = _gauss_jordan(f, a, rhs)
        for i in range(len(a)):
            rank, alone = eliminate(f, a[i], rhs[i])
            assert ranks[i] == rank and reduced[i].tolist() == alone.tolist(), (f, i)


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 3), (3, 2), (11, 1), (2, 8), (2, 11), (2, 16)])
def test_matmul_matches_reference(p, m):
    f = FieldSpec(p, m)
    rng = random.Random(p * 31 + m)
    for rows, inner, cols in ((1, 1, 1), (3, 4, 2), (5, 1, 6), (2, 7, 1), (0, 3, 2), (3, 0, 2)):
        a = [[rng.randrange(f.q) for _ in range(inner)] for _ in range(rows)]
        b = [[rng.randrange(f.q) for _ in range(cols)] for _ in range(inner)]
        got = matmul(f, np.array(a, dtype=np.int64).reshape(rows, inner),
                     np.array(b, dtype=np.int64).reshape(inner, cols))
        assert got.tolist() == _matmul_reference(f, a, b, cols), (rows, inner, cols)


def test_matmul_every_pair_and_in_blocks():
    f = FieldSpec(3, 2)
    elems = np.arange(f.q)
    prods = matmul(f, elems[:, None], elems[None, :])
    assert prods.tolist() == [[f.mul(x, y) for y in range(f.q)] for x in range(f.q)]
    rng = random.Random(3)
    rows = RANK_BATCH_ENTRIES // 20 + 5  # several row blocks
    a = [[rng.randrange(f.q) for _ in range(4)] for _ in range(rows)]
    b = [[rng.randrange(f.q) for _ in range(5)] for _ in range(4)]
    assert matmul(f, np.array(a), np.array(b)).tolist() == _matmul_reference(f, a, b, 5)


# -- compiled decode -----------------------------------------------------------

# (k, n_a, n_b, tau) per field; each has q >= n_a + 1
SHAPES = {
    (2, 3): (5, 7, 8, 1),
    (3, 2): (5, 8, 6, 1),
    (11, 1): (5, 9, 7, 2),
    (13, 1): (7, 11, 11, 2),
    (2, 8): (9, 12, 11, 2),
    (2, 11): (6, 9, 8, 2),
}


@functools.cache
def _code(field):
    k, n_a, n_b, tau = SHAPES[field]
    return CodeSpec.build(k, n_a, n_b, tau, field=FieldSpec(*field))


def _lost(code, data, pattern, rng):
    """The encoded array with `pattern` masked and its symbols overwritten."""
    stored = encode(code, data)
    rows = [[rng.randrange(code.field.q) if c in pattern else v for c, v in enumerate(row)]
            for row in stored.rows]
    mask = [[c in pattern for c in range(code.n)] for _ in range(code.k)]
    return stored, CodeArray(code.field, code.k, code.n, rows, mask)


def _surviving_rank(code, pattern):
    """Rank of the surviving class-A symbols over the k^2 data symbols."""
    nodes = generator_rows(code.class_a)
    forms = [v for c, col in enumerate(nodes) if c not in pattern for v in col]
    return int(batch_rank(code.field, [forms])[0]) if forms else 0


@st.composite
def _cases(draw):
    field = draw(st.sampled_from(sorted(SHAPES)))
    code = _code(field)
    f = fault_tolerance(code.n_a, code.k, code.tau).f
    size = draw(st.integers(1, f + 1))
    pattern = draw(st.lists(st.integers(0, code.n - 1), min_size=size, max_size=size, unique=True))
    return code, sorted(pattern), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_cases())
def test_replay_matches_ml_decode(case):
    code, pattern, seed = case
    rng = random.Random(seed)
    data = DataArray.random(code.field, code.k, rng)
    stored, damaged = _lost(code, data, pattern, rng)
    class_a_part = [x for x in pattern if x < code.n_a]
    plan = decode_plan(code, tuple(pattern))
    assert not {node for node, _ in plan.reads} & set(pattern)  # never reads a lost symbol
    if not ml_decodable(code.class_a, class_a_part):
        with pytest.raises(UnrecoverableErasureError) as exc:
            repair_multi(damaged, pattern, code)
        assert str(exc.value) == f"erasure pattern {class_a_part} is not decodable"
        assert (exc.value.rank, exc.value.needed) == (_surviving_rank(code, pattern), code.k**2)
        return
    got = repair_multi(damaged, pattern, code)
    assert got == ml_decode(code, damaged, pattern)
    assert got == {x: [row[x] for row in stored.rows] for x in pattern}


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_cases())
def test_cached_replay_equals_cold(case):
    code, pattern, seed = case
    rng = random.Random(seed)
    _, damaged = _lost(code, DataArray.random(code.field, code.k, rng), pattern, rng)

    def outcome():
        try:
            return repair_multi(damaged, pattern, code)
        except UnrecoverableErasureError as exc:
            return str(exc), exc.rank, exc.needed

    decode_plan.cache_clear()
    cold = outcome()
    assert decode_plan.cache_info().currsize == 1
    assert outcome() == cold
    assert decode_plan.cache_info().hits == 1


def _small_patterns(code):
    """Every pattern of up to f + 1 nodes of the whole code."""
    f = fault_tolerance(code.n_a, code.k, code.tau).f
    return [p for t in range(1, f + 2) for p in itertools.combinations(range(code.n), t)]


# {symbols read: patterns} per (field, pattern size) over _small_patterns;
# an undecodable plan lists only the intact data nodes, so fewer than k^2
READ_COUNTS = {
    ((2, 3), 1): {25: 10},
    ((2, 3), 2): {25: 45},
    ((2, 3), 3): {10: 10, 15: 20, 20: 5, 25: 85},
    ((3, 2), 1): {25: 9},
    ((3, 2), 2): {25: 36},
    ((3, 2), 3): {25: 84},
    ((3, 2), 4): {5: 5, 10: 30, 15: 30, 20: 5, 25: 56},
    ((11, 1), 1): {25: 11},
    ((11, 1), 2): {25: 55},
    ((11, 1), 3): {25: 165},
    ((11, 1), 4): {25: 330},
    ((13, 1), 1): {49: 15},
    ((13, 1), 2): {49: 105},
    ((13, 1), 3): {49: 455},
    ((13, 1), 4): {49: 1365},
    ((2, 8), 1): {81: 14},
    ((2, 8), 2): {81: 91},
    ((2, 8), 3): {81: 364},
    ((2, 8), 4): {45: 126, 54: 252, 63: 108, 72: 9, 81: 506},
    ((2, 11), 1): {36: 11},
    ((2, 11), 2): {36: 55},
    ((2, 11), 3): {36: 165},
    ((2, 11), 4): {12: 15, 18: 60, 24: 45, 30: 6, 36: 204},
}


# SHA-256 over every plan of _small_patterns, in order (_plan_bytes):
# pins the reads, coefficients, dtype, rank, needed and nodes of each
PLAN_DIGESTS = {
    (2, 3): "6ae8ba0e4b0fd050620564669e3226106dd6fc0a6bba357aa1305b7a2070d499",
    (3, 2): "a1f30dd47729d6c3cb77e4e58bb992d28700e57dbf00c14bd0006f3738b2cc69",
    (11, 1): "40c490d2f04eddbc5d1c6b27025cabf59992fc2057e7587121b59a4a32568005",
    (13, 1): "964249efe421a8f979e7b5ba9defb53439b592f6f1be67b46880cdc2b47249cf",
    (2, 8): "9ba32dfea2fe3c39c1a3230dccc46b36649fa765873ef90e5165fe9f8f1a8d80",
    (2, 11): "e7d421a53cd0b91fec3e37205e833c03fd32fc1d424e0253871437a50b1b2b8f",
}


def _plan_bytes(plan) -> bytes:
    """Everything a decode plan is compiled to, as bytes."""
    head = repr((plan.reads, plan.rank, plan.needed, plan.nodes))
    if plan.matrix is None:
        return (head + " None").encode()
    return (head + repr((plan.matrix.dtype.str, plan.matrix.shape))).encode() + plan.matrix.tobytes()


@pytest.mark.parametrize("field", sorted(SHAPES), ids=lambda f: "gf%d^%d" % f)
def test_every_decode_plan(field):
    """Every pattern of up to f + 1 nodes, on one compile each:
    - the matrix is None exactly where the oracle finds the class-A part
      undecodable;
    - the matrix times the generator forms of the reads gives the forms of
      the lost symbols;
    - the read counts are those of READ_COUNTS, and every pattern the rotation
      schedule orders reads exactly k^2 symbols.  Values alone
      (test_replay_matches_ml_decode) would not catch a decoder that read
      every surviving parity;
    - every plan is byte-identical to the one pinned in PLAN_DIGESTS.
    """
    code = _code(field)
    nodes = [np.array(col, dtype=np.int64) for col in generator_rows(code)]
    counts, reached, decodable_parts = {}, 0, {}
    digest = hashlib.sha256()
    for pattern in _small_patterns(code):
        plan = decode_plan(code, pattern)
        digest.update(_plan_bytes(plan))
        part = tuple(x for x in pattern if x < code.n_a)  # sum parities never help decode
        if part not in decodable_parts:
            decodable_parts[part] = ml_decodable(code.class_a, part)
        decodable = decodable_parts[part]
        assert (plan.matrix is not None) == decodable, pattern
        if decodable:
            reads = np.array([nodes[c][i] for c, i in plan.reads]).reshape(-1, code.k**2)
            got = matmul(code.field, plan.matrix, reads)
            assert (got == np.concatenate([nodes[c] for c in plan.nodes])).all(), pattern
        bucket = counts.setdefault((field, len(pattern)), {})
        bucket[len(plan.reads)] = bucket.get(len(plan.reads), 0) + 1
        failed = [x for x in pattern if x < code.k]
        alive = [j for j in range(code.k) if j not in pattern]
        if failed and _rotation_parities(code.class_a, failed, alive, set(pattern)):
            assert plan.matrix is not None and len(plan.reads) == code.k**2, pattern
            reached += 1
    assert counts == {key: c for key, c in READ_COUNTS.items() if key[0] == field}
    assert reached
    assert digest.hexdigest() == PLAN_DIGESTS[field]


def test_cache_bound_holds_every_small_pattern_of_a_16_node_code():
    code = CodeSpec.build(10, 15, 11, 4, construction=2)
    assert code.n == 16
    patterns = [p for t in range(1, 4) for p in itertools.combinations(range(16), t)]
    assert len(patterns) == PLAN_CACHE_SIZE
    decode_plan.cache_clear()
    for p in patterns:
        decode_plan(code, p)
    for p in patterns:  # all still cached
        decode_plan(code, p)
    info = decode_plan.cache_info()
    assert (info.misses, info.hits, info.currsize) == (len(patterns), len(patterns), PLAN_CACHE_SIZE)
    decode_plan(code, (0, 1, 2, 3))
    assert decode_plan.cache_info().currsize == PLAN_CACHE_SIZE


def test_decode_beyond_the_old_dense_table_cap():
    # (0, 2, 4) leaves no run of two intact data nodes at k = 6, so the
    # schedule cannot order it and the elimination reads every surviving
    # parity, over GF(2^11)
    code = _code((2, 11))
    data = DataArray.random(code.field, code.k, random.Random(9))
    stored, damaged = _lost(code, data, {0, 2, 4}, random.Random(10))
    cols = repair_multi(damaged, [0, 2, 4], code)
    assert cols == {x: [row[x] for row in stored.rows] for x in (0, 2, 4)}


def test_unordered_pattern_reads_every_surviving_parity():
    # (0, 1, 3) at (n_a, k, tau) = (9, 5, 3) needs piggyback shifts 1 and 2
    # but leaves no run of two intact data nodes, so the schedule cannot
    # order it: the elimination reads all four surviving parities
    spec = ClassASpec.build(9, 5, 3)
    assert _rotation_parities(spec, [0, 1, 3], [2, 4], {0, 1, 3}) is None
    plan = decode_plan(spec, (0, 1, 3))
    assert plan.matrix is not None
    assert sorted({node for node, _ in plan.reads}) == [2, 4, 5, 6, 7, 8]


def test_masked_node_outside_failed_is_not_read(spec_10_5):
    data = DataArray.random(spec_10_5.field, 5, random.Random(4))
    stored = encode(spec_10_5, data)
    for masked, failed in ((1, 0), (5, 0), (6, 2), (8, 3), (2, 7)):
        array = stored.copy()  # over a writable copy of the symbols
        array.erase_nodes([masked])
        array.symbols[:, masked] = (array.symbols[:, masked] + 1) % spec_10_5.field.q
        assert (array.symbols[:, masked] != stored.symbols[:, masked]).all()
        pattern = [x for x in (masked, failed) if x < spec_10_5.n_a]
        if ml_decodable(spec_10_5.class_a, pattern):
            assert repair_multi(array, [failed], spec_10_5) == {failed: [r[failed] for r in stored.rows]}
        else:
            with pytest.raises(UnrecoverableErasureError):
                repair_multi(array, [failed], spec_10_5)


def test_undecodable_plan_reraises_from_cache(spec_10_5):
    data = DataArray.random(spec_10_5.field, 5, random.Random(5))
    array = encode(spec_10_5, data)
    array.erase_nodes([0, 1, 2])
    raised = []
    for _ in range(2):
        with pytest.raises(UnrecoverableErasureError) as exc:
            decode_multi_class_a(array, spec_10_5)
        raised.append((str(exc.value), exc.value.rank, exc.value.needed))
    assert raised[0] == raised[1] == ("erasure pattern [0, 1, 2] is not decodable", 20, 25)
