import dataclasses
import functools
import itertools
import math
import random

import numpy as np
import pytest

from pbdss import class_a, cli, metrics, oracle, plan, repair
from pbdss.class_a import ClassASpec, UnrecoverableErasureError, fault_tolerance, verify_mds
from pbdss.gf import FieldSpec, batch_rank, matrix_rank
from pbdss.layout import DataArray
from pbdss.oracle import (
    brute_force_fault_tolerance,
    generator_rows,
    min_read_repair,
    ml_decodable,
    ml_decode,
)
from pbdss.repair import CodeSpec, encode, repair_data_node


def test_generator_rows_match_encoder(spec_10_5):
    """Every stored symbol equals its linear form evaluated on the data."""
    f = spec_10_5.field
    data = DataArray.random(f, 5, random.Random(1))
    arr = encode(spec_10_5, data)
    flat = [data.rows[i][j] for i in range(5) for j in range(5)]
    nodes = generator_rows(spec_10_5)
    for c in range(10):
        for i in range(5):
            acc = 0
            for v, coeff in zip(flat, nodes[c][i]):
                acc = f.add(acc, f.mul(int(coeff), v))
            assert acc == arr.rows[i][c], (c, i)


def test_ml_decodable_examples(gf8):
    spec = ClassASpec.build(7, 5, 1, gf8)
    assert ml_decodable(spec, frozenset())
    assert all(ml_decodable(spec, p) for p in itertools.combinations(range(7), 2))
    assert any(not ml_decodable(spec, p) for p in itertools.combinations(range(7), 3))


def test_ml_decodable_superset_monotone(gf8):
    spec = ClassASpec.build(7, 5, 1, gf8)
    failing = next(p for p in itertools.combinations(range(7), 3) if not ml_decodable(spec, p))
    for extra in range(7):
        if extra not in failing:
            assert not ml_decodable(spec, set(failing) | {extra})


def test_parity_forms_built_once_per_code(monkeypatch, spec_10_5):
    """ml_decodable and the exhaustive search share one read-only copy of
    each code's parity forms, built by generator_rows on first use."""
    built = []
    rows = oracle.generator_rows
    monkeypatch.setattr(oracle, "generator_rows", lambda code: built.append(code) or rows(code))
    oracle._parity_forms.cache_clear()
    patterns = list(itertools.combinations(range(spec_10_5.n), 3))
    want = [_decodable_by_reference(spec_10_5, p) for p in patterns]
    assert [ml_decodable(spec_10_5, p) for p in patterns] == want
    assert brute_force_fault_tolerance(spec_10_5) == 2
    assert built == [spec_10_5]
    forms = oracle._parity_forms(spec_10_5)
    with pytest.raises(ValueError):
        forms[0, 0] = 1


@pytest.mark.parametrize(
    "n_a,k,tau,expected",
    [(7, 5, 1, 2), (8, 5, 1, 3)],
)
def test_brute_force_class_a(n_a, k, tau, expected):
    spec = ClassASpec.build(n_a, k, tau)
    assert brute_force_fault_tolerance(spec) == expected


def test_brute_force_full_code(spec_9_5):
    assert brute_force_fault_tolerance(spec_9_5) == 3


def test_brute_force_matches_formula_when_guarantee_is_tight():
    spec = ClassASpec.build(7, 4, 2)
    assert brute_force_fault_tolerance(spec) == fault_tolerance(7, 4, 2).f == 2


def test_brute_force_can_exceed_formula_guarantee():
    # In the piggyback-limited regime the true tolerance depends on the
    # MDS coefficients; the shortened-RS defaults exceed the guarantee here.
    spec = ClassASpec.build(9, 5, 2)
    assert fault_tolerance(9, 5, 2).f == 3
    assert brute_force_fault_tolerance(spec) == 4


def test_ml_tolerance_depends_on_mds_coefficients(gf11):
    # Two MDS blocks of generalized Cauchy type over GF(11).  At (5,9,2) the
    # first is tight where the RS default beats the formula by one (see the
    # test above), so no closed form in (n_a, k, tau) can equal the ML
    # tolerance.  At (6,9,2), where xi = 2 is an integer, the second falls
    # below the formula.
    tight = ((2, 8, 6, 7), (1, 2, 9, 1), (7, 4, 4, 6), (7, 5, 9, 9), (6, 4, 8, 4))
    short = ((7, 6, 3), (4, 10, 6), (10, 6, 6), (1, 9, 8), (8, 1, 10), (9, 5, 9))
    verify_mds(tight, 9, 5, gf11)
    verify_mds(short, 9, 6, gf11)

    spec = ClassASpec(gf11, 9, 5, 2, tight)
    assert fault_tolerance(9, 5, 2).f == 3
    assert brute_force_fault_tolerance(spec) == 3

    spec = ClassASpec(gf11, 9, 6, 2, short)
    assert fault_tolerance(9, 6, 2).f == 3
    assert brute_force_fault_tolerance(spec) == 2
    assert not ml_decodable(spec, (1, 3, 5))


def _decodable_by_reference(code, pattern):
    """Rank of every surviving linear form, by the pure-Python elimination."""
    nodes = _reference_rows(code)
    alive = [v for c, col in enumerate(nodes) if c not in pattern for v in col]
    return bool(alive) and matrix_rank(code.field, alive) == code.k**2


@functools.lru_cache(maxsize=None)
def _reference_rows(code):
    return [[[int(x) for x in v] for v in col] for col in generator_rows(code)]


def _tolerance_by_reference(code):
    """Fault tolerance the plain way: levels 1, 2, ... in turn, every
    pattern of each ranked alone by the pure-Python reference, up to the
    first level with an undecodable pattern."""
    n = len(generator_rows(code))
    for t in range(1, n + 1):
        if not all(_decodable_by_reference(code, p) for p in itertools.combinations(range(n), t)):
            return t - 1
    return n


def _decodable_by_full_rank(code, t):
    """Decodability of every t-node pattern, in order, by one batched rank
    of all k^2 columns of every surviving form, data nodes included."""
    k = code.k
    nodes = np.array(generator_rows(code), dtype=np.int64)
    n = len(nodes)
    alive = np.array([[c for c in range(n) if c not in p] for p in itertools.combinations(range(n), t)],
                     dtype=np.intp).reshape(math.comb(n, t), n - t)
    mats = nodes[alive].reshape(len(alive), (n - t) * k, k * k)
    return (batch_rank(code.field, mats) == k * k).tolist()


SEARCH_CODES = {
    "10-5": dict(k=5, n_a=7, n_b=8, tau=1),
    "9-5": dict(k=5, n_a=8, n_b=6, tau=1),
    "7-4-c2": dict(k=4, n_a=6, n_b=5, tau=1, construction=2),
    "11-7": dict(k=7, n_a=10, n_b=8, tau=2),
    "8-4-gf2^11": dict(k=4, n_a=6, n_b=6, tau=1, field=FieldSpec(2, 11)),
}


@functools.lru_cache(maxsize=None)
def _search_code(name):
    full, _, block = name.partition("/")
    code = CodeSpec.build(**SEARCH_CODES[full])
    return code.class_a if block else code


@pytest.mark.parametrize("name", [f"{c}{block}" for c in SEARCH_CODES for block in ("", "/class-a")])
def test_search_matches_ascending_reference(name):
    """The descending search over exact-size stacks finds the fault
    tolerance the ascending pattern-by-pattern reference finds, under every
    cap, and ml_decodable agrees with a full-rank check on every pattern."""
    code = _search_code(name)
    n = len(generator_rows(code))
    f = _tolerance_by_reference(code)
    for max_t in (0, 1, f, f + 1, n):
        assert brute_force_fault_tolerance(code, max_t=max_t) == min(f, max_t), max_t
    assert brute_force_fault_tolerance(code) == f
    for t in range(n + 1):
        got = [ml_decodable(code, p) for p in itertools.combinations(range(n), t)]
        assert got == _decodable_by_full_rank(code, t), t


def test_search_reaches_the_counting_bound():
    """An MDS block (tau = 0) tolerates n - k erasures, the counting bound
    where the search starts, and no more."""
    spec = ClassASpec.build(6, 4, 0)
    assert _tolerance_by_reference(spec) == brute_force_fault_tolerance(spec) == 2
    assert brute_force_fault_tolerance(spec, max_t=6) == 2
    assert all(ml_decodable(spec, p) for p in itertools.combinations(range(6), 2))
    assert not any(ml_decodable(spec, p) for p in itertools.combinations(range(6), 3))


@pytest.mark.parametrize("shares", [1, 2, 3])
def test_level_chunks_split_between_shares(monkeypatch, shares):
    """The shares of a level rank disjoint chunks that together cover
    every pattern needing a rank: each one erasing at least one data node.

    The level is searched over stand-in forms whose every entry is its own
    position, so each ranked stack shows which form rows and variables it
    gathered: the rows of the pattern's surviving parity nodes and the
    variables of its erased data nodes.  The stand-in rank is the code's
    rank of the forms at those positions."""
    code = _search_code("11-7")
    k, forms = code.k, oracle._parity_forms(code)
    m = len(forms) // k
    where = np.arange(forms.size).reshape(forms.shape)
    rank = oracle.batch_rank
    for t in range(1, 4):  # the code's fault tolerance is 3, so no share stops early
        seen, ranked = [], []

        def record(field, mats):
            rows, cols = np.divmod(mats, k * k)
            for r, c in zip(rows, cols):
                data = sorted(set((c % k).ravel().tolist()))
                live = sorted(set((r // k).ravel().tolist()))
                assert sorted(r[:, 0].tolist()) == [p * k + i for p in live for i in range(k)]
                assert sorted(c[0].tolist()) == sorted(i * k + x for x in data for i in range(k))
                seen[-1].append(tuple(data + [k + p for p in range(m) if p not in live]))
            ranked.append(len(mats))
            return rank(field, forms[rows, cols])

        monkeypatch.setattr(oracle, "batch_rank", record)
        for share in range(shares):
            seen.append([])
            assert oracle._level_decodable(code, where, t, share, shares)
        every = [p for part in seen for p in part]
        assert len(every) == len(set(every)) == sum(ranked), t
        assert set(every) == {p for p in itertools.combinations(range(code.n), t) if p[0] < code.k}, t
    assert all(seen)  # the last level has five chunks, so every share ranks some


def test_pattern_stacks_are_read_only_and_shared_by_codes(gf8):
    """The cached gather indices depend on (k, n - k) alone: two codes of
    one shape, searched in either order from a cold cache, each get their
    own fault tolerance, and no stack can be written."""
    codes = [ClassASpec.build(7, 4, 1, gf8), ClassASpec.build(7, 4, 2, gf8)]
    for order in (codes, codes[::-1]):
        oracle._stacks.cache_clear()
        assert {code.tau: brute_force_fault_tolerance(code) for code in order} == {1: 3, 2: 2}
    info = oracle._stacks.cache_info()
    assert info.hits and info.currsize == info.misses  # the second code reused the first one's stacks
    for rows, cols in oracle._stacks(4, 3, 2, 1):
        for index in (rows, cols):
            with pytest.raises(ValueError):
                index[0] = 0


def test_pool_search_agrees_after_the_cache_is_warm(spec_10_5):
    f = brute_force_fault_tolerance(spec_10_5, processes=1)
    assert oracle._stacks.cache_info().currsize
    assert brute_force_fault_tolerance(spec_10_5, processes=2) == f == 2


def test_stack_cache_holds_a_verify_run(monkeypatch, capsys):
    """`verify --max-k 8` builds each of its groups once, and the cache
    stays within its bound.  A cold run reuses a group only across the tau
    values of one (k, n_a): 33 of its 90 lookups."""
    stacks, keys = oracle._stacks, []
    monkeypatch.setattr(oracle, "_stacks", lambda *key: keys.append(key) or stacks(*key))
    stacks.cache_clear()
    assert cli.main(["verify", "--max-k", "8"]) == 0
    info = stacks.cache_info()
    assert (info.hits, info.misses) == (len(keys) - len(set(keys)), len(set(keys))) == (33, 57)
    assert info.currsize <= oracle.STACK_CACHE_SIZE


@pytest.mark.parametrize("n_a,k,tau", [(7, 4, 2), (8, 5, 2)])
def test_sharing_agrees_where_the_top_level_fails(n_a, k, tau):
    """At these shapes the counting bound n_a - k is one above the answer.
    Their levels are too small for the pool, so the shares of the failing
    top level are also run one by one."""
    spec = ClassASpec.build(n_a, k, tau)
    forms = oracle._parity_forms(spec)
    f = brute_force_fault_tolerance(spec)
    assert f == n_a - k - 1 == _tolerance_by_reference(spec)
    assert brute_force_fault_tolerance(spec, processes=2) == f
    for shares in (1, 2, 3):
        assert not all(oracle._level_decodable(spec, forms, n_a - k, s, shares) for s in range(shares))
        assert all(oracle._level_decodable(spec, forms, f, s, shares) for s in range(shares))


def test_search_needs_neither_the_closed_form_nor_the_schedulers(monkeypatch, spec_10_5):
    """The exhaustive search, ml_decodable and ml_decode answer with the
    closed forms, the encoder and every scheduler made to raise, from
    forms built under the patch."""
    stored = encode(spec_10_5, DataArray.random(spec_10_5.field, 5, random.Random(3)))

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle consulted a closed form, the encoder or a scheduler")

    banned = [(class_a, "fault_tolerance"), (metrics, "formula_bundle"), (class_a, "decode_plan"),
              (repair, "encode"), (repair, "repair_plan"), (repair, "repair_data_node"),
              (repair, "repair_parity_node"), (repair, "repair_multi"), (plan, "replay"), (plan, "execute")]
    for owner, attr in banned:
        monkeypatch.setattr(owner, attr, refuse)
    oracle._parity_forms.cache_clear()
    assert brute_force_fault_tolerance(spec_10_5) == brute_force_fault_tolerance(spec_10_5.class_a) == 2
    assert ml_decodable(spec_10_5, (0, 1)) and not ml_decodable(spec_10_5, range(6))
    assert brute_force_fault_tolerance(spec_10_5, processes=2) == 2
    for pattern in ((0, 6, 9), (1, 2), (5, 7, 8)):
        array = stored.copy()
        array.erase_nodes(pattern)
        assert ml_decode(spec_10_5, array, pattern) == {c: stored.symbols[:, c].tolist() for c in pattern}
    array = stored.copy()
    array.erase_nodes(range(6))
    with pytest.raises(UnrecoverableErasureError):
        ml_decode(spec_10_5, array, range(6))
    assert not {attr for _, attr in banned} & set(vars(oracle))


@pytest.mark.parametrize("build", [
    lambda f: ClassASpec.build(7, 5, 1, f),
    lambda f: CodeSpec.build(4, 6, 6, 1, field=f),
], ids=["class-a-7-5-1", "code-8-4-1"])
def test_oracles_beyond_dense_table_cap(build):
    # GF(2^11) is past the q <= 1024 cap of the dense tables
    code = build(FieldSpec(2, 11))
    n = len(generator_rows(code))
    every_pattern_decodable = []
    for t in range(n + 1):
        patterns = list(itertools.combinations(range(n), t))
        want = [_decodable_by_reference(code, p) for p in patterns]
        assert [ml_decodable(code, p) for p in patterns] == want, t
        every_pattern_decodable.append(all(want))
    assert brute_force_fault_tolerance(code) == every_pattern_decodable.index(False) - 1


def test_class_b_nodes_do_not_add_fault_tolerance(spec_10_5):
    alone = brute_force_fault_tolerance(spec_10_5.class_a)
    full = brute_force_fault_tolerance(spec_10_5)
    assert alone == full == 2


def test_ml_decode_roundtrip(spec_10_5):
    data = DataArray.random(spec_10_5.field, 5, random.Random(2))
    arr = encode(spec_10_5, data)
    expect = {n: [arr.rows[i][n] for i in range(5)] for n in (0, 6, 9)}
    arr.erase_nodes({0, 6, 9})
    cols = ml_decode(spec_10_5, arr, {0, 6, 9})
    assert cols == expect


def test_ml_decode_raises_on_undecodable(spec_10_5):
    # the sum parities rescue some three-node patterns but not all of
    # them, which is exactly why they add no worst-case fault tolerance
    data = DataArray.random(spec_10_5.field, 5, random.Random(2))
    bad = next(
        p for p in itertools.combinations(range(10), 3) if not ml_decodable(spec_10_5, p)
    )
    arr = encode(spec_10_5, data)
    arr.erase_nodes(bad)
    with pytest.raises(UnrecoverableErasureError):
        ml_decode(spec_10_5, arr, bad)


@pytest.mark.parametrize("node", [-1, 10, 13])
def test_ml_decode_refuses_a_node_outside_the_code(spec_10_5, node):
    """A node outside [0, n) is neither read as the last node nor indexed
    past the array: ml_decode refuses it, as ml_decodable does."""
    arr = encode(spec_10_5, DataArray.random(spec_10_5.field, 5, random.Random(2)))
    for check in (ml_decodable, lambda code, pattern: ml_decode(code, arr, pattern)):
        with pytest.raises(ValueError, match="erased node index out of range"):
            check(spec_10_5, {0, node})


def test_min_read_mds_only():
    # no piggybacks, no sum parities: stripes are independent, so the
    # whole column costs k reads per symbol
    spec = CodeSpec.build(3, 5, 3, 0)
    assert min_read_repair(spec, 0) == 9


def test_min_read_matches_schedule_7_4(spec_7_4_h):
    data = DataArray.random(spec_7_4_h.field, 4, random.Random(3))
    arr = encode(spec_7_4_h, data)
    for j in range(4):
        _, trace = repair_data_node(arr, j, spec_7_4_h)
        assert min_read_repair(spec_7_4_h, j) == trace.total


def test_min_read_never_exceeds_schedule():
    spec = CodeSpec.build(4, 6, 6, 1)
    data = DataArray.random(spec.field, 4, random.Random(4))
    arr = encode(spec, data)
    for j in range(4):
        _, trace = repair_data_node(arr, j, spec)
        assert min_read_repair(spec, j) <= trace.total


def _fewest_reads(code, j):
    """Smallest read set determining column j, by trying every set in
    increasing size: a set determines it when adding the target rows does
    not raise the rank of its forms."""
    k = code.k
    nodes = generator_rows(code)
    forms = np.array([nodes[c][i] for c in range(code.n) if c != j for i in range(k)], dtype=np.int64)
    targets = np.zeros((k, k * k), dtype=np.int64)
    targets[np.arange(k), np.arange(k) * k + j] = 1
    for size in range(len(forms) + 1):
        reads = forms[np.array(list(itertools.combinations(range(len(forms)), size)), dtype=np.intp)]
        shape = (len(reads), k, k * k)
        low = batch_rank(code.field, np.concatenate([reads, np.zeros(shape, np.int64)], axis=1))
        high = batch_rank(code.field, np.concatenate([reads, np.broadcast_to(targets, shape)], axis=1))
        if (low == high).any():
            return size
    raise AssertionError("the whole code does not determine the column")


@pytest.mark.parametrize("field", [FieldSpec(7), FieldSpec(2, 3)], ids=str)
@pytest.mark.parametrize("n_b,expected", [(3, 7), (4, 5)])
def test_min_read_matches_exhaustive_enumeration(field, n_b, expected, monkeypatch):
    """The search finds the minimum from the schedule's bound, and from the
    loosest bound too: a schedule that reads every symbol it may."""
    code = CodeSpec.build(3, 5, n_b, 1, field=field)
    mins = [min_read_repair(code, j) for j in range(3)]
    real, consulted = repair.repair_plan, []

    def reads_everything(spec, j, erased):
        consulted.append(j)
        reads = tuple((c, i) for c in range(spec.n) if c != j for i in range(spec.k))
        return dataclasses.replace(real(spec, j, erased), reads=reads)

    monkeypatch.setattr(repair, "repair_plan", reads_everything)
    for j in range(3):
        assert mins[j] == min_read_repair(code, j) == _fewest_reads(code, j) == expected
    assert consulted == [0, 1, 2]


@pytest.mark.parametrize("fault", ["drops a read", "reads the lost node"])
def test_min_read_checks_the_schedule_it_starts_from(spec_7_4_h, monkeypatch, fault):
    """The schedule's reads bound the search only once a rank check shows
    they determine the column: under-reported reads used to come back as
    the minimum (6 here, against 7)."""
    real, consulted = repair.repair_plan, []

    def faulty(spec, j, erased):
        consulted.append(j)
        plan = real(spec, j, erased)
        reads = plan.reads[:-1] if fault == "drops a read" else (*plan.reads[:-1], (j, 0))
        return dataclasses.replace(plan, reads=reads)

    assert min_read_repair(spec_7_4_h, 0) == 7
    monkeypatch.setattr(repair, "repair_plan", faulty)
    with pytest.raises(ValueError, match="do not determine column 0"):
        min_read_repair(spec_7_4_h, 0)
    assert consulted == [0]


def test_min_read_size_cap():
    spec = CodeSpec.build(7, 10, 8, 2)
    with pytest.raises(ValueError):
        min_read_repair(spec, 0)


def test_brute_force_parallel_agrees(spec_9_5):
    assert brute_force_fault_tolerance(spec_9_5, processes=2) == 3
