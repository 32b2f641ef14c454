import itertools
import random

import numpy as np
import pytest

from pbdss import repair
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
    nodes = generator_rows(code)
    alive = [[int(x) for x in v] for c, col in enumerate(nodes) if c not in pattern for v in col]
    return bool(alive) and matrix_rank(code.field, alive) == code.k**2


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
    real = repair.repair_data_node

    def reads_everything(array, j, spec, counter=None):
        column, trace = real(array, j, spec, counter)
        trace.reads = [(c, i) for c in range(spec.n) if c != j for i in range(spec.k)]
        return column, trace

    monkeypatch.setattr(repair, "repair_data_node", reads_everything)
    for j in range(3):
        assert mins[j] == min_read_repair(code, j) == _fewest_reads(code, j) == expected


@pytest.mark.parametrize("fault", ["drops a read", "reads the lost node"])
def test_min_read_checks_the_schedule_it_starts_from(spec_7_4_h, monkeypatch, fault):
    """The schedule's reads bound the search only once a rank check shows
    they determine the column: under-reported reads used to come back as
    the minimum (6 here, against 7)."""
    real = repair.repair_data_node

    def faulty(array, j, spec, counter=None):
        column, trace = real(array, j, spec, counter)
        if fault == "drops a read":
            trace.reads.pop()
        else:
            trace.reads[-1] = (j, 0)
        return column, trace

    assert min_read_repair(spec_7_4_h, 0) == 7
    monkeypatch.setattr(repair, "repair_data_node", faulty)
    with pytest.raises(ValueError, match="do not determine column 0"):
        min_read_repair(spec_7_4_h, 0)


def test_min_read_size_cap():
    spec = CodeSpec.build(7, 10, 8, 2)
    with pytest.raises(ValueError):
        min_read_repair(spec, 0)


def test_brute_force_parallel_agrees(spec_9_5):
    assert brute_force_fault_tolerance(spec_9_5, processes=2) == 3
