import random

import numpy as np
import pytest

from pbdss.class_a import _interned
from pbdss.gf import FieldSpec
from pbdss.layout import DataArray
from pbdss.metrics import (
    OpCounter,
    basic_pm_mbr_row,
    f_sequence,
    formula_bundle,
    measured_complexity,
    measured_lambda,
    rows_to_csv,
    table1_row,
    table2_rows,
    table3_rows,
)
from pbdss.plan import replay
from pbdss.repair import CodeSpec, encode, repair_data_node, repair_plan


def test_f_sequence():
    assert f_sequence(10, 5, 7, 1) == [1, 1, 1]
    assert f_sequence(9, 5, 8, 1) == [3]
    assert f_sequence(14, 9, 12, 2) == [1, 5]
    assert f_sequence(8, 5, 8, 1) == []


@pytest.mark.parametrize(
    "n,k,n_a,tau,q_params,expected",
    [
        (9, 5, 8, 1, (3, 2), 44.0),
        (11, 7, 10, 2, (11, 1), 66.2857),
        (14, 9, 12, 2, (13, 1), 70.6667),
    ],
)
def test_normalized_repair_complexity(n, k, n_a, tau, q_params, expected):
    field = FieldSpec(*q_params)
    report = formula_bundle(n, k, n_a, tau, field)
    assert report.repair_ops_normalized == pytest.approx(expected, abs=1e-3)


def test_bundle_10_5():
    report = formula_bundle(10, 5, 7, 1, FieldSpec(2, 3))
    assert report.f_seq == [1, 1, 1]
    assert report.lambda_bound == pytest.approx(9 / 5)
    assert report.encode_ops_b == 9  # nu = 3
    assert report.fault_tolerance == 2
    assert report.rate == pytest.approx(0.5)


def test_parity_figures():
    report = formula_bundle(10, 5, 7, 1, FieldSpec(2, 3))
    assert report.parity_lambda_a == pytest.approx(5.5)
    assert report.parity_lambda_b == pytest.approx((15 - 2 - 8 - 1) / 2)


def test_measured_matches_formula_example(spec_9_5):
    meas = measured_complexity(spec_9_5)
    assert meas["repair_bit_ops_avg"] == 220
    assert meas["repair_bit_ops_normalized"] == 44.0


@pytest.mark.parametrize("k,n_a,n_b,tau", [(5, 8, 6, 1), (7, 10, 8, 2), (9, 12, 11, 2), (5, 7, 8, 1)])
def test_construction1_counters_exact(k, n_a, n_b, tau):
    spec = CodeSpec.build(k, n_a, n_b, tau)
    report = formula_bundle(spec.n, k, n_a, tau, spec.field)
    meas = measured_complexity(spec)
    assert all(v == report.repair_ops for v in meas["repair_bit_ops_per_node"])
    assert meas["encode_bit_ops_per_row"] == report.encode_ops


def test_construction2_encode_within_bound():
    spec = CodeSpec.build(6, 9, 7, 2, construction=2)
    report = formula_bundle(spec.n, 6, 9, 2, spec.field)
    meas = measured_complexity(spec)
    assert meas["encode_bit_ops_per_row"] <= report.encode_ops


def test_encode_counts_data_independent(spec_10_5):
    """encode replays one plan compiled from the spec alone, on zero and on
    random data, and the measured encode figure is that plan's totals."""
    spec, k = spec_10_5, spec_10_5.k
    plan = repair_plan(_interned(spec), None, ())
    for data in (DataArray.zeros(spec.field, k), DataArray.random(spec.field, k, random.Random(3))):
        parities = encode(spec, data).symbols[:, k:]
        assert np.array_equal(parities, replay(plan, data.symbols).reshape(spec.n - k, k).T)
        assert repair_plan(_interned(spec), None, ()) is plan
    assert (plan.adds, plan.muls) == (sum(s.adds for s in plan.stages), sum(s.muls for s in plan.stages))
    assert measured_complexity(spec)["encode_bit_ops_total"] == OpCounter(plan.adds, plan.muls).bit_ops(spec.field.bits)


def test_measured_lambda_examples(spec_10_5, spec_7_4_h):
    lam, traces = measured_lambda(spec_10_5)
    assert lam == pytest.approx(1.8)
    assert len(traces) == 5
    lam, _ = measured_lambda(spec_7_4_h)
    assert lam == pytest.approx(1.875)


def test_measured_lambda_seed_independent(spec_10_5):
    """The data-free measured_lambda equals the lambda of repairing every
    data node of arrays encoded from two different seeds."""
    spec, k = spec_10_5, spec_10_5.k
    lam, _ = measured_lambda(spec)
    for seed in (0, 99):
        array = encode(spec, DataArray.random(spec.field, k, random.Random(seed)))
        assert sum(repair_data_node(array, j, spec)[1].total for j in range(k)) / k / k == lam


def test_lambda_bound_and_measured_in_report(spec_9_5):
    lam, _ = measured_lambda(spec_9_5)
    assert lam == pytest.approx(2.4)
    assert lam <= formula_bundle(9, 5, 8, 1, spec_9_5.field).lambda_bound


def test_rate_bound_extremes():
    # upper bound met at n_a = k + 2, tau = 1, n_b = k + 1
    report = formula_bundle(8, 5, 7, 1, FieldSpec(2, 3))
    assert report.rate == pytest.approx(report.rate_upper)
    # lower bound met at maximal n_a and n_b
    k, tau = 5, 1
    n_a, n_b = 2 * k - 1, 2 * k - tau - 1
    report = formula_bundle(n_a + n_b - k, k, n_a, tau, FieldSpec(11))
    assert report.rate == pytest.approx(report.rate_lower)


def test_adding_class_b_node_never_increases_lambda():
    k, n_a, tau = 5, 7, 1
    prev = None
    for n_b in range(k, 2 * k - tau):
        if n_b == k:
            continue
        spec = CodeSpec.build(k, n_a, n_b, tau)
        lam, _ = measured_lambda(spec)
        if prev is not None:
            assert lam <= prev + 1e-12
        prev = lam


def test_table1_rows():
    assert table1_row("mds", {"n": 10, "k": 5}) == {
        "family": "MDS",
        "beta": 1,
        "fault_tolerance": 5,
        "lambda": 5,
        "repair_ops_normalized": 4 * 8 + 5 * 64,
        "encode_ops": 5 * (4 * 8 + 5 * 64),
    }
    zz = table1_row("zigzag", {"n": 10, "k": 5})
    assert zz["lambda"] == pytest.approx(1.8)
    assert zz["beta"] == 5**4
    eo = table1_row("evenodd", {"n": 7, "k": 5})
    assert eo["fault_tolerance"] == 2
    assert eo["lambda"] == 5
    with pytest.raises(ValueError):
        table1_row("mdr", {"n": 10, "k": 5})
    mdr = table1_row("mdr", {"n": 7, "k": 5})
    assert mdr["beta"] == 32 and mdr["lambda"] == 3
    lrc = table1_row("lrc", {"n": 10, "k": 6, "r": 2})
    assert lrc["fault_tolerance"] == 3
    assert lrc["lambda"] == pytest.approx(3.0)
    pb = table1_row("piggyback", {"n": 10, "k": 5, "t": 2, "t_r": 2, "ell": 3})
    assert pb["repair_ops_normalized"] is None
    assert pb["lambda"] == pytest.approx(((5 - 2) * 7 + 2 * (5 + 2 + 1)) / 10)
    with pytest.raises(ValueError):
        table1_row("fountain", {"n": 10, "k": 5})


def test_proposed_table1_row(spec_10_5):
    row = table1_row("proposed", {"n": 10, "k": 5, "spec": spec_10_5})
    assert row["lambda"] == pytest.approx(1.8)
    assert row["fault_tolerance"] == 2
    assert row["beta"] == 5


def test_basic_pm_mbr_reference_rows():
    assert basic_pm_mbr_row(8, 5, 7, 11)["repair_ops_normalized"] == pytest.approx(135.0)
    assert basic_pm_mbr_row(11, 7, 10, 11)["repair_ops_normalized"] == pytest.approx(187.5)
    assert basic_pm_mbr_row(14, 9, 13, 17)["repair_ops_normalized"] == pytest.approx(384.0)
    assert basic_pm_mbr_row(8, 5, 7, 11)["rate"] == pytest.approx(0.4464, abs=1e-4)


def test_table2_rows():
    rows = table2_rows()
    assert [r["code"] for r in rows] == ["(9,5,3)", "(11,7,3)", "(14,9,3)"]
    assert [r["repair_ops"] for r in rows] == [44.0, 66.2857, 70.6667]
    assert [r["lambda"] for r in rows] == [2.4, 3.0, 3.5556]
    assert [r["basic_repair_ops"] for r in rows] == [135.0, 187.5, 384.0]


def test_table3_rows():
    rows = table3_rows()
    assert [(r["lambda_c1"], r["lambda_c2"]) for r in rows] == [
        (2.0, 1.875),
        (2.5, 2.4167),
        (3.0, 2.9375),
        (2.375, 2.3125),
        (3.5, 3.45),
    ]
    assert [r["improvement_pct"] for r in rows] == [6.25, 3.33, 2.08, 2.63, 1.43]


def test_rows_to_csv():
    rows = [{"a": 1, "b": None}, {"a": 2, "b": "x"}]
    assert rows_to_csv(rows) == "a,b\n1,\n2,x\n"
    assert rows_to_csv([]) == ""
