import dataclasses
import itertools
import json
import pickle
import random
import re

import pytest

from pbdss.class_a import ClassASpec, UnrecoverableErasureError, _interned
from pbdss.class_b import construct1_parities
from pbdss.gf import FieldSpec
from pbdss.layout import DataArray, q_set
from pbdss.metrics import OpCounter, formula_bundle
from pbdss.repair import (
    CodeSpec,
    encode,
    puncture,
    repair_data_node,
    repair_multi,
    repair_parity_node,
    repair_plan,
)


def fresh_array(spec, seed=0):
    data = DataArray.random(spec.field, spec.k, random.Random(seed))
    return data, encode(spec, data)


def test_worked_example_node0_trace(spec_10_5):
    data, arr = fresh_array(spec_10_5)
    col, trace = repair_data_node(arr, 0, spec_10_5)
    assert col == [data.rows[i][0] for i in range(5)]
    assert trace.total == 9
    # five reads recover the diagonal, one more the piggybacked symbol,
    # then one parity read per remaining symbol
    assert trace.per_symbol[(0, 0)] == 5
    assert trace.per_symbol[(0, 1)] == 1
    assert trace.per_symbol[(0, 2)] == 1
    assert trace.per_symbol[(0, 3)] == 1
    assert trace.per_symbol[(0, 4)] == 1


def test_worked_example_average(spec_10_5):
    _, arr = fresh_array(spec_10_5)
    totals = [repair_data_node(arr, j, spec_10_5)[1].total for j in range(5)]
    assert totals == [9] * 5
    assert sum(totals) / 25 == pytest.approx(1.8)


def test_trace_invariants(spec_10_5):
    _, arr = fresh_array(spec_10_5, seed=3)
    for j in range(5):
        _, trace = repair_data_node(arr, j, spec_10_5)
        assert len(set(trace.reads)) == len(trace.reads)  # never re-read
        assert trace.total == len(trace.reads)
        read_set = set(trace.reads)
        repaired = {(j, i) for i in range(5)}
        assert read_set | repaired <= trace.cache
        payload = json.loads(trace.to_json())
        assert payload["total"] == trace.total
        assert len(payload["reads"]) == trace.total
        assert set(payload) == {"reads", "perSymbol", "total"}


def test_repair_is_data_independent(spec_10_5):
    zero = DataArray.zeros(spec_10_5.field, 5)
    arr0 = encode(spec_10_5, zero)
    _, arr1 = fresh_array(spec_10_5, seed=9)
    for j in range(5):
        t0 = repair_data_node(arr0, j, spec_10_5)[1]
        t1 = repair_data_node(arr1, j, spec_10_5)[1]
        assert t0.reads == t1.reads


def test_parity_node_per_symbol_counts():
    spec = CodeSpec.build(5, 7, 8, 1)
    data, arr = fresh_array(spec)
    # plain MDS parity node: k reads per symbol
    col, tr = repair_parity_node(arr, 5, spec)
    assert col == [arr.rows[i][5] for i in range(5)]
    assert all(tr.per_symbol[(5, i)] == 5 for i in range(5))
    # piggybacked node: k + 1 reads per symbol
    col, tr = repair_parity_node(arr, 6, spec)
    assert col == [arr.rows[i][6] for i in range(5)]
    assert all(tr.per_symbol[(6, i)] == 6 for i in range(5))
    # last sum-parity node: single-term parities, one read each
    col, tr = repair_parity_node(arr, 9, spec)
    assert col == [arr.rows[i][9] for i in range(5)]
    assert all(tr.per_symbol[(9, i)] == 1 for i in range(5))


def test_repair_multi_data_pair(spec_10_5):
    data, arr = fresh_array(spec_10_5, seed=5)
    arr.erase_nodes({1, 3})
    cols = repair_multi(arr, {1, 3}, spec_10_5)
    for j in (1, 3):
        assert cols[j] == [data.rows[i][j] for i in range(5)]


def test_repair_multi_mixed_classes(spec_9_5):
    data, arr = fresh_array(spec_9_5, seed=6)
    expect = {n: [arr.rows[i][n] for i in range(5)] for n in (0, 5, 8)}
    arr.erase_nodes({0, 5, 8})
    cols = repair_multi(arr, {0, 5, 8}, spec_9_5)
    assert cols == expect


def test_repair_multi_unrecoverable(spec_10_5):
    _, arr = fresh_array(spec_10_5, seed=7)
    arr.erase_nodes({0, 1, 2})  # three data failures, f = 2
    with pytest.raises(UnrecoverableErasureError):
        repair_multi(arr, {0, 1, 2}, spec_10_5)


def test_repair_multi_contract(spec_10_5):
    """What repair_multi returns and raises, for every form `failed` takes."""
    spec = spec_10_5
    _, clean = fresh_array(spec, seed=5)
    stored = {x: clean.symbols[:, x].tolist() for x in range(spec.n)}
    arr = clean.copy()
    arr.erase_nodes({1, 3, 8})
    want = [(x, stored[x]) for x in (1, 3, 8)]
    # keys in increasing node order, whatever form `failed` takes
    for failed in ([8, 3, 1], {8, 1, 3}, (x for x in (3, 8, 1)), [3, 3, 1, 8, 1, 8]):
        assert list(repair_multi(arr, failed, spec).items()) == want
    # a masked node outside `failed` is erased but not returned
    assert list(repair_multi(arr, [3], spec).items()) == [(3, stored[3])]
    assert list(repair_multi(arr, (9, 8), spec).items()) == [(8, stored[8]), (9, stored[9])]
    # an unmasked failed node is decoded all the same
    assert list(repair_multi(clean, [4, 0], spec).items()) == [(0, stored[0]), (4, stored[4])]
    # an empty `failed` returns nothing, but still decodes the masked nodes
    assert repair_multi(clean, [], spec) == {} and repair_multi(arr, (), spec) == {}
    arr.erase_nodes({0, 2})
    for failed in ([], [9]):
        with pytest.raises(UnrecoverableErasureError) as exc:
            repair_multi(arr, failed, spec)
        assert (str(exc.value), exc.value.rank, exc.value.needed) == (
            "erasure pattern [0, 1, 2, 3] is not decodable", 15, 25)
    for failed in ([-1, 0], [0, spec.n]):
        with pytest.raises(ValueError, match="^failed node index out of range$"):
            repair_multi(clean, failed, spec)


def test_codespec_shape_fields(spec_10_5):
    """k, tau, n_a, n_b and n are set once, outside the dataclass fields:
    equality, hash, repr, pickling and the spec JSON see only the parts."""
    for spec in (spec_10_5, puncture(spec_10_5, 2), CodeSpec.build(8, 12, 9, 3, construction=2)):
        a, b = spec.class_a, spec.class_b
        shape = (a.k, a.tau, a.n_a, b.n_b, a.n_a + b.n_b - a.k)
        assert (spec.k, spec.tau, spec.n_a, spec.n_b, spec.n) == shape
        assert [f.name for f in dataclasses.fields(spec)] == ["field", "class_a", "class_b"]
        assert repr(spec) == f"CodeSpec(field={spec.field!r}, class_a={a!r}, class_b={b!r})"
        back = pickle.loads(pickle.dumps(spec))
        assert back == spec and hash(back) == hash(spec) and repr(back) == repr(spec)
        assert (back.k, back.tau, back.n_a, back.n_b, back.n) == shape
        assert back.to_json() == spec.to_json() == CodeSpec.from_json(spec.to_json()).to_json()
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.n = 0
    short = dataclasses.replace(spec_10_5, class_b=puncture(spec_10_5, 1).class_b)
    assert (short.n_b, short.n) == (spec_10_5.n_b - 1, spec_10_5.n - 1)


def test_puncture_levels(spec_10_5):
    # derived by tracing the schedule at each level
    expected = {0: 1.8, 1: 2.0, 2: 2.4, 3: 4.2}
    for count, lam in expected.items():
        spec = puncture(spec_10_5, count)
        assert spec.n == 10 - count
        data, arr = fresh_array(spec, seed=8)
        totals = []
        for j in range(5):
            col, tr = repair_data_node(arr, j, spec)
            assert col == [data.rows[i][j] for i in range(5)]
            totals.append(tr.total)
        assert sum(totals) / 25 == pytest.approx(lam)
    assert puncture(spec_10_5, 0) is spec_10_5
    with pytest.raises(ValueError):
        puncture(spec_10_5, 4)


def test_bandwidth_bound_sweep():
    rng = random.Random(11)
    for k in range(4, 11):
        for tau in range(1, min(3, k - 1) + 1):
            for n_a in range(k + 2, 2 * k):
                if tau > n_a - k - 1:
                    continue
                spec_a = ClassASpec.build(n_a, k, tau)  # checked MDS once per shape
                for n_b in range(k + 1, 2 * k - tau):
                    spec = CodeSpec(spec_a.field, spec_a, construct1_parities(k, n_a, n_b, tau))
                    report = formula_bundle(spec.n, k, n_a, tau, spec.field)
                    data = DataArray.random(spec.field, k, rng)
                    arr = encode(spec, data)
                    total = 0
                    for j in range(k):
                        col, tr = repair_data_node(arr, j, spec)
                        assert col == [data.rows[i][j] for i in range(k)]
                        total += tr.total
                    lam = total / k / k
                    assert lam <= report.lambda_bound + 1e-9, (k, n_a, n_b, tau)


def test_repair_counter_matches_formula_for_construction1(spec_9_5):
    report = formula_bundle(9, 5, 8, 1, spec_9_5.field)
    for j in range(5):
        plan = repair_plan(_interned(spec_9_5), j, ())
        assert OpCounter(plan.adds, plan.muls).bit_ops(spec_9_5.field.bits) == report.repair_ops


def test_codespec_json_roundtrip(spec_10_5, tmp_path):
    text = spec_10_5.to_json()
    back = CodeSpec.from_json(text)
    assert back == spec_10_5
    assert back.to_json() == text


@pytest.mark.parametrize("shape,construction,field", [
    ((5, 7, 8, 1), 1, None), ((5, 8, 6, 1), 1, None), ((9, 12, 11, 2), 1, None),
    ((9, 12, 11, 2), 1, FieldSpec(2, 8)), ((8, 12, 9, 3), 2, None), ((10, 15, 11, 4), 2, None),
])
def test_codespec_json_roundtrip_cli_shapes(shape, construction, field):
    """The six shapes the CLI benchmark runs; the spec JSON is one compact line."""
    spec = CodeSpec.build(*shape, construction=construction, field=field)
    text = spec.to_json()
    assert CodeSpec.from_json(text) == spec
    assert "\n" not in text


def test_codespec_validation(gf8, gf11):
    spec_a = ClassASpec.build(7, 5, 1, gf8)
    wrong_tau = construct1_parities(5, 7, 7, 2)
    with pytest.raises(ValueError):
        CodeSpec(gf8, spec_a, wrong_tau)
    with pytest.raises(ValueError, match="remark1 applies to construction 1 only"):
        CodeSpec.build(5, 7, 8, 1, construction=2, remark1=True)


def test_roundtrip_both_constructions_small_sweep():
    rng = random.Random(13)
    cases = [(4, 6, 5, 1), (6, 9, 7, 2), (5, 7, 8, 1), (6, 8, 9, 1)]
    for (k, n_a, n_b, tau) in cases:
        for construction in (1, 2):
            spec = CodeSpec.build(k, n_a, n_b, tau, construction=construction)
            for _ in range(5):
                data = DataArray.random(spec.field, k, rng)
                arr = encode(spec, data)
                for j in range(k):
                    col, _ = repair_data_node(arr, j, spec)
                    assert col == [data.rows[i][j] for i in range(k)]


@pytest.mark.parametrize("entry", ["data", "parity", "multi"])
def test_repairs_refuse_an_array_of_another_code(entry):
    """Every repair entry raises ValueError on an array over another field,
    with another k, or narrower than the spec.  They used to return wrong
    columns (a (5,9,2) GF(11) array under the GF(13) spec of that shape)
    or fail with an IndexError inside replay.  A wider array, a punctured
    spec's stripe, still repairs."""
    spec = CodeSpec.build(5, 9, 7, 2, field=FieldSpec(11))
    repair = {"data": lambda a, s: repair_data_node(a, 0, s)[0],
              "parity": lambda a, s: repair_parity_node(a, 5, s)[0],
              "multi": lambda a, s: repair_multi(a, [0], s)[0]}[entry]
    cases = [
        (spec, CodeSpec.build(5, 9, 7, 2, field=FieldSpec(13)), "array is over GF(11), but the spec is over GF(13)"),
        (CodeSpec.build(4, 7, 5, 2, field=FieldSpec(11)), spec, "array is 4 x 8, but the spec needs 5 rows"),
        (puncture(spec, 1), spec, "array is 5 x 10, but the spec needs 5 rows and at least 11 nodes"),
    ]
    for array_spec, repair_spec, message in cases:
        _, array = fresh_array(array_spec)
        with pytest.raises(ValueError, match=re.escape(message)):
            repair(array, repair_spec)
    _, array = fresh_array(spec)
    assert repair(array, puncture(spec, 2)) == repair(array, spec) == array.symbols[:, 0 if entry != "parity" else 5].tolist()


def test_remark1_same_lambda_fewer_adds():
    base = CodeSpec.build(5, 7, 8, 1)
    variant = CodeSpec.build(5, 7, 8, 1, remark1=True)
    rng = random.Random(14)
    data = DataArray.random(base.field, 5, rng)
    arr_base = encode(base, data)
    arr_var = encode(variant, data)

    def encode_adds(code):  # the parity-node plans' adds, which measured_complexity sums for encode
        return sum(repair_plan(_interned(code), c, ()).adds for c in range(code.k, code.n))

    assert encode_adds(variant) < encode_adds(base)
    t_base = sum(repair_data_node(arr_base, j, base)[1].total for j in range(5))
    t_var = sum(repair_data_node(arr_var, j, variant)[1].total for j in range(5))
    assert t_base == t_var
    for j in range(5):
        col, _ = repair_data_node(arr_var, j, variant)
        assert col == [data.rows[i][j] for i in range(5)]
