import ast
import itertools
import random
import re

import pytest

from pbdss import class_a
from pbdss.class_a import (
    ClassASpec,
    UnrecoverableErasureError,
    decode_multi_class_a,
    encode_class_a,
    fault_tolerance,
    mds_generator,
    verify_mds,
    xi_threshold,
)
from pbdss.gf import FieldSpec, matrix_rank, solve_values
from pbdss.layout import CodeArray, DataArray


def brute_submatrix_check(alpha, n_a, k, field):
    """Independent exhaustive oracle: every k-subset of generator columns
    must have full rank."""
    cols = []
    for c in range(k):
        cols.append([1 if r == c else 0 for r in range(k)])
    for c in range(k, n_a):
        cols.append([alpha[r][c - k] for r in range(k)])
    for subset in itertools.combinations(range(n_a), k):
        rows = [cols[c] for c in subset]
        if matrix_rank(field, rows) != k:
            return False
    return True


def test_mds_generator_7_5_gf8(gf8):
    alpha = mds_generator(7, 5, gf8)
    assert brute_submatrix_check(alpha, 7, 5, gf8)


def test_mds_generator_8_5_gf9(gf9):
    alpha = mds_generator(8, 5, gf9)
    assert brute_submatrix_check(alpha, 8, 5, gf9)


def test_mds_single_parity_column_all_nonzero(gf11):
    alpha = mds_generator(6, 5, gf11)
    assert all(alpha[i][0] != 0 for i in range(5))


def _reference_alpha(n_a, k, field):
    """The parity block from one scalar solve_values per parity column."""
    vand = [[field.pow(x, e) for x in range(1, n_a + 1)] for e in range(k)]
    lead = [row[:k] for row in vand]
    cols = [[s.value for s in solve_values(field, lead, [row[j] for row in vand]).solution] for j in range(k, n_a)]
    return [[cols[j][i] for j in range(n_a - k)] for i in range(k)]


def test_mds_generator_matches_scalar_solves(monkeypatch):
    """One eliminate gives the alpha of a solve per column, for every k
    from 3 to 11, every n_a from k + 2 to 2k - 1, on every field given
    that is large enough.  The MDS check, which has tests of its own and
    takes seconds at k = 11, is skipped here."""
    monkeypatch.setattr(class_a, "verify_mds", lambda *args, **kwargs: None)
    fields = [FieldSpec(7), FieldSpec(2, 3), FieldSpec(3, 2), FieldSpec(13), FieldSpec(23), FieldSpec(2, 5),
              FieldSpec(2, 8)]
    checked = 0
    for k in range(3, 12):
        for n_a in range(k + 2, 2 * k):
            for f in fields:
                if f.q >= n_a + 1:
                    assert mds_generator(n_a, k, f) == _reference_alpha(n_a, k, f), (k, n_a, f)
                    checked += 1
    assert checked >= 150


def test_mds_generator_field_too_small(gf8):
    with pytest.raises(ValueError):
        mds_generator(9, 5, gf8)


def _named_singular(info, alpha, k, field):
    """The column set verify_mds named is really singular."""
    subset = ast.literal_eval(re.search(r"columns (\(.*?\)) are singular", str(info.value)).group(1))
    cols = [[1 if r == c else 0 for r in range(k)] if c < k else [alpha[r][c - k] for r in range(k)]
            for c in subset]
    return len(subset) == k and matrix_rank(field, cols) < k


def test_verify_mds_catches_corruption(gf8):
    alpha = [list(r) for r in mds_generator(7, 5, gf8)]
    alpha[2][1] = 0  # zero coefficient kills some submatrix
    with pytest.raises(ValueError, match="columns") as info:
        verify_mds(alpha, 7, 5, gf8)
    assert _named_singular(info, alpha, 5, gf8)


def test_verify_mds_rejects_singular_minor_without_zeros(gf11):
    alpha = [list(r) for r in mds_generator(9, 5, gf11)]
    # make rows 1, 3 x parity columns 0, 2 proportional: a singular 2x2 minor
    alpha[3][2] = gf11.div(gf11.mul(alpha[1][2], alpha[3][0]), alpha[1][0])
    assert all(v for row in alpha for v in row)
    assert not brute_submatrix_check(alpha, 9, 5, gf11)
    with pytest.raises(ValueError, match="singular") as info:
        verify_mds(alpha, 9, 5, gf11)
    assert _named_singular(info, alpha, 5, gf11)


def test_verify_mds_sampled_branch():
    # C(18, 9) > 10**5 subsets: 10**4 seeded samples, still batched by minor size
    f = FieldSpec(2, 5)
    alpha = mds_generator(18, 9, f)
    verify_mds(alpha, 18, 9, f)
    bad = [list(r) for r in alpha]
    bad[0][0] = 0
    with pytest.raises(ValueError, match="singular"):
        verify_mds(bad, 18, 9, f)


def test_piggyback_indices():
    spec = ClassASpec.build(7, 5, 1)
    assert spec.piggyback_source(0, 6) == (1, 0)
    spec64 = ClassASpec.build(6, 4, 1)
    assert spec64.piggyback_source(3, 5) == (0, 3)


def test_encode_zero_data(gf8):
    spec = ClassASpec.build(7, 5, 1, gf8)
    parities = encode_class_a(DataArray.zeros(gf8, 5), spec)
    assert all(v == 0 for row in parities for v in row)


def test_encode_shapes_and_field_checks(gf8, gf11):
    spec = ClassASpec.build(7, 5, 1, gf8)
    with pytest.raises(ValueError):
        encode_class_a(DataArray.zeros(gf11, 5), spec)
    with pytest.raises(ValueError):
        encode_class_a(DataArray.zeros(gf8, 4), spec)


@pytest.mark.parametrize(
    "n_a,k,tau,expected",
    [(8, 5, 1, 3), (7, 5, 1, 2), (12, 9, 2, 3)],
)
def test_fault_tolerance_values(n_a, k, tau, expected):
    assert fault_tolerance(n_a, k, tau).f == expected


def test_fault_tolerance_branches():
    rep = fault_tolerance(7, 5, 1)
    assert rep.branch == "mds"
    assert rep.xi == pytest.approx(xi_threshold(7, 5, 1))
    rep = fault_tolerance(9, 5, 2)
    assert rep.branch == "piggyback-limited"
    assert rep.f == 3


def test_spec_validation():
    with pytest.raises(ValueError):
        ClassASpec.build(6, 5, 1)  # n_a < k + 2
    with pytest.raises(ValueError):
        ClassASpec.build(10, 5, 1)  # n_a >= 2k
    with pytest.raises(ValueError):
        ClassASpec.build(7, 5, 2)  # tau > n_a - k - 1


def encode_array(spec, data):
    parities = encode_class_a(data, spec)
    rows = [list(data.rows[i]) + parities[i] for i in range(spec.k)]
    return CodeArray(spec.field, spec.k, spec.n_a, rows, [[False] * spec.n_a for _ in range(spec.k)])


def test_decode_zero_erasures_identity(gf8):
    spec = ClassASpec.build(7, 5, 1, gf8)
    data = DataArray.random(gf8, 5, random.Random(0))
    arr = encode_array(spec, data)
    cols = decode_multi_class_a(arr, spec, set())
    for j in range(5):
        assert cols[j] == [data.rows[i][j] for i in range(5)]


def test_decode_all_two_node_patterns_7_5(gf8):
    spec = ClassASpec.build(7, 5, 1, gf8)
    data = DataArray.random(gf8, 5, random.Random(1))
    for pattern in itertools.combinations(range(7), 2):
        arr = encode_array(spec, data)
        arr.erase_nodes(pattern)
        cols = decode_multi_class_a(arr, spec, set(pattern))
        for j in pattern:
            if j < 5:
                assert cols[j] == [data.rows[i][j] for i in range(5)]
            else:
                assert cols[j] == [encode_class_a(data, spec)[i][j - 5] for i in range(5)]


def test_decode_three_data_nodes_8_5(gf9):
    spec = ClassASpec.build(8, 5, 1, gf9)
    data = DataArray.random(gf9, 5, random.Random(2))
    arr = encode_array(spec, data)
    arr.erase_nodes({0, 2, 4})
    cols = decode_multi_class_a(arr, spec, {0, 2, 4})
    for j in (0, 2, 4):
        assert cols[j] == [data.rows[i][j] for i in range(5)]


def test_decode_rank_fallback_pattern():
    # Four adjacent data failures leave no run of two intact data nodes,
    # so the rotation schedule cannot start; the rank decoder still wins.
    spec = ClassASpec.build(9, 5, 2)
    data = DataArray.random(spec.field, 5, random.Random(3))
    arr = encode_array(spec, data)
    arr.erase_nodes({0, 1, 2, 3})
    cols = decode_multi_class_a(arr, spec, {0, 1, 2, 3})
    for j in range(4):
        assert cols[j] == [data.rows[i][j] for i in range(5)]


def test_decode_exhaustive_up_to_f():
    spec = ClassASpec.build(8, 5, 1)
    f = fault_tolerance(8, 5, 1).f
    data = DataArray.random(spec.field, 5, random.Random(4))
    reference = encode_array(spec, data)
    for t in range(1, f + 1):
        for pattern in itertools.combinations(range(8), t):
            arr = reference.copy()
            arr.erase_nodes(pattern)
            cols = decode_multi_class_a(arr, spec, set(pattern))
            for j in pattern:
                assert cols[j] == [reference.rows[i][j] for i in range(5)]


def test_decode_undecodable_raises():
    spec = ClassASpec.build(7, 5, 1)
    data = DataArray.random(spec.field, 5, random.Random(5))
    arr = encode_array(spec, data)
    arr.erase_nodes({0, 1, 2})  # three failures exceed f = 2
    with pytest.raises(UnrecoverableErasureError) as exc:
        decode_multi_class_a(arr, spec, {0, 1, 2})
    assert exc.value.rank is not None and exc.value.rank < 25


def test_json_roundtrip(gf8):
    spec = ClassASpec.build(7, 5, 1, gf8)
    d = spec.to_json_dict()
    back = ClassASpec.from_json_dict(d, gf8, 5)
    assert back == spec


def test_plain_mds_degenerate_tau_zero(gf8):
    spec = ClassASpec.build(7, 5, 0, gf8)
    assert list(spec.piggybacked_columns) == []
    assert fault_tolerance(7, 5, 0).f == 2
    data = DataArray.random(gf8, 5, random.Random(6))
    arr = encode_array(spec, data)
    arr.erase_nodes({1, 6})
    cols = decode_multi_class_a(arr, spec, {1, 6})
    assert cols[1] == [data.rows[i][1] for i in range(5)]
