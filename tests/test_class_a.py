import ast
import hashlib
import itertools
import json
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
from pbdss.repair import CodeSpec


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
    cols = [solve_values(field, lead, [row[j] for row in vand]).solution for j in range(k, n_a)]
    return [[cols[j][i] for j in range(n_a - k)] for i in range(k)]


def test_mds_generator_matches_scalar_solves(monkeypatch):
    """The closed form gives the alpha of a solve per column, for every k
    from 3 to 11, every n_a from k + 2 to 2k - 1, on every field given
    that is large enough: binary, prime and odd-p extension fields, whose
    differences take array_sub's Zech path, with no elimination.  The
    MDS check, which has tests of its own and takes seconds at k = 11, is
    skipped here."""
    monkeypatch.setattr(class_a, "verify_mds", lambda *args, **kwargs: None)
    monkeypatch.setattr(class_a, "eliminate", None)
    fields = [FieldSpec(7), FieldSpec(2, 3), FieldSpec(3, 2), FieldSpec(13), FieldSpec(23), FieldSpec(2, 5),
              FieldSpec(2, 8), FieldSpec(5, 2), FieldSpec(3, 3)]
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


def _first_singular_minor(alpha, n_a, k, field):
    """The columns of the first singular minor of alpha, by scalar ranks in
    size, then row combination, then column combination order; or None."""
    for s in range(1, min(k, n_a - k) + 1):
        for rows in itertools.combinations(range(k), s):
            for cols in itertools.combinations(range(n_a - k), s):
                if matrix_rank(field, [[alpha[r][c] for c in cols] for r in rows]) < s:
                    return tuple([i for i in range(k) if i not in rows] + [c + k for c in cols])
    return None


def _plant_singular_minor(alpha, field, rng):
    """Make one random 2 x 2 or 3 x 3 minor singular: its last row becomes a
    combination of its other rows, on its columns only."""
    k, parity = len(alpha), len(alpha[0])
    s = rng.randrange(2, min(3, k, parity) + 1)
    rows, cols = sorted(rng.sample(range(k), s)), sorted(rng.sample(range(parity), s))
    mix = [rng.randrange(1, field.q) for _ in rows[:-1]]
    for c in cols:
        value = 0
        for w, r in zip(mix, rows):
            value = field.add(value, field.mul(w, alpha[r][c]))
        alpha[rows[-1]][c] = value


@pytest.mark.parametrize("field", [FieldSpec(11), FieldSpec(2, 3), FieldSpec(3, 2)], ids=repr)
def test_verify_mds_names_the_first_singular_minor(field):
    """verify_mds raises exactly when a scalar brute force finds a singular
    minor, and names the first one of that walk, on seeded alphas: MDS
    ones, MDS ones with a singular minor put in, and random nonzero ones,
    which often hold several."""
    rng = random.Random(field.q)
    raised = passed = 0
    for trial in range(45):
        k = rng.randrange(3, 6)
        n_a = rng.randrange(k + 2, min(2 * k, field.q))
        if trial % 3 == 2:
            alpha = [[rng.randrange(1, field.q) for _ in range(n_a - k)] for _ in range(k)]
        else:
            alpha = [list(r) for r in mds_generator(n_a, k, field)]
            if trial % 3 == 1:
                _plant_singular_minor(alpha, field, rng)
        want = _first_singular_minor(alpha, n_a, k, field)
        if want is None:
            verify_mds(alpha, n_a, k, field)
            passed += 1
        else:
            with pytest.raises(ValueError, match=re.escape(f"columns {want} are singular")):
                verify_mds(alpha, n_a, k, field)
            raised += 1
    assert raised >= 15 and passed >= 15


# SHA-256 of CodeSpec.to_json() for the benchmark's stripe shapes, keyed by
# (k, n_a, n_b, tau, construction, (p, m)), and of the sorted-key JSON of
# ClassASpec.build(n_a, k, tau).to_json_dict() on the default field for the
# fault-tolerance sweep (4 <= k <= 7): pins the built alpha and specs.
SPEC_DIGESTS = {
    (5, 7, 8, 1, 1, (2, 3)): "8cb3a2d3aa282337a7bda032c1f53e984f4a510228fedf2a0dcbb0aa29a7a411",
    (5, 8, 6, 1, 1, (3, 2)): "b89e6d480b43f17067301c713d79383f4b357bf37c77cba17228f3f24a1e5939",
    (7, 10, 8, 2, 1, (11, 1)): "07f9b0001c7f4525022620122a24d86932d81712b5029f1bcd6672f395aefb12",
    (9, 12, 11, 2, 1, (13, 1)): "702f6baf0a42f0a0938795df91f6c73333c31a0d3557e73da01ac07451650f89",
    (9, 12, 11, 2, 1, (2, 8)): "0179c6e43a6211e93f95449fdfd5289bed1c64a325f8f6116c379f291ce3053d",
    (10, 15, 11, 4, 2, (2, 8)): "a328b60c44b325d70d25ce85ba284191c8ef3032282798d01109ee4c6c0d829b",
}
CLASS_A_DIGESTS = {
    (4, 6, 1): "cdfc7837fc4a0c8ed0a2e21410173a2766407e8a939ec2e0611ef6f448e491e9",
    (4, 7, 1): "244a7931c27d8d080a17d0af06274e10e0dd7ec06e0a60674fe9b50ba5beeefb",
    (4, 7, 2): "d11e8fe99e76ec2096cc662468893011ae03954372d8bbfaf679f34a72a7edd4",
    (5, 7, 1): "1227ecf775493d7e966836695fa440ebef55b766710f9e11bc839850e0de453c",
    (5, 8, 1): "4aa176d225363886c09e28025d3405fe022214931e55a7a856462feed902b8b6",
    (5, 8, 2): "4fcc86484f410c88a005885d96742836f4e0e8f1bca49b7e3e5257f749fb70c7",
    (5, 9, 1): "f56583d29a454bee08226ee0b284a22fbbe48cb27bcb889da2ae496dacf87466",
    (5, 9, 2): "69401d103b53bdbf64941c416ae3ee1957ae9e73dab3b127fcdd24ebf7ccdf92",
    (5, 9, 3): "6b5c527bf371fa38a46a1b20f37364c5753ae65e90b016c89edef7bcbc22d107",
    (6, 8, 1): "11749eeeca5ec18603e00a1d9bfaa874d560f903b71483d89f390d3f479906b1",
    (6, 9, 1): "725077b3cbe99629e0e66a4ae1e90793ce44d88fcdb882bd738147d6b75af0b4",
    (6, 9, 2): "4cfebddd1077a3d3c316872c64a89bc4851a60822ea988cf31b8415895a28abf",
    (6, 10, 1): "a83d60578072b8a9d4d9fcf772cf60b27cae0492cb35226290e9dd3ae22a5012",
    (6, 10, 2): "75315b3da12a3588f981678f2b04904c81b4b30160fd381bc7866e522e1b7449",
    (6, 10, 3): "d014dbc7780d21fe9daf1eb1ccfb965f9a2ac93640ee19b505c68005e62a5286",
    (7, 9, 1): "e444246448e74558da29801f5507a61bca6aea1e7d79c00ac4eaf452f7ce2c49",
    (7, 10, 1): "f48e5417d95729be0fc946086fd4c9a87313c864001bf6256559ead89a1d5a1f",
    (7, 10, 2): "3012757890ba6b0c6ed9baa0ed0c8ecc3a3d4a1449ffc7786b103ecd72b412ae",
    (7, 11, 1): "726e07c7d6882614330292b361d63be6417e1ab39ea53e1a6e0e7ede6be172f3",
    (7, 11, 2): "67fc7d6349e64685fd5fe0f71b3abfbfc3fad6d07a0b7f9657e8afad8dbdd903",
    (7, 11, 3): "62c800d7bf90ef29d5f3ea51895df4f482abf11c420a65d60e8d3d0d696c70be",
}


def test_built_specs_are_pinned():
    for (k, n_a, n_b, tau, construction, field), want in SPEC_DIGESTS.items():
        spec = CodeSpec.build(k, n_a, n_b, tau, construction=construction, field=FieldSpec(*field))
        assert hashlib.sha256(spec.to_json().encode()).hexdigest() == want, (k, n_a, n_b, tau, field)
    for (k, n_a, tau), want in CLASS_A_DIGESTS.items():
        text = json.dumps(ClassASpec.build(n_a, k, tau).to_json_dict(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == want, (k, n_a, tau)


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
    # so the rotation schedule cannot order them; the elimination over every
    # surviving parity still decodes.
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


def test_one_elimination_per_decode_and_none_in_encode(monkeypatch):
    """decode_plan solves a pattern with failed data nodes in one
    gf.eliminate, whether the rotation schedule orders it or not, and
    encode_class_a replays a plan with neither a solve nor a product."""
    spec = ClassASpec.build(9, 5, 2)
    calls = []
    for name in ("eliminate", "matmul"):
        def counted(*args, _name=name, _real=getattr(class_a, name)):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(class_a, name, counted)
    class_a.decode_plan.cache_clear()
    # scheduled; not ordered by the schedule; scheduled with a parity re-encoded
    for pattern in ((0, 2), (0, 1, 2, 3), (1, 6)):
        calls.clear()
        class_a.decode_plan(spec, pattern)
        assert calls.count("eliminate") == 1, pattern
    calls.clear()
    encode_class_a(DataArray.zeros(spec.field, 5), spec)
    assert calls == []


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
