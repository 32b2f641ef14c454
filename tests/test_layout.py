import pytest

from pbdss.gf import FieldSpec
from pbdss.layout import (
    CodeArray,
    DataArray,
    index_sets,
    mod_k,
    q_set,
    r_set,
    read_code_array,
    write_code_array,
    x_set,
)


def test_worked_example_sets():
    r, q, x = index_sets(0, 5, 1)
    assert q == [(2, 0), (3, 0), (4, 0)]
    assert x == [(0, 1), (0, 2), (0, 3)]
    assert r == [(0, 1), (0, 2), (0, 3), (0, 4)]


@pytest.mark.parametrize("k", [4, 5, 6, 8])
def test_set_sizes_and_structure(k):
    for tau in range(1, k - 1):
        union_q = set()
        for j in range(k):
            r, q, x = index_sets(j, k, tau)
            assert len(r) == k - 1
            assert len(q) == k - tau - 1
            assert len(x) == k - tau - 1
            assert set(x) <= set(r)
            assert all(col == j for _, col in q)
            assert all(row == j for row, _ in r)
            union_q.update(q)
        assert len(union_q) == k * (k - tau - 1)
        # X_j is exactly the part of R_j inside the union of all Q sets
        for j in range(k):
            r, _, x = index_sets(j, k, tau)
            assert [p for p in r if p in union_q] == x


def test_mod_k_negative():
    assert mod_k(-1, 5) == 4
    assert mod_k(-7, 5) == 3
    assert mod_k(12, 5) == 2


def test_index_sets_validation():
    with pytest.raises(ValueError):
        index_sets(5, 5, 1)
    with pytest.raises(ValueError):
        index_sets(0, 5, 4)


def test_data_array_validation():
    f = FieldSpec(11)
    with pytest.raises(ValueError):
        DataArray(f, [[0, 1], [2]])
    with pytest.raises(ValueError):
        DataArray(f, [[0, 11], [1, 2]])


def test_code_array_binary_roundtrip():
    f = FieldSpec(3, 2)
    rows = [[1, 2, 3, 4, 5, 6], [7, 8, 0, 1, 2, 3]]
    erased = [[False] * 6 for _ in range(2)]
    erased[1][4] = True
    arr = CodeArray(f, 2, 6, rows, erased)
    blob = write_code_array(arr)
    assert blob[:6] == b"PBDSS1"
    back = read_code_array(blob)
    assert back.rows == rows
    assert back.erased == erased
    assert back.field == f
    # byte-identical re-serialization
    assert write_code_array(back) == blob


def test_code_array_bad_magic():
    with pytest.raises(ValueError):
        read_code_array(b"NOTPBD" + b"\x00" * 32)


def test_code_array_truncation_and_range():
    f = FieldSpec(3, 2)
    blob = write_code_array(CodeArray(f, 2, 6, [[1] * 6, [8] * 6], [[False] * 6] * 2))
    # 16-byte header, 6-byte reduction, 24-byte body, 2-byte mask
    assert len(blob) == 48
    for cut, part in ((0, "bad magic"), (15, "header"), (21, "reduction"), (45, "symbols"),
                      (47, "erasure mask")):
        with pytest.raises(ValueError, match=part):
            read_code_array(blob[:cut])
    bad = bytearray(blob)
    bad[22:24] = (9).to_bytes(2, "little")  # first symbol 9 is outside GF(9)
    with pytest.raises(ValueError, match="out of range"):
        read_code_array(bytes(bad))


def test_code_array_trailing_bytes():
    blob = write_code_array(CodeArray(FieldSpec(11), 1, 2, [[5, 6]], [[False, True]]))
    with pytest.raises(ValueError, match="8 trailing bytes"):
        read_code_array(blob + b"garbage!")


def test_code_array_get_erased():
    f = FieldSpec(11)
    arr = CodeArray(f, 1, 2, [[5, 6]], [[False, True]])
    assert arr.get(0, 0) == 5
    with pytest.raises(ValueError):
        arr.get(0, 1)


def test_code_array_mask_bits_little_endian():
    # bit k*n-order index i lives in byte i // 8 at bit i % 8, as the
    # format has always written it
    f = FieldSpec(11)
    erased = [[(i * 7 + j) % 3 == 0 for j in range(5)] for i in range(4)]
    blob = write_code_array(CodeArray(f, 4, 5, [[0] * 5] * 4, erased))
    want = bytearray(3)
    for idx, bit in enumerate(b for row in erased for b in row):
        want[idx // 8] |= bit << (idx % 8)
    assert blob[-3:] == bytes(want)
    back = read_code_array(blob[:-1] + bytes([blob[-1] | 0xF0]))  # padding bits are ignored
    assert back.erased == erased


def test_prime_field_reduction_is_checked():
    blob = write_code_array(CodeArray(FieldSpec(11), 1, 2, [[5, 6]], [[False, True]]))
    # 16-byte header, then the reduction (0, 1) of GF(11) as two u16
    assert blob[16:20] == bytes([0, 0, 1, 0])
    assert read_code_array(blob).field == FieldSpec(11)
    bad = blob[:16] + bytes([5, 0, 7, 0]) + blob[20:]
    with pytest.raises(ValueError, match="monic"):
        read_code_array(bad)
