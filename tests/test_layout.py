import functools
import json
import random
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pbdss.class_a import PLAN_CACHE_SIZE, UnrecoverableErasureError
from pbdss.gf import FieldSpec
from pbdss.layout import (
    CodeArray,
    _unpacked_mask,
    DataArray,
    index_sets,
    q_set,
    r_set,
    read_code_array,
    write_code_array,
    x_set,
)
from pbdss.repair import CodeSpec, encode, puncture, repair_data_node, repair_multi, repair_parity_node


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


def test_code_array_refuses_indices_outside_the_array(spec_10_5):
    """A negative index would mask or read the last node or row, and one
    past the end would raise IndexError: both are ValueErrors instead."""
    arr = encode(spec_10_5, DataArray.zeros(spec_10_5.field, 5))
    for nodes in ([-1], [10], [13], [0, -1]):
        with pytest.raises(ValueError, match="outside"):
            arr.erase_nodes(nodes)
        assert arr.erased_nodes == ()
    for row, node in ((0, -1), (-1, 0), (5, 0), (0, 10)):
        with pytest.raises(ValueError, match="outside"):
            arr.get(row, node)
    arr.erase_nodes([0, 9])
    assert arr.erased_nodes == (0, 9)


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


# -- one symbol array under both array types --------------------------------------


@pytest.mark.parametrize("bad", [-1, 11, 2**16, 2**70, 6.5, "3"])
def test_symbols_are_checked_before_the_cast(bad):
    """Every value is an integer in [0, q) before it becomes uint16: a cast
    alone would wrap -1, truncate 6.5 and overflow at 2**16."""
    f = FieldSpec(11)
    with pytest.raises(ValueError, match=r"integers in \[0, 11\)"):
        DataArray(f, [[bad, 0], [1, 2]])
    with pytest.raises(ValueError, match=r"integers in \[0, 11\)"):
        CodeArray(f, 1, 2, [[5, bad]], [[False, False]])
    with pytest.raises(ValueError, match="must be k x n"):
        CodeArray(f, 1, 2, [[5, 6, 7]], [[False, False]])
    with pytest.raises(ValueError, match="erasure mask must be k x n"):
        CodeArray(f, 1, 2, [[5, 6]], [[False]])


def test_array_views_and_masks():
    f = FieldSpec(3, 2)
    rows = [[1, 2, 3, 4, 5, 6], [7, 8, 0, 1, 2, 3]]
    erased = [[False] * 6, [False, False, False, False, True, False]]
    arr = CodeArray(f, 2, 6, rows, erased)
    assert arr.symbols.dtype == np.uint16 and arr.symbols.shape == (2, 6) and arr.mask.shape == (2, 6)
    assert not arr.symbols.flags.writeable and not arr.mask.flags.writeable
    assert arr.erased_nodes == (4,)
    arr.rows[0][0] = 5  # a list copy: nothing changes
    arr.erased[0][0] = True
    assert arr.rows == rows and arr.erased == erased and arr.erased_nodes == (4,)
    mask = arr.mask
    arr.erase_nodes({1, 5})  # a new mask; the old one is untouched
    assert arr.erased_nodes == (1, 4, 5) and mask.tolist() == erased
    twin = arr.copy()
    twin.symbols[0, 0] = 8
    assert twin.rows[0][0] == 8 and arr.rows[0][0] == 1
    twin.erase_nodes([0])
    assert twin.erased_nodes == (0, 1, 4, 5) and arr.erased_nodes == (1, 4, 5)
    data = DataArray(f, [[1, 2], [3, 4]])
    assert data.k == 2 and data.rows == [[1, 2], [3, 4]] and not data.symbols.flags.writeable


def test_read_shares_one_field_per_triple():
    blob = write_code_array(CodeArray(FieldSpec(2, 8), 1, 2, [[5, 6]], [[False, True]]))
    first, again = read_code_array(blob), read_code_array(blob)
    assert first.field is again.field
    bad = blob[:16] + bytes([0, 0]) + blob[18:]  # no constant term: x divides it, refused every time
    for _ in range(2):
        with pytest.raises(ValueError, match="reducible"):
            read_code_array(bad)


def test_only_layout_reads_the_list_views():
    """`rows` and `erased` rebuild a k x n list on every access: every
    other module indexes `symbols` and `mask`."""
    views = re.compile(r"\.(rows|erased)\b")
    src = Path(__file__).resolve().parent.parent / "src" / "pbdss"
    found = {path.name: views.findall(path.read_text()) for path in sorted(src.glob("*.py"))
             if path.name != "layout.py"}
    assert len(found) >= 8
    assert {name: hits for name, hits in found.items() if hits} == {}


STRIPE_SHAPES = [  # (k, n_a, n_b, tau, construction, (p, m)): the six stripe shapes, and GF(2^11)
    (5, 7, 8, 1, 1, (2, 3)),
    (5, 8, 6, 1, 1, (3, 2)),
    (7, 10, 8, 2, 1, (11, 1)),
    (9, 12, 11, 2, 1, (13, 1)),
    (9, 12, 11, 2, 1, (2, 8)),
    (10, 15, 11, 4, 2, (2, 8)),
    (6, 9, 8, 2, 1, (2, 11)),
]


@functools.cache
def _stripe_code(shape):
    k, n_a, n_b, tau, construction, field = shape
    return CodeSpec.build(k, n_a, n_b, tau, construction=construction, field=FieldSpec(*field))


def _seed_layout(field, k, n, rows, erased) -> bytes:
    """PBDSS1 as struct and a bit loop write it, one symbol at a time."""
    red = field.reduction
    head = b"PBDSS1" + struct.pack("<5H", k, n, field.p, field.m, len(red)) + struct.pack(f"<{len(red)}H", *red)
    bits = bytearray((k * n + 7) // 8)
    for idx, bit in enumerate(b for row in erased for b in row):
        bits[idx // 8] |= bit << (idx % 8)
    return head + struct.pack(f"<{k * n}H", *(v for row in rows for v in row)) + bytes(bits)


def _outcome(fn, *args):
    try:
        out = fn(*args)
    except UnrecoverableErasureError as exc:
        return "unrecoverable", str(exc), exc.rank, exc.needed
    if isinstance(out, dict):
        return out
    column, trace = out
    return column, trace.to_json(), sorted(trace.cache)


@st.composite
def _stripes(draw):
    """A stripe of one shape, some nodes masked row by row (an irregular
    mask: at least one symbol each) and their masked symbols overwritten."""
    code = _stripe_code(draw(st.sampled_from(STRIPE_SHAPES)))
    k, n, q = code.k, code.n, code.field.q
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    stored = encode(code, DataArray.random(code.field, k, rng)).rows
    lost = draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True))
    erased = [[False] * n for _ in range(k)]
    for node in lost:
        for i in draw(st.lists(st.integers(0, k - 1), min_size=1, unique=True)):
            erased[i][node] = True
    rows = [[rng.randrange(q) if erased[i][c] else v for c, v in enumerate(row)] for i, row in enumerate(stored)]
    return code, stored, rows, erased, sorted(lost), draw(st.integers(0, n - 1))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_stripes())
def test_array_paths_equal_the_list_paths(case):
    """PBDSS1 writes the seed layout and reads back byte-identically; a
    read-back array repairs exactly as the list-built one, and every
    successful repair restores the stored column."""
    code, stored, rows, erased, lost, node = case
    k, n, f = code.k, code.n, code.field
    built = CodeArray(f, k, n, rows, erased)
    blob = write_code_array(built)
    assert blob == _seed_layout(f, k, n, rows, erased)
    back = read_code_array(blob)
    assert write_code_array(back) == blob
    assert (back.rows, back.erased, back.erased_nodes) == (rows, erased, tuple(lost)) == (
        built.rows, built.erased, built.erased_nodes)
    repair = repair_data_node if node < k else repair_parity_node
    for fn, args in ((repair, (node, code)), (repair_multi, (sorted({node, *lost}), code))):
        got = _outcome(fn, back, *args)
        assert got == _outcome(fn, built, *args)
        if isinstance(got, dict):
            assert got == {x: [row[x] for row in stored] for x in got}
        elif got[0] != "unrecoverable":
            assert got[0] == [row[node] for row in stored]
            assert not {pos[0] for pos in json.loads(got[1])["reads"]} & {node, *lost}


@st.composite
def _masks(draw):
    """A k x n mask, k, n <= 12: none masked, all masked or random bits
    (partial columns), and random values in the unused bits of its last
    byte."""
    k, n = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    kind = draw(st.sampled_from(["none", "all", "random"]))
    bits = [draw(st.booleans()) if kind == "random" else kind == "all" for _ in range(k * n)]
    return k, n, [bits[i * n : (i + 1) * n] for i in range(k)], draw(st.integers(0, 255))


@settings(max_examples=150, deadline=None)
@given(_masks())
def test_read_masks_are_cached_per_pattern(case):
    """Arrays read with one erasure pattern share one read-only mask, equal
    to a fresh unpack of the mask bytes, and no array's change reaches
    another array or the cache."""
    k, n, erased, pad = case
    f = FieldSpec(11)
    blob = bytearray(_seed_layout(f, k, n, [[c % 11 for c in range(n)]] * k, erased))
    if k * n % 8:  # set bits past the mask: the reader ignores them
        blob[-1] |= pad & (0xFF << k * n % 8) & 0xFF
    want = (erased, tuple(j for j in range(n) if any(row[j] for row in erased)))
    raw = bytes(blob)
    first = read_code_array(blob)
    blob[:] = bytes(len(blob))  # the cache key is the reader's own copy
    again = read_code_array(raw)
    for arr in (first, again):
        assert (arr.mask.tolist(), arr.erased_nodes) == want
        assert arr.mask.shape == (k, n) and not arr.mask.flags.writeable
    assert again.mask is first.mask
    if n:
        first.erase_nodes([n - 1])  # a new mask for `first` alone
        back = read_code_array(raw)
        assert (again.mask.tolist(), again.erased_nodes) == (back.mask.tolist(), back.erased_nodes) == want
    info = _unpacked_mask.cache_info()
    assert info.maxsize == PLAN_CACHE_SIZE and info.currsize <= info.maxsize
    _unpacked_mask.cache_clear()
    fresh = read_code_array(raw)
    assert (fresh.mask.tolist(), fresh.erased_nodes) == want and fresh.mask is not again.mask


def test_mask_cache_is_bounded():
    """More distinct patterns than the cache holds: the cache stays full
    at its bound, and every read is still right."""
    f = FieldSpec(11)
    for i in range(PLAN_CACHE_SIZE + 10):
        erased = [[bool(i >> (r * 12 + c) & 1) for c in range(12)] for r in range(2)]
        arr = read_code_array(_seed_layout(f, 2, 12, [[0] * 12] * 2, erased))
        assert arr.mask.tolist() == erased
    info = _unpacked_mask.cache_info()
    assert info.currsize == info.maxsize == PLAN_CACHE_SIZE


@pytest.mark.parametrize("shape", [s for s in STRIPE_SHAPES if s[2] > s[0]], ids=str)
def test_punctured_spec_repairs_from_the_full_width_array(shape):
    """A punctured spec's plans gather by (row, node) from the full-width
    array, whose last nodes it does not have; a mask there is ignored."""
    code = _stripe_code(shape)
    full = encode(code, DataArray.random(code.field, code.k, random.Random(len(shape))))
    short = puncture(code, code.n_b - code.k)
    narrow = CodeArray(code.field, code.k, short.n, [row[: short.n] for row in full.rows],
                       [[False] * short.n for _ in range(code.k)])
    wide = read_code_array(write_code_array(full))
    wide.erase_nodes(range(short.n, code.n))
    for node in range(short.n):
        repair = repair_data_node if node < code.k else repair_parity_node
        column, trace = repair(wide, node, short)
        assert column == full.symbols[:, node].tolist()
        assert _outcome(repair, narrow, node, short) == (column, trace.to_json(), sorted(trace.cache))
    assert repair_multi(wide, [0, 1], short) == {x: full.symbols[:, x].tolist() for x in (0, 1)}
    wide.erase_nodes([1])  # node 0's schedule reads node 1: it escalates to a decode
    assert repair_data_node(wide, 0, short)[0] == full.symbols[:, 0].tolist()
