import functools
import pickle
import random
import re
from pathlib import Path

import numpy as np
import pytest

from pbdss.gf import (
    RANK_BATCH_ENTRIES,
    FieldSpec,
    _add_reduce,
    array_sub,
    batch_rank,
    cached_field,
    default_reduction,
    is_irreducible,
    matrix_rank,
    smallest_field_of_order_at_least,
    solve_values,
)


def test_gf11_mul():
    f = FieldSpec(11)
    assert f.mul(7, 8) == 1  # 56 mod 11


def test_add_identity():
    for f in (FieldSpec(11), FieldSpec(2, 3)):
        for x in range(f.q):
            assert f.add(x, 0) == x


def test_gf8_poly_mul():
    f = FieldSpec(2, 3, (1, 1, 0, 1))  # x^3 + x + 1
    assert f.mul(0b010, 0b100) == 0b011


@pytest.mark.parametrize("p,m", [(2, 3), (3, 2), (11, 1), (2, 4), (5, 2), (2, 6)])
def test_field_axioms_exhaustive(p, m):
    f = FieldSpec(p, m)
    q = f.q
    assert q <= 64
    for a in range(q):
        assert f.add(a, 0) == a
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
        for b in range(q):
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in range(q):
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))


def test_pow_of_zero_and_negative_powers():
    """0**0 = 1 and 0**e = 0 for e > 0; a negative power of 0 raises, as
    inv(0) and div(a, 0) do, and a**-e is inv(a)**e."""
    for f in (FieldSpec(11), FieldSpec(2, 3), FieldSpec(3, 2)):
        assert (f.pow(0, 0), f.pow(0, 3)) == (1, 0)
        for zero_inverse in (lambda: f.pow(0, -1), lambda: f.pow(0, -4), lambda: f.inv(0), lambda: f.div(1, 0)):
            with pytest.raises(ZeroDivisionError):
                zero_inverse()
        for a in range(1, f.q):
            assert f.pow(a, -1) == f.inv(a)
            assert f.pow(a, -3) == f.mul(f.inv(a), f.mul(f.inv(a), f.inv(a)))


def test_field_validation():
    with pytest.raises(ValueError):
        FieldSpec(4)  # not prime
    with pytest.raises(ValueError):
        FieldSpec(2, 17)  # q > 2^16
    with pytest.raises(ValueError, match="exceeds"):
        FieldSpec(10**30 + 57, 1)  # rejected before any primality test
    with pytest.raises(ValueError, match="exceeds"):
        FieldSpec(3, 10**12)  # rejected before p**m
    with pytest.raises(ValueError):
        FieldSpec(2, 2, (1, 1))  # not of degree m
    for _ in range(2):  # field tables are cached, a failed build is not
        with pytest.raises(ValueError, match="reducible"):
            FieldSpec(2, 2, (1, 0, 1))  # x^2 + 1 reducible over GF(2)
    # a prime field takes no reduction or any monic x + c, and stores x
    assert FieldSpec(11, 1, (3, 1)) == FieldSpec(11) == FieldSpec(11, 1, (0, 12))
    assert FieldSpec(11, 1, (3, 1)).reduction == (0, 1)
    for bad in ((), (1,), (1, 2), (1, 0, 1)):
        with pytest.raises(ValueError, match="monic of degree m"):
            FieldSpec(11, 1, bad)


def _reference_tables(p, m, reduction):
    """Generator, exp and log by schoolbook polynomial multiplication: the
    generator is the smallest element of order q - 1, found by powering."""
    q = p**m

    def mul(a, b):
        da = [(a // p**i) % p for i in range(m)]
        db = [(b // p**i) % p for i in range(m)]
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(da):
            for j, y in enumerate(db):
                prod[i + j] = (prod[i + j] + x * y) % p
        for d in range(2 * m - 2, m - 1, -1):  # x^d = x^(d-m) * (x^m - reduction)
            c = prod[d]
            for i in range(m + 1):
                prod[d - m + i] = (prod[d - m + i] - c * reduction[i]) % p
        return sum(c * p**i for i, c in enumerate(prod[:m]))

    def power(a, e):
        r = 1
        for _ in range(e):
            r = mul(r, a)
        return r

    factors = [r for r in range(2, q) if (q - 1) % r == 0 and all(r % d for d in range(2, r))]
    gen = next((c for c in range(2, q) if all(power(c, (q - 1) // r) != 1 for r in factors)), 1)
    exp, log, x = [], [0] * q, 1
    for i in range(q - 1):
        exp.append(x)
        log[x] = i
        x = mul(x, gen)
    return gen, exp + exp, log


@pytest.mark.parametrize("p,m", [(2, 1), (2, 3), (3, 2), (5, 2), (2, 8), (3, 4), (7, 3),
                                 (2, 10), (251, 1)])
def test_tables_match_polynomial_reference(p, m):
    """The one build against schoolbook multiplication: the generator, the
    scalar sequences, the kernel exp (periodic over 3n, then zero-padded)
    and log (log 0 = 3n), and the pivot logs of 1 / x and x - 1."""
    f = FieldSpec(p, m)
    t, n = f.tables, f.q - 1
    gen, exp, log = _reference_tables(p, m, f.reduction)
    assert t.generator == gen
    assert list(t.exp_seq) == exp
    assert t.exp[: 3 * n].tolist() == exp[:n] * 3 and not t.exp[3 * n :].any()
    assert t.log.tolist() == list(t.log_seq) == [3 * n] + log[1:]
    assert t.inv.tolist() == [0] + [log[f.inv(x)] for x in range(1, f.q)]
    assert t.own.tolist() == t.log[[f.sub(x, 1) for x in range(f.q)]].tolist()


def _check_dense(f, pairs):
    add_t, sub_t, mul_t, inv_t = f.dense_tables()
    for t in (add_t, sub_t, mul_t, inv_t):
        assert t.dtype == np.int32
    for a, b in pairs:
        assert add_t[a, b] == f.add(a, b)
        assert sub_t[a, b] == f.sub(a, b)
        assert mul_t[a, b] == f.mul(a, b)
    for a in range(1, f.q):
        assert inv_t[a] == f.inv(a)


@pytest.mark.parametrize("p,m", [(2, 1), (2, 3), (3, 2), (5, 2), (11, 1), (2, 6), (3, 3), (7, 2)])
def test_dense_tables_exhaustive(p, m):
    f = FieldSpec(p, m)
    _check_dense(f, [(a, b) for a in range(f.q) for b in range(f.q)])


@pytest.mark.parametrize("p,m", [(2, 10), (3, 6), (1021, 1)])
def test_dense_tables_sampled_large(p, m):
    f = FieldSpec(p, m)
    rng = random.Random(p * 100 + m)
    pairs = [(rng.randrange(f.q), rng.randrange(f.q)) for _ in range(3000)]
    _check_dense(f, pairs + [(0, b) for b in range(f.q)] + [(a, 0) for a in range(f.q)])


def test_fields_share_read_only_tables():
    f, g = FieldSpec(2, 8), FieldSpec(2, 8, default_reduction(2, 8))
    assert f.tables is g.tables
    for a, b in zip(f.dense_tables(), g.dense_tables()):
        assert a is b
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[1] = 0
    other = FieldSpec(2, 8, (1, 0, 1, 1, 1, 0, 0, 0, 1))  # x^8 + x^4 + x^3 + x^2 + 1
    assert other != f and other.tables.exp_seq != f.tables.exp_seq
    assert FieldSpec(2, 8).dense_tables() is f.dense_tables()


def test_dense_tables_cap():
    with pytest.raises(ValueError, match="capped"):
        FieldSpec(2, 11).dense_tables()


def test_largest_binary_field():
    f = FieldSpec(2, 16)
    rng = random.Random(16)
    for a in [1, 2, f.q - 1] + [rng.randrange(1, f.q) for _ in range(500)]:
        assert f.mul(a, f.inv(a)) == 1
        assert f.tables.exp_seq[f.tables.log_seq[a]] == a
    assert sorted(f.tables.exp_seq[: f.q - 1]) == list(range(1, f.q))


def test_default_reductions():
    assert default_reduction(2, 3) == (1, 1, 0, 1)  # x^3 + x + 1
    assert default_reduction(3, 2) == (1, 0, 1)  # x^2 + 1
    assert is_irreducible(list(default_reduction(2, 8)), 2)


def test_symbol_bits():
    assert FieldSpec(11).bits == 4
    assert FieldSpec(2).bits == 1
    assert FieldSpec(3, 2).bits == 4


def test_symbol_bits_monotone_prime_fields():
    primes = [2, 3, 5, 7, 11, 13, 17, 31, 61, 127, 251, 509, 1021]
    bits = [FieldSpec(p).bits for p in primes]
    assert bits == sorted(bits)


def test_smallest_field():
    assert repr(smallest_field_of_order_at_least(8)) == "GF(2^3)"
    assert repr(smallest_field_of_order_at_least(9)) == "GF(3^2)"
    assert repr(smallest_field_of_order_at_least(10)) == "GF(11)"
    assert repr(smallest_field_of_order_at_least(14)) == "GF(2^4)"


def test_gaussian_solve_identity():
    f = FieldSpec(11)
    eye = [[int(i == j) for j in range(4)] for i in range(4)]
    res = solve_values(f, eye, [3, 1, 4, 1])
    assert res.solution == [3, 1, 4, 1]


def test_gaussian_solve_vandermonde_interpolation():
    # Fit y = a + b x through (2, 5) and (3, 9) over GF(11); by hand b = 4, a = 8.
    f = FieldSpec(11)
    res = solve_values(f, [[1, 2], [1, 3]], [5, 9])
    assert res.solution == [8, 4]


def test_gaussian_solve_rank_deficient():
    f = FieldSpec(11)
    rows = [[1, 2, 3, 4], [2, 4, 6, 8], [0, 0, 1, 1]]
    res = solve_values(f, rows, [1, 2, 0])
    assert res.solution is None
    assert res.consistent
    assert res.rank == 2
    assert len(res.undetermined) == 2


def test_gaussian_solve_inconsistent():
    f = FieldSpec(11)
    res = solve_values(f, [[1, 1], [2, 2]], [1, 3])
    assert not res.consistent
    assert res.solution is None


@pytest.mark.parametrize("p,m", [(2, 3), (11, 1)])
def test_solve_roundtrip_random_invertible(p, m):
    f = FieldSpec(p, m)
    rng = random.Random(42)
    for _ in range(100):
        n = rng.randrange(1, 6)
        while True:
            a = [[rng.randrange(f.q) for _ in range(n)] for _ in range(n)]
            if matrix_rank(f, [row[:] for row in a]) == n:
                break
        x = [rng.randrange(f.q) for _ in range(n)]
        b = [0] * n
        for i in range(n):
            for j in range(n):
                b[i] = f.add(b[i], f.mul(a[i][j], x[j]))
        res = solve_values(f, a, b)
        assert res.solution == x


def _random_matrix(f, rng, rows, cols):
    """Random entries, then zero, repeated and scaled rows, or a low-rank product."""
    kind = rng.randrange(4)
    if kind == 3:  # rank at most r: (rows x r) @ (r x cols)
        r = rng.randrange(min(rows, cols) + 1)
        left = [[rng.randrange(f.q) for _ in range(r)] for _ in range(rows)]
        right = [[rng.randrange(f.q) for _ in range(cols)] for _ in range(r)]
        out = []
        for row in left:
            acc = [0] * cols
            for a, rr in zip(row, right):
                acc = [f.add(x, f.mul(a, y)) for x, y in zip(acc, rr)]
            out.append(acc)
        return out
    m = [[rng.randrange(f.q) for _ in range(cols)] for _ in range(rows)]
    if rows > 1:
        i, j = rng.sample(range(rows), 2)
        if kind == 0:
            m[i] = [0] * cols
        elif kind == 1:
            m[i] = list(m[j])
        else:
            c = rng.randrange(1, f.q)
            m[i] = [f.mul(c, x) for x in m[j]]
    return m


@pytest.mark.parametrize(
    "p,m",
    [(2, 1), (3, 1), (2, 3), (3, 2), (5, 2), (7, 3), (11, 1), (13, 1), (2, 8), (2, 11), (2, 16),
     (3, 4), (5, 3), (3, 10)],
)
def test_batch_rank_matches_reference(p, m):
    f = FieldSpec(p, m)
    rng = random.Random(p * 100 + m)
    for b, rows, cols in ((1, 4, 4), (1, 1, 1), (12, 3, 6), (12, 6, 3), (12, 5, 5), (6, 8, 2), (6, 2, 8)):
        mats = [_random_matrix(f, rng, rows, cols) for _ in range(b)]
        want = [matrix_rank(f, [list(r) for r in mat]) for mat in mats]
        assert batch_rank(f, mats).tolist() == want, (f, rows, cols)


def test_batch_rank_every_2x2():
    for f in (FieldSpec(2, 2), FieldSpec(5)):
        mats = [[[a, b], [c, d]] for a in range(f.q) for b in range(f.q)
                for c in range(f.q) for d in range(f.q)]
        want = [matrix_rank(f, [list(r) for r in mat]) for mat in mats]
        assert batch_rank(f, mats).tolist() == want
        assert want.count(2) == (f.q**2 - 1) * (f.q**2 - f.q)  # |GL(2, q)|


def test_batch_rank_streams_large_stacks():
    f = FieldSpec(3, 2)
    rng = random.Random(5)
    mats = [_random_matrix(f, rng, 6, 5) for _ in range(RANK_BATCH_ENTRIES // 30 * 2 + 7)]
    want = [matrix_rank(f, [list(r) for r in mat]) for mat in mats]
    assert batch_rank(f, mats).tolist() == want


def test_batch_rank_empty_and_bad_shapes():
    f = FieldSpec(11)
    assert batch_rank(f, np.zeros((0, 3, 3), dtype=int)).shape == (0,)
    assert batch_rank(f, np.zeros((2, 0, 3), dtype=int)).tolist() == [0, 0]
    assert batch_rank(f, np.zeros((2, 3, 0), dtype=int)).tolist() == [0, 0]
    with pytest.raises(ValueError, match="stack"):
        batch_rank(f, [[1, 2], [3, 4]])


@pytest.mark.parametrize("p,m", [(3, 1), (11, 1), (13, 1), (3, 2), (3, 3), (3, 4), (5, 2), (5, 3),
                                 (7, 2), (7, 3)])
def test_array_sub_every_pair(p, m):
    """The array kernel equals the scalar digit-wise FieldSpec.sub on every
    (a, b), zero operands and a = b included."""
    f = FieldSpec(p, m)
    a, b = np.divmod(np.arange(f.q * f.q), f.q)
    assert array_sub(f, a, b).tolist() == [f.sub(x, y) for x, y in zip(a.tolist(), b.tolist())]


@pytest.mark.parametrize("p,m", [(3, 10), (251, 2), (65521, 1)])
def test_array_sub_large_fields(p, m):
    """Sampled pairs against FieldSpec.sub, plus every (0, b), (a, 0) and (a, a)."""
    f = FieldSpec(p, m)
    rng = np.random.default_rng(p * 100 + m)
    a, b = rng.integers(0, f.q, (2, 3000))
    assert array_sub(f, a, b).tolist() == [f.sub(x, y) for x, y in zip(a.tolist(), b.tolist())]
    every = np.arange(f.q)
    assert array_sub(f, 0, every).tolist() == [f.neg(x) for x in every.tolist()]
    assert array_sub(f, every, 0).tolist() == every.tolist()
    assert not array_sub(f, every, every).any()


@pytest.mark.parametrize("p,m", [(2, 3), (3, 2), (11, 1), (7, 3)])
def test_array_sub_broadcasts_scalars(p, m):
    f = FieldSpec(p, m)
    x = np.arange(f.q).reshape(1, -1)
    neg = [[f.neg(v) for v in range(f.q)]]
    assert array_sub(f, 0, x).tolist() == neg
    assert array_sub(f, x, 0).tolist() == x.tolist()
    assert array_sub(f, np.zeros((3, 1), dtype=np.int64), x).tolist() == neg * 3
    assert int(array_sub(f, 0, np.int64(1))) == f.neg(1)


def test_zech_tables_are_shared_and_read_only():
    f = FieldSpec(3, 2)
    table = f.tables.zech
    assert FieldSpec(3, 2, default_reduction(3, 2)).tables.zech is table
    assert len(table) == 6 * (f.q - 1) + 1  # O(q), not q**2
    with pytest.raises(ValueError):
        table[0] = 0


@pytest.mark.parametrize("p,m", [(3, 1), (11, 1), (2, 8), (3, 2), (3, 3), (5, 2), (7, 2), (3, 10), (251, 2),
                                 (65521, 1)])
def test_add_reduce_matches_scalar_fold(p, m):
    """The field sum, along an axis and over segments, equals a fold of the
    scalar FieldSpec.add.  Segments of 300 and 1,000 copies of q - 1, whose
    digits are all p - 1, would overflow a uint8 digit accumulator."""
    f = FieldSpec(p, m)
    rng = np.random.default_rng(p * 100 + m)
    lengths = [1, 2, 7, 300, 1000, 40]
    a = rng.integers(0, f.q, (sum(lengths), 3))
    a[10:1310:2] = f.q - 1
    starts = np.cumsum([0, *lengths[:-1]])
    fold = functools.partial(functools.reduce, f.add)
    want = [[fold(a[lo : lo + n, lane].tolist(), 0) for lane in range(3)] for lo, n in zip(starts, lengths)]
    got = _add_reduce(f, a, 0, starts)
    assert got.dtype == np.int64 and got.tolist() == want
    assert _add_reduce(f, a[10:310:2].T, 1).tolist() == [fold(a[10:310:2, lane].tolist(), 0) for lane in range(3)]
    full = np.full((1, 300), f.q - 1)
    assert _add_reduce(f, full, 1).tolist() == [fold([f.q - 1] * 300, 0)]


def test_digit_tables_are_shared_and_read_only():
    digits, powers = FieldSpec(3, 2).tables.digits, FieldSpec(3, 2).tables.powers
    assert cached_field(3, 2).tables.digits is digits
    assert digits.shape == (9, 2) and (digits @ powers).tolist() == list(range(9))
    with pytest.raises(ValueError):
        digits[0, 0] = 1


@pytest.mark.parametrize("p,m", [(2, 1), (2, 8), (13, 1), (3, 2), (2, 16)])
def test_one_table_build_per_field(p, m):
    """Every spec of a field holds the one record of _field_tables, whose
    arrays are read-only; the Zech and digit tables exist exactly for odd-p
    extension fields; a spec pickles as its triple, back onto the same
    record; and the dense tables are shared between specs of the field."""
    f = FieldSpec(p, m)
    t = f.tables
    for g in (FieldSpec(p, m), cached_field(p, m), FieldSpec(p, m, default_reduction(p, m))):
        assert g.tables is t
    odd_extension = p > 2 and m > 1
    assert [x is not None for x in (t.zech, t.digits, t.powers)] == [odd_extension] * 3
    arrays = [x for x in t if isinstance(x, np.ndarray)]
    assert len(arrays) == (7 if odd_extension else 4)
    assert not any(x.flags.writeable for x in arrays)
    blob = pickle.dumps(f)
    copy = pickle.loads(blob)
    assert len(blob) < 200 and copy == f and copy.tables is t
    if f.q <= 1024:
        assert copy.dense_tables() is f.dense_tables()


def test_only_gf_eliminates():
    """Every module but gf eliminates with gf's array kernels: the scalar
    solvers and the q**2 dense tables are gf's alone, kept as the tests'
    reference and for the benchmark harness."""
    names = re.compile(r"\b(row_reduce|solve_values|gaussian_solve|matrix_rank|dense_tables|_SpanBasis)\b")
    src = Path(__file__).resolve().parent.parent / "src" / "pbdss"
    found = {
        path.name: sorted(set(names.findall(path.read_text())))
        for path in sorted(src.glob("*.py"))
        if path.name not in ("gf.py", "__init__.py")
    }
    assert len(found) >= 8
    assert {name: hits for name, hits in found.items() if hits} == {}
