import random
import re
from pathlib import Path

import numpy as np
import pytest

from pbdss.gf import (
    RANK_BATCH_ENTRIES,
    FieldMismatchError,
    FieldSpec,
    Symbol,
    batch_rank,
    default_reduction,
    field_arith,
    gaussian_solve,
    is_irreducible,
    matrix_rank,
    smallest_field_of_order_at_least,
    solve_values,
    symbol_bits,
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


def test_symbol_arithmetic_and_mismatch():
    f8 = FieldSpec(2, 3)
    f11 = FieldSpec(11)
    a, b = f8.element(5), f8.element(3)
    assert (a + b).value == f8.add(5, 3)
    assert (a * b).value == f8.mul(5, 3)
    assert (a - b + b).value == a.value
    with pytest.raises(FieldMismatchError):
        _ = a + f11.element(1)
    with pytest.raises(ZeroDivisionError):
        _ = a / f8.zero()
    assert field_arith(a, b, "mul").value == f8.mul(5, 3)
    with pytest.raises(ValueError):
        field_arith(a, b, "xor")


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
    f = FieldSpec(p, m)
    gen, exp, log = _reference_tables(p, m, f.reduction)
    assert f.generator == gen
    assert list(f._exp) == exp
    assert list(f._log) == log


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
    assert f._exp is g._exp and f._log is g._log
    for a, b in zip(f.dense_tables(), g.dense_tables()):
        assert a is b
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[1] = 0
    other = FieldSpec(2, 8, (1, 0, 1, 1, 1, 0, 0, 0, 1))  # x^8 + x^4 + x^3 + x^2 + 1
    assert other != f and other._exp != f._exp
    assert FieldSpec(2, 8).dense_tables() is f.dense_tables()


def test_dense_tables_cap():
    with pytest.raises(ValueError, match="capped"):
        FieldSpec(2, 11).dense_tables()


def test_largest_binary_field():
    f = FieldSpec(2, 16)
    rng = random.Random(16)
    for a in [1, 2, f.q - 1] + [rng.randrange(1, f.q) for _ in range(500)]:
        assert f.mul(a, f.inv(a)) == 1
        assert f._exp[f._log[a]] == a
    assert sorted(f._exp[: f.q - 1]) == list(range(1, f.q))


def test_default_reductions():
    assert default_reduction(2, 3) == (1, 1, 0, 1)  # x^3 + x + 1
    assert default_reduction(3, 2) == (1, 0, 1)  # x^2 + 1
    assert is_irreducible(list(default_reduction(2, 8)), 2)


def test_symbol_bits():
    assert symbol_bits(FieldSpec(11)) == 4
    assert symbol_bits(FieldSpec(2)) == 1
    assert symbol_bits(FieldSpec(3, 2)) == 4


def test_symbol_bits_monotone_prime_fields():
    primes = [2, 3, 5, 7, 11, 13, 17, 31, 61, 127, 251, 509, 1021]
    bits = [symbol_bits(FieldSpec(p)) for p in primes]
    assert bits == sorted(bits)


def test_smallest_field():
    assert repr(smallest_field_of_order_at_least(8)) == "GF(2^3)"
    assert repr(smallest_field_of_order_at_least(9)) == "GF(3^2)"
    assert repr(smallest_field_of_order_at_least(10)) == "GF(11)"
    assert repr(smallest_field_of_order_at_least(14)) == "GF(2^4)"


def test_gaussian_solve_identity():
    f = FieldSpec(11)
    eye = [[f.one() if i == j else f.zero() for j in range(4)] for i in range(4)]
    b = [f.element(v) for v in (3, 1, 4, 1)]
    res = gaussian_solve(eye, b)
    assert [s.value for s in res.solution] == [3, 1, 4, 1]


def test_gaussian_solve_vandermonde_interpolation():
    # Fit y = a + b x through (2, 5) and (3, 9) over GF(11); by hand b = 4, a = 8.
    f = FieldSpec(11)
    a_mat = [[f.one(), f.element(2)], [f.one(), f.element(3)]]
    res = gaussian_solve(a_mat, [f.element(5), f.element(9)])
    assert [s.value for s in res.solution] == [8, 4]


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
        assert [s.value for s in res.solution] == x


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
    [(2, 1), (3, 1), (2, 3), (3, 2), (5, 2), (7, 3), (11, 1), (13, 1), (2, 8), (2, 11), (2, 16)],
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


def test_symbol_value_range():
    f = FieldSpec(11)
    with pytest.raises(ValueError):
        Symbol(11, f)


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
