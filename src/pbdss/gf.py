"""Exact arithmetic over GF(p^m) and dense linear algebra on top of it.

Field elements are canonical unsigned integers in [0, q).  For extension
fields (m > 1) the integer encodes the coefficient vector of the polynomial
basis in little-endian base p: value = sum(c_i * p**i), so bit/digit i is
the coefficient of alpha**i.  Multiplication reduces modulo an irreducible
polynomial of degree m over GF(p); addition is digit-wise mod p.  The
scalar FieldSpec.add, sub and neg keep that digit loop: they are the
independent reference the array kernels are tested against.

Fields are capped at q <= 2**16 so elements fit in 16-bit storage and
exhaustive checks (irreducibility, field axioms in tests) stay cheap.

Every table of a field is a pure function of (p, m, reduction), so
_field_tables builds them all once per field into one read-only record
(_Tables), which every FieldSpec of the field holds as `tables`.  Every
kernel, scalar op and plan reads it; nothing else builds a field table.

Every elimination runs on one kernel, on every field up to q = 2**16:
_gauss_jordan, lockstep Gauss-Jordan on a (B, R, C) stack with an
optional right-hand side.  batch_rank is it with none (the MDS check, the
fault-tolerance search, the min-read search's gaps), eliminate it on one
matrix with one (the multi-node decoder, oracle.ml_decode); pivot_step, a
min-read search step, makes its row update.  The one subtraction of these
kernels and of matmul (with which class_a.decode_plan re-encodes erased
parities), array_sub, is XOR for p = 2, a compare-and-add for odd primes
and, for odd-p extension fields, one Zech lookup between the exp/log
lookups.  Their one field sum, _add_reduce, serves matmul and the segment
sums with which plan.replay streams a plan's nonzero terms: XOR for
p = 2, an integer sum and one % p for odd primes and, for odd-p extension
fields, a sum of every element's digit row, one % p and one dot with the
powers of p.  So no kernel loops over digits.  The scalar solvers
(row_reduce, solve_values, matrix_rank) stay public as the reference the
tests check the kernels against.  No module uses the q**2 dense tables;
they stay only for the benchmark, which still builds them, and come from
the same kernels.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

MAX_FIELD_ORDER = 1 << 16


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# -- polynomial helpers over GF(p), coefficients little-endian lists --------


def _poly_trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _poly_mulmod(f: list[int], g: list[int], mod: list[int], p: int) -> list[int]:
    res = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            res[i + j] = (res[i + j] + a * b) % p
    return _poly_modred(res, mod, p)


def _poly_modred(f: list[int], mod: list[int], p: int) -> list[int]:
    f = _poly_trim(list(f))
    dm = len(mod) - 1
    inv_lead = pow(mod[-1], -1, p)
    while len(f) - 1 >= dm:
        shift = len(f) - 1 - dm
        factor = (f[-1] * inv_lead) % p
        for i, c in enumerate(mod):
            f[shift + i] = (f[shift + i] - factor * c) % p
        _poly_trim(f)
    return f


def _poly_powmod(f: list[int], e: int, mod: list[int], p: int) -> list[int]:
    result = [1]
    base = _poly_modred(f, mod, p)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        e >>= 1
    return result


def _poly_gcd(f: list[int], g: list[int], p: int) -> list[int]:
    f, g = _poly_trim(list(f)), _poly_trim(list(g))
    while g:
        f = _poly_modred(f, g, p)
        f, g = g, f
    return f


def is_irreducible(coeffs: list[int], p: int) -> bool:
    """Rabin test: no root of x^(p^d) - x for proper divisors d of deg."""
    f = _poly_trim([c % p for c in coeffs])
    m = len(f) - 1
    if m < 1:
        return False
    x = [0, 1]
    xq = _poly_powmod(x, p**m, f, p)
    diff = _poly_trim([(a - b) % p for a, b in zip(xq + [0] * len(x), x + [0] * len(xq))])
    if diff:
        return False
    for r in _prime_factors(m):
        xd = _poly_powmod(x, p ** (m // r), f, p)
        diff = _poly_trim([(a - b) % p for a, b in zip(xd + [0] * len(x), x + [0] * len(xd))])
        if len(_poly_gcd(f, diff, p)) - 1 != 0:
            return False
    return True


@functools.lru_cache(maxsize=64)
def default_reduction(p: int, m: int) -> tuple[int, ...]:
    """Smallest irreducible monic polynomial of degree m over GF(p).

    "Smallest" orders candidates by the integer encoding of the low
    coefficients (sum c_i * p**i); the choice only fixes the element
    representation, nothing downstream depends on it.
    """
    if m == 1:
        return (0, 1)
    for v in range(p**m):
        coeffs = [(v // p**i) % p for i in range(m)] + [1]
        if is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise ValueError(f"no irreducible polynomial of degree {m} over GF({p})")


class _Tables(NamedTuple):
    """Every table of one field, as _field_tables builds it; the arrays are
    int64 and read-only.

    With n = q - 1, exp is periodic over 3n and then zero-padded, and
    log 0 = 3n points into the pad.  Elimination indexes exp with sums of
    two logs of entries (each at most n - 1 when nonzero) and one of a
    pivot's inverse: with every term nonzero the sum stays in the periodic
    part, with any log 0 in it in the pad, so exp[sum] is the product, zero
    or not, with no mask.
    """

    generator: int  # smallest element of order q - 1
    exp: np.ndarray  # g**(i mod n) for i < 3n, then 3n + q zeros
    log: np.ndarray  # inverse of exp on nonzero elements; log 0 = 3n
    inv: np.ndarray  # log(1 / x), 0 at x = 0: a pivot's inverse
    own: np.ndarray  # log(x - 1): clears a kept pivot row down to itself / x
    zech: np.ndarray | None  # odd-p extension fields only (_zech), else None
    digits: np.ndarray | None  # odd-p extension fields only: each element's (m,) base-p digits
    powers: np.ndarray | None  # odd-p extension fields only: the p**i that put digits together
    exp_seq: tuple[int, ...]  # exp[:2n] as ints: the scalar ops index it with log sums unreduced
    log_seq: tuple[int, ...]  # log as ints, for the scalar ops, which never read log 0


def _mul_matrix(c: int, p: int, m: int, x_mat: np.ndarray) -> np.ndarray:
    """Matrix of "multiply by c" on little-endian digit rows: digits(a) @ M = digits(a*c).

    Row i holds the digits of c * x**i; x_mat is the same matrix for c = x.
    """
    rows = [np.array([(c // p**i) % p for i in range(m)], dtype=np.int64)]
    for _ in range(1, m):
        rows.append(rows[-1] @ x_mat % p)
    return np.stack(rows)


def _mat_pow(a: np.ndarray, e: int, p: int) -> np.ndarray:
    result = np.eye(len(a), dtype=np.int64)
    while e:
        if e & 1:
            result = result @ a % p
        a = a @ a % p
        e >>= 1
    return result


def _zech(exp: np.ndarray, log: np.ndarray, p: int, n: int) -> np.ndarray:
    """Zech logarithms of an odd-characteristic field, padded for array_sub.

    With g the generator, n = q - 1 and h = n / 2 (so g**h = -1), the Zech
    logarithm Z(i) = log(1 + g**i) gives a - b = a * (1 + (-b) / a) as
    g**(log a + Z(log b - log a + h)).  array_sub reads it at
    j = log b - log a + 3n, with the field's logs (log 0 = 3n), and adds
    log a to the entry; exp of that sum is a - b.  The 6n + 1 entries fall
    into three disjoint regions, one per case, so no case needs a mask:

    - both nonzero, j in [2n + 1, 4n - 1]: Z(j - 3n + h mod n), except at
      j = 3n (a = b), where 1 + g**h = 0 and the entry is 3n, so that
      log a + 3n lands in the zero pad of exp (a = b = 0 also reads j = 3n);
    - a = 0, j = log b in [0, n - 1]: log b + h - 3n, so the sum is
      log(-b) = log b + h;
    - b = 0, j = 6n - log a in [5n + 1, 6n]: 0, so the sum is log a.

    Every sum stays below 3n, inside the periodic part of exp, or lands in
    its zero pad.
    """
    half, zero_log = n // 2, 3 * n
    powers = exp[:n]
    # 1 + g**i: adding 1 changes only digit 0, which wraps from p - 1 to 0;
    # where that is 0, log 0 = 3n
    zech = log[powers + 1 - p * (powers % p == p - 1)]
    table = np.zeros(2 * zero_log + 1, dtype=np.int64)
    table[:n] = np.arange(n) + half - zero_log
    d = np.arange(-(n - 1), n)
    table[zero_log + d] = zech[(d + half) % n]
    return table


@functools.lru_cache(maxsize=64)
def _field_tables(p: int, m: int, reduction: tuple[int, ...]) -> _Tables:
    """Every table of GF(p^m) (_Tables), built once per field in O(q * m)
    vectorised steps; the only builder of field tables.

    Multiplying by an element is GF(p)-linear on digit vectors, so the
    powers of the generator follow from about log2(q) doublings: append
    `rows @ M % p` to `rows`, then square M.  x - 1 and 1 + x change only
    digit 0, so the build calls no kernel.  A reducible polynomial raises
    here, and lru_cache never stores an exception.
    """
    if m > 1 and not is_irreducible(list(reduction), p):
        raise ValueError(f"reduction polynomial {reduction} is reducible over GF({p})")
    q, n = p**m, p**m - 1
    x_mat = np.zeros((m, m), dtype=np.int64)
    x_mat[:-1, 1:] = np.eye(m - 1, dtype=np.int64)
    if m > 1:
        x_mat[-1] = [(-c) % p for c in reduction[:m]]
    one = np.eye(m, dtype=np.int64)
    orders = [n // r for r in _prime_factors(n)]
    gen = 1  # GF(2) has no other candidate
    for c in range(2, q):
        mul_c = _mul_matrix(c, p, m, x_mat)
        if not any(np.array_equal(_mat_pow(mul_c, e, p), one) for e in orders):
            gen = c
            break
    rows = one[:1]
    step = _mul_matrix(gen, p, m, x_mat)
    while len(rows) < n:
        rows = np.concatenate([rows, rows @ step % p])
        step = step @ step % p
    zero_log = 3 * n
    exp = np.zeros(2 * zero_log + q, dtype=np.int64)
    exp[:zero_log] = np.tile(rows[:n] @ p ** np.arange(m, dtype=np.int64), 3)
    log = np.full(q, zero_log, dtype=np.int64)
    log[exp[:n]] = np.arange(n)
    elems = np.arange(q, dtype=np.int64)
    # x - 1: digit 0 wraps from 0 to p - 1
    minus_one = elems ^ 1 if p == 2 else elems - 1 + p * (elems % p == 0)
    zech = digits = powers = None
    if p > 2 and m > 1:
        zech = _zech(exp, log, p, n)
        powers = p ** np.arange(m, dtype=np.int64)
        digits = elems[:, None] // powers % p
    arrays = (exp, log, (n - log) % n, log[minus_one], zech, digits, powers)
    for t in arrays:
        if t is not None:
            t.flags.writeable = False
    return _Tables(gen, *arrays, tuple(exp[: 2 * n].tolist()), tuple(log.tolist()))


@functools.lru_cache(maxsize=16)
def _dense_tables(field: FieldSpec):
    """Read-only int32 (add, sub, mul, inv) tables from the kernels on
    field.tables: array_sub for sub and for add (a - (-b)), exp[log + log]
    for mul, exp[inv] for inv, with inv 0 = 0."""
    t = field.tables
    elems = np.arange(field.q, dtype=np.int64)
    add = array_sub(field, elems[:, None], array_sub(field, 0, elems))
    sub = array_sub(field, elems[:, None], elems)
    mul = t.exp[t.log[:, None] + t.log]
    inv = t.exp[t.inv] * (elems != 0)
    out = tuple(x.astype(np.int32) for x in (add, sub, mul, inv))
    for x in out:
        x.flags.writeable = False
    return out


class FieldSpec:
    """A finite field GF(p^m) with q = p^m <= 2**16.

    Instances are immutable and hashable; equality is structural on
    (p, m, reduction), so two specs of the same field interoperate and hold
    the one `tables` record of _field_tables.  A spec pickles as that
    triple: unpickling looks the record up again rather than copying it.
    """

    def __init__(self, p: int, m: int = 1, reduction: tuple[int, ...] | None = None):
        # checked before p**m and the prime test; any p >= 2 puts m > 16 past the cap
        if p > MAX_FIELD_ORDER or m > 16:
            raise ValueError(f"field order {p}^{m} exceeds {MAX_FIELD_ORDER}")
        if not _is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if m < 1:
            raise ValueError(f"extension degree must be >= 1, got {m}")
        q = p**m
        if q > MAX_FIELD_ORDER:
            raise ValueError(f"field order {q} exceeds {MAX_FIELD_ORDER}")
        if reduction is None:
            reduction = default_reduction(p, m)
        reduction = tuple(c % p for c in reduction)
        if len(reduction) != m + 1 or reduction[-1] != 1:
            raise ValueError("reduction must be monic of degree m")
        if m == 1:  # every x + c gives the same field and the same integers
            reduction = (0, 1)
        self.p = p
        self.m = m
        self.q = q
        self.reduction = reduction
        self.tables = _field_tables(p, m, reduction)

    def __reduce__(self):
        return FieldSpec, (self.p, self.m, self.reduction)

    # -- representation -----------------------------------------------------

    def __repr__(self) -> str:
        if self.m == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.m})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldSpec)
            and (self.p, self.m, self.reduction) == (other.p, other.m, other.reduction)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.m, self.reduction))

    @property
    def bits(self) -> int:
        return self.m * math.ceil(math.log2(self.p))

    def _digits(self, a: int) -> list[int]:
        return [(a // self.p**i) % self.p for i in range(self.m)]

    def _undigits(self, ds: list[int]) -> int:
        return sum(d * self.p**i for i, d in enumerate(ds))

    # -- element arithmetic on canonical integers ---------------------------

    def add(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        return self._undigits([(x + y) % self.p for x, y in zip(self._digits(a), self._digits(b))])

    def neg(self, a: int) -> int:
        if self.m == 1:
            return (-a) % self.p
        if self.p == 2:
            return a
        return self._undigits([(-x) % self.p for x in self._digits(a)])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        t = self.tables
        return t.exp_seq[t.log_seq[a] + t.log_seq[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self.tables.exp_seq[self.q - 1 - self.tables.log_seq[a]]

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise ZeroDivisionError("division by zero field element")
        if a == 0:
            return 0
        t = self.tables
        return t.exp_seq[t.log_seq[a] - t.log_seq[b] + self.q - 1]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("0 has no multiplicative inverse")
            return 0 if e else 1
        return self.tables.exp_seq[(self.tables.log_seq[a] * e) % (self.q - 1)]

    def dense_tables(self):
        """(add, sub, mul, inv) numpy tables, each with q**2 entries.

        No module of the package uses them: every elimination runs on the
        O(q) tables of `tables`.  They stay while the benchmark harness
        builds them in its set-up.  Built on first use from the array
        kernels and shared, read-only, by every FieldSpec of the field;
        capped at q <= 1024.
        """
        if self.q > 1024:
            raise ValueError(f"dense tables capped at q <= 1024, got {self.q}")
        return _dense_tables(self)


@functools.lru_cache(maxsize=16)  # a few fields per process, as for the tables
def cached_field(p: int, m: int = 1, reduction: tuple[int, ...] | None = None) -> FieldSpec:
    """FieldSpec(p, m, reduction), built once per triple for array reads and
    spec loads; a bad triple raises every time (lru_cache stores no exception)."""
    return FieldSpec(p, m, reduction)


# -- dense linear solving ----------------------------------------------------


@dataclass
class SolveResult:
    """Outcome of Gaussian elimination on A x = b.

    `solution` is set only when the system is consistent and every unknown
    is determined.  `undetermined` lists free columns; `consistent` is False
    when some equation reduces to 0 = c with c != 0 (an uncorrectable
    erasure pattern upstream).
    """

    solution: list[int] | None
    rank: int
    consistent: bool
    pivot_cols: tuple[int, ...]
    undetermined: tuple[int, ...]


def row_reduce(field: FieldSpec, rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """In-place-free RREF over the field; returns (reduced rows, pivot cols)."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = field.inv(m[r][c])
        m[r] = [field.mul(inv, x) for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def solve_values(field: FieldSpec, a_rows: list[list[int]], b: list[int]) -> SolveResult:
    """Solve A x = b over the field, or report rank and free unknowns."""
    if len(a_rows) != len(b):
        raise ValueError("matrix/vector size mismatch")
    ncols = len(a_rows[0]) if a_rows else 0
    aug = [list(r) + [v] for r, v in zip(a_rows, b)]
    red, pivots = row_reduce(field, aug) if aug else ([], [])
    consistent = all(p != ncols for p in pivots)
    pivot_cols = tuple(p for p in pivots if p != ncols)
    rank = len(pivot_cols)
    undetermined = tuple(c for c in range(ncols) if c not in pivot_cols)
    solution = None
    if consistent and not undetermined:
        solution = [0] * ncols
        for i, c in enumerate(pivot_cols):
            solution[c] = red[i][ncols]
    return SolveResult(solution, rank, consistent, pivot_cols, undetermined)


def matrix_rank(field: FieldSpec, rows: list[list[int]]) -> int:
    if not rows:
        return 0
    _, pivots = row_reduce(field, rows)
    return len(pivots)


# -- array kernels on O(q) tables: rank, products, elimination ---------------

# Matrix entries eliminated per lockstep batch: bounds the kernel's
# temporaries (a few arrays of this many int64) for every field and shape.
RANK_BATCH_ENTRIES = 1 << 14


def rank_batch_len(rows: int, cols: int) -> int:
    """How many rows x cols matrices one batch_rank step takes at once."""
    return max(1, RANK_BATCH_ENTRIES // max(1, rows * cols))


def array_sub(field: FieldSpec, a, b, out=None) -> np.ndarray:
    """a - b elementwise over the field, for broadcastable integer arrays,
    into the int64 array `out` (which may be a) when given.

    XOR for p = 2; for odd primes the difference, plus p where it is
    negative; for odd-p extension fields one lookup in the Zech table
    between the O(q) exp/log lookups of field.tables.
    """
    p = field.p
    if p == 2:
        return np.bitwise_xor(a, b, out=out)
    if field.m == 1:
        d = np.subtract(a, b, out=out)
        d += p * (d < 0)
        return d
    t = field.tables
    la = t.log[a]
    d = t.exp[la + t.zech[t.log[b] - la + 3 * (field.q - 1)]]
    if out is None:
        return d
    out[...] = d
    return out


def _add_reduce(field: FieldSpec, a: np.ndarray, axis: int, starts=None) -> np.ndarray:
    """Field sum of the entries of a along one axis (counted from the front).

    With `starts`, the sums of the segments a[starts[i]:starts[i + 1]]
    along the axis instead, as ufunc.reduceat takes them (every segment
    must be non-empty).  XOR for p = 2, an integer sum and one % p for odd
    primes; for odd-p extension fields the sum of each element's digit row
    (tables.digits, int64, so the sums cannot overflow), one % p and one
    dot with the powers of p.
    """
    p, digits = field.p, field.tables.digits
    if digits is not None:
        a = digits[a]
    ufunc = np.bitwise_xor if p == 2 else np.add
    total = ufunc.reduce(a, axis=axis) if starts is None else ufunc.reduceat(a, starts, axis=axis)
    if p == 2:
        return total
    return total % p if digits is None else total % p @ field.tables.powers


def _gauss_jordan(field: FieldSpec, a: np.ndarray, rhs: np.ndarray | None = None):
    """Gauss-Jordan on a (B, R, C) stack a in lockstep, pivots in a only:
    gf's one elimination loop.  Returns the B ranks and, for a (B, R, L)
    stack rhs, E @ rhs, E the row operations that reduce each matrix.

    Step c takes each matrix's pivot row by flat row index (one argmax, one
    gather) and its inverse from tables.inv (1 where there is none: the
    zero row clears nothing); every row loses its multiple of the pivot row
    past column c, in place.  The pivot is the first nonzero row and clears
    itself; with rhs it is row_reduce's, the first below the pivots, swapped
    up and cleared to itself / pivot, with a zero row 0 where there is none.
    Held as (C + L, B, rows) so that blocks are contiguous."""
    keep = rhs is not None
    b, rows, cols = a.shape
    t = field.tables
    exp, log, inv, own = t.exp, t.log, t.inv, t.own
    both = a if rhs is None else np.concatenate([a, rhs], axis=2)
    m = np.zeros((both.shape[2], b, rows + keep), dtype=np.int64)  # with rhs, a zero row 0 first
    m[:, :, keep:] = both.transpose(2, 0, 1)
    flat = m.reshape(len(m), b * m.shape[2])
    base = np.arange(0, b * m.shape[2], m.shape[2])  # flat index of each matrix's row 0
    last = base.copy()  # with rhs, of each matrix's last pivot row: base + rank
    pivots = np.zeros((cols, b), dtype=np.int64)  # each column's pivots, 0 where a matrix has none
    floor = np.zeros(m.shape[1:], dtype=np.int64)  # q at each row kept as a pivot, which `>` skips
    for c in range(cols):
        src = (m[c] > floor).argmax(axis=1) + base
        prow = flat[c:].take(src, axis=1)  # each pivot row from column c on
        pivots[c] = prow[0]
        if c + 1 == len(m):
            break
        lrow = log[prow[1:]] + inv[prow[0]]  # logs of each pivot row over its pivot
        factor = log[m[c]]
        if keep:
            dst = np.minimum(src, last + 1)  # the pivot row's place: rank, or 0 where there is none
            np.maximum(last, dst, out=last)
            floor.reshape(-1)[dst] = field.q
            if src.tolist() != dst.tolist():
                flat[c + 1 :, src] = flat[c + 1 :].take(dst, axis=1)
                flat[c + 1 :, dst] = prow[1:]
                factor.reshape(-1)[src] = factor.reshape(-1)[dst]
            factor.reshape(-1)[dst] = own[prow[0]]
        array_sub(field, m[c + 1 :], exp[factor + lrow[:, :, None]], out=m[c + 1 :])
    return (pivots != 0).sum(axis=0), np.ascontiguousarray(m[cols:, :, 1:].transpose(1, 2, 0)) if keep else None


def batch_rank(field: FieldSpec, mats) -> np.ndarray:
    """Ranks of a (B, R, C) stack over the field: _gauss_jordan with no
    right-hand side over the shorter side, RANK_BATCH_ENTRIES entries at a
    time, so memory stays flat for any B and any q <= 2**16."""
    mats = np.asarray(mats, dtype=np.int64)
    if mats.ndim != 3:
        raise ValueError(f"expected a (B, R, C) stack, got shape {mats.shape}")
    if mats.shape[2] > mats.shape[1]:
        mats = mats.transpose(0, 2, 1)  # rank is the same; step over the shorter side
    step = rank_batch_len(*mats.shape[1:])
    chunks = [mats[lo : lo + step] for lo in range(0, max(len(mats), 1), step)]  # one, if empty
    return np.concatenate([_gauss_jordan(field, chunk)[0] for chunk in chunks])


def matmul(field: FieldSpec, a, b) -> np.ndarray:
    """a @ b over the field, for an (R, C) and a (C, L) array of elements.

    Each product is one lookup in the O(q) tables of field.tables; a is
    taken a block of rows at a time, RANK_BATCH_ENTRIES products per
    block, so temporaries stay small for any shape and any q <= 2**16.
    """
    exp, log = field.tables.exp, field.tables.log
    la, lb = log[a], log[b]
    step = rank_batch_len(*lb.shape)
    if len(la) <= step:
        return _add_reduce(field, exp[la[:, :, None] + lb[None]], axis=1)
    blocks = [la[lo : lo + step] for lo in range(0, len(la), step)]
    return np.concatenate([_add_reduce(field, exp[block[:, :, None] + lb[None]], axis=1) for block in blocks])


def pivot_step(field: FieldSpec, m, rows) -> np.ndarray:
    """The (B, R, C) results of B min-read search steps on the (R, C) array
    m, by the row update of _gauss_jordan: step b takes (m[s, c] / r[c]) * r
    from each row m[s], r = rows[b] and c the first nonzero column of r."""
    t = field.tables
    c = (rows != 0).argmax(axis=1)
    lrow = t.log[rows] + t.inv[rows[np.arange(len(rows)), c]][:, None]
    return array_sub(field, m, t.exp[t.log[m[:, c].T][:, :, None] + lrow[:, None, :]])


def eliminate(field: FieldSpec, a, b) -> tuple[int, np.ndarray]:
    """The rank of the (R, C) array a and E @ b for the (R, L) array b: E
    reduces a with row_reduce's pivots, which fix E where a is not square
    (_gauss_jordan on one matrix).  When a has full column rank its pivots
    fill rows 0..C-1 in column order, so the first C rows of E @ b solve
    a x = b, consistent iff the other rows are zero; for b the identity
    they are a left inverse of a."""
    rank, reduced = _gauss_jordan(field, np.asarray(a, dtype=np.int64)[None], np.asarray(b, dtype=np.int64)[None])
    return int(rank[0]), reduced[0]


def smallest_field_of_order_at_least(n: int) -> FieldSpec:
    """Smallest prime power q >= n, as a FieldSpec with default reduction."""
    q = max(n, 2)
    while True:
        factors = _prime_factors(q)
        if len(factors) == 1:
            p = factors[0]
            m = 0
            t = q
            while t > 1:
                t //= p
                m += 1
            return FieldSpec(p, m)
        q += 1
