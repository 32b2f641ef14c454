"""Exact arithmetic over GF(p^m) and dense linear algebra on top of it.

Field elements are canonical unsigned integers in [0, q).  For extension
fields (m > 1) the integer encodes the coefficient vector of the polynomial
basis in little-endian base p: value = sum(c_i * p**i), so bit/digit i is
the coefficient of alpha**i.  Multiplication reduces modulo an irreducible
polynomial of degree m over GF(p); addition is digit-wise mod p.

Fields are capped at q <= 2**16 so elements fit in 16-bit storage and
exhaustive checks (irreducibility, field axioms in tests) stay cheap.

A field's exp/log tables are a pure function of (p, m, reduction), so they
are built once per field and shared, read-only, by every FieldSpec of that
field.  Every elimination in the package runs on the array kernels, which
use only these O(q) tables and so cover every field up to q = 2**16:
batch_rank, the rank kernel of the MDS check, the exhaustive
fault-tolerance search and the min-read search's gaps; pivot_step, the row
update of eliminate and of each min-read search step; eliminate, the
solver of the MDS generator, of the multi-node decoder and of
oracle.ml_decode; and matmul, which replays plans.  The scalar solvers
(row_reduce, solve_values, gaussian_solve, matrix_rank) stay public as the
reference the tests check the kernels against.  No module uses the q**2
dense tables any more; they stay only for the benchmark, which still
builds them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

MAX_FIELD_ORDER = 1 << 16


class FieldMismatchError(ValueError):
    """Arithmetic was attempted between symbols of different fields."""


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
    generator: int  # smallest element of order q - 1
    exp: tuple[int, ...]  # g**i for 0 <= i < 2(q - 1): log sums index it unreduced
    log: tuple[int, ...]  # inverse of exp on nonzero elements; log[0] is unused


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


@functools.lru_cache(maxsize=64)
def _field_tables(p: int, m: int, reduction: tuple[int, ...]) -> _Tables:
    """Generator and exp/log tables of GF(p^m), built in O(q) vectorised steps.

    Multiplying by an element is GF(p)-linear on digit vectors, so the
    powers of the generator follow from about log2(q) doublings: append
    `powers @ M % p` to `powers`, then square M.  A reducible polynomial
    raises here, and lru_cache never stores an exception.
    """
    if m > 1 and not is_irreducible(list(reduction), p):
        raise ValueError(f"reduction polynomial {reduction} is reducible over GF({p})")
    q = p**m
    x_mat = np.zeros((m, m), dtype=np.int64)
    x_mat[:-1, 1:] = np.eye(m - 1, dtype=np.int64)
    if m > 1:
        x_mat[-1] = [(-c) % p for c in reduction[:m]]
    one = np.eye(m, dtype=np.int64)
    orders = [(q - 1) // r for r in _prime_factors(q - 1)]
    gen = 1  # GF(2) has no other candidate
    for c in range(2, q):
        mul_c = _mul_matrix(c, p, m, x_mat)
        if not any(np.array_equal(_mat_pow(mul_c, e, p), one) for e in orders):
            gen = c
            break
    powers = one[:1]
    step = _mul_matrix(gen, p, m, x_mat)
    while len(powers) < q - 1:
        powers = np.concatenate([powers, powers @ step % p])
        step = step @ step % p
    exp = powers[: q - 1] @ p ** np.arange(m, dtype=np.int64)
    log = np.zeros(q, dtype=np.int64)
    log[exp] = np.arange(q - 1)
    exp_list = exp.tolist()
    return _Tables(gen, tuple(exp_list + exp_list), tuple(log.tolist()))


@functools.lru_cache(maxsize=16)
def _dense_tables(p: int, m: int, reduction: tuple[int, ...]):
    """Read-only int32 (add, sub, mul, inv) tables by broadcasting exp/log."""
    q = p**m
    tables = _field_tables(p, m, reduction)
    exp = np.array(tables.exp, dtype=np.int32)
    log = np.array(tables.log, dtype=np.int32)
    mul = exp[log[:, None] + log[None, :]]
    mul[0, :] = 0
    mul[:, 0] = 0
    inv = exp[q - 1 - log]
    inv[0] = 0
    elems = np.arange(q, dtype=np.int32)
    if p == 2:
        add = sub = elems[:, None] ^ elems[None, :]
    else:  # digit-wise mod p; a single digit when m == 1
        add = np.zeros((q, q), dtype=np.int32)
        sub = np.zeros((q, q), dtype=np.int32)
        for i in range(m):
            d = elems // p**i % p
            add += (d[:, None] + d[None, :]) % p * p**i
            sub += (d[:, None] - d[None, :]) % p * p**i
    out = (add, sub, mul, inv)
    for t in out:
        t.flags.writeable = False
    return out


class FieldSpec:
    """A finite field GF(p^m) with q = p^m <= 2**16.

    Instances are immutable and hashable; equality is structural on
    (p, m, reduction), so two specs of the same field interoperate.
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
        self.generator, self._exp, self._log = _field_tables(p, m, reduction)
        self._dense = None

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
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self._exp[self.q - 1 - self._log[a]]

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise ZeroDivisionError("division by zero field element")
        if a == 0:
            return 0
        return self._exp[self._log[a] - self._log[b] + self.q - 1]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            return 0 if e else 1
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    def element(self, value: int) -> "Symbol":
        return Symbol(value % self.q, self)

    def zero(self) -> "Symbol":
        return Symbol(0, self)

    def one(self) -> "Symbol":
        return Symbol(1, self)

    def dense_tables(self):
        """(add, sub, mul, inv) numpy tables, each with q**2 entries.

        No module of the package uses them: every elimination runs on the
        O(q) tables of batch_rank.  They stay while the benchmark harness
        builds them in its set-up.  Built on first use and shared,
        read-only, by every FieldSpec of the field; capped at q <= 1024.
        """
        if self._dense is None:
            if self.q > 1024:
                raise ValueError(f"dense tables capped at q <= 1024, got {self.q}")
            self._dense = _dense_tables(self.p, self.m, self.reduction)
        return self._dense


@dataclass(frozen=True)
class Symbol:
    """One element of a finite field: canonical value plus its FieldSpec."""

    value: int
    field: FieldSpec

    def __post_init__(self):
        if not 0 <= self.value < self.field.q:
            raise ValueError(f"value {self.value} out of range for {self.field}")

    def _check(self, other: "Symbol") -> None:
        if not isinstance(other, Symbol):
            raise TypeError(f"expected Symbol, got {type(other).__name__}")
        if other.field != self.field:
            raise FieldMismatchError(f"mixed fields: {self.field} vs {other.field}")

    def __add__(self, other: "Symbol") -> "Symbol":
        self._check(other)
        return Symbol(self.field.add(self.value, other.value), self.field)

    def __sub__(self, other: "Symbol") -> "Symbol":
        self._check(other)
        return Symbol(self.field.sub(self.value, other.value), self.field)

    def __mul__(self, other: "Symbol") -> "Symbol":
        self._check(other)
        return Symbol(self.field.mul(self.value, other.value), self.field)

    def __truediv__(self, other: "Symbol") -> "Symbol":
        self._check(other)
        return Symbol(self.field.div(self.value, other.value), self.field)

    def __neg__(self) -> "Symbol":
        return Symbol(self.field.neg(self.value), self.field)

    def __bool__(self) -> bool:
        return self.value != 0


def field_arith(a: Symbol, b: Symbol, kind: str) -> Symbol:
    """Dispatch one binary field operation: add, sub, mul or div."""
    ops = {
        "add": Symbol.__add__,
        "sub": Symbol.__sub__,
        "mul": Symbol.__mul__,
        "div": Symbol.__truediv__,
    }
    try:
        op = ops[kind]
    except KeyError:
        raise ValueError(f"unknown operation {kind!r}") from None
    return op(a, b)


def symbol_bits(field: FieldSpec) -> int:
    """Symbol size in bits: m * ceil(log2 p)."""
    return field.bits


# -- dense linear solving ----------------------------------------------------


@dataclass
class SolveResult:
    """Outcome of Gaussian elimination on A x = b.

    `solution` is set only when the system is consistent and every unknown
    is determined.  `undetermined` lists free columns; `consistent` is False
    when some equation reduces to 0 = c with c != 0 (an uncorrectable
    erasure pattern upstream).
    """

    solution: list[Symbol] | None
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
    """gaussian_solve on plain integer values (the workhorse solver)."""
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
        vals = [0] * ncols
        for i, c in enumerate(pivot_cols):
            vals[c] = red[i][ncols]
        solution = [Symbol(v, field) for v in vals]
    return SolveResult(solution, rank, consistent, pivot_cols, undetermined)


def gaussian_solve(a: list[list[Symbol]], b: list[Symbol]) -> SolveResult:
    """Solve A x = b over one field, or report rank and free unknowns."""
    if not a:
        raise ValueError("empty system")
    field = a[0][0].field
    for row in a:
        for s in row:
            if s.field != field:
                raise FieldMismatchError("matrix entries from different fields")
    for s in b:
        if s.field != field:
            raise FieldMismatchError("rhs entries from a different field")
    return solve_values(field, [[s.value for s in row] for row in a], [s.value for s in b])


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


@functools.lru_cache(maxsize=16)
def _rank_tables(p: int, m: int, reduction: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """exp, periodic over 3(q - 1) and then zero-padded, and log with
    log 0 = 3(q - 1) pointing into the pad.

    batch_rank indexes exp with sums of two logs of entries (each at most
    q - 2 when nonzero) and one log of a pivot's inverse (at most q - 1).
    With every term nonzero the sum stays in the periodic part; with any
    log 0 in it the sum lands in the pad.  So exp[sum] is the product,
    zero or not, with no mask.
    """
    q = p**m
    tables = _field_tables(p, m, reduction)
    zero_log = 3 * (q - 1)
    exp = np.zeros(2 * zero_log + q, dtype=np.int64)
    exp[:zero_log] = np.tile(tables.exp[: q - 1], 3)
    log = np.array(tables.log, dtype=np.int64)
    log[0] = zero_log
    for t in (exp, log):
        t.flags.writeable = False
    return exp, log


def array_sub(field: FieldSpec, a, b) -> np.ndarray:
    """a - b elementwise over the field, for broadcastable integer arrays."""
    p = field.p
    if p == 2:
        return a ^ b
    if field.m == 1:
        return (a - b) % p
    out = 0
    for i in range(field.m):  # digit-wise mod p
        w = p**i
        out = out + (a // w - b // w) % p * w
    return out


def _add_reduce(field: FieldSpec, a: np.ndarray, axis: int) -> np.ndarray:
    """Field sum of the entries of a along one axis."""
    p = field.p
    if p == 2:
        return np.bitwise_xor.reduce(a, axis=axis)
    if field.m == 1:
        return a.sum(axis=axis) % p
    out = 0
    for i in range(field.m):
        w = p**i
        out = out + (a // w % p).sum(axis=axis) % p * w
    return out


def batch_rank(field: FieldSpec, mats) -> np.ndarray:
    """Ranks of a (B, R, C) stack of matrices over the field.

    All B matrices are eliminated in lockstep, one column per step: each
    takes its first row with a nonzero entry as pivot and clears that
    column from every row, the pivot row included, so that row drops out.
    Products come from the field's O(q) exp/log tables; the stack is taken
    RANK_BATCH_ENTRIES entries at a time, so memory stays flat for any B
    and any q <= 2**16.
    """
    mats = np.asarray(mats, dtype=np.int64)
    if mats.ndim != 3:
        raise ValueError(f"expected a (B, R, C) stack, got shape {mats.shape}")
    if mats.shape[2] > mats.shape[1]:
        mats = mats.transpose(0, 2, 1)  # rank is the same; step over the shorter side
    b, rows, cols = mats.shape
    ranks = np.zeros(b, dtype=np.int64)
    if not rows or not cols:
        return ranks
    exp, log = _rank_tables(field.p, field.m, field.reduction)
    step = rank_batch_len(rows, cols)
    for lo in range(0, b, step):
        m = mats[lo : lo + step].copy()
        idx = np.arange(len(m))
        rank = ranks[lo : lo + step]
        for c in range(cols):
            col = m[:, :, c]
            piv = (col != 0).argmax(axis=1)
            has = col[idx, piv] != 0
            if not has.any():  # e.g. a zero column padding smaller matrices
                continue
            rank += has
            if c + 1 == cols:
                break
            prow = log[m[idx, piv, c:]]  # logs of the pivot and of the rest of its row
            inv_log = np.where(has, field.q - 1 - prow[:, 0], 0)
            # log of (entry / pivot) for every row; where a matrix has no
            # pivot its column c is 0, and so are the factors.  The pivot
            # row clears itself, so no later column picks it again.
            factor = log[col] + inv_log[:, None]
            m[:, :, c + 1 :] = array_sub(field, m[:, :, c + 1 :], exp[factor[:, :, None] + prow[:, None, 1:]])
    return ranks


def matmul(field: FieldSpec, a, b) -> np.ndarray:
    """a @ b over the field, for an (R, C) and a (C, L) array of elements.

    Each product is one lookup in the O(q) tables of batch_rank; a is
    taken a block of rows at a time, RANK_BATCH_ENTRIES products per
    block, so temporaries stay small for any shape and any q <= 2**16.
    """
    exp, log = _rank_tables(field.p, field.m, field.reduction)
    la, lb = log[a], log[b]
    step = rank_batch_len(*lb.shape)
    if len(la) <= step:
        return _add_reduce(field, exp[la[:, :, None] + lb[None]], axis=1)
    blocks = [la[lo : lo + step] for lo in range(0, len(la), step)]
    return np.concatenate([_add_reduce(field, exp[block[:, :, None] + lb[None]], axis=1) for block in blocks])


def pivot_step(field: FieldSpec, m, row) -> tuple[np.ndarray, np.ndarray]:
    """One elimination step: clear m with `row` at its first nonzero column c.

    Each row s of the (R, C) array m becomes m[s] - (m[s, c] / row[c]) * row.
    Returns the cleared m and row / row[c].  A (B, C) stack of rows takes B
    such steps of the same m at once, and returns a (B, R, C) stack and the
    B normalised rows.  Each product is one lookup in the O(q) tables of
    batch_rank.
    """
    exp, log = _rank_tables(field.p, field.m, field.reduction)
    rows = np.atleast_2d(row)
    c = (rows != 0).argmax(axis=1)
    # logs of each row divided by its pivot; a zero entry's log stays at or
    # past log 0, so it still indexes the zero pad of exp
    lrow = log[rows]
    lrow += (field.q - 1 - lrow[np.arange(len(rows)), c])[:, None]
    factor = log[m[:, c].T]
    out = array_sub(field, m, exp[factor[:, :, None] + lrow[:, None, :]])
    if np.ndim(row) == 1:
        return out[0], exp[lrow[0]]
    return out, exp[lrow]


def eliminate(field: FieldSpec, a, b) -> tuple[int, np.ndarray]:
    """Gauss-Jordan elimination of [a | b] over the field, with pivots in a only.

    Returns the rank of the (R, C) array a and E @ b for the (R, L) array
    b, where the row operations E bring a to reduced row echelon form.
    When a has full column rank its pivots fill rows 0..C-1 in column
    order, so the first C rows of E @ b solve a x = b, consistent iff the
    other rows are zero; for b the identity they are a left inverse of a.
    Each step is one pivot_step over whole rows.
    """
    a = np.asarray(a, dtype=np.int64)
    rows, cols = a.shape
    m = np.concatenate([a, np.asarray(b, dtype=np.int64)], axis=1)
    rank = 0
    for c in range(cols):
        if rank == rows:
            break
        nz = m[rank:, c].nonzero()[0]
        if not nz.size:
            continue
        if nz[0]:
            m[[rank, rank + nz[0]]] = m[[rank + nz[0], rank]]
        m, pivot = pivot_step(field, m, m[rank])
        m[rank] = pivot  # the step cleared the pivot row too; keep it normalised
        rank += 1
    return rank, m[:, cols:]


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
