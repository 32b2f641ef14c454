"""MDS-plus-piggyback parity nodes: construction, fault tolerance, decoding.

A code of length n_a over k data nodes starts from a systematic (n_a, k)
MDS code applied row by row.  The last tau parity columns then each absorb
one extra data symbol per row (a piggyback), which later lets a repair
recover tau column symbols at one additional read each.  Piggybacks cost
fault tolerance; fault_tolerance() quantifies exactly how much.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from .gf import (
    FieldSpec,
    array_sub,
    batch_rank,
    eliminate,
    matmul,
    rank_batch_len,
    smallest_field_of_order_at_least,
)
from .layout import CodeArray, DataArray, mod_k
from .plan import RepairPlan, positions, replay
from .plan import UnrecoverableErasureError  # raised by replay; callers import it from here

EXHAUSTIVE_SUBMATRIX_LIMIT = 10**5
RANDOM_SUBMATRIX_TRIALS = 10**4


@dataclass(frozen=True)
class FaultToleranceReport:
    f: int
    xi: float
    branch: str  # "mds" when tau < xi, else "piggyback-limited"


def xi_threshold(n_a: int, k: int, tau: int) -> float:
    d = n_a - k - tau
    return (math.sqrt(d * d + 4 * k) - d) / 2


def psi(tau_prime: int, n_a: int, k: int, tau: int) -> int:
    return tau_prime * tau_prime + (n_a - k - tau) * tau_prime - k


def fault_tolerance(n_a: int, k: int, tau: int) -> FaultToleranceReport:
    """The paper's guaranteed fault tolerance f of an (n_a, k, tau) code.

    f = n_a - k when tau < xi, else n_a - k - tau + floor(xi), with xi the
    positive root of psi.  Exhaustive maximum-likelihood search confirms
    that the codes ClassASpec.build makes meet f on every shape of the
    acceptance sweep (4 <= k <= 8, n_a <= k + 4).  f is a guarantee, not
    the exact tolerance: that depends on the MDS coefficients alpha and may
    be higher.  The shortened-RS defaults tolerate f + 1 failures at
    (k, n_a, tau) = (5, 9, 2), (5, 9, 3) and (7, 11, 2).

    Caveat where xi is an integer, e.g. (k, n_a, tau) = (6, 9, 2),
    (6, 10, 3) and (8, 12, 2): the rotation schedule alone fails on f
    alternating data failures ((0, 2, 4) at k = 6), which the decoder's
    elimination fallback recovers for the RS defaults.  For arbitrary MDS
    coefficients f is not a guarantee there: at (6, 9, 2) an MDS block over
    GF(11) tolerates only 2 failures (tests/test_oracle.py pins it).  The paper's abstract does
    not settle whether its bound needs psi(tau') < 0 or psi(tau') <= 0.
    """
    _check_params(n_a, k, tau)
    xi = xi_threshold(n_a, k, tau)
    if tau < xi:
        return FaultToleranceReport(n_a - k, xi, "mds")
    return FaultToleranceReport(n_a - k - tau + math.floor(xi), xi, "piggyback-limited")


def _check_params(n_a: int, k: int, tau: int) -> None:
    if not k + 2 <= n_a < 2 * k:
        raise ValueError(f"need k+2 <= n_a < 2k, got n_a={n_a}, k={k}")
    # tau = 0 is permitted as the plain-MDS degenerate case (no piggybacks).
    if not 0 <= tau <= n_a - k - 1:
        raise ValueError(f"need 0 <= tau <= n_a-k-1 = {n_a - k - 1}, got tau={tau}")


def mds_generator(
    n_a: int,
    k: int,
    field: FieldSpec,
    *,
    rng: random.Random | None = None,
) -> list[list[int]]:
    """Parity coefficients alpha of a systematic (n_a, k) MDS code.

    Built from a Reed-Solomon code on n_a distinct nonzero evaluation
    points (shortening a longer RS code just drops points, so any q with
    q >= n_a + 1 works).  Returns the k x (n_a - k) block P of [I | P],
    checked by verify_mds.
    """
    if field.q < n_a + 1:
        raise ValueError(f"field order {field.q} too small for length {n_a}")
    vand = np.array([[field.pow(x, e) for x in range(1, n_a + 1)] for e in range(k)], dtype=np.int64)
    # P solves V_data P = V_parity, so [I | P] spans the same code as V
    rank, solved = eliminate(field, vand[:, :k], vand[:, k:])
    if rank < k:
        raise ValueError("degenerate evaluation points")
    alpha = solved.tolist()
    verify_mds(alpha, n_a, k, field, rng=rng)
    return alpha


def verify_mds(
    alpha: list[list[int]],
    n_a: int,
    k: int,
    field: FieldSpec,
    rng: random.Random | None = None,
) -> None:
    """Check every k x k submatrix of [I | alpha]^T is invertible.

    Exhaustive up to EXHAUSTIVE_SUBMATRIX_LIMIT submatrices, randomized
    beyond that.  Columns D + P of [I | alpha], D data and P parity, are
    independent iff alpha's minor on the rows not in D and the columns in
    P is nonsingular, so the subsets are checked as minors, batched by
    size.  Failure indicates a bad reduction polynomial or a broken
    generator, so it raises rather than returning a flag.
    """
    parity = n_a - k
    # (rows not in D, columns of P - k) of each minor, by the minor's size
    if math.comb(n_a, k) <= EXHAUSTIVE_SUBMATRIX_LIMIT:
        minors = {
            s: itertools.product(itertools.combinations(range(k), s), itertools.combinations(range(parity), s))
            for s in range(1, min(k, parity) + 1)
        }
    else:
        rng = rng or random.Random(0)
        minors = {}
        for _ in range(RANDOM_SUBMATRIX_TRIALS):
            subset = set(rng.sample(range(n_a), k))
            rows = tuple(i for i in range(k) if i not in subset)
            cols = tuple(c - k for c in sorted(subset) if c >= k)
            minors.setdefault(len(rows), []).append((rows, cols))
        minors.pop(0, None)  # [I] alone is invertible
    alpha = np.array(alpha, dtype=np.int64)
    for s, pairs in minors.items():
        pairs = iter(pairs)
        while batch := list(itertools.islice(pairs, rank_batch_len(s, s))):
            idx = np.array(batch, dtype=np.int64)
            ranks = batch_rank(field, alpha[idx[:, 0, :, None], idx[:, 1, None, :]])
            bad = np.nonzero(ranks != s)[0]
            if bad.size:
                rows, cols = idx[bad[0]].tolist()
                subset = tuple([i for i in range(k) if i not in rows] + [c + k for c in cols])
                raise ValueError(f"MDS check failed: columns {subset} are singular")


@dataclass(frozen=True)
class ClassASpec:
    """Shape and coefficients of one MDS-plus-piggyback code."""

    field: FieldSpec
    n_a: int
    k: int
    tau: int
    alpha: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        _check_params(self.n_a, self.k, self.tau)
        if len(self.alpha) != self.k or any(len(r) != self.n_a - self.k for r in self.alpha):
            raise ValueError("alpha must be k x (n_a - k)")
        if any(not 0 <= v < self.field.q for r in self.alpha for v in r):
            raise ValueError(f"alpha entries must be elements of {self.field}")

    @classmethod
    def build(
        cls,
        n_a: int,
        k: int,
        tau: int,
        field: FieldSpec | None = None,
    ) -> "ClassASpec":
        _check_params(n_a, k, tau)
        if field is None:
            field = smallest_field_of_order_at_least(n_a + 1)
        alpha = mds_generator(n_a, k, field)
        return cls(field, n_a, k, tau, tuple(tuple(r) for r in alpha))

    @property
    def piggybacked_columns(self) -> range:
        return range(self.n_a - self.tau, self.n_a)

    def piggyback_source(self, i: int, u: int) -> tuple[int, int]:
        """Data position added into parity (i, u) for u in the piggybacked range."""
        return (mod_k(i + u - self.n_a + self.tau + 1, self.k), i)

    def fault_tolerance(self) -> FaultToleranceReport:
        return fault_tolerance(self.n_a, self.k, self.tau)

    def to_json_dict(self) -> dict:
        return {"nA": self.n_a, "tau": self.tau, "alpha": [list(r) for r in self.alpha]}

    @classmethod
    def from_json_dict(cls, d: dict, field: FieldSpec, k: int) -> "ClassASpec":
        """Load a spec, refusing an alpha that is not MDS (verify_mds raises)."""
        spec = cls(field, d["nA"], k, d["tau"], tuple(tuple(r) for r in d["alpha"]))
        _verified_mds(spec.alpha, spec.n_a, spec.k, spec.field)
        return spec


@functools.lru_cache(maxsize=16)  # a few codes per process, as for field tables
def _verified_mds(alpha: tuple[tuple[int, ...], ...], n_a: int, k: int, field: FieldSpec) -> None:
    """verify_mds, once per value: a caller that reloads its spec per
    command (as the CLI does) checks it once.  A failed check raises, and
    lru_cache never stores an exception."""
    verify_mds(alpha, n_a, k, field)


def encode_class_a(data: DataArray, spec: ClassASpec) -> list[list[int]]:
    """k x (n_a - k) parity block: plain MDS columns then piggybacked ones.

    The class-A rows of the generator, applied to the data in one product.
    """
    if data.field != spec.field:
        raise ValueError("data array and spec use different fields")
    if data.k != spec.k:
        raise ValueError("data array dimension does not match spec")
    k = spec.k
    forms = _generator(_interned(spec))[k:].reshape(-1, k * k)
    parities = matmul(spec.field, forms, np.array(data.rows, dtype=np.int64).T.reshape(-1, 1))
    return parities.reshape(spec.n_a - k, k).T.tolist()


def _available_run_start(k: int, alive_data: set[int], length: int) -> int | None:
    """First start of `length` consecutive available data nodes, scanning all rotations."""
    if length == 0:
        return 0
    for start in range(k):
        if all(mod_k(start + off, k) in alive_data for off in range(length)):
            return start
    return None


# Plans are cached by value.  The bound holds every pattern of up to three
# erased nodes of a 16-node code (16 + 120 + 560), the longest code the
# exhaustive oracle takes.
PLAN_CACHE_SIZE = sum(math.comb(16, t) for t in range(1, 4))


@dataclass(frozen=True, eq=False)
class DecodePlan(RepairPlan):
    """The decode of one erasure pattern, as a GF(q) linear map.

    Row s * k + i of `matrix` gives symbol i of node nodes[s] as a
    combination of the symbols read, whole nodes in `reads` order.
    `matrix` is None when the pattern is not decodable; `rank` is then
    the rank of the surviving class-A symbols over the k^2 data symbols.
    """

    nodes: tuple[int, ...] = ()


def _compact(field: FieldSpec):
    """The smallest unsigned dtype holding every element of the field.

    It also holds every class-A node index, as n_a < q.
    """
    return np.uint8 if field.q <= 256 else np.uint16


def _split(code) -> tuple[ClassASpec, int]:
    """The class-A part of a ClassASpec or CodeSpec, and the code length."""
    if isinstance(code, ClassASpec):
        return code, code.n_a
    return code.class_a, code.n


@functools.lru_cache(maxsize=16)  # a few codes per process, as for field tables
def _interned(code):
    """The first code seen equal to `code`.

    Plans are cached by value, and a cache key keeps the code object it
    was made with; keying every plan with one copy of each code keeps a
    caller that loads its spec afresh per call (as the CLI does) from
    pinning a copy per plan.
    """
    return code


@functools.lru_cache(maxsize=16)  # a few codes per process, as for field tables
def _generator(code) -> np.ndarray:
    """Every stored symbol as a form over the data symbols.

    Entry [c, i, j, r] is the coefficient of data symbol d[r][j] in
    symbol i of node c: a data symbol, an MDS row plus its piggyback, or
    a sum.
    """
    spec, n = _split(code)
    k, n_a, tau = spec.k, spec.n_a, spec.tau
    rows = np.arange(k)
    gen = np.zeros((n, k, k, k), dtype=_compact(spec.field))
    gen[rows[:, None], rows, rows[:, None], rows] = 1
    gen[k:n_a, rows, :, rows] = np.array(spec.alpha).T
    for c in spec.piggybacked_columns:
        t = c - (n_a - tau - 1)  # symbol i absorbs data symbol ((i + t) % k, i)
        gen[c, rows, rows, (rows + t) % k] = 1
    for c in range(n_a, n):
        for t, par in enumerate(code.class_b.node_parities(c)):
            for r, j in par:
                gen[c, t, j, r] = 1
    gen.flags.writeable = False
    return gen


def _over(forms: np.ndarray, nodes: list[int]) -> np.ndarray:
    """(F, k, k) forms over the data symbols of `nodes`, node by node."""
    return forms[:, nodes].reshape(len(forms), len(nodes) * forms.shape[2]).astype(np.int64)


def _schedule_plan(spec: ClassASpec, gen: np.ndarray, failed: list[int], alive: list[int], erased: set[int]):
    """The rotation schedule, run once on linear forms.

    Find a run of tau' consecutive available data nodes, then walk rows
    backwards from its end: each row's lost symbols come from phi parities
    once their piggybacks are cleaned with already-known data.  The phi x
    phi system is the same on every row, so it is inverted once.  Returns
    (read nodes, forms of the lost data symbols over the reads), or None
    where the schedule cannot order the pattern.
    """
    f = spec.field
    k, n_a, tau = spec.k, spec.n_a, spec.tau
    phi = len(failed)
    nonmod_alive = [c for c in range(k, n_a - tau) if c not in erased]
    piggy_alive_t = [t for t in range(1, tau + 1) if (n_a - tau - 1 + t) not in erased]
    theta = min(phi, len(nonmod_alive))
    zeta = phi - theta
    if zeta > len(piggy_alive_t):
        return None
    used_t = piggy_alive_t[:zeta]
    tau_prime = used_t[-1] if used_t else 0
    start = _available_run_start(k, set(alive), tau_prime)
    if start is None:
        return None
    parity_cols = nonmod_alive[:theta] + [n_a - tau - 1 + t for t in used_t]
    # [parity, data node]: the MDS coefficients, read off symbol 0 of each
    # parity, whose piggyback is a data symbol of another row
    alpha = gen[parity_cols, 0, :, 0]
    # one elimination gives A^-1 and A^-1 B, for A and B the parity
    # coefficients of the failed and of the alive data nodes
    eye = np.eye(phi, dtype=np.int64)
    rank, solved = eliminate(f, alpha[:, failed], np.concatenate([eye, alpha[:, alive]], axis=1))
    if rank < phi:
        return None
    inv = solved[:, :phi]

    # lost[r, s, v, i]: coefficient in d[r][failed[s]] of symbol i of node
    # slots[v]; row r reads only row r, until piggybacks are cleaned
    slots = alive + parity_cols
    coeffs = np.concatenate([array_sub(f, 0, solved[:, phi:]), inv], axis=1)
    lost = np.eye(k, dtype=np.int64)[:, None, None, :] * coeffs[None, :, :, None]
    # piggyback sources d[(r + t) % k][r] sit in column r: read when it is
    # alive, else recovered from rows r+1..r+tau' before row r
    if used_t:
        cols = np.array(alive)[:, None]
        lost[cols, :, np.arange(len(alive))[:, None], (cols + used_t) % k] = array_sub(f, 0, inv[:, theta:]).T
    lost = lost.reshape(k, phi, -1)
    index = {j: s for s, j in enumerate(failed)}
    done = set()
    for step in range(k):
        r = mod_k(start + tau_prime - 1 - step, k)
        if r in index and used_t:
            srcs = [mod_k(r + t, k) for t in used_t]
            if any(src not in done for src in srcs):
                return None
            lost[r] = array_sub(f, lost[r], matmul(f, inv[:, theta:], lost[srcs, index[r]]))
        done.add(r)
    return slots, lost.transpose(1, 0, 2).reshape(phi * k, -1)


def _rank_plan(spec: ClassASpec, gen: np.ndarray, failed: list[int], alive: list[int], erased: set[int]):
    """One elimination over every surviving class-A parity symbol.

    Returns (read nodes, forms of the lost data symbols over the reads),
    or the rank of the surviving symbols when they do not determine the
    data.
    """
    f, k = spec.field, spec.k
    parities = [c for c in range(k, spec.n_a) if c not in erased]
    forms = gen[parities].reshape(-1, k, k)
    rank, left = eliminate(f, _over(forms, failed), np.eye(len(forms), dtype=np.int64))
    if rank < k * len(failed):
        return k * len(alive) + rank
    left = left[:rank]
    known = array_sub(f, 0, matmul(f, left, _over(forms, alive)))
    return alive + parities, np.concatenate([known, left], axis=1)


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def decode_plan(code, erased: tuple[int, ...]) -> DecodePlan:
    """Compile the decode of one erasure pattern; cached by value.

    `code` is a ClassASpec, or a CodeSpec whose erased sum-parity nodes
    are then re-encoded too; `erased` lists the erased nodes in
    increasing order.  The lost data symbols come from the rotation
    schedule, or from one elimination where the schedule cannot order
    the pattern; each erased parity symbol is its generator form over
    the data, with every lost data symbol replaced by its own form.
    """
    spec, n = _split(code)
    f, k = spec.field, spec.k
    compact = _compact(f)
    at = positions(n, k)

    def plan(slots: list[int], matrix, rank: int) -> DecodePlan:
        return DecodePlan(
            f,
            tuple(at[node][row] for node in slots for row in range(k)),
            matrix,
            error=f"erasure pattern {[j for j in erased if j < spec.n_a]} is not decodable",
            rank=rank,
            needed=k * k,
            nodes=erased,
        )

    lost_nodes = set(erased)
    failed = [j for j in erased if j < k]
    alive = [j for j in range(k) if j not in lost_nodes]
    gen = _generator(code)
    # erased parity symbols over the data, read node by node
    forms = gen[list(erased[len(failed) :])].reshape(-1, k, k)
    matrix = _over(forms, alive)
    slots = alive
    if failed:
        found = _schedule_plan(spec, gen, failed, alive, lost_nodes) or _rank_plan(
            spec, gen, failed, alive, lost_nodes
        )
        if isinstance(found, int):
            return plan(alive, None, found)
        slots, lost = found
        if len(forms):
            direct = np.zeros((len(forms), lost.shape[1]), dtype=np.int64)
            direct[:, : matrix.shape[1]] = matrix
            through = matmul(f, array_sub(f, 0, _over(forms, failed)), lost)
            lost = np.concatenate([lost, array_sub(f, direct, through)])
        matrix = lost
    return plan(slots, matrix.astype(compact), k * k)


def decode_multi_class_a(
    array: CodeArray,
    code,
    erased_nodes=None,
) -> dict[int, list[int]]:
    """Recover every data column and every erased column.

    `code` is a ClassASpec, or a CodeSpec whose sum-parity nodes, which
    never take part in correction, are then re-encoded too.  The erased
    nodes are `erased_nodes` plus every node with a masked symbol, so no
    masked symbol is ever read.  The pattern's DecodePlan, compiled once
    and cached, is replayed by plan.replay over the symbols it reads.
    """
    spec, n = _split(code)
    k = spec.k
    erased = set(erased_nodes or ())
    if any(not 0 <= j < n for j in erased):
        raise ValueError("erased node index outside the code")
    erased |= array.erased_nodes()
    plan = decode_plan(_interned(code), tuple(sorted(erased)))
    columns = {j: [row[j] for row in array.rows] for j in range(k) if j not in erased}
    if plan.nodes:
        values = replay(plan, array.rows)
        columns.update(zip(plan.nodes, values.reshape(len(plan.nodes), k).tolist()))
    return columns
