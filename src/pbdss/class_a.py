"""MDS-plus-piggyback parity nodes: construction, fault tolerance, decode plans.

A code of length n_a over k data nodes starts from a systematic (n_a, k)
MDS code applied row by row.  The last tau parity columns then each absorb
one extra data symbol per row (a piggyback), which later lets a repair
recover tau column symbols at one additional read each.  Piggybacks cost
fault tolerance; fault_tolerance() quantifies exactly how much.
decode_plan compiles the decode of an erasure pattern of a full CodeSpec
from its generator; repair.repair_multi and repair.encode replay them.
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
    smallest_field_of_order_at_least,
)
from .plan import PLAN_CACHE_SIZE, RepairPlan, positions
from .plan import UnrecoverableErasureError  # raised by a replayed undecodable plan; callers import it from here

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


def fault_tolerance(n_a: int, k: int, tau: int) -> FaultToleranceReport:
    """The paper's guaranteed fault tolerance f of an (n_a, k, tau) code.

    f = n_a - k when tau < xi, else n_a - k - tau + floor(xi), with xi the
    positive root of psi(t) = t^2 + (n_a - k - tau) t - k.  Exhaustive maximum-likelihood search confirms
    that the codes ClassASpec.build makes meet f on every shape of the
    acceptance sweep (4 <= k <= 8, n_a <= k + 4).  f is a guarantee, not
    the exact tolerance: that depends on the MDS coefficients alpha and may
    be higher.  The shortened-RS defaults tolerate f + 1 failures at
    (k, n_a, tau) = (5, 9, 2), (5, 9, 3), (7, 11, 2) and (11, 15, 3).

    Caveat where xi is an integer, e.g. (k, n_a, tau) = (6, 9, 2),
    (6, 10, 3) and (8, 12, 2): the rotation schedule cannot order f
    alternating data failures ((0, 2, 4) at k = 6), which the decoder's
    elimination over every surviving parity recovers for the RS defaults.
    For arbitrary MDS coefficients f is not a guarantee there: at
    (6, 9, 2) an MDS block over GF(11) tolerates only 2 failures
    (tests/test_oracle.py pins it).  The paper's abstract does
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


def mds_generator(n_a: int, k: int, field: FieldSpec) -> list[list[int]]:
    """Parity coefficients alpha of a systematic (n_a, k) MDS code.

    The systematic Reed-Solomon code on the n_a distinct nonzero points
    x_i = i + 1 (shortening a longer RS code just drops points, so any q
    with q >= n_a + 1 works), in closed form: the k x (n_a - k) block P of
    [I | P] is

        P[l][j] = L_l(x_{k+j}),  L_l(z) = prod_{m < k, m != l} (z - x_m) / (x_l - x_m),

    L_l the Lagrange basis on the data points, a scaled Cauchy matrix.  It
    is V_data^-1 V_parity, V[e][i] = x_i^e: every polynomial g of degree
    below k equals sum_l g(x_l) L_l, so g = z^e gives V_parity[e][j] =
    sum_l V_data[e][l] P[l][j], and V_data is invertible.  The differences
    are one array_sub, the products and quotients sums of their logs
    (field.tables).  Checked by verify_mds through _verified_mds, so once
    per alpha value per process, a check shared with spec loads.
    """
    if field.q < n_a + 1:
        raise ValueError(f"field order {field.q} too small for length {n_a}")
    exp, log = field.tables.exp, field.tables.log
    points = np.arange(1, n_a + 1)
    # log(x_i - x_m) for every point i and data point m; the zero diagonal
    # (i = m), which no product takes, adds 0
    diff = log[array_sub(field, points[:, None], points[:k])]
    diff[range(k), range(k)] = 0
    num = diff[k:].sum(axis=1) - diff[k:].T  # log prod_{m != l} (x_{k+j} - x_m), (k, n_a - k)
    den = diff[:k].sum(axis=1, keepdims=True)  # log prod_{m != l} (x_l - x_m)
    alpha = exp[(num - den) % (field.q - 1)].tolist()
    _verified_mds(tuple(map(tuple, alpha)), n_a, k, field)
    return alpha


@functools.lru_cache(maxsize=64)
def _combinations(n: int, s: int) -> np.ndarray:
    """Every s-subset of range(n), one row each, in itertools.combinations
    order; read-only."""
    combos = np.array(list(itertools.combinations(range(n), s)), dtype=np.int64).reshape(-1, s)
    combos.flags.writeable = False
    return combos


def verify_mds(alpha: list[list[int]], n_a: int, k: int, field: FieldSpec) -> None:
    """Check every k x k submatrix of [I | alpha]^T is invertible.

    Columns D + P of [I | alpha], D data and P parity, are independent iff
    alpha's minor on the rows not in D and the columns in P is
    nonsingular, so the subsets are checked as minors, one batch_rank per
    minor size s.  Up to EXHAUSTIVE_SUBMATRIX_LIMIT subsets every minor is
    checked, gathered through the combination tables of _combinations: s
    ascending, then row combinations, then column combinations, each in
    itertools.combinations order.  (A size's stack then holds under 10**6
    entries.)  Beyond the limit, RANDOM_SUBMATRIX_TRIALS draws of a
    k-subset, from random.Random(0), are checked, by minor size in the order each size is first
    drawn, then in draw order.  The first singular minor in that order is
    named.  Failure indicates a bad reduction polynomial or a broken
    generator, so it raises rather than returning a flag.
    """
    alpha = np.array(alpha, dtype=np.int64)
    parity = n_a - k
    if math.comb(n_a, k) <= EXHAUSTIVE_SUBMATRIX_LIMIT:
        for s in range(1, min(k, parity) + 1):
            rows, cols = _combinations(k, s), _combinations(parity, s)
            # (row combination, column combination, s, s), flattened rows major
            stack = alpha[rows].take(cols, axis=2).transpose(0, 2, 1, 3).reshape(-1, s, s)
            t = _first_singular(field, stack)
            if t is not None:
                raise _singular(k, rows[t // len(cols)], cols[t % len(cols)])
        return
    rng = random.Random(0)
    drawn = np.zeros((RANDOM_SUBMATRIX_TRIALS, n_a), dtype=bool)
    for i in range(RANDOM_SUBMATRIX_TRIALS):
        drawn[i, rng.sample(range(n_a), k)] = True
    sizes = drawn[:, k:].sum(axis=1)
    first = np.unique(sizes, return_index=True)[1]
    for s in sizes[np.sort(first)].tolist():
        if s == 0:  # [I] alone is invertible
            continue
        picked = drawn[sizes == s]
        rows = np.nonzero(~picked[:, :k])[1].reshape(-1, s)  # each draw's rows, ascending
        cols = np.nonzero(picked[:, k:])[1].reshape(-1, s)
        t = _first_singular(field, alpha[rows[:, :, None], cols[:, None, :]])
        if t is not None:
            raise _singular(k, rows[t], cols[t])


def _first_singular(field: FieldSpec, stack: np.ndarray) -> int | None:
    """Index of the first singular matrix of a (B, s, s) stack, or None."""
    bad = np.flatnonzero(batch_rank(field, stack) != stack.shape[1])
    return int(bad[0]) if bad.size else None


def _singular(k: int, rows: np.ndarray, cols: np.ndarray) -> ValueError:
    """verify_mds's error for the minor of alpha on these rows and columns."""
    lost = set(rows.tolist())
    subset = tuple([i for i in range(k) if i not in lost] + [c + k for c in cols.tolist()])
    return ValueError(f"MDS check failed: columns {subset} are singular")


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
        return ((i + u - self.n_a + self.tau + 1) % self.k, i)

    def fault_tolerance(self) -> FaultToleranceReport:
        return fault_tolerance(self.n_a, self.k, self.tau)

    def to_json_dict(self) -> dict:
        return {"nA": self.n_a, "tau": self.tau, "alpha": self.alpha}

    @classmethod
    def from_json_dict(cls, d: dict, field: FieldSpec, k: int) -> "ClassASpec":
        """Load a spec, refusing an alpha that is not MDS (verify_mds raises)."""
        spec = cls(field, d["nA"], k, d["tau"], tuple(tuple(r) for r in d["alpha"]))
        _verified_mds(spec.alpha, spec.n_a, spec.k, spec.field)
        return spec


@functools.lru_cache(maxsize=16)  # a few codes per process, as for field tables
def _verified_mds(alpha: tuple[tuple[int, ...], ...], n_a: int, k: int, field: FieldSpec) -> None:
    """verify_mds, once per value: a caller that rebuilds or reloads its
    spec per command (as the CLI does) checks it once.  A failed check
    raises, and lru_cache never stores an exception.  alpha does not depend
    on tau, so verify_sweep's shapes need at most 12 entries."""
    verify_mds(alpha, n_a, k, field)


def _compact(field: FieldSpec):
    """The smallest unsigned dtype holding every element of the field.

    It also holds every class-A node index, as n_a < q.
    """
    return np.uint8 if field.q <= 256 else np.uint16


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
    """Every stored symbol of the CodeSpec `code` as a form over the data
    symbols.

    Entry [c, i, j, r] is the coefficient of data symbol d[r][j] in
    symbol i of node c: a data symbol, an MDS row plus its piggyback, or
    a sum.
    """
    k, n_a = code.k, code.n_a
    rows = np.arange(k)
    gen = np.zeros((code.n, k, k, k), dtype=_compact(code.field))
    gen[rows[:, None], rows, rows[:, None], rows] = 1
    gen[k:n_a, rows, :, rows] = np.array(code.class_a.alpha).T
    for c in code.class_a.piggybacked_columns:
        r, j = code.class_a.piggyback_source(rows, c)
        gen[c, rows, j, r] = 1
    for c in range(n_a, code.n):
        for t, par in enumerate(code.class_b.node_parities(c)):
            for r, j in par:
                gen[c, t, j, r] = 1
    gen.flags.writeable = False
    return gen


def _over(forms: np.ndarray, nodes: list[int]) -> np.ndarray:
    """(F, k, k) forms over the data symbols of `nodes`, node by node."""
    return forms[:, nodes].reshape(len(forms), len(nodes) * forms.shape[2]).astype(np.int64)


def _rotation_parities(spec: ClassASpec, failed: list[int], alive: list[int], erased: set[int]):
    """The parity nodes the paper's rotation schedule reads, or None.

    One node per failed data node: theta = min(phi, surviving plain MDS
    nodes) plain MDS nodes, then the first zeta = phi - theta surviving
    piggybacked nodes by shift.  The schedule walks rows backwards from
    the end of a run of tau' intact data nodes, tau' the largest shift
    used, so that every piggyback is cleaned with data already known.
    None when fewer than zeta piggybacked nodes survive or no such run
    exists.
    """
    k, n_a, tau = spec.k, spec.n_a, spec.tau
    plain = [c for c in range(k, n_a - tau) if c not in erased]
    piggy = [c for c in spec.piggybacked_columns if c not in erased]
    theta = min(len(failed), len(plain))
    zeta = len(failed) - theta
    used = piggy[:zeta]
    if len(used) < zeta:
        return None
    tau_prime = used[-1] - (n_a - tau - 1) if used else 0
    if not any(all((start + off) % k in alive for off in range(tau_prime)) for start in range(k)):
        return None
    return plain[:theta] + used


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def decode_plan(code, erased: tuple[int, ...]) -> RepairPlan:
    """Compile the decode of one erasure pattern; cached by value.

    `code` is a CodeSpec (pbdss.repair); `erased` lists the erased nodes in
    increasing order.  Row s * k + i of the matrix is symbol i of node
    erased[s] over the reads; the matrix is None when the pattern is not
    decodable, `rank` then the rank of the surviving class-A symbols.  With
    only parity nodes erased it is their generator rows (encode replays
    those of every parity node).  The lost data symbols come from one
    elimination over the class-A parity nodes that the rotation schedule
    reads (_rotation_parities), or over every surviving class-A parity where
    the schedule cannot order the pattern.  Where it can, its phi nodes give
    k^2 reads for the k^2 data symbols, so the decode matrix is the one
    solution of a square system.  Each erased parity symbol is its generator
    form over the data, with every lost data symbol replaced by its own
    form, so erased sum-parity nodes are re-encoded too: they never take
    part in correction.
    """
    f, k, n_a = code.field, code.k, code.n_a
    compact = _compact(f)
    at = positions(code.n, k)

    def plan(slots: list[int], matrix, rank: int) -> RepairPlan:
        return RepairPlan(
            f,
            tuple(at[node][row] for node in slots for row in range(k)),
            matrix,
            error=f"erasure pattern {[j for j in erased if j < n_a]} is not decodable",
            rank=rank,
            needed=k * k,
        )

    lost_nodes = set(erased)
    failed = [j for j in erased if j < k]
    alive = [j for j in range(k) if j not in lost_nodes]
    gen = _generator(code)
    # erased parity symbols over the data, read node by node
    forms = gen[list(erased[len(failed) :])].reshape(-1, k, k)
    slots = alive if len(erased) else []  # an empty pattern reads nothing
    matrix = _over(forms, slots)
    if failed:
        parities = _rotation_parities(code.class_a, failed, alive, lost_nodes) or [
            c for c in range(k, n_a) if c not in lost_nodes
        ]
        read_forms = gen[parities].reshape(-1, k, k)
        # the row operations L that solve the read parities for the lost
        # data turn [-A | I], A their forms over the alive data, into the
        # decode matrix [-L A | L]
        eye = np.eye(len(read_forms), dtype=np.int64)
        rhs = np.concatenate([array_sub(f, 0, _over(read_forms, alive)), eye], axis=1)
        rank, lost = eliminate(f, _over(read_forms, failed), rhs)
        if rank < k * len(failed):
            return plan(alive, None, k * len(alive) + rank)
        lost = lost[:rank]
        slots = alive + parities
        if len(forms):
            direct = np.zeros((len(forms), lost.shape[1]), dtype=np.int64)
            direct[:, : matrix.shape[1]] = matrix
            through = matmul(f, array_sub(f, 0, _over(forms, failed)), lost)
            lost = np.concatenate([lost, array_sub(f, direct, through)])
        matrix = lost
    return plan(slots, matrix.astype(compact), k * k)
