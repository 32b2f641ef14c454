"""MDS-plus-piggyback parity nodes: construction, fault tolerance, decoding.

A code of length n_a over k data nodes starts from a systematic (n_a, k)
MDS code applied row by row.  The last tau parity columns then each absorb
one extra data symbol per row (a piggyback), which later lets a repair
recover tau column symbols at one additional read each.  Piggybacks cost
fault tolerance; fault_tolerance() quantifies exactly how much.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from .gf import (
    FieldSpec,
    batch_rank,
    rank_batch_len,
    smallest_field_of_order_at_least,
    solve_values,
    solve_values_dense,
)
from .layout import CodeArray, DataArray, mod_k

EXHAUSTIVE_SUBMATRIX_LIMIT = 10**5
RANDOM_SUBMATRIX_TRIALS = 10**4


class UnrecoverableErasureError(ValueError):
    """The erasure pattern exceeds what the code can correct."""

    def __init__(self, message: str, rank: int | None = None, needed: int | None = None):
        super().__init__(message)
        self.rank = rank
        self.needed = needed


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
    alternating data failures ((0, 2, 4) at k = 6), which _rank_decode
    recovers for the RS defaults.  For arbitrary MDS coefficients f is not
    a guarantee there: at (6, 9, 2) an MDS block over GF(11) tolerates only
    2 failures (tests/test_oracle.py pins it).  The paper's abstract does
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
    points = list(range(1, n_a + 1))
    vand = [[field.pow(x, e) for x in points] for e in range(k)]
    lead = [row[:k] for row in vand]
    cols = []
    for j in range(k, n_a):
        rhs = [row[j] for row in vand]
        res = solve_values(field, lead, rhs)
        if res.solution is None:
            raise ValueError("degenerate evaluation points")
        cols.append([s.value for s in res.solution])
    alpha = [[cols[j][i] for j in range(n_a - k)] for i in range(k)]
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
        return cls(field, d["nA"], k, d["tau"], tuple(tuple(r) for r in d["alpha"]))


def encode_class_a(data: DataArray, spec: ClassASpec, counter=None) -> list[list[int]]:
    """k x (n_a - k) parity block: plain MDS columns then piggybacked ones."""
    if data.field != spec.field:
        raise ValueError("data array and spec use different fields")
    if data.k != spec.k:
        raise ValueError("data array dimension does not match spec")
    f = spec.field
    k = spec.k
    parities = []
    for i in range(k):
        row = []
        for j in range(k, spec.n_a):
            acc = 0
            for l in range(k):
                acc = f.add(acc, f.mul(spec.alpha[l][j - k], data.rows[i][l]))
            if counter is not None:
                counter.muls += k
                counter.adds += k - 1
            row.append(acc)
        parities.append(row)
    for u in spec.piggybacked_columns:
        for i in range(k):
            src = spec.piggyback_source(i, u)
            parities[i][u - k] = f.add(parities[i][u - k], data[src])
            if counter is not None:
                counter.adds += 1
    return parities


def _available_run_start(k: int, alive_data: set[int], length: int) -> int | None:
    """First start of `length` consecutive available data nodes, scanning all rotations."""
    if length == 0:
        return 0
    for start in range(k):
        if all(mod_k(start + off, k) in alive_data for off in range(length)):
            return start
    return None


def decode_multi_class_a(
    array: CodeArray,
    spec: ClassASpec,
    erased_nodes: set[int] | None = None,
) -> dict[int, list[int]]:
    """Recover all erased columns among nodes [0, n_a).

    Runs the piggyback-stripping rotation schedule: find a run of tau'
    consecutive available data nodes, then walk rows backwards from the
    end of the run, recovering each row with an MDS solve after the
    needed piggybacked parities have been cleaned with already-known
    data.  Erased parity columns are re-encoded afterwards.

    Patterns the schedule cannot order (no long-enough run) fall back to
    the generic rank decoder over the symbol-level code.
    """
    k, n_a = spec.k, spec.n_a
    if erased_nodes is None:
        erased_nodes = {
            j for j in range(n_a) if any(array.erased[i][j] for i in range(k))
        }
    erased_nodes = set(erased_nodes)
    if any(not 0 <= j < n_a for j in erased_nodes):
        raise ValueError("erased node index outside class A code")

    failed_data = sorted(j for j in erased_nodes if j < k)
    failed_parity = sorted(j for j in erased_nodes if j >= k)
    known = {
        (i, j): array.rows[i][j]
        for j in range(k)
        if j not in erased_nodes
        for i in range(k)
    }

    if failed_data:
        ok = _schedule_decode(array, spec, failed_data, erased_nodes, known)
        if not ok:
            _rank_decode(array, spec, erased_nodes, known)

    columns = {j: [known[(i, j)] for i in range(k)] for j in range(k)}
    if failed_parity:
        data = DataArray(spec.field, [[known[(i, j)] for j in range(k)] for i in range(k)])
        parities = encode_class_a(data, spec)
        for j in failed_parity:
            columns[j] = [parities[i][j - k] for i in range(k)]
    return columns


def _schedule_decode(array, spec, failed_data, erased_nodes, known) -> bool:
    f = spec.field
    k, n_a, tau = spec.k, spec.n_a, spec.tau
    phi = len(failed_data)
    nonmod_alive = [c for c in range(k, n_a - tau) if c not in erased_nodes]
    piggy_alive_t = [
        t for t in range(1, tau + 1) if (n_a - tau - 1 + t) not in erased_nodes
    ]
    theta = min(phi, len(nonmod_alive))
    zeta = phi - theta
    if zeta > len(piggy_alive_t):
        return False
    used_t = piggy_alive_t[:zeta]
    tau_prime = used_t[-1] if used_t else 0

    alive_data = {j for j in range(k) if j not in erased_nodes}
    start = _available_run_start(k, alive_data, tau_prime)
    if start is None:
        return False

    parity_cols = nonmod_alive[:theta] + [n_a - tau - 1 + t for t in used_t]
    alive_in_row = [j for j in range(k) if j in alive_data]

    # Walk rows backwards from the end of the run; piggyback sources for
    # row r live in column r, rows r+1..r+tau', which are already known
    # (alive column, or recovered in the previous steps).
    r = mod_k(start + tau_prime - 1, k)
    for _ in range(k):
        rhs = []
        for c in parity_cols:
            val = array.rows[r][c]
            if c >= n_a - tau:
                t = c - (n_a - tau - 1)
                src = (mod_k(r + t, k), r)
                if src not in known:
                    return False
                val = f.sub(val, known[src])
            for j in alive_in_row:
                val = f.sub(val, f.mul(spec.alpha[j][c - k], known[(r, j)]))
            rhs.append(val)
        a_rows = [[spec.alpha[j][c - k] for j in failed_data] for c in parity_cols]
        res = solve_values(f, a_rows, rhs)
        if res.solution is None:
            return False
        for j, s in zip(failed_data, res.solution):
            known[(r, j)] = s.value
        r = mod_k(r - 1, k)
    return True


def _rank_decode(array, spec, erased_nodes, known) -> None:
    """Solve for all k^2 data symbols from every intact stored symbol."""
    f = spec.field
    k, n_a, tau = spec.k, spec.n_a, spec.tau
    rows, rhs = [], []
    nvars = k * k
    for c in range(n_a):
        if c in erased_nodes:
            continue
        for i in range(k):
            coeff = [0] * nvars
            if c < k:
                coeff[i * k + c] = 1
            else:
                for l in range(k):
                    coeff[i * k + l] = spec.alpha[l][c - k]
                if c >= n_a - tau:
                    pi, pj = spec.piggyback_source(i, c)
                    coeff[pi * k + pj] = f.add(coeff[pi * k + pj], 1)
            rows.append(coeff)
            rhs.append(array.rows[i][c])
    res = solve_values_dense(f, rows, rhs)
    if res.solution is None:
        raise UnrecoverableErasureError(
            f"erasure pattern {sorted(erased_nodes)} is not decodable",
            rank=res.rank,
            needed=nvars,
        )
    for i in range(k):
        for j in range(k):
            known[(i, j)] = res.solution[i * k + j].value
