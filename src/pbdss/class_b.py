"""Low-read-cost sum-parity nodes (Class B), two constructions.

Construction 1 is a closed form: parity t of node l takes one column-t
symbol that the first-stage code repairs expensively, plus a run of row-t
symbols that a repair session has already cached.  Reading that single
parity then recovers the column symbol at one additional read.

Construction 2 (even k only) rebuilds the later nodes greedily, pairing a
column symbol d_{i,j} with its transpose d_{j,i} whenever possible; the
pairing shaves one read off the repair of d_{j,i} because d_{i,j} sits in
the row cached when node i is repaired.  A matrix of current read costs
steers the selection and is refreshed after every node.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from math import inf

from .layout import Position, in_q_set, q_set, x_set

logger = logging.getLogger(__name__)

ReadCostMatrix = list[list[float]]

SENTINEL: Position = (-1, -1)


@dataclass(frozen=True)
class ClassBSpec:
    """Sum-parity definitions: node-major, then parity-major index lists.

    parities[l - n_a][t] lists the data positions summed into parity t of
    node l; all coefficients are 1.  Empty lists mark padded parities of a
    short final node.
    """

    k: int
    tau: int
    n_a: int
    n_b: int
    construction: int
    parities: tuple[tuple[tuple[Position, ...], ...], ...]

    def __post_init__(self):
        if not self.n_b < 2 * self.k - self.tau:
            raise ValueError(f"need n_b < 2k - tau, got n_b={self.n_b}")
        if self.n_b < self.k:
            raise ValueError("n_b must be at least k")
        if len(self.parities) != self.n_b - self.k:
            raise ValueError("one parity list per class B node required")
        for node in self.parities:
            if len(node) != self.k:
                raise ValueError("each class B node stores k parity symbols")
            for par in node:
                if len(set(par)) != len(par):
                    raise ValueError("duplicate position inside one parity")
                if any(len(pos) != 2 or not all(0 <= x < self.k for x in pos) for pos in par):
                    raise ValueError(f"parity position outside the {self.k} x {self.k} data array")
        # hashed by every plan lookup of its code: once, outside the fields
        fields = (self.k, self.tau, self.n_a, self.n_b, self.construction, self.parities)
        object.__setattr__(self, "_hash", hash(fields))

    def __hash__(self) -> int:
        return self._hash

    @property
    def n(self) -> int:
        return self.n_a + self.n_b - self.k

    def node_parities(self, node: int) -> tuple[tuple[Position, ...], ...]:
        return self.parities[node - self.n_a]

    def covering_parities(self, pos: Position) -> list[tuple[int, int]]:
        """(node, t) pairs whose parity includes pos."""
        out = []
        for off, node in enumerate(self.parities):
            for t, par in enumerate(node):
                if pos in par:
                    out.append((self.n_a + off, t))
        return out

    def to_json_dict(self) -> dict:
        return {
            "nB": self.n_b,
            "construction": self.construction,
            "parities": self.parities,
        }

    @classmethod
    def from_json_dict(cls, d: dict, k: int, tau: int, n_a: int) -> "ClassBSpec":
        nodes = tuple(
            tuple(tuple(tuple(pos) for pos in par) for par in node)
            for node in d["parities"]
        )
        return cls(k, tau, n_a, d["nB"], d["construction"], nodes)


def _check_b_params(k: int, n_a: int, n_b: int, tau: int) -> None:
    # tau = 0 is the plain-MDS degenerate case; only sensible with n_b = k.
    if not 0 <= tau <= k - 2:
        raise ValueError(f"tau={tau} outside [0, {k - 2}]")
    if not k <= n_b < 2 * k - tau:
        raise ValueError(f"need k <= n_b < 2k - tau, got n_b={n_b}")
    if not k + 2 <= n_a < 2 * k:
        raise ValueError(f"need k+2 <= n_a < 2k, got n_a={n_a}")


def construct1_node(k: int, n_a: int, tau: int, l: int, *, remark1: bool = False):
    """Parities of node l per the sequential closed form."""
    node = []
    for t in range(k):
        terms: list[Position] = [((tau + 1 - n_a + l + t) % k, t)]
        if not remark1:
            for j in range(k - tau - 2 + n_a - l):
                terms.append((t, (1 + j + t) % k))
        node.append(tuple(terms))
    return tuple(node)


def construct1_parities(
    k: int, n_a: int, n_b: int, tau: int, *, remark1: bool = False
) -> ClassBSpec:
    """Closed-form construction of all n_b - k nodes.

    remark1 drops the row-symbol sums, valid only in the full-complement
    case n_b - k = k - tau - 1; it keeps the repair bandwidth and lowers
    the addition count, but the nodes are no longer puncturable.
    """
    _check_b_params(k, n_a, n_b, tau)
    if remark1 and n_b - k != k - tau - 1:
        raise ValueError("remark1 variant requires n_b - k == k - tau - 1")
    n = n_a + n_b - k
    nodes = tuple(construct1_node(k, n_a, tau, l, remark1=remark1) for l in range(n_a, n))
    return ClassBSpec(k, tau, n_a, n_b, 1, nodes)


# -- read-cost machinery for the heuristic ----------------------------------


def init_read_cost(k: int, tau: int) -> ReadCostMatrix:
    """Costs after the first-stage repair: inf on uncovered column symbols,
    k on the diagonal, 1 elsewhere."""
    a: ReadCostMatrix = [[1.0] * k for _ in range(k)]
    for i in range(k):
        a[i][i] = float(k)
    for j in range(k):
        for pos in q_set(j, k, tau):
            a[pos[0]][pos[1]] = inf
    return a


def psi_argmax(matrix, positions) -> list[Position]:
    """All positions attaining the maximum entry, in row-major order."""
    if not positions:
        raise ValueError("empty index set")
    best = max(matrix[i][j] for i, j in positions)
    return sorted((i, j) for i, j in positions if matrix[i][j] == best)


def read_cost(d: Position, parity, k: int, tau: int) -> int:
    """Additional reads to recover d through this parity.

    Counts the parity terms outside the row cached when d's node is
    repaired (d itself stands in for the parity symbol read).
    """
    if d not in parity:
        raise ValueError("symbol is not part of the parity")
    if not in_q_set(d, k, tau):
        raise ValueError(f"{d} is not in any Q set")
    xj = set(x_set(d[1], k, tau))
    return sum(1 for pos in parity if pos not in xj)


def update_read_cost(a: ReadCostMatrix, node_parities, k: int, tau: int) -> ReadCostMatrix:
    """Refresh costs of every symbol used by the node; never worsens a cost."""
    out = [row[:] for row in a]
    for par in node_parities:
        for pos in par:
            c = read_cost(pos, par, k, tau)
            if c < out[pos[0]][pos[1]]:
                out[pos[0]][pos[1]] = float(c)
    return out


# -- heuristic node construction ---------------------------------------------
#
# The selection rules among equal-cost candidates are pinned down so the
# benchmark repair-bandwidth figures for the heuristic, and the (7,4)
# reference configuration, come out exactly:
#   * argmax sets break ties row-major (lowest (i, j) first);
#   * among argmax candidates, one whose transpose partner is free in
#     X_j is preferred;
#   * the partner slot scans X_j in definition order (columns j+1, j+2,
#     ... cyclically) and takes the first candidate passing the cost
#     guard; later extension slots scan the same order reversed;
#   * when X_j is exhausted, the fill-in symbol is the row-major lowest
#     free position overall (preferring chain-linked rows here
#     measurably worsens the resulting codes);
#   * a parity is complete once it holds rho_l entries, sentinels
#     included; sentinels never enter the stored parity.


class _NodeBuilder:
    def __init__(self, a: ReadCostMatrix, k: int, tau: int, rho: int, used_q: set[Position]):
        self.a = a
        self.k = k
        self.tau = tau
        self.rho = rho
        self.used_q = used_q
        self.parities: list[list[Position]] = [[] for _ in range(k)]
        self.sizes = [0] * k  # includes sentinel padding
        self.q_col: list[int | None] = [None] * k
        self.union: set[Position] = set()
        self.q_sets = [q_set(j, k, tau) for j in range(k)]
        self.x_sets = [x_set(j, k, tau) for j in range(k)]

    def _free_q(self, j: int) -> list[Position]:
        return [p for p in self.q_sets[j] if p not in self.union and p not in self.used_q]

    def _free_x(self, j: int) -> list[Position]:
        return [p for p in self.x_sets[j] if p not in self.union]

    def _add(self, t: int, pos: Position) -> None:
        if pos != SENTINEL:
            self.parities[t].append(pos)
            self.union.add(pos)
        self.sizes[t] += 1

    def seed(self) -> None:
        """Give every parity its column symbol and, when possible, the
        transpose partner that makes the pairing observation bite."""
        t, j = 0, 0
        stalls = 0
        while min(self.sizes) < 2 and stalls < self.k:
            if self.sizes[t] >= 2:
                t = (t + 1) % self.k
                continue
            candidates = self._free_q(j)
            if not candidates:
                j = (j + 1) % self.k
                stalls += 1
                continue
            stalls = 0
            best = psi_argmax(self.a, candidates)
            paired = [
                (i, jj)
                for (i, jj) in best
                if (jj, i) in self.x_sets[jj]
                and (jj, i) not in self.union
                and self.a[jj][i] > 1
            ]
            if paired:
                i, jj = paired[0]
                self.q_col[t] = jj
                self._add(t, (i, jj))
                self._add(t, (jj, i))
            else:
                i, jj = best[0]
                self.q_col[t] = jj
                self._add(t, (i, jj))
                partner = self._pick_x(t, jj)
                self._add(t, partner if partner is not None else SENTINEL)
            t = (t + 1) % self.k
            j = (j + 1) % self.k

        while min(self.sizes) < 2:  # every column symbol already consumed
            t = self.sizes.index(min(self.sizes))
            self._add(t, SENTINEL)

    def _guard_passing(self, t: int, j: int) -> list[Position]:
        """Free X_j symbols whose cost would strictly improve in this parity."""
        out = []
        for pos in self._free_x(j):
            jj, i = pos
            if self.a[jj][i] > 1 and read_cost(
                pos, self.parities[t] + [pos], self.k, self.tau
            ) < self.a[jj][i]:
                out.append(pos)
        return out

    def _pick_x(self, t: int, j: int) -> Position | None:
        passing = self._guard_passing(t, j)
        return passing[0] if passing else None

    def extend(self) -> None:
        """Grow each parity to rho terms, one symbol per parity per round."""
        for _ in range(self.rho - 2):
            for t in range(self.k):
                if self.sizes[t] >= self.rho:
                    continue
                j = self.q_col[t]
                if j is None:
                    self._add(t, SENTINEL)
                    continue
                passing = self._guard_passing(t, j)
                if passing:
                    self._add(t, passing[-1])
                    continue
                if self._free_x(j):
                    # candidates exist but none passes the cost guard
                    self._add(t, SENTINEL)
                    continue
                self._add(t, self._fallback() or SENTINEL)

    def _fallback(self) -> Position | None:
        pool = [p for j1 in range(self.k) for p in self._free_x(j1)]
        return min(pool) if pool else None

    def result(self):
        return tuple(tuple(par) for par in self.parities)


def construct_node_heuristic(
    a: ReadCostMatrix, rho: int, used_q: set[Position], k: int, tau: int
):
    """One greedy node of parities with at most rho terms each."""
    if rho < 2:
        raise ValueError("heuristic node construction needs rho >= 2")
    builder = _NodeBuilder(a, k, tau, rho, used_q)
    builder.seed()
    builder.extend()
    return builder.result()


def construct_last_node(a: ReadCostMatrix, used_q: set[Position], k: int, tau: int):
    """Single-symbol parities from the costliest still-uncovered positions."""
    all_q = [p for j in range(k) for p in q_set(j, k, tau)]
    remaining = [p for p in all_q if p not in used_q]
    node = []
    for _ in range(k):
        if not remaining:
            node.append(())
            continue
        pick = psi_argmax(a, remaining)[0]
        remaining.remove(pick)
        node.append((pick,))
    if any(not par for par in node):
        logger.warning("last class B node is short: %d empty parities",
                       sum(1 for par in node if not par))
    return tuple(node)


def construct2_parities(k: int, n_a: int, n_b: int, tau: int) -> ClassBSpec:
    """Heuristic construction; falls back to the closed form when it does
    not apply (odd k, or k < 2(tau+1))."""
    _check_b_params(k, n_a, n_b, tau)
    if k % 2 or k < 2 * (tau + 1):
        spec = construct1_parities(k, n_a, n_b, tau)
        return ClassBSpec(k, tau, n_a, n_b, 2, spec.parities)
    n = n_a + n_b - k
    a = init_read_cost(k, tau)
    used_q: set[Position] = set()
    nodes = []
    for l in range(n_a, n):
        rho = k - tau - 1 - l + n_a
        if l <= n_a + k // 2 - tau - 2:
            node = construct1_node(k, n_a, tau, l)
        elif rho > 1:
            node = construct_node_heuristic(a, rho, used_q, k, tau)
        else:
            node = construct_last_node(a, used_q, k, tau)
        used_q.update(par[0] for par in node if par)
        a = update_read_cost(a, node, k, tau)
        nodes.append(node)
    return ClassBSpec(k, tau, n_a, n_b, 2, tuple(nodes))
