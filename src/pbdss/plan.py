"""Compiled repair plans and the one executor that replays them.

A repair, an encode or a multi-node decode does the same arithmetic
whatever the data, so each is compiled once into a RepairPlan: the
symbols it reads, in read order, and one GF(q) matrix from those reads to
the symbols it outputs.  `replay` gathers the reads from the stored values
and applies the matrix; every plan runs through it.  `execute` replays a
repair session: it also rebuilds the session's read trace from the plan
and adds the field-operation counts that the plan's stages recorded at
compile time to the caller's counter.  Nothing here knows the schedules
that build plans.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field as dc_field

import numpy as np

from .gf import FieldSpec, matmul

NodePos = tuple[int, int]  # (node, row)


class UnrecoverableErasureError(ValueError):
    """The erasure pattern exceeds what the code can correct."""

    def __init__(self, message: str, rank: int | None = None, needed: int | None = None):
        super().__init__(message)
        self.rank = rank
        self.needed = needed


@dataclass
class ReadTrace:
    """Ordered log of (node, row) reads plus the session cache."""

    reads: list[NodePos] = dc_field(default_factory=list)
    cache: set[NodePos] = dc_field(default_factory=set)
    per_symbol: dict[NodePos, int] = dc_field(default_factory=dict)

    @property
    def total(self) -> int:
        return len(self.reads)

    def read(self, node: int, row: int) -> int:
        """Read one symbol unless cached; returns 1 if a read was issued."""
        pos = (node, row)
        if pos in self.cache:
            return 0
        self.reads.append(pos)
        self.cache.add(pos)
        return 1

    def to_json_dict(self) -> dict:
        return {
            "reads": [list(p) for p in self.reads],
            "perSymbol": {f"{n}:{r}": c for (n, r), c in self.per_symbol.items()},
            "total": self.total,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


@dataclass(frozen=True, slots=True)
class Stage:
    """One step of a compiled schedule: symbol = sum of coeffs[t] * sources[t].

    A source is a stored symbol, or the output of an earlier stage of the
    same plan.  `reads` are the sources read for the first time here; the
    other sources were already in the session cache.  `adds` and `muls`
    count the field operations the schedule spends on this symbol.
    """

    kind: str  # row-mds, piggyback, sum, fallback, mds-parity, sum-parity or decode
    symbol: NodePos
    parity: NodePos | None  # the parity symbol the stage solves through, if any
    coeffs: tuple[int, ...]
    sources: tuple[NodePos, ...]
    reads: tuple[NodePos, ...]
    adds: int
    muls: int


@dataclass(frozen=True, eq=False)
class RepairPlan:
    """Output symbol s = sum over t of matrix[s, t] * (stored symbol reads[t]).

    Matrix rows follow the (node, row) order of the output symbols.
    `matrix` is None when the plan's erasure pattern is not decodable;
    replaying it raises UnrecoverableErasureError(error, rank, needed).
    `stages` hold the schedule the matrix was composed from and its field-
    operation counts; `per_symbol` and `cache` rebuild the ReadTrace of
    each replay.
    """

    field: FieldSpec
    reads: tuple[NodePos, ...]
    matrix: np.ndarray | None
    stages: tuple[Stage, ...] = ()
    per_symbol: tuple[tuple[NodePos, int], ...] = ()
    cache: frozenset = frozenset()
    error: str = ""
    rank: int = 0
    needed: int = 0


@functools.lru_cache(maxsize=16)
def positions(n: int, k: int) -> tuple[tuple[NodePos, ...], ...]:
    """[node][row] -> (node, row): one tuple per position of an n-node,
    k-row array, shared by the stages and reads of every plan of that shape."""
    return tuple(tuple((node, row) for row in range(k)) for node in range(n))


def replay(plan: RepairPlan, stored) -> np.ndarray:
    """The plan's (S, L) outputs over `stored`: gather its reads, one product.

    `stored` holds the stored symbols: a list of k rows of n values (one
    lane, L = 1), or a (k, n, L) integer array, a block of L symbols per
    (row, node) with each lane replayed independently.  Only the plan's
    reads are touched.
    """
    if plan.matrix is None:
        raise UnrecoverableErasureError(plan.error, rank=plan.rank, needed=plan.needed)
    if isinstance(stored, np.ndarray):
        nodes, rows = np.array(plan.reads, dtype=np.intp).reshape(-1, 2).T
        values = stored[rows, nodes]
    else:
        values = np.array([stored[r][c] for c, r in plan.reads], dtype=np.int64)[:, None]
    return matmul(plan.field, plan.matrix, values)


def execute(plan: RepairPlan, stored, counter=None) -> tuple[np.ndarray, ReadTrace]:
    """Replay a repair session: its outputs and its read trace, rebuilt
    from the plan; the counts of its stages are added to `counter`."""
    out = replay(plan, stored)
    if counter is not None:
        counter.adds += sum(s.adds for s in plan.stages)
        counter.muls += sum(s.muls for s in plan.stages)
    return out, ReadTrace(list(plan.reads), set(plan.cache), dict(plan.per_symbol))
