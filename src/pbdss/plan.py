"""Compiled repair plans and the one executor that replays them.

A repair, an encode or a multi-node decode does the same arithmetic
whatever the data, so each is compiled once into a RepairPlan: the
symbols it reads, in read order, and one GF(q) matrix from those reads to
the symbols it outputs.  When a plan is built, its matrix is also
compiled into the form the executor streams (Terms): the logs of its
nonzero coefficients, the read each one multiplies, and where each
output's terms start.  The first replay over an array of a given width
turns each term's read into its flat offset in that array, once.
`replay` then takes every term's stored value in one flat gather, does
one log lookup, one add and one exp lookup per term and one segment sum
per output, so its work follows the nonzero terms that the paper's
repair complexity counts, not the size of the matrix; every plan runs
through it.  `execute` replays a repair session: it also returns a copy
of the session's read trace, which the plan holds prebuilt, and adds the
field-operation counts that the plan's stages recorded at compile time
to the caller's counter.  Nothing here knows the schedules that build
plans.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

import numpy as np

from .gf import FieldSpec, _add_reduce, rank_batch_len

NodePos = tuple[int, int]  # (node, row)

# Decode plans are cached by value, one per erasure pattern (and the
# PBDSS1 reader's unpacked masks with them).  The bound holds every
# pattern of up to three erased nodes of a 16-node code (16 + 120 + 560),
# the longest code the exhaustive oracle takes.
PLAN_CACHE_SIZE = sum(math.comb(16, t) for t in range(1, 4))


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

    def copy(self) -> "ReadTrace":
        """An independent trace: its own read list, cache and per-symbol counts."""
        return ReadTrace(self.reads.copy(), self.cache.copy(), self.per_symbol.copy())

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
    same plan; walking the stages through a ReadTrace gives the sources
    each one reads for the first time.  `adds` and `muls` count the field
    operations the schedule spends on this symbol.
    """

    kind: str  # row-mds, piggyback, sum, fallback, mds-parity, sum-parity or decode
    symbol: NodePos
    parity: NodePos | None  # the parity symbol the stage solves through, if any
    coeffs: tuple[int, ...]
    sources: tuple[NodePos, ...]
    adds: int
    muls: int


class Terms(NamedTuple):
    """A plan's matrix in the form replay streams: its nonzero entries, row
    by row and, within a row, in read order.

    Term t multiplies read `reads[t]` by the coefficient whose log (in
    FieldSpec.tables) is `logs[t]`; row s sums the terms from
    `starts[s]` up to the next row's start.  A row with no nonzero entry
    keeps one zero term on read 0: its log is log 0, which sends the
    product into the zero pad of exp, so every row has a term and no
    replay needs a mask.  A replay gathers term t's value at the flat
    offset of `reads[t]` in the stored array (see RepairPlan.offsets).
    """

    logs: np.ndarray  # int32
    reads: np.ndarray  # int32
    starts: np.ndarray  # int32


def _terms(field: FieldSpec, matrix: np.ndarray) -> Terms:
    """Compile a matrix into its Terms."""
    log = field.tables.log
    keep = matrix != 0
    if keep.shape[1]:
        keep[:, 0] |= ~keep.any(axis=1)
    rows, cols = keep.nonzero()
    starts = np.zeros(len(matrix), dtype=np.int32)
    np.cumsum(keep.sum(axis=1)[:-1], out=starts[1:])
    return Terms(log[matrix[rows, cols]].astype(np.int32), cols.astype(np.int32), starts)


@dataclass(frozen=True, eq=False)
class RepairPlan:
    """Output symbol s = sum over t of matrix[s, t] * (stored symbol reads[t]).

    Matrix rows follow the (node, row) order of the output symbols.
    `matrix` is None when the plan's erasure pattern is not decodable;
    replaying it raises UnrecoverableErasureError(error, rank, needed).
    `stages` hold the schedule the matrix was composed from and its field-
    operation counts.  `trace` is the read trace a repair session logged
    while it was compiled (the session cache holds the reads and, in a
    data-node session, the repaired symbols too); execute returns a copy
    of it.  Only single-node repair plans carry one: encode and decode
    plans are replayed, never executed.  `terms` (the matrix as replay
    streams it) and the totals `adds` and `muls` of the stages are derived
    once, when the plan is built; `offsets` maps each stored-array width
    the plan has been replayed over to the flat intp offset of every
    term's read, row * width + node, built on the first replay at that
    width.
    """

    field: FieldSpec
    reads: tuple[NodePos, ...]
    matrix: np.ndarray | None
    stages: tuple[Stage, ...] = ()
    trace: ReadTrace | None = dc_field(default=None, repr=False)
    error: str = ""
    rank: int = 0
    needed: int = 0
    terms: Terms | None = dc_field(init=False, repr=False)
    offsets: dict[int, np.ndarray] = dc_field(init=False, repr=False)
    adds: int = dc_field(init=False)
    muls: int = dc_field(init=False)

    def __post_init__(self):
        terms = None if self.matrix is None else _terms(self.field, self.matrix)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "offsets", {})
        object.__setattr__(self, "adds", sum(s.adds for s in self.stages))
        object.__setattr__(self, "muls", sum(s.muls for s in self.stages))


@functools.lru_cache(maxsize=16)
def positions(n: int, k: int) -> tuple[tuple[NodePos, ...], ...]:
    """[node][row] -> (node, row): one tuple per position of an n-node,
    k-row array, shared by the stages and reads of every plan of that shape."""
    return tuple(tuple((node, row) for row in range(k)) for node in range(n))


def replay(plan: RepairPlan, stored: np.ndarray) -> np.ndarray:
    """The plan's outputs over `stored`, streamed through its terms.

    `stored` is a (k, n) integer array of stored symbols, giving (S,) int64
    outputs, or a (k, n, L) one, L symbols per (row, node) with each lane
    replayed independently, giving (S, L) outputs of its dtype.  Any
    memory order will do, and so will an array wider than the plan's
    code.  Each term's value is taken in one flat gather, at its offset
    for the array's width (_offsets); then one log lookup, one add of the
    coefficient's log and one exp lookup per term, and one segment sum
    per output (gf._add_reduce).  Lanes go a block at a time, gathered
    inside the block loop: besides the outputs, no temporary holds much
    more than gf.RANK_BATCH_ENTRIES entries per digit of an element,
    whatever L is.
    """
    if plan.matrix is None:
        raise UnrecoverableErasureError(plan.error, rank=plan.rank, needed=plan.needed)
    f, terms = plan.field, plan.terms
    at = _offsets(plan, stored.shape[1])
    if stored.ndim == 2:
        return _lanes(f, terms, stored.take(at))
    k, n, lanes = stored.shape
    out = np.empty((len(terms.starts), lanes), dtype=stored.dtype)
    step = rank_batch_len(len(terms.logs), f.m if f.p > 2 else 1)
    for lo in range(0, lanes, step):
        block = stored[:, :, lo : lo + step].reshape(k * n, -1)
        out[:, lo : lo + step] = _lanes(f, terms, block.take(at, axis=0))
    return out


def _offsets(plan: RepairPlan, width: int) -> np.ndarray:
    """The flat offset of each term's read in a (rows, width) array,
    row * width + node, built on the plan's first replay at that width."""
    at = plan.offsets.get(width)
    if at is None:
        nodes, rows = np.array(plan.reads, dtype=np.intp).reshape(-1, 2).T
        if len(nodes) and nodes.max() >= width:
            raise IndexError(f"index {nodes.max()} is out of bounds for axis 1 with size {width}")
        at = plan.offsets[width] = (rows * width + nodes)[plan.terms.reads]
    return at


def _lanes(field: FieldSpec, terms: Terms, values: np.ndarray) -> np.ndarray:
    """The (S,) or (S, L) outputs over the (T,) or (T, L) values of the terms."""
    if not len(terms.logs):  # the plan reads nothing: every output is 0
        return np.zeros((len(terms.starts), *values.shape[1:]), dtype=np.int64)
    exp, log = field.tables.exp, field.tables.log
    logs = terms.logs if values.ndim == 1 else terms.logs[:, None]
    return _add_reduce(field, exp[log.take(values) + logs], 0, terms.starts)


def execute(plan: RepairPlan, stored: np.ndarray, counter=None) -> tuple[np.ndarray, ReadTrace]:
    """Replay a single-node repair session: its outputs and a copy of the
    read trace the plan holds; the counts of its stages are added to
    `counter`."""
    out = replay(plan, stored)
    if plan.trace is None:
        raise ValueError("only a single-node repair plan carries a read trace")
    if counter is not None:
        counter.adds += plan.adds
        counter.muls += plan.muls
    return out, plan.trace.copy()
