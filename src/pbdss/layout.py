"""Data/code arrays, stripes, and the combinatorial index sets R_j, Q_j, X_j.

Positions are (row, column) pairs into the k x k data array.  The three
families that drive both parity constructions:

  R_j  row-j positions read to start repairing node j (k-1 of them),
  Q_j  column-j positions that the MDS-plus-piggyback stage cannot repair
       cheaply (k-tau-1 of them),
  X_j  the prefix of R_j that lands inside some Q set: X_j = R_j n (U_l Q_l).

All sets are produced in increasing-offset order so downstream iteration
is deterministic.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .gf import FieldSpec

Position = tuple[int, int]

ARRAY_MAGIC = b"PBDSS1"


def mod_k(a: int, k: int) -> int:
    """Mathematical mod: result in [0, k) even for negative a."""
    return a % k


def r_set(j: int, k: int) -> list[Position]:
    return [(j, mod_k(j + s, k)) for s in range(1, k)]


def q_set(j: int, k: int, tau: int) -> list[Position]:
    return [(mod_k(j + s, k), j) for s in range(tau + 1, k)]


def x_set(j: int, k: int, tau: int) -> list[Position]:
    return [(j, mod_k(j + s, k)) for s in range(1, k - tau)]


class IndexSetTriple(NamedTuple):
    r: list[Position]
    q: list[Position]
    x: list[Position]


def index_sets(j: int, k: int, tau: int) -> IndexSetTriple:
    """(R_j, Q_j, X_j) for node j; requires 0 <= j < k and 1 <= tau <= k-2."""
    if not 0 <= j < k:
        raise ValueError(f"node index {j} out of range for k={k}")
    if not 1 <= tau <= k - 2:
        raise ValueError(f"tau={tau} outside [1, {k - 2}]")
    return IndexSetTriple(r_set(j, k), q_set(j, k, tau), x_set(j, k, tau))


def in_q_set(pos: Position, k: int, tau: int) -> bool:
    i, j = pos
    return mod_k(i - j, k) > tau


@dataclass
class DataArray:
    """k x k matrix of field-element values, entry d[i][j] at row i, col j."""

    field: FieldSpec
    rows: list[list[int]]

    def __post_init__(self):
        k = len(self.rows)
        if any(len(r) != k for r in self.rows):
            raise ValueError("data array must be square")
        q = self.field.q
        if any(not 0 <= v < q for r in self.rows for v in r):
            raise ValueError("symbol value out of field range")

    @property
    def k(self) -> int:
        return len(self.rows)

    def __getitem__(self, pos: Position) -> int:
        return self.rows[pos[0]][pos[1]]

    @classmethod
    def random(cls, field: FieldSpec, k: int, rng) -> "DataArray":
        return cls(field, [[rng.randrange(field.q) for _ in range(k)] for _ in range(k)])

    @classmethod
    def zeros(cls, field: FieldSpec, k: int) -> "DataArray":
        return cls(field, [[0] * k for _ in range(k)])


@dataclass
class CodeArray:
    """k x n array of stored symbols plus a per-symbol erasure mask.

    Column j is node j; row i is stripe i.  Columns [0, k) are systematic,
    [k, n_a) hold the MDS/piggyback parities and [n_a, n) the sum parities.
    """

    field: FieldSpec
    k: int
    n: int
    rows: list[list[int]]
    erased: list[list[bool]]

    def __post_init__(self):
        if len(self.rows) != self.k or any(len(r) != self.n for r in self.rows):
            raise ValueError("code array must be k x n")
        if len(self.erased) != self.k or any(len(r) != self.n for r in self.erased):
            raise ValueError("erasure mask must be k x n")

    def get(self, row: int, node: int) -> int:
        if self.erased[row][node]:
            raise ValueError(f"symbol ({row}, {node}) is erased")
        return self.rows[row][node]

    def erased_nodes(self) -> set[int]:
        """Every node with at least one masked symbol."""
        return set(itertools.compress(range(self.n), map(any, zip(*self.erased))))

    def erase_nodes(self, nodes) -> None:
        for node in nodes:
            for i in range(self.k):
                self.erased[i][node] = True

    def data_columns(self) -> list[list[int]]:
        return [[self.rows[i][j] for i in range(self.k)] for j in range(self.k)]

    def copy(self) -> "CodeArray":
        return CodeArray(
            self.field,
            self.k,
            self.n,
            [list(r) for r in self.rows],
            [list(r) for r in self.erased],
        )


def write_code_array(array: CodeArray) -> bytes:
    """Serialize to the PBDSS1 binary layout.

    Header: magic, k, n, p, m, reduction length, reduction coefficients
    (all little-endian u16); then row-major symbols as u16; then the
    erasure mask row-major, one bit per symbol, LSB first.
    """
    field = array.field
    head = ARRAY_MAGIC + struct.pack(
        "<5H", array.k, array.n, field.p, field.m, len(field.reduction)
    )
    head += struct.pack(f"<{len(field.reduction)}H", *field.reduction)
    body = struct.pack(f"<{array.k * array.n}H", *itertools.chain.from_iterable(array.rows))
    mask = np.packbits(np.array(array.erased, dtype=bool).reshape(-1), bitorder="little")
    return head + body + mask.tobytes()


def _need(blob: bytes, off: int, size: int, part: str) -> None:
    if len(blob) < off + size:
        raise ValueError(
            f"truncated PBDSS1 array: {part} needs bytes {off}..{off + size}, file has {len(blob)}"
        )


def read_code_array(blob: bytes) -> CodeArray:
    if blob[:6] != ARRAY_MAGIC:
        raise ValueError("bad magic: not a PBDSS1 array")
    off = len(ARRAY_MAGIC)
    _need(blob, off, 10, "header")
    k, n, p, m, red_len = struct.unpack_from("<5H", blob, off)
    off += 10
    _need(blob, off, 2 * red_len, "reduction polynomial")
    reduction = struct.unpack_from(f"<{red_len}H", blob, off)
    off += 2 * red_len
    field = FieldSpec(p, m, reduction)
    _need(blob, off, 2 * k * n, "symbols")
    flat = struct.unpack_from(f"<{k * n}H", blob, off)
    off += 2 * k * n
    if flat and max(flat) >= field.q:
        raise ValueError(f"symbol value {max(flat)} out of range for {field}")
    rows = [list(flat[i * n : (i + 1) * n]) for i in range(k)]
    mask_len = (k * n + 7) // 8
    _need(blob, off, mask_len, "erasure mask")
    if len(blob) > off + mask_len:
        raise ValueError(
            f"PBDSS1 array has {len(blob) - off - mask_len} trailing bytes after the erasure mask "
            f"(bytes {off + mask_len}..{len(blob)})"
        )
    mask = np.frombuffer(blob, dtype=np.uint8, count=mask_len, offset=off)
    erased = np.unpackbits(mask, count=k * n, bitorder="little").astype(bool).reshape(k, n)
    return CodeArray(field, k, n, rows, erased.tolist())
