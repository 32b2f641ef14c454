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

import functools
import itertools
import struct

import numpy as np

from .gf import FieldSpec, cached_field
from .plan import PLAN_CACHE_SIZE

Position = tuple[int, int]

ARRAY_MAGIC = b"PBDSS1"
_SYMBOL = np.dtype("<u2")  # a PBDSS1 symbol


def r_set(j: int, k: int) -> list[Position]:
    return [(j, (j + s) % k) for s in range(1, k)]


def q_set(j: int, k: int, tau: int) -> list[Position]:
    return [((j + s) % k, j) for s in range(tau + 1, k)]


def x_set(j: int, k: int, tau: int) -> list[Position]:
    return [(j, (j + s) % k) for s in range(1, k - tau)]


def index_sets(j: int, k: int, tau: int) -> tuple[list[Position], list[Position], list[Position]]:
    """(R_j, Q_j, X_j) for node j; requires 0 <= j < k and 1 <= tau <= k-2."""
    if not 0 <= j < k:
        raise ValueError(f"node index {j} out of range for k={k}")
    if not 1 <= tau <= k - 2:
        raise ValueError(f"tau={tau} outside [1, {k - 2}]")
    return r_set(j, k), q_set(j, k, tau), x_set(j, k, tau)


def in_q_set(pos: Position, k: int, tau: int) -> bool:
    i, j = pos
    return (i - j) % k > tau


def _symbols(field: FieldSpec, rows, shape: tuple[int, int], what: str) -> np.ndarray:
    """`rows` as a read-only uint16 array, checked before the cast: it must
    have `shape` and hold integers in [0, q).  The cast alone would wrap
    -1, truncate 6.5 and overflow at 2**16."""
    if len(rows) != shape[0] or any(len(r) != shape[1] for r in rows):
        raise ValueError(what)
    values = np.array(rows)  # a float, a bool or an integer past 64 bits is no "iu" dtype
    if values.shape != shape or values.dtype.kind not in "iu" or (
            values.size and (values.min() < 0 or values.max() >= field.q)):
        raise ValueError(f"symbol values must be integers in [0, {field.q})")
    symbols = values.astype(np.uint16)
    symbols.flags.writeable = False
    return symbols


class DataArray:
    """k x k matrix of field-element values, entry d[i][j] at row i, col j:
    one read-only (k, k) uint16 array, `symbols`; `rows` is a list copy."""

    def __init__(self, field: FieldSpec, rows):
        self.field = field
        self.symbols = _symbols(field, rows, (len(rows), len(rows)), "data array must be square")

    @property
    def k(self) -> int:
        return len(self.symbols)

    @property
    def rows(self) -> list[list[int]]:
        return self.symbols.tolist()

    @classmethod
    def random(cls, field: FieldSpec, k: int, rng) -> "DataArray":
        return cls(field, [[rng.randrange(field.q) for _ in range(k)] for _ in range(k)])

    @classmethod
    def zeros(cls, field: FieldSpec, k: int) -> "DataArray":
        return cls(field, [[0] * k for _ in range(k)])


class CodeArray:
    """k x n array of stored symbols plus a per-symbol erasure mask.

    Column j is node j; row i is stripe i.  Columns [0, k) are systematic,
    [k, n_a) hold the MDS/piggyback parities and [n_a, n) the sum parities.
    The symbols are one (k, n) uint16 array, `symbols`, and the mask one
    (k, n) bool array, `mask`; both are read-only, except the symbols of a
    `copy()`.  `rows` and `erased` are list copies of them, so writing to
    those changes nothing.  `erased_nodes`, every node with a masked
    symbol in increasing order, is computed whenever a mask is set.
    """

    def __init__(self, field: FieldSpec, k: int, n: int, rows, erased):
        symbols = _symbols(field, rows, (k, n), "code array must be k x n")
        if len(erased) != k or any(len(r) != n for r in erased):
            raise ValueError("erasure mask must be k x n")
        self._set(field, symbols, *_masked(np.array(erased, dtype=bool).reshape(k, n)))

    @classmethod
    def _wrap(cls, field: FieldSpec, symbols: np.ndarray, mask: np.ndarray | None = None,
              erased_nodes: tuple[int, ...] = ()) -> "CodeArray":
        """An array over checked (k, n) uint16 symbols, not copied, and a
        read-only mask with its `erased_nodes`; no mask: none masked."""
        if mask is None:
            mask = np.zeros(symbols.shape, dtype=bool)
            mask.flags.writeable = False
        array = cls.__new__(cls)
        array._set(field, symbols, mask, erased_nodes)
        return array

    def _set(self, field: FieldSpec, symbols: np.ndarray, mask: np.ndarray,
             erased_nodes: tuple[int, ...]) -> None:
        self.field, self.symbols, (self.k, self.n) = field, symbols, symbols.shape
        self.mask, self.erased_nodes = mask, erased_nodes

    @property
    def rows(self) -> list[list[int]]:
        return self.symbols.tolist()

    @property
    def erased(self) -> list[list[bool]]:
        return self.mask.tolist()

    def get(self, row: int, node: int) -> int:
        if not (0 <= row < self.k and 0 <= node < self.n):
            raise ValueError(f"symbol ({row}, {node}) outside the {self.k} x {self.n} array")
        if self.mask[row, node]:
            raise ValueError(f"symbol ({row}, {node}) is erased")
        return int(self.symbols[row, node])

    def erase_nodes(self, nodes) -> None:
        """Mask every symbol of `nodes`, through a new mask."""
        nodes = list(nodes)
        if any(not 0 <= j < self.n for j in nodes):
            raise ValueError(f"node index outside [0, {self.n})")
        mask = self.mask.copy()
        mask[:, nodes] = True
        self._set(self.field, self.symbols, *_masked(mask))

    def copy(self) -> "CodeArray":
        """The same array over a writable copy of the symbols; the mask is shared."""
        return CodeArray._wrap(self.field, self.symbols.copy(), self.mask, self.erased_nodes)


def _masked(mask: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """`mask`, made read-only, and every node with a masked symbol, in increasing order."""
    mask.flags.writeable = False
    return mask, tuple(itertools.compress(range(mask.shape[1]), mask.any(axis=0).tolist()))


def write_code_array(array: CodeArray) -> bytes:
    """Serialize to the PBDSS1 binary layout.

    Header: magic, k, n, p, m, reduction length, reduction coefficients
    (all little-endian u16); then row-major symbols as u16; then the
    erasure mask row-major, one bit per symbol, LSB first.
    """
    field = array.field
    head = ARRAY_MAGIC + struct.pack("<5H", array.k, array.n, field.p, field.m, len(field.reduction))
    head += struct.pack(f"<{len(field.reduction)}H", *field.reduction)
    mask = np.packbits(array.mask, bitorder="little")
    return head + array.symbols.astype(_SYMBOL, copy=False).tobytes() + mask.tobytes()


def _need(blob: bytes, off: int, size: int, part: str) -> None:
    if len(blob) < off + size:
        raise ValueError(
            f"truncated PBDSS1 array: {part} needs bytes {off}..{off + size}, file has {len(blob)}"
        )


def read_code_array(blob: bytes) -> CodeArray:
    """The array a PBDSS1 blob holds; its symbols are a view of the blob,
    taken once and range-checked flat before it is shaped (k, n).

    The mask and its `erased_nodes` come from _unpacked_mask, which caches
    them per (k, n, mask bytes): arrays read with the same erasure pattern
    share one read-only mask.  `erase_nodes` gives an array a new mask, so
    no array's change reaches another's.
    """
    blob = bytes(blob)  # a view of a mutable buffer would change with it
    if blob[:6] != ARRAY_MAGIC:
        raise ValueError("bad magic: not a PBDSS1 array")
    off = len(ARRAY_MAGIC)
    _need(blob, off, 10, "header")
    k, n, p, m, red_len = struct.unpack_from("<5H", blob, off)
    off += 10
    _need(blob, off, 2 * red_len, "reduction polynomial")
    reduction = struct.unpack_from(f"<{red_len}H", blob, off)
    off += 2 * red_len
    field = cached_field(p, m, reduction)
    _need(blob, off, 2 * k * n, "symbols")
    flat = np.ndarray((k * n,), _SYMBOL, blob, off)
    off += 2 * k * n
    if k * n and (top := np.maximum.reduce(flat)) >= field.q:
        raise ValueError(f"symbol value {top} out of range for {field}")
    mask_len = (k * n + 7) // 8
    _need(blob, off, mask_len, "erasure mask")
    if len(blob) > off + mask_len:
        raise ValueError(
            f"PBDSS1 array has {len(blob) - off - mask_len} trailing bytes after the erasure mask "
            f"(bytes {off + mask_len}..{len(blob)})"
        )
    return CodeArray._wrap(field, flat.reshape(k, n), *_unpacked_mask(k, n, blob[off:]))


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _unpacked_mask(k: int, n: int, bits: bytes) -> tuple[np.ndarray, tuple[int, ...]]:
    """The read-only (k, n) mask that PBDSS1 mask bytes `bits` hold, and its
    erased nodes; cached, one mask per cached decode plan.

    In a degraded store every stripe carries the same few patterns.  The
    key holds its own bytes, so no caller's buffer can change an entry.
    An entry holds the k n mask bytes, the k n / 8 key bytes, up to n node
    indices at 8 bytes each (36 past node 256) and about 0.5 KiB of object
    headers, so the cache holds at most PLAN_CACHE_SIZE such entries of the
    largest arrays read.  Full of (11, 31) masks, the largest shape the
    repair plans are sized for, it measured 0.76 MiB.
    """
    mask = np.unpackbits(np.frombuffer(bits, dtype=np.uint8), count=k * n, bitorder="little")
    return _masked(mask.view(bool).reshape(k, n))
