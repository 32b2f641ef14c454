"""Reference computations that share no code with the package under test.

The benchmark checks every output of `pbdss` against these: field
arithmetic from the reduction polynomial alone, the encoder written out
from the paper's definitions (MDS rows, piggyback sources, sum parities),
a PBDSS1 parser, and the closed-form fault tolerance.  Nothing here
imports `pbdss`; code objects are read only for their coefficient data.
"""

from __future__ import annotations

import functools
import math
import struct


class RefField:
    """GF(p^m) multiplication by shift-and-add over the digit vectors."""

    def __init__(self, p: int, m: int, reduction):
        self.p, self.m, self.q = p, m, p**m
        self.reduction = tuple(reduction)
        self._mul: dict[tuple[int, int], int] = {}

    def _digits(self, a: int) -> list[int]:
        return [(a // self.p**i) % self.p for i in range(self.m)]

    def _value(self, ds) -> int:
        return sum(d * self.p**i for i, d in enumerate(ds))

    def add(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        return self._value([(x + y) % self.p for x, y in zip(self._digits(a), self._digits(b))])

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a * b) % self.p
        key = (a, b) if a <= b else (b, a)
        hit = self._mul.get(key)
        if hit is not None:
            return hit
        p, m = self.p, self.m
        shifted = self._digits(a)  # a * x^i, reduced, for i = 0, 1, ...
        acc = [0] * m
        for coef in self._digits(b):
            acc = [(s + coef * t) % p for s, t in zip(acc, shifted)]
            top = shifted[-1]
            shifted = [0] + shifted[:-1]
            # x^m = -(r_0 + r_1 x + ... + r_{m-1} x^{m-1}) for a monic reduction
            shifted = [(s - top * r) % p for s, r in zip(shifted, self.reduction[:m])]
        value = self._value(acc)
        self._mul[key] = value
        return value


@functools.lru_cache(maxsize=None)
def ref_field(p: int, m: int, reduction: tuple[int, ...]) -> RefField:
    """One RefField per field, so its product memo is shared."""
    return RefField(p, m, reduction)


def piggyback_source(i: int, u: int, k: int, n_a: int, tau: int) -> tuple[int, int]:
    """Data position (row, column) added into MDS parity (i, u), u >= n_a - tau."""
    return ((i + u - n_a + tau + 1) % k, i)


def encode_rows(field: RefField, k: int, n_a: int, tau: int, alpha, b_parities,
                data: list[list[int]]) -> list[list[int]]:
    """k x n stored array: data, MDS-plus-piggyback parities, sum parities.

    `alpha[l][c - k]` is the coefficient of data column l in MDS parity c;
    `b_parities[node][t]` lists the (row, column) positions summed into
    parity t of sum-parity node n_a + node.
    """
    rows = []
    for i in range(k):
        row = list(data[i])
        for c in range(k, n_a):
            acc = 0
            for l in range(k):
                acc = field.add(acc, field.mul(alpha[l][c - k], data[i][l]))
            if c >= n_a - tau:
                r, cc = piggyback_source(i, c, k, n_a, tau)
                acc = field.add(acc, data[r][cc])
            row.append(acc)
        rows.append(row)
    for node in b_parities:
        for t, par in enumerate(node):
            acc = 0
            for r, c in par:
                acc = field.add(acc, data[r][c])
            rows[t].append(acc)
    return rows


def encode_for_code(code, data: list[list[int]]) -> list[list[int]]:
    """encode_rows with the coefficients of a code object."""
    f, a = code.field, code.class_a
    field = ref_field(f.p, f.m, tuple(f.reduction))
    return encode_rows(field, a.k, a.n_a, a.tau, a.alpha, code.class_b.parities, data)


def encode_for_json(d: dict, data: list[list[int]]) -> list[list[int]]:
    """encode_rows with the coefficients of a code spec JSON document."""
    fd, a = d["field"], d["classA"]
    field = ref_field(fd["p"], fd["m"], tuple(fd["reduction"]))
    return encode_rows(field, d["k"], a["nA"], a["tau"], a["alpha"], d["classB"]["parities"], data)


def column(rows: list[list[int]], node: int) -> list[int]:
    return [row[node] for row in rows]


def parse_pbdss1(blob: bytes) -> tuple[int, int, list[list[int]]]:
    """(k, n, rows) of a PBDSS1 array file: magic, u16 header, u16 symbols."""
    if blob[:6] != b"PBDSS1":
        raise ValueError("not a PBDSS1 array")
    k, n, _p, _m, red_len = struct.unpack_from("<5H", blob, 6)
    off = 16 + 2 * red_len
    flat = struct.unpack_from(f"<{k * n}H", blob, off)
    return k, n, [list(flat[i * n:(i + 1) * n]) for i in range(k)]


def pbdss1_symbol_offset(blob: bytes, row: int, node: int) -> int:
    """Byte offset of stored symbol (row, node) inside a PBDSS1 blob."""
    _k, n, _p, _m, red_len = struct.unpack_from("<5H", blob, 6)
    return 16 + 2 * red_len + 2 * (row * n + node)


def formula_fault_tolerance(n_a: int, k: int, tau: int) -> int:
    """The paper's closed form: n_a - k below the xi threshold, else reduced."""
    d = n_a - k - tau
    xi = (math.sqrt(d * d + 4 * k) - d) / 2
    return n_a - k if tau < xi else n_a - k - tau + math.floor(xi)
