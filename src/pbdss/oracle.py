"""Brute-force ground truth, independent of the structured decoders.

Every stored symbol is a linear form in the k^2 data symbols; stacking
the forms of the surviving nodes gives a matrix whose rank decides
decodability outright.  Fault tolerance is then exhaustive search over
erasure patterns, and minimal-read repair is branch-and-bound over read
sets.  None of it reuses the scheduling logic it is meant to check.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from multiprocessing import Pool

import numpy as np

from .class_a import ClassASpec
from .gf import batch_rank, eliminate, rank_batch_len
from .repair import CodeSpec


def generator_rows(code) -> list[list[np.ndarray]]:
    """Per-node, per-row coefficient vectors over the k^2 data symbols.

    Accepts a full CodeSpec or a bare ClassASpec (treated as a code of
    length n_a with no sum parities).
    """
    if isinstance(code, ClassASpec):
        spec_a, class_b, n = code, None, code.n_a
    else:
        spec_a, class_b, n = code.class_a, code.class_b, code.n
    f = spec_a.field
    k, n_a, tau = spec_a.k, spec_a.n_a, spec_a.tau
    nvars = k * k
    nodes = []
    for c in range(n):
        col = []
        for i in range(k):
            v = np.zeros(nvars, dtype=np.int32)
            if c < k:
                v[i * k + c] = 1
            elif c < n_a:
                for l in range(k):
                    v[i * k + l] = spec_a.alpha[l][c - k]
                if c >= n_a - tau:
                    pi, pj = spec_a.piggyback_source(i, c)
                    v[pi * k + pj] = f.add(int(v[pi * k + pj]), 1)
            else:
                for (r, cc) in class_b.node_parities(c)[i]:
                    v[r * k + cc] = f.add(int(v[r * k + cc]), 1)
            col.append(v)
        nodes.append(col)
    return nodes


def ml_decodable(code, pattern) -> bool:
    """True when the surviving symbols determine all k^2 data symbols."""
    nodes = generator_rows(code)
    return _ml_decodable_rows(code, nodes, pattern)


def _ml_decodable_rows(code, nodes, pattern) -> bool:
    pattern = sorted(set(pattern))
    if any(not 0 <= x < len(nodes) for x in pattern):
        raise ValueError("erased node index out of range")
    patterns = np.array([pattern], dtype=np.int64)
    return bool(_decodable(code, _parity_forms(code, nodes), patterns)[0])


def _parity_forms(code, nodes) -> np.ndarray:
    """The forms of the non-systematic nodes, (n - k) * k rows over the k^2
    data symbols, with one zero column appended."""
    k = code.k
    forms = np.array(nodes[k:], dtype=np.int64).reshape(-1, k * k)
    return np.pad(forms, ((0, 0), (0, 1)))


def _decodable(code, forms: np.ndarray, patterns: np.ndarray) -> np.ndarray:
    """Decodability of a (B, t) stack of sorted erasure patterns.

    Surviving data nodes give their symbols outright, so a pattern is
    decodable iff the surviving parity forms, restricted to the erased
    data nodes' symbols, have full column rank.
    """
    k = code.k
    n = k + len(forms) // k
    b, t = patterns.shape
    head = patterns[:, : min(t, k)]  # erased data nodes lead a sorted pattern
    is_data = head < k
    # symbol (i, j) is variable i*k + j; pad with the zero column k*k
    cols = np.where(is_data[:, :, None], np.arange(k) * k + head[:, :, None], k * k)
    mats = forms[:, cols.reshape(b, -1)].transpose(1, 0, 2)
    erased = np.zeros((b, n), dtype=bool)
    erased[np.arange(b)[:, None], patterns] = True
    mats[np.repeat(erased[:, k:], k, axis=1)] = 0  # lost parity forms
    return batch_rank(code.field, mats) == k * is_data.sum(axis=1)


def _level_decodable(code, forms: np.ndarray, t: int, share: int = 0, shares: int = 1) -> bool:
    """Whether every t-node erasure pattern is decodable.

    Patterns are checked in chunks of one batch_rank step; a worker of a
    pool of `shares` takes every shares-th chunk from number `share`.
    """
    k = code.k
    patterns = itertools.combinations(range(k + len(forms) // k), t)
    size = rank_batch_len(len(forms), min(t, k) * k)
    chunks = iter(lambda: list(itertools.islice(patterns, size)), [])
    for chunk in itertools.islice(chunks, share, None, shares):
        if not _decodable(code, forms, np.array(chunk, dtype=np.int64)).all():
            return False
    return True


def brute_force_fault_tolerance(code, processes: int = 1, max_t: int | None = None) -> int:
    """Largest t such that every t-node erasure pattern is decodable."""
    n = code.n_a if isinstance(code, ClassASpec) else code.n
    if n > 16:
        raise ValueError("exhaustive search capped at n <= 16")
    forms = _parity_forms(code, generator_rows(code))
    limit = max_t if max_t is not None else n
    with contextlib.ExitStack() as stack:
        pool = None  # opened for the first level with enough patterns to share
        for t in range(1, limit + 1):
            if processes > 1 and math.comb(n, t) >= 64:
                pool = pool or stack.enter_context(Pool(processes))
                shares = [(code, forms, t, i, processes) for i in range(processes)]
                ok = all(pool.starmap(_level_decodable, shares))
            else:
                ok = _level_decodable(code, forms, t)
            if not ok:
                return t - 1
    return limit


def ml_decode(code, array, pattern) -> dict[int, list[int]]:
    """Generic rank decoder: solve for the data array, re-encode the rest."""
    from .layout import DataArray
    from .repair import encode as encode_full
    from .class_a import UnrecoverableErasureError

    pattern = set(pattern)
    nodes = generator_rows(code)
    k = code.k
    rows, rhs = [], []
    for c, col in enumerate(nodes):
        if c in pattern:
            continue
        for i, v in enumerate(col):
            rows.append(v)
            rhs.append(array.rows[i][c])
    rows = np.array(rows, dtype=np.int64).reshape(-1, k * k)
    rank, solved = eliminate(code.field, rows, np.array(rhs, dtype=np.int64)[:, None])
    if rank < k * k or solved[k * k :].any():
        raise UnrecoverableErasureError(
            f"pattern {sorted(pattern)} is not ML-decodable",
            rank=rank,
            needed=k * k,
        )
    values = solved[: k * k, 0].tolist()
    data = DataArray(code.field, [values[i * k : (i + 1) * k] for i in range(k)])
    if isinstance(code, ClassASpec):
        from .class_a import encode_class_a

        parities = encode_class_a(data, code)
        full_rows = [list(data.rows[i]) + parities[i] for i in range(k)]
    else:
        full_rows = encode_full(code, data).rows
    return {c: [full_rows[i][c] for i in range(k)] for c in sorted(pattern)}


# -- minimal-read repair search ------------------------------------------------


class _SpanBasis:
    """Row basis in reduced form over the field, with membership reduction."""

    def __init__(self, field, nvars: int):
        self.field = field
        self.tables = field.dense_tables()
        self.nvars = nvars
        self.rows: list[np.ndarray] = []
        self.pivots: list[int] = []

    def clone(self) -> "_SpanBasis":
        other = _SpanBasis.__new__(_SpanBasis)
        other.field = self.field
        other.tables = self.tables
        other.nvars = self.nvars
        other.rows = list(self.rows)
        other.pivots = list(self.pivots)
        return other

    def reduce(self, v: np.ndarray) -> np.ndarray:
        _, sub_t, mul_t, inv_t = self.tables
        v = v.copy()
        for row, p in zip(self.rows, self.pivots):
            coef = int(v[p])
            if coef:
                v = sub_t[v, mul_t[coef, row]]
        return v

    def contains(self, v: np.ndarray) -> bool:
        return not self.reduce(v).any()

    def add(self, v: np.ndarray) -> bool:
        _, sub_t, mul_t, inv_t = self.tables
        r = self.reduce(v)
        nz = np.nonzero(r)[0]
        if nz.size == 0:
            return False
        p = int(nz[0])
        r = mul_t[int(inv_t[r[p]]), r]
        self.rows.append(r)
        self.pivots.append(p)
        return True

    def deficiency(self, targets: list[np.ndarray]) -> int:
        probe = self.clone()
        return sum(1 for t in targets if probe.add(t))


def min_read_repair(code, j: int, upper_bound: int | None = None) -> int:
    """Minimum number of symbol reads that linearly determine column j.

    Branch-and-bound over read sets in a fixed symbol order, pruning by
    span closure (never read an implied symbol) and by the rank gap
    between the current span and the target column.  Exponential; capped
    at k <= 6.
    """
    k = code.k
    if k > 6:
        raise ValueError("minimal-read search capped at k <= 6")
    n = code.n_a if isinstance(code, ClassASpec) else code.n
    field = code.field
    nvars = k * k
    nodes = generator_rows(code)
    targets = []
    for i in range(k):
        t = np.zeros(nvars, dtype=np.int32)
        t[i * k + j] = 1
        targets.append(t)

    symbols = []  # parity forms first, then plain data symbols
    for c in range(k, n):
        for i in range(k):
            symbols.append(nodes[c][i])
    for c in range(k):
        if c == j:
            continue
        for i in range(k):
            symbols.append(nodes[c][i])
    nsym = len(symbols)

    if upper_bound is None:
        upper_bound = _schedule_reads(code, j)
    best = upper_bound  # the schedule itself is a feasible read set
    seen: dict[int, int] = {}
    sym_matrix = np.stack(symbols)
    _, sub_t, mul_t, _ = field.dense_tables()

    def closure_mask(basis: _SpanBasis) -> int:
        reduced = sym_matrix.copy()
        for row, p in zip(basis.rows, basis.pivots):
            coef = reduced[:, p]
            reduced = sub_t[reduced, mul_t[coef[:, None], row[None, :]]]
        mask = 0
        for idx in np.nonzero(~reduced.any(axis=1))[0]:
            mask |= 1 << int(idx)
        return mask

    def search(start: int, basis: _SpanBasis, depth: int) -> None:
        nonlocal best
        gap = basis.deficiency(targets)
        if gap == 0:
            best = min(best, depth)
            return
        if depth + gap >= best:
            return
        key = closure_mask(basis)
        prior = seen.get(key)
        if prior is not None and prior <= depth:
            return
        seen[key] = depth
        for idx in range(start, nsym):
            if basis.contains(symbols[idx]):
                continue
            nxt = basis.clone()
            nxt.add(symbols[idx])
            search(idx + 1, nxt, depth + 1)

    search(0, _SpanBasis(field, nvars), 0)
    return best


def _schedule_reads(code, j: int) -> int:
    """Read count of the actual repair schedule, as the search's upper bound."""
    import random

    from .layout import DataArray
    from .repair import encode, repair_data_node

    if isinstance(code, ClassASpec):
        raise ValueError("minimal-read search needs a full CodeSpec")
    data = DataArray.random(code.field, code.k, random.Random(0))
    array = encode(code, data)
    _, trace = repair_data_node(array, j, code)
    return trace.total
