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
from .gf import batch_rank, eliminate, pivot_step, rank_batch_len
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


def min_read_repair(code, j: int) -> int:
    """Minimum number of symbol reads that linearly determine column j.

    Branch-and-bound over read sets in a fixed symbol order, pruning by
    span closure (never read an implied symbol), by the rank gap between
    the current span and the target column, and by a memo of the spans
    already searched at no greater depth.  Every candidate symbol and
    target row is carried reduced against the reads so far: a symbol is
    in the span when its reduced row is zero, and the gap is the rank of
    the reduced targets.  A read steps both with gf.pivot_step, and the
    gaps of all children of a node are ranked in one gf.batch_rank.  The
    first bound is the read count of the repair schedule, once one rank
    check confirms its reads determine the column.  Exponential; capped
    at k <= 6.
    """
    k = code.k
    if k > 6:
        raise ValueError("minimal-read search capped at k <= 6")
    if isinstance(code, ClassASpec):
        raise ValueError("minimal-read search needs a full CodeSpec")
    field = code.field
    nodes = generator_rows(code)
    target = np.zeros((k, k * k), dtype=np.int64)
    target[np.arange(k), np.arange(k) * k + j] = 1
    # the candidate reads: parity forms first, then plain data symbols
    symbols = np.array([nodes[c][i] for c in [*range(k, code.n), *range(k)] if c != j for i in range(k)],
                       dtype=np.int64)
    best = _schedule_reads(code, j, nodes, target)
    seen: dict[bytes, int] = {}

    def search(start: int, cands: np.ndarray | None, target: np.ndarray, gap: int, depth: int) -> None:
        nonlocal best
        if gap == 0:
            best = min(best, depth)
            return
        if depth + gap >= best:
            return
        spanned = ~cands.any(axis=1)
        key = np.packbits(spanned).tobytes()
        prior = seen.get(key)
        if prior is not None and prior <= depth:
            return
        seen[key] = depth
        kids = start + np.nonzero(~spanned[start:])[0]
        rows = cands[kids]
        kid_targets, _ = pivot_step(field, target, rows)
        gaps = batch_rank(field, kid_targets)
        # best only falls, so a child that fails its gap check now fails it
        # when visited too, and never looks at its candidates: step only the rest
        live = np.nonzero((gaps > 0) & (depth + 1 + gaps < best))[0]
        kid_cands = dict(zip(live.tolist(), pivot_step(field, cands, rows[live])[0])) if live.size else {}
        for n, (idx, g) in enumerate(zip(kids.tolist(), gaps.tolist())):
            search(idx + 1, kid_cands.get(n), kid_targets[n], g, depth + 1)

    search(0, symbols, target, k, 0)
    return best


def _schedule_reads(code, j: int, nodes, target: np.ndarray) -> int:
    """Read count of the repair schedule of data node j, checked.

    The schedule is only trusted as far as one rank check goes: its reads
    must avoid node j and determine column j: adding the target rows must
    not raise the rank of their forms.
    """
    import random

    from .layout import DataArray
    from .repair import encode, repair_data_node

    data = DataArray.random(code.field, code.k, random.Random(0))
    _, trace = repair_data_node(encode(code, data), j, code)
    reads = list(trace.reads)
    forms = np.array([nodes[c][i] for c, i in reads], dtype=np.int64).reshape(-1, code.k**2)
    mats = np.stack([np.concatenate([forms, np.zeros_like(target)]), np.concatenate([forms, target])])
    low, high = batch_rank(code.field, mats).tolist()
    if any(c == j for c, _ in reads) or low != high:
        raise ValueError(f"the repair schedule's {len(reads)} reads do not determine column {j}")
    return len(reads)
