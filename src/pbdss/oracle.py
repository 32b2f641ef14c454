"""Brute-force ground truth, independent of the structured decoders.

Every stored symbol is a linear form in the k^2 data symbols; stacking
the forms of the surviving nodes gives a matrix whose rank decides
decodability outright.  Surviving data nodes hold their symbols in
the clear, so only the surviving parity forms, restricted to the erased
data nodes' symbols, need a rank: one exact-size matrix per pattern.

Fault tolerance is exhaustive search over erasure patterns, bounded by
two exact facts.  Counting: t erasures leave (n - t) * k symbols, fewer
than the k^2 unknowns once t > n - k.  Monotonicity: a pattern that
decodes still decodes with fewer erasures.  So the search starts at
t = n - k and walks down to the first level whose patterns all decode.
The gather indices of each level's patterns depend on the shape alone,
never on the code or its field, so they are built once per (k, n - k,
d, e) and cached read-only (_stacks), which speeds up a repeated search
of the same k and n - k.
Minimal-read repair is branch-and-bound over read sets.  None of it
reuses the scheduling logic it is meant to check, nor the closed-form
fault tolerance.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import os
from multiprocessing import Pool

import numpy as np

from .class_a import ClassASpec, UnrecoverableErasureError
from .gf import batch_rank, eliminate, matmul, pivot_step, rank_batch_len

# The longest code the exhaustive fault-tolerance search takes.
EXHAUSTIVE_MAX_N = 16


def generator_rows(code) -> list[list[np.ndarray]]:
    """Per-node, per-row coefficient vectors over the k^2 data symbols.

    Accepts a full CodeSpec or a bare ClassASpec (treated as a code of
    length n_a with no sum parities).

    Kept apart from class_a._generator, on which decode_plan builds, so
    that the oracle does not share the decoder's forms: it derives its own
    from alpha, piggyback_source and node_parities, and
    test_generator_rows_match_encoder ties them to encode.
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
    return _ml_decodable_rows(code, _parity_forms(code), pattern)


def _ml_decodable_rows(code, forms: np.ndarray, pattern) -> bool:
    """Decodability of one erasure pattern from the code's parity forms.

    Surviving data nodes give their symbols outright, so a pattern is
    decodable iff the forms of its surviving parity nodes, restricted to
    the d * k symbols of its d erased data nodes, have full column rank.
    With no erased data node there is nothing to solve for; with fewer
    surviving parity nodes than erased data nodes there are fewer rows
    than unknowns.  Neither needs a rank.
    """
    k = code.k
    m = len(forms) // k  # parity nodes
    pattern = sorted(set(pattern))
    if any(not 0 <= x < k + m for x in pattern):
        raise ValueError("erased node index out of range")
    d = sum(x < k for x in pattern)
    if d == 0:
        return True
    if m - (len(pattern) - d) < d:
        return False
    rows, cols = _gather(k, m, np.array([pattern], dtype=np.int64), d)
    return bool(batch_rank(code.field, forms[rows, cols])[0] == d * k)


@functools.lru_cache(maxsize=16)  # a few codes per process, as for field tables
def _parity_forms(code) -> np.ndarray:
    """The forms of the non-systematic nodes, (n - k) * k rows over the k^2
    data symbols; built once per code, and read-only."""
    k = code.k
    forms = np.array(generator_rows(code)[k:], dtype=np.int64).reshape(-1, k * k)
    forms.flags.writeable = False
    return forms


def _gather(k: int, m: int, patterns: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather indices into the parity forms for a (B, t) stack of sorted
    erasure patterns, each of which erases d data nodes (so they lead it)
    and t - d of the m parity nodes.

    rows (B, live * k, 1) are the form rows of the live parity nodes
    each pattern leaves, node by node; cols (B, 1, d * k) are the
    variables of its erased data nodes, symbol (i, j) being variable
    i * k + j.  forms[rows, cols] is then the (B, live * k, d * k) stack
    whose ranks decide the patterns.
    """
    b, t = patterns.shape
    live = m - (t - d)
    alive = np.ones((b, m), dtype=bool)
    alive[np.arange(b)[:, None], patterns[:, d:] - k] = False
    parities = np.nonzero(alive)[1].reshape(b, live)
    rows = (parities[:, :, None] * k + np.arange(k)).reshape(b, live * k, 1)
    cols = (patterns[:, :d, None] + np.arange(k) * k).reshape(b, 1, d * k)
    return rows, cols


# Pattern stacks are cached per (k, m, d, e).  One search ranks each group
# at most once, so the cache pays only when a later search in the same
# process has the same k and n - k.  A cold `verify` meets that only across
# the tau values of one (k, n_a), which 4 entries catch; repeated searches
# of the 7 benchmark sweep shapes with n_a <= 8 reach 16 groups.  Worst
# case: the 32 largest groups of codes with n <= EXHAUSTIVE_MAX_N take
# 51.9 MiB together.
STACK_CACHE_SIZE = 32


@functools.lru_cache(maxsize=STACK_CACHE_SIZE)
def _stacks(k: int, m: int, d: int, e: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The gather indices of every pattern of d of the k data nodes and e
    of the m parity nodes, in lexicographic order, cut into the chunks one
    batch_rank step takes: (rows, cols) per chunk, as _gather gives them.

    They depend on the shape alone, never on the code or its field, so
    every code with the same k and n - k shares them; they are read-only.
    As intp indices the largest group of a code with n <= 16,
    (k, m, d, e) = (9, 7, 4, 3), takes 2.4 MiB; the 16 groups of the
    timed sweep shapes take 0.025 MiB together.
    """
    patterns = _group(k, m, d, e)
    rows, cols = _gather(k, m, patterns, d)
    rows.flags.writeable = cols.flags.writeable = False
    size = rank_batch_len((m - e) * k, d * k)
    return tuple((rows[lo : lo + size], cols[lo : lo + size]) for lo in range(0, len(patterns), size))


def _level_decodable(code, forms: np.ndarray, t: int, share: int = 0, shares: int = 1) -> bool:
    """Whether every t-node erasure pattern is decodable.

    The patterns are grouped by d, the number of erased data nodes, most
    first (on the sweep shapes that order meets an undecodable pattern
    soonest), and each group is checked in chunks of one batch_rank step:
    a chunk decodes where the forms its gather indices pick have rank
    d * k.  The indices come from _stacks, built once per (k, m, d, e) and
    shared by every code of that shape, so a repeated search skips
    building them; at most STACK_CACHE_SIZE groups are kept.  The chunks
    are numbered across the groups; a worker of a pool of `shares` takes every
    shares-th chunk from number `share`.
    """
    k = code.k
    m = len(forms) // k
    number = 0
    for d in range(min(t, k), max(t - m, 1) - 1, -1):  # d = 0 leaves nothing to solve for
        for rows, cols in _stacks(k, m, d, t - d):
            if number % shares == share and not (batch_rank(code.field, forms[rows, cols]) == d * k).all():
                return False
            number += 1
    return True


def _group(k: int, m: int, d: int, e: int) -> np.ndarray:
    """Every sorted pattern of d of the k data nodes and e of the m parity
    nodes, one row each, in lexicographic order."""
    data = np.array(list(itertools.combinations(range(k), d)), dtype=np.int64)
    parity = np.array(list(itertools.combinations(range(k, k + m), e)), dtype=np.int64)
    data, parity = data.reshape(math.comb(k, d), d), parity.reshape(math.comb(m, e), e)  # e = 0: one empty row
    return np.concatenate([np.repeat(data, len(parity), axis=0), np.tile(parity, (len(data), 1))], axis=1)


def brute_force_fault_tolerance(code, processes: int = 1, max_t: int | None = None) -> int:
    """Largest t <= max_t such that every t-node erasure pattern is decodable.

    Two exact facts bound the search.  Counting: t erasures leave
    (n - t) * k symbols, fewer than the k^2 unknowns once t > n - k, so
    no t above n - k can qualify.  Monotonicity: a pattern that decodes
    still decodes with fewer erasures, so if every t-node pattern
    decodes, so does every smaller one.  The search therefore starts at
    t = min(max_t, n - k), walks down, and returns the first level whose
    patterns all decode; levels below the answer are never ranked.  A
    level that fails stops at its first undecodable chunk.  A level of at
    least 64 patterns is shared among `processes` worker processes, but
    never more than the CPUs this process may run on.
    """
    n = code.n_a if isinstance(code, ClassASpec) else code.n
    if n > EXHAUSTIVE_MAX_N:
        raise ValueError(f"exhaustive search capped at n <= {EXHAUSTIVE_MAX_N}")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    processes = min(processes, cpus)
    forms = _parity_forms(code)
    top = n - code.k if max_t is None else min(max_t, n - code.k)
    with contextlib.ExitStack() as stack:
        pool = None  # opened for the first level with enough patterns to share
        for t in range(top, 0, -1):
            if processes > 1 and math.comb(n, t) >= 64:
                pool = pool or stack.enter_context(Pool(processes))
                shares = [(code, forms, t, i, processes) for i in range(processes)]
                ok = all(pool.starmap(_level_decodable, shares))
            else:
                ok = _level_decodable(code, forms, t)
            if ok:
                return t
    return 0


def ml_decode(code, array, pattern) -> dict[int, list[int]]:
    """Generic rank decoder: solve the surviving symbols for the data
    array, then re-encode every erased node from its generator_rows."""
    pattern = sorted(set(pattern))
    k = code.k
    forms = np.array(generator_rows(code), dtype=np.int64)  # (node, row, data symbol)
    if any(not 0 <= x < len(forms) for x in pattern):
        raise ValueError("erased node index out of range")
    live = [c for c in range(len(forms)) if c not in pattern]
    rhs = array.symbols[:, live].T.reshape(-1, 1)  # node by node, as the rows
    rank, solved = eliminate(code.field, forms[live].reshape(-1, k * k), rhs)
    if rank < k * k or solved[k * k :].any():
        raise UnrecoverableErasureError(
            f"pattern {pattern} is not ML-decodable",
            rank=rank,
            needed=k * k,
        )
    lost = matmul(code.field, forms[pattern].reshape(-1, k * k), solved[: k * k])
    return {c: lost[s * k : (s + 1) * k, 0].tolist() for s, c in enumerate(pattern)}


# -- minimal-read repair search ------------------------------------------------


def min_read_repair(code, j: int) -> int:
    """Minimum number of symbol reads that linearly determine column j.

    Branch-and-bound over read sets in a fixed symbol order, pruning by
    span closure (never read an implied symbol), by the rank gap between
    the current span and the target column, and by a memo of the spans
    already searched at no greater depth.  Every candidate symbol and
    target row is carried reduced against the reads so far: a symbol is
    in the span when its reduced row is zero, and the gap is the rank of
    the reduced targets.  A read steps both with gf.pivot_step, the row
    update of gf's one elimination kernel, and the gaps of all children of
    a node are ranked in one gf.batch_rank, that kernel's lockstep rank of
    a stack.  The first bound is the read count of the repair schedule,
    once one rank check confirms its reads determine the column.
    Exponential; capped at k <= 6.
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
        kid_targets = pivot_step(field, target, rows)
        gaps = batch_rank(field, kid_targets)
        # best only falls, so a child that fails its gap check now fails it
        # when visited too, and never looks at its candidates: step only the rest
        live = np.nonzero((gaps > 0) & (depth + 1 + gaps < best))[0]
        kid_cands = dict(zip(live.tolist(), pivot_step(field, cands, rows[live]))) if live.size else {}
        for n, (idx, g) in enumerate(zip(kids.tolist(), gaps.tolist())):
            search(idx + 1, kid_cands.get(n), kid_targets[n], g, depth + 1)

    search(0, symbols, target, k, 0)
    return best


def _schedule_reads(code, j: int, nodes, target: np.ndarray) -> int:
    """Read count of the repair schedule of data node j, checked.

    The reads are those of node j's compiled plan.  The schedule is only
    trusted as far as one rank check goes: its reads must avoid node j and
    determine column j: adding the target rows must not raise the rank of
    their forms.
    """
    from .repair import repair_plan

    reads = repair_plan(code, j, ()).reads
    forms = np.array([nodes[c][i] for c, i in reads], dtype=np.int64).reshape(-1, code.k**2)
    mats = np.stack([np.concatenate([forms, np.zeros_like(target)]), np.concatenate([forms, target])])
    low, high = batch_rank(code.field, mats).tolist()
    if any(c == j for c, _ in reads) or low != high:
        raise ValueError(f"the repair schedule's {len(reads)} reads do not determine column {j}")
    return len(reads)
