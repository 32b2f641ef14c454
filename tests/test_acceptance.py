"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
Criterion 4 checks the fault-tolerance closed form as the guarantee it
is: exhaustive maximum-likelihood search must meet it on every sweep
shape and equal it everywhere except three shapes, where the shortened-RS
codes built here tolerate exactly one failure more.  Those three values,
and a fourth past the sweep, (11, 15, 3) over GF(2^4), are confirmed by a
second rank computation written in this file, so the list of exceptions
does not rest on the oracle alone.
"""

import functools
import itertools
import math
import random
import time

import pytest

from pbdss import cli
from pbdss.class_a import ClassASpec, _interned, fault_tolerance
from pbdss.class_b import construct1_parities, construct2_parities
from pbdss.layout import DataArray
from pbdss.metrics import OpCounter, formula_bundle, measured_lambda, table1_row
from pbdss.oracle import brute_force_fault_tolerance, min_read_repair
from pbdss.repair import CodeSpec, encode, puncture, repair_data_node, repair_multi, repair_plan

PROCESSES = 2


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def sweep_shapes():
    for k in range(4, 9):
        for n_a in range(k + 2, min(k + 4, 2 * k - 1) + 1):
            for tau in range(1, n_a - k):
                yield k, n_a, tau


@pytest.fixture(scope="module")
def sweep_class_a():
    return {(k, n_a, tau): ClassASpec.build(n_a, k, tau) for k, n_a, tau in sweep_shapes()}


def test_criterion_1_worked_example_trace():
    t0 = time.monotonic()
    spec = CodeSpec.build(5, 7, 8, 1)
    data = DataArray.random(spec.field, 5, random.Random(0))
    array = encode(spec, data)
    totals = []
    for j in range(5):
        col, trace = repair_data_node(array, j, spec)
        assert col == [data.rows[i][j] for i in range(5)]
        totals.append(trace.total)
    elapsed = time.monotonic() - t0
    ok = totals[0] == 9 and sum(totals) / 25 == 1.8 and elapsed < 1.0
    _report(1, ok, f"node-0 reads {totals[0]} (want 9), lambda {sum(totals)/25} "
                   f"(want 1.8), {elapsed:.2f}s")
    assert totals[0] == 9
    assert sum(totals) / 25 == 1.8
    assert elapsed < 1.0


def test_criterion_2_table2_reproduction():
    t0 = time.monotonic()
    rows = [
        (9, 5, 8, 1, 3, 44.0, 2.4),
        (11, 7, 10, 2, 3, 66.2857, 3.0),
        (14, 9, 12, 2, 3, 70.6667, 3.5556),
    ]
    results = []
    for n, k, n_a, tau, f_want, cr_want, lam_want in rows:
        spec = CodeSpec.build(k, n_a, n - n_a + k, tau)
        report = formula_bundle(spec.n, k, n_a, tau, spec.field)
        lam, _ = measured_lambda(spec)
        results.append(
            (
                report.fault_tolerance == f_want,
                abs(report.repair_ops_normalized - cr_want) < 1e-3,
                abs(lam - lam_want) < 1e-3,
                (k, report.fault_tolerance, round(report.repair_ops_normalized, 4), round(lam, 4)),
            )
        )
    elapsed = time.monotonic() - t0
    ok = all(a and b and c for a, b, c, _ in results) and elapsed < 5.0
    _report(2, ok, f"{[r[3] for r in results]}, {elapsed:.2f}s")
    for fa, cb, lc, info in results:
        assert fa and cb and lc, info
    assert elapsed < 5.0


def test_criterion_3_table3_reproduction():
    t0 = time.monotonic()
    rows = [
        (4, 6, 5, 1, 2.0, 1.875),
        (6, 9, 7, 2, 2.5, 2.4167),
        (8, 12, 9, 3, 3.0, 2.9375),
        (8, 12, 10, 3, 2.375, 2.3125),
        (10, 15, 11, 4, 3.5, 3.45),
    ]
    got = []
    for k, n_a, n_b, tau, want1, want2 in rows:
        lam = {}
        for construction in (1, 2):
            spec = CodeSpec.build(k, n_a, n_b, tau, construction=construction)
            lam[construction], _ = measured_lambda(spec)
        improvement = (lam[1] - lam[2]) / lam[1] * 100
        got.append((lam[1], lam[2], improvement, want1, want2))
    elapsed = time.monotonic() - t0
    ok = all(abs(l1 - w1) < 1e-3 and abs(l2 - w2) < 1e-3 and imp > 0
             for l1, l2, imp, w1, w2 in got) and elapsed < 10.0
    _report(3, ok, f"{[(round(l1, 4), round(l2, 4)) for l1, l2, *_ in got]}, {elapsed:.2f}s")
    for l1, l2, imp, w1, w2 in got:
        assert abs(l1 - w1) < 1e-3, (l1, w1)
        assert abs(l2 - w2) < 1e-3, (l2, w2)
        assert imp > 0
    assert elapsed < 10.0


# Sweep shapes where exhaustive ML search beats the closed form, and by how
# much.  The formula is a guarantee; the true tolerance also depends on the
# MDS coefficients, and the shortened-RS defaults exceed it here.
KNOWN_EXCEEDANCES = {(5, 9, 2): 1, (5, 9, 3): 1, (7, 11, 2): 1}


class _Arith:
    """GF(p) or GF(2^m) from p, m and the reduction polynomial alone, as
    q x q tables, sharing nothing with pbdss.gf: products mod p, or
    carry-less products reduced by the reduction polynomial; differences
    mod p, or XOR; inverses by search."""

    def __init__(self, field):
        p, m, q = field.p, field.m, field.q
        if m == 1:
            assert p > 1 and all(p % d for d in range(2, math.isqrt(p) + 1)), f"{p} is not prime"
            self.mul = [[a * b % p for b in range(q)] for a in range(q)]
            self.sub = [[(a - b) % p for b in range(q)] for a in range(q)]
        else:
            assert p == 2, f"elimination needs a prime field or GF(2^m), got {field}"
            poly = sum(c << i for i, c in enumerate(field.reduction))
            self.mul = [[self._clmul_mod(a, b, poly, m) for b in range(q)] for a in range(q)]
            self.sub = [[a ^ b for b in range(q)] for a in range(q)]
        self.neg = [self.sub[0][a] for a in range(q)]
        self.inv = [None] + [next(b for b in range(1, q) if self.mul[a][b] == 1) for a in range(1, q)]

    @staticmethod
    def _clmul_mod(a, b, poly, m):
        prod = 0
        for i in range(m):
            if b >> i & 1:
                prod ^= a << i
        for i in range(2 * m - 2, m - 1, -1):
            if prod >> i & 1:
                prod ^= poly << (i - m)
        return prod

    def add(self, a, b):
        return self.sub[a][self.neg[b]]


def _stored_forms(arith, k, n_a, tau, alpha):
    """Linear form of stored symbol (node c, row i) over the k*k data symbols.

    Data symbol (row r, column j) is variable r*k + j.  Parity node c >= k
    holds sum_l alpha[l][c-k] * d[i][l]; each of the last tau parity nodes
    also adds the piggybacked data symbol d[(i + c - n_a + tau + 1) mod k][i].
    """
    forms = {}
    for c in range(n_a):
        for i in range(k):
            v = [0] * (k * k)
            if c < k:
                v[i * k + c] = 1
            else:
                for l in range(k):
                    v[i * k + l] = alpha[l][c - k]
                if c >= n_a - tau:
                    src = ((i + c - n_a + tau + 1) % k) * k + i
                    v[src] = arith.add(v[src], 1)
            forms[c, i] = v
    return forms


def _rank(rows, arith):
    rows = [list(r) for r in rows]
    mul, sub = arith.mul, arith.sub
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        scale = mul[arith.inv[rows[rank][col]]]
        prow = [scale[x] for x in rows[rank]]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col]
            if factor:
                times = mul[factor]
                rows[r] = [sub[a][times[b]] for a, b in zip(rows[r], prow)]
        rank += 1
    return rank


def _tolerance(forms, arith, k, n_a):
    """Largest t such that every t-node erasure pattern leaves the data solvable.

    Surviving data nodes give their symbols outright, so a pattern is
    decodable iff the surviving parity forms, restricted to the erased data
    symbols, have full column rank.
    """
    for t in range(1, n_a + 1):
        for pattern in itertools.combinations(range(n_a), t):
            unknowns = [i * k + j for j in pattern if j < k for i in range(k)]
            rows = [
                [forms[c, i][u] for u in unknowns]
                for c in range(k, n_a) if c not in pattern for i in range(k)
            ]
            if _rank(rows, arith) < len(unknowns):
                return t - 1
    return n_a


def _independent_tolerance(spec):
    """Fault tolerance by elimination over GF(p) or GF(2^m) (_Arith),
    sharing nothing with pbdss.oracle or pbdss.gf."""
    arith, k, n_a = _Arith(spec.field), spec.k, spec.n_a
    forms = _stored_forms(arith, k, n_a, spec.tau, spec.alpha)
    # the forms must describe the code that is actually stored: the code
    # with no sum-parity node
    data = DataArray.random(spec.field, k, random.Random(4))
    stored = encode(CodeSpec(spec.field, spec, construct1_parities(k, n_a, k, spec.tau)), data).rows
    flat = [x for row in data.rows for x in row]
    for (c, i), v in forms.items():
        assert functools.reduce(arith.add, [arith.mul[a][x] for a, x in zip(v, flat)], 0) == stored[i][c], (c, i)
    return _tolerance(forms, arith, k, n_a)


def test_criterion_4_fault_tolerance_formula_vs_oracle(sweep_class_a):
    t0 = time.monotonic()
    exhaustive = {}
    mismatches = []
    for (k, n_a, tau), spec in sweep_class_a.items():
        want = fault_tolerance(n_a, k, tau).f
        got = brute_force_fault_tolerance(spec, processes=PROCESSES)
        assert got >= want, f"construction misses its guarantee at {(k, n_a, tau)}"
        exhaustive[k, n_a, tau] = got
        if got != want:
            mismatches.append((k, n_a, tau, want, got))
    excess = {(k, na, t): g - w for k, na, t, w, g in mismatches}
    confirmed = {shape: _independent_tolerance(sweep_class_a[shape]) for shape in KNOWN_EXCEEDANCES}
    elapsed = time.monotonic() - t0
    agrees = all(confirmed[s] == exhaustive[s] for s in KNOWN_EXCEEDANCES)
    ok = excess == KNOWN_EXCEEDANCES and agrees and elapsed < 300
    detail = f"{len(sweep_class_a)} shapes in {elapsed:.1f}s"
    if mismatches:
        detail += "; oracle exceeds formula at " + ", ".join(
            f"(k={k},n_a={na},tau={t}): formula {w}, exhaustive {g}"
            for k, na, t, w, g in mismatches
        )
    detail += "; independent elimination gives " + ", ".join(
        f"{confirmed[s]} at {s}" for s in KNOWN_EXCEEDANCES)
    _report(4, ok, detail)
    assert elapsed < 300
    assert excess == KNOWN_EXCEEDANCES, (
        f"exceedances {excess} differ from the checked {KNOWN_EXCEEDANCES}: {detail}")
    assert agrees, f"independent elimination disagrees with the oracle: {detail}"


def test_exceedance_past_the_sweep_is_confirmed():
    """At (k, n_a, tau) = (11, 15, 3) over GF(2^4), past criterion 4's
    sweep, exhaustive search finds f = 4 against the formula's 3, and the
    elimination over GF(2^4) written here agrees.  f <= 4 by counting:
    five erased data nodes leave 4k parity symbols for 5k unknowns.  The
    CLI's checked list holds exactly the exceedances confirmed here, so
    `verify --max-k 11` and `12` report this one as a NOTE and pass."""
    spec = ClassASpec.build(15, 11, 3)
    assert (spec.field.p, spec.field.m) == (2, 4)
    want = fault_tolerance(15, 11, 3).f
    confirmed = _independent_tolerance(spec)
    assert (want, confirmed, brute_force_fault_tolerance(spec, processes=1)) == (3, 4, 4)
    assert cli.CHECKED_EXCEEDANCES == {**KNOWN_EXCEEDANCES, (11, 15, 3): confirmed - want}


def test_criterion_5_roundtrip_property(sweep_class_a):
    t0 = time.monotonic()
    rng = random.Random(1)
    singles = multis = 0
    for (k, n_a, tau), spec_a in sweep_class_a.items():
        n_b = 2 * k - tau - 1
        f = fault_tolerance(n_a, k, tau).f
        pool = [DataArray.random(spec_a.field, k, rng) for _ in range(100)]
        for construction in (1, 2):
            build = construct1_parities if construction == 1 else construct2_parities
            spec = CodeSpec(spec_a.field, spec_a, build(k, n_a, n_b, tau))
            # single-node repairs at every puncturing level
            for level in range(n_b - k + 1):
                pspec = puncture(spec, level)
                arrays = pool if construction == 1 and level == 0 else pool[:3]
                for data in arrays:
                    array = encode(pspec, data)
                    for j in range(k):
                        col, _ = repair_data_node(array, j, pspec)
                        assert col == [data.rows[i][j] for i in range(k)], (
                            k, n_a, tau, construction, level, j)
                        singles += 1
            # multi-node repairs: every pattern of <= f failures over the
            # data and MDS-class nodes, cycling through the random arrays,
            # with sum-parity failures mixed into every third pattern
            if construction == 1:
                patterns = [
                    p for t in range(1, f + 1)
                    for p in itertools.combinations(range(n_a), t)
                ]
                b_nodes = list(range(n_a, n_a + n_b - k))
                for idx, pattern in enumerate(patterns):
                    data = pool[idx % len(pool)]
                    failed = set(pattern)
                    if idx % 3 == 0:
                        failed |= set(b_nodes[: 1 + idx % len(b_nodes)])
                    array = encode(spec, data)
                    expect = {n: [array.rows[i][n] for i in range(k)] for n in failed}
                    array.erase_nodes(failed)
                    cols = repair_multi(array, failed, spec)
                    assert cols == expect, (k, n_a, tau, sorted(failed))
                    multis += 1
    elapsed = time.monotonic() - t0
    _report(5, True, f"{singles} single-node and {multis} multi-node repairs bit-exact, "
                     f"{elapsed:.1f}s")


def test_criterion_6_bound_and_exact_counters(sweep_class_a):
    t0 = time.monotonic()
    checked = 0
    for (k, n_a, tau), spec_a in sweep_class_a.items():
        for n_b in range(k + 1, 2 * k - tau):
            spec = CodeSpec(spec_a.field, spec_a, construct1_parities(k, n_a, n_b, tau))
            report = formula_bundle(spec.n, k, n_a, tau, spec.field)
            data = DataArray.random(spec.field, k, random.Random(2))
            array = encode(spec, data)
            nu = spec.field.bits
            total = 0
            for j in range(k):
                _, trace = repair_data_node(array, j, spec)
                total += trace.total
                plan = repair_plan(_interned(spec), j, ())
                assert OpCounter(plan.adds, plan.muls).bit_ops(nu) == report.repair_ops, (k, n_a, n_b, tau, j)
            lam = total / k / k
            assert lam <= report.lambda_bound + 1e-9, (k, n_a, n_b, tau)
            checked += 1
    elapsed = time.monotonic() - t0
    _report(6, True, f"{checked} codes: measured lambda within bound, "
                     f"counters equal the closed forms, {elapsed:.1f}s")


def test_criterion_7_minimal_read_probe():
    t0 = time.monotonic()
    spec105 = CodeSpec.build(5, 7, 8, 1)
    data = DataArray.random(spec105.field, 5, random.Random(3))
    array = encode(spec105, data)
    _, trace = repair_data_node(array, 0, spec105)
    min0 = min_read_repair(spec105, 0)
    spec74 = CodeSpec.build(4, 6, 5, 1, construction=2)
    data74 = DataArray.random(spec74.field, 4, random.Random(3))
    array74 = encode(spec74, data74)
    sched = []
    mins = []
    for j in range(4):
        _, tr = repair_data_node(array74, j, spec74)
        sched.append(tr.total)
        mins.append(min_read_repair(spec74, j))
    elapsed = time.monotonic() - t0
    ok = (min0 == trace.total == 9) and mins == sched == [7, 8, 7, 8]
    _report(7, ok, f"(10,5) node 0: schedule {trace.total}, minimum {min0}; "
                   f"(7,4): schedule {sched}, minimum {mins} (avg {sum(mins)/4}), {elapsed:.1f}s")
    assert min0 == 9 and trace.total == 9
    assert sched == [7, 8, 7, 8]
    assert mins == [7, 8, 7, 8]
    assert sum(mins) / 4 == 7.5


def test_criterion_8_closed_form_table_rows():
    mds = table1_row("mds", {"n": 10, "k": 5})
    zz = table1_row("zigzag", {"n": 10, "k": 5})
    eo = table1_row("evenodd", {"n": 7, "k": 5})
    ok = (
        mds["lambda"] == 5
        and mds["fault_tolerance"] == 5
        and zz["lambda"] == pytest.approx((10 - 1) / (10 - 5))
        and zz["beta"] == 5**4
        and eo["fault_tolerance"] == 2
        and eo["lambda"] == 5
    )
    _report(8, ok, "comparison-curve reproduction is out of scope (competing codecs); "
                   "substituted by criteria 2-3 plus closed-form rows: "
                   f"MDS lambda {mds['lambda']}, Zigzag lambda {zz['lambda']}, "
                   f"EVENODD f {eo['fault_tolerance']}")
    assert ok
