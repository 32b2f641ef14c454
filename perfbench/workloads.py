"""The four workloads: seeded inputs, one pass of timed operations, output
checks against `reference`, and the structural gates.

Every workload is a closed loop with one client in one process and one
thread: an operation starts only after the previous one returned and was
checked.  The package is always called through its module attributes
(`repair.encode`, never a name bound at import), so the spans installed
by `tracer` see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import shutil
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from pbdss import class_a, cli, gf, layout, metrics, oracle, repair

import reference as ref


class Ledger:
    """Durations and verdicts of one measured stretch of a run.

    Memory stays flat however many operations run, so that the ledger does
    not move the peak-RSS metric: durations are folded into per-position
    and per-label figures as they come.
    """

    def __init__(self, tracer=None):
        self.ops = 0
        self.best_ns: dict[int, int] = {}  # fastest time of each position in the pass
        self.label_ns: dict[str, int] = defaultdict(int)
        self.pass_ns: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.tracer = tracer
        self._pass = 0
        self._first = 0

    def op(self, label: str, call, check):
        """Time call(); check(result) returns None when the output is right,
        else what is wrong with it.  An exception counts as a failure."""
        if self.tracer is not None:
            self.tracer.begin(self.ops, label)
        t0 = time.perf_counter_ns()
        try:
            result = call()
        except Exception as exc:  # the loop must go on; the failure is counted
            self._timed(label, time.perf_counter_ns() - t0)
            self.verdict(label, f"raised {type(exc).__name__}: {exc}")
            return None
        self._timed(label, time.perf_counter_ns() - t0)
        try:
            problem = check(result)
        except Exception as exc:
            problem = f"output check raised {type(exc).__name__}: {exc}"
        self.verdict(label, problem)
        return result

    def _timed(self, label: str, ns: int) -> None:
        pos = self.ops - self._first
        self.best_ns[pos] = min(ns, self.best_ns.get(pos, ns))
        self.label_ns[label] += ns
        self.ops += 1
        self._pass += ns

    def end_pass(self) -> None:
        self.pass_ns.append(self._pass)
        self._pass = 0
        self._first = self.ops

    def verdict(self, label: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{label}: {problem}")

    def gate(self, label: str, ok: bool, detail: str) -> None:
        self.verdict(label, None if ok else detail)


# -- shapes and the exact figures they must reproduce --------------------------

@dataclass(frozen=True)
class Shape:
    name: str
    k: int
    n_a: int
    n_b: int
    tau: int
    construction: int
    field: tuple[int, int]  # (p, m)

    def build(self) -> repair.CodeSpec:
        return repair.CodeSpec.build(self.k, self.n_a, self.n_b, self.tau,
                                     construction=self.construction, field=gf.FieldSpec(*self.field))


STRIPE_SHAPES = (
    Shape("10-5", 5, 7, 8, 1, 1, (2, 3)),
    Shape("9-5", 5, 8, 6, 1, 1, (3, 2)),
    Shape("11-7", 7, 10, 8, 2, 1, (11, 1)),
    Shape("14-9", 9, 12, 11, 2, 1, (13, 1)),
    Shape("14-9-gf256", 9, 12, 11, 2, 1, (2, 8)),
    Shape("16-10-c2-gf256", 10, 15, 11, 4, 2, (2, 8)),
)

# Reads of each data-node repair.  Their sums over k^2 are the paper's
# lambda: 1.8 for the running example, Table 2 (2.4, 3, 3.5556) and the
# construction-2 row of Table 3 (3.45).
DATA_NODE_READS = {
    "10-5": (9,) * 5,
    "9-5": (12,) * 5,
    "11-7": (21,) * 7,
    "14-9": (32,) * 9,
    "14-9-gf256": (32,) * 9,
    "16-10-c2-gf256": (35, 34, 35, 35, 35, 35, 34, 34, 34, 34),
}
PAPER_LAMBDA = {"10-5": 1.8, "9-5": 2.4, "11-7": 3.0, "14-9": 3.5556,
                "14-9-gf256": 3.5556, "16-10-c2-gf256": 3.45}
TABLE2_BIT_OPS = {"9-5": 44.0, "11-7": 66.2857, "14-9": 70.6667}

MULTI_SHAPES = (
    Shape("5-9-2-gf11", 5, 9, 7, 2, 1, (11, 1)),
    Shape("7-11-2-gf13", 7, 11, 11, 2, 1, (13, 1)),
    Shape("9-5-gf9", 5, 8, 6, 1, 1, (3, 2)),
    Shape("14-9-gf256", 9, 12, 11, 2, 1, (2, 8)),
)

# (k, n_a, tau) where exhaustive search finds one more tolerated failure
# than the closed form guarantees (the documented criterion-4 finding).
KNOWN_FT_MISMATCHES = frozenset({(5, 9, 2), (5, 9, 3), (7, 11, 2)})
MIN_READS_7_4 = (7, 8, 7, 8)

TABLE2_LAMBDA = (2.4, 3.0, 3.5556)


def sweep_shapes():
    for k in range(4, 8):
        for n_a in range(k + 2, min(k + 4, 2 * k - 1) + 1):
            for tau in range(1, n_a - k):
                yield k, n_a, tau


def sweep_name(k: int, n_a: int, tau: int) -> str:
    return f"k{k}-na{n_a}-t{tau}"


def random_rows(rng: random.Random, q: int, k: int) -> list[list[int]]:
    return [[rng.randrange(q) for _ in range(k)] for _ in range(k)]


def erased_array(code, rows: list[list[int]], nodes, rng: random.Random) -> layout.CodeArray:
    """The stored array with `nodes` lost: mask set and every lost symbol
    overwritten with a random value, so a repair that reads one fails."""
    q, k, n = code.field.q, code.k, code.n
    lost = set(nodes)
    damaged = [[rng.randrange(q) if c in lost else v for c, v in enumerate(row)] for row in rows]
    mask = [[c in lost for c in range(n)] for _ in range(k)]
    return layout.CodeArray(code.field, k, n, damaged, mask)


def structural_gates(ledger: Ledger, codes: dict | None = None) -> dict:
    """Check the paper's exact figures on every stripe shape; return them."""
    codes = codes or {s.name: s.build() for s in STRIPE_SHAPES}
    figures = {}
    for shape in STRIPE_SHAPES:
        name, code = shape.name, codes[shape.name]
        lam, traces = metrics.measured_lambda(code)
        meas = metrics.measured_complexity(code)
        report = metrics.formula_bundle(code.n, code.k, code.n_a, code.tau, code.field)
        reads = tuple(t.total for t in traces)
        ledger.gate(f"gate:reads:{name}", reads == DATA_NODE_READS[name],
                    f"reads per data node {reads}, want {DATA_NODE_READS[name]}")
        ledger.gate(f"gate:lambda:{name}", round(lam, 4) == PAPER_LAMBDA[name],
                    f"lambda {lam}, want {PAPER_LAMBDA[name]}")
        ledger.gate(f"gate:repair_bit_ops:{name}",
                    all(x == report.repair_ops for x in meas["repair_bit_ops_per_node"]),
                    f"counted {meas['repair_bit_ops_per_node']}, closed form {report.repair_ops}")
        ledger.gate(f"gate:encode_bit_ops:{name}", meas["encode_bit_ops_per_row"] == report.encode_ops,
                    f"counted {meas['encode_bit_ops_per_row']}, closed form {report.encode_ops}")
        if name in TABLE2_BIT_OPS:
            got = round(report.repair_ops_normalized, 4)
            ledger.gate(f"gate:table2_bit_ops:{name}", got == TABLE2_BIT_OPS[name],
                        f"normalized bit-ops {got}, want {TABLE2_BIT_OPS[name]}")
        figures[name] = {
            "reads_per_data_node": list(reads),
            "lambda": lam,
            "repair_bit_ops_per_node": meas["repair_bit_ops_per_node"][0],
            "encode_bit_ops_per_row": meas["encode_bit_ops_per_row"],
            "repair_bit_ops_normalized": report.repair_ops_normalized,
            "fault_tolerance": report.fault_tolerance,
        }
    node0 = figures["10-5"]["reads_per_data_node"][0]
    ledger.gate("gate:node0_reads:10-5", node0 == 9, f"(10,5) node-0 repair took {node0} reads, want 9")
    for k, n_a, tau in sweep_shapes():
        got, want = class_a.fault_tolerance(n_a, k, tau).f, ref.formula_fault_tolerance(n_a, k, tau)
        ledger.gate(f"gate:formula_f:{sweep_name(k, n_a, tau)}", got == want,
                    f"fault_tolerance gives {got}, the closed form {want}")
    return figures


# -- workloads -----------------------------------------------------------------

@dataclass
class State:
    seed: int
    codes: dict = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)
    expected: dict = field(default_factory=dict)
    passes: int = 0
    noise: random.Random | None = None
    notes: dict = field(default_factory=dict)


class StripeRepair:
    name = "stripe_repair"
    why = ("Closed loop, 1 client: encode a seeded stripe, then repair each data and each parity "
           "node with its symbols destroyed; 6 shapes over GF(2^3), GF(3^2), GF(11), GF(13), GF(2^8)")
    shapes = [s.name for s in STRIPE_SHAPES]
    pool = 4  # stripes per shape, cycled pass by pass

    def setup(self, seed: int) -> State:
        rng = random.Random(seed)
        st = State(seed)
        for shape in STRIPE_SHAPES:
            code = shape.build()
            st.codes[shape.name] = code
            st.inputs[shape.name] = [layout.DataArray(code.field, random_rows(rng, code.field.q, code.k))
                                     for _ in range(self.pool)]
        return st

    def prepare(self, st: State) -> None:
        st.noise = random.Random(st.seed + 1)
        for name, code in st.codes.items():
            st.expected[name] = [ref.encode_for_code(code, d.rows) for d in st.inputs[name]]

    def run_pass(self, st: State, ledger: Ledger) -> None:
        slot = st.passes % self.pool
        for name, code in st.codes.items():
            data, want = st.inputs[name][slot], st.expected[name][slot]
            ledger.op(f"encode:{name}", lambda: repair.encode(code, data),
                      lambda arr: None if arr.rows == want and not any(map(any, arr.erased))
                      else "stored array differs from the reference encoding")
            reads = DATA_NODE_READS[name]
            for j in range(code.k):
                damaged = erased_array(code, want, [j], st.noise)
                ledger.op(f"repair_data:{name}", lambda: repair.repair_data_node(damaged, j, code),
                          lambda out: _check_single(out, want, j, reads[j]))
            for node in range(code.k, code.n):
                damaged = erased_array(code, want, [node], st.noise)
                ledger.op(f"repair_parity:{name}", lambda: repair.repair_parity_node(damaged, node, code),
                          lambda out: _check_single(out, want, node, None))
        st.passes += 1

    def gates(self, st: State, ledger: Ledger) -> dict:
        return structural_gates(ledger, st.codes)


def _check_single(out, want, node: int, reads: int | None) -> str | None:
    col, trace = out
    if col != ref.column(want, node):
        return f"node {node}: repaired column differs from the stored one"
    if any(n == node for n, _ in trace.reads):
        return f"node {node}: the repair read a symbol of the lost node"
    if reads is not None and trace.total != reads:
        return f"node {node}: {trace.total} reads, want {reads}"
    return None


class MultiFailure:
    name = "multi_failure"
    why = ("Closed loop, 1 client: per seeded pattern of 2..f+1 lost nodes, PBDSS1 write+read then "
           "repair_multi; (5,9,2)GF11, (7,11,2)GF13, (9,5)GF9, (14,9)GF256; schedule and rank decode")
    shapes = [s.name for s in MULTI_SHAPES]
    patterns_per_shape = 96
    pool = 4

    def setup(self, seed: int) -> State:
        rng = random.Random(seed)
        st = State(seed)
        for shape in MULTI_SHAPES:
            code = shape.build()
            code.field.dense_tables()  # used by the rank-decode fallback
            f = ref.formula_fault_tolerance(shape.n_a, shape.k, shape.tau)
            patterns = [tuple(sorted(rng.sample(range(code.n), 2 + i % f)))
                        for i in range(self.patterns_per_shape)]
            st.codes[shape.name] = code
            st.inputs[shape.name] = ([random_rows(rng, code.field.q, code.k) for _ in range(self.pool)],
                                     patterns)
        return st

    def prepare(self, st: State) -> None:
        st.noise = random.Random(st.seed + 1)
        shares = {}
        for name, code in st.codes.items():
            data, patterns = st.inputs[name]
            rows = [ref.encode_for_code(code, d) for d in data]
            decodable = {}
            for pat in patterns:
                part = tuple(x for x in pat if x < code.n_a)
                if part not in decodable:
                    decodable[part] = oracle.ml_decodable(code.class_a, part)
            outcome = {p: decodable[tuple(x for x in p if x < code.n_a)] for p in patterns}
            st.expected[name] = (rows, outcome)
            f = ref.formula_fault_tolerance(code.n_a, code.k, code.tau)
            shares[name] = {
                "patterns": len(patterns),
                "f_plus_1_share": sum(len(p) == f + 1 for p in patterns) / len(patterns),
                "class_a_f_plus_1_share": sum(len([x for x in p if x < code.n_a]) == f + 1
                                              for p in patterns) / len(patterns),
                "undecodable_share": sum(not outcome[p] for p in patterns) / len(patterns),
            }
        st.notes["pattern_shares"] = shares
        st.notes["array_bytes"] = []

    def run_pass(self, st: State, ledger: Ledger) -> None:
        slot = st.passes % self.pool
        for name, code in st.codes.items():
            rows, decodable = st.expected[name]
            want = rows[slot]
            for pattern in st.inputs[name][1]:
                damaged = erased_array(code, want, pattern, st.noise)
                ledger.op(f"multi:{name}", lambda: _multi_roundtrip(damaged, pattern, code),
                          lambda out: self._check(st, out, want, pattern, decodable[pattern]))
        st.passes += 1

    @staticmethod
    def _check(st: State, out, want, pattern, decodable: bool) -> str | None:
        size, cols = out
        st.notes["array_bytes"].append(size)
        if not decodable:
            return None if cols is None else f"pattern {pattern}: decoded, but the oracle says it cannot be"
        if cols is None:
            return f"pattern {pattern}: reported unrecoverable, but the oracle decodes it"
        if any(cols.get(x) != ref.column(want, x) for x in pattern):
            return f"pattern {pattern}: a repaired column differs from the stored one"
        return None

    def gates(self, st: State, ledger: Ledger) -> dict:
        return structural_gates(ledger)


def _multi_roundtrip(damaged, pattern, code):
    blob = layout.write_code_array(damaged)
    stored = layout.read_code_array(blob)
    try:
        return len(blob), repair.repair_multi(stored, pattern, code)
    except class_a.UnrecoverableErasureError:
        return len(blob), None


class VerifySweep:
    name = "verify_sweep"
    why = ("Closed loop, 1 client, processes=1: exhaustive fault tolerance of the 7 class-A shapes with n_a<=8 "
           "vs the closed form; 14 larger shapes and min-read on the (7,4) c2 code run once per run")
    shapes = [sweep_name(*s) for s in sweep_shapes()] + ["7-4-c2"]

    def setup(self, seed: int) -> State:
        st = State(seed)
        for k, n_a, tau in sweep_shapes():
            spec = class_a.ClassASpec.build(n_a, k, tau)
            spec.field.dense_tables()
            st.codes[(k, n_a, tau)] = spec
        st.codes["7-4-c2"] = repair.CodeSpec.build(4, 6, 5, 1, construction=2)
        st.codes["7-4-c2"].field.dense_tables()
        order = [("ft", s) for s in sweep_shapes()] + [("minread", j) for j in range(4)]
        random.Random(seed).shuffle(order)
        st.inputs["order"] = [op for op in order if not self.once(*op)]
        st.inputs["once"] = [op for op in order if self.once(*op)]
        return st

    @staticmethod
    def once(kind: str, arg) -> bool:
        """Operations of 0.05-1.4 s each: exhaustive search with n_a >= 9
        and every min-read.  The fastest of a few repetitions of so long an
        operation moved by 25 % from run to run, so they run once per run,
        as checks, outside the timed passes."""
        return kind == "minread" or arg[1] >= 9

    def prepare(self, st: State) -> None:
        st.notes["ft_found"] = {}

    def run_pass(self, st: State, ledger: Ledger) -> None:
        for kind, arg in st.inputs["order"]:
            self._op(st, ledger, kind, arg)
        st.passes += 1

    def run_once(self, st: State, ledger: Ledger) -> None:
        for kind, arg in st.inputs["once"]:
            self._op(st, ledger, kind, arg)

    def _op(self, st: State, ledger: Ledger, kind: str, arg) -> None:
        if kind == "ft":
            spec = st.codes[arg]
            ledger.op(f"ft:{sweep_name(*arg)}",
                      lambda: oracle.brute_force_fault_tolerance(spec, processes=1),
                      lambda got: self._check_ft(st, arg, got))
        else:
            code = st.codes["7-4-c2"]
            ledger.op(f"minread:{arg}", lambda: oracle.min_read_repair(code, arg),
                      lambda got: None if got == MIN_READS_7_4[arg]
                      else f"node {arg}: minimum {got} reads, want {MIN_READS_7_4[arg]}")

    @staticmethod
    def _check_ft(st: State, shape, got: int) -> str | None:
        k, n_a, tau = shape
        formula = ref.formula_fault_tolerance(n_a, k, tau)
        if got > formula:
            st.notes["ft_found"][sweep_name(*shape)] = {"formula": formula, "exhaustive": got}
        want = formula + (shape in KNOWN_FT_MISMATCHES)
        if got != want:
            return f"{sweep_name(*shape)}: exhaustive f = {got}, want {want} (formula {formula})"
        return None

    def gates(self, st: State, ledger: Ledger) -> dict:
        return structural_gates(ledger)


CLI_SHAPES = (
    # name, shape arguments, total reads over all data-node repairs (lambda * k^2)
    ("10-5", ("--k", "5", "--n-a", "7", "--n-b", "8", "--tau", "1"), 45),
    ("9-5", ("--k", "5", "--n-a", "8", "--n-b", "6", "--tau", "1"), 60),
    ("14-9", ("--k", "9", "--n-a", "12", "--n-b", "11", "--tau", "2"), 288),
    ("14-9-gf256", ("--k", "9", "--n-a", "12", "--n-b", "11", "--tau", "2",
                    "--field-p", "2", "--field-m", "8"), 288),
    ("13-8-c2", ("--k", "8", "--n-a", "12", "--n-b", "9", "--tau", "3", "--construction", "2"), 188),
    ("16-10-c2", ("--k", "10", "--n-a", "15", "--n-b", "11", "--tau", "4", "--construction", "2"), 345),
)

# Shapes whose `construct` runs once per run, before the timed passes, which
# use its spec file; `tables` runs once per run too.  These take 0.06-0.9 s
# each, and the fastest of their repetitions in a run moved by 20-25 % from
# run to run.
CLI_ONCE = ("13-8-c2", "16-10-c2")

_SIM_LINE = re.compile(r"^node (\d+): (\d+) reads \((ok|MISMATCH)\)$", re.M)
_PARITY_LINE = re.compile(r"^parity node (\d+): per-symbol reads \[[^\]]*\] \((ok|MISMATCH)\)$", re.M)
_COLUMN_LINE = re.compile(r"^  node (\d+): \[([^\]]*)\]$", re.M)


def run_cli(argv) -> tuple[int, str]:
    """pbdss.cli.main in-process, with its output captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        rc = cli.main(list(argv))
    return rc, out.getvalue()


class CliPipeline:
    name = "cli_pipeline"
    why = ("Closed loop, 1 client: pbdss.cli.main in-process, per shape construct, encode, repair-sim "
           "--trace-out, parity-sim, repair-sim --nodes; 6 shapes; c2 constructs and tables once per run")
    shapes = [s[0] for s in CLI_SHAPES]

    def __init__(self, root: Path):
        self.workdir = root / ".perfbench" / "cli"

    def setup(self, seed: int) -> State:
        rng = random.Random(seed)
        st = State(seed)
        self.workdir.mkdir(parents=True, exist_ok=True)
        st.notes["array_bytes"] = []
        for name, shape_args, _ in CLI_SHAPES:
            st.inputs[name] = {"seed": rng.randrange(1 << 30), "noise": rng.randrange(1 << 30)}
        # Warm-up: one run of every command on the smallest shape, so that
        # first-call costs (argparse, lazy imports) stay out of the loop.
        self._shape(st, Ledger(), CLI_SHAPES[0], 0)
        return st

    def prepare(self, st: State) -> None:
        st.notes["array_bytes"] = []
        shutil.rmtree(self.workdir)
        self.workdir.mkdir(parents=True)

    def run_once(self, st: State, ledger: Ledger) -> None:
        for shape in CLI_SHAPES:
            if shape[0] in CLI_ONCE:
                self._construct(ledger, shape)
        ledger.op("cli:tables", lambda: run_cli(["tables", "--table", "2", "--format", "json"]),
                  _check_tables)

    def run_pass(self, st: State, ledger: Ledger) -> None:
        for shape in CLI_SHAPES:
            self._shape(st, ledger, shape, st.passes, construct=shape[0] not in CLI_ONCE)
        st.passes += 1

    def _construct(self, ledger: Ledger, shape) -> None:
        name, shape_args, _ = shape
        spec = self.workdir / f"{name}.json"
        k, n_a, _n_b, tau = (int(shape_args[i]) for i in (1, 3, 5, 7))
        f = ref.formula_fault_tolerance(n_a, k, tau)
        ledger.op(f"cli:construct:{name}", lambda: run_cli(["construct", *shape_args, "--out", str(spec)]),
                  lambda out: _expect(out, f"fault tolerance f = {f} "))

    def _shape(self, st: State, ledger: Ledger, shape, pass_no: int, construct: bool = True) -> None:
        name, shape_args, total_reads = shape
        inp = st.inputs[name]
        d = self.workdir
        spec, arr, lost, trace = (d / f"{name}.json", d / f"{name}.bin", d / f"{name}-lost.bin",
                                  d / f"{name}-trace.json")
        seed = str(inp["seed"] + pass_no)
        k, n_a, n_b, tau = (int(shape_args[i]) for i in (1, 3, 5, 7))
        if construct:
            self._construct(ledger, shape)
        ledger.op(f"cli:encode:{name}",
                  lambda: run_cli(["encode", "--spec", str(spec), "--seed", seed, "--out", str(arr)]),
                  lambda out: _expect(out, "encoded") or _check_encoded(st, spec, arr))
        ledger.op(f"cli:repair_sim:{name}",
                  lambda: run_cli(["repair-sim", "--spec", str(spec), "--array", str(arr),
                                   "--trace-out", str(trace)]),
                  lambda out: _check_repair_sim(out, trace, k, total_reads))
        ledger.op(f"cli:parity_sim:{name}", lambda: run_cli(["parity-sim", "--spec", str(spec), "--seed", seed]),
                  lambda out: _check_parity_sim(out, n_a + n_b - 2 * k))
        blob = arr.read_bytes()
        k, n, rows = ref.parse_pbdss1(blob)
        rng = random.Random(inp["noise"] + pass_no)
        pattern = sorted(rng.sample(range(n), 2))
        damaged = bytearray(blob)
        for node in pattern:
            for row in range(k):
                off = ref.pbdss1_symbol_offset(blob, row, node)
                damaged[off:off + 2] = rng.randrange(st.notes["q"]).to_bytes(2, "little")
        lost.write_bytes(bytes(damaged))
        ledger.op(f"cli:repair_nodes:{name}",
                  lambda: run_cli(["repair-sim", "--spec", str(spec), "--array", str(lost),
                                   "--nodes", ",".join(map(str, pattern))]),
                  lambda out: _check_repair_nodes(out, rows, pattern))

    def gates(self, st: State, ledger: Ledger) -> dict:
        return structural_gates(ledger)


def _expect(out, text: str) -> str | None:
    rc, stdout = out
    if rc != 0:
        return f"exit code {rc}: {stdout.strip()[-200:]}"
    return None if text in stdout else f"output lacks {text!r}"


def _check_encoded(st: State, spec_path: Path, arr_path: Path) -> str | None:
    doc = json.loads(spec_path.read_text())
    blob = arr_path.read_bytes()
    k, n, rows = ref.parse_pbdss1(blob)
    st.notes["q"] = doc["field"]["p"] ** doc["field"]["m"]
    st.notes["array_bytes"].append(len(blob))
    want = ref.encode_for_json(doc, [row[:k] for row in rows])
    return None if rows == want else "array file differs from the reference encoding"


def _check_repair_sim(out, trace_path: Path, k: int, total_reads: int) -> str | None:
    rc, stdout = out
    if rc != 0:
        return f"exit code {rc}"
    lines = _SIM_LINE.findall(stdout)
    if [int(j) for j, _, _ in lines] != list(range(k)) or any(s != "ok" for _, _, s in lines):
        return "repair-sim did not report every data node repaired ok"
    reads = sum(int(r) for _, r, _ in lines)
    if reads != total_reads:
        return f"{reads} reads over all data nodes, want {total_reads}"
    traces = json.loads(trace_path.read_text())
    for j, tr in enumerate(traces):
        if tr["total"] != int(lines[j][1]) or any(node == j for node, _ in tr["reads"]):
            return f"trace of node {j} disagrees with the output or reads the lost node"
    return None


def _check_parity_sim(out, parity_nodes: int) -> str | None:
    rc, stdout = out
    if rc != 0:
        return f"exit code {rc}"
    lines = _PARITY_LINE.findall(stdout)
    if len(lines) != parity_nodes or any(s != "ok" for _, s in lines):
        return "parity-sim did not report every parity node repaired ok"
    return None


def _check_repair_nodes(out, rows, pattern) -> str | None:
    rc, stdout = out
    if rc != 0:
        return f"exit code {rc}"
    got = {int(node): [int(v) for v in vals.split(",")] for node, vals in _COLUMN_LINE.findall(stdout)}
    if sorted(got) != pattern or any(got[x] != ref.column(rows, x) for x in pattern):
        return f"nodes {pattern}: repaired columns differ from the stored ones"
    return None


def _check_tables(out) -> str | None:
    rc, stdout = out
    if rc != 0:
        return f"exit code {rc}"
    rows = json.loads(stdout)
    lam = tuple(r["lambda"] for r in rows)
    ops = tuple(r["repair_ops"] for r in rows)
    if lam != TABLE2_LAMBDA or ops != tuple(TABLE2_BIT_OPS.values()):
        return f"Table 2 lambda {lam}, bit-ops {ops}"
    return None


def workload(name: str, root: Path):
    classes = {"stripe_repair": StripeRepair, "multi_failure": MultiFailure,
               "verify_sweep": VerifySweep}
    if name == "cli_pipeline":
        return CliPipeline(root)
    return classes[name]()


WORKLOADS = ("stripe_repair", "multi_failure", "verify_sweep", "cli_pipeline")
