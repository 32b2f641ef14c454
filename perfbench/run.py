"""Run one benchmark workload against the package in ./src and report it.

    python3 perfbench/run.py --workload stripe_repair --seed 1 --seconds 10 --trace 0

Run it from the repository root.  Workloads: stripe_repair, multi_failure,
verify_sweep, cli_pipeline (see perfbench/README.md).  Every metric is
printed as `name = value unit`; the last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}.  A record with
the seed, machine and structural figures goes to
.perfbench/BENCH_<workload>_seed<seed>_trace<0|1>.json.

--trace 0 gives the end-to-end metrics from an untraced run.  --trace 1
gives the per-layer metrics: untraced passes alternate with passes that
record spans on every public function of the package, then one more pass
runs with call counters on the hot leaf calls.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent

END_TO_END = {"setup_s": "s", "pass_best_s": "s", "op_best_ms_p50": "ms", "op_best_ms_p90": "ms",
              "peak_rss_mib": "MiB"}


def percentile(sorted_values: list, pct: float):
    """Nearest-rank percentile of an already sorted list."""
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]


def git_sha(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def measure(wl, state, ledger, seconds: float, between=None) -> None:
    """Whole passes until `seconds` of wall time have gone by; `between`
    runs between passes after each quarter of that time, off the clock."""
    gc.collect()
    start = time.perf_counter()
    quarters = 1
    while True:
        wl.run_pass(state, ledger)
        ledger.end_pass()
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            break
        if between is not None and elapsed >= seconds * quarters / 4:
            paused = time.perf_counter()
            between()
            start += time.perf_counter() - paused
            quarters += 1


def measure_interleaved(wl, state, plain, traced, trace_on, trace_off, seconds: float) -> None:
    """Alternate untraced and traced passes, so both see the same machine."""
    gc.collect()
    deadline = time.perf_counter() + seconds
    while True:
        wl.run_pass(state, plain)
        plain.end_pass()
        trace_on()
        try:
            wl.run_pass(state, traced)
            traced.end_pass()
        finally:
            trace_off()
        if time.perf_counter() >= deadline:
            break


def end_to_end(setup_times: list[float], ledger) -> tuple[dict, dict]:
    """The end-to-end metrics, and the raw figures they filter.

    On a shared host the CPU speed can change by up to 2x over stretches of
    seconds, so the timings are taken where the machine was fastest: every
    operation of the pass at its fastest repetition in the run.  `pass_best_s` sums them
    over one pass, the two percentiles spread them over the pass's mix.
    """
    fastest = sorted(ledger.best_ns.values())
    passes = sorted(ledger.pass_ns)
    values = {
        "setup_s": statistics.median(setup_times),
        "pass_best_s": sum(fastest) / 1e9,
        "op_best_ms_p50": statistics.median(fastest) / 1e6,
        "op_best_ms_p90": percentile(fastest, 90) / 1e6,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = {"setup_s_all": setup_times, "passes": len(passes), "ops": ledger.ops,
           "ops_per_pass": len(fastest), "pass_s_p10": percentile(passes, 10) / 1e9,
           "pass_s_median": statistics.median(passes) / 1e9,
           "pass_s_mean": sum(passes) / len(passes) / 1e9}
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}, raw


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pbdss" / "__init__.py").is_file():
        print(f"error: no package at {ROOT / 'src' / 'pbdss'}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy
    import pbdss
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = workloads.workload(args.workload, ROOT)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "git_sha": git_sha(ROOT), "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
        "why": wl.why, "shapes": wl.shapes,
    }

    if args.trace:
        from layers import CATALOGUE, compute
        from tracer import Counters, Tracer

        tracer = Tracer()
        tracer.install(pbdss)
        state = wl.setup(args.seed)
        tracer.uninstall()
        wl.prepare(state)
        plain, traced = workloads.Ledger(), workloads.Ledger(tracer)
        if hasattr(wl, "run_once"):  # traced, for the per-layer figures of those operations
            tracer.install(pbdss)
            try:
                wl.run_once(state, traced)
            finally:
                tracer.uninstall()
            traced.end_pass()
            traced.pass_ns.clear()  # trace.overhead_frac compares the alternating passes only
        measure_interleaved(wl, state, plain, traced, lambda: tracer.install(pbdss), tracer.uninstall,
                            args.seconds)
        counters = Counters()
        counted = workloads.Ledger()
        counters.install(pbdss)
        wl.run_pass(state, counted)
        counters.uninstall()
        figures = wl.gates(state, plain)
        counts = {"add": counters.add + counters.sub, "mul": counters.mul, "reads": counters.reads,
                  "read_hits": counters.read_hits, "patterns": counters.patterns}
        metrics = compute(tracer.spans, traced.ops, counts, counted.ops, state.notes,
                          figures, plain, traced)
        ledgers = (plain, traced, counted)
        record["spans"] = len(tracer.spans)
        record["moves"] = {name: moves for name, _u, _b, _h, moves in CATALOGUE}
    else:
        # Five set-ups: before the loop, after each of its first three
        # quarters and after it, so that they fall in different stretches
        # of machine load.
        setup_times = []

        def timed_setup():
            t0 = time.perf_counter()
            fresh = wl.setup(args.seed)
            setup_times.append(time.perf_counter() - t0)
            return fresh

        state = timed_setup()
        wl.prepare(state)
        once = workloads.Ledger()
        if hasattr(wl, "run_once"):
            wl.run_once(state, once)
        ledger = workloads.Ledger()
        measure(wl, state, ledger, args.seconds, between=timed_setup)
        figures = wl.gates(state, ledger)
        timed_setup()
        metrics, record["samples"] = end_to_end(setup_times, ledger)
        record["samples"]["once_ms"] = {k: v / 1e6 for k, v in once.label_ns.items()}
        ledgers = (ledger, once)

    attempted = sum(x.attempted for x in ledgers)
    failed = sum(x.failed for x in ledgers)
    record.update({
        "attempted": attempted, "failed": failed, "ops_failed_frac": failed / attempted,
        "failures": [f for x in ledgers for f in x.failures][:20],
        "structural_figures": figures,
        "notes": {k: v for k, v in state.notes.items() if k not in ("array_bytes", "q")},
        "metrics": metrics,
    })
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")

    for failure in record["failures"]:
        print(f"FAILED {failure}")
    if "ft_found" in state.notes:
        found = ", ".join(sorted(state.notes["ft_found"])) or "none"
        print(f"fault-tolerance shapes where exhaustive search beats the formula: {found}")
    print(f"ops_failed_frac = {failed / attempted:.6g} ({failed} of {attempted})")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"record written to {path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
