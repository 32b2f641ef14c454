"""Run alternating parent/change pairs of the benchmark and summarise them.

    python3 tools/bench_pairs.py --parent ../parent --change . \
        --workload multi_failure --seeds 9101-9110 --out bench-records/x/runs.jsonl

For each seed in the range, runs `perfbench/run.py --workload W --seed S
--seconds T --trace R` once in each source tree, each in its own process
with the tree as working directory: the parent first on even offsets from
the first seed, the change first on odd ones.  Every run appends one JSON
line to --out: side, workload, seed, trace, return code, the run's result
line and its wall time.  At the end it prints, for each end-to-end metric
of BENCHMARK.json, every pair's two values, then the median [quartiles] of
each side, the change in the medians, the parent's interquartile range and
how many pairs the change won (ties count for neither side), and the
operations per run.  Each metric ends with its bound from BENCHMARK.json
and a verdict (see `verdict`).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")


def run_once(tree: Path, side: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        print(f"{side} seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}", file=sys.stderr)
    return {"side": side, "workload": workload, "seed": seed, "trace": trace, "returncode": done.returncode,
            "result": result, "wall_s": round(time.monotonic() - start, 1)}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Median and the lower and upper quartiles, interpolated linearly."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q1, q3


def verdict(parent: list[float], change: list[float], bound: float, better: str) -> str:
    """One end-to-end metric's verdict on paired runs, with `bound` the
    share of the parent's median by which the change may be worse.

    "worse than bound" when the change's median is worse than the
    parent's by more than that; otherwise "unresolved" when the parent's
    interquartile range is wider than that and not every change run beats
    every parent run, since the runs then cannot tell a change within the
    bound from none; otherwise "within bound".
    """
    sign = 1 if better == "lower" else -1
    (pm, p1, p3), (cm, _, _) = quartiles(parent), quartiles(change)
    limit = bound * abs(pm)
    if sign * (cm - pm) > limit:
        return "worse than bound"
    all_beat = max(sign * c for c in change) < min(sign * p for p in parent)
    if p3 - p1 > limit and not all_beat:
        return "unresolved"
    return "within bound"


def summarise(runs: list[dict], metrics: list[dict]) -> None:
    by_seed: dict[int, dict[str, dict]] = {}
    for run in runs:
        if run["result"] is not None:
            by_seed.setdefault(run["seed"], {})[run["side"]] = run["result"]
    pairs = [(seed, sides) for seed, sides in sorted(by_seed.items()) if len(sides) == 2]
    failed = [r for r in runs if r["result"] is None or not r["result"]["correct"] or r["result"]["failed"]]
    print(f"{len(pairs)} complete pairs; {len(failed)} runs failed, incorrect or with failed operations")
    if not pairs:
        return
    for side in SIDES:
        ops = [sides[side]["attempted"] for _, sides in pairs]
        print(f"{side} operations per run: median {statistics.median(ops):g}, range {min(ops)}-{max(ops)}")
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        values = {side: [sides[side]["metrics"][name]["value"] for _, sides in pairs] for side in SIDES}
        print(f"\n{name} ({metric['unit']}, {metric['better']} is better)")
        for (seed, _), p, c in zip(pairs, values["parent"], values["change"]):
            print(f"  seed {seed}: parent {p:.6g}  change {c:.6g}  ({(c - p) / p:+.1%})")
        (pm, p1, p3), (cm, c1, c3) = quartiles(values["parent"]), quartiles(values["change"])
        wins = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
        print(f"  parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  change {cm:.6g} [{c1:.6g}, {c3:.6g}]  "
              f"median change {(cm - pm) / pm:+.1%}, |difference| {abs(cm - pm):.4g} vs parent IQR "
              f"{p3 - p1:.4g}; change won {wins}/{len(pairs)}")
        print(f"  bound {metric['bound']:.0%}: "
              f"{verdict(values['parent'], values['change'], metric['bound'], metric['better'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="source tree of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="source tree of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="first-last, inclusive, e.g. 9101-9110")
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True, help="runs.jsonl to append to")
    args = parser.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    benchmark = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    runs = []
    for offset, seed in enumerate(seeds):
        for side in SIDES if offset % 2 == 0 else SIDES[::-1]:
            run = run_once(trees[side], side, args.workload, seed, args.seconds, args.trace)
            runs.append(run)
            with args.out.open("a") as fh:
                fh.write(json.dumps(run) + "\n")
            print(f"{side} seed {seed}: exit {run['returncode']}, {run['wall_s']} s", flush=True)
    summarise(runs, benchmark["end_to_end"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
