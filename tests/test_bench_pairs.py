"""The per-metric verdict of tools/bench_pairs.py, on synthetic runs."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

TIGHT = [4.0, 4.02, 4.04, 4.06, 4.08, 4.1, 4.12, 4.14, 4.16, 4.18]  # IQR 0.09, 2 % of the median
BANDED = [4.0, 4.1, 4.2, 4.3, 4.4, 5.0, 5.1, 5.2, 5.3, 5.4]  # IQR 0.95, 20 % of the median


@pytest.mark.parametrize("parent,change,bound,better,want", [
    # the median 25.3 % worse, as setup_s once read, is past a 25 % bound
    (TIGHT, [x * 1.253 for x in TIGHT], 0.25, "lower", "worse than bound"),
    (TIGHT, [x * 1.2 for x in TIGHT], 0.25, "lower", "within bound"),
    (TIGHT, [x * 0.5 for x in TIGHT], 0.25, "lower", "within bound"),
    # higher is better: a drop is the worsening
    (TIGHT, [x * 0.7 for x in TIGHT], 0.25, "higher", "worse than bound"),
    (TIGHT, [x * 1.5 for x in TIGHT], 0.25, "higher", "within bound"),
    # a spread wider than the bound cannot tell a small worsening from none
    (BANDED, BANDED, 0.1, "lower", "unresolved"),
    (BANDED, [x * 1.05 for x in BANDED], 0.1, "lower", "unresolved"),
    (BANDED, [x * 1.05 for x in BANDED], 0.25, "lower", "within bound"),
    # unless every change run beats every parent run
    (BANDED, [x * 0.7 for x in BANDED], 0.1, "lower", "within bound"),
    (BANDED, [x * 1.5 for x in BANDED], 0.1, "higher", "within bound"),
    (BANDED, [x * 0.7 for x in BANDED], 0.1, "higher", "worse than bound"),
])
def test_verdict(parent, change, bound, better, want):
    assert bench_pairs.verdict(parent, change, bound, better) == want


def test_verdict_on_one_pair():
    assert bench_pairs.verdict([2.0], [2.4], 0.25, "lower") == "within bound"
    assert bench_pairs.verdict([2.0], [2.6], 0.25, "lower") == "worse than bound"


def _run(side, workload, trace, seed, value):
    metrics = {name: {"value": value} for name in ("setup_s", "pass_best_s", "op_best_ms_p50",
                                                   "op_best_ms_p90", "peak_rss_mib")}
    return {"side": side, "workload": workload, "seed": seed, "trace": trace, "returncode": 0,
            "result": {"correct": True, "failed": 0, "attempted": 10, "metrics": metrics}, "wall_s": 1.0}


# two workloads on the same seeds, and traced runs of one of them: the
# value tells each run's workload, trace and side apart
MIXED = [_run(side, workload, trace, seed, base + seed + (0.5 if side == "change" else 0))
         for workload, trace, base, seeds in (("alpha", 0, 100, (1, 2)), ("beta", 0, 200, (1, 2)),
                                              ("alpha", 1, 300, (1,)))
         for seed in seeds for side in bench_pairs.SIDES]


def test_pairs_key_by_workload_trace_and_seed():
    groups = bench_pairs.paired(MIXED + [_run("parent", "beta", 0, 3, 1.0)])  # seed 3 has no change run
    assert sorted(groups) == [("alpha", 0), ("alpha", 1), ("beta", 0)]
    for (workload, trace), base in ((("alpha", 0), 100), (("beta", 0), 200), (("alpha", 1), 300)):
        pairs = groups[(workload, trace)]
        assert [seed for seed, _ in pairs] == ([1] if trace else [1, 2])
        for seed, sides in pairs:
            assert {side: r["metrics"]["setup_s"]["value"] for side, r in sides.items()} == {
                "parent": base + seed, "change": base + seed + 0.5}


def test_summarise_an_existing_file(tmp_path, capsys):
    # older records have no "trace" key; they were all untraced
    untraced = [{k: v for k, v in _run(side, "gamma", 0, 1, 400.0).items() if k != "trace"}
                for side in bench_pairs.SIDES]
    path = tmp_path / "runs.jsonl"
    path.write_text("".join(json.dumps(run) + "\n" for run in MIXED + untraced))
    assert bench_pairs.main(["--summarise", str(path)]) == 0
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if line.startswith("===")] == [
        "=== alpha, trace 0", "=== alpha, trace 1", "=== beta, trace 0", "=== gamma, trace 0"]
    assert "seed 1: parent 201  change 201.5" in out
    assert bench_pairs.main(["--summarise", str(path), "--workload", "gamma", "--trace", "0"]) == 0
    out = capsys.readouterr().out
    assert out.count("1 complete pairs") == 1 and "seed 1: parent 400  change 400" in out
    assert bench_pairs.main(["--summarise", str(path), "--workload", "alpha", "--trace", "0"]) == 0
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if line.startswith("===")] == ["=== alpha, trace 0"]
    assert out.count("2 complete pairs") == 1 and "seed 2: parent 102  change 102.5" in out
