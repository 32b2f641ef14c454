"""The per-metric verdict of tools/bench_pairs.py, on synthetic runs."""

import importlib.util
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
