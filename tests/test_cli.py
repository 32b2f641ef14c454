import argparse
import contextlib
import functools
import hashlib
import io
import json
import operator
import os
import random
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pbdss import cli
from pbdss.cli import main
from pbdss.layout import DataArray, read_code_array, write_code_array
from pbdss.repair import CodeSpec, encode, repair_data_node


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_construct_and_repair_flow(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    code, out, _ = run(capsys, "construct", "--k", "5", "--n-a", "7", "--n-b", "8",
                       "--tau", "1", "--out", str(spec_path))
    assert code == 0
    assert "fault tolerance f = 2" in out
    assert "repair bandwidth bound = 1.8000" in out
    assert spec_path.exists()

    arr_path = tmp_path / "arr.bin"
    code, out, _ = run(capsys, "encode", "--spec", str(spec_path), "--seed", "7",
                       "--out", str(arr_path))
    assert code == 0

    trace_path = tmp_path / "traces.json"
    code, out, _ = run(capsys, "repair-sim", "--spec", str(spec_path),
                       "--array", str(arr_path), "--trace-out", str(trace_path))
    assert code == 0
    assert "average lambda = 1.8000" in out
    assert out.count("(ok)") == 5
    traces = json.loads(trace_path.read_text())
    assert len(traces) == 5
    assert all(t["total"] == 9 for t in traces)


def test_construct_heuristic(tmp_path, capsys):
    code, out, _ = run(capsys, "construct", "--k", "4", "--n-a", "6", "--n-b", "5",
                       "--tau", "1", "--construction", "2")
    assert code == 0
    assert "construction=2" in out


def test_validation_exit_code(capsys):
    code, _, err = run(capsys, "construct", "--k", "5", "--n-a", "7", "--n-b", "8", "--tau", "2")
    assert code == 2
    assert "tau" in err


def test_unrecoverable_exit_code(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    run(capsys, "construct", "--k", "5", "--n-a", "7", "--n-b", "8", "--tau", "1",
        "--out", str(spec_path))
    code, _, err = run(capsys, "repair-sim", "--spec", str(spec_path),
                       "--nodes", "0,1,2", "--seed", "1")
    assert code == 3
    assert "unrecoverable" in err


def test_multi_node_repair(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    run(capsys, "construct", "--k", "5", "--n-a", "7", "--n-b", "8", "--tau", "1",
        "--out", str(spec_path))
    code, out, _ = run(capsys, "repair-sim", "--spec", str(spec_path),
                       "--nodes", "0,3", "--seed", "1")
    assert code == 0
    assert "repaired nodes [0, 3]" in out
    # a repeated node is repaired and printed once
    code, repeated, _ = run(capsys, "repair-sim", "--spec", str(spec_path),
                            "--nodes", "3,0,0,3", "--seed", "1")
    assert (code, repeated) == (0, out)


@pytest.mark.parametrize("nodes", ["--nodes=", "--nodes= ", "--nodes=\t"])
@pytest.mark.parametrize("array", [False, True])
def test_empty_nodes_pattern_exits_2(tmp_path, capsys, nodes, array):
    """An empty --nodes used to fall through to the repair of every data
    node, print five "(ok)" lines and exit 0."""
    spec_path, arr_path = _spec_and_array(tmp_path, capsys)
    code, out, err = run(capsys, "repair-sim", "--spec", str(spec_path), nodes,
                         *(["--array", str(arr_path)] if array else []))
    assert (code, out, err) == (2, "", "error: --nodes needs at least one node index\n")


def test_punctured_sim(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    run(capsys, "construct", "--k", "5", "--n-a", "7", "--n-b", "8", "--tau", "1",
        "--out", str(spec_path))
    code, out, _ = run(capsys, "repair-sim", "--spec", str(spec_path), "--punctured", "3")
    assert code == 0
    assert "average lambda = 4.2000" in out


def test_parity_sim(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    run(capsys, "construct", "--k", "5", "--n-a", "7", "--n-b", "8", "--tau", "1",
        "--out", str(spec_path))
    code, out, _ = run(capsys, "parity-sim", "--spec", str(spec_path))
    assert code == 0
    assert out.count("(ok)") == 5


def test_tables_csv_and_json(capsys):
    code, out, _ = run(capsys, "tables", "--table", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("code,")
    assert "(7,4),6,1,2.0,1.875,6.25" in lines
    assert "(13,8),12,3,3.0,2.9375,2.08" in lines
    code, out, _ = run(capsys, "tables", "--table", "2", "--format", "json")
    rows = json.loads(out)
    assert rows[1]["repair_ops"] == 66.2857
    assert rows[1]["lambda"] == 3.0


def test_deterministic_outputs(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        run(capsys, "construct", "--k", "4", "--n-a", "6", "--n-b", "5", "--tau", "1",
            "--construction", "2", "--out", str(path))
    assert a.read_bytes() == b.read_bytes()
    out1 = run(capsys, "tables", "--table", "3")[1]
    out2 = run(capsys, "tables", "--table", "3")[1]
    assert out1 == out2


def test_field_override(tmp_path, capsys):
    code, out, _ = run(capsys, "construct", "--k", "5", "--n-a", "8", "--n-b", "6",
                       "--tau", "1", "--field-p", "11")
    assert code == 0
    assert "field=GF(11)" in out


@pytest.mark.parametrize("extra", [("--field-m", "2"), ("--field-p", "0", "--field-m", "5")])
def test_field_m_without_field_p_exits_2(capsys, extra):
    """--field-m alone would otherwise be dropped and the default field built."""
    code, out, err = run(capsys, "construct", "--k", "5", "--n-a", "7", "--n-b", "8", "--tau", "1", *extra)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "--field-m" in err


def test_verify_quick_reports_known_exceedances(capsys):
    # the exhaustive oracle beats the closed-form guarantee by one on two
    # small-sweep shapes; both are checked exceedances, so verify passes
    code, out, _ = run(capsys, "verify", "--quick")
    assert code == 0
    assert out.startswith("decided 1536 erasure patterns\n")
    assert "n_a=9, k=5, tau=2" in out
    assert "formula 3, exhaustive 4" in out
    assert "FAIL" not in out
    assert out.count("NOTE:") == 2
    assert out.rstrip().endswith("PASS")


def test_verify_jobs_start_at_most_the_usable_cpus(monkeypatch):
    """--jobs 100000 reaches a level of 126 patterns at (k, n_a) = (5, 9),
    where the search opens its pool: with at most as many workers as the
    CPUs this process may use.  The stub pool records the count and
    raises, so no worker starts, whatever the count."""
    from pbdss import oracle

    class Refused(Exception):
        pass

    asked = []

    def pool(processes):
        asked.append(processes)
        raise Refused

    monkeypatch.setattr(oracle, "Pool", pool)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    with contextlib.suppress(Refused):
        main(["verify", "--quick", "--jobs", "100000"])
    assert asked == ([cpus] if cpus > 1 else [])


def _spec_and_array(tmp_path, capsys, shape=("5", "7", "8", "1"), name="spec"):
    k, n_a, n_b, tau = shape
    spec_path, arr_path = tmp_path / f"{name}.json", tmp_path / f"{name}.bin"
    run(capsys, "construct", "--k", k, "--n-a", n_a, "--n-b", n_b, "--tau", tau,
        "--field-p", "2", "--field-m", "3", "--out", str(spec_path))
    code, _, _ = run(capsys, "encode", "--spec", str(spec_path), "--seed", "3",
                     "--out", str(arr_path))
    assert code == 0
    return spec_path, arr_path


@pytest.mark.parametrize("part", ["header", "reduction polynomial", "symbols", "erasure mask"])
def test_truncated_array_exits_2(tmp_path, capsys, part):
    spec_path, arr_path = _spec_and_array(tmp_path, capsys)
    blob = arr_path.read_bytes()
    # PBDSS1 over GF(2^3), (10,5): 16-byte header, 8-byte reduction, 100-byte body, 7-byte mask
    assert len(blob) == 16 + 8 + 100 + 7
    cut = {"header": 10, "reduction polynomial": 20, "symbols": 24 + 51, "erasure mask": len(blob) - 1}
    arr_path.write_bytes(blob[: cut[part]])
    code, _, err = run(capsys, "repair-sim", "--spec", str(spec_path), "--array", str(arr_path))
    assert code == 2
    assert f"truncated PBDSS1 array: {part}" in err


def test_array_with_trailing_bytes_exits_2(tmp_path, capsys):
    spec_path, arr_path = _spec_and_array(tmp_path, capsys)
    arr_path.write_bytes(arr_path.read_bytes() + b"garbage!")
    code, _, err = run(capsys, "repair-sim", "--spec", str(spec_path), "--array", str(arr_path))
    assert code == 2
    assert "8 trailing bytes after the erasure mask" in err


def test_array_of_another_code_exits_2(tmp_path, capsys):
    spec_path, _ = _spec_and_array(tmp_path, capsys)
    _, other_arr = _spec_and_array(tmp_path, capsys, ("5", "7", "6", "1"), name="other")
    code, _, err = run(capsys, "repair-sim", "--spec", str(spec_path), "--array", str(other_arr))
    assert code == 2
    assert "array is a (8,5) code over GF(2^3), but the spec is (10,5) over GF(2^3)" in err


def test_array_over_another_field_exits_2(tmp_path, capsys):
    spec_path, arr_path = _spec_and_array(tmp_path, capsys)
    other = tmp_path / "gf11.json"
    run(capsys, "construct", "--k", "5", "--n-a", "7", "--n-b", "8", "--tau", "1",
        "--field-p", "11", "--out", str(other))
    code, _, err = run(capsys, "repair-sim", "--spec", str(other), "--array", str(arr_path))
    assert code == 2
    assert "over GF(2^3), but the spec is (10,5) over GF(11)" in err


def test_punctured_repair_from_array(tmp_path, capsys):
    spec_path, arr_path = _spec_and_array(tmp_path, capsys)
    code, out, _ = run(capsys, "repair-sim", "--spec", str(spec_path), "--array", str(arr_path),
                       "--punctured", "3")
    assert code == 0
    assert out.count("(ok)") == 5


@pytest.mark.parametrize("mangle,key", [
    (lambda d: {"k": 5}, "'field'"),
    (lambda d: {**d, "classA": {**d["classA"], "tau": "1"}}, "'classA.tau' must be an integer"),
    (lambda d: {**d, "field": {"p": 2, "m": 3}}, "'field.reduction'"),
    (lambda d: {**d, "classB": {**d["classB"], "parities": 3}}, "'classB.parities' must be a list"),
    (lambda d: {**d, "classA": {**d["classA"], "alpha": [[1, None]] + d["classA"]["alpha"][1:]}},
     "'classA.alpha[0][1]' must be an integer"),
    (lambda d: [d], "the spec must be an object"),
    (lambda d: {**d, "field": 7}, "'field' must be an object"),
    (lambda d: {**d, "field": {"p": 2**89 - 1, "m": 1}}, "exceeds 65536"),
    (lambda d: {**d, "classA": {**d["classA"], "alpha": [[8] * 2] * 5}},
     "alpha entries must be elements of GF(2^3)"),
    (lambda d: {**d, "classB": {**d["classB"], "parities": [[[[0, 5]]] * 5] * 3}},
     "parity position outside the 5 x 5 data array"),
])
def test_malformed_spec_exits_2(tmp_path, capsys, mangle, key):
    spec_path, _ = _spec_and_array(tmp_path, capsys)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(mangle(json.loads(spec_path.read_text()))))
    code, _, err = run(capsys, "encode", "--spec", str(bad), "--out", str(tmp_path / "x.bin"))
    assert code == 2
    assert key in err


def test_non_mds_alpha_exits_2(tmp_path, capsys):
    """A spec whose alpha is not MDS is refused on load.  With alpha[0][0]
    = 0 the (10,5) repair used to die dividing by zero, and the closed-form
    f = 2 overstated the exhaustive tolerance of 1."""
    spec_path, arr_path = _spec_and_array(tmp_path, capsys)
    doc = json.loads(spec_path.read_text())
    doc["classA"]["alpha"][0][0] = 0
    spec_path.write_text(json.dumps(doc))
    for argv in (["repair-sim", "--spec", str(spec_path)],
                 ["repair-sim", "--spec", str(spec_path), "--array", str(arr_path)],
                 ["encode", "--spec", str(spec_path), "--out", str(tmp_path / "x.bin")]):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert "MDS check failed" in err


def test_env_seed_override(tmp_path, capsys, monkeypatch):
    spec_path = tmp_path / "spec.json"
    run(capsys, "construct", "--k", "5", "--n-a", "7", "--n-b", "8", "--tau", "1",
        "--out", str(spec_path))
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    monkeypatch.setenv("PBDSS_SEED", "42")
    run(capsys, "encode", "--spec", str(spec_path), "--out", str(a))
    monkeypatch.delenv("PBDSS_SEED")
    run(capsys, "encode", "--spec", str(spec_path), "--seed", "42", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_prime_field_reduction_is_checked(tmp_path, capsys):
    spec_path = tmp_path / "gf11.json"
    arr_path = tmp_path / "gf11.bin"
    run(capsys, "construct", "--k", "5", "--n-a", "7", "--n-b", "8", "--tau", "1",
        "--field-p", "11", "--out", str(spec_path))
    run(capsys, "encode", "--spec", str(spec_path), "--seed", "3", "--out", str(arr_path))
    blob = arr_path.read_bytes()
    assert blob[16:20] == bytes([0, 0, 1, 0])  # GF(11) stores the reduction (0, 1)
    arr_path.write_bytes(blob[:16] + bytes([5, 0, 7, 0]) + blob[20:])
    code, _, err = run(capsys, "repair-sim", "--spec", str(spec_path), "--array", str(arr_path))
    assert code == 2
    assert "reduction must be monic" in err
    doc = json.loads(spec_path.read_text())
    for reduction, message in (([5, 7], "reduction must be monic"), (["x"], "'field.reduction[0]'")):
        doc["field"]["reduction"] = reduction
        spec_path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "encode", "--spec", str(spec_path), "--out", str(arr_path))
        assert code == 2
        assert message in err


def test_env_seed_override_after_parser_built(tmp_path, capsys, monkeypatch):
    """The parser is built once per process, so PBDSS_SEED must be read on
    every call, not when the parser is built."""
    spec_path = tmp_path / "spec.json"
    run(capsys, "construct", "--k", "5", "--n-a", "7", "--n-b", "8", "--tau", "1",
        "--out", str(spec_path))
    a, b, c = tmp_path / "a.bin", tmp_path / "b.bin", tmp_path / "c.bin"
    monkeypatch.delenv("PBDSS_SEED", raising=False)
    run(capsys, "encode", "--spec", str(spec_path), "--seed", "42", "--out", str(b))
    monkeypatch.setenv("PBDSS_SEED", "42")
    run(capsys, "encode", "--spec", str(spec_path), "--out", str(a))
    assert a.read_bytes() == b.read_bytes()
    monkeypatch.delenv("PBDSS_SEED")
    run(capsys, "encode", "--spec", str(spec_path), "--out", str(c))
    assert c.read_bytes() != a.read_bytes()
    monkeypatch.setenv("PBDSS_SEED", "x")
    code, _, err = run(capsys, "encode", "--spec", str(spec_path), "--out", str(c))
    assert code == 2
    assert "invalid literal" in err


def test_repeated_commands_give_identical_outputs(tmp_path, capsys):
    spec, arr, trace = tmp_path / "spec.json", tmp_path / "arr.bin", tmp_path / "trace.json"
    for argv in (["construct", "--k", "4", "--n-a", "6", "--n-b", "5", "--tau", "1",
                  "--construction", "2", "--out", str(spec)],
                 ["encode", "--spec", str(spec), "--seed", "4", "--out", str(arr)],
                 ["repair-sim", "--spec", str(spec), "--array", str(arr), "--trace-out", str(trace)],
                 ["repair-sim", "--spec", str(spec), "--array", str(arr), "--nodes", "1,5"],
                 ["parity-sim", "--spec", str(spec)]):
        first = run(capsys, *argv), [p.read_bytes() for p in (spec, arr, trace) if p.exists()]
        second = run(capsys, *argv), [p.read_bytes() for p in (spec, arr, trace) if p.exists()]
        assert first[0][0] == 0, argv
        assert second == first, argv


def test_bad_argv_then_good_argv(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["encode", "--spec"])
    assert exc.value.code == 2
    code, out, _ = run(capsys, "construct", "--k", "5", "--n-a", "7", "--n-b", "8", "--tau", "1")
    assert code == 0
    assert "fault tolerance f = 2" in out


def test_parser_built_at_most_once(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        if kwargs.get("prog") == "pbdss":  # the top-level parser, not its subparsers
            built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for _ in range(2):
        code, _, _ = run(capsys, "construct", "--k", "5", "--n-a", "7", "--n-b", "8", "--tau", "1")
        assert code == 0
    assert len(built) <= 1


def test_rewritten_spec_is_parsed_again(tmp_path, capsys, monkeypatch):
    parsed = []
    from_json = CodeSpec.from_json.__func__
    monkeypatch.setattr(CodeSpec, "from_json",
                        classmethod(lambda cls, text: parsed.append(text) or from_json(cls, text)))
    cli._parse_spec.cache_clear()
    spec_path = tmp_path / "spec.json"
    run(capsys, "construct", "--k", "5", "--n-a", "7", "--n-b", "8", "--tau", "1",
        "--out", str(spec_path))
    first = run(capsys, "repair-sim", "--spec", str(spec_path), "--seed", "1")
    assert run(capsys, "repair-sim", "--spec", str(spec_path), "--seed", "1") == first
    assert first[1].count("(ok)") == 5
    assert len(parsed) == 1
    run(capsys, "construct", "--k", "4", "--n-a", "6", "--n-b", "5", "--tau", "1",
        "--out", str(spec_path))
    code, out, _ = run(capsys, "repair-sim", "--spec", str(spec_path), "--seed", "1")
    assert code == 0
    assert out.count("(ok)") == 4
    assert len(parsed) == 2


def test_malformed_spec_exits_2_on_every_call(tmp_path, capsys):
    spec_path, _ = _spec_and_array(tmp_path, capsys)
    doc = json.loads(spec_path.read_text())
    doc["classA"]["tau"] = "1"
    spec_path.write_text(json.dumps(doc))
    for _ in range(3):
        code, _, err = run(capsys, "encode", "--spec", str(spec_path), "--out", str(tmp_path / "x.bin"))
        assert code == 2
        assert "'classA.tau' must be an integer" in err


def test_trace_file_holds_one_trace_per_line(tmp_path, capsys):
    spec_path, arr_path = _spec_and_array(tmp_path, capsys)
    trace_path = tmp_path / "traces.json"
    code, _, _ = run(capsys, "repair-sim", "--spec", str(spec_path), "--array", str(arr_path),
                     "--trace-out", str(trace_path))
    assert code == 0
    spec = CodeSpec.from_json(spec_path.read_text())
    array = read_code_array(arr_path.read_bytes())
    traces = [repair_data_node(array, j, spec)[1] for j in range(spec.k)]
    text = trace_path.read_text()
    assert json.loads(text) == [t.to_json_dict() for t in traces]
    assert text.splitlines() == ["["] + [f"  {t.to_json()}," for t in traces[:-1]] + [
        f"  {traces[-1].to_json()}", "]"]


def test_trace_file_is_pinned(tmp_path, capsys):
    """The bytes of the (14,9) trace file over GF(13), by SHA-256: the
    traces do not depend on the data, and the seed is fixed anyway."""
    spec_path, arr_path, trace_path = tmp_path / "s.json", tmp_path / "a.bin", tmp_path / "t.json"
    run(capsys, "construct", "--k", "9", "--n-a", "12", "--n-b", "11", "--tau", "2", "--out", str(spec_path))
    run(capsys, "encode", "--spec", str(spec_path), "--seed", "23", "--out", str(arr_path))
    code, _, _ = run(capsys, "repair-sim", "--spec", str(spec_path), "--array", str(arr_path),
                     "--trace-out", str(trace_path))
    assert code == 0
    assert hashlib.sha256(trace_path.read_bytes()).hexdigest() == (
        "4a21ff00088689d81bc9510bff532e148b3706581c39492b6d1d87bd7598d9bf")


@pytest.mark.parametrize("table,fmt,digest", [
    ("2", "csv", "439d4ee424d5539bd161decc9bfa0bf07dcdae2f4b37e6517205dfe79caa6cee"),
    ("2", "json", "e81b7a1b163a55f97a1516bcf7f4b0eddf3a78ee8abf0ac8fd5ee5647c992251"),
    ("3", "csv", "e82b4b6419f643a9e3b1b090af7f3dacd4de672fe079083ed02f0bfc27ea68da"),
    ("3", "json", "a50bc1cdbc495058674aac2a540db039b7cc4db53a6f1b302910d5dce3248ac8"),
])
def test_tables_are_pinned(capsys, table, fmt, digest):
    """The bytes `tables` prints, by SHA-256: its lambda and bit-op figures
    are read off the compiled plans, and take no seed."""
    code, out, _ = run(capsys, "tables", "--table", table, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_masked_node_is_not_checked_against_its_stored_symbols(tmp_path, capsys):
    """A node the array file marks as erased has no stored column to check
    its repair against: its status says so, where it once read MISMATCH for
    a correct repair of a column whose erased bytes had changed."""
    spec_path, arr_path = _spec_and_array(tmp_path, capsys)
    array = read_code_array(arr_path.read_bytes())
    want = array.symbols[:, 0].tolist()
    damaged = array.copy()
    damaged.symbols[:, 0] = (damaged.symbols[:, 0] + 1) % damaged.field.q
    damaged.erase_nodes([0])
    arr_path.write_bytes(write_code_array(damaged))
    code, out, _ = run(capsys, "repair-sim", "--spec", str(spec_path), "--array", str(arr_path))
    assert code == 0
    assert "node 0: 9 reads (not checked: erased in the array)" in out.splitlines()
    assert "MISMATCH" not in out and out.count("(ok)") == 4
    code, out, _ = run(capsys, "repair-sim", "--spec", str(spec_path), "--array", str(arr_path), "--nodes", "0")
    assert code == 0 and f"  node 0: {want}" in out.splitlines()


def test_node_and_nodes_are_exclusive(tmp_path, capsys):
    """--node used to be dropped without a word when --nodes was given too."""
    spec_path, _ = _spec_and_array(tmp_path, capsys)
    with pytest.raises(SystemExit) as exc:
        main(["repair-sim", "--spec", str(spec_path), "--node", "0", "--nodes", "1,2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --nodes: not allowed with argument --node" in err


def _outputs(tmp_path, spec_path, arr_path):
    """Each command that writes a file, as (argv, the path it writes)."""
    spec, arr, trace, table = (tmp_path / n for n in ("out.json", "out.bin", "trace.json", "table.csv"))
    return [
        (["construct", "--k", "5", "--n-a", "7", "--n-b", "8", "--tau", "1", "--out", spec], spec),
        (["encode", "--spec", spec_path, "--seed", "3", "--out", arr], arr),
        (["repair-sim", "--spec", spec_path, "--array", arr_path, "--trace-out", trace], trace),
        (["tables", "--table", "3", "--out", table], table),
    ]


def test_outputs_rewrite_in_place(tmp_path, capsys):
    """Rewriting a longer file leaves exactly the bytes of a fresh write, in
    the same inode, seen through every link, with the file's mode kept."""
    spec_path, arr_path = _spec_and_array(tmp_path, capsys)
    for argv, path in _outputs(tmp_path, spec_path, arr_path):
        argv = [str(a) for a in argv]
        assert run(capsys, *argv)[0] == 0
        fresh = path.read_bytes()
        path.write_bytes(b"x" * (len(fresh) + 4096))
        path.chmod(0o600)
        link = tmp_path / (path.name + ".link")
        os.link(path, link)
        inode = path.stat().st_ino
        assert run(capsys, *argv)[0] == 0
        assert path.read_bytes() == fresh, argv
        assert link.read_bytes() == fresh
        assert path.stat().st_ino == inode
        assert path.stat().st_mode & 0o777 == 0o600


def test_new_output_gets_default_mode(tmp_path, capsys):
    old = os.umask(0o027)
    try:
        code, _, _ = run(capsys, "tables", "--table", "3", "--out", str(tmp_path / "t.csv"))
        with open(tmp_path / "by_open.csv", "w"):
            pass
    finally:
        os.umask(old)
    assert code == 0
    assert (tmp_path / "t.csv").stat().st_mode & 0o777 == 0o640
    assert (tmp_path / "by_open.csv").stat().st_mode & 0o777 == 0o640


def test_encode_to_dev_null(tmp_path, capsys):
    """A character device is written but not cut to length (ftruncate would fail)."""
    spec_path, _ = _spec_and_array(tmp_path, capsys)
    code, out, err = run(capsys, "encode", "--spec", str(spec_path), "--out", os.devnull)
    assert (code, err) == (0, "")
    assert out == f"encoded 5x10 array written to {os.devnull}\n"


def test_directory_as_output_exits_2(tmp_path, capsys):
    spec_path, arr_path = _spec_and_array(tmp_path, capsys)
    (tmp_path / "dir").mkdir()
    for argv, _ in _outputs(tmp_path, spec_path, arr_path):
        code, _, err = run(capsys, *map(str, argv[:-1]), str(tmp_path / "dir"))
        assert code == 2
        assert err == f"error: [Errno 21] Is a directory: {str(tmp_path / 'dir')!r}\n"


_SHAPE = ["--k", "5", "--n-a", "7", "--n-b", "8", "--tau", "1"]

# Help and error argvs: main must answer each exactly as a full parse_args does.
PARSE_ARGVS = [
    [], ["--help"], ["-h"], ["nosuch"], ["--bogus", "construct"], ["-h", "construct"], ["constr"],
    ["construct", "--help"], ["construct", "--k", "5"], ["construct", "--k", "x", *_SHAPE[2:]],
    ["construct", *_SHAPE, "--construction", "3"], ["construct", *_SHAPE, "--bogus"],
    ["construct", *_SHAPE, "extra"], ["construct", "--n", "7", *_SHAPE],
    ["construct", *_SHAPE, "--remark=1"],
    ["encode", "--help"], ["encode", "--out", "x"], ["encode", "--spec", "s", "--out", "o", "--seed", "x"],
    ["encode", "--spec", "s", "--out", "o", "--bogus", "1"], ["encode", "--spec", "s", "--out", "o", "extra"],
    ["encode", "--s", "s", "--out", "o"],
    ["repair-sim", "-h"], ["repair-sim", "--node", "1"], ["repair-sim", "--spec", "s", "--node", "x"],
    ["repair-sim", "--spec", "s", "--bogus"], ["repair-sim", "--spec", "s", "a", "b"],
    ["repair-sim", "--spec", "s", "--nod", "1"], ["repair-sim", "--spec", "s", "--nodes", "1", "--node", "2"],
    ["parity-sim", "--help"], ["parity-sim"], ["parity-sim", "--spec", "s", "--seed", "1.5"],
    ["parity-sim", "--spec", "s", "--bogus"], ["parity-sim", "--spec", "s", "x", "--zz", "--", "y"],
    ["parity-sim", "--sp", "s", "--se", "x"],
    ["tables", "--help"], ["tables"], ["tables", "--table", "x"], ["tables", "--table", "4"],
    ["tables", "--table", "2", "--format", "xml"], ["tables", "--table", "2", "--bogus"],
    ["tables", "--table", "2", "extra"], ["tables", "--tab", "4"], ["tables", "--table", "2", "--seed", "1"],
    ["verify", "--help"], ["verify", "--max-k", "x"], ["verify", "--bogus"], ["verify", "extra"],
    ["verify", "--j", "x"], ["verify", "--quick=1"],
]


@pytest.mark.parametrize("argv", PARSE_ARGVS, ids=lambda argv: " ".join(argv) or "(none)")
def test_dispatch_answers_as_parse_args(capsys, monkeypatch, argv):
    """main parses with the command's own parser; every help text, usage
    error and exit code must stay what the two-level parse_args gives."""
    monkeypatch.setenv("COLUMNS", "80")
    answers = []
    for parse in (cli.build_parser()[0].parse_args, main):
        with pytest.raises(SystemExit) as exc:
            parse(list(argv))
        out = capsys.readouterr()
        answers.append((exc.value.code, out.out, out.err))
    assert answers[0] == answers[1]
    assert answers[0][0] in (0, 2)


def test_entry_point_pipeline(tmp_path):
    """`python -m pbdss.cli` reads sys.argv, which no in-process test covers."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
    spec, arr, trace = tmp_path / "spec.json", tmp_path / "arr.bin", tmp_path / "trace.json"
    for argv in (["construct", *_SHAPE, "--out", spec],
                 ["encode", "--spec", spec, "--seed", "3", "--out", arr],
                 ["repair-sim", "--spec", spec, "--array", arr, "--trace-out", trace]):
        done = subprocess.run([sys.executable, "-m", "pbdss.cli", *map(str, argv)], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stderr) == (0, ""), argv
    assert "average lambda = 1.8000" in done.stdout
    assert [t["total"] for t in json.loads(trace.read_text())] == [9] * 5


@pytest.mark.parametrize("argv,message", [
    (["repair-sim", "--spec", "SPEC", "--nodes", "0,99"], "failed node index out of range"),
    (["repair-sim", "--spec", "SPEC", "--array", "ARRAY", "--nodes", "0,99"],
     "failed node index out of range"),
    (["repair-sim", "--spec", "SPEC", "--nodes=-1,2"], "failed node index out of range"),
    (["repair-sim", "--spec", "DIR"], "Is a directory"),
    (["repair-sim", "--spec", "SPEC", "--array", "DIR"], "Is a directory"),
    (["repair-sim", "--spec", "SPEC", "--trace-out", "DIR"], "Is a directory"),
    (["encode", "--spec", "SPEC", "--out", "DIR"], "Is a directory"),
    (["encode", "--spec", "SPEC", "--data", "DIR", "--out", "X"], "Is a directory"),
    (["construct", "--k", "5", "--n-a", "7", "--n-b", "8", "--tau", "1", "--out", "DIR"],
     "Is a directory"),
    (["repair-sim", "--spec", "DEEP"], "spec JSON nests too deeply"),
    (["encode", "--spec", "SPEC", "--data", "DEEP", "--out", "X"], "data JSON nests too deeply"),
    (["encode", "--spec", "SPEC", "--data", "DEEP_OBJECT", "--out", "X"], "data JSON nests too deeply"),
    (["verify", "--max-k", "3"], "--max-k must be at least 4, got 3"),
    (["verify", "--max-k", "-1", "--quick"], "--max-k must be at least 4, got -1"),
    (["verify", "--jobs", "0"], "--jobs must be at least 1, got 0"),
    (["verify", "--quick", "--jobs", "-2"], "--jobs must be at least 1, got -2"),
    (["verify", "--max-k", "13"], "--max-k must be at most 12, got 13: the sweep reaches n_a = k + 4, "
                                  "and exhaustive search is capped at n <= 16"),
    (["construct", "--k", "5", "--n-a", "7", "--n-b", "8", "--tau", "1", "--construction", "2", "--remark1"],
     "remark1 applies to construction 1 only"),
])
def test_input_faults_exit_2(tmp_path, capsys, argv, message):
    """Node indices past n, directories where files belong and JSON nested
    past the recursion limit used to end in tracebacks; a verify sweep that
    checks nothing used to print PASS."""
    spec_path, arr_path = _spec_and_array(tmp_path, capsys)
    (tmp_path / "dir").mkdir()
    (tmp_path / "deep.json").write_text("[" * 100_000)
    (tmp_path / "deep_object.json").write_text('{"symbols": ' * 100_000)
    names = {"SPEC": spec_path, "ARRAY": arr_path, "DIR": tmp_path / "dir", "X": tmp_path / "x.bin",
             "DEEP": tmp_path / "deep.json", "DEEP_OBJECT": tmp_path / "deep_object.json"}
    code, out, err = run(capsys, *(str(names.get(a, a)) for a in argv))
    assert code == 2
    assert message in err
    assert "PASS" not in out


@pytest.mark.parametrize("doc", [[1], {}, {"symbols": 3}, {"symbols": [1]}, {"symbols": [["1"]]},
                                 {"symbols": [[0.5]]}, {"symbols": [[True]]}])
def test_bad_data_document_exits_2(tmp_path, capsys, doc):
    """`encode --data` used to end in a TypeError or KeyError traceback."""
    spec_path, _ = _spec_and_array(tmp_path, capsys)
    data_path = tmp_path / "data.json"
    data_path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "encode", "--spec", str(spec_path), "--data", str(data_path),
                       "--out", str(tmp_path / "x.bin"))
    assert code == 2
    assert "data JSON must be an object whose 'symbols' is a list of integer rows" in err


@pytest.mark.parametrize("bad", [70000, 8, -1])
def test_out_of_range_data_exits_2(tmp_path, capsys, bad):
    """A symbol outside GF(8) (70000 would not even fit the u16 array) exits
    2 and writes no array."""
    spec_path, _ = _spec_and_array(tmp_path, capsys)
    data_path, out = tmp_path / "data.json", tmp_path / "x.bin"
    data_path.write_text(json.dumps({"symbols": [[bad] + [0] * 4] + [[0] * 5] * 4}))
    code, _, err = run(capsys, "encode", "--spec", str(spec_path), "--data", str(data_path), "--out", str(out))
    assert code == 2
    assert "symbol values must be integers in [0, 8)" in err
    assert not out.exists()


# A small valid spec for the fuzz test below: (7,4) over GF(7).
_FUZZ_SPEC = CodeSpec.build(4, 6, 5, 1).to_json()
_MUTATIONS = ("drop", "str", "float", "negative", "bool", "truncate", "directory")


def _json_paths(doc, path=()):
    """Every key and list position inside a JSON document, outermost first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, sub in items:
        yield path + (key,)
        yield from _json_paths(sub, path + (key,))


def _mutated_spec(kind: str, pick: int) -> str:
    if kind == "truncate":
        return _FUZZ_SPEC[: pick % len(_FUZZ_SPEC)]
    doc = json.loads(_FUZZ_SPEC)
    paths = list(_json_paths(doc))
    *where, last = paths[pick % len(paths)]
    parent = functools.reduce(operator.getitem, where, doc)
    value = parent[last]
    if kind == "drop":
        del parent[last]
    else:
        is_int = type(value) is int
        parent[last] = {"str": str(value), "float": value + 0.5 if is_int else 0.5,
                        "negative": -1 - value if is_int else -1, "bool": True}[kind]
    return json.dumps(doc)


def _quiet_main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main([str(a) for a in argv])


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 9) | st.floats(-2, 9) | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(["symbols", "x"]), inner,
                                                                  max_size=2),
    max_leaves=12)
_DATA_DOCS = _JSON_VALUES | st.builds(
    lambda rows: {"symbols": rows},
    st.lists(st.lists(st.integers(-1, 8), min_size=3, max_size=4), min_size=3, max_size=4))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutation=st.none() | st.tuples(st.sampled_from(_MUTATIONS), st.integers(0, 10**6)),
       nodes=st.none() | st.lists(st.integers(-2, 9), min_size=1, max_size=5),
       data=st.none() | _DATA_DOCS)
@example(mutation=None, nodes=[0, 99], data=None)
@example(mutation=("directory", 0), nodes=None, data=None)
@example(mutation=None, nodes=None, data=[1])
def test_cli_inputs_never_raise(mutation, nodes, data):
    """Mutated specs, data files and --nodes lists through encode and
    repair-sim: every run ends with exit 0, 2 or 3, never a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        spec, arr, data_path = root / "spec.json", root / "arr.bin", root / "data.json"
        if mutation and mutation[0] == "directory":
            spec.mkdir()
        else:
            spec.write_text(_mutated_spec(*mutation) if mutation else _FUZZ_SPEC)
        encode_argv = ["encode", "--spec", spec, "--out", arr]
        if data is not None:
            data_path.write_text(json.dumps(data))
            encode_argv += ["--data", data_path]
        assert _quiet_main(encode_argv) in (0, 2)
        sim_argv = ["repair-sim", "--spec", spec, "--seed", "1"]
        if arr.exists():
            sim_argv += ["--array", arr]
        if nodes is not None:
            sim_argv.append("--nodes=" + ",".join(map(str, nodes)))
        assert _quiet_main(sim_argv) in (0, 2, 3)


# The PBDSS1 blob of a random array of the fuzz spec; its header fields
# (k, n, p, m, reduction length) are u16 at bytes 6..15.
_FUZZ_CODE = CodeSpec.from_json(_FUZZ_SPEC)
_FUZZ_BLOB = write_code_array(encode(_FUZZ_CODE, DataArray.random(_FUZZ_CODE.field, 4, random.Random(1))))
_U16 = st.sampled_from([0, 1, 2, 3, 7, 256, 65521, 65535]) | st.integers(0, 65535)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(header=st.dictionaries(st.integers(0, 4), _U16, max_size=3),
       flips=st.lists(st.tuples(st.integers(0, len(_FUZZ_BLOB) - 1), st.integers(1, 255)), max_size=3),
       cut=st.none() | st.integers(0, len(_FUZZ_BLOB) - 1),
       nodes=st.booleans())
@example(header={0: 0, 1: 0}, flips=[], cut=None, nodes=False)  # an empty array, read without error
@example(header={2: 0}, flips=[], cut=None, nodes=False)  # p = 0
@example(header={3: 0}, flips=[], cut=None, nodes=False)  # m = 0
@example(header={4: 65535}, flips=[], cut=None, nodes=False)  # reduction past the end
@example(header={2: 65521}, flips=[], cut=None, nodes=True)  # a valid array over GF(65521)
@example(header={}, flips=[(len(_FUZZ_BLOB) - 1, 0x0F)], cut=None, nodes=False)  # erasure bits set
def test_array_blobs_never_raise(header, flips, cut, nodes):
    """Mutated PBDSS1 blobs (header fields set to any u16, flipped bytes,
    truncations): read_code_array parses them or raises ValueError, and
    repair-sim --array ends with exit 0, 2 or 3, never a traceback."""
    blob = bytearray(_FUZZ_BLOB)
    for field, value in header.items():
        struct.pack_into("<H", blob, 6 + 2 * field, value)
    for at, mask in flips:
        blob[at] ^= mask
    blob = bytes(blob[:cut])
    with contextlib.suppress(ValueError):
        read_code_array(blob)
    with tempfile.TemporaryDirectory() as tmp:
        spec, arr = Path(tmp) / "spec.json", Path(tmp) / "arr.bin"
        spec.write_text(_FUZZ_SPEC)
        arr.write_bytes(blob)
        argv = ["repair-sim", "--spec", spec, "--array", arr] + (["--nodes", "0,5"] if nodes else [])
        assert _quiet_main(argv) in (0, 2, 3)
