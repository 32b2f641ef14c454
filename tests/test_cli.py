import json

import pytest

from pbdss.cli import main


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


def test_verify_quick_reports_known_exceedances(capsys):
    # the exhaustive oracle beats the closed-form guarantee by one on two
    # small-sweep shapes; both are checked exceedances, so verify passes
    code, out, _ = run(capsys, "verify", "--quick")
    assert code == 0
    assert "checked" in out
    assert "n_a=9, k=5, tau=2" in out
    assert "formula 3, exhaustive 4" in out
    assert "FAIL" not in out
    assert out.count("NOTE:") == 2
    assert out.rstrip().endswith("PASS")


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
