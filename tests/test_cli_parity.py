"""The comparison of tools/cli_parity.py, on synthetic records."""

import importlib.util
from pathlib import Path

from pbdss import cli

_PATH = Path(__file__).resolve().parent.parent / "tools" / "cli_parity.py"
_SPEC = importlib.util.spec_from_file_location("cli_parity", _PATH)
cli_parity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cli_parity)


def _record(argv, exit=0, stdout="ok\n", stderr="", files=None):
    return {"argv": argv, "exit": exit, "stdout": stdout, "stderr": stderr, "files": files or {}}


def _runs():
    return [_record(["construct", "--out", "s.json"], stdout="f = 2\nspec written to s.json\n",
                    files={"s.json": "aa"}),
            _record(["tables", "--table", "2"], stdout="code,lambda\n(9,5,3),2.4\n")]


def test_equal_runs_have_no_difference():
    assert cli_parity.compare(_runs(), _runs()) == []


def test_every_kind_of_difference_is_reported():
    change = _runs()
    change[0]["files"] = {"s.json": "bb", "extra.bin": "cc"}
    change[0]["stderr"] = "warning\n"
    change[1].update(exit=2, stdout="code,lambda\n(9,5,3),2.5\n")
    assert cli_parity.compare(_runs(), change) == [
        "construct --out s.json: stderr differs, line 1: parent None, change 'warning'",
        "construct --out s.json: file extra.bin differs, parent not written, change cc",
        "construct --out s.json: file s.json differs, parent aa, change bb",
        "tables --table 2: exit differs, parent 0, change 2",
        "tables --table 2: stdout differs, line 2: parent '(9,5,3),2.4', change '(9,5,3),2.5'",
    ]


def test_a_missing_line_and_a_line_ending():
    parent = [_record(["tables"], stdout="a\nb\n")]
    assert cli_parity.compare(parent, [_record(["tables"], stdout="a\n")]) == [
        "tables: stdout differs, line 2: parent 'b', change None"]
    assert cli_parity.compare(parent, [_record(["tables"], stdout="a\nb")]) == [
        "tables: stdout differs, only in line endings"]


def test_different_command_lists_are_not_compared():
    assert cli_parity.compare(_runs(), _runs()[:1]) == ["the two runs ran different command lists"]


def test_every_command_parses():
    """The fixed list covers every command it names, and each argv parses."""
    argvs = cli_parity.commands()
    _, parsers = cli.build_parser()
    for argv in argvs:
        parsers[argv[0]].parse_args(argv[1:])
    assert {argv[0] for argv in argvs} == set(parsers)
    assert len(argvs) == 8 * len(cli_parity.SHAPES) + 7
