"""Run one fixed list of CLI commands on two source trees and report every difference.

    python3 tools/cli_parity.py --parent ../parent --change .

Each tree runs in its own process (this script with `--run TREE`), which
imports `pbdss` from TREE/src, works in a fresh temporary directory with
PBDSS_SEED unset, and runs every command of `commands()` in order through
`pbdss.cli.main`, in-process.  For each command it records the exit code,
stdout, stderr and the SHA-256 of every file the command wrote.  Paths are
relative to the working directory, so the two trees see the same argv and
print the same text.  The two records are then compared command by command,
and each difference in exit code, stdout, stderr or a written file is
printed.  Exits 0 when there is none, 1 when there is one, 2 when a tree's
run fails.

The commands: on the six `cli_pipeline` shapes of perfbench plus (9,5) over
GF(3^2), `construct --out`, `encode --seed`, `repair-sim --array
--trace-out`, `repair-sim --nodes`, `repair-sim --punctured`, with and
without `--trace-out`, `repair-sim --array --node 0 --trace-out` and
`parity-sim`; then `tables` 2 and 3 in CSV and in JSON, `verify --quick`
and `verify --max-k 7`, which searches every shape that the benchmark's
`verify_sweep` searches.  Like `bench_pairs.py`, it needs two trees, so it
is not part of the test suite; `tests/test_cli_parity.py` checks `compare`
on synthetic records.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SHAPES = (
    ("10-5", ("--k", "5", "--n-a", "7", "--n-b", "8", "--tau", "1")),
    ("9-5", ("--k", "5", "--n-a", "8", "--n-b", "6", "--tau", "1")),
    ("14-9", ("--k", "9", "--n-a", "12", "--n-b", "11", "--tau", "2")),
    ("14-9-gf256", ("--k", "9", "--n-a", "12", "--n-b", "11", "--tau", "2", "--field-p", "2", "--field-m", "8")),
    ("13-8-c2", ("--k", "8", "--n-a", "12", "--n-b", "9", "--tau", "3", "--construction", "2")),
    ("16-10-c2", ("--k", "10", "--n-a", "15", "--n-b", "11", "--tau", "4", "--construction", "2")),
    ("9-5-gf9", ("--k", "5", "--n-a", "8", "--n-b", "6", "--tau", "1", "--field-p", "3", "--field-m", "2")),
)


def commands() -> list[list[str]]:
    """The argv of every command, in the order they run."""
    out = []
    for name, shape in SHAPES:
        spec, array = f"{name}.json", f"{name}.bin"
        out += [
            ["construct", *shape, "--out", spec],
            ["encode", "--spec", spec, "--seed", "3", "--out", array],
            ["repair-sim", "--spec", spec, "--array", array, "--trace-out", f"{name}-trace.json"],
            ["repair-sim", "--spec", spec, "--seed", "3", "--nodes", "0,2"],
            ["repair-sim", "--spec", spec, "--seed", "3", "--punctured", "1"],
            ["repair-sim", "--spec", spec, "--seed", "3", "--punctured", "1", "--trace-out",
             f"{name}-punctured-trace.json"],
            ["repair-sim", "--spec", spec, "--array", array, "--node", "0", "--trace-out", f"{name}-node0-trace.json"],
            ["parity-sim", "--spec", spec, "--seed", "3"],
        ]
    out += [["tables", "--table", table, "--format", fmt] for table in ("2", "3") for fmt in ("csv", "json")]
    out += [["verify", "--quick"], ["verify", "--max-k", "7"]]
    return out


def _files() -> dict[str, tuple[int, str]]:
    """(mtime in ns, SHA-256) of every file in the working directory."""
    return {p.name: (p.stat().st_mtime_ns, hashlib.sha256(p.read_bytes()).hexdigest())
            for p in Path.cwd().iterdir() if p.is_file()}


def run_tree(tree: Path) -> list[dict]:
    """Run every command against the pbdss of `tree`; one record per command."""
    sys.path.insert(0, str(tree / "src"))
    os.environ.pop("PBDSS_SEED", None)
    from pbdss import cli

    if not Path(cli.__file__).resolve().is_relative_to(tree / "src"):  # an installed pbdss would compare itself
        raise SystemExit(f"pbdss was imported from {cli.__file__}, not from {tree / 'src'}")
    records = []
    home = Path.cwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for argv in commands():
                before = _files()
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = cli.main(argv)
                    except SystemExit as exc:  # argparse's usage errors and help
                        code = exc.code
                written = {name: digest for name, (mtime, digest) in _files().items()
                           if before.get(name) != (mtime, digest)}
                records.append({"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
                                "files": written})
        finally:
            os.chdir(home)
    return records


def _first_difference(a, b) -> str:
    """Where two values first differ: the first unequal line of two texts."""
    if not (isinstance(a, str) and isinstance(b, str)):
        return f"parent {a!r}, change {b!r}"
    left, right = a.splitlines(), b.splitlines()
    for i, (x, y) in enumerate(zip(left, right)):
        if x != y:
            return f"line {i + 1}: parent {x!r}, change {y!r}"
    i = min(len(left), len(right))
    if len(left) != len(right):
        return f"line {i + 1}: parent {(left[i:] or [None])[0]!r}, change {(right[i:] or [None])[0]!r}"
    return "only in line endings"


def compare(parent: list[dict], change: list[dict]) -> list[str]:
    """Every difference between two runs of one command list, one line each."""
    if [r["argv"] for r in parent] != [r["argv"] for r in change]:
        return ["the two runs ran different command lists"]
    problems = []
    for p, c in zip(parent, change):
        command = " ".join(p["argv"])
        for key in ("exit", "stdout", "stderr"):
            if p[key] != c[key]:
                problems.append(f"{command}: {key} differs, {_first_difference(p[key], c[key])}")
        for name in sorted(p["files"].keys() | c["files"].keys()):
            if p["files"].get(name) != c["files"].get(name):
                problems.append(f"{command}: file {name} differs, "
                                f"parent {p['files'].get(name, 'not written')}, change {c['files'].get(name, 'not written')}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, help="source tree of the parent commit")
    parser.add_argument("--change", type=Path, help="source tree of the change")
    parser.add_argument("--run", type=Path, help=argparse.SUPPRESS)  # the per-tree worker
    args = parser.parse_args(argv)
    if args.run:
        print(json.dumps(run_tree(args.run.resolve())))
        return 0
    if args.parent is None or args.change is None:
        parser.error("the arguments --parent and --change are required")
    records = {}
    for side, tree in (("parent", args.parent), ("change", args.change)):
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--run", str(tree.resolve())],
                              capture_output=True, text=True)
        if done.returncode != 0:
            print(f"{side} run failed, exit {done.returncode}\n{done.stderr[-2000:]}", file=sys.stderr)
            return 2
        records[side] = json.loads(done.stdout.splitlines()[-1])
    problems = compare(records["parent"], records["change"])
    for line in problems:
        print(line)
    print(f"{len(records['parent'])} commands, {len(problems)} difference(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
