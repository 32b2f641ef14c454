"""Self-check of the benchmark: its checks pass on the package as it is, and
fire when the package is broken on purpose.

    python3 perfbench/selfcheck.py

Run it from the repository root.  Each workload runs one pass at smoke
size plus the structural gates and must count no failure.  Then each
fault below is injected into the loaded package, one at a time, and the
affected workload must count at least one failed operation.  Also checks
that BENCHMARK.json names exactly the metrics and workloads the code
produces.  Exits 0 when every expectation holds.
"""

from __future__ import annotations

import contextlib
import json
import sys
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent


@contextlib.contextmanager
def patched(owner, attr: str, new):
    old = getattr(owner, attr)
    setattr(owner, attr, new)
    try:
        yield
    finally:
        setattr(owner, attr, old)


def smoke(workloads, name: str, gates: bool = True):
    """(attempted, failed, first failure) of one pass plus the gates."""
    wl = workloads.workload(name, ROOT)
    state = wl.setup(7)
    wl.prepare(state)
    ledger = workloads.Ledger()
    if hasattr(wl, "run_once"):
        wl.run_once(state, ledger)
    wl.run_pass(state, ledger)
    ledger.end_pass()
    if gates:
        wl.gates(state, ledger)
    return ledger.attempted, ledger.failed, (ledger.failures or [""])[0]


def main() -> int:
    if not (ROOT / "src" / "pbdss" / "__init__.py").is_file():
        print("error: run from the repository root (src/pbdss not found)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from pbdss import cli, layout, oracle, repair

    import layers
    import run
    import workloads

    problems = []

    def expect(title: str, ok: bool, detail: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {title}: {detail}")
        if not ok:
            problems.append(title)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect("BENCHMARK.json workloads", [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
           ", ".join(w["name"] for w in spec["workloads"]))
    expect("BENCHMARK.json end_to_end",
           {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END, f"{len(spec['end_to_end'])} metrics")
    expect("BENCHMARK.json per_layer",
           [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
           == [(n, u, b) for n, u, b, _how, _moves in layers.CATALOGUE], f"{len(spec['per_layer'])} metrics")

    for name in workloads.WORKLOADS:
        attempted, failed, first = smoke(workloads, name)
        expect(f"clean {name}", failed == 0 and attempted > 0, f"{failed} of {attempted} failed {first}")

    real_repair = repair.repair_data_node

    def reads_lost_symbols(array, j, spec, counter=None):
        column, trace = real_repair(array, j, spec, counter)
        return [array.rows[i][j] for i in range(spec.k)], trace

    real_multi = repair.repair_multi

    def corrupts_a_column(array, failed, spec):
        columns = real_multi(array, failed, spec)
        node = min(columns)
        columns[node] = [(columns[node][0] + 1) % spec.field.q] + columns[node][1:]
        return columns

    real_write = layout.write_code_array

    def flips_a_parity(array):
        blob = bytearray(real_write(array))
        off = 16 + 2 * len(array.field.reduction) + 2 * (array.n - 1)  # row 0, last node
        blob[off] ^= 1
        return bytes(blob)

    faults = [
        ("repair returns the destroyed symbols of the lost node", "stripe_repair",
         (repair, "repair_data_node", reads_lost_symbols), False),
        ("one extra read per repair (wrong lambda)", "stripe_repair",
         (repair.ReadTrace, "total", property(lambda t: len(t.reads) + 1)), True),
        ("multi-node repair corrupts one symbol", "multi_failure",
         (repair, "repair_multi", corrupts_a_column), False),
        ("array file carries a flipped parity bit", "cli_pipeline",
         (cli, "write_code_array", flips_a_parity), False),
        ("exhaustive search reports the closed form everywhere", "verify_sweep",
         (oracle, "brute_force_fault_tolerance",
          lambda code, processes=1, max_t=None: workloads.ref.formula_fault_tolerance(code.n_a, code.k, code.tau)),
         False),
    ]
    for title, name, (owner, attr, new), gates in faults:
        with patched(owner, attr, new):
            attempted, failed, first = smoke(workloads, name, gates)
        expect(f"fault on {name}: {title}", failed > 0, f"{failed} of {attempted} failed; first: {first}")

    print("self-check passed" if not problems else f"self-check FAILED: {len(problems)} problem(s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
