"""Command-line front end: construct codes, encode arrays, simulate repairs,
reproduce the benchmark tables, and run verification sweeps.

Exit codes: 0 success, 2 parameter validation, 3 unrecoverable erasure
pattern, 4 verification failure.

Every file output (`construct --out`, `encode --out`, `repair-sim
--trace-out`, `tables --out`) goes through `_write_file`, which rewrites the
path in place and then cuts a regular file to the new length, rather than
opening it with `O_TRUNC` as `open(path, "w")` does. On ext4, closing a file
that was truncated on open starts its writeback at once (the
`auto_da_alloc` heuristic), which made each rewrite some 15 times slower
than the write itself. Neither form is crash-safe without `fsync`: a crash
can leave the old bytes, the new ones, a mix of both or an empty file, and
the CLI never promised durability.

`main` parses with the named command's own subparser; the top-level parser
only sees an argv without a command name, and reports leftover arguments as
`parse_args` would.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import stat
import sys

from . import metrics, oracle
from .class_a import UnrecoverableErasureError
from .class_b import construct1_parities
from .gf import cached_field
from .layout import DataArray, read_code_array, write_code_array
from .repair import CodeSpec, encode, puncture, repair_data_node, repair_multi, repair_parity_node

EXIT_VALIDATION = 2
EXIT_UNRECOVERABLE = 3
EXIT_VERIFY_FAILED = 4

# (k, n_a, tau) -> how far exhaustive search beats the guaranteed fault
# tolerance with the default MDS coefficients, each confirmed independently
# in tests/test_acceptance.py; the formula is exact elsewhere.
CHECKED_EXCEEDANCES = {(5, 9, 2): 1, (5, 9, 3): 1, (7, 11, 2): 1, (11, 15, 3): 1}


def _write_file(path: str, data: bytes) -> None:
    """Write `data` to `path`, rewriting an existing file in place.

    The inode, its other links and its mode are kept, as with
    `open(path, "w")`; a new file gets 0o666 less the umask. Only a regular
    file is cut to the new length, so devices and FIFOs work as before.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _build_spec(args) -> CodeSpec:
    field = None
    if args.field_p:
        field = cached_field(args.field_p, args.field_m)
    elif args.field_m != 1:
        raise ValueError(f"--field-m {args.field_m} needs --field-p")
    return CodeSpec.build(
        args.k,
        args.n_a,
        args.n_b,
        args.tau,
        construction=args.construction,
        field=field,
        remark1=getattr(args, "remark1", False),
    )


def _load_spec(path: str) -> CodeSpec:
    with open(path) as fh:
        return _parse_spec(fh.read())


# Keyed by the text, not the path, so a rewritten file is parsed again;
# lru_cache never stores an exception, so a bad spec fails on every call.
@functools.lru_cache(maxsize=16)
def _parse_spec(text: str) -> CodeSpec:
    return CodeSpec.from_json(text)


def cmd_construct(args) -> int:
    spec = _build_spec(args)
    report = metrics.formula_bundle(spec.n, spec.k, spec.n_a, spec.tau, spec.field)
    if args.out:
        _write_file(args.out, spec.to_json().encode())
    print(f"({spec.n},{spec.k}) code, n_a={spec.n_a} n_b={spec.n_b} tau={spec.tau} "
          f"construction={spec.class_b.construction} field={spec.field!r}")
    print(f"fault tolerance f = {report.fault_tolerance} (xi = {report.xi:.4f})")
    print(f"rate R = {report.rate:.4f} in [{report.rate_lower:.4f}, {report.rate_upper:.4f}]")
    if report.lambda_bound is not None:
        print(f"repair bandwidth bound = {report.lambda_bound:.4f}")
    if args.out:
        print(f"spec written to {args.out}")
    return 0


def cmd_encode(args) -> int:
    spec = _load_spec(args.spec)
    if args.data:
        with open(args.data) as fh:
            try:
                doc = json.load(fh)
            except RecursionError:  # not a ValueError; a valid document nests three levels deep
                raise ValueError("data JSON nests too deeply") from None
        rows = doc.get("symbols") if isinstance(doc, dict) else None
        if not isinstance(rows, list) or any(
                not isinstance(r, list) or any(type(v) is not int for v in r) for r in rows):
            raise ValueError("data JSON must be an object whose 'symbols' is a list of integer rows")
        data = DataArray(spec.field, rows)
    else:
        data = DataArray.random(spec.field, spec.k, random.Random(args.seed))
    array = encode(spec, data)
    _write_file(args.out, write_code_array(array))
    print(f"encoded {spec.k}x{spec.n} array written to {args.out}")
    return 0


def cmd_repair_sim(args) -> int:
    spec = _load_spec(args.spec)
    if args.array:
        with open(args.array, "rb") as fh:
            array = read_code_array(fh.read())
        # checked before puncturing: the file holds every node of the spec
        if (array.field, array.k, array.n) != (spec.field, spec.k, spec.n):
            raise ValueError(
                f"array is a ({array.n},{array.k}) code over {array.field!r}, "
                f"but the spec is ({spec.n},{spec.k}) over {spec.field!r}"
            )
    if args.punctured:
        spec = puncture(spec, args.punctured)
    if not args.array:
        array = encode(spec, DataArray.random(spec.field, spec.k, random.Random(args.seed)))

    if args.nodes is not None:
        if not args.nodes.strip():  # "" would otherwise fall through to every data node
            raise ValueError("--nodes needs at least one node index")
        # a set, as repair_multi takes it; repair_multi checks the range
        failed = sorted({int(x) for x in args.nodes.split(",")})
        columns = repair_multi(array, failed, spec)
        print(f"repaired nodes {failed}")
        for node in failed:
            print(f"  node {node}: {columns[node]}")
        return 0

    nodes = [args.node] if args.node is not None else list(range(spec.k))
    traces = []
    for j in nodes:
        column, trace = repair_data_node(array, j, spec)
        if j in array.erased_nodes:  # no stored column to check the repair against
            status = "not checked: erased in the array"
        else:
            status = "ok" if column == array.symbols[:, j].tolist() else "MISMATCH"
        print(f"node {j}: {trace.total} reads ({status})")
        traces.append(trace)
    lam = sum(t.total for t in traces) / len(traces) / spec.k
    print(f"average lambda = {lam:.4f}")
    if args.trace_out:
        # one compact trace per line: json.dump with an indent runs the pure-Python encoder
        _write_file(args.trace_out, ("[\n  " + ",\n  ".join(t.to_json() for t in traces) + "\n]").encode())
        print(f"traces written to {args.trace_out}")
    return 0


def cmd_parity_sim(args) -> int:
    spec = _load_spec(args.spec)
    data = DataArray.random(spec.field, spec.k, random.Random(args.seed))
    array = encode(spec, data)
    for node in range(spec.k, spec.n):
        column, trace = repair_parity_node(array, node, spec)
        status = "ok" if column == array.symbols[:, node].tolist() else "MISMATCH"
        per = [trace.per_symbol[(node, i)] for i in range(spec.k)]
        print(f"parity node {node}: per-symbol reads {per} ({status})")
    return 0


def cmd_tables(args) -> int:
    rows = metrics.table2_rows() if args.table == 2 else metrics.table3_rows()
    text = json.dumps(rows, indent=2) if args.format == "json" else metrics.rows_to_csv(rows)
    if args.out:
        _write_file(args.out, text.encode())
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    return 0


def cmd_verify(args) -> int:
    from .class_a import ClassASpec, fault_tolerance

    # the sweep starts at k = 4, so a smaller --max-k would check nothing and pass
    if args.max_k < 4:
        raise ValueError(f"--max-k must be at least 4, got {args.max_k}")
    if args.max_k + 4 > oracle.EXHAUSTIVE_MAX_N:  # checked before any search, so no result is lost
        raise ValueError(f"--max-k must be at most {oracle.EXHAUSTIVE_MAX_N - 4}, got {args.max_k}: the sweep "
                         f"reaches n_a = k + 4, and exhaustive search is capped at n <= {oracle.EXHAUSTIVE_MAX_N}")
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    failures = []
    notes = []
    decided_patterns = 0
    max_k = 5 if args.quick else args.max_k
    rng = random.Random(args.seed)

    for k in range(4, max_k + 1):
        for n_a in range(k + 2, min(k + 4, 2 * k - 1) + 1):
            for tau in range(1, n_a - k):
                spec_a = ClassASpec.build(n_a, k, tau)
                want = fault_tolerance(n_a, k, tau).f
                got = oracle.brute_force_fault_tolerance(spec_a, processes=args.jobs)
                # f decides the levels of 1 .. f + 1 nodes (each pattern decodable up
                # to f, not all at f + 1), whichever of their patterns were ranked
                decided_patterns += sum(math.comb(n_a, t) for t in range(1, got + 2))
                where = f"(n_a={n_a}, k={k}, tau={tau}): formula {want}, exhaustive {got}"
                if CHECKED_EXCEEDANCES.get((k, n_a, tau)) == got - want:
                    notes.append(f"fault tolerance exceeds the guarantee at {where} (checked)")
                elif got != want:
                    failures.append(f"fault tolerance mismatch at {where}")
                n_b = 2 * k - tau - 1
                spec = CodeSpec(spec_a.field, spec_a, construct1_parities(k, n_a, n_b, tau))
                data = DataArray.random(spec.field, k, rng)
                array = encode(spec, data)
                report = metrics.formula_bundle(spec.n, k, n_a, tau, spec.field)
                for j in range(k):
                    col, trace = repair_data_node(array, j, spec)
                    if col != data.symbols[:, j].tolist():
                        failures.append(f"repair mismatch at (n_a={n_a}, k={k}, tau={tau}) node {j}")
                    if report.lambda_bound is not None and trace.total / k > report.lambda_bound + 1e-9:
                        failures.append(
                            f"bandwidth bound violated at (n_a={n_a}, k={k}, tau={tau}) node {j}"
                        )

    print(f"decided {decided_patterns} erasure patterns")
    for note in notes:
        print("NOTE:", note)
    if failures:
        for f in failures:
            print("FAIL:", f)
        return EXIT_VERIFY_FAILED
    print("PASS")
    return 0


@functools.lru_cache(maxsize=1)  # built once per process, so no default may read the environment
def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser, and each command's own parser by its name."""
    parser = argparse.ArgumentParser(
        prog="pbdss",
        description="Two-class erasure codes: construction, repair simulation, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    def add_shape(p):
        p.add_argument("--k", type=int, required=True, help="number of data nodes")
        p.add_argument("--n-a", type=int, required=True, help="length of the MDS/piggyback part")
        p.add_argument("--n-b", type=int, required=True, help="length of the sum-parity part")
        p.add_argument("--tau", type=int, required=True, help="piggybacks per row")
        p.add_argument("--construction", type=int, choices=(1, 2), default=1)
        p.add_argument("--field-p", type=int, default=0, help="field characteristic override")
        p.add_argument("--field-m", type=int, default=1, help="field extension degree override, with --field-p")

    p = commands["construct"] = sub.add_parser("construct", help="build a code spec and print its figures")
    add_shape(p)
    p.add_argument("--remark1", action="store_true",
                   help="drop row sums from the sum parities (construction 1, full complement only)")
    p.add_argument("--out", help="write the spec JSON here")
    p.set_defaults(func=cmd_construct)

    p = commands["encode"] = sub.add_parser("encode", help="encode a data array with a spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--data", help="JSON file with {'symbols': [[...]]}")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True, help="output array (binary)")
    p.set_defaults(func=cmd_encode)

    p = commands["repair-sim"] = sub.add_parser("repair-sim", help="simulate node repairs and report reads")
    p.add_argument("--spec", required=True)
    p.add_argument("--array", help="encoded array file; otherwise random data")
    p.add_argument("--seed", type=int)
    nodes = p.add_mutually_exclusive_group()
    nodes.add_argument("--node", type=int, help="single data node to repair (default: all)")
    nodes.add_argument("--nodes", help="comma-separated multi-node failure pattern")
    p.add_argument("--punctured", type=int, default=0, help="drop this many trailing sum-parity nodes")
    p.add_argument("--trace-out", help="write read traces as JSON")
    p.set_defaults(func=cmd_repair_sim)

    p = commands["parity-sim"] = sub.add_parser("parity-sim", help="simulate parity node repairs")
    p.add_argument("--spec", required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_parity_sim)

    p = commands["tables"] = sub.add_parser("tables", help="emit benchmark table rows")
    p.add_argument("--table", type=int, choices=(2, 3), required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_tables)

    p = commands["verify"] = sub.add_parser("verify", help="run formula-vs-oracle sweeps")
    p.add_argument("--max-k", type=int, default=8)
    p.add_argument("--quick", action="store_true", help="small sweep (k <= 5)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the exhaustive search, at most the usable CPUs")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_verify)

    return parser, commands


def main(argv=None) -> int:
    parser, commands = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = commands.get(argv[0]) if argv else None
    if command is None:  # no command named: usage, help or the invalid-choice error
        args = parser.parse_args(argv)
    else:
        # what parse_args does once it reaches the command, without the top-level pass
        args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        if getattr(args, "seed", 0) is None:  # read per call: the parser outlives it
            args.seed = int(os.environ.get("PBDSS_SEED", "0"))
        return args.func(args)
    except UnrecoverableErasureError as exc:
        print(f"unrecoverable: {exc} (rank {exc.rank}, need {exc.needed})", file=sys.stderr)
        return EXIT_UNRECOVERABLE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
