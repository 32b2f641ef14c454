"""Per-layer metrics of a traced run, and the end-to-end figure each should move.

Span statistics: `mean` is the mean inclusive duration per call over the
traced set-up and loop, `self` the mean self time per call, `per_op` the
calls per timed operation of the traced loop, and `total` the summed
inclusive time.  Counts come from the separate counting pass.  A metric
whose layer the workload never calls reads 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from workloads import MIN_READS_7_4, STRIPE_SHAPES, sweep_name, sweep_shapes

from tracer import self_times

# name, unit, better, (statistic, span names), should move
CATALOGUE = [
    ("gf.add_calls", "count", "lower", ("counter", "add"),
     "op_best_ms_p50, op_best_ms_p90, pass_best_s on stripe_repair (encode and repair calls)"),
    ("gf.mul_calls", "count", "lower", ("counter", "mul"),
     "op_best_ms_p50, op_best_ms_p90, pass_best_s on stripe_repair (encode and repair calls)"),
    ("gf.field_build_ms", "ms", "lower", ("mean", "gf.FieldSpec.__init__"),
     "setup_s on every workload; op_best_ms_p50 and pass_best_s on multi_failure and cli_pipeline, "
     "where every PBDSS1 read and spec load rebuilds the field"),
    ("gf.dense_tables_ms", "ms", "lower", ("total", "gf.FieldSpec.dense_tables"),
     "setup_s on multi_failure and verify_sweep"),
    ("gf.row_reduce_calls", "count", "lower", ("per_op", "gf.row_reduce"),
     "pass_best_s on cli_pipeline (verify_mds in construct); setup_s on stripe_repair and verify_sweep"),
    ("gf.row_reduce_ms", "ms", "lower", ("mean", "gf.row_reduce"),
     "pass_best_s on cli_pipeline; setup_s on stripe_repair and verify_sweep"),
    ("gf.solve_calls", "count", "lower", ("per_op", "gf.solve_values"),
     "op_best_ms_p50 on multi_failure (schedule solves)"),
    ("gf.solve_ms", "ms", "lower", ("mean", "gf.solve_values"),
     "op_best_ms_p50 on multi_failure (schedule solves)"),
    ("gf.solve_dense_calls", "count", "lower", ("per_op", "gf.solve_values_dense"),
     "op_best_ms_p90 on multi_failure (rank-decode fallback)"),
    ("gf.solve_dense_ms", "ms", "lower", ("mean", "gf.solve_values_dense"),
     "op_best_ms_p90 on multi_failure (rank-decode fallback)"),
    ("layout.write_array_ms", "ms", "lower", ("mean", "layout.write_code_array"),
     "op_best_ms_p50 on multi_failure; pass_best_s on cli_pipeline"),
    ("layout.read_array_ms", "ms", "lower", ("mean", "layout.read_code_array"),
     "op_best_ms_p50 on multi_failure; pass_best_s on cli_pipeline"),
    ("layout.array_bytes", "bytes", "lower", ("note", "array_bytes"),
     "op_best_ms_p50 on multi_failure; pass_best_s on cli_pipeline"),
    ("class_a.build_ms", "ms", "lower", ("mean", "class_a.ClassASpec.build"),
     "pass_best_s on cli_pipeline; setup_s on stripe_repair and verify_sweep"),
    ("class_a.encode_ms", "ms", "lower", ("mean", "class_a.encode_class_a"),
     "op_best_ms_p50 and pass_best_s on stripe_repair (encode calls)"),
    ("class_a.decode_ms", "ms", "lower", ("mean", "class_a.decode_multi_class_a"),
     "op_best_ms_p50, op_best_ms_p90 on multi_failure"),
    ("class_a.rank_fallback_frac", "ratio", "lower", ("fallback", ""),
     "op_best_ms_p90 on multi_failure"),
    ("class_a.unrecoverable", "count", "lower", ("raised", "class_a.decode_multi_class_a"),
     "op_best_ms_p50, op_best_ms_p90 on multi_failure"),
    ("class_b.construct_ms", "ms", "lower",
     ("mean", "class_b.construct1_parities", "class_b.construct2_parities"),
     "pass_best_s on cli_pipeline; setup_s on stripe_repair"),
    ("repair.encode_self_ms", "ms", "lower", ("self", "repair.encode"),
     "op_best_ms_p50 and pass_best_s on stripe_repair (sum-parity part of encode)"),
    ("repair.data_node_ms", "ms", "lower", ("mean", "repair.repair_data_node"),
     "op_best_ms_p50, op_best_ms_p90, pass_best_s on stripe_repair"),
    ("repair.parity_node_ms", "ms", "lower", ("mean", "repair.repair_parity_node"),
     "op_best_ms_p50, pass_best_s on stripe_repair"),
    ("repair.multi_self_ms", "ms", "lower", ("self", "repair.repair_multi"),
     "op_best_ms_p50 on multi_failure (class-B re-encode)"),
    ("repair.spec_from_json_ms", "ms", "lower", ("mean", "repair.CodeSpec.from_json"),
     "pass_best_s on cli_pipeline"),
    ("repair.read_calls", "count", "lower", ("counter", "reads"),
     "op_best_ms_p50 on stripe_repair (data-node repairs)"),
    ("repair.cache_hit_frac", "ratio", "higher", ("counter", "read_hits"),
     "op_best_ms_p50 on stripe_repair (data-node repairs)"),
    ("metrics.tables_ms", "ms", "lower", ("mean", "metrics.table2_rows", "metrics.table3_rows"),
     "pass_best_s on cli_pipeline"),
    ("oracle.patterns_checked", "count", "lower", ("counter", "patterns"),
     "pass_best_s on verify_sweep"),
    ("oracle.patterns_per_s", "1/s", "higher", ("pattern_rate", ""),
     "pass_best_s on verify_sweep"),
    ("cli.construct_ms", "ms", "lower", ("mean", "cli.cmd_construct"), "pass_best_s on cli_pipeline"),
    ("cli.encode_ms", "ms", "lower", ("mean", "cli.cmd_encode"), "pass_best_s on cli_pipeline"),
    ("cli.repair_sim_ms", "ms", "lower", ("mean", "cli.cmd_repair_sim"), "pass_best_s on cli_pipeline"),
    ("cli.parity_sim_ms", "ms", "lower", ("mean", "cli.cmd_parity_sim"), "pass_best_s on cli_pipeline"),
    ("cli.tables_ms", "ms", "lower", ("mean", "cli.cmd_tables"), "pass_best_s on cli_pipeline"),
    ("trace.overhead_frac", "ratio", "lower", ("overhead", ""), "none: cost of tracing itself"),
]

GATE = "none: exact structural figure, checked as a gate"
for _s in STRIPE_SHAPES:
    CATALOGUE += [
        (f"repair.reads_per_data_node.{_s.name}", "count", "lower", ("figure", _s.name, "reads"), GATE),
        (f"repair.lambda.{_s.name}", "ratio", "lower", ("figure", _s.name, "lambda"), GATE),
        (f"metrics.repair_bit_ops.{_s.name}", "count", "lower", ("figure", _s.name, "repair_bit_ops"), GATE),
        (f"metrics.encode_bit_ops.{_s.name}", "count", "lower", ("figure", _s.name, "encode_bit_ops"), GATE),
    ]
for _k, _n_a, _tau in sweep_shapes():
    _name = sweep_name(_k, _n_a, _tau)
    CATALOGUE.append((f"oracle.ft_ms.{_name}", "ms", "lower",
                      ("labelled", "oracle.brute_force_fault_tolerance", f"ft:{_name}"),
                      "pass_best_s on verify_sweep"))
for _j in range(len(MIN_READS_7_4)):
    CATALOGUE.append((f"oracle.min_read_ms.{_j}", "ms", "lower",
                      ("labelled", "oracle.min_read_repair", f"minread:{_j}"), "pass_best_s on verify_sweep"))


def _mean_pass_ns(ledger) -> float:
    return sum(ledger.pass_ns) / len(ledger.pass_ns) if ledger.pass_ns else 0.0


def compute(spans, traced_ops: int, counts: dict, count_ops: int, notes: dict,
            figures: dict, plain, traced) -> dict:
    """Value of every catalogue metric for one traced run."""
    own = self_times(spans)
    by_name = defaultdict(list)
    for idx, s in enumerate(spans):
        by_name[s.name].append(idx)

    def durations(names, label=None):
        names = set(names)
        # a span nested in another of the same group is already inside its parent
        return [spans[i].end - spans[i].start for n in names for i in by_name[n]
                if (label is None or spans[i].label == label)
                and (spans[i].parent < 0 or spans[spans[i].parent].name not in names)]

    def fallback_frac():
        decodes = by_name["class_a.decode_multi_class_a"]
        if not decodes:
            return 0.0
        under = 0
        for i in by_name["gf.solve_values_dense"]:
            p = spans[i].parent
            while p >= 0 and spans[p].name != "class_a.decode_multi_class_a":
                p = spans[p].parent
            under += p >= 0
        return under / len(decodes)

    def pattern_rate():
        ft_ns = sum(ns for label, ns in plain.label_ns.items() if label.startswith("ft:"))
        if not ft_ns or not plain.pass_ns:
            return 0.0
        return counts["patterns"] / (ft_ns / len(plain.pass_ns) / 1e9)

    out = {}
    for name, unit, _better, how, _moves in CATALOGUE:
        kind, *args = how
        if kind == "mean":
            d = durations(args)
            value = statistics.fmean(d) / 1e6 if d else 0.0
        elif kind == "self":
            d = [own[i] for i in by_name[args[0]]]
            value = statistics.fmean(d) / 1e6 if d else 0.0
        elif kind == "total":
            value = sum(durations(args)) / 1e6
        elif kind == "per_op":
            value = sum(1 for i in by_name[args[0]] if spans[i].op >= 0) / max(traced_ops, 1)
        elif kind == "labelled":
            d = durations([args[0]], label=args[1])
            value = statistics.fmean(d) / 1e6 if d else 0.0
        elif kind == "raised":
            value = sum(1 for i in by_name[args[0]]
                        if spans[i].op >= 0 and spans[i].raised == "UnrecoverableErasureError")
        elif kind == "counter":
            if args[0] == "read_hits":
                value = counts["read_hits"] / counts["reads"] if counts["reads"] else 0.0
            elif args[0] == "patterns":
                value = counts["patterns"]
            else:
                value = counts[args[0]] / max(count_ops, 1)
        elif kind == "note":
            seen = notes.get(args[0]) or []
            value = statistics.fmean(seen) if seen else 0
        elif kind == "fallback":
            value = fallback_frac()
        elif kind == "pattern_rate":
            value = pattern_rate()
        elif kind == "overhead":
            base = _mean_pass_ns(plain)
            value = _mean_pass_ns(traced) / base - 1 if base else 0.0
        else:  # figure
            fig = figures[args[0]]
            value = {"reads": statistics.fmean(fig["reads_per_data_node"]),
                     "lambda": fig["lambda"],
                     "repair_bit_ops": fig["repair_bit_ops_per_node"],
                     "encode_bit_ops": fig["encode_bit_ops_per_row"]}[args[1]]
        out[name] = {"value": value, "unit": unit}
    return out
