"""Per-layer metrics, computed from one traced repetition's span records.

Layers are clspool's modules. Times are summed over every process of the
repetition (the grid's two workers included), so on the grid they are busy
time, not wall time. A layer a workload does not exercise reads 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

# The arraycore ops that at least one workload calls, in arraycore.__all__
# order. sum_all and squared_error_mean run only in gradient checks and on
# regression tasks, which no workload covers.
OPS = (
    "matmul", "add", "add_vec", "scale", "transpose", "reshape",
    "concat_lastaxis", "slice_lastaxis", "slice_rows", "stack_axis0",
    "softmax_lastaxis", "max_over_axis0", "mean_over_axis0",
    "select_max_norm_axis0", "layer_norm", "gelu", "dropout", "mask_rows",
    "mask_scores", "embed_lookup", "cross_entropy_mean",
)

# Spans whose time is the grid's report step (metrics is timed inside them).
REPORT_SPANS = ("cli.build_reports", "cli.format_mean_table",
                "cli.format_std_table", "cli.write_compare_csv")

PER_LAYER = [
    ("data.gen_synthetic.calls", "count"),
    ("data.gen_synthetic.s", "s"),
    ("encoder.encode.s", "s"),
    ("encoder.self_attention.s", "s"),
    ("encoder.encode.self_s", "s"),
    ("heads.head_forward.s", "s"),
    ("heads.cls_attend.s", "s"),
    ("arraycore.trace.s", "s"),
    ("arraycore.run_backward.s", "s"),
    ("arraycore.tape_nodes_per_step", "count"),
    *[(f"arraycore.op.{op}.{part}", unit) for op in OPS
      for part, unit in (("calls", "count"), ("fwd_s", "s"), ("bwd_s", "s"))],
    ("arraycore.gc_collected_objects", "count"),
    ("arraycore.gc_gen2_collections", "count"),
    ("training.pad_batch.s", "s"),
    ("training.adamw_step.s", "s"),
    ("training.adamw_step.calls", "count"),
    ("training.step_ms.p50", "ms"),
    ("training.step_ms.p90", "ms"),
    ("training.step_ms.n", "count"),
    ("training.evaluate.s", "s"),
    ("training.save_checkpoint.ms", "ms"),
    ("training.model_from_checkpoint.ms", "ms"),
    ("cli.cell_s.p50", "s"),
    ("cli.cell_s.max", "s"),
    ("cli.pool_busy_frac", "ratio"),
    ("cli.report_s", "s"),
    ("trace.overhead_s", "s"),
]


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def span_totals(records: list[dict]) -> tuple[dict, dict, dict]:
    """(total seconds, call count, self seconds) per span name, all processes."""
    total, calls, self_s = defaultdict(float), defaultdict(int), defaultdict(float)
    for rec in records:
        spans = rec["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, _) in enumerate(spans):
            total[name] += end - start
            calls[name] += 1
            self_s[name] += end - start - child_time[i]
    return total, calls, self_s


def step_intervals_ms(records: list[dict]) -> list[float]:
    """Gaps between consecutive ``adamw_step`` returns within one ``train`` call."""
    gaps = []
    for rec in records:
        ends = defaultdict(list)
        for name, _, end, parent in rec["spans"]:
            if name == "training.adamw_step":
                ends[parent].append(end)
        for seq in ends.values():
            seq.sort()
            gaps.extend(1e3 * (b - a) for a, b in zip(seq, seq[1:]))
    return gaps


def layer_metrics(records: list[dict], *, cell_s: list[float], wall_s: float,
                  jobs: int) -> dict[str, float]:
    """Every PER_LAYER metric except ``trace.overhead_s``, which needs an
    untraced run to compare against."""
    total, calls, self_s = span_totals(records)
    ops = defaultdict(lambda: [0, 0.0, 0.0])
    counts = defaultdict(int)
    for rec in records:
        for op, (n, fwd, bwd) in rec["ops"].items():
            agg = ops[op]
            agg[0] += n
            agg[1] += fwd
            agg[2] += bwd
        for key, value in rec["counts"].items():
            counts[key] += value
    gaps = step_intervals_ms(records)
    traces = calls["arraycore.trace"]

    def per_call_ms(name):
        return 1e3 * total[name] / calls[name] if calls[name] else 0.0

    out = {
        "data.gen_synthetic.calls": calls["data.gen_synthetic"],
        "data.gen_synthetic.s": total["data.gen_synthetic"],
        "encoder.encode.s": total["encoder.encode"],
        "encoder.self_attention.s": total["encoder.self_attention"],
        "encoder.encode.self_s": self_s["encoder.encode"],
        "heads.head_forward.s": total["heads.head_forward"],
        "heads.cls_attend.s": total["heads.cls_attend"],
        "arraycore.trace.s": total["arraycore.trace"],
        "arraycore.run_backward.s": total["arraycore.run_backward"],
        "arraycore.tape_nodes_per_step": counts["tape_nodes"] / traces if traces else 0.0,
        "arraycore.gc_collected_objects": counts["gc_collected"],
        "arraycore.gc_gen2_collections": counts["gc_gen2"],
        "training.pad_batch.s": total["training.pad_batch"],
        "training.adamw_step.s": total["training.adamw_step"],
        "training.adamw_step.calls": calls["training.adamw_step"],
        "training.step_ms.p50": statistics.median(gaps) if gaps else 0.0,
        "training.step_ms.p90": _p90(gaps),
        "training.step_ms.n": len(gaps),
        "training.evaluate.s": total["training.evaluate"],
        "training.save_checkpoint.ms": per_call_ms("training.save_checkpoint"),
        "training.model_from_checkpoint.ms": per_call_ms("training.model_from_checkpoint"),
        "cli.cell_s.p50": statistics.median(cell_s) if cell_s else 0.0,
        "cli.cell_s.max": max(cell_s, default=0.0),
        "cli.pool_busy_frac": sum(cell_s) / (jobs * wall_s) if cell_s else 0.0,
        "cli.report_s": sum(total[name] for name in REPORT_SPANS),
    }
    for op in OPS:
        n, fwd, bwd = ops[op]
        out[f"arraycore.op.{op}.calls"] = n
        out[f"arraycore.op.{op}.fwd_s"] = fwd
        out[f"arraycore.op.{op}.bwd_s"] = bwd
    return out
