"""Fast smoke test of the benchmark itself (not of clspool).

    python3 perfbench/smoke_test.py          # or: python -m pytest perfbench/smoke_test.py

Runs every workload at tiny size, traced and untraced, and checks the wrapper
bindings, the result format and the refusal to run without sources. It writes
only under ``.perfbench/smoke`` in the checkout.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, workload  # noqa: E402

SMOKE = run.OUT_ROOT / "smoke"


def test_wrappers_bind_every_alias_and_restore_the_originals():
    from clspool import arraycore, cli, data, encoder, training

    encode, tape_trace = encoder.encode, arraycore.Tape.__dict__["trace"]
    spec = data.SyntheticTaskSpec("pattern_containment", train_size=4, eval_size=2, seed=5)
    expected = data.gen_synthetic(spec)
    callbacks = list(gc.callbacks)
    tracer = Tracer("smoke", SMOKE)
    tracer.install()
    try:
        assert tracer.binding_errors() == []
        # `from .encoder import encode` made an alias; it must be wrapped too.
        assert training.encode is encoder.encode is not encode
        assert encoder.encode.__wrapped__ is encode
        assert cli.gen_synthetic is data.gen_synthetic
        assert data.gen_synthetic(spec) == expected
        assert [s[0] for s in tracer.spans] == ["data.gen_synthetic"]
        out = arraycore.matmul(arraycore.array([[1.0, 2.0]]), arraycore.array([[3.0], [4.0]]))
        arraycore.backward(arraycore.sum_all(out))
        assert tracer.ops["matmul"][0] == 1 and tracer.ops["matmul"][2] > 0.0
        assert tracer.counts["tape_nodes"] == 2
    finally:
        tracer.uninstall()
    assert tracer.binding_errors() == []
    assert encoder.encode is encode and training.encode is encode
    assert arraycore.Tape.__dict__["trace"] is tape_trace
    assert gc.callbacks == callbacks


def _check_summary(summary: dict, trace: bool) -> None:
    assert summary["failed"] == 0, summary["problems"]
    assert summary["attempted"] >= 1
    names = [n for n, _ in PER_LAYER] if trace else [n for n, _ in run.END_TO_END]
    assert list(summary["metrics"]) == names
    for metric in summary["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run.report(summary)
    last = json.loads(buf.getvalue().strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True


def test_every_workload_runs_at_tiny_size():
    for name in WORKLOADS:
        for trace in (False, True):
            out_dir = SMOKE / f"{name}-trace{int(trace)}"
            summary = run.execute(workload(name, tiny=True), 7, 1, trace, out_dir)
            _check_summary(summary, trace)
    records = json.loads((SMOKE / "grid-t48-trace1" / "rep1.trace.json").read_text())
    assert len({rec["pid"] for rec in records}) == 3     # the rep and both workers


def test_benchmark_json_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == PER_LAYER


def test_refuses_to_run_without_sources():
    bare = SMOKE / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-b4", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok  {name}")
