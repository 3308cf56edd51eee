#!/usr/bin/env python3
"""clspool's benchmark: run one workload, print its metrics, check its outputs.

    python3 perfbench/run.py --workload train-b32 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from ``src/``.
Repetitions of the workload run one after another, each in a fresh process
with ``OPENBLAS_NUM_THREADS=1`` and ``OMP_NUM_THREADS=1``, until ``--seconds``
would be exceeded (at least two run). ``wall_s`` and ``train_examples_per_s``
are medians over the repetitions; ``eval_examples_per_s`` is the median over
the benchmark's ``evaluate()`` calls (on the grid, over each repetition's
end-of-run evaluations inside ``train()``); ``setup_s`` is the median over the
repetitions and two set-up-only processes after each; ``peak_rss_mb`` is the
median over the repetitions of each one's peak (its own and its grid workers').

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs one untraced
repetition, then traced ones, and prints the per-layer metrics; the traced and
untraced outputs must be bit-identical.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``attempted`` counts
training runs and correctness checks; ``failed`` counts failed runs
(a ``TrainingError``, a grid cell with an ``error`` or a repetition that exited
abnormally) and failed checks, so ``failed_frac = failed / attempted``. Full
records, logs and merged traces go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from layers import PER_LAYER  # noqa: E402
from workloads import WORKLOADS, workload  # noqa: E402

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("train_examples_per_s", "examples/s"),
    ("eval_examples_per_s", "examples/s"),
    ("peak_rss_mb", "MB"),
]
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
MIN_REPS = 2
# Extra processes after each untraced repetition that only set up, so that
# setup_s is a median over several start-ups per run.
SETUP_PROBES_PER_REP = 2
# Repetitions stop being started, and a running one is killed, this long
# after the start, so that the whole run ends well inside three minutes.
DEADLINE_S = 150.0
OUT_ROOT = ROOT / ".perfbench"


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill what is left of a repetition's process group and wait until it is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    proc.wait()
    for _ in range(200):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_rep(spec: dict, seed: int, traced: bool, workdir: Path, deadline: float,
            setup_only: bool = False) -> dict | None:
    """One repetition in a fresh process; its record, or None if it failed."""
    out = workdir.with_suffix(".json")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **PINNED_ENV)
    with open(workdir.with_suffix(".log"), "w", encoding="utf-8") as log:
        t0 = time.monotonic()
        cmd = [sys.executable, str(HERE / "rep.py"), "--spec", json.dumps(spec),
               "--seed", str(seed), "--trace", str(int(traced)),
               "--workdir", str(workdir), "--out", str(out), "--t0", repr(t0)]
        if setup_only:
            cmd.append("--setup-only")
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=env,
                                cwd=ROOT, start_new_session=True)
        try:
            rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            rc = None
        finally:
            _stop_group(proc)
    shutil.rmtree(workdir, ignore_errors=True)
    if rc != 0 or not out.exists():
        return None
    return json.loads(out.read_text(encoding="utf-8"))


def execute(spec: dict, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """Run repetitions of one workload and summarise them."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    start = time.monotonic()
    deadline = start + DEADLINE_S
    reps: list[tuple[str, dict | None]] = []
    setups: list[float] = []
    probes = bad_probes = 0
    while True:
        traced = trace and bool(reps)
        name = f"rep{len(reps)}"
        cycle = time.monotonic()
        record = run_rep(spec, seed, traced, out_dir / name, deadline)
        reps.append((name, record))
        if record is not None and not traced:
            setups.append(record["setup_s"])
        for i in range(0 if trace else SETUP_PROBES_PER_REP):
            probe = run_rep(spec, seed, False, out_dir / f"{name}-setup{i}",
                            deadline, setup_only=True)
            probes += 1
            if probe is None:
                bad_probes += 1
            else:
                setups.append(probe["setup_s"])
        now = time.monotonic()
        took = now - cycle
        if now + took > deadline:
            break
        if len(reps) >= MIN_REPS and now - start + took > seconds:
            break

    attempted, failed = probes, bad_probes
    problems = ["a set-up-only process exited abnormally"] * bad_probes
    done = [r for _, r in reps if r is not None]
    for name, record in reps:
        if record is None:
            attempted += 1
            failed += 1
            problems.append(f"{name}: exited abnormally (see {name}.log)")
            continue
        attempted += record["runs"] + len(record["checks"])
        failed += len(record["failed_runs"])
        problems += [f"{name}: run failed: {msg}" for msg in record["failed_runs"]]
        for check, ok, detail in record["checks"]:
            failed += not ok
            if not ok:
                problems.append(f"{name}: check failed: {check} ({detail})")
        attempted += 1
        if any(record["env"][k] != v for k, v in PINNED_ENV.items()):
            failed += 1
            problems.append(f"{name}: BLAS threads not pinned: {record['env']}")
    digests = {r["digest"] for r in done}
    attempted += 1
    if len(digests) > 1:
        failed += 1
        problems.append("outputs differ between repetitions of the same code "
                        "(traced vs untraced included)")

    plain = [r for r in done if not r["traced"]]
    traced_reps = [r for r in done if r["traced"]]
    summary = {
        "workload": spec["name"], "seed": seed, "seconds": seconds, "trace": trace,
        "env": done[0]["env"] if done else None,
        "reps": len(reps), "attempted": attempted, "failed": failed,
        "problems": problems, "metrics": None,
    }
    if not plain or (trace and not traced_reps):
        return summary

    if trace:
        metrics = {name: statistics.median(r["layers"][name] for r in traced_reps)
                   for name, _ in PER_LAYER if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced_reps)
                                       - statistics.median(r["wall_s"] for r in plain))
        units = dict(PER_LAYER)
    else:
        samples = {
            "setup_s": setups,
            "wall_s": [r["wall_s"] for r in plain],
            "train_examples_per_s": [r["train_examples_per_s"] for r in plain
                                     if r["train_examples_per_s"] is not None],
            "eval_examples_per_s": [x for r in plain for x in r["eval_rates"]],
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        }
        if not all(samples.values()):
            return summary
        metrics = {name: statistics.median(values) for name, values in samples.items()}
        units = dict(END_TO_END)
    summary["metrics"] = {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}
    return summary


def report(summary: dict) -> None:
    """Human-readable lines, then the one-line JSON result."""
    env = summary["env"] or {}
    mode = "traced" if summary["trace"] else "untraced"
    print(f"workload {summary['workload']}  seed {summary['seed']}  "
          f"{summary['reps']} repetitions ({mode})")
    print("env: " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for name, metric in (summary["metrics"] or {}).items():
        print(f"  {name:40s} {metric['value']:>14.6g} {metric['unit']}")
    attempted, failed = summary["attempted"], summary["failed"]
    print(f"  {'failed_frac':40s} {failed / attempted:>14.6g} ratio "
          f"({failed} of {attempted} runs and checks)")
    for problem in summary["problems"]:
        print(f"  FAIL {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": summary["metrics"],
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one clspool benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "clspool" / "__init__.py").is_file():
        print(f"error: no clspool sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2

    out_dir = OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    summary = execute(workload(args.workload), args.seed, args.seconds,
                      bool(args.trace), out_dir)
    (out_dir / "result.json").write_text(json.dumps(summary, indent=1),
                                         encoding="utf-8")
    if summary["metrics"] is None:
        for problem in summary["problems"]:
            print(f"FAIL {problem}", file=sys.stderr)
        print(f"error: no repetition completed; see {out_dir}", file=sys.stderr)
        return 1
    report(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
