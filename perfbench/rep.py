"""One repetition of a workload: set up, run the timed body once, check it.

run.py starts this in a fresh process per repetition, with the BLAS thread
counts pinned in the environment, and reads the JSON record it writes to
``--out``. ``--t0`` is the parent's monotonic clock just before the process
started (CLOCK_MONOTONIC is system-wide), so ``setup_s`` covers interpreter
start, imports and the workload's set-up.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import struct
import sys
import time
from pathlib import Path

import numpy as np

from clspool import cli, data, heads, training
from clspool.encoder import EncoderConfig

import layers
from tracer import ENV_KEYS, Tracer, load_records
from workloads import MODEL


class Outcome:
    """What one repetition did: timings, per-run failures and check results."""

    def __init__(self):
        self.runs = 0
        self.failed_runs: list[str] = []
        self.checks: list[tuple[str, bool, str]] = []   # (name, ok, detail)
        self.digest = hashlib.sha256()
        self.train_s = 0.0
        self.train_examples = 0
        self.eval_rates: list[float] = []     # examples/s, one per evaluate() call
        self.cell_s: list[float] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        **{k: os.environ.get(k) for k in ENV_KEYS},
    }


def _train_config(spec: dict, head_spec: str, seed: int) -> training.TrainConfig:
    enc = EncoderConfig(vocab_size=MODEL["vocab_size"], num_layers=MODEL["num_layers"],
                        d_model=MODEL["d_model"], num_heads_encoder=MODEL["enc_heads"],
                        max_seq_len=MODEL["max_seq_len"], dropout=MODEL["dropout"])
    return training.TrainConfig(encoder=enc, head=heads.parse_head_spec(head_spec),
                                learning_rate=spec["lr"], epochs=spec["epochs"],
                                batch_size=spec["batch_size"], seed=seed)


def setup_train(spec: dict, seed: int):
    kind = data.TASK_PRESETS[spec["task"]][0]
    length = spec["seq_len"]
    train_set, eval_set = data.gen_synthetic(data.SyntheticTaskSpec(
        kind=kind, vocab_size=MODEL["vocab_size"], seq_len=(length, length),
        train_size=spec["train_size"], eval_size=spec["eval_size"], seed=seed))
    cfgs = [_train_config(spec, h, seed) for h in spec["heads"]]
    for cfg in cfgs:
        training.build_model(cfg, n_classes=2)
    return cfgs, train_set, eval_set


def body_train(spec, setup, workdir: Path, out: Outcome) -> None:
    cfgs, train_set, eval_set = setup
    floor = spec["floor"]["accuracy"]
    for cfg in cfgs:
        head = cfg.head.spec()
        out.runs += 1
        t0 = time.perf_counter()
        try:
            model, result = training.train(cfg, train_set, eval_set)
        except training.TrainingError as err:
            out.failed_runs.append(f"{head}: {err}")
            continue
        out.train_s += time.perf_counter() - t0
        out.train_examples += cfg.epochs * len(train_set)

        t0 = time.perf_counter()
        metrics = training.evaluate(model, eval_set)
        out.eval_rates.append(len(eval_set) / (time.perf_counter() - t0))
        record = [result.final_loss, result.eval_metrics, result.train_metrics, metrics]
        if spec["checkpoint"]:
            path = workdir / "model.ckpt"
            training.save_checkpoint(path, model, cfg)
            restored, _ = training.model_from_checkpoint(path)
            t0 = time.perf_counter()
            reloaded = training.evaluate(restored, eval_set)
            out.eval_rates.append(len(eval_set) / (time.perf_counter() - t0))
            out.check(f"checkpoint round trip {head}", reloaded == metrics,
                      f"{reloaded} vs {metrics}")
            record.append(reloaded)
        out.check(f"quality floor {head}", metrics["accuracy"] >= floor,
                  f"accuracy {metrics['accuracy']:.4f} >= {floor}")
        out.digest.update(struct.pack("<d", result.final_loss))
        out.digest.update(json.dumps(record, sort_keys=True).encode())


def grid_argv(spec: dict, seed: int, out_dir: Path) -> list[str]:
    argv = ["compare", "--task", spec["task"], "--seq-len", str(spec["seq_len"]),
            "--train-size", str(spec["train_size"]),
            "--eval-size", str(spec["eval_size"]), "--epochs", str(spec["epochs"]),
            "--lr", repr(spec["lr"]), "--batch-size", str(spec["batch_size"]),
            "--vocab-size", str(MODEL["vocab_size"]),
            "--num-layers", str(MODEL["num_layers"]),
            "--d-model", str(MODEL["d_model"]), "--enc-heads", str(MODEL["enc_heads"]),
            "--dropout", repr(MODEL["dropout"]),
            "--data-seed", str(seed), "--jobs", str(spec["jobs"]), "--out", str(out_dir)]
    for head in spec["heads"]:
        argv += ["--head", head]
    for s in range(seed, seed + spec["seeds"]):
        argv += ["--seed", str(s)]
    return argv


def setup_grid(spec: dict, seed: int, workdir: Path):
    argv = grid_argv(spec, seed, workdir / "grid")
    cli.build_parser().parse_args(argv)
    return argv


def body_grid(spec, argv, workdir: Path, out: Outcome) -> None:
    rc = cli.main(argv)
    out.check("grid exit code", rc == 0, f"exit {rc}")
    grid_dir = workdir / "grid"
    runs = sorted((grid_dir / "runs").glob("*.json"))
    expected = len(spec["heads"]) * spec["seeds"]
    out.check("grid per-run files", len(runs) == expected, f"{len(runs)} of {expected}")
    out.runs += expected
    by_head: dict[str, list[float]] = {}
    losses = []
    for path in runs:
        record = json.loads(path.read_text(encoding="utf-8"))
        if "error" in record:
            out.failed_runs.append(f"{record['head']} seed {record['seed']}: "
                                   f"{record['error']}")
            continue
        out.cell_s.append(record["wall_time_s"])
        by_head.setdefault(record["head"], []).append(record["metrics"]["accuracy"])
        losses.append(f"{record['head']}/{record['seed']}={record['final_loss']!r}")
    out.failed_runs.extend("per-run file missing" for _ in range(expected - len(runs)))
    best = max((sum(v) / len(v) for v in by_head.values()), default=0.0)
    floor = spec["floor"]["best_head_accuracy"]
    out.check("quality floor best head", best >= floor,
              f"best mean accuracy {best:.4f} >= {floor}")
    csv = grid_dir / "compare.csv"
    out.digest.update(csv.read_bytes() if csv.exists() else b"missing")
    out.digest.update("\n".join(losses).encode())
    out.train_examples = len(out.cell_s) * spec["epochs"] * spec["train_size"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spec", required=True, help="workload spec as JSON")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and record only setup_s")
    args = parser.parse_args(argv)
    spec = json.loads(args.spec)
    seed = args.seed
    workdir = Path(args.workdir)
    span_dir = workdir / "spans"
    span_dir.mkdir(parents=True, exist_ok=True)
    grid = spec["kind"] == "grid"

    # The grid's eval throughput needs the time of train()'s own evaluate()
    # calls inside the workers, so an untraced grid times that one function.
    tracer = None
    if args.trace:
        tracer = Tracer(f"{spec['name']}-seed{seed}", span_dir)
    elif grid:
        tracer = Tracer(f"{spec['name']}-seed{seed}", span_dir,
                        only=frozenset({"training.evaluate"}))
    out = Outcome()
    if tracer is not None:
        tracer.install()
        errors = tracer.binding_errors()
        out.check("wrappers bound everywhere", not errors, ", ".join(errors))

    setup = setup_grid(spec, seed, workdir) if grid else setup_train(spec, seed)
    t_body = time.monotonic()
    if args.setup_only:
        Path(args.out).write_text(json.dumps({"setup_s": t_body - args.t0}),
                                  encoding="utf-8")
        return 0
    started = time.perf_counter()
    if grid:
        body_grid(spec, setup, workdir, out)
    else:
        body_train(spec, setup, workdir, out)
    wall_s = time.perf_counter() - started

    records = []
    if tracer is not None:
        tracer.uninstall()
        errors = tracer.binding_errors()
        out.check("wrappers removed everywhere", not errors, ", ".join(errors))
        tracer.write()
        records = load_records(span_dir)
    workers = [r for r in records if r["pid"] != os.getpid()]
    if grid:
        out.check("grid workers traced", len(workers) == min(spec["jobs"], out.runs),
                  f"{len(workers)} worker span files")
        pinned = all(r["env"][k] == "1" for r in workers for k in ENV_KEYS)
        out.check("grid workers pinned to one BLAS thread", pinned,
                  json.dumps([r["env"] for r in workers]))
        total, calls, _ = layers.span_totals(workers)
        out.check("grid evaluate calls seen", calls["training.evaluate"] == 2 * len(out.cell_s),
                  f"{calls['training.evaluate']} calls for {len(out.cell_s)} cells")
        if total["training.evaluate"] > 0:
            scored = len(out.cell_s) * (spec["train_size"] + spec["eval_size"])
            out.eval_rates.append(scored / total["training.evaluate"])

    result = {
        "workload": spec["name"],
        "seed": seed,
        "traced": bool(args.trace),
        "env": environment(),
        "setup_s": t_body - args.t0,
        "wall_s": wall_s,
        "train_examples_per_s": out.train_examples / (wall_s if grid else out.train_s)
        if out.train_examples else None,
        "eval_rates": out.eval_rates,
        # Grid workers have been joined, so their peaks are in RUSAGE_CHILDREN.
        "peak_rss_mb": max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                           resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0,
        "runs": out.runs,
        "failed_runs": out.failed_runs,
        "checks": out.checks,
        "digest": out.digest.hexdigest(),
    }
    if args.trace:
        result["layers"] = layers.layer_metrics(
            records, cell_s=out.cell_s, wall_s=wall_s, jobs=spec.get("jobs", 1))
        (workdir.parent / f"{workdir.name}.trace.json").write_text(
            json.dumps(records), encoding="utf-8")
    Path(args.out).write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
