"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The expensive criteria share session-scoped runs: the full-size 6-head x
3-seed compare backs criteria 5 and 6, and a smaller shared-seed ablation grid
backs criterion 9. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import csv
import json
import struct
import time
import zlib

import numpy as np
import pytest

from clspool import arraycore as ac
from clspool.arraycore import Array
from clspool.cli import main
from clspool.data import SyntheticTaskSpec, gen_synthetic
from clspool.encoder import EncoderConfig, LayerStack
from clspool.heads import HeadKind, head_forward, init_head_params
from clspool.metrics import (accuracy, aggregate_seeds, f1_binary, matthews_corr,
                             spearman_rho_flagged)
from clspool.training import (
    CheckpointError,
    OptimizerState,
    TrainConfig,
    adamw_step,
    load_checkpoint,
    lr_at_step,
    model_from_checkpoint,
    pad_batch,
    save_checkpoint,
    train,
)

from oracles import accuracy_oracle, f1_oracle, mcc_oracle, spearman_oracle

ALL_HEAD_SPECS = ["baseline", "maxcls:k=3", "mha:h=4", "maxseq+mha:k=3,h=4",
                  "meanseq+mha:k=3,h=4", "normseq+mha:k=3,h=4"]


def report(criterion: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{status}] criterion {criterion}: {name}{suffix}")
    assert ok, f"criterion {criterion} failed: {name} {suffix}"


# ---------------------------------------------------------------------------
# shared expensive runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def compare_run(tmp_path_factory):
    """Full-size compare: 6 heads x 3 seeds on pattern_containment 2000/500."""
    out = tmp_path_factory.mktemp("acceptance_compare")
    argv = ["compare", "--task", "pattern", "--train-size", "2000",
            "--eval-size", "500", "--seq-len", "16", "--vocab-size", "50",
            "--num-layers", "4", "--d-model", "32", "--enc-heads", "4",
            "--epochs", "4", "--lr", "1e-3", "--batch-size", "32",
            "--warmup-ratio", "0.1", "--weight-decay", "0.01",
            "--seed", "1", "--seed", "2", "--seed", "3",
            "--out", str(out)]
    for spec in ALL_HEAD_SPECS:
        argv += ["--head", spec]
    started = time.perf_counter()
    rc = main(argv)
    elapsed = time.perf_counter() - started
    assert rc == 0
    return out, elapsed


ABLATE_TASK_ARGS = ["--task", "pattern", "--train-size", "240", "--eval-size",
                    "64", "--seq-len", "12", "--vocab-size", "50",
                    "--num-layers", "4", "--d-model", "32", "--enc-heads", "4",
                    "--epochs", "4", "--lr", "1e-3", "--batch-size", "32",
                    "--seed", "1", "--seed", "2", "--seed", "3"]


@pytest.fixture(scope="session")
def ablate_run(tmp_path_factory):
    """k sweep plus a baseline/mha compare on the same task and seeds."""
    ablate_out = tmp_path_factory.mktemp("acceptance_ablate")
    rc = main(["ablate-k", *ABLATE_TASK_ARGS, "--head", "maxseq+mha:h=4",
               "--k", "1", "--k", "2", "--k", "3", "--k", "4",
               "--out", str(ablate_out)])
    assert rc == 0
    mha_out = tmp_path_factory.mktemp("acceptance_ablate_mha")
    rc = main(["compare", *ABLATE_TASK_ARGS, "--head", "baseline",
               "--head", "mha:h=4", "--out", str(mha_out)])
    assert rc == 0
    return ablate_out, mha_out


def _load_runs(out_dir):
    runs = {}
    for path in (out_dir / "runs").glob("*.json"):
        record = json.loads(path.read_text())
        runs[(record["head"], record["seed"])] = record
    return runs


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_1_gradient_fidelity(capsys):
    started = time.perf_counter()
    rc = main(["gradcheck", "--bits", "64"])
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.strip()]
    with capsys.disabled():
        report(1, "gradient fidelity for all six head kinds",
               rc == 0 and len(lines) == 6 and all("PASS" in l for l in lines)
               and elapsed < 60.0,
               f"{elapsed:.1f}s, worst line: {max(lines, key=lambda l: l)!r}")


def test_criterion_2_identity_collapses():
    rng = np.random.default_rng(202)
    params = init_head_params(HeadKind("mha", num_heads=4), 32, 2, rng)
    ok = True
    for _ in range(100):
        acts = [Array(rng.normal(size=(6, 32))) for _ in range(4)]
        stack = LayerStack(activations=acts, mask=np.ones(6))
        base = head_forward(HeadKind("baseline"), stack, params).data
        mc1 = head_forward(HeadKind("maxcls", k=1), stack, params).data
        ok &= np.array_equal(base, mc1)
        mha = head_forward(HeadKind("mha", num_heads=4), stack, params).data
        for kind in ("maxseq+mha", "meanseq+mha", "normseq+mha"):
            got = head_forward(HeadKind(kind, k=1, num_heads=4), stack, params).data
            ok &= np.array_equal(mha, got)
    report(2, "k=1 identity collapses, bitwise on 100 random stacks", ok)


def layers(theta):
    """The layers of a (k, ...) array as the list of leaves a pool takes."""
    return [Array(layer.copy()) for layer in theta]


def test_criterion_3_pooling_property_suite():
    rng = np.random.default_rng(303)
    ok = True
    for case in range(10_000):
        k = int(rng.integers(1, 5))
        t = int(rng.integers(1, 4))
        d = int(rng.integers(1, 5))
        theta = rng.normal(size=(k, t, d))
        pooled = ac.max_over_axis0(layers(theta)).data
        meaned = ac.mean_over_axis0(layers(theta)).data

        perm = rng.permutation(k)
        ok &= np.array_equal(ac.max_over_axis0(layers(theta[perm])).data, pooled)
        ok &= all(np.all(pooled >= theta[l]) for l in range(k))
        dup = np.concatenate([theta, theta], axis=0)
        ok &= np.array_equal(ac.max_over_axis0(layers(dup)).data, pooled)
        c = float(rng.uniform(0.1, 10.0))
        ok &= np.array_equal(ac.max_over_axis0(layers(c * theta)).data, c * pooled)

        # scalar-loop oracles
        for i in range(t):
            for j in range(d):
                column = [theta[l, i, j] for l in range(k)]
                ok &= abs(pooled[i, j] - max(column)) <= 1e-12
                ok &= abs(meaned[i, j] - sum(column) / k) <= 1e-12
        if not ok:
            break
    report(3, "pooling property suite over 10,000 randomized cases", ok,
           f"last case {case}")


def test_criterion_4_metric_oracles():
    rng = np.random.default_rng(404)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 60))
        preds = rng.integers(0, 2, size=n).tolist()
        labels = rng.integers(0, 2, size=n).tolist()
        ok &= abs(accuracy(preds, labels) - accuracy_oracle(preds, labels)) <= 1e-12
        ok &= abs(f1_binary(preds, labels) - f1_oracle(preds, labels)) <= 1e-12
        ok &= abs(matthews_corr(preds, labels) - mcc_oracle(preds, labels)) <= 1e-12
        m = int(rng.integers(2, 40))
        x = (rng.integers(0, 8, size=m) / 2.0).tolist()
        y = (rng.integers(0, 8, size=m) / 2.0).tolist()
        ok &= abs(spearman_rho_flagged(x, y)[0] - spearman_oracle(x, y)) <= 1e-12
    fixed = (matthews_corr([1, 1, 0, 0], [1, 0, 1, 0]) == 0.0
             and abs(spearman_rho_flagged([1.0, 2.0, 3.0], [1.0, 3.0, 2.0])[0] - 0.5) < 1e-15
             and abs(f1_binary([1, 1, 1, 0, 0], [1, 1, 0, 1, 0]) - 2.0 / 3.0) < 1e-15)
    report(4, "metric implementations match brute-force oracles", ok and fixed)


def test_criterion_5_toy_training(compare_run):
    out, elapsed = compare_run
    runs = _load_runs(out)
    failures = []
    for spec in ALL_HEAD_SPECS:
        passing = sum(1 for seed in (1, 2, 3)
                      if runs[(spec, seed)]["metrics"]["accuracy"] >= 0.95)
        if passing < 2:
            failures.append(f"{spec}: {passing}/3")
    report(5, "every head reaches 0.95 eval accuracy for >= 2 of 3 seeds",
           not failures and elapsed < 600.0,
           f"compare wall time {elapsed:.0f}s" +
           (f"; short: {failures}" if failures else ""))


def test_criterion_6_protocol_reproduction(compare_run):
    out, _ = compare_run
    runs = _load_runs(out)
    mean_table = (out / "compare.txt").read_text()
    std_table = (out / "stddev.txt").read_text()
    layout_ok = (mean_table.splitlines()[0].startswith("Model")
                 and "Acc." in mean_table
                 and mean_table.strip().splitlines()[-1].startswith("Delta")
                 and len(std_table.strip().splitlines()) == 1 + len(ALL_HEAD_SPECS))

    csv_ok = True
    with (out / "compare.csv").open(newline="") as fh:
        csv_rows = list(csv.DictReader(fh))
    for cells in csv_rows:
        head, metric = cells["head"], cells["metric"]
        vals = [runs[(head, s)]["metrics"][metric] for s in (1, 2, 3)]
        agg = aggregate_seeds(vals)
        csv_ok &= float(cells["mean"]) == agg.mean
        csv_ok &= float(cells["std"]) == agg.std
        base_vals = [runs[("baseline", s)]["metrics"][metric] for s in (1, 2, 3)]
        csv_ok &= float(cells["delta"]) == agg.mean - aggregate_seeds(base_vals).mean
        for s in (1, 2, 3):
            csv_ok &= float(cells[f"seed_{s}"]) == vals[s - 1]

    report(6, "mean/std/delta tables recompute exactly from per-run JSON",
           layout_ok and csv_ok)


def test_criterion_7_schedule_and_optimizer():
    enc = EncoderConfig(vocab_size=10)
    cfg = TrainConfig(encoder=enc, learning_rate=2e-5, warmup_ratio=0.1)
    schedule_ok = (lr_at_step(10, 100, cfg) == 2e-5
                   and abs(lr_at_step(5, 100, cfg) - 1e-5) <= 1e-12
                   and lr_at_step(100, 100, cfg) == 0.0)
    for step in range(101):
        warmup = 10
        closed = 2e-5 * step / warmup if step <= warmup \
            else 2e-5 * (100 - step) / 90
        schedule_ok &= abs(lr_at_step(step, 100, cfg) - closed) <= 1e-12

    p = Array(np.array([[1.0]]))  # a weight matrix: one-axis parameters are not decayed
    p.grad = np.zeros((1, 1))
    adamw_step(OptimizerState([("w", p)]), lr=0.1, weight_decay=0.01)
    adam_ok = p.data[0, 0] == 1.0 - 0.1 * 0.01 * 1.0 and abs(p.data[0, 0] - 0.999) < 1e-15

    report(7, "lr schedule closed form and pure-decay AdamW example",
           schedule_ok and adam_ok)


def test_criterion_8_determinism_and_persistence(tmp_path):
    spec = SyntheticTaskSpec(kind="pattern_containment", vocab_size=30,
                             seq_len=(8, 8), train_size=96, eval_size=32, seed=0)
    train_set, eval_set = gen_synthetic(spec)
    enc = EncoderConfig(vocab_size=30, num_layers=2, d_model=16,
                        num_heads_encoder=2, max_seq_len=12, dropout=0.1)
    cfg = TrainConfig(encoder=enc, head=HeadKind("maxseq+mha", k=2, num_heads=2),
                      learning_rate=1e-3, epochs=2, batch_size=16, seed=11)
    model_a, result_a = train(cfg, train_set, eval_set)
    model_b, result_b = train(cfg, train_set, eval_set)
    determinism_ok = (result_a.eval_metrics == result_b.eval_metrics
                      and result_a.final_loss == result_b.final_loss)

    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model_a, cfg)
    reloaded, _ = model_from_checkpoint(path)
    ids, mask, _ = pad_batch(eval_set)
    delta = np.abs(model_a.forward(ids, mask).data
                   - reloaded.forward(ids, mask).data).max()

    blob = bytearray(path.read_bytes())
    bad_magic = bytearray(blob)
    bad_magic[:4] = b"ZZZZ"
    bad_crc = bytearray(blob)
    bad_crc[60] ^= 0x01
    bad_version = bytearray(blob)
    bad_version[4:8] = struct.pack("<I", 999)
    bad_version[-4:] = struct.pack("<I", zlib.crc32(bytes(bad_version[4:-4])) & 0xFFFFFFFF)
    rejects = 0
    for corrupted in (bytes(bad_magic), bytes(bad_crc), blob[:40], bytes(bad_version)):
        path.write_bytes(corrupted)
        try:
            load_checkpoint(path)
        except CheckpointError:
            rejects += 1
    report(8, "bit-identical reruns, zero-delta reload, corrupt files rejected",
           determinism_ok and delta == 0.0 and rejects == 4,
           f"max |dlogit| = {delta}")


def test_criterion_9_ablation_harness(ablate_run):
    ablate_out, mha_out = ablate_run
    table = (ablate_out / "ablate_k.txt").read_text()
    rows = [l for l in table.splitlines() if l.startswith("k = ")]
    layout_ok = [r.split()[2] for r in rows] == ["1", "2", "3", "4"]

    ablate_runs = _load_runs(ablate_out)
    mha_runs = _load_runs(mha_out)
    bitwise_ok = True
    for seed in (1, 2, 3):
        k1 = ablate_runs[("maxseq+mha:k=1,h=4", seed)]
        mha = mha_runs[("mha:h=4", seed)]
        bitwise_ok &= k1["metrics"] == mha["metrics"]
        bitwise_ok &= k1["final_loss"] == mha["final_loss"]
    report(9, "k sweep table produced; k=1 row bitwise equals the mha row",
           layout_ok and bitwise_ok)
