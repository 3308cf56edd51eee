"""The benchmark's workloads: what each repetition runs and the floors it must meet.

Every workload is a closed loop with one caller. A repetition is one fresh
process that sets up, runs the timed body once and checks its outputs; the
grid workload's body uses at most two worker processes (``--jobs 2``).

The inputs derive from the benchmark seed alone: it is the data seed of
``gen_synthetic`` and the training seed of every run (the grid adds seed + 1 as
its second run seed).

``floor`` is the quality each repetition must reach. It is a floor, not a
bitwise expectation, so a later kernel change may move the last bits of the
loss without failing it.
"""

HEAD_SPECS = (
    "baseline",
    "maxcls:k=3",
    "mha:h=4",
    "maxseq+mha:k=3,h=4",
    "meanseq+mha:k=3,h=4",
    "normseq+mha:k=3,h=4",
)

# Model shape shared by every workload: the acceptance encoder.
MODEL = {"vocab_size": 50, "num_layers": 4, "d_model": 32, "enc_heads": 4,
         "max_seq_len": 64, "dropout": 0.1}

WORKLOADS = {
    # The acceptance cell shape. Large elementwise arrays make the kernels
    # (gelu, matmul, layer_norm) dominate the step.
    "train-b32": {
        "kind": "train", "task": "pattern", "train_size": 2000, "eval_size": 500,
        "seq_len": 16, "batch_size": 32, "epochs": 1, "lr": 1e-3,
        "heads": ["maxseq+mha:k=3,h=4"], "checkpoint": True,
        "floor": {"accuracy": 0.9},
    },
    # Same model at T=8 and B=4: arrays ~30x smaller, so per-op dispatch, tape
    # size and the per-parameter AdamW loop dominate. Every head kind runs.
    # 512 examples (128 steps): at 256 the [CLS]-only heads (baseline, maxcls)
    # sometimes stay near chance on a hard data seed, so no floor holds.
    "train-b4": {
        "kind": "train", "task": "pattern", "train_size": 512, "eval_size": 128,
        "seq_len": 7, "batch_size": 4, "epochs": 1, "lr": 1e-3,
        "heads": list(HEAD_SPECS), "checkpoint": False,
        "floor": {"accuracy": 0.9},
    },
    # The only path through the grid runner and its process pool. At T=48 the
    # T x T attention scores are largest; every cell regenerates its data.
    # B=16 gives each cell six optimizer steps: at B=32 (three steps) some
    # seeds leave every head near chance, too close to any useful floor. At
    # lr 1e-3 the best head still scored only 0.60 on some seeds; lr 3e-3 lifts
    # it to 0.74 or more at no cost in steps.
    "grid-t48": {
        "kind": "grid", "task": "majority", "train_size": 96, "eval_size": 96,
        "seq_len": 47, "batch_size": 16, "epochs": 1, "lr": 3e-3,
        "heads": list(HEAD_SPECS), "seeds": 2, "jobs": 2,
        "floor": {"best_head_accuracy": 0.6},
    },
}

# Sizes for the smoke test: every code path, seconds of work, no quality floor.
TINY = {
    "train-b32": {"train_size": 64, "eval_size": 32, "floor": {"accuracy": 0.0}},
    "train-b4": {"train_size": 16, "eval_size": 8, "floor": {"accuracy": 0.0}},
    "grid-t48": {"train_size": 8, "eval_size": 8,
                 "floor": {"best_head_accuracy": 0.0}},
}


def workload(name: str, tiny: bool = False) -> dict:
    """The spec of workload ``name``, shrunk to smoke-test size when ``tiny``."""
    spec = dict(WORKLOADS[name], name=name)
    if tiny:
        spec.update(TINY[name])
    return spec

