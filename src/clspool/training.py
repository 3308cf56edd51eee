"""Fine-tuning harness: AdamW with linear warmup/decay, seeded end to end.

Determinism contract: at a fixed BLAS thread count, (seed, config, data)
fully determine every parameter after training (a threaded BLAS may split a
product's sum differently, so CI runs tier-1 with OPENBLAS_NUM_THREADS=1).
Three independent generator streams are derived from the run seed - one for
parameter init, one for epoch shuffling, one for dropout - so runs with
different heads but the same seed still see identical data order (paired
comparisons across heads stay valid).

Checkpoints are a small binary format: magic ``MPBT``, a format version, the
config as key=value text, named float32 tensors, and a trailing CRC-32 of
everything after the magic.
"""

from __future__ import annotations

import ctypes
import functools
import os
import struct
import sys
import time
import zlib
from contextvars import Context, copy_context
from dataclasses import dataclass, field, fields
from itertools import repeat
from math import ceil, inf, isfinite, prod
from pathlib import Path

import numpy as np

from . import arraycore as ac
from .arraycore import Array
from .data import Example, PAD_ID, SchemaError
from .encoder import EncoderConfig, EncoderParams, encode, init_encoder_params
from .heads import (ConfigurationError, HeadKind, HeadParams, head_forward, init_head_params,
                    parse_head_spec)
from .metrics import accuracy, f1_binary, matthews_corr, spearman_rho_flagged

__all__ = [
    "TrainConfig",
    "OptimizerState",
    "Model",
    "TrainResult",
    "TrainingError",
    "CheckpointError",
    "lr_at_step",
    "adamw_step",
    "build_model",
    "check_labels",
    "pad_batch",
    "evaluate",
    "train",
    "save_checkpoint",
    "load_checkpoint",
    "model_from_checkpoint",
]

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
CLIP_NORM = 1.0
MAX_CLASSES = 10_000  # cross_entropy class labels must lie in [0, MAX_CLASSES)
# An encoder may have at most this many parameters: 2**25 take 0.5 GB in
# float32 for values, gradients and both AdamW moments. TrainConfig refuses a
# larger one, so nothing is allocated for it.
MAX_PARAMETERS = 2 ** 25
# evaluate scores its batches on several threads only when a batch holds at
# least this many activation values (tokens x d_model) on average. Smaller
# batches spend most of each op in Python, and handing the interpreter lock
# between threads around every numpy call costs more than the overlap saves:
# on a 2-core Xeon VM at d_model 32, batches of 64 x 8 tokens (16,384 values)
# scored 7% slower on two threads, 64 x 11 (22,528) 10% faster and 64 x 17
# (34,816) 37% faster.
MIN_THREADED_BATCH_VALUES = 24_000

CHECKPOINT_MAGIC = b"MPBT"
CHECKPOINT_VERSION = 1


class TrainingError(RuntimeError):
    """Training diverged or was fed inconsistent inputs."""


class CheckpointError(ValueError):
    """Checkpoint file is malformed, truncated, or from an unknown version."""


@dataclass
class TrainConfig:
    encoder: EncoderConfig
    head: HeadKind = field(default_factory=lambda: HeadKind("baseline"))
    learning_rate: float = 2e-5
    epochs: int = 4
    batch_size: int = 32
    warmup_ratio: float = 0.1
    weight_decay: float = 0.01
    seed: int = 0
    loss: str = "cross_entropy"  # or "squared_error"

    def __post_init__(self):
        head, enc = self.head, self.encoder  # the only check that a head fits its encoder
        if head.uses_depth and head.k > enc.num_layers:
            raise ConfigurationError(f"head '{head.spec()}': k={head.k} exceeds "
                                     f"num_layers={enc.num_layers}")
        if head.uses_attention and enc.d_model % head.num_heads != 0:
            raise ConfigurationError(f"head '{head.spec()}': num_heads {head.num_heads} "
                                     f"does not divide d_model {enc.d_model}")
        if enc.num_parameters > MAX_PARAMETERS:
            raise ValueError(f"the encoder would have {enc.num_parameters} parameters, "
                             f"more than MAX_PARAMETERS ({MAX_PARAMETERS})")
        if not 0 < self.learning_rate < inf:  # also refuses nan
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not 0 <= self.weight_decay < inf:
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if not 0.0 <= self.warmup_ratio < 1.0:
            raise ValueError(f"warmup_ratio must be in [0, 1), got {self.warmup_ratio}")
        for name in ("batch_size", "epochs"):
            if (value := getattr(self, name)) < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if self.loss not in ("cross_entropy", "squared_error"):
            raise ValueError(f"unknown loss '{self.loss}'")
        if self.seed < 0:  # numpy's generators take no negative seed
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def lr_at_step(step: int, total_steps: int, cfg: TrainConfig) -> float:
    """Linear ramp 0 -> peak over the warmup steps, then linear decay to 0."""
    if total_steps <= 0:
        raise ValueError("lr_at_step: total_steps must be positive")
    if not 0 <= step <= total_steps:
        raise ValueError(f"lr_at_step: step {step} outside [0, {total_steps}]")
    warmup = round(cfg.warmup_ratio * total_steps)
    peak = cfg.learning_rate
    if warmup > 0 and step <= warmup:
        return peak * step / warmup
    return peak * (total_steps - step) / (total_steps - warmup)


class OptimizerState:
    """AdamW state over one flat buffer holding every parameter it updates.

    Building it lays the parameters out in ``data`` and ``grad``, decayed
    parameters first and the one-axis ones (biases, layer-norm gains), exempt
    from decay, after; copies in their values and gradients, and makes each
    Array's .data and .grad a view of its slice, so backward accumulates
    straight into ``grad``."""

    def __init__(self, named_params: list[tuple[str, Array]]):
        self.step = 0
        self.named = named_params
        exempt = [p.ndim < 2 for _, p in named_params]
        self.n_decay = sum(p.size for (_, p), skip in zip(named_params, exempt) if not skip)
        self.data = np.empty(sum(p.size for _, p in named_params),
                             dtype=named_params[0][1].dtype)
        self.grad, self.m, self.v = (np.zeros_like(self.data) for _ in range(3))
        self.slots: list[tuple[Array, np.ndarray, np.ndarray, slice]] = []  # caller's order
        free = [0, self.n_decay]  # next offset in the decayed and in the exempt region
        for (_, p), skip in zip(named_params, exempt):
            span = slice(free[skip], free[skip] + p.size)
            free[skip] += p.size
            self.slots.append((p, self.data[span].reshape(p.shape),
                               self.grad[span].reshape(p.shape), span))
        self.bind()

    def bind(self) -> None:
        """Copy in any .data or .grad rebound away from its view (None counts as 0)."""
        for p, data, grad, _ in self.slots:
            if p.data is not data:
                data[...] = p.data
                p.data = data
            if p.grad is not grad:
                grad[...] = 0 if p.grad is None else p.grad
                p.grad = grad


def adamw_step(state: OptimizerState, lr: float, weight_decay: float) -> float:
    """One optimizer step, in place, in a few whole-buffer ops: clip the
    gradients to global norm CLIP_NORM, then the bias-corrected Adam update
    plus decoupled weight decay. Consumes and zeroes the gradients and returns
    their norm before the clip. Raises TrainingError on a non-finite gradient,
    naming the first parameter that has one, before anything moves."""
    state.bind()
    state.step += 1
    t = state.step
    g, m, v, data = state.grad, state.m, state.v, state.data
    norm = np.sqrt(np.square(g, dtype=np.float64).sum())  # one sum, in layout order
    if not np.isfinite(norm):  # a float64 gradient's squares can overflow
        name = next((name for name, p in state.named if not np.all(np.isfinite(p.grad))), None)
        raise TrainingError(f"non-finite gradient for '{name}' at optimizer step {t}" if name
                            else f"gradient norm overflows at optimizer step {t}")
    if norm > CLIP_NORM:  # float32 gradients scale in float64 under any casting rules
        np.multiply(g, CLIP_NORM / norm, out=g, dtype=np.float64)
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    # in place, in the order of b1*m + (1-b1)*g, b2*v + (1-b2)*(g*g) and
    # data -= lr * ((m/bc1) / (sqrt(v/bc2) + eps)): multiplication commutes exactly
    m *= ADAM_BETA1
    scratch = g * (1.0 - ADAM_BETA1)
    m += scratch
    v *= ADAM_BETA2
    np.multiply(g, g, out=scratch)
    scratch *= 1.0 - ADAM_BETA2
    v += scratch
    den = np.divide(v, bc2, out=scratch)
    np.sqrt(den, out=den)
    den += ADAM_EPS
    update = m / bc1
    update /= den
    update *= lr
    data -= update
    if weight_decay != 0.0:
        decayed = data[:state.n_decay]
        decayed -= np.multiply(decayed, lr * weight_decay, out=update[:state.n_decay])
    g[:] = 0
    return float(norm)


@dataclass
class Model:
    head_kind: HeadKind
    enc: EncoderParams
    head: HeadParams
    n_classes: int

    def named_parameters(self) -> list[tuple[str, Array]]:
        return list(self.enc.named_parameters()) + list(self.head.named_parameters())

    def forward(self, ids, mask, dropout_p: float = 0.0,
                rng: np.random.Generator | None = None) -> Array:
        stack = encode(self.enc, ids, mask, dropout_p=dropout_p, rng=rng)
        return head_forward(self.head_kind, stack, self.head)


def build_model(cfg: TrainConfig, n_classes: int, dtype=np.float32) -> Model:
    """Seeded model init; head weights are drawn after the encoder's, so the
    same seed gives identical encoders across head kinds."""
    rng_init = np.random.default_rng([cfg.seed, 0])
    enc = init_encoder_params(cfg.encoder, rng_init, dtype=dtype)
    head = init_head_params(cfg.head, cfg.encoder.d_model, n_classes, rng_init,
                            dtype=dtype)
    return Model(head_kind=cfg.head, enc=enc, head=head, n_classes=n_classes)


def pad_batch(examples: list[Example]) -> tuple[np.ndarray, np.ndarray, list]:
    """Pad to the longest sequence in the batch; returns (ids, mask, labels)."""
    width = max(len(ex.token_ids) for ex in examples)
    ids = np.full((len(examples), width), PAD_ID, dtype=np.int64)
    mask = np.zeros((len(examples), width), dtype=np.float64)
    for i, ex in enumerate(examples):
        n = len(ex.token_ids)
        ids[i, :n] = ex.token_ids
        mask[i, :n] = 1.0
    return ids, mask, [ex.label for ex in examples]


def _batch_loss(model: Model, batch: list[Example], loss_kind: str,
                dropout_p: float = 0.0, rng: np.random.Generator | None = None) -> Array:
    ids, mask, labels = pad_batch(batch)
    logits = model.forward(ids, mask, dropout_p=dropout_p, rng=rng)  # (B, 1, C)
    if loss_kind == "cross_entropy":
        return ac.cross_entropy_mean(logits, np.asarray(labels, dtype=np.int64))
    return ac.squared_error_mean(logits, np.asarray(labels, dtype=np.float64))


def _eval_threads(dataset: list[Example], batch_size: int, d_model: int) -> int:
    """Threads for evaluate's batch forwards: one per CPU this process may run
    on, at most one per batch. One in a process that multiprocessing started
    (a --jobs grid worker, where the pool already keeps each core busy), and
    one for batches below MIN_THREADED_BATCH_VALUES on average."""
    mp = sys.modules.get("multiprocessing")  # loaded in every process it started
    batches = len(range(0, len(dataset), batch_size))
    values = d_model * sum(len(ex.token_ids) for ex in dataset)
    if (mp is not None and mp.parent_process() is not None) or \
            values < MIN_THREADED_BATCH_VALUES * batches:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(cpus or 1, batches))


@functools.cache
def _keep_heap() -> None:
    # glibc's heap policy (option numbers from malloc.h): one arena, as an eval
    # thread's own arena kept what it freed (7 MB of train-b32's peak RSS), and
    # each step's freed graph (8 MiB at T=48, B=16) kept in the heap, not
    # unmapped or trimmed and faulted back in on the next step
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no glibc: nothing to set
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-8, 1)
    mallopt(-3, 16 << 20)
    mallopt(-1, 32 << 20)


def evaluate(model: Model, dataset: list[Example], batch_size: int = 64) -> dict[str, float]:
    """Dropout-free metrics: accuracy (+ F1/MCC when binary) or Spearman.

    The batch forwards run on ``_eval_threads`` threads, each in a copy of the
    caller's context (numpy's error state lives there). A forward reads the
    model and writes only arrays of its own, so every logit is the serial
    loop's, bit for bit."""

    def logits(lo: int) -> np.ndarray:
        ids, mask, _ = pad_batch(dataset[lo:lo + batch_size])
        return model.forward(ids, mask).data.reshape(len(ids), model.n_classes)

    starts = range(0, len(dataset), batch_size)
    threads = _eval_threads(dataset, batch_size, model.enc.cfg.d_model)
    # entered and left by this thread alone: the flag is process-wide
    with ac.no_grad():
        if threads == 1:
            batches = [logits(lo) for lo in starts]
        else:
            from concurrent.futures import ThreadPoolExecutor
            _keep_heap()
            with ThreadPoolExecutor(threads) as pool:  # joined before evaluate returns
                batches = list(pool.map(Context.run, [copy_context() for _ in starts],
                                        repeat(logits), starts))
    preds: list = []
    for batch in batches:
        if model.n_classes == 1:
            preds.extend(float(x) for x in batch[:, 0])
        else:
            preds.extend(int(x) for x in batch.argmax(axis=1))
    labels = [ex.label for ex in dataset]
    if model.n_classes == 1:
        rho, _ = spearman_rho_flagged(preds, labels)
        return {"spearman": rho}
    out = {"accuracy": accuracy(preds, labels)}
    if set(labels) <= {0, 1}:
        out["f1"] = f1_binary(preds, labels)
        out["mcc"] = matthews_corr(preds, labels)
    return out


@dataclass
class TrainResult:
    eval_metrics: dict[str, float]
    train_metrics: dict[str, float]
    final_loss: float
    n_train: int
    n_eval: int
    wall_time_s: float


def check_labels(dataset: list[Example], name: str, loss: str) -> None:
    """Refuse a ``name`` set that evaluate cannot score: for squared_error, one
    of fewer than 2 examples (no Spearman correlation); otherwise a class label
    not an integer in [0, MAX_CLASSES), named by file and line if it has them."""
    if loss == "squared_error":
        if len(dataset) < 2:
            raise ValueError(f"the {name} set has size {len(dataset)}; a regression task "
                             "needs at least 2 examples for its Spearman correlation")
        return
    for i, ex in enumerate(dataset):  # the classifier has max + 1 columns
        integer = isinstance(ex.label, (int, np.integer))
        if not integer or not 0 <= ex.label < MAX_CLASSES:
            fault = f"is outside [0, {MAX_CLASSES})" if integer else "is not an integer"
            raise SchemaError(f"{ex.source or f'{name} example {i + 1}'}: "
                              f"class label {ex.label} {fault}")


def _infer_n_classes(cfg: TrainConfig, train_set, eval_set) -> int:
    if cfg.loss == "squared_error":
        return 1
    return max(2, 1 + max(ex.label for ex in train_set + eval_set))


def train(cfg: TrainConfig, train_set: list[Example], eval_set: list[Example]
          ) -> tuple[Model, TrainResult]:
    """Run the fine-tuning loop, in float32; deterministic given (cfg, data).
    The optimizer state is freed before the closing evaluations: the returned
    model's parameters carry no .grad, and each .data is a view of one buffer."""
    if not train_set or not eval_set:
        raise TrainingError("train: datasets must be nonempty")
    check_labels(train_set, "training", cfg.loss)
    check_labels(eval_set, "eval", cfg.loss)
    _keep_heap()
    started = time.perf_counter()
    n_classes = _infer_n_classes(cfg, train_set, eval_set)
    model = build_model(cfg, n_classes)
    rng_shuffle = np.random.default_rng([cfg.seed, 1])
    rng_dropout = np.random.default_rng([cfg.seed, 2])

    named = model.named_parameters()
    opt = OptimizerState(named)
    steps_per_epoch = ceil(len(train_set) / cfg.batch_size)
    total_steps = cfg.epochs * steps_per_epoch
    global_step = 0
    last_loss = float("nan")

    # a diverging run overflows here; the checks below report it, not numpy
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            order = rng_shuffle.permutation(len(train_set))
            for lo in range(0, len(train_set), cfg.batch_size):
                batch = [train_set[i] for i in order[lo:lo + cfg.batch_size]]
                loss = _batch_loss(model, batch, cfg.loss,
                                   dropout_p=cfg.encoder.dropout, rng=rng_dropout)
                last_loss = loss.item()
                if not isfinite(last_loss):
                    raise TrainingError(
                        f"non-finite loss at epoch {epoch + 1}, step {global_step + 1}")
                ac.backward(loss)
                adamw_step(opt, lr_at_step(global_step, total_steps, cfg), cfg.weight_decay)
                del loss  # frees this step's graph before the next forward builds one
                global_step += 1
    # the loss check above runs before each update, so none sees the last one
    if not np.all(np.isfinite(opt.data)):
        diverged = [name for name, p in named if not np.all(np.isfinite(p.data))]
        raise TrainingError(f"non-finite values in {len(diverged)} of {len(named)} "
                            f"parameters after training (first: '{diverged[0]}')")
    # nothing reads a gradient or an AdamW moment again; opt.data outlives opt
    for _, p in named:
        p.grad = None
    del opt

    eval_metrics = evaluate(model, eval_set)
    train_metrics = evaluate(model, train_set)
    result = TrainResult(
        eval_metrics=eval_metrics,
        train_metrics=train_metrics,
        final_loss=last_loss,
        n_train=len(train_set),
        n_eval=len(eval_set),
        wall_time_s=time.perf_counter() - started,
    )
    return model, result


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

# config text parsers, by field annotation (a string under postponed evaluation)
_CONFIG_PARSERS = {"int": int, "int | None": int, "float": float, "str": str,
                   "HeadKind": parse_head_spec}


def _config_lines(cfg: TrainConfig) -> str:
    """key=value per field: TrainConfig's own fields, then encoder.<field>."""
    pairs = [(f.name, getattr(cfg, f.name)) for f in fields(TrainConfig)
             if f.name != "encoder"]
    pairs += [(f"encoder.{f.name}", getattr(cfg.encoder, f.name))
              for f in fields(EncoderConfig)]
    return "".join(f"{key}={value.spec() if isinstance(value, HeadKind) else value}\n"
                   for key, value in pairs)


def _config_from_lines(text: str) -> TrainConfig:
    kv = {key: value for key, _, value in
          (line.partition("=") for line in text.splitlines() if line)}

    def parsed(cls, prefix=""):
        return {f.name: _CONFIG_PARSERS[f.type](kv[prefix + f.name])
                for f in fields(cls) if f.name != "encoder"}

    try:
        return TrainConfig(encoder=EncoderConfig(**parsed(EncoderConfig, "encoder.")),
                           **parsed(TrainConfig))
    except KeyError as err:
        raise CheckpointError(f"checkpoint config missing key {err}")


def save_checkpoint(path, model: Model, cfg: TrainConfig) -> None:
    """Write magic, version, config text, named float32 tensors, CRC-32."""
    body = bytearray()
    body += struct.pack("<I", CHECKPOINT_VERSION)
    config = _config_lines(cfg).encode("utf-8")
    body += struct.pack("<I", len(config)) + config
    named = model.named_parameters()
    body += struct.pack("<I", len(named))
    for name, p in named:
        raw = name.encode("utf-8")
        body += struct.pack("<I", len(raw)) + raw
        body += struct.pack("<I", p.data.ndim)
        for extent in p.data.shape:
            body += struct.pack("<I", extent)
        body += p.data.astype("<f4").tobytes()
    body += struct.pack("<I", zlib.crc32(bytes(body)) & 0xFFFFFFFF)
    Path(path).write_bytes(CHECKPOINT_MAGIC + bytes(body))


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise CheckpointError("truncated checkpoint file")
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], TrainConfig]:
    """Read and verify a checkpoint; returns float32 arrays keyed by name."""
    blob = Path(path).read_bytes()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError("format error: bad magic bytes")
    if len(blob) < 8:
        raise CheckpointError("truncated checkpoint file")
    payload, crc_bytes = blob[4:-4], blob[-4:]
    expect = struct.unpack("<I", crc_bytes)[0]
    if zlib.crc32(payload) & 0xFFFFFFFF != expect:
        raise CheckpointError("checksum failure: CRC-32 mismatch")
    reader = _Reader(payload)
    version = reader.u32()
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    try:
        cfg = _config_from_lines(reader.take(reader.u32()).decode("utf-8"))
        params: dict[str, np.ndarray] = {}
        for _ in range(reader.u32()):
            name = reader.take(reader.u32()).decode("utf-8")
            shape = tuple(reader.u32() for _ in range(reader.u32()))
            data = np.frombuffer(reader.take(4 * prod(shape)), dtype="<f4").reshape(shape)
            params[name] = data.astype(np.float32)
    except CheckpointError:
        raise
    except ValueError as err:  # undecodable text, bad config values, unusable shapes
        raise CheckpointError(f"format error: {err}") from err
    if reader.pos != len(payload):
        raise CheckpointError("format error: trailing bytes after parameters")
    return params, cfg


def model_from_checkpoint(path) -> tuple[Model, TrainConfig]:
    """Rebuild a runnable model from a checkpoint file."""
    params, cfg = load_checkpoint(path)
    w_cls = params.get("head.w_cls")
    if w_cls is None or w_cls.ndim != 2:
        raise CheckpointError("format error: no two-axis 'head.w_cls' tensor")
    try:
        model = build_model(cfg, w_cls.shape[1], dtype=np.float32)
    except ValueError as err:  # a config that parses but builds no model
        raise CheckpointError(f"format error: {err}") from err
    named = dict(model.named_parameters())
    if set(named) != set(params):
        raise CheckpointError("format error: parameter names do not match config")
    for name, p in named.items():
        if p.data.shape != params[name].shape:
            raise CheckpointError(f"format error: shape mismatch for '{name}'")
        p.data = params[name].copy()
    return model, cfg
