"""Fine-tuning harness: AdamW with linear warmup/decay, seeded end to end.

Determinism contract: (seed, config, data) fully determine every parameter
after training. Three independent generator streams are derived from the run
seed - one for parameter init, one for epoch shuffling, one for dropout - so
runs with different heads but the same seed still see identical data order
(paired comparisons across heads stay valid).

Checkpoints are a small binary format: magic ``MPBT``, a format version, the
config as key=value text, named float32 tensors, and a trailing CRC-32 of
everything after the magic.
"""

from __future__ import annotations

import struct
import time
import zlib
from dataclasses import dataclass, field, fields
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
    "check_class_labels",
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
        if not 0 < self.learning_rate < inf:  # also refuses nan
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not 0 <= self.weight_decay < inf:
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if not 0.0 <= self.warmup_ratio < 1.0:
            raise ValueError("warmup_ratio must be in [0, 1)")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be >= 1")
        if self.loss not in ("cross_entropy", "squared_error"):
            raise ValueError(f"unknown loss '{self.loss}'")


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

    Binding copies the parameters' values and gradients into ``data`` and
    ``grad``, decayed parameters first, and makes each Array's .data and .grad
    a view of its slice, so backward accumulates straight into ``grad``."""

    def __init__(self):
        self.step = 0
        self.slots: list[tuple[Array, np.ndarray, np.ndarray, slice]] = []  # caller's order

    def bind(self, named_params: list[tuple[str, Array]]) -> None:
        """Lay the parameters out on first use; later, copy back in any .data
        or .grad rebound away from its view (a None gradient counts as zero)."""
        if not self.slots:
            exempt = [_decay_exempt(name) for name, _ in named_params]
            self.n_decay = sum(p.size for (_, p), skip in zip(named_params, exempt) if not skip)
            self.data = np.empty(sum(p.size for _, p in named_params),
                                 dtype=named_params[0][1].dtype)
            self.grad, self.m, self.v = (np.zeros_like(self.data) for _ in range(3))
            free = [0, self.n_decay]  # next offset in the decayed and in the exempt region
            for (_, p), skip in zip(named_params, exempt):
                span = slice(free[skip], free[skip] + p.size)
                free[skip] += p.size
                self.slots.append((p, self.data[span].reshape(p.shape),
                                   self.grad[span].reshape(p.shape), span))
        elif [p for _, p in named_params] != [slot[0] for slot in self.slots]:
            raise TrainingError("optimizer state is bound to other parameters")
        for p, data, grad, _ in self.slots:
            if p.data is not data:
                data[...] = p.data
                p.data = data
            if p.grad is not grad:
                grad[...] = 0 if p.grad is None else p.grad
                p.grad = grad


def _decay_exempt(name: str) -> bool:
    # biases and layer-norm gains are excluded from weight decay
    leaf = name.split(".")[-1]
    return "bias" in leaf or "gain" in leaf or leaf.startswith("b_")


def adamw_step(named_params: list[tuple[str, Array]], state: OptimizerState,
               lr: float, weight_decay: float) -> None:
    """Bias-corrected Adam update plus decoupled weight decay, in place, in a few
    whole-buffer ops. Consumes and zeroes the gradients. Raises TrainingError on
    a non-finite gradient, naming the first parameter that has one."""
    state.bind(named_params)
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    g, m, v, data = state.grad, state.m, state.v, state.data
    if not np.all(np.isfinite(g)):
        name = next(name for name, p in named_params if not np.all(np.isfinite(p.grad)))
        raise TrainingError(f"non-finite gradient for '{name}' at optimizer step {t}")
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


def _clip_global_norm(named_params: list[tuple[str, Array]], state: OptimizerState,
                      max_norm: float) -> float:
    # float64 squares summed per tensor in the caller's order: one sum over the
    # whole buffer rounds differently and would move every clipped step
    state.bind(named_params)
    norm = np.sqrt(sum(float(np.square(state.grad[span], dtype=np.float64).sum())
                       for *_, span in state.slots))
    if norm > max_norm:
        state.grad *= max_norm / norm
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


def evaluate(model: Model, dataset: list[Example], batch_size: int = 64) -> dict[str, float]:
    """Dropout-free metrics: accuracy (+ F1/MCC when binary) or Spearman."""
    preds: list = []
    labels: list = []
    for lo in range(0, len(dataset), batch_size):
        batch = dataset[lo:lo + batch_size]
        ids, mask, batch_labels = pad_batch(batch)
        with ac.no_grad():
            logits = model.forward(ids, mask).data.reshape(len(batch), model.n_classes)
        if model.n_classes == 1:
            preds.extend(float(x) for x in logits[:, 0])
        else:
            preds.extend(int(x) for x in logits.argmax(axis=1))
        labels.extend(batch_labels)
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


def check_class_labels(train_set: list[Example], eval_set: list[Example]) -> None:
    """Refuse a class label that is not an integer in [0, MAX_CLASSES), naming
    its example by file and line when it was loaded from one."""
    for i, ex in enumerate(train_set + eval_set):  # the classifier has max + 1 columns
        integer = isinstance(ex.label, (int, np.integer))
        if not integer or not 0 <= ex.label < MAX_CLASSES:
            where = ex.source or (f"training example {i + 1}" if i < len(train_set)
                                  else f"eval example {i - len(train_set) + 1}")
            fault = f"is outside [0, {MAX_CLASSES})" if integer else "is not an integer"
            raise SchemaError(f"{where}: class label {ex.label} {fault}")


def _infer_n_classes(cfg: TrainConfig, train_set, eval_set) -> int:
    if cfg.loss == "squared_error":
        return 1
    check_class_labels(train_set, eval_set)
    return max(2, 1 + max(ex.label for ex in train_set + eval_set))


def train(cfg: TrainConfig, train_set: list[Example], eval_set: list[Example],
          dtype=np.float32) -> tuple[Model, TrainResult]:
    """Run the fine-tuning loop; deterministic given (cfg, data)."""
    if not train_set or not eval_set:
        raise TrainingError("train: datasets must be nonempty")
    # glibc mmaps a block this large; freeing it raises the mmap threshold to
    # its size and the heap trim threshold to twice that, so each step's freed
    # graph stays in the heap instead of being trimmed and faulted back in
    np.empty(4 << 20, dtype=np.uint8)
    started = time.perf_counter()
    n_classes = _infer_n_classes(cfg, train_set, eval_set)
    model = build_model(cfg, n_classes, dtype=dtype)
    rng_shuffle = np.random.default_rng([cfg.seed, 1])
    rng_dropout = np.random.default_rng([cfg.seed, 2])

    named = model.named_parameters()
    opt = OptimizerState()
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
                _clip_global_norm(named, opt, CLIP_NORM)
                lr = lr_at_step(global_step, total_steps, cfg)
                adamw_step(named, opt, lr, cfg.weight_decay)
                del loss  # frees this step's graph before the next forward builds one
                global_step += 1
    # the loss check above runs before each update, so none sees the last one
    if not np.all(np.isfinite(opt.data)):
        diverged = [name for name, p in named if not np.all(np.isfinite(p.data))]
        raise TrainingError(f"non-finite values in {len(diverged)} of {len(named)} "
                            f"parameters after training (first: '{diverged[0]}')")

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
