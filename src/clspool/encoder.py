"""Transformer encoder that records every intermediate layer activation.

The layer stack this produces is what the aggregation heads pool over: the
heads need activations from *all* layers, not just the last one, so encode()
returns the full ordered list. Position 0 of every sequence is the [CLS] slot.

Layer layout is the stock post-layer-norm encoder: self-attention -> residual
add -> layer norm, then feed-forward (GELU) -> residual add -> layer norm.
Padded positions get an additive -1e9 attention score and are zeroed in each
layer's output.

Inputs are batches: a (B, T) array of padded id rows, so every activation is
B x T x d. A single sequence is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from . import arraycore as ac
from .arraycore import Array

__all__ = [
    "EncoderConfig",
    "EncoderLayerParams",
    "EncoderParams",
    "LayerStack",
    "VocabularyError",
    "init_encoder_params",
    "encode",
    "self_attention",
]

INIT_STD = 0.02


class VocabularyError(ValueError):
    """A token id falls outside the embedding table."""


@dataclass
class EncoderConfig:
    vocab_size: int
    num_layers: int = 4
    d_model: int = 32
    num_heads_encoder: int = 4
    d_ff: int | None = None  # defaults to 4 * d_model
    max_seq_len: int = 64
    dropout: float = 0.1

    def __post_init__(self):
        if self.d_ff is None:
            self.d_ff = 4 * self.d_model
        if self.vocab_size < 1 or self.num_layers < 1 or self.d_model < 1:
            raise ValueError("EncoderConfig: extents must be positive")
        if self.d_model % self.num_heads_encoder != 0:
            raise ValueError(f"EncoderConfig: d_model {self.d_model} not divisible "
                             f"by num_heads_encoder {self.num_heads_encoder}")
        if self.max_seq_len < 2:
            raise ValueError("EncoderConfig: max_seq_len must be >= 2")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("EncoderConfig: dropout must be in [0, 1)")


@dataclass
class EncoderLayerParams:
    wq: Array
    wk: Array
    wv: Array
    wo: Array
    ln1_gain: Array
    ln1_bias: Array
    w_ff1: Array
    b_ff1: Array
    w_ff2: Array
    b_ff2: Array
    ln2_gain: Array
    ln2_bias: Array


@dataclass
class EncoderParams:
    cfg: EncoderConfig
    tok_emb: Array
    pos_emb: Array
    layers: list[EncoderLayerParams] = field(default_factory=list)

    def named_parameters(self) -> Iterator[tuple[str, Array]]:
        yield "tok_emb", self.tok_emb
        yield "pos_emb", self.pos_emb
        for i, layer in enumerate(self.layers):
            for name in ("wq", "wk", "wv", "wo", "ln1_gain", "ln1_bias",
                         "w_ff1", "b_ff1", "w_ff2", "b_ff2",
                         "ln2_gain", "ln2_bias"):
                yield f"layer{i}.{name}", getattr(layer, name)


@dataclass
class LayerStack:
    """Ordered activations of every encoder layer, plus the validity mask."""

    activations: list[Array]
    mask: np.ndarray

    @property
    def num_layers(self) -> int:
        return len(self.activations)


def init_encoder_params(cfg: EncoderConfig, rng: np.random.Generator,
                        dtype=np.float64) -> EncoderParams:
    """Fresh random parameters: N(0, 0.02) weights, unit gains, zero biases."""
    d, d_ff = cfg.d_model, cfg.d_ff

    def w(rows, cols):
        return Array(rng.normal(0.0, INIT_STD, size=(rows, cols)).astype(dtype))

    def ones(n):
        return Array(np.ones(n, dtype=dtype))

    def zeros(n):
        return Array(np.zeros(n, dtype=dtype))

    layers = [
        EncoderLayerParams(
            wq=w(d, d), wk=w(d, d), wv=w(d, d), wo=w(d, d),
            ln1_gain=ones(d), ln1_bias=zeros(d),
            w_ff1=w(d, d_ff), b_ff1=zeros(d_ff),
            w_ff2=w(d_ff, d), b_ff2=zeros(d),
            ln2_gain=ones(d), ln2_bias=zeros(d),
        )
        for _ in range(cfg.num_layers)
    ]
    return EncoderParams(
        cfg=cfg,
        tok_emb=w(cfg.vocab_size, d),
        pos_emb=w(cfg.max_seq_len, d),
        layers=layers,
    )


def self_attention(x: Array, layer: EncoderLayerParams, mask: np.ndarray,
                   num_heads: int) -> Array:
    """Multi-head self-attention over x (..., T, d); residual and layer norm
    are the caller's job. Masked keys get score -1e9 before softmax."""
    q = ac.matmul(x, layer.wq)
    k = ac.matmul(x, layer.wk)
    v = ac.matmul(x, layer.wv)
    return ac.matmul(ac.attention(q, k, v, mask, num_heads), layer.wo)


def encode(params: EncoderParams, tokens, mask: np.ndarray | None = None,
           dropout_p: float = 0.0, rng: np.random.Generator | None = None) -> LayerStack:
    """Run the full encoder, returning activations of every layer.

    tokens: a padded (B, T) batch of ids; mask (B, T) flags valid positions
    (defaults to all-valid). Raises VocabularyError on ids outside the table
    and ValueError on empty input.
    """
    cfg = params.cfg
    ids = np.asarray(tokens, dtype=np.int64)
    if ids.ndim != 2 or ids.shape[1] == 0:
        raise ValueError(f"encode: expected a nonempty (B, T) id batch, got shape {ids.shape}")
    if ids.shape[1] > cfg.max_seq_len:
        raise ValueError(f"encode: sequence length {ids.shape[1]} exceeds "
                         f"max_seq_len {cfg.max_seq_len}")
    if ids.min() < 0 or ids.max() >= cfg.vocab_size:
        raise VocabularyError(f"encode: token id out of range [0, {cfg.vocab_size})")

    batch, seq = ids.shape
    m = np.ones((batch, seq)) if mask is None else np.asarray(mask, dtype=np.float64)
    if m.shape != (batch, seq):
        raise ValueError(f"encode: mask shape {m.shape} does not match ids {(batch, seq)}")

    pos_ids = np.broadcast_to(np.arange(seq), (batch, seq))
    x = ac.dropout(ac.add(ac.embed_lookup(params.tok_emb, ids),
                          ac.embed_lookup(params.pos_emb, pos_ids)), dropout_p, rng)

    activations = []
    for layer in params.layers:
        attn = ac.dropout(self_attention(x, layer, m, cfg.num_heads_encoder), dropout_p, rng)
        x = ac.layer_norm(ac.add(x, attn), layer.ln1_gain, layer.ln1_bias)

        ff = ac.add_vec(ac.matmul(ac.gelu(ac.add_vec(ac.matmul(x, layer.w_ff1),
                                                     layer.b_ff1)),
                                  layer.w_ff2),
                        layer.b_ff2)
        x = ac.layer_norm(ac.add(x, ac.dropout(ff, dropout_p, rng)),
                          layer.ln2_gain, layer.ln2_bias)
        x = ac.mask_rows(x, m)
        activations.append(x)
    return LayerStack(activations=activations, mask=m)
