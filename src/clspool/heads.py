"""Aggregation heads: interchangeable strategies mapping a layer stack to logits.

Every head follows one recipe. It pools the last k layers position by position
(or keeps the final layer alone), takes the [CLS] row of the result,
optionally runs one extra multi-head attention step with that row as the query
over the pooled sequence, and classifies. Six kinds are supported:

* ``baseline``      - final-layer [CLS] straight into the classifier
* ``maxcls``        - element-wise max over the [CLS] vectors of the last k layers
* ``mha``           - extra multi-head attention layer, final [CLS] as the query
                      over the whole final layer
* ``maxseq+mha``    - max-pool whole sequences of the last k layers, then the
                      extra attention layer over the pooled sequence
* ``meanseq+mha``   - same with mean pooling
* ``normseq+mha``   - same, but per position keep the layer vector with the
                      largest L2 norm instead of the element-wise max

Every pool works position by position, so taking the [CLS] row after pooling
gives what pooling the [CLS] rows alone would. Every head ends in a plain
linear classifier (no activation). The extra attention layer has no residual,
layer norm, bias, or feed-forward: it is a bare attention block so the
comparison between kinds stays clean.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import arraycore as ac
from .arraycore import Array
from .encoder import LayerStack

__all__ = [
    "HeadKind",
    "HeadParams",
    "ConfigurationError",
    "SliceError",
    "VALID_HEAD_KINDS",
    "parse_head_spec",
    "xavier_uniform_init",
    "init_head_params",
    "cls_attend",
    "aggregate",
    "classify",
    "head_forward",
]


class _Recipe(NamedTuple):
    pool: str | None   # arraycore op pooling the last k layers; None: final layer only
    attends: bool      # one cls_attend step over the pooled rows


# Pool ops are named, not bound, so that a patched arraycore op takes effect.
_RECIPES = {
    "baseline": _Recipe(None, False),
    "maxcls": _Recipe("max_over_axis0", False),
    "mha": _Recipe(None, True),
    "maxseq+mha": _Recipe("max_over_axis0", True),
    "meanseq+mha": _Recipe("mean_over_axis0", True),
    "normseq+mha": _Recipe("select_max_norm_axis0", True),
}

VALID_HEAD_KINDS = tuple(_RECIPES)
DEFAULT_K = 3
DEFAULT_NUM_HEADS = 4


class ConfigurationError(ValueError):
    """Head kind and parameters (or spec string) do not line up."""


class SliceError(ValueError):
    """Requested layer/token slice exceeds the stack."""


def _unknown_kind(name: str) -> ConfigurationError:
    return ConfigurationError(f"unknown head kind '{name}'; valid kinds: "
                              + ", ".join(VALID_HEAD_KINDS))


@dataclass(frozen=True)
class HeadKind:
    kind: str
    k: int = DEFAULT_K
    num_heads: int = DEFAULT_NUM_HEADS

    def __post_init__(self):
        if self.kind not in _RECIPES:
            raise _unknown_kind(self.kind)
        if self.k < 1:
            raise ConfigurationError(f"head kind '{self.kind}': k must be >= 1, got {self.k}")
        if self.num_heads < 1:
            raise ConfigurationError(
                f"head kind '{self.kind}': num_heads must be >= 1, got {self.num_heads}")

    @property
    def uses_attention(self) -> bool:
        return _RECIPES[self.kind].attends

    @property
    def uses_depth(self) -> bool:
        return _RECIPES[self.kind].pool is not None

    def spec(self) -> str:
        """Short string form usable on the command line."""
        args = ([f"k={self.k}"] if self.uses_depth else []) \
            + ([f"h={self.num_heads}"] if self.uses_attention else [])
        return self.kind + (":" + ",".join(args) if args else "")


def parse_head_spec(spec: str) -> HeadKind:
    """Parse strings like 'maxseq+mha:k=3,h=4' into a HeadKind."""
    name, _, argstr = spec.strip().partition(":")
    if name not in _RECIPES:
        raise _unknown_kind(name)
    args = {}
    if argstr:
        for part in argstr.split(","):
            key, _, value = part.partition("=")
            key = key.strip()
            try:
                number = int(value)
            except ValueError:
                raise ConfigurationError(f"head spec '{spec}': bad value in '{part}'")
            if key not in ("k", "h"):
                raise ConfigurationError(f"head spec '{spec}': unknown argument '{key}'")
            args[key] = number
    recipe = _RECIPES[name]
    for key, taken in (("k", recipe.pool is not None), ("h", recipe.attends)):
        if key in args and not taken:
            raise ConfigurationError(f"head spec '{name}' takes no {key} argument")
    return HeadKind(kind=name, k=args.get("k", DEFAULT_K),
                    num_heads=args.get("h", DEFAULT_NUM_HEADS))


@dataclass
class HeadParams:
    """Attention projections (present only for mha-style kinds) + classifier.

    wq/wk/wv/wo are d x d; the per-head d x (d/h) projections are the column
    blocks of wq/wk/wv. The classifier is linear with no activation after it.
    """

    w_cls: Array
    b_cls: Array
    wq: Array | None = None
    wk: Array | None = None
    wv: Array | None = None
    wo: Array | None = None

    def named_parameters(self):
        for name in ("wq", "wk", "wv", "wo"):
            p = getattr(self, name)
            if p is not None:
                yield f"head.{name}", p
        yield "head.w_cls", self.w_cls
        yield "head.b_cls", self.b_cls


def xavier_uniform_init(rows: int, cols: int, rng: np.random.Generator,
                        dtype=np.float64) -> Array:
    """Uniform on [-a, a] with a = sqrt(6 / (rows + cols))."""
    if rows < 1 or cols < 1:
        raise ValueError("xavier_uniform_init: extents must be positive")
    a = np.sqrt(6.0 / (rows + cols))
    return Array(rng.uniform(-a, a, size=(rows, cols)).astype(dtype))


def init_head_params(kind: HeadKind, d_model: int, n_classes: int,
                     rng: np.random.Generator, dtype=np.float64) -> HeadParams:
    """Fresh head parameters; attention weights Xavier-uniform, zero classifier bias."""
    if kind.uses_attention and d_model % kind.num_heads != 0:
        raise ConfigurationError(
            f"head '{kind.spec()}': num_heads {kind.num_heads} does not divide "
            f"d_model {d_model}")
    params = HeadParams(
        w_cls=xavier_uniform_init(d_model, n_classes, rng, dtype),
        b_cls=Array(np.zeros(n_classes, dtype=dtype)),
    )
    if kind.uses_attention:
        for name in ("wq", "wk", "wv", "wo"):
            setattr(params, name, xavier_uniform_init(d_model, d_model, rng, dtype))
    return params


def cls_attend(query_cls: Array, context: Array, params: HeadParams,
               mask: np.ndarray, num_heads: int = DEFAULT_NUM_HEADS,
               return_weights: bool = False):
    """One multi-head attention step with a single query row.

    No residual, no layer norm, no activation afterward: heads are
    concatenated and projected by wo, and that is the output. With
    return_weights, also returns the list of per-head (..., 1, T) weights.
    """
    if params.wq is None or params.wk is None or params.wv is None or params.wo is None:
        raise ConfigurationError("cls_attend: head params carry no attention projections")
    q = ac.matmul(query_cls, params.wq)
    k = ac.matmul(context, params.wk)
    v = ac.matmul(context, params.wv)
    probs: list[np.ndarray] = []
    out = ac.matmul(ac.attention(q, k, v, mask, num_heads, probs_out=probs), params.wo)
    if return_weights:
        return out, [probs[0][..., s, :, :] for s in range(num_heads)]
    return out


def aggregate(kind: HeadKind, stack: LayerStack, params: HeadParams) -> Array:
    """The representation a head classifies, shaped (..., 1, d): the [CLS] row of
    the pooled last k layers (of the final layer when the kind has no pool), after
    one attention step over the pooled rows when the kind attends."""
    recipe = _RECIPES[kind.kind]
    if recipe.pool is None:
        rows = stack.activations[-1]
    else:
        if not 1 <= kind.k <= stack.num_layers:
            raise SliceError(f"head '{kind.spec()}': k={kind.k} out of range "
                             f"[1, {stack.num_layers}]")
        rows = getattr(ac, recipe.pool)(ac.stack_axis0(stack.activations[-kind.k:]))
    cls = ac.slice_rows(rows, 0, 1)
    if recipe.attends:
        return cls_attend(cls, rows, params, stack.mask, kind.num_heads)
    return cls


def classify(rep: Array, w_cls: Array, b_cls: Array) -> Array:
    """Linear classification head; C = 1 covers regression tasks."""
    return ac.add_vec(ac.matmul(rep, w_cls), b_cls)


def head_forward(kind: HeadKind, stack: LayerStack, params: HeadParams) -> Array:
    """Logits of one head: its aggregate, then the linear classifier."""
    return classify(aggregate(kind, stack, params), params.w_cls, params.b_cls)
