"""Dense arrays with reverse-mode differentiation.

Every operation the encoder and the aggregation heads need is defined here as
a pure function Array -> Array that records its backward rule on a graph node.
Calling :func:`backward` on a scalar result traces the graph into a
topologically ordered :class:`Tape` and accumulates gradients into the leaves.

Shapes follow the row-major convention throughout. Ops that the model uses in
batched form (matmul, attention, layer_norm, ...) accept extra leading axes; the
layer axis of a pooled stack is always axis 0.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Array",
    "Node",
    "Tape",
    "ShapeError",
    "EvaluationError",
    "array",
    "backward",
    "set_debug_checks",
    "no_grad",
    "matmul",
    "add",
    "add_vec",
    "slice_rows",
    "stack_axis0",
    "max_over_axis0",
    "mean_over_axis0",
    "select_max_norm_axis0",
    "layer_norm",
    "gelu",
    "dropout",
    "mask_rows",
    "attention",
    "embed_lookup",
    "sum_all",
    "cross_entropy_mean",
    "squared_error_mean",
    "grad_check",
]

LAYER_NORM_EPS = 1e-5
MASK_PENALTY = -1e9

# When enabled, every op output is scanned for NaN/Inf right after the
# forward computation. Off by default: the scan costs a full pass per op.
_debug_checks = False
_recording = True  # cleared inside no_grad: ops then attach no graph node


def set_debug_checks(enabled: bool) -> None:
    global _debug_checks
    _debug_checks = bool(enabled)


class no_grad:
    """Context manager: ops inside the block attach no graph node, so what they
    save for backward dies when they return. Debug checks still run."""

    def __enter__(self) -> None:
        global _recording
        self._was_recording, _recording = _recording, False

    def __exit__(self, *exc) -> None:
        global _recording
        _recording = self._was_recording


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested op."""


class EvaluationError(RuntimeError):
    """A checked evaluation produced a non-finite value."""


class Node:
    """One executed op: its inputs and the backward rule.

    A node never refers to the array it produced (only that array refers to
    it), so a graph holds no reference cycles and refcounting frees it as soon
    as its root is dropped.

    ``bwd`` never writes into its incoming gradient: backward stores a
    gradient it is handed without copying it, and one buffer can reach several
    inputs (``add`` returns it twice, ``stack_axis0`` returns views of it).
    """

    __slots__ = ("op", "inputs", "bwd")

    def __init__(self, op: str, inputs: tuple["Array", ...],
                 bwd: Callable[[np.ndarray], Sequence[np.ndarray]]):
        self.op = op
        self.inputs = inputs
        self.bwd = bwd


class Array:
    """Shape-carrying numeric tensor with an optional gradient buffer.

    ``data`` is a float32 or float64 ndarray (float64 in test/grad-check mode,
    float32 in train mode). ``grad`` is allocated lazily during backward (or is
    an optimizer's view) and always matches ``data`` in shape.
    """

    __slots__ = ("data", "grad", "node")

    def __init__(self, data: np.ndarray, node: Node | None = None):
        self.data = data
        self.grad: np.ndarray | None = None
        self.node = node

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Array(shape={self.shape}, dtype={self.data.dtype})"


def array(data, dtype=np.float64) -> Array:
    """Leaf Array from nested lists / ndarray, copied to a known dtype."""
    return Array(np.array(data, dtype=dtype))


def _make(op: str, out_data: np.ndarray, inputs: tuple[Array, ...], bwd) -> Array:
    if _debug_checks and not np.all(np.isfinite(out_data)):
        raise EvaluationError(f"non-finite values in output of op '{op}'")
    return Array(out_data, node=Node(op, inputs, bwd) if _recording else None)


class Tape:
    """Topologically ordered record of the op outputs that produced a value.

    ``outputs`` holds the arrays, ``nodes`` their nodes in the same order.
    Every array's inputs precede it; the backward traversal in
    :meth:`run_backward` therefore visits each node exactly once, in reverse.

    Backward frees as it goes: an op output's gradient is dropped as soon as
    its node's ``bwd`` has consumed it, so after the pass every non-leaf
    ``.grad`` is None and only the leaves hold gradients. Running backward
    again on the same root starts over from the seed and adds into the leaves.
    """

    def __init__(self, outputs: list[Array]):
        self.outputs = outputs

    @property
    def nodes(self) -> list[Node]:
        return [out.node for out in self.outputs]

    @classmethod
    def trace(cls, root: Array) -> "Tape":
        outputs: list[Array] = []
        seen: set[int] = set()
        stack: list[tuple[Array, bool]] = [] if root.node is None else [(root, False)]
        while stack:
            out, expanded = stack.pop()
            if expanded:
                outputs.append(out)
                continue
            if id(out.node) in seen:
                continue
            seen.add(id(out.node))
            stack.append((out, True))
            for inp in out.node.inputs:
                if inp.node is not None and id(inp.node) not in seen:
                    stack.append((inp, False))
        return cls(outputs)

    def run_backward(self, root: Array, seed: np.ndarray | None = None) -> None:
        if seed is None:
            seed = np.ones(root.shape, dtype=root.data.dtype)
        root.grad = np.array(seed, dtype=root.data.dtype) if root.grad is None \
            else root.grad + seed
        for out in reversed(self.outputs):
            if out.grad is None:
                continue
            node = out.node
            grads = node.bwd(out.grad)
            out.grad = None
            for inp, g in zip(node.inputs, grads):
                if g is None:
                    continue
                if inp.node is None:  # a leaf owns its buffer (or the optimizer does)
                    if inp.grad is None:
                        inp.grad = np.array(g, dtype=inp.data.dtype, copy=True)
                    else:
                        inp.grad += g
                elif inp.grad is None:  # stored as returned: it may alias another gradient
                    inp.grad = g.astype(inp.data.dtype, copy=False)
                else:  # so later ones add out of place; the bits are those of +=
                    inp.grad = np.add(inp.grad, g, out=np.empty_like(inp.grad))


def backward(root: Array, seed: np.ndarray | None = None) -> None:
    """Reverse-mode pass from a (normally scalar) root into leaf .grad buffers."""
    Tape.trace(root).run_backward(root, seed)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to the shape of an operand that was broadcast up."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# structural / arithmetic ops
# ---------------------------------------------------------------------------

def matmul(a: Array, b: Array) -> Array:
    """Matrix product over the last two axes; leading axes broadcast.

    Backward: dA = dC @ B^T, dB = A^T @ dC (summed over broadcast axes).
    """
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} @ {b.shape}")
    out = a.data @ b.data

    def bwd(g):
        ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)
        gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)
        return ga, gb

    return _make("matmul", out, (a, b), bwd)


def add(a: Array, b: Array) -> Array:
    if a.shape != b.shape:
        raise ShapeError(f"add: shape mismatch {a.shape} vs {b.shape}")
    return _make("add", a.data + b.data, (a, b), lambda g: (g, g))


def add_vec(x: Array, v: Array) -> Array:
    """Add a rank-1 vector along the last axis of x (bias add)."""
    if v.ndim != 1 or v.shape[0] != x.shape[-1]:
        raise ShapeError(f"add_vec: vector {v.shape} does not match last axis of {x.shape}")
    out = x.data + v.data

    def bwd(g):
        return g, g.reshape(-1, v.shape[0]).sum(axis=0)

    return _make("add_vec", out, (x, v), bwd)


def slice_rows(x: Array, start: int, stop: int) -> Array:
    """Slice along the row axis (second-to-last)."""
    if x.ndim < 2:
        raise ShapeError(f"slice_rows: need rank >= 2, got shape {x.shape}")
    if not (0 <= start < stop <= x.shape[-2]):
        raise ShapeError(f"slice_rows: [{start}:{stop}] out of range for {x.shape}")
    out = x.data[..., start:stop, :].copy()

    def bwd(g):
        gx = np.zeros_like(x.data)
        gx[..., start:stop, :] = g
        return (gx,)

    return _make("slice_rows", out, (x,), bwd)


def stack_axis0(parts: Sequence[Array]) -> Array:
    if not parts:
        raise ShapeError("stack_axis0: empty input list")
    for p in parts:
        if p.shape != parts[0].shape:
            raise ShapeError(f"stack_axis0: shape mismatch {p.shape} vs {parts[0].shape}")
    out = np.stack([p.data for p in parts], axis=0)

    def bwd(g):
        return tuple(g[i] for i in range(len(parts)))

    return _make("stack_axis0", out, tuple(parts), bwd)


# ---------------------------------------------------------------------------
# nonlinear ops
# ---------------------------------------------------------------------------

def _flat_rows(layer: np.ndarray) -> np.ndarray:
    """Row numbers of (layer[j], j) in a (k, n, ...) stack viewed as (k * n, ...)."""
    n = layer.shape[0]
    return layer * n + np.arange(n)


def max_over_axis0(theta: Array) -> Array:
    """Element-wise max over the layer axis (axis 0).

    Ties break toward the lowest layer index; the backward pass routes the
    incoming gradient solely to the argmax element (subgradient convention).
    """
    if theta.ndim < 1 or theta.shape[0] < 1:
        raise ShapeError(f"max_over_axis0: need a nonempty axis 0, got {theta.shape}")
    t = theta.data
    out = t[0].copy()
    for layer in t[1:]:  # np.maximum returns its second operand on a tie, here the lower layer's
        np.maximum(layer, out, out=out)

    def bwd(g):
        # the first layer that holds the max (or a NaN, which only a NaN max
        # can come from), found deepest first in integer arithmetic
        idx = np.full(out.shape, len(t) - 1, dtype=np.intp)
        for i in range(len(t) - 2, -1, -1):
            hit = t[i] == out
            hit |= np.isnan(t[i])
            idx -= hit * (idx - i)
        gt = np.zeros_like(t)
        gt.reshape(-1)[_flat_rows(idx.reshape(-1))] = g.reshape(-1)
        return (gt,)

    return _make("max_over_axis0", out, (theta,), bwd)


def mean_over_axis0(theta: Array) -> Array:
    """Arithmetic mean over the layer axis; backward spreads grad/k uniformly."""
    if theta.ndim < 1 or theta.shape[0] < 1:
        raise ShapeError(f"mean_over_axis0: need a nonempty axis 0, got {theta.shape}")
    k = theta.shape[0]
    out = theta.data.mean(axis=0)

    def bwd(g):
        return (np.broadcast_to(g / k, theta.data.shape).copy(),)

    return _make("mean_over_axis0", out, (theta,), bwd)


def select_max_norm_axis0(theta: Array) -> Array:
    """Per position, keep the axis-0 slice whose vector has the largest L2 norm.

    theta is (k, ..., d); for each (...) position the full d-vector of the
    winning layer is copied through. Ties break toward the highest index
    (deepest layer), and a NaN norm beats any number. Backward routes the
    gradient to the selected vectors.
    """
    if theta.ndim < 2 or theta.shape[0] < 1:
        raise ShapeError(f"select_max_norm_axis0: need shape (k, ..., d), got {theta.shape}")
    k, d = theta.shape[0], theta.shape[-1]
    norms = np.sqrt((theta.data ** 2).sum(axis=-1)).reshape(k, -1)  # (k, positions)
    idx = np.full(norms.shape[1], k - 1, dtype=np.intp)
    best = norms[k - 1]
    for i in range(k - 2, -1, -1):  # a shallower layer wins only by a strictly larger norm
        better = ~(norms[i] <= best)  # or by a NaN over a number: both count as larger here
        better &= best == best  # a NaN best is never beaten
        idx -= better * (idx - i)
        best = np.maximum(norms[i], best)
    rows = _flat_rows(idx)
    out = np.take(theta.data.reshape(-1, d), rows, axis=0).reshape(theta.shape[1:])

    def bwd(g):
        gt = np.zeros_like(theta.data)
        gt.reshape(-1, d)[rows] = g.reshape(-1, d)
        return (gt,)

    return _make("select_max_norm_axis0", out, (theta,), bwd)


def layer_norm(x: Array, gain: Array, bias: Array) -> Array:
    """Per-row zero-mean unit-variance normalization, then affine.

    Epsilon sits inside the square root, so a constant row maps to the bias.
    """
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm: gain/bias {gain.shape}/{bias.shape} "
                         f"do not match last axis of {x.shape}")
    # sum / d is bitwise np.mean's own arithmetic without its Python wrapper;
    # then in place, in the order of ((x - mu) * inv) * gain + bias
    mu = x.data.sum(axis=-1, keepdims=True) / d
    xhat = x.data - mu
    out = xhat * xhat  # the squares for the variance, then the output's buffer
    var = out.sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat *= inv
    np.multiply(xhat, gain.data, out=out)
    out += bias.data

    def bwd(g):
        # dx = (gy - mean(gy) - xhat * mean(gy * xhat)) / sqrt(var + eps), in gy
        gy = g * gain.data
        scratch = gy * xhat
        gy -= gy.sum(axis=-1, keepdims=True) / d
        np.multiply(xhat, scratch.sum(axis=-1, keepdims=True) / d, out=scratch)
        gy -= scratch
        gy *= inv
        ggain = (g * xhat).reshape(-1, d).sum(axis=0)
        gbias = g.reshape(-1, d).sum(axis=0)
        return gy, ggain, gbias

    return _make("layer_norm", out, (x, gain, bias), bwd)


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def gelu(x: Array) -> Array:
    """Tanh-form GELU; the backward is the exact derivative of this form."""
    t = x.data * x.data  # x ** 3 would take numpy's pow path, 100x slower on float32
    t *= x.data  # then in place, in the order of 0.5*x * (1 + tanh(C*(x + A*((x*x)*x))))
    t *= _GELU_A
    t += x.data
    t *= _GELU_C
    np.tanh(t, out=t)
    out = 0.5 * x.data
    out *= 1.0 + t

    def bwd(g):
        # g * (0.5*(1 + t) + 0.5*x * (1 - t**2) * C*(1 + 3*A * (x*x))), in place in that
        # order; x*x is recomputed, as keeping it would hold one more array per call
        du = x.data * x.data
        du *= 3.0 * _GELU_A
        du += 1.0
        du *= _GELU_C
        b = t * t
        np.subtract(1.0, b, out=b)
        b *= 0.5 * x.data
        b *= du
        dy = np.add(t, 1.0, out=du)
        dy *= 0.5
        dy += b
        dy *= g
        return (dy,)

    return _make("gelu", out, (x,), bwd)


def dropout(x: Array, p: float, rng: np.random.Generator) -> Array:
    """Inverted dropout; identity when p == 0. Mask drawn from rng."""
    if p <= 0.0:
        return x
    keep = (rng.random(x.shape) >= p).astype(x.data.dtype) / (1.0 - p)
    return _make("dropout", x.data * keep, (x,), lambda g: (g * keep,))


def mask_rows(x: Array, mask: np.ndarray) -> Array:
    """Zero out rows where mask == 0. mask has the shape of x minus the last axis."""
    m = np.asarray(mask, dtype=x.data.dtype)
    if m.shape != x.shape[:-1]:
        raise ShapeError(f"mask_rows: mask {m.shape} does not match rows of {x.shape}")
    m = m[..., None]
    return _make("mask_rows", x.data * m, (x,), lambda g: (g * m,))


def _split_heads(x: np.ndarray, num_heads: int) -> np.ndarray:
    """(..., T, d) -> contiguous (..., h, T, d/h); head s holds columns s*dh:(s+1)*dh.

    The copy matters: matmul over strided views rounds differently in the last
    bits from matmul over contiguous per-head blocks.
    """
    *lead, t, d = x.shape
    return np.ascontiguousarray(
        np.swapaxes(x.reshape(*lead, t, num_heads, d // num_heads), -2, -3))


def _merge_heads(x: np.ndarray) -> np.ndarray:
    """Inverse of _split_heads: (..., h, T, dh) -> (..., T, h * dh)."""
    *lead, h, t, dh = x.shape
    return np.swapaxes(x, -2, -3).reshape(*lead, t, h * dh)


def _row_max(p: np.ndarray) -> np.ndarray:
    """p.max(axis=-1, keepdims=True), taken one key column at a time.

    numpy reduces a short last axis row by row; each np.maximum here runs over
    every row at once, on a 2-D view, which has fewer axes to step through than
    p. A max is exact in any order and np.maximum propagates NaN as max does,
    so the result is bitwise the same.
    """
    rows = p.reshape(-1, p.shape[-1])
    top = rows[:, 0].copy()
    for j in range(1, rows.shape[1]):
        np.maximum(top, rows[:, j], out=top)
    return top.reshape(p.shape[:-1] + (1,))


def attention(q: Array, k: Array, v: Array, mask: np.ndarray, num_heads: int,
              probs_out: list | None = None) -> Array:
    """Multi-head scaled dot-product attention: softmax(Q K^T / sqrt(dh) + M) V.

    q is (..., Tq, d); k and v are (..., T, d); mask is (..., T) over the keys,
    and masked keys get MASK_PENALTY added to their scores. Head s uses columns
    s*dh:(s+1)*dh of q, k and v; the head outputs are concatenated back into
    (..., Tq, d). When probs_out is a list, the (..., h, Tq, T) attention
    weights are appended to it.

    Backward, per head, with P the weights and G the output gradient:
    dV = P^T G, dP = G V^T, dS = P * (dP - rowsum(dP * P)) / sqrt(dh),
    dQ = dS K, dK = dS^T Q.
    """
    d = q.shape[-1]
    if q.ndim < 2 or k.shape != v.shape or k.shape[:-2] != q.shape[:-2] \
            or k.shape[-1] != d:
        raise ShapeError(f"attention: q {q.shape}, k {k.shape}, v {v.shape} do not line up")
    if num_heads < 1 or d % num_heads:
        raise ShapeError(f"attention: {num_heads} heads do not divide d={d}")
    m = np.asarray(mask, dtype=q.data.dtype)
    if m.shape != k.shape[:-1]:
        raise ShapeError(f"attention: mask {m.shape} does not match keys {k.shape[:-1]}")
    c = 1.0 / math.sqrt(d // num_heads)  # a Python float: float32 data stays float32
    qh, kh, vh = (_split_heads(x.data, num_heads) for x in (q, k, v))
    p = qh @ np.swapaxes(kh, -1, -2)  # scores, then softmax in place: same order, same bits
    p *= c
    if not m.all():  # with no key masked the penalty is -0.0, and adding it changes no bit
        p += ((1.0 - m) * MASK_PENALTY)[..., None, None, :]
    p -= _row_max(p)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    if probs_out is not None:
        probs_out.append(p)

    def bwd(g):
        # split again rather than kept: the node holds q, k and v anyway
        qh, kh, vh = (_split_heads(x.data, num_heads) for x in (q, k, v))
        gh = _split_heads(g, num_heads)
        dp = gh @ np.swapaxes(vh, -1, -2)
        ds = dp  # p * (dp - rowsum(dp * p)) * c, in place and in that order
        ds -= (dp * p).sum(axis=-1, keepdims=True)
        ds *= p
        ds *= c
        return (_merge_heads(ds @ kh), _merge_heads(np.swapaxes(ds, -1, -2) @ qh),
                _merge_heads(np.swapaxes(p, -1, -2) @ gh))

    return _make("attention", _merge_heads(p @ vh), (q, k, v), bwd)


def embed_lookup(table: Array, ids: np.ndarray) -> Array:
    """Gather rows of an embedding table; backward scatter-adds into the table."""
    ids = np.asarray(ids)
    out = table.data[ids]

    def bwd(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids, g)
        return (gt,)

    return _make("embed_lookup", out, (table,), bwd)


def sum_all(x: Array) -> Array:
    out = np.asarray(x.data.sum(), dtype=x.data.dtype)
    return _make("sum_all", out, (x,),
                 lambda g: (np.full(x.shape, g, dtype=x.data.dtype),))


# ---------------------------------------------------------------------------
# fused losses
# ---------------------------------------------------------------------------

def cross_entropy_mean(logits: Array, labels: np.ndarray) -> Array:
    """Mean of -log softmax(logits)[label] over all leading positions.

    logits is (..., C), labels an int array of the leading shape. Stabilized
    with max subtraction; backward is (softmax - onehot) / n.
    """
    n_classes = logits.shape[-1]
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    flat = logits.data.reshape(-1, n_classes)
    if labels.shape[0] != flat.shape[0]:
        raise ShapeError(f"cross_entropy_mean: {labels.shape[0]} labels for "
                         f"{flat.shape[0]} rows of logits {logits.shape}")
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError(f"cross_entropy_mean: label out of range [0, {n_classes})")
    shifted = flat - flat.max(axis=-1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    logp = shifted - logsumexp
    rows = np.arange(flat.shape[0])
    out = np.asarray(-logp[rows, labels].mean(), dtype=logits.data.dtype)

    def bwd(g):
        gl = np.exp(logp)
        gl[rows, labels] -= 1.0
        gl *= g / flat.shape[0]
        return (gl.reshape(logits.shape),)

    return _make("cross_entropy_mean", out, (logits,), bwd)


def squared_error_mean(preds: Array, targets: np.ndarray) -> Array:
    """Mean squared error of flattened predictions against constant targets."""
    t = np.asarray(targets, dtype=preds.data.dtype).reshape(-1)
    p = preds.data.reshape(-1)
    if p.shape != t.shape:
        raise ShapeError(f"squared_error_mean: {p.shape[0]} preds vs {t.shape[0]} targets")
    diff = p - t
    out = np.asarray((diff ** 2).mean(), dtype=preds.data.dtype)

    def bwd(g):
        return ((2.0 * diff / p.shape[0] * g).reshape(preds.shape),)

    return _make("squared_error_mean", out, (preds,), bwd)


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

def grad_check(f: Callable[[], Array], params: Sequence[Array],
               step: float = 1e-5, max_coords_per_param: int | None = None,
               rng: np.random.Generator | None = None,
               reference: tuple[Callable[[], Array], Sequence[Array]] | None = None
               ) -> float:
    """Compare reverse-mode gradients of f() against central differences.

    Returns max over checked coordinates of |a - n| / max(1e-8, |a| + |n|).
    Meaningful only when the differences are taken in float64: either params
    are float64, or reference is a float64 twin (f64, params64) of (f, params)
    holding the same values, params listed in the same order, whose central
    differences then stand in for f's. When max_coords_per_param is set, a
    random subset of coordinates per parameter is probed (seeded via rng).
    """
    if rng is None:
        rng = np.random.default_rng(0)
    num_f, num_params = (f, params) if reference is None else reference

    for p in params:
        p.zero_grad()
    out = f()
    if out.size != 1:
        raise ShapeError(f"grad_check: f must be scalar-valued, got shape {out.shape}")
    if not np.isfinite(out.data).all():
        raise EvaluationError("grad_check: f evaluated to a non-finite value")
    backward(out)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                for p in params]

    def eval_scalar() -> float:
        val = num_f()
        v = float(val.data)
        if not math.isfinite(v):
            raise EvaluationError("grad_check: f evaluated to a non-finite value")
        return v

    worst = 0.0
    for p, a in zip(num_params, analytic, strict=True):
        flat = p.data.reshape(-1)
        n_coords = flat.shape[0]
        if max_coords_per_param is not None and n_coords > max_coords_per_param:
            coords = rng.choice(n_coords, size=max_coords_per_param, replace=False)
        else:
            coords = range(n_coords)
        a_flat = a.reshape(-1)
        for i in coords:
            orig = flat[i]
            flat[i] = orig + step
            f_plus = eval_scalar()
            flat[i] = orig - step
            f_minus = eval_scalar()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * step)
            denom = max(1e-8, abs(a_flat[i]) + abs(numeric))
            worst = max(worst, abs(a_flat[i] - numeric) / denom)
    return worst
