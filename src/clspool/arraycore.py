"""Dense arrays with reverse-mode differentiation.

Every operation the encoder and the aggregation heads need is defined here as
a pure function Array -> Array that records its backward rule on a graph node.
Calling :func:`backward` on a scalar result traces the graph into a
topologically ordered :class:`Tape` and accumulates gradients into the leaves.

Shapes follow the row-major convention throughout. Ops that the model uses in
batched form (matmul, attention, layer_norm, ...) accept extra leading axes; the
layer pools take the layers as a list, which stands for their axis 0.
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
    "slice_rows",
    "max_over_axis0",
    "mean_over_axis0",
    "select_max_norm_axis0",
    "layer_norm",
    "feed_forward",
    "dropout",
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
    """One executed op: the gradient slot of the array it produced, and the
    backward rule.

    ``inputs`` holds each input's own node, or the input itself when it is a
    leaf (an Array no op produced), so a graph keeps alive no op output, only
    what each ``bwd`` closure saved: the ndarrays that backward reads, or just
    a shape and dtype where that is all it needs. ``dtype`` is the produced
    array's, and ``grad`` holds that array's gradient while backward runs. A
    node never refers to the array it produced (only that array refers to it),
    so a graph holds no reference cycles and refcounting frees it as soon as
    its root is dropped.

    ``bwd`` returns an array for every input, so each node that backward
    reaches from its root has a gradient. It never writes into its incoming
    gradient: backward stores a gradient it is handed without copying it, and
    one buffer can reach several inputs (``add`` returns it twice,
    ``mean_over_axis0`` returns one buffer for every layer).
    """

    __slots__ = ("op", "inputs", "bwd", "dtype", "grad")

    def __init__(self, op: str, inputs: Sequence["Array"],
                 bwd: Callable[[np.ndarray], Sequence[np.ndarray]]):
        self.op = op
        self.inputs = tuple(x if x.node is None else x.node for x in inputs)
        self.bwd = bwd
        self.dtype = None  # set by the Array the node is given to
        self.grad: np.ndarray | None = None


class Array:
    """Shape-carrying numeric tensor with an optional gradient buffer.

    ``data`` is a float32 or float64 ndarray (float64 in test/grad-check mode,
    float32 in train mode). A leaf's ``grad`` is allocated lazily during
    backward (or is an optimizer's view) and always matches ``data`` in shape;
    an op output's gradient lives on its ``node`` instead.
    """

    __slots__ = ("data", "grad", "node")

    def __init__(self, data: np.ndarray, node: Node | None = None):
        self.data = data
        self.grad: np.ndarray | None = None
        self.node = node
        if node is not None:
            node.dtype = data.dtype

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
    """Topologically ordered list of the nodes that produced a value.

    Every node's input nodes precede it; the backward traversal in
    :meth:`run_backward` therefore visits each node exactly once, in reverse.

    Backward frees as it goes: a node's gradient is dropped as soon as its
    ``bwd`` has consumed it, so after the pass every ``node.grad`` is None and
    only the leaves hold gradients. Running backward again on the same root
    starts over from the seed and adds into the leaves.
    """

    def __init__(self, nodes: list[Node]):
        self.nodes = nodes

    @classmethod
    def trace(cls, root: Array) -> "Tape":
        nodes: list[Node] = []
        seen: set[int] = set()
        stack: list[tuple[Node, bool]] = [] if root.node is None else [(root.node, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                nodes.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for inp in node.inputs:
                if type(inp) is Node and id(inp) not in seen:
                    stack.append((inp, False))
        return cls(nodes)

    def run_backward(self, root: Array, seed: np.ndarray | None = None) -> None:
        if seed is None:
            seed = np.ones(root.shape, dtype=root.data.dtype)
        slot = root if root.node is None else root.node
        slot.grad = np.array(seed, dtype=root.data.dtype) if slot.grad is None \
            else slot.grad + seed
        for node in reversed(self.nodes):
            grads = node.bwd(node.grad)
            node.grad = None
            for inp, g in zip(node.inputs, grads):
                if type(inp) is not Node:  # a leaf owns its buffer (or the optimizer does)
                    if inp.grad is None:
                        inp.grad = np.array(g, dtype=inp.data.dtype, copy=True)
                    else:
                        inp.grad += g
                elif inp.grad is None:  # stored as returned: it may alias another gradient
                    inp.grad = g.astype(inp.dtype, copy=False)
                else:  # so later ones add out of place; the bits are those of +=
                    inp.grad = np.add(inp.grad, g, out=np.empty_like(inp.grad))


def backward(root: Array, seed: np.ndarray | None = None) -> None:
    """Reverse-mode pass from a (normally scalar) root into leaf .grad buffers."""
    Tape.trace(root).run_backward(root, seed)


# ---------------------------------------------------------------------------
# structural / arithmetic ops
# ---------------------------------------------------------------------------

def matmul(a: Array, b: Array) -> Array:
    """a (..., k) @ b (k, n), where the weight b must be 2-D.

    Backward: dA = dC @ B^T, and dB = A^T @ dC as one product over A and dC
    flattened to (rows, k) and (rows, n).
    """
    if a.ndim < 2 or b.ndim != 2 or a.shape[-1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} @ {b.shape}")
    ad, bd = a.data, b.data

    def bwd(g):
        return g @ bd.T, ad.reshape(-1, bd.shape[0]).T @ g.reshape(-1, bd.shape[1])

    return _make("matmul", ad @ bd, (a, b), bwd)


def add(a: Array, b: Array) -> Array:
    """a + b, where b has a's shape or that of a's trailing axes: a (d,) bias,
    or (T, d) position rows. b's gradient is summed over the axes it lacks."""
    if b.ndim > a.ndim or a.shape[a.ndim - b.ndim:] != b.shape:
        raise ShapeError(f"add: {b.shape} is not the shape of the trailing axes of {a.shape}")
    shape, same = b.shape, b.ndim == a.ndim
    return _make("add", a.data + b.data, (a, b),
                 lambda g: (g, g if same else g.reshape(-1, *shape).sum(axis=0)))


def slice_rows(x: Array, start: int, stop: int) -> Array:
    """Slice along the row axis (second-to-last)."""
    if x.ndim < 2:
        raise ShapeError(f"slice_rows: need rank >= 2, got shape {x.shape}")
    if not (0 <= start < stop <= x.shape[-2]):
        raise ShapeError(f"slice_rows: [{start}:{stop}] out of range for {x.shape}")
    out = x.data[..., start:stop, :].copy()
    shape, dtype = x.shape, x.dtype

    def bwd(g):
        gx = np.zeros(shape, dtype)
        gx[..., start:stop, :] = g
        return (gx,)

    return _make("slice_rows", out, (x,), bwd)


# ---------------------------------------------------------------------------
# nonlinear ops
# ---------------------------------------------------------------------------

def _layer_data(op: str, layers: Sequence[Array]) -> list[np.ndarray]:
    """The data of the layers a pool reads in place: a nonempty list, one shape."""
    if not layers:
        raise ShapeError(f"{op}: empty layer list")
    for x in layers:
        if x.shape != layers[0].shape:
            raise ShapeError(f"{op}: layer shape mismatch {x.shape} vs {layers[0].shape}")
    return [x.data for x in layers]


def max_over_axis0(layers: Sequence[Array]) -> Array:
    """Element-wise max over the layers.

    Ties break toward the lowest layer index; the backward pass routes the
    incoming gradient solely to the argmax element (subgradient convention).
    """
    t = _layer_data("max_over_axis0", layers)
    out = t[0].copy()
    for layer in t[1:]:  # np.maximum returns its second operand on a tie, here the lower layer's
        np.maximum(layer, out, out=out)

    def bwd(g):
        # the first layer that holds the max (or a NaN, which only a NaN max
        # can come from), found deepest first in integer arithmetic
        route = np.full(out.shape, len(t) - 1, dtype=np.intp)
        for i in range(len(t) - 2, -1, -1):
            hit = t[i] == out
            hit |= np.isnan(t[i])
            route -= hit * (route - i)
        return tuple(np.where(route == i, g, 0) for i in range(len(t)))

    return _make("max_over_axis0", out, tuple(layers), bwd)


def mean_over_axis0(layers: Sequence[Array]) -> Array:
    """Arithmetic mean over the layers; backward hands every layer one grad/k
    buffer.

    As numpy's mean over a stacked axis 0 does, the sum starts from +0.0 (so
    layers that are all -0.0 at a position mean to +0.0), adds the layers in
    order and is divided by k.
    """
    t = _layer_data("mean_over_axis0", layers)
    k = len(t)
    out = np.zeros_like(t[0])
    for layer in t:
        out += layer
    out /= k
    return _make("mean_over_axis0", out, tuple(layers), lambda g: (g / k,) * k)


def select_max_norm_axis0(layers: Sequence[Array]) -> Array:
    """Per position, keep the layer vector with the largest L2 norm.

    Each layer is (..., d); for each (...) position the full d-vector of the
    winning layer is copied through. Ties break toward the highest index
    (deepest layer), and a NaN norm beats any number. Backward routes the
    gradient to the selected vectors.
    """
    t = _layer_data("select_max_norm_axis0", layers)
    if t[0].ndim < 1:
        raise ShapeError(f"select_max_norm_axis0: need layers of shape (..., d), "
                         f"got {t[0].shape}")
    k = len(t)
    norms = [np.sqrt((layer ** 2).sum(axis=-1)) for layer in t]
    route = np.full(np.shape(norms[0]), k - 1, dtype=np.intp)
    best = norms[k - 1]
    for i in range(k - 2, -1, -1):  # a shallower layer wins only by a strictly larger norm
        better = ~(norms[i] <= best)  # or by a NaN over a number: both count as larger here
        better &= best == best  # a NaN best is never beaten
        route -= better * (route - i)
        best = np.maximum(norms[i], best)
    route = route[..., None]
    out = np.empty_like(t[0])
    for i, layer in enumerate(t):
        np.copyto(out, layer, where=route == i)

    def bwd(g):
        return tuple(np.where(route == i, g, 0) for i in range(k))

    return _make("select_max_norm_axis0", out, tuple(layers), bwd)


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
    gd = gain.data
    np.multiply(xhat, gd, out=out)
    out += bias.data

    def bwd(g):
        # dx = (gy - mean(gy) - xhat * mean(gy * xhat)) / sqrt(var + eps), in gy
        gy = g * gd
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


def _gelu(x: np.ndarray, t: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(gelu(x), t) with t the tanh term: in place, in the order of
    0.5*x * (1 + tanh(C*(x + A*((x*x)*x)))). Given the t it returned, it
    rebuilds the same output bit for bit."""
    if t is None:
        t = x * x  # x ** 3 would take numpy's pow path, 100x slower on float32
        t *= x
        t *= _GELU_A
        t += x
        t *= _GELU_C
        np.tanh(t, out=t)
    out = 0.5 * x
    out *= 1.0 + t
    return out, t


def _gelu_grad(x: np.ndarray, t: np.ndarray, g: np.ndarray) -> np.ndarray:
    """g * gelu'(x) from x and the tanh term t, the exact derivative of the tanh form."""
    # g * (0.5*(1 + t) + 0.5*x * (1 - t**2) * C*(1 + 3*A * (x*x))), in place in that
    # order; x*x is recomputed (keeping it would hold one more array per call) into
    # the buffer that held 0.5*x, so two buffers of x's size are alive beside g
    b = t * t
    np.subtract(1.0, b, out=b)
    du = 0.5 * x
    b *= du
    np.multiply(x, x, out=du)
    du *= 3.0 * _GELU_A
    du += 1.0
    du *= _GELU_C
    b *= du
    dy = np.add(t, 1.0, out=du)
    dy *= 0.5
    dy += b
    dy *= g
    return dy


def feed_forward(x: Array, w1: Array, b1: Array, w2: Array, b2: Array) -> Array:
    """gelu(x @ w1 + b1) @ w2 + b2 for x (..., d), w1 (d, f), b1 (f,), w2 (f, e)
    and b2 (e,): the chain of matmul, add, gelu, matmul and add as one op.

    It runs the chain's numpy operations in the chain's order, so every bit of
    the output and of the gradients is the chain's. Its node saves x, the
    pre-activation h and gelu's tanh term t, but not the activation a that w2's
    gradient reads: backward rebuilds a from h and t as the forward built it.
    """
    if x.ndim < 2 or w1.ndim != 2 or w2.ndim != 2 or x.shape[-1] != w1.shape[0] \
            or b1.shape != w1.shape[1:] or w2.shape[0] != w1.shape[1] or b2.shape != w2.shape[1:]:
        raise ShapeError(f"feed_forward: x {x.shape}, w1 {w1.shape}, b1 {b1.shape}, "
                         f"w2 {w2.shape}, b2 {b2.shape} are not (..., d), (d, f), (f,), "
                         f"(f, e), (e,)")
    (d, f), e = w1.shape, w2.shape[1]
    xd, w1d, w2d = x.data, w1.data, w2.data
    h = xd @ w1d
    h += b1.data
    a, t = _gelu(h)
    y = a @ w2d
    y += b2.data

    def bwd(g):
        # a is rebuilt once dh is freed, so it never sits beside _gelu_grad's buffers
        dh = _gelu_grad(h, t, g @ w2d.T)
        grads = (dh @ w1d.T, xd.reshape(-1, d).T @ dh.reshape(-1, f),
                 dh.reshape(-1, f).sum(axis=0))
        del dh
        a, _ = _gelu(h, t)
        return (*grads, a.reshape(-1, f).T @ g.reshape(-1, e), g.reshape(-1, e).sum(axis=0))

    return _make("feed_forward", y, (x, w1, b1, w2, b2), bwd)


def _keep_scaled(y: np.ndarray, mask: np.ndarray, p: float) -> np.ndarray:
    """``y * (mask / (1 - p))`` built in one buffer, bit for bit: the factors
    take y's dtype, and multiplication commutes."""
    f = mask.astype(y.dtype)
    f /= 1.0 - p
    f *= y
    return f


def dropout(x: Array, p: float, rng: np.random.Generator) -> Array:
    """Inverted dropout; identity when p == 0. Mask drawn from rng.

    The node saves the boolean mask (a byte per element), and backward rebuilds
    the scaled keep factors from it as the forward did: the gradient it is
    handed has the node's dtype.
    """
    if p <= 0.0:
        return x
    mask = rng.random(x.shape) >= p
    return _make("dropout", _keep_scaled(x.data, mask, p), (x,),
                 lambda g: (_keep_scaled(g, mask, p),))


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


def attention(q: Array, k: Array, v: Array, mask: np.ndarray, num_heads: int) -> Array:
    """Multi-head scaled dot-product attention: softmax(Q K^T / sqrt(dh) + M) V.

    q is (..., Tq, d); k and v are (..., T, d); mask is (..., T) over the keys,
    and masked keys get MASK_PENALTY added to their scores. Head s uses columns
    s*dh:(s+1)*dh of q, k and v; the head outputs are concatenated back into
    (..., Tq, d).

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

    def bwd(g):  # over the splits the forward made, which stand in for q, k and v
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
    shape, dtype = table.shape, table.dtype

    def bwd(g):
        gt = np.zeros(shape, dtype)
        np.add.at(gt, ids, g)
        return (gt,)

    return _make("embed_lookup", out, (table,), bwd)


def sum_all(x: Array) -> Array:
    shape, dtype = x.shape, x.dtype
    out = np.asarray(x.data.sum(), dtype=dtype)
    return _make("sum_all", out, (x,), lambda g: (np.full(shape, g, dtype=dtype),))


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
    n, shape = flat.shape[0], logits.shape
    rows = np.arange(n)
    out = np.asarray(-logp[rows, labels].mean(), dtype=logits.data.dtype)

    def bwd(g):
        gl = np.exp(logp)
        gl[rows, labels] -= 1.0
        gl *= g / n
        return (gl.reshape(shape),)

    return _make("cross_entropy_mean", out, (logits,), bwd)


def squared_error_mean(preds: Array, targets: np.ndarray) -> Array:
    """Mean squared error of flattened predictions against constant targets."""
    t = np.asarray(targets, dtype=preds.data.dtype).reshape(-1)
    p = preds.data.reshape(-1)
    if p.shape != t.shape:
        raise ShapeError(f"squared_error_mean: {p.shape[0]} preds vs {t.shape[0]} targets")
    diff = p - t
    n, shape = p.shape[0], preds.shape
    out = np.asarray((diff ** 2).mean(), dtype=preds.data.dtype)

    def bwd(g):
        return ((2.0 * diff / n * g).reshape(shape),)

    return _make("squared_error_mean", out, (preds,), bwd)


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

GRAD_CHECK_STEP = 1e-5


def grad_check(f: Callable[[], Array], params: Sequence[Array],
               max_coords_per_param: int | None = None,
               rng: np.random.Generator | None = None,
               reference: tuple[Callable[[], Array], Sequence[Array]] | None = None
               ) -> float:
    """Compare reverse-mode gradients of f() against central differences of
    half-width GRAD_CHECK_STEP.

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
            flat[i] = orig + GRAD_CHECK_STEP
            f_plus = eval_scalar()
            flat[i] = orig - GRAD_CHECK_STEP
            f_minus = eval_scalar()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * GRAD_CHECK_STEP)
            denom = max(1e-8, abs(a_flat[i]) + abs(numeric))
            worst = max(worst, abs(a_flat[i] - numeric) / denom)
    return worst
