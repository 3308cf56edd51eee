"""Brute-force oracles the tests check the real implementations against.

Everything here is deliberately written as explicit loops over confusion-matrix
cells, rank lists and parameters, independent of the package's code paths.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from clspool.arraycore import LAYER_NORM_EPS, MASK_PENALTY, Tape, no_grad
from clspool.metrics import accuracy, f1_binary, matthews_corr, spearman_rho_flagged
from clspool.training import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, TrainingError, _decay_exempt,
                              pad_batch)


def confusion_oracle(preds, labels):
    cells = {"tp": 0, "fp": 0, "fn": 0, "tn": 0}
    for p, y in zip(preds, labels):
        if y == 1:
            cells["tp" if p == 1 else "fn"] += 1
        else:
            cells["fp" if p == 1 else "tn"] += 1
    return cells


def accuracy_oracle(preds, labels):
    hits = 0
    for p, y in zip(preds, labels):
        if p == y:
            hits += 1
    return hits / len(preds)


def f1_oracle(preds, labels):
    c = confusion_oracle(preds, labels)
    tp, fp, fn = c["tp"], c["fp"], c["fn"]
    p = tp / (tp + fp) if tp + fp > 0 else 0.0
    r = tp / (tp + fn) if tp + fn > 0 else 0.0
    return 2 * p * r / (p + r) if p + r > 0 else 0.0


def mcc_oracle(preds, labels):
    c = confusion_oracle(preds, labels)
    tp, fp, fn, tn = c["tp"], c["fp"], c["fn"], c["tn"]
    denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    if denom == 0:
        return 0.0
    return (tp * tn - fp * fn) / math.sqrt(denom)


def ranks_oracle(xs):
    """Average ranks via pairwise counting: rank = 1 + #smaller + #ties/2."""
    ranks = []
    for i, xi in enumerate(xs):
        smaller = sum(1 for x in xs if x < xi)
        ties = sum(1 for j, x in enumerate(xs) if x == xi and j != i)
        ranks.append(1.0 + smaller + ties / 2.0)
    return ranks


def spearman_oracle(x, y):
    rx, ry = ranks_oracle(x), ranks_oracle(y)
    n = len(rx)
    mx = sum(rx) / n
    my = sum(ry) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    if vx == 0 or vy == 0:
        return 0.0
    return cov / math.sqrt(vx * vy)


# The per-parameter AdamW step that the flat-buffer optimizer replaced, kept
# verbatim: one loop iteration per parameter, moments keyed by name, gradients
# released (.grad = None) after each step. The global-norm clip sums what the
# flat buffer holds, in its order, from per-parameter copies.

@dataclass
class OptimizerStateOracle:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0


def adamw_step_oracle(named_params, state, lr, weight_decay):
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for name, p in named_params:
        g = p.grad
        if g is None:
            g = np.zeros_like(p.data)
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient for '{name}' at optimizer step {t}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m, v = state.m[name], state.v[name]
        m[:] = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        v[:] = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * (g * g)
        update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        p.data -= lr * update
        if weight_decay != 0.0 and not _decay_exempt(name):
            p.data -= lr * weight_decay * p.data
        p.grad = None


def clip_global_norm_oracle(named_params, max_norm):
    """float64 squares of every gradient (zeros for a missing one) laid out as
    the optimizer lays them out, decayed parameters first, then summed once."""
    squares = {False: [], True: []}  # by whether the parameter is decay-exempt
    for name, p in named_params:
        g = np.zeros(p.size) if p.grad is None else p.grad.astype(np.float64).ravel()
        squares[_decay_exempt(name)].append(g ** 2)
    norm = np.sqrt(np.concatenate(squares[False] + squares[True]).sum())
    if norm > max_norm:
        scale = max_norm / norm
        for _, p in named_params:
            if p.grad is not None:  # scaled in float64, rounded once to the gradient's dtype
                p.grad[...] = p.grad.astype(np.float64) * scale
    return float(norm)


def evaluate_oracle(model, dataset, batch_size=64):
    """evaluate as the serial loop it was before its forwards ran on threads:
    returns the predictions and the metrics."""
    preds = []
    labels = []
    for lo in range(0, len(dataset), batch_size):
        batch = dataset[lo:lo + batch_size]
        ids, mask, batch_labels = pad_batch(batch)
        with no_grad():
            logits = model.forward(ids, mask).data.reshape(len(batch), model.n_classes)
        if model.n_classes == 1:
            preds.extend(float(x) for x in logits[:, 0])
        else:
            preds.extend(int(x) for x in logits.argmax(axis=1))
        labels.extend(batch_labels)
    if model.n_classes == 1:
        rho, _ = spearman_rho_flagged(preds, labels)
        return preds, {"spearman": rho}
    out = {"accuracy": accuracy(preds, labels)}
    if set(labels) <= {0, 1}:
        out["f1"] = f1_binary(preds, labels)
        out["mcc"] = matthews_corr(preds, labels)
    return preds, out


# The gelu and attention kernels as they were before their forwards moved in
# place: one fresh array per expression. The in-place kernels must match them
# bit for bit, forward and backward.

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def gelu_oracle(x, g):
    """(gelu(x), g * gelu'(x)) by the out-of-place expressions."""
    x2 = x * x
    u = _GELU_C * (x + _GELU_A * (x2 * x))
    t = np.tanh(u)
    out = 0.5 * x * (1.0 + t)
    du = _GELU_C * (1.0 + 3.0 * _GELU_A * x2)
    dy = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t ** 2) * du
    return out, g * dy


def feed_forward_oracle(x, w1, b1, w2, b2, g):
    """(gelu(x @ w1 + b1) @ w2 + b2, (dx, dw1, db1, dw2, db2)) by the matmul,
    add and gelu expressions, each into a fresh array, as the chain of those
    three ops computes them."""
    d, f, e = x.shape[-1], w1.shape[1], w2.shape[1]
    h = x @ w1 + b1
    a, _ = gelu_oracle(h, np.zeros_like(h))
    out = a @ w2 + b2
    dw2 = a.reshape(-1, f).T @ g.reshape(-1, e)
    _, dh = gelu_oracle(h, g @ w2.T)
    return out, (dh @ w1.T, x.reshape(-1, d).T @ dh.reshape(-1, f),
                 dh.reshape(-1, f).sum(axis=0), dw2, g.reshape(-1, e).sum(axis=0))


def _split_heads(x, h):
    *lead, t, d = x.shape
    return np.ascontiguousarray(np.swapaxes(x.reshape(*lead, t, h, d // h), -2, -3))


def _merge_heads(x):
    *lead, h, t, dh = x.shape
    return np.swapaxes(x, -2, -3).reshape(*lead, t, h * dh)


def attention_oracle(q, k, v, mask, num_heads, g):
    """(output, weights, (dq, dk, dv)) of multi-head attention, with the
    softmax taken out of place."""
    c = 1.0 / math.sqrt(q.shape[-1] // num_heads)
    m = np.asarray(mask, dtype=q.dtype)
    qh, kh, vh = (_split_heads(x, num_heads) for x in (q, k, v))
    penalty = ((1.0 - m) * MASK_PENALTY)[..., None, None, :]
    scores = (qh @ np.swapaxes(kh, -1, -2)) * c + penalty
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    gh = _split_heads(g, num_heads)
    dp = gh @ np.swapaxes(vh, -1, -2)
    ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True)) * c
    grads = (_merge_heads(ds @ kh), _merge_heads(np.swapaxes(ds, -1, -2) @ qh),
             _merge_heads(np.swapaxes(p, -1, -2) @ gh))
    return _merge_heads(p @ vh), p, grads


# layer_norm as it was before its row means became sum / d: np.mean throughout.

def layer_norm_oracle(x, gain, bias, g):
    """(layer_norm(x), (dx, dgain, dbias)) by the .mean expressions."""
    d = x.shape[-1]
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = centered * inv
    out = xhat * gain + bias
    gy = g * gain
    gx = (gy - gy.mean(axis=-1, keepdims=True)
          - xhat * (gy * xhat).mean(axis=-1, keepdims=True)) * inv
    return out, (gx, (g * xhat).reshape(-1, d).sum(axis=0), g.reshape(-1, d).sum(axis=0))


# The layer pools as they were before they stopped taking an argmax over the
# layer axis: argmax, take_along_axis and put_along_axis, verbatim.

def max_over_axis0_oracle(theta, g):
    """(max_over_axis0(theta), its gradient for output gradient g)."""
    idx = np.argmax(theta, axis=0)  # first occurrence == lowest layer
    out = np.take_along_axis(theta, idx[None, ...], axis=0)[0]
    gt = np.zeros_like(theta)
    np.put_along_axis(gt, idx[None, ...], g[None, ...], axis=0)
    return out, gt


def select_max_norm_axis0_oracle(theta, g):
    """(select_max_norm_axis0(theta), its gradient for output gradient g)."""
    k = theta.shape[0]
    norms = np.sqrt((theta ** 2).sum(axis=-1))       # (k, ...)
    idx = (k - 1) - np.argmax(norms[::-1], axis=0)    # ties -> deepest
    idx_full = np.broadcast_to(idx[None, ..., None], (1,) + theta.shape[1:])
    out = np.take_along_axis(theta, idx_full, axis=0)[0]
    gt = np.zeros_like(theta)
    np.put_along_axis(gt, idx_full.copy(), g[None, ...], axis=0)
    return out, gt


# encode's position embeddings as they were before they became the first T
# rows of pos_emb added over the batch: a gather over broadcast position ids,
# whose backward scatter-adds the incoming gradient into a zeroed table.

def position_grad_oracle(table_shape, g):
    """pos_emb's gradient for the gradient g (B, T, d) of the embedding sum."""
    batch, seq = g.shape[:2]
    gt = np.zeros(table_shape, g.dtype)
    np.add.at(gt, np.broadcast_to(np.arange(seq), (batch, seq)), g)
    return gt


# Tape.run_backward as it was before backward freed each gradient once used:
# every first gradient copied, later ones added in place, and every gradient,
# the root's and the intermediates' too, kept on its node until the graph dies.
# A node input is the input's node or a leaf Array; both carry .grad and .dtype.

def run_backward_oracle(root, seed=None):
    tape = Tape.trace(root)
    if seed is None:
        seed = np.ones(root.shape, dtype=root.data.dtype)
    slot = root if root.node is None else root.node
    slot.grad = np.array(seed, dtype=root.data.dtype) if slot.grad is None \
        else slot.grad + seed
    for node in reversed(tape.nodes):
        if node.grad is None:
            continue
        grads = node.bwd(node.grad)
        for inp, g in zip(node.inputs, grads):
            if g is None:
                continue
            if inp.grad is None:
                inp.grad = np.array(g, dtype=inp.dtype, copy=True)
            else:
                inp.grad += g
