import gc
import inspect
import math
import zlib
from typing import Callable, NamedTuple

import numpy as np
import pytest

from clspool import arraycore as ac
from clspool.arraycore import (
    Array,
    ShapeError,
    array,
    backward,
    grad_check,
)
from oracles import (
    attention_oracle,
    feed_forward_oracle,
    gelu_oracle,
    layer_norm_oracle,
    max_over_axis0_oracle,
    run_backward_oracle,
    select_max_norm_axis0_oracle,
)


def matmul_oracle(a, b):
    """Scalar triple-loop matrix product."""
    m, n = len(a), len(a[0])
    p = len(b[0])
    out = [[0.0] * p for _ in range(m)]
    for i in range(m):
        for j in range(p):
            for t in range(n):
                out[i][j] += a[i][t] * b[t][j]
    return out


def pool_oracle(theta, op):
    """Scalar triple-loop max/mean over the layer axis of a k x t x d nest."""
    k, t, d = len(theta), len(theta[0]), len(theta[0][0])
    out = [[0.0] * d for _ in range(t)]
    for i in range(t):
        for j in range(d):
            col = [theta[l][i][j] for l in range(k)]
            out[i][j] = max(col) if op == "max" else sum(col) / k
    return out


class TestMatmul:
    def test_identity(self):
        a = array([[1.0, 0.0], [0.0, 1.0]])
        b = array([[3.0, 4.0], [5.0, 6.0]])
        assert np.array_equal(ac.matmul(a, b).data, b.data)

    def test_against_loop_oracle(self):
        a = [[1.0, 2.0]]
        b = [[3.0], [4.0]]
        got = ac.matmul(array(a), array(b)).data
        assert got.tolist() == matmul_oracle(a, b)
        assert got.tolist() == [[11.0]]

    def test_zeros(self):
        a = Array(np.zeros((2, 3)))
        b = array(np.random.default_rng(0).normal(size=(3, 4)))
        assert np.all(ac.matmul(a, b).data == 0.0)

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError) as exc:
            ac.matmul(Array(np.zeros((2, 3))), Array(np.zeros((4, 5))))
        assert "(2, 3)" in str(exc.value) and "(4, 5)" in str(exc.value)
        with pytest.raises(ShapeError) as exc:  # the weight must be 2-D
            ac.matmul(Array(np.zeros((2, 4, 3))), Array(np.zeros((2, 3, 5))))
        assert "(2, 4, 3)" in str(exc.value) and "(2, 3, 5)" in str(exc.value)

    def test_random_oracle_agreement(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m, n, p = rng.integers(1, 5, size=3)
            a = rng.normal(size=(m, n)).tolist()
            b = rng.normal(size=(n, p)).tolist()
            got = ac.matmul(array(a), array(b)).data
            want = np.array(matmul_oracle(a, b))
            assert np.allclose(got, want, atol=1e-12)

    def test_backward_formula(self):
        a = array([[1.0, 2.0], [3.0, 4.0]])
        b = array([[5.0, 6.0], [7.0, 8.0]])
        c = ac.matmul(a, b)
        g = np.array([[1.0, 0.0], [0.0, 2.0]])
        backward(c, seed=g)
        assert np.allclose(a.grad, g @ b.data.T)
        assert np.allclose(b.grad, a.data.T @ g)

    def test_batched_backward_against_per_example_loop(self):
        # the weight gradient is one product over the flattened batch; the
        # loop sums one a_i^T @ g_i per example
        rng = np.random.default_rng(3)
        a, b = array(rng.normal(size=(5, 4, 3))), array(rng.normal(size=(3, 4)))
        g = rng.normal(size=(5, 4, 4))
        backward(ac.matmul(a, b), seed=g)
        want_b = sum(a.data[i].T @ g[i] for i in range(5))
        want_a = np.stack([g[i] @ b.data.T for i in range(5)])
        assert np.abs(b.grad - want_b).max() < 1e-12
        assert np.abs(a.grad - want_a).max() < 1e-12

    def test_batched_matches_finite_differences(self):
        # (k, t, d) @ (d, t) under a random linear functional, as in
        # _random_op_cases
        rng = np.random.default_rng(8)
        for _ in range(20):
            k, t, d = (int(n) for n in rng.integers(1, 5, size=3))
            theta, m = array(rng.normal(size=(k, t, d))), array(rng.normal(size=(d, t)))
            weights = array(rng.normal(size=(k * t * t, 1)))
            err = grad_check(lambda: ac.sum_all(ac.matmul(flat_row(ac.matmul(theta, m)),
                                                          weights)), [theta, m])
            assert err < 1e-6, (k, t, d, err)


def attention_weights(scores, mask=None):
    """The weights `attention` gives keys scored `scores` (..., T) under `mask`
    (..., T; every key valid by default), read off its output. T heads of
    width 1 each take a unit query over keys whose every column is the score
    vector, so each head's scale is exactly 1.0 and its scores are `scores`;
    over the values v = I, head j outputs its weight on key j."""
    scores = np.asarray(scores)
    t = scores.shape[-1]
    keys = np.repeat(scores[..., None], t, axis=-1)
    query = np.ones(scores.shape[:-1] + (1, t), dtype=scores.dtype)
    values = np.broadcast_to(np.eye(t, dtype=scores.dtype), keys.shape).copy()
    mask = np.broadcast_to(np.ones(t) if mask is None else mask, scores.shape)
    with ac.no_grad():
        out = ac.attention(Array(query), Array(keys), Array(values), mask, t)
    return out.data[..., 0, :]


def head_scores(q, k, h):
    """The scaled scores (..., h, Tq, T) of each head, as `attention` forms
    them before the mask: over contiguous head blocks, which round as it does."""
    qh, kh = (np.ascontiguousarray(np.swapaxes(x.reshape(x.shape[:-1] + (h, -1)), -2, -3))
              for x in (q, k))
    return (qh @ np.swapaxes(kh, -1, -2)) * (1.0 / math.sqrt(q.shape[-1] // h))


class TestSoftmax:
    """The softmax inside `attention`, the only one the model takes."""

    def test_uniform(self):
        y = attention_weights([0.0, 0.0, 0.0])
        assert np.allclose(y, [1 / 3] * 3, atol=1e-15)

    @pytest.mark.parametrize("c", [0.0, 5.0, -3.0, 123.456])
    def test_closed_form_and_shift_invariance(self, c):
        y = attention_weights([c, c + math.log(3.0)])
        assert np.allclose(y, [0.25, 0.75], atol=1e-12)

    def test_no_overflow(self):
        y = attention_weights([1000.0, 0.0])
        assert np.all(np.isfinite(y))
        assert y[0] > 1.0 - 1e-12 and y[1] < 1e-12

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            s = attention_weights(rng.normal(scale=10.0, size=(3, 7))).sum(axis=-1)
            assert np.all(np.abs(s - 1.0) < 1e-12)


def layers(theta):
    """float64 leaves over the layers of a (k, ...) nest, the list a pool takes."""
    return [array(layer) for layer in theta]


class TestMaxOverAxis0:
    def test_k1_identity(self):
        theta = layers([[[1.0, 2.0], [3.0, 4.0]]])
        assert ac.max_over_axis0(theta).data.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_against_loop_oracle(self):
        nest = [[[1.0, 5.0], [0.0, -1.0]], [[3.0, 2.0], [0.0, 7.0]]]
        got = ac.max_over_axis0(layers(nest)).data
        assert got.tolist() == pool_oracle(nest, "max")
        assert got.tolist() == [[3.0, 5.0], [0.0, 7.0]]

    def test_tie_routes_to_lowest_layer(self):
        x = np.arange(6.0).reshape(2, 3)
        theta = layers([x, x])
        out = ac.max_over_axis0(theta)
        assert np.array_equal(out.data, x)
        backward(out, seed=np.ones((2, 3)))
        # the whole gradient lands on layer 0
        assert np.all(theta[0].grad == 1.0)
        assert np.all(theta[1].grad == 0.0)

    def test_permutation_invariance_and_dominance(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            theta = rng.normal(size=(4, 3, 5))
            base = ac.max_over_axis0(layers(theta)).data
            perm = rng.permutation(4)
            assert np.array_equal(ac.max_over_axis0(layers(theta[perm])).data, base)
            for layer in theta:
                assert np.all(base >= layer)
            assert np.all((base[None] == theta).any(axis=0))

    def test_idempotent_on_duplicates(self):
        x = np.random.default_rng(3).normal(size=(2, 4))
        out = ac.max_over_axis0(layers([x, x]))
        assert np.array_equal(out.data, x)


class TestMeanOverAxis0:
    def test_k1_identity(self):
        theta = layers([[[1.0, 2.0]]])
        assert ac.mean_over_axis0(theta).data.tolist() == [[1.0, 2.0]]

    def test_midpoint(self):
        assert ac.mean_over_axis0(layers([[[2.0]], [[4.0]]])).data.tolist() == [[3.0]]

    def test_against_loop_oracle(self):
        nest = [[[1.0, 5.0]], [[3.0, 1.0]]]
        got = ac.mean_over_axis0(layers(nest)).data
        assert got.tolist() == pool_oracle(nest, "mean")
        assert got.tolist() == [[2.0, 3.0]]

    def test_commutes_with_scaling(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            theta = rng.normal(size=(3, 2, 4))
            c = float(rng.uniform(0.1, 5.0))
            lhs = ac.mean_over_axis0(layers(c * theta)).data
            rhs = c * ac.mean_over_axis0(layers(theta)).data
            assert np.allclose(lhs, rhs, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_numpy_mean_over_the_stacked_layers(self, dtype):
        rng = np.random.default_rng(6)
        for k in (1, 2, 3, 4):
            theta = rng.normal(size=(k, 3, 5, 8)).astype(dtype)
            theta[:, :, 0] = -0.0  # numpy's sum starts from +0.0: these mean to +0.0
            theta[k - 1, :, 1] = -theta[0, :, 1]
            got = ac.mean_over_axis0([Array(layer) for layer in theta]).data
            assert got.tobytes() == theta.mean(axis=0).tobytes(), k


class TestSelectMaxNorm:
    def test_selects_larger_norm(self):
        theta = layers([[[3.0, 4.0]], [[1.0, 0.0]]])  # norms 5 vs 1
        assert ac.select_max_norm_axis0(theta).data.tolist() == [[3.0, 4.0]]

    def test_tie_prefers_deepest(self):
        v = [[1.0, 2.0]]
        theta = layers([v, [[2.0, 1.0]]])  # equal norms
        out = ac.select_max_norm_axis0(theta)
        assert out.data.tolist() == [[2.0, 1.0]]
        backward(out, seed=np.ones((1, 2)))
        assert np.all(theta[0].grad == 0.0)
        assert np.all(theta[1].grad == 1.0)

    def test_selected_norm_dominates(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            theta = rng.normal(size=(3, 4, 6))
            out = ac.select_max_norm_axis0(layers(theta)).data
            norms = np.sqrt((theta ** 2).sum(-1))
            sel = np.sqrt((out ** 2).sum(-1))
            assert np.all(sel >= norms.max(axis=0) - 1e-12)

    def test_refuses_layers_without_a_vector_axis(self):
        with pytest.raises(ShapeError, match="need layers of shape"):
            ac.select_max_norm_axis0([array(1.0), array(2.0)])


class TestLayerNorm:
    def test_constant_row_maps_to_bias(self):
        x = array([[5.0, 5.0, 5.0]])
        gain = array(np.ones(3))
        bias = array(np.zeros(3))
        assert np.allclose(ac.layer_norm(x, gain, bias).data, 0.0, atol=1e-12)

    def test_two_point_row_closed_form(self):
        x = array([[1.0, -1.0]])
        out = ac.layer_norm(x, array(np.ones(2)), array(np.zeros(2))).data
        expect = 1.0 / math.sqrt(1.0 + ac.LAYER_NORM_EPS)
        assert np.allclose(out, [[expect, -expect]], atol=1e-15)

    def test_zero_gain_broadcasts_bias(self):
        rng = np.random.default_rng(6)
        x = array(rng.normal(size=(4, 5)))
        bias = array(rng.normal(size=5))
        out = ac.layer_norm(x, array(np.zeros(5)), bias).data
        assert np.allclose(out, np.broadcast_to(bias.data, (4, 5)), atol=1e-15)


class TestSmallOps:
    def test_gelu_zero(self):
        assert ac._gelu(np.array([0.0]))[0][0] == 0.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu_keeps_dtype(self, dtype):
        x = np.linspace(-3, 3, 7, dtype=dtype)
        out, t = ac._gelu(x)
        assert out.dtype == t.dtype == ac._gelu_grad(x, t, np.ones_like(x)).dtype == dtype

    def test_gelu_float32_matches_float64_formula(self):
        rng = np.random.default_rng(3)
        x = np.concatenate([rng.uniform(-1e3, 1e3, 4000), rng.normal(0.0, 3.0, 4000),
                            rng.uniform(-10.5, -9.5, 1000), rng.uniform(9.5, 10.5, 1000),
                            [0.0, -10.0, 10.0]]).astype(np.float32)
        x64 = x.astype(np.float64)
        ref = 0.5 * x64 * (1.0 + np.tanh(math.sqrt(2.0 / math.pi)
                                         * (x64 + 0.044715 * x64 ** 3)))
        out, _ = ac._gelu(x)
        # the output is x * Phi(x); its rounding error scales with |x|
        assert np.all(np.abs(out - ref) <= 4 * np.spacing(np.abs(x)))
        assert out[x == 0.0].tolist() == [0.0]

    @pytest.mark.parametrize("a_shape, b_shape", [((2, 2), (2, 3)), ((3, 4), (5,)),
                                                  ((2, 3, 4), (4, 4)), ((4,), (3, 4))])
    def test_add_shape_error(self, a_shape, b_shape):
        # b must have a's shape or that of a's trailing axes
        with pytest.raises(ShapeError) as exc:
            ac.add(Array(np.zeros(a_shape)), Array(np.zeros(b_shape)))
        assert str(a_shape) in str(exc.value) and str(b_shape) in str(exc.value)

    def test_embed_lookup_scatter(self):
        table = array(np.arange(8.0).reshape(4, 2))
        out = ac.embed_lookup(table, np.array([1, 1, 3]))
        assert out.data.tolist() == [[2, 3], [2, 3], [6, 7]]
        backward(out, seed=np.ones((3, 2)))
        assert table.grad.tolist() == [[0, 0], [2, 2], [0, 0], [1, 1]]

    def test_dropout_identity_when_off(self):
        x = array(np.ones(5))
        assert ac.dropout(x, 0.0, np.random.default_rng(0)) is x

    def test_dropout_saves_a_byte_mask_and_scales_as_the_forward(self):
        x = Array(np.random.default_rng(1).normal(size=(4, 6)).astype(np.float32))
        out = ac.dropout(x, 0.3, np.random.default_rng(2))
        keep = (np.random.default_rng(2).random(x.shape) >= 0.3).astype(np.float32) / 0.7
        assert out.data.tobytes() == (x.data * keep).tobytes()
        saved = [cell.cell_contents for cell in out.node.bwd.__closure__]
        assert [a.dtype for a in saved if isinstance(a, np.ndarray)] == [np.bool_]
        g = np.random.default_rng(3).normal(size=x.shape).astype(np.float32)
        assert out.node.bwd(g)[0].tobytes() == (g * keep).tobytes()

    def test_debug_mode_catches_nonfinite(self):
        ac.set_debug_checks(True)
        try:
            with pytest.raises(ac.EvaluationError):
                ac.add(array([np.inf]), array([0.0]))
        finally:
            ac.set_debug_checks(False)


def attention_loop_oracle(q, k, v, mask, h):
    """Per-head loop over contiguous column blocks: scale, mask, softmax, mix."""
    dh = q.shape[-1] // h
    penalty = ((1.0 - mask) * ac.MASK_PENALTY)[..., None, :].astype(q.dtype)
    heads, weights = [], []
    for s in range(h):
        block = slice(s * dh, (s + 1) * dh)
        qs, ks, vs = (x[..., block].copy() for x in (q, k, v))
        scores = (qs @ np.swapaxes(ks, -1, -2)) * (1.0 / math.sqrt(dh)) + penalty
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        p = e / e.sum(axis=-1, keepdims=True)
        weights.append(p)
        heads.append(p @ vs)
    return np.concatenate(heads, axis=-1), weights


class TestAttention:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("lead,tq,t,h", [((), 3, 3, 1), ((), 1, 5, 2),
                                             ((3,), 4, 4, 4), ((2,), 1, 6, 2)])
    def test_matches_per_head_loop_bitwise(self, dtype, lead, tq, t, h):
        rng = np.random.default_rng(31)
        q = rng.normal(size=lead + (tq, 8)).astype(dtype)
        k, v = (rng.normal(size=lead + (t, 8)).astype(dtype) for _ in range(2))
        mask = np.ones(lead + (t,))
        mask[..., -1] = 0.0
        out = ac.attention(array(q, dtype), array(k, dtype), array(v, dtype), mask, h)
        want, weights = attention_loop_oracle(q, k, v, mask, h)
        assert out.data.dtype == dtype
        assert np.array_equal(out.data, want)
        probs = attention_weights(head_scores(q, k, h), mask[..., None, None, :])
        for s in range(h):
            assert np.array_equal(probs[..., s, :, :], weights[s])

    def test_masked_key_gets_zero_weight(self):
        rng = np.random.default_rng(32)
        q, k, v = (array(rng.normal(size=(3, 4))) for _ in range(3))
        mask = np.array([1.0, 0.0, 1.0])
        out = ac.attention(q, k, v, mask, 2)
        probs = attention_weights(head_scores(q.data, k.data, 2), mask)
        assert np.all(probs[..., 1] == 0.0)
        assert np.allclose(probs.sum(axis=-1), 1.0, atol=1e-12)
        k.data[1], v.data[1] = rng.normal(size=4), rng.normal(size=4)
        assert np.array_equal(ac.attention(q, k, v, mask, 2).data, out.data)

    def test_shape_errors(self):
        x = Array(np.zeros((3, 4)))
        with pytest.raises(ShapeError):
            ac.attention(x, x, x, np.ones(3), 3)
        with pytest.raises(ShapeError):
            ac.attention(x, x, x, np.ones(4), 2)
        with pytest.raises(ShapeError):
            ac.attention(x, Array(np.zeros((3, 2))), x, np.ones(3), 1)


class TestLosses:
    def test_uniform_logits_give_log_c(self):
        for n_classes in (2, 3, 7):
            logits = Array(np.zeros((1, n_classes)))
            loss = ac.cross_entropy_mean(logits, np.array([0]))
            assert abs(loss.item() - math.log(n_classes)) < 1e-12

    def test_saturated_correct_class(self):
        logits = array([[1000.0, 0.0]])
        assert ac.cross_entropy_mean(logits, np.array([0])).item() < 1e-12

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            ac.cross_entropy_mean(Array(np.zeros((1, 2))), np.array([2]))

    def test_squared_error_value(self):
        loss = ac.squared_error_mean(array([1.0, 3.0]), np.array([0.0, 0.0]))
        assert abs(loss.item() - 5.0) < 1e-12


class TestGradCheck:
    def test_sum_of_squares(self):
        x = array([1.0, -2.0, 0.5])

        def f():
            return ac.sum_all(ac.squared_error_mean(x, np.zeros(3)))

        err = grad_check(f, [x])
        assert err < 1e-8
        # analytic gradient of mean(x^2) is 2x/3
        x.zero_grad()
        backward(f())
        assert np.allclose(x.grad, 2.0 * x.data / 3.0, atol=1e-12)

    def test_softmax_matmul_chain(self):
        rng = np.random.default_rng(9)
        w = array(rng.normal(size=(4, 3)))
        x = array(rng.normal(size=(2, 4)))
        keys = array(rng.normal(size=(5, 3)))
        first_column = array([[1.0], [0.0], [0.0]])

        def f():
            # keep one output column so the scalar is not identically constant
            mixed = ac.attention(ac.matmul(x, w), keys, keys, np.ones(5), 1)
            return ac.sum_all(ac.matmul(mixed, first_column))

        assert grad_check(f, [x, w, keys]) < 1e-6

    def test_constant_function(self):
        x = array([1.0, 2.0])
        c = array([3.0])

        def f():
            return ac.sum_all(c)

        assert grad_check(f, [x]) == 0.0

    def test_nonfinite_raises(self):
        x = array([1.0])

        def f():
            return ac.add(x, array([np.inf]))

        with pytest.raises(ac.EvaluationError):
            grad_check(f, [x])


def flat_row(x):
    """x as one (1, n) row, recorded on the tape so gradients flow back to x."""
    shape = x.shape
    return ac.Array(x.data.reshape(1, -1),
                    node=ac.Node("flat_row", (x,), lambda g: (g.reshape(shape),)))


class OpCase(NamedTuple):
    name: str
    f: Callable[[], Array]
    params: list[Array]
    op: str
    weights: Array


def _random_op_cases(round_no: int, skip: frozenset = frozenset()) -> list[OpCase]:
    """One gradient-check case per differentiable op, random shapes, for one round.

    Each case's f is a random linear functional of the op's output, so the
    gradient of every output element is checked (a plain sum would hide errors
    in softmax, whose rows always sum to one); op names the op that made the
    output. The round's shapes come from a generator keyed by the round alone,
    and each case's inputs and weights from one keyed by the round and the
    case's name, so adding, dropping (``skip``) or reordering a case leaves
    every other case's arrays as they are.
    """
    shapes = np.random.default_rng([1234, round_no])
    t, d, k = (int(n) for n in shapes.integers([2, 2, 1], [5, 5, 4]))
    h, dh = (int(n) for n in shapes.integers(1, 3, size=2))  # attention heads, head width
    f_width, e_width = (int(n) for n in shapes.integers(1, 4, size=2))  # feed-forward
    cases = []

    def case(build):
        """Add the case ``build`` makes from its own generator, keyed by its name."""
        if build.__name__ in skip:
            return
        rng = np.random.default_rng([1234, round_no, zlib.crc32(build.__name__.encode())])
        out_fn, params = build(lambda *shape: array(rng.normal(size=shape)), rng)
        out = out_fn()
        weights = array(rng.normal(size=(out.size, 1)))

        def f():
            return ac.sum_all(ac.matmul(flat_row(out_fn()), weights))

        cases.append(OpCase(build.__name__, f, params, out.node.op, weights))

    def batch_mask(rng):
        mask = (rng.random((2, t)) > 0.3).astype(float)
        mask[:, 0] = 1.0
        return mask

    @case
    def matmul(normal, rng):
        x, m = normal(t, d), normal(d, t)
        return lambda: ac.matmul(x, m), [x, m]

    @case
    def add(normal, rng):
        x, y = normal(t, d), normal(t, d)
        return lambda: ac.add(x, y), [x, y]

    @case
    def add_vector(normal, rng):
        x, v = normal(t, d), normal(d)
        return lambda: ac.add(x, v), [x, v]

    @case
    def add_rows_to_a_batch(normal, rng):
        batch, rows = normal(2, t, d), normal(t, d)
        return lambda: ac.add(batch, rows), [batch, rows]

    @case
    def sum_all(normal, rng):
        x = normal(t, d)
        return lambda: ac.sum_all(x), [x]

    @case
    def slice_rows(normal, rng):
        x = normal(t, d)
        return lambda: ac.slice_rows(x, 0, max(1, t - 1)), [x]

    @case
    def max_over_axis0(normal, rng):
        theta = [normal(t, d) for _ in range(k)]
        return lambda: ac.max_over_axis0(theta), theta

    @case
    def mean_over_axis0(normal, rng):
        theta = [normal(t, d) for _ in range(k)]
        return lambda: ac.mean_over_axis0(theta), theta

    @case
    def select_max_norm_axis0(normal, rng):
        theta = [normal(t, d) for _ in range(k)]
        return lambda: ac.select_max_norm_axis0(theta), theta

    @case
    def layer_norm(normal, rng):
        # rows of at least three: a row of two normalizes to +-1 whatever x is,
        # so x's gradient is only the eps term's ~1e-5, which central differences
        # resolve to ~1e-6 relative (width two is checked against the oracle)
        x, gain, bias = normal(t, d + 1), normal(d + 1), normal(d + 1)
        return lambda: ac.layer_norm(x, gain, bias), [x, gain, bias]

    @case
    def dropout(normal, rng):
        x, seed = normal(t, d), int(rng.integers(1 << 30))
        return lambda: ac.dropout(x, 0.3, np.random.default_rng(seed)), [x]

    @case
    def self_attention(normal, rng):  # the last key is masked
        q, kk, v = (normal(t, h * dh) for _ in range(3))
        key_mask = np.ones(t)
        key_mask[-1] = 0.0
        return lambda: ac.attention(q, kk, v, key_mask, h), [q, kk, v]

    @case
    def one_query_attention(normal, rng):  # two heads over a batch of two
        q, kk, v = normal(2, 1, 4), normal(2, t, 4), normal(2, t, 4)
        mask = batch_mask(rng)
        return lambda: ac.attention(q, kk, v, mask, 2), [q, kk, v]

    @case
    def batched_self_attention(normal, rng):  # the queries are the keys
        kk, v = normal(2, t, 4), normal(2, t, 4)
        mask = batch_mask(rng)
        return lambda: ac.attention(kk, kk, v, mask, 2), [kk, v]

    @case
    def embed_lookup(normal, rng):
        table, ids = normal(t + 2, d), rng.integers(0, t + 2, size=(2, t))
        return lambda: ac.embed_lookup(table, ids), [table]

    @case
    def cross_entropy_mean(normal, rng):
        x, labels = normal(t, d), rng.integers(0, d, size=t)
        return lambda: ac.cross_entropy_mean(x, labels), [x]

    @case
    def squared_error_mean(normal, rng):
        x, targets = normal(t, d), rng.normal(size=t * d)
        return lambda: ac.squared_error_mean(x, targets), [x]

    @case
    def feed_forward(normal, rng):
        batch = normal(2, t, d)
        w1, b1 = normal(d, f_width), normal(f_width)
        w2, b2 = normal(f_width, e_width), normal(e_width)
        return lambda: ac.feed_forward(batch, w1, b1, w2, b2), [batch, w1, b1, w2, b2]

    return cases


def test_all_ops_match_finite_differences():
    """Spec invariant: every differentiable op agrees with central differences
    to < 1e-6 relative error over six rounds of randomized shapes (64-bit mode).
    Each case draws from its own generator, so the round count does not move
    with the number of cases."""
    for round_no in range(6):
        for case in _random_op_cases(round_no):
            err = grad_check(case.f, case.params)
            assert err < 1e-6, f"{case.name} case of round {round_no} failed with rel err {err}"


def test_dropping_an_op_case_moves_no_other_case():
    for round_no in range(2):
        full = {case.name: case for case in _random_op_cases(round_no)}
        for name in full:
            for case in _random_op_cases(round_no, skip=frozenset({name})):
                kept = full[case.name]
                assert case.name != name
                for got, want in zip([*case.params, case.weights],
                                     [*kept.params, kept.weights], strict=True):
                    assert got.data.tobytes() == want.data.tobytes(), (name, case.name)
                assert case.f().data.tobytes() == kept.f().data.tobytes(), (name, case.name)


# arraycore's public functions that record no tape node
NOT_OPS = {"array", "backward", "set_debug_checks", "grad_check"}


def test_op_cases_cover_every_op():
    ops = {name for name in ac.__all__
           if inspect.isfunction(getattr(ac, name)) and name not in NOT_OPS}
    covered = {case.op for case in _random_op_cases(0)}
    assert ops <= covered, f"ops without a finite-difference case: {ops - covered}"


def test_tape_records_each_op_in_topological_order():
    rng = np.random.default_rng(4)
    x, w = array(rng.normal(size=(3, 4))), array(rng.normal(size=(4, 4)))
    gain, bias = array(np.ones(4)), array(np.zeros(4))
    h = ac.layer_norm(ac.feed_forward(ac.matmul(x, w), w, bias, w, bias), gain, bias)
    root = ac.sum_all(ac.add(h, h))
    tape = ac.Tape.trace(root)
    assert [n.op for n in tape.nodes] == ["matmul", "feed_forward", "layer_norm", "add",
                                          "sum_all"]
    assert tape.nodes[-1] is root.node


def test_dropped_graph_leaves_no_cyclic_garbage():
    gc.collect()
    gc.disable()
    try:
        x, w, b = array(np.ones((2, 3))), array(np.ones((3, 3))), array(np.zeros(3))
        root = ac.sum_all(ac.feed_forward(ac.matmul(x, w), w, b, w, b))
        backward(root)
        del root
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_tape_visits_each_node_once():
    x = array([2.0])
    y = ac.add(x, x)
    z = ac.add(y, y)  # diamond: y referenced twice
    tape = ac.Tape.trace(z)
    assert len(tape.nodes) == 2
    backward(z)
    assert x.grad.tolist() == [4.0]


def _one_call_per_op(rng):
    """op name -> a call of that op on small random float64 inputs."""
    x, y = array(rng.normal(size=(3, 4))), array(rng.normal(size=(3, 4)))
    w, v = array(rng.normal(size=(4, 4))), array(rng.normal(size=4))
    theta = layers(rng.normal(size=(2, 3, 4)))
    keys = array(rng.normal(size=(2, 3, 4)))
    mask = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    return {
        "matmul": lambda: ac.matmul(x, w),
        "add": lambda: ac.add(ac.add(x, y), v),  # the same shape, then a trailing axis
        "slice_rows": lambda: ac.slice_rows(x, 0, 2),
        "max_over_axis0": lambda: ac.max_over_axis0(theta),
        "mean_over_axis0": lambda: ac.mean_over_axis0(theta),
        "select_max_norm_axis0": lambda: ac.select_max_norm_axis0(theta),
        "layer_norm": lambda: ac.layer_norm(x, v, v),
        "feed_forward": lambda: ac.feed_forward(x, w, v, w, v),
        "dropout": lambda: ac.dropout(x, 0.5, np.random.default_rng(0)),
        "attention": lambda: ac.attention(keys, keys, keys, mask, 2),
        "embed_lookup": lambda: ac.embed_lookup(w, np.array([0, 3, 3])),
        "sum_all": lambda: ac.sum_all(x),
        "cross_entropy_mean": lambda: ac.cross_entropy_mean(x, np.array([0, 3, 1])),
        "squared_error_mean": lambda: ac.squared_error_mean(x, np.zeros(12)),
    }


class TestNoGrad:
    def test_every_op_records_no_node_inside_the_block(self):
        calls = _one_call_per_op(np.random.default_rng(8))
        assert set(calls) == {name for name in ac.__all__
                              if inspect.isfunction(getattr(ac, name)) and name not in NOT_OPS}
        for name, call in calls.items():
            assert call().node.op == name
            with ac.no_grad():
                out = call()
            assert out.node is None, name
            assert out.data.tobytes() == call().data.tobytes(), name

    def test_recording_resumes_after_the_block_even_when_it_raises(self):
        x = array([1.0])
        with ac.no_grad():
            with ac.no_grad():
                pass
            assert ac.add(x, x).node is None  # an inner block keeps the outer one off
        assert ac.add(x, x).node is not None
        with pytest.raises(ShapeError):
            with ac.no_grad():
                ac.add(x, array([1.0, 2.0]))
        assert ac.add(x, x).node is not None

    def test_backward_from_an_unrecorded_result_reaches_no_leaf(self):
        rng = np.random.default_rng(2)
        x, w = array(rng.normal(size=(3, 4))), array(rng.normal(size=(4, 4)))
        b = array(rng.normal(size=4))
        with ac.no_grad():
            root = ac.sum_all(ac.feed_forward(ac.matmul(x, w), w, b, w, b))
        backward(root)
        assert x.grad is None and w.grad is None and b.grad is None

    def test_debug_checks_still_run(self):
        ac.set_debug_checks(True)
        try:
            with ac.no_grad(), pytest.raises(ac.EvaluationError, match="'add'"):
                ac.add(array([np.inf]), array([0.0]))
        finally:
            ac.set_debug_checks(False)


class TestInPlaceKernels:
    """gelu's kernels (feed_forward's activation) and attention's work in place
    and layer_norm takes its means as sum / d; every bit stays as the
    expressions in tests/oracles.py give it."""

    def test_gelu_matches_out_of_place_expressions_bitwise(self):
        rng = np.random.default_rng(11)
        x = np.concatenate([rng.normal(0.0, 3.0, 3000), rng.uniform(-1e3, 1e3, 2000),
                            rng.uniform(-12.0, -8.0, 1000), rng.uniform(-4e-38, 4e-38, 1000),
                            [0.0, -0.0, 1e-30, -88.0]])  # tiny x: 0.5 * x is subnormal
        x = x.astype(np.float32)
        g = rng.normal(size=x.shape).astype(np.float32)
        want, want_grad = gelu_oracle(x, g)
        for a in (x, g):
            a.flags.writeable = False  # a write into an input raises
        out, t = ac._gelu(x)
        assert out.tobytes() == want.tobytes()
        t.flags.writeable = False
        assert ac._gelu(x, t)[0].tobytes() == want.tobytes()  # rebuilt from the tanh term
        assert ac._gelu_grad(x, t, g).tobytes() == want_grad.tobytes()
        spent = x.copy()  # no_grad's path: written into its own input
        out, t = ac._gelu(spent, spend=True)
        assert out is spent and t is None and out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("lead,tq,t,h,case", [
        pytest.param((4,), 6, 6, 2, "masked", id="lead0-6-6-2"),
        pytest.param((3,), 1, 7, 4, "masked", id="lead1-1-7-4"),
        pytest.param((4,), 6, 6, 2, "unmasked", id="all-ones-mask"),
        pytest.param((5,), 48, 48, 4, "unmasked", id="grid-t48"),
        pytest.param((5,), 48, 48, 4, "masked", id="grid-t48-masked"),
        pytest.param((4,), 6, 6, 2, "ties", id="tied-and-signed-zero-scores"),
        pytest.param((4,), 6, 6, 2, "nan", id="nan-score"),
    ])
    def test_attention_matches_out_of_place_softmax_bitwise(self, lead, tq, t, h, case):
        rng = np.random.default_rng(12)
        q = (rng.normal(size=lead + (tq, 8)) * 30.0).astype(np.float32)  # peaked rows
        k, v = (rng.normal(size=lead + (t, 8)).astype(np.float32) for _ in range(2))
        mask = (rng.random(lead + (t,)) > 0.4).astype(np.float64)
        mask[..., 0] = 1.0
        g = rng.normal(size=lead + (tq, 8)).astype(np.float32)
        if case != "masked":
            mask[:] = 1.0  # no key masked: the penalty pass is skipped
        if case == "ties":
            k[..., 2::2, :] = k[..., :1, :]  # keys 0, 2 and 4 score alike on every query
            k[..., [0, 4]] = np.sign(k[..., [0, 4]])
            q[..., 0, :] = 0.0  # a row of +0.0 scores
            q[..., 1, :] = 0.0  # scores +-(least subnormal); scaled by 0.5 they round to +-0.0
            q[..., 1, [0, 4]] = np.nextafter(np.float32(0), np.float32(1))
            scores = (q[..., 1:2, :4] @ np.swapaxes(k[..., :4], -1, -2)) * np.float32(0.5)
            assert not scores.any() and np.signbit(scores).any() and not np.signbit(scores).all()
        if case == "nan":
            k[..., 3, 1] = np.nan  # every query row of head 0 holds one NaN score
        want, want_p, want_grads = attention_oracle(q, k, v, mask, h, g)
        if case == "ties":
            assert ((want_p == want_p.max(axis=-1, keepdims=True)).sum(axis=-1) > 1).any()
        if case == "nan":
            assert np.isnan(want_p[:, 0]).all() and not np.isnan(want_p[:, 1]).any()
        leaves = [ac.Array(a.copy()) for a in (q, k, v)]
        out = ac.attention(*leaves, mask, h)
        backward(out, seed=g)
        assert out.data.tobytes() == want.tobytes()
        probs = attention_weights(head_scores(q, k, h), mask[..., None, None, :])
        assert probs.tobytes() == want_p.tobytes()
        for leaf, want_grad in zip(leaves, want_grads):
            assert leaf.grad.tobytes() == want_grad.tobytes()
        with ac.no_grad():  # the same bits without a tape
            assert ac.attention(*leaves, mask, h).data.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_layer_norm_matches_mean_expressions_bitwise(self, dtype):
        rng = np.random.default_rng(13)
        for shape, scale, offset in [((4, 8, 32), 1.0, 0.0), ((64, 48, 32), 1.0, 0.0),
                                     ((3, 17, 32), 1e3, 1e4), ((2, 5, 7), 1e-3, 0.0),
                                     ((6, 128), 30.0, -5.0), ((1, 1, 3), 1.0, 1.0),
                                     ((5, 2), 1.0, 0.0)]:
            x = (rng.normal(size=shape) * scale + offset).astype(dtype)
            gain, bias = (rng.normal(size=shape[-1]).astype(dtype) for _ in range(2))
            g = rng.normal(size=shape).astype(dtype)
            want, want_grads = layer_norm_oracle(x, gain, bias, g)
            leaves = [ac.Array(a.copy()) for a in (x, gain, bias)]
            out = ac.layer_norm(*leaves)
            backward(out, seed=g)
            assert out.data.tobytes() == want.tobytes(), shape
            for leaf, want_grad in zip(leaves, want_grads):
                assert leaf.grad.tobytes() == want_grad.tobytes(), shape

    @pytest.mark.parametrize("g_layout", ["contiguous", "strided"])
    def test_gelu_and_layer_norm_match_at_the_train_b32_shape(self, g_layout):
        rng = np.random.default_rng(14)
        for shape in [(32, 17, 128), (32, 17, 32)]:
            x = rng.normal(0.0, 2.0, size=shape).astype(np.float32)
            g = rng.normal(size=shape).astype(np.float32)
            if g_layout == "strided":  # the same values in another memory order
                g = np.swapaxes(np.ascontiguousarray(np.swapaxes(g, 0, 1)), 0, 1)
            x.flags.writeable = False  # the input is never written
            if shape[-1] == 128:
                want, want_grad = gelu_oracle(x, g)
                out, t = ac._gelu(x)
                want_grads, grads = (want_grad,), (ac._gelu_grad(x, t, g),)
            else:
                gain, bias = (rng.normal(size=shape[-1]).astype(np.float32) for _ in range(2))
                want, want_grads = layer_norm_oracle(x, gain, bias, g)
                leaves = [ac.Array(x.copy()), ac.Array(gain.copy()), ac.Array(bias.copy())]
                out = ac.layer_norm(*leaves)
                backward(out, seed=g)
                out, grads = out.data, [leaf.grad for leaf in leaves]
                assert leaves[0].data.tobytes() == x.tobytes()
            assert out.tobytes() == want.tobytes(), shape
            for got, want_grad in zip(grads, want_grads):
                assert got.tobytes() == want_grad.tobytes(), shape


class TestFeedForward:
    """feed_forward is the chain matmul -> add -> gelu -> matmul -> add as one
    op: forward, no_grad forward and all five gradients are byte for byte the
    chain's expressions in tests/oracles.py."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape, padded", [
        pytest.param((32, 17, 32), False, id="train-b32"),
        pytest.param((16, 48, 32), False, id="grid-t48"),
        pytest.param((6, 18, 32), True, id="padded"),
    ])
    def test_matches_the_chain_expressions_bitwise(self, dtype, shape, padded):
        rng = np.random.default_rng(17)
        d, f = shape[-1], 4 * shape[-1]
        x = rng.normal(size=shape).astype(dtype)
        w1, w2 = (rng.normal(0.0, 0.3, size=s).astype(dtype) for s in ((d, f), (f, d)))
        b1, b2 = (rng.normal(0.0, 0.1, size=n).astype(dtype) for n in (f, d))
        g = rng.normal(size=shape).astype(dtype)
        if padded:  # rows past each length: zeros in, and +-0.0 back, as a masked key gets
            pads = np.arange(shape[1]) >= rng.integers(6, 19, size=(shape[0], 1))
            x[pads] = 0.0
            g[pads] = np.copysign(0.0, rng.normal(size=(pads.sum(), d)))
        inputs = (x, w1, b1, w2, b2)
        want, want_grads = feed_forward_oracle(*inputs, g)
        leaves = [ac.Array(a.copy()) for a in inputs]
        out = ac.feed_forward(*leaves)
        backward(out, seed=g)
        assert out.data.tobytes() == want.tobytes()
        for leaf, want_grad in zip(leaves, want_grads):
            assert leaf.grad.tobytes() == want_grad.tobytes()
        with ac.no_grad():
            assert ac.feed_forward(*leaves).data.tobytes() == want.tobytes()
        for leaf, a in zip(leaves, inputs):  # no input is ever written
            assert leaf.data.tobytes() == a.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("f", [128, 20])
    @pytest.mark.parametrize("shape", [(4, 8, 32), (64, 17, 32), (16, 48, 32)],
                             ids=["train-b4", "eval-t17", "grid-t48"])
    def test_no_grad_returns_the_recorded_output_bitwise(self, dtype, f, shape):
        # under no_grad gelu runs in place in the op's own pre-activation
        rng = np.random.default_rng(23)
        d = shape[-1]
        inputs = [rng.normal(size=shape), rng.normal(0.0, 0.3, size=(d, f)),
                  rng.normal(0.0, 0.1, size=f), rng.normal(0.0, 0.3, size=(f, d)),
                  rng.normal(0.0, 0.1, size=d)]
        leaves = [ac.Array(a.astype(dtype)) for a in inputs]
        for leaf in leaves:
            leaf.data.flags.writeable = False  # a write into an input raises
        recorded = ac.feed_forward(*leaves)
        assert recorded.node is not None
        with ac.no_grad():
            out = ac.feed_forward(*leaves)
        assert out.node is None and out.dtype == dtype
        assert out.data.tobytes() == recorded.data.tobytes()

    @pytest.mark.parametrize("layout", ["contiguous", "offset"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("f", [128, 20])
    @pytest.mark.parametrize("shape", [(4, 8, 32), (32, 17, 32), (16, 48, 32)],
                             ids=["train-b4", "train-b32", "grid-t48"])
    def test_backward_rebuilds_the_forward_tanh_term_bitwise(self, monkeypatch, shape, f,
                                                              dtype, layout):
        # the node keeps h, not gelu's tanh term t: backward rebuilds t from h
        rng = np.random.default_rng(29)
        d = shape[-1]
        inputs = [rng.normal(size=shape), rng.normal(0.0, 0.3, size=(d, f)),
                  rng.normal(0.0, 0.1, size=f), rng.normal(0.0, 0.3, size=(f, d)),
                  rng.normal(0.0, 0.1, size=d)]
        leaves = [ac.Array(a.astype(dtype)) for a in inputs]
        x, w1, b1 = (leaf.data for leaf in leaves[:3])
        h = x @ w1 + b1
        if layout == "offset":  # one element past an aligned start, as most op outputs lie
            h = np.concatenate([np.zeros(1, dtype), h.ravel()])[1:].reshape(h.shape)
            assert h.ctypes.data % 64 != 0
        h.flags.writeable = False  # a write into the input raises
        want = np.tanh(ac._GELU_C * (h + ac._GELU_A * ((h * h) * h)))  # out of place
        assert ac._gelu_tanh(h).tobytes() == want.tobytes()
        built, gelu_tanh = [], ac._gelu_tanh

        def recording_gelu_tanh(pre):
            t = gelu_tanh(pre)
            built.append((pre.tobytes(), t.tobytes()))
            return t

        monkeypatch.setattr(ac, "_gelu_tanh", recording_gelu_tanh)
        backward(ac.feed_forward(*leaves), seed=rng.normal(size=shape).astype(dtype))
        assert built == [(h.tobytes(), want.tobytes())] * 2  # forward, then backward

    @pytest.mark.parametrize("shapes", [
        [(3,), (3, 5), (5,), (5, 2), (2,)],  # x without a row axis
        [(4, 3), (4, 5), (5,), (5, 2), (2,)],
        [(4, 3), (3, 5), (4,), (5, 2), (2,)],
        [(4, 3), (3, 5), (5,), (4, 2), (2,)],
        [(4, 3), (3, 5), (5,), (5, 2), (3,)],
        [(4, 3), (3, 5), (5,), (5, 2, 1), (2,)],
    ])
    def test_refuses_shapes_that_do_not_line_up_and_names_them(self, shapes):
        x, w1, b1, w2, b2 = (array(np.ones(s)) for s in shapes)
        with pytest.raises(ShapeError) as err:
            ac.feed_forward(x, w1, b1, w2, b2)
        assert str(err.value) == (
            f"feed_forward: x {shapes[0]}, w1 {shapes[1]}, b1 {shapes[2]}, w2 {shapes[3]}, "
            f"b2 {shapes[4]} are not (..., d), (d, f), (f,), (f, e), (e,)")


@pytest.mark.parametrize("pool", ["max_over_axis0", "mean_over_axis0",
                                  "select_max_norm_axis0"])
def test_pools_refuse_no_layers_and_layers_of_two_shapes(pool):
    op = getattr(ac, pool)
    with pytest.raises(ShapeError, match="empty layer list"):
        op([])
    with pytest.raises(ShapeError, match=r"layer shape mismatch \(2, 4\) vs \(2, 3\)"):
        op([array(np.ones((2, 3))), array(np.ones((2, 4)))])


POOLS = {"max_over_axis0": (ac.max_over_axis0, max_over_axis0_oracle),
         "select_max_norm_axis0": (ac.select_max_norm_axis0, select_max_norm_axis0_oracle)}


def _pool_input(case, k, dtype, rng):
    """A (k, 3, 5, 8) layer stack with the feature that ``case`` names, each
    placed at its own rows so that the cases do not mask one another."""
    theta = rng.normal(size=(k, 3, 5, 8)).astype(dtype)
    if case == "ties":  # whole vectors (so elements and norms) equal across layers
        theta[:, :, 0] = theta[0, :, 0]
        theta[k // 2, :, 1] = theta[0, :, 1]
        theta[k - 1, :, 2] = theta[0, :, 2]
    elif case == "signed-zeros":  # +-0.0 ties, each sign order, at otherwise negative rows
        theta[:, :, :3] = -np.abs(theta[:, :, :3])
        theta[0, :, 0] = -0.0
        theta[k - 1, :, 0] = 0.0
        theta[0, :, 1] = 0.0
        theta[k - 1, :, 1] = -0.0
        theta[:, :, 2] = -0.0
        theta[k // 2, :, 2, ::2] = 0.0
    elif case == "nan-one-layer":
        theta[k - 1, :, 0, 3] = np.nan
        theta[0, :, 1, 5] = np.nan
    elif case == "nan-two-layers":
        theta[0, :, 0, 3] = np.nan
        theta[k - 1, :, 0, 3] = np.nan  # and, in the vector, at another element
        theta[k - 1, :, 1, 6] = np.nan
        theta[k // 2, :, 1, 1] = np.nan
    elif case == "equal-norms":  # other values, the same norm bit for bit
        theta[:, :, 0] = theta[0, :, 0]
        theta[k - 1, :, 0] *= -1.0
        theta[k // 2, :, 1] = -theta[0, :, 1]
        theta[:, :, 2] = 0.0
    return theta


class TestPoolsMatchArgmaxBitwise:
    """The layer pools find their winners without an argmax over axis 0; the
    argmax, take_along_axis and put_along_axis expressions in tests/oracles.py,
    over the layers stacked, are the reference, forward and gradient, byte for
    byte."""

    @pytest.mark.parametrize("pool", sorted(POOLS))
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", ["random", "ties", "signed-zeros", "nan-one-layer",
                                      "nan-two-layers", "equal-norms"])
    def test_forward_and_gradient_bytes(self, pool, dtype, case):
        op, oracle = POOLS[pool]
        rng = np.random.default_rng(15)
        for k in (1, 3, 4):
            theta = _pool_input(case, k, dtype, rng)
            g = rng.normal(size=theta.shape[1:]).astype(dtype)
            want, want_grad = oracle(theta, g)
            leaves = [ac.Array(layer.copy()) for layer in theta]
            out = op(leaves)
            backward(out, seed=g)
            assert out.data.tobytes() == want.tobytes(), k
            assert np.stack([x.grad for x in leaves]).tobytes() == want_grad.tobytes(), k
            with ac.no_grad():
                assert op(leaves).data.tobytes() == want.tobytes(), k
            assert np.stack([x.data for x in leaves]).tobytes() == theta.tobytes()

    @pytest.mark.parametrize("pool", sorted(POOLS))
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_layer_given_twice_adds_both_slots_into_one_leaf(self, pool, dtype):
        op, oracle = POOLS[pool]
        rng = np.random.default_rng(16)
        for case in ("random", "ties", "signed-zeros", "nan-one-layer", "equal-norms"):
            a, b = _pool_input(case, 2, dtype, rng)
            g = rng.normal(size=a.shape).astype(dtype)
            want, want_grad = oracle(np.stack([a, b, a]), g)
            leaf_a, leaf_b = ac.Array(a.copy()), ac.Array(b.copy())
            out = op([leaf_a, leaf_b, leaf_a])
            backward(out, seed=g)
            assert out.data.tobytes() == want.tobytes(), case
            assert leaf_a.grad.tobytes() == (want_grad[0] + want_grad[2]).tobytes(), case
            assert leaf_b.grad.tobytes() == want_grad[1].tobytes(), case

    def test_the_cases_hold_what_they_name(self):
        rng = np.random.default_rng(15)
        for dtype in (np.float32, np.float64):
            theta = _pool_input("ties", 3, dtype, rng)
            assert ((theta == theta.max(axis=0)).sum(axis=0) > 1).any()
            theta = _pool_input("signed-zeros", 4, dtype, rng)
            top = theta.max(axis=0)
            assert (top == 0).any() and np.signbit(theta[0, :, 0]).all()
            assert not np.signbit(theta[0, :, 1]).any() and np.signbit(theta[3, :, 1]).all()
            for case in ("equal-norms", "signed-zeros"):
                theta = _pool_input(case, 4, dtype, rng)
                norms = np.sqrt((theta ** 2).sum(axis=-1))
                assert ((norms == norms.max(axis=0)).sum(axis=0) > 1).any()
                assert theta[0, :, 0].tobytes() != theta[3, :, 0].tobytes()  # other bits
            theta = _pool_input("nan-two-layers", 3, dtype, rng)
            assert (np.isnan(theta).any(axis=-1).sum(axis=0) == 2).any()


def _aliasing_graphs():
    """name -> build: build(leaves) records, over the leaves made by
    _aliasing_leaves, a graph in which one gradient buffer reaches several
    inputs or one array feeds several ops."""

    def score(a, l):  # a non-uniform functional, so every gradient element counts
        return ac.sum_all(ac.matmul(a, l["r"]))

    def ff(a, l):  # a recorded op of one array and its own weights
        return ac.feed_forward(a, l["w_in"], l["b_in"], l["w_out"], l["b_out"])

    def pooled(l):  # add hands both means one buffer; each mean returns one buffer thrice
        h, k = ff(ac.matmul(l["x"], l["w"]), l), ff(l["y"], l)
        ln = ac.layer_norm(h, l["gain"], l["bias"])
        return score(ac.add(ac.mean_over_axis0([h, h, ln]), ac.mean_over_axis0([k, k, k])), l)

    def shared_buffer(a, b):  # the outer add gives a the buffer the inner add then hands to b
        return ac.add(ac.add(a, b), a)

    def self_add(l):
        h = ff(l["x"], l)
        return score(ac.add(h, h), l)

    def diamond(l):
        h = ff(l["x"], l)
        return score(ff(ac.add(ac.matmul(h, l["w"]), ac.matmul(h, l["w2"])), l), l)

    def three_way_fan_out(l):
        h = ff(l["x"], l)
        return score(ac.add(ac.matmul(h, l["w"]), ac.add(ac.matmul(h, l["w2"]), h)), l)

    return {
        "add-of-a-leaf-to-itself": lambda l: score(ac.add(l["x"], l["x"]), l),
        "add-of-an-op-output-to-itself": self_add,
        "diamond": diamond,
        "three-way-fan-out": three_way_fan_out,
        "mean-of-one-array-twice": pooled,
        "leaves-sharing-a-buffer": lambda l: score(shared_buffer(l["x"], l["y"]), l),
        "op-outputs-sharing-a-buffer": lambda l: score(
            shared_buffer(ff(l["x"], l), ff(l["y"], l)), l),
        "leaf-used-by-two-ops": lambda l: score(ac.add(ac.matmul(l["x"], l["w"]), ac.add(
            ff(l["x"], l), ac.slice_rows(l["y"], 0, 3))), l),
    }


ALIASING_GRAPHS = sorted(_aliasing_graphs())


def _aliasing_leaves(rng, dtype):
    shapes = {"x": (3, 4), "y": (3, 4), "w": (4, 4), "w2": (4, 4), "r": (4, 1),
              "gain": (4,), "bias": (4,), "w_in": (4, 6), "b_in": (6,), "w_out": (6, 4),
              "b_out": (4,)}
    return {name: rng.normal(size=shape).astype(dtype) for name, shape in shapes.items()}


def _run_into_fresh_leaves(values, build, run):
    """Leaves over copies of values, and the root, after run(root) on a new
    graph over them."""
    leaves = {name: Array(v.copy()) for name, v in values.items()}
    root = build(leaves)
    run(root)
    return leaves, root


def _same_grads(got, want):
    return all((got[n].grad is None and want[n].grad is None)
               or got[n].grad.tobytes() == want[n].grad.tobytes() for n in want)


class TestFreeingBackward:
    """Backward frees each op output's gradient once its node has used it and
    stores first gradients uncopied; the leaves get the same bytes as from the
    copy-then-add loop in tests/oracles.py."""

    def test_no_bwd_writes_into_its_incoming_gradient(self):
        rng = np.random.default_rng(21)
        for name, call in _one_call_per_op(rng).items():
            out = call()
            g = rng.normal(size=out.shape).astype(out.data.dtype)
            g_before = g.copy()
            g.flags.writeable = False  # a write into it raises
            out.node.bwd(g)
            assert g.tobytes() == g_before.tobytes(), name

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("graph", ALIASING_GRAPHS)
    def test_leaf_gradients_match_the_copying_loop_and_intermediates_are_freed(
            self, dtype, graph):
        values = _aliasing_leaves(np.random.default_rng(22), dtype)
        build = _aliasing_graphs()[graph]
        got, root = _run_into_fresh_leaves(values, build, backward)
        want, _ = _run_into_fresh_leaves(values, build, run_backward_oracle)
        assert _same_grads(got, want)
        assert all(got[n].grad.dtype == dtype for n in ("x", "r"))
        nodes = ac.Tape.trace(root).nodes
        assert root.node in nodes and all(node.grad is None for node in nodes)

    @pytest.mark.parametrize("graph", ALIASING_GRAPHS)
    def test_a_second_backward_adds_what_a_fresh_graph_would(self, graph):
        values = _aliasing_leaves(np.random.default_rng(23), np.float32)
        build = _aliasing_graphs()[graph]
        twice, root = _run_into_fresh_leaves(values, build, backward)
        backward(root)
        fresh = {name: Array(v.copy()) for name, v in values.items()}
        backward(build(fresh))
        backward(build(fresh))
        assert _same_grads(twice, fresh)

    def test_a_gradient_of_another_dtype_is_cast_to_its_op_output(self):
        def build(l):  # hands the float64 layer_norm output a float32 gradient
            h = ac.layer_norm(l["x"], l["gain"], l["bias"])
            return Array(np.zeros(()), node=ac.Node(
                "to_float32", (h,), lambda g: (np.full(h.shape, 0.1, np.float32),)))

        values = {"x": np.array([[1.0, -2.0, 0.5]]), "gain": np.array([0.5, 2.0, -1.0]),
                  "bias": np.zeros(3)}
        got, _ = _run_into_fresh_leaves(values, build, backward)
        want, _ = _run_into_fresh_leaves(values, build, run_backward_oracle)
        assert got["x"].grad.dtype == np.float64 and _same_grads(got, want)
