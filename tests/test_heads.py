import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clspool import arraycore as ac
from clspool.arraycore import Array, grad_check
from clspool.encoder import LayerStack
from clspool.heads import (
    ConfigurationError,
    HeadKind,
    HeadParams,
    SliceError,
    aggregate,
    cls_attend,
    head_forward,
    init_head_params,
    parse_head_spec,
    xavier_uniform_init,
)


def random_stack(rng, n_layers=4, seq=5, d=8, mask=None):
    acts = [Array(rng.normal(size=(seq, d))) for _ in range(n_layers)]
    m = np.ones(seq) if mask is None else np.asarray(mask, dtype=float)
    return LayerStack(activations=acts, mask=m)


def make_params(rng, d=8, n_classes=2, num_heads=2):
    return init_head_params(HeadKind("mha", num_heads=num_heads), d, n_classes, rng)


NO_ATTENTION = HeadParams(w_cls=Array(np.zeros((8, 2))), b_cls=Array(np.zeros(2)))


def rep(spec, stack, params=NO_ATTENTION):
    """The representation head `spec` hands to its classifier."""
    return aggregate(parse_head_spec(spec), stack, params)


def last_layers(stack, k):
    """The last k layers, oldest first, as a pool takes them."""
    return stack.activations[-k:]


def mha_head_oracle(query, context, params, mask, h):
    """Independent scalar-loop reimplementation of the extra attention layer."""
    d = context.shape[1]
    dh = d // h
    q = query @ params.wq.data
    k = context @ params.wk.data
    v = context @ params.wv.data
    concat = []
    for s in range(h):
        qs = q[0, s * dh:(s + 1) * dh]
        scores = []
        for t in range(context.shape[0]):
            ks = k[t, s * dh:(s + 1) * dh]
            dot = sum(float(qs[j]) * float(ks[j]) for j in range(dh)) / math.sqrt(dh)
            if mask[t] == 0:
                dot += -1e9
            scores.append(dot)
        top = max(scores)
        exps = [math.exp(x - top) for x in scores]
        z = sum(exps)
        w = [x / z for x in exps]
        for j in range(dh):
            concat.append(sum(w[t] * float(v[t, s * dh + j])
                              for t in range(context.shape[0])))
    return np.array(concat) @ params.wo.data


def pool_oracle(layers, pool):
    """Scalar-loop pool of equal-shaped (T, d) layers, position by position:
    element-wise max or mean, or the vector of largest L2 norm (ties deepest)."""
    t, d = layers[0].shape
    out = np.zeros((t, d))
    for i in range(t):
        if pool == "norm":
            norms = [math.sqrt(sum(float(x) ** 2 for x in layer[i])) for layer in layers]
            best = max(range(len(layers)), key=lambda l: (norms[l], l))
            out[i] = layers[best][i]
            continue
        for j in range(d):
            column = [float(layer[i, j]) for layer in layers]
            out[i, j] = max(column) if pool == "max" else sum(column) / len(column)
    return out


class TestBaselineAndMaxCls:
    def test_baseline_is_last_cls(self):
        stack = random_stack(np.random.default_rng(5))
        assert np.array_equal(rep("baseline", stack).data,
                              stack.activations[-1].data[0:1])

    def test_single_layer_stack(self):
        stack = random_stack(np.random.default_rng(7), n_layers=1)
        assert np.array_equal(rep("baseline", stack).data,
                              stack.activations[0].data[0:1])

    def test_maxcls_k1_equals_baseline(self):
        stack = random_stack(np.random.default_rng(8))
        assert np.array_equal(rep("maxcls:k=1", stack).data, rep("baseline", stack).data)

    def test_maxcls_fixed_example(self):
        acts = [Array(np.array([[1.0, -2.0]])), Array(np.array([[0.0, 4.0]])),
                Array(np.array([[-1.0, 3.0]]))]
        stack = LayerStack(activations=acts, mask=np.ones(1))
        assert rep("maxcls:k=3", stack).data.tolist() == [[1.0, 4.0]]

    def test_maxcls_idempotent_on_equal_layers(self):
        v = np.random.default_rng(9).normal(size=(1, 8))
        acts = [Array(v.copy()) for _ in range(3)]
        stack = LayerStack(activations=acts, mask=np.ones(1))
        assert np.array_equal(rep("maxcls:k=3", stack).data, v)

    def test_maxcls_dominates_every_layer(self):
        stack = random_stack(np.random.default_rng(10))
        pooled = rep("maxcls:k=4", stack).data
        for y in stack.activations:
            assert np.all(pooled >= y.data[0:1])

    def test_maxcls_positive_homogeneity(self):
        rng = np.random.default_rng(11)
        for c in (0.5, 2.0, 3.7):
            stack = random_stack(rng)
            scaled = LayerStack(
                activations=[Array(c * y.data) for y in stack.activations],
                mask=stack.mask)
            assert np.array_equal(rep("maxcls:k=3", scaled).data,
                                  c * rep("maxcls:k=3", stack).data)


class TestClsAttend:
    def test_singleton_context(self):
        rng = np.random.default_rng(12)
        params = make_params(rng, d=8)
        ctx = Array(rng.normal(size=(1, 8)))
        out = cls_attend(Array(ctx.data[0:1].copy()), ctx, params, np.ones(1), num_heads=2)
        # the one key's weight is exactly 1.0, so the output is its value, bit for bit
        want = (ctx.data @ params.wv.data) @ params.wo.data
        assert np.array_equal(out.data, want)

    def test_identical_rows_swamp_attention(self):
        rng = np.random.default_rng(13)
        params = make_params(rng, d=8)
        row = rng.normal(size=8)
        ctx = Array(np.tile(row, (4, 1)))
        query = Array(rng.normal(size=(1, 8)))
        out = cls_attend(query, ctx, params, np.ones(4), num_heads=2)
        want = (row @ params.wv.data) @ params.wo.data
        assert np.allclose(out.data, want, atol=1e-10)

    def test_two_token_single_head_by_hand(self):
        params = HeadParams(
            w_cls=Array(np.zeros((2, 2))), b_cls=Array(np.zeros(2)),
            wq=Array(np.array([[1.0, 0.0], [0.0, 1.0]])),
            wk=Array(np.array([[0.0, 1.0], [1.0, 0.0]])),
            wv=Array(np.array([[2.0, 0.0], [0.0, 1.0]])),
            wo=Array(np.array([[1.0, 1.0], [0.0, 1.0]])),
        )
        query = np.array([[1.0, 2.0]])
        ctx = np.array([[1.0, 0.0], [0.0, 1.0]])
        out = cls_attend(Array(query.copy()), Array(ctx.copy()), params,
                         np.ones(2), num_heads=1)
        # by hand: q = [1,2]; keys are rows of ctx @ wk = [[0,1],[1,0]]
        # scores = [q.k0, q.k1]/sqrt(2) = [2, 1]/sqrt(2)
        s0, s1 = 2.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)
        w0 = math.exp(s0) / (math.exp(s0) + math.exp(s1))
        w1 = 1.0 - w0
        # values are rows of ctx @ wv = [[2,0],[0,1]]
        mixed = np.array([2.0 * w0, 1.0 * w1])
        want = mixed @ params.wo.data
        assert np.allclose(out.data, [want], atol=1e-12)

    def test_masked_context_rows_do_not_change_the_output(self):
        rng = np.random.default_rng(14)
        params = make_params(rng, d=8)
        mask = np.array([1, 1, 1, 1, 0, 0], dtype=float)
        for _ in range(20):
            ctx = rng.normal(size=(6, 8))
            query = ctx[0:1].copy()
            out = cls_attend(Array(query), Array(ctx), params, mask, num_heads=2)
            ctx[4:] = rng.normal(scale=100.0, size=(2, 8))
            again = cls_attend(Array(query), Array(ctx), params, mask, num_heads=2)
            assert np.array_equal(again.data, out.data)

    def test_missing_projections(self):
        params = HeadParams(w_cls=Array(np.zeros((4, 2))), b_cls=Array(np.zeros(2)))
        with pytest.raises(ConfigurationError):
            cls_attend(Array(np.zeros((1, 4))), Array(np.zeros((2, 4))), params,
                       np.ones(2))


class TestMhaHeads:
    def test_mha_matches_loop_oracle(self):
        rng = np.random.default_rng(15)
        stack = random_stack(rng, d=8)
        params = make_params(rng, d=8)
        got = rep("mha:h=2", stack, params)
        want = mha_head_oracle(stack.activations[-1].data[0:1],
                               stack.activations[-1].data, params,
                               stack.mask, h=2)
        assert np.allclose(got.data, [want], atol=1e-10)

    def test_mha_masked_to_cls_only_equals_singleton(self):
        rng = np.random.default_rng(16)
        stack = random_stack(rng, d=8, mask=[1.0, 0, 0, 0, 0])
        params = make_params(rng, d=8)
        masked = rep("mha:h=2", stack, params)
        solo_stack = LayerStack(
            activations=[ac.slice_rows(y, 0, 1) for y in stack.activations],
            mask=np.ones(1))
        solo = rep("mha:h=2", solo_stack, params)
        assert np.allclose(masked.data, solo.data, atol=1e-12)

    def test_maxseq_k1_is_mha_bitwise(self):
        rng = np.random.default_rng(17)
        stack = random_stack(rng, d=8)
        params = make_params(rng, d=8)
        a = rep("maxseq+mha:k=1,h=2", stack, params)
        b = rep("mha:h=2", stack, params)
        assert np.array_equal(a.data, b.data)

    def test_meanseq_and_normseq_k1_are_mha_bitwise(self):
        rng = np.random.default_rng(18)
        stack = random_stack(rng, d=8)
        params = make_params(rng, d=8)
        want = rep("mha:h=2", stack, params).data
        assert np.array_equal(rep("meanseq+mha:k=1,h=2", stack, params).data, want)
        assert np.array_equal(rep("normseq+mha:k=1,h=2", stack, params).data, want)

    def test_maxseq_dominant_layer_collapses_to_mha(self):
        rng = np.random.default_rng(19)
        base = rng.normal(size=(5, 8))
        dominant = base + 10.0  # elementwise above every other layer
        acts = [Array(base - rng.uniform(0, 1, size=(5, 8))) for _ in range(3)]
        acts.append(Array(dominant.copy()))
        stack = LayerStack(activations=acts, mask=np.ones(5))
        params = make_params(rng, d=8)
        pooled_out = rep("maxseq+mha:k=4,h=2", stack, params)
        alone = LayerStack(activations=[Array(dominant.copy())], mask=np.ones(5))
        assert np.array_equal(pooled_out.data, rep("mha:h=2", alone, params).data)

    def test_maxseq_pool_dominates_layers(self):
        rng = np.random.default_rng(20)
        stack = random_stack(rng)
        pooled = ac.max_over_axis0(last_layers(stack, 3)).data
        for y in stack.activations[-3:]:
            assert np.all(pooled >= y.data)

    def test_meanseq_cancellation(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(4, 8))
        stack = LayerStack(activations=[Array(x.copy()), Array(-x)], mask=np.ones(4))
        params = make_params(rng, d=8)
        pooled = ac.mean_over_axis0(last_layers(stack, 2))
        assert np.allclose(pooled.data, 0.0, atol=1e-15)
        out = cls_attend(ac.slice_rows(pooled, 0, 1), pooled, params,
                         np.ones(4), num_heads=2)
        assert np.allclose(out.data, 0.0, atol=1e-15)

    def test_normselect_picks_larger_norm_vector(self):
        acts = [Array(np.array([[3.0, 4.0]])), Array(np.array([[1.0, 0.0]]))]
        stack = LayerStack(activations=acts, mask=np.ones(1))
        sel = ac.select_max_norm_axis0(last_layers(stack, 2))
        assert sel.data.tolist() == [[3.0, 4.0]]

    def test_normselect_tie_prefers_deepest(self):
        acts = [Array(np.array([[0.0, 5.0]])), Array(np.array([[5.0, 0.0]]))]
        stack = LayerStack(activations=acts, mask=np.ones(1))
        sel = ac.select_max_norm_axis0(last_layers(stack, 2))
        assert sel.data.tolist() == [[5.0, 0.0]]

    def test_normselect_selected_norm_dominates(self):
        rng = np.random.default_rng(22)
        stack = random_stack(rng)
        sel = ac.select_max_norm_axis0(last_layers(stack, 3)).data
        sel_norms = np.sqrt((sel ** 2).sum(-1))
        for y in stack.activations[-3:]:
            assert np.all(sel_norms >= np.sqrt((y.data ** 2).sum(-1)) - 1e-12)


def classify_cls(cls_row, w_cls, b_cls):
    """head_forward's linear classifier over a one-layer stack whose [CLS] row is
    cls_row; its second row holds other values, which the classifier must not read."""
    cls_row = np.asarray(cls_row, dtype=float)
    stack = LayerStack(activations=[Array(np.stack([cls_row, 7.0 - 3.0 * cls_row]))],
                       mask=np.ones(2))
    params = HeadParams(w_cls=Array(np.asarray(w_cls, dtype=float)),
                        b_cls=Array(np.asarray(b_cls, dtype=float)))
    return head_forward(HeadKind("baseline"), stack, params)


class TestClassifier:
    def test_zero_weights(self):
        out = classify_cls(np.ones(4), np.zeros((4, 3)), np.zeros(3))
        assert np.all(out.data == 0.0)

    def test_fixed_example(self):
        out = classify_cls([1.0, 2.0], [[1.0, 0.0], [0.0, 1.0]], [0.5, -0.5])
        assert out.data.tolist() == [[1.5, 1.5]]
        # the aggregate, then the classifier's two nodes: matmul, then add
        assert [n.op for n in ac.Tape.trace(out).nodes] == ["slice_rows", "matmul", "add"]

    def test_regression_shape(self):
        out = classify_cls(np.ones(4), np.ones((4, 1)), np.zeros(1))
        assert out.shape == (1, 1)


class TestXavier:
    def test_bound(self):
        d = 16
        w = xavier_uniform_init(d, d, np.random.default_rng(0))
        assert np.all(np.abs(w.data) <= math.sqrt(3.0 / d))

    def test_mean_clt_bound(self):
        rows, cols = 100, 1000  # 1e5 draws
        a = math.sqrt(6.0 / (rows + cols))
        w = xavier_uniform_init(rows, cols, np.random.default_rng(1))
        bound = 3.0 * a / math.sqrt(12.0 * rows * cols)
        assert abs(w.data.mean()) < bound

    def test_deterministic(self):
        w1 = xavier_uniform_init(5, 7, np.random.default_rng(42))
        w2 = xavier_uniform_init(5, 7, np.random.default_rng(42))
        assert np.array_equal(w1.data, w2.data)


class TestHeadForward:
    def test_identity_collapses_bitwise(self):
        rng = np.random.default_rng(23)
        params = make_params(rng, d=8)
        for _ in range(100):
            stack = random_stack(rng, d=8)
            base = head_forward(HeadKind("baseline"), stack, params)
            mc1 = head_forward(HeadKind("maxcls", k=1), stack, params)
            assert np.array_equal(base.data, mc1.data)
            mha = head_forward(HeadKind("mha", num_heads=2), stack, params)
            for kind in ("maxseq+mha", "meanseq+mha", "normseq+mha"):
                got = head_forward(HeadKind(kind, k=1, num_heads=2), stack, params)
                assert np.array_equal(mha.data, got.data)

    @pytest.mark.parametrize("spec, pool", [
        ("baseline", None), ("maxcls:k=3", "max"), ("mha:h=2", None),
        ("maxseq+mha:k=3,h=2", "max"), ("meanseq+mha:k=3,h=2", "mean"),
        ("normseq+mha:k=3,h=2", "norm"),
    ])
    def test_head_matches_standalone_oracle(self, spec, pool):
        rng = np.random.default_rng(24)
        stack = random_stack(rng, d=8)
        params = make_params(rng, d=8)
        kind = parse_head_spec(spec)
        got = head_forward(kind, stack, params)
        # independent pipeline: loop pool, row 0, loop attention, loop classify
        pooled = pool_oracle([y.data for y in stack.activations[-kind.k:]], pool) \
            if pool else stack.activations[-1].data
        rep = mha_head_oracle(pooled[0:1], pooled, params, stack.mask, h=2) \
            if kind.uses_attention else pooled[0]
        want = rep @ params.w_cls.data + params.b_cls.data
        assert np.allclose(got.data, [want], atol=1e-10)

    @pytest.mark.parametrize("spec", ["maxcls:k=3", "maxseq+mha:k=3,h=2"])
    def test_k_beyond_the_stack_raises(self, spec):
        stack = random_stack(np.random.default_rng(25), n_layers=2, d=8)
        with pytest.raises(SliceError):
            aggregate(parse_head_spec(spec), stack, make_params(np.random.default_rng(0)))

    def test_params_mismatch_raises(self):
        stack = random_stack(np.random.default_rng(25), d=8)
        bare = HeadParams(w_cls=Array(np.zeros((8, 2))), b_cls=Array(np.zeros(2)))
        with pytest.raises(ConfigurationError):
            head_forward(HeadKind("mha", num_heads=2), stack, bare)

    def test_grad_check_every_head(self):
        rng = np.random.default_rng(26)
        acts = [Array(rng.normal(size=(4, 8))) for _ in range(3)]
        stack = LayerStack(activations=acts, mask=np.ones(4))
        params = make_params(rng, d=8)
        plist = acts + [p for _, p in params.named_parameters()]
        kinds = [HeadKind("baseline"), HeadKind("maxcls", k=2),
                 HeadKind("mha", num_heads=2),
                 HeadKind("maxseq+mha", k=2, num_heads=2),
                 HeadKind("meanseq+mha", k=3, num_heads=2),
                 HeadKind("normseq+mha", k=2, num_heads=2)]
        for kind in kinds:
            def f():
                return ac.sum_all(head_forward(kind, stack, params))

            err = grad_check(f, plist)
            assert err < 1e-4, f"{kind.spec()}: rel err {err}"


class TestHeadSpecStrings:
    @pytest.mark.parametrize("spec,kind,k,h", [
        ("baseline", "baseline", 3, 4),
        ("maxcls:k=2", "maxcls", 2, 4),
        ("maxcls", "maxcls", 3, 4),
        ("mha:h=8", "mha", 3, 8),
        ("maxseq+mha:k=3,h=4", "maxseq+mha", 3, 4),
        ("meanseq+mha:k=2,h=2", "meanseq+mha", 2, 2),
        ("normseq+mha:h=4,k=1", "normseq+mha", 1, 4),
    ])
    def test_parse(self, spec, kind, k, h):
        got = parse_head_spec(spec)
        assert (got.kind, got.k, got.num_heads) == (kind, k, h)

    def test_roundtrip(self):
        for spec in ("baseline", "maxcls:k=3", "mha:h=4", "maxseq+mha:k=3,h=4",
                     "meanseq+mha:k=3,h=4", "normseq+mha:k=3,h=4"):
            assert parse_head_spec(spec).spec() == spec

    def test_unknown_kind_lists_valid(self):
        with pytest.raises(ConfigurationError) as exc:
            parse_head_spec("fancy")
        assert "baseline" in str(exc.value) and "maxseq+mha" in str(exc.value)

    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=24) | st.from_regex(
        r" ?(baseline|maxcls|mha|maxseq\+mha|meanseq\+mha|normseq\+mha)"
        r"(:[ hkx]{0,2}=?-?[0-9]{0,3}(,[hk]=[0-9a]{0,2})*)? ?", fullmatch=True))
    def test_random_spec_parses_or_fails_cleanly(self, spec):
        try:
            kind = parse_head_spec(spec)
        except ConfigurationError:
            return
        assert parse_head_spec(kind.spec()) == kind

    def test_bad_arguments(self):
        with pytest.raises(ConfigurationError):
            parse_head_spec("maxcls:k=x")
        with pytest.raises(ConfigurationError):
            parse_head_spec("baseline:k=1")
        with pytest.raises(ConfigurationError):
            parse_head_spec("mha:k=2")
