import numpy as np
import pytest

from clspool import arraycore as ac
from clspool.arraycore import Array, grad_check
from clspool.encoder import (
    EncoderConfig,
    VocabularyError,
    encode,
    init_encoder_params,
    self_attention,
)


def toy_params(vocab=12, n_layers=2, d=8, heads=2, t_max=8, seed=0, dtype=np.float64):
    cfg = EncoderConfig(vocab_size=vocab, num_layers=n_layers, d_model=d,
                        num_heads_encoder=heads, max_seq_len=t_max, dropout=0.0)
    return init_encoder_params(cfg, np.random.default_rng(seed), dtype=dtype)


class TestEncode:
    def test_shape_contract(self):
        params = toy_params()
        stack = encode(params, [[1, 4, 5, 6, 7]])  # one sequence is a batch of one
        assert stack.num_layers == 2
        assert stack.mask.shape == (1, 5)
        for y in stack.activations:
            assert y.shape == (1, 5, 8)

    def test_batched_shape_contract(self):
        params = toy_params()
        ids = np.array([[1, 4, 5], [1, 6, 0]])
        mask = np.array([[1, 1, 1], [1, 1, 0]], dtype=float)
        stack = encode(params, ids, mask)
        for y in stack.activations:
            assert y.shape == (2, 3, 8)

    def test_deterministic(self):
        params = toy_params(seed=3)
        a = encode(params, [[1, 4, 5, 6]])
        b = encode(params, [[1, 4, 5, 6]])
        for ya, yb in zip(a.activations, b.activations):
            assert np.array_equal(ya.data, yb.data)

    def test_padded_rows_are_zero(self):
        params = toy_params()
        stack = encode(params, [[1, 4, 0, 0]], mask=np.array([[1.0, 1.0, 0.0, 0.0]]))
        for y in stack.activations:
            assert np.all(y.data[0, 2:] == 0.0)
            assert np.any(y.data[0, :2] != 0.0)

    def test_padding_never_leaks_into_valid_positions(self):
        # changing a padded token's id leaves every valid activation untouched
        rng = np.random.default_rng(11)
        params = toy_params(seed=5)
        for _ in range(50):
            seq = int(rng.integers(3, 8))
            n_valid = int(rng.integers(2, seq))
            ids = rng.integers(1, 12, size=seq)
            ids[0] = 1
            mask = np.zeros(seq)
            mask[:n_valid] = 1.0
            base = encode(params, ids[None, :], mask[None, :])
            mutated = ids.copy()
            mutated[n_valid:] = rng.integers(1, 12, size=seq - n_valid)
            other = encode(params, mutated[None, :], mask[None, :])
            for ya, yb in zip(base.activations, other.activations):
                assert np.array_equal(ya.data[0, :n_valid], yb.data[0, :n_valid])

    def test_vocab_error(self):
        with pytest.raises(VocabularyError):
            encode(toy_params(vocab=10), [[1, 10]])

    def test_empty_sequence_error(self):
        with pytest.raises(ValueError):
            encode(toy_params(), [[]])
        with pytest.raises(ValueError):  # a bare sequence is not a batch
            encode(toy_params(), [1, 4, 5])

    def test_dropout_seeded(self):
        params = toy_params()
        a = encode(params, [[1, 4, 5]], dropout_p=0.5, rng=np.random.default_rng(7))
        b = encode(params, [[1, 4, 5]], dropout_p=0.5, rng=np.random.default_rng(7))
        c = encode(params, [[1, 4, 5]], dropout_p=0.5, rng=np.random.default_rng(8))
        assert np.array_equal(a.activations[-1].data, b.activations[-1].data)
        assert not np.array_equal(a.activations[-1].data, c.activations[-1].data)


class TestSelfAttention:
    def test_singleton_attends_to_itself(self):
        # T=1: the attention weight matrix is [[1.0]], so out = x Wv Wo
        params = toy_params(d=4, heads=1)
        layer = params.layers[0]
        x = Array(np.random.default_rng(0).normal(size=(1, 4)))
        out = self_attention(x, layer, np.ones(1), num_heads=1)
        want = x.data @ layer.wv.data @ layer.wo.data
        assert np.allclose(out.data, want, atol=1e-12)

    def test_equal_keys_give_uniform_weights(self):
        # zero key projection makes all keys equal -> every query sees the
        # uniform average of the value rows
        params = toy_params(d=4, heads=2)
        layer = params.layers[0]
        layer.wk.data[:] = 0.0
        x = Array(np.random.default_rng(1).normal(size=(5, 4)))
        out = self_attention(x, layer, np.ones(5), num_heads=2)
        v_mean = (x.data @ layer.wv.data).mean(axis=0)
        want = np.tile(v_mean @ layer.wo.data, (5, 1))
        assert np.allclose(out.data, want, atol=1e-12)

    def test_two_token_single_head_by_hand(self):
        params = toy_params(d=2, heads=1)
        layer = params.layers[0]
        for w in (layer.wq, layer.wk, layer.wv, layer.wo):
            w.data[:] = np.eye(2)
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        out = self_attention(Array(x.copy()), layer, np.ones(2), num_heads=1)
        # manual computation: q = k = v = x
        scores = (x @ x.T) / np.sqrt(2.0)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        attn = e / e.sum(axis=1, keepdims=True)
        want = attn @ x
        assert np.allclose(out.data, want, atol=1e-12)

    def test_masked_key_gets_no_weight(self):
        params = toy_params(d=4, heads=1)
        layer = params.layers[0]
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 4))
        out_masked = self_attention(Array(x.copy()), layer, np.array([1.0, 1.0, 0.0]), 1)
        x2 = x.copy()
        x2[2] = rng.normal(size=4)  # only the masked row differs
        out_masked2 = self_attention(Array(x2), layer, np.array([1.0, 1.0, 0.0]), 1)
        assert np.array_equal(out_masked.data[:2], out_masked2.data[:2])


def test_full_encoder_grad_check():
    """Loss through the whole encoder matches finite differences (64-bit)."""
    params = toy_params(vocab=10, n_layers=2, d=8, heads=2, t_max=4, seed=9)
    ids = np.array([[1, 4, 5, 0]])
    mask = np.array([[1.0, 1.0, 1.0, 0.0]])
    plist = [p for _, p in params.named_parameters()]
    # probe at a well-conditioned point: the 0.02-std init leaves attention
    # gradients below the finite-difference noise floor, and very large
    # weights push gelu inputs into tails central differences cannot resolve
    redraw = np.random.default_rng(9)
    for p in plist:
        if p.data.ndim == 2:
            p.data[:] = redraw.normal(0.0, 0.25, p.data.shape)

    def f():
        stack = encode(params, ids, mask)
        return ac.sum_all(ac.gelu(ac.slice_rows(stack.activations[1], 0, 1)))

    err = grad_check(f, plist, step=1e-5)  # all coordinates
    assert err < 1e-4
