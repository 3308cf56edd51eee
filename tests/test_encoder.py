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
from clspool.training import TrainConfig, build_model
from oracles import position_grad_oracle


def toy_params(vocab=12, n_layers=2, d=8, heads=2, t_max=8, seed=0, dtype=np.float64):
    cfg = EncoderConfig(vocab_size=vocab, num_layers=n_layers, d_model=d,
                        num_heads_encoder=heads, max_seq_len=t_max, dropout=0.0)
    return init_encoder_params(cfg, np.random.default_rng(seed), dtype=dtype)


@pytest.mark.parametrize("cfg", [
    EncoderConfig(vocab_size=50),
    EncoderConfig(vocab_size=12, num_layers=1, d_model=8, num_heads_encoder=2, max_seq_len=8),
    EncoderConfig(vocab_size=30, num_layers=3, d_model=12, num_heads_encoder=3, d_ff=20),
])
def test_num_parameters_counts_what_init_draws(cfg):
    params = init_encoder_params(cfg, np.random.default_rng(0))
    assert cfg.num_parameters == sum(p.size for _, p in params.named_parameters())


@pytest.mark.parametrize("d_ff", [0, -5])
def test_a_d_ff_below_one_is_refused_with_its_value(d_ff):
    # the other sizes' refusals are driven through cli.main, which sets no d_ff
    with pytest.raises(ValueError) as err:
        EncoderConfig(vocab_size=10, d_ff=d_ff)
    assert str(err.value) == f"EncoderConfig: d_ff must be >= 1, got {d_ff}"


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


class TestUnpaddedPath:
    """The attention mask alone keeps padding out, so a padded batch records the
    graph of an unpadded one."""

    @staticmethod
    def _baseline_step_nodes(mask):
        # the train-b4 benchmark shape: B=4, T=8, the 4-layer d=32 encoder, dropout 0.1
        enc = EncoderConfig(vocab_size=50, num_layers=4, d_model=32, num_heads_encoder=4,
                            max_seq_len=64, dropout=0.1)
        model = build_model(TrainConfig(encoder=enc, seed=1), n_classes=2)
        ids = np.random.default_rng(5).integers(1, 50, size=(4, 8))
        logits = model.forward(ids, mask, dropout_p=0.1, rng=np.random.default_rng(6))
        loss = ac.cross_entropy_mean(logits, np.array([0, 1, 1, 0]))
        return len(ac.Tape.trace(loss).nodes)

    def test_train_b4_baseline_step_records_56_nodes(self):
        assert self._baseline_step_nodes(np.ones((4, 8))) == 56

    def test_padded_baseline_step_records_the_same_56_nodes(self):
        mask = (np.arange(8) < np.array([[8], [5], [3], [1]])).astype(float)
        assert self._baseline_step_nodes(mask) == 56


def test_position_gradient_matches_a_scatter_over_position_ids():
    """pos_emb's gradient is the batch sum of the incoming gradient, written into
    its first T rows. Added into a zeroed buffer, as the optimizer holds it, it
    is the old scatter's bit for bit; read raw it is equal, as a coordinate that
    is -0.0 in every sequence may sum to -0.0 where the scatter gave +0.0."""
    params = toy_params(dtype=np.float32)
    ids = np.array([[1, 4, 5, 6, 0, 0], [1, 7, 0, 0, 0, 0], [1, 8, 9, 10, 11, 3]])
    mask = (ids != 0).astype(float)
    stack = encode(params, ids, mask)
    nodes = ac.Tape.trace(ac.sum_all(stack.activations[-1])).nodes
    emb = next(n for n in nodes if n.op == "add")  # every later add depends on it
    rng = np.random.default_rng(13)
    g = rng.normal(size=(3, 6, 8)).astype(np.float32)
    pads = mask == 0.0  # a padded row reaches the loss only as a masked key: +-0.0
    g[pads] = np.copysign(0.0, rng.normal(size=(pads.sum(), 8)))
    g[:, -1, 0] = -0.0
    root = Array(np.empty(g.shape, np.float32), node=emb)  # backward from the sum, seeded g

    def pos_grad(preset):
        params.pos_emb.grad = preset
        ac.backward(root, seed=g)
        return params.pos_emb.grad

    want = position_grad_oracle(params.pos_emb.shape, g)
    assert np.array_equal(pos_grad(None), want)
    held = pos_grad(np.zeros_like(params.pos_emb.data))
    assert held.tobytes() == (np.zeros_like(want) + want).tobytes()


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

    eye, zeros = Array(np.eye(8)), Array(np.zeros(8))
    ones, zero = Array(np.ones((8, 1))), Array(np.zeros(1))

    def f():
        stack = encode(params, ids, mask)
        # sum(gelu(row)) through feed_forward's kernels: identity in, ones out
        return ac.sum_all(ac.feed_forward(ac.slice_rows(stack.activations[1], 0, 1),
                                          eye, zeros, ones, zero))

    err = grad_check(f, plist)  # all coordinates
    assert err < 1e-4
