import gc
import math
import multiprocessing
import os
import platform
import struct
import subprocess
import sys
import textwrap
import threading
import tracemalloc
import weakref
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clspool import arraycore as ac
from clspool.arraycore import Array, backward, grad_check
from clspool.data import Example, SchemaError, SyntheticTaskSpec, gen_synthetic, load_jsonl
from clspool.encoder import EncoderConfig
from clspool.heads import VALID_HEAD_KINDS, ConfigurationError, HeadKind, parse_head_spec
from clspool.training import (
    CLIP_NORM,
    MAX_CLASSES,
    MAX_PARAMETERS,
    MIN_THREADED_BATCH_VALUES,
    CheckpointError,
    OptimizerState,
    TrainConfig,
    TrainingError,
    adamw_step,
    build_model,
    evaluate,
    load_checkpoint,
    lr_at_step,
    model_from_checkpoint,
    pad_batch,
    save_checkpoint,
    train,
)
import clspool.training as training
from clspool.training import (
    Model,
    _batch_loss,
    _decay_exempt,
    _eval_threads,
    _infer_n_classes,
)
from oracles import (
    OptimizerStateOracle,
    adamw_step_oracle,
    clip_global_norm_oracle,
    evaluate_oracle,
    run_backward_oracle,
)


def small_cfg(head=None, seed=0, lr=1e-3, epochs=2, dropout=0.0, batch_size=16,
              vocab=30, n_layers=2, d=16, heads=2, t_max=20):
    enc = EncoderConfig(vocab_size=vocab, num_layers=n_layers, d_model=d,
                        num_heads_encoder=heads, max_seq_len=t_max, dropout=dropout)
    return TrainConfig(encoder=enc, head=head or HeadKind("baseline"),
                       learning_rate=lr, epochs=epochs, batch_size=batch_size,
                       seed=seed)


def small_task(train_size=80, eval_size=24, seed=0, seq=(8, 10)):
    spec = SyntheticTaskSpec(kind="pattern_containment", vocab_size=30,
                             seq_len=seq, train_size=train_size,
                             eval_size=eval_size, seed=seed)
    return gen_synthetic(spec)


class TestLrSchedule:
    def _cfg(self):
        return small_cfg(lr=2e-5)

    def test_peak_at_warmup_end(self):
        assert lr_at_step(10, 100, self._cfg()) == 2e-5

    def test_linear_ramp(self):
        assert lr_at_step(5, 100, self._cfg()) == 1e-5

    def test_decay_endpoint(self):
        assert lr_at_step(100, 100, self._cfg()) == 0.0

    def test_piecewise_linear_and_continuous(self):
        cfg = self._cfg()
        values = [lr_at_step(s, 100, cfg) for s in range(101)]
        assert max(values) == cfg.learning_rate
        assert values.index(max(values)) == 10
        ramp_deltas = {round(values[i + 1] - values[i], 20) for i in range(10)}
        decay_deltas = {round(values[i + 1] - values[i], 20) for i in range(10, 100)}
        assert len(ramp_deltas) == 1 and len(decay_deltas) == 1

    def test_zero_total_steps(self):
        with pytest.raises(ValueError):
            lr_at_step(0, 0, self._cfg())

    def test_out_of_range_step(self):
        with pytest.raises(ValueError):
            lr_at_step(101, 100, self._cfg())


class TestAdamW:
    def test_zero_grad_zero_decay_is_identity(self):
        p = Array(np.array([1.0, -2.0]))
        p.grad = np.zeros(2)
        adamw_step(OptimizerState([("w", p)]), lr=0.1, weight_decay=0.0)
        assert p.data.tolist() == [1.0, -2.0]

    def test_pure_decay_example(self):
        p = Array(np.array([1.0]))
        p.grad = np.zeros(1)
        adamw_step(OptimizerState([("w", p)]), lr=0.1, weight_decay=0.01)
        assert p.data[0] == 1.0 - 0.1 * 0.01 * 1.0
        assert abs(p.data[0] - 0.999) < 1e-15

    def test_first_step_is_signed_lr(self):
        for g in (3.0, -0.25):
            p = Array(np.array([1.0]))
            p.grad = np.array([g])
            adamw_step(OptimizerState([("w", p)]), lr=0.01, weight_decay=0.0)
            # bias correction makes the first update -lr * g / (|g| + eps')
            assert abs((1.0 - p.data[0]) - 0.01 * np.sign(g)) < 1e-6

    def test_decay_skips_biases_and_gains(self):
        names = ["layer0.b_ff1", "layer0.ln1_gain", "head.b_cls", "layer0.ln2_bias"]
        params = [(n, Array(np.array([1.0]))) for n in names]
        for _, p in params:
            p.grad = np.zeros(1)
        adamw_step(OptimizerState(params), lr=0.1, weight_decay=0.5)
        for _, p in params:
            assert p.data[0] == 1.0

    def test_nonfinite_grad_raises_with_step(self):
        p = Array(np.array([1.0]))
        p.grad = np.array([np.nan])
        with pytest.raises(TrainingError) as exc:
            adamw_step(OptimizerState([("w", p)]), lr=0.1, weight_decay=0.0)
        assert "step 1" in str(exc.value)


class TestFlatOptimizer:
    """One flat buffer per state: parameters and gradients are views into it."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_per_parameter_oracle(self, dtype):
        # model vocab 40 over data drawn from 30 ids: tok_emb rows 30-39 get
        # all-zero gradients; dropout and weight decay are on. In float64 the
        # last bit of the clip norm reaches the parameters.
        cfg = small_cfg(head=parse_head_spec("maxseq+mha:k=2,h=2"), lr=3e-3,
                        dropout=0.1, vocab=40)
        train_set, _ = small_task(train_size=96, eval_size=8)
        flat, ref = build_model(cfg, 2, dtype), build_model(cfg, 2, dtype)
        state, ref_state = OptimizerState(flat.named_parameters()), OptimizerStateOracle()
        rng_flat, rng_ref = np.random.default_rng(5), np.random.default_rng(5)
        steps, norms = 12, []
        for step in range(steps):
            batch = train_set[8 * step:8 * step + 8]
            lr = lr_at_step(step + 1, steps, cfg)
            backward(_batch_loss(ref, batch, "cross_entropy", 0.1, rng_ref))
            norms.append(clip_global_norm_oracle(ref.named_parameters(), CLIP_NORM))
            adamw_step_oracle(ref.named_parameters(), ref_state, lr, cfg.weight_decay)
            backward(_batch_loss(flat, batch, "cross_entropy", 0.1, rng_flat))
            assert not flat.enc.tok_emb.grad[30:].any()
            assert adamw_step(state, lr, cfg.weight_decay) == norms[-1]  # before the clip
        assert max(norms) > CLIP_NORM  # clipping fired
        for (name, p), (_, q) in zip(flat.named_parameters(), ref.named_parameters()):
            assert p.data.tobytes() == q.data.tobytes(), name

    def test_clip_norm_is_one_sum_in_layout_order_on_random_gradients(self):
        cfg = TrainConfig(encoder=EncoderConfig(vocab_size=50),
                          head=parse_head_spec("normseq+mha"))
        named = build_model(cfg, 2).named_parameters()
        state = OptimizerState(named)
        rng = np.random.default_rng(9)
        for _ in range(20):
            for _, p in named:
                p.grad = rng.normal(size=p.shape).astype(np.float32)
            want = clip_global_norm_oracle(named, math.inf)
            assert adamw_step(state, 1e-3, 0.01) == want

    HEADS = ("baseline", "maxcls:k=3", "mha:h=4", "maxseq+mha:k=3,h=4",
             "meanseq+mha:k=3,h=4", "normseq+mha:k=3,h=4")

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("d_model", [32, 64])
    def test_clip_norm_matches_one_sum_in_layout_order(self, dtype, d_model):
        rng = np.random.default_rng(d_model)
        for spec in self.HEADS:
            cfg = TrainConfig(encoder=EncoderConfig(vocab_size=50, d_model=d_model),
                              head=parse_head_spec(spec))
            named = build_model(cfg, 3, dtype).named_parameters()
            state = OptimizerState(named)
            for _ in range(4):
                state.grad[:] = rng.normal(scale=rng.uniform(1e-3, 1e3), size=state.grad.size)
                want = clip_global_norm_oracle(named, math.inf)
                assert adamw_step(state, 1e-3, 0.01) == want, spec

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_clip_norm_is_within_two_ulp_of_the_exact_sum(self, dtype):
        # math.fsum rounds the sum of the squares once, so this bounds the
        # pairwise sum's error, not only its agreement with the oracle
        rng = np.random.default_rng(11)
        for spec in self.HEADS:
            cfg = TrainConfig(encoder=EncoderConfig(vocab_size=50), head=parse_head_spec(spec))
            state = OptimizerState(build_model(cfg, 3, dtype).named_parameters())
            for _ in range(4):
                state.grad[:] = rng.normal(scale=rng.uniform(1e-3, 1e3), size=state.grad.size)
                exact = math.sqrt(math.fsum(np.square(state.grad, dtype=np.float64).tolist()))
                norm = adamw_step(state, 1e-3, 0.01)
                assert abs(norm - exact) <= 2 * math.ulp(exact), spec

    def test_layout_is_views_with_decayed_parameters_first(self):
        named = build_model(small_cfg(head=parse_head_spec("mha:h=2")), 2).named_parameters()
        state = OptimizerState(named)
        assert state.n_decay == sum(p.size for n, p in named if not _decay_exempt(n))
        assert state.data.size == sum(p.size for _, p in named)
        for (name, p), (q, _, _, span) in zip(named, state.slots):
            assert q is p
            assert (span.start >= state.n_decay) == _decay_exempt(name), name
            assert np.shares_memory(p.data, state.data[span])
            assert np.shares_memory(p.grad, state.grad[span])

    def test_nonfinite_grad_in_third_parameter_is_named(self):
        named = [(name, Array(np.ones(2))) for name in ("a.w", "b.w", "c.w", "d.bias")]
        for _, p in named:
            p.grad = np.ones(2)
        state = OptimizerState(named)
        adamw_step(state, lr=0.1, weight_decay=0.01)
        for _, p in named:
            p.grad[:] = 1.0
        named[2][1].grad[1] = np.inf
        before = state.data.copy()
        grads = state.grad.copy()
        with pytest.raises(TrainingError, match=r"'c\.w' at optimizer step 2"):
            adamw_step(state, lr=0.1, weight_decay=0.01)
        assert state.data.tobytes() == before.tobytes()  # no parameter moved
        assert state.grad.tobytes() == grads.tobytes()  # nor was any gradient clipped

    def test_float64_gradient_norm_overflow_is_refused(self):
        p = Array(np.ones(2))
        p.grad = np.full(2, 1e200)  # finite, but its square is not
        with np.errstate(over="ignore"), \
                pytest.raises(TrainingError, match="gradient norm overflows at optimizer step 1"):
            adamw_step(OptimizerState([("w", p)]), lr=0.1, weight_decay=0.0)
        assert p.data.tolist() == [1.0, 1.0]

    def test_rebound_gradient_is_copied_in(self):
        # zero_grad() then backward leaves .grad a fresh array, not the view
        cfg = small_cfg()
        batch = small_task(train_size=16, eval_size=8)[0][:8]
        models = build_model(cfg, 2), build_model(cfg, 2)
        states = [OptimizerState(model.named_parameters()) for model in models]
        for step in range(3):
            for model, state in zip(models, states):
                if step > 0 and model is models[0]:
                    for _, p in model.named_parameters():
                        p.zero_grad()
                backward(_batch_loss(model, batch, "cross_entropy"))
                adamw_step(state, 1e-3, 0.01)
        for (name, p), (_, q) in zip(*(m.named_parameters() for m in models)):
            assert p.data.tobytes() == q.data.tobytes(), name
            assert np.shares_memory(p.grad, states[0].grad), name

    def test_rebound_data_is_copied_in(self):
        p = Array(np.array([1.0, 2.0]))
        state = OptimizerState([("w", p)])
        adamw_step(state, lr=0.1, weight_decay=0.0)
        p.data = np.array([5.0, 6.0])
        adamw_step(state, lr=0.1, weight_decay=0.0)
        assert np.shares_memory(p.data, state.data)
        assert state.data.tolist() == [5.0, 6.0]  # zero gradient: the new values stay


class TestClassLabelBound:
    def test_label_at_bound_is_refused_through_load_jsonl(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"tokens":[5],"label":0}\n{"tokens":[6],"label":%d}\n'
                        % MAX_CLASSES, encoding="utf-8")
        examples = load_jsonl(path)
        with pytest.raises(SchemaError, match=f"d.jsonl:2: class label {MAX_CLASSES}"):
            train(small_cfg(epochs=1), examples, examples[:1])
        with pytest.raises(SchemaError, match="d.jsonl:2"):
            train(small_cfg(epochs=1), examples[:1], examples)

    def test_real_label_is_refused_by_the_class_label_check(self):
        examples = [Example(token_ids=[1, 5], label=0.5), Example(token_ids=[1, 6], label=1)]
        with pytest.raises(SchemaError) as err:
            train(small_cfg(epochs=1), examples, examples)
        assert str(err.value) == "training example 1: class label 0.5 is not an integer"

    @pytest.mark.parametrize("sizes, name", [((1, 8), "training"), ((8, 1), "eval")])
    def test_regression_set_below_two_is_refused_before_the_first_step(self, monkeypatch,
                                                                       sizes, name):
        monkeypatch.setattr(training, "adamw_step", lambda *a: pytest.fail("a step ran"))
        examples = [Example(token_ids=[1, 5 + i], label=i / 8) for i in range(8)]
        with pytest.raises(ValueError) as err:
            train(replace(small_cfg(epochs=1), loss="squared_error"), examples[:sizes[0]],
                  examples[:sizes[1]])
        assert str(err.value) == (f"the {name} set has size 1; a regression task needs "
                                  "at least 2 examples for its Spearman correlation")

    def test_label_below_bound_sizes_the_classifier(self):
        top = Example(token_ids=[1, 5], label=MAX_CLASSES - 1)
        assert _infer_n_classes(small_cfg(), [top], [top]) == MAX_CLASSES


class TestLosses:
    def test_uniform_logits(self):
        for c in (2, 5):
            loss = ac.cross_entropy_mean(Array(np.zeros((1, c))), [0])
            assert abs(loss.item() - math.log(c)) < 1e-12

    def test_saturation(self):
        loss = ac.cross_entropy_mean(Array(np.array([[1000.0, 0.0]])), [0])
        assert loss.item() < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        logits = Array(rng.normal(size=(3, 4)))
        labels = np.array([0, 3, 1])

        def f():
            return ac.cross_entropy_mean(logits, labels)

        assert grad_check(f, [logits]) < 1e-8

    def test_batch_logits_keep_their_singleton_row_axis(self):
        # a head emits (B, 1, C) logits; both losses read them as B rows
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(3, 1, 4))
        labels = np.array([0, 3, 1])
        batched = ac.cross_entropy_mean(Array(logits), labels)
        assert batched.item() == ac.cross_entropy_mean(Array(logits[:, 0]), labels).item()
        preds, targets = Array(logits[..., :1].copy()), np.array([0.5, -1.0, 2.0])
        backward(ac.squared_error_mean(preds, targets))
        assert preds.grad.shape == (3, 1, 1)
        assert np.allclose(preds.grad[:, 0, 0], 2.0 * (logits[:, 0, 0] - targets) / 3)


class TestConfigChecks:
    @pytest.mark.parametrize("lr", [math.nan, math.inf, -1e-3, 0.0])
    def test_bad_learning_rate(self, lr):
        with pytest.raises(ValueError, match="learning_rate"):
            small_cfg(lr=lr)

    @pytest.mark.parametrize("wd", [math.nan, math.inf, -0.01])
    def test_bad_weight_decay(self, wd):
        enc = EncoderConfig(vocab_size=30, num_layers=2, d_model=16)
        with pytest.raises(ValueError, match="weight_decay"):
            TrainConfig(encoder=enc, weight_decay=wd)

    def test_zero_weight_decay_is_allowed(self):
        TrainConfig(encoder=EncoderConfig(vocab_size=30), weight_decay=0.0)

    @pytest.mark.parametrize("spec, message", [
        ("maxcls:k=3", "head 'maxcls:k=3': k=3 exceeds num_layers=2"),
        ("normseq+mha:k=3,h=2", "head 'normseq+mha:k=3,h=2': k=3 exceeds num_layers=2"),
        ("mha:h=3", "head 'mha:h=3': num_heads 3 does not divide d_model 16"),
        ("meanseq+mha:k=2,h=32", "head 'meanseq+mha:k=2,h=32': num_heads 32 does not "
                                 "divide d_model 16"),
    ])
    def test_head_that_does_not_fit_its_encoder(self, spec, message):
        with pytest.raises(ConfigurationError) as err:
            small_cfg(head=parse_head_spec(spec))  # 2 layers, d_model 16
        assert str(err.value) == message


class TestTrainLoop:
    def test_bit_identical_given_same_seed(self):
        train_set, eval_set = small_task()
        cfg = small_cfg(head=HeadKind("maxseq+mha", k=2, num_heads=2), dropout=0.1)
        _, r1 = train(cfg, train_set, eval_set)
        _, r2 = train(cfg, train_set, eval_set)
        assert r1.eval_metrics == r2.eval_metrics
        assert r1.final_loss == r2.final_loss

    def test_training_leaves_no_cyclic_garbage(self):
        # the tape holds no reference cycles, so refcounting frees each step's graph
        train_set, eval_set = small_task(train_size=32, eval_size=16)
        cfg = small_cfg(head=HeadKind("normseq+mha", k=2, num_heads=2), dropout=0.1)
        gc.collect()
        gc.disable()
        try:
            model, _ = train(cfg, train_set, eval_set)
            evaluate(model, eval_set)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's malloc")
    def test_a_second_grid_t48_cell_reuses_the_heap(self):
        """A fresh process trains one grid-t48 cell, then counts the minor page
        faults of training it again. Each step frees its whole graph; kept in
        the heap, it is reused with no fault. Measured 25-317 faults, against
        32.8k-35.1k with glibc's default thresholds."""
        script = textwrap.dedent("""
            import resource
            from clspool.data import SyntheticTaskSpec, gen_synthetic
            from clspool.encoder import EncoderConfig
            from clspool.heads import parse_head_spec
            from clspool.training import TrainConfig, train

            spec = SyntheticTaskSpec(kind="majority_token", vocab_size=50, seq_len=(47, 47),
                                     train_size=96, eval_size=96, seed=1)
            train_set, eval_set = gen_synthetic(spec)
            enc = EncoderConfig(vocab_size=50, num_layers=4, d_model=32,
                                num_heads_encoder=4, max_seq_len=64, dropout=0.1)
            cfg = TrainConfig(encoder=enc, head=parse_head_spec("maxseq+mha:k=3,h=4"),
                              learning_rate=3e-3, epochs=2, batch_size=16, seed=1)
            train(cfg, train_set, eval_set)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            train(cfg, train_set, eval_set)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            """)
        src = Path(training.__file__).resolve().parents[1]
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(src))
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, check=True)
        assert int(result.stdout) < 2000

    def test_seeds_change_the_outcome(self):
        train_set, eval_set = small_task()
        losses = set()
        for seed in (1, 2, 3):
            _, r = train(small_cfg(seed=seed, epochs=1), train_set, eval_set)
            losses.add(r.final_loss)
        assert len(losses) > 1

    def test_smoke_accuracy_on_separable_task(self):
        train_set, eval_set = small_task(train_size=300, eval_size=80)
        cfg = small_cfg(lr=2e-3, epochs=3)
        _, result = train(cfg, train_set, eval_set)
        assert result.eval_metrics["accuracy"] >= 0.85

    def test_loss_decreases_over_first_ten_steps_for_most_seeds(self):
        train_set, _ = small_task(train_size=64, eval_size=8)
        fixed_batch = train_set[:16]
        wins = 0
        for seed in range(10):
            cfg = small_cfg(seed=seed, lr=1e-3)
            model = build_model(cfg, n_classes=2)
            from clspool.training import _batch_loss  # fixed-batch probe

            def batch_loss():
                return _batch_loss(model, fixed_batch, "cross_entropy").item()

            start = batch_loss()
            named = model.named_parameters()
            opt = OptimizerState(named)
            rng = np.random.default_rng([seed, 2])
            for step in range(10):
                loss = _batch_loss(model, fixed_batch, "cross_entropy",
                                   dropout_p=0.0, rng=rng)
                backward(loss)
                adamw_step(opt, lr_at_step(step, 100, cfg), cfg.weight_decay)
            if batch_loss() <= start:
                wins += 1
        assert wins >= 8

    def test_empty_dataset_rejected(self):
        with pytest.raises(TrainingError):
            train(small_cfg(), [], [])

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_divergence_in_the_last_update_raises(self):
        # one step: no loss is ever computed after the update that overflows
        train_set, eval_set = small_task(train_size=16, eval_size=8)
        cfg = small_cfg(lr=1e38, epochs=1, batch_size=32)
        with pytest.raises(TrainingError, match="non-finite values in"):
            train(cfg, train_set, eval_set)

    def test_regression_task_trains_and_reports_spearman(self):
        spec = SyntheticTaskSpec(kind="pair_similarity", vocab_size=30,
                                 seq_len=(8, 10), train_size=60, eval_size=20,
                                 seed=1)
        train_set, eval_set = gen_synthetic(spec)
        cfg = small_cfg(epochs=1)
        cfg.loss = "squared_error"
        _, result = train(cfg, train_set, eval_set)
        assert "spearman" in result.eval_metrics
        assert -1.0 <= result.eval_metrics["spearman"] <= 1.0


class TestPadBatch:
    def test_shapes_and_mask(self):
        from clspool.data import Example
        batch = [Example([1, 5, 6], 0), Example([1, 7], 1)]
        ids, mask, labels = pad_batch(batch)
        assert ids.tolist() == [[1, 5, 6], [1, 7, 0]]
        assert mask.tolist() == [[1, 1, 1], [1, 1, 0]]
        assert labels == [0, 1]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", VALID_HEAD_KINDS)
    def test_padded_ids_reach_no_output(self, kind, dtype):
        """The attention mask alone keeps padding out: whatever ids the padded
        positions hold, every head's logits, dropout loss and gradients match."""
        spec = SyntheticTaskSpec(kind="majority_token", vocab_size=30, seq_len=(3, 18),
                                 train_size=12, eval_size=1, seed=4)
        ids, mask, labels = pad_batch(gen_synthetic(spec)[0])
        pads = mask == 0.0
        assert pads.any()
        noisy = ids.copy()
        noisy[pads] = np.random.default_rng(5).integers(1, 30, size=pads.sum())
        model = build_model(small_cfg(head=HeadKind(kind), dropout=0.1, n_layers=3),
                            n_classes=2, dtype=dtype)

        def outputs(batch_ids):
            with ac.no_grad():
                logits = model.forward(batch_ids, mask).data
            loss = ac.cross_entropy_mean(
                model.forward(batch_ids, mask, dropout_p=0.1, rng=np.random.default_rng(6)),
                np.asarray(labels))
            backward(loss)
            grads = []
            for _, p in model.named_parameters():
                grads.append(p.grad)
                p.zero_grad()
            return logits, loss.data, grads

        logits, loss, grads = outputs(ids)
        noisy_logits, noisy_loss, noisy_grads = outputs(noisy)
        assert logits.tobytes() == noisy_logits.tobytes()
        assert loss.tobytes() == noisy_loss.tobytes()
        assert all(np.array_equal(g, h) for g, h in zip(grads, noisy_grads, strict=True))


class TestCheckpoints:
    def _trained(self, tmp_path):
        train_set, eval_set = small_task(train_size=40, eval_size=12)
        cfg = small_cfg(head=HeadKind("mha", num_heads=2), epochs=1)
        model, _ = train(cfg, train_set, eval_set)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, cfg)
        return model, cfg, path, eval_set

    def test_round_trip_bit_exact(self, tmp_path):
        model, cfg, path, eval_set = self._trained(tmp_path)
        params, cfg2 = load_checkpoint(path)
        for name, p in model.named_parameters():
            assert np.array_equal(params[name], p.data)
        assert cfg2 == cfg

    def test_forward_identical_after_reload(self, tmp_path):
        model, _, path, eval_set = self._trained(tmp_path)
        reloaded, _ = model_from_checkpoint(path)
        ids, mask, _ = pad_batch(eval_set)
        before = model.forward(ids, mask).data
        after = reloaded.forward(ids, mask).data
        assert np.max(np.abs(before - after)) == 0.0

    def test_corrupted_magic(self, tmp_path):
        _, _, path, _ = self._trained(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        _, _, path, _ = self._trained(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 999)
        # keep the CRC consistent so the version check itself is exercised
        payload = bytes(blob[4:-4])
        blob[-4:] = struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version 999"):
            load_checkpoint(path)

    def test_truncated_file(self, tmp_path):
        _, _, path, _ = self._trained(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_checksum_failure(self, tmp_path):
        _, _, path, _ = self._trained(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[50] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="CRC"):
            load_checkpoint(path)


# 1 layer, d_model 8, maxseq+mha:k=1,h=2 at init; written by an earlier release
GOLDEN_CHECKPOINT = Path(__file__).parent / "data" / "tiny.ckpt"


def test_golden_checkpoint_loads_and_saves_byte_for_byte(tmp_path):
    model, cfg = model_from_checkpoint(GOLDEN_CHECKPOINT)
    enc = EncoderConfig(vocab_size=12, num_layers=1, d_model=8, num_heads_encoder=2,
                        max_seq_len=8, dropout=0.1)
    assert cfg == TrainConfig(encoder=enc, head=parse_head_spec("maxseq+mha:k=1,h=2"),
                              learning_rate=1e-3, epochs=2, batch_size=4,
                              warmup_ratio=0.25, weight_decay=0.01, seed=7)
    save_checkpoint(tmp_path / "again.ckpt", model, cfg)
    assert (tmp_path / "again.ckpt").read_bytes() == GOLDEN_CHECKPOINT.read_bytes()


def _resealed(blob: bytes) -> bytes:
    payload = blob[4:-4]
    return blob[:4] + payload + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)


def _short_file(model, cfg, path):
    path.write_bytes(b"MPBT\x01\x00")


def _trailing_byte(model, cfg, path):
    blob = GOLDEN_CHECKPOINT.read_bytes()
    path.write_bytes(_resealed(blob[:-4] + b"\x00" + blob[-4:]))


def _flat_classifier(model, cfg, path):
    model.head.w_cls.data = model.head.w_cls.data.reshape(-1)
    save_checkpoint(path, model, cfg)


def _no_classes(model, cfg, path):  # a config that parses but builds no model
    model.head.w_cls.data = model.head.w_cls.data[:, :0]
    model.head.b_cls.data = model.head.b_cls.data[:0]
    save_checkpoint(path, model, cfg)


def _other_head(model, cfg, path):
    save_checkpoint(path, model, replace(cfg, head=HeadKind("baseline")))


def _other_vocab_size(model, cfg, path):
    save_checkpoint(path, model, replace(cfg, encoder=replace(cfg.encoder, vocab_size=13)))


@pytest.mark.parametrize("write, message", [
    (_short_file, "truncated checkpoint file"),
    (_trailing_byte, "format error: trailing bytes after parameters"),
    (_flat_classifier, "format error: no two-axis 'head.w_cls' tensor"),
    (_no_classes, "format error: xavier_uniform_init: extents must be positive"),
    (_other_head, "format error: parameter names do not match config"),
    (_other_vocab_size, "format error: shape mismatch for 'tok_emb'"),
])
def test_checkpoint_refusal_names_its_cause(tmp_path, write, message):
    model, cfg = model_from_checkpoint(GOLDEN_CHECKPOINT)
    path = tmp_path / "bad.ckpt"
    write(model, cfg, path)
    with pytest.raises(CheckpointError) as err:
        model_from_checkpoint(path)
    assert str(err.value) == message


@pytest.mark.parametrize("line, new, fault", [
    pytest.param("head=maxseq+mha:k=1,h=2", "head=maxseq+mha:k=2,h=2",
                 "head 'maxseq+mha:k=2,h=2': k=2 exceeds num_layers=1", id="head-k"),
    pytest.param("head=maxseq+mha:k=1,h=2", "head=maxseq+mha:k=1,h=3",
                 "head 'maxseq+mha:k=1,h=3': num_heads 3 does not divide d_model 8",
                 id="head-num-heads"),
    pytest.param("encoder.d_ff=32", "encoder.d_ff=-2",
                 "EncoderConfig: d_ff must be >= 1, got -2", id="d_ff"),
])
def test_checkpoint_config_that_builds_no_model_is_refused_at_load(tmp_path, line, new, fault):
    blob = GOLDEN_CHECKPOINT.read_bytes()
    assert len(new) == len(line) and blob.count(line.encode()) == 1  # the length word holds
    path = tmp_path / "bad.ckpt"
    path.write_bytes(_resealed(blob.replace(line.encode(), new.encode())))
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(path)
    assert str(err.value) == f"format error: {fault}"


def test_an_encoder_past_max_parameters_is_refused_before_any_model(tmp_path, monkeypatch):
    from clspool import training
    monkeypatch.setattr(training, "build_model",
                        lambda *a, **kw: pytest.fail("a model was built"))
    big = EncoderConfig(vocab_size=9_999_999, num_layers=1, d_model=8, num_heads_encoder=2,
                        max_seq_len=8)
    refusal = (f"the encoder would have {big.num_parameters} parameters, "
               f"more than MAX_PARAMETERS ({MAX_PARAMETERS})")
    assert big.num_parameters > MAX_PARAMETERS
    with pytest.raises(ValueError) as err:
        TrainConfig(encoder=big)
    assert str(err.value) == refusal
    TrainConfig(encoder=replace(big, vocab_size=12))  # the golden checkpoint's encoder
    blob = GOLDEN_CHECKPOINT.read_bytes()
    length = struct.unpack("<I", blob[8:12])[0] + len("9999999") - len("12")
    path = tmp_path / "big.ckpt"
    path.write_bytes(_resealed(blob[:8] + struct.pack("<I", length) + blob[12:].replace(
        b"encoder.vocab_size=12\n", b"encoder.vocab_size=9999999\n")))
    for load in (load_checkpoint, model_from_checkpoint):
        with pytest.raises(CheckpointError) as err:
            load(path)
        assert str(err.value) == f"format error: {refusal}"


# bytes that keep mutated config text close to parseable
NEAR_TEXT = st.sampled_from(b"=\n.:,+-e0123456789kh")


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_resealed_mutations_raise_only_checkpoint_error(tmp_path_factory, data):
    """Any mutation with a valid CRC either loads or raises CheckpointError."""
    blob = bytearray(GOLDEN_CHECKPOINT.read_bytes())
    config_end = 12 + struct.unpack("<I", blob[8:12])[0]
    for _ in range(data.draw(st.integers(1, 3))):
        in_config = data.draw(st.booleans())
        # the version word has its own test; mutations start after it
        lo, hi = (12, config_end) if in_config else (8, len(blob) - 4)
        pos = data.draw(st.integers(lo, hi - 1))
        edit = data.draw(st.sampled_from(["set", "delete", "insert"]))
        value = data.draw(st.one_of(st.integers(0, 255), NEAR_TEXT))
        if edit == "set":
            blob[pos] = value
        elif edit == "delete":
            del blob[pos:pos + data.draw(st.integers(1, 8))]
        else:
            blob[pos:pos] = bytes([value])
    path = tmp_path_factory.mktemp("fuzz") / "mutated.ckpt"
    path.write_bytes(_resealed(bytes(blob)))
    try:
        load_checkpoint(path)
        model_from_checkpoint(path)
    except CheckpointError:
        pass


class TestEvaluate:
    def test_classification_metric_set(self):
        train_set, eval_set = small_task(train_size=20, eval_size=10)
        model = build_model(small_cfg(), n_classes=2)
        metrics = evaluate(model, eval_set)
        assert set(metrics) == {"accuracy", "f1", "mcc"}

    def test_regression_metric_set(self):
        spec = SyntheticTaskSpec(kind="pair_similarity", vocab_size=30,
                                 seq_len=(8, 10), train_size=10, eval_size=10,
                                 seed=2)
        _, eval_set = gen_synthetic(spec)
        cfg = small_cfg()
        cfg.loss = "squared_error"
        model = build_model(cfg, n_classes=1)
        metrics = evaluate(model, eval_set)
        assert set(metrics) == {"spearman"}


def _recorded(monkeypatch, name):
    """Patch the metric function training calls as ``name`` to record the
    predictions it is handed."""
    seen, metric = [], getattr(training, name)

    def recording(preds, labels):
        seen.append(list(preds))
        return metric(preds, labels)

    monkeypatch.setattr(training, name, recording)
    return seen


class TestThreadedEvaluate:
    """evaluate's batch forwards on a thread pool give the serial loop's
    predictions and metrics bit for bit, and no thread outlives the call."""

    @pytest.mark.parametrize("threads", [2, 3, 7])
    @pytest.mark.parametrize("spec", ["baseline", "maxseq+mha:k=2,h=2", "normseq+mha:k=2,h=2"])
    def test_classification_matches_the_serial_loop(self, monkeypatch, spec, threads):
        _, eval_set = small_task(train_size=8, eval_size=45, seq=(3, 14), seed=3)
        model = build_model(small_cfg(head=parse_head_spec(spec), seed=2), 2)
        want_preds, want = evaluate_oracle(model, eval_set, batch_size=8)
        monkeypatch.setattr(training, "_eval_threads", lambda *_: threads)
        seen = _recorded(monkeypatch, "accuracy")
        got = evaluate(model, eval_set, batch_size=8)
        assert seen == [want_preds]
        assert struct.pack("<3d", *got.values()) == struct.pack("<3d", *want.values())
        assert list(got) == list(want) == ["accuracy", "f1", "mcc"]

    @pytest.mark.parametrize("threads", [2, 4])
    def test_regression_matches_the_serial_loop(self, monkeypatch, threads):
        _, eval_set = gen_synthetic(SyntheticTaskSpec(
            kind="pair_similarity", vocab_size=30, seq_len=(5, 14), train_size=8,
            eval_size=50, seed=4))
        cfg = small_cfg(head=parse_head_spec("mha:h=2"))
        cfg.loss = "squared_error"
        model = build_model(cfg, n_classes=1)
        want_preds, want = evaluate_oracle(model, eval_set, batch_size=16)
        monkeypatch.setattr(training, "_eval_threads", lambda *_: threads)
        seen = _recorded(monkeypatch, "spearman_rho_flagged")
        got = evaluate(model, eval_set, batch_size=16)
        assert np.array(seen).tobytes() == np.array([want_preds]).tobytes()
        assert struct.pack("<d", got["spearman"]) == struct.pack("<d", want["spearman"])

    def test_more_threads_than_cores_switching_often_match_the_serial_loop(self,
                                                                           monkeypatch):
        _, eval_set = small_task(train_size=8, eval_size=200, seq=(2, 16), seed=5)
        model = build_model(small_cfg(head=parse_head_spec("maxseq+mha:k=2,h=2")), 2)
        want_preds, want = evaluate_oracle(model, eval_set, batch_size=8)
        monkeypatch.setattr(training, "_eval_threads", lambda *_: 8)
        seen = _recorded(monkeypatch, "accuracy")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = evaluate(model, eval_set, batch_size=8)
        finally:
            sys.setswitchinterval(interval)
        assert seen == [want_preds] and got == want

    def test_the_forwards_run_off_the_calling_thread_with_no_graph(self, monkeypatch):
        _, eval_set = small_task(train_size=8, eval_size=40)
        model = build_model(small_cfg(), 2)
        calls = []

        def forward(ids, mask):
            out = Model.forward(model, ids, mask)
            calls.append((threading.get_ident(), out.node))
            return out

        model.forward = forward
        monkeypatch.setattr(training, "_eval_threads", lambda *_: 2)
        before = threading.active_count()
        evaluate(model, eval_set, batch_size=8)
        assert threading.active_count() == before
        assert len(calls) == 5 and all(node is None for _, node in calls)
        assert threading.get_ident() not in {ident for ident, _ in calls}
        assert ac._recording

    def test_malloc_is_capped_before_the_first_helper_thread_starts(self, monkeypatch):
        _, eval_set = small_task(train_size=8, eval_size=24)
        model = build_model(small_cfg(), 2)
        threads_at_cap = []
        monkeypatch.setattr(training, "_keep_heap",
                            lambda: threads_at_cap.append(threading.active_count()))
        before = threading.active_count()
        for threads in (1, 2):
            monkeypatch.setattr(training, "_eval_threads", lambda *_: threads)
            evaluate(model, eval_set, batch_size=8)
        assert threads_at_cap == [before]  # the one-thread call takes no cap

    def test_an_error_in_a_helper_thread_reaches_the_caller(self, monkeypatch):
        _, eval_set = small_task(train_size=8, eval_size=40)
        model = build_model(small_cfg(head=parse_head_spec("mha:h=2")), 2)
        model.head.w_cls.data[0, 0] = np.nan
        monkeypatch.setattr(training, "_eval_threads", lambda *_: 3)
        before = threading.active_count()
        ac.set_debug_checks(True)
        try:
            with pytest.raises(ac.EvaluationError, match="non-finite"):
                evaluate(model, eval_set, batch_size=8)
        finally:
            ac.set_debug_checks(False)
        assert ac._recording
        assert threading.active_count() == before

    def test_helper_threads_keep_the_callers_numpy_error_state(self, monkeypatch):
        # the embeddings overflow float32 in the first matmul's products
        _, eval_set = small_task(train_size=8, eval_size=40)
        model = build_model(small_cfg(), 2)
        model.enc.tok_emb.data[:] = 1e30
        monkeypatch.setattr(training, "_eval_threads", lambda *_: 2)
        with np.errstate(all="raise"):
            with pytest.raises(FloatingPointError):
                evaluate_oracle(model, eval_set, batch_size=8)
            with pytest.raises(FloatingPointError):
                evaluate(model, eval_set, batch_size=8)
        with np.errstate(all="ignore"):  # a warning would be an error under pytest.ini
            got = evaluate(model, eval_set, batch_size=8)
            _, want = evaluate_oracle(model, eval_set, batch_size=8)
        assert struct.pack("<3d", *got.values()) == struct.pack("<3d", *want.values())

    @staticmethod
    def _rows(n, tokens):
        return [Example(token_ids=[1] + [5] * (tokens - 1), label=0)] * n

    def test_thread_count_is_one_per_cpu_and_at_most_one_per_batch(self):
        cpus = len(os.sched_getaffinity(0))
        assert _eval_threads(self._rows(640, 24), 64, 32) == min(cpus, 10)
        assert _eval_threads(self._rows(64, 24), 64, 32) == 1
        assert _eval_threads([], 64, 32) == 1

    def test_batches_below_the_value_bound_take_one_thread(self):
        # 50 rows a batch at d_model 32: 15 tokens reach the bound, 14 do not
        assert 32 * 50 * 15 == MIN_THREADED_BATCH_VALUES
        cpus = len(os.sched_getaffinity(0))
        assert _eval_threads(self._rows(100, 15), 50, 32) == min(cpus, 2)
        assert _eval_threads(self._rows(100, 14), 50, 32) == 1
        assert _eval_threads(self._rows(128, 8), 64, 32) == 1  # the train-b4 eval set

    def test_a_forked_pool_worker_takes_one_thread(self):
        with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as pool:
            assert pool.submit(_eval_threads, self._rows(640, 24), 64, 32).result() == 1


@pytest.mark.parametrize("spec, attends", [
    ("baseline", 0), ("maxcls:k=3", 0), ("mha:h=2", 1), ("maxseq+mha:k=3,h=2", 1),
    ("meanseq+mha:k=3,h=2", 1), ("normseq+mha:k=3,h=2", 1),
])
def test_the_functions_the_benchmark_times_stay_on_the_forward_path(monkeypatch, spec,
                                                                     attends):
    """perfbench times encoder.self_attention and heads.cls_attend by patching
    those module names; a forward that stopped calling them through those names
    would read 0 s there."""
    import clspool.encoder as encoder
    import clspool.heads as heads
    calls = {"self_attention": 0, "cls_attend": 0}
    for module, name in ((encoder, "self_attention"), (heads, "cls_attend")):
        def counted(*args, _real=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    model = build_model(small_cfg(head=parse_head_spec(spec), n_layers=4), 2)
    ids, mask, _ = pad_batch(small_task(train_size=4, eval_size=4)[0])
    model.forward(ids, mask)
    assert calls == {"self_attention": 4, "cls_attend": attends}


class TestGraphLifetime:
    """evaluate records no graph; train frees each step's graph before the
    next forward builds one."""

    HEADS = ("baseline", "maxcls:k=2", "mha:h=2", "maxseq+mha:k=2,h=2",
             "meanseq+mha:k=2,h=2", "normseq+mha:k=2,h=2")

    @pytest.mark.parametrize("spec", HEADS)
    def test_evaluate_logits_match_a_recorded_forward_bitwise(self, spec):
        _, eval_set = small_task(train_size=8, eval_size=40)
        model = build_model(small_cfg(head=parse_head_spec(spec)), 2)
        seen = []

        def forward(ids, mask):
            out = Model.forward(model, ids, mask)
            seen.append((ids, mask, out))
            return out

        model.forward = forward
        evaluate(model, eval_set, batch_size=16)
        assert len(seen) == 3
        for ids, mask, out in seen:
            recorded = Model.forward(model, ids, mask)
            assert out.node is None and recorded.node is not None
            assert out.data.tobytes() == recorded.data.tobytes()

    def test_debug_checks_still_catch_a_nan_weight(self):
        _, eval_set = small_task(train_size=8, eval_size=8)
        model = build_model(small_cfg(head=parse_head_spec("mha:h=2")), 2)
        model.head.w_cls.data[0, 0] = np.nan
        ac.set_debug_checks(True)
        try:
            with pytest.raises(ac.EvaluationError, match="non-finite"):
                evaluate(model, eval_set)
        finally:
            ac.set_debug_checks(False)

    def test_no_graph_is_alive_when_a_step_starts(self, monkeypatch):
        train_set, eval_set = small_task(train_size=40, eval_size=8)
        cfg = small_cfg(head=parse_head_spec("maxseq+mha:k=2,h=2"), epochs=1,
                        batch_size=8, dropout=0.1)
        alive, recorded_forward = [], Model.forward

        def forward(self, *args, **kwargs):
            alive.append(sum(isinstance(o, ac.Node) for o in gc.get_objects()))
            return recorded_forward(self, *args, **kwargs)

        gc.collect()
        monkeypatch.setattr(Model, "forward", forward)
        train(cfg, train_set, eval_set)
        assert len(alive) == 5 + 2  # five steps, then the eval and train sets
        assert alive[1:] == [0] * 6


def _acceptance_step(spec, batch_size=32, tokens=16):
    """A float32 model at the acceptance encoder's shape and the loss of one
    training step with dropout 0.1; by default B=32, T=17 (16 tokens and [CLS])."""
    enc = EncoderConfig(vocab_size=50, num_layers=4, d_model=32, num_heads_encoder=4,
                        max_seq_len=64, dropout=0.1)
    cfg = TrainConfig(encoder=enc, head=parse_head_spec(spec), learning_rate=1e-3)
    model = build_model(cfg, 2)
    batch, _ = gen_synthetic(SyntheticTaskSpec(kind="pattern_containment", vocab_size=50,
                                               seq_len=(tokens, tokens),
                                               train_size=batch_size, eval_size=1))
    return model, lambda: _batch_loss(model, batch, "cross_entropy", dropout_p=0.1,
                                      rng=np.random.default_rng(0))


class TestBackwardAtTheAcceptanceShape:
    """Backward frees each intermediate gradient once used and the graph saves
    no copy backward can rebuild; the parameter gradients keep every bit."""

    @pytest.mark.parametrize("spec", ["baseline", "maxcls:k=1", "maxcls:k=3", "mha:h=4",
                                      "maxseq+mha:k=3,h=4", "meanseq+mha:k=3,h=4",
                                      "normseq+mha:k=3,h=4"])
    def test_parameter_gradients_match_the_copying_loop(self, spec):
        grads, losses = [], []
        for run in (backward, run_backward_oracle):
            model, step = _acceptance_step(spec)
            losses.append(step())
            run(losses[-1])
            grads.append([None if p.grad is None else p.grad.tobytes()
                          for _, p in model.named_parameters()])
        assert grads[0] == grads[1] and None not in grads[0]
        for loss, freed in zip(losses, (True, False)):  # the oracle keeps every gradient
            assert all((node.grad is None) == freed for node in ac.Tape.trace(loss).nodes)

    def test_the_graph_keeps_nodes_and_leaves_not_op_outputs(self, monkeypatch):
        model, step = _acceptance_step("maxseq+mha:k=3,h=4")
        ff_outputs, feed_forward = [], ac.feed_forward

        def recording_feed_forward(*args):
            out = feed_forward(*args)
            ff_outputs.append(weakref.ref(out.data))
            return out

        monkeypatch.setattr(ac, "feed_forward", recording_feed_forward)
        loss = step()
        # no backward reads the feed-forward output (dropout keeps its mask, add nothing)
        assert len(ff_outputs) == 4 and all(ref() is None for ref in ff_outputs)
        wide = (32, 17, model.enc.cfg.d_ff)
        for node in ac.Tape.trace(loss).nodes:
            assert all(type(inp) is ac.Node or (type(inp) is Array and inp.node is None)
                       for inp in node.inputs), node.op
            saved = [cell.cell_contents for cell in node.bwd.__closure__ or ()]
            assert not any(isinstance(x, (Array, ac.Node)) for x in saved), node.op
            if node.op == "feed_forward":  # h and t; backward rebuilds the activation
                assert sum(np.shape(x) == wide for x in saved) == 2

    @staticmethod
    def _step_memory(batch_size=32, tokens=16):
        """Bytes the forward graph holds, and backward's peak on top of it."""
        _, step = _acceptance_step("maxseq+mha:k=3,h=4", batch_size, tokens)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            loss = step()
            graph = tracemalloc.get_traced_memory()[0] - start
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            backward(loss)
            return graph, tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    def test_a_step_holds_only_what_backward_still_needs(self):
        graph, backward_extra = self._step_memory()
        # bytes; measured 5.57 MB and 1.43 MB, and 6.69 MB and 1.39 MB while the
        # feed-forward block's matmul kept its gelu activation, 6.83 MB and 1.50 MB
        # while the pools read a stacked copy of the last k layers. The graph took
        # 10.65 MB while each node held its input arrays and dropout a float mask,
        # 12.74 MB while it also kept attention's head-split copies and gelu's
        # x*x, and backward's peak was 8.11 MB while it kept every gradient it made
        assert graph <= 5.75e6
        assert backward_extra <= 1.6e6

    def test_a_grid_t48_step_holds_only_what_backward_still_needs(self):
        graph, backward_extra = self._step_memory(batch_size=16, tokens=47)
        # bytes; measured 9.35 MB and 1.99 MB, 10.93 MB and 1.92 MB while the
        # feed-forward block's matmul kept its gelu activation, 11.13 MB and
        # 2.14 MB while the pools read a stacked copy of the last k layers, and
        # 16.51 MB and 2.14 MB while each node held its input arrays and dropout
        # a float mask
        assert graph <= 9.65e6
        assert backward_extra <= 2.2e6
