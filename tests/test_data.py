import json
import pickle
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clspool.data import (
    CLS_ID,
    SEP_ID,
    UNK_ID,
    Example,
    SchemaError,
    SyntheticTaskSpec,
    Vocab,
    gen_synthetic,
    load_jsonl,
    load_vocab,
    subsample,
    tokenize,
)
from clspool.training import check_class_labels


@pytest.fixture
def vocab():
    return Vocab.from_tokens(["x", "a", "b"])  # x->4, a->5, b->6


class TestTokenize:
    def test_empty_text(self, vocab):
        assert tokenize("", vocab) == [CLS_ID]

    def test_direct_map(self, vocab):
        assert tokenize("a b", vocab) == [CLS_ID, 5, 6]

    def test_unknown_falls_back(self, vocab):
        assert tokenize("zzz", vocab) == [CLS_ID, UNK_ID]

    def test_lowercase(self, vocab):
        assert tokenize("A B", vocab) == [CLS_ID, 5, 6]

    def test_pair_joined_with_sep(self, vocab):
        assert tokenize("a", vocab, text_pair="b") == [CLS_ID, 5, SEP_ID, 6]

    def test_truncation_keeps_cls(self, vocab):
        ids = tokenize("a b a b a", vocab, max_len=3)
        assert ids == [CLS_ID, 5, 6]

    def test_never_exceeds_vocab(self, vocab):
        rng = np.random.default_rng(0)
        words = ["a", "b", "x", "weird", "other"]
        for _ in range(50):
            text = " ".join(rng.choice(words, size=6))
            ids = tokenize(text, vocab)
            assert ids[0] == CLS_ID
            assert max(ids) < vocab.size


class TestVocabFile:
    def test_line_index_plus_four(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("alpha\nbeta\ngamma\n", encoding="utf-8")
        v = load_vocab(path)
        assert v.id_of("alpha") == 4
        assert v.id_of("gamma") == 6
        assert v.size == 7


class TestJsonl:
    def test_tokens_schema(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"tokens":[5,6],"label":1}\n', encoding="utf-8")
        ds = load_jsonl(path)
        assert ds[0].token_ids == [CLS_ID, 5, 6]
        assert ds[0].label == 1

    def test_text_schema(self, tmp_path, vocab):
        path = tmp_path / "d.jsonl"
        path.write_text('{"text":"a b","label":0}\n', encoding="utf-8")
        ds = load_jsonl(path, vocab)
        assert ds[0].token_ids == [CLS_ID, 5, 6]

    def test_empty_object_is_schema_error_with_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"tokens":[5],"label":0}\n{}\n', encoding="utf-8")
        with pytest.raises(SchemaError) as exc:
            load_jsonl(path)
        assert "line 2" in str(exc.value)

    def test_malformed_line_number(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"tokens":[5],"label":0}\nnot json\n', encoding="utf-8")
        with pytest.raises(SchemaError) as exc:
            load_jsonl(path)
        assert "line 2" in str(exc.value)

    def test_missing_label(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"tokens":[5]}\n', encoding="utf-8")
        with pytest.raises(SchemaError):
            load_jsonl(path)

    def test_mixed_schema_rejected(self, tmp_path, vocab):
        path = tmp_path / "d.jsonl"
        path.write_text('{"tokens":[5],"label":0}\n{"text":"a","label":1}\n',
                        encoding="utf-8")
        with pytest.raises(SchemaError):
            load_jsonl(path, vocab)

    @pytest.mark.parametrize("line", [
        b'{"text": 5, "label": 0}',
        b'{"text": "a", "text_pair": 3, "label": 0}',
        b'{"tokens": [5], "label": NaN}',
        b'{"tokens": [5], "label": Infinity}',
        b'{"tokens": [5], "label": 1e400}',
        b'{"tokens": [true, 5], "label": 0}',
        b'{"tokens": [5], "label": 0, "deep": ' + b"[" * 5000 + b"]" * 5000 + b"}",
        b'{"tokens": [5], "label": ' + b"1" * 5000 + b"}",
        b'{"text": "\xff", "label": 0}',
    ], ids=["text-int", "pair-int", "nan", "infinity", "overflow", "bool-token",
            "deep", "digits", "not-utf8"])
    def test_bad_line_is_schema_error_with_line(self, tmp_path, vocab, line):
        path = tmp_path / "d.jsonl"
        first = b'{"tokens": [4], "label": 1}' if b"tokens" in line \
            else b'{"text": "a", "label": 1}'  # same schema: no mixed-schema error
        path.write_bytes(first + b"\n" + line + b"\n")
        with pytest.raises(SchemaError, match="line 2"):
            load_jsonl(path, vocab)

    def test_negative_class_label_is_refused(self, tmp_path):
        # loading keeps it: only the loss decides whether -1 is a class label
        path = tmp_path / "d.jsonl"
        path.write_text('{"tokens":[5],"label":0}\n{"tokens":[6],"label":-1}\n',
                        encoding="utf-8")
        examples = load_jsonl(path)
        assert [ex.label for ex in examples] == [0, -1]
        with pytest.raises(SchemaError, match="d.jsonl:2: class label -1"):
            check_class_labels(examples, [])

    def test_label_beyond_float_range_loads_as_int(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"tokens":[5],"label":1%s}\n' % ("0" * 400), encoding="utf-8")
        assert load_jsonl(path)[0].label == 10 ** 400

    def test_negative_real_label_loads(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"tokens":[5],"label":-1}\n{"tokens":[6],"label":0.5}\n',
                        encoding="utf-8")
        assert [ex.label for ex in load_jsonl(path)] == [-1, 0.5]

    def test_round_trip(self, tmp_path):
        spec = SyntheticTaskSpec(kind="pair_similarity", train_size=20, eval_size=5,
                                 seq_len=(8, 12), seed=3)
        train, _ = gen_synthetic(spec)
        path = tmp_path / "round.jsonl"
        path.write_text("".join(json.dumps({"tokens": ex.token_ids[1:], "label": ex.label})
                                + "\n" for ex in train), encoding="utf-8")
        back = load_jsonl(path)
        assert back == train  # the source each loaded example records is left out

    def test_each_example_records_its_file_and_line(self, tmp_path):
        path = tmp_path / "src.jsonl"
        path.write_text('{"tokens":[5],"label":0}\n\n  \n{"tokens":[6],"label":1}\n',
                        encoding="utf-8")
        examples = load_jsonl(path)
        assert [ex.source for ex in examples] == ["src.jsonl:1", "src.jsonl:4"]
        sent = pickle.loads(pickle.dumps(examples))  # as to a grid worker
        assert [ex.source for ex in sent] == ["src.jsonl:1", "src.jsonl:4"]
        train, _ = gen_synthetic(SyntheticTaskSpec(kind="pattern_containment",
                                                   train_size=2, eval_size=1))
        assert [ex.source for ex in train] == [None, None]


def _containers(inner):
    return st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                         max_size=3)


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    _containers, max_leaves=8)
RECORD = st.fixed_dictionaries({}, optional={
    "tokens": st.lists(st.integers(-1, 40), max_size=4) | JSON,
    "text": st.text(max_size=8) | JSON,
    "text_pair": st.text(max_size=8) | JSON,
    "label": st.integers(-1, 2) | st.integers(10 ** 308, 10 ** 320) | st.floats() | JSON,
})
LINE = (RECORD.map(lambda r: json.dumps(r).encode())
        | st.text(max_size=20).map(str.encode) | st.binary(max_size=20))


@settings(max_examples=300, deadline=None)
@given(st.lists(LINE, max_size=4), st.sampled_from([None, 1, 3]), st.booleans())
def test_random_lines_load_or_raise_schema_error(lines, max_len, with_vocab):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.jsonl"
        path.write_bytes(b"\n".join(lines))
        vocab = Vocab.from_tokens(["x", "a"]) if with_vocab else None
        try:
            examples = load_jsonl(path, vocab, max_len)
        except SchemaError:
            return
    assert all(isinstance(ex, Example) for ex in examples)


class TestGenerators:
    def test_deterministic(self):
        spec = SyntheticTaskSpec(kind="pattern_containment", train_size=50,
                                 eval_size=10, seed=5)
        a = gen_synthetic(spec)
        b = gen_synthetic(spec)
        assert a == b

    def test_pattern_label_iff_motif(self):
        spec = SyntheticTaskSpec(kind="pattern_containment", train_size=400,
                                 eval_size=100, seed=1)
        train, evalset = gen_synthetic(spec)
        for ex in train + evalset:
            body = ex.token_ids[1:]
            has_motif = any(body[i] == 4 and body[i + 1] == 5
                            for i in range(len(body) - 1))
            assert has_motif == (ex.label == 1)

    def test_pattern_balance_at_10k(self):
        spec = SyntheticTaskSpec(kind="pattern_containment", train_size=10_000,
                                 eval_size=1, seed=2)
        train, _ = gen_synthetic(spec)
        positives = sum(ex.label for ex in train)
        assert abs(positives / 10_000 - 0.5) <= 0.02

    def test_majority_counts_match_label_and_never_tie(self):
        spec = SyntheticTaskSpec(kind="majority_token", train_size=300,
                                 eval_size=50, seed=4)
        train, evalset = gen_synthetic(spec)
        for ex in train + evalset:
            counts = Counter(ex.token_ids[1:])
            assert counts[4] != counts[5]
            assert (counts[5] > counts[4]) == (ex.label == 1)

    def test_pair_similarity_label_is_jaccard(self):
        spec = SyntheticTaskSpec(kind="pair_similarity", train_size=200,
                                 eval_size=50, seq_len=(8, 14), seed=6)
        train, _ = gen_synthetic(spec)
        for ex in train:
            sep = ex.token_ids.index(SEP_ID)
            a = set(ex.token_ids[1:sep])
            b = set(ex.token_ids[sep + 1:])
            assert 0.0 <= ex.label <= 1.0
            assert ex.label == len(a & b) / len(a | b)

    def test_train_eval_disjoint_identities(self):
        spec = SyntheticTaskSpec(kind="pattern_containment", train_size=500,
                                 eval_size=200, seed=7)
        train, evalset = gen_synthetic(spec)
        train_keys = {tuple(ex.token_ids) for ex in train}
        for ex in evalset:
            assert tuple(ex.token_ids) not in train_keys

    def test_infeasible_spec(self):
        with pytest.raises(ValueError):
            gen_synthetic(SyntheticTaskSpec(kind="pattern_containment",
                                            seq_len=(1, 1)))


class TestSubsample:
    def _dataset(self, n=100, seed=0):
        spec = SyntheticTaskSpec(kind="pattern_containment", train_size=n,
                                 eval_size=1, seed=seed)
        return gen_synthetic(spec)[0]

    def test_full_size_is_permutation(self):
        ds = self._dataset()
        out = subsample(ds, len(ds), seed=1)
        assert len(out) == len(ds)
        key = lambda ex: (tuple(ex.token_ids), ex.label)
        assert sorted(map(key, out)) == sorted(map(key, ds))

    def test_single(self):
        ds = self._dataset()
        assert len(subsample(ds, 1, seed=2)) == 1

    def test_stratified_within_one(self):
        ds = self._dataset(n=101)  # slightly unbalanced after alternation
        for n in (5, 10, 33, 50):
            out = subsample(ds, n, seed=3)
            orig = Counter(ex.label for ex in ds)
            got = Counter(ex.label for ex in out)
            for label, count in orig.items():
                expect = n * count / len(ds)
                assert abs(got[label] - expect) <= 1.0

    def test_out_of_range(self):
        ds = self._dataset(n=10)
        with pytest.raises(ValueError):
            subsample(ds, 11, seed=0)
        with pytest.raises(ValueError):
            subsample(ds, 0, seed=0)

    def test_deterministic(self):
        ds = self._dataset()
        a = subsample(ds, 20, seed=9)
        b = subsample(ds, 20, seed=9)
        assert a == b


def test_example_requires_cls_prefix():
    with pytest.raises(ValueError):
        Example(token_ids=[5, 6], label=0)
