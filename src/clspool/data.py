"""Tokenization, dataset I/O, and synthetic tasks that stand in for GLUE.

Token ids 0-3 are reserved: 0=[PAD], 1=[CLS], 2=[UNK], 3=[SEP]. Every example
starts with [CLS]; sentence pairs are joined with [SEP] (no segment
embeddings). The tokenizer is plain whitespace + lowercase: the thing under
test here is head aggregation, not subword modeling.

Three generated task kinds:

* ``pattern_containment``  - binary; label 1 iff a fixed two-token motif occurs.
  Negatives never contain the motif tokens, so the task is linearly detectable
  and good for smoke training.
* ``majority_token``       - binary; label = which of two marker tokens occurs
  more often (ties excluded by construction). Rewards aggregating across the
  whole sequence width.
* ``pair_similarity``      - regression; label = Jaccard overlap of two token
  sets joined by [SEP]. Exercises the Spearman metric.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "PAD_ID",
    "CLS_ID",
    "UNK_ID",
    "SEP_ID",
    "FIRST_CONTENT_ID",
    "Vocab",
    "Example",
    "SyntheticTaskSpec",
    "SchemaError",
    "tokenize",
    "load_jsonl",
    "load_vocab",
    "read_utf8",
    "gen_synthetic",
    "subsample",
    "TASK_PRESETS",
]

PAD_ID = 0
CLS_ID = 1
UNK_ID = 2
SEP_ID = 3
FIRST_CONTENT_ID = 4
# A synthetic training or eval set may hold at most this many examples.
# gen_synthetic makes 10k-50k of them a second, so this many already take
# a minute or more; a larger size is refused before any is made.
MAX_SYNTHETIC_SIZE = 1_000_000


class SchemaError(ValueError):
    """A line of an input file (data, vocabulary or config) is not what it must hold."""


@dataclass
class Vocab:
    token_to_id: dict[str, int] = field(default_factory=dict)

    @classmethod
    def from_tokens(cls, tokens) -> "Vocab":
        mapping = {}
        for tok in tokens:
            if tok not in mapping:
                mapping[tok] = FIRST_CONTENT_ID + len(mapping)
        return cls(mapping)

    @property
    def size(self) -> int:
        """Total id space including the four reserved ids."""
        return FIRST_CONTENT_ID + len(self.token_to_id)

    def id_of(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)


def read_utf8(path) -> str:
    """The text of a UTF-8 file; bytes that are not UTF-8 raise SchemaError
    naming the place as "<file name>:<line>"."""
    blob = Path(path).read_bytes()
    try:
        return blob.decode("utf-8")
    except UnicodeDecodeError as err:
        line_no = blob.count(b"\n", 0, err.start) + 1
        raise SchemaError(f"{Path(path).name}:{line_no}: not valid UTF-8") from None


def load_vocab(path) -> Vocab:
    """Vocabulary file: one token per line, id = line index + 4."""
    return Vocab.from_tokens(read_utf8(path).splitlines())


@dataclass
class Example:
    token_ids: list[int]
    label: int | float
    source: str | None = field(default=None, compare=False)  # "<file name>:<line>" if loaded

    def __post_init__(self):
        if not self.token_ids or self.token_ids[0] != CLS_ID:
            raise ValueError("Example: token_ids must start with [CLS]")


def tokenize(text: str, vocab: Vocab, text_pair: str | None = None,
             max_len: int | None = None) -> list[int]:
    """Whitespace-split, lowercase, map with [UNK] fallback, prepend [CLS].

    A second text is appended after a [SEP]. Results longer than max_len are
    tail-truncated, keeping [CLS].
    """
    ids = [CLS_ID]
    ids.extend(vocab.id_of(tok) for tok in text.lower().split())
    if text_pair is not None:
        ids.append(SEP_ID)
        ids.extend(vocab.id_of(tok) for tok in text_pair.lower().split())
    if max_len is not None and len(ids) > max_len:
        ids = ids[:max_len]
    return ids


def _example_from_record(record: dict, vocab: Vocab | None, max_len: int | None,
                         where: str) -> tuple[Example, str]:
    if "label" not in record:
        raise SchemaError(f"{where}: missing label")
    label = record["label"]
    # exact types: bool is an int subclass, not a label
    if type(label) is not int and not (type(label) is float and math.isfinite(label)):
        raise SchemaError(f"{where}: label must be a finite int or real")
    if "tokens" in record:
        tokens = record["tokens"]
        if not isinstance(tokens, list) or not all(
                type(t) is int and t >= 0 for t in tokens):
            raise SchemaError(f"{where}: tokens must be a nonnegative int array")
        ids = [CLS_ID] + tokens
        if max_len is not None and len(ids) > max_len:
            ids = ids[:max_len]
        return Example(token_ids=ids, label=label), "tokens"
    if "text" in record:
        if vocab is None:
            raise SchemaError(f"{where}: text schema requires a vocabulary")
        text, pair = record["text"], record.get("text_pair")
        if not isinstance(text, str) or not isinstance(pair, (str, type(None))):
            raise SchemaError(f"{where}: text and text_pair must be strings")
        ids = tokenize(text, vocab, pair, max_len)
        return Example(token_ids=ids, label=label), "text"
    raise SchemaError(f"{where}: need either 'tokens' or 'text'")


def load_jsonl(path, vocab: Vocab | None = None,
               max_len: int | None = None) -> list[Example]:
    """Read one JSON object per line; mixed token/text schemas are rejected.

    Every malformed line raises SchemaError naming it as "<file name>:<line>",
    and every example records that as its ``source``. Whether integer labels are
    class labels is decided where the loss is known, not here.
    """
    text, name = read_utf8(path), Path(path).name
    examples: list[Example] = []
    schema_seen: str | None = None
    for line_no, line in enumerate(io.StringIO(text, newline=None), start=1):
        if not line.strip():
            continue
        where = f"{name}:{line_no}"
        try:
            record = json.loads(line)
        except json.JSONDecodeError as err:
            raise SchemaError(f"{where}: malformed JSON ({err.msg})")
        except (ValueError, RecursionError) as err:  # digit limit, deep nesting
            raise SchemaError(f"{where}: unreadable JSON ({type(err).__name__})")
        if not isinstance(record, dict):
            raise SchemaError(f"{where}: expected a JSON object")
        example, schema = _example_from_record(record, vocab, max_len, where)
        if schema_seen is None:
            schema_seen = schema
        elif schema != schema_seen:
            raise SchemaError(f"{where}: mixed '{schema}' and "
                              f"'{schema_seen}' schemas in one file")
        example.source = where
        examples.append(example)
    return examples


@dataclass
class SyntheticTaskSpec:
    kind: str
    vocab_size: int = 50
    seq_len: tuple[int, int] = (16, 16)
    train_size: int = 2000
    eval_size: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.kind not in _GENERATORS:
            raise ValueError(f"unknown synthetic task kind '{self.kind}'")
        if self.train_size < 1 or self.eval_size < 1:
            raise ValueError("dataset sizes must be >= 1")
        if max(self.train_size, self.eval_size) > MAX_SYNTHETIC_SIZE:
            raise ValueError(f"dataset sizes must be <= MAX_SYNTHETIC_SIZE "
                             f"({MAX_SYNTHETIC_SIZE}), got train_size {self.train_size} "
                             f"and eval_size {self.eval_size}")
        lo, hi = self.seq_len
        if not 1 <= lo <= hi:
            raise ValueError(f"seq_len must be a range (lo, hi) with 1 <= lo <= hi, "
                             f"got {self.seq_len}")
        if self.seed < 0:  # numpy's generators take no negative seed
            raise ValueError(f"data seed must be >= 0, got {self.seed}")


# motif / marker tokens used by the binary tasks
_MOTIF = (FIRST_CONTENT_ID, FIRST_CONTENT_ID + 1)          # ids 4, 5
_MARKERS = (FIRST_CONTENT_ID, FIRST_CONTENT_ID + 1)
_FILL_START = FIRST_CONTENT_ID + 2                         # ids 6..


def _gen_pattern(spec: SyntheticTaskSpec, rng: np.random.Generator, label: int) -> Example:
    length = int(rng.integers(spec.seq_len[0], spec.seq_len[1] + 1))
    body = rng.integers(_FILL_START, spec.vocab_size, size=length)
    if label == 1:
        pos = int(rng.integers(0, length - 1))
        body[pos], body[pos + 1] = _MOTIF
    return Example(token_ids=[CLS_ID] + body.tolist(), label=label)


def _gen_majority(spec: SyntheticTaskSpec, rng: np.random.Generator, label: int) -> Example:
    length = int(rng.integers(spec.seq_len[0], spec.seq_len[1] + 1))
    n_markers = max(2, length // 2)
    # counts for the winning marker: strictly more than half, never a tie
    lo = n_markers // 2 + 1
    wins = int(rng.integers(lo, n_markers + 1))
    counts = (wins, n_markers - wins) if label == 1 else (n_markers - wins, wins)
    body = np.concatenate([
        np.full(counts[0], _MARKERS[1]),
        np.full(counts[1], _MARKERS[0]),
        rng.integers(_FILL_START, spec.vocab_size, size=length - n_markers),
    ])
    rng.shuffle(body)
    return Example(token_ids=[CLS_ID] + body.tolist(), label=label)


def _gen_pair(spec: SyntheticTaskSpec, rng: np.random.Generator, _label: int) -> Example:
    length = int(rng.integers(spec.seq_len[0], spec.seq_len[1] + 1))
    side = max(2, (length - 1) // 2)
    pool = np.arange(FIRST_CONTENT_ID, spec.vocab_size)
    size_a = int(rng.integers(2, side + 1))
    size_b = int(rng.integers(2, side + 1))
    overlap = int(rng.integers(0, min(size_a, size_b) + 1))
    a = rng.choice(pool, size=size_a, replace=False)
    rest = np.setdiff1d(pool, a, assume_unique=True)
    b = np.concatenate([rng.choice(a, size=overlap, replace=False),
                        rng.choice(rest, size=size_b - overlap, replace=False)])
    label = overlap / float(size_a + size_b - overlap)  # |A&B| / |A|B|
    ids = [CLS_ID] + a.tolist() + [SEP_ID] + b.tolist()
    return Example(token_ids=ids, label=label)


_GENERATORS = {
    "pattern_containment": _gen_pattern,
    "majority_token": _gen_majority,
    "pair_similarity": _gen_pair,
}


def gen_synthetic(spec: SyntheticTaskSpec) -> tuple[list[Example], list[Example]]:
    """Deterministic (train, eval) datasets. Eval sequences repeat neither a
    training sequence nor each other; ValueError when 100 draws in a row for one
    eval example all repeat."""
    if spec.vocab_size < _FILL_START + 2:
        raise ValueError(f"vocab_size must be >= {_FILL_START + 2} for generated tasks, "
                         f"got {spec.vocab_size}")
    if spec.kind == "pattern_containment" and spec.seq_len[0] < 2:
        raise ValueError("pattern_containment: motif needs seq_len >= 2")
    if spec.kind == "pair_similarity" and spec.seq_len[0] < 5:
        raise ValueError("pair_similarity: need seq_len >= 5 for two sets and [SEP]")

    rng = np.random.default_rng(spec.seed)
    gen = _GENERATORS[spec.kind]
    train = [gen(spec, rng, i % 2) for i in range(spec.train_size)]
    seen = {tuple(ex.token_ids) for ex in train}
    evalset: list[Example] = []
    for i in range(spec.eval_size):
        for _ in range(100):
            ex = gen(spec, rng, i % 2)
            if tuple(ex.token_ids) not in seen:
                break
        else:
            raise ValueError(f"{spec.kind}: cannot draw eval_size {spec.eval_size} sequences "
                             f"unlike train_size {spec.train_size} at vocab_size "
                             f"{spec.vocab_size} and seq_len {spec.seq_len}: 100 draws for "
                             f"eval example {i + 1} all repeated one")
        seen.add(tuple(ex.token_ids))
        evalset.append(ex)
    return train, evalset


def subsample(dataset: list[Example], n: int, seed: int) -> list[Example]:
    """Seeded sample without replacement, label-stratified for int labels."""
    if not 1 <= n <= len(dataset):
        raise ValueError(f"subsample: n={n} out of range [1, {len(dataset)}]")
    if seed < 0:
        raise ValueError(f"data seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    labels = [ex.label for ex in dataset]
    if not all(isinstance(lab, int) for lab in labels):
        idx = rng.choice(len(dataset), size=n, replace=False)
        return [dataset[i] for i in idx]

    # largest-remainder allocation keeps class proportions within one example
    by_class: dict[int, list[int]] = {}
    for i, lab in enumerate(labels):
        by_class.setdefault(lab, []).append(i)
    quotas = {c: n * len(ix) / len(dataset) for c, ix in by_class.items()}
    counts = {c: int(q) for c, q in quotas.items()}
    short = n - sum(counts.values())
    for c in sorted(quotas, key=lambda c: (quotas[c] - counts[c], c), reverse=True):
        if short == 0:
            break
        counts[c] += 1
        short -= 1
    chosen: list[int] = []
    for c in sorted(by_class):
        picked = rng.choice(by_class[c], size=counts[c], replace=False)
        chosen.extend(int(i) for i in picked)
    rng.shuffle(chosen)
    return [dataset[i] for i in chosen]


# ready-made task configurations for the CLI: (generator kind, task type)
TASK_PRESETS = {
    "pattern": ("pattern_containment", "classification"),
    "majority": ("majority_token", "classification"),
    "pairsim": ("pair_similarity", "regression"),
}
