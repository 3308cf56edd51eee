"""Batch experiment driver.

Subcommands::

    train      one (head, seed) fine-tuning run; writes checkpoint + metrics JSON
    compare    heads x seeds grid; mean/std/delta tables and CSV
    ablate-k   pooled-head depth sweep over k
    lowres     compare at several training-set sizes
    gradcheck  finite-difference check through every head kind
    eval       score a saved checkpoint on a task or data file

Exit codes: 0 success, 2 usage/configuration error, 1 runtime error. Flags
override config-file values (flat ``key=value`` lines); the env var CLSPOOL_SEED
supplies the default seed of train, compare, ablate-k and lowres. Every table and
CSV is a deterministic function of (config, seeds): rows follow the given
head/seed order, and parallel workers (--jobs) only change wall time, not bytes.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, fields, replace
from io import StringIO
from pathlib import Path

import numpy as np

from . import arraycore as ac
from .data import (
    SyntheticTaskSpec,
    TASK_PRESETS,
    gen_synthetic,
    load_jsonl,
    load_vocab,
    subsample,
)
from .encoder import EncoderConfig
from .heads import VALID_HEAD_KINDS, ConfigurationError, HeadKind, parse_head_spec
from .metrics import SeedAggregate, aggregate_seeds, check_range
from .training import (
    Model,
    TrainConfig,
    TrainingError,
    TrainResult,
    build_model,
    check_labels,
    evaluate,
    model_from_checkpoint,
    save_checkpoint,
    train,
)

USAGE_ERROR = 2
RUNTIME_ERROR = 1

METRIC_ORDER = ("accuracy", "f1", "mcc", "spearman")
METRIC_LABELS = {"accuracy": "Acc.", "f1": "F1", "mcc": "MCC", "spearman": "Sp."}

GRADCHECK_TOLERANCE = {64: 1e-4, 32: 1e-2}

BASELINE = "baseline"   # the head every Delta is measured against


class CliError(Exception):
    """Usage-level problem; maps to exit code 2."""


@dataclass
class RunReport:
    """Aggregate of one head across seeds, plus its gap to the baseline head."""

    head_spec: str
    runs: dict[int, dict[str, float]]   # seed -> metrics, in run order; {} if it failed
    aggregates: dict[str, SeedAggregate]
    delta: dict[str, float] = field(default_factory=dict)


@dataclass
class ExperimentConfig:
    """Every setting of a run or grid, and the only place one is named.

    Each field is a config-file key of every subcommand, and a flag (``_``
    becomes ``-``) of each subcommand that reads it (see ``build_parser``). The
    list fields take a repeatable singular flag (``--head``, ``--seed``) and a
    comma list in config files.
    """

    task: str | None = field(default=None, metadata={
        "help": "synthetic task: " + ", ".join(sorted(TASK_PRESETS))})
    data: str | None = field(default=None, metadata={"help": "training set JSONL"})
    eval_data: str | None = field(default=None, metadata={"help": "evaluation set JSONL"})
    vocab: str | None = field(default=None, metadata={
        "help": "vocabulary file (one token per line)"})
    heads: list[str] = field(default_factory=lambda: ["baseline"],
                             metadata={"help": "head spec, repeatable"})
    seeds: list[int] = field(default_factory=lambda: [0],
                             metadata={"help": "run seed, repeatable"})
    epochs: int = 4
    lr: float = 2e-5
    batch_size: int = 32
    warmup_ratio: float = 0.1
    weight_decay: float = 0.01
    dropout: float = 0.1
    train_size: int = 2000
    eval_size: int = 500
    vocab_size: int = 50
    seq_len: int = 16
    data_seed: int = 0
    num_layers: int = 4
    d_model: int = 32
    enc_heads: int = 4
    max_seq_len: int = 64
    out: str = field(default="runs", metadata={"help": "output directory"})
    jobs: int = field(default=1, metadata={"help": "parallel (head, seed) workers"})


# field annotation (a string under postponed evaluation) -> (converter, whether
# the field collects several values)
_CONVERTERS = {"str | None": (str, False), "str": (str, False), "int": (int, False),
               "float": (float, False), "list[str]": (str, True), "list[int]": (int, True)}


def _experiment_from_args(args) -> ExperimentConfig:
    """Defaults, then config-file values, then flags; for a subcommand that
    takes --seed, CLSPOOL_SEED stands in for seeds that neither the file nor a
    flag gives. A negative data seed is refused here, before any data is read:
    file data would never pass it to the generator or subsample that check it."""
    values = _read_config_file(args.config) if args.config else {}
    for f in fields(ExperimentConfig):
        if getattr(args, f.name, None) is not None:
            values[f.name] = getattr(args, f.name)
    if hasattr(args, "seeds") and "seeds" not in values \
            and (raw := os.environ.get("CLSPOOL_SEED")):
        values["seeds"] = [_convert(int, raw, "CLSPOOL_SEED")]
    exp = ExperimentConfig(**values)
    if exp.data_seed < 0:
        raise CliError(f"data seed must be >= 0, got {exp.data_seed}")
    return exp


def _convert(convert, raw: str, name: str, what: str = ""):
    """convert(raw); a value it refuses is a usage error naming ``name``."""
    try:
        return convert(raw)
    except ValueError:
        what = what or ("an integer" if convert is int else "a number")
        raise CliError(f"{name} must be {what}, got '{raw}'") from None


@contextmanager
def _input_file(flag: str):
    """Turn a failure to read the file a flag names into a usage error."""
    try:
        yield
    except (OSError, UnicodeDecodeError) as err:
        raise CliError(f"cannot read {flag} file: {err}") from err


def _read_config_file(path: str) -> dict:
    """ExperimentConfig values from flat key=value lines (comma lists for the
    list fields)."""
    with _input_file("--config"):
        text = Path(path).read_text(encoding="utf-8")
    by_name = {f.name: f for f in fields(ExperimentConfig)}
    values = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, raw = line.partition("=")
        if not sep:
            raise CliError(f"config file line {line_no}: expected key=value")
        key, raw = key.strip(), raw.strip()
        if key not in by_name:
            raise CliError(f"config file: unknown key '{key}'")
        convert, many = _CONVERTERS[by_name[key].type]
        name = f"config file line {line_no}: {key}"
        value = [_convert(convert, v.strip(), name) for v in raw.split(",") if v.strip()] \
            if many else _convert(convert, raw, name)
        if value == []:
            raise CliError(f"config file: '{key}' needs at least one value")
        values[key] = value
    return values


def _load_examples(flag: str, path: str, vocab, max_len: int) -> list:
    """The examples of the JSONL file a flag names; a file with none is a usage
    error."""
    with _input_file(flag):
        examples = load_jsonl(path, vocab, max_len=max_len)
    if not examples:
        raise CliError(f"{flag} file {path} holds no examples")
    return examples


def _load_datasets(exp: ExperimentConfig):
    """Returns (train_set, eval_set, task_name, loss_kind).

    File data widens exp.vocab_size to cover the vocabulary file and every
    token id it holds.
    """
    if exp.task:
        if exp.task not in TASK_PRESETS:
            raise CliError(f"unknown task '{exp.task}'; choose from: "
                           + ", ".join(sorted(TASK_PRESETS)))
        kind, task_type = TASK_PRESETS[exp.task]
        spec = SyntheticTaskSpec(kind=kind, vocab_size=exp.vocab_size,
                                 seq_len=(exp.seq_len, exp.seq_len),
                                 train_size=exp.train_size,
                                 eval_size=exp.eval_size, seed=exp.data_seed)
        train_set, eval_set = gen_synthetic(spec)
        loss = "cross_entropy" if task_type == "classification" else "squared_error"
        return train_set, eval_set, exp.task, loss
    if exp.data:
        with _input_file("--vocab"):
            vocab = load_vocab(exp.vocab) if exp.vocab else None
        train_set = _load_examples("--data", exp.data, vocab, exp.max_seq_len)
        if not exp.eval_data:
            raise CliError("--data also needs --eval-data")
        eval_set = _load_examples("--eval-data", exp.eval_data, vocab, exp.max_seq_len)
        largest_id = max((i for ex in train_set + eval_set for i in ex.token_ids), default=0)
        exp.vocab_size = max(exp.vocab_size, vocab.size if vocab else 0, largest_id + 1)
        labels_int = all(isinstance(ex.label, int) for ex in train_set + eval_set)
        loss = "cross_entropy" if labels_int else "squared_error"
        return train_set, eval_set, Path(exp.data).stem, loss
    raise CliError("no input: pass --task NAME or --data PATH")


def _check_seq_len(exp: ExperimentConfig, limit: str) -> None:
    """A --task's sequences and their [CLS] slot must fit ``limit``, exp.max_seq_len."""
    if exp.task and exp.seq_len + 1 > exp.max_seq_len:
        raise CliError(f"--seq-len {exp.seq_len} plus the one [CLS] slot exceeds "
                       f"{limit} {exp.max_seq_len}")


def _plan(exp: ExperimentConfig, heads: list[str],
          sizes=(None,)) -> list[list[tuple]]:
    """Check every setting, load the data once and build every run, before any
    run starts or any output exists. Returns, per training-set size (None: the
    whole set), one (task, head spec, config, train set, eval set) cell per head
    and seed, in head-then-seed order."""
    if exp.jobs < 1:
        raise CliError(f"--jobs must be >= 1, got {exp.jobs}")
    out = Path(exp.out)
    taken = next((p for p in (out, *out.parents) if p.exists() and not p.is_dir()), None)
    if taken is not None:
        raise CliError(f"--out {exp.out}: {taken} is not a directory")
    _check_seq_len(exp, "--max-seq-len")
    kinds = [parse_head_spec(spec) for spec in heads]
    for given in ([f"head '{kind.spec()}'" for kind in kinds],
                  [f"seed {seed}" for seed in exp.seeds],
                  [f"size {'full' if size is None else size}" for size in sizes]):
        repeated = next((v for i, v in enumerate(given) if v in given[:i]), None)
        if repeated:
            raise CliError(f"{repeated} is given twice")
    train_set, eval_set, task, loss = _load_datasets(exp)
    enc = EncoderConfig(vocab_size=exp.vocab_size, num_layers=exp.num_layers,
                        d_model=exp.d_model, num_heads_encoder=exp.enc_heads,
                        max_seq_len=exp.max_seq_len, dropout=exp.dropout)
    cfgs = [(spec, TrainConfig(encoder=enc, head=kind, learning_rate=exp.lr,
                               epochs=exp.epochs, batch_size=exp.batch_size,
                               warmup_ratio=exp.warmup_ratio, weight_decay=exp.weight_decay,
                               seed=seed, loss=loss))
            for spec, kind in zip(heads, kinds) for seed in exp.seeds]
    plan = []
    for size in sizes:
        subset = train_set if size is None else subsample(train_set, size, exp.data_seed)
        check_labels(subset, "training", loss)
        check_labels(eval_set, "eval", loss)
        plan.append([(task, spec, cfg, subset, eval_set) for spec, cfg in cfgs])
    return plan


def _slug(head_spec: str) -> str:
    return "".join(ch if ch.isalnum() else "-" for ch in head_spec)


def _run_record(task: str, head_spec: str, seed: int, result: TrainResult) -> dict:
    return {"task": task, "head": head_spec, "seed": seed,
            "metrics": result.eval_metrics, "train_metrics": result.train_metrics,
            "final_loss": result.final_loss, "n_train": result.n_train,
            "n_eval": result.n_eval, "wall_time_s": result.wall_time_s}


def _error_record(cell: tuple, error: str) -> dict:
    task, head_spec, cfg, *_ = cell
    return {"task": task, "head": head_spec, "seed": cfg.seed,
            "metrics": {}, "error": error, "wall_time_s": 0.0}


def _run_cell(cell: tuple) -> dict:
    """Train one planned cell and return its record; a diverged run becomes an
    error record."""
    task, head_spec, cfg, train_set, eval_set = cell
    try:
        _, result = train(cfg, train_set, eval_set)
    except TrainingError as err:
        return _error_record(cell, str(err))
    return _run_record(task, head_spec, cfg.seed, result)


def _run_alone(cell: tuple) -> dict:
    """Run a cell once more, alone in a fresh one-worker pool; if that worker
    dies too, the cell's error record."""
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    with ProcessPoolExecutor(max_workers=1) as pool:
        try:
            return pool.submit(_run_cell, cell).result()
        except BrokenProcessPool:
            return _error_record(cell, "its worker process died before the run finished")


def _records(returned, cells: list[tuple]):
    """The records ``returned`` yields, in cell order. Once a worker process
    dies the pool gives back nothing more, so each cell that has not come back
    is run again alone."""
    from concurrent.futures.process import BrokenProcessPool
    done = 0
    try:
        for record in returned:
            done += 1
            yield record
    except BrokenProcessPool:
        for cell in cells[done:]:
            yield _run_alone(cell)


def _run_grid(cells: list[tuple], heads: list[str], jobs: int, out_dir: Path,
              where: str = "") -> tuple[list[RunReport], int]:
    """All planned runs in order, each run's JSON written as soon as it is back
    and each failed run (diverged, or lost with a worker process that died)
    named on stderr after ``where``. Returns the per-head reports and the grid
    command's exit code."""
    runs_dir = out_dir / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    records = []
    workers = min(jobs, len(cells))  # a fork pool starts all its workers at once
    parallel = workers > 1
    if parallel:  # the pool machinery loads only in a process that starts a pool
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) if parallel else nullcontext() as pool:
        returned = _records(pool.map(_run_cell, cells), cells) if parallel \
            else map(_run_cell, cells)
        for record in returned:
            name = f"{_slug(record['head'])}__seed{record['seed']}.json"
            (runs_dir / name).write_text(json.dumps(record, indent=2, sort_keys=True),
                                         encoding="utf-8")
            records.append(record)
    failed = [r for r in records if "error" in r]
    for r in failed:
        print(f"run failed: {where}head={r['head']} seed={r['seed']}: {r['error']}",
              file=sys.stderr)
    return build_reports(records, heads), RUNTIME_ERROR if failed else 0


def build_reports(records: list[dict], heads: list[str]) -> list[RunReport]:
    """Fold per-run records into per-head RunReports with baseline deltas.

    Failed runs (records carrying an "error" key) contribute no values; a head
    whose runs all failed ends up with empty aggregates and renders as n/a.
    """
    reports = []
    for spec in heads:
        runs = {r["seed"]: {} if "error" in r else r["metrics"]
                for r in records if r["head"] == spec}
        per_seed: dict[str, list[float]] = {}   # metric -> values in seed order
        for seed in sorted(runs):
            for metric, value in runs[seed].items():
                check_range(metric, value)
                per_seed.setdefault(metric, []).append(value)
        aggregates = {m: aggregate_seeds(vals) for m, vals in per_seed.items()}
        reports.append(RunReport(head_spec=spec, runs=runs, aggregates=aggregates))
    base = next((r for r in reports if r.head_spec == BASELINE), None)
    if base is not None:
        for report in reports:
            report.delta = {
                m: report.aggregates[m].mean - base.aggregates[m].mean
                for m in report.aggregates if m in base.aggregates}
    return reports


def _metric_columns(reports: list[RunReport]) -> list[str]:
    present = {m for r in reports for m in r.aggregates}
    return [m for m in METRIC_ORDER if m in present]


def _table(corner: str, width: int, rows: list[tuple[str, dict[str, float]]],
           cols: list[str], cell: int = 10, fmt: str = ".4f") -> str:
    """A label column `width` wide, then one `cell`-wide column per metric;
    `n/a` where a row has no value for the metric."""
    lines = [corner.ljust(width) + "".join(METRIC_LABELS[m].rjust(cell) for m in cols)]
    for label, values in rows:
        lines.append(label.ljust(width)
                     + "".join(format(values[m], f"{cell}{fmt}") if m in values
                               else "n/a".rjust(cell) for m in cols))
    return "\n".join(lines) + "\n"


def _means(report: RunReport) -> dict[str, float]:
    return {m: agg.mean for m, agg in report.aggregates.items()}


def format_mean_table(reports: list[RunReport]) -> str:
    """Aligned text in the layout of the per-task results table: one row per
    head, one column per metric, final Delta row = best variant - baseline."""
    cols = _metric_columns(reports)
    width = max(len(r.head_spec) for r in reports) + 2
    rows = [(r.head_spec, _means(r)) for r in reports]
    base = next((r for r in reports if r.head_spec == BASELINE), None)
    variants = [r for r in reports if r.head_spec != BASELINE]
    if base is None:
        note = f"(no {BASELINE} head present; Delta row omitted)"
    elif not variants:
        note = "(no variant heads; Delta row omitted)"
    elif not base.aggregates:
        note = f"(every {BASELINE} run failed; Delta row omitted)"
    else:
        note = None
        delta = {}
        for m in base.aggregates:
            best = max((r.aggregates[m].mean for r in variants if m in r.aggregates),
                       default=None)
            if best is not None:
                delta[m] = best - base.aggregates[m].mean
        rows.append(("Delta", delta))
    return _table("Model", width, rows, cols) + (note + "\n" if note else "")


def format_std_table(reports: list[RunReport]) -> str:
    """Seed standard deviations in the layout of the stability table."""
    width = max(len(r.head_spec) for r in reports) + 2
    rows = [(r.head_spec, {m: agg.std for m, agg in r.aggregates.items()})
            for r in reports]
    return _table("Model", width, rows, _metric_columns(reports), cell=12, fmt=".2e")


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    buffer = StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    path.write_text(buffer.getvalue(), encoding="utf-8")


def _csv_rows(reports: list[RunReport]) -> list[list[str]]:
    """One row per head and metric it has: head, metric, the value of each
    seed's run (empty where it failed), mean, std, delta (empty without a
    baseline value)."""
    rows = []
    for r in reports:
        for m in _metric_columns([r]):
            agg = r.aggregates[m]
            delta = repr(r.delta[m]) if m in r.delta else ""
            rows.append([r.head_spec, m,
                         *(repr(float(run[m])) if m in run else "" for run in r.runs.values()),
                         repr(agg.mean), repr(agg.std), delta])
    return rows


def write_compare_csv(path: Path, reports: list[RunReport]) -> None:
    """The grid's CSV: one seed_<s> column per seed, in run order."""
    header = ["head", "metric", *(f"seed_{s}" for s in reports[0].runs), "mean", "std", "delta"]
    _write_csv(path, header, _csv_rows(reports))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_train(args) -> int:
    exp = _experiment_from_args(args)
    if len(exp.heads) != 1:
        raise CliError("train runs a single head; pass exactly one --head")
    if len(exp.seeds) != 1:
        raise CliError("train runs a single seed; pass exactly one --seed")
    head_spec, seed = exp.heads[0], exp.seeds[0]
    [[(task, _, cfg, train_set, eval_set)]] = _plan(exp, exp.heads)
    model, result = train(cfg, train_set, eval_set)
    out_dir = Path(exp.out)  # made only once train() has accepted the inputs
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{_slug(head_spec)}__seed{seed}"
    save_checkpoint(out_dir / f"{stem}.ckpt", model, cfg)
    record = {**_run_record(task, head_spec, seed, result), "checkpoint": f"{stem}.ckpt"}
    (out_dir / f"{stem}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True), encoding="utf-8")
    print(json.dumps(record["metrics"], sort_keys=True))
    return 0


def cmd_compare(args) -> int:
    exp = _experiment_from_args(args)
    if len(exp.heads) < 2:
        raise CliError("compare needs at least two --head values")
    [cells] = _plan(exp, exp.heads)
    out_dir = Path(exp.out)
    reports, status = _run_grid(cells, exp.heads, exp.jobs, out_dir)
    mean_table = format_mean_table(reports)
    std_table = format_std_table(reports)
    (out_dir / "compare.txt").write_text(mean_table, encoding="utf-8")
    (out_dir / "stddev.txt").write_text(std_table, encoding="utf-8")
    write_compare_csv(out_dir / "compare.csv", reports)
    print(mean_table)
    print("Seed standard deviations:")
    print(std_table)
    return status


def cmd_ablate_k(args) -> int:
    exp = _experiment_from_args(args)
    if len(exp.heads) != 1:
        raise CliError("ablate-k sweeps a single head; pass exactly one --head")
    [spec] = exp.heads
    kind = parse_head_spec(spec)
    if not (kind.uses_depth and kind.uses_attention):
        raise CliError(f"ablate-k: cannot sweep k for head '{spec}'; pass one --head "
                       "that pools and attends, such as maxseq+mha:h=4")
    if "k" in (a.partition("=")[0].strip() for a in spec.partition(":")[2].split(",")):
        raise CliError(f"ablate-k: head '{spec}' states k, which the sweep sets")
    ks = args.k or list(range(1, exp.num_layers + 1))
    heads = [replace(kind, k=k).spec() for k in ks]
    [cells] = _plan(exp, heads)
    out_dir = Path(exp.out)
    reports, status = _run_grid(cells, heads, exp.jobs, out_dir)
    table = _table("k", 6, [(f"k = {k}", _means(r)) for k, r in zip(ks, reports)],
                   _metric_columns(reports))
    (out_dir / "ablate_k.txt").write_text(table, encoding="utf-8")
    write_compare_csv(out_dir / "ablate_k.csv", reports)
    print(table)
    return status


def cmd_lowres(args) -> int:
    exp = _experiment_from_args(args)
    if not args.size:
        raise CliError("lowres needs at least one --size (int or 'full')")
    sizes = [None if raw == "full" else _convert(int, raw, "--size", "an integer or 'full'")
             for raw in args.size]
    plan = _plan(exp, exp.heads, sizes)
    out_dir = Path(exp.out)
    rows = []
    status = 0
    for size, cells in zip(sizes, plan):
        label = "full" if size is None else str(size)
        sub_dir = out_dir / f"size_{label}"
        reports, failed = _run_grid(cells, exp.heads, exp.jobs, sub_dir, f"size={label} ")
        status = failed or status
        (sub_dir / "compare.txt").write_text(format_mean_table(reports),
                                             encoding="utf-8")
        # the compare rows less their per-seed values
        rows += [[label, *row[:2], *row[-3:]] for row in _csv_rows(reports)]
    _write_csv(out_dir / "lowres.csv", ["size", "head", "metric", "mean", "std", "delta"],
               rows)
    print((out_dir / "lowres.csv").read_text())
    return status


def gradcheck_model(bits: int, seed: int = 13) -> tuple[Model, np.ndarray, np.ndarray]:
    """Toy model + a (1, T) probe batch and its mask for finite-difference checks.

    All weights are redrawn at a generic scale (sigma 0.25 matrices, perturbed
    layer-norm affines): the training-scale init leaves attention gradients
    below what central differences can resolve, and identity layer-norm
    affines make every token vector's norm exactly sqrt(d), parking the
    norm-select head on a knife edge where any perturbation flips selections.
    """
    dtype = np.float64 if bits == 64 else np.float32
    enc = EncoderConfig(vocab_size=16, num_layers=4, d_model=32,
                        num_heads_encoder=4, max_seq_len=8, dropout=0.0)
    cfg = TrainConfig(encoder=enc, head=HeadKind("mha"), learning_rate=1e-3,
                      seed=seed)
    model = build_model(cfg, n_classes=2, dtype=dtype)
    rng = np.random.default_rng([seed, 3])
    for name, p in model.named_parameters():  # layer-norm gains center on 1, the rest on 0
        noise = rng.normal(0.0, 0.25, p.data.shape)
        p.data[:] = (1.0 + noise if "gain" in name else noise).astype(dtype)
    ids = np.concatenate([[1], rng.integers(4, 16, size=6), [0]])[None, :]
    mask = np.array([[1.0] * 7 + [0.0]])
    return model, ids, mask


def _head_loss(model: Model, kind: HeadKind, ids, mask):
    return ac.sum_all(replace(model, head_kind=kind).forward(ids, mask))


def _gradcheck_errors(bits: int, seed: int) -> dict[str, float]:
    """Worst relative gradient error per head kind, each probing coordinates
    drawn from a fresh stream seeded with ``seed``.

    In 32-bit mode the central differences run on a float64 twin holding the
    same parameter values, as float32 differences cannot resolve small
    gradients.
    """
    model, ids, mask = gradcheck_model(bits, seed)
    params = [p for _, p in model.named_parameters()]
    if bits == 32:
        twin, _, _ = gradcheck_model(64, seed)
        twin_params = [p for _, p in twin.named_parameters()]
        for p32, p64 in zip(params, twin_params):
            p64.data = p32.data.astype(np.float64)
    errors = {}
    for kind in map(HeadKind, VALID_HEAD_KINDS):
        reference = (lambda: _head_loss(twin, kind, ids, mask), twin_params) if bits == 32 \
            else None
        errors[kind.spec()] = ac.grad_check(
            lambda: _head_loss(model, kind, ids, mask), params,
            max_coords_per_param=4, reference=reference, rng=np.random.default_rng(seed))
    return errors


def cmd_gradcheck(args) -> int:
    if args.seed and len(args.seed) != 1:
        raise CliError("gradcheck runs a single seed; pass exactly one --seed")
    bits = args.bits or 64
    if bits == 32:
        print("warning: 32-bit mode; tolerance loosens to 1e-2", file=sys.stderr)
    tolerance = GRADCHECK_TOLERANCE[bits]
    errors = _gradcheck_errors(bits, (args.seed or [13])[0])
    all_ok = True
    for spec, err in errors.items():
        ok = err < tolerance
        all_ok &= ok
        print(f"{spec:24s} max-rel-err {err:.3e}  {'PASS' if ok else 'FAIL'}")
    return 0 if all_ok else 1


def cmd_eval(args) -> int:
    if not args.ckpt:
        raise CliError("eval needs --ckpt PATH")
    exp = _experiment_from_args(args)
    with _input_file("--ckpt"):
        model, cfg = model_from_checkpoint(args.ckpt)
    # generated data must fit the checkpoint's embedding; file data is cut to its length
    exp.vocab_size, exp.max_seq_len = cfg.encoder.vocab_size, cfg.encoder.max_seq_len
    _check_seq_len(exp, "the checkpoint's max_seq_len")
    _, eval_set, task, _ = _load_datasets(exp)
    for i, ex in enumerate(eval_set):  # encode would name neither the line nor the id
        if outside := [t for t in ex.token_ids if t >= cfg.encoder.vocab_size]:
            raise CliError(f"{ex.source or f'eval example {i + 1}'}: token id {outside[0]} "
                           f"is outside the checkpoint's vocab_size {cfg.encoder.vocab_size}")
    check_labels(eval_set, "eval", cfg.loss)
    metrics = evaluate(model, eval_set)
    print(json.dumps({"task": task, "head": cfg.head.spec(), "metrics": metrics},
                     sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _subcommand(subs, name: str, func, help_: str, settings) -> argparse.ArgumentParser:
    """A subcommand running ``func`` that takes --config and a flag for each
    ExperimentConfig field in ``settings``."""
    sub = subs.add_parser(name, help=help_)
    sub.set_defaults(func=func, parser=sub)
    sub.add_argument("--config", help="flat key=value config file")
    for f in settings:
        convert, many = _CONVERTERS[f.type]
        if many:
            flag = f.name[:-1]
            sub.add_argument(f"--{flag}", dest=f.name, metavar=flag.upper(),
                             action="append", type=convert, help=f.metadata.get("help"))
        else:
            sub.add_argument("--" + f.name.replace("_", "-"), dest=f.name, type=convert,
                             help=f.metadata.get("help"))
    return sub


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clspool",
        description="Train and compare [CLS] aggregation heads on toy tasks.")
    subs = parser.add_subparsers(dest="command", required=True)
    # each subcommand takes as flags the ExperimentConfig fields that it reads
    every = fields(ExperimentConfig)
    data = [f for f in every if f.name in ("task", "data", "eval_data", "vocab",
                                           "train_size", "eval_size", "seq_len",
                                           "data_seed")]
    _subcommand(subs, "train", cmd_train, "one (head, seed) run",
                [f for f in every if f.name != "jobs"])
    _subcommand(subs, "compare", cmd_compare, "heads x seeds grid with tables", every)
    _subcommand(subs, "ablate-k", cmd_ablate_k, "sweep pooling depth k of one --head",
                every).add_argument("--k", action="append", type=int,
                                    help="k value, repeatable")
    _subcommand(subs, "lowres", cmd_lowres, "compare across training-set sizes",
                every).add_argument("--size", action="append",
                                    help="training size (int or 'full'), repeatable")
    p_gc = subs.add_parser("gradcheck", help="finite-difference check per head kind")
    p_gc.add_argument("--bits", type=int, choices=(32, 64))
    p_gc.add_argument("--seed", action="append", type=int)
    p_gc.set_defaults(func=cmd_gradcheck, parser=p_gc)
    _subcommand(subs, "eval", cmd_eval, "score a checkpoint", data).add_argument(
        "--ckpt", help="checkpoint path")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args, unknown = parser.parse_known_args(argv)
        if unknown:  # refused under the subcommand's usage line, not the root's
            args.parser.error("unrecognized arguments: " + " ".join(unknown))
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (CliError, ConfigurationError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR
    except (TrainingError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return RUNTIME_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
