import argparse
import concurrent.futures
import csv
import importlib
import json
import os
import pkgutil
import re
import shlex
import subprocess
import sys
import tempfile
import warnings
from dataclasses import asdict, fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import clspool.arraycore as ac
from clspool.cli import (
    CliError,
    ExperimentConfig,
    _experiment_from_args,
    _run_cell,
    build_parser,
    build_reports,
    format_mean_table,
    format_std_table,
    main,
    write_compare_csv,
)
from clspool.data import MAX_SYNTHETIC_SIZE
from clspool.encoder import EncoderConfig
from clspool.heads import HeadKind
from clspool.training import (
    TrainConfig,
    TrainResult,
    build_model,
    load_checkpoint,
    save_checkpoint,
)

TINY_DATA = ["--train-size", "48", "--eval-size", "16", "--seq-len", "8"]  # eval takes these
TINY = [*TINY_DATA, "--vocab-size", "30", "--num-layers", "2", "--d-model", "16",
        "--enc-heads", "2", "--epochs", "1", "--lr", "1e-3", "--dropout", "0.0"]
SMALL = ["--train-size", "16", "--eval-size", "8"]  # data for a refusal after the load
# 1 layer, max_seq_len 8, maxseq+mha:k=1,h=2 at init
TINY_CKPT = str(Path(__file__).parent / "data" / "tiny.ckpt")


def run_cli(*argv) -> int:
    return main(list(argv))


REGRESSION_SET_OF_ONE = ("the {} set has size 1; a regression task needs at least 2 "
                         "examples for its Spearman correlation")


class TestExitCodes:
    def test_missing_task_is_usage_error(self, tmp_path):
        assert run_cli("train", "--head", "baseline", "--seed", "1",
                       "--out", str(tmp_path)) == 2

    def test_unknown_head_lists_valid_kinds(self, tmp_path, capsys):
        rc = run_cli("train", "--task", "pattern", "--head", "fancy",
                     "--seed", "1", "--out", str(tmp_path))
        assert rc == 2
        err = capsys.readouterr().err
        assert "baseline" in err and "maxseq+mha" in err

    def test_k_exceeding_layers(self, tmp_path):
        assert run_cli("ablate-k", "--task", "pattern", *TINY, "--head", "maxseq+mha:h=2",
                       "--k", "12", "--out", str(tmp_path)) == 2

    @pytest.mark.parametrize("heads, message", [
        ([], "ablate-k: cannot sweep k for head 'baseline'; pass one --head that pools "
             "and attends, such as maxseq+mha:h=4"),
        (["maxseq+mha:h=2", "normseq+mha:h=2"],
         "ablate-k sweeps a single head; pass exactly one --head"),
        (["maxcls"], "ablate-k: cannot sweep k for head 'maxcls'; pass one --head that "
                     "pools and attends, such as maxseq+mha:h=4"),
        (["mha:h=2"], "ablate-k: cannot sweep k for head 'mha:h=2'; pass one --head that "
                      "pools and attends, such as maxseq+mha:h=4"),
        (["fancy"], "unknown head kind 'fancy'; valid kinds: baseline, maxcls, mha, "
                    "maxseq+mha, meanseq+mha, normseq+mha"),
        (["meanseq+mha:k=2,h=2"],
         "ablate-k: head 'meanseq+mha:k=2,h=2' states k, which the sweep sets"),
    ])
    def test_ablate_k_refuses_a_head_it_cannot_sweep(self, tmp_path, monkeypatch, capsys,
                                                     heads, message):
        import clspool.cli as cli
        monkeypatch.setattr(cli, "train", lambda *a, **kw: pytest.fail("a run started"))
        out = tmp_path / "out"
        rc = run_cli("ablate-k", "--task", "pattern", *TINY,
                     *[a for h in heads for a in ("--head", h)], "--out", str(out))
        assert rc == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, value", [
        *[("eval", flag, value) for flag, value in [
            ("--head", "baseline"), ("--seed", "1"), ("--epochs", "1"), ("--lr", "-1"),
            ("--batch-size", "4"), ("--warmup-ratio", "0"), ("--weight-decay", "0"),
            ("--dropout", "0"), ("--vocab-size", "30"), ("--num-layers", "2"),
            ("--d-model", "16"), ("--enc-heads", "2"), ("--max-seq-len", "20"),
            ("--out", "runs"), ("--jobs", "0")]],
        ("train", "--jobs", "2"),
        ("ablate-k", "--heads", "2"),
        ("ablate-k", "--pool", "maxseq+mha"),
    ])
    def test_a_flag_the_command_does_not_read_is_refused(self, capsys, command, flag,
                                                         value):
        build_parser().parse_args([command, "--task", "pattern"])  # parses without it
        assert run_cli(command, "--task", "pattern", flag, value) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert f"error: unrecognized arguments: {flag} {value}\n" in captured.err

    @pytest.mark.parametrize("command, argv, unknown", [
        ("eval", ["--ckpt", "x"], "--num-layers 2"),
        ("train", ["--task", "pattern", "--head", "baseline"], "--jobs 2"),
    ], ids=["eval", "train"])
    def test_an_unknown_flag_is_reported_under_the_subcommand_usage(self, capsys, command,
                                                                    argv, unknown):
        assert run_cli(command, "--help") == 0
        usage = capsys.readouterr().out.partition("\n\n")[0] + "\n"
        assert usage.startswith(f"usage: clspool {command} [-h] [--config CONFIG]")
        assert run_cli(command, *argv, *unknown.split()) == 2
        assert capsys.readouterr() == (
            "", f"{usage}clspool {command}: error: unrecognized arguments: {unknown}\n")

    def test_zero_lowres_size(self, tmp_path):
        assert run_cli("lowres", "--task", "pattern", *TINY,
                       "--head", "baseline", "--head", "mha:h=2",
                       "--size", "0", "--out", str(tmp_path)) == 2

    def test_compare_needs_two_heads(self, tmp_path):
        assert run_cli("compare", "--task", "pattern", *TINY,
                       "--head", "baseline", "--out", str(tmp_path)) == 2

    @pytest.mark.parametrize("flag, name", [("--lr", "learning_rate"),
                                            ("--weight-decay", "weight_decay")])
    @pytest.mark.parametrize("value", ["nan", "inf", "-0.5"])
    def test_bad_optimizer_setting_is_usage_error(self, tmp_path, capsys, flag, name,
                                                  value):
        rc = run_cli("train", "--task", "pattern", *TINY, "--head", "baseline",
                     "--seed", "1", f"{flag}={value}", "--out", str(tmp_path))
        assert rc == 2
        assert name in capsys.readouterr().err
        assert not list(tmp_path.iterdir())  # refused before any training

    def test_unknown_task(self, tmp_path):
        assert run_cli("train", "--task", "nope", "--head", "baseline",
                       "--out", str(tmp_path)) == 2

    @pytest.mark.parametrize("flag, content", [
        ("--config", None), ("--data", None), ("--eval-data", None), ("--vocab", None),
        ("--ckpt", None), ("--config", "task=pattern\n".encode("utf-16")),
        ("--vocab", b"a\n\xff\n"),
    ], ids=["--config", "--data", "--eval-data", "--vocab", "--ckpt", "--config-utf16",
            "--vocab-byte-ff"])
    def test_unreadable_input_file_is_usage_error(self, tmp_path, capsys, flag, content):
        (tmp_path / "vocab.txt").write_text("a\nb\n", encoding="utf-8")
        rows = [{"text": "a b", "label": i % 2} for i in range(4)]
        files = {"--data": _write_jsonl(tmp_path / "tr.jsonl", rows),
                 "--eval-data": _write_jsonl(tmp_path / "ev.jsonl", rows),
                 "--vocab": str(tmp_path / "vocab.txt")}
        unreadable = str(tmp_path / "unreadable")  # missing, or not UTF-8
        if content is not None:
            Path(unreadable).write_bytes(content)
        if flag == "--ckpt":
            argv = ["eval", "--task", "pattern", *TINY_DATA, "--ckpt", unreadable]
        elif flag == "--config":
            argv = ["train", "--task", "pattern", "--config", unreadable]
        else:
            files[flag] = unreadable
            argv = ["train", *[a for item in files.items() for a in item], *TINY,
                    "--head", "baseline", "--seed", "1", "--out", str(tmp_path / "out")]
        assert run_cli(*argv) == 2
        assert f"cannot read {flag} file" in capsys.readouterr().err

    def test_negative_class_label_stops_compare_at_load(self, tmp_path, capsys):
        rows = [{"tokens": [5, 6], "label": -1 if i == 2 else i % 2} for i in range(8)]
        rc = run_cli("compare", "--data", _write_jsonl(tmp_path / "tr.jsonl", rows),
                     "--eval-data", _write_jsonl(tmp_path / "ev.jsonl", rows[:2]), *TINY,
                     "--head", "baseline", "--head", "mha:h=2", "--out", str(tmp_path))
        assert rc == 2
        assert "tr.jsonl:3: class label -1" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()  # refused before any output


    def test_class_label_beyond_bound_is_usage_error(self, tmp_path, capsys):
        # the classifier would need 10**12 columns: refused before any allocation
        rows = [{"tokens": [5, 6], "label": 10 ** 12 if i == 1 else i % 2} for i in range(8)]
        rc = run_cli("train", "--data", _write_jsonl(tmp_path / "tr.jsonl", rows),
                     "--eval-data", _write_jsonl(tmp_path / "ev.jsonl", rows[:2]), *TINY,
                     "--head", "baseline", "--seed", "1", "--out", str(tmp_path))
        assert rc == 2
        assert "tr.jsonl:2: class label 1000000000000" in capsys.readouterr().err

    def test_negative_class_label_names_its_training_example(self, tmp_path, capsys):
        rows = [{"tokens": [5, 6], "label": -3 if i == 2 else i % 2} for i in range(8)]
        rc = run_cli("train", "--data", _write_jsonl(tmp_path / "tr.jsonl", rows),
                     "--eval-data", _write_jsonl(tmp_path / "ev.jsonl", rows[:2]), *TINY,
                     "--head", "baseline", "--seed", "1", "--out", str(tmp_path / "out"))
        assert rc == 2
        assert "tr.jsonl:3: class label -3" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()  # made only after train() accepts the data

    def test_eval_of_a_classifier_refuses_a_negative_label(self, tmp_path, capsys):
        rows = [{"tokens": [5, 6, i % 7], "label": i % 2} for i in range(8)]
        data = _write_jsonl(tmp_path / "tr.jsonl", rows)
        assert run_cli("train", "--data", data, "--eval-data", data, *TINY,
                       "--head", "baseline", "--seed", "1", "--out", str(tmp_path)) == 0
        capsys.readouterr()
        bad = [dict(row, label=-1 if i == 1 else row["label"]) for i, row in enumerate(rows)]
        rc = run_cli("eval", "--ckpt", str(tmp_path / "baseline__seed1.ckpt"),
                     "--data", data, "--eval-data", _write_jsonl(tmp_path / "ev.jsonl", bad),
                     *TINY_DATA)
        assert rc == 2
        captured = capsys.readouterr()
        assert "ev.jsonl:2: class label -1" in captured.err and not captured.out

    def test_eval_of_a_classifier_refuses_a_real_label(self, tmp_path, capsys):
        rows = [{"tokens": [5, 6, i % 7], "label": i % 2} for i in range(8)]
        data = _write_jsonl(tmp_path / "tr.jsonl", rows)
        assert run_cli("train", "--data", data, "--eval-data", data, *TINY,
                       "--head", "baseline", "--seed", "1", "--out", str(tmp_path)) == 0
        capsys.readouterr()
        real = [{"tokens": [5, 6], "label": 0.5}, {"tokens": [6, 5], "label": 1.5}]
        rc = run_cli("eval", "--ckpt", str(tmp_path / "baseline__seed1.ckpt"),
                     "--data", data, "--eval-data", _write_jsonl(tmp_path / "ev.jsonl", real),
                     *TINY_DATA)
        assert rc == 2
        captured = capsys.readouterr()
        assert "ev.jsonl:1: class label 0.5 is not an integer" in captured.err
        assert not captured.out

    def test_eval_names_a_token_id_past_the_checkpoints_vocab(self, tmp_path, monkeypatch,
                                                              capsys):
        import clspool.cli as cli
        monkeypatch.setattr(cli, "evaluate", lambda *a, **kw: pytest.fail("eval ran"))
        rows = [{"tokens": [5, 11], "label": 0}, {"tokens": [5, 3, 12, 20], "label": 1},
                {"tokens": [30], "label": 0}]  # TINY_CKPT's vocab_size is 12
        data = _write_jsonl(tmp_path / "big.jsonl", rows)
        rc = run_cli("eval", "--ckpt", TINY_CKPT, "--data", data, "--eval-data", data)
        assert rc == 2
        assert capsys.readouterr() == ("", "error: big.jsonl:2: token id 12 is outside "
                                           "the checkpoint's vocab_size 12\n")

    def test_class_label_error_names_its_file_and_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"  # line 2 is blank, so example 2 sits on line 3
        bad.write_text('{"tokens": [5], "label": 0}\n\n{"tokens": [6], "label": -3}\n'
                       '{"tokens": [7], "label": 1}\n', encoding="utf-8")
        rc = run_cli("train", "--data", str(bad), "--eval-data", str(bad), *TINY,
                     "--head", "baseline", "--seed", "1", "--out", str(tmp_path / "out"))
        assert rc == 2
        assert capsys.readouterr().err == \
            "error: bad.jsonl:3: class label -3 is outside [0, 10000)\n"

    def test_schema_error_names_the_file_it_is_in(self, tmp_path, capsys):
        good = _write_jsonl(tmp_path / "good.jsonl", [{"tokens": [5], "label": i % 2}
                                                      for i in range(4)])
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"tokens": [5], "label": 0}\n[5, 6]\n', encoding="utf-8")
        out = tmp_path / "out"
        rc = run_cli("train", "--data", good, "--eval-data", str(bad), *TINY,
                     "--head", "baseline", "--seed", "1", "--out", str(out))
        assert rc == 2
        assert capsys.readouterr().err == "error: bad.jsonl:2: expected a JSON object\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--data", "--eval-data"])
    @pytest.mark.parametrize("command, argv", [
        ("train", ["--head", "baseline", "--seed", "1"]),
        ("compare", ["--head", "baseline", "--head", "mha:h=2"]),
        ("ablate-k", ["--head", "maxseq+mha:h=2"]),
        ("lowres", ["--head", "baseline", "--head", "mha:h=2", "--size", "2"]),
        ("eval", ["--ckpt", "{ckpt}"]),
    ])
    def test_empty_data_file_is_refused_before_any_output(self, tmp_path, monkeypatch,
                                                         capsys, flag, command, argv):
        import clspool.cli as cli
        monkeypatch.setattr(cli, "train", lambda *a, **kw: pytest.fail("a run started"))
        monkeypatch.setattr(cli, "evaluate", lambda *a, **kw: pytest.fail("eval ran"))
        rows = [{"tokens": [5], "label": i % 2} for i in range(4)]
        files = {"--data": _write_jsonl(tmp_path / "tr.jsonl", rows),
                 "--eval-data": _write_jsonl(tmp_path / "ev.jsonl", rows[:1])}
        files[flag] = _write_jsonl(tmp_path / "empty.jsonl", [])
        ckpt = tmp_path / "model.ckpt"
        if command == "eval":
            cfg = TrainConfig(encoder=EncoderConfig(vocab_size=30, num_layers=2, d_model=16,
                                                    num_heads_encoder=2),
                              head=HeadKind("baseline"), learning_rate=1e-3)
            save_checkpoint(ckpt, build_model(cfg, 2), cfg)
        out = tmp_path / "out"
        settings = TINY_DATA if command == "eval" else [*TINY, "--out", str(out)]
        rc = run_cli(command, *[a for item in files.items() for a in item], *settings,
                     *[a.replace("{ckpt}", str(ckpt)) for a in argv])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {flag} file {files[flag]} holds no examples\n"
        assert not captured.out and not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["train", "--task", "pattern", "--head", "baseline", "--head", "mha:h=2",
          "--seed", "1"], "train runs a single head; pass exactly one --head"),
        (["train", "--task", "pattern", "--seed", "1", "--seed", "2"],
         "train runs a single seed; pass exactly one --seed"),
        (["train", "--data", "{data}", "--seed", "1"], "--data also needs --eval-data"),
        (["lowres", "--task", "pattern", "--head", "baseline", "--head", "mha:h=2"],
         "lowres needs at least one --size (int or 'full')"),
        (["eval", "--task", "pattern"], "eval needs --ckpt PATH"),
        (["compare", "--task", "pattern", "--num-layers", "2", "--head", "baseline",
          "--head", "maxcls:k=3"], "head 'maxcls:k=3': k=3 exceeds num_layers=2"),
        (["compare", "--task", "pattern", *SMALL, "--d-model", "16", "--enc-heads", "2",
          "--head", "baseline", "--head", "mha:h=3"],
         "head 'mha:h=3': num_heads 3 does not divide d_model 16"),
        (["lowres", "--task", "pattern", *SMALL, "--head", "baseline", "--head", "mha:h=2",
          "--size", "8", "--size", "50"], "subsample: n=50 out of range [1, 16]"),
        (["compare", "--task", "pairsim", "--seq-len", "3", "--head", "baseline",
          "--head", "mha"], "pair_similarity: need seq_len >= 5 for two sets and [SEP]"),
        (["compare", "--task", "pattern", "--train-size", "0", "--head", "baseline",
          "--head", "mha"], "dataset sizes must be >= 1"),
        (["compare", "--task", "pattern", "--head", "baseline", "--head", "mha:h=2",
          "--head", "baseline"], "head 'baseline' is given twice"),
        (["compare", "--task", "pattern", "--head", "mha", "--head", "mha:h=4"],
         "head 'mha:h=4' is given twice"),
        (["ablate-k", "--task", "pattern", "--head", "maxseq+mha:h=4", "--k", "2", "--k", "1",
          "--k", "2"], "head 'maxseq+mha:k=2,h=4' is given twice"),
        (["compare", "--task", "pattern", "--head", "baseline", "--head", "mha",
          "--seed", "1", "--seed", "2", "--seed", "1"], "seed 1 is given twice"),
        (["lowres", "--task", "pattern", "--head", "baseline", "--head", "mha",
          "--size", "8", "--size", "full", "--size", "8"], "size 8 is given twice"),
        (["lowres", "--task", "pattern", "--head", "baseline", "--head", "mha",
          "--size", "full", "--size", "full"], "size full is given twice"),
        (["train", "--task", "pattern", *SMALL, "--seed", "-1"], "seed must be >= 0, got -1"),
        (["compare", "--task", "pattern", *SMALL, "--head", "baseline", "--head", "mha",
          "--seed", "1", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["compare", "--task", "pattern", *SMALL, "--head", "baseline", "--head", "mha",
          "--seed", "1", "--seed", "-1", "--jobs", "2"], "seed must be >= 0, got -1"),
        (["ablate-k", "--task", "pattern", *SMALL, "--head", "maxseq+mha:h=4",
          "--seed", "-2"], "seed must be >= 0, got -2"),
        (["lowres", "--task", "pattern", *SMALL, "--head", "baseline", "--head", "mha",
          "--size", "8", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["lowres", "--task", "pattern", "--head", "baseline", "--head", "mha",
          "--size", "8", "--size", "abc"], "--size must be an integer or 'full', got 'abc'"),
        (["compare", "--task", "pairsim", "--train-size", "16", "--eval-size", "1",
          "--head", "baseline", "--head", "mha:h=4", "--seed", "1", "--seed", "2"],
         REGRESSION_SET_OF_ONE.format("eval")),
        (["lowres", "--task", "pairsim", *SMALL, "--head", "baseline", "--head", "mha",
          "--size", "8", "--size", "1"], REGRESSION_SET_OF_ONE.format("training")),
        (["train", "--task", "pairsim", "--train-size", "16", "--eval-size", "1"],
         REGRESSION_SET_OF_ONE.format("eval")),
        (["train", "--task", "pairsim", "--train-size", "1", "--eval-size", "8"],
         REGRESSION_SET_OF_ONE.format("training")),
        (["train", "--task", "pattern", "--vocab-size", "8", "--seq-len", "2",
          "--train-size", "50", "--eval-size", "20"],
         "pattern_containment: cannot draw eval_size 20 sequences unlike train_size 50 at "
         "vocab_size 8 and seq_len (2, 2): 100 draws for eval example 1 all repeated one"),
        (["train", "--task", "pattern", "--data-seed", "-1"], "data seed must be >= 0, got -1"),
        (["compare", "--task", "pattern", "--head", "baseline", "--head", "mha",
          "--data-seed", "-1"], "data seed must be >= 0, got -1"),
        (["lowres", "--task", "pattern", "--head", "baseline", "--head", "mha",
          "--size", "8", "--data-seed", "-1"], "data seed must be >= 0, got -1"),
        (["eval", "--ckpt", TINY_CKPT, "--task", "pattern", "--seq-len", "7",
          "--data-seed", "-1"], "data seed must be >= 0, got -1"),
        (["lowres", "--data", "{data}", "--eval-data", "{data}", "--head", "baseline",
          "--head", "mha", "--size", "1", "--data-seed", "-1"],
         "data seed must be >= 0, got -1"),
    ])
    def test_usage_error_names_its_cause(self, tmp_path, monkeypatch, capsys, argv,
                                         message):
        import clspool.cli as cli
        monkeypatch.setattr(cli, "train", lambda *a, **kw: pytest.fail("a run started"))
        data = _write_jsonl(tmp_path / "tr.jsonl", [{"tokens": [5], "label": 1}])
        out = tmp_path / "out"
        out_flag = [] if argv[0] == "eval" else ["--out", str(out)]  # eval writes nothing
        rc = run_cli(*[a.replace("{data}", data) for a in argv], *out_flag)
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()  # refused before anything is written


class TestRunSettingRefusals:
    """Settings no run can use exit 2 before any run or output directory."""

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one(self, tmp_path, monkeypatch, capsys, jobs):
        import clspool.cli as cli
        monkeypatch.setattr(cli, "train", lambda *a, **kw: pytest.fail("a cell ran"))
        out = tmp_path / "out"
        rc = run_cli("compare", "--task", "pattern", *TINY, "--head", "baseline",
                     "--head", "mha:h=2", "--jobs", jobs, "--out", str(out))
        assert rc == 2
        assert capsys.readouterr().err == f"error: --jobs must be >= 1, got {jobs}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["train"],
        ["compare", "--head", "baseline", "--head", "mha:h=2"],
        ["ablate-k", "--head", "maxseq+mha:h=2"],
        ["lowres", "--head", "baseline", "--head", "mha:h=2", "--size", "full"],
        ["eval", "--ckpt", TINY_CKPT],
    ], ids=lambda argv: argv[0])
    def test_negative_data_seed_with_file_data(self, tmp_path, monkeypatch, capsys, argv):
        import clspool.cli as cli
        monkeypatch.setattr(cli, "load_jsonl", lambda *a, **kw: pytest.fail("data was read"))
        data = _write_jsonl(tmp_path / "d.jsonl",
                            [{"tokens": [5 + i % 3, 6], "label": i % 2} for i in range(8)])
        out_flag = [] if argv[0] == "eval" else ["--out", str(tmp_path / "out")]
        rc = run_cli(*argv, "--data", data, "--eval-data", data, "--data-seed", "-1",
                     *out_flag)
        assert rc == 2
        assert capsys.readouterr().err == "error: data seed must be >= 0, got -1\n"
        assert [p.name for p in tmp_path.iterdir()] == ["d.jsonl"]  # no --out, no output

    @pytest.mark.parametrize("jobs, cells, workers", [(8, 2, 2), (2, 3, 2), (3, 3, 3)])
    def test_pool_has_no_more_workers_than_cells(self, tmp_path, monkeypatch, jobs, cells,
                                                 workers):
        started = []

        class Recorder:  # stands in for the pool, so no process starts
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
        heads = ["baseline", "mha:h=2", "maxcls:k=2"][:cells]
        rc = run_cli("compare", "--task", "pattern", *TINY,
                     *[a for h in heads for a in ("--head", h)], "--seed", "1",
                     "--jobs", str(jobs), "--out", str(tmp_path))
        assert rc == 0
        assert started == [workers]

    @pytest.mark.parametrize("heads", ["0", "-4"])
    def test_enc_heads_below_one(self, tmp_path, capsys, heads):
        out = tmp_path / "out"
        rc = run_cli("train", "--task", "pattern", *TINY, "--enc-heads", heads,
                     "--out", str(out))
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"error: EncoderConfig: num_heads_encoder must be >= 1, got {heads}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["--num-layers", "0"], "EncoderConfig: num_layers must be >= 1, got 0"),
        (["--d-model", "0"], "EncoderConfig: d_model must be >= 1, got 0"),
        (["--d-model", "30"], "EncoderConfig: d_model 30 not divisible by num_heads_encoder 4"),
        (["--dropout", "1"], "EncoderConfig: dropout must be in [0, 1), got 1.0"),
        (["--warmup-ratio", "1"], "warmup_ratio must be in [0, 1), got 1.0"),
        (["--batch-size", "0"], "batch_size must be >= 1, got 0"),
        (["--epochs", "0"], "epochs must be >= 1, got 0"),
        (["--vocab-size", "5"], "vocab_size must be >= 8 for generated tasks, got 5"),
        (["--seq-len", "0"], "seq_len must be a range (lo, hi) with 1 <= lo <= hi, got (0, 0)"),
        (["--data", "{data}", "--eval-data", "{data}", "--max-seq-len", "1"],
         "EncoderConfig: max_seq_len must be >= 2, got 1"),
    ])
    def test_a_setting_no_run_can_use_is_named_with_its_value(self, tmp_path, capsys, argv,
                                                                message):
        data = _write_jsonl(tmp_path / "d.jsonl", [{"tokens": [5, 6], "label": i % 2}
                                                   for i in range(4)])
        # every case but the file-data one reads the pattern task
        argv = [a.replace("{data}", data) for a in argv] if "--data" in argv \
            else ["--task", "pattern", *argv]
        out = tmp_path / "out"
        rc = run_cli("train", *argv, *SMALL, "--head", "baseline", "--seed", "1",
                     "--out", str(out))
        assert rc == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_seq_len_with_its_cls_slot_beyond_max_seq_len(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        heads = ["--head", "baseline"] + (["--head", "mha:h=2"] if command == "compare" else [])
        rc = run_cli(command, "--task", "pattern", *TINY, *heads, "--seq-len", "70",
                     "--out", str(out))
        assert rc == 2
        assert capsys.readouterr().err == ("error: --seq-len 70 plus the one [CLS] slot "
                                           "exceeds --max-seq-len 64\n")
        assert not out.exists()

    def test_eval_refuses_a_seq_len_past_the_checkpoints_max_seq_len(self, capsys):
        data = ["--task", "pattern", "--train-size", "8", "--eval-size", "8"]
        rc = run_cli("eval", "--ckpt", TINY_CKPT, *data, "--seq-len", "40")
        assert rc == 2
        assert capsys.readouterr() == ("", "error: --seq-len 40 plus the one [CLS] slot "
                                           "exceeds the checkpoint's max_seq_len 8\n")
        assert run_cli("eval", "--ckpt", TINY_CKPT, *data, "--seq-len", "7") == 0

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_an_encoder_past_max_parameters_builds_no_model(self, tmp_path, monkeypatch,
                                                            capsys, command):
        import clspool.training as training
        monkeypatch.setattr(training, "build_model",
                            lambda *a, **kw: pytest.fail("a model was built"))
        out = tmp_path / "out"
        heads = ["--head", "baseline"] + (["--head", "mha:h=2"] if command == "compare" else [])
        rc = run_cli(command, "--task", "pattern", *TINY, *heads, "--d-model", "2048",
                     "--out", str(out))
        assert rc == 2
        count = EncoderConfig(vocab_size=30, num_layers=2, d_model=2048,
                              num_heads_encoder=2).num_parameters
        assert capsys.readouterr().err == (
            f"error: the encoder would have {count} parameters, more than "
            f"MAX_PARAMETERS ({training.MAX_PARAMETERS})\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_a_synthetic_set_past_its_bound_is_refused_before_it_is_made(
            self, tmp_path, monkeypatch, capsys, command):
        import clspool.cli as cli
        monkeypatch.setattr(cli, "gen_synthetic",
                            lambda *a, **kw: pytest.fail("a dataset was generated"))
        out = tmp_path / "out"
        heads = ["--head", "baseline"] + (["--head", "mha:h=2"] if command == "compare" else [])
        rc = run_cli(command, "--task", "pattern", "--train-size", "1000000000", *heads,
                     "--out", str(out))
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: dataset sizes must be <= MAX_SYNTHETIC_SIZE ({MAX_SYNTHETIC_SIZE}), "
            f"got train_size 1000000000 and eval_size 500\n")
        assert not out.exists()

    def test_seq_len_that_fills_max_seq_len_runs(self, tmp_path):
        assert run_cli("train", "--task", "pattern", *TINY, "--seq-len", "7",
                       "--max-seq-len", "8", "--out", str(tmp_path)) == 0


class TestTrainCommand:
    def test_writes_metrics_and_checkpoint(self, tmp_path, capsys):
        rc = run_cli("train", "--task", "pattern", *TINY,
                     "--head", "maxseq+mha:k=2,h=2", "--seed", "1",
                     "--out", str(tmp_path))
        assert rc == 0
        record = json.loads((tmp_path / "maxseq-mha-k-2-h-2__seed1.json").read_text())
        assert record["seed"] == 1
        assert "accuracy" in record["metrics"]
        ckpt = tmp_path / "maxseq-mha-k-2-h-2__seed1.ckpt"
        assert ckpt.exists() and ckpt.read_bytes()[:4] == b"MPBT"
        printed = json.loads(capsys.readouterr().out.strip())
        assert printed == record["metrics"]

    def test_eval_reproduces_train_metrics(self, tmp_path, capsys):
        run_cli("train", "--task", "pattern", *TINY, "--head", "mha:h=2",
                "--seed", "3", "--out", str(tmp_path))
        train_metrics = json.loads(capsys.readouterr().out.strip())
        rc = run_cli("eval", "--ckpt", str(tmp_path / "mha-h-2__seed3.ckpt"),
                     "--task", "pattern", *TINY_DATA)
        assert rc == 0
        evaled = json.loads(capsys.readouterr().out.strip())
        assert evaled["metrics"] == train_metrics
        assert evaled["head"] == "mha:h=2"

    def test_eval_takes_the_vocab_size_from_the_checkpoint(self, tmp_path, capsys):
        # trained at --vocab-size 30 and --max-seq-len 64; eval reads neither
        # from its config file, which serves train as well
        run_cli("train", "--task", "pattern", *TINY, "--head", "baseline",
                "--seed", "2", "--out", str(tmp_path))
        train_metrics = json.loads(capsys.readouterr().out.strip())
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("vocab_size=50\nmax_seq_len=4\nepochs=9\nout=elsewhere\n",
                       encoding="utf-8")
        rc = run_cli("eval", "--ckpt", str(tmp_path / "baseline__seed2.ckpt"),
                     "--config", str(cfg), "--task", "pattern", *TINY_DATA)
        assert rc == 0
        assert json.loads(capsys.readouterr().out.strip())["metrics"] == train_metrics

    def test_eval_takes_the_max_seq_len_from_the_checkpoint(self, tmp_path, capsys):
        # 31 tokens with [CLS]; train cuts them to 20, and so must eval
        rows = [{"tokens": [4 + (i + j) % 9 for j in range(30)], "label": i % 2}
                for i in range(12)]
        data = _write_jsonl(tmp_path / "tr.jsonl", rows)
        assert run_cli("train", "--data", data, "--eval-data", data, *TINY,
                       "--max-seq-len", "20", "--head", "mha:h=2", "--seed", "1",
                       "--out", str(tmp_path)) == 0
        train_metrics = json.loads(capsys.readouterr().out.strip())
        rc = run_cli("eval", "--ckpt", str(tmp_path / "mha-h-2__seed1.ckpt"),
                     "--data", data, "--eval-data", data)
        assert rc == 0
        assert json.loads(capsys.readouterr().out.strip())["metrics"] == train_metrics

    def test_integer_train_labels_beside_real_eval_labels_train_a_regressor(
            self, tmp_path, capsys):
        # the loss is chosen from both files: one real label makes every
        # label a target, so 20000 is no class label and not out of range
        train_rows = [{"tokens": [5, 6, i % 7], "label": 20000 if i == 1 else i}
                      for i in range(8)]
        eval_rows = [{"tokens": [5, 6, i], "label": i + 0.5} for i in range(4)]
        rc = run_cli("train", "--data", _write_jsonl(tmp_path / "tr.jsonl", train_rows),
                     "--eval-data", _write_jsonl(tmp_path / "ev.jsonl", eval_rows),
                     *TINY, "--head", "baseline", "--seed", "1", "--out", str(tmp_path))
        assert rc == 0
        assert set(json.loads(capsys.readouterr().out.strip())) == {"spearman"}

    def test_negative_integer_train_label_beside_real_eval_labels_trains_a_regressor(
            self, tmp_path, capsys):
        train_rows = [{"tokens": [5, 6, i % 7], "label": -3 if i == 2 else i}
                      for i in range(8)]
        eval_rows = [{"tokens": [5, 6, i], "label": i + 0.5} for i in range(4)]
        rc = run_cli("train", "--data", _write_jsonl(tmp_path / "tr.jsonl", train_rows),
                     "--eval-data", _write_jsonl(tmp_path / "ev.jsonl", eval_rows),
                     *TINY, "--head", "baseline", "--seed", "1", "--out", str(tmp_path))
        assert rc == 0
        assert set(json.loads(capsys.readouterr().out.strip())) == {"spearman"}

    def test_eval_of_a_regressor_refuses_one_example(self, tmp_path, monkeypatch, capsys):
        import clspool.cli as cli
        assert run_cli("train", "--task", "pairsim", *TINY, "--head", "baseline",
                       "--seed", "1", "--out", str(tmp_path)) == 0
        capsys.readouterr()
        monkeypatch.setattr(cli, "evaluate", lambda *a, **kw: pytest.fail("eval ran"))
        rc = run_cli("eval", "--ckpt", str(tmp_path / "baseline__seed1.ckpt"),
                     "--task", "pairsim", "--seq-len", "8", "--eval-size", "1")
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {REGRESSION_SET_OF_ONE.format('eval')}\n"
        assert not captured.out

    def test_diverging_run_exits_1_and_writes_nothing(self, tmp_path, capsys):
        # two steps: the first update sends the weights past float32's range,
        # so the second step's loss is the first non-finite value
        out = tmp_path / "out"
        rc = run_cli("train", *DIVERGING, "--batch-size", "8", "--head", "baseline",
                     "--out", str(out))
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == "error: non-finite loss at epoch 1, step 2\n"
        assert not captured.out and not out.exists()

    @pytest.mark.parametrize("argv", [["train"], ["compare", "--head", "mha:h=2"],
                                      ["ablate-k", "--head", "maxseq+mha:h=2"],
                                      ["lowres", "--head", "mha:h=2", "--size", "8"]])
    @pytest.mark.parametrize("under", [False, True])
    def test_out_that_is_or_lies_under_a_file_exits_2_before_any_data(
            self, tmp_path, monkeypatch, capsys, argv, under):
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        out = taken / "sub" if under else taken
        import clspool.cli as cli
        monkeypatch.setattr(cli, "_load_datasets",
                            lambda *a, **kw: pytest.fail("data was loaded"))
        head = [] if argv[0] == "ablate-k" else ["--head", "baseline"]
        rc = run_cli(*argv, *head, "--task", "pattern", *TINY, "--seed", "1",
                     "--out", str(out))
        assert rc == 2
        assert capsys.readouterr().err == f"error: --out {out}: {taken} is not a directory\n"
        assert taken.read_text() == "kept\n"
        assert os.listdir(tmp_path) == ["taken"]

    def test_eval_of_a_regressor_takes_large_integer_targets(self, tmp_path, capsys):
        real = [{"tokens": [5, 6, i % 7], "label": i + 0.5} for i in range(8)]
        data = _write_jsonl(tmp_path / "tr.jsonl", real)
        run_cli("train", "--data", data, "--eval-data", data, *TINY,
                "--head", "baseline", "--seed", "1", "--out", str(tmp_path))
        capsys.readouterr()
        whole = [{"tokens": [5, 6, i % 7], "label": 10000 * i} for i in range(8)]
        rc = run_cli("eval", "--ckpt", str(tmp_path / "baseline__seed1.ckpt"),
                     "--data", data, "--eval-data", _write_jsonl(tmp_path / "ev.jsonl", whole),
                     *TINY_DATA)
        assert rc == 0
        assert set(json.loads(capsys.readouterr().out.strip())["metrics"]) == {"spearman"}


class TestCompareCommand:
    def test_tables_and_delta_recompute(self, tmp_path, capsys):
        rc = run_cli("compare", "--task", "pattern", *TINY,
                     "--head", "baseline", "--head", "mha:h=2",
                     "--seed", "1", "--seed", "2", "--out", str(tmp_path))
        assert rc == 0
        assert (tmp_path / "compare.txt").exists()
        assert (tmp_path / "stddev.txt").exists()
        with (tmp_path / "compare.csv").open(newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
        assert header == ["head", "metric", "seed_1", "seed_2", "mean", "std", "delta"]
        # recompute every aggregate from the per-run JSON artifacts
        runs = {}
        for path in (tmp_path / "runs").glob("*.json"):
            rec = json.loads(path.read_text())
            runs[(rec["head"], rec["seed"])] = rec["metrics"]
        by_head_metric = {}
        for head, metric, s1, s2, mean, std, delta in rows:
            vals = [runs[(head, 1)][metric], runs[(head, 2)][metric]]
            assert float(s1) == vals[0] and float(s2) == vals[1]
            assert float(mean) == sum(vals) / 2.0
            by_head_metric[(head, metric)] = (float(mean), float(delta))
        for (head, metric), (mean, delta) in by_head_metric.items():
            base_mean = by_head_metric[("baseline", metric)][0]
            assert delta == mean - base_mean

    def test_grid_builds_its_data_once(self, tmp_path, monkeypatch):
        import clspool.cli as cli
        real, specs = cli.gen_synthetic, []
        monkeypatch.setattr(cli, "gen_synthetic", lambda spec: specs.append(spec) or real(spec))
        rc = run_cli("compare", "--task", "pattern", *TINY, "--head", "baseline",
                     "--head", "mha:h=2", "--seed", "1", "--seed", "2", "--jobs", "1",
                     "--out", str(tmp_path))
        assert rc == 0
        assert len(specs) == 1
        assert len(list((tmp_path / "runs").glob("*.json"))) == 4

    def test_failed_run_marks_cells_and_propagates(self, tmp_path, monkeypatch,
                                                   capsys):
        import clspool.cli as cli
        real_train = cli.train

        def flaky(cfg, tr, ev, **kw):
            if cfg.head.kind == "mha":
                raise cli.TrainingError("injected divergence")
            return real_train(cfg, tr, ev, **kw)

        monkeypatch.setattr(cli, "train", flaky)
        rc = run_cli("compare", "--task", "pattern", *TINY,
                     "--head", "baseline", "--head", "mha:h=2",
                     "--seed", "1", "--out", str(tmp_path))
        assert rc == 1
        assert "n/a" in (tmp_path / "compare.txt").read_text()
        assert "injected divergence" in capsys.readouterr().err

    def test_a_dead_worker_is_a_failed_run(self, tmp_path, monkeypatch, capsys):
        import clspool.cli as cli
        monkeypatch.setattr(cli, "_run_cell", _exit_in_mha_cells)
        rc = run_cli("compare", "--task", "pattern", *TINY, "--head", "baseline",
                     "--head", "mha:h=2", "--jobs", "2", "--out", str(tmp_path))
        assert rc == 1
        err = capsys.readouterr().err
        assert ("run failed: head=mha:h=2 seed=0: its worker process died before the run "
                "finished\n") in err and "Traceback" not in err
        dead = json.loads((tmp_path / "runs" / "mha-h-2__seed0.json").read_text())
        assert dead["error"] and dead["metrics"] == {}
        # lost with the broken pool or not, the healthy cell comes back, run
        # again alone when it was
        alive = json.loads((tmp_path / "runs" / "baseline__seed0.json").read_text())
        assert "error" not in alive and alive["metrics"]
        assert "head=baseline" not in err
        assert (tmp_path / "compare.txt").exists() and (tmp_path / "compare.csv").exists()

    def test_without_baseline_delta_omitted(self, tmp_path):
        rc = run_cli("compare", "--task", "pattern", *TINY,
                     "--head", "mha:h=2", "--head", "maxcls:k=2",
                     "--seed", "1", "--out", str(tmp_path))
        assert rc == 0
        table = (tmp_path / "compare.txt").read_text()
        assert "Delta row omitted" in table

    def test_seed_columns_follow_the_given_seeds(self, tmp_path, monkeypatch, capsys):
        import clspool.cli as cli
        monkeypatch.setattr(cli, "train", _accuracy_by_head_and_seed)
        rc = run_cli("compare", "--task", "pattern", *TINY, "--head", "baseline",
                     "--head", "mha:h=2", "--seed", "3", "--seed", "1",
                     "--out", str(tmp_path))
        assert rc == 0
        assert (tmp_path / "compare.csv").read_text() == (
            "head,metric,seed_3,seed_1,mean,std,delta\n"
            "baseline,accuracy,0.6875,0.5625,0.625,0.0625,0.0\n"
            "mha:h=2,accuracy,0.9375,0.8125,0.875,0.0625,0.25\n")


class TestAblateAndLowres:
    def test_ablate_table_rows(self, tmp_path, capsys):
        rc = run_cli("ablate-k", "--task", "pattern", *TINY, "--head", "maxseq+mha:h=2",
                     "--k", "1", "--k", "2", "--seed", "1", "--out", str(tmp_path))
        assert rc == 0
        table = (tmp_path / "ablate_k.txt").read_text()
        assert "k = 1" in table and "k = 2" in table

    def test_ablate_k_sweeps_the_head_it_is_given(self, tmp_path, capsys):
        rc = run_cli("ablate-k", "--task", "pattern", *TINY, "--head", "normseq+mha:h=2",
                     "--k", "1", "--k", "2", "--seed", "1", "--out", str(tmp_path))
        assert rc == 0
        heads = [json.loads(p.read_text())["head"]
                 for p in sorted((tmp_path / "runs").glob("*.json"))]
        assert heads == ["normseq+mha:k=1,h=2", "normseq+mha:k=2,h=2"]

    def test_ablate_k_report_bytes(self, tmp_path, monkeypatch, capsys):
        import clspool.cli as cli

        def fixed(cfg, train_set, eval_set, **kw):
            acc = 0.5 + cfg.head.k / 8 + cfg.seed / 64
            return None, TrainResult(
                eval_metrics={"accuracy": acc, "f1": acc / 3, "mcc": -acc / 7},
                train_metrics={"accuracy": 1.0}, final_loss=0.5,
                n_train=len(train_set), n_eval=len(eval_set), wall_time_s=0.0)

        monkeypatch.setattr(cli, "train", fixed)
        rc = run_cli("ablate-k", "--task", "pattern", *TINY, "--head", "maxseq+mha:h=2",
                     "--seed", "1", "--seed", "2", "--out", str(tmp_path))
        assert rc == 0
        table = ("k           Acc.        F1       MCC\n"
                 "k = 1     0.6484    0.2161   -0.0926\n"
                 "k = 2     0.7734    0.2578   -0.1105\n")
        assert (tmp_path / "ablate_k.txt").read_text() == table
        assert capsys.readouterr().out == table + "\n"
        assert (tmp_path / "ablate_k.csv").read_text() == (
            "head,metric,seed_1,seed_2,mean,std,delta\n"
            '"maxseq+mha:k=1,h=2",accuracy,0.640625,0.65625,0.6484375,0.0078125,\n'
            '"maxseq+mha:k=1,h=2",f1,0.21354166666666666,0.21875,0.21614583333333331,'
            "0.0026041666666666713,\n"
            '"maxseq+mha:k=1,h=2",mcc,-0.09151785714285714,-0.09375,-0.09263392857142858,'
            "0.0011160714285714315,\n"
            '"maxseq+mha:k=2,h=2",accuracy,0.765625,0.78125,0.7734375,0.0078125,\n'
            '"maxseq+mha:k=2,h=2",f1,0.2552083333333333,0.2604166666666667,0.2578125,'
            "0.002604166666666685,\n"
            '"maxseq+mha:k=2,h=2",mcc,-0.109375,-0.11160714285714286,-0.11049107142857142,'
            "0.0011160714285714315,\n")

    def test_a_failed_seed_leaves_its_cell_empty(self, tmp_path, monkeypatch, capsys):
        import clspool.cli as cli

        def flaky(cfg, tr, ev, **kw):
            if cfg.head.k == 1 and cfg.seed == 2:
                raise cli.TrainingError("injected divergence")
            return _accuracy_by_head_and_seed(cfg, tr, ev)

        monkeypatch.setattr(cli, "train", flaky)
        rc = run_cli("ablate-k", "--task", "pattern", *TINY, "--head", "maxseq+mha:h=2",
                     "--k", "1", "--k", "2", "--seed", "1", "--seed", "2", "--seed", "3",
                     "--out", str(tmp_path))
        assert rc == 1
        assert (tmp_path / "ablate_k.csv").read_text() == (
            "head,metric,seed_1,seed_2,seed_3,mean,std,delta\n"
            '"maxseq+mha:k=1,h=2",accuracy,0.625,,0.75,0.6875,0.0625,\n'
            '"maxseq+mha:k=2,h=2",accuracy,0.6875,0.75,0.8125,0.75,0.05103103630798288,\n')

    def test_lowres_csv_bytes_with_one_seed_and_no_baseline(self, tmp_path, monkeypatch,
                                                           capsys):
        import clspool.cli as cli

        def fixed(cfg, train_set, eval_set, **kw):
            acc = {"mha": 0.75, "maxcls": 0.625}[cfg.head.kind]
            return None, TrainResult(
                eval_metrics={"accuracy": acc, "f1": acc / 3, "mcc": -acc / 7},
                train_metrics={"accuracy": 1.0}, final_loss=0.5,
                n_train=len(train_set), n_eval=len(eval_set), wall_time_s=0.0)

        monkeypatch.setattr(cli, "train", fixed)
        rc = run_cli("lowres", "--task", "pattern", *TINY, "--head", "mha:h=2",
                     "--head", "maxcls:k=2", "--seed", "3", "--size", "24",
                     "--out", str(tmp_path))
        assert rc == 0
        expected = ("size,head,metric,mean,std,delta\n"
                    "24,mha:h=2,accuracy,0.75,0.0,\n"
                    "24,mha:h=2,f1,0.25,0.0,\n"
                    "24,mha:h=2,mcc,-0.10714285714285714,0.0,\n"
                    "24,maxcls:k=2,accuracy,0.625,0.0,\n"
                    "24,maxcls:k=2,f1,0.20833333333333334,0.0,\n"
                    "24,maxcls:k=2,mcc,-0.08928571428571429,0.0,\n")
        assert (tmp_path / "lowres.csv").read_text() == expected
        assert capsys.readouterr().out == expected + "\n"

    def test_lowres_of_a_regression_task_samples_real_labels(self, tmp_path):
        rc = run_cli("lowres", "--task", "pairsim", *TINY,
                     "--head", "baseline", "--head", "mha:h=2", "--seed", "1",
                     "--size", "8", "--size", "full", "--out", str(tmp_path))
        assert rc == 0
        rows = list(csv.DictReader((tmp_path / "lowres.csv").read_text().splitlines()))
        assert {(row["size"], row["metric"]) for row in rows} == {("8", "spearman"),
                                                                  ("full", "spearman")}

    def test_lowres_csv_schema(self, tmp_path):
        rc = run_cli("lowres", "--task", "pattern", *TINY,
                     "--head", "baseline", "--head", "mha:h=2", "--seed", "1",
                     "--size", "24", "--size", "full", "--out", str(tmp_path))
        assert rc == 0
        lines = (tmp_path / "lowres.csv").read_text().splitlines()
        assert lines[0] == "size,head,metric,mean,std,delta"
        sizes = {line.split(",")[0] for line in lines[1:]}
        assert sizes == {"24", "full"}


# every run diverges in its one and only update
DIVERGING = ["--task", "pattern", "--train-size", "16", "--eval-size", "8",
             "--seq-len", "6", "--epochs", "1", "--lr", "1e38", "--seed", "1"]


class TestFailureRule:
    @pytest.mark.parametrize("command,args,runs", [
        ("compare", ["--head", "baseline", "--head", "mha:h=4"], 2),
        ("ablate-k", ["--head", "maxseq+mha:h=4", "--k", "1", "--k", "2"], 2),
        ("lowres", ["--head", "baseline", "--head", "mha:h=4", "--size", "8",
                    "--size", "full"], 4),
    ])
    def test_diverged_runs_exit_1_and_are_named(self, tmp_path, capsys, command,
                                                args, runs):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run_cli(command, *DIVERGING, *args, "--out", str(tmp_path))
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert rc == 1
        failed = [line for line in err.splitlines() if line.startswith("run failed:")]
        assert len(failed) == runs
        assert all("non-finite values in" in line for line in failed)

    def test_ablate_partial_failure_prints_na(self, tmp_path, monkeypatch, capsys):
        import clspool.cli as cli
        real_train = cli.train

        def flaky(cfg, tr, ev, **kw):
            if cfg.head.k == 2:
                raise cli.TrainingError("injected divergence")
            return real_train(cfg, tr, ev, **kw)

        monkeypatch.setattr(cli, "train", flaky)
        rc = run_cli("ablate-k", "--task", "pattern", *TINY, "--head", "maxseq+mha:h=2",
                     "--k", "1", "--k", "2", "--seed", "1", "--out", str(tmp_path))
        assert rc == 1
        rows = (tmp_path / "ablate_k.txt").read_text().splitlines()
        assert "n/a" not in rows[1] and rows[1].startswith("k = 1")
        assert rows[2].startswith("k = 2") and rows[2].split()[3:] == ["n/a"] * 3
        assert "head=maxseq+mha:k=2,h=2 seed=1: injected divergence" \
            in capsys.readouterr().err


def test_report_bytes_do_not_depend_on_jobs(tmp_path):
    argv = ["compare", "--task", "pattern", *TINY, "--head", "baseline",
            "--head", "mha:h=2", "--seed", "1", "--seed", "2"]
    assert run_cli(*argv, "--jobs", "1", "--out", str(tmp_path / "serial")) == 0
    assert run_cli(*argv, "--jobs", "2", "--out", str(tmp_path / "pool")) == 0
    for name in ("compare.txt", "stddev.txt", "compare.csv"):
        assert (tmp_path / "serial" / name).read_bytes() \
            == (tmp_path / "pool" / name).read_bytes()


class TestGradcheckCommand:
    def test_all_heads_pass(self, capsys):
        rc = run_cli("gradcheck")
        out = capsys.readouterr().out
        assert rc == 0
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) == 6
        assert all("PASS" in line for line in lines)

    def test_32bit_warns(self, capsys):
        rc = run_cli("gradcheck", "--bits", "32")
        captured = capsys.readouterr()
        assert "tolerance loosens to 1e-2" in captured.err
        assert rc == 0

    def test_injected_sign_flip_fails_max_heads(self, monkeypatch, capsys):
        real = ac.max_over_axis0

        def broken(theta):
            out = real(theta)
            orig_bwd = out.node.bwd
            out.node.bwd = lambda g: tuple(-x for x in orig_bwd(g))
            return out

        monkeypatch.setattr(ac, "max_over_axis0", broken)
        rc = run_cli("gradcheck")
        out = capsys.readouterr().out
        assert rc == 1
        for line in out.splitlines():
            if line.startswith(("maxcls", "maxseq")):
                assert "FAIL" in line
            elif line.startswith(("baseline", "mha", "meanseq", "normseq")):
                assert "PASS" in line

    def test_does_not_read_the_env_seed(self, monkeypatch, capsys):
        monkeypatch.delenv("CLSPOOL_SEED", raising=False)
        assert run_cli("gradcheck") == 0
        unset = capsys.readouterr()
        monkeypatch.setenv("CLSPOOL_SEED", "-1")  # a value train refuses with exit 2
        assert run_cli("gradcheck") == 0
        assert capsys.readouterr() == unset

    @pytest.mark.parametrize("argv, message", [
        (["--seed", "1", "--seed", "2"], "gradcheck runs a single seed; pass exactly one --seed"),
        (["--seed", "-1"], "seed must be >= 0, got -1"),
    ])
    def test_seed_usage_error(self, capsys, argv, message):
        assert run_cli("gradcheck", *argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


class TestConfigFileAndEnv:
    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "task=pattern\ntrain_size=48\neval_size=16\nseq_len=8\n"
            "vocab_size=30\nnum_layers=2\nd_model=16\nenc_heads=2\n"
            "# a comment, then a blank line\n\n"
            "epochs=1\nlr=1e-3\ndropout=0.0\nheads=baseline,mha:h=2\n"
            "seeds=1\nout=" + str(tmp_path / "out") + "\n", encoding="utf-8")
        assert run_cli("compare", "--config", str(cfg)) == 0
        first = (tmp_path / "out" / "compare.csv").read_text()
        assert run_cli("compare", "--config", str(cfg), "--seed", "2") == 0
        second = (tmp_path / "out" / "compare.csv").read_text()
        assert "seed_1" in first and "seed_2" in second

    @pytest.mark.parametrize("command", ["train", "compare"])
    @pytest.mark.parametrize("line, message", [
        ("epochs=1.5", "epochs must be an integer, got '1.5'"),
        ("lr=fast", "lr must be a number, got 'fast'"),
        ("seeds=1, abc", "seeds must be an integer, got 'abc'"),
    ])
    def test_config_value_error_names_its_line_and_key(self, tmp_path, capsys, command,
                                                       line, message):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"task=pattern\n{line}\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli(command, "--config", str(cfg), "--out", str(out)) == 2
        assert capsys.readouterr() == ("", f"error: config file line 2: {message}\n")
        assert not out.exists()

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("tsak=pattern\n", encoding="utf-8")
        assert run_cli("compare", "--config", str(cfg), "--head", "a",
                       "--head", "b") == 2

    def test_env_seed_default(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CLSPOOL_SEED", "9")
        rc = run_cli("train", "--task", "pattern", *TINY, "--head", "baseline",
                     "--out", str(tmp_path))
        assert rc == 0
        assert (tmp_path / "baseline__seed9.json").exists()

    def test_eval_does_not_read_the_env_seed(self, monkeypatch, capsys):
        argv = ["eval", "--ckpt", TINY_CKPT, "--task", "pattern", "--seq-len", "6",
                "--train-size", "8", "--eval-size", "8"]
        monkeypatch.delenv("CLSPOOL_SEED", raising=False)
        assert run_cli(*argv) == 0
        scored = capsys.readouterr()
        monkeypatch.setenv("CLSPOOL_SEED", "nine")
        assert run_cli(*argv) == 0
        assert capsys.readouterr() == scored

    @pytest.mark.parametrize("value, message", [
        ("nine", "CLSPOOL_SEED must be an integer, got 'nine'"),
        ("-9", "seed must be >= 0, got -9"),
    ])
    def test_env_seed_usage_error(self, tmp_path, monkeypatch, capsys, value, message):
        import clspool.cli as cli
        monkeypatch.setattr(cli, "train", lambda *a, **kw: pytest.fail("a run started"))
        monkeypatch.setenv("CLSPOOL_SEED", value)
        out = tmp_path / "out"
        rc = run_cli("train", "--task", "pattern", *SMALL, "--out", str(out))
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestReportAssembly:
    def _records(self):
        return [
            {"task": "t", "head": "baseline", "seed": 1,
             "metrics": {"accuracy": 0.8}, "wall_time_s": 1.0},
            {"task": "t", "head": "baseline", "seed": 2,
             "metrics": {"accuracy": 0.9}, "wall_time_s": 1.0},
            {"task": "t", "head": "mha:h=4", "seed": 1,
             "metrics": {"accuracy": 0.95}, "wall_time_s": 1.0},
            {"task": "t", "head": "mha:h=4", "seed": 2,
             "metrics": {"accuracy": 0.85}, "wall_time_s": 1.0},
        ]

    def test_delta_is_variant_minus_baseline(self):
        reports = build_reports(self._records(), ["baseline", "mha:h=4"])
        assert reports[1].delta["accuracy"] == pytest.approx(0.05)
        assert reports[0].delta["accuracy"] == 0.0

    def test_mean_table_delta_row(self):
        reports = build_reports(self._records(), ["baseline", "mha:h=4"])
        table = format_mean_table(reports)
        lines = table.strip().splitlines()
        assert lines[0].split()[0] == "Model"
        assert lines[-1].startswith("Delta")
        assert "0.0500" in lines[-1]

    @pytest.mark.parametrize("heads,failed,note", [
        (["mha:h=4"], "", "(no baseline head present; Delta row omitted)"),
        (["baseline"], "", "(no variant heads; Delta row omitted)"),
        (["baseline", "mha:h=4"], "baseline",
         "(every baseline run failed; Delta row omitted)"),
    ])
    def test_delta_note_names_the_cause(self, heads, failed, note):
        records = [dict(r, error="diverged") if r["head"] == failed else r
                   for r in self._records() if r["head"] in heads]
        table = format_mean_table(build_reports(records, heads))
        assert table.splitlines()[-1] == note
        assert not any(line.startswith("Delta") for line in table.splitlines())

    def test_compare_csv_bytes(self, tmp_path):
        # one head with a metric the baseline lacks, one whose runs all failed
        records = self._records() + [
            {"task": "t", "head": "maxcls:k=3", "seed": 1,
             "metrics": {"accuracy": 0.7, "f1": 0.6}, "wall_time_s": 1.0},
            {"task": "t", "head": "maxcls:k=3", "seed": 2,
             "metrics": {"accuracy": 0.75, "f1": 0.65}, "wall_time_s": 1.0},
        ] + [{"task": "t", "head": "normseq+mha:k=3,h=4", "seed": seed, "metrics": {},
              "error": "diverged", "wall_time_s": 0.0} for seed in (1, 2)]
        heads = ["baseline", "mha:h=4", "maxcls:k=3", "normseq+mha:k=3,h=4"]
        write_compare_csv(tmp_path / "c.csv", build_reports(records, heads))
        assert (tmp_path / "c.csv").read_text() == (
            "head,metric,seed_1,seed_2,mean,std,delta\n"
            "baseline,accuracy,0.8,0.9,0.8500000000000001,0.04999999999999999,0.0\n"
            "mha:h=4,accuracy,0.95,0.85,0.8999999999999999,0.04999999999999999,"
            "0.04999999999999982\n"
            "maxcls:k=3,accuracy,0.7,0.75,0.725,0.025000000000000022,-0.1250000000000001\n"
            "maxcls:k=3,f1,0.6,0.65,0.625,0.025000000000000022,\n")

    def test_std_table_scientific_format(self):
        reports = build_reports(self._records(), ["baseline", "mha:h=4"])
        table = format_std_table(reports)
        assert "5.00e-02" in table  # std of [0.8, 0.9]


def test_subprocess_entrypoint(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "clspool", "train", "--task", "pattern", *TINY,
         "--head", "baseline", "--seed", "1", "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert "accuracy" in result.stdout
    result = subprocess.run([sys.executable, "-m", "clspool", "train"],
                            capture_output=True, text=True)
    assert result.returncode == 2


POOL_MODULES = ("concurrent.futures.process", "concurrent.futures.thread", "multiprocessing")


def _pool_modules_loaded(tmp_path, *argv) -> list[str]:
    """The POOL_MODULES a fresh interpreter holds after it imports the package's
    modules and runs ``clspool argv`` through cli.main."""
    script = ("import sys\n"
              "from clspool import cli, data, heads, training\n"
              f"assert cli.main({[*argv, '--out', str(tmp_path)]!r}) == 0\n"
              f"print('pool modules:', *[m for m in {POOL_MODULES!r} if m in sys.modules])\n")
    src = Path(ac.__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(src))
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, check=True)
    label, _, loaded = result.stdout.splitlines()[-1].partition(":")
    assert label == "pool modules"
    return loaded.split()


def test_only_a_pool_loads_the_pool_modules(tmp_path):
    """A train run and a serial grid leave the process and thread pool modules
    and multiprocessing unloaded, though both evaluate; a --jobs 2 grid loads
    the process pool."""
    assert _pool_modules_loaded(tmp_path / "train", "train", "--task", "pattern",
                                *TINY) == []
    grid = ["compare", "--task", "pattern", *TINY, "--head", "baseline", "--head", "mha:h=2"]
    assert _pool_modules_loaded(tmp_path / "serial", *grid, "--jobs", "1") == []
    assert "concurrent.futures.process" in \
        _pool_modules_loaded(tmp_path / "pool", *grid, "--jobs", "2")


def test_every_name_a_module_exports_resolves():
    """Every ``__all__`` entry of every clspool module is an attribute of it:
    perfbench's tracer looks each one up with getattr, even in an untraced
    run, so one stale entry would fail every benchmark repetition."""
    import clspool
    modules = [importlib.import_module(f"clspool.{info.name}")
               for info in pkgutil.iter_modules(clspool.__path__)
               if info.name != "__main__"]  # importing __main__ runs the CLI
    exporting = {m.__name__: m for m in modules if hasattr(m, "__all__")}
    assert {"clspool.arraycore", "clspool.encoder", "clspool.heads",
            "clspool.training"} <= set(exporting)
    for name, module in exporting.items():
        assert [n for n in module.__all__ if not hasattr(module, n)] == [], name


def test_reruns_with_blas_threads_unpinned_write_identical_checkpoints(tmp_path):
    """Two fresh processes train one cell at the train-b32 benchmark's shape
    (B=32, T=17, two steps) with BLAS free to choose its thread count. Each
    weight gradient is one product summing over all 32 x 17 rows, the axis a
    threaded BLAS could split."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    checkpoints = []
    for run in ("first", "second"):
        subprocess.run(
            [sys.executable, "-m", "clspool", "train", "--task", "pattern",
             "--train-size", "64", "--eval-size", "8", "--seq-len", "16",
             "--batch-size", "32", "--epochs", "1", "--lr", "1e-3",
             "--head", "maxseq+mha:k=3,h=4", "--seed", "1", "--out", str(tmp_path / run)],
            env=env, check=True, capture_output=True)
        [ckpt] = (tmp_path / run).glob("*.ckpt")
        checkpoints.append(ckpt.read_bytes())
    assert checkpoints[0] == checkpoints[1]


def test_readme_cli_examples_parse():
    """Every `clspool ...` line of the README's sh blocks parses."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", readme, flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["clspool"]:
                commands.append(argv[1:])
    assert len(commands) >= 7
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)  # exits on a parse error


def _accuracy_by_head_and_seed(cfg, train_set, eval_set, **kw):
    """Stands in for cli.train: accuracy 0.5, plus 0.25 for mha or k / 16 for
    a head that pools, plus seed / 16."""
    acc = 0.5 + {"baseline": 0.0, "mha": 0.25}.get(cfg.head.kind, cfg.head.k / 16) \
        + cfg.seed / 16
    return None, TrainResult(eval_metrics={"accuracy": acc}, train_metrics={"accuracy": 1.0},
                             final_loss=0.5, n_train=len(train_set), n_eval=len(eval_set),
                             wall_time_s=0.0)


def _exit_in_mha_cells(cell):
    """Stands in for cli._run_cell in a grid worker: the process running an
    'mha' cell exits at once, every other cell trains as usual."""
    if cell[1].startswith("mha"):
        os._exit(3)
    return _run_cell(cell)


def _write_jsonl(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    return str(path)


class TestFileData:
    """The embedding table covers the vocabulary file and every token id."""

    def test_text_schema_with_a_60_token_vocab(self, tmp_path):
        words = [f"w{i}" for i in range(60)]
        (tmp_path / "vocab.txt").write_text("\n".join(words) + "\n", encoding="utf-8")
        rows = [{"text": f"{words[i]} {words[59 - i]}", "label": i % 2} for i in range(12)]
        rc = run_cli("train", "--data", _write_jsonl(tmp_path / "tr.jsonl", rows),
                     "--eval-data", _write_jsonl(tmp_path / "ev.jsonl", rows[:4]),
                     "--vocab", str(tmp_path / "vocab.txt"), *TINY,
                     "--head", "baseline", "--seed", "1", "--out", str(tmp_path))
        assert rc == 0
        _, cfg = load_checkpoint(tmp_path / "baseline__seed1.ckpt")
        assert cfg.encoder.vocab_size == 64  # 60 tokens + 4 reserved ids

    def test_tokens_schema_id_70_in_parallel_cells(self, tmp_path):
        rows = [{"tokens": [5 + i, 70 if i % 2 else 6], "label": i % 2} for i in range(12)]
        rc = run_cli("compare", "--data", _write_jsonl(tmp_path / "tr.jsonl", rows),
                     "--eval-data", _write_jsonl(tmp_path / "ev.jsonl", rows[:4]),
                     *TINY, "--head", "baseline", "--head", "mha:h=2", "--seed", "1",
                     "--jobs", "2", "--out", str(tmp_path))
        assert rc == 0
        records = [json.loads(p.read_text()) for p in (tmp_path / "runs").glob("*.json")]
        assert len(records) == 2 and not any("error" in r for r in records)


def _experiment(*argv, command="compare"):
    return _experiment_from_args(build_parser().parse_args([command, *argv]))


# annotation -> (config-file value, parsed, flag values, parsed)
FIELD_EXAMPLES = {
    "str | None": ("alpha", "alpha", ["beta"], "beta"),
    "str": ("alpha", "alpha", ["beta"], "beta"),
    "int": ("7", 7, ["8"], 8),
    "float": ("0.25", 0.25, ["0.5"], 0.5),
    "list[str]": ("a, b", ["a", "b"], ["c", "d"], ["c", "d"]),
    "list[int]": ("3,4", [3, 4], ["5", "6"], [5, 6]),
}

DATA_FLAGS = {"-h", "--help", "--config", "--task", "--data", "--eval-data", "--vocab",
              "--train-size", "--eval-size", "--seq-len", "--data-seed"}
GRID_FLAGS = DATA_FLAGS | {
    "--head", "--seed", "--epochs", "--lr", "--batch-size", "--warmup-ratio",
    "--weight-decay", "--dropout", "--vocab-size", "--num-layers", "--d-model",
    "--enc-heads", "--max-seq-len", "--out", "--jobs",
}
SUBCOMMAND_FLAGS = {
    "train": GRID_FLAGS - {"--jobs"},
    "compare": GRID_FLAGS,
    "ablate-k": GRID_FLAGS | {"--k"},
    "lowres": GRID_FLAGS | {"--size"},
    "eval": DATA_FLAGS | {"--ckpt"},
    "gradcheck": {"-h", "--help", "--bits", "--seed"},
}
DEFAULTS = dict(task=None, data=None, eval_data=None, vocab=None, heads=["baseline"],
                seeds=[0], epochs=4, lr=2e-5, batch_size=32, warmup_ratio=0.1,
                weight_decay=0.01, dropout=0.1, train_size=2000, eval_size=500,
                vocab_size=50, seq_len=16, data_seed=0, num_layers=4, d_model=32,
                enc_heads=4, max_seq_len=64, out="runs", jobs=1)


TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)


class TestConfigFields:
    @pytest.mark.parametrize("f", fields(ExperimentConfig), ids=lambda f: f.name)
    def test_every_field_is_a_flag_and_a_config_key(self, tmp_path, monkeypatch, f):
        monkeypatch.delenv("CLSPOOL_SEED", raising=False)
        raw, parsed, flag_values, flag_parsed = FIELD_EXAMPLES[f.type]
        flag = "--" + (f.name[:-1] if f.type.startswith("list[")
                       else f.name.replace("_", "-"))
        flags = [arg for value in flag_values for arg in (flag, value)]
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"{f.name}={raw}\n", encoding="utf-8")
        from_file = _experiment("--config", str(cfg))
        from_flags = _experiment(*flags)
        both = _experiment("--config", str(cfg), *flags)
        assert from_file == replace(ExperimentConfig(), **{f.name: parsed})
        assert repr(getattr(from_file, f.name)) == repr(parsed)
        assert from_flags == replace(ExperimentConfig(), **{f.name: flag_parsed})
        assert repr(getattr(from_flags, f.name)) == repr(flag_parsed)
        assert both == from_flags

    def test_subcommand_flags_and_defaults(self, monkeypatch):
        monkeypatch.delenv("CLSPOOL_SEED", raising=False)
        subs = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
        assert set(subs.choices) == set(SUBCOMMAND_FLAGS)
        for name, sub in subs.choices.items():
            assert {o for a in sub._actions for o in a.option_strings} \
                == SUBCOMMAND_FLAGS[name], name
            assert all(a.default is None for a in sub._actions if a.dest != "help")
        assert asdict(_experiment()) == DEFAULTS

    def test_empty_list_value_is_refused(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("seeds= , \n", encoding="utf-8")
        with pytest.raises(CliError, match="'seeds' needs at least one value"):
            _experiment("--config", str(cfg))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(
        st.one_of(st.sampled_from([f.name for f in fields(ExperimentConfig)]), TEXT),
        st.one_of(st.from_regex(r"-?[0-9]{0,3}(\.[0-9]*)?(e-?[0-9])?(, ?[0-9a-z:=+]*)*",
                                fullmatch=True), TEXT)), max_size=5))
    def test_random_config_text_parses_or_fails_cleanly(self, entries):
        text = "".join(f"{key}={value}\n" for key, value in entries)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "exp.cfg"
            path.write_text(text, encoding="utf-8")
            try:
                exp = _experiment("--config", str(path))
            except (CliError, ValueError):
                return
        assert isinstance(exp, ExperimentConfig)
