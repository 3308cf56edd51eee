import argparse
import csv
import json
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
    build_parser,
    build_reports,
    format_mean_table,
    format_std_table,
    main,
)
from clspool.training import load_checkpoint

TINY = ["--train-size", "48", "--eval-size", "16", "--seq-len", "8",
        "--vocab-size", "30", "--num-layers", "2", "--d-model", "16",
        "--enc-heads", "2", "--epochs", "1", "--lr", "1e-3", "--dropout", "0.0"]


def run_cli(*argv) -> int:
    return main(list(argv))


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
        assert run_cli("ablate-k", "--task", "pattern", *TINY,
                       "--k", "12", "--out", str(tmp_path)) == 2

    def test_ablate_pool_must_take_k_and_h(self, tmp_path):
        for pool in ("maxcls", "mha", "fancy"):
            assert run_cli("ablate-k", "--task", "pattern", *TINY, "--pool", pool,
                           "--out", str(tmp_path)) == 2

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

    @pytest.mark.parametrize("flag", ["--config", "--data", "--eval-data", "--vocab",
                                      "--ckpt"])
    def test_unreadable_input_file_is_usage_error(self, tmp_path, capsys, flag):
        (tmp_path / "vocab.txt").write_text("a\nb\n", encoding="utf-8")
        rows = [{"text": "a b", "label": i % 2} for i in range(4)]
        files = {"--data": _write_jsonl(tmp_path / "tr.jsonl", rows),
                 "--eval-data": _write_jsonl(tmp_path / "ev.jsonl", rows),
                 "--vocab": str(tmp_path / "vocab.txt")}
        missing = str(tmp_path / "missing")
        if flag == "--ckpt":
            argv = ["eval", "--task", "pattern", *TINY, "--ckpt", missing]
        elif flag == "--config":
            argv = ["train", "--task", "pattern", "--config", missing]
        else:
            files[flag] = missing
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
        assert "line 3" in capsys.readouterr().err


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
                     "--task", "pattern", *TINY)
        assert rc == 0
        evaled = json.loads(capsys.readouterr().out.strip())
        assert evaled["metrics"] == train_metrics
        assert evaled["head"] == "mha:h=2"

    def test_eval_takes_the_vocab_size_from_the_checkpoint(self, tmp_path, capsys):
        # trained at --vocab-size 30, scored without the flag (default 50)
        run_cli("train", "--task", "pattern", *TINY, "--head", "baseline",
                "--seed", "2", "--out", str(tmp_path))
        train_metrics = json.loads(capsys.readouterr().out.strip())
        at = TINY.index("--vocab-size")
        rc = run_cli("eval", "--ckpt", str(tmp_path / "baseline__seed2.ckpt"),
                     "--task", "pattern", *TINY[:at], *TINY[at + 2:])
        assert rc == 0
        assert json.loads(capsys.readouterr().out.strip())["metrics"] == train_metrics


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

    def test_without_baseline_delta_omitted(self, tmp_path):
        rc = run_cli("compare", "--task", "pattern", *TINY,
                     "--head", "mha:h=2", "--head", "maxcls:k=2",
                     "--seed", "1", "--out", str(tmp_path))
        assert rc == 0
        table = (tmp_path / "compare.txt").read_text()
        assert "Delta row omitted" in table


class TestAblateAndLowres:
    def test_ablate_table_rows(self, tmp_path, capsys):
        rc = run_cli("ablate-k", "--task", "pattern", *TINY, "--heads", "2",
                     "--k", "1", "--k", "2", "--seed", "1", "--out", str(tmp_path))
        assert rc == 0
        table = (tmp_path / "ablate_k.txt").read_text()
        assert "k = 1" in table and "k = 2" in table

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
        ("ablate-k", ["--k", "1", "--k", "2"], 2),
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
        rc = run_cli("ablate-k", "--task", "pattern", *TINY, "--heads", "2",
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


class TestConfigFileAndEnv:
    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "task=pattern\ntrain_size=48\neval_size=16\nseq_len=8\n"
            "vocab_size=30\nnum_layers=2\nd_model=16\nenc_heads=2\n"
            "epochs=1\nlr=1e-3\ndropout=0.0\nheads=baseline,mha:h=2\n"
            "seeds=1\nout=" + str(tmp_path / "out") + "\n", encoding="utf-8")
        assert run_cli("compare", "--config", str(cfg)) == 0
        first = (tmp_path / "out" / "compare.csv").read_text()
        assert run_cli("compare", "--config", str(cfg), "--seed", "2") == 0
        second = (tmp_path / "out" / "compare.csv").read_text()
        assert "seed_1" in first and "seed_2" in second

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

COMMON_FLAGS = {
    "-h", "--help", "--config", "--task", "--data", "--eval-data", "--vocab", "--head",
    "--seed", "--epochs", "--lr", "--batch-size", "--warmup-ratio", "--weight-decay",
    "--dropout", "--train-size", "--eval-size", "--vocab-size", "--seq-len",
    "--data-seed", "--num-layers", "--d-model", "--enc-heads", "--out", "--jobs",
    "--max-seq-len",
}
SUBCOMMAND_FLAGS = {
    "train": COMMON_FLAGS,
    "compare": COMMON_FLAGS,
    "ablate-k": COMMON_FLAGS | {"--k", "--heads", "--pool"},
    "lowres": COMMON_FLAGS | {"--size"},
    "eval": COMMON_FLAGS | {"--ckpt"},
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

    def test_ablate_heads_flag_is_not_the_heads_field(self):
        args = build_parser().parse_args(["ablate-k", "--heads", "2"])
        assert args.pool_heads == 2 and _experiment_from_args(args).heads == ["baseline"]

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
