import copy
import dataclasses
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kwslab
import kwslab.cli
import kwslab.config
import kwslab.errors
import kwslab.metrics as mx
import kwslab.nncore as nc
from helpers import (
    loop_bootstrap_mean_ci,
    loop_sign_flip_pvalue,
    read_rows_csv,
    reference_offset_grid,
    reference_strip_json_comments,
    run_cli_pipeline,
    run_outputs,
)
from kwslab.cli import main
from kwslab.config import (
    DATA_ROOT_ENV,
    load_run_config,
    run_config_from_dict,
    strip_json_comments,
)
from kwslab.errors import ConfigError, InvalidInputError, KwslabError
from kwslab.fixtures import load_reference_tables
from kwslab.model import DetectorModel, config_hash
from kwslab.reports import (provenance_block, read_json_report, render_sweep_summary,
                            write_rows_csv)
from kwslab.sweeps import (
    _bootstrap_mean_ci,
    auto_keywords_by_length,
    checkpoint_path,
    csv_rows,
    lexicon_length_frequency_spearman,
    paired_offset_improvement,
    seed_mean_se,
    sign_flip_pvalue,
    subsample_train_sessions,
    train_seeds,
)
from kwslab.training import ScoreRow, write_scores_csv


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory, micro_config_dict):
    """Synthesize the micro corpus once through the CLI."""
    root = tmp_path_factory.mktemp("corpus")
    config_path = root / "config.json"
    config = copy.deepcopy(micro_config_dict)
    config["corpus"]["root"] = str(root / "data")
    config_path.write_text(json.dumps(config))
    assert main(["synth", "--config", str(config_path)]) == 0
    return str(config_path), str(root / "data")


@pytest.fixture(scope="module")
def no_train_keyword_config(tmp_path_factory, corpus_dir, micro_config_dict):
    """Config of a copy of the micro corpus whose train sessions, s000 and
    s001, hold no token of the keyword: each is renamed in their events files."""
    _, root = corpus_dir
    copy_root = tmp_path_factory.mktemp("no_train_keyword")
    shutil.copytree(root, copy_root / "data")
    (keyword,) = micro_config_dict["task"]["keywords"]
    for sid in ("s000", "s001"):
        events = copy_root / "data" / f"{sid}_events.tsv"
        lines = events.read_text().splitlines()
        word = lines[0].split("\t").index("word")
        for i, line in enumerate(lines[1:], start=1):
            fields = line.split("\t")
            fields[word] = "zz" if fields[word] == keyword else fields[word]
            lines[i] = "\t".join(fields)
        events.write_text("\n".join(lines) + "\n")
    config = copy.deepcopy(micro_config_dict)
    config["corpus"]["root"] = str(copy_root / "data")
    (copy_root / "c.json").write_text(json.dumps(config))
    return str(copy_root / "c.json")


@pytest.fixture(scope="module")
def trained_workdir(tmp_path_factory, corpus_dir):
    config_path, _ = corpus_dir
    workdir = str(tmp_path_factory.mktemp("work"))
    assert main(["train", "--config", config_path, "--workdir", workdir]) == 0
    return workdir


@pytest.fixture(scope="module")
def evaluated_workdir(corpus_dir, trained_workdir):
    """`trained_workdir` after `evaluate`: the scores files and evaluation_report.json."""
    config_path, _ = corpus_dir
    assert main(["evaluate", "--config", config_path, "--workdir", trained_workdir]) == 0
    return trained_workdir


# Runs the CLI with `save_arrays` signalling its own process (signal number
# argv[1]) after the first bytes of a checkpoint reach the temp file.
INTERRUPTING_TRAIN = """
import os, sys
from contextlib import contextmanager
import kwslab.nncore.checkpoint as checkpoint
from kwslab.cli import main

signum, real_open = int(sys.argv[1]), checkpoint.atomic_open

class Interrupting:
    def __init__(self, fh):
        self.fh = fh

    def write(self, data):
        self.fh.write(data)
        self.fh.flush()
        os.kill(os.getpid(), signum)

@contextmanager
def interrupting_open(path, mode="w", **kwargs):
    with real_open(path, mode, **kwargs) as fh:
        yield Interrupting(fh)

checkpoint.atomic_open = interrupting_open
sys.exit(main(sys.argv[2:]))
"""


class TestConfigLoading:
    def test_shipped_example_config_parses(self):
        path = os.path.join(os.path.dirname(__file__), "..", "configs", "synthetic.json")
        config = load_run_config(path)
        assert config.task.keywords == ("tori",)
        assert config.corpus.synth is not None

    def test_comment_stripping(self):
        text = '{"a": 1, // trailing\n /* block "quoted" */ "b": "x//y"}'
        assert json.loads(strip_json_comments(text)) == {"a": 1, "b": "x//y"}

    @settings(max_examples=2000, deadline=None)
    @given(st.text(alphabet='"\\/*\nab', max_size=40))
    def test_comment_regex_equals_the_scanner(self, text):
        # strings (terminated or not, with escapes), // lines and /* */ blocks
        # (closed or open) in any mix
        assert strip_json_comments(text) == reference_strip_json_comments(text)

    def test_every_tuple_field_takes_a_list_and_rejects_a_scalar(self):
        # the field's type hint decides: a JSON list becomes a tuple, and a
        # scalar is invalid input ("ai" used to become the keywords ('a', 'i'))
        cfg = kwslab.config
        config_classes = [cfg.RunConfig, cfg.CorpusConfig, cfg.SynthConfig, cfg.TaskConfig,
                          cfg.ModelConfig, cfg.LossConfig, cfg.SamplerConfig, cfg.TrainConfig,
                          cfg.EvaluationConfig, cfg.Scenario]
        tuple_fields = [(cls, name) for cls in config_classes
                        for name, hint in typing.get_type_hints(cls).items()
                        if typing.get_origin(hint) is tuple]
        assert sorted(name for _, name in tuple_fields) == [
            "fa_budgets", "gap_range_s", "keywords", "scenarios", "seeds",
            "word_duration_range_s"]
        scenario = {"name": "s", "lambda_per_hour": 1.0}
        samples = {"scenarios": ([scenario, scenario], (cfg.Scenario("s", 1.0),) * 2),
                   "keywords": (["a", "b"], ("a", "b")), "seeds": ([1, 2], (1, 2))}
        for cls, name in tuple_fields:
            hint = typing.get_type_hints(cls)[name]
            items, expected = samples.get(name, ([1.0, 2.0], (1.0, 2.0)))
            coerced = cfg._coerce(hint, items, f"config.{name}")
            assert type(coerced) is tuple and coerced == expected
            for scalar in (2.0, "ai", {"a": 1}, None):
                with pytest.raises(ConfigError, match=rf"config\.{name}: expected a list"):
                    cfg._coerce(hint, scalar, f"config.{name}")

    def test_every_scalar_field_takes_only_its_type(self):
        # int: an int, not a bool; float: a finite number, an int kept as
        # given; str: a string; null only where the hint is optional
        cfg = kwslab.config
        config_classes = [cfg.RunConfig, cfg.CorpusConfig, cfg.SynthConfig, cfg.TaskConfig,
                          cfg.ModelConfig, cfg.LossConfig, cfg.SamplerConfig, cfg.TrainConfig,
                          cfg.EvaluationConfig, cfg.Scenario]
        good = {int: [0, 7, -3, 2**70], float: [0.5, -1e300, 3], str: ["", "ai"]}
        bad = {int: [True, False, 1.5, 8.0, math.nan, math.inf, "3", None, [1]],
               float: [True, math.nan, math.inf, -math.inf, "1.0", None, [1.0]],
               str: [5, 1.0, True, None, ["a"]]}
        seen = set()
        for cls in config_classes:
            for name, hint in typing.get_type_hints(cls).items():
                optional = typing.get_args(hint)[1:] == (type(None),)
                scalar = typing.get_args(hint)[0] if optional else hint
                if scalar not in good:
                    continue
                seen.add((name, scalar))
                path = f"config.{name}"
                for value in good[scalar]:
                    kept = cfg._coerce(hint, value, path)
                    assert kept == value and type(kept) is type(value)
                for value in bad[scalar]:
                    if value is None and optional:
                        assert cfg._coerce(hint, None, path) is None
                        continue
                    with pytest.raises(ConfigError, match=rf"{path}: expected "):
                        cfg._coerce(hint, value, path)
        assert {("root", str), ("stat_seed", int), ("lambda_per_hour", float),
                ("pooling", str), ("max_epochs", int), ("snr", float)} <= seen
        for hint, value in ((tuple[int, ...], [1, 0.5]), (tuple[str, ...], ["a", 5]),
                            (tuple[float, ...], [1.0, math.nan])):
            with pytest.raises(ConfigError, match=r"config\.x\[1\]: expected "):
                cfg._coerce(hint, value, "config.x")

    def test_shipped_config_hash_is_pinned(self):
        # provenance hashes the parsed config; reading the schema from the
        # type hints must not move it
        path = os.path.join(os.path.dirname(__file__), "..", "configs", "synthetic.json")
        assert config_hash(load_run_config(path)) == (
            "76596032abb22a9e85358b3e8ec04308872c880ff7fafdf90743e550632c5973")

    def test_unknown_key_rejected_with_path(self, micro_config_dict):
        config = copy.deepcopy(micro_config_dict)
        config["model"]["hidden_layers"] = 3
        with pytest.raises(ConfigError, match="config.model.*hidden_layers"):
            run_config_from_dict(config)

    def test_overrides(self, tmp_path, micro_config_dict):
        config = copy.deepcopy(micro_config_dict)
        config["corpus"]["root"] = "unused"
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        loaded = load_run_config(str(path), overrides=["training.lr=0.01", "seeds=[5]"])
        assert loaded.training.lr == 0.01
        assert loaded.seeds == (5,)

    def test_missing_corpus_rejected_when_required(self, tmp_path, micro_config_dict):
        config = copy.deepcopy(micro_config_dict)
        config["corpus"]["root"] = str(tmp_path / "nowhere")
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        with pytest.raises(ConfigError, match="manifest"):
            load_run_config(str(path), require_corpus=True)

    def test_env_var_overrides_root(self, tmp_path, micro_config_dict, monkeypatch):
        config = copy.deepcopy(micro_config_dict)
        config["corpus"]["root"] = "original"
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        loaded = load_run_config(str(path))
        monkeypatch.setenv(DATA_ROOT_ENV, "/elsewhere")
        assert loaded.resolved_root() == "/elsewhere"

    @pytest.mark.parametrize("key,value", [("eval_every", 5), ("sampler_seed", 111)])
    def test_removed_training_key_is_invalid_input(self, tmp_path, micro_config_dict, capsys,
                                                   key, value):
        config = copy.deepcopy(micro_config_dict)
        config["corpus"]["root"] = str(tmp_path / "data")
        config["training"][key] = value
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        assert main(["train", "--config", str(path), "--workdir", str(tmp_path / "w")]) == 1
        err = capsys.readouterr().err
        assert "unknown keys" in err and key in err

    @pytest.mark.parametrize("value", [7, -1, 8])
    @pytest.mark.parametrize("key, source", [
        ("training.seed", "list the training seeds in `seeds`"),
        ("model.in_channels", "each run takes the corpus's channel count"),
    ])
    def test_training_seed_key_names_seeds(self, corpus_dir, tmp_path, capsys, key, source,
                                           value):
        # every run takes its seed from `seeds` and its input channels from the
        # corpus (8 here), so a value in the config would be validated and
        # hashed but never read
        config_path, _ = corpus_dir
        assert main(["train", "--config", config_path, "--workdir", str(tmp_path / "w"),
                     "--set", f"{key}={value}"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: config.{key} is not a config key: {source}\n"
        assert not (tmp_path / "w").exists()

    @pytest.mark.parametrize("command", ["train", "sweep-scaling"])
    @pytest.mark.parametrize("value", [65, 100000])
    def test_jitter_of_a_whole_window_is_invalid_input(self, corpus_dir, tmp_path, capsys,
                                                       command, value):
        # the micro task's windows are 65 samples; 100000 used to exit 0 with
        # nearly every row's jitter silently skipped at its session's edge
        config_path, _ = corpus_dir
        assert main([command, "--config", config_path, "--workdir", str(tmp_path / "w"),
                     "--set", f"sampler.jitter_samples={value}"]) == 1
        assert capsys.readouterr().err == (f"error: sampler.jitter_samples is {value}, must be "
                                           "below the window length of 65 samples\n")
        assert not (tmp_path / "w").exists()

    def test_provenance_hash_is_the_config_hash(self, micro_config_dict):
        config = copy.deepcopy(micro_config_dict)
        config["corpus"]["root"] = "unused"
        run_config = run_config_from_dict(config)
        assert provenance_block(run_config)["config_hash"] == config_hash(run_config)
        other = run_config_from_dict({**config, "seeds": [0]})
        assert config_hash(other) != config_hash(run_config)

    def test_invalid_field_nonzero_exit(self, tmp_path, micro_config_dict, capsys):
        config = copy.deepcopy(micro_config_dict)
        config["corpus"]["synth"]["vocab_size"] = 1
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        assert main(["synth", "--config", str(path), "--out", str(tmp_path / "d")]) == 1
        assert "vocab_size" in capsys.readouterr().err

    def test_synth_rate_under_one_sample_per_token_is_invalid_input(self, tmp_path, capsys):
        # used to fail in numpy with a bare ValueError: "runtime failure", exit 2
        synth = {"seed": 11, "n_sessions": 2, "session_minutes": 3.0, "vocab_size": 16,
                 "word_duration_range_s": [0.2, 0.35], "gap_range_s": [0.2, 0.4],
                 "n_channels": 6, "sample_rate_hz": 0.1}
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"corpus": {"root": str(tmp_path / "d"), "synth": synth},
                                    "task": {"keywords": ["ri"]}}))
        assert main(["synth", "--config", str(path)]) == 1
        assert "sample_rate_hz" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_non_utf8_config_is_invalid_input(self, corpus_dir, tmp_path, capsys):
        # used to escape as UnicodeDecodeError: "runtime failure", exit 2
        config_path, _ = corpus_dir
        path = tmp_path / "c.json"
        path.write_bytes(open(config_path, "rb").read().replace(b'["ri"]', b'["r\xe9"]'))
        assert main(["train", "--config", str(path), "--workdir", str(tmp_path / "w")]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: cannot read config {path}: 'utf-8' codec can't decode byte 0xe9")
        assert os.listdir(tmp_path) == ["c.json"]

    @pytest.mark.parametrize("key", ["snr", "session_minutes", "zipf_exponent"])
    def test_synth_nan_setting_is_invalid_input(self, corpus_dir, tmp_path, capsys, key):
        # snr=NaN wrote a corpus and exited 0; the other two exited 2
        config_path, _ = corpus_dir
        assert main(["synth", "--config", config_path, "--out", str(tmp_path / "d"),
                     "--set", f"corpus.synth.{key}=NaN"]) == 1
        assert f"config.corpus.synth.{key}: expected a finite number" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("command,override,message", [
        ("train", "seeds=[0,-1]", "seeds must all be >= 0"),
        # [0, 0] trained seed 0 twice into one checkpoint, and evaluate took its
        # mean over two copies (SE 0.0); [] trained nothing and exited 0, then
        # evaluate and sweep-offsets exited 2 (IndexError, a NaN in the JSON)
        ("train", "seeds=[0,0]", "seeds must list at least one seed, none twice, got [0, 0]"),
        ("evaluate", "seeds=[1,0,1]", "seeds must list at least one seed, none twice"),
        ("train", "seeds=[]", "seeds must list at least one seed, none twice, got []"),
        ("evaluate", "seeds=[]", "seeds must list at least one seed"),
        ("sweep-offsets", "seeds=[]", "seeds must list at least one seed"),
        ("synth", "corpus.synth.seed=-3", "config.corpus.synth: seed must be >= 0"),
        ("evaluate", "evaluation.stat_seed=-2", "evaluation.stat_seed must be >= 0"),
        ("train", "training.weight_decay=-5", "config.training: weight_decay must be >= 0"),
    ])
    def test_negative_seed_or_decay_is_invalid_input(self, corpus_dir, tmp_path, capsys,
                                                     command, override, message):
        # negative seeds used to reach np.random.SeedSequence (exit 2), and a
        # negative weight decay trained and exited 0 with growing weights
        config_path, _ = corpus_dir
        out = ["--out", str(tmp_path / "d")] if command == "synth" else \
            ["--workdir", str(tmp_path / "w")]
        assert main([command, "--config", config_path, *out, "--set", override]) == 1
        assert message in capsys.readouterr().err
        assert os.listdir(tmp_path) == []  # nothing written

    @pytest.mark.parametrize("command,override,message", [
        # evaluate exited 0 with F1 0 and "threshold": NaN
        ("evaluate", "evaluation.tau=NaN", "config.evaluation.tau: expected a finite number"),
        ("evaluate", "evaluation.tau=-Infinity", "config.evaluation.tau: expected a finite number"),
        # training diverged and exited 2
        ("train", "training.lr=NaN", "config.training.lr: expected a finite number"),
        ("train", "training.lr=Infinity", "config.training.lr: expected a finite number"),
        ("train", "training.weight_decay=NaN",
         "config.training.weight_decay: expected a finite number"),
        ("train", "sampler.noise_std_fraction=NaN",
         "config.sampler.noise_std_fraction: expected a finite number"),
        ("train", "loss.focal_gamma=NaN", "config.loss.focal_gamma: expected a finite number"),
        ("train", "loss.rank_weight=Infinity", "config.loss.rank_weight: expected a finite number"),
        ("train", "task.beta_neg_s=NaN", "config.task.beta_neg_s: expected a finite number"),
        ("train", "task.beta_pos_s=Infinity", "config.task.beta_pos_s: expected a finite number"),
        # a scalar string became the keyword set ('a', 'i') and trained
        ("train", "task.keywords=ai", "config.task.keywords: expected a list"),
        # operating-points wrote Infinity tokens, or flagged every point
        # infeasible, and exited 0
        ("operating-points", 'evaluation.scenarios=[{"name": "a", "lambda_per_hour": Infinity}]',
         "config.evaluation.scenarios[0].lambda_per_hour: expected a finite number"),
        ("operating-points", "evaluation.target_recall=NaN",
         "config.evaluation.target_recall: expected a finite number"),
        ("operating-points", "evaluation.target_recall=0", "target_recall must lie in (0, 1]"),
        ("operating-points", "evaluation.target_recall=1.5", "target_recall must lie in (0, 1]"),
        ("operating-points", "evaluation.fa_budgets=[2.0,NaN]",
         "config.evaluation.fa_budgets[1]: expected a finite number"),
        ("operating-points", "evaluation.fa_budgets=[-1.0]", "fa_budgets must be >= 0 and finite"),
        # failed with TypeError: 'float' object is not iterable, exit 2
        ("operating-points", "evaluation.fa_budgets=2.0",
         "config.evaluation.fa_budgets: expected a list"),
        # trained and exited 0
        ("train", "sampler.jitter_samples=1.5",
         "config.sampler.jitter_samples: expected an integer"),
        # passed the config into provenance and exited 0
        ("train", "evaluation.stat_seed=NaN", "config.evaluation.stat_seed: expected an integer"),
        # each failed later with a TypeError or AttributeError, exit 2
        ("train", "seeds=[0.5]", "config.seeds[0]: expected an integer"),
        ("train", "task.keywords=[5]", "config.task.keywords[0]: expected a string"),
        ("train", "model.trunk_channels=8.0", "config.model.trunk_channels: expected an integer"),
        ("train", "training.max_epochs=Infinity",
         "config.training.max_epochs: expected an integer"),
        # AdamW's decay factor 1 - lr * weight_decay was -999: exit 2, "non-finite
        # values during forward"
        ("train", "training.weight_decay=1e6",
         "config.training: lr * weight_decay must be < 1, got lr 0.001 and weight_decay "
         "1000000.0"),
    ])
    def test_bad_setting_is_invalid_input_and_writes_no_report(
            self, corpus_dir, trained_workdir, micro_config_dict, tmp_path, capsys,
            command, override, message):
        config_path, _ = corpus_dir
        workdir = tmp_path / "w"
        workdir.mkdir()
        for seed in micro_config_dict["seeds"]:  # so that evaluate could run
            name = f"checkpoint_seed{seed}.ckpt"
            shutil.copy(os.path.join(trained_workdir, name), workdir / name)
        extra = ["--fixture"] if command == "operating-points" else []
        assert main([command, "--config", config_path, "--workdir", str(workdir),
                     "--set", override, *extra]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert sorted(p.suffix for p in workdir.iterdir()) == [".ckpt"] * len(
            micro_config_dict["seeds"])


class TestSynthCommand:
    def test_manifest_lists_sessions(self, corpus_dir, micro_config_dict):
        _, root = corpus_dir
        manifest = json.load(open(os.path.join(root, "manifest.json")))
        assert len(manifest["sessions"]) == micro_config_dict["corpus"]["synth"]["n_sessions"]

    def test_repeat_invocation_identical_checksums(self, corpus_dir, tmp_path):
        config_path, root = corpus_dir
        assert main(["synth", "--config", config_path, "--out", str(tmp_path / "two")]) == 0
        a = json.load(open(os.path.join(root, "manifest.json")))
        b = json.load(open(tmp_path / "two" / "manifest.json"))
        assert [e["checksum_sha256"] for e in a["sessions"]] == [
            e["checksum_sha256"] for e in b["sessions"]
        ]


class TestTrainEvaluateCommands:
    def test_train_writes_reports_and_checkpoints(self, trained_workdir, micro_config_dict):
        payload = read_json_report(os.path.join(trained_workdir, "train_report.json"))
        assert "config_hash" in payload["provenance"]
        assert "corpus_checksums" in payload["provenance"]
        for seed in micro_config_dict["seeds"]:
            assert str(seed) in payload["seeds"]
            assert os.path.exists(
                os.path.join(trained_workdir, f"checkpoint_seed{seed}.ckpt")
            )

    def test_train_determinism_bit_identical(self, corpus_dir, tmp_path_factory):
        config_path, _ = corpus_dir
        views = []
        checkpoints = []
        for name in ("d1", "d2"):
            workdir = str(tmp_path_factory.mktemp(name))
            assert main(["train", "--config", config_path, "--workdir", workdir,
                         "--set", "seeds=[0]"]) == 0
            payload = read_json_report(os.path.join(workdir, "train_report.json"))
            payload.pop("wall_clock_s")
            views.append(json.dumps(payload, sort_keys=True))
            checkpoints.append(open(os.path.join(workdir, "checkpoint_seed0.ckpt"), "rb").read())
        assert views[0] == views[1]
        assert checkpoints[0] == checkpoints[1]

    def test_evaluate_report_structure(self, evaluated_workdir, micro_config_dict):
        payload = read_json_report(os.path.join(evaluated_workdir, "evaluation_report.json"))
        assert payload["threshold"] == 0.5
        seeds = [str(s) for s in micro_config_dict["seeds"]]
        assert sorted(payload["per_seed"]) == sorted(seeds)
        for name in mx.REPORT_METRICS:
            assert name in payload["seed_mean"]["metrics"]
        for seed in seeds:
            assert os.path.exists(os.path.join(evaluated_workdir, f"scores_seed{seed}.csv"))

    def test_missing_checkpoint_explicit_error(self, corpus_dir, tmp_path, capsys):
        config_path, _ = corpus_dir
        assert main(["evaluate", "--config", config_path,
                     "--workdir", str(tmp_path)]) == 1
        assert "checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["permutation_draws", "bootstrap_resamples"])
    def test_zero_draws_is_invalid_input(self, corpus_dir, trained_workdir, capsys, key):
        # used to fail inside np.percentile: "runtime failure", exit 2
        config_path, _ = corpus_dir
        assert main(["evaluate", "--config", config_path, "--workdir", trained_workdir,
                     "--set", f"evaluation.{key}=0"]) == 1
        assert f"evaluation.{key}" in capsys.readouterr().err

    def test_truncated_checkpoint_is_invalid_input(self, corpus_dir, trained_workdir,
                                                   micro_config_dict, tmp_path, capsys):
        config_path, _ = corpus_dir
        for seed in micro_config_dict["seeds"]:
            name = f"checkpoint_seed{seed}.ckpt"
            data = open(os.path.join(trained_workdir, name), "rb").read()
            (tmp_path / name).write_bytes(data[: len(data) // 2])
        assert main(["evaluate", "--config", config_path,
                     "--workdir", str(tmp_path)]) == 1
        assert "checkpoint_seed0.ckpt" in capsys.readouterr().err

    def test_truncated_signal_file_is_invalid_input(self, corpus_dir, micro_config_dict,
                                                    tmp_path, capsys):
        # used to fail in numpy's reshape: "runtime failure", exit 2
        _, root = corpus_dir
        shutil.copytree(root, tmp_path / "data")
        signal = tmp_path / "data" / "s001.f32"
        signal.write_bytes(signal.read_bytes()[:-4])
        config = copy.deepcopy(micro_config_dict)
        config["corpus"]["root"] = str(tmp_path / "data")
        (tmp_path / "c.json").write_text(json.dumps(config))
        assert main(["train", "--config", str(tmp_path / "c.json"),
                     "--workdir", str(tmp_path / "w")]) == 1
        assert "s001.f32" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["manifest.json", "s001.json"])
    def test_checksum_not_of_the_signal_is_invalid_input(self, corpus_dir, micro_config_dict,
                                                         tmp_path, capsys, name):
        # a manifest checksum edited to deadbeef used to train, exit 0 and
        # land in the report's provenance
        _, root = corpus_dir
        shutil.copytree(root, tmp_path / "data")
        path = tmp_path / "data" / name
        data = json.loads(path.read_text())
        entry = data if name == "s001.json" else next(
            e for e in data["sessions"] if e["session_id"] == "s001")
        entry["checksum_sha256"] = "deadbeef"
        path.write_text(json.dumps(data))
        config = copy.deepcopy(micro_config_dict)
        config["corpus"]["root"] = str(tmp_path / "data")
        (tmp_path / "c.json").write_text(json.dumps(config))
        assert main(["train", "--config", str(tmp_path / "c.json"),
                     "--workdir", str(tmp_path / "w")]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: session s001: {tmp_path / 'data' / 's001.json'} disagrees with the manifest")
        assert not (tmp_path / "w" / "train_report.json").exists()

    @staticmethod
    def _edit_session_signal(corpus_dir, micro_config_dict, tmp_path, partition, edit):
        """Copy the micro corpus to tmp_path/data, replace the signal of the first
        `partition` session by `edit(signal)` (its shape, checksums and channel
        count rewritten to match) and write tmp_path/c.json for it. Returns the
        session id."""
        _, root = corpus_dir
        data = tmp_path / "data"
        shutil.copytree(root, data)
        manifest = json.loads((data / "manifest.json").read_text())
        entry = next(e for e in manifest["sessions"] if e["partition"] == partition)
        sid = entry["session_id"]
        sidecar = json.loads((data / f"{sid}.json").read_text())
        signal = edit(np.fromfile(data / f"{sid}.f32", dtype="<f4").reshape(
            sidecar["n_channels"], sidecar["n_samples"]))
        signal.tofile(data / f"{sid}.f32")
        sidecar["n_channels"] = signal.shape[0]
        entry["checksum_sha256"] = sidecar["checksum_sha256"] = hashlib.sha256(
            signal.tobytes()).hexdigest()
        (data / "manifest.json").write_text(json.dumps(manifest))
        (data / f"{sid}.json").write_text(json.dumps(sidecar))
        config = copy.deepcopy(micro_config_dict)
        config["corpus"]["root"] = str(data)
        (tmp_path / "c.json").write_text(json.dumps(config))
        return sid

    @pytest.mark.parametrize("partition, sid, message", [
        # s000 is the first session, so the first that differs from it is s001
        ("train", "s000", "session s001 has 8 channels and session s000 6"),
        ("test", "s003", "session s003 has 6 channels and session s000 8"),
    ])
    def test_session_with_another_channel_count_is_invalid_input(
            self, corpus_dir, trained_workdir, micro_config_dict, tmp_path, capsys,
            partition, sid, message):
        # a 6-channel session in the 8-channel corpus used to exit 2: an
        # IndexError from the normalizer fit in a train session, and numpy's
        # "operands could not be broadcast" in the test session
        assert self._edit_session_signal(corpus_dir, micro_config_dict, tmp_path, partition,
                                         lambda signal: np.ascontiguousarray(signal[:6])) == sid
        self._train_and_evaluate_exit_1(
            trained_workdir, micro_config_dict, tmp_path, capsys,
            f"error: {message}: all sessions of a task must share one channel count")

    @pytest.mark.parametrize("argv", [
        ["train"], ["sweep-scaling", "--fractions", "1.0"],
    ], ids=["train", "sweep-scaling"])
    def test_model_channels_unlike_the_corpus_are_invalid_input(self, corpus_dir, tmp_path,
                                                                capsys, argv):
        # used to exit 2 with "runtime failure: input has 8 channels, model expects 12";
        # the run now takes the corpus's count, and the config may not name one
        config_path, _ = corpus_dir
        workdir = tmp_path / "w"
        assert main([*argv, "--config", config_path, "--workdir", str(workdir),
                     "--set", "model.in_channels=12", "--set", "seeds=[0]"]) == 1
        err = capsys.readouterr().err
        assert err == ("error: config.model.in_channels is not a config key: each run takes "
                       "the corpus's channel count\n")
        assert not workdir.exists()

    def test_checkpoints_take_the_corpus_channel_count(self, trained_workdir,
                                                       micro_config_dict):
        assert "in_channels" not in micro_config_dict["model"]
        for seed in micro_config_dict["seeds"]:
            path = os.path.join(trained_workdir, f"checkpoint_seed{seed}.ckpt")
            assert DetectorModel.load(path).config.in_channels == 8

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("partition", ["train", "validation", "test"])
    def test_non_finite_signal_sample_is_invalid_input(self, corpus_dir, trained_workdir,
                                                       micro_config_dict, tmp_path, capsys,
                                                       partition, value):
        # a NaN in a train session used to exit 2 as a divergence ("non-finite
        # values during forward"), in the validation session exit 1 with
        # "softmax input must be finite", and in the test session let `train`
        # exit 0. No message named the session.
        def edit(signal):
            signal[3, 1234] = value
            signal[5, 99] = value  # a later channel: the first bad one is named
            return signal

        sid = self._edit_session_signal(corpus_dir, micro_config_dict, tmp_path, partition, edit)
        expected = f"error: session {sid}: channel 3 holds a non-finite sample ({value}) " \
                   "at sample index 1234"
        self._train_and_evaluate_exit_1(trained_workdir, micro_config_dict, tmp_path, capsys,
                                        expected)

    @staticmethod
    def _train_and_evaluate_exit_1(trained_workdir, micro_config_dict, tmp_path, capsys,
                                   expected):
        """`train` into a fresh workdir and `evaluate` into a copy of the trained
        checkpoints, both with tmp_path/c.json: each exits 1, its message starts
        with `expected` and its workdir is left as it was."""
        train_dir, eval_dir = tmp_path / "train", tmp_path / "eval"
        eval_dir.mkdir()
        for seed in micro_config_dict["seeds"]:
            name = f"checkpoint_seed{seed}.ckpt"
            shutil.copy(os.path.join(trained_workdir, name), eval_dir / name)
        for command, workdir in (("train", train_dir), ("evaluate", eval_dir)):
            before = sorted(os.listdir(workdir)) if workdir.exists() else []
            assert main([command, "--config", str(tmp_path / "c.json"),
                         "--workdir", str(workdir)]) == 1
            assert capsys.readouterr().err.startswith(expected)
            # no checkpoint, scores file or report
            after = sorted(os.listdir(workdir)) if workdir.exists() else []
            assert after == before, command

    @pytest.mark.parametrize("name, edit", [
        ("manifest.json", lambda m: m["sessions"][0].update(partition="dev")),
        ("manifest.json", lambda m: m["sessions"][0].pop("partition")),
        ("manifest.json", lambda m: m["sessions"][0].update(partition=["train"])),
        ("manifest.json", lambda m: m["sessions"][1].pop("checksum_sha256")),
        ("manifest.json", lambda m: m["sessions"][2].update(session_id=7)),
        ("manifest.json", lambda m: m.pop("sessions")),
        ("manifest.json", "not json {"),
        ("manifest.json", "[]"),
        ("s001.json", lambda m: m.update(sample_rate_hz="fast")),
        ("s001.json", lambda m: m.update(sample_rate_hz=0)),
        ("s001.json", lambda m: m.update(sample_rate_hz=True)),
        ("s001.json", lambda m: m.update(sample_rate_hz=float("nan"))),
    ], ids=["unknown-partition", "no-partition", "list-partition", "no-checksum",
            "numeric-session-id", "no-sessions", "not-json", "not-an-object",
            "rate-string", "rate-zero", "rate-bool", "rate-nan"])
    def test_malformed_corpus_metadata_is_invalid_input(self, corpus_dir, micro_config_dict,
                                                        tmp_path, capsys, name, edit):
        # all but the zero rate used to escape as KeyError, TypeError or
        # JSONDecodeError (exit 2); the zero rate exited 1 without naming the file
        _, root = corpus_dir
        shutil.copytree(root, tmp_path / "data")
        path = tmp_path / "data" / name
        if callable(edit):
            data = json.loads(path.read_text())
            edit(data)
            path.write_text(json.dumps(data))  # a NaN goes out as the NaN literal
        else:
            path.write_text(edit)
        config = copy.deepcopy(micro_config_dict)
        config["corpus"]["root"] = str(tmp_path / "data")
        (tmp_path / "c.json").write_text(json.dumps(config))
        assert main(["train", "--config", str(tmp_path / "c.json"),
                     "--workdir", str(tmp_path / "w")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err

    @staticmethod
    def _train_with_bad_event(corpus_dir, micro_config_dict, tmp_path, column, value, word):
        """`kwslab train` on a copy of the micro corpus whose first event row for
        `word` (any word if None) in s000_events.tsv has `column` set to `value`.
        Returns the events path, the edited line's number and the exit code."""
        _, root = corpus_dir
        shutil.copytree(root, tmp_path / "data")
        events = tmp_path / "data" / "s000_events.tsv"
        lines = events.read_text().splitlines()
        header = lines[0].split("\t")
        row = next(i for i, line in enumerate(lines[1:], start=1)
                   if word is None or line.split("\t")[header.index("word")] == word)
        fields = lines[row].split("\t")
        fields[header.index(column)] = value
        lines[row] = "\t".join(fields)
        events.write_text("\n".join(lines) + "\n")
        config = copy.deepcopy(micro_config_dict)
        config["corpus"]["root"] = str(tmp_path / "data")
        (tmp_path / "c.json").write_text(json.dumps(config))
        code = main(["train", "--config", str(tmp_path / "c.json"),
                     "--workdir", str(tmp_path / "w")])
        return events, row + 1, code

    @pytest.mark.parametrize("column,word", [("onset", None), ("duration", "ri")])
    def test_non_finite_event_time_is_invalid_input(self, corpus_dir, micro_config_dict,
                                                    tmp_path, capsys, column, word):
        # a NaN onset used to exit 2 ("cannot convert float NaN to integer"); a NaN
        # duration on a keyword token trained, exited 0 and reported a val AUPRC
        events, line, code = self._train_with_bad_event(corpus_dir, micro_config_dict,
                                                        tmp_path, column, "nan", word)
        assert code == 1
        # the error names the events file, not only the line
        assert f"error: {events}: line {line}: event {column} must be finite" in \
            capsys.readouterr().err

    def test_malformed_event_time_names_its_file_and_line(self, corpus_dir, micro_config_dict,
                                                          tmp_path, capsys):
        # the parser's own EventsParseError, re-raised naming the file
        events, line, code = self._train_with_bad_event(corpus_dir, micro_config_dict,
                                                        tmp_path, "onset", "xx", None)
        assert code == 1
        assert f"error: {events}: line {line}: malformed numeric field" in \
            capsys.readouterr().err

    def test_non_utf8_events_file_is_invalid_input(self, corpus_dir, micro_config_dict,
                                                   tmp_path, capsys):
        # used to escape as UnicodeDecodeError: "runtime failure", exit 2
        _, root = corpus_dir
        shutil.copytree(root, tmp_path / "data")
        events = tmp_path / "data" / "s001_events.tsv"
        events.write_bytes(events.read_bytes() + b"80.5\t0.25\tword\tr\xe9\n")
        config = copy.deepcopy(micro_config_dict)
        config["corpus"]["root"] = str(tmp_path / "data")
        (tmp_path / "c.json").write_text(json.dumps(config))
        assert main(["train", "--config", str(tmp_path / "c.json"),
                     "--workdir", str(tmp_path / "w")]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {events}: 'utf-8' codec can't decode byte 0xe9")
        assert sorted(os.listdir(tmp_path)) == ["c.json", "data"]

    def test_train_without_a_train_positive_leaves_no_workdir(self, no_train_keyword_config,
                                                              tmp_path, capsys):
        # the sampler's check used to run after `train` had made the workdir
        workdir = tmp_path / "w"
        assert main(["train", "--config", no_train_keyword_config,
                     "--workdir", str(workdir)]) == 1
        assert capsys.readouterr().err == ("error: need both classes to balance batches; "
                                           "got 0 positives and 285 negatives\n")
        assert not workdir.exists()

    @pytest.mark.parametrize("pooling", ["attention", "topk"])
    def test_non_finite_validation_scores_are_a_divergence(self, corpus_dir, tmp_path, capsys,
                                                           monkeypatch, pooling):
        # a NaN used to exit 1 as invalid input: "softmax input must be finite",
        # or under top-k pooling "scores must be finite"
        config_path, _ = corpus_dir
        real = kwslab.training.score_partition

        def spoiled(model, task, partition):
            scores = real(model, task, partition)
            scores[0] = np.nan
            return scores

        monkeypatch.setattr(kwslab.training, "score_partition", spoiled)
        workdir = tmp_path / "w"
        assert main(["train", "--config", config_path, "--workdir", str(workdir),
                     "--set", f"model.pooling=\"{pooling}\""]) == 2
        assert capsys.readouterr().err == "runtime failure: non-finite validation scores\n"
        assert os.listdir(workdir) == []

    def test_forward_validation_error_is_invalid_input(self, corpus_dir, tmp_path, capsys,
                                                       monkeypatch):
        # `train` used to re-raise it as a divergence, exit 2
        config_path, _ = corpus_dir

        def forward(self, batch, training=False):
            raise kwslab.errors.ValidationError("bad forward input")

        monkeypatch.setattr(DetectorModel, "forward", forward)
        assert main(["train", "--config", config_path, "--workdir", str(tmp_path / "w")]) == 1
        assert capsys.readouterr().err == "error: bad forward input\n"

    def test_checkpoint_without_model_config_is_invalid_input(
            self, corpus_dir, trained_workdir, micro_config_dict, tmp_path, capsys):
        config_path, _ = corpus_dir
        for seed in micro_config_dict["seeds"]:
            name = f"checkpoint_seed{seed}.ckpt"
            arrays, meta = nc.load_arrays(os.path.join(trained_workdir, name))
            del meta["model_config"]
            nc.save_arrays(str(tmp_path / name), arrays, meta)
        assert main(["evaluate", "--config", config_path,
                     "--workdir", str(tmp_path)]) == 1
        assert "model_config" in capsys.readouterr().err


    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGKILL], ids=["INT", "KILL"])
    def test_interrupted_checkpoint_rewrite_keeps_the_old_one(
            self, corpus_dir, trained_workdir, tmp_path, signum):
        # a second `kwslab train` into the first run's workdir gets `signum`
        # right after its first checkpoint write has put bytes in the temp file
        config_path, _ = corpus_dir
        workdir = tmp_path / "work"
        shutil.copytree(trained_workdir, workdir)
        before = {f: (workdir / f).read_bytes() for f in os.listdir(workdir)}
        assert any(f.endswith(".ckpt") for f in before)
        result = subprocess.run(
            [sys.executable, "-c", INTERRUPTING_TRAIN, str(int(signum)),
             "train", "--config", config_path, "--workdir", str(workdir)],
            env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(kwslab.__file__))},
            capture_output=True, timeout=300)
        assert result.returncode == -signum, result.stderr.decode()
        after = {f: (workdir / f).read_bytes() for f in os.listdir(workdir)}
        left = sorted(set(after) - set(before))
        assert {f: after[f] for f in before} == before
        if signum == signal.SIGINT:  # the write's clean-up runs and removes its temp file
            assert left == []
        else:  # nothing runs after SIGKILL: the hidden temp file stays, the checkpoint is whole
            assert len(left) == 1 and left[0].startswith(".checkpoint_seed0.ckpt.")
            assert left[0].endswith(".tmp")
            # the next run's write of that checkpoint removes the killed run's temp file
            assert main(["train", "--config", config_path, "--workdir", str(workdir)]) == 0
            assert not [f for f in os.listdir(workdir) if f.endswith(".tmp")]

    def test_flipped_dtype_in_checkpoint_is_invalid_input(
            self, corpus_dir, trained_workdir, micro_config_dict, tmp_path, capsys):
        # one flipped bit turns "<f4" into ",f4", which np.dtype rejects with a
        # SyntaxError: used to be "runtime failure: SyntaxError", exit 2
        config_path, _ = corpus_dir
        for seed in micro_config_dict["seeds"]:
            name = f"checkpoint_seed{seed}.ckpt"
            data = open(os.path.join(trained_workdir, name), "rb").read()
            assert data.count(b'"<f4"') > 1
            (tmp_path / name).write_bytes(data.replace(b'"<f4"', b'",f4"', 1))
        assert main(["evaluate", "--config", config_path,
                     "--workdir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "checkpoint_seed0.ckpt" in err and "SyntaxError" not in err

    def test_nonfinite_checkpoint_is_invalid_input(
            self, corpus_dir, trained_workdir, micro_config_dict, tmp_path, capsys):
        # a NaN in head_z.b used to load: evaluate wrote a scores file full of
        # nan, then failed with "scores must be finite"
        config_path, _ = corpus_dir
        for seed in micro_config_dict["seeds"]:
            name = f"checkpoint_seed{seed}.ckpt"
            arrays, meta = nc.load_arrays(os.path.join(trained_workdir, name))
            arrays["head_z.b"][0] = np.nan
            nc.save_arrays(str(tmp_path / name), arrays, meta)
        assert main(["evaluate", "--config", config_path,
                     "--workdir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "head_z.b" in err and "non-finite" in err
        assert not [f for f in os.listdir(tmp_path) if f.startswith("scores")]


class TestRunIdentity:
    def test_outputs_do_not_depend_on_the_workdir_or_the_cwd(self, micro_config_dict, tmp_path,
                                                              monkeypatch):
        # sweep_report.json used to name each checkpoint by its full workdir path,
        # and operating_points.json its --scores files as typed
        monkeypatch.delenv(DATA_ROOT_ENV, raising=False)
        config = {**copy.deepcopy(micro_config_dict), "seeds": [0]}
        config["corpus"]["root"] = "data"  # relative: each run's corpus is under its cwd
        one, two, elsewhere = tmp_path / "one", tmp_path / "two" / "cwd", tmp_path / "elsewhere"
        for cwd in (one, two):
            cwd.mkdir(parents=True)
            (cwd / "config.json").write_text(json.dumps(config))
        monkeypatch.chdir(one)
        run_cli_pipeline("config.json", "run", main)  # every path relative
        monkeypatch.chdir(two)
        run_cli_pipeline(str(two / "config.json"), str(elsewhere / "run"), main)  # absolute
        first = run_outputs(one / "run")
        assert sorted(first) == [
            "checkpoint_seed0.ckpt", "evaluation_report.json", "operating_points.json",
            "recall_vs_fa.csv", "scores_seed0.csv", os.path.join("sweep", "scaling_f1_seed0.ckpt"),
            os.path.join("sweep", "sweep.csv"), os.path.join("sweep", "sweep_report.json"),
            "train_report.json"]
        for a, b in ((one / "data", two / "data"), (one / "run", elsewhere / "run")):
            first, second = run_outputs(a), run_outputs(b)
            assert sorted(first) == sorted(second)
            for name, value in first.items():
                assert value == second[name], name


class TestScalingSweep:
    @pytest.fixture(scope="class")
    def sweep_workdir(self, corpus_dir, tmp_path_factory):
        config_path, _ = corpus_dir
        workdir = str(tmp_path_factory.mktemp("scaling"))
        assert main([
            "sweep-scaling", "--config", config_path, "--workdir", workdir,
            "--fractions", "0.5,1.0", "--set", "seeds=[0]",
        ]) == 0
        return workdir

    def test_full_fraction_matches_direct_training(self, sweep_workdir, evaluated_workdir):
        payload = read_json_report(os.path.join(sweep_workdir, "sweep_report.json"))
        full = next(c for c in payload["cells"] if c["axis"]["fraction"] == 1.0)
        eval_payload = read_json_report(
            os.path.join(evaluated_workdir, "evaluation_report.json")
        )
        direct = eval_payload["per_seed"]["0"]["metrics"]["auprc"]["value"]
        sweep_value = next(r["auprc"] for r in full["per_seed"] if r["seed"] == 0)
        assert sweep_value == direct

    def test_full_fraction_checkpoint_is_the_train_checkpoint(self, sweep_workdir,
                                                              trained_workdir):
        # `kwslab train` and the sweep cell train seed 0 through the same runner
        ckpt = open(os.path.join(trained_workdir, "checkpoint_seed0.ckpt"), "rb").read()
        assert open(os.path.join(sweep_workdir, "scaling_f1_seed0.ckpt"), "rb").read() == ckpt
        cells = read_json_report(os.path.join(sweep_workdir, "sweep_report.json"))["cells"]
        full = next(c for c in cells if c["axis"]["fraction"] == 1.0)
        assert [r["checkpoint"] for r in full["per_seed"]] == ["scaling_f1_seed0.ckpt"]

    def test_csv_is_derived_from_the_report_cells(self, sweep_workdir, tmp_path):
        # nothing used to check that sweep.csv agrees with sweep_report.json
        csv_path = os.path.join(sweep_workdir, "sweep.csv")
        cells = read_json_report(os.path.join(sweep_workdir, "sweep_report.json"))["cells"]
        fields = open(csv_path, encoding="utf-8").readline().strip().split(",")
        assert fields == ["fraction", "seed", "auprc", "auroc"]
        rows = csv_rows(cells, fields)
        assert [row["seed"] for row in rows] == [0, "mean", "se"] * 2
        write_rows_csv(str(tmp_path / "derived.csv"), fields, rows)
        assert (tmp_path / "derived.csv").read_bytes() == open(csv_path, "rb").read()

    def test_csv_aggregates_rederivable(self, sweep_workdir):
        rows = read_rows_csv(os.path.join(sweep_workdir, "sweep.csv"))
        by_fraction = {}
        for row in rows:
            by_fraction.setdefault(row["fraction"], {})[row["seed"]] = row
        for fraction, group in by_fraction.items():
            seed_rows = [v for k, v in group.items() if k not in ("mean", "se")]
            values = [float(r["auprc"]) for r in seed_rows]
            mean, se = seed_mean_se(values)
            assert float(group["mean"]["auprc"]) == mean
            assert float(group["se"]["auprc"]) == se

    def test_reports_hours_and_windows(self, sweep_workdir):
        payload = read_json_report(os.path.join(sweep_workdir, "sweep_report.json"))
        for cell in payload["cells"]:
            agg = cell["aggregate"]
            assert agg["unique_hours"] > 0
            assert agg["n_train_windows"] > 0
            assert 0 < agg["p_value"] <= 1

    @pytest.mark.parametrize("fractions", ["1.0,2.0", "0.5,0", "0.5,nan"])
    def test_bad_fraction_trains_nothing(self, corpus_dir, tmp_path, capsys, fractions):
        # "1.0,2.0" used to train the 1.0 cell and write its checkpoint, then exit 1
        config_path, _ = corpus_dir
        workdir = tmp_path / "w"
        assert main(["sweep-scaling", "--config", config_path, "--workdir", str(workdir),
                     "--fractions", fractions, "--set", "seeds=[0]"]) == 1
        assert "fractions must lie in (0, 1]" in capsys.readouterr().err
        assert not workdir.exists()

    def test_cell_without_train_positives_is_infeasible(self, no_train_keyword_config,
                                                        tmp_path):
        # the sweep's own count of train positives used to give this cell its note
        workdir = tmp_path / "w"
        assert main(["sweep-scaling", "--config", no_train_keyword_config,
                     "--workdir", str(workdir), "--fractions", "0.5,1.0",
                     "--set", "seeds=[0]"]) == 0
        cells = read_json_report(str(workdir / "sweep_report.json"))["cells"]
        assert [c["infeasible"] for c in cells] == [True, True]
        for cell in cells:
            assert cell["note"].startswith("need both classes to balance batches; "
                                           "got 0 positives and ")
        assert sorted(os.listdir(workdir)) == ["sweep.csv", "sweep_report.json"]

    def test_subsample_prefix_rule(self):
        hours = {"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0}
        assert subsample_train_sessions(hours, hours, 0.1) == ["a"]
        assert subsample_train_sessions(hours, hours, 0.5) == ["a", "b"]
        assert subsample_train_sessions(hours, hours, 0.75) == ["a", "b", "c"]
        assert subsample_train_sessions(hours, hours, 1.0) == ["a", "b", "c", "d"]


class TestTrainSeeds:
    def test_yields_each_seed_in_config_order_as_its_run_ends(self, micro_task,
                                                              micro_config_dict, tmp_path):
        config = run_config_from_dict({**micro_config_dict, "seeds": [2, 0]})
        workdir = tmp_path / "new"
        runs = train_seeds(config, micro_task, str(workdir), "t")
        assert not workdir.exists()  # nothing runs before the first seed is asked for
        seed, report = next(runs)
        assert (seed, report.checkpoint_path) == (2, str(workdir / "t_seed2.ckpt"))
        assert os.listdir(workdir) == ["t_seed2.ckpt"]  # seed 0 has not started
        seed, report = next(runs)
        assert (seed, report.checkpoint_path) == (0, checkpoint_path(str(workdir), "t", 0))
        assert report.checkpoint_path == str(workdir / "t_seed0.ckpt")
        assert next(runs, None) is None
        assert sorted(os.listdir(workdir)) == ["t_seed0.ckpt", "t_seed2.ckpt"]


class TestFloatListFlags:
    @pytest.mark.parametrize("argv, flag, token", [
        (["sweep-scaling", "--fractions", "0.5,abc"], "--fractions", "abc"),
        (["sweep-offsets", "--neg-grid", "0,x1", "--pos-grid", "0"], "--neg-grid", "x1"),
        (["sweep-offsets", "--neg-grid", "0", "--pos-grid", "0.1,, 1e"], "--pos-grid", "1e"),
    ])
    def test_bad_number_is_invalid_input(self, corpus_dir, tmp_path, capsys, argv, flag,
                                         token):
        # a bad token used to escape as ValueError: "runtime failure", exit 2, and
        # the workdir used to be made before the flags were read
        config_path, _ = corpus_dir
        workdir = tmp_path / "w"
        assert main([*argv, "--config", config_path, "--workdir", str(workdir)]) == 1
        err = capsys.readouterr().err
        assert flag in err and repr(token) in err
        assert not workdir.exists()


class TestOffsetsSweep:
    @pytest.mark.parametrize("flag, grids", [
        ("--neg-grid", ["0,nan", "0"]), ("--neg-grid", ["0,inf", "0"]),
        ("--pos-grid", ["0", "0,nan"]), ("--pos-grid", ["0", "inf"]),
    ])
    def test_bad_offset_trains_nothing(self, corpus_dir, tmp_path, capsys, flag, grids):
        # "--neg-grid 0,nan" used to train the (0, 0) cell and write its checkpoint, then exit 1
        config_path, _ = corpus_dir
        workdir = tmp_path / "w"
        assert main(["sweep-offsets", "--config", config_path, "--workdir", str(workdir),
                     "--neg-grid", grids[0], "--pos-grid", grids[1], "--set", "seeds=[0]"]) == 1
        err = capsys.readouterr().err
        assert f"{flag}: offsets must be >= 0 and finite" in err
        assert grids[flag == "--pos-grid"].split(",")[-1] in err
        assert not workdir.exists()

    def test_short_window_cell_trains_nothing(self, corpus_dir, tmp_path, capsys):
        # the 0.2 s cell's 55-sample window takes a jitter of 40: it used to train
        # and write its checkpoint before the (0, 0) cell's 35 samples failed
        config_path, _ = corpus_dir
        workdir = tmp_path / "w"
        assert main(["sweep-offsets", "--config", config_path, "--workdir", str(workdir),
                     "--neg-grid", "0.2,0", "--pos-grid", "0", "--set", "seeds=[0]",
                     "--set", "sampler.jitter_samples=40"]) == 1
        assert capsys.readouterr().err == ("error: sampler.jitter_samples is 40, must be "
                                           "below the window length of 35 samples\n")
        assert not workdir.exists()

    def test_tiny_grid_and_paired_stats(self, corpus_dir, tmp_path_factory):
        config_path, _ = corpus_dir
        workdir = str(tmp_path_factory.mktemp("offsets"))
        assert main([
            "sweep-offsets", "--config", config_path, "--workdir", workdir,
            "--neg-grid", "0,0.1", "--pos-grid", "0", "--set", "seeds=[0]",
            "--set", "evaluation.bootstrap_resamples=100",
            "--set", "evaluation.permutation_draws=200",
        ]) == 0
        payload = read_json_report(os.path.join(workdir, "sweep_report.json"))
        assert len(payload["cells"]) == 2
        assert payload["argmax_cell"] in [c["axis"] for c in payload["cells"]]
        paired = payload["paired_improvement"]
        assert not paired["flagged"]
        assert paired["n_pairs"] == 1

    def test_single_cell_grid_flagged(self, corpus_dir, tmp_path_factory):
        config_path, _ = corpus_dir
        workdir = str(tmp_path_factory.mktemp("offsets1"))
        assert main([
            "sweep-offsets", "--config", config_path, "--workdir", workdir,
            "--neg-grid", "0", "--pos-grid", "0", "--set", "seeds=[0]",
        ]) == 0
        payload = read_json_report(os.path.join(workdir, "sweep_report.json"))
        assert payload["paired_improvement"]["flagged"]

    def test_paired_improvement_known_answer(self):
        # constructed per-seed data with a known paired mean
        cells = {
            (0.0, 0.0): {0: 0.10, 1: 0.20, 2: 0.30},
            (0.0, 0.1): {0: 0.12, 1: 0.23, 2: 0.31},
            (0.1, 0.0): {0: 0.11, 1: 0.19, 2: 0.35},
        }
        deltas = [0.02, 0.03, 0.01, 0.01, -0.01, 0.05]
        result = paired_offset_improvement(cells, n_resamples=400, n_draws=2000, seed=0)
        assert result["mean_delta"] == pytest.approx(np.mean(deltas))
        assert result["n_pairs"] == 6
        assert 0 < result["p_value"] <= 1
        assert result["ci95"][0] <= result["mean_delta"] <= result["ci95"][1]

    def test_sign_flip_pvalue_extremes(self):
        assert sign_flip_pvalue([1.0] * 12, n_draws=2000, seed=0) < 0.01
        assert sign_flip_pvalue([-1.0] * 12, n_draws=2000, seed=0) > 0.99

    @given(values=st.lists(st.floats(-1, 1), min_size=1, max_size=300), count=st.integers(1, 60),
           rows=st.integers(1, 70), seed=st.integers(0, 2**16))
    @settings(max_examples=150, deadline=None)
    def test_block_draws_equal_one_draw_per_call(self, values, count, rows, seed):
        # blocks of `rows` draws, so most counts leave a partial last block
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mx, "_BLOCK_ELEMENTS", rows * len(values))
            assert _bootstrap_mean_ci(values, count, seed) == loop_bootstrap_mean_ci(
                values, count, seed)
            assert sign_flip_pvalue(values, count, seed) == loop_sign_flip_pvalue(
                values, count, seed)

    def test_published_offset_grid_consistency(self):
        # linearity identity: the paired per-seed mean equals the mean of the
        # fully-seeded non-baseline cell means minus the baseline mean
        grid = reference_offset_grid()
        cells = {(c["neg_s"], c["pos_s"]): c for c in grid["cells"]}
        baseline = cells[(0.0, 0.0)]["auprc_mean"]
        others = [
            c["auprc_mean"] for key, c in cells.items()
            if key != (0.0, 0.0) and c["n_seeds"] == 3
        ]
        delta_from_table = np.mean(others) - baseline
        assert delta_from_table == pytest.approx(0.009485, abs=1e-4)
        published = load_reference_tables()["paired_offset_summary"]
        # 3-decimal cell rounding bounds the discrepancy to the published value
        assert abs(delta_from_table - published["mean_paired_delta_auprc"]) < 1e-3
        assert mx.se_from_ci(*published["ci95"]) == pytest.approx(
            published["se"], abs=2e-4
        )
        best = max(cells.items(), key=lambda kv: kv[1]["auprc_mean"])
        assert best[0] == (0.10, 0.30)
        assert best[1]["auprc_mean"] == 0.094


class TestKeywordsSweep:
    def test_auto_selection_most_frequent_per_length(self, micro_corpus):
        sessions, _ = micro_corpus
        keywords = auto_keywords_by_length(sessions)
        counts = {}
        for s in sessions:
            for ev in s.word_events():
                counts[ev.word] = counts.get(ev.word, 0) + 1
        for keyword in keywords:
            same_length = [w for w in counts if len(w) == len(keyword)]
            assert counts[keyword] == max(counts[w] for w in same_length)
        assert [len(k) for k in keywords] == sorted(len(k) for k in keywords)

    def test_lexicon_spearman_negative(self, micro_corpus):
        sessions, _ = micro_corpus
        r, p = lexicon_length_frequency_spearman(sessions)
        assert r < 0

    def test_sweep_command_roster(self, corpus_dir, tmp_path_factory):
        config_path, _ = corpus_dir
        workdir = str(tmp_path_factory.mktemp("kw"))
        assert main([
            "sweep-keywords", "--config", config_path, "--workdir", workdir,
            "--keywords", "ri,absentword", "--set", "seeds=[0]",
        ]) == 0
        payload = read_json_report(os.path.join(workdir, "sweep_report.json"))
        by_keyword = {c["axis"]["keyword"]: c for c in payload["cells"]}
        assert by_keyword["absentword"]["infeasible"]
        cell = by_keyword["ri"]
        for column in ("base_rate", "auprc_mean", "auroc_mean", "accuracy_mean",
                       "best_f1_mean", "pct_delta_over_base_mean"):
            assert column in cell["aggregate"]
        assert "length_log_frequency_spearman" in payload

    def test_sweep_of_infeasible_cells_writes_a_header_only_csv(self, corpus_dir, tmp_path):
        # no cell trains, so nothing but the command itself makes the workdir
        config_path, _ = corpus_dir
        workdir = tmp_path / "w"
        with pytest.warns(UserWarning, match="keyword 'absentword' skipped"):
            assert main(["sweep-keywords", "--config", config_path, "--workdir", str(workdir),
                         "--keywords", "absentword", "--set", "seeds=[0]"]) == 0
        payload = read_json_report(str(workdir / "sweep_report.json"))
        assert [cell["infeasible"] for cell in payload["cells"]] == [True]
        assert (workdir / "sweep.csv").read_text() == (
            "keyword,seed,auprc,auroc,accuracy,best_f1,pct_delta_over_base\n")
        assert sorted(os.listdir(workdir)) == ["sweep.csv", "sweep_report.json"]

    def test_single_keyword_single_row(self, corpus_dir, tmp_path_factory):
        config_path, _ = corpus_dir
        workdir = str(tmp_path_factory.mktemp("kw1"))
        assert main([
            "sweep-keywords", "--config", config_path, "--workdir", workdir,
            "--keywords", "ri", "--set", "seeds=[0]",
        ]) == 0
        payload = read_json_report(os.path.join(workdir, "sweep_report.json"))
        assert len(payload["cells"]) == 1


class TestOperatingPointsCommand:
    def test_fixture_reproduces_snapshot(self, corpus_dir, tmp_path_factory):
        config_path, _ = corpus_dir
        workdir = str(tmp_path_factory.mktemp("op"))
        assert main([
            "operating-points", "--config", config_path, "--workdir", workdir,
            "--fixture",
        ]) == 0
        payload = read_json_report(os.path.join(workdir, "operating_points.json"))
        tables = load_reference_tables()["operating_points"]
        assistive = next(
            s for s in payload["scenarios"] if s["scenario"]["name"] == "assistive"
        )
        rows = assistive["rows"]
        assert rows["fa_at_target_recall"]["mean"] == pytest.approx(
            tables["rows"]["fa_at_target_recall"], abs=1e-3
        )
        budgets = {b["budget"]: b["mean"] for b in rows["recall_at_budgets"]}
        assert budgets[2.0] == pytest.approx(tables["rows"]["recall_at_budget_2.0"], abs=1e-12)
        assert budgets[0.5] == pytest.approx(tables["rows"]["recall_at_budget_0.5"], abs=1e-12)
        assert rows["fp_per_hour"]["mean"] == pytest.approx(16.19, abs=0.01)
        assert os.path.exists(os.path.join(workdir, "recall_vs_fa.csv"))

    def test_lambda_scaling_between_scenarios(self, corpus_dir, tmp_path_factory):
        config_path, _ = corpus_dir
        workdir = str(tmp_path_factory.mktemp("op2"))
        assert main([
            "operating-points", "--config", config_path, "--workdir", workdir,
            "--fixture",
        ]) == 0
        payload = read_json_report(os.path.join(workdir, "operating_points.json"))
        by_name = {s["scenario"]["name"]: s for s in payload["scenarios"]}
        a = by_name["assistive"]["rows"]["fa_at_target_recall"]["per_seed"]
        h = by_name["hands_free"]["rows"]["fa_at_target_recall"]["per_seed"]
        for pa, ph in zip(a, h):
            assert (pa["precision"], pa["recall"]) == (ph["precision"], ph["recall"])
            assert ph["fa_per_hour"] == pytest.approx(5 * pa["fa_per_hour"], rel=1e-12)

    def test_scores_mode_on_trained_output(self, corpus_dir, evaluated_workdir,
                                           tmp_path_factory):
        config_path, _ = corpus_dir
        workdir = str(tmp_path_factory.mktemp("op3"))
        scores = os.path.join(evaluated_workdir, "scores_seed0.csv")
        assert main([
            "operating-points", "--config", config_path, "--workdir", workdir,
            "--scores", scores,
        ]) == 0
        payload = read_json_report(os.path.join(workdir, "operating_points.json"))
        assert payload["source"] == "scores_seed0.csv"  # the file's name, not the path typed
        assert payload["window_s"] > 0
        assistive = next(
            s for s in payload["scenarios"] if s["scenario"]["name"] == "assistive"
        )
        assert "fp_per_hour" in assistive["rows"]

    def test_scores_mode_reads_no_signal_file(self, corpus_dir, trained_workdir,
                                              micro_config_dict, tmp_path):
        # the window length needs only the manifest and the events files: the
        # command used to read and checksum every signal, and failed without them
        _, root = corpus_dir
        shutil.copytree(root, tmp_path / "data")
        config = copy.deepcopy(micro_config_dict)
        config["corpus"]["root"] = str(tmp_path / "data")
        (tmp_path / "c.json").write_text(json.dumps(config))
        rng = np.random.default_rng(5)
        scores = tmp_path / "scores.csv"
        write_scores_csv([ScoreRow("s000", i, int(i % 9 == 0), float(rng.random()))
                          for i in range(200)], str(scores))
        outputs = []
        for name in ("with_signals", "without_signals"):
            assert main(["operating-points", "--config", str(tmp_path / "c.json"),
                         "--workdir", str(tmp_path / name), "--scores", str(scores)]) == 0
            outputs.append([(tmp_path / name / f).read_bytes()
                            for f in ("operating_points.json", "recall_vs_fa.csv")])
            for signal in (tmp_path / "data").glob("*.f32"):
                signal.unlink()
        assert outputs[0] == outputs[1]
        trained = read_json_report(os.path.join(trained_workdir, "train_report.json"))
        assert json.loads(outputs[1][0])["window_s"] == trained["task"]["window_s"]

    @pytest.mark.parametrize("score", ["nan", "inf"])
    def test_non_finite_score_names_the_file_and_line(self, corpus_dir, tmp_path, capsys,
                                                      score):
        # used to exit 1 with "scores must be finite", naming neither the file nor the line
        config_path, _ = corpus_dir
        scores = tmp_path / "scores.csv"
        scores.write_text("session_id,token_index,label,score\n"
                          f"s000,0,1,0.5\ns000,1,0,{score}\ns000,2,0,0.25\n")
        workdir = tmp_path / "w"
        assert main(["operating-points", "--config", config_path, "--workdir", str(workdir),
                     "--scores", str(scores)]) == 1
        assert capsys.readouterr().err == (
            f"error: {scores}: line 3: needs a session id, a 0/1 label and a finite score, "
            f"got ['s000', '1', '0', '{score}']\n")
        assert not workdir.exists()

    def test_window_flag_with_a_corpus_is_invalid_input(self, corpus_dir, evaluated_workdir,
                                                        tmp_path, capsys):
        # the corpus fixes the window, and --window-s used to be dropped unread
        config_path, root = corpus_dir
        workdir = tmp_path / "w"
        assert main(["operating-points", "--config", config_path, "--workdir", str(workdir),
                     "--scores", os.path.join(evaluated_workdir, "scores_seed0.csv"),
                     "--window-s", "2.5"]) == 1
        trained = read_json_report(os.path.join(evaluated_workdir, "train_report.json"))
        assert capsys.readouterr().err == (
            f"error: operating-points: the corpus at {root} fixes the window at "
            f"{trained['task']['window_s']:g} s, so --window-s cannot be given with it\n")
        assert not workdir.exists()

    @pytest.mark.parametrize("flag, extra", [
        ("--scores", ["--scores", "scores_seed0.csv"]),
        ("--window-s", ["--window-s", "1.0"]),
        ("--scores", ["--window-s", "1.0", "--scores", "scores_seed0.csv"]),
    ])
    def test_fixture_with_scores_or_window_is_invalid_input(self, corpus_dir, tmp_path, capsys,
                                                            flag, extra):
        # the bundled curves and window used to win, and the flags were dropped unread
        config_path, _ = corpus_dir
        workdir = tmp_path / "w"
        assert main(["operating-points", "--config", config_path, "--workdir", str(workdir),
                     "--fixture", *extra]) == 1
        assert capsys.readouterr().err == (
            "error: operating-points: --fixture brings its own curves and window, so "
            f"{flag} cannot be given with it\n")
        assert not workdir.exists()

    def test_malformed_scores_is_invalid_input(self, corpus_dir, tmp_path, capsys):
        config_path, _ = corpus_dir
        bad = tmp_path / "bad.csv"
        bad.write_text("session_id,token_index,score\ns000,0,0.5\n")
        assert main([
            "operating-points", "--config", config_path,
            "--workdir", str(tmp_path), "--scores", str(bad),
        ]) == 1
        assert "line 1" in capsys.readouterr().err

    def test_non_utf8_scores_file_is_invalid_input(self, corpus_dir, tmp_path, capsys):
        # used to escape as UnicodeDecodeError: "runtime failure", exit 2
        config_path, _ = corpus_dir
        scores = tmp_path / "scores.csv"
        write_scores_csv([ScoreRow("s003", i, i % 2, 0.1 * i) for i in range(5)], str(scores))
        scores.write_bytes(scores.read_bytes() + b"s\xe903,5,0,0.5\n")
        workdir = tmp_path / "w"
        workdir.mkdir()
        assert main(["operating-points", "--config", config_path, "--workdir", str(workdir),
                     "--scores", str(scores)]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {scores} is not UTF-8 text: 'utf-8' codec can't decode byte 0xe9")
        assert list(workdir.iterdir()) == []

    @pytest.mark.parametrize("window", ["nan", "inf"])
    def test_bad_window_is_invalid_input_and_writes_no_report(self, micro_config_dict,
                                                              tmp_path, capsys, window):
        # with no corpus the coverage comes from --window-s; NaN gave FP/h NaN
        config = copy.deepcopy(micro_config_dict)
        config["corpus"]["root"] = str(tmp_path / "no_corpus")
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        scores = tmp_path / "scores.csv"
        scores.write_text("session_id,token_index,label,score\ns0,0,1,0.9\ns0,1,0,0.2\n")
        workdir = tmp_path / "w"
        assert main(["operating-points", "--config", str(path), "--workdir", str(workdir),
                     "--scores", str(scores), "--window-s", window]) == 1
        assert "error: window_s must be > 0 and finite" in capsys.readouterr().err
        assert not workdir.exists()

    def test_empty_scores_error(self, corpus_dir, tmp_path, capsys):
        config_path, _ = corpus_dir
        empty = tmp_path / "empty.csv"
        empty.write_text("session_id,token_index,label,score\n")
        assert main([
            "operating-points", "--config", config_path,
            "--workdir", str(tmp_path), "--scores", str(empty),
        ]) == 1
        assert f"error: {empty}: scores file contains no rows" in capsys.readouterr().err


class TestReportCommand:
    def test_renders_each_kind(self, evaluated_workdir, capsys):
        eval_report = os.path.join(evaluated_workdir, "evaluation_report.json")
        assert main(["report", "--input", eval_report]) == 0
        out = capsys.readouterr().out
        assert "auprc" in out and "Baseline" in out

    @pytest.mark.parametrize("cut", [
        lambda text: text[: len(text) // 2],
        lambda text: b"not json " + text,
        lambda text: text.replace(b'"seeds"', b'"seeds\xe9"'),
    ], ids=["truncated", "not-json", "not-utf8"])
    def test_undecodable_input_is_invalid_input(self, trained_workdir, tmp_path, capsys, cut):
        # used to escape as JSONDecodeError or UnicodeDecodeError: "runtime failure", exit 2
        text = open(os.path.join(trained_workdir, "train_report.json"), "rb").read()
        path = tmp_path / "report.json"
        path.write_bytes(cut(text))
        assert main(["report", "--input", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path} is not a UTF-8 JSON file\n"
        assert os.listdir(tmp_path) == ["report.json"]

    @pytest.mark.parametrize("payload", [
        {"scenarios": 5}, {"cells": [1]}, {"seed_mean": {}}, {"metrics": [1]},
    ], ids=["scenarios", "cells", "seed_mean", "metrics"])
    def test_wrong_shape_is_invalid_input(self, tmp_path, capsys, payload):
        # each used to escape from its renderer as a TypeError, KeyError or
        # AttributeError: "runtime failure", exit 2
        path = tmp_path / "report.json"
        path.write_text(json.dumps(payload))
        assert main(["report", "--input", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: not a report of the shape its keys name")

    def test_train_report_is_invalid_input_naming_the_kinds(self, trained_workdir, capsys):
        path = os.path.join(trained_workdir, "train_report.json")
        assert main(["report", "--input", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {path}: unrecognized report payload; report renders "
                                "evaluation, operating-points and sweep reports\n")

    def test_lists_inside_dicts_are_rounded(self):
        # the interval used to print at full repr precision beside rounded neighbours
        text = render_sweep_summary({"axis": "temporal_offsets", "cells": [], "paired_improvement": {
            "mean_delta": -0.08177048643801214, "ci95": [-0.19128089936492598, 0.09358446209595517],
            "n_pairs": 6}})
        assert text.splitlines()[-1] == \
            "paired_improvement: {mean_delta: -0.08177, ci95: [-0.1913, 0.09358], n_pairs: 6}"


RUNTIME_ERRORS = {"KwslabError", "DimensionError", "GradientStateError", "TrainingDivergedError"}
ERROR_CLASSES = sorted((c for c in vars(kwslab.errors).values()
                        if isinstance(c, type) and issubclass(c, KwslabError)),
                       key=lambda c: c.__name__)


class TestExitCodes:
    @staticmethod
    def _report_raising(monkeypatch, capsys, exc):
        """Exit code and stderr of `kwslab report` when reading its input raises `exc`."""
        def fail(path):
            raise exc
        monkeypatch.setattr(kwslab.cli, "read_json_report", fail)
        code = main(["report", "--input", "report.json"])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
    def test_each_error_class_keeps_its_exit_code(self, monkeypatch, capsys, cls):
        code, err = self._report_raising(monkeypatch, capsys, cls("boom"))
        if cls.__name__ in RUNTIME_ERRORS:
            assert not issubclass(cls, InvalidInputError)
            assert (code, err) == (2, "runtime failure: boom\n")
        else:
            assert issubclass(cls, InvalidInputError)
            assert code == 1 and err.startswith("error: ") and "boom" in err

    def test_runtime_error_names_exist(self):
        assert RUNTIME_ERRORS <= {cls.__name__ for cls in ERROR_CLASSES}

    @pytest.mark.parametrize("exc, expected", [
        (FileNotFoundError("no such file"), (1, "error: no such file\n")),
        (KeyError("k"), (2, "runtime failure: KeyError: 'k'\n")),
    ], ids=["FileNotFoundError", "KeyError"])
    def test_non_package_errors(self, monkeypatch, capsys, exc, expected):
        assert self._report_raising(monkeypatch, capsys, exc) == expected
