"""Config parsing, metrics, experiment pipelines, CSV artifacts, CLI."""

import argparse
import dataclasses
import os
import pickle
import signal
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maskgen
from maskgen.cli import build_parser
from maskgen.cli import main as cli_main
from maskgen.corpus import document_frequency, generate_corpus, load_corpus, save_corpus, save_frequency_csv
from maskgen.corrector import init_corrector, load_corrector, save_corrector
from maskgen.cpus import cpu_shards, fan_out
from maskgen.errors import ConfigError, NumericsError
from maskgen.harness import (
    _PARSERS,
    ExperimentConfig,
    _corpora,
    ablate_steps,
    build_pipeline,
    compare_masking_modes,
    config_hash,
    decode_all,
    derive_seeds,
    edit_distance,
    evaluate,
    fit_corrector,
    frequency_deciles,
    load_config,
    parse_config,
    run_experiment,
    serialize_config,
    validate_config,
)
from maskgen.predictor import build_conditioning, forward, init_model, load_predictor, save_predictor
from maskgen.schedule import MaskMode, ScheduleConfig
from dataclasses import replace


def tiny_config(**overrides):
    base = dict(
        seed=3, vocab_size=16, num_docs=48, test_docs=12, seq_len=32,
        zipf_exponent=1.2, markov_order=1, n_steps=4, mask_mode="uniform",
        embed_dim=8, radius=1, lr=1.0, epochs=2, batch=8, rho=0.3,
        corrector_dim=6, corrector_epochs=2, corrector_rounds=2,
        ablate_steps=(1, 4), seeds=(5, 6),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_serialize_parse_round_trip(self):
        cfg = tiny_config(mask_mode="ctf", use_corrector=True, theta=0.7)
        assert parse_config(serialize_config(cfg)) == cfg

    def test_unknown_key_rejected(self):
        # the schedule convention key was removed; a config that still sets it is rejected
        for line, key in (("wibble = 2", "wibble"), ("convention = cos", "convention")):
            with pytest.raises(ConfigError, match=f"^{key}: unknown configuration key"):
                parse_config(f"seed = 1\n{line}\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="epochs"):
            parse_config("seed = 1\nepochs = banana\n")

    def test_missing_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config("vocab_size = 8\n")

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# hello\n\nseed = 9\nvocab_size = 8\n")
        assert cfg.seed == 9 and cfg.vocab_size == 8

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.cfg")

    # config-like text: a seed line or none, then lines over every key (and
    # one unknown key) with values that parse or fail to parse
    _config_text = st.tuples(
        st.sampled_from(["", "seed = 3\n"]),
        st.lists(
            st.tuples(
                st.sampled_from([*_PARSERS, "nope"]),
                st.one_of(st.integers(1, 8), st.integers(-2, 120), st.floats(), st.text(max_size=6)).map(str),
            ),
            max_size=4,
        ),
    ).map(lambda parts: (parts[0] + "".join(f"{key} = {value}\n" for key, value in parts[1])).encode())

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(data=st.one_of(st.binary(max_size=64), _config_text, st.tuples(_config_text, st.binary()).map(b"".join)))
    def test_any_file_bytes_give_a_config_or_a_config_error(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "any.cfg")
            with open(path, "wb") as fh:
                fh.write(data)
            try:
                cfg = load_config(path)
            except ConfigError:
                return
        assert isinstance(cfg, ExperimentConfig)
        validate_config(cfg)

    @pytest.mark.parametrize(
        "text,field",
        [
            ("seed = 1\nmask_mode = sideways\n", "mask_mode"),
            ("seed = 1\nrho = 1.5\n", "rho"),
            ("seed = 1\nn_steps = 200\n", "n_steps"),
            ("seed = 1\ntheta = -0.1\n", "theta"),
            ("seed = 1\nbatch = 0\n", "batch"),
            ("seed = 1\nepochs = 0\n", "epochs"),
            ("seed = 1\nnum_docs = 0\n", "num_docs"),
            ("seed = 1\ntest_docs = -3\n", "test_docs"),
            ("seed = 1\nseq_len = 0\nn_steps = 1\n", "seq_len"),
            ("seed = 1\nembed_dim = 0\n", "embed_dim"),
            ("seed = 1\nradius = -1\n", "radius"),
            ("seed = 1\ncorrector_rounds = -1\n", "corrector_rounds"),
            ("seed = 1\nzipf_exponent = -1\n", "zipf_exponent"),
            ("seed = 1\nzipf_exponent = nan\n", "zipf_exponent"),
            ("seed = 1\nmarkov_order = 2\n", "markov_order"),
            ("seed = 1\ncorrector_radius = -1\n", "corrector_radius"),
            ("seed = 1\ncorrector_dim = 0\n", "corrector_dim"),
            ("seed = 1\ncorrector_epochs = 0\n", "corrector_epochs"),
            ("seed = 1\nlr = -5\n", "lr"),
            ("seed = 1\nlr = 0\n", "lr"),
            ("seed = 1\nlr = nan\n", "lr"),
            ("seed = 1\ncorrector_lr = inf\n", "corrector_lr"),
            ("seed = -1\n", "seed"),
            ("seed = 1\nseeds = 3,-2\n", "seeds"),
        ],
    )
    def test_validation_errors_carry_field(self, text, field):
        with pytest.raises(ConfigError, match=field):
            parse_config(text)

    def test_repeated_key_rejected(self):
        with pytest.raises(ConfigError, match="seed: repeated on line 2"):
            parse_config("seed = 1\nseed = 2\n")

    def test_hash_ignores_output_dir(self):
        a = tiny_config(output_dir="runs/a")
        b = tiny_config(output_dir="runs/b")
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(tiny_config(seed=4))


class TestEditDistance:
    def test_identical(self):
        assert edit_distance(np.array([1, 2, 3]), np.array([1, 2, 3])) == 0

    def test_substitution(self):
        assert edit_distance(np.array([1, 2, 3]), np.array([1, 9, 3])) == 1

    def test_shift_is_cheaper_than_hamming(self):
        # one deletion and one insertion beat three substitutions
        assert edit_distance(np.array([1, 2, 3, 4]), np.array([2, 3, 4, 5])) == 2

    def test_empty(self):
        assert edit_distance(np.array([], dtype=np.int64), np.array([1, 2])) == 2

    def test_against_quadratic_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            a = rng.integers(0, 5, size=rng.integers(0, 12))
            b = rng.integers(0, 5, size=rng.integers(0, 12))
            dp = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
            for i in range(len(a) + 1):
                for j in range(len(b) + 1):
                    if i == 0 or j == 0:
                        dp[i][j] = i + j
                    else:
                        dp[i][j] = min(
                            dp[i - 1][j] + 1,
                            dp[i][j - 1] + 1,
                            dp[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
                        )
            assert edit_distance(a, b) == dp[len(a)][len(b)]

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 6), la=st.integers(0, 9), lb=st.integers(0, 9),
        alphabet=st.integers(1, 4), seed=st.integers(0, 2**16),
    )
    def test_batch_equals_pair_calls(self, n, la, lb, alphabet, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, alphabet, size=(n, la))
        b = rng.integers(0, alphabet, size=(n, lb))
        batch = edit_distance(a, b)
        assert batch.shape == (n,)
        pairs = [edit_distance(a[i], b[i]) for i in range(n)]
        assert all(type(p) is int for p in pairs)
        assert batch.tolist() == pairs


class TestFrequencyDeciles:
    def test_partition(self):
        pipe = build_pipeline(tiny_config())
        deciles = frequency_deciles(pipe.freq)
        assert deciles.shape == (16,)
        assert deciles.min() >= 0 and deciles.max() <= 9
        # rarest token sits in decile 0
        rarest = int(np.lexsort((np.arange(16), pipe.freq.doc_freq))[0])
        assert deciles[rarest] == 0

    def test_rank_monotone(self):
        pipe = build_pipeline(tiny_config())
        deciles = frequency_deciles(pipe.freq)
        order = np.lexsort((np.arange(16), pipe.freq.doc_freq))
        assert (np.diff(deciles[order]) >= 0).all()


class TestRunExperiment:
    def test_artifacts_and_format(self, tmp_path):
        cfg = tiny_config(use_corrector=True)
        report = run_experiment(replace(cfg, output_dir=str(tmp_path)))
        for name in ("metrics.csv", "deciles.csv", "decode_trace.csv", "learning_curve.csv", "frequency.csv"):
            lines = (tmp_path / name).read_text().splitlines()
            assert lines[0].startswith("# config_hash="), name
            assert "," in lines[1] or name == "frequency.csv", name
        assert 0.0 <= report.overall_accuracy <= 1.0
        assert 0.0 <= report.exact_match <= 1.0

    def test_byte_identical_reruns(self, tmp_path):
        cfg = tiny_config(use_corrector=True)
        run_experiment(replace(cfg, output_dir=str(tmp_path / "a")))
        run_experiment(replace(cfg, output_dir=str(tmp_path / "b")))
        for name in ("metrics.csv", "deciles.csv", "decode_trace.csv", "learning_curve.csv", "frequency.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name

    def test_csvs_do_not_depend_on_blas_threads(self, tmp_path):
        # Default vocab_size, seq_len and embed_dim with few docs and one
        # epoch, not tiny_config's sizes: each training product is then
        # (96, 96) @ (96, 64) per sequence, large enough that OpenBLAS splits
        # it across threads when it has more than one. Training pins one
        # thread unless OPENBLAS_NUM_THREADS is set, so both runs set it.
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("seed = 101\nnum_docs = 20\ntest_docs = 6\nepochs = 1\n")
        src = Path(maskgen.__file__).resolve().parents[1]
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(src))
            subprocess.run(
                [sys.executable, "-m", "maskgen.cli", "eval", "--config", str(cfg_file),
                 "--output-dir", str(tmp_path / threads)],
                env=env, check=True, capture_output=True, timeout=300,
            )
        for name in ("metrics.csv", "deciles.csv", "decode_trace.csv", "learning_curve.csv", "frequency.csv"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name

    def test_decile_accuracies_aggregate_to_overall(self, tmp_path):
        report = run_experiment(tiny_config(output_dir=str(tmp_path)))
        weighted = sum(
            acc * n for acc, n in zip(report.decile_accuracy, report.decile_counts) if n > 0
        )
        assert weighted / sum(report.decile_counts) == pytest.approx(report.overall_accuracy, abs=1e-12)

    def test_single_step_no_noise_equals_single_shot_argmax(self, tmp_path):
        cfg = tiny_config(n_steps=1, rho=0.0)
        report = run_experiment(replace(cfg, output_dir=str(tmp_path)))
        pipe = build_pipeline(cfg)
        hits = total = 0
        for clean in pipe.test_corpus.tokens:
            ctx = build_conditioning(clean, pipe.model)
            pred = forward(pipe.model, np.full(cfg.seq_len, 16), ctx)
            hits += int((pred.probs.argmax(axis=1) == clean).sum())
            total += cfg.seq_len
        assert report.overall_accuracy == pytest.approx(hits / total, abs=1e-12)


class TestAblateSteps:
    def test_rows_and_csv(self, tmp_path):
        cfg = tiny_config()
        rows = ablate_steps(replace(cfg, ablate_steps=(1, 2, 4), output_dir=str(tmp_path)))
        assert [r[0] for r in rows] == [1, 2, 4]
        lines = (tmp_path / "ablate_steps.csv").read_text().splitlines()
        assert lines[1] == "n_steps,accuracy,edit_distance"
        assert len(lines) == 2 + 3

    def test_single_step_list(self, tmp_path):
        rows = ablate_steps(tiny_config(ablate_steps=(1,), output_dir=str(tmp_path)))
        assert len(rows) == 1

    def test_invalid_steps_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="ablate_steps"):
            ablate_steps(tiny_config(ablate_steps=(0, 4), output_dir=str(tmp_path)))


class TestCompareModes:
    def test_cells_share_corpora(self):
        cfg = tiny_config()
        a = build_pipeline(replace(cfg, mask_mode="uniform"))
        b = build_pipeline(replace(cfg, mask_mode="ctf"))
        assert np.array_equal(a.train_corpus.tokens, b.train_corpus.tokens)
        assert np.array_equal(a.test_corpus.tokens, b.test_corpus.tokens)

    def test_held_out_docs_continue_the_training_generation(self):
        cfg = tiny_config()
        pipe = build_pipeline(cfg)
        seed = derive_seeds(cfg.seed)["train_corpus"]
        longer = generate_corpus(16, cfg.num_docs + cfg.test_docs, 32, 1.2, 1, seed)
        np.testing.assert_array_equal(pipe.train_corpus.tokens, longer.tokens[: cfg.num_docs])
        np.testing.assert_array_equal(pipe.test_corpus.tokens, longer.tokens[cfg.num_docs :])
        # prefix-stable: the training corpus is the one generated alone
        np.testing.assert_array_equal(pipe.train_corpus.tokens, generate_corpus(16, cfg.num_docs, 32, 1.2, 1, seed).tokens)

    def test_four_cells_per_seed(self, tmp_path):
        cfg = tiny_config(seeds=(5,))
        results = compare_masking_modes(replace(cfg, output_dir=str(tmp_path)))
        assert set(results) == {(5, "uniform", False), (5, "uniform", True), (5, "ctf", False), (5, "ctf", True)}
        lines = (tmp_path / "compare_modes.csv").read_text().splitlines()
        assert len(lines) == 2 + 4
        deciles = (tmp_path / "compare_modes_deciles.csv").read_text().splitlines()
        assert len(deciles) == 2 + 4 * 10

    def test_setup_built_once_per_seed(self, tmp_path, monkeypatch):
        import maskgen.harness as harness_mod

        # a training may run in a forked child, whose memory this process
        # cannot read, so every call appends its name to a file
        log = tmp_path / "calls.log"
        names = ("generate_corpus", "train_corrector")

        def counted(name):
            real = getattr(harness_mod, name)

            def wrapper(*args, **kwargs):
                with open(log, "a") as fh:
                    fh.write(f"{name}\n")
                return real(*args, **kwargs)

            return wrapper

        for name in names:
            monkeypatch.setattr(harness_mod, name, counted(name))
        cfg = tiny_config(seeds=(5,))
        results = compare_masking_modes(replace(cfg, output_dir=str(tmp_path / "run")))
        calls = log.read_text().split()
        assert {name: calls.count(name) for name in names} == {"generate_corpus": 1, "train_corrector": 1}
        # the shared set-up gives the cells a pipeline built per mode gives
        for mode in ("uniform", "ctf"):
            cell_cfg = replace(cfg, seed=5, mask_mode=mode)
            pipe = build_pipeline(replace(cell_cfg, use_corrector=True))
            report = evaluate(pipe.model, pipe.test_corpus, pipe.freq, pipe.sched, cell_cfg, pipe.eval_seed,
                              pipe.corrector)
            assert repr(results[(5, mode, True)]) == repr(report)

    def test_both_cells_of_a_mode_come_from_one_decode(self, tmp_path, monkeypatch):
        import maskgen.harness as harness_mod

        calls = []
        real = harness_mod.decode_all

        def counted(*args, **kwargs):
            calls.append(kwargs.get("uncorrected"))
            return real(*args, **kwargs)

        monkeypatch.setattr(harness_mod, "decode_all", counted)
        cfg = tiny_config(seeds=(5,), theta=0.05)  # a corrector that changes tokens
        results = compare_masking_modes(replace(cfg, output_dir=str(tmp_path)))
        assert calls == [True, True]  # one decode per model
        monkeypatch.setattr(harness_mod, "decode_all", real)
        for mode in ("uniform", "ctf"):
            pipe = build_pipeline(replace(cfg, seed=5, mask_mode=mode, use_corrector=True))
            args = (pipe.model, pipe.test_corpus, pipe.freq, pipe.sched, cfg, pipe.eval_seed)
            off, on = evaluate(*args), evaluate(*args, pipe.corrector)
            assert repr(results[(5, mode, False)]) == repr(off)
            assert repr(results[(5, mode, True)]) == repr(on)
            assert repr(on.uncorrected) == repr(off) and off.uncorrected is None
            assert off.overall_accuracy != on.overall_accuracy

    def test_identity_corrector_never_changes_metrics(self, tmp_path):
        # theta=1 flags nothing, so corrector-on cells equal corrector-off
        results = compare_masking_modes(tiny_config(seeds=(5,), theta=1.0, output_dir=str(tmp_path)))
        for mode in ("uniform", "ctf"):
            off, on = results[(5, mode, False)], results[(5, mode, True)]
            assert on.overall_accuracy == off.overall_accuracy
            assert on.exact_match == off.exact_match
            assert on.mean_edit_distance == off.mean_edit_distance


class TestCli:
    def test_gen_corpus_and_decode_round_trip(self, tmp_path):
        corpus_path = tmp_path / "obs.txt"
        freq_path = tmp_path / "freq.csv"
        rc = cli_main([
            "gen-corpus", "--vocab-size", "12", "--num-docs", "6", "--seq-len", "16",
            "--zipf-exponent", "1.0", "--markov-order", "1", "--seed", "4",
            "--out", str(corpus_path), "--freq-csv", str(freq_path),
        ])
        assert rc == 0
        assert load_corpus(corpus_path).num_docs == 6

        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(
            "seed = 3\nvocab_size = 12\nnum_docs = 24\ntest_docs = 6\nseq_len = 16\n"
            "n_steps = 4\nembed_dim = 6\nradius = 1\nepochs = 1\nbatch = 8\n"
            f"output_dir = {tmp_path / 'run'}\n"
        )
        model_path = tmp_path / "model.bin"
        assert cli_main(["train", "--config", str(cfg_path), "--model-out", str(model_path)]) == 0
        assert load_predictor(model_path).vocab_size == 12

        out_path = tmp_path / "decoded.txt"
        rc = cli_main([
            "decode", "--model", str(model_path), "--input", str(corpus_path),
            "--out", str(out_path), "--n-steps", "4",
            "--trace", str(tmp_path / "trace.csv"),
        ])
        assert rc == 0
        decoded = load_corpus(out_path)
        assert decoded.tokens.shape == (6, 16)
        assert (tmp_path / "trace.csv").read_text().splitlines()[0] == "step,open_count,mean_confidence"

    def test_sample_selection_requires_seed(self, tmp_path):
        corpus_path = tmp_path / "obs.txt"
        cli_main([
            "gen-corpus", "--vocab-size", "8", "--num-docs", "2", "--seq-len", "8",
            "--seed", "1", "--out", str(corpus_path),
        ])
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(
            "seed = 2\nvocab_size = 8\nnum_docs = 8\ntest_docs = 2\nseq_len = 8\n"
            "n_steps = 2\nembed_dim = 4\nradius = 1\nepochs = 1\nbatch = 4\n"
            f"output_dir = {tmp_path / 'run'}\n"
        )
        model_path = tmp_path / "model.bin"
        cli_main(["train", "--config", str(cfg_path), "--model-out", str(model_path)])
        rc = cli_main([
            "decode", "--model", str(model_path), "--input", str(corpus_path),
            "--out", str(tmp_path / "d.txt"), "--n-steps", "2", "--temperature", "0.8",
        ])
        assert rc == 2

    def test_eval_subcommand(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(
            "seed = 5\nvocab_size = 12\nnum_docs = 24\ntest_docs = 6\nseq_len = 16\n"
            "n_steps = 4\nembed_dim = 6\nradius = 1\nepochs = 1\nbatch = 8\n"
            f"output_dir = {tmp_path / 'out'}\n"
        )
        assert cli_main(["eval", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "out" / "metrics.csv").exists()

    @staticmethod
    def csv_rows(path):
        """The rows of a CSV ``harness`` wrote, after its comment and header."""
        return [line.split(",") for line in path.read_text().splitlines()[2:]]

    def test_train_corrector_subcommand(self, tmp_path, capsys):
        cfg = tiny_config(output_dir=str(tmp_path / "run"))
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(serialize_config(cfg))
        assert cli_main(["train-corrector", "--config", str(cfg_path)]) == 0
        model, history = fit_corrector(cfg, _corpora(cfg)[0])
        path = tmp_path / "run" / "corrector.bin"
        saved = load_corrector(path)
        assert saved.embedding.tobytes() == model.embedding.tobytes() and saved.w.tobytes() == model.w.tobytes()
        assert (saved.b, saved.radius) == (model.b, model.radius)
        assert capsys.readouterr().out.splitlines() == [
            f"trained corrector -> {path} (loss/position {history[-1].loss_per_position:.4f})"
        ]

    def test_ablate_steps_subcommand(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(serialize_config(tiny_config(output_dir=str(tmp_path / "run"))))
        assert cli_main(["ablate-steps", "--config", str(cfg_path)]) == 0
        rows = self.csv_rows(tmp_path / "run" / "ablate_steps.csv")
        assert [int(n) for n, _, _ in rows] == [1, 4]
        assert capsys.readouterr().out.splitlines() == [
            f"n_steps {int(n):4d}  accuracy {float(acc):.4f}  edit_distance {float(edit):.3f}" for n, acc, edit in rows
        ]

    def test_compare_modes_subcommand(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(serialize_config(tiny_config(seeds=(5, 6), output_dir=str(tmp_path / "run"))))
        assert cli_main(["compare-modes", "--config", str(cfg_path)]) == 0
        rows = self.csv_rows(tmp_path / "run" / "compare_modes.csv")
        assert len(self.csv_rows(tmp_path / "run" / "compare_modes_deciles.csv")) == 10 * len(rows) == 80
        cells = sorted((int(seed), mode, int(corr), float(acc), float(bottom))
                       for seed, mode, corr, acc, _, _, bottom, _ in rows)
        assert [cell[:3] for cell in cells] == [(s, m, c) for s in (5, 6) for m in ("ctf", "uniform") for c in (0, 1)]
        assert capsys.readouterr().out.splitlines() == [
            f"seed {seed}  {mode + '+corrector' if corr else mode:18s} overall {acc:.4f}  bottom-decile {bottom:.4f}"
            for seed, mode, corr, acc, bottom in cells
        ]

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        for line, key in (("mask_mode = nope", "mask_mode"), ("convention = cos", "convention")):
            bad.write_text(f"seed = 1\n{line}\n")
            assert cli_main(["eval", "--config", str(bad)]) == 2
            assert capsys.readouterr().err.startswith(f"config error: {key}:")

    @pytest.mark.parametrize("command", [
        ["decode", "--model", "m.bin", "--input", "obs.txt", "--out", "out.txt"],
        ["dump-schedule", "--n-steps", "4", "--seq-len", "10", "--out", "sched.csv"],
        ["eval", "--seed", "1"],
    ], ids=lambda argv: argv[0])
    def test_removed_convention_flag_is_usage_error(self, tmp_path, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli_main(command + ["--convention", "cos"])
        assert exc.value.code == 2
        assert not any(tmp_path.iterdir())

    def test_removed_selection_flag_is_usage_error(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli_main(["decode", "--model", "m.bin", "--input", "obs.txt", "--out", "out.txt", "--selection", "sample"])
        assert exc.value.code == 2
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("flags", [["--steps", "2,10"]], ids=["removed"])
    def test_ablate_steps_usage_errors(self, tmp_path, monkeypatch, flags):
        # the step counts come only from the config key, whose flag parses
        # them (a malformed value is a config error: CONFIG_VALUE_EXIT_CODES)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli_main(["ablate-steps", "--seed", "1", *flags])
        assert exc.value.code == 2
        assert not any(tmp_path.iterdir())

    def test_dump_schedule(self, tmp_path):
        out = tmp_path / "sched.csv"
        assert cli_main(["dump-schedule", "--n-steps", "4", "--seq-len", "10", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# n_steps=4 seq_len=10"
        assert lines[1] == "step,expected_masked"
        assert lines[2] == "0,10.0"
        assert len(lines) == 7


@pytest.fixture(scope="module")
def decode_inputs(tmp_path_factory):
    """Untrained 16-token checkpoints, 16- and 32-token observation files
    of length 20, their frequency tables, and malformed copies of the
    16-token checkpoint, observations and table."""
    d = tmp_path_factory.mktemp("decode_inputs")
    rng = np.random.default_rng(0)
    obs = generate_corpus(16, 4, 20, 1.2, 1, seed=1)
    save_corpus(obs, d / "obs.txt")
    (d / "obs_trailing.txt").write_text((d / "obs.txt").read_text() + "1 2 3 4 5\ngarbage\n")
    save_frequency_csv(document_frequency(obs), d / "freq.csv")
    obs32 = generate_corpus(32, 4, 20, 1.2, 1, seed=1)
    save_corpus(obs32, d / "obs32.txt")
    save_frequency_csv(document_frequency(obs32), d / "freq32.csv")
    lines = (d / "freq.csv").read_text().splitlines()  # "# num_docs=4", header, token 0, ...
    for name, i, line in [
        ("freq_negative", 2, "0,-1,0.0,0.5"),
        ("freq_above_num_docs", 2, "0,5,0.0,0.5"),
        ("freq_no_docs", 0, "# num_docs=0"),
        ("freq_short_row", 2, "0"),
    ]:
        (d / f"{name}.csv").write_text("\n".join(lines[:i] + [line] + lines[i + 1 :]) + "\n")
    (d / "freq_out_of_order.csv").write_text("\n".join(lines[:2] + [lines[3], lines[2]] + lines[4:]) + "\n")
    (d / "freq_no_num_docs.csv").write_text("\n".join(lines[1:]) + "\n")
    rows = (d / "obs.txt").read_text().splitlines()  # header, sequence 0, ...
    (d / "obs_short_row.txt").write_text("\n".join([rows[0], rows[1].rsplit(" ", 1)[0], *rows[2:]]) + "\n")
    # headers promising 10^12 rows: of the 4 the file holds, and of length 0
    # (an empty line each) in a file of none; and a file of no rows at all
    (d / "obs_huge_header.txt").write_text("\n".join(["16 20 1000000000000 1", *rows[1:]]) + "\n")
    (d / "obs_huge_header_empty_rows.txt").write_text("16 0 1000000000000 1\n")
    (d / "obs_empty.txt").write_text("16 20 0 1\n")
    model = init_model(16, 4, 1, rng)
    save_predictor(model, d / "model.bin")
    model.out_w[0, 0] = np.nan
    save_predictor(model, d / "nan.bin")
    save_corrector(init_corrector(16, 4, 1, rng), d / "corr.bin")
    save_corrector(init_corrector(32, 4, 1, rng), d / "corr32.bin")
    whole = (d / "model.bin").read_bytes()
    (d / "short.bin").write_bytes(whole[: len(whole) // 2])
    (d / "header.bin").write_bytes(whole[:12])
    (d / "long.bin").write_bytes(whole + b"\x00" * 14)
    (d / "version2.bin").write_bytes(whole[:8] + (2).to_bytes(4, "little") + whole[12:])  # magic, version, ...
    (d / "corr_long.bin").write_bytes((d / "corr.bin").read_bytes() + b"\x00" * 8)
    return d


DECODE_EXIT_CODES = {
    "ok": ([], 0),
    "n_steps_above_seq_len": (["--n-steps", "50"], 2),
    "n_steps_zero": (["--n-steps", "0"], 2),
    "missing_input": (["--input", "{d}/missing.txt"], 2),
    "missing_model": (["--model", "{d}/missing.bin"], 2),
    "missing_freq_csv": (["--mask-mode", "ctf", "--freq-csv", "{d}/missing.csv"], 2),
    "missing_corrector": (["--corrector", "{d}/missing.bin"], 2),
    "truncated_checkpoint": (["--model", "{d}/short.bin"], 2),
    "truncated_header": (["--model", "{d}/header.bin"], 2),
    "trailing_bytes": (["--model", "{d}/long.bin"], 2),
    "corrector_trailing_bytes": (["--corrector", "{d}/corr_long.bin"], 2),
    "wrong_magic": (["--model", "{d}/corr.bin"], 2),
    "freq_csv_vocab_mismatch": (["--mask-mode", "ctf", "--freq-csv", "{d}/freq32.csv"], 2),
    "freq_csv_negative_count": (["--mask-mode", "ctf", "--freq-csv", "{d}/freq_negative.csv"], 2),
    "freq_csv_count_above_num_docs": (["--mask-mode", "ctf", "--freq-csv", "{d}/freq_above_num_docs.csv"], 2),
    "freq_csv_num_docs_zero": (["--mask-mode", "ctf", "--freq-csv", "{d}/freq_no_docs.csv"], 2),
    "freq_csv_short_row": (["--mask-mode", "ctf", "--freq-csv", "{d}/freq_short_row.csv"], 2),
    "freq_csv_out_of_order": (["--mask-mode", "ctf", "--freq-csv", "{d}/freq_out_of_order.csv"], 2),
    "freq_csv_without_num_docs": (["--mask-mode", "ctf", "--freq-csv", "{d}/freq_no_num_docs.csv"], 2),
    "ctf_without_freq_csv": (["--mask-mode", "ctf"], 2),
    "checkpoint_version_2": (["--model", "{d}/version2.bin"], 2),
    "input_short_row": (["--input", "{d}/obs_short_row.txt"], 2),
    "input_vocab_mismatch": (["--input", "{d}/obs32.txt"], 2),
    "corrector_vocab_mismatch": (["--corrector", "{d}/corr32.bin"], 2),
    "sampled": (["--temperature", "0.8", "--seed", "3"], 0),
    "negative_temperature": (["--temperature", "-1"], 2),
    "nan_temperature": (["--temperature", "nan", "--seed", "3"], 2),
    "temperature_without_seed": (["--temperature", "0.8"], 2),
    "negative_seed": (["--seed", "-1"], 2),
    "input_trailing_lines": (["--input", "{d}/obs_trailing.txt"], 2),
    "input_header_above_its_rows": (["--input", "{d}/obs_huge_header.txt"], 2),
    "input_header_above_its_empty_rows": (["--input", "{d}/obs_huge_header_empty_rows.txt"], 2),
    "input_without_documents": (["--input", "{d}/obs_empty.txt"], 0),
    "negative_rounds": (["--corrector", "{d}/corr.bin", "--rounds", "-1"], 2),
    "trace_under_a_file": (["--trace", "{d}/model.bin/trace.csv"], 2),
    "out_under_a_file": (["--out", "{d}/model.bin/out.txt"], 2),
    "theta_above_one": (["--corrector", "{d}/corr.bin", "--theta", "1.5"], 2),
    "unknown_mask_mode": (["--mask-mode", "nope"], 2),
    "nan_model": (["--model", "{d}/nan.bin"], 3),
}


def must_not_run(*args, **kwargs):
    raise AssertionError("did the work before the arguments were checked")


@pytest.mark.parametrize("flags,code", list(DECODE_EXIT_CODES.values()), ids=list(DECODE_EXIT_CODES))
def test_decode_exit_codes(decode_inputs, tmp_path, capsys, monkeypatch, flags, code):
    import maskgen.harness as harness_mod

    if code == 2:  # every rejection comes before decoding
        monkeypatch.setattr(harness_mod, "decode_all", must_not_run)
    d = decode_inputs
    argv = {"--model": f"{d}/model.bin", "--input": f"{d}/obs.txt", "--n-steps": "4"}
    extra = []
    for flag, value in zip(flags[::2], flags[1::2]):
        if flag in argv:
            argv[flag] = value.format(d=d)
        else:
            extra += [flag, value.format(d=d)]
    args = [x for kv in argv.items() for x in kv] + extra
    assert cli_main(["decode", "--out", str(tmp_path / "out.txt"), *args]) == code
    err = capsys.readouterr().err.strip().splitlines()
    if code == 2:
        assert len(err) == 1 and err[0].startswith("config error"), err
    elif code == 3:
        assert len(err) == 1 and err[0].startswith("numeric failure"), err


@pytest.mark.parametrize("name,missing", [("obs_huge_header", 4), ("obs_huge_header_empty_rows", 0)])
def test_an_input_header_above_its_rows_fails_at_the_first_missing_row(decode_inputs, tmp_path, capsys, name, missing):
    d = decode_inputs
    argv = ["decode", "--model", f"{d}/model.bin", "--input", f"{d}/{name}.txt", "--out", str(tmp_path / "out.txt")]
    assert cli_main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error: input: "), err
    assert err[0].endswith(f"the file ends before sequence {missing} of 1000000000000"), err


def test_an_input_without_documents_decodes_to_an_empty_output(decode_inputs, tmp_path):
    d = decode_inputs
    argv = ["decode", "--model", f"{d}/model.bin", "--input", f"{d}/obs_empty.txt", "--out", str(tmp_path / "out.txt"),
            "--n-steps", "4", "--trace", str(tmp_path / "trace.csv")]
    assert cli_main(argv) == 0
    assert (tmp_path / "out.txt").read_text() == "16 20 0 0\n"
    assert (tmp_path / "trace.csv").read_text() == "step,open_count,mean_confidence\n"


GEN_CORPUS = ["gen-corpus", "--seed", "1", "--out", "{tmp}/corpus.txt"]
DUMP_SCHEDULE = ["dump-schedule", "--out", "{tmp}/schedule.csv"]
DECODE = ["decode", "--model", "{tmp}/model.bin", "--input", "{tmp}/obs.txt", "--out", "{tmp}/out.txt"]
CONFIG_VALUE_EXIT_CODES = {
    "eval_zipf_exponent": ("zipf_exponent", ["eval", "--zipf-exponent", "-1"]),
    "eval_markov_order": ("markov_order", ["eval", "--markov-order", "2"]),
    "eval_corrector_radius": ("corrector_radius", ["eval", "--corrector-radius", "-1", "--use-corrector", "true"]),
    "eval_corrector_dim": ("corrector_dim", ["eval", "--corrector-dim", "0"]),
    "train_corrector_epochs": ("corrector_epochs", ["train-corrector", "--corrector-epochs", "-1"]),
    "eval_lr_negative": ("lr", ["eval", "--lr", "-5"]),
    "eval_lr_nan": ("lr", ["eval", "--lr", "nan"]),
    "eval_corrector_lr_inf": ("corrector_lr", ["eval", "--corrector-lr", "inf"]),
    "eval_seed": ("seed", ["eval", "--seed", "-1"]),
    "compare_modes_seeds": ("seeds", ["compare-modes", "--seeds", "4,-1"]),
    "compare_modes_repeated_seeds": ("seeds", ["compare-modes", "--seeds", "5,5"]),
    "gen_corpus_vocab_size": ("vocab_size", GEN_CORPUS + ["--vocab-size", "1", "--num-docs", "2", "--seq-len", "4"]),
    "gen_corpus_num_docs": ("num_docs", GEN_CORPUS + ["--vocab-size", "4", "--num-docs", "0", "--seq-len", "4"]),
    "gen_corpus_seed": (
        "seed",
        GEN_CORPUS + ["--vocab-size", "4", "--num-docs", "2", "--seq-len", "4", "--seed", "-1"],
    ),
    "gen_corpus_zipf_exponent": (
        "zipf_exponent",
        GEN_CORPUS + ["--vocab-size", "4", "--num-docs", "2", "--seq-len", "4", "--zipf-exponent", "-1"],
    ),
    "gen_corpus_markov_order": (
        "markov_order",
        GEN_CORPUS + ["--vocab-size", "4", "--num-docs", "2", "--seq-len", "4", "--markov-order", "2"],
    ),
    "dump_schedule_n_steps": ("n_steps", DUMP_SCHEDULE + ["--n-steps", "0", "--seq-len", "4"]),
    "dump_schedule_seq_len": ("seq_len", DUMP_SCHEDULE + ["--n-steps", "2", "--seq-len", "0"]),
    "decode_mask_mode": ("mask_mode", DECODE + ["--mask-mode", "nope"]),
    "decode_rounds": ("corrector_rounds", DECODE + ["--rounds", "-1"]),
    # a value the key's parser rejects
    "eval_use_corrector_unparseable": ("use_corrector", ["eval", "--use-corrector", "maybe"]),
    "decode_theta_unparseable": ("theta", DECODE + ["--theta", "abc"]),
    "ablate_steps_malformed": ("ablate_steps", ["ablate-steps", "--seed", "1", "--output-dir", "{tmp}/run",
                                                "--ablate-steps", "2,x"]),
}


@pytest.mark.parametrize("field,argv", list(CONFIG_VALUE_EXIT_CODES.values()), ids=list(CONFIG_VALUE_EXIT_CODES))
def test_config_value_exit_codes(tmp_path, capsys, field, argv):
    argv = [a.format(tmp=tmp_path) for a in argv]
    if argv[0] in ("eval", "train-corrector", "compare-modes"):
        argv += ["--output-dir", str(tmp_path / "run")] + ([] if "--seed" in argv else ["--seed", "1"])
    assert cli_main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: {field}:"), err
    assert not any(tmp_path.iterdir())  # rejected before anything is written


@pytest.mark.parametrize("argv,line", [
    (["eval", "--seed", "1", "--use-corrector", "maybe"], "use_corrector = maybe"),
    (["eval", "--seed", "1", "--theta", "abc"], "theta = abc"),
    (["compare-modes", "--seed", "1", "--seeds", "5,x"], "seeds = 5,x"),
], ids=["bool", "float", "int_tuple"])
def test_an_unparseable_flag_reads_as_in_a_config_file(tmp_path, capsys, argv, line):
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"seed = 1\n{line}\n")
    assert cli_main(argv + ["--output-dir", str(tmp_path / "run")]) == 2
    from_flag = capsys.readouterr().err
    assert cli_main([argv[0], "--config", str(bad), "--output-dir", str(tmp_path / "run")]) == 2
    assert from_flag == capsys.readouterr().err
    assert from_flag.startswith(f"config error: {line.split()[0]}: cannot parse ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.cfg"]


def test_every_config_key_flag_follows_the_config_schema():
    """A flag that sets a config key parses it with the key's config parser
    and has no argparse ``choices`` (``check_value`` holds the rules). Outside
    the subcommands that read a whole config, it defaults to the key's
    ``ExperimentConfig`` default (``seed`` has none) or is required."""
    config_commands = {"train", "train-corrector", "eval", "ablate-steps", "compare-modes"}
    defaults = {f.name: f.default for f in dataclasses.fields(ExperimentConfig) if f.default is not dataclasses.MISSING}
    subcommands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    taken = {}
    for name, sub in subcommands.items():
        flags = [a for a in sub._actions if a.dest in _PARSERS]
        taken[name] = {a.dest for a in flags}
        for action in flags:
            assert action.type is _PARSERS[action.dest] and action.choices is None, (name, action.option_strings)
            expected = None if name in config_commands else defaults.get(action.dest)
            assert action.required or action.default == expected, (name, action.option_strings, action.default)
    assert all(taken[name] == set(_PARSERS) for name in config_commands)
    assert taken["gen-corpus"] == {"vocab_size", "num_docs", "seq_len", "zipf_exponent", "markov_order", "seed"}
    assert taken["decode"] == {"n_steps", "mask_mode", "theta", "corrector_rounds", "seed"}
    assert taken["dump-schedule"] == {"n_steps", "seq_len"}


# {file} is a regular file whose bytes are not UTF-8 and {dir} a directory,
# both made before the run
PATH_EXIT_CODES = {
    "eval_output_dir_is_a_file": ["eval", "--seed", "1", "--output-dir", "{file}"],
    "eval_output_dir_under_a_file": ["eval", "--seed", "1", "--output-dir", "{file}/sub"],
    "eval_config_is_a_directory": ["eval", "--config", "{dir}"],
    "eval_config_is_not_utf8": ["eval", "--config", "{file}"],
    "train_model_out_under_a_file": ["train", "--seed", "1", "--output-dir", "{dir}/run", "--model-out", "{file}/m.bin"],
    "train_corrector_model_out_under_a_file": [
        "train-corrector", "--seed", "1", "--output-dir", "{dir}/run", "--model-out", "{file}/c.bin",
    ],
    "gen_corpus_out_under_a_file": [
        "gen-corpus", "--vocab-size", "4", "--num-docs", "2", "--seq-len", "4", "--seed", "1", "--out", "{file}/x.txt",
    ],
    "gen_corpus_freq_csv_under_a_file": [
        "gen-corpus", "--vocab-size", "4", "--num-docs", "2", "--seq-len", "4", "--seed", "1", "--out", "{dir}/x.txt",
        "--freq-csv", "{file}/f.csv",
    ],
    "gen_corpus_out_is_a_directory": [
        "gen-corpus", "--vocab-size", "4", "--num-docs", "2", "--seq-len", "4", "--seed", "1", "--out", "{dir}",
    ],
    "dump_schedule_out_under_a_file": ["dump-schedule", "--n-steps", "2", "--seq-len", "4", "--out", "{file}/s.csv"],
}


@pytest.mark.parametrize("argv", list(PATH_EXIT_CODES.values()), ids=list(PATH_EXIT_CODES))
def test_unusable_path_exit_codes(tmp_path, capsys, monkeypatch, argv):
    import maskgen.corpus as corpus_mod
    import maskgen.harness as harness_mod

    for module, name in ((harness_mod, "train"), (harness_mod, "train_corrector"), (harness_mod, "generate_corpus"),
                         (corpus_mod, "generate_corpus")):
        monkeypatch.setattr(module, name, must_not_run)
    (tmp_path / "file").write_bytes(b"seed = 1\n# not a directory \xff\n")
    (tmp_path / "dir").mkdir()
    argv = [a.format(file=tmp_path / "file", dir=tmp_path / "dir") for a in argv]
    assert cli_main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error: "), err
    assert str(tmp_path) in err[0]  # names the path
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == [tmp_path / "file"]


class TestFanOut:
    """``decode_all`` spreads its rows, and ``train_cells`` its trainings,
    over the CPUs of the affinity mask, one forked process per shard; the
    output must not depend on how many."""

    @pytest.fixture(autouse=True)
    def deadline(self):
        """Fail, not hang, when a wait on a child never returns."""

        def expire(signum, frame):
            raise TimeoutError("decode_all did not return within 60 s")

        before = signal.signal(signal.SIGALRM, expire)
        signal.alarm(60)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, before)

    @staticmethod
    def cpus(monkeypatch, k):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))

    @pytest.fixture(scope="class")
    def inputs(self):
        rng = np.random.default_rng(7)
        obs = generate_corpus(16, 5, 20, 1.2, 1, seed=2)
        return (init_model(16, 4, 1, rng), init_corrector(16, 4, 1, rng), obs.tokens, document_frequency(obs))

    @staticmethod
    def decode(inputs, n, temperature=0.0, use_corrector=False):
        model, corrector, tokens, freq = inputs
        sched = ScheduleConfig(n_steps=4, mode=MaskMode.CTF)
        rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(3).spawn(n)]
        return decode_all(
            model, tokens[:n], sched, freq, corrector if use_corrector else None, 0.5, 2,
            refill=sched, temperature=temperature, rngs=rngs,
        )

    @pytest.mark.parametrize("temperature", [0.0, 0.8], ids=["greedy", "sampled"])
    @pytest.mark.parametrize("use_corrector", [False, True], ids=["plain", "corrector_full_refill"])
    def test_bytes_do_not_depend_on_the_cpu_count(self, inputs, monkeypatch, temperature, use_corrector):
        for n in (0, 1, 2, 5):
            self.cpus(monkeypatch, 1)
            decoded, traces = self.decode(inputs, n, temperature, use_corrector)
            assert decoded.shape == (n, 20) and traces.shape == (n, 4, 2)
            for k in (2, 3):
                self.cpus(monkeypatch, k)
                other = self.decode(inputs, n, temperature, use_corrector)
                for mine, theirs in zip((decoded, traces), other):
                    assert mine.dtype == theirs.dtype and mine.shape == theirs.shape, (n, k)
                    assert mine.tobytes() == theirs.tobytes(), (n, k)

    @pytest.mark.parametrize("temperature", [0.0, 0.8], ids=["greedy", "sampled"])
    def test_bytes_do_not_depend_on_the_block_size(self, inputs, monkeypatch, temperature):
        import maskgen.harness as harness_mod

        self.cpus(monkeypatch, 1)
        whole = self.decode(inputs, 5, temperature, use_corrector=True)  # one block of 5 rows
        for block in (1, 2, 3):
            monkeypatch.setattr(harness_mod, "DECODE_BLOCK", block)
            for mine, theirs in zip(whole, self.decode(inputs, 5, temperature, use_corrector=True), strict=True):
                assert mine.shape == theirs.shape and mine.tobytes() == theirs.tobytes(), block

    def test_a_block_is_prioritized_and_corrected_in_one_call_each(self, monkeypatch):
        import maskgen.harness as harness_mod

        self.cpus(monkeypatch, 1)  # every block here, where the spies see it
        shapes = {"correct": [], "sequence_base_probabilities": []}

        def spying(name, arg):  # records the shape of argument ``arg`` of each call
            real = getattr(harness_mod, name)

            def spy(*args, **kwargs):
                shapes[name].append(np.shape(args[arg]))
                return real(*args, **kwargs)

            return spy

        monkeypatch.setattr(harness_mod, "correct", spying("correct", 0))
        monkeypatch.setattr(harness_mod, "sequence_base_probabilities", spying("sequence_base_probabilities", 1))
        rng = np.random.default_rng(8)
        obs = generate_corpus(16, 20, 12, 1.2, 1, seed=4)
        sched = ScheduleConfig(n_steps=4, mode=MaskMode.CTF)
        decode_all(init_model(16, 4, 1, rng), obs.tokens, sched, document_frequency(obs), init_corrector(16, 4, 1, rng),
                   0.5, 2, refill=None, temperature=0.0, rngs=[None] * 20)
        blocks = [(8, 12), (8, 12), (4, 12)]
        assert shapes == {"correct": blocks, "sequence_base_probabilities": blocks}

    def test_the_working_set_does_not_grow_with_the_rows(self, monkeypatch):
        # decode_all hands decode blocks of DECODE_BLOCK rows, so on one CPU
        # the memory it needs beyond the arrays it returns is that of one
        # block, whatever the number of rows (default V, T and dim; CTF at
        # 40 steps, as the benchmark decodes)
        import tracemalloc

        self.cpus(monkeypatch, 1)
        corpus = generate_corpus(64, 480, 96, 1.2, 1, seed=5)
        freq = document_frequency(corpus)
        model = init_model(64, 32, 1, np.random.default_rng(0))
        sched = ScheduleConfig(n_steps=40, mode=MaskMode.CTF)
        working = {}
        for n in (48, 480):
            tracemalloc.start()
            try:
                outputs = decode_all(model, corpus.tokens[:n], sched, freq, None, 0.5, 2, None, 0.0, [None] * n)
                working[n] = tracemalloc.get_traced_memory()[1] - sum(a.nbytes for a in outputs)
            finally:
                tracemalloc.stop()
        assert working[480] <= 1.1 * working[48], working

    @staticmethod
    def fail_in(monkeypatch, where, fail, name="decode"):
        """Make ``harness``'s ``decode`` (or ``name``) call ``fail()`` in the
        parent or in the children."""
        import maskgen.harness as harness_mod

        parent, real = os.getpid(), getattr(harness_mod, name)

        def failing(*args, **kwargs):
            if (os.getpid() == parent) == (where == "parent"):
                fail()
            return real(*args, **kwargs)

        monkeypatch.setattr(harness_mod, name, failing)

    @staticmethod
    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def numerics_error():
        raise NumericsError("non-finite logits in shard")

    def test_a_child_error_reaches_the_parent(self, inputs, monkeypatch):
        self.cpus(monkeypatch, 3)
        self.fail_in(monkeypatch, "children", self.numerics_error)
        with pytest.raises(NumericsError, match="^non-finite logits in shard$"):
            self.decode(inputs, 5)
        self.assert_no_child_left()

    def test_cli_decode_keeps_no_uncorrected_rows(self, decode_inputs, tmp_path, monkeypatch):
        import maskgen.harness as harness_mod

        self.cpus(monkeypatch, 1)  # every shard here, where the spy sees it
        shapes = []
        real = harness_mod.decode_all

        def spy(*args, **kwargs):
            parts = real(*args, **kwargs)
            shapes.append([part.shape for part in parts])
            return parts

        monkeypatch.setattr(harness_mod, "decode_all", spy)
        d = decode_inputs
        argv = ["decode", "--model", f"{d}/model.bin", "--input", f"{d}/obs.txt", "--out", str(tmp_path / "out.txt"),
                "--corrector", f"{d}/corr.bin", "--n-steps", "4"]
        assert cli_main(argv) == 0
        assert shapes == [[(4, 20), (4, 4, 2)]]  # the decoded rows and the traces, nothing more

    def test_a_child_error_exits_3_from_the_cli(self, decode_inputs, tmp_path, capsys, monkeypatch):
        self.cpus(monkeypatch, 2)
        self.fail_in(monkeypatch, "children", self.numerics_error)
        d = decode_inputs
        argv = ["decode", "--model", f"{d}/model.bin", "--input", f"{d}/obs.txt", "--out", str(tmp_path / "out.txt")]
        assert cli_main(argv) == 3
        assert capsys.readouterr().err.strip().splitlines() == ["numeric failure: non-finite logits in shard"]
        self.assert_no_child_left()

    def test_a_dead_child_exits_1_from_the_cli(self, decode_inputs, tmp_path, capsys, monkeypatch):
        self.cpus(monkeypatch, 2)
        self.fail_in(monkeypatch, "children", lambda: os._exit(7))
        d = decode_inputs
        argv = ["decode", "--model", f"{d}/model.bin", "--input", f"{d}/obs.txt", "--out", str(tmp_path / "out.txt")]
        assert cli_main(argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("worker failure: worker process "), err
        assert err[0].endswith(" ended with exit code 7 and sent no result"), err
        assert not any(tmp_path.iterdir())
        self.assert_no_child_left()

    def test_no_child_is_left_when_the_parent_shard_raises(self, inputs, monkeypatch):
        self.cpus(monkeypatch, 3)
        self.fail_in(monkeypatch, "parent", self.numerics_error)
        with pytest.raises(NumericsError):
            self.decode(inputs, 5, temperature=0.8, use_corrector=True)
        self.assert_no_child_left()

    def test_a_child_that_dies_without_a_result_raises(self, inputs, monkeypatch):
        self.cpus(monkeypatch, 2)
        self.fail_in(monkeypatch, "children", lambda: os._exit(7))
        with pytest.raises(ChildProcessError, match="exit code 7"):
            self.decode(inputs, 5)
        self.assert_no_child_left()

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7])
    def test_shards_cover_the_items_in_order(self, monkeypatch, n):
        for k in (1, 2, 3):
            self.cpus(monkeypatch, k)
            shards = cpu_shards(n)
            assert len(shards) == max(1, min(k, n))
            assert [i for part in shards for i in range(n)[part]] == list(range(n))
            assert max(len(range(n)[part]) for part in shards) - min(len(range(n)[part]) for part in shards) <= 1

    def test_compare_modes_bytes_do_not_depend_on_the_cpu_count(self, tmp_path, monkeypatch):
        names = ("compare_modes.csv", "compare_modes_deciles.csv")
        # at theta 0.05 the corrector changes tokens, so the rows of the
        # cells built from one decode differ
        for theta in (0.5, 0.05):
            outputs = {}
            for k in (1, 2, 3):
                self.cpus(monkeypatch, k)
                out = tmp_path / f"{theta}-{k}"
                results = compare_masking_modes(tiny_config(seeds=(5, 6), theta=theta, output_dir=str(out)))
                outputs[k] = [(out / name).read_bytes() for name in names], repr(sorted(results.items()))
            assert outputs[2] == outputs[1] and outputs[3] == outputs[1]
            self.assert_no_child_left()

    def test_a_training_error_in_a_child_exits_3_from_compare_modes(self, tmp_path, capsys, monkeypatch):
        def fail():
            raise NumericsError("loss is nan in a training child")

        self.fail_in(monkeypatch, "children", fail, "train")
        self.cpus(monkeypatch, 3)  # the CTF predictor here, the uniform one and the corrector in children
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(serialize_config(tiny_config(seeds=(5,))))
        out = tmp_path / "run"
        assert cli_main(["compare-modes", "--config", str(cfg_file), "--output-dir", str(out)]) == 3
        assert capsys.readouterr().err.strip().splitlines() == ["numeric failure: loss is nan in a training child"]
        assert not list(out.glob("*.csv"))
        self.assert_no_child_left()

    @pytest.mark.parametrize("name", ["train", "decode"])
    def test_a_dead_child_exits_1_from_compare_modes(self, tmp_path, capsys, monkeypatch, name):
        self.fail_in(monkeypatch, "children", lambda: os._exit(7), name)
        self.cpus(monkeypatch, 3)
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(serialize_config(tiny_config(seeds=(5,))))
        out = tmp_path / "run"
        assert cli_main(["compare-modes", "--config", str(cfg_file), "--output-dir", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("worker failure: worker process "), err
        assert err[0].endswith(" ended with exit code 7 and sent no result"), err
        assert not list(out.glob("*.csv"))
        self.assert_no_child_left()

    def test_every_fork_comes_from_a_single_threaded_process(self, inputs, tmp_path, monkeypatch):
        if not os.path.exists("/proc/self/status"):
            pytest.skip("no /proc/self/status to count threads in")
        # numpy's OpenBLAS joins its thread pool inside fork() (a
        # pthread_atfork handler), so the parent's count just after the fork
        # is the count the fork saw; a thread alive then is alive after it
        real_fork, threads = os.fork, []

        def fork():
            pid = real_fork()
            if pid:
                with open("/proc/self/status") as fh:
                    threads.append(next(int(ln.split()[1]) for ln in fh if ln.startswith("Threads:")))
            return pid

        monkeypatch.setattr(os, "fork", fork)
        self.cpus(monkeypatch, 3)
        self.decode(inputs, 5, use_corrector=True)
        compare_masking_modes(tiny_config(seeds=(5,), output_dir=str(tmp_path)))
        assert threads and set(threads) == {1}, threads

    def test_a_second_thread_keeps_every_job_in_this_process(self, inputs, monkeypatch):
        self.cpus(monkeypatch, 1)
        expected = self.decode(inputs, 5, temperature=0.8, use_corrector=True)

        def fork():
            raise AssertionError("forked while a second thread was alive")

        monkeypatch.setattr(os, "fork", fork)
        self.cpus(monkeypatch, 3)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            decoded = self.decode(inputs, 5, temperature=0.8, use_corrector=True)
        finally:
            release.set()
            other.join()
        for mine, theirs in zip(expected, decoded):
            assert mine.tobytes() == theirs.tobytes()

    def test_a_nested_fan_out_forks_no_further(self, monkeypatch):
        self.cpus(monkeypatch, 2)

        def job(_):
            return os.getpid(), fan_out(lambda _: os.getpid(), [0, 1])

        (first, inner_first), (second, inner_second) = fan_out(job, [0, 1])
        assert first == os.getpid() != second
        assert inner_first == [first, first] and inner_second == [second, second]
        # the marker ends with the outer fan-out
        assert fan_out(lambda _: os.getpid(), [0, 1])[1] != os.getpid()
        self.assert_no_child_left()

    @pytest.mark.parametrize("command", ["decode", "eval"])
    def test_cli_bytes_pinned_to_one_cpu_equal_unpinned(self, decode_inputs, tmp_path, command):
        # eval's training at these sizes outlasts the ~0.2 s the training
        # helper needs to start, so the unpinned run trains with the helper
        d = decode_inputs
        src = Path(maskgen.__file__).resolve().parents[1]
        one_cpu = min(os.sched_getaffinity(0))
        outputs = {}
        for name, pin in (("pinned", lambda: os.sched_setaffinity(0, {one_cpu})), ("unpinned", None)):
            out = tmp_path / name
            if command == "decode":
                out.mkdir()
                argv = ["decode", "--model", f"{d}/model.bin", "--input", f"{d}/obs.txt", "--n-steps", "4",
                        "--mask-mode", "ctf", "--freq-csv", f"{d}/freq.csv", "--corrector", f"{d}/corr.bin",
                        "--refill", "full", "--temperature", "0.8", "--seed", "3",
                        "--out", str(out / "decoded.txt"), "--trace", str(out / "trace.csv")]
            else:
                argv = ["eval", "--seed", "4", "--num-docs", "256", "--epochs", "4", "--output-dir", str(out)]
            subprocess.run(
                [sys.executable, "-m", "maskgen.cli", *argv],
                env=dict(os.environ, PYTHONPATH=str(src)), preexec_fn=pin, check=True, capture_output=True, timeout=120,
            )
            outputs[name] = {path.name: path.read_bytes() for path in out.iterdir()}
        assert len(outputs["pinned"]) == {"decode": 2, "eval": 5}[command]
        assert outputs["pinned"] == outputs["unpinned"]


@pytest.mark.parametrize("error", [ConfigError("seeds", "must not repeat an entry"), NumericsError("loss is nan")])
def test_errors_survive_pickling(error):
    # a decoding shard's error crosses a process boundary
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is type(error) and str(back) == str(error)
    if isinstance(error, ConfigError):
        assert back.field == "seeds"
