"""Command-line interface.

Subcommands: gen-corpus, train, train-corrector, decode, eval,
ablate-steps, compare-modes, dump-schedule. A flag that sets an
experiment config key takes the key's parser, default and value rule from
``ExperimentConfig``; any subcommand that draws randomness requires an explicit
seed (from the config file or --seed). Exit codes: 0 success, 1 worker
failure (a worker process that ended without sending its result), 2 config
error (an unusable path included), 3 numeric failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import MISSING, fields, replace

import numpy as np

from . import corpus as corpuslib
from . import corrector as corrlib
from . import harness, predictor
from .errors import ConfigError, NumericsError
from .schedule import MaskMode, ScheduleConfig, dump_schedule_rows


def _load_cfg(args) -> harness.ExperimentConfig:
    if not args.config and args.seed is None:
        raise ConfigError("seed", "give --config or --seed")
    cfg = harness.load_config(args.config) if args.config else harness.ExperimentConfig(seed=args.seed)
    overrides = {key: getattr(args, key) for key in harness._PARSERS if getattr(args, key) is not None}
    return replace(cfg, **overrides)


def _check_writable(field: str, path) -> None:
    """Before any work: ``path`` must name a file in an existing directory,
    so that writing it at the end cannot fail on the path."""
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory) or os.path.isdir(path) or not os.access(directory, os.W_OK):
        raise ConfigError(field, f"cannot write {path}")


def _cmd_gen_corpus(args) -> int:
    _check_writable("out", args.out)
    if args.freq_csv:
        _check_writable("freq_csv", args.freq_csv)
    corpus = corpuslib.generate_corpus(
        args.vocab_size, args.num_docs, args.seq_len, args.zipf_exponent, args.markov_order, args.seed
    )
    corpuslib.save_corpus(corpus, args.out)
    print(f"wrote {corpus.num_docs} sequences of length {corpus.seq_len} to {args.out}")
    if args.freq_csv:
        corpuslib.save_frequency_csv(corpuslib.document_frequency(corpus), args.freq_csv)
        print(f"wrote frequency table to {args.freq_csv}")
    return 0


def _cmd_train(args) -> int:
    cfg = _load_cfg(args)
    model_path = args.model_out or os.path.join(cfg.output_dir, "predictor.bin")
    run = harness.start_run(cfg, files=(model_path,))
    pipe = harness.build_pipeline(replace(cfg, use_corrector=False))
    predictor.save_predictor(pipe.model, model_path)
    harness.write_training_csvs(run, pipe.history, pipe.freq)
    last = pipe.history[-1]
    print(f"trained predictor -> {model_path} (loss/token {last.loss_per_token:.4f}, masked acc {last.masked_acc:.4f})")
    return 0


def _cmd_train_corrector(args) -> int:
    cfg = _load_cfg(args)
    path = args.model_out or os.path.join(cfg.output_dir, "corrector.bin")
    harness.start_run(cfg, files=(path,))
    model, history = harness.fit_corrector(cfg, harness._corpora(cfg)[0])
    corrlib.save_corrector(model, path)
    print(f"trained corrector -> {path} (loss/position {history[-1].loss_per_position:.4f})")
    return 0


def _read(field: str, loader, path):
    """Load an input file; a missing, unreadable or malformed one is a
    config error naming the flag."""
    try:
        return loader(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(field, f"cannot read {path}: {exc}") from None


def _cmd_decode(args) -> int:
    if not (math.isfinite(args.temperature) and args.temperature >= 0.0):
        raise ConfigError("temperature", f"must be finite and >= 0, got {args.temperature}")
    if args.seed is None and args.temperature > 0.0:
        raise ConfigError("seed", "--seed is required with a temperature above 0")
    _check_writable("out", args.out)
    if args.trace:
        _check_writable("trace", args.trace)
    model = _read("model", predictor.load_predictor, args.model)
    observations = _read("input", corpuslib.load_corpus, args.input)
    freq = _read("freq_csv", corpuslib.load_frequency_csv, args.freq_csv) if args.freq_csv else None
    corrector = _read("corrector", corrlib.load_corrector, args.corrector) if args.corrector else None
    for field, loaded in (("input", observations), ("freq_csv", freq), ("corrector", corrector)):
        if loaded is not None and loaded.vocab_size != model.vocab_size:
            raise ConfigError(field, f"vocab {loaded.vocab_size} != model vocab {model.vocab_size}")
    if args.n_steps > observations.seq_len:
        raise ConfigError("n_steps", f"must not exceed seq_len ({observations.seq_len}), got {args.n_steps}")
    mode = MaskMode(args.mask_mode)
    if mode is MaskMode.CTF and freq is None:
        raise ConfigError("freq_csv", "--freq-csv is required for ctf decoding")
    sched = ScheduleConfig(n_steps=args.n_steps, mode=mode)
    streams = np.random.SeedSequence(args.seed or 0).spawn(observations.num_docs)
    decoded, traces = harness.decode_all(
        model, observations.tokens, sched, freq, corrector, args.theta, args.corrector_rounds,
        refill=sched if args.refill == "full" else None, temperature=args.temperature,
        rngs=(np.random.default_rng(stream) for stream in streams),
    )
    corpuslib.save_corpus(
        corpuslib.Corpus(tokens=decoded, vocab_size=model.vocab_size, seed=args.seed or 0), args.out
    )
    if args.trace:  # the last sequence's trace
        corpuslib.write_csv(
            args.trace, "step,open_count,mean_confidence",
            [(step, int(count), conf) for step, (count, conf) in enumerate(traces[-1:].reshape(-1, 2))],
        )
    print(f"decoded {observations.num_docs} sequences -> {args.out}")
    return 0


def _cmd_eval(args) -> int:
    cfg = _load_cfg(args)
    report = harness.run_experiment(cfg)
    print(f"overall_accuracy {report.overall_accuracy:.4f}")
    print(f"exact_match {report.exact_match:.4f}")
    print(f"mean_edit_distance {report.mean_edit_distance:.3f}")
    print(f"artifacts in {cfg.output_dir}")
    return 0


def _cmd_ablate_steps(args) -> int:
    rows = harness.ablate_steps(_load_cfg(args))
    for n, acc, edit in rows:
        print(f"n_steps {n:4d}  accuracy {acc:.4f}  edit_distance {edit:.3f}")
    return 0


def _cmd_compare_modes(args) -> int:
    cfg = _load_cfg(args)
    results = harness.compare_masking_modes(cfg)
    for (seed, mode, corr), report in sorted(results.items()):
        tag = f"{mode}+corrector" if corr else mode
        print(
            f"seed {seed}  {tag:18s} overall {report.overall_accuracy:.4f}  "
            f"bottom-decile {report.decile_accuracy[0]:.4f}"
        )
    return 0


def _cmd_dump_schedule(args) -> int:
    corpuslib.write_csv(
        args.out, "step,expected_masked", dump_schedule_rows(ScheduleConfig(n_steps=args.n_steps), args.seq_len),
        [f"n_steps={args.n_steps} seq_len={args.seq_len}"],
    )
    print(f"wrote schedule ({args.n_steps} steps) to {args.out}")
    return 0


_DEFAULTS = {f.name: f.default for f in fields(harness.ExperimentConfig) if f.default is not MISSING}


def _add_key_flag(p: argparse.ArgumentParser, key: str, flag: str | None = None, **kwargs) -> None:
    """Add the flag (``--<key>`` unless named) that sets config key ``key``,
    with the key's config parser as its type and, unless given, the key's
    ``ExperimentConfig`` default (None for ``seed``, which has none) as its
    default. ``main`` checks its value by the key's rule."""
    kwargs.setdefault("default", _DEFAULTS.get(key))
    p.add_argument(flag or "--" + key.replace("_", "-"), dest=key, type=harness._PARSERS[key], **kwargs)


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="experiment config file (key = value lines)")
    helps = {"seed": "master seed (overrides the config)", "output_dir": "artifact directory"}
    for key in harness._PARSERS:
        _add_key_flag(p, key, default=None, help=helps.get(key))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="maskgen", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-corpus", help="generate a synthetic corpus file")
    for key in ("vocab_size", "num_docs", "seq_len", "seed"):
        _add_key_flag(p, key, required=True)
    _add_key_flag(p, "zipf_exponent")
    _add_key_flag(p, "markov_order")
    p.add_argument("--out", required=True)
    p.add_argument("--freq-csv", help="also write the frequency table CSV")
    p.set_defaults(fn=_cmd_gen_corpus)

    p = sub.add_parser("train", help="train the masked-token predictor")
    _add_config_flags(p)
    p.add_argument("--model-out", help="checkpoint path (default <output_dir>/predictor.bin)")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("train-corrector", help="train the suspicion scorer")
    _add_config_flags(p)
    p.add_argument("--model-out", help="checkpoint path (default <output_dir>/corrector.bin)")
    p.set_defaults(fn=_cmd_train_corrector)

    p = sub.add_parser("decode", help="decode a corpus of distorted observations")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True, help="corpus file of observations")
    p.add_argument("--out", required=True)
    _add_key_flag(p, "n_steps")
    _add_key_flag(p, "mask_mode", help="uniform or ctf")
    p.add_argument("--freq-csv", help="frequency table (required for ctf)")
    p.add_argument("--temperature", type=float, default=0.0,
                   help="sampling temperature, annealed to 0 over the steps; 0 is greedy")
    p.add_argument("--corrector", help="optional corrector checkpoint")
    _add_key_flag(p, "theta")
    _add_key_flag(p, "corrector_rounds", "--rounds")
    p.add_argument("--refill", choices=("single", "full"), default="single",
                   help="refill re-masked positions with a one-step or a full decode")
    _add_key_flag(p, "seed", help="required with a temperature above 0")
    p.add_argument("--trace", help="write the last sequence's decode trace CSV")
    p.set_defaults(fn=_cmd_decode)

    p = sub.add_parser("eval", help="end-to-end experiment with metric CSVs")
    _add_config_flags(p)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("ablate-steps", help="accuracy vs decode step count (--ablate-steps)")
    _add_config_flags(p)
    p.set_defaults(fn=_cmd_ablate_steps)

    p = sub.add_parser("compare-modes", help="uniform vs ctf, corrector off/on")
    _add_config_flags(p)
    p.set_defaults(fn=_cmd_compare_modes)

    p = sub.add_parser("dump-schedule", help="expected masked count per step")
    for key in ("n_steps", "seq_len"):
        _add_key_flag(p, key, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_dump_schedule)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        # a config-key flag's parser raises ConfigError, which argparse lets through
        args = build_parser().parse_args(argv)
        for key in harness._PARSERS:  # every config-key flag of the subcommand, by its key's rule
            if (value := getattr(args, key, None)) is not None:
                harness.check_value(key, value)
        return args.fn(args)
    except ChildProcessError as exc:  # a subclass of OSError that no input of the user causes
        print(f"worker failure: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, OSError) as exc:  # OSError: a path that cannot be read or written as asked
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
