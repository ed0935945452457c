"""Experiment orchestration: end-to-end runs, step-count ablations, paired
masking-mode comparisons, and CSV emission.

Configuration is a flat key-value text file (``key = value`` per line,
``#`` comments). All randomness flows from the ``seed`` key: corpus, model
initialization, masking draws, evaluation corruption, and the corrector all
derive their streams from it, so a rerun with an identical config produces
byte-identical CSV artifacts. Every CSV starts with a config-hash comment
line for exact reproduction.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, fields, replace
from typing import Iterable

import numpy as np

from .corrector import CorrectorEpochStats, CorrectorModel, CorrectorTrainConfig, correct, train_corrector
from .corpus import (
    Corpus,
    FrequencyTable,
    corrupt_sequence,
    document_frequency,
    generate_corpus,
    save_frequency_csv,
    sequence_base_probabilities,
    write_csv,
)
from .decoder import StepTrace, decode
from .errors import ConfigError
from .predictor import (
    EpochStats,
    PredictorModel,
    TrainConfig,
    build_conditioning,
    train,
)
from .schedule import MaskMode, ScheduleConfig


@dataclass
class ExperimentConfig:
    seed: int
    vocab_size: int = 64
    num_docs: int = 512
    test_docs: int = 160
    seq_len: int = 96
    zipf_exponent: float = 1.2
    markov_order: int = 1
    n_steps: int = 10
    mask_mode: str = "uniform"  # uniform | ctf
    embed_dim: int = 32
    radius: int = 1
    lr: float = 1.5
    epochs: int = 16
    batch: int = 8
    rho: float = 0.3
    use_corrector: bool = False
    corrector_dim: int = 16
    corrector_radius: int = 2
    corrector_lr: float = 1.0
    corrector_epochs: int = 4
    corrector_rounds: int = 2
    theta: float = 0.5
    ablate_steps: tuple[int, ...] = (2, 10, 20, 40)
    seeds: tuple[int, ...] = (11, 12, 13, 14, 15)
    output_dir: str = "runs"


def _parse_bool(s: str) -> bool:
    if s.lower() in ("true", "1", "yes"):
        return True
    if s.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {s!r}")


def _parse_int_tuple(s: str) -> tuple[int, ...]:
    return tuple(int(x) for x in s.split(",") if x.strip())


# one parser per annotated field type; the config keys are the fields
_TYPE_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "bool": _parse_bool,
    "tuple[int, ...]": _parse_int_tuple,
}
_PARSERS = {f.name: _TYPE_PARSERS[f.type] for f in fields(ExperimentConfig)}


def parse_config(text: str) -> ExperimentConfig:
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}", f"expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _PARSERS:
            raise ConfigError(key, "unknown configuration key")
        try:
            values[key] = _PARSERS[key](raw)
        except ValueError as exc:
            raise ConfigError(key, f"cannot parse {raw!r}: {exc}") from None
    if "seed" not in values:
        raise ConfigError("seed", "seed is required; no wall-clock defaults")
    cfg = ExperimentConfig(**values)
    validate_config(cfg)
    return cfg


def load_config(path) -> ExperimentConfig:
    if not os.path.exists(path):
        raise ConfigError("config", f"file not found: {path}")
    with open(path) as fh:
        return parse_config(fh.read())


# per-key value rules; n_steps <= seq_len is checked across keys
_CHOICES = {"mask_mode": ("uniform", "ctf"), "markov_order": (0, 1)}
_AT_LEAST = {
    "vocab_size": 2, "num_docs": 1, "test_docs": 1, "seq_len": 1, "n_steps": 1, "embed_dim": 1,
    "epochs": 1, "batch": 1, "corrector_dim": 1, "corrector_epochs": 1,
    "zipf_exponent": 0, "radius": 0, "corrector_radius": 0, "corrector_rounds": 0,
}
_UNIT_INTERVAL = ("rho", "theta")
_POSITIVE_FINITE = ("lr", "corrector_lr")


def check_value(key: str, value) -> None:
    """Raise ``ConfigError`` naming ``key`` when ``value`` breaks its rule."""
    if key in _CHOICES and value not in _CHOICES[key]:
        allowed = " or ".join(repr(c) for c in _CHOICES[key])
        raise ConfigError(key, f"must be {allowed}, got {value!r}")
    if key in _AT_LEAST and not value >= _AT_LEAST[key]:
        raise ConfigError(key, f"must be >= {_AT_LEAST[key]}, got {value}")
    if key in _UNIT_INTERVAL and not 0.0 <= value <= 1.0:
        raise ConfigError(key, f"must be in [0,1], got {value}")
    if key in _POSITIVE_FINITE and not (math.isfinite(value) and value > 0.0):
        raise ConfigError(key, f"must be finite and > 0, got {value}")


def validate_config(cfg: ExperimentConfig) -> None:
    for f in fields(cfg):
        check_value(f.name, getattr(cfg, f.name))
    if cfg.n_steps > cfg.seq_len:
        raise ConfigError("n_steps", f"must not exceed seq_len ({cfg.seq_len}), got {cfg.n_steps}")


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form: sorted keys, one per line."""
    lines = []
    for f in sorted(fields(cfg), key=lambda f: f.name):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


def config_hash(cfg: ExperimentConfig) -> str:
    """Hash of the canonical config excluding output_dir, so the same
    experiment hashes identically wherever its artifacts land."""
    canonical = serialize_config(replace(cfg, output_dir=""))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def write_training_csvs(out: str, cfg_hash: str, history: list[EpochStats], freq: FrequencyTable) -> None:
    """``learning_curve.csv`` (``epoch,loss,masked_acc``, loss per masked
    token) and ``frequency.csv`` of a trained predictor, as ``eval`` and
    ``train`` write them."""
    write_csv(
        os.path.join(out, "learning_curve.csv"),
        "epoch,loss,masked_acc",
        [(row.epoch, row.loss_per_token, row.masked_acc) for row in history],
        [f"config_hash={cfg_hash}"],
    )
    save_frequency_csv(freq, os.path.join(out, "frequency.csv"), comment=f"config_hash={cfg_hash}")


# ---------------------------------------------------------------------------
# Metrics


@dataclass
class MetricsReport:
    overall_accuracy: float
    exact_match: float
    mean_edit_distance: float
    decile_accuracy: list[float]  # nan for empty buckets
    decile_counts: list[int]
    step_trace: list[tuple[int, float, float]]  # (step, mean open count, mean confidence)


def frequency_deciles(table: FrequencyTable) -> np.ndarray:
    """Decile index per token (0 = rarest) by document-frequency rank.

    Rank buckets partition the vocabulary into ten near-equal groups; ties
    in f are broken by token id so the partition is deterministic.
    """
    v = table.vocab_size
    order = np.lexsort((np.arange(v), table.doc_freq))
    deciles = np.empty(v, dtype=np.int64)
    deciles[order] = np.arange(v) * 10 // v
    return deciles


def edit_distance(a: np.ndarray, b: np.ndarray) -> int:
    """Levenshtein distance between two token sequences."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape[0] == 0:
        return int(b.shape[0])
    prev = np.arange(b.shape[0] + 1)
    idx = np.arange(b.shape[0] + 1)
    for i in range(1, a.shape[0] + 1):
        sub = prev[:-1] + (b != a[i - 1])
        best = np.minimum(prev[1:] + 1, sub)  # delete or substitute/match
        cur = np.empty_like(prev)
        cur[0] = i
        cur[1:] = best
        # insertion closes over prefixes: cur[j] = min_k<=j (cur[k] + j - k)
        cur = np.minimum.accumulate(cur - idx) + idx
        prev = cur
    return int(prev[-1])


def evaluate(
    model: PredictorModel,
    test_corpus: Corpus,
    freq: FrequencyTable,
    sched: ScheduleConfig,
    cfg: ExperimentConfig,
    eval_seed: int,
    corrector: CorrectorModel | None = None,
) -> MetricsReport:
    """Decode every held-out sequence and score against the clean tokens.

    Each sequence gets its own RNG stream derived from ``eval_seed``, so
    results do not depend on evaluation order or worker count.
    """
    deciles = frequency_deciles(freq)
    hits = total = exact = edit_sum = 0
    dec_hits = np.zeros(10, dtype=np.int64)
    dec_total = np.zeros(10, dtype=np.int64)
    traces: list[list[StepTrace]] = []
    streams = np.random.SeedSequence(eval_seed).spawn(test_corpus.num_docs)

    for j in range(test_corpus.num_docs):
        rng = np.random.default_rng(streams[j])
        clean = test_corpus.tokens[j]
        distorted = corrupt_sequence(clean, test_corpus.vocab_size, cfg.rho, rng)
        ctx = build_conditioning(distorted, model)
        p_base = sequence_base_probabilities(freq, distorted) if sched.mode is MaskMode.CTF else None
        decoded, trace = decode(model, ctx, sched, p_base=p_base)
        if corrector is not None:
            decoded = correct(decoded, model, ctx, corrector, cfg.theta, cfg.corrector_rounds)
        traces.append(trace)

        hit = decoded == clean
        hits += int(hit.sum())
        total += clean.shape[0]
        exact += int(hit.all())
        edit_sum += edit_distance(decoded, clean)
        np.add.at(dec_hits, deciles[clean], hit.astype(np.int64))
        np.add.at(dec_total, deciles[clean], 1)

    n = test_corpus.num_docs
    mean_trace = [
        (
            i,
            float(np.mean([t[i].open_count for t in traces])),
            float(np.mean([t[i].mean_confidence for t in traces])),
        )
        for i in range(sched.n_steps)
    ]
    decile_acc = [float(dec_hits[d] / dec_total[d]) if dec_total[d] else float("nan") for d in range(10)]
    return MetricsReport(
        overall_accuracy=hits / total,
        exact_match=exact / n,
        mean_edit_distance=edit_sum / n,
        decile_accuracy=decile_acc,
        decile_counts=[int(c) for c in dec_total],
        step_trace=mean_trace,
    )


# ---------------------------------------------------------------------------
# Pipelines


@dataclass
class TrainedPipeline:
    train_corpus: Corpus
    test_corpus: Corpus
    freq: FrequencyTable
    sched: ScheduleConfig
    model: PredictorModel
    history: list[EpochStats]
    corrector: CorrectorModel | None
    eval_seed: int


def derive_seeds(master: int) -> dict[str, int]:
    """Named sub-seeds for the pipeline stages, all derived from the master."""
    rng = np.random.default_rng(master)
    # "test_corpus" is no longer used (the held-out docs continue the
    # training generation) but is still drawn, so the later seeds keep
    # their values
    names = ("train_corpus", "test_corpus", "fit", "eval", "corrector")
    draws = rng.integers(0, 2**62, size=len(names))
    return {name: int(v) for name, v in zip(names, draws)}


def build_pipeline(cfg: ExperimentConfig, force_corrector: bool | None = None) -> TrainedPipeline:
    """Generate corpora, fit the predictor (and corrector if enabled).

    The held-out docs are the tail of one generation whose head is the
    training corpus, so both share one transition structure. Generation is
    prefix-stable, so the head equals a generation of ``num_docs`` alone.
    """
    seeds = derive_seeds(cfg.seed)
    docs = generate_corpus(
        cfg.vocab_size, cfg.num_docs + cfg.test_docs, cfg.seq_len, cfg.zipf_exponent, cfg.markov_order,
        seeds["train_corpus"],
    )
    train_corpus = replace(docs, tokens=docs.tokens[: cfg.num_docs])
    test_corpus = replace(docs, tokens=docs.tokens[cfg.num_docs :])
    freq = document_frequency(train_corpus)
    sched, model, history = _fit_predictor(cfg, train_corpus, freq)
    use_corr = cfg.use_corrector if force_corrector is None else force_corrector
    corrector = fit_corrector(cfg, train_corpus)[0] if use_corr else None
    return TrainedPipeline(
        train_corpus=train_corpus, test_corpus=test_corpus, freq=freq, sched=sched,
        model=model, history=history, corrector=corrector, eval_seed=seeds["eval"],
    )


def _fit_predictor(
    cfg: ExperimentConfig, train_corpus: Corpus, freq: FrequencyTable
) -> tuple[ScheduleConfig, PredictorModel, list[EpochStats]]:
    """Schedule of ``cfg`` and the predictor trained under it."""
    sched = ScheduleConfig(n_steps=cfg.n_steps, mode=MaskMode(cfg.mask_mode))
    model, history = train(
        train_corpus,
        freq,
        sched,
        TrainConfig(
            lr=cfg.lr, epochs=cfg.epochs, batch=cfg.batch, rho=cfg.rho,
            seed=derive_seeds(cfg.seed)["fit"], dim=cfg.embed_dim, radius=cfg.radius,
        ),
    )
    return sched, model, history


def fit_corrector(cfg: ExperimentConfig, train_corpus: Corpus) -> tuple[CorrectorModel, list[CorrectorEpochStats]]:
    """The corrector of ``cfg`` trained on ``train_corpus``."""
    return train_corrector(
        train_corpus,
        CorrectorTrainConfig(
            lr=cfg.corrector_lr, epochs=cfg.corrector_epochs, seed=derive_seeds(cfg.seed)["corrector"],
            dim=cfg.corrector_dim, radius=cfg.corrector_radius,
        ),
    )


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None) -> MetricsReport:
    """End-to-end run with all CSV artifacts written to the output directory."""
    validate_config(cfg)
    out = out_dir if out_dir is not None else cfg.output_dir
    os.makedirs(out, exist_ok=True)
    h = config_hash(cfg)

    pipe = build_pipeline(cfg)
    report = evaluate(pipe.model, pipe.test_corpus, pipe.freq, pipe.sched, cfg, pipe.eval_seed, pipe.corrector)

    write_csv(
        os.path.join(out, "metrics.csv"),
        "overall_accuracy,exact_match,mean_edit_distance",
        [(report.overall_accuracy, report.exact_match, report.mean_edit_distance)],
        [f"config_hash={h}"],
    )
    token_deciles = frequency_deciles(pipe.freq)
    write_csv(
        os.path.join(out, "deciles.csv"),
        "decile,token_count,position_count,accuracy",
        [
            (d, int((token_deciles == d).sum()), report.decile_counts[d], report.decile_accuracy[d])
            for d in range(10)
        ],
        [f"config_hash={h}"],
    )
    write_csv(
        os.path.join(out, "decode_trace.csv"),
        "step,open_count,mean_confidence",
        report.step_trace,
        [f"config_hash={h}"],
    )
    write_training_csvs(out, h, pipe.history, pipe.freq)
    return report


def ablate_steps(cfg: ExperimentConfig, steps: Iterable[int] | None = None, out_dir: str | None = None) -> list[tuple[int, float, float]]:
    """One decode evaluation per step count, sharing the trained model and
    all seeds. Emits ``n_steps,accuracy,edit_distance``."""
    validate_config(cfg)
    step_list = tuple(steps) if steps is not None else cfg.ablate_steps
    if not step_list:
        raise ConfigError("ablate_steps", "need at least one step count")
    if min(step_list) < 1 or max(step_list) > cfg.seq_len:
        raise ConfigError("ablate_steps", "every step count must lie in [1, seq_len]")
    out = out_dir if out_dir is not None else cfg.output_dir
    os.makedirs(out, exist_ok=True)

    pipe = build_pipeline(cfg)
    rows = []
    for n in step_list:
        sched_n = replace(pipe.sched, n_steps=int(n))
        report = evaluate(pipe.model, pipe.test_corpus, pipe.freq, sched_n, cfg, pipe.eval_seed, pipe.corrector)
        rows.append((int(n), report.overall_accuracy, report.mean_edit_distance))
    write_csv(os.path.join(out, "ablate_steps.csv"), "n_steps,accuracy,edit_distance", rows, [f"config_hash={config_hash(cfg)}"])
    return rows


def compare_masking_modes(cfg: ExperimentConfig, out_dir: str | None = None) -> dict[tuple[int, str, bool], MetricsReport]:
    """Four cells (uniform/ctf x corrector off/on) per seed, with shared
    corpora and seeds across cells. Returns reports keyed by
    (seed, mode, corrector_on) and writes summary plus per-decile CSVs."""
    validate_config(cfg)
    if not cfg.seeds:
        raise ConfigError("seeds", "need at least one seed for paired comparisons")
    out = out_dir if out_dir is not None else cfg.output_dir
    os.makedirs(out, exist_ok=True)
    h = config_hash(cfg)

    results: dict[tuple[int, str, bool], MetricsReport] = {}
    summary_rows = []
    decile_rows = []
    for seed in cfg.seeds:
        # corpora, frequency table and corrector do not depend on the mode,
        # and each stage draws from its own sub-seed: only the predictor is
        # trained again for the second mode
        pipe = build_pipeline(replace(cfg, seed=int(seed), mask_mode="uniform"), force_corrector=True)
        for mode in ("uniform", "ctf"):
            cell_cfg = replace(cfg, seed=int(seed), mask_mode=mode)
            if mode != "uniform":
                sched, model, history = _fit_predictor(cell_cfg, pipe.train_corpus, pipe.freq)
                pipe = replace(pipe, sched=sched, model=model, history=history)
            for use_corr in (False, True):
                report = evaluate(
                    pipe.model, pipe.test_corpus, pipe.freq, pipe.sched, cell_cfg,
                    pipe.eval_seed, pipe.corrector if use_corr else None,
                )
                results[(int(seed), mode, use_corr)] = report
                bottom = report.decile_accuracy[0]
                summary_rows.append(
                    (int(seed), mode, int(use_corr), report.overall_accuracy,
                     report.exact_match, report.mean_edit_distance, bottom, report.decile_counts[0])
                )
                for d in range(10):
                    decile_rows.append(
                        (int(seed), mode, int(use_corr), d, report.decile_counts[d], report.decile_accuracy[d])
                    )
    write_csv(
        os.path.join(out, "compare_modes.csv"),
        "seed,mask_mode,corrector,overall_accuracy,exact_match,mean_edit_distance,bottom_decile_accuracy,bottom_decile_count",
        summary_rows,
        [f"config_hash={h}"],
    )
    write_csv(
        os.path.join(out, "compare_modes_deciles.csv"),
        "seed,mask_mode,corrector,decile,position_count,accuracy",
        decile_rows,
        [f"config_hash={h}"],
    )
    return results
