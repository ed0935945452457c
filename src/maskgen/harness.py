"""Experiment orchestration: end-to-end runs, step-count ablations, paired
masking-mode comparisons, and CSV emission.

Configuration is a flat key-value UTF-8 text file (``key = value`` per
line, ``#`` comments). All randomness flows from the ``seed`` key: corpus,
model initialization, masking draws, evaluation corruption, and the
corrector all derive their streams from it, so a rerun with an identical
config produces byte-identical CSV artifacts. ``start_run`` is the prologue
of every run: it validates the config, creates the output directories and
stamps every CSV with a config-hash comment line for exact reproduction.

``decode_all`` is the one per-sequence inference loop, for ``evaluate`` and
``maskgen decode``. It spreads its rows, and ``compare_masking_modes`` its
trainings, over the CPUs the call may use (see ``cpus``).
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field, fields, replace
from functools import partial
from typing import Callable, Iterable

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
from .cpus import cpu_shards, fan_out, train_cells
from .decoder import decode
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
    radius: int = 1  # window small enough that commits extend the receptive field
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


def _key_parser(key: str, parse: Callable[[str], object]) -> Callable[[str], object]:
    """``parse`` for config key ``key``, raising a ``ConfigError`` that names
    the key when it rejects the text, in a config file and on a flag alike."""

    def parser(raw: str):
        try:
            return parse(raw)
        except ValueError as exc:
            raise ConfigError(key, f"cannot parse {raw!r}: {exc}") from None

    return parser


_PARSERS = {f.name: _key_parser(f.name, _TYPE_PARSERS[f.type]) for f in fields(ExperimentConfig)}


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
        if key in values:
            raise ConfigError(key, f"repeated on line {lineno}")
        values[key] = _PARSERS[key](raw)
    if "seed" not in values:
        raise ConfigError("seed", "seed is required; no wall-clock defaults")
    cfg = ExperimentConfig(**values)
    validate_config(cfg)
    return cfg


def load_config(path) -> ExperimentConfig:
    """The validated config of the UTF-8 text file ``path``."""
    if not os.path.exists(path):
        raise ConfigError("config", f"file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError("config", f"cannot read {path}: {exc}") from None
    return parse_config(text)


# per-key value rules (a lower bound holds for every entry of a tuple);
# n_steps <= seq_len is checked across keys
_CHOICES = {"mask_mode": ("uniform", "ctf"), "markov_order": (0, 1)}
_AT_LEAST = {
    "vocab_size": 2, "num_docs": 1, "test_docs": 1, "seq_len": 1, "n_steps": 1, "embed_dim": 1,
    "seed": 0, "seeds": 0, "epochs": 1, "batch": 1, "corrector_dim": 1, "corrector_epochs": 1,
    "zipf_exponent": 0, "radius": 0, "corrector_radius": 0, "corrector_rounds": 0,
}
_UNIT_INTERVAL = ("rho", "theta")
_POSITIVE_FINITE = ("lr", "corrector_lr")
_DISTINCT = ("seeds",)


def check_value(key: str, value) -> None:
    """Raise ``ConfigError`` naming ``key`` when ``value`` breaks its rule."""
    if key in _CHOICES and value not in _CHOICES[key]:
        allowed = " or ".join(repr(c) for c in _CHOICES[key])
        raise ConfigError(key, f"must be {allowed}, got {value!r}")
    entries = value if isinstance(value, tuple) else (value,)
    if key in _AT_LEAST and not all(v >= _AT_LEAST[key] for v in entries):
        raise ConfigError(key, f"must be >= {_AT_LEAST[key]}, got {value}")
    if key in _UNIT_INTERVAL and not 0.0 <= value <= 1.0:
        raise ConfigError(key, f"must be in [0,1], got {value}")
    if key in _POSITIVE_FINITE and not (math.isfinite(value) and value > 0.0):
        raise ConfigError(key, f"must be finite and > 0, got {value}")
    if key in _DISTINCT and len(set(value)) != len(value):
        raise ConfigError(key, f"must not repeat an entry, got {value}")


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


@dataclass(frozen=True)
class RunDir:
    """Output directory of a run and the ``config_hash=`` comment that
    starts every CSV written there."""

    path: str
    stamp: str

    def write_csv(self, name: str, header: str, rows: Iterable[Iterable]) -> None:
        write_csv(os.path.join(self.path, name), header, rows, [self.stamp])


def start_run(cfg: ExperimentConfig, files: Iterable[str] = ()) -> RunDir:
    """The prologue of every run: validate ``cfg``, create its output
    directory and that of each further output file in ``files``, before any
    training, and hash ``cfg``."""
    validate_config(cfg)
    run = RunDir(cfg.output_dir, f"config_hash={config_hash(cfg)}")
    for directory in (run.path, *(os.path.dirname(f) for f in files)):
        if directory:
            os.makedirs(directory, exist_ok=True)
    return run


def write_training_csvs(run: RunDir, history: list[EpochStats], freq: FrequencyTable) -> None:
    """``learning_curve.csv`` (``epoch,loss,masked_acc``, loss per masked
    token) and ``frequency.csv`` of a trained predictor, as ``eval`` and
    ``train`` write them."""
    run.write_csv("learning_curve.csv", "epoch,loss,masked_acc",
                  [(row.epoch, row.loss_per_token, row.masked_acc) for row in history])
    save_frequency_csv(freq, os.path.join(run.path, "frequency.csv"), comment=run.stamp)


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
    # with a corrector, the report of the same decodes before correction
    uncorrected: MetricsReport | None = field(default=None, repr=False, compare=False)


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


def edit_distance(a: np.ndarray, b: np.ndarray) -> int | np.ndarray:
    """Levenshtein distance between two token sequences; for two (N, ·)
    arrays, the (N,) distances between their rows, by the same recurrence
    run over all rows at once."""
    a = np.asarray(a)
    b = np.asarray(b)
    rows_a, rows_b = np.atleast_2d(a), np.atleast_2d(b)
    idx = np.arange(rows_b.shape[1] + 1)
    prev = np.tile(idx, (rows_b.shape[0], 1))
    for i in range(1, rows_a.shape[1] + 1):
        sub = prev[:, :-1] + (rows_b != rows_a[:, i - 1 : i])
        cur = np.empty_like(prev)
        cur[:, 0] = i
        cur[:, 1:] = np.minimum(prev[:, 1:] + 1, sub)  # delete or substitute/match
        # insertion closes over prefixes: cur[j] = min_k<=j (cur[k] + j - k)
        prev = np.minimum.accumulate(cur - idx, axis=1) + idx
    return int(prev[0, -1]) if a.ndim == 1 else prev[:, -1]


def decode_all(
    model: PredictorModel, observations: np.ndarray, sched: ScheduleConfig, freq: FrequencyTable | None,
    corrector: CorrectorModel | None, theta: float, rounds: int, refill: ScheduleConfig | None,
    temperature: float, rngs: Iterable[np.random.Generator], uncorrected: bool = False,
) -> tuple[np.ndarray, ...]:
    """The one per-sequence inference loop over the rows of the (N, T)
    ``observations``, with one generator per row from ``rngs``. Each
    sequence is conditioned on its observation, given its rarity priors from
    ``freq`` (CTF only), decoded at ``temperature``, and, with a corrector,
    corrected with ``theta``, ``rounds`` and ``refill`` (see ``correct``).
    Returns the (N, T) decoded tokens and the (N, n_steps, 2) trace rows
    (open count, mean confidence) of every decode, and with ``uncorrected``
    the (N, T) decodes before correction after them.

    The rows are split into ``cpu_shards``; ``fan_out`` decodes the first
    here and each other in a forked child, and the parts are joined in row
    order. Rows are independent, so the result does not depend on the
    number of shards. The generators of rows decoded in a child are not
    advanced in this process.
    """
    rngs = list(rngs)
    n = observations.shape[0]
    if len(rngs) != n:
        raise ValueError(f"{len(rngs)} generators for {n} rows")

    def decode_rows(rows: slice) -> tuple[np.ndarray, ...]:
        decoded = np.empty_like(observations[rows])
        traces = np.empty((decoded.shape[0], sched.n_steps, 2))
        before = np.empty_like(decoded) if uncorrected else None
        for j, (obs, rng) in enumerate(zip(observations[rows], rngs[rows], strict=True)):
            ctx = build_conditioning(obs, model)
            p_base = sequence_base_probabilities(freq, obs) if sched.mode is MaskMode.CTF else None
            out, trace = decode(model, ctx, sched, rng=rng, temperature=temperature, p_base=p_base)
            if before is not None:
                before[j] = out
            if corrector is not None:
                out = correct(out, model, ctx, corrector, theta, rounds, refill=refill, p_base=p_base)
            decoded[j] = out
            traces[j] = [(row.open_count, row.mean_confidence) for row in trace]
        return (decoded, traces) if before is None else (decoded, traces, before)

    return tuple(np.concatenate(arrays) for arrays in zip(*fan_out(decode_rows, cpu_shards(n))))


def evaluate(
    model: PredictorModel,
    test_corpus: Corpus,
    freq: FrequencyTable,
    sched: ScheduleConfig,
    cfg: ExperimentConfig,
    eval_seed: int,
    corrector: CorrectorModel | None = None,
) -> MetricsReport:
    """Distort, decode and correct every held-out sequence and score it
    against the clean tokens. Each sequence draws from its own RNG stream
    derived from ``eval_seed``, so results do not depend on evaluation order.

    With a corrector, the report's ``uncorrected`` field scores the same
    decodes before correction: the report ``evaluate`` gives without the
    corrector, since a greedy decode draws nothing from its stream.
    """
    clean = test_corpus.tokens
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(eval_seed).spawn(test_corpus.num_docs)]
    distorted = np.stack([corrupt_sequence(row, test_corpus.vocab_size, cfg.rho, rng) for row, rng in zip(clean, rngs)])
    decoded, traces, *before = decode_all(
        model, distorted, sched, freq, corrector, cfg.theta, cfg.corrector_rounds,
        refill=None, temperature=0.0, rngs=rngs, uncorrected=corrector is not None,
    )
    # per-step means of 1-D columns: a mean over axis 0 sums in another order
    mean_trace = [(i, float(traces[:, i, 0].mean()), float(traces[:, i, 1].mean())) for i in range(sched.n_steps)]
    report = _score(decoded, clean, freq, mean_trace)
    if before:
        report.uncorrected = _score(before[0], clean, freq, mean_trace)
    return report


def _score(decoded: np.ndarray, clean: np.ndarray, freq: FrequencyTable, step_trace: list) -> MetricsReport:
    """The report of (N, T) ``decoded`` tokens against the ``clean`` ones."""
    hit = decoded == clean
    deciles = frequency_deciles(freq)[clean]
    dec_hits = np.bincount(deciles[hit], minlength=10)
    dec_total = np.bincount(deciles.ravel(), minlength=10)
    n = clean.shape[0]
    return MetricsReport(
        overall_accuracy=int(hit.sum()) / clean.size,
        exact_match=int(hit.all(axis=1).sum()) / n,
        mean_edit_distance=int(edit_distance(decoded, clean).sum()) / n,
        decile_accuracy=[float(h / t) if t else float("nan") for h, t in zip(dec_hits, dec_total)],
        decile_counts=[int(c) for c in dec_total],
        step_trace=list(step_trace),
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


def build_pipeline(cfg: ExperimentConfig) -> TrainedPipeline:
    """Generate corpora, fit the predictor (and corrector if enabled)."""
    train_corpus, test_corpus, freq = _corpora(cfg)
    sched, model, history = _fit_predictor(cfg, train_corpus, freq)
    corrector = fit_corrector(cfg, train_corpus)[0] if cfg.use_corrector else None
    return TrainedPipeline(
        train_corpus=train_corpus, test_corpus=test_corpus, freq=freq, sched=sched,
        model=model, history=history, corrector=corrector, eval_seed=derive_seeds(cfg.seed)["eval"],
    )


def _corpora(cfg: ExperimentConfig) -> tuple[Corpus, Corpus, FrequencyTable]:
    """The training corpus of ``cfg``, its held-out docs and the training
    corpus's frequency table.

    The held-out docs are the tail of one generation whose head is the
    training corpus, so both share one transition structure. Generation is
    prefix-stable, so the head equals a generation of ``num_docs`` alone.
    """
    docs = generate_corpus(
        cfg.vocab_size, cfg.num_docs + cfg.test_docs, cfg.seq_len, cfg.zipf_exponent, cfg.markov_order,
        derive_seeds(cfg.seed)["train_corpus"],
    )
    train_corpus = replace(docs, tokens=docs.tokens[: cfg.num_docs])
    return train_corpus, replace(docs, tokens=docs.tokens[cfg.num_docs :]), document_frequency(train_corpus)


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


def run_experiment(cfg: ExperimentConfig) -> MetricsReport:
    """End-to-end run with all CSV artifacts written to the output directory."""
    run = start_run(cfg)
    pipe = build_pipeline(cfg)
    report = evaluate(pipe.model, pipe.test_corpus, pipe.freq, pipe.sched, cfg, pipe.eval_seed, pipe.corrector)

    run.write_csv("metrics.csv", "overall_accuracy,exact_match,mean_edit_distance",
                  [(report.overall_accuracy, report.exact_match, report.mean_edit_distance)])
    token_deciles = frequency_deciles(pipe.freq)
    run.write_csv(
        "deciles.csv",
        "decile,token_count,position_count,accuracy",
        [
            (d, int((token_deciles == d).sum()), report.decile_counts[d], report.decile_accuracy[d])
            for d in range(10)
        ],
    )
    run.write_csv("decode_trace.csv", "step,open_count,mean_confidence", report.step_trace)
    write_training_csvs(run, pipe.history, pipe.freq)
    return report


def ablate_steps(cfg: ExperimentConfig) -> list[tuple[int, float, float]]:
    """One decode evaluation per step count of ``cfg.ablate_steps``, sharing
    the trained model and all seeds. Emits ``n_steps,accuracy,edit_distance``."""
    if not cfg.ablate_steps or min(cfg.ablate_steps) < 1 or max(cfg.ablate_steps) > cfg.seq_len:
        raise ConfigError("ablate_steps", f"need step counts in [1, seq_len {cfg.seq_len}], got {cfg.ablate_steps}")
    run = start_run(cfg)

    pipe = build_pipeline(cfg)
    rows = []
    for n in cfg.ablate_steps:
        sched_n = replace(pipe.sched, n_steps=n)
        report = evaluate(pipe.model, pipe.test_corpus, pipe.freq, sched_n, cfg, pipe.eval_seed, pipe.corrector)
        rows.append((n, report.overall_accuracy, report.mean_edit_distance))
    run.write_csv("ablate_steps.csv", "n_steps,accuracy,edit_distance", rows)
    return rows


def compare_masking_modes(cfg: ExperimentConfig) -> dict[tuple[int, str, bool], MetricsReport]:
    """Four cells (uniform/ctf x corrector off/on) per seed, with shared
    corpora and seeds across cells; both cells of a mode score one decode
    of its model, before and after correction. Returns reports keyed by
    (seed, mode, corrector_on) and writes summary plus per-decile CSVs."""
    if not cfg.seeds:
        raise ConfigError("seeds", "need at least one seed for paired comparisons")
    run = start_run(cfg)

    # corpora, frequency table and corrector do not depend on the mode, and
    # each stage draws from its own sub-seed: they are built once per seed,
    # and only the predictor is trained per mode. Every training runs at
    # once through train_cells. The two predictors train in about nine
    # times the corrector's time, the CTF one a few per cent the longer, so
    # it comes first: on two CPUs it has one to itself, and the uniform
    # predictor shares the second with the corrector.
    setups = [(seed, *_corpora(replace(cfg, seed=seed))) for seed in cfg.seeds]
    cells = []
    for seed, train_corpus, _, freq in setups:
        cells += [
            partial(_fit_predictor, replace(cfg, seed=seed, mask_mode=mode), train_corpus, freq)
            for mode in ("ctf", "uniform")
        ]
        cells.append(partial(fit_corrector, replace(cfg, seed=seed), train_corpus))
    trained = train_cells(cells)

    results: dict[tuple[int, str, bool], MetricsReport] = {}
    summary_rows = []
    decile_rows = []
    for i, (seed, _, test_corpus, freq) in enumerate(setups):
        ctf, uniform, (corrector, _) = trained[3 * i : 3 * i + 3]
        for mode, (sched, model, _) in (("uniform", uniform), ("ctf", ctf)):
            # one decode per model: the corrector-off cell scores it before correction
            corrected = evaluate(model, test_corpus, freq, sched, cfg, derive_seeds(seed)["eval"], corrector)
            for use_corr, report in ((False, corrected.uncorrected), (True, corrected)):
                results[(seed, mode, use_corr)] = report
                cell = (seed, mode, int(use_corr))
                summary_rows.append(
                    (*cell, report.overall_accuracy, report.exact_match, report.mean_edit_distance,
                     report.decile_accuracy[0], report.decile_counts[0])
                )
                decile_rows.extend((*cell, d, report.decile_counts[d], report.decile_accuracy[d]) for d in range(10))
    run.write_csv(
        "compare_modes.csv",
        "seed,mask_mode,corrector,overall_accuracy,exact_match,mean_edit_distance,bottom_decile_accuracy,bottom_decile_count",
        summary_rows,
    )
    run.write_csv("compare_modes_deciles.csv", "seed,mask_mode,corrector,decile,position_count,accuracy", decile_rows)
    return results
