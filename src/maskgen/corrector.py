"""Suspicion scoring for decoded sequences: detect likely-wrong tokens,
re-mask them, and route them back through the predictor, a (T,) sequence
or a (B, T) block at a time.

The scorer shares the predictor's feature scheme -- embed each token,
concatenate a window of radius ``radius`` around the position -- but maps
the feature to a single logit per position. It is trained on synthetically
corrupted ground truth: for each training sequence a corruption rate is
drawn uniformly from (0, max_rate], that fraction of positions is
substituted at random, and the scorer learns to flag the substituted
positions with a binary cross-entropy objective and exact hand-derived
gradients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blas import one_blas_thread
from .corpus import Corpus, apply_substitution, draw_substitution
from .decoder import decode
from .errors import NumericsError
from .predictor import (
    ConditioningContext,
    PredictorModel,
    read_checkpoint,
    window,
    window_adjoint,
    write_checkpoint,
)
from .schedule import ScheduleConfig, apply_mask

CORRECTOR_MAGIC = b"MGCORR\x00\x01"


@dataclass
class CorrectorModel:
    embedding: np.ndarray  # (V, D)
    w: np.ndarray  # (D*(2r+1),)
    b: float
    radius: int

    @property
    def vocab_size(self) -> int:
        return self.embedding.shape[0]

    @property
    def dim(self) -> int:
        return self.embedding.shape[1]


@dataclass
class CorrectorVerdict:
    suspicion: np.ndarray  # ([B,] T) in (0, 1)
    remask: np.ndarray  # ([B,] T) int8; 1 where suspicion > threshold


@dataclass
class CorrectorTrainConfig:
    lr: float
    epochs: int
    seed: int
    dim: int
    radius: int
    max_rate: float = 0.3


@dataclass
class CorrectorEpochStats:
    epoch: int
    loss_per_position: float


def init_corrector(vocab_size: int, dim: int, radius: int, rng: np.random.Generator) -> CorrectorModel:
    feat = dim * (2 * radius + 1)
    return CorrectorModel(
        embedding=0.1 * rng.standard_normal((vocab_size, dim)),
        w=(0.1 / np.sqrt(feat)) * rng.standard_normal(feat),
        b=0.0,
        radius=radius,
    )


def corrupt_for_training(
    clean: np.ndarray,
    vocab_size: int,
    max_rate: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Substitute a random fraction of positions and return the labels.

    The fraction is drawn uniformly from (0, max_rate] per call.
    Substituted positions always receive a different token and carry
    label 1.
    """
    if not 0.0 < max_rate <= 1.0:
        raise ValueError(f"max_rate must be in (0, 1], got {max_rate}")
    u = float(rng.uniform(0.0, max_rate))
    corrupted, hit = apply_substitution(clean, vocab_size, u, draw_substitution(len(clean), vocab_size, u, rng))
    return corrupted, hit.astype(np.int8)


def _features(model: CorrectorModel, tokens: np.ndarray) -> np.ndarray:
    return window(model.embedding[tokens], model.radius)


def suspicion_scores(model: CorrectorModel, tokens: np.ndarray) -> np.ndarray:
    """Per-position probability-of-corruption via sigmoid of the logits."""
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.min(initial=0) < 0 or tokens.max(initial=0) >= model.vocab_size:
        raise ValueError("token id outside [0, vocab_size)")
    logits = _features(model, tokens) @ model.w + model.b
    return 1.0 / (1.0 + np.exp(-logits))


def bce_loss_and_grads(
    model: CorrectorModel, tokens: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray, float]:
    """Summed binary cross entropy with gradients (embedding, w, b)."""
    tokens = np.asarray(tokens, dtype=np.int64)
    y = np.asarray(labels, dtype=np.float64)
    feats = _features(model, tokens)
    logits = feats @ model.w + model.b
    # stable: ln sigma(s) = -softplus(-s), ln(1-sigma(s)) = -softplus(s)
    loss = float((y * np.logaddexp(0.0, -logits) + (1.0 - y) * np.logaddexp(0.0, logits)).sum())

    dlogits = 1.0 / (1.0 + np.exp(-logits)) - y
    g_w = feats.T @ dlogits
    g_b = float(dlogits.sum())

    du = window_adjoint(np.outer(dlogits, model.w), model.radius, model.dim)
    g_e = np.zeros_like(model.embedding)
    np.add.at(g_e, tokens, du)
    return loss, g_e, g_w, g_b


@one_blas_thread()
def train_corrector(
    corpus: Corpus, hyper: CorrectorTrainConfig
) -> tuple[CorrectorModel, list[CorrectorEpochStats]]:
    """Per-sequence SGD on the substitution-detection objective, on one
    OpenBLAS thread (see ``blas``)."""
    rng = np.random.default_rng(hyper.seed)
    model = init_corrector(corpus.vocab_size, hyper.dim, hyper.radius, rng)
    n, t = corpus.num_docs, corpus.seq_len
    history: list[CorrectorEpochStats] = []
    for epoch in range(hyper.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for j in order:
            corrupted, labels = corrupt_for_training(
                corpus.tokens[j], corpus.vocab_size, hyper.max_rate, rng
            )
            loss, g_e, g_w, g_b = bce_loss_and_grads(model, corrupted, labels)
            if not np.isfinite(loss):
                raise NumericsError(f"non-finite corrector loss {loss} at epoch {epoch}, example {j}")
            scale = hyper.lr / t
            model.embedding -= scale * g_e
            model.w -= scale * g_w
            model.b -= scale * g_b
            epoch_loss += loss
        history.append(CorrectorEpochStats(epoch=epoch, loss_per_position=epoch_loss / (n * t)))
    return model, history


def detect_and_remask(tokens: np.ndarray, model: CorrectorModel, threshold: float) -> CorrectorVerdict:
    """Flag positions whose suspicion exceeds the threshold.

    Suspicion lives in the open interval (0, 1), so threshold 1 never
    flags anything and threshold 0 flags everything.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    s = suspicion_scores(model, tokens)
    return CorrectorVerdict(suspicion=s, remask=(s > threshold).astype(np.int8))


def correct(
    decoded: np.ndarray,
    predictor: PredictorModel,
    ctx: ConditioningContext,
    corrector: CorrectorModel,
    threshold: float,
    rounds: int,
    refill: ScheduleConfig | None = None,
    p_base: np.ndarray | None = None,
) -> np.ndarray:
    """Re-mask suspicious positions and refill them, up to ``rounds`` times,
    in a (T,) sequence or each row of a (B, T) block, ``ctx`` and ``p_base``
    of the same shape.

    Each round scores the rows not yet at a fixed point, masks every flagged
    position, and refills them by one greedy lockstep ``decode`` under the
    ``refill`` schedule. ``None`` means one step: a single forward pass whose
    argmax commits every flagged position. A row stops when nothing in it is
    flagged or a round leaves it unchanged (identical input would be flagged
    and refilled identically); a stopped row opens nothing, so each row ends
    bit for bit as its own call would. Positions never flagged are never
    modified; rounds=0 is the identity. Raises ``NumericsError`` when the
    suspicion scores or the refill probabilities are not finite.
    """
    if rounds < 0:
        raise ValueError(f"rounds must be >= 0, got {rounds}")
    if refill is None:
        refill = ScheduleConfig(n_steps=1)
    current = np.asarray(decoded, dtype=np.int64).copy()
    rows = current.reshape(-1, current.shape[-1])  # a view: one sequence is a block of one
    active = np.ones(rows.shape[0], dtype=bool)  # the rows not yet at a fixed point
    for r in range(rounds):
        if not active.any():
            break
        verdict = detect_and_remask(current if current.ndim == 1 else rows[active], corrector, threshold)
        if not np.isfinite(verdict.suspicion).all():
            raise NumericsError(f"non-finite suspicion scores in correction round {r}")
        remask = np.zeros(rows.shape, dtype=np.int8)
        remask[active] = verdict.remask
        active &= remask.any(axis=1)
        if not active.any():
            break
        masked = apply_mask(current, remask.reshape(current.shape), predictor.mask_token_id)
        refilled = decode(predictor, ctx, refill, p_base=p_base, initial=masked)[0].reshape(rows.shape)
        active &= (refilled != rows).any(axis=1)
        rows[:] = refilled
    return current


# ---------------------------------------------------------------------------
# Checkpoints: the predictor's format with its own magic; the bias is a
# one-element block.


def save_corrector(model: CorrectorModel, path) -> None:
    vdr = (model.vocab_size, model.dim, model.radius)
    write_checkpoint(path, CORRECTOR_MAGIC, vdr, [model.embedding, model.w, np.array([model.b])])


def load_corrector(path) -> CorrectorModel:
    r, (embedding, w, b) = read_checkpoint(
        path, CORRECTOR_MAGIC, "corrector", lambda v, d, r: [(v, d), (d * (2 * r + 1),), (1,)]
    )
    return CorrectorModel(embedding=embedding, w=w, b=float(b[0]), radius=r)
