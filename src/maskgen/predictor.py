"""Trainable masked-token predictor with exact hand-derived gradients.

The model is a windowed linear-softmax classifier: each position embeds the
token occupying it (mask token included, as row V of the embedding table),
adds the per-position conditioning vector, concatenates the embeddings in a
window of radius r around the position (zero padding at the edges), adds a
global conditioning vector to the center block, and maps the feature through
a linear layer to per-token logits.

Conditioning is derived from the distorted observation: one embedding per
position plus the mean embedding as the global vector. Gradients flow
through that derivation, so the embedding table receives contributions from
both the masked sequence and the conditioning route; the analytic gradients
below account for all of them and are validated against finite differences.

The training objective is cross entropy summed over masked positions only;
unmasked positions contribute exactly zero gradient.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .corpus import Corpus, FrequencyTable, corrupt_sequence, sequence_base_probabilities
from .errors import NumericsError
from .schedule import (
    MaskMode,
    ScheduleConfig,
    apply_mask,
    cosine_probability,
    ctf_probabilities,
    sample_mask,
)

CHECKPOINT_MAGIC = b"MGPRED\x00\x01"
CHECKPOINT_VERSION = 1


@dataclass
class PredictorModel:
    embedding: np.ndarray  # (V+1, D); row V is the mask token
    out_w: np.ndarray  # (D*(2r+1), V)
    out_b: np.ndarray  # (V,)
    radius: int
    version: int = CHECKPOINT_VERSION
    final_loss: float | None = None  # mean masked CE of the last epoch; not serialized

    @property
    def vocab_size(self) -> int:
        return self.embedding.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.embedding.shape[1]

    @property
    def mask_token_id(self) -> int:
        return self.vocab_size

    @property
    def feature_dim(self) -> int:
        return self.dim * (2 * self.radius + 1)


@dataclass
class ConditioningContext:
    """Per-position conditioning vectors plus one global vector.

    ``source_tokens`` records which distorted token produced each vector so
    the backward pass can route gradient into the embedding table.
    """

    cond: np.ndarray  # (T, D)
    global_embed: np.ndarray  # (D,)
    source_tokens: np.ndarray  # (T,) int64

    @property
    def seq_len(self) -> int:
        return self.cond.shape[0]


@dataclass
class PredictionOutput:
    probs: np.ndarray  # (T, V), rows sum to 1
    _cache: "_ForwardCache" = field(repr=False)


@dataclass
class _ForwardCache:
    model: PredictorModel
    masked: np.ndarray  # (T,) input ids, mask token allowed
    features: np.ndarray  # (T, F)
    ctx: ConditioningContext


@dataclass
class PredictorGradients:
    embedding: np.ndarray
    out_w: np.ndarray
    out_b: np.ndarray
    logits: np.ndarray  # (T, V) gradient wrt logits; zero rows at unmasked positions


@dataclass
class TrainConfig:
    lr: float
    epochs: int
    batch: int
    rho: float  # substitution rate used to build conditioning
    seed: int
    dim: int = 32
    radius: int = 1  # window small enough that commits extend the receptive field


@dataclass
class EpochStats:
    epoch: int
    loss_sum: float  # summed masked CE over the epoch
    loss_per_token: float  # loss_sum / masked count
    masked_acc: float


def init_model(vocab_size: int, dim: int, radius: int, rng: np.random.Generator) -> PredictorModel:
    if vocab_size < 1 or dim < 1 or radius < 0:
        raise ValueError("need vocab_size >= 1, dim >= 1, radius >= 0")
    feat = dim * (2 * radius + 1)
    return PredictorModel(
        embedding=0.1 * rng.standard_normal((vocab_size + 1, dim)),
        out_w=(0.1 / np.sqrt(feat)) * rng.standard_normal((feat, vocab_size)),
        out_b=np.zeros(vocab_size),
        radius=radius,
    )


def build_conditioning(distorted: np.ndarray, model: PredictorModel) -> ConditioningContext:
    """Embed the distorted observation; global vector is the mean embedding."""
    distorted = np.asarray(distorted, dtype=np.int64)
    if distorted.min(initial=0) < 0 or distorted.max(initial=0) >= model.vocab_size:
        raise ValueError("distorted token id outside [0, vocab_size)")
    cond = model.embedding[distorted]
    return ConditioningContext(cond=cond, global_embed=cond.mean(axis=0), source_tokens=distorted)


def window(u: np.ndarray, r: int) -> np.ndarray:
    """(T, D*(2r+1)) windowed concatenation of the (T, D) rows of ``u``:
    block c of row t is row t + c - r, zero outside the sequence. The
    predictor and the corrector build their features with it."""
    t, d = u.shape
    padded = np.zeros((t + 2 * r, d))
    padded[r : r + t] = u
    return np.concatenate([padded[c : c + t] for c in range(2 * r + 1)], axis=1)


def window_adjoint(dfeats: np.ndarray, r: int, d: int) -> np.ndarray:
    """(T, D) gradient wrt ``u`` of a loss whose gradient wrt
    ``window(u, r)`` is ``dfeats``: position j collects the block of every
    window it appears in."""
    t = dfeats.shape[0]
    blocks = dfeats.reshape(t, 2 * r + 1, d)
    du = np.zeros((t, d))
    for c in range(2 * r + 1):
        k = c - r  # block c of window t covers position t + k
        t_lo, t_hi = max(0, -k), min(t, t - k)
        if t_lo < t_hi:
            du[t_lo + k : t_hi + k] += blocks[t_lo:t_hi, c]
    return du


def _window_features(model: PredictorModel, inputs: np.ndarray, ctx: ConditioningContext) -> np.ndarray:
    """(T, F) features: windowed concatenation of per-position vectors with
    the global vector added to the center block."""
    r, d = model.radius, model.dim
    feats = window(model.embedding[inputs] + ctx.cond, r)
    feats[:, r * d : (r + 1) * d] += ctx.global_embed
    return feats


def forward(
    model: PredictorModel,
    masked: np.ndarray,
    ctx: ConditioningContext,
    positions: np.ndarray | None = None,
) -> PredictionOutput:
    """Per-position probability vectors over the vocabulary.

    With ``positions`` only those rows are normalized and returned, in the
    given order: ``probs`` is then (len(positions), V) and equals the
    matching rows of the full output bit for bit. The logits are still
    computed for the whole sequence, because a matrix product over fewer
    rows may round differently.
    """
    masked = np.asarray(masked, dtype=np.int64)
    if masked.shape[0] != ctx.seq_len:
        raise ValueError(f"sequence length {masked.shape[0]} != conditioning length {ctx.seq_len}")
    if masked.min(initial=0) < 0 or masked.max(initial=0) > model.vocab_size:
        raise ValueError("input token id outside [0, vocab_size] (mask token is vocab_size)")
    feats = _window_features(model, masked, ctx)
    logits = feats @ model.out_w + model.out_b
    if positions is not None:
        logits = logits[positions]
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    probs = np.exp(logp)
    return PredictionOutput(probs=probs, _cache=_ForwardCache(model=model, masked=masked, features=feats, ctx=ctx))


def masked_ce_loss(
    pred: PredictionOutput, target: np.ndarray, mask: np.ndarray
) -> tuple[float, PredictorGradients]:
    """Cross entropy summed over masked positions, with analytic gradients
    for every parameter block (embedding via both the input and the
    conditioning routes, output weights, bias)."""
    target = np.asarray(target, dtype=np.int64)
    mask = np.asarray(mask)
    cache = pred._cache
    model, t = cache.model, target.shape[0]
    if pred.probs.shape[0] != t or mask.shape[0] != t:
        raise ValueError("target / mask / prediction lengths disagree")
    r, d = model.radius, model.dim

    m = mask.astype(np.float64)
    # sum only over masked positions; an unmasked position with an
    # underflowed probability must not poison the loss with 0 * -inf
    on = np.flatnonzero(mask == 1)
    loss = float(-np.log(pred.probs[on, target[on]]).sum()) if on.size else 0.0

    dlogits = pred.probs.copy()
    dlogits[np.arange(t), target] -= 1.0
    dlogits *= m[:, None]

    g_w = cache.features.T @ dlogits
    g_b = dlogits.sum(axis=0)

    dfeats = dlogits @ model.out_w.T
    du = window_adjoint(dfeats, r, d)
    dg = dfeats[:, r * d : (r + 1) * d].sum(axis=0)  # center block also feeds the global vector
    dcond = du + dg / t  # global vector is the mean of the cond rows

    g_e = np.zeros_like(model.embedding)
    np.add.at(g_e, cache.masked, du)
    np.add.at(g_e, cache.ctx.source_tokens, dcond)
    return loss, PredictorGradients(embedding=g_e, out_w=g_w, out_b=g_b, logits=dlogits)


def example_loss(
    model: PredictorModel,
    distorted: np.ndarray,
    masked: np.ndarray,
    target: np.ndarray,
    mask: np.ndarray,
) -> tuple[float, PredictorGradients]:
    """Full pipeline for one example: conditioning, forward, masked CE.

    This is the exact function the finite-difference check perturbs, so the
    returned gradients include the conditioning route.
    """
    ctx = build_conditioning(distorted, model)
    return masked_ce_loss(forward(model, masked, ctx), target, mask)


def _sample_step(n_steps: int, rng: np.random.Generator) -> int:
    # endpoints are excluded in training: step N has no masked positions
    # (zero gradient) and step 0 is plain all-masked, still reachable at
    # small steps; n_steps == 1 leaves only the fully masked step
    if n_steps == 1:
        return 0
    return int(rng.integers(1, n_steps))


def train(
    corpus: Corpus,
    freq: FrequencyTable,
    sched: ScheduleConfig,
    hyper: TrainConfig,
) -> tuple[PredictorModel, list[EpochStats]]:
    """SGD on the masked cross-entropy objective.

    Per example: corrupt the clean sequence for conditioning, sample a
    schedule step, compute masking probabilities (uniform cosine or
    coarse-to-fine), sample and apply the mask, accumulate gradients. The
    update divides the summed gradient by the batch's masked-token count.
    Deterministic for a fixed seed.
    """
    v = corpus.vocab_size
    if sched.mask_token_id != v:
        raise ValueError(f"mask_token_id must be vocab_size ({v}), got {sched.mask_token_id}")
    if sched.mode is MaskMode.CTF and freq.idf is None:
        raise ValueError("CTF mode needs a frequency table with idf populated")
    rng = np.random.default_rng(hyper.seed)
    model = init_model(v, hyper.dim, hyper.radius, rng)
    n, t = corpus.num_docs, corpus.seq_len
    history: list[EpochStats] = []

    for epoch in range(hyper.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        epoch_masked = 0
        epoch_correct = 0
        for start in range(0, n, hyper.batch):
            idx = order[start : start + hyper.batch]
            g_e = np.zeros_like(model.embedding)
            g_w = np.zeros_like(model.out_w)
            g_b = np.zeros_like(model.out_b)
            batch_masked = 0
            for j in idx:
                clean = corpus.tokens[j]
                distorted = corrupt_sequence(clean, v, hyper.rho, rng) if hyper.rho > 0 else clean.copy()
                ctx = build_conditioning(distorted, model)
                step = _sample_step(sched.n_steps, rng)
                if sched.mode is MaskMode.CTF:
                    p_base = sequence_base_probabilities(freq, clean)
                    probs = ctf_probabilities(p_base, step, sched.n_steps, sched.convention)
                else:
                    probs = np.full(t, cosine_probability(step, sched.n_steps))
                mv = sample_mask(probs, rng)
                masked = apply_mask(clean, mv.m, sched.mask_token_id)
                pred = forward(model, masked, ctx)
                loss, grads = masked_ce_loss(pred, clean, mv.m)
                if not np.isfinite(loss):
                    raise NumericsError(
                        f"non-finite loss {loss} at epoch {epoch}, example {j}, step {step}"
                    )
                g_e += grads.embedding
                g_w += grads.out_w
                g_b += grads.out_b
                n_masked = int(mv.m.sum())
                batch_masked += n_masked
                if n_masked:
                    hits = (pred.probs.argmax(axis=1) == clean) & (mv.m == 1)
                    epoch_correct += int(hits.sum())
                epoch_loss += loss
            if batch_masked > 0:
                scale = hyper.lr / batch_masked
                model.embedding -= scale * g_e
                model.out_w -= scale * g_w
                model.out_b -= scale * g_b
            epoch_masked += batch_masked
        per_token = epoch_loss / epoch_masked if epoch_masked else 0.0
        acc = epoch_correct / epoch_masked if epoch_masked else 0.0
        history.append(EpochStats(epoch=epoch, loss_sum=epoch_loss, loss_per_token=per_token, masked_acc=acc))
    model.final_loss = history[-1].loss_per_token if history else None
    return model, history


def write_learning_curve(history: list[EpochStats], path, comment: str | None = None) -> None:
    """CSV ``epoch,loss,masked_acc``; loss is the per-masked-token mean."""
    with open(path, "w") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        fh.write("epoch,loss,masked_acc\n")
        for row in history:
            fh.write(f"{row.epoch},{row.loss_per_token!r},{row.masked_acc!r}\n")


# ---------------------------------------------------------------------------
# Checkpoint format, shared by predictor and corrector: 8 magic bytes, then
# <u4 version, V, D, r, then the parameter blocks as little-endian float64
# (row-major) in a fixed order per model kind. The file ends exactly after
# the last block.


def write_checkpoint(path, magic: bytes, header: tuple[int, int, int, int], blocks: list[np.ndarray]) -> None:
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<4I", *header))
        for block in blocks:
            fh.write(np.asarray(block).astype("<f8").tobytes())


def read_checkpoint(path, magic: bytes, kind: str, shapes) -> tuple[int, list[np.ndarray]]:
    """The radius r and the parameter blocks, whose shapes ``shapes(V, D, r)``
    gives. Raises ``ValueError`` on a wrong magic, an unsupported version or
    a file whose length is not exactly what its header implies."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[: len(magic)] != magic:
        raise ValueError(f"not a {kind} checkpoint (magic {data[: len(magic)]!r})")
    head = len(magic) + 16
    if len(data) < head:
        raise ValueError(f"{kind} checkpoint header truncated: {len(data)} bytes")
    version, v, d, r = struct.unpack_from("<4I", data, len(magic))
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    block_shapes = shapes(v, d, r)
    sizes = [math.prod(shape) for shape in block_shapes]
    if len(data) != head + 8 * sum(sizes):
        raise ValueError(
            f"{kind} checkpoint has {len(data)} bytes, expected {head + 8 * sum(sizes)} for V={v} D={d} r={r}"
        )
    blocks, offset = [], head
    for shape, n in zip(block_shapes, sizes):
        blocks.append(np.frombuffer(data, dtype="<f8", count=n, offset=offset).reshape(shape).astype(np.float64))
        offset += 8 * n
    return r, blocks


def save_predictor(model: PredictorModel, path) -> None:
    header = (model.version, model.vocab_size, model.dim, model.radius)
    write_checkpoint(path, CHECKPOINT_MAGIC, header, [model.embedding, model.out_w, model.out_b])


def load_predictor(path) -> PredictorModel:
    r, (embedding, out_w, out_b) = read_checkpoint(
        path, CHECKPOINT_MAGIC, "predictor", lambda v, d, r: [(v + 1, d), (d * (2 * r + 1), v), (v,)]
    )
    return PredictorModel(embedding=embedding, out_w=out_w, out_b=out_b, radius=r)
