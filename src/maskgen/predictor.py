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

``build_conditioning``, ``forward``, ``masked_ce_loss``, ``window`` and
``window_adjoint`` take either one sequence ((T,) ids, (T, D) rows) or a
batch with a leading axis ((B, T), (B, T, D)); one sequence is the B = 1
case of the same code. Training runs each minibatch as one batched pass
that reproduces per-example SGD bit for bit, and normalizes, scores and
differentiates only the batch's masked rows. The matrix products run as
``np.matmul`` over the stacked sequences, which makes for each sequence the
same BLAS call that a single-sequence pass makes; a single product over all
B*T rows would round differently when T is 1, where numpy switches from a
matrix product to a vector product. Every sum that runs across examples
(loss, output-weight, bias and embedding gradients) is taken per example
and added in example order, the order the per-example loop used.

Training runs on one OpenBLAS thread and keeps the heap pages that each
minibatch frees for the next one (see ``blas``).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .blas import keep_freed_heap, one_blas_thread
from .corpus import Corpus, FrequencyTable, apply_substitution, draw_substitution, sequence_base_probabilities
from .errors import NumericsError
from .schedule import (
    MaskMode,
    ScheduleConfig,
    apply_mask,
    cosine_probability,
    ctf_probabilities,
    threshold_mask,
)

CHECKPOINT_MAGIC = b"MGPRED\x00\x01"
CHECKPOINT_VERSION = 1


@dataclass
class PredictorModel:
    embedding: np.ndarray  # (V+1, D); row V is the mask token
    out_w: np.ndarray  # (D*(2r+1), V)
    out_b: np.ndarray  # (V,)
    radius: int

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
    """Per-position conditioning vectors plus one global vector, for one
    sequence or, with a leading batch axis, for each sequence of a batch.

    ``source_tokens`` records which distorted token produced each vector so
    the backward pass can route gradient into the embedding table.
    """

    cond: np.ndarray  # ([B,] T, D)
    global_embed: np.ndarray  # ([B,] D)
    source_tokens: np.ndarray  # ([B,] T) int64

    @property
    def seq_len(self) -> int:
        return self.cond.shape[-2]


@dataclass
class PredictionOutput:
    probs: np.ndarray  # ([B,] T, V), or the rows ``forward``'s positions pick; rows sum to 1
    _cache: "_ForwardCache" = field(repr=False)


@dataclass
class _ForwardCache:
    model: PredictorModel
    masked: np.ndarray  # ([B,] T) input ids, mask token allowed
    features: np.ndarray  # ([B,] T, F)
    ctx: ConditioningContext
    positions: np.ndarray | None  # the rows ``probs`` holds; None for every row


@dataclass
class PredictorGradients:
    embedding: np.ndarray
    out_w: np.ndarray
    out_b: np.ndarray
    logits: np.ndarray  # ([B,] T, V) gradient wrt logits; zero rows at unmasked positions


@dataclass
class TrainConfig:
    lr: float
    epochs: int
    batch: int
    rho: float  # substitution rate used to build conditioning
    seed: int
    dim: int
    radius: int


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
    """Embed the distorted observation, (T,) ids or a (B, T) batch; the
    global vector of each sequence is its mean embedding."""
    distorted = np.asarray(distorted, dtype=np.int64)
    if distorted.min(initial=0) < 0 or distorted.max(initial=0) >= model.vocab_size:
        raise ValueError("distorted token id outside [0, vocab_size)")
    # the ids are checked, so "clip" clips nothing; "raise" would copy through a temporary
    cond = model.embedding.take(distorted, axis=0, mode="clip")
    return ConditioningContext(cond=cond, global_embed=cond.mean(axis=-2), source_tokens=distorted)


def window(u: np.ndarray, r: int) -> np.ndarray:
    """([B,] T, D*(2r+1)) windowed concatenation of the ([B,] T, D) rows of
    ``u``: block c of row t is row t + c - r of the same sequence, zero
    outside it. The predictor and the corrector build their features with
    it. The zero-padded rows are written once; window t is padded rows t to
    t + 2r, so all windows are one strided view of them, copied out in one
    pass."""
    t, d = u.shape[-2:]
    lead = u.shape[:-2]
    padded = np.zeros(lead + (t + 2 * r, d))
    padded[..., r : r + t, :] = u
    step = padded.strides
    windows = np.ndarray(lead + (t, 2 * r + 1, d), buffer=padded, strides=step[:-1] + step[-2:])
    # the reshape is still a view, with overlapping rows: the copy is the pass
    return windows.reshape(lead + (t, d * (2 * r + 1))).copy()


def window_adjoint(dfeats: np.ndarray, r: int, d: int, out: np.ndarray | None = None) -> np.ndarray:
    """([B,] T, D) gradient wrt ``u`` of a loss whose gradient wrt
    ``window(u, r)`` is ``dfeats``: position j collects the block of every
    window it appears in, in block order. Written in place into ``out``
    when given: block 0, zeros where it does not reach, then the other
    blocks added."""
    t = dfeats.shape[-2]
    blocks = dfeats.reshape(dfeats.shape[:-1] + (2 * r + 1, d))
    du = np.empty(dfeats.shape[:-1] + (d,)) if out is None else out
    # block 0 of window j + r covers position j, for j below t - r
    covered = max(0, t - r)
    du[..., :covered, :] = blocks[..., r:, 0, :]
    du[..., covered:, :] = 0.0
    for c in range(1, 2 * r + 1):
        k = c - r  # block c of window t covers position t + k
        t_lo, t_hi = max(0, -k), min(t, t - k)
        if t_lo < t_hi:
            du[..., t_lo + k : t_hi + k, :] += blocks[..., t_lo:t_hi, c, :]
    return du


def _window_features(model: PredictorModel, inputs: np.ndarray, ctx: ConditioningContext) -> np.ndarray:
    """([B,] T, F) features: windowed concatenation of per-position vectors
    with the global vector added to the center block."""
    r, d = model.radius, model.dim
    u = model.embedding.take(inputs, axis=0, mode="clip")
    u += ctx.cond
    feats = window(u, r)
    feats[..., r * d : (r + 1) * d] += ctx.global_embed[..., None, :]
    return feats


def forward(
    model: PredictorModel,
    masked: np.ndarray,
    ctx: ConditioningContext,
    positions: np.ndarray | None = None,
) -> PredictionOutput:
    """Per-position probability vectors over the vocabulary: (T, V) for
    (T,) input ids, (B, T, V) for a (B, T) batch.

    With ``positions`` only the rows it picks are normalized and returned,
    and each equals the matching row of the full output bit for bit. An
    index array picks the same rows of every sequence, in the given order:
    ``probs`` is then ([B,] len(positions), V). A bool array of the input's
    shape picks the rows where it is true, in row-major order: ``probs`` is
    then (K, V) for K true entries. The logits are still computed for the
    whole sequence, because a matrix product over fewer rows may round
    differently.
    """
    masked = np.asarray(masked, dtype=np.int64)
    if masked.shape != ctx.source_tokens.shape:
        raise ValueError(f"input shape {masked.shape} != conditioning shape {ctx.source_tokens.shape}")
    if masked.min(initial=0) < 0 or masked.max(initial=0) > model.vocab_size:
        raise ValueError("input token id outside [0, vocab_size] (mask token is vocab_size)")
    if positions is not None:
        positions = np.asarray(positions)
        if positions.dtype == bool and positions.shape != masked.shape:
            raise ValueError(f"row selection shape {positions.shape} != input shape {masked.shape}")
    feats = _window_features(model, masked, ctx)
    # per sequence, the product a single pass makes
    logits = np.matmul(feats, model.out_w)
    if positions is not None:
        logits = logits[..., positions, :]
    logits += model.out_b
    # log-softmax, then exp, in the logits' buffer
    logits -= logits.max(axis=-1, keepdims=True)
    logits -= np.log(np.exp(logits).sum(axis=-1, keepdims=True))
    probs = np.exp(logits, out=logits)
    cache = _ForwardCache(model=model, masked=masked, features=feats, ctx=ctx, positions=positions)
    return PredictionOutput(probs=probs, _cache=cache)


def masked_ce_loss(
    pred: PredictionOutput, target: np.ndarray, mask: np.ndarray
) -> tuple[float | np.ndarray, PredictorGradients]:
    """Cross entropy summed over masked positions, with analytic gradients
    for every parameter block (embedding via both the input and the
    conditioning routes, output weights, bias).

    For one sequence the loss is a float. For a (B, T) batch it is the (B,)
    array of per-example losses, and each parameter gradient is the sum of
    the per-example gradients added in example order, so it equals the sum
    of B single-sequence calls bit for bit.

    ``pred`` holds either every row or exactly the masked rows (``forward``
    with ``positions=mask == 1``); only the masked rows are scored and
    differentiated. ``grads.logits``, the gradient wrt the logits, is dense,
    with zero rows at unmasked positions, so the products with it are the
    ones a full pass makes. The prediction is spent: ``pred.probs`` becomes
    the logit gradient (written over it when it holds every row), and the
    gradient wrt the features is written over its cached features. Read
    ``pred.probs`` before the call.
    """
    target = np.asarray(target, dtype=np.int64)
    mask = np.asarray(mask)
    cache = pred._cache
    model = cache.model
    if cache.masked.shape != target.shape or mask.shape != target.shape:
        raise ValueError("target / mask / prediction shapes disagree")
    r, d, v, f = model.radius, model.dim, model.vocab_size, model.feature_dim
    t = target.shape[-1]
    # one sequence is a batch of one; these reshapes are views
    feats = cache.features.reshape(-1, t, f)
    targets = target.reshape(-1, t)
    on = mask.reshape(-1, t) == 1
    nb = targets.shape[0]
    # probs: the (K, V) masked rows in row-major order; dlogits: the dense
    # logit gradient, zero until they are written back into it
    if cache.positions is None:
        dlogits = pred.probs.reshape(-1, t, v)
        probs = dlogits[on]
        dlogits[...] = 0.0
    elif cache.positions.dtype == bool and np.array_equal(cache.positions.reshape(-1, t), on):
        probs = pred.probs
        dlogits = np.zeros((nb, t, v))
    else:
        raise ValueError("the prediction holds other rows than the masked ones")

    # each example's loss sums only its own masked rows, so an unmasked
    # position with an underflowed probability cannot poison it
    hit = (np.arange(probs.shape[0]), targets[on])
    log_p = np.log(probs[hit])
    counts = on.sum(axis=1)
    starts = np.cumsum(counts) - counts
    losses = np.zeros(nb)
    for b in np.flatnonzero(counts):
        losses[b] = -log_p[starts[b] : starts[b] + counts[b]].sum()
    probs[hit] -= 1.0
    dlogits[on] = probs
    # the prediction's own rows are spent: free them before the backward pass
    pred.probs = dlogits.reshape(target.shape + (v,))
    del probs

    g_w = np.zeros_like(model.out_w)
    g_b = np.zeros_like(model.out_b)
    for b in range(nb):
        g_w += feats[b].T @ dlogits[b]
        g_b += dlogits[b].sum(axis=0)

    dfeats = np.matmul(dlogits, model.out_w.T, out=feats)  # the features are spent
    # the input-route rows of every example, then its conditioning-route rows
    rows = np.empty((2, nb, t, d))
    du = window_adjoint(dfeats, r, d, out=rows[0])
    # the center block also feeds the global vector, the mean of the cond rows
    np.add(du, dfeats[..., r * d : (r + 1) * d].sum(axis=-2, keepdims=True) / t, out=rows[1])

    # per example, one scatter of both routes' rows into flat (token, k)
    # bins: the order of np.add.at over the same rows
    g_e = np.zeros_like(model.embedding)
    tokens = np.stack([cache.masked.reshape(-1, t), cache.ctx.source_tokens.reshape(-1, t)])
    cols = np.arange(d)
    for b in range(nb):
        bins = (tokens[:, b, :, None] * d + cols).ravel()
        g_e += np.bincount(bins, weights=rows[:, b].ravel(), minlength=g_e.size).reshape(g_e.shape)
    loss = float(losses[0]) if target.ndim == 1 else losses
    return loss, PredictorGradients(embedding=g_e, out_w=g_w, out_b=g_b, logits=pred.probs)


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


def _train_batch(
    model: PredictorModel,
    corpus: Corpus,
    priors: np.ndarray | None,
    sched: ScheduleConfig,
    hyper: TrainConfig,
    idx: np.ndarray,
    rng: np.random.Generator,
    epoch: int,
) -> tuple[list[float], int, int]:
    """One SGD step on the documents ``idx``, with ``priors`` the (N, T)
    rarity priors of every document (CTF only). Returns the per-example
    losses, the masked count and the count of masked positions predicted
    right.

    Each example makes the generator calls of the per-example loop, in its
    order: the channel's draws, the schedule step, the mask's uniforms. The
    channel, the masking probabilities and the mask are then applied once
    to the whole batch, and the forward and backward passes run once over
    it, on its masked rows only.
    """
    v, t, n = corpus.vocab_size, corpus.seq_len, len(idx)
    channel, steps, uniforms = [], [], np.empty((n, t))
    for b in range(n):
        channel.append(draw_substitution(t, v, hyper.rho, rng))
        steps.append(_sample_step(sched.n_steps, rng))
        uniforms[b] = rng.random(t)
    clean = corpus.tokens[idx]
    draws = None if channel[0] is None else tuple(np.stack(part) for part in zip(*channel))
    distorted = apply_substitution(clean, v, hyper.rho, draws)[0]
    if priors is not None:
        probs = ctf_probabilities(priors[idx], steps, sched.n_steps)
    else:
        probs = np.array([[cosine_probability(step, sched.n_steps)] for step in steps])
    m = threshold_mask(probs, uniforms)
    on = m == 1
    ctx = build_conditioning(distorted, model)
    pred = forward(model, apply_mask(clean, m, model.mask_token_id), ctx, positions=on)
    n_correct = int((pred.probs.argmax(axis=-1) == clean[on]).sum())
    losses, grads = masked_ce_loss(pred, clean, m)
    losses = losses.tolist()
    for b, loss in enumerate(losses):
        if not math.isfinite(loss):
            raise NumericsError(f"non-finite loss {loss} at epoch {epoch}, document {idx[b]}, step {steps[b]}")
    n_masked = int(on.sum())
    if n_masked > 0:
        scale = hyper.lr / n_masked
        model.embedding -= scale * grads.embedding
        model.out_w -= scale * grads.out_w
        model.out_b -= scale * grads.out_b
    return losses, n_masked, n_correct


@one_blas_thread()
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
    Each minibatch runs as one batched pass (see ``_train_batch``), bit for
    bit the same as accumulating example by example. A document's
    coarse-to-fine rarity priors do not depend on the epoch, so they are
    built once per document. Deterministic for a fixed seed; runs on one
    OpenBLAS thread and sets the process's heap to keep freed pages (see
    ``blas``).
    """
    keep_freed_heap()
    priors = None
    if sched.mode is MaskMode.CTF:
        priors = np.empty(corpus.tokens.shape)
        for j, doc in enumerate(corpus.tokens):
            priors[j] = sequence_base_probabilities(freq, doc)
    rng = np.random.default_rng(hyper.seed)
    model = init_model(corpus.vocab_size, hyper.dim, hyper.radius, rng)
    n = corpus.num_docs
    history: list[EpochStats] = []

    for epoch in range(hyper.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        epoch_masked = 0
        epoch_correct = 0
        for start in range(0, n, hyper.batch):
            losses, n_masked, n_correct = _train_batch(
                model, corpus, priors, sched, hyper, order[start : start + hyper.batch], rng, epoch
            )
            for loss in losses:  # example order, as the per-example loop added them
                epoch_loss += loss
            epoch_masked += n_masked
            epoch_correct += n_correct
        per_token = epoch_loss / epoch_masked if epoch_masked else 0.0
        acc = epoch_correct / epoch_masked if epoch_masked else 0.0
        history.append(EpochStats(epoch=epoch, loss_sum=epoch_loss, loss_per_token=per_token, masked_acc=acc))
    return model, history


# ---------------------------------------------------------------------------
# Checkpoint format, shared by predictor and corrector: 8 magic bytes, then
# <u4 version, V, D, r, then the parameter blocks as little-endian float64
# (row-major) in a fixed order per model kind. The file ends exactly after
# the last block.


def write_checkpoint(path, magic: bytes, vdr: tuple[int, int, int], blocks: list[np.ndarray]) -> None:
    """Write ``magic``, the format version, ``vdr`` = (V, D, r) and the blocks."""
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<4I", CHECKPOINT_VERSION, *vdr))
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
    vdr = (model.vocab_size, model.dim, model.radius)
    write_checkpoint(path, CHECKPOINT_MAGIC, vdr, [model.embedding, model.out_w, model.out_b])


def load_predictor(path) -> PredictorModel:
    r, (embedding, out_w, out_b) = read_checkpoint(
        path, CHECKPOINT_MAGIC, "predictor", lambda v, d, r: [(v + 1, d), (d * (2 * r + 1), v), (v,)]
    )
    return PredictorModel(embedding=embedding, out_w=out_w, out_b=out_b, radius=r)
