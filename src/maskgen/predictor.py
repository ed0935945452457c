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
case of the same code. ``masked_ce_loss`` takes only ``forward``'s
prediction with ``positions=mask == 1``, so only masked rows are
featurized, multiplied, normalized, scored and differentiated. Training
runs each minibatch as one batched pass that reproduces per-example SGD
bit for bit. The matrix products run as ``np.matmul`` over stacks of T
rows (the sequences, or the picked rows packed into zero-padded blocks of
T), which makes for each the same BLAS call that a single-sequence pass
makes; a single product over all the rows would round differently, and
when T is 1 numpy switches from a matrix product to a vector product. Every sum
that runs across examples (loss, output-weight, bias and embedding
gradients) is taken per example and added in example order, the order the
per-example loop used. Each example's gradient is computed in one place,
``_example_gradients``, which either adds it to the sum as it comes or
keeps it in a row of its own.

On two CPUs or more, training splits every minibatch with a helper
process (``_Helper``): a fresh interpreter spawned from ``sys.executable``
that imports this package. This process makes all of a minibatch's draws,
in the order above, hands the helper the examples [h, n) and runs [0, h)
itself, then adds the helper's per-example gradients to its own sum in
example order and updates the model, which lives in memory the two
processes share. While the helper runs, this process draws the next
minibatch. The helper is not used inside a ``fan_out`` job (see ``cpus``).

Training runs on one OpenBLAS thread and keeps the heap pages that each
minibatch frees for the next one (see ``blas``).
"""

from __future__ import annotations

import math
import os
import struct
import sys
import time
from dataclasses import dataclass, field
from typing import Iterator, NoReturn

import numpy as np

from .blas import keep_freed_heap, one_blas_thread
from .corpus import Corpus, FrequencyTable, apply_substitution, draw_substitution, sequence_base_probabilities
from .cpus import usable_cpus
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
    """``forward``'s probabilities and what ``masked_ce_loss`` reads."""

    probs: np.ndarray  # ([B,] T, V), or the rows ``forward``'s positions pick; rows sum to 1
    model: PredictorModel = field(repr=False)
    masked: np.ndarray = field(repr=False)  # ([B,] T) input ids, mask token allowed
    features: np.ndarray = field(repr=False)  # ([B,] T, F), or the (K, F) rows ``forward``'s positions pick
    source_tokens: np.ndarray = field(repr=False)  # ([B,] T) the conditioning's tokens
    positions: np.ndarray | None = field(repr=False)  # bool: the rows ``probs`` holds; None for every row


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


def window(u: np.ndarray, r: int, rows: np.ndarray | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """([B,] T, D*(2r+1)) windowed concatenation of the ([B,] T, D) rows of
    ``u``: block c of row t is row t + c - r of the same sequence, zero
    outside it. The predictor and the corrector build their features with
    it. The zero-padded rows are written once; window t is padded rows t to
    t + 2r, so all windows are one strided view of them, copied out in one
    pass. With ``rows``, a bool array of u's ([B,] T) shape, only the
    windows it picks are gathered from ``u``, block by block, with no padded
    copy: (K, F) in row-major order, into ``out`` when given, which must
    hold zeros."""
    t, d = u.shape[-2:]
    lead = u.shape[:-2]
    f = d * (2 * r + 1)
    if rows is not None:
        picked = np.flatnonzero(rows)
        pos = picked % t
        flat = u.reshape(-1, d)
        feats = np.zeros((picked.shape[0], f)) if out is None else out
        for c in range(2 * r + 1):
            inside = (pos >= r - c) & (pos < t + r - c)  # row t + c - r lies in the sequence
            feats[inside, c * d : (c + 1) * d] = flat[picked[inside] + (c - r)]
        return feats
    padded = np.zeros(lead + (t + 2 * r, d))
    padded[..., r : r + t, :] = u
    step = padded.strides
    windows = np.ndarray(lead + (t, 2 * r + 1, d), buffer=padded, strides=step[:-1] + step[-2:])
    # the reshape is still a view, with overlapping rows: the copy is the pass
    return windows.reshape(lead + (t, f)).copy()


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


def _window_features(
    model: PredictorModel, inputs: np.ndarray, ctx: ConditioningContext,
    rows: np.ndarray | None = None, out: np.ndarray | None = None,
) -> np.ndarray:
    """([B,] T, F) features: windowed concatenation of per-position vectors
    with the global vector added to the center block. With ``rows`` only
    the (K, F) rows it picks, into ``out`` when given (see ``window``)."""
    r, d = model.radius, model.dim
    u = model.embedding.take(inputs, axis=0, mode="clip")
    u += ctx.cond
    feats = window(u, r, rows, out)
    center = np.broadcast_to(ctx.global_embed[..., None, :], u.shape)
    feats[..., r * d : (r + 1) * d] += center if rows is None else center[rows]
    return feats


def forward(
    model: PredictorModel,
    masked: np.ndarray,
    ctx: ConditioningContext,
    positions: np.ndarray | None = None,
) -> PredictionOutput:
    """Per-position probability vectors over the vocabulary: (T, V) for
    (T,) input ids, (B, T, V) for a (B, T) batch.

    ``positions``, a bool array of the input's shape, picks the rows where
    it is true: only their features and logits are computed, and ``probs``
    and ``features`` are (K, V) and (K, F) for K true entries, in row-major
    order. Each row equals the matching row of the full output bit for bit:
    the picked features are packed into zero-padded blocks of T rows, so
    every product is the (T, F) @ (F, V) product of one sequence's pass.
    (A product over K rows may round differently; over one row numpy
    switches to a vector product.) The logits are normalized T rows at a
    time, so no temporary outgrows those of one sequence's pass.
    """
    masked = np.asarray(masked, dtype=np.int64)
    if masked.shape != ctx.source_tokens.shape:
        raise ValueError(f"input shape {masked.shape} != conditioning shape {ctx.source_tokens.shape}")
    if masked.min(initial=0) < 0 or masked.max(initial=0) > model.vocab_size:
        raise ValueError("input token id outside [0, vocab_size] (mask token is vocab_size)")
    t, f, v = masked.shape[-1], model.feature_dim, model.vocab_size
    if positions is None:
        feats = _window_features(model, masked, ctx)
        # per sequence, the product a single pass makes
        logits = np.matmul(feats, model.out_w)
    else:
        positions = np.asarray(positions)
        if positions.dtype != bool:
            raise ValueError(f"row selection of dtype {positions.dtype}: it must be bool")
        if positions.shape != masked.shape:
            raise ValueError(f"row selection shape {positions.shape} != input shape {masked.shape}")
        k = int(np.count_nonzero(positions))
        blocks = np.zeros((-(-k // t), t, f))
        feats = _window_features(model, masked, ctx, positions, out=blocks.reshape(-1, f)[:k])
        logits = np.matmul(blocks, model.out_w).reshape(-1, v)[:k]
    logits += model.out_b
    # log-softmax, then exp, in the logits' buffer
    rows = logits.reshape(-1, v)
    for part in np.split(rows, range(t, rows.shape[0], t)):
        part -= part.max(axis=-1, keepdims=True)
        part -= np.log(np.exp(part).sum(axis=-1, keepdims=True))
    probs = np.exp(logits, out=logits)
    return PredictionOutput(probs, model, masked, feats, ctx.source_tokens, positions)


def masked_ce_loss(
    pred: PredictionOutput, target: np.ndarray, mask: np.ndarray
) -> tuple[float | np.ndarray, PredictorGradients]:
    """Cross entropy summed over masked positions, with analytic gradients
    for every parameter block (embedding via both the input and the
    conditioning routes, output weights, bias).

    For one sequence the loss is a float. For a (B, T) batch it is the (B,)
    array of per-example losses, and each parameter gradient is the sum of
    the per-example gradients of ``_example_gradients`` added in example
    order, so it equals the sum of B single-sequence calls bit for bit.

    ``pred`` holds exactly the masked rows: it is ``forward``'s with
    ``positions=mask == 1``, and any other prediction raises
    ``ValueError``. ``grads.logits``, the gradient wrt the logits, is dense,
    with zero rows at unmasked positions, so the product that gives the
    gradient wrt the features is the one a full pass makes (over the masked
    rows alone it rounds differently at 1-8 rows). Each example's
    output-weight gradient is the product over its masked rows only, which
    equals the dense one bit for bit. The prediction is spent:
    ``pred.probs`` becomes the logit gradient. Read ``pred.probs`` before
    the call.
    """
    losses, grads = _example_gradients(pred, target, mask)
    return (float(losses[0]) if np.ndim(target) == 1 else losses), grads


def _example_gradients(
    pred: PredictionOutput, target: np.ndarray, mask: np.ndarray, per_example: PredictorGradients | None = None
) -> tuple[np.ndarray, PredictorGradients]:
    """The (B,) per-example losses of ``masked_ce_loss`` and the gradient:
    each example's own gradient of each block is computed here, once, and
    either added to the sum as it comes, in example order, or, with
    ``per_example``, written to row b of its (B', ...) blocks, B' >= B. The
    returned gradient's ``logits`` is the dense logit gradient. The
    prediction is spent as in ``masked_ce_loss``."""
    target = np.asarray(target, dtype=np.int64)
    mask = np.asarray(mask)
    model = pred.model
    if pred.masked.shape != target.shape or mask.shape != target.shape:
        raise ValueError("target / mask / prediction shapes disagree")
    r, d, v = model.radius, model.dim, model.vocab_size
    t = target.shape[-1]
    feats = pred.features  # (K, F): the masked rows in row-major order
    # one sequence is a batch of one; these reshapes are views
    targets = target.reshape(-1, t)
    on = mask.reshape(-1, t) == 1
    nb = targets.shape[0]
    picked = pred.positions
    if picked is None or picked.dtype != bool or not np.array_equal(picked.reshape(-1, t), on):
        raise ValueError("the prediction holds other rows than the masked ones")
    summed = per_example is None
    if summed:
        grads = PredictorGradients(
            embedding=np.zeros_like(model.embedding), out_w=np.zeros_like(model.out_w),
            out_b=np.zeros_like(model.out_b), logits=None,
        )
    else:
        grads = per_example

    def keep(block: np.ndarray, b: int, term: np.ndarray) -> None:
        if summed:
            block += term
        else:
            block[b] = term

    # probs: the (K, V) masked rows in row-major order; dlogits: the dense
    # logit gradient, zero until they are written back into it
    probs = pred.probs
    dlogits = np.zeros((nb, t, v))

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
    pred.probs = grads.logits = dlogits.reshape(target.shape + (v,))

    bias_terms = dlogits.sum(axis=1)
    for b in range(nb):
        rows = slice(starts[b], starts[b] + counts[b])
        keep(grads.out_w, b, feats[rows].T @ probs[rows])
        keep(grads.out_b, b, bias_terms[b])
    del probs, feats

    dfeats = np.matmul(dlogits, model.out_w.T)
    # the input-route rows of every example, then its conditioning-route rows
    rows = np.empty((2, nb, t, d))
    du = window_adjoint(dfeats, r, d, out=rows[0])
    # the center block also feeds the global vector, the mean of the cond rows
    np.add(du, dfeats[..., r * d : (r + 1) * d].sum(axis=-2, keepdims=True) / t, out=rows[1])

    # per example, one scatter of both routes' rows into flat (token, k)
    # bins: the order of np.add.at over the same rows
    size = model.embedding.size
    tokens = np.stack([pred.masked.reshape(-1, t), pred.source_tokens.reshape(-1, t)])
    cols = np.arange(d)
    for b in range(nb):
        bins = (tokens[:, b, :, None] * d + cols).ravel()
        keep(grads.embedding, b, np.bincount(bins, weights=rows[:, b].ravel(), minlength=size).reshape(-1, d))
    return losses, grads


def _add_examples(total: PredictorGradients, terms: PredictorGradients, count: int) -> None:
    """Add the gradients of the first ``count`` examples of ``terms``, one
    per row, to ``total``, one example after the other."""
    for b in range(count):
        total.embedding += terms.embedding[b]
        total.out_w += terms.out_w[b]
        total.out_b += terms.out_b[b]


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
    return masked_ce_loss(forward(model, masked, ctx, positions=np.asarray(mask) == 1), target, mask)


def _sample_step(n_steps: int, rng: np.random.Generator) -> int:
    # endpoints are excluded in training: step N has no masked positions
    # (zero gradient) and step 0 is plain all-masked, still reachable at
    # small steps; n_steps == 1 leaves only the fully masked step
    if n_steps == 1:
        return 0
    return int(rng.integers(1, n_steps))


def _batch_pass(
    model: PredictorModel, clean: np.ndarray, distorted: np.ndarray, m: np.ndarray,
    terms: PredictorGradients | None = None,
) -> tuple[np.ndarray, int, PredictorGradients]:
    """Conditioning, forward and backward passes over the (B, T) clean
    tokens, distorted observations and masks of B examples, on their masked
    rows only. Returns the (B,) losses, the count of masked positions
    predicted right and the gradient: summed in example order, or with
    ``terms`` each example's own, written into its rows (see
    ``_example_gradients``)."""
    on = m == 1
    ctx = build_conditioning(distorted, model)
    pred = forward(model, apply_mask(clean, m, model.mask_token_id), ctx, positions=on)
    n_correct = int((pred.probs.argmax(axis=-1) == clean[on]).sum())
    if terms is None:
        losses, grads = masked_ce_loss(pred, clean, m)
    else:
        losses, grads = _example_gradients(pred, clean, m, per_example=terms)
    return losses, n_correct, grads


def _caller_share(n: int) -> int:
    """h: with a helper, the caller runs the examples [0, h) of a minibatch
    of n and the helper [h, n); h = n leaves the helper out."""
    return max(1, n // 2)


@dataclass
class _Minibatch:
    """The inputs of one SGD step: its epoch, documents ``idx``, schedule
    steps, and (n, T) clean tokens, distorted observations and int8 mask."""

    epoch: int
    idx: np.ndarray
    steps: list[int]
    clean: np.ndarray
    distorted: np.ndarray
    mask: np.ndarray


def _draw_batch(
    corpus: Corpus,
    priors: np.ndarray | None,
    sched: ScheduleConfig,
    hyper: TrainConfig,
    idx: np.ndarray,
    rng: np.random.Generator,
    epoch: int,
) -> _Minibatch:
    """The inputs of the SGD step on the documents ``idx``, with ``priors``
    the (N, T) rarity priors of every document (CTF only).

    Each example makes the generator calls of the per-example loop, in its
    order: the channel's draws, the schedule step, the mask's uniforms. The
    channel, the masking probabilities and the mask are then applied once
    to the whole batch. Nothing here reads the model.
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
    return _Minibatch(epoch, idx, steps, clean, distorted, threshold_mask(probs, uniforms))


def _minibatches(
    corpus: Corpus, priors: np.ndarray | None, sched: ScheduleConfig, hyper: TrainConfig, rng: np.random.Generator
) -> Iterator[_Minibatch]:
    """Every minibatch of training in order: per epoch a permutation of the
    documents, cut into batches of ``hyper.batch``."""
    n = corpus.num_docs
    for epoch in range(hyper.epochs):
        order = rng.permutation(n)
        for start in range(0, n, hyper.batch):
            yield _draw_batch(corpus, priors, sched, hyper, order[start : start + hyper.batch], rng, epoch)


def _start_batch(
    model: PredictorModel, batch: _Minibatch, helper: _Helper | None = None
) -> tuple[int, np.ndarray, int, PredictorGradients]:
    """Hand a ``helper`` the examples [h, n) of ``batch`` and run [0, h)
    here; without a helper h = n. Returns h and the losses, the count of
    masked positions predicted right and the example-order gradient sum of
    [0, h)."""
    n = len(batch.idx)
    h = n if helper is None else _caller_share(n)
    if h < n:
        helper.submit(batch.clean[h:], batch.distorted[h:], batch.mask[h:])
    return (h, *_batch_pass(model, batch.clean[:h], batch.distorted[:h], batch.mask[:h]))


def _finish_batch(
    model: PredictorModel,
    batch: _Minibatch,
    started: tuple[int, np.ndarray, int, PredictorGradients],
    lr: float,
    helper: _Helper | None = None,
) -> tuple[list[float], int, int]:
    """Add the helper's examples [h, n) to what ``_start_batch`` returned,
    in example order, check every loss and take the SGD step: the summed
    gradient times ``lr`` over the batch's masked count. Returns the
    per-example losses, the masked count and the count of masked positions
    predicted right."""
    h, losses, n_correct, grads = started
    n = len(batch.idx)
    if h < n:
        tail_losses, tail_correct, terms = helper.collect()
        losses = np.concatenate([losses, tail_losses])
        n_correct += tail_correct
        _add_examples(grads, terms, n - h)
    losses = losses.tolist()
    for b, loss in enumerate(losses):
        if not math.isfinite(loss):
            raise NumericsError(
                f"non-finite loss {loss} at epoch {batch.epoch}, document {batch.idx[b]}, step {batch.steps[b]}"
            )
    n_masked = int(np.count_nonzero(batch.mask))
    if n_masked > 0:
        scale = lr / n_masked
        model.embedding -= scale * grads.embedding
        model.out_w -= scale * grads.out_w
        model.out_b -= scale * grads.out_b
    return losses, n_masked, n_correct


# how long a side of training polls its pipe before it sleeps on it: the other
# side answers within a fraction of a minibatch, and waking a sleeping
# process took about 0.1 ms per handoff on a 2-vCPU virtual machine
_POLL_S = 0.001


def _next_byte(fd: int) -> bytes:
    """One byte from the pipe ``fd``, or b"" at its end; polls for up to
    ``_POLL_S`` before it blocks."""
    import select

    deadline = time.perf_counter() + _POLL_S
    while not select.select([fd], [], [], 0)[0] and time.perf_counter() < deadline:
        pass
    return os.read(fd, 1)


# the helper's program: eight integer arguments, then the module search path,
# the caller's with its package's root first
_HELPER_CODE = (
    "import sys; sys.path[:] = sys.argv[9:]; "
    "from maskgen.predictor import _run_helper; _run_helper(*map(int, sys.argv[1:9]))"
)


def _shared_arrays(buffer, v: int, d: int, r: int, t: int, slots: int) -> tuple[dict[str, np.ndarray], int]:
    """The arrays the caller and the helper share, laid out one after the
    other in ``buffer`` at multiples of 64 bytes, and the bytes they span;
    with ``buffer`` None only the bytes. They are the model (V, D, r), the
    helper's inputs for up to ``slots`` sequences of length ``t``, its
    per-example losses and gradients, its example count and its count of
    masked positions predicted right."""
    f = d * (2 * r + 1)
    specs = [
        ("embedding", np.float64, (v + 1, d)), ("out_w", np.float64, (f, v)), ("out_b", np.float64, (v,)),
        ("clean", np.int64, (slots, t)), ("distorted", np.int64, (slots, t)), ("mask", np.int8, (slots, t)),
        ("losses", np.float64, (slots,)), ("g_e", np.float64, (slots, v + 1, d)),
        ("g_w", np.float64, (slots, f, v)), ("g_b", np.float64, (slots, v)),
        ("count", np.int64, ()), ("correct", np.int64, ()),
    ]
    arrays, size = {}, 0
    for name, dtype, shape in specs:
        if buffer is not None:
            arrays[name] = np.ndarray(shape, dtype, buffer=buffer, offset=size)
        size += -(-math.prod(shape) * np.dtype(dtype).itemsize // 64) * 64
    return arrays, size


class _Helper:
    """A second Python interpreter that runs the examples [h, n) of each
    minibatch of ``train`` (see ``_start_batch`` and ``_finish_batch``).

    It is spawned, not forked, from ``sys.executable`` and imports the
    caller's own ``maskgen`` and numpy: its module search path is the
    caller's, with the caller's package root first. The model, the
    helper's inputs and its per-example outputs live in one memory file
    that both processes map; a go pipe carries one byte per minibatch to
    the helper and a done pipe one byte back, after a first byte that says
    the helper is ready. Each side waits for a byte with ``_next_byte``.
    ``model`` is the model in the shared map, which the caller trains in
    place.
    """

    def __init__(self, model: PredictorModel, seq_len: int, slots: int) -> None:
        import mmap
        import subprocess

        shape = (model.vocab_size, model.dim, model.radius, seq_len, slots)
        opened: list[int] = []
        keep: list[int] = []  # the caller's pipe ends, once the helper runs
        try:
            map_fd = os.memfd_create("maskgen-train")
            opened.append(map_fd)
            go_read, go_write = os.pipe()
            opened += [go_read, go_write]
            done_read, done_write = os.pipe()
            opened += [done_read, done_write]
            size = _shared_arrays(None, *shape)[1]
            os.ftruncate(map_fd, size)
            self._shared = sh = _shared_arrays(mmap.mmap(map_fd, size), *shape)[0]
            self.model = PredictorModel(sh["embedding"], sh["out_w"], sh["out_b"], model.radius)
            self.model.embedding[...] = model.embedding
            self.model.out_w[...] = model.out_w
            self.model.out_b[...] = model.out_b
            self._terms = PredictorGradients(sh["g_e"], sh["g_w"], sh["g_b"], logits=None)
            root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
            args = [map_fd, go_read, done_write, *shape]
            # -E -S: no PYTHON* variables and no site module, so the helper
            # imports from exactly the caller's path
            self.proc = subprocess.Popen(
                [sys.executable, "-E", "-S", "-c", _HELPER_CODE, *map(str, args), root, *sys.path],
                stdin=subprocess.DEVNULL, pass_fds=(map_fd, go_read, done_write),
            )
            self._go, self._done = keep = [go_write, done_read]
        finally:
            for fd in opened:
                if fd not in keep:
                    os.close(fd)
        self._ready = False

    def ready(self, wait: bool = False) -> bool:
        """Whether the helper has reported ready; with ``wait``, wait until
        it does."""
        import select

        if not self._ready and (wait or select.select([self._done], [], [], 0)[0]):
            self._receive()
            self._ready = True
        return self._ready

    def submit(self, clean: np.ndarray, distorted: np.ndarray, m: np.ndarray) -> None:
        """Hand the helper the clean tokens, observations and masks of its
        examples, and start it on them."""
        k = clean.shape[0]
        sh = self._shared
        sh["clean"][:k], sh["distorted"][:k], sh["mask"][:k] = clean, distorted, m
        sh["count"][...] = k
        try:
            os.write(self._go, b"\0")
        except BrokenPipeError:
            self._ended()

    def collect(self) -> tuple[np.ndarray, int, PredictorGradients]:
        """Wait for the helper; then its examples' losses, their count of
        masked positions predicted right and their gradients, one example
        per row."""
        self._receive()
        k = int(self._shared["count"])
        return self._shared["losses"][:k].copy(), int(self._shared["correct"]), self._terms

    def close(self) -> None:
        """Kill the helper, whatever it is doing, and reap it."""
        self.proc.kill()
        self.proc.wait()
        os.close(self._go)
        os.close(self._done)

    def _receive(self) -> None:
        if not _next_byte(self._done):
            self._ended()

    def _ended(self) -> NoReturn:
        code = self.proc.wait()
        raise ChildProcessError(f"training helper {self.proc.pid} ended with exit code {code}")


def _run_helper(map_fd: int, go_fd: int, done_fd: int, v: int, d: int, r: int, t: int, slots: int) -> None:
    """The helper's side of ``train``: map the shared arrays, report ready,
    then for each go byte run the examples the caller left there and report
    done. Ends when the caller closes the go pipe or kills the process.

    Floating-point warnings are off here: a non-finite loss reaches the
    caller, which raises ``NumericsError`` for it."""
    import mmap
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt is the caller's: it kills this process
    keep_freed_heap()
    size = _shared_arrays(None, v, d, r, t, slots)[1]
    sh = _shared_arrays(mmap.mmap(map_fd, size), v, d, r, t, slots)[0]
    model = PredictorModel(sh["embedding"], sh["out_w"], sh["out_b"], r)
    terms = PredictorGradients(sh["g_e"], sh["g_w"], sh["g_b"], logits=None)
    with one_blas_thread(), np.errstate(all="ignore"):
        os.write(done_fd, b"\0")
        while _next_byte(go_fd):
            k = int(sh["count"])
            sh["losses"][:k], sh["correct"][...], _ = _batch_pass(
                model, sh["clean"][:k], sh["distorted"][:k], sh["mask"][:k], terms
            )
            os.write(done_fd, b"\0")


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
    Each minibatch runs as one batched pass (see ``_draw_batch`` and
    ``_batch_pass``), bit for bit the same as accumulating example by
    example. The coarse-to-fine rarity priors do not depend on the epoch,
    so one call builds them for the whole corpus. Deterministic for a fixed
    seed; runs on one OpenBLAS thread and sets the process's heap to keep
    freed pages (see ``blas``).

    When the call may use two CPUs or more (``cpus.usable_cpus``) and a
    minibatch can hold two examples, a helper process (``_Helper``) starts
    and, once it has reported ready, runs the second half of every
    minibatch; until then this process runs whole minibatches. The result
    is the same bit for bit. The helper is killed and reaped when training
    ends, on every path.
    """
    keep_freed_heap()
    rng = np.random.default_rng(hyper.seed)
    model = init_model(corpus.vocab_size, hyper.dim, hyper.radius, rng)
    n = corpus.num_docs
    widest = min(hyper.batch, n)
    helper = None
    if usable_cpus() > 1 and hyper.epochs > 0 and widest > 1 and sys.executable:
        helper = _Helper(model, corpus.seq_len, widest - _caller_share(widest))
        model = helper.model
    history: list[EpochStats] = []
    try:
        priors = sequence_base_probabilities(freq, corpus.tokens) if sched.mode is MaskMode.CTF else None
        batches = _minibatches(corpus, priors, sched, hyper, rng)
        upcoming = next(batches, None)
        for epoch in range(hyper.epochs):
            epoch_loss = 0.0
            epoch_masked = 0
            epoch_correct = 0
            for _ in range(0, n, hyper.batch):
                batch = upcoming
                started = _start_batch(model, batch, helper if helper is not None and helper.ready() else None)
                upcoming = next(batches, None)  # drawn while the helper runs its part of this batch
                losses, n_masked, n_correct = _finish_batch(model, batch, started, hyper.lr, helper)
                del started  # this batch's gradients, freed before the next pass
                for loss in losses:  # example order, as the per-example loop added them
                    epoch_loss += loss
                epoch_masked += n_masked
                epoch_correct += n_correct
            per_token = epoch_loss / epoch_masked if epoch_masked else 0.0
            acc = epoch_correct / epoch_masked if epoch_masked else 0.0
            history.append(EpochStats(epoch=epoch, loss_sum=epoch_loss, loss_per_token=per_token, masked_acc=acc))
    finally:
        if helper is not None:
            helper.close()
    if helper is not None:  # out of the shared map, which goes with the helper
        model = PredictorModel(model.embedding.copy(), model.out_w.copy(), model.out_b.copy(), model.radius)
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
