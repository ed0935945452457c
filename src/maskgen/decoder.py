"""Iterative masked decoding: start fully masked, predict all open
positions each step, commit the most confident predictions, and leave
exactly the scheduled number of positions open for the next step.

The per-step open-count targets come from the schedule's expected masked
counts, rounded half-up and repaired to a strictly decreasing sequence from
T down to 0, so every step of a decode from the fully masked state commits
at least one position and decoding finishes in n_steps steps. A decode
from a partly committed ``initial`` clamps the plan to the open count, so
some of its steps commit nothing; at temperature 0 those steps run no
forward pass, so a decode takes at most n_steps forward passes. In
coarse-to-fine mode one ``ctf_probabilities`` table over every step gives
both the plan and a rarity weight on the stay-open priority of a position,
so positions holding frequent tokens commit earlier and rare ones are
refined last with the most visible context.

``decode`` takes one sequence or a (B, T) batch, whose rows it decodes in
lockstep: the rows share every step, and each keeps its own plan, clamp,
idle steps, generator and trace. Per open position a row caches the chosen
token and its confidence (at a temperature above 0, the probability row).
A commit at position t changes the windows of t - r .. t + r only, and the
conditioning does not change during a decode, so each step that commits
makes one ``forward`` call, over just the open positions whose window
changed. ``forward`` packs those rows into zero-padded blocks of T rows,
so every matrix product is the (T, F) @ (F, V) product of a pass over one
whole sequence and each row keeps its bits. The stay-open scores of all
rows are ranked by one ``np.lexsort``, and each row's mean confidence sums
its confidences as the sum of them alone does. A batch therefore decodes
bit for bit as its rows decoded one at a time would, predicting every open
position at every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NumericsError
from .predictor import ConditioningContext, PredictorModel, forward
from .schedule import MaskMode, ScheduleConfig, ctf_probabilities, expected_masked_cosine


@dataclass
class StepTrace:
    step: int
    open_count: int  # positions predicted at this step
    mean_confidence: float


def plan_open_counts(sched: ScheduleConfig, seq_len: int, table: np.ndarray | None = None) -> np.ndarray:
    """Open-position targets per step: strictly decreasing from T to 0.

    Raw targets are the rounded expected masked counts: the uniform cosine,
    or the row sums of ``table``, a CTF decode's ``ctf_probabilities`` at
    steps 0..n_steps. The repair pass pins both endpoints and enforces a
    strict decrease so each step commits at least one position; this needs
    n_steps <= seq_len.
    """
    n = sched.n_steps
    if n > seq_len:
        raise ValueError(f"n_steps ({n}) must not exceed seq_len ({seq_len})")
    if table is not None:
        expected = table.sum(axis=1)
    else:
        expected = [expected_masked_cosine(i, n, seq_len) for i in range(n + 1)]
    raw = [math.floor(e + 0.5) for e in expected]  # round half up

    counts = [0] * (n + 1)
    for i in range(n - 1, 0, -1):
        counts[i] = max(counts[i + 1] + 1, min(raw[i], seq_len - i))
    counts[0] = seq_len
    return np.array(counts, dtype=np.int64)


def _sample(probs: np.ndarray, temperature: float, uniforms: np.ndarray) -> np.ndarray:
    """Token choice per row of ``probs`` by temperature sampling, with the
    row's entry of the (K, 1) ``uniforms``."""
    logits = np.log(np.maximum(probs, 1e-300)) / temperature
    logits -= logits.max(axis=1, keepdims=True)
    p = np.exp(logits)
    p /= p.sum(axis=1, keepdims=True)
    cum = np.cumsum(p, axis=1)
    # rounding can leave cum[-1] marginally below u; clamp the index
    return np.minimum((uniforms > cum).sum(axis=1), probs.shape[1] - 1)


def _run_means(values: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The mean of ``values[starts[j] : starts[j] + counts[j]]`` for each j.
    The runs of one length are summed as the rows of one matrix, which sums
    each row as the sum of that run alone does, so each mean equals the
    run's own ``mean()`` bit for bit."""
    means = np.empty(counts.shape[0])
    for count in np.unique(counts):
        group = np.flatnonzero(counts == count)
        means[group] = np.add.reduce(values[starts[group, None] + np.arange(count)], axis=1) / count
    return means


def decode(
    model: PredictorModel,
    ctx: ConditioningContext,
    sched: ScheduleConfig,
    rng: np.random.Generator | Sequence[np.random.Generator | None] | None = None,
    temperature: float = 0.0,
    p_base: np.ndarray | None = None,
    initial: np.ndarray | None = None,
) -> tuple[np.ndarray, list[StepTrace] | np.ndarray]:
    """Reconstruct the sequence of a (T,) conditioning, or every row of a
    (B, T) batch in lockstep, in ``sched.n_steps`` steps.

    Each step predicts every open position, picks a token per position by
    temperature sampling (the temperature annealed linearly to zero over the
    steps; at temperature 0 the argmax), and commits enough of them --
    highest confidence first -- that exactly the planned number stays open.
    Committed positions never change. In CTF mode ``p_base``, the ([B,] T)
    rarity priors of the observations, weights the stay-open priority. At
    a temperature above 0, ``rng`` is the sequence's generator, or for a
    batch a sequence of one generator per row.

    ``initial`` may pre-commit positions (everything not equal to the mask
    token); each row's plan is clamped to its initially open count, so a
    step may commit nothing in a row. At temperature 0 such a step is idle
    for the row: its input is the row's next step's input, so its trace
    row repeats that step's open count and mean confidence.

    The rows run in lockstep, each with its cache (see the module
    docstring). Each step that commits in some row (at a temperature above
    0, every step) makes exactly one ``forward`` call, over the open
    positions of every row whose window changed since their cached values
    were computed; that may be none. The stay-open scores are ranked by one
    ``np.lexsort`` on (row, score, position), and each row commits its
    lowest ones.

    Returns the decoded tokens, in the shape of the conditioning's tokens,
    and the trace. For one sequence the trace is ``n_steps`` ``StepTrace``
    rows, or none when nothing was open. For a batch it is the (B,
    n_steps, 2) array of the same rows' open count and mean confidence; a
    row with nothing open has count 0 and confidence NaN. Raises
    ``NumericsError`` when the predicted probabilities are not finite.
    """
    if sched.mode is MaskMode.CTF and p_base is None:
        raise ValueError("CTF decoding needs the per-position p_base vector")
    shape = ctx.source_tokens.shape
    t = shape[-1]
    n = sched.n_steps
    mask_id = model.mask_token_id
    greedy = temperature <= 0.0

    if initial is None:
        current = np.full(shape, mask_id, dtype=np.int64)
    else:
        current = np.asarray(initial, dtype=np.int64).copy()
        if current.shape != shape:
            raise ValueError("initial sequence length does not match conditioning")
    rows = current.reshape(-1, t)  # a view: one sequence is a batch of one
    b = rows.shape[0]
    rngs = [rng] if len(shape) == 1 else [None] * b if rng is None else list(rng)
    if len(rngs) != b:
        raise ValueError(f"{len(rngs)} generators for {b} rows")
    is_open = rows == mask_id
    if sched.mode is MaskMode.CTF:
        table = ctf_probabilities(np.asarray(p_base).reshape(b, 1, t), range(n + 1), n)  # (B, n + 1, T)
        plans = [plan_open_counts(sched, t, row_table) for row_table in table]
    else:
        table = None
        plans = [plan_open_counts(sched, t)] * b
    # row j has plan[j, i] open positions before step i, and commits where that falls
    plan = np.minimum(np.array(plans, dtype=np.int64).reshape(b, n + 1), is_open.sum(axis=1, keepdims=True))
    live = plan[:, 0] > 0
    n_commit = plan[:, :-1] - plan[:, 1:]
    # the steps that predict a row: those that commit in it, or every step when sampling
    scored = n_commit > 0 if greedy else np.repeat(live[:, None], n, axis=1)

    stale = is_open.copy()  # open positions whose cached values are out of date
    if greedy:
        chosen, conf = np.zeros((b, t), dtype=np.int64), np.zeros((b, t))
    else:
        cached = np.zeros((b, t, model.vocab_size))
    mean_confs = np.full((b, n + 1), np.nan)  # column n: no scored step
    for i in np.flatnonzero(scored.any(axis=0)):
        probs = forward(model, current, ctx, positions=stale.reshape(shape)).probs
        if not np.isfinite(probs).all():
            raise NumericsError(f"non-finite probabilities at decode step {i}")
        if greedy:
            chosen[stale] = probs.argmax(axis=1)
            conf[stale] = probs.max(axis=1)
        else:
            cached[stale] = probs
        stale[:] = False

        # every open position, row by row in position order
        row_of, pos_of = np.nonzero(is_open)
        n_open = plan[:, i]
        starts = np.cumsum(n_open) - n_open
        if greedy:
            pick, pick_conf = chosen[is_open], conf[is_open]
        else:
            open_probs = cached[is_open]
            step_temp = temperature * (1.0 - (i + 1) / n)
            if step_temp <= 0.0:
                pick = open_probs.argmax(axis=1)
            else:
                if any(rngs[j] is None for j in np.flatnonzero(live)):
                    raise ValueError("sampling at a temperature above 0 needs an rng")
                # each row draws its open count of uniforms from its own generator
                uniforms = [rngs[j].random((n_open[j], 1)) for j in np.flatnonzero(live)]
                pick = _sample(open_probs, step_temp, np.concatenate(uniforms))
            pick_conf = open_probs[np.arange(pick.shape[0]), pick]
        here = scored[:, i]
        mean_confs[here, i] = _run_means(pick_conf, starts[here], n_open[here])

        if n_commit[:, i].any():
            stay = 1.0 - pick_conf
            if table is not None:
                stay = table[row_of, i + 1, pos_of] * stay
            # each row commits its lowest stay-open scores; ties resolved by position
            order = np.lexsort((pos_of, stay, row_of))
            ranked = row_of[order]
            take = order[np.arange(order.shape[0]) - starts[ranked] < n_commit[ranked, i]]
            rows[row_of[take], pos_of[take]] = pick[take]
            committed = np.zeros_like(is_open)
            committed[row_of[take], pos_of[take]] = True
            is_open &= ~committed
            # the open positions within the radius of a commit see a new window
            for k in range(1, model.radius + 1):
                stale[:, k:] |= committed[:, :-k]
                stale[:, :-k] |= committed[:, k:]
            stale &= is_open

    assert not is_open.any()
    # an idle step's trace row repeats that of the row's next scored step
    after = np.minimum.accumulate(np.where(scored, np.arange(n), n)[:, ::-1], axis=1)[:, ::-1]
    trace = np.stack([plan[:, :n], np.take_along_axis(mean_confs, after, axis=1)], axis=-1)
    if len(shape) > 1:
        return current, trace
    steps = [StepTrace(step=k, open_count=int(c), mean_confidence=m) for k, (c, m) in enumerate(trace[0].tolist())]
    return current, steps if live[0] else []
