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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def _choose(probs: np.ndarray, temperature: float, rng: np.random.Generator | None) -> np.ndarray:
    """Token choice per open position by temperature sampling; argmax at
    temperature 0."""
    if temperature <= 0.0:
        return probs.argmax(axis=1)
    if rng is None:
        raise ValueError("sampling at a temperature above 0 needs an rng")
    logits = np.log(np.maximum(probs, 1e-300)) / temperature
    logits -= logits.max(axis=1, keepdims=True)
    p = np.exp(logits)
    p /= p.sum(axis=1, keepdims=True)
    cum = np.cumsum(p, axis=1)
    u = rng.random((probs.shape[0], 1))
    # rounding can leave cum[-1] marginally below u; clamp the index
    return np.minimum((u > cum).sum(axis=1), probs.shape[1] - 1)


def decode(
    model: PredictorModel,
    ctx: ConditioningContext,
    sched: ScheduleConfig,
    rng: np.random.Generator | None = None,
    temperature: float = 0.0,
    p_base: np.ndarray | None = None,
    initial: np.ndarray | None = None,
) -> tuple[np.ndarray, list[StepTrace]]:
    """Reconstruct a full sequence in ``sched.n_steps`` steps, with at most
    that many forward passes.

    Each step predicts every open position, picks a token per position by
    temperature sampling (the temperature annealed linearly to zero over the
    steps; at temperature 0 the argmax), and commits enough of them --
    highest confidence first -- that exactly the planned number stays open.
    Committed positions never change. In CTF mode ``p_base`` (the rarity
    priors of the observed sequence) weights the stay-open priority.

    ``initial`` may pre-commit positions (everything not equal to the mask
    token); the plan is clamped to the initially open count. With nothing
    open the input is returned untouched with no forward pass. At
    temperature 0 a step whose plan commits nothing runs no forward pass: its
    input is the next step's input, so its trace row repeats that step's
    open count and mean confidence. The trace always has ``n_steps`` rows.

    Raises ``NumericsError`` when the predicted probabilities are not finite.
    """
    if sched.mode is MaskMode.CTF and p_base is None:
        raise ValueError("CTF decoding needs the per-position p_base vector")
    t = ctx.seq_len
    mask_id = model.mask_token_id
    n = sched.n_steps

    if initial is None:
        current = np.full(t, mask_id, dtype=np.int64)
    else:
        current = np.asarray(initial, dtype=np.int64).copy()
        if current.shape[0] != t:
            raise ValueError("initial sequence length does not match conditioning")
    open_idx = np.flatnonzero(current == mask_id)
    table = ctf_probabilities(p_base, range(n + 1), n) if sched.mode is MaskMode.CTF else None
    plan = np.minimum(plan_open_counts(sched, t, table), open_idx.shape[0])
    trace: list[StepTrace] = []
    if open_idx.shape[0] == 0:
        return current, trace

    idle = 0  # steps skipped since the last forward pass
    for i in range(n):
        n_commit = open_idx.shape[0] - int(plan[i + 1])
        if temperature <= 0.0 and n_commit <= 0:
            idle += 1
            continue
        probs = forward(model, current, ctx, positions=open_idx).probs
        if not np.isfinite(probs).all():
            raise NumericsError(f"non-finite probabilities at decode step {i}")
        chosen = _choose(probs, temperature * (1.0 - (i + 1) / n), rng)
        conf = probs[np.arange(open_idx.shape[0]), chosen]
        mean_conf = float(conf.mean())
        trace.extend(
            StepTrace(step=k, open_count=open_idx.shape[0], mean_confidence=mean_conf)
            for k in range(i - idle, i + 1)
        )
        idle = 0

        if n_commit > 0:
            if table is not None:
                stay = table[i + 1, open_idx] * (1.0 - conf)
            else:
                stay = 1.0 - conf
            # commit the lowest stay-open scores; ties resolved by position
            pick = np.lexsort((open_idx, stay))[:n_commit]
            current[open_idx[pick]] = chosen[pick]
            open_idx = np.flatnonzero(current == mask_id)

    assert open_idx.shape[0] == 0
    return current, trace
