"""Masking schedules: the cosine decay curve, its coarse-to-fine per-token
rescaling, Bernoulli mask sampling, and mask application.

Step indexing runs i = 0..n_steps with i=0 fully masked and i=n_steps fully
observed. The expected masked count at step i has one form, the cosine
T*cos(pi*i/(2N)): the per-token probability curve times the length, so it
decays with progress. A schedule is its step count and its mode; the mask
token is the predictor's own (``PredictorModel.mask_token_id``).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


class MaskMode(enum.Enum):
    UNIFORM_COSINE = "uniform"
    CTF = "ctf"  # coarse-to-fine: rescale per-token by rarity


@dataclass
class ScheduleConfig:
    n_steps: int
    mode: MaskMode = MaskMode.UNIFORM_COSINE

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")


def cosine_probability(i: int, n_steps: int) -> float:
    """Masking probability at step i of n_steps: cos(pi/2 * i/N).

    1 at i=0 (everything masked), exactly 0 at i=N (everything observed).
    """
    if not 0 <= i <= n_steps:
        raise ValueError(f"step {i} outside [0, {n_steps}]")
    if i == n_steps:
        return 0.0  # cos(pi/2) in floats is ~6e-17; the endpoint is exact
    return math.cos(0.5 * math.pi * i / n_steps)


def expected_masked_cosine(i: int, n_steps: int, seq_len: int) -> float:
    """Expected number of masked tokens at step i under the cosine schedule."""
    return seq_len * cosine_probability(i, n_steps)


def scaled_clipped_probabilities(p_base: np.ndarray, expected_masked: float | np.ndarray) -> np.ndarray:
    """Rescale per-token base probabilities so their sum matches the target
    expectation, clipping at 1.

    p(t) = min(expected_masked / sum(p_base) * p_base(t), 1). The sum of the
    result equals the target exactly when nothing clips and falls short of
    it otherwise. Rank order among unclipped entries is preserved. An
    (S, 1) column of targets gives an (S, T) table, one row per target, and
    a (B, T) batch of base probabilities with a (B, 1) column of targets
    rescales each row by its own sum; either way each row equals bit for
    bit the call for that row and target alone.
    """
    p_base = np.asarray(p_base, dtype=np.float64)
    if np.any(p_base <= 0.0) or np.any(p_base > 1.0):
        raise ValueError("p_base values must lie in (0, 1]")
    total = p_base.sum(axis=-1, keepdims=True)
    if np.any(total <= 0.0):
        raise ValueError("sum of p_base must be positive")
    return np.minimum(expected_masked / total * p_base, 1.0)


def ctf_probabilities(p_base: np.ndarray, i: int | Sequence[int], n_steps: int) -> np.ndarray:
    """Coarse-to-fine per-token masking probabilities at step i.

    Matches the cosine schedule's expected masked count in aggregate while
    keeping rare tokens (high p_base) masked longer than frequent ones.
    Uniform p_base collapses this to the plain cosine schedule. For a
    sequence of steps ``i`` there is one row per step, of the one (T,)
    p_base (``range(n_steps + 1)`` gives a decode's table) or of the
    matching row of a (B, T) batch; row s equals bit for bit the call for
    its row and step ``i[s]`` alone.
    """
    p_base = np.asarray(p_base, dtype=np.float64)
    t = p_base.shape[-1]
    if np.ndim(i) == 0:
        return scaled_clipped_probabilities(p_base, expected_masked_cosine(i, n_steps, t))
    return scaled_clipped_probabilities(p_base, np.array([[expected_masked_cosine(s, n_steps, t)] for s in i]))


def sample_mask(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """(T,) int8 mask in {0,1}: an independent Bernoulli draw per position,
    the T uniforms of ``rng.random(T)`` put through ``threshold_mask``."""
    probs = np.asarray(probs, dtype=np.float64)
    return threshold_mask(probs, rng.random(probs.shape[0]))


def threshold_mask(probs: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """([B,] T) int8 mask in {0,1}: 1 where a position's uniform draw lies
    below its masking probability. ``probs`` broadcasts against the
    ``uniforms``, so a (B, 1) column gives each sequence of a batch one
    probability; row b of a batch equals the mask of row b alone."""
    probs = np.asarray(probs, dtype=np.float64)
    if np.any(probs < 0.0) or np.any(probs > 1.0):
        raise ValueError("mask probabilities must lie in [0, 1]")
    return (uniforms < probs).astype(np.int8)


def apply_mask(tokens: np.ndarray, m: np.ndarray, mask_token_id: int) -> np.ndarray:
    """Write the mask token into selected positions, leave the rest alone."""
    tokens = np.asarray(tokens, dtype=np.int64)
    m = np.asarray(m)
    if tokens.shape[0] != m.shape[0]:
        raise ValueError(f"length mismatch: {tokens.shape[0]} tokens vs {m.shape[0]} mask entries")
    return np.where(m == 1, np.int64(mask_token_id), tokens)


def dump_schedule_rows(config: ScheduleConfig, seq_len: int) -> list[tuple[int, float]]:
    """Rows ``(step, expected_masked)`` for CSV plotting."""
    return [(i, expected_masked_cosine(i, config.n_steps, seq_len)) for i in range(config.n_steps + 1)]
