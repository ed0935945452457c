"""Open-count planning and iterative confidence decoding.

The decode oracle below is an independent reimplementation of the whole
procedure (forward pass included) in plain Python lists and loops, so the
vectorized implementation is checked end to end against it.
"""

import ast
import importlib.util
import inspect
import math
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import maskgen.decoder as decoder_mod
from maskgen.corrector import correct, init_corrector
from maskgen.decoder import decode, plan_open_counts
from maskgen.errors import NumericsError
from maskgen.predictor import build_conditioning, forward, init_model
from maskgen.schedule import (
    MaskMode,
    ScheduleConfig,
    ctf_probabilities,
    scaled_clipped_probabilities,
)


def oracle_decode(model, distorted, n_steps, initial=None, p_base=None, trace=None):
    """Step-by-step greedy decode with scalar arithmetic only.

    ``initial`` pre-commits every position that does not hold the mask
    token; ``p_base`` switches to the coarse-to-fine plan and stay-open
    score. Every step runs a forward pass, whether or not
    it commits. When ``trace`` is a list, one ``(open_count,
    mean_confidence)`` pair per step is appended to it.
    """
    emb = [[float(x) for x in row] for row in model.embedding]
    w = [[float(x) for x in row] for row in model.out_w]
    b = [float(x) for x in model.out_b]
    v, d, r = model.vocab_size, model.dim, model.radius
    t_len = len(distorted)
    mask_id = v

    cond = [emb[tok] for tok in distorted]
    g = [sum(row[j] for row in cond) / t_len for j in range(d)]

    def probs_at(cur, t):
        feat = []
        for k in range(-r, r + 1):
            tt = t + k
            if 0 <= tt < t_len:
                u = [emb[cur[tt]][j] + cond[tt][j] for j in range(d)]
            else:
                u = [0.0] * d
            if k == 0:
                u = [u[j] + g[j] for j in range(d)]
            feat.extend(u)
        logits = [sum(feat[j] * w[j][klass] for j in range(len(feat))) + b[klass] for klass in range(v)]
        mx = max(logits)
        exps = [math.exp(x - mx) for x in logits]
        z = sum(exps)
        return [e / z for e in exps]

    def expected(i):
        return t_len * math.cos(0.5 * math.pi * i / n_steps) if i < n_steps else 0.0

    def ctf(i):
        total = sum(float(p) for p in p_base)
        return [min(expected(i) / total * float(p), 1.0) for p in p_base]

    # plan: round half up, then repair to a strict decrease pinned at T and 0
    if p_base is None:
        raw = [math.floor(expected(i) + 0.5) for i in range(n_steps + 1)]
    else:
        raw = [math.floor(sum(ctf(i)) + 0.5) for i in range(n_steps + 1)]
    counts = [0] * (n_steps + 1)
    for i in range(n_steps - 1, 0, -1):
        counts[i] = max(counts[i + 1] + 1, min(raw[i], t_len - i))
    counts[0] = t_len

    cur = [mask_id] * t_len if initial is None else [int(x) for x in initial]
    open0 = sum(1 for x in cur if x == mask_id)
    if open0 == 0:
        return cur
    counts = [min(c, open0) for c in counts]
    for i in range(n_steps):
        open_pos = [t for t in range(t_len) if cur[t] == mask_id]
        picks = []
        for t in open_pos:
            p = probs_at(cur, t)
            best = 0
            for klass in range(1, v):
                if p[klass] > p[best]:
                    best = klass
            picks.append((t, best, p[best]))
        if trace is not None:
            trace.append((len(open_pos), sum(item[2] for item in picks) / len(picks)))
        n_commit = len(open_pos) - counts[i + 1]
        weight = [1.0] * t_len if p_base is None else ctf(i + 1)
        picks.sort(key=lambda item: (weight[item[0]] * (1.0 - item[2]), item[0]))
        for t, tok, _ in picks[:max(n_commit, 0)]:
            cur[t] = tok
    return cur


class TestPlanOpenCounts:
    def test_single_step(self):
        sched = ScheduleConfig(n_steps=1)
        np.testing.assert_array_equal(plan_open_counts(sched, 5), [5, 0])

    def test_two_steps_ten_tokens(self):
        sched = ScheduleConfig(n_steps=2)
        np.testing.assert_array_equal(plan_open_counts(sched, 10), [10, 7, 0])

    def test_endpoints_and_strict_decrease(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            t = int(rng.integers(2, 200))
            n = int(rng.integers(1, t + 1))
            sched = ScheduleConfig(n_steps=n)
            counts = plan_open_counts(sched, t)
            assert counts[0] == t and counts[-1] == 0
            assert (np.diff(counts) < 0).all()

    def test_ctf_counts_match_expectation_sums(self):
        rng = np.random.default_rng(1)
        p_base = rng.uniform(0.05, 0.95, size=24)
        sched = ScheduleConfig(n_steps=6, mode=MaskMode.CTF)
        counts = plan_open_counts(sched, 24, ctf_probabilities(p_base, range(7), 6))
        for i in range(1, 6):
            e_cos = 24 * math.cos(0.5 * math.pi * i / 6)
            expected = float(scaled_clipped_probabilities(p_base, e_cos).sum())
            raw = math.floor(expected + 0.5)
            assert counts[i] <= max(raw, counts[i + 1] + 1)
        assert counts[0] == 24 and counts[-1] == 0

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        t=st.integers(1, 48),
        data=st.data(),
        ctf=st.booleans(),
    )
    def test_strictly_decreasing_for_every_step_count(self, t, data, ctf):
        p_base = None
        if ctf:
            p_base = np.array(data.draw(st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=t, max_size=t)))
        mode = MaskMode.CTF if ctf else MaskMode.UNIFORM_COSINE
        for n in range(1, t + 1):
            sched = ScheduleConfig(n_steps=n, mode=mode)
            # a subnormal p_base total overflows the scale to inf; the clip at 1 absorbs it
            with np.errstate(over="ignore"):
                counts = plan_open_counts(sched, t, ctf_probabilities(p_base, range(n + 1), n) if ctf else None)
            assert counts.shape == (n + 1,) and counts[0] == t and counts[-1] == 0
            assert (np.diff(counts) < 0).all(), (n, counts)

    def test_more_steps_than_tokens_rejected(self):
        sched = ScheduleConfig(n_steps=8)
        with pytest.raises(ValueError):
            plan_open_counts(sched, 4)


def make_case(rng, t_len=3, v=3, d=2, r=1):
    model = init_model(v, d, r, rng)
    model.embedding[:] = rng.normal(0, 1.0, size=model.embedding.shape)
    model.out_w[:] = rng.normal(0, 1.0, size=model.out_w.shape)
    model.out_b[:] = rng.normal(0, 0.5, size=v)
    distorted = rng.integers(0, v, size=t_len)
    return model, distorted


class TestDecode:
    def test_oracle_equivalence_hand_set(self):
        model = init_model(3, 2, 1, np.random.default_rng(0))
        model.embedding[:] = np.array([[0.5, -0.3], [0.1, 0.9], [-0.7, 0.2], [0.0, 0.4]])
        model.out_w[:] = np.linspace(-1.0, 1.0, model.out_w.size).reshape(model.out_w.shape)
        model.out_b[:] = np.array([0.1, -0.2, 0.05])
        distorted = np.array([2, 0, 1])
        sched = ScheduleConfig(n_steps=2)
        out, _ = decode(model, build_conditioning(distorted, model), sched)
        assert list(out) == oracle_decode(model, list(distorted), 2)

    def test_oracle_equivalence_seeded_cases(self):
        for seed in range(50):
            rng = np.random.default_rng(1000 + seed)
            model, distorted = make_case(rng)
            sched = ScheduleConfig(n_steps=2)
            out, _ = decode(model, build_conditioning(distorted, model), sched)
            assert list(out) == oracle_decode(model, list(distorted), 2), f"seed {seed}"

    def test_single_step_equals_argmax(self):
        rng = np.random.default_rng(2)
        model, distorted = make_case(rng, t_len=7, v=5, d=3, r=1)
        ctx = build_conditioning(distorted, model)
        sched = ScheduleConfig(n_steps=1)
        out, trace = decode(model, ctx, sched)
        single = forward(model, np.full(7, 5), ctx)
        np.testing.assert_array_equal(out, single.probs.argmax(axis=1))
        assert len(trace) == 1 and trace[0].open_count == 7

    def test_fully_precommitted_is_identity(self):
        rng = np.random.default_rng(3)
        model, distorted = make_case(rng, t_len=5, v=4, d=2, r=1)
        ctx = build_conditioning(distorted, model)
        sched = ScheduleConfig(n_steps=3)
        fixed = np.array([1, 3, 0, 2, 2])
        out, trace = decode(model, ctx, sched, initial=fixed)
        np.testing.assert_array_equal(out, fixed)
        assert trace == []

    def test_terminates_with_no_masks_in_exactly_n_steps(self):
        rng = np.random.default_rng(4)
        model, distorted = make_case(rng, t_len=20, v=6, d=3, r=2)
        ctx = build_conditioning(distorted, model)
        for n in (1, 3, 9, 20):
            sched = ScheduleConfig(n_steps=n)
            out, trace = decode(model, ctx, sched)
            assert (out != 6).all()
            assert len(trace) == n

    def test_committed_positions_never_change(self, monkeypatch):
        seen = []
        real_forward = decoder_mod.forward

        def recording_forward(model, masked, ctx, positions=None):
            seen.append(np.asarray(masked).copy())
            return real_forward(model, masked, ctx, positions)

        monkeypatch.setattr(decoder_mod, "forward", recording_forward)
        rng = np.random.default_rng(5)
        model, distorted = make_case(rng, t_len=16, v=5, d=3, r=1)
        ctx = build_conditioning(distorted, model)
        out, _ = decode(model, ctx, ScheduleConfig(n_steps=8))
        seen.append(out)
        for before, after in zip(seen, seen[1:]):
            fixed = before != 5
            np.testing.assert_array_equal(before[fixed], after[fixed])

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        t=st.integers(1, 24),
        data=st.data(),
        ctf=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_each_step_commits_the_planned_count_and_keeps_commits(self, t, data, ctf, seed):
        n = data.draw(st.integers(1, t))
        rng = np.random.default_rng(seed)
        model, distorted = make_case(rng, t_len=t, v=5, d=3, r=1)
        p_base = 1.0 - rng.random(t) if ctf else None  # in (0, 1]
        mode = MaskMode.CTF if ctf else MaskMode.UNIFORM_COSINE
        sched = ScheduleConfig(n_steps=n, mode=mode)
        inputs = []
        real_forward = decoder_mod.forward

        def recording_forward(model, masked, ctx, positions=None):
            inputs.append(np.array(masked))
            return real_forward(model, masked, ctx, positions)

        with mock.patch.object(decoder_mod, "forward", recording_forward):
            out, _ = decode(model, build_conditioning(distorted, model), sched, p_base=p_base)
        counts = plan_open_counts(sched, t, ctf_probabilities(p_base, range(n + 1), n) if ctf else None)
        # from the fully masked start every step commits, so every step runs a pass
        assert len(inputs) == n
        states = inputs + [out]
        for i, (before, after) in enumerate(zip(states, states[1:])):
            committed = before != 5
            assert (~committed).sum() == counts[i] and (after == 5).sum() == counts[i + 1]
            np.testing.assert_array_equal(after[committed], before[committed])

    def test_greedy_decode_is_pure(self):
        rng = np.random.default_rng(6)
        model, distorted = make_case(rng, t_len=12, v=4, d=2, r=1)
        ctx = build_conditioning(distorted, model)
        sched = ScheduleConfig(n_steps=5)
        a, _ = decode(model, ctx, sched)
        b, _ = decode(model, ctx, sched)
        np.testing.assert_array_equal(a, b)

    def test_sample_selection_seeded(self):
        rng = np.random.default_rng(7)
        model, distorted = make_case(rng, t_len=12, v=4, d=2, r=1)
        ctx = build_conditioning(distorted, model)
        sched = ScheduleConfig(n_steps=4)
        a, _ = decode(model, ctx, sched, rng=np.random.default_rng(9), temperature=1.0)
        b, _ = decode(model, ctx, sched, rng=np.random.default_rng(9), temperature=1.0)
        np.testing.assert_array_equal(a, b)
        with pytest.raises(ValueError):
            decode(model, ctx, sched, rng=None, temperature=1.0)

    def test_ctf_requires_p_base(self):
        rng = np.random.default_rng(8)
        model, distorted = make_case(rng, t_len=6, v=4, d=2, r=1)
        ctx = build_conditioning(distorted, model)
        sched = ScheduleConfig(n_steps=3, mode=MaskMode.CTF)
        with pytest.raises(ValueError):
            decode(model, ctx, sched)

    def test_ctf_commits_frequent_positions_first(self, monkeypatch):
        # zero parameters make every confidence equal, so the stay-open
        # ranking is driven purely by the rarity prior
        model = init_model(4, 2, 1, np.random.default_rng(9))
        model.embedding[:] = 0.0
        model.out_w[:] = 0.0
        model.out_b[:] = 0.0
        distorted = np.array([0, 1, 2, 3, 0, 1])
        ctx = build_conditioning(distorted, model)
        p_base = np.array([0.1, 0.9, 0.5, 0.95, 0.2, 0.6])

        seen = []
        real_forward = decoder_mod.forward

        def recording_forward(mdl, masked, c, positions=None):
            seen.append(np.asarray(masked).copy())
            return real_forward(mdl, masked, c, positions)

        monkeypatch.setattr(decoder_mod, "forward", recording_forward)
        sched = ScheduleConfig(n_steps=3, mode=MaskMode.CTF)
        decode(model, ctx, sched, p_base=p_base)
        committed_second = np.flatnonzero(seen[1] != 4)
        open_second = np.flatnonzero(seen[1] == 4)
        assert p_base[committed_second].max() < p_base[open_second].min()


class TestDecodeSkipsIdleSteps:
    """Decodes from a partly committed ``initial`` clamp the plan, so some
    steps commit nothing; decoding at temperature 0 skips their forward passes."""

    @staticmethod
    def clamped_case(seed, t_len=12, v=4):
        """Every third case starts fully masked; every second one is CTF."""
        rng = np.random.default_rng(2000 + seed)
        model, distorted = make_case(rng, t_len=t_len, v=v)
        initial = rng.integers(0, v, size=t_len)
        initial[rng.choice(t_len, size=int(rng.integers(1, 4)), replace=False)] = v
        p_base = rng.uniform(0.05, 1.0, size=t_len) if seed % 2 else None
        return model, distorted, None if seed % 3 == 0 else initial, p_base

    def test_oracle_equivalence_with_initial_and_ctf(self):
        for seed in range(90):
            model, distorted, initial, p_base = self.clamped_case(seed)
            n = 3 + seed % 4
            mode = MaskMode.CTF if p_base is not None else MaskMode.UNIFORM_COSINE
            sched = ScheduleConfig(n_steps=n, mode=mode)
            out, trace = decode(model, build_conditioning(distorted, model), sched, p_base=p_base, initial=initial)
            expected_trace = []
            expected = oracle_decode(model, list(distorted), n, initial=initial, p_base=p_base, trace=expected_trace)
            assert list(out) == expected, f"seed {seed}"
            assert [row.step for row in trace] == list(range(n))
            assert [row.open_count for row in trace] == [c for c, _ in expected_trace], f"seed {seed}"
            for row, (_, conf) in zip(trace, expected_trace):
                assert row.mean_confidence == pytest.approx(conf, rel=1e-12, abs=1e-15), f"seed {seed}"

    def test_idle_steps_run_no_forward_pass(self, monkeypatch):
        seen = []
        real_forward = decoder_mod.forward

        def recording_forward(model, masked, ctx, positions=None):
            seen.append(np.asarray(masked).copy())
            return real_forward(model, masked, ctx, positions)

        monkeypatch.setattr(decoder_mod, "forward", recording_forward)
        rng = np.random.default_rng(11)
        model, distorted = make_case(rng, t_len=20, v=5, d=3, r=1)
        initial = rng.integers(0, 5, size=20)
        initial[[3, 11]] = 5
        out, trace = decode(model, build_conditioning(distorted, model), ScheduleConfig(n_steps=12),
                            initial=initial)
        assert len(trace) == 12
        assert 1 <= len(seen) <= 2  # one pass per step that commits
        for before, after in zip(seen, seen[1:]):
            assert not np.array_equal(before, after)
        # an idle row repeats the row of the pass that follows it
        for row, nxt in zip(trace, trace[1:]):
            if row.open_count == nxt.open_count:
                assert row.mean_confidence == nxt.mean_confidence
        assert (out != 5).all()

    def test_sampling_keeps_every_pass(self, monkeypatch):
        calls = []
        real_forward = decoder_mod.forward

        def counting_forward(model, masked, ctx, positions=None):
            calls.append(1)
            return real_forward(model, masked, ctx, positions)

        monkeypatch.setattr(decoder_mod, "forward", counting_forward)
        rng = np.random.default_rng(12)
        model, distorted = make_case(rng, t_len=10, v=4, d=2, r=1)
        initial = rng.integers(0, 4, size=10)
        initial[[2, 7]] = 4
        sched = ScheduleConfig(n_steps=6)
        _, trace = decode(model, build_conditioning(distorted, model), sched, rng=np.random.default_rng(0),
                          temperature=1.0, initial=initial)
        assert len(calls) == 6 and len(trace) == 6


class TestLockstep:
    """``decode`` on a (B, T) batch runs its rows in lockstep and predicts
    again only the positions whose window a commit changed; each row must
    come out as a decode of that row alone does, bit for bit."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        batch=st.integers(0, 4),
        t=st.integers(1, 12),
        steps=st.integers(1, 12),
        r=st.integers(0, 2),
        ctf=st.booleans(),
        sampled=st.booleans(),
        partly_committed=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @example(batch=0, t=5, steps=3, r=1, ctf=True, sampled=True, partly_committed=False, seed=0)
    @example(batch=1, t=1, steps=1, r=0, ctf=False, sampled=False, partly_committed=False, seed=1)
    @example(batch=3, t=1, steps=1, r=2, ctf=True, sampled=True, partly_committed=True, seed=2)
    @example(batch=4, t=12, steps=12, r=2, ctf=True, sampled=False, partly_committed=True, seed=3)
    @example(batch=4, t=12, steps=7, r=1, ctf=False, sampled=True, partly_committed=True, seed=4)
    def test_batch_equals_single_rows(self, batch, t, steps, r, ctf, sampled, partly_committed, seed):
        n = min(steps, t)
        rng = np.random.default_rng(seed)
        model, _ = make_case(rng, t_len=t, v=5, d=3, r=r)
        distorted = rng.integers(0, 5, size=(batch, t))
        p_base = 1.0 - rng.random((batch, t)) if ctf else None  # in (0, 1]
        initial = None
        if partly_committed:  # about half the positions committed, some rows wholly
            initial = np.where(rng.random((batch, t)) < 0.5, rng.integers(0, 5, size=(batch, t)), 5)
        temperature = 0.8 if sampled else 0.0
        seeds = rng.integers(0, 2**32, size=batch)
        sched = ScheduleConfig(n_steps=n, mode=MaskMode.CTF if ctf else MaskMode.UNIFORM_COSINE)

        rngs = [np.random.default_rng(s) for s in seeds] if sampled else None
        out, trace = decode(model, build_conditioning(distorted, model), sched, rngs, temperature, p_base, initial)
        assert out.shape == (batch, t) and trace.shape == (batch, n, 2)
        for j in range(batch):
            row_out, row_trace = decode(
                model, build_conditioning(distorted[j], model), sched,
                np.random.default_rng(seeds[j]) if sampled else None, temperature,
                None if p_base is None else p_base[j], None if initial is None else initial[j],
            )
            assert out[j].tobytes() == row_out.tobytes(), j
            rows = [(s.open_count, s.mean_confidence) for s in row_trace] or [(0, math.nan)] * n
            assert trace[j].tobytes() == np.array(rows, dtype=np.float64).tobytes(), j

    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_a_pass_predicts_only_the_open_positions_whose_window_changed(self, monkeypatch, r):
        calls = []
        real_forward = decoder_mod.forward

        def recording_forward(model, masked, ctx, positions=None):
            calls.append((np.array(masked), np.array(positions)))
            return real_forward(model, masked, ctx, positions)

        monkeypatch.setattr(decoder_mod, "forward", recording_forward)
        rng = np.random.default_rng(11 + r)
        model, _ = make_case(rng, t_len=16, v=5, d=3, r=r)
        distorted = rng.integers(0, 5, size=(3, 16))
        decode(model, build_conditioning(distorted, model), ScheduleConfig(n_steps=6))
        assert len(calls) == 6 and calls[0][1].all()  # one pass per step; the first predicts everything
        for (before, _), (after, picked) in zip(calls, calls[1:]):
            committed = (before == 5) & (after != 5)
            changed = committed.copy()
            for k in range(1, r + 1):
                changed[:, k:] |= committed[:, :-k]
                changed[:, :-k] |= committed[:, k:]
            np.testing.assert_array_equal(picked, changed & (after == 5))


class TestExactnessPins:
    def test_forward_positions_rows_equal_full_rows(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            model, distorted = make_case(rng, t_len=int(rng.integers(1, 40)), v=7, d=4, r=int(rng.integers(0, 3)))
            t = distorted.shape[0]
            masked = np.where(rng.random(t) < 0.5, 7, rng.integers(0, 7, size=t))
            ctx = build_conditioning(distorted, model)
            full = forward(model, masked, ctx).probs
            positions = rng.random(t) < 0.4
            part = forward(model, masked, ctx, positions=positions).probs
            assert part.shape == (int(positions.sum()), 7)
            assert np.array_equal(part, full[positions])

    def test_ctf_table_rows_equal_ctf_probabilities(self):
        # the probabilities over a sequence of steps, a decode's whole table
        # among them, hold row s the probabilities at step s bit for bit
        rng = np.random.default_rng(14)
        for _ in range(20):
            t = int(rng.integers(1, 120))
            n = int(rng.integers(1, 50))
            p_base = rng.uniform(1e-3, 1.0, size=t)
            steps = [range(n + 1), rng.integers(0, n + 1, size=int(rng.integers(1, 8))).tolist()]
            for seq in steps:
                table = ctf_probabilities(p_base, seq, n)
                assert table.shape == (len(seq), t)
                for row, i in zip(table, seq):
                    assert row.tobytes() == ctf_probabilities(p_base, i, n).tobytes()

    def test_ctf_plan_equals_plan_from_per_step_sums(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            t = int(rng.integers(1, 200))
            n = int(rng.integers(1, min(t, 60) + 1))
            p_base = rng.uniform(1e-3, 1.0, size=t)
            sched = ScheduleConfig(n_steps=n, mode=MaskMode.CTF)
            raw = [math.floor(float(ctf_probabilities(p_base, i, n).sum()) + 0.5) for i in range(n + 1)]
            expected = [0] * (n + 1)
            for i in range(n - 1, 0, -1):
                expected[i] = max(expected[i + 1] + 1, min(raw[i], t - i))
            expected[0] = t
            np.testing.assert_array_equal(plan_open_counts(sched, t, ctf_probabilities(p_base, range(n + 1), n)), expected)

    def test_ctf_table_rejects_bad_p_base(self):
        for p_base in ([0.5, 0.0], [0.5, 1.5], [0.5, -0.1]):
            for steps in (range(4), 2):
                with pytest.raises(ValueError, match=r"p_base values must lie in \(0, 1\]"):
                    ctf_probabilities(np.array(p_base), steps, 3)


class TestNonFinite:
    def nan_case(self):
        rng = np.random.default_rng(15)
        model, distorted = make_case(rng, t_len=8, v=4, d=2, r=1)
        model.out_w[0, 0] = np.nan
        return model, build_conditioning(distorted, model)

    def test_decode_raises(self):
        model, ctx = self.nan_case()
        with pytest.raises(NumericsError):
            decode(model, ctx, ScheduleConfig(n_steps=3))

    @pytest.mark.parametrize("refill", [None, ScheduleConfig(n_steps=3)], ids=["single", "full"])
    def test_refill_raises(self, refill):
        model, ctx = self.nan_case()
        scorer = init_corrector(4, 2, 1, np.random.default_rng(0))
        with pytest.raises(NumericsError):
            correct(np.zeros(8, dtype=np.int64), model, ctx, scorer, threshold=0.0, rounds=1, refill=refill)

    def test_nan_suspicion_raises(self):
        rng = np.random.default_rng(16)
        model, distorted = make_case(rng, t_len=8, v=4, d=2, r=1)
        scorer = init_corrector(4, 2, 1, np.random.default_rng(0))
        scorer.b = float("nan")
        with pytest.raises(NumericsError):
            correct(distorted, model, build_conditioning(distorted, model), scorer, threshold=0.5, rounds=1)


class TestConfidence:
    """The confidence of an open position is the probability of its argmax
    token in the forward pass."""

    def test_uniform_prediction(self):
        model = init_model(4, 2, 0, np.random.default_rng(0))
        model.embedding[:] = 0.0
        model.out_w[:] = 0.0
        model.out_b[:] = 0.0
        ctx = build_conditioning(np.array([0, 1]), model)
        pred = forward(model, np.array([4, 4]), ctx)
        assert pred.probs[0].max() == pytest.approx(0.25, abs=1e-15)

    def test_one_hot_prediction(self):
        model = init_model(3, 2, 0, np.random.default_rng(1))
        model.embedding[:] = 0.0
        model.out_w[:] = 0.0
        model.out_b[:] = np.array([1000.0, 0.0, 0.0])
        ctx = build_conditioning(np.array([0]), model)
        pred = forward(model, np.array([3]), ctx)
        assert pred.probs[0].max() == 1.0

    def test_tie_breaks_to_lower_token_id(self):
        model = init_model(2, 2, 0, np.random.default_rng(2))
        model.embedding[:] = 0.0
        model.out_w[:] = 0.0
        model.out_b[:] = 0.0
        ctx = build_conditioning(np.array([0]), model)
        pred = forward(model, np.array([2]), ctx)
        assert pred.probs[0].max() == pytest.approx(0.5, abs=1e-15)
        assert pred.probs[0].argmax() == 0


def _functions_using(name):
    """(module, function) of every function in ``src/maskgen`` that names
    ``name``, bare or as an attribute."""
    src = Path(__file__).resolve().parents[1] / "src" / "maskgen"
    users = set()
    for path in sorted(src.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    if isinstance(node, ast.Name) and node.id == name or (
                        isinstance(node, ast.Attribute) and node.attr == name
                    ):
                        users.add((path.stem, fn.name))
    return users


# The functions allowed to use the predictor's ``forward``: ``decode``, which
# fills every masked position (a corrector refill included), and the
# training objective.
FORWARD_USERS = {("decoder", "decode"), ("predictor", "example_loss"), ("predictor", "_batch_pass")}

# The functions allowed to call ``decode``: the one per-sequence inference
# loop, ``decode_all`` with the shard loop it hands to ``fan_out``, for
# ``evaluate`` and ``maskgen decode``, and the corrector's refill. A second
# copy of the loop would show up here.
DECODE_USERS = {("harness", "decode_all"), ("harness", "decode_rows"), ("corrector", "correct")}

# The functions allowed to draw or apply the substitution channel: the
# observation channel, the corrector's training corruption and predictor
# training. A second copy of the channel would show up here.
SUBSTITUTION_USERS = {
    ("corpus", "corrupt_sequence"), ("corrector", "corrupt_for_training"), ("predictor", "_draw_batch"),
}


def test_only_decode_and_training_call_forward():
    assert _functions_using("forward") == FORWARD_USERS


def test_only_the_inference_loop_and_correct_call_decode():
    assert _functions_using("decode") == DECODE_USERS


@pytest.mark.parametrize("name", ["draw_substitution", "apply_substitution"])
def test_only_the_channel_users_substitute(name):
    assert _functions_using(name) == SUBSTITUTION_USERS


def _importers(package):
    """Modules of ``src/maskgen`` that import the top-level ``package`` or a
    submodule of it, at module level or inside a function."""
    src = Path(__file__).resolve().parents[1] / "src" / "maskgen"
    importers = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import) and any(a.name.partition(".")[0] == package for a in node.names) or (
                isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == package
            ):
                importers.add(path.stem)
    return importers


def test_only_the_fan_out_forks():
    # the shards of decode_all and train_cells; a second route to worker
    # processes would show up here or in the next test
    assert _functions_using("fork") == {("cpus", "fan_out")}
    for name in ("forkpty", "posix_spawn", "posix_spawnp", "system", "popen"):
        assert _functions_using(name) == set(), name


def test_only_the_training_helper_starts_a_program():
    # the helper of predictor.train is the one process started through
    # subprocess; the process pools of the standard library go unused
    assert _importers("subprocess") == {"predictor"}
    assert _importers("multiprocessing") == _importers("concurrent") == set()


def test_only_blas_imports_ctypes():
    # native calls (the OpenBLAS thread count, glibc's heap) stay in one module
    assert _importers("ctypes") == {"blas"}


def test_the_benchmark_tracer_fits_the_program(monkeypatch):
    # bench/tracing.py wraps program functions by name and its hooks read
    # some arguments by position; a deletion or a moved parameter would
    # otherwise surface only when a traced benchmark run starts
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for _, module, attr in tracing.WRAPPED:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)
    tracing.Tracer()  # patches nothing until it is made active
    slots = {
        ("maskgen.predictor", "train"): {"corpus": 0, "hyper": 3},
        ("maskgen.predictor", "forward"): {"masked": 1},
        ("maskgen.corrector", "correct"): {"decoded": 0},
    }
    for (module, attr), expected in slots.items():
        params = list(inspect.signature(getattr(importlib.import_module(module), attr)).parameters)
        assert {name: params.index(name) for name in expected if name in params} == expected, (module, attr)
