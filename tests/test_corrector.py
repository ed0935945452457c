"""Corruption-trained suspicion scorer and the re-mask/refill loop."""

import math
import os
import struct
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from helpers import central_differences, corrector_params, roc_auc, set_corrector_params

import maskgen.corrector as corrector_mod
from maskgen.corpus import generate_corpus
from maskgen.corrector import (
    CorrectorModel,
    CorrectorTrainConfig,
    bce_loss_and_grads,
    correct,
    corrupt_for_training,
    detect_and_remask,
    init_corrector,
    load_corrector,
    save_corrector,
    suspicion_scores,
    train_corrector,
)
from maskgen.errors import NumericsError
from maskgen.predictor import build_conditioning, init_model
from maskgen.schedule import MaskMode, ScheduleConfig


class TestCorruptForTraining:
    def test_labels_mark_changed_positions_exactly(self):
        rng = np.random.default_rng(1)
        clean = rng.integers(0, 16, size=500)
        corrupted, labels = corrupt_for_training(clean, 16, 0.3, rng)
        np.testing.assert_array_equal(labels == 1, corrupted != clean)
        assert (corrupted[labels == 1] != clean[labels == 1]).all()

    def test_mean_label_rate_matches_half_max_rate(self):
        # u ~ Uniform(0, 0.3): E[rate] = 0.15. With S sequences of length T,
        # Var(mean) = (Var(u) + E[u(1-u)]/T)/S = (0.0075 + 0.12/T)/S
        rng = np.random.default_rng(2)
        s_count, t_len = 1000, 100
        total = 0
        for _ in range(s_count):
            clean = rng.integers(0, 8, size=t_len)
            _, labels = corrupt_for_training(clean, 8, 0.3, rng)
            total += int(labels.sum())
        mean_rate = total / (s_count * t_len)
        sigma = math.sqrt((0.0075 + 0.12 / t_len) / s_count)
        assert abs(mean_rate - 0.15) <= 3 * sigma

    def test_invalid_max_rate(self):
        with pytest.raises(ValueError):
            corrupt_for_training(np.array([0]), 4, 0.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            corrupt_for_training(np.array([0]), 4, 1.5, np.random.default_rng(0))


class TestGradients:
    def test_bce_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            v = int(rng.integers(2, 9))
            model = init_corrector(v, int(rng.integers(1, 5)), int(rng.integers(0, 3)), rng)
            t = int(rng.integers(2, 13))
            tokens = rng.integers(0, v, size=t)
            labels = (rng.random(t) < 0.4).astype(np.int8)
            _, g_e, g_w, g_b = bce_loss_and_grads(model, tokens, labels)
            analytic = np.concatenate([g_e.ravel(), g_w.ravel(), [g_b]])

            def loss_at(flat, model=model, tokens=tokens, labels=labels):
                saved = corrector_params(model)
                set_corrector_params(model, flat)
                value = bce_loss_and_grads(model, tokens, labels)[0]
                set_corrector_params(model, saved)
                return value

            numeric = central_differences(loss_at, corrector_params(model), h=1e-6)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-8)


class TestTrainCorrector:
    def test_zero_learning_rate_keeps_parameters(self):
        corpus = generate_corpus(8, 10, 16, 1.0, 0, seed=4)
        model, _ = train_corrector(corpus, CorrectorTrainConfig(lr=0.0, epochs=2, seed=5, dim=4, radius=1))
        fresh = init_corrector(8, 4, 1, np.random.default_rng(5))
        np.testing.assert_array_equal(model.embedding, fresh.embedding)
        np.testing.assert_array_equal(model.w, fresh.w)
        assert model.b == fresh.b

    def test_deterministic(self):
        corpus = generate_corpus(8, 12, 16, 1.2, 1, seed=6)
        cfg = CorrectorTrainConfig(lr=0.5, epochs=2, seed=7, dim=4, radius=1)
        a, hist_a = train_corrector(corpus, cfg)
        b, hist_b = train_corrector(corpus, cfg)
        np.testing.assert_array_equal(a.embedding, b.embedding)
        np.testing.assert_array_equal(a.w, b.w)
        assert [h.loss_per_position for h in hist_a] == [h.loss_per_position for h in hist_b]

    def test_loss_decreases(self):
        corpus = generate_corpus(16, 80, 32, 1.2, 1, seed=8)
        _, history = train_corrector(corpus, CorrectorTrainConfig(lr=1.0, epochs=4, seed=9, dim=8, radius=2))
        assert history[-1].loss_per_position < history[0].loss_per_position

    def test_divergence_raises_numerics_error(self):
        corpus = generate_corpus(8, 8, 12, 1.0, 0, seed=10)
        with np.errstate(all="ignore"), pytest.raises(NumericsError):
            train_corrector(corpus, CorrectorTrainConfig(lr=1e12, epochs=3, seed=11, dim=4, radius=1))

    def test_held_out_detection_beats_chance(self):
        # pilot runs land around AUC 0.83 with clear suspicion separation
        train_c = generate_corpus(32, 200, 64, 1.2, 1, seed=12)
        test_c = generate_corpus(32, 60, 64, 1.2, 1, seed=112)
        model, _ = train_corrector(train_c, CorrectorTrainConfig(lr=1.0, epochs=4, seed=13, dim=12, radius=2))
        rng = np.random.default_rng(14)
        scores, labels = [], []
        for row in test_c.tokens:
            corrupted, lab = corrupt_for_training(row, 32, 0.3, rng)
            scores.append(suspicion_scores(model, corrupted))
            labels.append(lab)
        scores, labels = np.concatenate(scores), np.concatenate(labels)
        assert roc_auc(scores, labels) > 0.7
        assert scores[labels == 1].mean() > scores[labels == 0].mean()


class TestDetectAndRemask:
    def test_threshold_one_never_flags(self):
        rng = np.random.default_rng(15)
        model = init_corrector(8, 4, 1, rng)
        verdict = detect_and_remask(rng.integers(0, 8, size=30), model, 1.0)
        assert not verdict.remask.any()
        assert np.all((verdict.suspicion > 0) & (verdict.suspicion < 1))

    def test_threshold_zero_flags_everything(self):
        rng = np.random.default_rng(16)
        model = init_corrector(8, 4, 1, rng)
        verdict = detect_and_remask(rng.integers(0, 8, size=30), model, 0.0)
        assert verdict.remask.all()

    def test_hand_arithmetic_oracle(self):
        model = init_corrector(3, 2, 1, np.random.default_rng(17))
        model.embedding[:] = np.array([[0.4, -0.1], [-0.3, 0.8], [0.2, 0.5]])
        model.w[:] = np.array([0.5, -1.0, 0.25, 0.75, -0.5, 1.0])
        model.b = -0.1
        tokens = [0, 2, 1]
        verdict = detect_and_remask(np.array(tokens), model, 0.5)

        emb = model.embedding.tolist()
        for t in range(3):
            feat = []
            for k in (-1, 0, 1):
                tt = t + k
                feat.extend(emb[tokens[tt]] if 0 <= tt < 3 else [0.0, 0.0])
            logit = sum(f * wj for f, wj in zip(feat, model.w)) + model.b
            expected = 1.0 / (1.0 + math.exp(-logit))
            assert verdict.suspicion[t] == pytest.approx(expected, rel=1e-12)
            assert verdict.remask[t] == (1 if expected > 0.5 else 0)

    def test_invalid_threshold(self):
        model = init_corrector(4, 2, 1, np.random.default_rng(18))
        with pytest.raises(ValueError):
            detect_and_remask(np.array([0]), model, 1.5)


def tiny_setup(seed):
    rng = np.random.default_rng(seed)
    predictor = init_model(4, 2, 1, rng)
    predictor.embedding[:] = rng.normal(0, 0.8, size=predictor.embedding.shape)
    predictor.out_w[:] = rng.normal(0, 0.8, size=predictor.out_w.shape)
    corrector = init_corrector(4, 2, 1, rng)
    corrector.embedding[:] = rng.normal(0, 0.8, size=corrector.embedding.shape)
    corrector.w[:] = rng.normal(0, 0.8, size=corrector.w.shape)
    distorted = rng.integers(0, 4, size=6)
    decoded = rng.integers(0, 4, size=6)
    ctx = build_conditioning(distorted, predictor)
    return predictor, corrector, ctx, decoded


class TestCorrect:
    def test_zero_rounds_is_identity(self):
        predictor, corrector, ctx, decoded = tiny_setup(19)
        out = correct(decoded, predictor, ctx, corrector, 0.5, rounds=0)
        np.testing.assert_array_equal(out, decoded)

    def test_threshold_one_is_identity(self):
        predictor, corrector, ctx, decoded = tiny_setup(20)
        out = correct(decoded, predictor, ctx, corrector, 1.0, rounds=5)
        np.testing.assert_array_equal(out, decoded)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        theta=st.floats(0.0, 1.0),
        rounds=st.integers(0, 4),
        full=st.booleans(),
    )
    @example(seed=21, theta=0.4, rounds=3, full=False)
    def test_never_touches_unflagged_positions(self, seed, theta, rounds, full):
        flagged_union = []
        real = corrector_mod.detect_and_remask

        def recording(tokens, model, threshold):
            verdict = real(tokens, model, threshold)
            flagged_union.append(verdict.remask.copy())
            return verdict

        predictor, corrector, ctx, decoded = tiny_setup(seed)
        refill = ScheduleConfig(n_steps=3) if full else None
        with mock.patch.object(corrector_mod, "detect_and_remask", recording):
            out = correct(decoded, predictor, ctx, corrector, theta, rounds=rounds, refill=refill)
        union = np.zeros(6, dtype=bool)
        for remask in flagged_union:
            union |= remask == 1
        changed = out != decoded
        assert not changed[~union].any()
        if rounds == 0:
            assert not flagged_union
            np.testing.assert_array_equal(out, decoded)

    def test_terminates_within_rounds(self):
        predictor, corrector, ctx, decoded = tiny_setup(22)
        out = correct(decoded, predictor, ctx, corrector, 0.0, rounds=4)
        assert out.shape == decoded.shape  # flags everything each round, still returns

    def test_round_simulation_oracle(self):
        # independent simulation: score with plain arithmetic, mask, refill
        # with argmax of the predictor, repeat
        predictor, corrector, ctx, decoded = tiny_setup(23)
        theta, rounds = 0.45, 3
        out = correct(decoded, predictor, ctx, corrector, theta, rounds=rounds)

        from maskgen.predictor import forward
        from maskgen.schedule import apply_mask

        cur = decoded.copy()
        for _ in range(rounds):
            suspicion = suspicion_scores(corrector, cur)
            remask = suspicion > theta
            if not remask.any():
                break
            masked = apply_mask(cur, remask.astype(np.int8), 4)
            pred = forward(predictor, masked, ctx)
            refilled = masked.copy()
            refilled[remask] = pred.probs[remask].argmax(axis=1)
            if np.array_equal(refilled, cur):
                break
            cur = refilled
        np.testing.assert_array_equal(out, cur)

    def test_full_decode_refill_variant(self):
        predictor, corrector, ctx, decoded = tiny_setup(27)
        sched = ScheduleConfig(n_steps=2)
        out = correct(decoded, predictor, ctx, corrector, 0.3, rounds=2, refill=sched)
        assert out.shape == decoded.shape
        assert (out != 4).all()

    def test_negative_rounds_rejected(self):
        predictor, corrector, ctx, decoded = tiny_setup(24)
        with pytest.raises(ValueError):
            correct(decoded, predictor, ctx, corrector, 0.5, rounds=-1)


def block_setup(seed, batch, t):
    """``tiny_setup``'s models with a (batch, t) block of distorted
    observations, decoded rows and rarity priors in (0, 1]."""
    predictor, corrector, _, _ = tiny_setup(seed)
    rng = np.random.default_rng([seed, batch, t])
    distorted, decoded = rng.integers(0, 4, size=(2, batch, t))
    return predictor, corrector, distorted, decoded, 1.0 - rng.random((batch, t))


class TestBlockCorrect:
    """``correct`` on a (B, T) block refills its rows with one lockstep
    ``decode`` per round and stops each row at its own fixed point; every
    row must come out as a call on that row alone does, bit for bit."""

    @staticmethod
    def rows_equal_block(seed, batch, t, theta, rounds, full, ctf):
        """Assert the block equals its row calls and scores the rows they
        score; return the number of rounds each row's own call scored."""
        predictor, corrector, distorted, decoded, p_base = block_setup(seed, batch, t)
        p_base = p_base if ctf else None
        mode = MaskMode.CTF if ctf else MaskMode.UNIFORM_COSINE
        refill = ScheduleConfig(n_steps=min(3, t), mode=mode) if full else None
        calls = []
        real = corrector_mod.detect_and_remask

        def recording(tokens, model, threshold):
            calls.append(tokens.shape)
            return real(tokens, model, threshold)

        with mock.patch.object(corrector_mod, "detect_and_remask", recording):
            out = correct(decoded, predictor, build_conditioning(distorted, predictor), corrector, theta, rounds,
                          refill=refill, p_base=p_base)
            assert out.shape == (batch, t) and out.dtype == np.int64
            block_calls, scored = calls[:], []
            for j in range(batch):
                calls.clear()
                row = correct(decoded[j], predictor, build_conditioning(distorted[j], predictor), corrector, theta,
                              rounds, refill=refill, p_base=None if p_base is None else p_base[j])
                assert out[j].tobytes() == row.tobytes(), j
                assert set(calls) <= {(t,)}  # a single row is scored as a (T,) sequence
                scored.append(len(calls))
        # each round scores just the rows not yet at a fixed point
        assert all(len(shape) == 2 and shape[1] == t for shape in block_calls)
        assert sum(shape[0] for shape in block_calls) == sum(scored)
        return scored

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        batch=st.integers(0, 5),
        t=st.integers(1, 12),
        theta=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        rounds=st.integers(0, 4),
        full=st.booleans(),
        ctf=st.booleans(),
    )
    @example(seed=0, batch=0, t=5, theta=0.5, rounds=2, full=True, ctf=True)
    @example(seed=1, batch=5, t=1, theta=0.0, rounds=4, full=False, ctf=True)
    @example(seed=2, batch=5, t=12, theta=1.0, rounds=3, full=True, ctf=False)
    @example(seed=3, batch=5, t=12, theta=0.0, rounds=4, full=True, ctf=True)
    def test_block_equals_single_rows(self, seed, batch, t, theta, rounds, full, ctf):
        self.rows_equal_block(seed, batch, t, theta, rounds, full, ctf)

    @pytest.mark.parametrize("full", [False, True], ids=["single", "full"])
    @pytest.mark.parametrize("ctf", [False, True], ids=["uniform", "ctf"])
    def test_rows_that_stop_at_different_rounds(self, full, ctf):
        scored = [self.rows_equal_block(seed, 5, 10, 0.5, 4, full, ctf) for seed in range(20)]
        # several blocks whose rows stopped after three different round counts or more
        assert sum(len(set(rounds)) >= 3 for rounds in scored) >= 3, scored

    @pytest.mark.parametrize("batch", [1, 3])
    def test_a_non_finite_corrector_raises_as_on_one_row(self, batch):
        predictor, corrector, distorted, decoded, _ = block_setup(28, batch, 6)
        corrector.w[:] = np.nan
        with pytest.raises(NumericsError) as one:
            correct(decoded[0], predictor, build_conditioning(distorted[0], predictor), corrector, 0.5, 2)
        with pytest.raises(NumericsError) as block:
            correct(decoded, predictor, build_conditioning(distorted, predictor), corrector, 0.5, 2)
        assert str(block.value) == str(one.value) == "non-finite suspicion scores in correction round 0"


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc(np.array([0.9, 0.8, 0.2, 0.1]), np.array([1, 1, 0, 0])) == 1.0

    def test_reversed(self):
        assert roc_auc(np.array([0.1, 0.2, 0.8, 0.9]), np.array([1, 1, 0, 0])) == 0.0

    def test_all_tied_is_chance(self):
        assert roc_auc(np.full(10, 0.5), np.array([1] * 5 + [0] * 5)) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            roc_auc(np.array([0.1, 0.2]), np.array([1, 1]))


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        model = init_corrector(6, 4, 2, np.random.default_rng(25))
        model.b = 0.37
        path = tmp_path / "corrector.bin"
        save_corrector(model, path)
        loaded = load_corrector(path)
        np.testing.assert_array_equal(loaded.embedding, model.embedding)
        np.testing.assert_array_equal(loaded.w, model.w)
        assert loaded.b == model.b and loaded.radius == 2

    def test_predictor_magic_rejected(self, tmp_path):
        from maskgen.predictor import init_model as init_pred, save_predictor

        path = tmp_path / "pred.bin"
        save_predictor(init_pred(4, 2, 1, np.random.default_rng(26)), path)
        with pytest.raises(ValueError):
            load_corrector(path)

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(v=st.integers(1, 6), d=st.integers(1, 4), r=st.integers(0, 2), data=st.data())
    def test_round_trip_bit_exact(self, v, d, r, data):
        floats = st.floats(width=64)
        model = CorrectorModel(
            embedding=data.draw(arrays(np.float64, (v, d), elements=floats)),
            w=data.draw(arrays(np.float64, (d * (2 * r + 1),), elements=floats)),
            b=data.draw(floats),
            radius=r,
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "corrector.bin")
            save_corrector(model, path)
            with open(path, "rb") as fh:
                raw = fh.read()
            loaded = load_corrector(path)
        assert len(raw) == 8 + 16 + 8 * (model.embedding.size + model.w.size + 1)
        assert raw[-8:] == struct.pack("<d", model.b)  # the bias block is one packed double
        assert loaded.embedding.tobytes() == model.embedding.tobytes()
        assert loaded.w.tobytes() == model.w.tobytes()
        assert struct.pack("<d", loaded.b) == struct.pack("<d", model.b)
        assert (loaded.vocab_size, loaded.dim, loaded.radius) == (v, d, r)

    @pytest.mark.parametrize("cut", [1, 8, 24, -1, -14])
    def test_wrong_length_rejected(self, tmp_path, cut):
        # positive cut drops that many trailing bytes; negative appends them
        path = tmp_path / "corrector.bin"
        save_corrector(init_corrector(5, 3, 1, np.random.default_rng(27)), path)
        whole = path.read_bytes()
        path.write_bytes(whole[:-cut] if cut > 0 else whole + b"\x7f" * -cut)
        with pytest.raises(ValueError, match="bytes"):
            load_corrector(path)
