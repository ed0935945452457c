"""Masked-token predictor: conditioning, forward, loss gradients, training."""

import math
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from helpers import (
    central_differences,
    predictor_grads_flat,
    predictor_params,
    set_predictor_params,
)

from maskgen.corpus import Corpus, generate_corpus, document_frequency
from maskgen.errors import NumericsError
from maskgen.harness import RunDir, write_training_csvs
from maskgen.predictor import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    PredictorModel,
    TrainConfig,
    _draw_batch,
    _finish_batch,
    _start_batch,
    build_conditioning,
    example_loss,
    forward,
    init_model,
    load_predictor,
    masked_ce_loss,
    save_predictor,
    train,
    window,
    window_adjoint,
)
from maskgen.schedule import MaskMode, ScheduleConfig


def random_instance(rng):
    """Small random model plus one example (distorted/masked/target/mask)."""
    v = int(rng.integers(2, 9))
    d = int(rng.integers(1, 5))
    r = int(rng.integers(0, 3))
    t = int(rng.integers(2, 13))
    model = init_model(v, d, r, rng)
    distorted = rng.integers(0, v, size=t)
    target = rng.integers(0, v, size=t)
    mask = (rng.random(t) < 0.5).astype(np.int8)
    mask[rng.integers(0, t)] = 1  # keep at least one masked position
    masked = np.where(mask == 1, v, target)
    return model, distorted, masked, target, mask


class TestBuildConditioning:
    def test_deterministic(self):
        model = init_model(5, 3, 1, np.random.default_rng(0))
        seq = np.array([0, 2, 4, 2])
        a = build_conditioning(seq, model)
        b = build_conditioning(seq.copy(), model)
        np.testing.assert_array_equal(a.cond, b.cond)
        np.testing.assert_array_equal(a.global_embed, b.global_embed)

    def test_constant_sequence(self):
        model = init_model(5, 3, 1, np.random.default_rng(1))
        ctx = build_conditioning(np.array([2, 2, 2]), model)
        np.testing.assert_array_equal(ctx.cond[0], ctx.cond[1])
        np.testing.assert_allclose(ctx.global_embed, ctx.cond[0], atol=1e-15)

    def test_position_swap(self):
        model = init_model(5, 3, 1, np.random.default_rng(2))
        a = build_conditioning(np.array([1, 2]), model)
        b = build_conditioning(np.array([2, 1]), model)
        np.testing.assert_array_equal(a.cond[0], b.cond[1])
        np.testing.assert_array_equal(a.cond[1], b.cond[0])

    def test_out_of_range_rejected(self):
        model = init_model(5, 3, 1, np.random.default_rng(3))
        with pytest.raises(ValueError):
            build_conditioning(np.array([5]), model)  # mask id not allowed here


class TestForward:
    def test_zero_parameters_give_uniform(self):
        model = init_model(7, 4, 2, np.random.default_rng(0))
        model.embedding[:] = 0.0
        model.out_w[:] = 0.0
        model.out_b[:] = 0.0
        ctx = build_conditioning(np.array([0, 3, 6]), model)
        pred = forward(model, np.array([7, 7, 7]), ctx)
        np.testing.assert_allclose(pred.probs, 1.0 / 7.0, atol=1e-15)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(4)
        model = init_model(6, 3, 1, rng)
        ctx = build_conditioning(rng.integers(0, 6, size=9), model)
        pred = forward(model, rng.integers(0, 7, size=9), ctx)
        np.testing.assert_allclose(pred.probs.sum(axis=1), 1.0, atol=1e-9)

    def test_hand_arithmetic_oracle(self):
        # independent recomputation with plain python loops, V=3 D=2 r=0
        model = init_model(3, 2, 0, np.random.default_rng(0))
        model.embedding[:] = np.array([[0.1, -0.2], [0.3, 0.0], [-0.1, 0.4], [0.2, 0.2]])
        model.out_w[:] = np.array([[1.0, -0.5, 0.25], [0.0, 0.75, -1.0]])
        model.out_b[:] = np.array([0.05, -0.05, 0.0])
        distorted = [1, 0, 2]
        masked = [3, 1, 3]  # mask token is 3
        ctx = build_conditioning(np.array(distorted), model)
        pred = forward(model, np.array(masked), ctx)

        emb = model.embedding.tolist()
        cond = [emb[tok] for tok in distorted]
        g = [sum(row[j] for row in cond) / 3.0 for j in range(2)]
        for t in range(3):
            u = [emb[masked[t]][j] + cond[t][j] for j in range(2)]
            f = [u[j] + g[j] for j in range(2)]
            logits = [
                f[0] * model.out_w[0, k] + f[1] * model.out_w[1, k] + model.out_b[k]
                for k in range(3)
            ]
            exps = [math.exp(x) for x in logits]
            z = sum(exps)
            expected = [e / z for e in exps]
            np.testing.assert_allclose(pred.probs[t], expected, rtol=1e-12)

    def test_mask_token_allowed_but_not_beyond(self):
        model = init_model(4, 2, 0, np.random.default_rng(5))
        ctx = build_conditioning(np.array([0, 1]), model)
        forward(model, np.array([4, 4]), ctx)  # mask id == vocab_size is fine
        with pytest.raises(ValueError):
            forward(model, np.array([5, 0]), ctx)
        with pytest.raises(ValueError):
            forward(model, np.array([-1, 0]), ctx)

    def test_permutation_equivariant_when_radius_zero(self):
        rng = np.random.default_rng(6)
        model = init_model(5, 3, 0, rng)
        distorted = rng.integers(0, 5, size=8)
        masked = rng.integers(0, 6, size=8)
        perm = rng.permutation(8)
        base = forward(model, masked, build_conditioning(distorted, model))
        permuted = forward(model, masked[perm], build_conditioning(distorted[perm], model))
        np.testing.assert_allclose(permuted.probs, base.probs[perm], atol=1e-12)

    def test_window_breaks_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        model = init_model(5, 3, 1, rng)
        distorted = rng.integers(0, 5, size=8)
        masked = rng.integers(0, 6, size=8)
        perm = np.roll(np.arange(8), 1)
        base = forward(model, masked, build_conditioning(distorted, model))
        permuted = forward(model, masked[perm], build_conditioning(distorted[perm], model))
        assert not np.allclose(permuted.probs, base.probs[perm], atol=1e-6)


class TestWindow:
    def test_blocks_are_shifted_rows_with_zero_padding(self):
        u = np.arange(1.0, 9.0).reshape(4, 2)
        feats = window(u, 1)
        np.testing.assert_array_equal(feats[:, 2:4], u)
        np.testing.assert_array_equal(feats[1:, 0:2], u[:-1])
        np.testing.assert_array_equal(feats[:-1, 4:6], u[1:])
        assert not feats[0, 0:2].any() and not feats[-1, 4:6].any()

    @pytest.mark.parametrize("t,d,r", [(1, 1, 0), (5, 3, 1), (3, 2, 2), (2, 4, 3)])
    def test_adjoint_identity(self, t, d, r):
        # <window(u), g> == <u, window_adjoint(g)> for every u and g
        rng = np.random.default_rng(t * 100 + d * 10 + r)
        u = rng.standard_normal((t, d))
        g = rng.standard_normal((t, d * (2 * r + 1)))
        lhs = float((window(u, r) * g).sum())
        rhs = float((u * window_adjoint(g, r, d)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestMaskedCeLoss:
    def test_empty_mask_gives_zero(self):
        rng = np.random.default_rng(8)
        model, distorted, masked, target, _ = random_instance(rng)
        zero_mask = np.zeros_like(target, dtype=np.int8)
        loss, grads = example_loss(model, distorted, target.copy(), target, zero_mask)
        assert loss == 0.0
        assert not grads.embedding.any() and not grads.out_w.any() and not grads.out_b.any()

    def test_uniform_predictions_value(self):
        v, t = 5, 6
        model = init_model(v, 3, 1, np.random.default_rng(9))
        model.embedding[:] = 0.0
        model.out_w[:] = 0.0
        model.out_b[:] = 0.0
        target = np.arange(t) % v
        mask = np.array([1, 0, 1, 1, 0, 0], dtype=np.int8)
        masked = np.where(mask == 1, v, target)
        ctx = build_conditioning(target, model)
        loss, _ = masked_ce_loss(forward(model, masked, ctx, positions=mask == 1), target, mask)
        assert loss == pytest.approx(3 * math.log(v), rel=1e-12)

    def test_unmasked_logit_gradient_exactly_zero(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            model, distorted, masked, target, mask = random_instance(rng)
            _, grads = example_loss(model, distorted, masked, target, mask)
            assert not grads.logits[mask == 0].any()

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            model, distorted, masked, target, mask = random_instance(rng)
            _, grads = example_loss(model, distorted, masked, target, mask)
            analytic = predictor_grads_flat(grads)

            def loss_at(flat, model=model, args=(distorted, masked, target, mask)):
                saved = predictor_params(model)
                set_predictor_params(model, flat)
                value, _ = example_loss(model, *args)
                set_predictor_params(model, saved)
                return value

            numeric = central_differences(loss_at, predictor_params(model), h=1e-6)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-8)

    def test_length_mismatch_rejected(self):
        model = init_model(3, 2, 0, np.random.default_rng(12))
        ctx = build_conditioning(np.array([0, 1]), model)
        pred = forward(model, np.array([0, 1]), ctx)
        with pytest.raises(ValueError):
            masked_ce_loss(pred, np.array([0, 1, 2]), np.array([1, 1, 1]))


def small_sched(vocab_size, n_steps=8):
    return ScheduleConfig(n_steps=n_steps)


class TestTrain:
    def test_zero_learning_rate_keeps_parameters(self):
        corpus = generate_corpus(8, 12, 16, 1.0, 0, seed=1)
        freq = document_frequency(corpus)
        cfg = TrainConfig(lr=0.0, epochs=2, batch=4, rho=0.2, seed=3, dim=4, radius=1)
        model, _ = train(corpus, freq, small_sched(8), cfg)
        fresh = init_model(8, 4, 1, np.random.default_rng(3))
        np.testing.assert_array_equal(model.embedding, fresh.embedding)
        np.testing.assert_array_equal(model.out_w, fresh.out_w)
        np.testing.assert_array_equal(model.out_b, fresh.out_b)

    def test_single_class_vocab_loss_is_zero(self):
        # CE over one class is identically zero
        corpus = Corpus(tokens=np.zeros((6, 10), dtype=np.int64), vocab_size=1, seed=0)
        freq = document_frequency(corpus)
        cfg = TrainConfig(lr=0.5, epochs=2, batch=3, rho=0.0, seed=4, dim=3, radius=1)
        _, history = train(corpus, freq, small_sched(1), cfg)
        assert all(h.loss_sum == 0.0 for h in history)

    def test_bit_deterministic(self):
        corpus = generate_corpus(8, 16, 20, 1.2, 1, seed=5)
        freq = document_frequency(corpus)
        cfg = TrainConfig(lr=0.8, epochs=2, batch=4, rho=0.3, seed=6, dim=4, radius=1)
        a, hist_a = train(corpus, freq, small_sched(8), cfg)
        b, hist_b = train(corpus, freq, small_sched(8), cfg)
        np.testing.assert_array_equal(a.embedding, b.embedding)
        np.testing.assert_array_equal(a.out_w, b.out_w)
        np.testing.assert_array_equal(a.out_b, b.out_b)
        assert [h.loss_sum for h in hist_a] == [h.loss_sum for h in hist_b]

    def test_loss_decreases(self):
        corpus = generate_corpus(8, 40, 24, 1.2, 1, seed=7)
        freq = document_frequency(corpus)
        cfg = TrainConfig(lr=1.0, epochs=4, batch=8, rho=0.3, seed=8, dim=8, radius=1)
        _, history = train(corpus, freq, small_sched(8), cfg)
        assert history[-1].loss_per_token < history[0].loss_per_token

    def test_ctf_mode_trains(self):
        corpus = generate_corpus(8, 16, 20, 1.2, 1, seed=9)
        freq = document_frequency(corpus)
        sched = ScheduleConfig(n_steps=8, mode=MaskMode.CTF)
        cfg = TrainConfig(lr=0.8, epochs=2, batch=4, rho=0.3, seed=10, dim=4, radius=1)
        _, history = train(corpus, freq, sched, cfg)
        assert len(history) == 2 and all(math.isfinite(h.loss_per_token) for h in history)

    def test_learned_accuracy_beats_chance_margin(self):
        # V=16 Zipf(1.2) first-order corpus; the bar is 5x the 1/16 chance
        # rate (pilot runs reach ~0.7 via conditioning plus context)
        corpus = generate_corpus(16, 160, 48, 1.2, 1, seed=11)
        freq = document_frequency(corpus)
        cfg = TrainConfig(lr=1.5, epochs=5, batch=8, rho=0.3, seed=12, dim=16, radius=2)
        _, history = train(corpus, freq, small_sched(16, n_steps=10), cfg)
        assert history[-1].masked_acc > 5.0 / 16.0

    def test_divergence_raises_numerics_error(self):
        corpus = generate_corpus(8, 8, 12, 1.0, 0, seed=13)
        freq = document_frequency(corpus)
        cfg = TrainConfig(lr=1e12, epochs=3, batch=4, rho=0.2, seed=14, dim=4, radius=1)
        with np.errstate(all="ignore"), pytest.raises(NumericsError):
            train(corpus, freq, small_sched(8), cfg)

    def test_first_non_finite_loss_names_its_epoch_document_and_step(self):
        # token 5 occurs in documents 2 and 5 only, and its embedding is nan,
        # so their losses are nan; batch order puts document 5 first
        tokens = np.tile(np.arange(8) % 3, (8, 1))
        tokens[2, 3] = tokens[5, 6] = 5
        corpus = Corpus(tokens=tokens, vocab_size=6, seed=0)
        sched = ScheduleConfig(n_steps=10)
        hyper = TrainConfig(lr=0.5, epochs=6, batch=4, rho=0.0, seed=21, dim=3, radius=1)
        model = init_model(6, 3, 1, np.random.default_rng(0))
        model.embedding[5] = np.nan
        idx = np.array([0, 5, 2, 7])
        # at rho 0 an example draws its step, then its mask's uniforms
        replay = np.random.default_rng(22)
        draws = [(int(replay.integers(1, 10)), replay.random(8)) for _ in idx]
        step, uniforms = draws[1]
        assert (uniforms < math.cos(0.5 * math.pi * step / 10)).any()  # document 5 has a masked position
        batch = _draw_batch(corpus, None, sched, hyper, idx, np.random.default_rng(22), epoch=4)
        with np.errstate(all="ignore"), pytest.raises(NumericsError) as exc:
            _finish_batch(model, batch, _start_batch(model, batch), hyper.lr)
        assert str(exc.value) == f"non-finite loss nan at epoch 4, document 5, step {step}"

    @pytest.mark.parametrize("rho", [-0.1, 1.5])
    @pytest.mark.parametrize("mode", [MaskMode.UNIFORM_COSINE, MaskMode.CTF])
    def test_rho_outside_the_unit_interval_rejected(self, rho, mode):
        corpus = generate_corpus(8, 8, 12, 1.0, 0, seed=13)
        cfg = TrainConfig(lr=0.5, epochs=1, batch=4, rho=rho, seed=1, dim=4, radius=1)
        with pytest.raises(ValueError) as exc:
            train(corpus, document_frequency(corpus), ScheduleConfig(n_steps=8, mode=mode), cfg)
        assert str(exc.value) == f"substitution rate must be in [0,1], got {rho}"

    @pytest.mark.parametrize("mode", [MaskMode.UNIFORM_COSINE, MaskMode.CTF])
    def test_substitution_in_a_single_token_vocab_rejected(self, mode):
        corpus = Corpus(tokens=np.zeros((6, 10), dtype=np.int64), vocab_size=1, seed=0)
        cfg = TrainConfig(lr=0.5, epochs=1, batch=3, rho=0.3, seed=4, dim=3, radius=1)
        with pytest.raises(ValueError) as exc:
            train(corpus, document_frequency(corpus), ScheduleConfig(n_steps=8, mode=mode), cfg)
        assert str(exc.value) == "cannot substitute tokens with vocab_size < 2"

    def test_learning_curve_csv(self, tmp_path):
        corpus = generate_corpus(8, 8, 12, 1.0, 0, seed=16)
        freq = document_frequency(corpus)
        cfg = TrainConfig(lr=0.5, epochs=3, batch=4, rho=0.2, seed=17, dim=4, radius=1)
        _, history = train(corpus, freq, small_sched(8), cfg)
        write_training_csvs(RunDir(str(tmp_path), "config_hash=x"), history, freq)
        lines = (tmp_path / "learning_curve.csv").read_text().splitlines()
        assert lines[0] == "# config_hash=x"
        assert lines[1] == "epoch,loss,masked_acc"
        assert len(lines) == 2 + 3
        assert lines[-1] == f"2,{history[-1].loss_per_token!r},{history[-1].masked_acc!r}"


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        model = init_model(6, 4, 2, np.random.default_rng(18))
        path = tmp_path / "model.bin"
        save_predictor(model, path)
        loaded = load_predictor(path)
        np.testing.assert_array_equal(loaded.embedding, model.embedding)
        np.testing.assert_array_equal(loaded.out_w, model.out_w)
        np.testing.assert_array_equal(loaded.out_b, model.out_b)
        assert loaded.radius == 2
        assert path.read_bytes()[:24] == CHECKPOINT_MAGIC + struct.pack("<4I", CHECKPOINT_VERSION, 6, 4, 2)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTMODEL" + b"\x00" * 64)
        with pytest.raises(ValueError):
            load_predictor(path)

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(v=st.integers(1, 6), d=st.integers(1, 4), r=st.integers(0, 2), data=st.data())
    def test_round_trip_bit_exact(self, v, d, r, data):
        def block(shape):
            return data.draw(arrays(np.float64, shape, elements=st.floats(width=64)))

        model = PredictorModel(
            embedding=block((v + 1, d)), out_w=block((d * (2 * r + 1), v)), out_b=block((v,)), radius=r
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "model.bin")
            save_predictor(model, path)
            size = os.path.getsize(path)
            loaded = load_predictor(path)
        assert size == 8 + 16 + 8 * (model.embedding.size + model.out_w.size + model.out_b.size)
        for name in ("embedding", "out_w", "out_b"):
            assert getattr(loaded, name).tobytes() == getattr(model, name).tobytes(), name
        assert (loaded.vocab_size, loaded.dim, loaded.radius) == (v, d, r)

    @pytest.mark.parametrize("cut", [1, 8, 24, -1, -14])
    def test_wrong_length_rejected(self, tmp_path, cut):
        # positive cut drops that many trailing bytes; negative appends them
        path = tmp_path / "model.bin"
        save_predictor(init_model(5, 3, 1, np.random.default_rng(19)), path)
        whole = path.read_bytes()
        path.write_bytes(whole[:-cut] if cut > 0 else whole + b"\x7f" * -cut)
        with pytest.raises(ValueError, match="bytes"):
            load_predictor(path)
