"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Thresholds for the statistical criteria were frozen
from pilot runs; the margins observed there are recorded next to each
assertion.
"""

import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
from test_decoder import oracle_decode

from maskgen.corpus import FrequencyTable, corrupt_sequence, document_frequency, generate_corpus
from maskgen.corrector import (
    CorrectorTrainConfig,
    correct,
    corrupt_for_training,
    init_corrector,
    suspicion_scores,
    train_corrector,
)
from maskgen.decoder import decode
from maskgen.harness import ExperimentConfig, build_pipeline, compare_masking_modes, evaluate, run_experiment
from maskgen.predictor import build_conditioning, example_loss, init_model
from maskgen.schedule import (
    ScheduleConfig,
    apply_mask,
    cosine_probability,
    sample_mask,
    scaled_clipped_probabilities,
)
from helpers import central_differences, predictor_grads_flat, predictor_params, set_predictor_params
from test_corpus import hand_corpus


@contextmanager
def criterion(num: int, name: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"criterion {num} took {elapsed:.1f}s, budget {budget_s}s"
    print(f"ACCEPTANCE {num:02d} {name}: PASS ({elapsed:.1f}s)")


def test_c01_schedule_exactness():
    with criterion(1, "cosine schedule exactness", 1.0):
        for n in range(1, 65):
            for i in range(n + 1):
                assert abs(cosine_probability(i, n) - math.cos(0.5 * math.pi * i / n)) < 1e-12
            assert cosine_probability(0, n) == 1.0
            assert cosine_probability(n, n) == 0.0


def test_c02_ctf_algebra():
    with criterion(2, "coarse-to-fine rescaling algebra", 1.0):
        # (a) uniform base collapses to the plain cosine schedule
        for i in range(13):
            p = scaled_clipped_probabilities(np.full(20, 0.4), 20 * cosine_probability(i, 12))
            assert np.abs(p - cosine_probability(i, 12)).max() < 1e-12
        # (b) without clipping the sum matches the target expectation
        rng = np.random.default_rng(0)
        for _ in range(300):
            p_base = rng.uniform(0.2, 0.8, size=16)
            target = float(rng.uniform(0.0, p_base.sum() * 0.9))
            p = scaled_clipped_probabilities(p_base, target)
            if (p < 1.0).all():
                assert abs(p.sum() - target) < 1e-9
        # (c) the hand-derived clipping case falls short of the target
        p = scaled_clipped_probabilities(np.array([0.9, 0.1]), 1.6)
        np.testing.assert_allclose(p, [1.0, 0.16], atol=1e-12)
        assert p.sum() < 1.6


def test_c03_idf_correctness():
    with criterion(3, "document-frequency scores and mask priors", 30.0):
        table = document_frequency(hand_corpus())
        assert list(table.doc_freq) == [0, 1, 2, 2]
        np.testing.assert_allclose(
            table.idf,
            [math.log(4.0), math.log(2.0), math.log(4.0 / 3.0), math.log(4.0 / 3.0)],
            atol=1e-12,
        )
        np.testing.assert_allclose(
            table.p_base,
            [0.9935719460943323, 0.8044296825069569, 0.33023845067334306, 0.33023845067334306],
            atol=1e-12,
        )
        # monotonicity (rarer => higher prior) over 10^4 random tables
        rng = np.random.default_rng(1)
        checked = 0
        while checked < 10_000:
            n_docs = int(rng.integers(2, 500))
            v = int(rng.integers(2, 32))
            f = rng.integers(0, n_docs + 1, size=v)
            present = f > 0
            if not present.any():
                continue
            table = FrequencyTable(doc_freq=f, num_docs=n_docs)
            assert (np.diff(table.idf[np.argsort(f, kind="stable")]) <= 1e-15).all()
            if table.idf[present].std() > 0.0:
                order = np.argsort(f, kind="stable")
                distinct = np.diff(f[order]) > 0
                assert (np.diff(table.p_base[order])[distinct] < 0).all()
            checked += 1


def test_c04_masked_loss_contract():
    with criterion(4, "masked loss gradients", 30.0):
        rng = np.random.default_rng(2)
        for _ in range(100):
            v = int(rng.integers(2, 9))
            model = init_model(v, int(rng.integers(1, 5)), int(rng.integers(0, 3)), rng)
            t = int(rng.integers(2, 13))
            distorted = rng.integers(0, v, size=t)
            target = rng.integers(0, v, size=t)
            mask = (rng.random(t) < 0.5).astype(np.int8)
            mask[rng.integers(0, t)] = 1
            masked = np.where(mask == 1, v, target)

            _, grads = example_loss(model, distorted, masked, target, mask)
            assert not grads.logits[mask == 0].any()  # exact zeros off the mask

            analytic = predictor_grads_flat(grads)

            def loss_at(flat, model=model, args=(distorted, masked, target, mask)):
                saved = predictor_params(model)
                set_predictor_params(model, flat)
                value, _ = example_loss(model, *args)
                set_predictor_params(model, saved)
                return value

            numeric = central_differences(loss_at, predictor_params(model), h=1e-6)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-8)


def test_c05_mask_sampling_statistics():
    with criterion(5, "Bernoulli mask statistics and round trip", 30.0):
        rng = np.random.default_rng(3)
        probs = rng.uniform(0.0, 1.0, size=100_000)
        m = sample_mask(probs, np.random.default_rng(4))
        sigma = math.sqrt((probs * (1.0 - probs)).sum())
        assert abs(m.sum() - probs.sum()) <= 3 * sigma

        x = rng.integers(0, 32, size=100_000)
        masked = apply_mask(x, m, 32)
        assert (masked[m == 1] == 32).all()
        restored = np.where(m == 1, x, masked)
        np.testing.assert_array_equal(restored, x)


def test_c06_decode_oracle_equivalence():
    with criterion(6, "decode matches brute-force simulation", 5.0):
        for seed in range(50):
            rng = np.random.default_rng(5000 + seed)
            model = init_model(3, 2, 1, rng)
            model.embedding[:] = rng.normal(0, 1.0, size=model.embedding.shape)
            model.out_w[:] = rng.normal(0, 1.0, size=model.out_w.shape)
            model.out_b[:] = rng.normal(0, 0.5, size=3)
            distorted = rng.integers(0, 3, size=3)
            sched = ScheduleConfig(n_steps=2)
            out, _ = decode(model, build_conditioning(distorted, model), sched)
            assert list(out) == oracle_decode(model, list(distorted), 2), f"case {seed}"


def _shape_config(seed: int, mode: str = "uniform", zipf: float = 1.2) -> ExperimentConfig:
    return ExperimentConfig(
        seed=seed, vocab_size=64, num_docs=512, test_docs=160, seq_len=96,
        zipf_exponent=zipf, markov_order=1, n_steps=10, mask_mode=mode,
        embed_dim=32, radius=1, lr=1.5, epochs=16, batch=8, rho=0.3,
    )


def test_c07_step_count_shape():
    with criterion(7, "accuracy rises with steps then plateaus", 600.0):
        cfg = _shape_config(seed=101)
        pipe = build_pipeline(cfg)
        acc = {}
        for n in (2, 20, 40):
            report = evaluate(pipe.model, pipe.test_corpus, pipe.freq,
                              replace(pipe.sched, n_steps=n), cfg, pipe.eval_seed)
            acc[n] = report.overall_accuracy
        gain = acc[20] - acc[2]
        late = abs(acc[40] - acc[20])
        print(f"  steps 2/20/40 accuracy: {acc[2]:.4f} {acc[20]:.4f} {acc[40]:.4f} "
              f"(gain {gain:+.4f}, late drift {late:.4f})")
        assert acc[20] >= acc[2]
        # plateau: pilot ratios were 1-9%; the frozen bound is 25%
        assert gain > 0 and late <= 0.25 * gain


def test_c08_ctf_directional_claim():
    with criterion(8, "coarse-to-fine helps the rarest tokens", 1800.0):
        wins = 0
        margins = []
        for seed in (11, 12, 13, 14, 15):
            cells = {}
            for mode in ("uniform", "ctf"):
                cfg = _shape_config(seed=seed, mode=mode, zipf=1.5)
                pipe = build_pipeline(cfg)
                cells[mode] = evaluate(pipe.model, pipe.test_corpus, pipe.freq,
                                       pipe.sched, cfg, pipe.eval_seed)
            margin = cells["ctf"].decile_accuracy[0] - cells["uniform"].decile_accuracy[0]
            margins.append(margin)
            wins += margin >= 0
            print(f"  seed {seed}: bottom decile uniform {cells['uniform'].decile_accuracy[0]:.4f} "
                  f"ctf {cells['ctf'].decile_accuracy[0]:.4f} margin {margin:+.4f}")
        # directional claim: margins recorded above, not asserted individually
        assert wins >= 4, f"ctf won on {wins}/5 seeds"


def test_c09_corrector_contracts():
    with criterion(9, "corrector identity, calibration, corruption rate", 120.0):
        # threshold 1 is the identity on arbitrary inputs
        rng = np.random.default_rng(6)
        predictor = init_model(16, 8, 1, rng)
        scorer = init_corrector(16, 6, 2, rng)
        for _ in range(20):
            decoded = rng.integers(0, 16, size=40)
            ctx = build_conditioning(rng.integers(0, 16, size=40), predictor)
            out = correct(decoded, predictor, ctx, scorer, 1.0, rounds=5)
            np.testing.assert_array_equal(out, decoded)

        # trained scorer separates corrupted from clean positions, held out
        train_c = generate_corpus(32, 200, 64, 1.2, 1, seed=21)
        test_c = generate_corpus(32, 60, 64, 1.2, 1, seed=22)
        model, _ = train_corrector(train_c, CorrectorTrainConfig(lr=1.0, epochs=4, seed=23, dim=12, radius=2))
        scores, labels = [], []
        srng = np.random.default_rng(24)
        for row in test_c.tokens:
            corrupted, lab = corrupt_for_training(row, 32, 0.3, srng)
            scores.append(suspicion_scores(model, corrupted))
            labels.append(lab)
        scores, labels = np.concatenate(scores), np.concatenate(labels)
        assert scores[labels == 1].mean() > scores[labels == 0].mean()

        # corruption-rate expectation: E[u]=0.15 for max_rate 0.30
        crng = np.random.default_rng(25)
        s_count, t_len = 1000, 100
        total = sum(
            int(corrupt_for_training(crng.integers(0, 8, size=t_len), 8, 0.3, crng)[1].sum())
            for _ in range(s_count)
        )
        mean_rate = total / (s_count * t_len)
        sigma = math.sqrt((0.0075 + 0.12 / t_len) / s_count)
        assert abs(mean_rate - 0.15) <= 3 * sigma


def test_c10_pipeline_determinism(tmp_path):
    with criterion(10, "byte-identical reruns", 300.0):
        cfg = ExperimentConfig(
            seed=3, vocab_size=16, num_docs=48, test_docs=12, seq_len=32,
            zipf_exponent=1.2, markov_order=1, n_steps=4, mask_mode="ctf",
            embed_dim=8, radius=1, lr=1.0, epochs=2, batch=8, rho=0.3,
            use_corrector=True, corrector_dim=6, corrector_epochs=2, seeds=(5,),
        )
        run_experiment(replace(cfg, output_dir=str(tmp_path / "a")))
        run_experiment(replace(cfg, output_dir=str(tmp_path / "b")))
        for name in ("metrics.csv", "deciles.csv", "decode_trace.csv", "learning_curve.csv", "frequency.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name
        compare_masking_modes(replace(cfg, output_dir=str(tmp_path / "c1")))
        compare_masking_modes(replace(cfg, output_dir=str(tmp_path / "c2")))
        for name in ("compare_modes.csv", "compare_modes_deciles.csv"):
            assert (tmp_path / "c1" / name).read_bytes() == (tmp_path / "c2" / name).read_bytes(), name
