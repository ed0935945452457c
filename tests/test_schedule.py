"""Cosine schedule, coarse-to-fine rescaling, mask sampling and application."""

import math

import numpy as np
import pytest

from maskgen.schedule import (
    MaskMode,
    ScheduleConfig,
    apply_mask,
    cosine_probability,
    ctf_probabilities,
    dump_schedule_rows,
    expected_masked_cosine,
    sample_mask,
    scaled_clipped_probabilities,
)


class TestCosineProbability:
    def test_endpoints_exact(self):
        for n in (1, 2, 7, 64):
            assert cosine_probability(0, n) == 1.0
            assert cosine_probability(n, n) == 0.0

    def test_midpoint(self):
        assert cosine_probability(5, 10) == pytest.approx(math.sqrt(2) / 2, abs=1e-15)

    def test_matches_formula_over_grid(self):
        for n in range(1, 65):
            for i in range(n + 1):
                assert abs(cosine_probability(i, n) - math.cos(0.5 * math.pi * i / n)) < 1e-12

    def test_strictly_decreasing(self):
        vals = [cosine_probability(i, 20) for i in range(21)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            cosine_probability(-1, 4)
        with pytest.raises(ValueError):
            cosine_probability(5, 4)


class TestExpectedMaskedCosine:
    def test_start_and_midpoint(self):
        assert expected_masked_cosine(0, 8, 100) == 100.0
        assert expected_masked_cosine(4, 8, 10) == pytest.approx(10 * math.sqrt(2) / 2, abs=1e-12)


class TestCtfProbabilities:
    def test_uniform_base_reduces_to_cosine(self):
        for i in range(11):
            p = ctf_probabilities(np.full(16, 0.37), i, 10)
            expected = min(cosine_probability(i, 10), 1.0)
            np.testing.assert_allclose(p, expected, atol=1e-12)

    def test_zero_expectation_gives_zeros(self):
        p = ctf_probabilities(np.array([0.9, 0.5, 0.1]), 10, 10)
        assert np.all(p == 0.0)

    def test_hand_clipping_case(self):
        p = scaled_clipped_probabilities(np.array([0.9, 0.1]), 1.6)
        np.testing.assert_allclose(p, [1.0, 0.16], atol=1e-12)
        assert p.sum() < 1.6

    def test_sum_matches_expectation_without_clipping(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            p_base = rng.uniform(0.05, 0.95, size=rng.integers(2, 50))
            target = float(rng.uniform(0, p_base.sum() / p_base.max() * p_base.min()))
            p = scaled_clipped_probabilities(p_base, target)
            if (p < 1.0).all():
                assert abs(p.sum() - target) < 1e-9

    def test_sum_never_exceeds_expectation(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            p_base = rng.uniform(0.01, 1.0, size=rng.integers(2, 50))
            target = float(rng.uniform(0, p_base.shape[0]))
            p = scaled_clipped_probabilities(p_base, target)
            assert p.sum() <= target + 1e-9

    def test_rank_order_preserved_among_unclipped(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            p_base = rng.uniform(0.01, 1.0, size=20)
            p = scaled_clipped_probabilities(p_base, float(rng.uniform(0, 20)))
            free = p < 1.0
            base_order = np.argsort(p_base[free], kind="stable")
            np.testing.assert_array_equal(np.sort(p[free]), p[free][base_order])

    def test_non_increasing_in_step_fixed_token(self):
        p_base = np.array([0.8, 0.4, 0.2, 0.6])
        series = np.array([ctf_probabilities(p_base, i, 16) for i in range(17)])
        assert (np.diff(series, axis=0) <= 1e-15).all()

    def test_invalid_base_rejected(self):
        with pytest.raises(ValueError):
            scaled_clipped_probabilities(np.array([0.0, 0.5]), 1.0)
        with pytest.raises(ValueError):
            scaled_clipped_probabilities(np.array([0.5, 1.2]), 1.0)


class TestSampleMask:
    def test_all_zero_probabilities(self):
        mv = sample_mask(np.zeros(50), np.random.default_rng(0))
        assert not mv.m.any()

    def test_all_one_probabilities(self):
        mv = sample_mask(np.ones(50), np.random.default_rng(0))
        assert mv.m.all()

    def test_deterministic_under_seed(self):
        probs = np.linspace(0.1, 0.9, 40)
        a = sample_mask(probs, np.random.default_rng(5))
        b = sample_mask(probs, np.random.default_rng(5))
        assert np.array_equal(a.m, b.m)

    def test_single_draw_concentration(self):
        # one draw over 1e5 positions: Poisson-binomial 3 sigma bound
        rng = np.random.default_rng(11)
        probs = rng.uniform(0.0, 1.0, size=100_000)
        mv = sample_mask(probs, np.random.default_rng(12))
        sigma = math.sqrt((probs * (1 - probs)).sum())
        assert abs(mv.m.sum() - probs.sum()) <= 3 * sigma

    def test_mean_count_over_trials(self):
        probs = np.linspace(0.05, 0.95, 32)
        rng = np.random.default_rng(13)
        trials = 20_000
        counts = np.array([sample_mask(probs, rng).m.sum() for _ in range(trials)])
        sigma_mean = math.sqrt((probs * (1 - probs)).sum() / trials)
        assert abs(counts.mean() - probs.sum()) <= 3 * sigma_mean

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(ValueError):
            sample_mask(np.array([0.5, 1.5]), np.random.default_rng(0))


class TestApplyMask:
    def test_no_mask_is_identity(self):
        x = np.array([3, 1, 4])
        np.testing.assert_array_equal(apply_mask(x, np.zeros(3, dtype=np.int8), 8), x)

    def test_full_mask(self):
        np.testing.assert_array_equal(apply_mask(np.array([3, 1, 4]), np.ones(3, dtype=np.int8), 8), [8, 8, 8])

    def test_pointwise(self):
        np.testing.assert_array_equal(apply_mask(np.array([3, 1, 4]), np.array([0, 1, 0]), 8), [3, 8, 4])

    def test_restore_round_trip(self):
        rng = np.random.default_rng(3)
        x = rng.integers(0, 8, size=64)
        mv = sample_mask(np.full(64, 0.5), rng)
        masked = apply_mask(x, mv.m, 8)
        restored = np.where(mv.m == 1, x, masked)
        np.testing.assert_array_equal(restored, x)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            apply_mask(np.array([1, 2]), np.array([0]), 8)


class TestScheduleConfig:
    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError):
            ScheduleConfig(n_steps=0)

    def test_mode_values(self):
        assert MaskMode("uniform") is MaskMode.UNIFORM_COSINE
        assert MaskMode("ctf") is MaskMode.CTF

    def test_dump_rows(self):
        rows = dump_schedule_rows(ScheduleConfig(n_steps=4), seq_len=10)
        assert len(rows) == 5
        assert rows[0] == (0, 10.0)
        assert rows[-1][1] == 0.0
