"""Corpus generation, the substitution channel, frequency statistics and
the file formats."""

import ast
import math
import os
import string
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maskgen.corpus import (
    Corpus,
    FrequencyTable,
    corrupt_sequence,
    document_frequency,
    generate_corpus,
    load_corpus,
    load_frequency_csv,
    save_corpus,
    save_frequency_csv,
    sequence_base_probabilities,
    standardized_sigmoid,
    substitute,
    write_csv,
    zipf_weights,
)
from maskgen.corrector import corrupt_for_training

# Chi-square critical value, dof=63, alpha=0.001.
CHI2_63_999 = 103.442377


def hand_corpus():
    """Three documents whose per-document token sets are {1,2}, {2,3}, {3},
    giving doc frequencies f(1)=1, f(2)=2, f(3)=2 (and f(0)=0)."""
    tokens = np.array([[1, 1, 2], [2, 3, 3], [3, 3, 3]])
    return Corpus(tokens=tokens, vocab_size=4, seed=0)


class TestGenerateCorpus:
    def test_uniform_binary_marginal(self):
        corpus = generate_corpus(2, 200, 100, 0.0, 0, seed=5)
        freq = (corpus.tokens == 1).mean()
        # Binomial mean: 3 sigma = 3 * 0.5 / sqrt(n)
        assert abs(freq - 0.5) <= 3 * 0.5 / math.sqrt(corpus.tokens.size)

    def test_determinism(self):
        a = generate_corpus(64, 1000, 128, 1.2, 1, seed=7)
        b = generate_corpus(64, 1000, 128, 1.2, 1, seed=7)
        assert np.array_equal(a.tokens, b.tokens)
        assert not np.array_equal(a.tokens, generate_corpus(64, 1000, 128, 1.2, 1, seed=8).tokens)

    def test_zipf_marginal_goodness_of_fit(self):
        # order 0 draws are iid, so the multinomial GOF statistic applies
        corpus = generate_corpus(64, 400, 128, 1.2, 0, seed=11)
        counts = np.bincount(corpus.tokens.ravel(), minlength=64)
        expected = zipf_weights(64, 1.2) * corpus.tokens.size
        stat = ((counts - expected) ** 2 / expected).sum()
        assert stat < CHI2_63_999

    def test_id_zero_most_frequent(self):
        corpus = generate_corpus(32, 300, 64, 1.5, 0, seed=2)
        counts = np.bincount(corpus.tokens.ravel(), minlength=32)
        assert counts[0] == counts.max()

    def test_order1_marginal_stays_zipfian(self):
        # the transition kernel preserves the marginal, but draws are
        # autocorrelated, so bound the total-variation distance instead of
        # using the iid GOF statistic (pilot: 0.019-0.033 over 20 seeds)
        corpus = generate_corpus(64, 800, 128, 1.2, 1, seed=11)
        emp = np.bincount(corpus.tokens.ravel(), minlength=64) / corpus.tokens.size
        tv = 0.5 * np.abs(emp - zipf_weights(64, 1.2)).sum()
        assert tv < 0.05

    def test_order1_context_is_predictive(self):
        corpus = generate_corpus(64, 400, 128, 1.2, 1, seed=13)
        repeat = (corpus.tokens[:, 1:] == corpus.tokens[:, :-1]).mean()
        iid_collision = (zipf_weights(64, 1.2) ** 2).sum()
        assert repeat > 3 * iid_collision

    def test_all_ids_in_range(self):
        corpus = generate_corpus(16, 50, 32, 1.0, 1, seed=1)
        assert corpus.tokens.min() >= 0 and corpus.tokens.max() < 16

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(vocab_size=1),
            dict(num_docs=0),
            dict(seq_len=0),
            dict(zipf_exponent=-0.5),
            dict(markov_order=2),
        ],
    )
    def test_parameter_validation(self, kwargs):
        params = dict(vocab_size=8, num_docs=4, seq_len=16, zipf_exponent=1.0, markov_order=0, seed=0)
        params.update(kwargs)
        with pytest.raises(ValueError):
            generate_corpus(**params)


class TestCorruptSequence:
    def test_rate_zero_is_identity(self):
        rng = np.random.default_rng(0)
        clean = np.array([3, 1, 4, 1, 5])
        assert np.array_equal(corrupt_sequence(clean, 8, 0.0, rng), clean)

    def test_rate_one_changes_everything(self):
        rng = np.random.default_rng(1)
        clean = np.arange(200) % 8
        out = corrupt_sequence(clean, 8, 1.0, rng)
        assert not (out == clean).any()
        assert out.min() >= 0 and out.max() < 8

    def test_empirical_rate_binomial_bound(self):
        rng = np.random.default_rng(7)
        clean = rng.integers(0, 32, size=10_000)
        out = corrupt_sequence(clean, 32, 0.3, rng)
        rate = (out != clean).mean()
        sigma = math.sqrt(0.3 * 0.7 / 10_000)
        assert abs(rate - 0.3) <= 3 * sigma

    def test_length_preserved(self):
        rng = np.random.default_rng(3)
        clean = np.zeros(17, dtype=np.int64)
        assert corrupt_sequence(clean, 4, 0.5, rng).shape == (17,)

    def test_deterministic_under_seed(self):
        clean = np.arange(50) % 6
        a = corrupt_sequence(clean, 6, 0.4, np.random.default_rng(9))
        b = corrupt_sequence(clean, 6, 0.4, np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            corrupt_sequence(np.array([0]), 4, 1.5, np.random.default_rng(0))

    def test_single_token_vocab_rejected(self):
        with pytest.raises(ValueError):
            corrupt_sequence(np.array([0, 0]), 1, 0.5, np.random.default_rng(0))


class TestSubstitute:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        vocab_size=st.integers(2, 9),
        seq_len=st.integers(0, 40),
        rate=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_hit_marks_exactly_the_changed_positions(self, vocab_size, seq_len, rate, seed):
        clean = np.random.default_rng(seed).integers(0, vocab_size, size=seq_len)
        out, hit = substitute(clean, vocab_size, rate, np.random.default_rng(seed))
        assert hit.dtype == bool and out.shape == clean.shape
        np.testing.assert_array_equal(hit, out != clean)  # a substituted token never survives
        assert out.min(initial=0) >= 0 and out.max(initial=0) < vocab_size
        if rate == 1.0:
            assert hit.all()
        if rate == 0.0:
            assert not hit.any()  # rate 0 copies the input
        # both channels are this one: same draws, same output
        np.testing.assert_array_equal(corrupt_sequence(clean, vocab_size, rate, np.random.default_rng(seed)), out)
        # the corrector's training corruption is this channel at a rate it
        # draws first from (0, max_rate]
        rng = np.random.default_rng(seed)
        drawn = substitute(clean, vocab_size, rng.uniform(0.0, 1.0), rng)
        corrupted, labels = corrupt_for_training(clean, vocab_size, 1.0, np.random.default_rng(seed))
        np.testing.assert_array_equal(corrupted, drawn[0])
        np.testing.assert_array_equal(labels, drawn[1].astype(np.int8))


class TestDocumentFrequency:
    def test_hand_case(self):
        table = document_frequency(hand_corpus())
        assert table.num_docs == 3
        assert list(table.doc_freq) == [0, 1, 2, 2]

    def test_counts_documents_not_occurrences(self):
        # token 3 appears five times but only in two documents
        table = document_frequency(hand_corpus())
        assert table.doc_freq[3] == 2

    def test_token_in_every_doc(self):
        corpus = Corpus(tokens=np.array([[0, 1], [0, 2], [0, 0]]), vocab_size=3, seed=0)
        assert document_frequency(corpus).doc_freq[0] == 3

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        corpus = generate_corpus(16, 30, 20, 1.0, 0, seed=6)
        shuffled_docs = corpus.tokens[rng.permutation(30)]
        shuffled_within = np.array([row[rng.permutation(20)] for row in shuffled_docs])
        reordered = Corpus(tokens=shuffled_within, vocab_size=16, seed=0)
        assert np.array_equal(
            document_frequency(corpus).doc_freq, document_frequency(reordered).doc_freq
        )

    def test_empty_corpus_rejected(self):
        empty = Corpus(tokens=np.empty((0, 4), dtype=np.int64), vocab_size=4, seed=0)
        with pytest.raises(ValueError):
            document_frequency(empty)


class TestIdfScores:
    def test_present_everywhere_scores_zero(self):
        table = FrequencyTable(doc_freq=np.array([9]), num_docs=9)
        assert table.idf[0] == 0.0

    def test_absent_token_scores_log_n_plus_one(self):
        table = FrequencyTable(doc_freq=np.array([0, 1]), num_docs=9)
        assert table.idf[0] == pytest.approx(math.log(10), abs=1e-15)

    def test_direct_formula_value(self):
        table = FrequencyTable(doc_freq=np.array([4]), num_docs=9)
        assert table.idf[0] == pytest.approx(math.log(2), abs=1e-15)

    def test_strictly_decreasing_in_frequency(self):
        table = FrequencyTable(doc_freq=np.arange(11), num_docs=10)
        assert (np.diff(table.idf) < 0).all()


class TestBaseMaskProbabilities:
    def test_score_at_mean_gives_half(self):
        # ln(f+1) arithmetic progression puts the middle token's score at
        # the mean: f = (1, 3, 7) -> z = (2ln2, ln2, 0)
        p = FrequencyTable(doc_freq=np.array([1, 3, 7]), num_docs=7).p_base
        assert p[1] == pytest.approx(0.5, abs=1e-15)

    def test_degenerate_std_gives_half_everywhere(self):
        table = FrequencyTable(doc_freq=np.array([4, 4, 4]), num_docs=8)
        assert np.all(table.p_base == 0.5)

    def test_standardized_sigmoid_hand_values(self):
        # z = [0,1,2], population std sqrt(2/3)
        p = standardized_sigmoid(np.array([0.0, 1.0, 2.0]))
        expected = [0.22710251943568419, 0.5, 0.7728974805643157]
        np.testing.assert_allclose(p, expected, atol=1e-12)

    def test_hand_corpus_values(self):
        # f = [0,1,2,2], N=3; statistics over the present tokens {1,2,3}
        table = document_frequency(hand_corpus())
        np.testing.assert_allclose(
            table.idf,
            [math.log(4.0), math.log(2.0), math.log(4.0 / 3.0), math.log(4.0 / 3.0)],
            atol=1e-15,
        )
        np.testing.assert_allclose(
            table.p_base,
            [0.9935719460943323, 0.8044296825069569, 0.33023845067334306, 0.33023845067334306],
            atol=1e-12,
        )

    def test_absent_tokens_rank_highest(self):
        table = FrequencyTable(doc_freq=np.array([0, 2, 5]), num_docs=6)
        assert table.p_base[0] == table.p_base.max()

    def test_rarity_monotonicity_random_tables(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            n_docs = int(rng.integers(2, 200))
            v = int(rng.integers(2, 40))
            f = rng.integers(0, n_docs + 1, size=v)
            if not (f > 0).any():
                continue
            table = FrequencyTable(doc_freq=f, num_docs=n_docs)
            zp = table.idf[f > 0]
            if zp.std() == 0.0:
                continue  # degenerate rule maps everything to 0.5
            order = np.argsort(f, kind="stable")
            fs, ps = f[order], table.p_base[order]
            distinct = np.diff(fs) > 0
            assert (np.diff(ps)[distinct] < 0).all()

    def test_no_present_token_raises(self):
        with pytest.raises(ValueError, match="no tokens present"):
            FrequencyTable(doc_freq=np.array([0, 0]), num_docs=2)


class TestSequenceBaseProbabilities:
    def test_constant_sequence_gives_half(self):
        table = document_frequency(hand_corpus())
        p = sequence_base_probabilities(table, np.array([2, 2, 2, 2]))
        assert np.all(p == 0.5)

    def test_rarer_positions_get_higher_probability(self):
        table = document_frequency(hand_corpus())
        p = sequence_base_probabilities(table, np.array([1, 2, 3]))
        assert p[0] > p[1] == p[2]

    def test_out_of_range_token_rejected(self):
        table = document_frequency(hand_corpus())
        with pytest.raises(ValueError):
            sequence_base_probabilities(table, np.array([4]))


class TestCorpusIO:
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        v=st.integers(2, 40),
        t=st.integers(1, 30),
        n=st.integers(1, 12),
        markov_order=st.sampled_from((0, 1)),
        seed=st.integers(0, 2**62),
    )
    def test_round_trip(self, v, t, n, markov_order, seed):
        corpus = generate_corpus(v, n, t, 1.1, markov_order, seed=seed)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "corpus.txt")
            save_corpus(corpus, path)
            loaded = load_corpus(path)
        assert loaded.tokens.dtype == corpus.tokens.dtype
        assert np.array_equal(loaded.tokens, corpus.tokens)
        assert (loaded.vocab_size, loaded.seq_len, loaded.num_docs, loaded.seed) == (v, t, n, seed)

    def test_header_format(self, tmp_path):
        corpus = generate_corpus(8, 3, 5, 0.0, 0, seed=4)
        path = tmp_path / "corpus.txt"
        save_corpus(corpus, path)
        assert path.read_text().splitlines()[0] == "8 5 3 4"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("8 5 3\n0 0 0 0 0\n")
        with pytest.raises(ValueError):
            load_corpus(path)

    def test_out_of_range_token_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("4 3 1 0\n0 1 9\n")
        with pytest.raises(ValueError):
            load_corpus(path)


class TestFrequencyCsv:
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        v=st.integers(2, 40),
        t=st.integers(1, 30),
        n=st.integers(1, 12),
        seed=st.integers(0, 2**62),
    )
    def test_round_trip(self, v, t, n, seed):
        table = document_frequency(generate_corpus(v, n, t, 1.1, 0, seed=seed))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "freq.csv")
            save_frequency_csv(table, path, comment="config_hash=abc")
            loaded = load_frequency_csv(path)
        assert np.array_equal(loaded.doc_freq, table.doc_freq)
        assert loaded.num_docs == table.num_docs
        # z and p_base are recomputed from f and num_docs by the same formulas
        assert loaded.idf.tobytes() == table.idf.tobytes()
        assert loaded.p_base.tobytes() == table.p_base.tobytes()

    def test_header_row_present(self, tmp_path):
        table = document_frequency(hand_corpus())
        path = tmp_path / "freq.csv"
        save_frequency_csv(table, path)
        lines = path.read_text().splitlines()
        assert lines[1] == "token,f,z,p_base"


class TestWriteCsv:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        comments=st.lists(st.text(string.ascii_letters + string.digits + "=_ .", max_size=12), max_size=3),
        rows=st.lists(
            st.tuples(
                st.integers(-(2**40), 2**40),
                st.floats(allow_nan=False),
                st.floats(allow_nan=False).map(np.float64),
            ),
            max_size=8,
        ),
    )
    def test_comments_header_then_exact_floats(self, comments, rows):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "out.csv")
            write_csv(path, "k,x,y", rows, comments)
            text = Path(path).read_text()
        assert "np." not in text
        lines = text.splitlines()
        assert lines[: len(comments)] == [f"# {c}" for c in comments]
        assert lines[len(comments)] == "k,x,y"
        body = [line.split(",") for line in lines[len(comments) + 1 :]]
        assert len(body) == len(rows)
        for (k, x, y), (sk, sx, sy) in zip(rows, body):
            assert int(sk) == k
            # every float field parses back to the same bits
            assert struct.pack("<d", float(sx)) == struct.pack("<d", x)
            assert struct.pack("<d", float(sy)) == struct.pack("<d", float(y))


# The functions allowed to open a file for writing; every artifact goes
# through one of them.
FILE_WRITERS = {("corpus", "write_csv"), ("corpus", "save_corpus"), ("predictor", "write_checkpoint")}


def _writes_a_file(call: ast.Call) -> bool:
    func = call.func
    name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    mode = call.args[1] if len(call.args) > 1 else next((k.value for k in call.keywords if k.arg == "mode"), None)
    if mode is None:
        return False  # the default mode reads
    # a mode that is not a literal could be anything: count it as writing
    return not isinstance(mode, ast.Constant) or any(c in str(mode.value) for c in "wax+")


def test_only_the_file_writers_open_files_for_writing():
    src = Path(__file__).resolve().parents[1] / "src" / "maskgen"
    writers = set()
    for path in sorted(src.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(isinstance(n, ast.Call) and _writes_a_file(n) for n in ast.walk(fn)):
                    writers.add((path.stem, fn.name))
    assert writers == FILE_WRITERS
