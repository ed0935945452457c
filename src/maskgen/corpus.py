"""Synthetic token corpora with controlled rarity skew, a substitution
channel that emulates distorted observations, and document-frequency
statistics (rarity scores and base masking probabilities derived from them),
plus the text file formats, among them the one CSV writer.

A corpus is a fixed-shape batch of token sequences: ``tokens`` is an
``(num_docs, seq_len)`` int64 array with ids in ``[0, vocab_size)``.
Generation is a pure function of (parameters, seed): each sequence draws
from its own RNG stream spawned from the master seed, so parallel and
serial generation agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

# Strength of the local transition structure for first-order corpora.
# With probability COUPLING the next token is a Metropolis move (stay or
# jump to a fixed random partner id), otherwise an independent draw from
# the marginal. The Metropolis kernel leaves the marginal invariant, so
# the per-position distribution stays exactly Zipfian at every offset.
# 0.9 makes typical runs longer than the predictor's context window, which
# is what gives iterative decoding its edge over single-shot filling.
COUPLING = 0.9


@dataclass
class Corpus:
    """Batch of equal-length token sequences plus generation metadata."""

    tokens: np.ndarray  # (num_docs, seq_len) int64, ids in [0, vocab_size)
    vocab_size: int
    seed: int

    @property
    def num_docs(self) -> int:
        return self.tokens.shape[0]

    @property
    def seq_len(self) -> int:
        return self.tokens.shape[1]


@dataclass
class FrequencyTable:
    """Per-token document frequencies with the rarity statistics derived
    from them on construction.

    ``doc_freq[t]`` counts documents containing token ``t`` at least once
    (never occurrence totals). ``idf`` is the rarity score
    z = ln((num_docs+1)/(doc_freq+1)): never-seen tokens (f=0) get the
    maximal score ln(num_docs+1), tokens present in every document get 0,
    and z is strictly decreasing in f. ``p_base`` is the base masking
    probability, the sigmoid of z standardized over the tokens present in
    the corpus (f > 0); absent tokens go through the same affine map, which
    puts them above every present token. If all present tokens share one
    frequency every probability is 0.5.

    Raises ``ValueError`` unless num_docs >= 1, every count lies in
    [0, num_docs] and at least one token is present.
    """

    doc_freq: np.ndarray  # (vocab_size,) int64
    num_docs: int
    idf: np.ndarray = field(init=False)  # (vocab_size,) float64
    p_base: np.ndarray = field(init=False)  # (vocab_size,) float64, values in (0,1)

    def __post_init__(self):
        if self.num_docs < 1:
            raise ValueError(f"num_docs must be >= 1, got {self.num_docs}")
        if self.doc_freq.min(initial=0) < 0 or self.doc_freq.max(initial=0) > self.num_docs:
            raise ValueError(f"document frequencies must lie in [0, num_docs={self.num_docs}]")
        present = self.doc_freq > 0
        if not present.any():
            raise ValueError("frequency table has no tokens present in the corpus")
        self.idf = np.log((self.num_docs + 1) / (self.doc_freq.astype(np.float64) + 1.0))
        zp = self.idf[present]
        self.p_base = standardized_sigmoid(self.idf, mean=float(zp.mean()), std=float(zp.std()))

    @property
    def vocab_size(self) -> int:
        return self.doc_freq.shape[0]


def zipf_weights(vocab_size: int, exponent: float) -> np.ndarray:
    """Normalized Zipf marginal over ids: weight(k) proportional to 1/(k+1)^s.

    Id 0 is the most frequent token; exponent 0 gives the uniform
    distribution.
    """
    if vocab_size < 1:
        raise ValueError(f"vocab_size must be >= 1, got {vocab_size}")
    if exponent < 0:
        raise ValueError(f"zipf_exponent must be >= 0, got {exponent}")
    w = np.arange(1, vocab_size + 1, dtype=np.float64) ** -float(exponent)
    return w / w.sum()


def _partner_involution(vocab_size: int, rng: np.random.Generator) -> np.ndarray:
    """Random involution on ids (a perfect matching; odd vocab leaves one
    fixed point). Used as the symmetric Metropolis proposal for order-1
    corpora."""
    ids = rng.permutation(vocab_size)
    inv = np.empty(vocab_size, dtype=np.int64)
    half = vocab_size // 2
    a, b = ids[:half], ids[half : 2 * half]
    inv[a] = b
    inv[b] = a
    if vocab_size % 2 == 1:
        inv[ids[-1]] = ids[-1]
    return inv


def _markov_sequence(
    seq_len: int,
    weights: np.ndarray,
    partner: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """One first-order sequence. Each step either restarts from the Zipf
    marginal (prob 1-COUPLING) or makes a Metropolis move: propose the
    fixed partner id, accept with min(1, w[partner]/w[cur]), else stay.
    Detailed balance of the Metropolis kernel keeps the marginal exactly
    Zipfian at every position."""
    vocab_size = weights.shape[0]
    # All randomness drawn up front in a fixed order so the sequence is a
    # pure function of the stream state.
    restarts = rng.choice(vocab_size, size=seq_len, p=weights)
    use_chain = rng.random(seq_len) < COUPLING
    accept_u = rng.random(seq_len)

    out = np.empty(seq_len, dtype=np.int64)
    out[0] = restarts[0]
    for t in range(1, seq_len):
        if use_chain[t]:
            cur = out[t - 1]
            cand = partner[cur]
            if accept_u[t] * weights[cur] < weights[cand]:
                out[t] = cand
            else:
                out[t] = cur
        else:
            out[t] = restarts[t]
    return out


def generate_corpus(
    vocab_size: int,
    num_docs: int,
    seq_len: int,
    zipf_exponent: float,
    markov_order: int,
    seed: int,
) -> Corpus:
    """Generate a synthetic corpus with a Zipf(s) token marginal.

    markov_order 0 draws positions independently; order 1 adds a fixed
    random transition structure (seed-derived) that makes local context
    predictive while preserving the Zipf marginal exactly.
    """
    if vocab_size < 2:
        raise ValueError(f"vocab_size must be >= 2, got {vocab_size}")
    if num_docs < 1:
        raise ValueError(f"num_docs must be >= 1, got {num_docs}")
    if seq_len < 1:
        raise ValueError(f"seq_len must be >= 1, got {seq_len}")
    if markov_order not in (0, 1):
        raise ValueError(f"markov_order must be 0 or 1, got {markov_order}")
    weights = zipf_weights(vocab_size, zipf_exponent)

    # Stream 0 fixes the shared transition structure; streams 1..num_docs
    # generate one sequence each, so generation order never matters.
    streams = np.random.SeedSequence(seed).spawn(num_docs + 1)
    partner = _partner_involution(vocab_size, np.random.default_rng(streams[0]))

    tokens = np.empty((num_docs, seq_len), dtype=np.int64)
    for d in range(num_docs):
        rng = np.random.default_rng(streams[d + 1])
        if markov_order == 0:
            tokens[d] = rng.choice(vocab_size, size=seq_len, p=weights)
        else:
            tokens[d] = _markov_sequence(seq_len, weights, partner, rng)
    return Corpus(tokens=tokens, vocab_size=vocab_size, seed=seed)


def substitute(
    clean: np.ndarray,
    vocab_size: int,
    rate: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """The substitution channel: replace each position independently with
    probability ``rate`` by one of the other vocab_size-1 tokens, drawn
    uniformly. Returns the output and the bool mask of substituted
    positions, which are exactly the positions that changed. Rate 0 draws
    nothing from ``rng``. The channel's draws (``draw_substitution``) and
    their application (``apply_substitution``) can also run apart."""
    clean = np.asarray(clean, dtype=np.int64)
    return apply_substitution(clean, vocab_size, rate, draw_substitution(clean.shape[0], vocab_size, rate, rng))


def draw_substitution(
    seq_len: int, vocab_size: int, rate: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray] | None:
    """The channel's draws for one sequence of ``seq_len`` positions: a
    uniform per position, which substitutes it when below ``rate``, and an
    offset in [1, V) per position. None at rate 0, which draws nothing.
    Raises ``ValueError`` on a rate outside [0, 1], or above 0 with a vocab
    below 2."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"substitution rate must be in [0,1], got {rate}")
    if rate == 0.0:
        return None
    if vocab_size < 2:
        raise ValueError("cannot substitute tokens with vocab_size < 2")
    return rng.random(seq_len), rng.integers(1, vocab_size, size=seq_len)


def apply_substitution(
    clean: np.ndarray, vocab_size: int, rate: float, draws: tuple[np.ndarray, np.ndarray] | None
) -> tuple[np.ndarray, np.ndarray]:
    """``substitute``'s output and substituted positions for ([B,] T)
    ``clean`` and the draws of ``draw_substitution``, stacked to the shape
    of ``clean`` for a batch (None at rate 0)."""
    clean = np.asarray(clean, dtype=np.int64)
    if draws is None:
        return clean.copy(), np.zeros(clean.shape, dtype=bool)
    uniforms, offsets = draws
    hit = uniforms < rate
    # offset in [1, V) guarantees the replacement differs from the original
    out = clean.copy()
    out[hit] = (clean[hit] + offsets[hit]) % vocab_size
    return out, hit


def corrupt_sequence(clean: np.ndarray, vocab_size: int, rate: float, rng: np.random.Generator) -> np.ndarray:
    """A distorted observation of ``clean``: the output of :func:`substitute`."""
    return substitute(clean, vocab_size, rate, rng)[0]


def document_frequency(corpus: Corpus) -> FrequencyTable:
    """Count, for every token id, the number of documents containing it,
    and derive the table's rarity statistics."""
    counts = np.zeros(corpus.vocab_size, dtype=np.int64)
    for row in corpus.tokens:
        counts[np.unique(row)] += 1
    return FrequencyTable(doc_freq=counts, num_docs=corpus.num_docs)


def standardized_sigmoid(z: np.ndarray, mean: float | None = None, std: float | None = None) -> np.ndarray:
    """sigmoid((z - mean)/std) with population statistics of ``z`` by default.

    A zero standard deviation maps every score to 0 before the sigmoid,
    hence 0.5 everywhere (the continuous limit; avoids division by zero).
    """
    z = np.asarray(z, dtype=np.float64)
    if mean is None:
        mean = float(z.mean())
    if std is None:
        std = float(z.std())  # population convention: no T-1 edge case at T=1
    if std == 0.0:
        normed = np.zeros_like(z)
    else:
        normed = (z - mean) / std
    return 1.0 / (1.0 + np.exp(-normed))


def sequence_base_probabilities(table: FrequencyTable, tokens: np.ndarray) -> np.ndarray:
    """Per-position base masking probabilities for one sequence.

    The rarity score is looked up per position and standardized over the
    positions of this sequence (population std), then squashed. This is
    the vector the coarse-to-fine schedule rescales.
    """
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.min(initial=0) < 0 or (tokens.size and tokens.max() >= table.vocab_size):
        raise ValueError("token id outside [0, vocab_size)")
    return standardized_sigmoid(table.idf[tokens])


# ---------------------------------------------------------------------------
# File formats


def write_csv(path, header: str, rows: Iterable[Iterable], comments: Iterable[str] = ()) -> None:
    """The one CSV writer: a ``# <comment>`` line per comment, the header
    row, then one line per row. Floats, numpy ones included, are written as
    ``repr(float(v))`` so they parse back bit for bit; everything else as
    ``str(v)``."""
    with open(path, "w") as fh:
        for comment in comments:
            fh.write(f"# {comment}\n")
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) if isinstance(v, (float, np.floating)) else str(v) for v in row) + "\n")


def save_corpus(corpus: Corpus, path) -> None:
    """Text format: header ``V T N_docs seed``, then one sequence per line
    as space-separated decimal token ids."""
    with open(path, "w") as fh:
        fh.write(f"{corpus.vocab_size} {corpus.seq_len} {corpus.num_docs} {corpus.seed}\n")
        for row in corpus.tokens:
            fh.write(" ".join(str(int(t)) for t in row) + "\n")


def load_corpus(path) -> Corpus:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 4:
            raise ValueError(f"corpus header must be 'V T N_docs seed', got {header!r}")
        vocab_size, seq_len, num_docs, seed = (int(x) for x in header)
        tokens = np.empty((num_docs, seq_len), dtype=np.int64)
        for d in range(num_docs):
            row = np.array(fh.readline().split(), dtype=np.int64)
            if row.shape[0] != seq_len:
                raise ValueError(f"sequence {d}: expected {seq_len} tokens, got {row.shape[0]}")
            tokens[d] = row
        if any(line.strip() for line in fh):
            raise ValueError(f"text after the last of {num_docs} sequences")
    if tokens.size and (tokens.min() < 0 or tokens.max() >= vocab_size):
        raise ValueError("corpus contains token ids outside [0, vocab_size)")
    return Corpus(tokens=tokens, vocab_size=vocab_size, seed=seed)


def save_frequency_csv(table: FrequencyTable, path, comment: str | None = None) -> None:
    """CSV export ``token,f,z,p_base``; num_docs rides along as a comment
    so the table round-trips."""
    comments = ([] if comment is None else [comment]) + [f"num_docs={table.num_docs}"]
    rows = zip(range(table.vocab_size), table.doc_freq, table.idf, table.p_base)
    write_csv(path, "token,f,z,p_base", rows, comments)


def load_frequency_csv(path) -> FrequencyTable:
    """Rebuild a table from the CSV export; z and p_base are recomputed
    from f and num_docs rather than parsed, so derived values always match
    the current formulas. A malformed file raises ``ValueError``."""
    num_docs = None
    counts: list[int] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("#"):
                if line[1:].strip().startswith("num_docs="):
                    num_docs = int(line.split("=", 1)[1])
                continue
            if not line or line.startswith("token,"):
                continue
            token, f, *_ = line.split(",")
            if int(token) != len(counts):
                raise ValueError(f"frequency CSV rows out of order at token {token}")
            counts.append(int(f))
    if num_docs is None:
        raise ValueError("frequency CSV is missing the '# num_docs=' comment")
    return FrequencyTable(doc_freq=np.array(counts, dtype=np.int64), num_docs=num_docs)
