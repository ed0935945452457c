"""Shared test utilities: parameter flattening, finite differences,
rank-based AUC and the per-document reference of corpus generation."""

import numpy as np

from maskgen.corpus import COUPLING, _partner_involution, zipf_weights
from maskgen.corrector import CorrectorModel
from maskgen.predictor import PredictorGradients, PredictorModel


def predictor_params(model: PredictorModel) -> np.ndarray:
    return np.concatenate([model.embedding.ravel(), model.out_w.ravel(), model.out_b.ravel()])


def set_predictor_params(model: PredictorModel, flat: np.ndarray) -> None:
    n_e, n_w = model.embedding.size, model.out_w.size
    model.embedding[:] = flat[:n_e].reshape(model.embedding.shape)
    model.out_w[:] = flat[n_e : n_e + n_w].reshape(model.out_w.shape)
    model.out_b[:] = flat[n_e + n_w :]


def predictor_grads_flat(grads: PredictorGradients) -> np.ndarray:
    return np.concatenate([grads.embedding.ravel(), grads.out_w.ravel(), grads.out_b.ravel()])


def corrector_params(model: CorrectorModel) -> np.ndarray:
    return np.concatenate([model.embedding.ravel(), model.w.ravel(), [model.b]])


def set_corrector_params(model: CorrectorModel, flat: np.ndarray) -> None:
    n_e, n_w = model.embedding.size, model.w.size
    model.embedding[:] = flat[:n_e].reshape(model.embedding.shape)
    model.w[:] = flat[n_e : n_e + n_w]
    model.b = float(flat[n_e + n_w])


def central_differences(fn, x0: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Gradient of a scalar function by central finite differences."""
    grad = np.empty_like(x0)
    for k in range(x0.shape[0]):
        bumped = x0.copy()
        bumped[k] = x0[k] + h
        up = fn(bumped)
        bumped[k] = x0[k] - h
        down = fn(bumped)
        grad[k] = (up - down) / (2 * h)
    return grad


def roc_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Rank-based AUC (tie-aware Mann-Whitney)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both positive and negative examples")
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    cum = np.cumsum(counts)
    mean_rank = (cum - counts + 1 + cum) / 2.0
    ranks = mean_rank[inverse]
    return float((ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def _reference_markov_sequence(seq_len, weights, partner, rng):
    """One first-order sequence, one step at a time: all draws up front
    (restarts, chain flags, acceptance uniforms), then per step either the
    restart or a Metropolis move to the partner id."""
    restarts = rng.choice(weights.shape[0], size=seq_len, p=weights)
    use_chain = rng.random(seq_len) < COUPLING
    accept_u = rng.random(seq_len)
    out = np.empty(seq_len, dtype=np.int64)
    out[0] = restarts[0]
    for t in range(1, seq_len):
        if use_chain[t]:
            cur = out[t - 1]
            cand = partner[cur]
            out[t] = cand if accept_u[t] * weights[cur] < weights[cand] else cur
        else:
            out[t] = restarts[t]
    return out


def reference_corpus_tokens(vocab_size, num_docs, seq_len, zipf_exponent, markov_order, seed):
    """The tokens ``generate_corpus`` makes, generated one document at a
    time from the same streams."""
    weights = zipf_weights(vocab_size, zipf_exponent)
    streams = np.random.SeedSequence(seed).spawn(num_docs + 1)
    partner = _partner_involution(vocab_size, np.random.default_rng(streams[0]))
    tokens = np.empty((num_docs, seq_len), dtype=np.int64)
    for d in range(num_docs):
        rng = np.random.default_rng(streams[d + 1])
        if markov_order == 0:
            tokens[d] = rng.choice(vocab_size, size=seq_len, p=weights)
        else:
            tokens[d] = _reference_markov_sequence(seq_len, weights, partner, rng)
    return tokens
