"""Bit-for-bit pins of predictor and corrector training.

``oracle_train`` and ``oracle_train_corrector`` are frozen copies of the
per-example training loops, with the windowed feature concatenation, its
adjoint, the substitution channel and the mask draw written out inline.
Training through the library must reproduce every parameter array and every
statistics field exactly, so a refactor of the shared plumbing cannot move a
single bit of a trained model or a learning curve.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maskgen.corpus import document_frequency, generate_corpus, sequence_base_probabilities
from maskgen.corrector import CorrectorTrainConfig, init_corrector, train_corrector
from maskgen.predictor import TrainConfig, build_conditioning, init_model, train
from maskgen.schedule import MaskMode, ScheduleConfig, apply_mask, cosine_probability, ctf_probabilities


def _oracle_substitute(clean, vocab_size, rate, rng):
    hit = rng.random(clean.shape[0]) < rate
    offsets = rng.integers(1, vocab_size, size=clean.shape[0])
    out = clean.copy()
    out[hit] = (clean[hit] + offsets[hit]) % vocab_size
    return out, hit


def _oracle_window(u, r):
    t, d = u.shape
    padded = np.zeros((t + 2 * r, d))
    padded[r : r + t] = u
    return np.concatenate([padded[c : c + t] for c in range(2 * r + 1)], axis=1)


def _oracle_window_adjoint(blocks, r, t, d):
    du = np.zeros((t, d))
    for c in range(2 * r + 1):
        k = c - r
        t_lo, t_hi = max(0, -k), min(t, t - k)
        if t_lo < t_hi:
            du[t_lo + k : t_hi + k] += blocks[t_lo:t_hi, c]
    return du


def _oracle_example(model, clean, distorted, masked, m):
    """Forward pass and masked cross entropy of one example: (loss, probs,
    g_e, g_w, g_b)."""
    r, d, t = model.radius, model.dim, clean.shape[0]
    ctx = build_conditioning(distorted, model)
    feats = _oracle_window(model.embedding[masked] + ctx.cond, r)
    feats[:, r * d : (r + 1) * d] += ctx.global_embed
    logits = feats @ model.out_w + model.out_b
    shifted = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True)))

    on = np.flatnonzero(m == 1)
    loss = float(-np.log(probs[on, clean[on]]).sum()) if on.size else 0.0
    dlogits = probs.copy()
    dlogits[np.arange(t), clean] -= 1.0
    dlogits *= m.astype(np.float64)[:, None]
    g_w = feats.T @ dlogits
    g_b = dlogits.sum(axis=0)
    blocks = (dlogits @ model.out_w.T).reshape(t, 2 * r + 1, d)
    du = _oracle_window_adjoint(blocks, r, t, d)
    dcond = du + blocks[:, r, :].sum(axis=0) / t
    g_e = np.zeros_like(model.embedding)
    np.add.at(g_e, masked, du)
    np.add.at(g_e, ctx.source_tokens, dcond)
    return loss, probs, g_e, g_w, g_b


def oracle_train(corpus, freq, sched, hyper):
    v, (n, t) = corpus.vocab_size, corpus.tokens.shape
    rng = np.random.default_rng(hyper.seed)
    model = init_model(v, hyper.dim, hyper.radius, rng)
    history = []
    for epoch in range(hyper.epochs):
        order = rng.permutation(n)
        epoch_loss, epoch_masked, epoch_correct = 0.0, 0, 0
        for start in range(0, n, hyper.batch):
            g_e = np.zeros_like(model.embedding)
            g_w = np.zeros_like(model.out_w)
            g_b = np.zeros_like(model.out_b)
            batch_masked = 0
            for j in order[start : start + hyper.batch]:
                clean = corpus.tokens[j]
                distorted = _oracle_substitute(clean, v, hyper.rho, rng)[0] if hyper.rho > 0 else clean.copy()
                step = 0 if sched.n_steps == 1 else int(rng.integers(1, sched.n_steps))
                if sched.mode is MaskMode.CTF:
                    probs = ctf_probabilities(sequence_base_probabilities(freq, clean), step, sched.n_steps)
                else:
                    probs = np.full(t, cosine_probability(step, sched.n_steps))
                m = (rng.random(t) < probs).astype(np.int8)
                masked = apply_mask(clean, m, v)
                loss, pred, e, w, b = _oracle_example(model, clean, distorted, masked, m)
                g_e += e
                g_w += w
                g_b += b
                n_masked = int(m.sum())
                batch_masked += n_masked
                if n_masked:
                    epoch_correct += int(((pred.argmax(axis=1) == clean) & (m == 1)).sum())
                epoch_loss += loss
            if batch_masked > 0:
                scale = hyper.lr / batch_masked
                model.embedding -= scale * g_e
                model.out_w -= scale * g_w
                model.out_b -= scale * g_b
            epoch_masked += batch_masked
        per_token = epoch_loss / epoch_masked if epoch_masked else 0.0
        acc = epoch_correct / epoch_masked if epoch_masked else 0.0
        history.append((epoch, epoch_loss, per_token, acc))
    return model, history


def oracle_train_corrector(corpus, hyper):
    v, (n, t) = corpus.vocab_size, corpus.tokens.shape
    rng = np.random.default_rng(hyper.seed)
    model = init_corrector(v, hyper.dim, hyper.radius, rng)
    r, d = model.radius, model.dim
    history = []
    for epoch in range(hyper.epochs):
        epoch_loss = 0.0
        for j in rng.permutation(n):
            clean = corpus.tokens[j]
            u = float(rng.uniform(0.0, hyper.max_rate))
            if u == 0.0:
                tokens, hit = clean.copy(), np.zeros(t, dtype=bool)
            else:
                tokens, hit = _oracle_substitute(clean, v, u, rng)
            y = hit.astype(np.int8).astype(np.float64)
            feats = _oracle_window(model.embedding[tokens], r)
            logits = feats @ model.w + model.b
            loss = float((y * np.logaddexp(0.0, -logits) + (1.0 - y) * np.logaddexp(0.0, logits)).sum())
            dlogits = 1.0 / (1.0 + np.exp(-logits)) - y
            g_w = feats.T @ dlogits
            g_b = float(dlogits.sum())
            du = _oracle_window_adjoint(np.outer(dlogits, model.w).reshape(t, 2 * r + 1, d), r, t, d)
            g_e = np.zeros_like(model.embedding)
            np.add.at(g_e, tokens, du)
            scale = hyper.lr / t
            model.embedding -= scale * g_e
            model.w -= scale * g_w
            model.b -= scale * g_b
            epoch_loss += loss
        history.append((epoch, epoch_loss / (n * t)))
    return model, history


def _bits(a):
    return np.asarray(a, dtype=np.float64).tobytes()


@settings(derandomize=True, max_examples=12, deadline=None)
@given(
    mode=st.sampled_from(["uniform", "ctf"]),
    rho=st.sampled_from([0.0, 0.3]),
    n_steps=st.sampled_from([1, 2, 5]),
    batch=st.sampled_from([3, 4, 7]),
    radius=st.sampled_from([0, 1, 2]),
    seed=st.integers(0, 2**16),
)
@example(mode="uniform", rho=0.0, n_steps=1, batch=3, radius=0, seed=0)
@example(mode="ctf", rho=0.3, n_steps=1, batch=7, radius=0, seed=1)
@example(mode="ctf", rho=0.0, n_steps=5, batch=4, radius=2, seed=2)
@example(mode="uniform", rho=0.3, n_steps=5, batch=3, radius=1, seed=3)
def test_train_matches_frozen_oracle(mode, rho, n_steps, batch, radius, seed):
    # 10 docs: batches of 3, 4 and 7 leave a short last batch
    corpus = generate_corpus(8, 10, 12, 1.2, 1, seed=seed)
    freq = document_frequency(corpus)
    sched = ScheduleConfig(n_steps=n_steps, mode=MaskMode(mode))
    hyper = TrainConfig(lr=0.9, epochs=2, batch=batch, rho=rho, seed=seed + 1, dim=3, radius=radius)
    model, history = train(corpus, freq, sched, hyper)
    frozen, frozen_history = oracle_train(corpus, freq, sched, hyper)
    for name in ("embedding", "out_w", "out_b"):
        assert _bits(getattr(model, name)) == _bits(getattr(frozen, name)), name
    assert repr([(h.epoch, h.loss_sum, h.loss_per_token, h.masked_acc) for h in history]) == repr(frozen_history)


@settings(derandomize=True, max_examples=12, deadline=None)
@given(
    radius=st.sampled_from([0, 1, 2]),
    dim=st.sampled_from([1, 3]),
    max_rate=st.sampled_from([0.3, 1.0]),
    seed=st.integers(0, 2**16),
)
@example(radius=0, dim=1, max_rate=0.3, seed=0)
@example(radius=2, dim=3, max_rate=1.0, seed=1)
def test_train_corrector_matches_frozen_oracle(radius, dim, max_rate, seed):
    corpus = generate_corpus(8, 10, 12, 1.2, 1, seed=seed)
    hyper = CorrectorTrainConfig(lr=0.7, epochs=2, seed=seed + 1, dim=dim, radius=radius, max_rate=max_rate)
    model, history = train_corrector(corpus, hyper)
    frozen, frozen_history = oracle_train_corrector(corpus, hyper)
    assert _bits(model.embedding) == _bits(frozen.embedding)
    assert _bits(model.w) == _bits(frozen.w)
    assert _bits([model.b]) == _bits([frozen.b])
    assert repr([(h.epoch, h.loss_per_position) for h in history]) == repr(frozen_history)
