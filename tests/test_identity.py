"""Bit-for-bit pins of training and of the per-sequence inference loop.

``oracle_train`` and ``oracle_train_corrector`` are frozen copies of the
per-example training loops, with the windowed feature concatenation, its
adjoint, the substitution channel and the mask draw written out inline.
Training through the library must reproduce every parameter array and every
statistics field exactly, so a refactor of the shared plumbing cannot move a
single bit of a trained model or a learning curve.

``oracle_evaluate`` and ``oracle_cli_decode`` are frozen copies of the two
per-sequence loops that ``evaluate`` and ``maskgen decode`` ran before they
shared ``harness.decode_all``: distortion, conditioning, rarity priors,
decode and correction one sequence at a time, scored with ``np.add.at``.
The reports, the decoded tokens and the trace file must match them exactly.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maskgen.cli import main as cli_main
from maskgen.corpus import (
    corrupt_sequence,
    document_frequency,
    generate_corpus,
    load_corpus,
    save_corpus,
    save_frequency_csv,
    sequence_base_probabilities,
    write_csv,
)
from maskgen.corrector import CorrectorTrainConfig, correct, init_corrector, save_corrector, train_corrector
from maskgen.decoder import decode
from maskgen.harness import (
    ExperimentConfig,
    MetricsReport,
    build_pipeline,
    edit_distance,
    evaluate,
    frequency_deciles,
)
from maskgen.predictor import TrainConfig, build_conditioning, init_model, save_predictor, train
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


def oracle_evaluate(model, test_corpus, freq, sched, cfg, eval_seed, corrector=None):
    deciles = frequency_deciles(freq)
    hits = total = exact = 0
    dec_hits = np.zeros(10, dtype=np.int64)
    dec_total = np.zeros(10, dtype=np.int64)
    traces = []
    streams = np.random.SeedSequence(eval_seed).spawn(test_corpus.num_docs)
    decoded_all = np.empty_like(test_corpus.tokens)
    for j in range(test_corpus.num_docs):
        rng = np.random.default_rng(streams[j])
        clean = test_corpus.tokens[j]
        distorted = corrupt_sequence(clean, test_corpus.vocab_size, cfg.rho, rng)
        ctx = build_conditioning(distorted, model)
        p_base = sequence_base_probabilities(freq, distorted) if sched.mode is MaskMode.CTF else None
        decoded, trace = decode(model, ctx, sched, p_base=p_base)
        if corrector is not None:
            decoded = correct(decoded, model, ctx, corrector, cfg.theta, cfg.corrector_rounds)
        traces.append(trace)
        hit = decoded == clean
        hits += int(hit.sum())
        total += clean.shape[0]
        exact += int(hit.all())
        decoded_all[j] = decoded
        np.add.at(dec_hits, deciles[clean], hit.astype(np.int64))
        np.add.at(dec_total, deciles[clean], 1)
    n = test_corpus.num_docs
    mean_trace = [
        (
            i,
            float(np.mean([t[i].open_count for t in traces])),
            float(np.mean([t[i].mean_confidence for t in traces])),
        )
        for i in range(sched.n_steps)
    ]
    decile_acc = [float(dec_hits[d] / dec_total[d]) if dec_total[d] else float("nan") for d in range(10)]
    return MetricsReport(
        overall_accuracy=hits / total,
        exact_match=exact / n,
        mean_edit_distance=int(edit_distance(decoded_all, test_corpus.tokens).sum()) / n,
        decile_accuracy=decile_acc,
        decile_counts=[int(c) for c in dec_total],
        step_trace=mean_trace,
    )


def oracle_cli_decode(model, observations, sched, freq, corrector, theta, rounds, refill, temperature, seed):
    """Decoded tokens and the last sequence's trace rows, as ``maskgen
    decode`` wrote them."""
    streams = np.random.SeedSequence(seed if seed is not None else 0).spawn(observations.shape[0])
    decoded = np.empty_like(observations)
    last_trace = []
    for j in range(observations.shape[0]):
        rng = np.random.default_rng(streams[j])
        ctx = build_conditioning(observations[j], model)
        p_base = sequence_base_probabilities(freq, observations[j]) if sched.mode is MaskMode.CTF else None
        out, last_trace = decode(model, ctx, sched, rng=rng, temperature=temperature, p_base=p_base)
        if corrector is not None:
            out = correct(
                out, model, ctx, corrector, theta, rounds,
                refill=sched if refill == "full" else None, p_base=p_base,
            )
        decoded[j] = out
    return decoded, [(row.step, row.open_count, row.mean_confidence) for row in last_trace]


# At theta 0.05 the briefly trained corrector changes tokens in every
# setting below, and a full refill ends on other tokens than a single-step
# one, so both refills are part of what is pinned
LOOP_CONFIG = ExperimentConfig(
    seed=3, vocab_size=16, num_docs=48, test_docs=12, seq_len=24, n_steps=6, embed_dim=8, epochs=2,
    use_corrector=True, corrector_dim=6, corrector_epochs=2, theta=0.05,
)


@pytest.fixture(scope="module")
def loop_pipeline():
    return build_pipeline(LOOP_CONFIG)


@pytest.mark.parametrize("mode", ["uniform", "ctf"])
@pytest.mark.parametrize("use_corrector", [False, True], ids=["plain", "corrector"])
def test_evaluate_matches_frozen_loop(loop_pipeline, mode, use_corrector):
    pipe = loop_pipeline
    sched = replace(pipe.sched, mode=MaskMode(mode))
    corrector = pipe.corrector if use_corrector else None
    args = (pipe.model, pipe.test_corpus, pipe.freq, sched, LOOP_CONFIG, pipe.eval_seed, corrector)
    assert repr(evaluate(*args)) == repr(oracle_evaluate(*args))


@pytest.fixture(scope="module")
def decode_files(loop_pipeline, tmp_path_factory):
    d = tmp_path_factory.mktemp("decode_loop")
    pipe = loop_pipeline
    save_predictor(pipe.model, d / "model.bin")
    save_corrector(pipe.corrector, d / "corr.bin")
    save_frequency_csv(pipe.freq, d / "freq.csv")
    rng = np.random.default_rng(7)
    observations = np.stack([corrupt_sequence(row, 16, 0.3, rng) for row in pipe.test_corpus.tokens])
    save_corpus(replace(pipe.test_corpus, tokens=observations), d / "obs.txt")
    return d


@pytest.mark.parametrize("mode", ["uniform", "ctf"])
@pytest.mark.parametrize("refill", [None, "single", "full"], ids=["plain", "single", "full"])
@pytest.mark.parametrize("temperature,seed", [(0.0, None), (0.8, 3)], ids=["greedy", "sampled"])
def test_cli_decode_matches_frozen_loop(loop_pipeline, decode_files, tmp_path, mode, refill, temperature, seed):
    d, pipe = decode_files, loop_pipeline
    argv = [
        "decode", "--model", str(d / "model.bin"), "--input", str(d / "obs.txt"), "--out", str(tmp_path / "out.txt"),
        "--n-steps", "6", "--mask-mode", mode, "--freq-csv", str(d / "freq.csv"), "--theta", str(LOOP_CONFIG.theta),
        "--temperature", str(temperature), "--trace", str(tmp_path / "trace.csv"),
    ]
    if refill is not None:
        argv += ["--corrector", str(d / "corr.bin"), "--refill", refill]
    if seed is not None:
        argv += ["--seed", str(seed)]
    assert cli_main(argv) == 0

    observations = load_corpus(d / "obs.txt").tokens
    sched = replace(pipe.sched, mode=MaskMode(mode))
    corrector = pipe.corrector if refill is not None else None
    tokens, trace = oracle_cli_decode(
        pipe.model, observations, sched, pipe.freq, corrector, LOOP_CONFIG.theta, 2, refill, temperature, seed
    )
    assert load_corpus(tmp_path / "out.txt").tokens.tobytes() == tokens.tobytes()
    write_csv(tmp_path / "frozen_trace.csv", "step,open_count,mean_confidence", trace)
    assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "frozen_trace.csv").read_bytes()
