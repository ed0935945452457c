"""Batched predictor passes against the single-sequence calls they replace.

Training runs each minibatch as one batched pass. These tests pin, bit for
bit, that ``forward`` on a (B, T) batch equals B single-sequence calls row
for row, that ``masked_ce_loss`` returns the single-sequence losses and the
example-order sum of their gradients, that ``forward`` on a set of rows
equals those rows of the full pass, and that whole training runs at the
default model shapes match the frozen per-example loop of
``test_identity.oracle_train``. ``masked_ce_loss`` takes only a prediction
of the masked rows.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_identity import _bits, oracle_train

from maskgen.corpus import document_frequency, generate_corpus
from maskgen.predictor import TrainConfig, build_conditioning, forward, init_model, masked_ce_loss, train
from maskgen.schedule import MaskMode, ScheduleConfig


@pytest.mark.parametrize("mode", ["uniform", "ctf"])
def test_train_matches_frozen_oracle_at_default_shapes(mode):
    # The default model: V 64, T 96, dim 32, radius 1, batch 8. Twenty docs
    # leave a short last batch of 4. At these shapes a batched product spans
    # 768 rows, large enough for OpenBLAS to pick other kernels or to split
    # it across threads.
    corpus = generate_corpus(64, 20, 96, 1.2, 1, seed=101)
    freq = document_frequency(corpus)
    sched = ScheduleConfig(n_steps=10, mode=MaskMode(mode))
    hyper = TrainConfig(lr=1.5, epochs=1, batch=8, rho=0.3, seed=7, dim=32, radius=1)
    model, history = train(corpus, freq, sched, hyper)
    frozen, frozen_history = oracle_train(corpus, freq, sched, hyper)
    for name in ("embedding", "out_w", "out_b"):
        assert _bits(getattr(model, name)) == _bits(getattr(frozen, name)), name
    assert repr([(h.epoch, h.loss_sum, h.loss_per_token, h.masked_acc) for h in history]) == repr(frozen_history)


def _instance(batch, t, v, d, r, seed):
    rng = np.random.default_rng(seed)
    model = init_model(v, d, r, rng)
    distorted = rng.integers(0, v, size=(batch, t))
    target = rng.integers(0, v, size=(batch, t))
    mask = (rng.random((batch, t)) < 0.5).astype(np.int8)
    masked = np.where(mask == 1, v, target)
    positions = rng.permutation(t)[: int(rng.integers(1, t + 1))]
    return model, distorted, target, mask, masked, positions


shapes = dict(
    batch=st.integers(1, 6),
    t=st.integers(1, 12),
    v=st.integers(2, 8),
    d=st.integers(1, 4),
    r=st.integers(0, 2),
    seed=st.integers(0, 2**16),
)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(**shapes)
@example(batch=1, t=1, v=2, d=1, r=0, seed=0)
@example(batch=6, t=12, v=8, d=4, r=2, seed=1)
def test_forward_batch_equals_single_calls(batch, t, v, d, r, seed):
    model, distorted, _, _, masked, positions = _instance(batch, t, v, d, r, seed)
    ctx = build_conditioning(distorted, model)
    full = forward(model, masked, ctx).probs
    part = forward(model, masked, ctx, positions=positions).probs
    assert full.shape == (batch, t, v) and part.shape == (batch, positions.shape[0], v)
    for b in range(batch):
        single_ctx = build_conditioning(distorted[b], model)
        assert _bits(full[b]) == _bits(forward(model, masked[b], single_ctx).probs)
        assert _bits(part[b]) == _bits(forward(model, masked[b], single_ctx, positions=positions).probs)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(**shapes)
@example(batch=1, t=1, v=2, d=1, r=0, seed=0)
@example(batch=6, t=12, v=8, d=4, r=2, seed=1)
def test_masked_ce_loss_batch_equals_example_order_sum(batch, t, v, d, r, seed):
    model, distorted, target, mask, masked, _ = _instance(batch, t, v, d, r, seed)
    pred = forward(model, masked, build_conditioning(distorted, model), positions=mask == 1)
    losses, grads = masked_ce_loss(pred, target, mask)
    assert losses.shape == (batch,)
    g_e, g_w, g_b = np.zeros_like(model.embedding), np.zeros_like(model.out_w), np.zeros_like(model.out_b)
    for b in range(batch):
        pred = forward(model, masked[b], build_conditioning(distorted[b], model), positions=mask[b] == 1)
        loss, single = masked_ce_loss(pred, target[b], mask[b])
        assert isinstance(loss, float) and repr(loss) == repr(float(losses[b]))
        assert _bits(grads.logits[b]) == _bits(single.logits)
        g_e += single.embedding
        g_w += single.out_w
        g_b += single.out_b
    assert _bits(grads.embedding) == _bits(g_e)
    assert _bits(grads.out_w) == _bits(g_w)
    assert _bits(grads.out_b) == _bits(g_b)


def _rows(mask, count, seed):
    """A bool row selection of the batch: no row, one row, or the masked rows."""
    rows = np.zeros(mask.shape, dtype=bool)
    if count == "one":
        rows.flat[np.random.default_rng(seed).integers(rows.size)] = True
    elif count == "many":
        rows = mask == 1
    return rows


@settings(derandomize=True, max_examples=30, deadline=None)
@given(**shapes, count=st.sampled_from(["none", "one", "many"]))
@example(batch=1, t=1, v=2, d=1, r=0, seed=0, count="one")
@example(batch=6, t=12, v=8, d=4, r=2, seed=1, count="none")
@example(batch=6, t=12, v=8, d=4, r=2, seed=1, count="many")
def test_forward_on_a_row_set_equals_those_rows_of_the_full_output(batch, t, v, d, r, seed, count):
    model, distorted, _, mask, masked, _ = _instance(batch, t, v, d, r, seed)
    rows = _rows(mask, count, seed)
    ctx = build_conditioning(distorted, model)
    part = forward(model, masked, ctx, positions=rows).probs
    assert part.shape == (int(rows.sum()), v)
    assert _bits(part) == _bits(forward(model, masked, ctx).probs[rows])


def test_masked_ce_loss_rejects_a_prediction_of_other_rows():
    model, distorted, target, mask, masked, positions = _instance(3, 8, 5, 2, 1, 4)
    ctx = build_conditioning(distorted, model)
    for rows in (None, mask == 0, positions):  # every row, the unmasked ones, an index array
        with pytest.raises(ValueError, match="other rows than the masked ones"):
            masked_ce_loss(forward(model, masked, ctx, positions=rows), target, mask)


def test_shape_mismatch_rejected():
    model = init_model(4, 2, 1, np.random.default_rng(0))
    ctx = build_conditioning(np.zeros((3, 5), dtype=np.int64), model)
    with pytest.raises(ValueError):
        forward(model, np.zeros((2, 5), dtype=np.int64), ctx)
    pred = forward(model, np.zeros((3, 5), dtype=np.int64), ctx)
    with pytest.raises(ValueError):
        masked_ce_loss(pred, np.zeros((3, 4), dtype=np.int64), np.ones((3, 4), dtype=np.int8))
    with pytest.raises(ValueError, match="row selection shape"):
        forward(model, np.zeros((3, 5), dtype=np.int64), ctx, positions=np.ones((3, 4), dtype=bool))
