"""The training helper: a second interpreter that runs the second half of
every minibatch of ``predictor.train``.

Training with the helper must equal training alone bit for bit, in the
model and in every ``EpochStats`` field. The helper starts only when the
call may use two CPUs (``cpus.usable_cpus``), so never inside a ``fan_out``
job, and it is killed and reaped on every path: a helper that never
reports ready, one that dies mid-training and a non-finite loss in its
half. Most tests make the caller wait for the helper to report ready, so
that even a short training hands it work.
"""

import os
import signal
import time

import numpy as np
import pytest
from test_identity import _bits

from maskgen import cpus, predictor
from maskgen.corpus import Corpus, document_frequency, generate_corpus
from maskgen.errors import NumericsError
from maskgen.harness import fan_out, train_cells
from maskgen.predictor import TrainConfig, _draw_batch, _finish_batch, _start_batch, init_model, train
from maskgen.schedule import MaskMode, ScheduleConfig


@pytest.fixture
def helpers(monkeypatch):
    """Training in which the call may use two CPUs and waits for its helper
    to report ready; yields the list of helpers started, each with the
    number of minibatch halves it ran."""
    started = []
    monkeypatch.setattr(predictor, "usable_cpus", lambda: 2)
    real_init, real_ready, real_collect = predictor._Helper.__init__, predictor._Helper.ready, predictor._Helper.collect

    def init(self, *args):
        real_init(self, *args)
        self.halves = 0
        started.append(self)

    def collect(self):
        self.halves += 1
        return real_collect(self)

    monkeypatch.setattr(predictor._Helper, "__init__", init)
    monkeypatch.setattr(predictor._Helper, "ready", lambda self, wait=False: real_ready(self, wait=True))
    monkeypatch.setattr(predictor._Helper, "collect", collect)
    return started


def solo(monkeypatch, *args):
    """``train(*args)`` in a call that may use one CPU."""
    with monkeypatch.context() as m:
        m.setattr(predictor, "usable_cpus", lambda: 1)
        return train(*args)


def assert_same_training(a, b):
    (model_a, history_a), (model_b, history_b) = a, b
    for name in ("embedding", "out_w", "out_b"):
        assert _bits(getattr(model_a, name)) == _bits(getattr(model_b, name)), name
    assert repr(history_a) == repr(history_b)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# (docs, T, batch, rho, mode): batches of 1, 2, 3 and 8, short last batches
# (10 docs in batches of 3 or 8), a single position and no substitution
GRID = [
    (6, 12, 1, 0.3, "uniform"),
    (8, 12, 2, 0.3, "ctf"),
    (10, 12, 3, 0.3, "uniform"),
    (10, 12, 3, 0.0, "ctf"),
    (10, 16, 8, 0.3, "ctf"),
    (20, 16, 8, 0.0, "uniform"),
    (9, 1, 2, 0.3, "uniform"),
    (9, 1, 3, 0.0, "ctf"),
]


@pytest.mark.parametrize("docs, t, batch, rho, mode", GRID)
def test_training_with_the_helper_equals_training_alone(helpers, monkeypatch, docs, t, batch, rho, mode):
    corpus = generate_corpus(12, docs, t, 1.2, 1, seed=docs * t + batch)
    freq = document_frequency(corpus)
    sched = ScheduleConfig(n_steps=min(t, 6), mode=MaskMode(mode))
    hyper = TrainConfig(lr=1.0, epochs=3, batch=batch, rho=rho, seed=batch + 40, dim=4, radius=1)
    assert_same_training(train(corpus, freq, sched, hyper), solo(monkeypatch, corpus, freq, sched, hyper))
    if batch == 1:
        assert helpers == []  # a minibatch of one is not split
    else:
        # the helper is ready before the first minibatch, and every minibatch
        # of two examples or more is split
        split = sum(min(batch, docs - start) > 1 for start in range(0, docs, batch))
        assert len(helpers) == 1 and helpers[0].halves == 3 * split
        assert helpers[0].proc.returncode == -signal.SIGKILL


def test_training_at_the_default_shapes_equals_training_alone(helpers, monkeypatch):
    corpus = generate_corpus(64, 36, 96, 1.2, 1, seed=101)
    freq = document_frequency(corpus)
    hyper = TrainConfig(lr=1.5, epochs=2, batch=8, rho=0.3, seed=7, dim=32, radius=1)
    for mode in ("uniform", "ctf"):
        sched = ScheduleConfig(n_steps=10, mode=MaskMode(mode))
        assert_same_training(train(corpus, freq, sched, hyper), solo(monkeypatch, corpus, freq, sched, hyper))
    assert [helper.halves for helper in helpers] == [10, 10]


def test_a_helper_that_never_reports_ready_is_killed_not_waited_for(monkeypatch):
    monkeypatch.setattr(predictor, "usable_cpus", lambda: 2)
    monkeypatch.setattr(predictor, "_HELPER_CODE", "import time; time.sleep(600)")
    closed = []
    real_close = predictor._Helper.close

    def close(self):
        real_close(self)
        closed.append(self.proc.returncode)

    monkeypatch.setattr(predictor._Helper, "close", close)
    corpus = generate_corpus(16, 24, 20, 1.2, 1, seed=4)
    freq = document_frequency(corpus)
    hyper = TrainConfig(lr=1.0, epochs=2, batch=8, rho=0.3, seed=6, dim=8, radius=1)
    start = time.monotonic()
    trained = train(corpus, freq, ScheduleConfig(n_steps=4), hyper)
    assert time.monotonic() - start < 60
    assert closed == [-signal.SIGKILL]
    assert_no_child_left()
    assert_same_training(trained, solo(monkeypatch, corpus, freq, ScheduleConfig(n_steps=4), hyper))


def test_a_helper_killed_mid_training_raises_and_leaves_no_process(helpers, monkeypatch):
    real_ready = predictor._Helper.ready
    calls = []

    def ready(self, wait=False):
        calls.append(self.proc.pid)
        if len(calls) == 4:  # three minibatches were split with the helper
            os.kill(self.proc.pid, signal.SIGKILL)
        return real_ready(self, wait=True)

    monkeypatch.setattr(predictor._Helper, "ready", ready)
    corpus = generate_corpus(16, 48, 20, 1.2, 1, seed=4)
    hyper = TrainConfig(lr=1.0, epochs=2, batch=8, rho=0.3, seed=6, dim=8, radius=1)
    with pytest.raises(ChildProcessError) as exc:
        train(corpus, document_frequency(corpus), ScheduleConfig(n_steps=4), hyper)
    assert len(calls) == 4 and len(helpers) == 1
    assert str(exc.value) == f"training helper {helpers[0].proc.pid} ended with exit code {-signal.SIGKILL}"
    assert_no_child_left()


def test_a_non_finite_loss_in_the_helpers_half_names_its_example(monkeypatch):
    # token 5 occurs in documents 2 and 5 only, and its embedding is nan, so
    # their losses are nan; the helper runs the second half of the batch,
    # which holds both
    tokens = np.tile(np.arange(8) % 3, (8, 1))
    tokens[2, 3] = tokens[5, 6] = 5
    corpus = Corpus(tokens=tokens, vocab_size=6, seed=0)
    sched = ScheduleConfig(n_steps=10)
    hyper = TrainConfig(lr=0.5, epochs=6, batch=4, rho=0.0, seed=21, dim=3, radius=1)
    model = init_model(6, 3, 1, np.random.default_rng(0))
    model.embedding[5] = np.nan
    idx = np.array([0, 7, 5, 2])
    messages = []
    for use_helper in (False, True):
        batch = _draw_batch(corpus, None, sched, hyper, idx, np.random.default_rng(22), epoch=4)
        helper = predictor._Helper(model, 8, 2) if use_helper else None
        try:
            trained = model if helper is None else helper.model
            if helper is not None:
                assert helper.ready(wait=True)
            with np.errstate(all="ignore"), pytest.raises(NumericsError) as exc:
                _finish_batch(trained, batch, _start_batch(trained, batch, helper), hyper.lr, helper)
            messages.append(str(exc.value))
        finally:
            if helper is not None:
                helper.close()
    assert messages[0] == messages[1]
    assert messages[0].startswith("non-finite loss nan at epoch 4, document ")
    assert messages[0].split("document ")[1].split(",")[0] in ("5", "2")
    assert_no_child_left()


def test_the_call_may_use_one_cpu_inside_a_fan_out_job(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert cpus.usable_cpus() == 2
    assert fan_out(lambda _: cpus.usable_cpus(), [0, 1]) == [1, 1]
    assert cpus.usable_cpus() == 2


def no_helper(*args):
    raise AssertionError("a training helper was started")


def test_trainings_through_train_cells_start_no_helper(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(predictor, "_Helper", no_helper)
    corpus = generate_corpus(16, 24, 20, 1.2, 1, seed=4)
    freq = document_frequency(corpus)
    hypers = [TrainConfig(lr=1.0, epochs=2, batch=8, rho=0.3, seed=seed, dim=8, radius=1) for seed in (6, 7)]
    cells = [lambda hyper=hyper: train(corpus, freq, ScheduleConfig(n_steps=4), hyper) for hyper in hypers]
    trained = train_cells(cells)  # one cell here, one in a forked child
    for hyper, result in zip(hypers, trained):
        assert_same_training(result, solo(monkeypatch, corpus, freq, ScheduleConfig(n_steps=4), hyper))


def test_a_call_that_may_use_one_cpu_starts_no_helper(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(predictor, "_Helper", no_helper)
    monkeypatch.setattr(predictor, "usable_cpus", lambda: 1)
    corpus = generate_corpus(16, 24, 20, 1.2, 1, seed=4)
    hyper = TrainConfig(lr=1.0, epochs=2, batch=8, rho=0.3, seed=6, dim=8, radius=1)
    train(corpus, document_frequency(corpus), ScheduleConfig(n_steps=4), hyper)
