"""What training costs besides arithmetic: the OpenBLAS thread count it runs
under and the memory it faults in."""

import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import maskgen
from maskgen.blas import THREAD_VARIABLES, _openblas, one_blas_thread
from maskgen.corpus import document_frequency, generate_corpus
from maskgen.predictor import TrainConfig, train
from maskgen.schedule import ScheduleConfig

needs_openblas = pytest.mark.skipif(_openblas() is None, reason="no OpenBLAS loaded in this process")


@pytest.fixture
def two_threads(monkeypatch):
    """A process whose OpenBLAS runs two threads and whose environment
    sets none of OpenBLAS's own variables."""
    for name in THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    get, set_ = _openblas()
    before = get()
    set_(2)
    yield get
    set_(before)


@needs_openblas
def test_scope_pins_one_thread_and_restores_the_count(two_threads):
    with one_blas_thread():
        assert two_threads() == 1
    assert two_threads() == 2


@needs_openblas
def test_scope_restores_the_count_when_the_body_raises(two_threads):
    with pytest.raises(KeyError):
        with one_blas_thread():
            assert two_threads() == 1
            raise KeyError("body")
    assert two_threads() == 2


@needs_openblas
def test_scope_leaves_a_user_set_count_alone():
    probe = (
        "from maskgen.blas import _openblas, one_blas_thread\n"
        "get, _ = _openblas()\n"
        "print(get())\n"
        "with one_blas_thread():\n"
        "    print(get())\n"
    )
    src = Path(maskgen.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    env.update(OPENBLAS_NUM_THREADS="2", PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True, capture_output=True, text=True, timeout=60)
    outside, inside = out.stdout.split()
    if outside == "1":
        pytest.skip("OpenBLAS capped the requested 2 threads at 1 core")
    assert inside == outside


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="the fault count depends on glibc's heap",
)
def test_training_does_not_fault_its_working_memory_back_in():
    # the default shapes (V 64, T 96, dim 32, radius 1, batch 8); a batch
    # that drops its arrays lets glibc trim the heap top and costs about
    # 276 minor faults in the next one
    corpus = generate_corpus(64, 256, 96, 1.2, 1, seed=3)
    freq = document_frequency(corpus)
    hyper = TrainConfig(lr=1.5, epochs=4, batch=8, rho=0.3, seed=5, dim=32, radius=1)
    minibatches = hyper.epochs * -(-corpus.num_docs // hyper.batch)
    assert minibatches >= 64
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    train(corpus, freq, ScheduleConfig(n_steps=10), hyper)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults / minibatches < 10, f"{faults} minor faults over {minibatches} minibatches"
