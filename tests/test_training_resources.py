"""What training costs besides arithmetic: the OpenBLAS thread count it runs
under, the glibc heap setting it makes and the memory it faults in."""

import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import maskgen
from maskgen import blas
from maskgen.blas import HEAP_VARIABLES, THREAD_VARIABLES, _openblas, keep_freed_heap, one_blas_thread
from maskgen.corpus import document_frequency, generate_corpus
from maskgen.predictor import TrainConfig, save_predictor, train
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


def test_a_nested_scope_makes_no_openblas_call(monkeypatch):
    # a call that sets the count restarts a pool thread a fork stopped, so
    # only the outermost scope sets and restores it
    for name in THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    count, calls = [2], []

    def get():
        calls.append("get")
        return count[0]

    def set_(n):
        calls.append(("set", n))
        count[0] = n

    monkeypatch.setattr(blas, "_openblas", lambda: (get, set_))
    with one_blas_thread():
        assert calls == ["get", ("set", 1)]
        with one_blas_thread():
            with one_blas_thread():
                assert count == [1]
        assert calls == ["get", ("set", 1)]
    assert calls == ["get", ("set", 1), ("set", 2)]
    with one_blas_thread():  # the outer scope has ended: the next one sets the count again
        pass
    assert calls[3:] == ["get", ("set", 1), ("set", 2)]


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
    # the default shapes (V 64, T 96, dim 32, radius 1, batch 8); every
    # minibatch frees its arrays, and unless keep_freed_heap has raised
    # glibc's mmap and trim thresholds, glibc trims the freed top of its heap
    # and the next minibatch faults the same pages in again, about 270
    # minor faults each
    corpus = generate_corpus(64, 256, 96, 1.2, 1, seed=3)
    freq = document_frequency(corpus)
    hyper = TrainConfig(lr=1.5, epochs=4, batch=8, rho=0.3, seed=5, dim=32, radius=1)
    minibatches = hyper.epochs * -(-corpus.num_docs // hyper.batch)
    assert minibatches >= 64
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    train(corpus, freq, ScheduleConfig(n_steps=10), hyper)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults / minibatches < 10, f"{faults} minor faults over {minibatches} minibatches"


@pytest.fixture
def recorded_mallopt(monkeypatch):
    """The ``mallopt`` calls of ``keep_freed_heap``, recorded instead of
    made, in an environment that sets no heap threshold."""
    for name in (*HEAP_VARIABLES, "GLIBC_TUNABLES"):
        monkeypatch.delenv(name, raising=False)
    calls = []
    monkeypatch.setattr(blas, "_mallopt", lambda: lambda param, value: calls.append((param, value)))
    keep_freed_heap.cache_clear()
    yield calls
    keep_freed_heap.cache_clear()


def test_heap_setting_raises_both_thresholds_once(recorded_mallopt, monkeypatch):
    # a tunable of another glibc module does not count as a heap setting
    monkeypatch.setenv("GLIBC_TUNABLES", "glibc.pthread.rseq=0")
    keep_freed_heap()
    keep_freed_heap()
    assert recorded_mallopt == [(-3, 32 << 20), (-1, 64 << 20)]


@pytest.mark.parametrize(
    "name, value",
    [
        ("MALLOC_TRIM_THRESHOLD_", "131072"),
        ("MALLOC_MMAP_THRESHOLD_", "131072"),
        ("GLIBC_TUNABLES", "glibc.malloc.trim_threshold=131072"),
        ("GLIBC_TUNABLES", "glibc.pthread.rseq=0:glibc.malloc.mmap_threshold=131072"),
    ],
)
def test_heap_setting_leaves_user_set_thresholds_alone(recorded_mallopt, monkeypatch, name, value):
    monkeypatch.setenv(name, value)
    keep_freed_heap()
    assert recorded_mallopt == []


def test_training_without_mallopt_learns_the_same_parameters(tmp_path):
    # a process in which the lookup finds no mallopt, so no threshold is
    # ever set, against this one, in which training has set them
    corpus = generate_corpus(16, 24, 20, 1.2, 1, seed=4)
    hyper = TrainConfig(lr=1.0, epochs=2, batch=8, rho=0.3, seed=6, dim=8, radius=1)
    probe = (
        "import sys\n"
        "from maskgen import blas\n"
        "from maskgen.corpus import document_frequency, generate_corpus\n"
        "from maskgen.predictor import TrainConfig, save_predictor, train\n"
        "from maskgen.schedule import ScheduleConfig\n"
        "blas._mallopt = lambda: None\n"
        "corpus = generate_corpus(16, 24, 20, 1.2, 1, seed=4)\n"
        f"hyper = {hyper!r}\n"
        "model, _ = train(corpus, document_frequency(corpus), ScheduleConfig(n_steps=4), hyper)\n"
        "save_predictor(model, sys.argv[1])\n"
    )
    src = Path(maskgen.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", probe, str(tmp_path / "without.bin")], env=env, check=True, timeout=120)
    model, _ = train(corpus, document_frequency(corpus), ScheduleConfig(n_steps=4), hyper)
    save_predictor(model, tmp_path / "with.bin")
    assert (tmp_path / "without.bin").read_bytes() == (tmp_path / "with.bin").read_bytes()
