"""Span tracing from outside the program.

A ``Tracer`` replaces public maskgen functions with wrappers that record one
span per call (name, start, end, parent). It patches every name a maskgen
module bound to the function, so ``maskgen.decoder.forward`` and
``maskgen.predictor.forward`` are both traced even though ``decoder`` imported
the function by name. Spans stay in memory; ``write_spans`` saves them at the
end of a run. Nothing inside the program is changed on disk.
"""

from __future__ import annotations

import contextlib
import gzip
import sys
import time

import numpy as np

# (span name, module, function) of every wrapped function; several functions
# may share one span name.
WRAPPED = [
    ("corpus.generate_corpus", "maskgen.corpus", "generate_corpus"),
    ("corpus.corrupt_sequence", "maskgen.corpus", "corrupt_sequence"),
    ("corpus.sequence_base_probabilities", "maskgen.corpus", "sequence_base_probabilities"),
    ("corpus.file_io", "maskgen.corpus", "load_corpus"),
    ("corpus.file_io", "maskgen.corpus", "save_corpus"),
    ("corpus.file_io", "maskgen.corpus", "load_frequency_csv"),
    ("corpus.file_io", "maskgen.corpus", "save_frequency_csv"),
    ("schedule.ctf_probabilities", "maskgen.schedule", "ctf_probabilities"),
    ("schedule.sample_mask", "maskgen.schedule", "sample_mask"),
    ("predictor.train", "maskgen.predictor", "train"),
    ("predictor.masked_ce_loss", "maskgen.predictor", "masked_ce_loss"),
    ("predictor.forward", "maskgen.predictor", "forward"),
    ("predictor.build_conditioning", "maskgen.predictor", "build_conditioning"),
    ("decoder.decode", "maskgen.decoder", "decode"),
    ("decoder.plan_open_counts", "maskgen.decoder", "plan_open_counts"),
    ("corrector.train_corrector", "maskgen.corrector", "train_corrector"),
    ("corrector.correct", "maskgen.corrector", "correct"),
    ("corrector.detect_and_remask", "maskgen.corrector", "detect_and_remask"),
    ("harness.build_pipeline", "maskgen.harness", "build_pipeline"),
    ("harness.evaluate", "maskgen.harness", "evaluate"),
    ("harness.edit_distance", "maskgen.harness", "edit_distance"),
]

# Span names reported as <name>.calls and <name>.self_s; the lists after it
# give the names reported in other shapes.
CALLS_AND_SELF = [
    "corpus.generate_corpus",
    "corpus.corrupt_sequence",
    "corpus.sequence_base_probabilities",
    "schedule.ctf_probabilities",
    "schedule.sample_mask",
    "predictor.train",
    "predictor.masked_ce_loss",
    "predictor.forward",
    "decoder.decode",
    "corrector.train_corrector",
    "corrector.correct",
    "harness.build_pipeline",
    "harness.evaluate",
    "harness.edit_distance",
]
SELF_ONLY = ["corpus.file_io", "decoder.plan_open_counts", "cli.decode"]
CALLS_ONLY = ["predictor.build_conditioning"]
COUNTERS = [
    "decoder.forward_calls",
    "decoder.idle_forward_calls",
    "corrector.rounds",
    "corrector.flagged_positions",
    "corrector.changed_positions",
]
QUALITY = ["harness.overall_accuracy", "harness.bottom_decile_accuracy", "cli.decode.accuracy"]


def per_layer_spec() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    spec = []
    for name in CALLS_AND_SELF:
        spec.append((f"{name}.calls", "count", "lower"))
        spec.append((f"{name}.self_s", "s", "lower"))
        if name == "predictor.train":
            spec.append(("predictor.train.examples_per_s", "1/s", "higher"))
    spec += [(f"{name}.self_s", "s", "lower") for name in SELF_ONLY]
    spec += [(f"{name}.calls", "count", "lower") for name in CALLS_ONLY]
    spec += [(name, "count", "lower") for name in COUNTERS]
    spec += [(name, "fraction", "higher") for name in QUALITY]
    spec.append(("trace.overhead_s", "s", "lower"))
    return spec


class Segment:
    """Spans and counters of one traced stretch of work (a set-up or a round)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self.train_examples = 0
        self.reports: list[tuple[float, float]] = []  # (overall, bottom decile) per evaluate
        self.overhead_s = 0.0  # time spent in wrappers and hooks outside the wrapped calls

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self time (span minus the time its direct children cover) and
        call count per span name."""
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents, dtype=np.int64)
        covered = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(covered, parents[has_parent], dur[has_parent])
        own = dur - covered
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        for name, s in zip(self.names, own):
            self_s[name] = self_s.get(name, 0.0) + float(s)
            calls[name] = calls.get(name, 0) + 1
        return self_s, calls

    def total_time(self, name: str) -> float:
        return float(sum(e - s for n, s, e in zip(self.names, self.starts, self.ends) if n == name))


class Tracer:
    """Wraps maskgen's public functions while ``active`` and records spans
    into the current ``Segment``."""

    def __init__(self) -> None:
        self.segment = Segment()
        self._stack: list[int] = []
        self._last_input: dict[int, np.ndarray] = {}  # decode span -> last forward input
        self._patches: list[tuple[object, str, object, object]] = []
        for name, module_name, attr in WRAPPED:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original)
            for module in [m for k, m in sys.modules.items() if k == "maskgen" or k.startswith("maskgen.")]:
                for key, value in vars(module).items():
                    if value is original:
                        self._patches.append((module, key, original, wrapper))

    @contextlib.contextmanager
    def active(self, segment: Segment):
        self.segment = segment
        for module, key, _, wrapper in self._patches:
            setattr(module, key, wrapper)
        try:
            yield segment
        finally:
            for module, key, original, _ in self._patches:
                setattr(module, key, original)
            self._stack.clear()
            self._last_input.clear()

    def _open(self, name: str) -> int:
        seg = self.segment
        idx = len(seg.names)
        seg.names.append(name)
        seg.parents.append(self._stack[-1] if self._stack else -1)
        seg.ends.append(0.0)
        self._stack.append(idx)
        seg.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.segment.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Span around a call the benchmark makes itself."""
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        hook = getattr(self, "_on_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            entered = time.perf_counter()
            parent = self._stack[-1] if self._stack else -1
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(parent, args, kwargs, result)
            seg = self.segment
            seg.overhead_s += time.perf_counter() - entered - (seg.ends[idx] - seg.starts[idx])
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    # Counters taken at the layer boundaries.

    def _on_predictor_forward(self, parent, args, kwargs, result):
        seg = self.segment
        if parent < 0 or seg.names[parent] != "decoder.decode":
            return
        masked = np.array(args[1] if len(args) > 1 else kwargs["masked"])
        seg.counters["decoder.forward_calls"] += 1
        last = self._last_input.get(parent)
        if last is not None and np.array_equal(last, masked):
            seg.counters["decoder.idle_forward_calls"] += 1
        self._last_input[parent] = masked

    def _on_predictor_train(self, parent, args, kwargs, result):
        corpus = args[0] if args else kwargs["corpus"]
        hyper = args[3] if len(args) > 3 else kwargs["hyper"]
        self.segment.train_examples += corpus.num_docs * hyper.epochs

    def _on_corrector_detect_and_remask(self, parent, args, kwargs, result):
        seg = self.segment
        if parent >= 0 and seg.names[parent] == "corrector.correct":
            seg.counters["corrector.rounds"] += 1
            seg.counters["corrector.flagged_positions"] += int(result.remask.sum())

    def _on_corrector_correct(self, parent, args, kwargs, result):
        decoded = np.asarray(args[0] if args else kwargs["decoded"])
        self.segment.counters["corrector.changed_positions"] += int((result != decoded).sum())

    def _on_harness_evaluate(self, parent, args, kwargs, result):
        self.segment.reports.append((result.overall_accuracy, result.decile_accuracy[0]))


def segment_values(seg: Segment) -> dict[str, float]:
    """Additive per-layer quantities of one segment."""
    self_s, calls = seg.self_times()
    values: dict[str, float] = {}
    for name in CALLS_AND_SELF + CALLS_ONLY:
        values[f"{name}.calls"] = calls.get(name, 0)
    for name in CALLS_AND_SELF + SELF_ONLY:
        values[f"{name}.self_s"] = self_s.get(name, 0.0)
    values.update(seg.counters)
    values["train_examples"] = seg.train_examples
    values["train_total_s"] = seg.total_time("predictor.train")
    return values


def per_layer_metrics(setup: Segment, rounds: list[Segment], decode_accuracy: float) -> dict[str, float]:
    """Set-up plus the median traced round, for every per-layer metric.
    Counts repeat exactly from round to round, so their median is whole.
    The tracing overhead is that of the median round alone, the part a
    traced round adds to an untraced one."""
    base = segment_values(setup)
    per_round = [segment_values(r) for r in rounds]
    values = {k: base[k] + float(np.median([r[k] for r in per_round])) for k in base}
    reports = [rep for r in rounds for rep in r.reports]
    train_s = values["train_total_s"]
    values.update({
        "predictor.train.examples_per_s": values["train_examples"] / train_s if train_s > 0 else 0.0,
        "harness.overall_accuracy": float(np.mean([r[0] for r in reports])) if reports else 0.0,
        "harness.bottom_decile_accuracy": float(np.mean([r[1] for r in reports])) if reports else 0.0,
        "cli.decode.accuracy": decode_accuracy,
        "trace.overhead_s": float(np.median([r.overhead_s for r in rounds])),
    })
    return {
        name: round(values[name]) if unit == "count" else values[name] for name, unit, _ in per_layer_spec()
    }


def write_spans(path, segments: list[tuple[str, Segment]]) -> None:
    """Gzipped CSV, one row per span: segment, id, parent, name, start, end
    (seconds on the perf_counter clock)."""
    with gzip.open(path, "wt") as fh:
        fh.write("segment,id,parent,name,start_s,end_s\n")
        for label, seg in segments:
            for i, (n, s, e, p) in enumerate(zip(seg.names, seg.starts, seg.ends, seg.parents)):
                fh.write(f"{label},{i},{p},{n},{s!r},{e!r}\n")
