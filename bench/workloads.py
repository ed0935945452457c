"""One benchmark workload in its own process: set-up, timed rounds, output
checks, and (with --trace 1) the per-layer numbers from a traced run.

run.py starts this file as a child process; it writes ``result.json`` into
its work directory. A round runs the workload's whole set of held-out
sequences through the program once; each sequence reconstructed is one
operation.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import maskgen  # noqa: E402
import maskgen.cli  # noqa: E402

SETUP_REPEATS = 3
RHO = 0.3
V, T = 64, 96
TRAIN_DOCS, TEST_DOCS = 512, 160
DECODE_DOCS = 480


class CheckFailed(Exception):
    """An output of the program broke a property it must have."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def config_text(seed: int, out_dir: Path, **overrides) -> str:
    keys = dict(
        seed=seed, vocab_size=V, num_docs=TRAIN_DOCS, test_docs=TEST_DOCS, seq_len=T,
        epochs=16, n_steps=10, rho=RHO, output_dir=str(out_dir),
    )
    keys.update(overrides)
    return "".join(f"{k} = {v}\n" for k, v in keys.items())


def read_csv(path: Path) -> list[dict[str, str]]:
    """Rows of a maskgen CSV: '#' comment lines, a header row, then data."""
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def read_tokens(path: Path) -> tuple[list[int], np.ndarray]:
    """Corpus file: header 'V T N seed', then N lines of T ids."""
    lines = path.read_text().splitlines()
    header = [int(x) for x in lines[0].split()]
    return header, np.array([[int(x) for x in ln.split()] for ln in lines[1:]], dtype=np.int64)


def doc_frequency(tokens: np.ndarray) -> np.ndarray:
    """Documents containing each token id."""
    present = np.zeros((tokens.shape[0], V), dtype=bool)
    present[np.arange(tokens.shape[0])[:, None], tokens] = True
    return present.sum(axis=0)


def check_accuracy(accuracy: float) -> None:
    """A substituted token never keeps its value, so copying the observation
    scores 1 - rho; a reconstruction has to beat that."""
    require(accuracy > 1 - RHO, f"accuracy {accuracy:.4f} not above copying the observation, 1 - rho = {1 - RHO}")


def check_report(accuracy: float, mean_edit: float, position_counts, token_counts, docs: int) -> None:
    """Checks of a harness report: the accuracy floor, Levenshtein distance
    never above Hamming distance, and decile counts that cover every
    position and every token once."""
    check_accuracy(accuracy)
    require(mean_edit <= (1 - accuracy) * T + 1e-9,
            f"mean edit distance {mean_edit:.3f} above (1 - accuracy) * T = {(1 - accuracy) * T:.3f}")
    require(sum(position_counts) == docs * T, f"decile position counts sum to {sum(position_counts)}, not {docs * T}")
    require(sum(token_counts) == V, f"decile token counts sum to {sum(token_counts)}, not {V}")


def harness_train_tokens(seed: int, zipf: float) -> np.ndarray:
    """The training tokens build_pipeline makes for ``seed``."""
    seeds = maskgen.harness.derive_seeds(seed)
    return maskgen.corpus.generate_corpus(V, TRAIN_DOCS, T, zipf, 1, seeds["train_corpus"]).tokens


class Eval:
    """The default ``maskgen eval`` path: run_experiment, uniform masking,
    no corrector."""

    ops = TEST_DOCS
    root_span = "harness.run_experiment"

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.cfg = work / "eval.cfg"
        self.out = work / "eval"
        self._train = None

    def setup(self, span) -> None:
        self.cfg.write_text(config_text(self.seed, self.out))

    def run(self, span):
        with span(self.root_span):
            return maskgen.harness.run_experiment(maskgen.harness.load_config(self.cfg))

    def check(self, report) -> dict:
        if self._train is None:
            self._train = harness_train_tokens(self.seed, 1.2)
        metrics = read_csv(self.out / "metrics.csv")[0]
        accuracy = float(metrics["overall_accuracy"])
        require(accuracy == report.overall_accuracy, "metrics.csv disagrees with the returned report")
        deciles = read_csv(self.out / "deciles.csv")
        check_report(
            accuracy, float(metrics["mean_edit_distance"]),
            [int(r["position_count"]) for r in deciles], [int(r["token_count"]) for r in deciles], TEST_DOCS,
        )
        freq = [int(r["f"]) for r in read_csv(self.out / "frequency.csv")]
        require(freq == doc_frequency(self._train).tolist(), "frequency.csv differs from a direct count")
        losses = [float(r["loss"]) for r in read_csv(self.out / "learning_curve.csv")]
        require(losses[-1] < losses[0], f"final loss {losses[-1]:.4f} not below first epoch {losses[0]:.4f}")
        require(losses[-1] < math.log(V), f"final loss {losses[-1]:.4f} not below ln V")
        return {}


class CompareModes:
    """compare_masking_modes for one paired seed at Zipf 1.5: uniform vs CTF
    training, each evaluated with the corrector off and on."""

    ops = 2 * 2 * TEST_DOCS
    root_span = "harness.compare_masking_modes"

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.cfg = work / "compare.cfg"
        self.out = work / "compare"
        self._token_counts = None

    def setup(self, span) -> None:
        self.cfg.write_text(
            config_text(self.seed, self.out, zipf_exponent=1.5, use_corrector="true", seeds=self.seed)
        )

    def run(self, span):
        with span(self.root_span):
            return maskgen.harness.compare_masking_modes(maskgen.harness.load_config(self.cfg))

    def check(self, results) -> dict:
        cells = {(s, m, c) for s in (self.seed,) for m in ("uniform", "ctf") for c in (False, True)}
        require(set(results) == cells, f"cells {sorted(results)} != {sorted(cells)}")
        rows = read_csv(self.out / "compare_modes.csv")
        require(len(rows) == len(cells), "compare_modes.csv does not have one row per cell")
        if self._token_counts is None:
            train = harness_train_tokens(self.seed, 1.5)
            table = maskgen.corpus.document_frequency(maskgen.corpus.Corpus(train, V, self.seed))
            self._token_counts = np.bincount(maskgen.harness.frequency_deciles(table), minlength=10).tolist()
        for row in rows:
            report = results[(int(row["seed"]), row["mask_mode"], row["corrector"] == "1")]
            require(float(row["overall_accuracy"]) == report.overall_accuracy, "compare_modes.csv disagrees with the reports")
            check_report(
                report.overall_accuracy, report.mean_edit_distance, report.decile_counts, self._token_counts,
                TEST_DOCS,
            )
        return {}


class Decode:
    """``maskgen decode`` on distorted held-out docs of the training
    corpus's transition structure: CTF, 40 steps, corrector, full refill.

    The checkpoints always come from the same training seed; the benchmark's
    seed draws the distortion. The work of a decode then depends on the
    observations, not on which model a seed happened to train.
    """

    ops = DECODE_DOCS
    root_span = "cli.decode"
    n_steps = 40
    train_seed = 101

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.dir = work / "decode"
        self.cfg = work / "decode.cfg"
        self.obs = self.dir / "observations.txt"
        self.decoded = self.dir / "decoded.txt"
        self.clean = None

    def _cli(self, span, name: str, argv: list[str]) -> None:
        with span(name):
            code = maskgen.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"maskgen {argv[0]} exited with {code}")

    def setup(self, span) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        self.cfg.write_text(config_text(self.train_seed, self.dir, mask_mode="ctf", n_steps=self.n_steps))
        self._cli(span, "cli.train", ["train", "--config", str(self.cfg)])
        self._cli(span, "cli.train_corrector", ["train-corrector", "--config", str(self.cfg)])
        with span("bench.observations"):
            # SeedSequence.spawn is prefix-stable, so the first TRAIN_DOCS docs
            # are the training corpus and the rest share its transition structure.
            seeds = maskgen.harness.derive_seeds(self.train_seed)
            full = maskgen.corpus.generate_corpus(V, TRAIN_DOCS + DECODE_DOCS, T, 1.2, 1, seeds["train_corpus"])
            self.clean = full.tokens[TRAIN_DOCS:]
            rng = np.random.default_rng(self.seed)
            obs = np.stack([maskgen.corpus.corrupt_sequence(c, V, RHO, rng) for c in self.clean])
            maskgen.corpus.save_corpus(maskgen.corpus.Corpus(obs, V, self.seed), self.obs)

    def run(self, span):
        self._cli(span, self.root_span, [
            "decode", "--model", str(self.dir / "predictor.bin"), "--input", str(self.obs),
            "--out", str(self.decoded), "--n-steps", str(self.n_steps), "--mask-mode", "ctf",
            "--freq-csv", str(self.dir / "frequency.csv"), "--corrector", str(self.dir / "corrector.bin"),
            "--refill", "full",
        ])

    def check(self, _) -> dict:
        header, decoded = read_tokens(self.decoded)
        _, obs = read_tokens(self.obs)
        require(decoded.shape == obs.shape and header[:3] == [V, T, DECODE_DOCS],
                f"output shape {decoded.shape} / header {header} != input {obs.shape}")
        require(decoded.min() >= 0 and decoded.max() < V, "output ids outside [0, V)")
        accuracy = float((decoded == self.clean).mean())
        obs_accuracy = float((obs == self.clean).mean())
        require(accuracy > obs_accuracy, f"decoded accuracy {accuracy:.4f} not above the observation's {obs_accuracy:.4f}")
        # The CLI writes no edit distance or decile counts, so only the
        # accuracy floor of the shared checks applies to it.
        check_accuracy(accuracy)
        return {"cli.decode.accuracy": accuracy}


WORKLOADS = {"eval": Eval, "compare-modes": CompareModes, "decode": Decode}


def environment() -> dict:
    """Where the numbers were taken: cores, versions, BLAS threads."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


def import_probe() -> None:
    """What every CLI invocation pays first: a fresh interpreter importing
    the program."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-c", "import maskgen.cli"], env=env, check=True)


@contextlib.contextmanager
def no_span(name):
    yield


def run_round(wl, span, seg_ctx) -> dict:
    """One timed call plus its output checks. Returns wall, cpu, outcome."""
    t0, c0 = time.perf_counter(), os.times()
    out, outcome = None, "ok"
    try:
        with seg_ctx:
            out = wl.run(span)
    except Exception:
        traceback.print_exc()
        outcome = "raised"
    wall = time.perf_counter() - t0
    c1 = os.times()
    cpu = (c1.user - c0.user) + (c1.system - c0.system)
    quality = {}
    if outcome == "ok":
        try:
            quality = wl.check(out)
        except (CheckFailed, OSError, ValueError, IndexError, KeyError) as exc:
            # a missing or malformed output file fails the check too
            print(f"output check failed: {exc!r}", file=sys.stderr)
            outcome = "check_failed"
    return {"wall": wall, "cpu": cpu, "outcome": outcome, "quality": quality}


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--work", required=True)
    args = p.parse_args()
    work = Path(args.work)
    if Path(maskgen.__file__).resolve().parent != ROOT / "src" / "maskgen":
        raise SystemExit(f"imported maskgen from {maskgen.__file__}, not from {ROOT / 'src'}")

    wl = WORKLOADS[args.workload](args.seed, work)
    rounds: list[dict] = []
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        setup_seg = tracing.Segment()
        with tracer.active(setup_seg):
            wl.setup(tracer.span)
        setup_times = []
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds:
            seg = tracing.Segment()
            rounds.append(dict(run_round(wl, tracer.span, tracer.active(seg)), segment=seg))
    else:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            import_probe()
            wl.setup(no_span)
            setup_times.append(time.perf_counter() - t0)
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds:
            rounds.append(run_round(wl, no_span, contextlib.nullcontext()))

    # A round that failed a check still did all its work, so its times count.
    ran = [r for r in rounds if r["outcome"] != "raised"]
    if not ran:
        print("no round ran to its end", file=sys.stderr)
        return 1
    failed = sum(wl.ops for r in rounds if r["outcome"] != "ok")
    result = {
        "correct": all(r["outcome"] != "check_failed" for r in rounds),
        "attempted": wl.ops * len(rounds),
        "failed": failed,
    }
    if args.trace:
        accuracies = [r["quality"]["cli.decode.accuracy"] for r in ran if "cli.decode.accuracy" in r["quality"]]
        accuracy = statistics.median(accuracies) if accuracies else 0.0
        values = tracing.per_layer_metrics(setup_seg, [r["segment"] for r in ran], accuracy)
        units = {name: unit for name, unit, _ in tracing.per_layer_spec()}
        result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
        segments = [("setup", setup_seg)] + [(f"round{i}", r["segment"]) for i, r in enumerate(rounds)]
        tracing.write_spans(work / "spans.csv.gz", segments)
    else:
        walls = [r["wall"] for r in ran]
        cpus = [r["cpu"] for r in ran]
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["metrics"] = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "seqs_per_s": {"value": wl.ops / statistics.median(walls), "unit": "1/s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        }
    result["rounds"] = [{"wall_s": r["wall"], "cpu_s": r["cpu"], "outcome": r["outcome"]} for r in rounds]
    result["setup_s"] = setup_times
    result["env"] = environment()
    (work / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
