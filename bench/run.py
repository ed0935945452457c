"""maskgen benchmark: one workload per call, run in its own process.

    python3 bench/run.py --workload eval|compare-modes|decode \
        --seed N --seconds S --trace 0|1

Run from the root of a maskgen checkout; the program is imported from its
``src/``. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``. The line before it lists the machine and library versions.
Work files go to ``.bench_run/`` under the checkout. See README.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("eval", "compare-modes", "decode")
TIMEOUT_S = 170


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not (ROOT / "src" / "maskgen" / "__init__.py").is_file():
        print(f"no maskgen sources under {ROOT / 'src'}; run from a maskgen checkout", file=sys.stderr)
        return 2
    work = ROOT / ".bench_run" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    cmd = [
        sys.executable, str(HERE / "workloads.py"), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", str(work),
    ]
    # The program's own prints go to stderr so that stdout carries only the result.
    try:
        code = subprocess.run(cmd, stdout=sys.stderr, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"workload process exceeded {TIMEOUT_S} s", file=sys.stderr)
        return 1
    if code != 0:
        print(f"workload process exited with {code}", file=sys.stderr)
        return 1
    result = json.loads((work / "result.json").read_text())
    print("env " + json.dumps(result["env"], sort_keys=True))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
