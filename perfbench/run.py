"""Benchmark for seqvote: `seqvote solve`, `metrics`/`report` and the verification checks.

Run from the repository root::

    python3 perfbench/run.py --workload solve_catalog --seed 1 --seconds 10 --trace 0

Each workload runs in its own single-threaded worker process (``worker.py``),
with ``src`` on ``PYTHONPATH`` and ``SEQVOTE_BUDGET_SECONDS`` unset.  Set-up
is timed in ``SETUP_SAMPLES`` set-up-only processes as well as in the worker,
and reported as the median.  Times are scaled to a reference machine speed
(see ``worker.calibrate``).  Once the worker has ended, ``checker.py``, which
shares no code with seqvote, checks every output it left.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed`` and
the end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
Anything else goes to standard error.  Outputs are left in
``perfbench/results/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checker

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 10
DEADLINE_S = 170  # a run must end within 180 s

def run_worker(args: list[str], started: float) -> dict:
    """Run worker.py to its end; return its result.json."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.pop("SEQVOTE_BUDGET_SECONDS", None)
    out = Path(args[args.index("--out") + 1])
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *args],
        cwd=ROOT, env=env, stdout=sys.stderr, timeout=max(1.0, DEADLINE_S - (time.monotonic() - started)),
    )
    if proc.returncode != 0:
        raise SystemExit(f"worker {' '.join(args)} exited with code {proc.returncode}")
    return json.loads((out / "result.json").read_text())


def main() -> None:
    started = time.monotonic()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(checker.CHECKS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "seqvote" / "cli.py").is_file():
        raise SystemExit(f"no seqvote sources under {ROOT / 'src'}")

    out = BENCH / "results" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    setup = []
    for k in range(SETUP_SAMPLES):
        sample = out / f"setup{k}"
        setup.append(run_worker([*common, "--out", str(sample), "--setup-only"], started)["setup_s"])
        shutil.rmtree(sample)
    result = run_worker([*common, "--trace", str(args.trace), "--out", str(out)], started)
    setup.append(result["setup_s"])

    brute = checker.BruteForceCache()
    errors = checker.CHECKS[args.workload](out, brute)
    for line in errors[:20]:
        print(f"check: {line}", file=sys.stderr)
    print(
        f"{args.workload}: {result['rounds']} round(s) in {result['timed_s']:.2f} s; calls took "
        f"{result['calls_raw_s']:.2f} s, {result['calls_s']:.2f} s at the reference speed; set-up "
        f"{result['setup_raw_s']:.4f} s; "
        f"{len(errors)} check errors, brute force on {brute.checked} instances "
        f"({brute.too_large} over the leaf limit)",
        file=sys.stderr,
    )

    if args.trace:
        values = result["layers"]
    else:
        values = {
            "instances_per_s": (result["attempted"] - result["failed"]) / result["calls_s"],
            "solve_s_p50": statistics.median(statistics.median(w) for w in result["op_walls"].values()),
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": statistics.median(setup),
        }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    print(json.dumps({
        "correct": not errors,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
