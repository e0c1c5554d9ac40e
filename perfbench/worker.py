"""One benchmark workload in this process: set-up, timed rounds, outputs.

``run.py`` starts it as::

    python3 perfbench/worker.py --workload W --seed S --seconds T --trace 0|1 --out DIR [--setup-only]

with ``src`` on ``PYTHONPATH``.  Set-up imports seqvote and builds every input
the rounds read.  Each round makes the same calls into the program's own entry
points (click commands invoked in-process, ``verify`` check functions), and
rounds repeat until ``T`` seconds have passed.  Each call's wall time is also
scaled to a reference machine speed, by a calibration loop that a timer signal
runs every 0.25 s.
The worker writes ``DIR/result.json`` with its timings and counts, and the
files the checker reads; with ``--trace 1`` also the per-layer figures and
``DIR/spans.jsonl``.  With ``--setup-only`` it stops after set-up.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up counts from here: importing seqvote is part of it

import argparse
import gc
import json
import random
import resource
import signal
import statistics
from pathlib import Path

from click.testing import CliRunner

from seqvote import cli, families, network, verify

P_CYCLE = (0.15, 0.3, 0.5, 0.75)

# Command-line rule arguments and the rule as run records store it.
RULES = {
    "plurality": (["--rule", "plurality"], {"kind": "plurality"}),
    "approval": (["--rule", "approval"], {"kind": "approval"}),
    "2-approval": (["--rule", "k-approval", "--k", "2"], {"kind": "k_approval", "cap": 2}),
}

# solve_catalog: (catalog name, k, rule, solves per round).  Small cases,
# mid-size cases, then the two memo-heavy solves: plurality_chain(4) (146K memo
# entries) and h_k(2) under approval (1.3M nodes, 97% memo hits).  The
# sub-second solves run five times per round, so that their median call times
# rest on five samples each: with one call each, the median solve time fell
# between a 0.1 s and a 0.4 s solve, and its quartiles over ten runs spread by
# 40% of it.
CATALOG = [
    ("example1", None, "plurality", 5),
    ("example1", None, "approval", 5),
    ("example2", None, "plurality", 5),
    ("example2", None, "approval", 5),
    ("plurality_chain_fig5", None, "plurality", 5),
    ("g_k", 2, "plurality", 5),
    ("plurality_chain", 3, "plurality", 5),
    ("h_k", 2, "plurality", 5),
    ("kapproval_chain", 2, "plurality", 1),
    ("kapproval_chain", 1, "2-approval", 1),
    ("plurality_chain", 4, "plurality", 1),
    ("h_k", 2, "approval", 1),
]

# metrics_ensemble: (rule, agent counts, seeds per (n, p) cell).  Approval
# stops at n = 6 and 2-approval at n = 7: one random n = 7 approval instance
# alone takes about 17 s, and one n = 7 2-approval instance about 1.2 s.
ENSEMBLE = [
    ("plurality", range(4, 9), 4),
    ("2-approval", range(4, 8), 1),
    ("approval", range(4, 7), 2),
]

# verify_checks: sampled oracle_specs() instances the checker re-solves.
ORACLE_SAMPLE = 20


# The calibration loop's time at the reference machine speed.  The speed of a
# shared machine drifts by a quarter or more within minutes, so the benchmark
# times the loop every SAMPLE_EVERY_S while the program runs and reports each
# call's wall time scaled by REFERENCE_S / (mean loop time around the call):
# seconds at the reference speed.
REFERENCE_S = 0.003
SAMPLE_EVERY_S = 0.25
SAMPLE_WINDOW_S = 1.0  # samples this close to a call count for it


def calibrate() -> float:
    """Wall time of a fixed loop of tuple keys, dict lookups and frozenset
    unions, the operations of the solver's inner loop; the garbage collector
    is off, so that only the machine's speed moves it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        memo: dict = {}  # at most 7 * 61 entries, so peak memory does not move
        t0 = time.perf_counter()
        for i in range(4_000):
            key = (i % 7, i * 31 % 61)
            seen = memo.get(key)
            memo[key] = frozenset((i % 5, i % 3)) if seen is None else seen | {i % 11}
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Calls:
    """Times each call into the program, grouped by its arguments; under
    tracing, also opens a span.  While it is active, a timer signal runs
    the calibration loop every SAMPLE_EVERY_S, between the program's
    bytecodes, and the loop's own time is taken out of the call's."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.calls: list[tuple[str, float, float, float]] = []  # key, start, end, wall
        self.samples: list[tuple[float, float]] = []  # time, loop seconds
        self._sampling_s = 0.0

    def _sample(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        self.samples.append((t0, calibrate()))
        self._sampling_s += time.perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def __call__(self, layer: str, func: str, fn, *args):
        sampling_before = self._sampling_s
        t0 = time.perf_counter()
        if self.tracer is None:
            result = fn(*args)
        else:
            with self.tracer.span(layer, func):
                result = fn(*args)
        t1 = time.perf_counter()
        wall = t1 - t0 - (self._sampling_s - sampling_before)
        self.calls.append((f"{func} {args[-1] if args else ''}", t0, t1, wall))
        return result

    def scaled(self) -> tuple[dict[str, list[float]], float, float]:
        """Each call's time at the reference speed, grouped by its arguments,
        and the raw and scaled totals."""
        walls: dict[str, list[float]] = {}
        raw_s = scaled_s = 0.0
        for key, t0, t1, wall in self.calls:
            near = [d for t, d in self.samples if t0 - SAMPLE_WINDOW_S <= t <= t1 + SAMPLE_WINDOW_S]
            scaled = wall * REFERENCE_S * len(near) / sum(near)
            walls.setdefault(key, []).append(scaled)
            raw_s += wall
            scaled_s += scaled
        return walls, raw_s, scaled_s


class Workload:
    """Set-up builds inputs under ``out``; ``round`` returns (attempted, failed)."""

    def __init__(self, out: Path, seed: int):
        self.out = out
        self.rng = random.Random(seed)
        self.runner = CliRunner()

    def invoke(self, calls: Calls, args: list[str]):
        return calls("cli", args[0], self.runner.invoke, cli.cli, args)

    def write_graph(self, name: str, g) -> str:
        path = self.out / "graphs" / f"{name}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(network.serialize(g))
        return str(path.relative_to(self.out))

    def after(self) -> None:
        """Untimed work once the rounds are over: the files the checker reads."""

    def records_bytes(self) -> int:
        return 0


class SolveCatalog(Workload):
    def __init__(self, out, seed):
        super().__init__(out, seed)
        self.cases = []
        for j, (name, k, rule, repeats) in enumerate(CATALOG):
            g = families.gen_paper_instance(families.InstanceSpec(name, k))
            graph = self.write_graph(f"{name}_{k}", g)
            # odd cases select their equilibrium biased toward a seeded agent
            policy = "canonical" if j % 2 == 0 else f"bias:{self.rng.randrange(g.n)}"
            args = ["solve", "--graph", str(self.out / graph), *RULES[rule][0], "--policy", policy]
            self.cases.append((name, k, rule, repeats, graph, policy, args))
        self.solves: list[dict] = []

    def round(self, calls: Calls) -> tuple[int, int]:
        attempted = failed = 0
        # one pass over every case, then passes over the repeated ones
        for repeat in range(max(case[3] for case in self.cases)):
            for name, k, rule, repeats, graph, policy, args in self.cases:
                if repeat >= repeats:
                    continue
                res = self.invoke(calls, args)
                attempted += 1
                failed += res.exit_code != 0
                self.solves.append({
                    "label": f"{name}({k}) {rule} {policy}", "catalog": [name, k], "graph": graph,
                    "rule": RULES[rule][1], "exit_code": res.exit_code, "output": res.stdout,
                })
        return attempted, failed

    def after(self) -> None:
        (self.out / "solves.json").write_text(json.dumps(self.solves))


class MetricsEnsemble(Workload):
    def __init__(self, out, seed):
        super().__init__(out, seed)
        self.runs = []
        for rule, ns, per_cell in ENSEMBLE:
            specs = [
                {"kind": "random", "n": n, "p": p, "seed": self.rng.randrange(1 << 30)}
                for n in ns for p in P_CYCLE for _ in range(per_cell)
            ]
            spec_file, records = f"specs_{rule}.jsonl", f"records_{rule}.jsonl"
            (out / spec_file).write_text("".join(json.dumps(s) + "\n" for s in specs))
            args = ["metrics", "--in", str(out / spec_file), *RULES[rule][0], "--out", str(out / records)]
            self.runs.append((rule, len(specs), spec_file, records, args))
        self.exit_codes: dict = {}

    def round(self, calls: Calls) -> tuple[int, int]:
        attempted = failed = 0
        for rule, count, _spec_file, records, args in self.runs:
            res = self.invoke(calls, args)
            attempted += count
            if res.exit_code != 0:
                failed += count
            elif "instances failed" in res.stderr:  # "<k> of <m> instances failed"
                failed += int(res.stderr.split(" of ")[0])
            self.exit_codes[rule] = res.exit_code
        with open(self.out / "records_all.jsonl", "w") as fh:
            for _rule, _count, _spec_file, records, _args in self.runs:
                fh.write((self.out / records).read_text())
        res = self.invoke(calls, ["report", "--in", str(self.out / "records_all.jsonl"),
                                  "--out", str(self.out / "report.csv")])
        self.exit_codes["report"] = res.exit_code
        return attempted, failed

    def records_bytes(self) -> int:
        """Bytes of the records the metrics commands wrote, less the digits of
        each record's wall-clock time, which vary from run to run."""
        total = 0
        for _rule, _count, _spec_file, records, _args in self.runs:
            for line in (self.out / records).read_text().splitlines(keepends=True):
                wall = json.loads(line)["stats"]["wall_seconds"]
                total += len(line.encode()) - len(json.dumps(wall))
        return total

    def after(self) -> None:
        manifest = {
            "runs": [
                {"rule": RULES[rule][1], "specs": spec_file, "records": records,
                 "exit_code": self.exit_codes[rule]}
                for rule, _count, spec_file, records, _args in self.runs
            ],
            "report": {"csv": "report.csv", "exit_code": self.exit_codes["report"]},
        }
        (self.out / "metrics.json").write_text(json.dumps(manifest))


class VerifyChecks(Workload):
    CHECKS = ("check_oracle_equivalence", "check_plurality_bound_suite")

    def __init__(self, out, seed):
        super().__init__(out, seed)
        self.oracle = verify.oracle_specs()
        self.plurality = verify.plurality_bound_specs()
        self.sample = []
        for j in sorted(self.rng.sample(range(len(self.oracle)), ORACLE_SAMPLE)):
            spec, rule = self.oracle[j]
            graph = self.write_graph(f"oracle_{j}", families.gen_random(spec))
            self.sample.append((j, graph, {"plurality": "plurality", "approval": "approval",
                                           "k_approval": "2-approval"}[rule.kind]))
        self.results: list[dict] = []

    def round(self, calls: Calls) -> tuple[int, int]:
        attempted = failed = 0
        for name, specs in zip(self.CHECKS, (self.oracle, self.plurality)):
            attempted += len(specs)
            try:
                r = calls("verify", name, getattr(verify, name))
            except Exception as exc:  # a check that raises solved none of its instances
                failed += len(specs)
                self.results.append({"name": name, "passed": False, "detail": repr(exc)})
                continue
            self.results.append({"name": r.name, "passed": r.passed, "detail": r.detail})
        return attempted, failed

    def after(self) -> None:
        solves = []
        for j, graph, rule in self.sample:
            args = ["solve", "--graph", str(self.out / graph), *RULES[rule][0]]
            res = self.runner.invoke(cli.cli, args)
            solves.append({"label": f"oracle_specs()[{j}] {rule}", "catalog": None, "graph": graph,
                           "rule": RULES[rule][1], "exit_code": res.exit_code, "output": res.stdout})
        (self.out / "solves.json").write_text(json.dumps(solves))

        def spec_doc(spec):
            return {"n": spec.n, "p": spec.p, "max_out": spec.max_out, "seed": spec.seed}

        (self.out / "verify.json").write_text(json.dumps({
            "results": self.results,
            "oracle_specs": [dict(spec_doc(s), rule=r.label()) for s, r in self.oracle],
            "plurality_bound_specs": [spec_doc(s) for s in self.plurality],
        }))


WORKLOADS = {
    "solve_catalog": SolveCatalog,
    "metrics_ensemble": MetricsEnsemble,
    "verify_checks": VerifyChecks,
}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    args.out.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.out, args.seed)
    setup_raw_s = time.perf_counter() - T0
    loop_s = statistics.mean(calibrate() for _ in range(10))
    result = {"setup_raw_s": setup_raw_s, "setup_s": setup_raw_s * REFERENCE_S / loop_s}
    if not args.setup_only:
        if tracer is not None:
            tracer.phase = "round"
        attempted = failed = rounds = 0
        start = time.perf_counter()
        with Calls(tracer) as calls:
            while True:
                a, f = workload.round(calls)
                attempted, failed, rounds = attempted + a, failed + f, rounds + 1
                if time.perf_counter() - start >= args.seconds:
                    break
        timed_s = time.perf_counter() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            tracer.uninstall()
        workload.after()
        op_walls, calls_raw_s, calls_s = calls.scaled()
        result.update(timed_s=timed_s, calls_raw_s=calls_raw_s, calls_s=calls_s, rounds=rounds,
                      attempted=attempted, failed=failed, op_walls=op_walls, peak_rss_mb=peak_rss_mb,
                      speed_samples=len(calls.samples))
        if tracer is not None:
            result["layers"] = dict(tracer.layer_metrics(rounds),
                                    **{"experiments.records_bytes": workload.records_bytes()})
            tracer.write(args.out / "spans.jsonl")
    (args.out / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main()
