"""Spans around seqvote's public calls, kept in memory, for the traced run.

:meth:`Tracer.install` wraps the program's layer boundaries in place:

* ``Solver.__init__``, ``Solver.achievable_winners`` and ``Solver.policy_spe``
  on the class, so every caller is reached, with the solver's ``last_stats``
  taken when each call ends;
* module functions in every ``seqvote`` module that holds them by name
  (``cli`` binds ``run_batch``, ``write_records``, ``read_records``,
  ``summarize`` and ``summary_csv`` at import; ``verify`` binds
  ``naive_achievable_winners``; ``experiments``, ``verify`` and ``cli`` bind
  the instance builders).

The benchmark opens spans of its own, with layer ``cli`` or ``verify``,
around each call it makes into the program (a click command, a ``verify``
check).  A span's self time is its duration minus the time its child spans
cover.  Spans are tuples in a list until :meth:`Tracer.write` puts them out
as JSON lines.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import statistics
import time
from contextlib import contextmanager

# (defining module, function, layer) for every wrapped module function.
FUNCTIONS = [
    ("network", "parse", "network.io"),
    ("network", "serialize", "network.io"),
    ("network", "to_json_dict", "network.io"),
    ("network", "from_json_dict", "network.io"),
    ("network", "popularity", "network.metrics"),
    ("network", "degree_profile", "network.metrics"),
    ("network", "remove_out_edges", "network.metrics"),
    ("network", "additive_gap", "network.metrics"),
    ("network", "ratio", "network.metrics"),
    ("families", "gen_paper_instance", "families.build"),
    ("families", "gen_random", "families.build"),
    ("engine", "naive_achievable_winners", "engine.oracle"),
    ("experiments", "run_batch", "experiments.batch"),
    ("experiments", "run_one", "experiments.run_one"),
    ("experiments", "write_records", "experiments.records"),
    ("experiments", "read_records", "experiments.records"),
    ("experiments", "summarize", "experiments.summary"),
    ("experiments", "summary_csv", "experiments.summary"),
]
MODULES = ["balloting", "cli", "engine", "experiments", "families", "network", "preferences", "verify"]


def _solver_stats(solver) -> dict:
    st = solver.last_stats
    return {"nodes": st.nodes, "hits": st.cache_hits, "memo": st.cache_size}


class Tracer:
    def __init__(self):
        # (layer, function, start, end, parent index, phase, counts)
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.phase = "setup"
        self._undo: list[tuple] = []

    def _open(self, layer: str, func: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append((layer, func, time.perf_counter(), None, parent, self.phase, None))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, idx: int, counts: dict | None) -> None:
        layer, func, start, _end, parent, phase, _ = self.spans[idx]
        self.spans[idx] = (layer, func, start, time.perf_counter(), parent, phase, counts)
        self._stack.pop()

    @contextmanager
    def span(self, layer: str, func: str):
        idx = self._open(layer, func)
        try:
            yield
        finally:
            self._close(idx, None)

    def _wrap(self, fn, layer: str, counts=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(layer, fn.__name__)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx, counts(args[0]) if counts else None)

        return wrapper

    def install(self) -> None:
        mods = {name: importlib.import_module(f"seqvote.{name}") for name in MODULES}
        solver = mods["engine"].Solver
        for attr, layer, counts in (
            ("__init__", "engine.init", None),
            ("achievable_winners", "engine.search", _solver_stats),
            ("policy_spe", "engine.policy", _solver_stats),
        ):
            original = solver.__dict__[attr]
            self._undo.append((solver, attr, original))
            setattr(solver, attr, self._wrap(original, layer, counts))
        for home, name, layer in FUNCTIONS:
            original = getattr(mods[home], name)
            wrapped = self._wrap(original, layer)
            for mod in mods.values():
                if mod.__dict__.get(name) is original:
                    self._undo.append((mod, name, original))
                    setattr(mod, name, wrapped)

    def uninstall(self) -> None:
        for obj, name, original in reversed(self._undo):
            setattr(obj, name, original)
        self._undo.clear()

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for layer, func, start, end, parent, phase, counts in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [s[3] - s[2] - c for s, c in zip(self.spans, child)]

    def layer_metrics(self, rounds: int) -> dict:
        """Per-layer figures for one round: setup spans count once, the timed
        rounds' spans are averaged over ``rounds``."""
        selfs = self.self_times()
        acc: dict = {}

        def add(key, value, phase):
            acc[key] = acc.get(key, 0) + (value if phase == "setup" else value / rounds)

        memo = 0
        run_one = []
        for (layer, func, start, end, parent, phase, counts), self_s in zip(self.spans, selfs):
            add(f"{layer}_s", self_s, phase)
            add(f"{layer}.calls", 1, phase)
            if counts is not None:
                add(f"{layer}.nodes", counts["nodes"], phase)
                add(f"{layer}.hits", counts["hits"], phase)
                memo = max(memo, counts["memo"])
            if layer == "experiments.run_one" and phase != "setup":
                run_one.append(end - start)
        get = lambda key: acc.get(key, 0.0)
        run_one.sort()
        nodes = get("engine.search.nodes")
        return {
            "engine.search_s": get("engine.search_s"),
            "engine.search_nodes": round(nodes),
            "engine.search_hits": round(get("engine.search.hits")),
            "engine.hit_ratio": get("engine.search.hits") / nodes if nodes else 0.0,
            "engine.policy_s": get("engine.policy_s"),
            "engine.policy_nodes": round(get("engine.policy.nodes")),
            "engine.policy_calls": round(get("engine.policy.calls")),
            "engine.solvers_built": round(get("engine.init.calls")),
            "engine.memo_entries": memo,
            "engine.oracle_s": get("engine.oracle_s"),
            "engine.oracle_calls": round(get("engine.oracle.calls")),
            "engine.init_s": get("engine.init_s"),
            "cli.self_s": get("cli_s"),
            "network.io_s": get("network.io_s"),
            "families.build_s": get("families.build_s"),
            "network.metrics_s": get("network.metrics_s"),
            "experiments.records_s": get("experiments.records_s"),
            "experiments.summary_s": get("experiments.summary_s"),
            "experiments.run_one_s_p50": statistics.median(run_one) if run_one else 0.0,
            "experiments.run_one_s_p90": run_one[math.ceil(0.9 * len(run_one)) - 1] if run_one else 0.0,
            "verify.self_s": get("verify_s"),
        }

    def write(self, path) -> None:
        selfs = self.self_times()
        with open(path, "w") as fh:
            for (layer, func, start, end, parent, phase, counts), self_s in zip(self.spans, selfs):
                fh.write(json.dumps({
                    "layer": layer, "func": func, "start": start, "end": end,
                    "self_s": self_s, "parent": parent, "phase": phase, "counts": counts,
                }) + "\n")
