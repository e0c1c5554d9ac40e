"""Shows that the output checker rejects wrong outputs.

Run from the repository root::

    python3 perfbench/selftest.py

It runs ``seqvote family`` and ``seqvote solve`` as a separate process on the
paper's Figure 5 instance under plurality, confirms that the checker accepts
the real output, then feeds it three corrupted copies: a winner set missing
one winner, a wrong ratio, and a path ballot in which a voter votes for
itself.  It exits 0 only if the real output passes and each corruption is
rejected.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import checker

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seqvote(*args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("SEQVOTE_BUDGET_SECONDS", None)
    proc = subprocess.run([sys.executable, "-m", "seqvote.cli", *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return proc.stdout


def drop_winner(doc: dict) -> None:
    """Remove a winner that is not the policy winner, everywhere it appears."""
    gone = next(w for w in doc["winners"] if w != doc["policy_winner"])
    doc["winners"].remove(gone)
    doc["metrics"]["winners"].remove(gone)
    doc["metrics"]["per_winner"] = [m for m in doc["metrics"]["per_winner"] if m["agent"] != gone]


def wrong_ratio(doc: dict) -> None:
    m = doc["metrics"]["per_winner"][0]
    r = Fraction(*m["ratio"]) + 1
    m["ratio"] = [r.numerator, r.denominator]


def self_vote(graph: dict, doc: dict) -> None:
    voter = graph["voting_order"][0]
    doc["policy_path"][0] = [voter]


def main() -> int:
    work = BENCH / "results" / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    graph_path = work / "fig5.json"
    seqvote("family", "--name", "plurality_chain_fig5", "--out", str(graph_path))
    graph = json.loads(graph_path.read_text())
    doc = json.loads(seqvote("solve", "--graph", str(graph_path), "--rule", "plurality"))
    rule = {"kind": "plurality"}
    claim = checker.CATALOG_CLAIMS[("plurality_chain_fig5", None, "plurality")]

    def check(d: dict) -> list[str]:
        return checker.check_solve_doc(graph, rule, d, "fig5 plurality", checker.BruteForceCache(), claim)

    ok = True
    errors = check(doc)
    print(f"real output: {'accepted' if not errors else 'REJECTED ' + '; '.join(errors)}")
    ok &= not errors
    for name, corrupt in (
        ("winner set missing a winner", drop_winner),
        ("wrong ratio", wrong_ratio),
        ("illegal path ballot", lambda d: self_vote(graph, d)),
    ):
        bad = copy.deepcopy(doc)
        corrupt(bad)
        errors = check(bad)
        print(f"{name}: {'rejected: ' + '; '.join(errors) if errors else 'ACCEPTED'}")
        ok &= bool(errors)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
