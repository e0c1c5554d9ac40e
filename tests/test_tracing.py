"""The benchmark's tracer wraps program names it looks up by name.

``perfbench/tracing.py`` lists the ``Solver`` methods and module functions it
wraps for a ``--trace 1`` run.  A program change that deletes or renames one
of them must fail here, not only in the benchmark.
"""

import importlib
from pathlib import Path

from seqvote.balloting import PLURALITY
from seqvote.engine import Solver
from seqvote.families import InstanceSpec, gen_paper_instance

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_over_every_listed_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    originals = dict(Solver.__dict__)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        wrapped = {name for _obj, name, _original in tracer._undo}
        assert {"__init__", "achievable_winners", "policy_spe"} <= wrapped
        assert {name for _home, name, _layer in tracing.FUNCTIONS} <= wrapped
        g = gen_paper_instance(InstanceSpec("example2"))
        Solver(g, PLURALITY).achievable_winners()
    finally:
        tracer.uninstall()
    search = [s for s in tracer.spans if s[0] == "engine.search"]
    assert len(search) == 1 and search[0][6]["nodes"] > 0
    for name in ("__init__", "achievable_winners", "policy_spe"):
        assert Solver.__dict__[name] is originals[name]
