"""End-to-end tests of the installed ``seqvote`` entry point.

Most of these run the console script in a subprocess so the spec'd exit codes
(1 invalid input, 2 budget exceeded, 3 verification failure) are observed
exactly as a shell would see them; tests that look inside a command invoke it
in-process.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from seqvote import cli, network, verify
from seqvote.balloting import APPROVAL, PLURALITY
from seqvote.engine import Policy, Solver
from seqvote.experiments import instance_metrics, run_one, verdicts
from seqvote.families import InstanceSpec, gen_paper_instance

CMD = [sys.executable, "-m", "seqvote.cli"]
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def run_cli(*args):
    return subprocess.run(CMD + list(args), capture_output=True, text=True)


def test_family_writes_graph_json(tmp_path):
    out = tmp_path / "g.json"
    result = run_cli("family", "--name", "example2", "--out", str(out))
    assert result.returncode == 0, result.stderr
    doc = json.loads(out.read_text())
    assert doc["n"] == 4
    assert doc["names"] == ["1", "2", "3", "4"]


def test_family_unknown_name_exits_1():
    result = run_cli("family", "--name", "bogus")
    assert result.returncode == 1
    assert "unknown catalog name" in result.stderr


def test_random_is_reproducible(tmp_path):
    a = run_cli("random", "--n", "6", "--p", "0.4", "--seed", "7")
    b = run_cli("random", "--n", "6", "--p", "0.4", "--seed", "7")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    assert json.loads(a.stdout)["n"] == 6


def test_solve_reports_winners_and_path(tmp_path):
    graph = tmp_path / "g.json"
    run_cli("family", "--name", "example2", "--out", str(graph))
    result = run_cli("solve", "--graph", str(graph), "--rule", "approval")
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout)
    assert doc["winners"] == [3]
    assert doc["policy_winner"] == 3
    assert len(doc["policy_path"]) == 4
    assert doc["metrics"]["instance_gap"] == 0


def test_solve_builds_one_solver_and_reports_its_search(tmp_path, monkeypatch):
    graph = tmp_path / "g.json"
    run_cli("family", "--name", "g_k", "--k", "2", "--out", str(graph))
    g = network.parse(graph.read_text())
    reference = Solver(g, PLURALITY)
    reference.policy_spe(Policy.canonical())

    built = []
    init = Solver.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Solver, "__init__", counting_init)
    result = CliRunner().invoke(
        cli.cli, ["solve", "--graph", str(graph), "--rule", "plurality"]
    )
    assert result.exit_code == 0, result.output
    doc = json.loads(result.stdout)
    assert len(built) == 1
    assert doc["policy_winner"] in doc["winners"]
    assert doc["stats"] == {
        **reference.last_stats.as_dict(),
        "wall_seconds": doc["stats"]["wall_seconds"],
    }


def test_solve_with_bias_policy(tmp_path):
    graph = tmp_path / "g.json"
    run_cli("family", "--name", "example1", "--out", str(graph))
    result = run_cli(
        "solve", "--graph", str(graph), "--rule", "plurality", "--policy", "bias:0"
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["policy"] == "bias:0"


def test_solve_missing_graph_exits_1(tmp_path):
    result = run_cli("solve", "--graph", str(tmp_path / "no.json"), "--rule", "plurality")
    assert result.returncode == 1


def test_solve_malformed_graph_exits_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": "three"}')
    result = run_cli("solve", "--graph", str(bad), "--rule", "plurality")
    assert result.returncode == 1


def test_solve_names_the_bad_graph_file(tmp_path):
    """A malformed graph file is named as ``metrics --in DIR`` names one."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 3, "edgs": [[0, 1]]}))
    result = run_cli("solve", "--graph", str(bad), "--rule", "plurality")
    assert result.returncode == 1
    assert result.stderr.startswith(f"error: {bad}: graph document has unknown field 'edgs'"), (
        result.stderr)
    assert result.stdout == ""


def test_solve_usage_error_exits_1():
    result = run_cli("solve", "--rule", "plurality")  # --graph missing
    assert result.returncode == 1


def test_budget_exceeded_exits_2(tmp_path):
    graph = tmp_path / "g.json"
    run_cli("random", "--n", "8", "--p", "0.5", "--seed", "5", "--out", str(graph))
    result = run_cli(
        "solve", "--graph", str(graph), "--rule", "approval", "--max-nodes", "25"
    )
    assert result.returncode == 2
    assert "budget" in result.stderr.lower()


@pytest.mark.parametrize("flags", [["--max-seconds", "0"]], ids=["flag"])
def test_zero_second_budget_stops_a_small_search(tmp_path, flags):
    """example2 takes 30 nodes, far fewer than the nodes between two reads
    of the clock; the deadline is read on the first node as well."""
    graph = tmp_path / "g.json"
    graph.write_text(network.serialize(gen_paper_instance(InstanceSpec("example2"))))
    solved = run_cli("solve", "--graph", str(graph), "--rule", "plurality", *flags)
    assert solved.returncode == 2, solved.stdout + solved.stderr
    assert "time budget" in solved.stderr
    batch = run_cli("metrics", "--in", str(tmp_path), "--rule", "plurality", *flags)
    assert batch.returncode == 0, batch.stderr
    records = [json.loads(line) for line in batch.stdout.splitlines()]
    assert [r["status"] for r in records] == ["budget_exceeded"]


@pytest.mark.parametrize("command", ["solve", "metrics"])
@pytest.mark.parametrize(
    "flags,field",
    [
        (["--max-nodes", "-1"], "max_nodes"),
        (["--max-seconds", "-1"], "max_seconds"),
        (["--max-seconds", "nan"], "max_seconds"),
    ],
    ids=["max-nodes-negative", "max-seconds-negative", "max-seconds-nan"],
)
def test_bad_budget_exits_1(tmp_path, command, flags, field):
    """A budget no search can honour is bad input, rejected before any
    search starts; it is not a budget hit, nor a budget that never fires."""
    graph = tmp_path / "g.json"
    graph.write_text(network.serialize(gen_paper_instance(InstanceSpec("example2"))))
    where = ["--graph", str(graph)] if command == "solve" else ["--in", str(tmp_path)]
    result = run_cli(command, *where, "--rule", "plurality", *flags)
    assert result.returncode == 1
    assert result.stderr.startswith("error:") and field in result.stderr, result.stderr
    assert result.stdout == ""


def test_metrics_over_directory_then_report(tmp_path):
    for name in ("example1", "example2"):
        run_cli("family", "--name", name, "--out", str(tmp_path / f"{name}.json"))
    jsonl = tmp_path / "records.jsonl"
    result = run_cli(
        "metrics", "--in", str(tmp_path), "--rule", "plurality", "--out", str(jsonl)
    )
    assert result.returncode == 0, result.stderr
    lines = [l for l in jsonl.read_text().splitlines() if l]
    assert len(lines) == 2
    assert all(json.loads(l)["status"] == "ok" for l in lines)

    csv_out = tmp_path / "summary.csv"
    report = run_cli("report", "--in", str(jsonl), "--out", str(csv_out))
    assert report.returncode == 0, report.stderr
    assert csv_out.read_text().startswith("rule,records,solved")


def test_metrics_over_spec_jsonl(tmp_path):
    specs = tmp_path / "specs.jsonl"
    specs.write_text(
        json.dumps({"kind": "random", "n": 4, "p": 0.5, "seed": 1}) + "\n"
        + json.dumps({"kind": "catalog", "name": "example2"}) + "\n"
    )
    result = run_cli("metrics", "--in", str(specs), "--rule", "approval")
    assert result.returncode == 0, result.stderr
    lines = result.stdout.strip().splitlines()
    assert len(lines) == 2


def test_metrics_names_the_bad_graph_file(tmp_path):
    """A malformed graph in a directory exits 1 with ``<file>: <message>``,
    as a bad spec line is reported with its ``<path>:<line>:``."""
    (tmp_path / "a.json").write_text(
        network.serialize(gen_paper_instance(InstanceSpec("example2")))
    )
    bad = tmp_path / "b.json"
    bad.write_text(json.dumps({"n": 1, "edges": [[0, 0]]}))
    result = run_cli("metrics", "--in", str(tmp_path), "--rule", "plurality")
    assert result.returncode == 1
    assert result.stderr.startswith(f"error: {bad}: "), result.stderr
    assert "self-loop" in result.stderr and "Traceback" not in result.stderr
    assert result.stdout == ""


def test_metrics_bad_spec_line_exits_1(tmp_path):
    specs = tmp_path / "specs.jsonl"
    specs.write_text('{"kind": "martian"}\n')
    result = run_cli("metrics", "--in", str(specs), "--rule", "plurality")
    assert result.returncode == 1


@pytest.mark.parametrize(
    "command,edit,field",
    [
        ("metrics", lambda doc: [1, 2], None),
        ("metrics", lambda doc: {"kind": "random", "n": 4, "p": 0.5}, "missing field 'seed'"),
        ("metrics", lambda doc: {"kind": "random", "n": True, "p": 0.5, "seed": 1}, "'n'"),
        ("metrics", lambda doc: {"kind": "random", "n": 4, "p": 0.5, "seed": True}, "'seed'"),
        ("metrics", lambda doc: {"kind": "random", "n": 4, "p": "0.5", "seed": 1}, "'p'"),
        ("metrics", lambda doc: {"kind": "random", "n": 4, "p": 0.5, "seed": 1, "maxout": 2},
         "instance spec has unknown field 'maxout'"),
        ("metrics", lambda doc: {"kind": "catalog", "name": "g_k", "K": 3},
         "instance spec has unknown field 'K'"),
        ("report", lambda doc: {**doc, "rule": {"kind": "k_approval", "cap": "x"}}, None),
        ("report", lambda doc: {**doc, "stats": [1]}, "'stats'"),
        ("report", lambda doc: {**doc, "verdicts": []}, "'verdicts'"),
        ("report", lambda doc: {**doc, "metrics": {**doc["metrics"], "r_max": [1, 0]}}, None),
        ("report", lambda doc: {**doc, "status": []}, "'status'"),
        ("report", lambda doc: {**doc, "instance": 5}, "'instance'"),
        ("report", lambda doc: {**doc, "verdicts": {"a": "x"}}, "'verdicts.a'"),
        ("report", lambda doc: {**doc, "rule": {"kind": "k_approval", "cap": True}}, "positive cap"),
        ("report", lambda doc: {**doc, "stats": {**doc["stats"], "wall_seconds": "x"}},
         "'stats.wall_seconds'"),
        ("report", lambda doc: {**doc, "stats": {**doc["stats"], "wall_seconds": float("nan")}},
         "'stats.wall_seconds'"),
        ("report", lambda doc: {**doc, "stats": {**doc["stats"], "wall_seconds": 1e400}},
         "'stats.wall_seconds'"),
        ("report", lambda doc: {**doc, "stats": {**doc["stats"], "wall_seconds": 10**400}},
         "'stats.wall_seconds'"),
        ("report", lambda doc: {**doc, "stats": {**doc["stats"], "wall_seconds": -1.0}},
         "'stats.wall_seconds'"),
        ("report", lambda doc: {**doc, "metrics": {**doc["metrics"], "instance_gap": [1]}},
         "'metrics.instance_gap'"),
        ("report", lambda doc: {**doc, "metrics": {**doc["metrics"], "instance_gap": "x"}},
         "'metrics.instance_gap'"),
        ("report", lambda doc: {**doc, "metrics": {**doc["metrics"], "instance_gap": True}},
         "'metrics.instance_gap'"),
        ("report", lambda doc: {**doc, "metrics": {**doc["metrics"], "r_mid": [1, 1]}},
         "malformed metrics block"),
        ("report", lambda doc: {**doc, "metric": {"r_max": [9, 1]}},
         "record has unknown field 'metric'"),
        ("report", lambda doc: {**doc, "instance": {**doc["instance"], "K": 3}},
         "instance spec has unknown field 'K'"),
        ("report", lambda doc: {**doc, "instance": {"kind": "bogus"}}, "'instance'"),
        ("report", lambda doc: {**doc, "graph": "x"}, "'graph'"),
        ("report", lambda doc: {**doc, "metrics": {**doc["metrics"], "r_max": [-1, 1]}},
         "'metrics.r_max'"),
        ("report", lambda doc: {**doc, "metrics": None}, "'metrics'"),
        ("report", lambda doc: {**doc, "status": "error"}, "'metrics'"),
        ("report", lambda doc: {**doc, "metrics": {**doc["metrics"], "winners": "12"}},
         "'metrics.winners'"),
        ("report", lambda doc: {**doc, "metrics": {
            **doc["metrics"], "per_winner": [{**doc["metrics"]["per_winner"][0], "gap": "0"}]}},
         "'metrics.per_winner.gap'"),
        ("report", lambda doc: {**doc, "rule": {"kind": "approval", "k": 2}},
         "rule block has unknown field 'k'"),
        ("report", lambda doc: {**doc, "rule": {**doc["rule"], "note": "x"}},
         "rule block has unknown field 'note'"),
        ("report", lambda doc: {**doc, "v": True}, "'v'"),
        ("report", lambda doc: {**doc, "error": 5}, "'error'"),
        ("solve", lambda doc: {"n": 3, "edgs": [[0, 1]]},
         "graph document has unknown field 'edgs'"),
        ("solve", lambda doc: {"n": 3, "edges": [[0, 1]], "voting_orders": [2, 1, 0]},
         "graph document has unknown field 'voting_orders'"),
        ("solve", lambda doc: {**doc, "edges": None}, "must be a list of [src, dst] pairs"),
        ("solve", lambda doc: {**doc, "voting_order": None}, "must be a list of integers"),
        ("solve", lambda doc: {**doc, "n": True}, "must be an integer, got True"),
        ("solve", lambda doc: {**doc, "edges": [[True, 0]]}, "[src, dst]"),
        ("solve", lambda doc: {**doc, "names": ["1", 2, "3", "4"]}, "must be a list of strings"),
        ("solve", lambda doc: [1, 2], "graph document must be a JSON object"),
        ("report", lambda doc: {**doc, "metrics": {**doc["metrics"], "r_max": [99, 1]}},
         "'metrics.r_max'"),
        ("report", lambda doc: {**doc, "graph": {"edgs": 1}},
         "graph document is missing field 'n'"),
        ("report", lambda doc: {**doc, "metrics": {**doc["metrics"], "winners": [0]}},
         "malformed metrics block"),
        ("report", lambda doc: {**doc, "metrics": {
            **doc["metrics"], "per_winner": [{**doc["metrics"]["per_winner"][0], "ratio": [2, 2]}]}},
         "'metrics.per_winner.ratio'"),
        ("report", lambda doc: {**doc, "verdicts": {**doc["verdicts"], "gaps_nonnegative": False}},
         "'verdicts.gaps_nonnegative'"),
        ("report", lambda doc: {**doc, "metrics": {**doc["metrics"], "winners": []}},
         "'metrics.winners'"),
        ("report", lambda doc: {**doc, "metrics": {**doc["metrics"], "winners": [2, 2]}},
         "'metrics.winners'"),
        ("report", lambda doc: {**doc, "metrics": {**doc["metrics"], "winners": [9]}},
         "'metrics.winners'"),
    ],
    ids=[
        "spec-not-an-object",
        "spec-missing-seed",
        "spec-n-a-bool",
        "spec-seed-a-bool",
        "spec-p-a-string",
        "spec-unknown-field",
        "catalog-spec-unknown-field",
        "rule-cap-not-an-int",
        "stats-not-an-object",
        "verdicts-not-an-object",
        "ratio-zero-denominator",
        "status-not-a-status",
        "instance-not-an-object",
        "verdict-not-a-bool",
        "rule-cap-a-bool",
        "wall-seconds-not-a-number",
        "wall-seconds-nan",
        "wall-seconds-infinite",
        "wall-seconds-past-the-largest-float",
        "wall-seconds-negative",
        "instance-gap-a-list",
        "instance-gap-a-string",
        "instance-gap-a-bool",
        "metrics-unknown-field",
        "record-unknown-field",
        "instance-unknown-field",
        "instance-unknown-kind",
        "graph-not-an-object",
        "ratio-negative",
        "status-ok-without-metrics",
        "status-error-with-metrics",
        "winners-a-string",
        "winner-gap-a-string",
        "rule-k-for-cap",
        "rule-unknown-field",
        "version-a-bool",
        "error-not-a-string",
        "graph-doc-unknown-field",
        "graph-doc-voting-orders",
        "graph-doc-edges-null",
        "graph-doc-voting-order-null",
        "graph-doc-n-a-bool",
        "graph-doc-edge-a-bool",
        "graph-doc-name-not-a-string",
        "graph-doc-not-an-object",
        "r-max-not-the-winners-ratio",
        "record-graph-not-a-graph-document",
        "winners-not-the-per-winner-agents",
        "winner-ratio-not-its-popularities",
        "verdict-flipped",
        "winners-empty",
        "winners-repeated",
        "winners-not-an-agent",
    ],
)
def test_malformed_input_line_exits_1_without_traceback(tmp_path, command, edit, field):
    """Each input is JSON that a well-formed record (or spec) line, or graph
    document for ``solve``, could be edited into; it must be rejected where it
    is read, and the error names the field at fault."""
    if command == "solve":
        doc = network.to_json_dict(gen_paper_instance(InstanceSpec("example2")))
    else:
        doc = run_one(InstanceSpec("example2"), PLURALITY).as_dict()
    path = tmp_path / "in.jsonl"
    path.write_text(json.dumps(edit(doc)) + "\n")
    args = [command, "--graph" if command == "solve" else "--in", str(path)]
    if command != "report":
        args += ["--rule", "plurality"]
    result = run_cli(*args)
    assert result.returncode == 1
    assert result.stderr.startswith("error:"), result.stderr
    assert "Traceback" not in result.stderr
    if field is not None:
        assert field in result.stderr, result.stderr


def test_report_names_the_line_of_a_rejected_record(tmp_path):
    doc = run_one(InstanceSpec("example2"), PLURALITY).as_dict()
    path = tmp_path / "records.jsonl"
    path.write_text(json.dumps(doc) + "\n" + json.dumps({**doc, "v": 2}) + "\n")
    result = run_cli("report", "--in", str(path))
    assert result.returncode == 1
    assert result.stderr.startswith(f"error: {path}:2: record field 'v'"), result.stderr
    assert result.stdout == ""


def test_report_exits_3_on_a_record_whose_rebuilt_verdicts_fail(tmp_path):
    """A record electing agent 0 of example2 under approval, whose metrics and
    verdicts are what its graph, rule and winners give, breaks the factor-2
    bound: ``report`` reads it and exits 3.  The same record with its failing
    verdict edited to pass is not what it claims to be, and exits 1."""
    doc = run_one(InstanceSpec("example2"), APPROVAL).as_dict()
    metrics = instance_metrics(gen_paper_instance(InstanceSpec("example2")), [0])
    doc = {**doc, "metrics": metrics.as_dict(), "verdicts": verdicts(APPROVAL, metrics)}
    assert doc["verdicts"]["every_winner_within_2d"] is False
    path = tmp_path / "records.jsonl"
    path.write_text(json.dumps(doc) + "\n")
    result = run_cli("report", "--in", str(path))
    assert result.returncode == 3, result.stderr
    assert "invariant violations" in result.stderr
    assert result.stdout.startswith("rule,records,solved")
    path.write_text(json.dumps({**doc, "verdicts": {**doc["verdicts"], "every_winner_within_2d": True}}))
    result = run_cli("report", "--in", str(path))
    assert result.returncode == 1
    assert "'verdicts.every_winner_within_2d'" in result.stderr, result.stderr


def test_k_approval_requires_k(tmp_path):
    graph = tmp_path / "g.json"
    run_cli("family", "--name", "example2", "--out", str(graph))
    result = run_cli("solve", "--graph", str(graph), "--rule", "k-approval")
    assert result.returncode == 1
    ok = run_cli("solve", "--graph", str(graph), "--rule", "k-approval", "--k", "2")
    assert ok.returncode == 0


def test_identical_invocations_identical_bytes(tmp_path):
    graph = tmp_path / "g.json"
    run_cli("family", "--name", "example1", "--out", str(graph))
    a = run_cli("solve", "--graph", str(graph), "--rule", "plurality")
    b = run_cli("solve", "--graph", str(graph), "--rule", "plurality")
    da, db = json.loads(a.stdout), json.loads(b.stdout)
    da.pop("stats"), db.pop("stats")
    assert da == db


def test_perfbench_checker_accepts_solve_output():
    """perfbench's selftest runs ``seqvote family`` and ``seqvote solve`` and
    feeds the output to the benchmark's checker: a change to the solve
    document that the checker can no longer read fails here."""
    result = subprocess.run(
        [sys.executable, str(PERFBENCH / "selftest.py")],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_in_process_solves_do_not_retain_memory(tmp_path):
    """``seqvote solve`` run in-process (as ``CliRunner``, the test suite and
    the benchmark run it) keeps nothing per call.  ``click.echo`` kept a
    stream wrapper for each new ``sys.stdout``, about 2.3 KB a call."""
    import gc
    import tracemalloc

    graph = tmp_path / "g.json"
    graph.write_text(network.serialize(gen_paper_instance(InstanceSpec("example1"))))
    runner = CliRunner()
    args = ["solve", "--graph", str(graph), "--rule", "plurality"]
    first = runner.invoke(cli.cli, args)
    assert first.exit_code == 0, first.output
    calls = 200
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(calls):
            result = runner.invoke(cli.cli, args)
        del result
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 500 * calls, retained / calls


VERIFY_CHECKS = [
    ("check_golden_instances", "golden_instances"),
    ("check_oracle_equivalence", "oracle_equivalence"),
    ("check_low_outdegree_suite", "low_outdegree_suite"),
    ("check_approval_bound_suite", "approval_bound_suite"),
    ("check_plurality_bound_suite", "plurality_bound_suite"),
    ("check_truthful_on_path", "truthful_on_path"),
    ("check_comparator_equivalence", "comparator_equivalence"),
    ("check_determinism", "determinism"),
]


def test_verify_paper_prints_one_row_per_criterion(monkeypatch):
    """With every check stubbed, ``verify-paper`` prints its header and one
    row per criterion in ``run_all``'s order; one failing check makes its
    row FAIL and the exit code 3."""
    failing = set()

    def stub(name):
        def check(*args, **kwargs):
            return verify.CheckResult(name, name not in failing, 1.5, f"{name} detail")

        return check

    for function, name in VERIFY_CHECKS:
        monkeypatch.setattr(verify, function, stub(name))
    runner = CliRunner()
    result = runner.invoke(cli.cli, ["verify-paper"])
    assert result.exit_code == 0, result.output
    lines = result.stdout.splitlines()
    assert lines == ["criterion,status,seconds,detail"] + [
        f'{name},pass,1.5,"{name} detail"' for _, name in VERIFY_CHECKS
    ]

    failing.add("approval_bound_suite")
    result = runner.invoke(cli.cli, ["verify-paper"])
    assert result.exit_code == 3
    rows = result.stdout.splitlines()[1:]
    assert [row.split(",")[:2] for row in rows] == [
        [name, "FAIL" if name in failing else "pass"] for _, name in VERIFY_CHECKS
    ]
