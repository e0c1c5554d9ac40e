"""End-to-end tests of the installed ``seqvote`` entry point.

Most of these run the console script in a subprocess so the spec'd exit codes
(1 invalid input, 2 budget exceeded, 3 verification failure) are observed
exactly as a shell would see them; tests that look inside a command invoke it
in-process.
"""

import json
import subprocess
import sys

import pytest
from click.testing import CliRunner

from seqvote import cli, network
from seqvote.balloting import PLURALITY
from seqvote.engine import Policy, Solver

CMD = [sys.executable, "-m", "seqvote.cli"]


def run_cli(*args, env=None):
    import os

    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        CMD + list(args), capture_output=True, text=True, env=full_env
    )


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
    assert doc["stats"]["nodes"] == reference.last_stats.nodes


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


def test_budget_env_var_applies(tmp_path):
    graph = tmp_path / "g.json"
    run_cli("random", "--n", "8", "--p", "0.5", "--seed", "5", "--out", str(graph))
    result = run_cli(
        "solve",
        "--graph",
        str(graph),
        "--rule",
        "approval",
        env={"SEQVOTE_BUDGET_SECONDS": "0.05"},
    )
    assert result.returncode == 2


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


def test_metrics_bad_spec_line_exits_1(tmp_path):
    specs = tmp_path / "specs.jsonl"
    specs.write_text('{"kind": "martian"}\n')
    result = run_cli("metrics", "--in", str(specs), "--rule", "plurality")
    assert result.returncode == 1


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
