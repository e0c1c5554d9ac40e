"""Command-line entry point.

Every command writes machine-parseable output (JSON or CSV) to stdout; logs
and diagnostics go to stderr.  Exit codes: 0 success, 1 invalid input,
2 budget exceeded, 3 verification failure.
"""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path

import click

from . import network as net
from .balloting import rule_from_strings
from .engine import (
    Budget,
    BudgetExceededError,
    Policy,
    Solver,
)
from .experiments import (
    instance_metrics,
    read_jsonl,
    read_records,
    run_batch,
    source_from_descriptor,
    summarize,
    summary_csv,
    write_records,
)
from .families import (
    InstanceSpec,
    RandomSpec,
    catalog_names,
    gen_paper_instance,
    gen_random,
)

EXIT_INVALID_INPUT = 1
EXIT_BUDGET = 2
EXIT_VERIFICATION = 3


def _parse_policy(text: str) -> Policy:
    if text == "canonical":
        return Policy.canonical()
    if text.startswith("bias:"):
        try:
            return Policy.bias_toward(int(text.split(":", 1)[1]))
        except ValueError:
            pass
    raise click.UsageError(f"--policy must be 'canonical' or 'bias:<agent>', got {text!r}")


def _write_output(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


@click.group()
def cli() -> None:
    """Exact SPE solver and experiment workbench for sequential voting on
    confirmation networks."""


@cli.command()
@click.option("--graph", "graph_path", required=True, help="Graph JSON file.")
@click.option(
    "--rule",
    "rule_name",
    required=True,
    type=click.Choice(["plurality", "approval", "k-approval"]),
)
@click.option("--k", type=int, default=None, help="Cap for k-approval.")
@click.option("--policy", default="canonical", help="canonical or bias:<agent>.")
@click.option("--max-nodes", type=int, default=None)
@click.option("--max-seconds", type=float, default=None)
def solve(graph_path, rule_name, k, policy, max_nodes, max_seconds):
    """Solve one instance: winner set, one policy-selected SPE path, metrics."""
    rule = rule_from_strings(rule_name, k)
    pol = _parse_policy(policy)
    g = net.parse(Path(graph_path).read_text())
    solver = Solver(g, rule, budget=Budget(max_nodes=max_nodes, max_seconds=max_seconds))
    spe = solver.policy_spe(pol)
    metrics = instance_metrics(g, spe.winners)
    doc = {
        "winners": metrics.winners,
        "policy": policy,
        "policy_winner": spe.winner,
        "policy_path": [sorted(b) for b in spe.path],
        "metrics": metrics.as_dict(),
        "stats": solver.last_stats.as_dict(),
    }
    sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")


@cli.command()
@click.option("--name", required=True, help=f"One of: {', '.join(catalog_names())}.")
@click.option("--k", type=int, default=None)
@click.option("--out", default=None, help="Output path (default stdout).")
def family(name, k, out):
    """Generate a catalog instance as graph JSON."""
    g = gen_paper_instance(InstanceSpec(name, k))
    _write_output(net.serialize(g), out)


@cli.command("random")
@click.option("--n", required=True, type=int)
@click.option("--p", required=True, type=float)
@click.option("--cap", type=int, default=None, help="Max out-degree.")
@click.option("--seed", type=int, default=0)
@click.option("--out", default=None, help="Output path (default stdout).")
def random_cmd(n, p, cap, seed, out):
    """Generate a seeded random instance as graph JSON."""
    g = gen_random(RandomSpec(n=n, p=p, max_out=cap, seed=seed))
    _write_output(net.serialize(g), out)


@cli.command()
@click.option(
    "--in",
    "in_path",
    required=True,
    help="Directory of graph JSON files, or a JSONL file of instance specs.",
)
@click.option(
    "--rule",
    "rule_name",
    required=True,
    type=click.Choice(["plurality", "approval", "k-approval"]),
)
@click.option("--k", type=int, default=None)
@click.option("--max-nodes", type=int, default=None)
@click.option("--max-seconds", type=float, default=None)
@click.option("--out", default=None, help="JSONL output path (default stdout).")
def metrics(in_path, rule_name, k, max_nodes, max_seconds, out):
    """Batch-solve instances and emit one RunRecord per line (JSONL)."""
    rule = rule_from_strings(rule_name, k)
    budget = Budget(max_nodes=max_nodes, max_seconds=max_seconds)
    path = Path(in_path)
    sources = []
    if path.is_dir():
        for f in sorted(path.glob("*.json")):
            try:
                sources.append(net.parse(f.read_text()))
            except ValueError as exc:
                raise click.UsageError(f"{f}: {exc}")
    elif path.is_file():
        with open(in_path) as fh:
            sources = read_jsonl(fh, source_from_descriptor)
    else:
        raise click.UsageError(f"--in path {in_path} does not exist")
    records = run_batch(sources, rule, budget=budget)
    buf = io.StringIO()
    write_records(records, buf)
    _write_output(buf.getvalue(), out)
    failures = sum(1 for r in records if r.status != "ok")
    if failures:
        click.echo(f"{failures} of {len(records)} instances failed", err=True)


@cli.command()
@click.option("--in", "in_path", required=True, help="JSONL of RunRecords.")
@click.option("--out", default=None, help="CSV output path (default stdout).")
def report(in_path, out):
    """Summarize a JSONL of RunRecords as a CSV table.

    Exits 3 unless every record's invariant verdicts hold.
    """
    with open(in_path) as fh:
        records = read_records(fh)
    summaries = summarize(records)
    _write_output(summary_csv(summaries), out)
    violations = sum(s.violations for s in summaries)
    if violations:
        click.echo(f"{violations} invariant violations", err=True)
        sys.exit(EXIT_VERIFICATION)


@cli.command("verify-paper")
def verify_paper():
    """Run the full verification suite and print a pass/fail CSV table."""
    from .verify import run_all

    results = run_all(log=sys.stderr)
    click.echo("criterion,status,seconds,detail")
    ok = True
    for r in results:
        status = "pass" if r.passed else "FAIL"
        ok = ok and r.passed
        detail = r.detail.replace('"', "'")
        click.echo(f'{r.name},{status},{r.seconds:.1f},"{detail}"')
    if not ok:
        sys.exit(EXIT_VERIFICATION)


def main() -> None:
    try:
        cli.main(standalone_mode=False)
    except click.exceptions.Abort:
        sys.exit(130)
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        sys.exit(EXIT_INVALID_INPUT)
    except click.ClickException as exc:
        exc.show(file=sys.stderr)
        sys.exit(EXIT_INVALID_INPUT)
    except BudgetExceededError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_BUDGET)
    except (ValueError, OSError) as exc:
        # NetworkError, GenerationError, RuleError and RecordError are ValueErrors.
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_INVALID_INPUT)


if __name__ == "__main__":
    main()
