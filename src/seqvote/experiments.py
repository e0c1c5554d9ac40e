"""Batch metric computation, persistence, and summaries.

A RunRecord is the persistence unit: one solved instance with its winner set,
per-winner gap/ratio metrics, solver statistics and invariant verdicts.
Records are self-contained (they embed both the generating spec and the
serialized graph) and are written as JSONL, one object per line, with a
schema version field ``v``.  Ratios are stored as exact ``[num, den]`` pairs
("inf" for the zero-denominator convention); floats appear only in human
summaries.  Everything except the ``stats`` block is deterministic for a
given instance and rule.
"""

from __future__ import annotations

import csv
import io
import json
import math
import statistics
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, TextIO

from . import network as net
from .balloting import Rule
from .engine import Budget, BudgetExceededError, Solver
from .families import InstanceSpec, RandomSpec, gen_paper_instance, gen_random
from .network import ConfirmationNetwork

RECORD_VERSION = 1


class RecordError(ValueError):
    """Raised for malformed persisted records."""


def ratio_to_json(r: Fraction | float) -> list[int] | str:
    if r == math.inf:
        return "inf"
    frac = Fraction(r)
    return [frac.numerator, frac.denominator]


def ratio_from_json(value) -> Fraction | float:
    if value == "inf":
        return math.inf
    if (
        isinstance(value, list)
        and len(value) == 2
        and all(isinstance(v, int) for v in value)
    ):
        return Fraction(value[0], value[1])
    raise RecordError(f"malformed ratio value {value!r}")


@dataclass
class WinnerMetrics:
    agent: int
    popularity: int
    top_popularity_without_own_edges: int
    gap: int
    ratio: Fraction | float

    def as_dict(self) -> dict:
        return {
            "agent": self.agent,
            "popularity": self.popularity,
            "top_popularity_without_own_edges": self.top_popularity_without_own_edges,
            "gap": self.gap,
            "ratio": ratio_to_json(self.ratio),
        }


@dataclass
class InstanceMetrics:
    winners: list[int]
    per_winner: list[WinnerMetrics]
    instance_gap: int  # min gap over the winner set (the best winner counts)
    r_min: Fraction | float
    r_max: Fraction | float

    def as_dict(self) -> dict:
        return {
            "winners": self.winners,
            "per_winner": [m.as_dict() for m in self.per_winner],
            "instance_gap": self.instance_gap,
            "r_min": ratio_to_json(self.r_min),
            "r_max": ratio_to_json(self.r_max),
        }


def instance_metrics(g: ConfirmationNetwork, winners) -> InstanceMetrics:
    """Gap/ratio metrics of an achievable winner set already in hand."""
    winners = sorted(winners)
    per_winner = []
    for w in winners:
        stripped = net.remove_out_edges(g, w)
        top = net.degree_profile(stripped).max_in
        per_winner.append(
            WinnerMetrics(
                agent=w,
                popularity=net.popularity(g, w),
                top_popularity_without_own_edges=top,
                gap=net.additive_gap(g, w),
                ratio=net.ratio(g, w),
            )
        )
    ratios = [m.ratio for m in per_winner]
    return InstanceMetrics(
        winners=winners,
        per_winner=per_winner,
        instance_gap=min(m.gap for m in per_winner),
        r_min=min(ratios),
        r_max=max(ratios),
    )


def metrics_of(
    g: ConfirmationNetwork,
    rule: Rule,
    *,
    budget: Budget | None = None,
    use_pruning: bool = True,
) -> tuple[InstanceMetrics, Solver]:
    """Winner set plus gap/ratio metrics; returns the solver for its stats."""
    solver = Solver(g, rule, budget=budget, use_pruning=use_pruning)
    return instance_metrics(g, solver.achievable_winners().winners), solver


def _verdicts(g: ConfirmationNetwork, rule: Rule, metrics: InstanceMetrics) -> dict:
    """Per-record invariant verdicts aggregated by summarize()."""
    verdicts = {
        "nonempty_winners": bool(metrics.winners),
        "gaps_nonnegative": all(m.gap >= 0 for m in metrics.per_winner),
    }
    within = [
        m.top_popularity_without_own_edges <= 2 * m.popularity
        for m in metrics.per_winner
    ]
    if rule.kind == "approval":
        # every achievable winner obeys the factor-2 popularity bound
        verdicts["every_winner_within_2d"] = all(within)
    else:
        # some achievable winner obeys the factor-2 popularity bound
        verdicts["exists_winner_within_2d"] = any(within)
    return verdicts


def instance_descriptor(source) -> dict:
    if isinstance(source, InstanceSpec):
        d = {"kind": "catalog", "name": source.name}
        if source.k is not None:
            d["k"] = source.k
        return d
    if isinstance(source, RandomSpec):
        d = {"kind": "random", "n": source.n, "p": source.p, "seed": source.seed}
        if source.max_out is not None:
            d["max_out"] = source.max_out
        return d
    if isinstance(source, ConfirmationNetwork):
        return {"kind": "graph"}
    raise TypeError(f"unsupported instance source {type(source).__name__}")


def resolve_instance(source) -> ConfirmationNetwork:
    if isinstance(source, InstanceSpec):
        return gen_paper_instance(source)
    if isinstance(source, RandomSpec):
        return gen_random(source)
    if isinstance(source, ConfirmationNetwork):
        return source
    raise TypeError(f"unsupported instance source {type(source).__name__}")


def source_from_descriptor(desc: dict):
    kind = desc.get("kind")
    if kind == "catalog":
        return InstanceSpec(desc["name"], desc.get("k"))
    if kind == "random":
        return RandomSpec(
            n=desc["n"], p=desc["p"], max_out=desc.get("max_out"), seed=desc["seed"]
        )
    raise RecordError(f"cannot regenerate instance of kind {kind!r}")


@dataclass
class RunRecord:
    instance: dict
    graph: dict
    rule: dict
    status: str  # "ok" | "budget_exceeded" | "error"
    metrics: InstanceMetrics | None
    verdicts: dict
    stats: dict
    error: str | None = None
    v: int = RECORD_VERSION

    def as_dict(self) -> dict:
        return {
            "v": self.v,
            "instance": self.instance,
            "graph": self.graph,
            "rule": self.rule,
            "status": self.status,
            "metrics": self.metrics.as_dict() if self.metrics is not None else None,
            "verdicts": self.verdicts,
            "stats": self.stats,
            "error": self.error,
        }

    @staticmethod
    def from_dict(data: dict) -> "RunRecord":
        if not isinstance(data, dict) or data.get("v") != RECORD_VERSION:
            raise RecordError(f"unsupported record version in {data!r:.80}")
        metrics = None
        if data.get("metrics") is not None:
            m = data["metrics"]
            try:
                per_winner = [
                    WinnerMetrics(
                        agent=x["agent"],
                        popularity=x["popularity"],
                        top_popularity_without_own_edges=x[
                            "top_popularity_without_own_edges"
                        ],
                        gap=x["gap"],
                        ratio=ratio_from_json(x["ratio"]),
                    )
                    for x in m["per_winner"]
                ]
                metrics = InstanceMetrics(
                    winners=list(m["winners"]),
                    per_winner=per_winner,
                    instance_gap=m["instance_gap"],
                    r_min=ratio_from_json(m["r_min"]),
                    r_max=ratio_from_json(m["r_max"]),
                )
            except (KeyError, TypeError) as exc:
                raise RecordError(f"malformed metrics block: {exc}") from exc
        try:
            return RunRecord(
                instance=data["instance"],
                graph=data["graph"],
                rule=data["rule"],
                status=data["status"],
                metrics=metrics,
                verdicts=data["verdicts"],
                stats=data["stats"],
                error=data.get("error"),
            )
        except KeyError as exc:
            raise RecordError(f"record is missing field {exc}") from exc


def rule_to_dict(rule: Rule) -> dict:
    d = {"kind": rule.kind}
    if rule.cap is not None:
        d["cap"] = rule.cap
    return d


def rule_from_dict(data: dict) -> Rule:
    return Rule(data["kind"], data.get("cap"))


def run_one(
    source,
    rule: Rule,
    *,
    budget: Budget | None = None,
    use_pruning: bool = True,
) -> RunRecord:
    descriptor = instance_descriptor(source)
    try:
        g = resolve_instance(source)
    except Exception as exc:
        return RunRecord(
            instance=descriptor,
            graph={},
            rule=rule_to_dict(rule),
            status="error",
            metrics=None,
            verdicts={},
            stats={},
            error=str(exc),
        )
    graph_doc = net.to_json_dict(g)
    try:
        metrics, solver = metrics_of(g, rule, budget=budget, use_pruning=use_pruning)
    except BudgetExceededError as exc:
        return RunRecord(
            instance=descriptor,
            graph=graph_doc,
            rule=rule_to_dict(rule),
            status="budget_exceeded",
            metrics=None,
            verdicts={},
            stats=exc.stats.as_dict(),
            error=str(exc),
        )
    return RunRecord(
        instance=descriptor,
        graph=graph_doc,
        rule=rule_to_dict(rule),
        status="ok",
        metrics=metrics,
        verdicts=_verdicts(g, rule, metrics),
        stats=solver.last_stats.as_dict(),
    )


def run_batch(
    sources: Sequence, rule: Rule, *, budget: Budget | None = None
) -> list[RunRecord]:
    """One record per source, in input order; failures are recorded, not thrown."""
    return [run_one(s, rule, budget=budget) for s in sources]


def write_records(records: Iterable[RunRecord], fh: TextIO) -> None:
    for record in records:
        fh.write(json.dumps(record.as_dict(), sort_keys=True) + "\n")


def read_records(fh: TextIO) -> list[RunRecord]:
    records = []
    for line_no, line in enumerate(fh, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise RecordError(f"line {line_no}: invalid JSON: {exc}") from exc
        records.append(RunRecord.from_dict(data))
    return records


def recheck_record(record: RunRecord) -> bool:
    """Recompute the stored per-winner ratios and gaps from the embedded graph."""
    if record.metrics is None:
        return True
    g = net.from_json_dict(record.graph)
    for m in record.metrics.per_winner:
        if net.additive_gap(g, m.agent) != m.gap:
            return False
        if net.ratio(g, m.agent) != m.ratio:
            return False
    return True


@dataclass
class RuleSummary:
    rule: str
    records: int
    solved: int
    failures: int
    max_r_max: Fraction | float | None
    gap_histogram: dict[int, int]
    violations: int
    wall_p50: float
    wall_p90: float
    wall_max: float


def summarize(records: Sequence[RunRecord]) -> list[RuleSummary]:
    """Per-rule aggregates: extreme ratios, gap histogram, invariant violations,
    timing percentiles."""
    by_rule: dict[str, list[RunRecord]] = {}
    for record in records:
        if not isinstance(record.rule, dict) or "kind" not in record.rule:
            raise RecordError(f"malformed rule block {record.rule!r}")
        label = rule_from_dict(record.rule).label()
        by_rule.setdefault(label, []).append(record)
    summaries = []
    for label in sorted(by_rule):
        group = by_rule[label]
        solved = [r for r in group if r.status == "ok" and r.metrics is not None]
        ratios = [r.metrics.r_max for r in solved]
        histogram: dict[int, int] = {}
        for r in solved:
            histogram[r.metrics.instance_gap] = (
                histogram.get(r.metrics.instance_gap, 0) + 1
            )
        violations = sum(
            1
            for r in solved
            for ok in r.verdicts.values()
            if not ok
        )
        walls = sorted(
            r.stats.get("wall_seconds", 0.0) for r in group if r.stats
        ) or [0.0]
        summaries.append(
            RuleSummary(
                rule=label,
                records=len(group),
                solved=len(solved),
                failures=len(group) - len(solved),
                max_r_max=max(ratios) if ratios else None,
                gap_histogram=dict(sorted(histogram.items())),
                violations=violations,
                wall_p50=statistics.quantiles(walls, n=2)[0] if len(walls) > 1 else walls[0],
                wall_p90=walls[max(0, math.ceil(0.9 * len(walls)) - 1)],
                wall_max=walls[-1],
            )
        )
    return summaries


def summary_csv(summaries: Sequence[RuleSummary]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        [
            "rule",
            "records",
            "solved",
            "failures",
            "max_r_max",
            "gap_histogram",
            "violations",
            "wall_p50",
            "wall_p90",
            "wall_max",
        ]
    )
    for s in summaries:
        if s.max_r_max is None:
            ratio_str = ""
        elif s.max_r_max == math.inf:
            ratio_str = "inf"
        else:
            ratio_str = f"{float(s.max_r_max):.6g}"
        writer.writerow(
            [
                s.rule,
                s.records,
                s.solved,
                s.failures,
                ratio_str,
                ";".join(f"{gap}:{count}" for gap, count in s.gap_histogram.items()),
                s.violations,
                f"{s.wall_p50:.4f}",
                f"{s.wall_p90:.4f}",
                f"{s.wall_max:.4f}",
            ]
        )
    return buf.getvalue()
