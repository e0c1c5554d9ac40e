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
import sys
from collections import Counter
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Iterable, Sequence, TextIO

from . import network as net
from .balloting import Rule
from .engine import Budget, BudgetExceededError, Solver
from .families import InstanceSpec, RandomSpec, gen_paper_instance, gen_random
from .network import ConfirmationNetwork

RECORD_VERSION = 1
RECORD_STATUSES = ("ok", "budget_exceeded", "error")


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
        and value[1] > 0
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

    @property
    def within_factor_2(self) -> bool:
        """The paper's factor-2 popularity bound: with the winner's own edges
        removed, no agent is more than twice as popular as the winner."""
        return self.top_popularity_without_own_edges <= 2 * self.popularity

    def as_dict(self) -> dict:
        return {**vars(self), "ratio": ratio_to_json(self.ratio)}

    @classmethod
    def from_dict(cls, data: dict) -> "WinnerMetrics":
        metrics = cls(**data)
        metrics.ratio = ratio_from_json(metrics.ratio)
        return metrics


@dataclass
class InstanceMetrics:
    winners: list[int]
    per_winner: list[WinnerMetrics]
    instance_gap: int  # min gap over the winner set (the best winner counts)
    r_min: Fraction | float
    r_max: Fraction | float

    def as_dict(self) -> dict:
        return {
            **vars(self),
            "per_winner": [m.as_dict() for m in self.per_winner],
            "r_min": ratio_to_json(self.r_min),
            "r_max": ratio_to_json(self.r_max),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "InstanceMetrics":
        """Raises TypeError for a missing or unknown key, here or in a winner's block."""
        metrics = cls(**data)
        metrics.winners = list(metrics.winners)
        metrics.per_winner = [WinnerMetrics.from_dict(m) for m in metrics.per_winner]
        metrics.r_min = ratio_from_json(metrics.r_min)
        metrics.r_max = ratio_from_json(metrics.r_max)
        return metrics


def instance_metrics(g: ConfirmationNetwork, winners) -> InstanceMetrics:
    """Gap/ratio metrics of an achievable winner set already in hand."""
    winners = sorted(winners)
    per_winner = []
    for w in winners:
        d_w = net.popularity(g, w)
        top = net.top_popularity_without_own_edges(g, w)
        per_winner.append(
            WinnerMetrics(
                agent=w,
                popularity=d_w,
                top_popularity_without_own_edges=top,
                gap=top - d_w,
                ratio=net.popularity_ratio(top, d_w),
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


def verdicts(rule: Rule, metrics: InstanceMetrics) -> dict:
    """Per-record invariant verdicts aggregated by summarize()."""
    result = {
        "nonempty_winners": bool(metrics.winners),
        "gaps_nonnegative": all(m.gap >= 0 for m in metrics.per_winner),
    }
    within = [m.within_factor_2 for m in metrics.per_winner]
    if rule.kind == "approval":
        # every achievable winner obeys the factor-2 popularity bound
        result["every_winner_within_2d"] = all(within)
    else:
        # some achievable winner obeys the factor-2 popularity bound
        result["exists_winner_within_2d"] = any(within)
    return result


# Each spec kind: its type, its builder, and its fields in descriptor order as
# (name, types, what, required).  Each builder is looked up by name when it is
# called, so a tracer that rebinds this module's gen_random still sees the call.
_SPEC_FIELDS = {
    "catalog": (InstanceSpec, lambda spec: gen_paper_instance(spec),
                (("name", str, "a string", True), ("k", int, "an integer", False))),
    "random": (RandomSpec, lambda spec: gen_random(spec),
               (("n", int, "an integer", True), ("p", (int, float), "a number", True),
                ("seed", int, "an integer", True), ("max_out", int, "an integer", False))),
}
_SPEC_KIND = {spec_type: kind for kind, (spec_type, _, _) in _SPEC_FIELDS.items()}


def _spec_kind(source) -> str:
    kind = _SPEC_KIND.get(type(source))
    if kind is None:
        raise TypeError(f"unsupported instance source {type(source).__name__}")
    return kind


def instance_descriptor(source) -> dict:
    """A spec's kind and fields, optional ones only when set; a graph's kind only."""
    if isinstance(source, ConfirmationNetwork):
        return {"kind": "graph"}
    kind = _spec_kind(source)
    desc = {"kind": kind}
    for name, _, _, required in _SPEC_FIELDS[kind][2]:
        value = getattr(source, name)
        if required or value is not None:
            desc[name] = value
    return desc


def resolve_instance(source) -> ConfirmationNetwork:
    if isinstance(source, ConfirmationNetwork):
        return source
    return _SPEC_FIELDS[_spec_kind(source)][1](source)


def source_from_descriptor(desc: dict):
    if not isinstance(desc, dict):
        raise RecordError(f"instance spec must be a JSON object, got {desc!r:.80}")
    kind = desc.get("kind")
    if not isinstance(kind, str) or kind not in _SPEC_FIELDS:
        raise RecordError(f"cannot regenerate instance of kind {kind!r:.80}")
    make, _, spec_fields = _SPEC_FIELDS[kind]
    unknown = desc.keys() - {"kind", *(name for name, *_ in spec_fields)}
    if unknown:
        raise RecordError(f"instance spec has unknown field {min(unknown)!r:.80}")
    args = {}
    for name, types, what, required in spec_fields:
        if required and name not in desc:
            raise RecordError(f"instance spec is missing field {name!r}")
        value = desc.get(name)
        wrong = not isinstance(value, types) or isinstance(value, bool)  # bools are ints
        if wrong and (required or value is not None):  # an optional field may be null
            raise RecordError(f"instance spec field {name!r} must be {what}, got {value!r:.80}")
        args[name] = value
    return make(**args)


@dataclass
class RunRecord:
    instance: dict
    graph: dict
    rule: dict
    status: str  # one of RECORD_STATUSES
    metrics: InstanceMetrics | None
    verdicts: dict
    stats: dict
    error: str | None = None
    v: int = RECORD_VERSION

    def as_dict(self) -> dict:
        metrics = self.metrics.as_dict() if self.metrics is not None else None
        return {**vars(self), "metrics": metrics}

    @staticmethod
    def from_dict(data: dict) -> "RunRecord":
        if not isinstance(data, dict) or data.get("v") != RECORD_VERSION:
            raise RecordError(f"unsupported record version in {data!r:.80}")
        unknown = data.keys() - {f.name for f in fields(RunRecord)}
        if unknown:
            raise RecordError(f"record has unknown field {min(unknown)!r:.80}")
        metrics = None
        if data.get("metrics") is not None:
            try:
                metrics = InstanceMetrics.from_dict(data["metrics"])
            except TypeError as exc:
                raise RecordError(f"malformed metrics block: {exc}") from exc
            gap = metrics.instance_gap
            if isinstance(gap, bool) or not isinstance(gap, int):
                raise RecordError("record field 'metrics.instance_gap' must be an integer")
        for name in ("graph", "verdicts", "stats"):
            if not isinstance(data.get(name, {}), dict):
                raise RecordError(f"record field {name!r} must be a JSON object")
        if data.get("instance", {"kind": "graph"}) != {"kind": "graph"}:  # a graph has no spec
            try:
                source_from_descriptor(data["instance"])
            except RecordError as exc:
                raise RecordError(f"record field 'instance': {exc}") from exc
        if "status" in data and data["status"] not in RECORD_STATUSES:
            raise RecordError(
                f"record field 'status' must be one of {', '.join(RECORD_STATUSES)}, "
                f"got {data['status']!r:.40}"
            )
        for name, ok in data.get("verdicts", {}).items():
            if not isinstance(ok, bool):
                raise RecordError(f"record field 'verdicts.{name}' must be true or false")
        wall = data.get("stats", {}).get("wall_seconds", 0.0)  # not a bool, NaN or past a float
        if type(wall) not in (int, float) or not 0 <= wall <= sys.float_info.max:
            raise RecordError("record field 'stats.wall_seconds' must be a finite number >= 0")
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
    record = RunRecord(
        instance=instance_descriptor(source),
        graph={},
        rule=rule_to_dict(rule),
        status="error",
        metrics=None,
        verdicts={},
        stats={},
    )
    try:
        g = resolve_instance(source)
    except Exception as exc:
        record.error = str(exc)
        return record
    record.graph = net.to_json_dict(g)
    solver = Solver(g, rule, budget=budget, use_pruning=use_pruning)
    try:
        winners = solver.achievable_winners()
    except BudgetExceededError as exc:
        record.status, record.error = "budget_exceeded", str(exc)
        record.stats = exc.stats.as_dict()
        return record
    record.status, record.metrics = "ok", instance_metrics(g, winners)
    record.verdicts = verdicts(rule, record.metrics)
    record.stats = solver.last_stats.as_dict()
    return record


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


def _ratio_cell(ratio: Fraction | float | None) -> str:
    if ratio is None:
        return ""
    return "inf" if ratio == math.inf else f"{float(ratio):.6g}"


def _cell(fmt):
    """A report column written with ``fmt``; columns without one use ``str``."""
    return field(metadata={"cell": fmt})


@dataclass
class RuleSummary:
    """One row of the report CSV: its fields are the columns, in order."""

    rule: str
    records: int
    solved: int
    failures: int
    max_r_max: Fraction | float | None = _cell(_ratio_cell)
    gap_histogram: dict[int, int] = _cell(lambda h: ";".join(f"{g}:{n}" for g, n in h.items()))
    violations: int
    wall_p50: float = _cell("{:.4f}".format)
    wall_p90: float = _cell("{:.4f}".format)
    wall_max: float = _cell("{:.4f}".format)


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
        histogram = Counter(r.metrics.instance_gap for r in solved)
        violations = sum(not ok for r in solved for ok in r.verdicts.values())
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
                wall_p50=statistics.median(walls),
                wall_p90=walls[max(0, math.ceil(0.9 * len(walls)) - 1)],
                wall_max=walls[-1],
            )
        )
    return summaries


def summary_csv(summaries: Sequence[RuleSummary]) -> str:
    columns = fields(RuleSummary)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(col.name for col in columns)
    for s in summaries:
        writer.writerow(col.metadata.get("cell", str)(getattr(s, col.name)) for col in columns)
    return buf.getvalue()
