"""Batch metric computation, persistence, and summaries.

A RunRecord is the persistence unit: one solved instance with its winner set,
per-winner gap/ratio metrics, solver statistics and invariant verdicts.
Records are self-contained (they embed both the generating spec and the
serialized graph) and are written as JSONL, one object per line, with a
schema version field ``v``.  Ratios are stored as exact ``[num, den]`` pairs
("inf" for the zero-denominator convention); floats appear only in human
summaries.  Everything except the ``stats`` block is deterministic for a
given instance and rule.  A record is read back by rebuilding it: its
``metrics`` and ``verdicts`` must equal, as JSON, what ``instance_metrics``
and ``verdicts`` give for its graph, rule and winners, so each is defined once.
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
from functools import cache
from typing import Iterable, Sequence, TextIO

from . import network as net
from .balloting import Rule
from .engine import Budget, BudgetExceededError, Solver
from .families import InstanceSpec, RandomSpec, gen_paper_instance, gen_random
from .network import ConfirmationNetwork, is_int, is_int_list, is_object, is_str, or_null

RECORD_VERSION = 1
RECORD_STATUSES = ("ok", "budget_exceeded", "error")


class RecordError(ValueError):
    """Raised for malformed persisted records."""


def ratio_to_json(r: Fraction | float) -> list[int] | str:
    if r == math.inf:
        return "inf"
    frac = Fraction(r)
    return [frac.numerator, frac.denominator]


def _json_field(check, description: str, *, required: bool = True, **kw):
    """A persisted field, read back with ``check`` (see ``network.read_object``)."""
    return field(metadata={"json": (check, description, required)}, **kw)


@cache
def _rows(cls) -> tuple:
    """The ``network.read_object`` rows of a persisted dataclass, from its fields."""
    return tuple((f.name, *f.metadata["json"]) for f in fields(cls))


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


@dataclass
class InstanceMetrics:
    winners: list[int]
    per_winner: list[WinnerMetrics]
    instance_gap: int  # min over the winners: the best counts
    r_min: Fraction | float
    r_max: Fraction | float

    def as_dict(self) -> dict:
        ratios = {name: ratio_to_json(getattr(self, name)) for name in ("r_min", "r_max")}
        return {**vars(self), "per_winner": [m.as_dict() for m in self.per_winner], **ratios}


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
# read_object rows.  Each builder is looked up by name when it is called, so a
# tracer that rebinds this module's gen_random still sees the call.
_SPEC_FIELDS = {
    "catalog": (InstanceSpec, lambda spec: gen_paper_instance(spec),
                (("name", is_str, "a string", True),
                 ("k", or_null(is_int), "an integer or null", False))),
    "random": (RandomSpec, lambda spec: gen_random(spec),
               (("n", is_int, "an integer", True),
                ("p", net.json_type(int, float), "a number", True),
                ("seed", is_int, "an integer", True),
                ("max_out", or_null(is_int), "an integer or null", False))),
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
    kind = desc.get("kind") if is_object(desc) else None
    if not is_str(kind) or kind not in _SPEC_FIELDS:
        kinds = " or ".join(_SPEC_FIELDS)
        raise RecordError(f"instance spec must be a JSON object of kind {kinds}, got {desc!r:.80}")
    make, _, spec_fields = _SPEC_FIELDS[kind]
    rows = (("kind", is_str, "a string", True), *spec_fields)
    net.read_object(desc, rows, RecordError, "instance spec")
    return make(**{name: value for name, value in desc.items() if name != "kind"})


@dataclass
class RunRecord:
    instance: dict = _json_field(is_object, "a JSON object")
    graph: dict = _json_field(is_object, "a JSON object")
    rule: dict = _json_field(is_object, "a JSON object")
    status: str = _json_field(RECORD_STATUSES.__contains__, f"one of {', '.join(RECORD_STATUSES)}")
    metrics: InstanceMetrics | None = _json_field(
        or_null(is_object), "a JSON object or null", required=False)
    verdicts: dict = _json_field(is_object, "a JSON object")
    stats: dict = _json_field(is_object, "a JSON object")
    error: str | None = _json_field(
        or_null(is_str), "a string or null", required=False, default=None)
    v: int = _json_field(lambda v: is_int(v) and v == RECORD_VERSION,
                         f"the integer {RECORD_VERSION}", default=RECORD_VERSION)

    def as_dict(self) -> dict:
        metrics = self.metrics.as_dict() if self.metrics is not None else None
        return {**vars(self), "metrics": metrics}

    @staticmethod
    def from_dict(data: dict) -> "RunRecord":
        """The record rebuilt from its graph, rule and winners, or a RecordError
        naming its first field that is not what those give."""
        net.read_object(data, _rows(RunRecord), RecordError, "record")
        status, metrics = data["status"], data.get("metrics")
        if (status == "ok") != (metrics is not None):  # as run_one writes them
            raise RecordError(f"record field 'metrics' must be an object when 'status' is ok "
                              f"and null otherwise, got {metrics!r:.40} with {status!r}")
        if data["instance"] != {"kind": "graph"}:  # a graph has no spec
            try:
                source_from_descriptor(data["instance"])
            except RecordError as exc:
                raise RecordError(f"record field 'instance': {exc}") from exc
        wall = data["stats"].get("wall_seconds", 0.0)  # not a bool, NaN or past a float
        if type(wall) not in (int, float) or not 0 <= wall <= sys.float_info.max:
            raise RecordError("record field 'stats.wall_seconds' must be a finite number >= 0")
        rule = rule_from_dict(data["rule"])
        if status != "error" or data["graph"]:  # only a failed build leaves no graph
            g = net.from_json_dict(data["graph"])  # a NetworkError names the graph document
        rebuilt = {"metrics": None, "verdicts": {}}
        if metrics is not None:
            winners = metrics.get("winners")
            if not (is_int_list(winners) and winners and winners == sorted(set(winners))
                    and 0 <= winners[0] and winners[-1] < g.n):
                raise RecordError(f"malformed metrics block: record field 'metrics.winners' "
                                  f"must be distinct agents of 0..{g.n - 1} in order, "
                                  f"got {winners!r:.80}")
            metrics = instance_metrics(g, winners)
            rebuilt = {"metrics": metrics.as_dict(), "verdicts": verdicts(rule, metrics)}
        for name, block in rebuilt.items():
            if (path := _first_difference(data.get(name), block, name)) is not None:
                prefix = "malformed metrics block: " if name == "metrics" else ""
                raise RecordError(f"{prefix}record field {path!r} is not what its graph, "
                                  f"rule and winners give")
        return RunRecord(**{**data, "metrics": metrics})


def _first_difference(stored, rebuilt, path: str) -> str | None:
    """Where two JSON values first differ, as a dotted path, or None.  Keys are
    visited in sorted order across both; an absent key reads as null, so a null
    key the other side lacks is reported at ``path``.  Compared as JSON, so
    ``true`` is not ``1``."""
    if json.dumps(stored, sort_keys=True) == json.dumps(rebuilt, sort_keys=True):
        return None
    children = []
    if is_object(stored) and is_object(rebuilt):
        keys = sorted(stored.keys() | rebuilt.keys())
        children = [(stored.get(k), rebuilt.get(k), f"{path}.{k}") for k in keys]
    elif type(stored) is list and type(rebuilt) is list and len(stored) == len(rebuilt):
        children = [(a, b, path) for a, b in zip(stored, rebuilt)]  # items share their list's path
    found = (_first_difference(*child) for child in children)
    return next((p for p in found if p is not None), path)


def rule_to_dict(rule: Rule) -> dict:
    d = {"kind": rule.kind}
    if rule.cap is not None:
        d["cap"] = rule.cap
    return d


_RULE_FIELDS = (
    ("kind", is_str, "a string", True),
    ("cap", or_null(lambda v: is_int(v) and v >= 1), "a positive cap or null", False),
)


def rule_from_dict(data: dict) -> Rule:
    net.read_object(data, _RULE_FIELDS, RecordError, "rule block")
    return Rule(**data)


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


def read_jsonl(fh: TextIO, read) -> list:
    """``read`` of each non-blank line's JSON; a line that is not JSON or that
    ``read`` rejects raises RecordError naming ``<file>:<line>:``."""
    where = getattr(fh, "name", "<stream>")
    items = []
    for line_no, line in enumerate(fh, start=1):
        try:
            if line.strip():
                items.append(read(json.loads(line)))
        except json.JSONDecodeError as exc:
            raise RecordError(f"{where}:{line_no}: invalid JSON: {exc}") from exc
        except ValueError as exc:  # a RecordError, NetworkError or RuleError
            raise RecordError(f"{where}:{line_no}: {exc}") from exc
    return items


def read_records(fh: TextIO) -> list[RunRecord]:
    return read_jsonl(fh, RunRecord.from_dict)


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
        label = rule_from_dict(record.rule).label()
        by_rule.setdefault(label, []).append(record)
    summaries = []
    for label in sorted(by_rule):
        group = by_rule[label]
        solved = [r for r in group if r.status == "ok"]
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
