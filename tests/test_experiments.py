import io
import json
import math
from fractions import Fraction

import pytest

from seqvote import network
from seqvote.balloting import APPROVAL, PLURALITY, k_approval
from seqvote.engine import Budget
from seqvote.experiments import (
    RecordError,
    RunRecord,
    instance_descriptor,
    ratio_to_json,
    read_records,
    rule_from_dict,
    rule_to_dict,
    run_batch,
    run_one,
    source_from_descriptor,
    summarize,
    summary_csv,
    write_records,
)
from seqvote.families import InstanceSpec, RandomSpec, gen_paper_instance


def test_ratio_json_round_trip():
    assert ratio_to_json(Fraction(3, 2)) == [3, 2]
    assert ratio_to_json(math.inf) == "inf"


def test_rule_dict_round_trip():
    for rule in (PLURALITY, APPROVAL, k_approval(2)):
        assert rule_from_dict(rule_to_dict(rule)) == rule


def test_run_one_metrics_example2_approval():
    record = run_one(InstanceSpec("example2"), APPROVAL)
    g = gen_paper_instance(InstanceSpec("example2"))
    metrics = record.metrics
    assert [g.names[w] for w in metrics.winners] == ["4"]
    assert metrics.instance_gap == 0
    assert metrics.r_min == metrics.r_max == 1
    assert record.stats["nodes"] > 0


def test_run_one_ok_record():
    record = run_one(InstanceSpec("example2"), PLURALITY)
    assert record.status == "ok"
    assert record.v == 1
    assert record.instance == {"kind": "catalog", "name": "example2"}
    assert record.verdicts["nonempty_winners"]
    assert record.verdicts["gaps_nonnegative"]
    assert "exists_winner_within_2d" in record.verdicts
    assert record.graph["n"] == 4


def test_run_one_approval_verdict_is_universal():
    record = run_one(InstanceSpec("example2"), APPROVAL)
    assert "every_winner_within_2d" in record.verdicts


def test_run_one_budget_exceeded():
    record = run_one(
        RandomSpec(n=8, p=0.5, max_out=None, seed=3),
        APPROVAL,
        budget=Budget(max_nodes=20),
    )
    assert record.status == "budget_exceeded"
    assert record.metrics is None
    assert record.error


def test_run_one_generation_error():
    record = run_one(InstanceSpec("mystery"), PLURALITY)
    assert record.status == "error"
    assert "unknown catalog name" in record.error


def test_run_batch_preserves_order():
    sources = [InstanceSpec("example2"), InstanceSpec("example1"), InstanceSpec("example2")]
    records = run_batch(sources, PLURALITY)
    assert [r.instance["name"] for r in records] == ["example2", "example1", "example2"]


def test_jsonl_round_trip():
    records = [
        run_one(InstanceSpec("example1"), PLURALITY),
        run_one(RandomSpec(n=4, p=0.5, max_out=None, seed=9), APPROVAL),
    ]
    buf = io.StringIO()
    write_records(records, buf)
    buf.seek(0)
    again = read_records(buf)
    assert [r.as_dict() for r in again] == [r.as_dict() for r in records]


def test_jsonl_lines_are_sorted_and_versioned():
    buf = io.StringIO()
    write_records([run_one(InstanceSpec("example1"), PLURALITY)], buf)
    line = buf.getvalue().splitlines()[0]
    doc = json.loads(line)
    assert doc["v"] == 1
    assert list(doc) == sorted(doc)
    assert json.dumps(doc, sort_keys=True) == line


def test_read_records_rejects_garbage():
    with pytest.raises(RecordError):
        read_records(io.StringIO("not json\n"))
    with pytest.raises(RecordError):
        read_records(io.StringIO('{"v": 99}\n'))


def test_source_descriptor_round_trip():
    for source in (
        InstanceSpec("g_k", 2),
        RandomSpec(n=5, p=0.3, max_out=1, seed=11),
        InstanceSpec("example1"),
        RandomSpec(4, 0.5, None, 9),
    ):
        desc = json.loads(json.dumps(instance_descriptor(source)))
        assert source_from_descriptor(desc) == source


def test_readers_accept_null_where_each_format_allows_it():
    """A graph's ``names``, a spec's ``k`` and ``max_out``, a rule's ``cap``
    and a record's ``metrics`` and ``error`` may be null; each reads as absent."""
    doc = network.to_json_dict(gen_paper_instance(InstanceSpec("example2")))
    assert network.from_json_dict({**doc, "names": None}).names is None
    assert source_from_descriptor({"kind": "catalog", "name": "example1", "k": None}) == (
        InstanceSpec("example1")
    )
    spec = {"kind": "random", "n": 4, "p": 0.5, "seed": 1, "max_out": None}
    assert source_from_descriptor(spec) == RandomSpec(4, 0.5, None, 1)
    assert rule_from_dict({"kind": "plurality", "cap": None}) == PLURALITY
    failed = run_one(InstanceSpec("mystery"), PLURALITY).as_dict()
    assert failed["metrics"] is None
    record = RunRecord.from_dict({**failed, "error": None})
    assert record.metrics is None and record.error is None
    absent = {name: value for name, value in failed.items() if name not in ("metrics", "error")}
    assert RunRecord.from_dict(absent).as_dict() == record.as_dict()


def test_summarize_and_csv():
    records = [
        run_one(InstanceSpec("example1"), PLURALITY),
        run_one(InstanceSpec("example2"), PLURALITY),
        run_one(InstanceSpec("example2"), APPROVAL),
    ]
    summaries = summarize(records)
    assert [s.rule for s in summaries] == ["approval", "plurality"]
    plurality = summaries[1]
    assert plurality.records == 2
    assert plurality.solved == 2
    assert plurality.violations == 0
    assert sum(plurality.gap_histogram.values()) == 2
    text = summary_csv(summaries)
    lines = text.strip().splitlines()
    # perfbench/checker.py reads the report by these column names
    assert lines[0] == (
        "rule,records,solved,failures,max_r_max,gap_histogram,violations,wall_p50,wall_p90,wall_max"
    )
    assert len(lines) == 3
