import io
import json
import math
from fractions import Fraction

import pytest

from seqvote.balloting import APPROVAL, PLURALITY, k_approval
from seqvote.engine import Budget
from seqvote.experiments import (
    RecordError,
    RunRecord,
    instance_descriptor,
    metrics_of,
    ratio_from_json,
    ratio_to_json,
    read_records,
    recheck_record,
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
    for value in (Fraction(3, 2), Fraction(0), Fraction(7), math.inf):
        assert ratio_from_json(ratio_to_json(value)) == value
    assert ratio_to_json(Fraction(3, 2)) == [3, 2]
    assert ratio_to_json(math.inf) == "inf"
    with pytest.raises(RecordError):
        ratio_from_json("nope")


def test_rule_dict_round_trip():
    for rule in (PLURALITY, APPROVAL, k_approval(2)):
        assert rule_from_dict(rule_to_dict(rule)) == rule


def test_metrics_of_example2_approval():
    g = gen_paper_instance(InstanceSpec("example2"))
    metrics, solver = metrics_of(g, APPROVAL)
    assert [g.names[w] for w in metrics.winners] == ["4"]
    assert metrics.instance_gap == 0
    assert metrics.r_min == metrics.r_max == 1
    assert solver.last_stats.nodes > 0


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


def test_recheck_record_catches_tampering():
    record = run_one(InstanceSpec("example2"), PLURALITY)
    assert recheck_record(record)
    record.metrics.per_winner[0].gap += 1
    assert not recheck_record(record)


def test_source_descriptor_round_trip():
    for source in (
        InstanceSpec("g_k", 2),
        RandomSpec(n=5, p=0.3, max_out=1, seed=11),
    ):
        desc = json.loads(json.dumps(instance_descriptor(source)))
        assert source_from_descriptor(desc) == source


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
    assert lines[0].startswith("rule,records,solved")
    assert len(lines) == 3
