"""Output checker for the benchmark, kept apart from the program.

It imports nothing from ``seqvote``.  It reads plain graph JSON (the
``{"n", "edges", "voting_order", "tiebreak_order", "names"}`` format) and the
results the program printed (``seqvote solve`` documents, ``seqvote report``
CSV) or recorded (``seqvote metrics`` JSONL records), and re-derives from the
model's definitions what those results must be:

* the achievable-winner set, by a brute-force SPE recursion over every legal
  ballot at every state (no pruning, no dead-agent canonicalization, exact
  rational utilities), for every instance with at most ``LEAF_LIMIT`` leaves;
* each winner's popularity, gap and ratio, from in-degrees;
* the factor-2 popularity bounds (approval: every winner, plurality: some
  winner);
* a replay of every policy path: legal ballots, the elected agent, and that
  agent's membership in the winner set;
* the catalog claims of the paper and of the repository's acceptance suite.

Every check function takes a workload's output directory and a
:class:`BruteForceCache` and returns a list of error strings; an empty list
means the outputs are correct.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from itertools import combinations
from pathlib import Path

# The brute-force recursion runs on games with at most this many leaves (the
# product of the voters' ballot counts): plurality up to n = 7, 2-approval and
# approval up to n = 5.  Its memo on exact states keeps those to about 0.1 s.
LEAF_LIMIT = 10_000_000

# Claims about catalog instances: the paper's examples and constructions as
# the acceptance suite pins them.  Keys are (catalog name, k, rule label).
CATALOG_CLAIMS = {
    ("example1", None, "plurality"): {"W": ["1"]},
    ("example1", None, "approval"): {"W": ["5"]},
    ("example2", None, "plurality"): {"W": ["3"], "gap": {"3": 0}},
    ("example2", None, "approval"): {"W": ["4"]},
    ("plurality_chain_fig5", None, "plurality"): {"in_W": ["c3"], "ratio": {"c3": Fraction(3)}},
    ("g_k", 2, "plurality"): {"W": ["c3"], "gap": {"c3": 2}},
    ("plurality_chain", 3, "plurality"): {"in_W": ["c3"], "r_max_at_least": 3},
    ("plurality_chain", 4, "plurality"): {"in_W": ["c4"], "r_max_at_least": 4},
    ("h_k", 2, "plurality"): {"in_W": ["m"]},
    ("h_k", 2, "approval"): {"W": ["c1"], "ratio": {"c1": Fraction(3, 2)}},
}


class Graph:
    """Plain graph data: out-neighbour sets, voting and tie-breaking orders."""

    def __init__(self, doc: dict):
        self.n = doc["n"]
        self.edges = [tuple(e) for e in doc["edges"]]
        self.order = list(doc.get("voting_order", range(self.n)))
        self.tiebreak = list(doc.get("tiebreak_order", range(self.n)))
        self.names = doc.get("names")
        self.out = [set() for _ in range(self.n)]
        for src, dst in self.edges:
            self.out[src].add(dst)

    def in_degrees(self, without_source=None) -> list[int]:
        deg = [0] * self.n
        for src, dst in self.edges:
            if src != without_source:
                deg[dst] += 1
        return deg

    def name(self, a: int) -> str:
        return self.names[a] if self.names else str(a)


def rule_cap(rule: dict, n: int) -> int:
    """Most agents one ballot may approve under a rule record ``{"kind", "cap"}``."""
    if rule["kind"] == "plurality":
        return 1
    if rule["kind"] == "approval":
        return n - 1
    return rule["cap"]


def rule_label(rule: dict) -> str:
    return rule["kind"] if rule.get("cap") is None else f"{rule['kind']}({rule['cap']})"


def elected(scores, tiebreak) -> int:
    top = max(scores)
    return next(a for a in tiebreak if scores[a] == top)


def brute_force_winners(g: Graph, cap: int) -> set[int] | None:
    """Agents elected in at least one SPE, or None past ``LEAF_LIMIT`` leaves.

    Voter ``x`` values outcome ``w`` after casting ballot ``b`` at
    ``L(w) + eps^2 f - eps u``, with ``L`` 1 for itself, 1/2 for an agent it
    confirms and 0 otherwise, ``f`` and ``u`` the confirmed and unconfirmed
    agents on ``b``, and ``eps = 1/(2n+1)``; the values below are that
    utility times ``2 (2n+1)^2``, so they are exact integers.  A subgame
    equilibrium may answer each deviation with any equilibrium of the
    deviation's own subgame, so ``w`` is achievable through ``b`` exactly when
    ``w`` is achievable after ``b`` and every other ballot ``b'`` has an
    achievable continuation that ``x`` values no higher than ``(b, w)``.
    """
    n = g.n
    d = 2 * n + 1
    level2 = [[2 if w == x else 1 if w in g.out[x] else 0 for w in range(n)] for x in range(n)]
    # per voter: (ballot, its truth bonus 2f - 2u(2n+1)) in a fixed order
    ballots = []
    for x in range(n):
        others = [a for a in range(n) if a != x]
        entries = []
        for size in range(min(cap, n - 1) + 1):
            for b in combinations(others, size):
                f = sum(1 for a in b if a in g.out[x])
                entries.append((b, 2 * f - 2 * (size - f) * d))
        ballots.append(entries)
    if math.prod(len(entries) for entries in ballots) > LEAF_LIMIT:
        return None
    memo: dict = {}

    def solve(i: int, scores: tuple) -> frozenset:
        if i == n:
            return frozenset((elected(scores, g.tiebreak),))
        key = (i, scores)
        hit = memo.get(key)
        if hit is not None:
            return hit
        x = g.order[i]
        scale = [lv * d * d for lv in level2[x]]
        children = []
        worst = []
        for b, bonus in ballots[x]:
            s = list(scores)
            for a in b:
                s[a] += 1
            c = solve(i + 1, tuple(s))
            children.append(c)
            worst.append(min(scale[w] for w in c) + bonus)
        # the highest worst value among the other ballots, for each ballot
        m = len(worst)
        prefix = [-math.inf] * (m + 1)
        suffix = [-math.inf] * (m + 1)
        for j in range(m):
            prefix[j + 1] = max(prefix[j], worst[j])
            suffix[m - 1 - j] = max(suffix[m - j], worst[m - 1 - j])
        out = set()
        for j, ((_b, bonus), c) in enumerate(zip(ballots[x], children)):
            best_other = max(prefix[j], suffix[j + 1])
            out.update(w for w in c if scale[w] + bonus >= best_other)
        result = frozenset(out)
        memo[key] = result
        return result

    return set(solve(0, (0,) * n))


def expected_metrics(g: Graph, w: int) -> dict:
    """Popularity, gap and ratio of winner ``w``, ignoring w's own out-edges."""
    popularity = g.in_degrees()[w]
    top = max(g.in_degrees(without_source=w))
    if popularity == 0:
        ratio = Fraction(1) if top == 0 else math.inf
    else:
        ratio = Fraction(top, popularity)
    return {"popularity": popularity, "top": top, "gap": top - popularity, "ratio": ratio}


def ratio_from_json(value):
    return math.inf if value == "inf" else Fraction(value[0], value[1])


def check_metrics_block(g: Graph, rule: dict, metrics: dict, label: str) -> list[str]:
    """Winner metrics recomputed from in-degrees, and the factor-2 bounds."""
    errors = []
    winners = metrics["winners"]
    per = {m["agent"]: m for m in metrics["per_winner"]}
    if not winners:
        return [f"{label}: empty winner set"]
    if sorted(per) != sorted(winners):
        errors.append(f"{label}: per-winner metrics cover {sorted(per)}, winners are {winners}")
        return errors
    expected = {w: expected_metrics(g, w) for w in winners}
    for w, e in expected.items():
        m = per[w]
        got = (m["popularity"], m["top_popularity_without_own_edges"], m["gap"])
        if got != (e["popularity"], e["top"], e["gap"]):
            errors.append(f"{label}: winner {g.name(w)} popularity/top/gap {got}, expected "
                          f"{(e['popularity'], e['top'], e['gap'])}")
        if ratio_from_json(m["ratio"]) != e["ratio"]:
            errors.append(f"{label}: winner {g.name(w)} ratio {m['ratio']}, expected {e['ratio']}")
    ratios = [e["ratio"] for e in expected.values()]
    if metrics["instance_gap"] != min(e["gap"] for e in expected.values()):
        errors.append(f"{label}: instance_gap {metrics['instance_gap']} is not the least gap")
    if ratio_from_json(metrics["r_min"]) != min(ratios) or ratio_from_json(metrics["r_max"]) != max(ratios):
        errors.append(f"{label}: r_min/r_max {metrics['r_min']}/{metrics['r_max']} disagree with the ratios")
    within = [e["top"] <= 2 * e["popularity"] for e in expected.values()]
    if rule["kind"] == "approval" and not all(within):
        errors.append(f"{label}: an approval winner is outside twice its popularity")
    if rule["kind"] == "plurality" and not any(within):
        errors.append(f"{label}: no plurality winner is within twice its popularity")
    return errors


def replay_path(g: Graph, cap: int, path, policy_winner: int, winners, label: str) -> list[str]:
    """Cast the path's ballots in voting order; they must be legal and elect
    the policy winner, which must be in the winner set."""
    if len(path) != g.n:
        return [f"{label}: policy path has {len(path)} ballots for {g.n} voters"]
    scores = [0] * g.n
    for i, ballot in enumerate(path):
        x = g.order[i]
        legal = (
            len(set(ballot)) == len(ballot) <= cap
            and all(isinstance(a, int) and 0 <= a < g.n and a != x for a in ballot)
        )
        if not legal:
            return [f"{label}: voter {g.name(x)} casts illegal ballot {ballot}"]
        for a in ballot:
            scores[a] += 1
    errors = []
    w = elected(scores, g.tiebreak)
    if w != policy_winner:
        errors.append(f"{label}: policy path elects {g.name(w)}, output says {policy_winner}")
    if policy_winner not in winners:
        errors.append(f"{label}: policy winner {policy_winner} is not in W={winners}")
    return errors


def check_claims(g: Graph, claim: dict, doc: dict, label: str) -> list[str]:
    names = sorted(g.name(w) for w in doc["winners"])
    ratios = {g.name(m["agent"]): ratio_from_json(m["ratio"]) for m in doc["metrics"]["per_winner"]}
    gaps = {g.name(m["agent"]): m["gap"] for m in doc["metrics"]["per_winner"]}
    errors = []
    if "W" in claim and names != claim["W"]:
        errors.append(f"{label}: W={names}, the paper gives {claim['W']}")
    for a in claim.get("in_W", []):
        if a not in names:
            errors.append(f"{label}: {a} not in W={names}")
    for a, r in claim.get("ratio", {}).items():
        if ratios.get(a) != r:
            errors.append(f"{label}: ratio({a})={ratios.get(a)}, the paper gives {r}")
    for a, gap in claim.get("gap", {}).items():
        if gaps.get(a) != gap:
            errors.append(f"{label}: gap({a})={gaps.get(a)}, the paper gives {gap}")
    if "r_max_at_least" in claim and not max(ratios.values()) >= claim["r_max_at_least"]:
        errors.append(f"{label}: r_max below {claim['r_max_at_least']}")
    return errors


class BruteForceCache:
    """Brute-force results per (graph, rule), so repeated rounds cost one
    recursion; counts the outputs checked against it and those too large."""

    def __init__(self):
        self._cache: dict = {}
        self.checked = 0
        self.too_large = 0

    def winners(self, g: Graph, graph_doc: dict, rule: dict) -> set[int] | None:
        key = (json.dumps(graph_doc, sort_keys=True), rule_label(rule))
        if key not in self._cache:
            self._cache[key] = brute_force_winners(g, rule_cap(rule, g.n))
        result = self._cache[key]
        if result is None:
            self.too_large += 1
        else:
            self.checked += 1
        return result


def check_solve_doc(graph_doc: dict, rule: dict, doc: dict, label: str,
                    brute: BruteForceCache, claim: dict | None = None) -> list[str]:
    """Every check that applies to one ``seqvote solve`` document."""
    g = Graph(graph_doc)
    winners = doc["winners"]
    if doc["metrics"]["winners"] != winners:
        return [f"{label}: winners {winners} differ from metrics winners {doc['metrics']['winners']}"]
    errors = check_metrics_block(g, rule, doc["metrics"], label)
    errors += replay_path(g, rule_cap(rule, g.n), doc["policy_path"], doc["policy_winner"], winners, label)
    expected = brute.winners(g, graph_doc, rule)
    if expected is not None and set(winners) != expected:
        errors.append(f"{label}: W={sorted(winners)}, brute force gives {sorted(expected)}")
    if claim is not None:
        errors += check_claims(g, claim, doc, label)
    return errors


def _read_json(path: Path):
    return json.loads(path.read_text())


def check_solve_outputs(out: Path, brute: BruteForceCache) -> list[str]:
    """``solves.json``: one entry per ``seqvote solve`` call, with its graph file."""
    errors = []
    for entry in _read_json(out / "solves.json"):
        label = entry["label"]
        if entry["exit_code"] != 0:
            errors.append(f"{label}: exit code {entry['exit_code']}")
            continue
        graph_doc = _read_json(out / entry["graph"])
        doc = json.loads(entry["output"])
        claim = None
        if entry.get("catalog") is not None:
            name, k = entry["catalog"]
            claim = CATALOG_CLAIMS.get((name, k, rule_label(entry["rule"])))
        errors += check_solve_doc(graph_doc, entry["rule"], doc, label, brute, claim)
    return errors


def check_solve_catalog(out: Path, brute: BruteForceCache) -> list[str]:
    errors = check_solve_outputs(out, brute)
    solved = {(*e["catalog"], rule_label(e["rule"])) for e in _read_json(out / "solves.json")}
    missing = set(CATALOG_CLAIMS) - solved
    if missing:
        errors.append(f"catalog claims with no solve: {sorted(map(str, missing))}")
    return errors


def check_metrics_ensemble(out: Path, brute: BruteForceCache) -> list[str]:
    """Records against their spec lists and the checker's recomputation, and
    the report CSV against the records."""
    errors = []
    manifest = _read_json(out / "metrics.json")
    by_label: dict = {}
    for run in manifest["runs"]:
        rule = run["rule"]
        if run["exit_code"] != 0:
            errors.append(f"metrics {rule_label(rule)}: exit code {run['exit_code']}")
            continue
        specs = [json.loads(line) for line in (out / run["specs"]).read_text().splitlines() if line]
        records = [json.loads(line) for line in (out / run["records"]).read_text().splitlines() if line]
        if len(records) != len(specs):
            errors.append(f"metrics {rule_label(rule)}: {len(records)} records for {len(specs)} specs")
            continue
        for spec, rec in zip(specs, records):
            label = f"{rule_label(rule)} {spec}"
            if rec["instance"] != spec or rec["rule"] != rule or rec["status"] != "ok":
                errors.append(f"{label}: record {rec['instance']} {rec['rule']} status {rec['status']}")
                continue
            g = Graph(rec["graph"])
            if g.n != spec["n"]:
                errors.append(f"{label}: graph has n={g.n}")
            errors += check_metrics_block(g, rule, rec["metrics"], label)
            # nonempty_winners, gaps_nonnegative and the rule's factor-2 verdict
            if not all(rec["verdicts"].values()) or len(rec["verdicts"]) != 3:
                errors.append(f"{label}: verdicts {rec['verdicts']}")
            expected = brute.winners(g, rec["graph"], rule)
            if expected is not None and set(rec["metrics"]["winners"]) != expected:
                errors.append(f"{label}: W={rec['metrics']['winners']}, brute force gives {sorted(expected)}")
            row = by_label.setdefault(rule_label(rule), {"records": 0, "ratios": [], "gaps": {}})
            row["records"] += 1
            row["ratios"].append(max(expected_metrics(g, w)["ratio"] for w in rec["metrics"]["winners"]))
            gap = min(expected_metrics(g, w)["gap"] for w in rec["metrics"]["winners"])
            row["gaps"][gap] = row["gaps"].get(gap, 0) + 1
    report = manifest["report"]
    if report["exit_code"] != 0:
        errors.append(f"report: exit code {report['exit_code']}")
        return errors
    rows = list(csv.DictReader(io.StringIO((out / report["csv"]).read_text())))
    if sorted(r["rule"] for r in rows) != sorted(by_label):
        errors.append(f"report rules {[r['rule'] for r in rows]}, records have {sorted(by_label)}")
    for r in rows:
        want = by_label.get(r["rule"])
        if want is None:
            continue
        top = max(want["ratios"])
        hist = ";".join(f"{gap}:{c}" for gap, c in sorted(want["gaps"].items()))
        ratio_ok = r["max_r_max"] == "inf" if top == math.inf else (
            r["max_r_max"] != "inf" and math.isclose(float(r["max_r_max"]), float(top), rel_tol=1e-5))
        if (int(r["records"]), int(r["solved"]), int(r["failures"]), int(r["violations"])) != (
                want["records"], want["records"], 0, 0) or r["gap_histogram"] != hist or not ratio_ok:
            errors.append(f"report row {dict(r)} disagrees with the records")
    return errors


def check_verify_checks(out: Path, brute: BruteForceCache) -> list[str]:
    """Every check passed over its full spec list, and the sampled oracle
    instances match the brute-force recursion."""
    errors = []
    manifest = _read_json(out / "verify.json")
    n_oracle = len(manifest["oracle_specs"])
    n_plurality = len(manifest["plurality_bound_specs"])
    if (n_oracle, n_plurality) != (300, 300):
        errors.append(f"spec lists have {n_oracle} and {n_plurality} entries, expected 300 and 300")
    want = {
        "oracle_equivalence": f"{3 * n_oracle} solver/oracle comparisons, 0 mismatches",
        "plurality_bound_suite": f"{n_plurality} instances, 0 hard violations, ",
    }
    for result in manifest["results"]:
        name = result["name"]
        if not result["passed"] or not result["detail"].startswith(want.get(name, "\0")):
            errors.append(f"check {name}: passed={result['passed']} detail={result['detail']!r}")
    names = [r["name"] for r in manifest["results"]]
    if not names or set(names) != set(want) or names.count(names[0]) * len(want) != len(names):
        errors.append(f"verify results are incomplete: {names}")
    errors += check_solve_outputs(out, brute)
    if brute.checked != len(_read_json(out / "solves.json")):
        errors.append(f"brute force covered {brute.checked} of the sampled oracle instances")
    return errors


CHECKS = {
    "solve_catalog": check_solve_catalog,
    "metrics_ensemble": check_metrics_ensemble,
    "verify_checks": check_verify_checks,
}
