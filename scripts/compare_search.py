"""Compare the search engines of two seqvote source trees, result for result.

    python3 scripts/compare_search.py OLD_TREE [NEW_TREE]

Each tree is a checkout of this repository (``NEW_TREE`` defaults to the one
holding this script).  Both trees' ``src/seqvote`` are loaded side by side in
one process, under package names of their own, and run on the same fixed list
of games.  Each game and configuration gives one comparison of:

- the winner set of a set-only search;
- the policy winner, path and winner set under the canonical policy and
  under ``bias_toward``;
- all six ``SolveStats`` counters of each of those searches;
- the ``BudgetExceededError`` message and counters (or the result, if the
  search fits) at a node budget of a third of the search's nodes;
- on small games, all of the above with pruning off;
- ``verify.record_fingerprint`` of ``run_one`` records, the same of each
  record read back from its ``write_records`` line and whether writing it
  again gives the same line, and ``summary_csv`` over all of those records,
  with wall times masked;
- each game's graph document (``network.to_json_dict``), the same with the
  game's voting order reversed and its tie-break order rotated, and each of
  those records' spec (``experiments.instance_descriptor``), and whether
  reading it back (``from_json_dict``, ``source_from_descriptor``) gives the
  same graph or spec;
- the winner set of ``naive_achievable_winners`` (or its ``NaiveSizeError``
  message) on the 300 ``oracle_specs()`` games, on every digraph with n <= 3
  under three rules, and on the ``LARGE`` games, whose trees pass its limit;
- each tree's set-only winner set against perfbench's independent
  ``checker.brute_force_winners``, on every game searched from its root whose
  tree fits the checker's ``LEAF_LIMIT`` (``reference`` in the tally);
- the exit code and stdout, wall times masked, of ``python -B -m
  seqvote.cli`` run in a subprocess with ``PYTHONPATH=<tree>/src`` over
  ``CLI_RUNS``: ``solve`` on ``example2`` and ``g_k(2)`` and ``metrics`` over
  both under plurality, approval and 2-approval, ``report`` over those
  records, ``metrics`` over a spec file, and four invalid rule or budget
  options (``cli`` in the tally).  Stderr is not compared.

The games are the 300 ``oracle_specs()`` games, each also from a mid-game
state, the first 150 ``plurality_bound_specs()`` games, 150 seeded random
games with n <= 7 under three rules, nine seeded random games with n =
9-12 (``LARGE``: five under plurality, four under 2-approval), and fifteen
catalog games, among them every game of perfbench's ``solve_catalog``
workload and ``plurality_chain(5)`` and ``(6)`` (n = 14 and 17).  Each of
the larger games takes under a second per search.  It prints
``comparisons N, mismatches M`` with the first mismatches, the gravest kind
first (see below), and a tally of all of them by configuration label
(``no-pruning/set/budget 69``, ``record`` for fingerprints, ``oracle``
for the reference oracle and ``cli`` for the commands).

The budget stops sit at a third of each tree's own node count, so a change
that shrinks the tree moves every one of them, and counters move wherever
a search meets a smaller tree.  The mismatches are also split by kind, so
those do not hide a moved result:

- ``results``: both searches completed and their winner sets, policy
  winners or paths differ, the two oracles give different winner sets or
  size errors, or a tree's set-only winner set is not the brute force's;
- ``fingerprints``: run-record fingerprints, their JSONL round trip, the
  report CSV, a graph document or spec or its round trip, or a command's
  exit code or stdout differ;
- ``counters only``: both completed with the same result, other counters;
- ``budget stops``: at least one of the two searches stopped on its budget;
- ``grown``: completed searches (of any configuration, matched or not)
  whose ``nodes`` or ``cache_size`` is larger in ``NEW_TREE``.

It also prints each tree's ``nodes`` and ``cache_size`` summed over the
searches that completed in both, so that a change to what the memo stores
shows its size.

It exits 1 if there is any ``results`` or ``fingerprints`` mismatch or any
``grown`` search, and 0 otherwise: an exact cut that shrinks the tree makes
counter-only and budget-stop mismatches, which it prints but does not fail
on.

It takes about a minute on one core; it is a tool for checking a change to
the search core, not part of the test suite.
"""

from __future__ import annotations

import importlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import types
from collections import Counter
from pathlib import Path

COUNTERS = ("nodes", "cache_hits", "cache_size", "quiescent", "bound_skips", "memo_aliases")
KINDS = ("results", "fingerprints", "counters only", "budget stops")  # of mismatch, gravest first
FATAL = KINDS[:2]  # the kinds that fail the comparison, with any grown search
GROWTH = (COUNTERS.index("nodes"), COUNTERS.index("cache_size"))  # must not grow
SMALL_N = 4  # games this small also run with pruning off
# Seeded random games with n = 9-12: (n, p, seed, rule name).
LARGE = [
    (9, 0.15, 7500, "plurality"),
    (10, 0.15, 7501, "plurality"),
    (11, 0.15, 7502, "plurality"),
    (12, 0.15, 7503, "plurality"),
    (10, 0.3, 7509, "plurality"),
    (9, 0.15, 7504, "2-approval"),
    (10, 0.15, 7505, "2-approval"),
    (11, 0.1, 7515, "2-approval"),
    (12, 0.05, 7517, "2-approval"),
]

RULES = {"plurality": ["--rule", "plurality"], "approval": ["--rule", "approval"],
         "2-approval": ["--rule", "k-approval", "--k", "2"]}
# (label, arguments) of every command run on both trees, in a directory that
# holds graphs/example2.json, graphs/g_k2.json and specs.jsonl.  The report
# reads the records that the tree's three metrics/<rule> runs printed.
CLI_RUNS = [
    *((f"solve/{graph}/{rule}", ["solve", "--graph", f"graphs/{graph}.json", *args])
      for graph in ("example2", "g_k2") for rule, args in RULES.items()),
    *((f"metrics/{rule}", ["metrics", "--in", "graphs", *args]) for rule, args in RULES.items()),
    ("report", ["report", "--in", "records.jsonl"]),
    ("metrics/specs", ["metrics", "--in", "specs.jsonl", *RULES["plurality"]]),
    ("invalid/no-k", ["solve", "--graph", "graphs/example2.json", "--rule", "k-approval"]),
    ("invalid/plurality-k", ["solve", "--graph", "graphs/example2.json", *RULES["plurality"],
                             "--k", "2"]),
    ("invalid/k-0", ["metrics", "--in", "graphs", "--rule", "k-approval", "--k", "0"]),
    ("invalid/max-nodes", ["metrics", "--in", "graphs", *RULES["plurality"], "--max-nodes", "-1"]),
]
SPECS = [{"kind": "catalog", "name": "example1"}, {"kind": "catalog", "name": "g_k", "k": 2},
         {"kind": "random", "n": 5, "p": 0.4, "seed": 1}]
WALL = re.compile(r'"wall_seconds": [^,}]+')


def load_checker():
    """perfbench's checker, imported as the tests import it."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    return importlib.import_module("checker")


def reference(checker, sv, g, rule) -> list[int] | None:
    """The checker's brute-force winner set of ``g``, or None past its leaf limit."""
    winners = checker.brute_force_winners(
        checker.Graph(sv.network.to_json_dict(g)), rule.ballot_cap(g.n))
    return None if winners is None else sorted(winners)


def load(tree: Path, name: str) -> types.SimpleNamespace:
    """Import ``tree``'s seqvote modules as the package ``name``."""
    package = types.ModuleType(name)
    package.__path__ = [str(tree / "src" / "seqvote")]
    sys.modules[name] = package
    return types.SimpleNamespace(
        **{
            mod: importlib.import_module(f"{name}.{mod}")
            for mod in ("balloting", "engine", "experiments", "families", "network", "verify")
        }
    )


def games(sv) -> list[tuple[str, object, object, object]]:
    """(label, graph, rule, root state or None), the same list for any tree."""
    fam, verify, b = sv.families, sv.verify, sv.balloting
    rules = (b.PLURALITY, b.APPROVAL, b.k_approval(2))
    out = []
    for spec, rule in verify.oracle_specs():
        g = fam.gen_random(spec)
        out.append((f"oracle/{spec.seed}/{rule.label()}", g, rule, None))
        # A mid-game root: the first half of the voters cast random legal ballots.
        rng = random.Random(spec.seed)
        scores = (0,) * g.n
        for i in range(g.n // 2 + 1):
            ballot = rng.choice(b.legal_ballots(rule, g.voting_order[i], g.n))
            scores = b.apply_ballot(scores, ballot)
        state = sv.engine.SubgameState(g.n // 2 + 1, scores)
        out.append((f"oracle/{spec.seed}/{rule.label()}/mid", g, rule, state))
    for spec in verify.plurality_bound_specs()[:150]:
        out.append((f"plurality_bound/{spec.seed}", fam.gen_random(spec), b.PLURALITY, None))
    for j in range(150):
        spec = fam.RandomSpec(n=3 + j % 5, p=(0.2, 0.4, 0.6)[j % 3], max_out=None, seed=7000 + j)
        rule = rules[j % 3]
        out.append((f"random/{spec.seed}/{rule.label()}", fam.gen_random(spec), rule, None))
    for n, p, seed, rule_name in LARGE:
        spec = fam.RandomSpec(n=n, p=p, max_out=None, seed=seed)
        rule = b.PLURALITY if rule_name == "plurality" else b.k_approval(2)
        out.append((f"large/{spec.seed}/{rule.label()}", fam.gen_random(spec), rule, None))
    for name, k, rule in (
        ("example1", None, b.PLURALITY),
        ("example1", None, b.APPROVAL),
        ("example2", None, b.PLURALITY),
        ("example2", None, b.APPROVAL),
        ("g_k", 2, b.PLURALITY),
        ("plurality_chain_fig5", None, b.PLURALITY),
        ("plurality_chain", 3, b.PLURALITY),
        ("plurality_chain", 4, b.PLURALITY),
        ("plurality_chain", 5, b.PLURALITY),
        ("plurality_chain", 6, b.PLURALITY),
        ("h_k", 2, b.PLURALITY),
        ("kapproval_chain", 2, b.PLURALITY),
        ("kapproval_chain", 1, b.k_approval(2)),
        ("kapproval_chain", 2, b.k_approval(2)),
        ("h_k", 2, b.APPROVAL),
    ):
        g = fam.gen_paper_instance(fam.InstanceSpec(name, k))
        out.append((f"catalog/{name}({k})/{rule.label()}", g, rule, None))
    return out


def counters(solver) -> tuple:
    stats = solver.last_stats.as_dict()
    return tuple(stats[c] for c in COUNTERS)


def outcome(engine, g, rule, state, policy, budget=None, **config) -> tuple:
    """Everything one search reports, or its budget error."""
    solver = engine.Solver(g, rule, budget=budget, **config)
    try:
        if policy is None:
            result = (sorted(solver.achievable_winners(state)),)
        else:
            spe = solver.policy_spe(policy, state)
            result = (sorted(spe.winners), spe.winner, [sorted(b) for b in spe.path])
    except engine.BudgetExceededError as exc:
        stats = exc.stats.as_dict()
        return ("budget", str(exc), tuple(stats[c] for c in COUNTERS))
    return ("ok", result, counters(solver))


def runs(sv, g, rule, state):
    """(label, outcome) for every configuration of one game."""
    engine = sv.engine
    policies = [
        ("set", None),
        ("canonical", engine.Policy.canonical()),
        ("bias", engine.Policy.bias_toward(g.n - 1)),
    ]
    configs = [("pruning", {})]
    if g.n <= SMALL_N:
        configs.append(("no-pruning", {"use_pruning": False}))
    for config_label, config in configs:
        for policy_label, policy in policies:
            label = f"{config_label}/{policy_label}"
            full = outcome(engine, g, rule, state, policy, **config)
            yield label, full
            budget = engine.Budget(max_nodes=full[2][0] // 3)
            yield label + "/budget", outcome(engine, g, rule, state, policy, budget, **config)


def fingerprints(sv):
    """(label, value) for each record, its JSONL round trip, then the report;
    then each game's graph document and each record's spec, each read back."""
    ex, net, fingerprint = sv.experiments, sv.network, sv.verify.record_fingerprint
    records = []
    sources = sv.verify.determinism_sources()
    for source, rule in sources:
        for pruning in (True, False):
            record = ex.run_one(source, rule, use_pruning=pruning)
            label = f"record/{record.instance}/{rule.label()}/{pruning}"
            yield label, fingerprint(record)
            record.stats["wall_seconds"] = 0.0
            line = io.StringIO()
            ex.write_records([record], line)
            again = ex.read_records(io.StringIO(line.getvalue()))
            rewritten = io.StringIO()
            ex.write_records(again, rewritten)
            yield label + "/round-trip", (fingerprint(again[0]), rewritten.getvalue() == line.getvalue())
            records.append(record)
    yield "report", ex.summary_csv(ex.summarize(records))
    for label, g, _rule, state in games(sv):
        if state is not None:
            continue
        # Every game's orders are the identity, so a twin with both moved is read back too.
        order = list(range(g.n))
        moved = net.ConfirmationNetwork.build(g.n, g.edges, order[::-1], order[1:] + order[:1])
        for suffix, graph in (("", g), ("/reordered", moved)):
            doc = net.to_json_dict(graph)
            again = net.from_json_dict(json.loads(json.dumps(doc)))
            yield f"graph/{label}{suffix}", (doc, again == graph)
    for source, rule in sources:
        desc = ex.instance_descriptor(source)
        again = ex.source_from_descriptor(json.loads(json.dumps(desc)))
        yield f"spec/{desc}/{rule.label()}", (desc, again == source)


def oracles(sv):
    """(label, winner set or size error) of the reference oracle on each game."""
    b, engine = sv.balloting, sv.engine
    rules = (b.PLURALITY, b.APPROVAL, b.k_approval(2))
    cases = [
        (label, g, rule)
        for label, g, rule, state in games(sv)
        if state is None and label.startswith(("oracle/", "large/"))
    ]
    for n in (1, 2, 3):
        pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
        for mask in range(1 << len(pairs)):
            edges = [pair for j, pair in enumerate(pairs) if mask >> j & 1]
            g = sv.network.ConfirmationNetwork.build(n, edges)
            cases += [(f"digraph/{n}/{mask}/{rule.label()}", g, rule) for rule in rules]
    for label, g, rule in cases:
        try:
            yield f"naive/{label}", sorted(engine.naive_achievable_winners(g, rule))
        except engine.NaiveSizeError as exc:
            yield f"naive/{label}", str(exc)


def cli_outputs(sv, tree: Path):
    """(label, (exit code, stdout)) of each ``CLI_RUNS`` command on ``tree``,
    wall times masked, with its input files written by ``sv``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "graphs").mkdir()
        for name, k, file in (("example2", None, "example2"), ("g_k", 2, "g_k2")):
            g = sv.families.gen_paper_instance(sv.families.InstanceSpec(name, k))
            (work / "graphs" / f"{file}.json").write_text(sv.network.serialize(g))
        (work / "specs.jsonl").write_text("".join(json.dumps(s) + "\n" for s in SPECS))
        printed = {}
        for label, args in CLI_RUNS:
            if label == "report":
                records = "".join(printed[f"metrics/{rule}"] for rule in RULES)
                (work / "records.jsonl").write_text(records)
            proc = subprocess.run([sys.executable, "-B", "-m", "seqvote.cli", *args], cwd=work,
                                  env=env, capture_output=True, text=True)
            printed[label] = WALL.sub('"wall_seconds": 0.0', proc.stdout)
            yield f"cli/{label}", (proc.returncode, printed[label])


def kind(config: str, a: tuple, b: tuple) -> str:
    """The kind of a mismatch between outcomes ``a`` (old) and ``b`` (new)."""
    if config in ("oracle", "reference"):
        return "results"
    if config in ("record", "cli"):
        return "fingerprints"
    if a[0] == "budget" or b[0] == "budget":
        return "budget stops"
    return "results" if a[1] != b[1] else "counters only"


def main(argv: list[str]) -> int:
    if not 2 <= len(argv) <= 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    old_tree = Path(argv[1]).resolve()
    new_tree = Path(argv[2]).resolve() if len(argv) == 3 else Path(__file__).resolve().parents[1]
    old, new = load(old_tree, "seqvote_old"), load(new_tree, "seqvote_new")
    checker = load_checker()
    comparisons = completed = grown = 0
    size = {"old": [0, 0], "new": [0, 0]}  # summed nodes and cache_size of completed searches
    mismatches = []
    for (label, g_old, rule_old, state_old), (_, g_new, rule_new, state_new) in zip(
        games(old), games(new)
    ):
        brute = reference(checker, new, g_new, rule_new) if state_new is None else None
        for (config, a), (_, b) in zip(
            runs(old, g_old, rule_old, state_old), runs(new, g_new, rule_new, state_new)
        ):
            if config == "pruning/set" and brute is not None:
                for tree, result in (("old", a), ("new", b)):
                    comparisons += 1
                    if result[:2] != ("ok", (brute,)):
                        mismatches.append((f"{label}/{tree}/reference", "reference",
                                           result[:2], ("ok", (brute,))))
            comparisons += 1
            if a[0] == b[0] == "ok":
                completed += 1
                grown += any(b[2][j] > a[2][j] for j in GROWTH)
                for tree, result in (("old", a), ("new", b)):
                    size[tree] = [total + result[2][j] for total, j in zip(size[tree], GROWTH)]
            if a != b:
                mismatches.append((f"{label}/{config}", config, a, b))
    for config, pairs in (
        ("record", zip(fingerprints(old), fingerprints(new))),
        ("oracle", zip(oracles(old), oracles(new))),
        ("cli", zip(cli_outputs(new, old_tree), cli_outputs(new, new_tree))),
    ):
        for (label, a), (_, b) in pairs:
            comparisons += 1
            if a != b:
                mismatches.append((label, config, a, b))
    print(f"comparisons {comparisons}, mismatches {len(mismatches)}")
    mismatches.sort(key=lambda m: KINDS.index(kind(m[1], m[2], m[3])))  # gravest first
    for label, _config, a, b in mismatches[:10]:
        print(f"  {label}:\n    old {a}\n    new {b}")
    if mismatches:
        tally = Counter(config for _label, config, _a, _b in mismatches)
        print("by configuration: " + ", ".join(f"{c} {m}" for c, m in tally.most_common()))
    kinds = Counter(kind(config, a, b) for _label, config, a, b in mismatches)
    print(", ".join(f"{k} {kinds[k]}" for k in KINDS))
    print(f"completed searches {completed}, grown {grown}")
    for tree in size:
        print(f"{tree} tree: nodes {size[tree][0]}, cache_size {size[tree][1]}")
    return 1 if grown or any(kinds[k] for k in FATAL) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
