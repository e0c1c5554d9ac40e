"""Self-contained verification suite behind ``seqvote verify-paper``.

Eight numbered checks: golden catalog instances, oracle equivalence,
three randomized invariant suites, truthful-ballot spot checks on
equilibrium paths, comparator equivalence, and determinism.  Each check
returns a :class:`CheckResult`; ``run_all`` runs them in order and never
raises for a failed check — failures are reported in the results so a
single run always produces the complete table.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, TextIO

from . import network as net
from .balloting import (
    Rule,
    APPROVAL,
    PLURALITY,
    is_truthful_class,
    k_approval,
)
from .engine import (
    Budget,
    BudgetExceededError,
    Policy,
    Solver,
    SubgameState,
    naive_achievable_winners,
)
from .experiments import instance_metrics, run_one, verdicts
from .families import (
    InstanceSpec,
    RandomSpec,
    agent_index,
    gen_paper_instance,
    gen_random,
)
from .network import ConfirmationNetwork
from .preferences import key_from_parts, utility_from_parts


@dataclass
class CheckResult:
    name: str
    passed: bool
    seconds: float
    detail: str


# One path observed along one selected equilibrium: enough to audit the
# truthful-ballot observation after the randomized suites have run.
@dataclass
class PathSample:
    g: ConfirmationNetwork
    rule: Rule
    path: list[frozenset[int]]
    winner: int


def _log(log: TextIO | None, msg: str) -> None:
    if log is not None:
        log.write(msg + "\n")
        log.flush()


def _timed(fn: Callable[[], tuple[bool, str]], name: str) -> CheckResult:
    t0 = time.monotonic()
    try:
        passed, detail = fn()
    except BudgetExceededError as exc:
        passed, detail = False, f"budget exceeded: {exc}"
    return CheckResult(name, passed, time.monotonic() - t0, detail)


def _winner_names(g: ConfirmationNetwork, winners) -> list[str]:
    return sorted(g.names[w] for w in winners) if g.names else sorted(map(str, winners))


# -- deterministic instance ensembles -------------------------------------------

_P_CYCLE = (0.15, 0.3, 0.5, 0.75)


def oracle_specs() -> list[tuple[RandomSpec, Rule]]:
    """100 instances per rule, sized so the unmemoized oracle stays feasible."""
    specs: list[tuple[RandomSpec, Rule]] = []
    for j in range(100):
        p = _P_CYCLE[j % len(_P_CYCLE)]
        specs.append((RandomSpec(n=2 + j % 4, p=p, max_out=None, seed=1000 + j), PLURALITY))
    for j in range(100):
        p = _P_CYCLE[j % len(_P_CYCLE)]
        specs.append((RandomSpec(n=2 + j % 3, p=p, max_out=None, seed=2000 + j), APPROVAL))
    for j in range(100):
        p = _P_CYCLE[j % len(_P_CYCLE)]
        specs.append((RandomSpec(n=2 + j % 3, p=p, max_out=None, seed=3000 + j), k_approval(2)))
    return specs


_LOW_OUT_SIZES = (3, 4, 5, 6, 7, 3, 4, 5, 6, 5)  # lighter tail keeps the suite fast


def low_outdegree_specs() -> list[RandomSpec]:
    """200 graphs where every agent confirms at most one other agent."""
    return [
        RandomSpec(
            n=_LOW_OUT_SIZES[j % len(_LOW_OUT_SIZES)],
            p=_P_CYCLE[j % len(_P_CYCLE)],
            max_out=1,
            seed=4000 + j,
        )
        for j in range(200)
    ]


def approval_bound_specs() -> list[RandomSpec]:
    """200 unrestricted graphs for the approval factor-2 popularity bound."""
    return [
        RandomSpec(n=3 + j % 4, p=_P_CYCLE[j % len(_P_CYCLE)], max_out=None, seed=5000 + j)
        for j in range(200)
    ]


def plurality_bound_specs() -> list[RandomSpec]:
    """300 unrestricted graphs for the plurality factor-2 existence bound."""
    return [
        RandomSpec(n=3 + j % 5, p=_P_CYCLE[j % len(_P_CYCLE)], max_out=None, seed=6000 + j)
        for j in range(300)
    ]


def most_popular(g: ConfirmationNetwork) -> int:
    """Lowest-index agent of maximal popularity."""
    degrees = [len(g.in_neighbors[a]) for a in range(g.n)]
    return degrees.index(max(degrees))


# -- check 1: golden catalog instances ------------------------------------------


def check_golden_instances(log: TextIO | None = None) -> CheckResult:
    failures: list[str] = []

    def expect(label: str, ok: bool, got: str = "") -> None:
        _log(log, f"  golden {label}: {'ok' if ok else 'FAIL ' + got}")
        if not ok:
            failures.append(f"{label} ({got})" if got else label)

    def solve(g, rule, seconds=None):
        return Solver(g, rule, budget=Budget(max_seconds=seconds)).achievable_winners()

    def body() -> tuple[bool, str]:
        g1 = gen_paper_instance(InstanceSpec("example1"))
        names = _winner_names(g1, solve(g1, PLURALITY))
        expect("example1 plurality W={1}", names == ["1"], str(names))
        names = _winner_names(g1, solve(g1, APPROVAL))
        expect("example1 approval W={5}", names == ["5"], str(names))

        g2 = gen_paper_instance(InstanceSpec("example2"))
        w = solve(g2, PLURALITY)
        names = _winner_names(g2, w)
        expect("example2 plurality W={3}", names == ["3"], str(names))
        if names == ["3"]:
            gap = net.additive_gap(g2, agent_index(g2, "3"))
            expect("example2 plurality gap=0", gap == 0, str(gap))
        w = solve(g2, APPROVAL)
        names = _winner_names(g2, w)
        expect("example2 approval W={4}", names == ["4"], str(names))
        expect("example2 agent 4 most popular", most_popular(g2) == agent_index(g2, "4"))

        gk = gen_paper_instance(InstanceSpec("g_k", 2))
        w = solve(gk, PLURALITY)
        names = _winner_names(gk, w)
        expect("g_k(2) plurality W={c3}", names == ["c3"], str(names))
        if names == ["c3"]:
            gap = net.additive_gap(gk, agent_index(gk, "c3"))
            expect("g_k(2) gap=2", gap == 2, str(gap))
        w = solve(gk, APPROVAL, seconds=3600)
        names = _winner_names(gk, w)
        expect("g_k(2) approval W={c3}", names == ["c3"], str(names))
        # The walkthrough: once any d-type voter supports c1 the chain collapse
        # elects c2; when both d-type voters commit to c3 alone, c3 carries the
        # rest of the game.
        sv = Solver(gk, APPROVAL, budget=Budget(max_seconds=600))
        scores = [0] * gk.n
        scores[agent_index(gk, "c1")] = 1
        sub = sv.achievable_winners(SubgameState(1, tuple(scores)))
        names = _winner_names(gk, sub)
        expect("g_k(2) approval subgame d1a={c1} -> W={c2}", names == ["c2"], str(names))
        scores = [0] * gk.n
        scores[agent_index(gk, "c3")] = 2
        sub = sv.achievable_winners(SubgameState(2, tuple(scores)))
        names = _winner_names(gk, sub)
        expect("g_k(2) approval subgame d1={c3},{c3} -> W={c3}", names == ["c3"], str(names))

        fig5 = gen_paper_instance(InstanceSpec("plurality_chain_fig5"))
        w = solve(fig5, PLURALITY)
        c3 = agent_index(fig5, "c3")
        expect("fig5 c3 in W", c3 in w, str(_winner_names(fig5, w)))
        if c3 in w:
            expect("fig5 ratio(c3)=3", net.ratio(fig5, c3) == 3, str(net.ratio(fig5, c3)))
        for k in (3, 4, 5, 6):
            gc = gen_paper_instance(InstanceSpec("plurality_chain", k))
            w = solve(gc, PLURALITY, seconds=300)
            ck = agent_index(gc, f"c{k}")
            expect(f"plurality_chain({k}) c{k} in W", ck in w, str(_winner_names(gc, w)))
            if ck in w:
                r_max = max(net.ratio(gc, a) for a in w)
                expect(f"plurality_chain({k}) r_max>={k}", r_max >= k, str(r_max))

        ka = gen_paper_instance(InstanceSpec("kapproval_chain", 2))
        c3 = agent_index(ka, "c3")
        expect("kapproval_chain(2) ratio(c3)=3", net.ratio(ka, c3) == 3, str(net.ratio(ka, c3)))
        w = solve(ka, k_approval(2), seconds=1800)
        names = _winner_names(ka, w)
        expect("kapproval_chain(2) W={c1,c2}", names == ["c1", "c2"], str(names))

        hk = gen_paper_instance(InstanceSpec("h_k", 2))
        w = solve(hk, APPROVAL, seconds=300)
        names = _winner_names(hk, w)
        expect("h_k(2) approval W={c1}", names == ["c1"], str(names))
        if names == ["c1"]:
            r = net.ratio(hk, agent_index(hk, "c1"))
            expect("h_k(2) ratio(c1)=3/2", r == Fraction(3, 2), str(r))
        w = solve(hk, PLURALITY, seconds=60)
        expect("h_k(2) plurality m in W", agent_index(hk, "m") in w, str(_winner_names(hk, w)))

        if failures:
            return False, f"{len(failures)} failed: " + "; ".join(failures)
        return True, "all golden expectations hold"

    return _timed(body, "golden_instances")


# -- check 2: oracle equivalence ------------------------------------------------


def check_oracle_equivalence(log: TextIO | None = None) -> CheckResult:
    def body() -> tuple[bool, str]:
        mismatches = 0
        total = 0
        for spec, rule in oracle_specs():
            g = gen_random(spec)
            reference = naive_achievable_winners(g, rule)
            for use_memo, use_pruning in ((True, True), (True, False), (False, True)):
                got = Solver(
                    g, rule, use_memo=use_memo, use_pruning=use_pruning
                ).achievable_winners()
                total += 1
                if got != reference:
                    mismatches += 1
                    _log(
                        log,
                        f"  oracle mismatch seed={spec.seed} rule={rule.label()} "
                        f"memo={use_memo} pruning={use_pruning}: "
                        f"{sorted(got)} != {sorted(reference)}",
                    )
        return mismatches == 0, f"{total} solver/oracle comparisons, {mismatches} mismatches"

    return _timed(body, "oracle_equivalence")


# -- checks 3-5: randomized invariant suites ------------------------------------


def low_outdegree_verdict(g: ConfirmationNetwork, winners) -> tuple[bool, str]:
    """The guarantees of a game whose voters each confirm at most one agent,
    checked on its achievable set ``winners``.

    An agent's potential is the most votes it can still reach under
    confirmation-respecting play; for the whole game that is its in-degree.
    The winner must be unique, and its potential may fall short of the best
    potential by at most 1, and by exactly 1 only when the winner confirms
    some max-potential agent.  Returns the verdict and a one-line report.
    """
    for v in g.voting_order:
        if len(g.out_neighbors[v]) > 1:
            raise ValueError(
                f"remaining voter {v} has out-degree {len(g.out_neighbors[v])} > 1"
            )
    unique = len(winners) == 1
    w = min(winners)
    pots = [len(g.in_neighbors[a]) for a in range(g.n)]
    max_pot = max(pots)
    gap = max_pot - pots[w]
    bound = gap <= 0 or (
        gap == 1 and any(pots[m] == max_pot for m in g.out_neighbors[w])
    )
    passed = unique and bound
    report = (
        f"{'pass' if passed else 'FAIL'}: winner={w} unique={unique} "
        f"max_potential={max_pot} winner_potential={pots[w]}"
    )
    return passed, report


def check_low_outdegree_suite(
    samples: list[PathSample] | None = None, log: TextIO | None = None
) -> CheckResult:
    """Out-degree <= 1 ensemble: unique winner, zero gap, potential bound."""

    def body() -> tuple[bool, str]:
        violations = 0
        for spec in low_outdegree_specs():
            g = gen_random(spec)
            for rule in (PLURALITY, APPROVAL):
                spe = Solver(g, rule).policy_spe(Policy.canonical())
                winners = spe.winners
                ok = len(winners) == 1
                if ok:
                    (w,) = winners
                    ok = net.additive_gap(g, w) == 0
                passed, report = low_outdegree_verdict(g, winners)
                if not (ok and passed):
                    violations += 1
                    _log(
                        log,
                        f"  low-outdegree violation seed={spec.seed} rule={rule.label()}: "
                        f"W={sorted(winners)} report={report}",
                    )
                    continue
                if samples is not None:
                    samples.append(PathSample(g, rule, spe.path, spe.winner))
        return violations == 0, f"400 rule-instance runs, {violations} violations"

    return _timed(body, "low_outdegree_suite")


def check_approval_bound_suite(
    samples: list[PathSample] | None = None, log: TextIO | None = None
) -> CheckResult:
    """Approval: every achievable winner within a popularity factor of 2."""

    def body() -> tuple[bool, str]:
        violations = 0
        for spec in approval_bound_specs():
            g = gen_random(spec)
            spe = Solver(g, APPROVAL).policy_spe(Policy.canonical())
            metrics = instance_metrics(g, spe.winners)
            if not verdicts(APPROVAL, metrics)["every_winner_within_2d"]:
                violations += 1
                bad = [m.agent for m in metrics.per_winner if not m.within_factor_2]
                _log(
                    log,
                    f"  approval bound violation seed={spec.seed}: winners {bad} "
                    f"exceed twice their popularity; graph={net.serialize(g)}",
                )
                continue
            if samples is not None:
                samples.append(PathSample(g, APPROVAL, spe.path, spe.winner))
        return violations == 0, f"200 instances, {violations} violations"

    return _timed(body, "approval_bound_suite")


def check_plurality_bound_suite(
    samples: list[PathSample] | None = None, log: TextIO | None = None
) -> CheckResult:
    """Plurality: some achievable winner within a popularity factor of 2.

    The popularity-biased equilibrium selection is additionally expected to
    land on such a winner; a counterexample there is reported as a finding
    (with the offending instance serialized to the log) but does not fail
    the check — only the existence claim is hard.
    """

    def body() -> tuple[bool, str]:
        hard = 0
        soft = 0
        for spec in plurality_bound_specs():
            g = gen_random(spec)
            spe = Solver(g, PLURALITY).policy_spe(Policy.bias_toward(most_popular(g)))
            metrics = instance_metrics(g, spe.winners)
            if not verdicts(PLURALITY, metrics)["exists_winner_within_2d"]:
                hard += 1
                _log(
                    log,
                    f"  plurality existence violation seed={spec.seed}: "
                    f"W={metrics.winners}; graph={net.serialize(g)}",
                )
                continue
            if not metrics.per_winner[metrics.winners.index(spe.winner)].within_factor_2:
                soft += 1
                _log(
                    log,
                    f"  FINDING plurality bias-policy winner {spe.winner} outside bound "
                    f"seed={spec.seed}; graph={net.serialize(g)}",
                )
            if samples is not None:
                samples.append(PathSample(g, PLURALITY, spe.path, spe.winner))
        detail = f"300 instances, {hard} hard violations, {soft} bias-policy findings"
        return hard == 0, detail

    return _timed(body, "plurality_bound_suite")


# -- check 6: truthful ballots on equilibrium paths -----------------------------


def check_truthful_on_path(
    samples: list[PathSample], log: TextIO | None = None
) -> CheckResult:
    """On every sampled equilibrium path, each voter other than the winner who
    does not confirm the winner casts a truthful-class ballot.

    The winner is exempt: it may withhold support from a rival it confirms
    (abstention) precisely because that preserves its own election.
    """

    def body() -> tuple[bool, str]:
        violations = 0
        checked = 0
        for sample in samples:
            g = sample.g
            for i, ballot in enumerate(sample.path):
                x = g.voting_order[i]
                if x == sample.winner or sample.winner in g.out_neighbors[x]:
                    continue
                checked += 1
                if not is_truthful_class(g, sample.rule, x, ballot):
                    violations += 1
                    _log(
                        log,
                        f"  non-truthful ballot: voter {x} cast {sorted(ballot)} "
                        f"winner {sample.winner} rule={sample.rule.label()} "
                        f"graph={net.serialize(g)}",
                    )
        detail = (
            f"{len(samples)} paths, {checked} non-winner-confirming ballots, "
            f"{violations} violations"
        )
        return violations == 0, detail

    return _timed(body, "truthful_on_path")


# -- check 7: comparator equivalence --------------------------------------------


def check_comparator_equivalence(log: TextIO | None = None) -> CheckResult:
    """Lexicographic ballot key versus exact perturbed utility.

    For every network size up to 8, every feasible (level, approved-confirmed,
    approved-unconfirmed) combination, and 25 rational perturbations in the
    admissible range, the key order and the exact utility order must agree.
    """

    def body() -> tuple[bool, str]:
        disagreements = 0
        comparisons = 0
        for n in range(2, 9):
            outcomes = [
                (level, f, gcnt)
                for level in (0, 1, 2)
                for f in range(n)
                for gcnt in range(n - f)
            ]
            epsilons = [Fraction(j, 26 * 2 * n) for j in range(1, 26)]
            # Each outcome's utility under each epsilon, computed once.
            utilities = {a: [utility_from_parts(*a, eps) for eps in epsilons] for a in outcomes}
            for a in outcomes:
                for b in outcomes:
                    ka, kb = key_from_parts(*a), key_from_parts(*b)
                    key_cmp = (ka > kb) - (ka < kb)
                    for eps, ua, ub in zip(epsilons, utilities[a], utilities[b]):
                        util_cmp = (ua > ub) - (ua < ub)
                        comparisons += 1
                        if key_cmp != util_cmp:
                            disagreements += 1
                            if disagreements <= 5:
                                _log(log, f"  comparator disagreement n={n} eps={eps} {a} vs {b}")
        return disagreements == 0, f"{comparisons} comparisons, {disagreements} disagreements"

    return _timed(body, "comparator_equivalence")


# -- check 8: determinism -------------------------------------------------------


def determinism_sources() -> list[tuple[object, Rule]]:
    """Light-tier slice of the other suites, rerun under every solver config."""
    sources: list[tuple[object, Rule]] = [
        (InstanceSpec("example1"), PLURALITY),
        (InstanceSpec("example1"), APPROVAL),
        (InstanceSpec("example2"), PLURALITY),
        (InstanceSpec("example2"), APPROVAL),
        (InstanceSpec("g_k", 2), PLURALITY),
        (InstanceSpec("plurality_chain_fig5"), PLURALITY),
        (InstanceSpec("h_k", 2), PLURALITY),
    ]
    sources += oracle_specs()[:5] + oracle_specs()[100:105] + oracle_specs()[200:205]
    sources += [(s, PLURALITY) for s in low_outdegree_specs()[:5]]
    sources += [(s, APPROVAL) for s in approval_bound_specs()[:5]]
    sources += [(s, PLURALITY) for s in plurality_bound_specs()[:5]]
    return sources


def record_fingerprint(record) -> str:
    """Canonical bytes of a run record with the timing-class block removed.

    Node counts and cache sizes legitimately vary with the pruning
    configuration, so the whole solver-statistics block is excluded along
    with wall-clock time; everything semantic must match byte for byte.
    """
    doc = record.as_dict()
    doc.pop("stats", None)
    return json.dumps(doc, sort_keys=True)


def check_determinism(log: TextIO | None = None) -> CheckResult:
    def body() -> tuple[bool, str]:
        mismatches = 0
        total = 0
        for source, rule in determinism_sources():
            fingerprints = {
                record_fingerprint(run_one(source, rule, use_pruning=use_pruning))
                for use_pruning in (True, False)
            }
            total += 1
            if len(fingerprints) != 1:
                mismatches += 1
                _log(log, f"  determinism mismatch for {source} rule={rule.label()}")
        return mismatches == 0, f"{total} instances x 2 configs, {mismatches} mismatches"

    return _timed(body, "determinism")


# -- driver ---------------------------------------------------------------------


def run_all(log: TextIO | None = None) -> list[CheckResult]:
    results: list[CheckResult] = []
    samples: list[PathSample] = []

    _log(log, "[1/8] golden catalog instances")
    results.append(check_golden_instances(log=log))
    _log(log, "[2/8] oracle equivalence")
    results.append(check_oracle_equivalence(log=log))
    _log(log, "[3/8] low out-degree suite")
    results.append(check_low_outdegree_suite(samples, log=log))
    _log(log, "[4/8] approval popularity bound suite")
    results.append(check_approval_bound_suite(samples, log=log))
    _log(log, "[5/8] plurality popularity bound suite")
    results.append(check_plurality_bound_suite(samples, log=log))
    _log(log, "[6/8] truthful ballots on equilibrium paths")
    results.append(check_truthful_on_path(samples, log=log))
    _log(log, "[7/8] comparator equivalence")
    results.append(check_comparator_equivalence(log=log))
    _log(log, "[8/8] determinism")
    results.append(check_determinism(log=log))
    return results
