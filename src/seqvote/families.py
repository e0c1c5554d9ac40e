"""Instance generators: the catalog of reconstructed benchmark networks, and
seeded random ensembles.

The catalog instances are rebuilt from prose descriptions (the original
figures are not available as data), so every builder asserts the structural
degree targets it is supposed to meet and fails loudly otherwise.  Outcome
expectations (winner sets, gaps, ratios) are validated by the solver in the
verification suite, never assumed here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .network import ConfirmationNetwork, degree_profile


class GenerationError(ValueError):
    """A catalog instance failed its structural checks, or parameters are invalid."""


@dataclass(frozen=True)
class InstanceSpec:
    name: str
    k: int | None = None


@dataclass(frozen=True)
class RandomSpec:
    """Seed-stable Erdos-Renyi style directed graph spec.

    Each ordered pair (a, b), a != b, is included independently with
    probability ``p``; out-edges are then uniformly down-sampled to
    ``max_out`` when set.  The PRNG is Python's Mersenne Twister
    (``random.Random(seed)``), which is stable across platforms.
    """

    n: int
    p: float
    max_out: int | None = None
    seed: int = 0


def gen_random(spec: RandomSpec) -> ConfirmationNetwork:
    if spec.n < 1:
        raise GenerationError(f"n must be >= 1, got {spec.n}")
    if not (0.0 <= spec.p <= 1.0):
        raise GenerationError(f"p must lie in [0, 1], got {spec.p}")
    if spec.max_out is not None and spec.max_out < 0:
        raise GenerationError(f"max_out must be >= 0, got {spec.max_out}")
    rng = random.Random(spec.seed)
    edges = []
    for a in range(spec.n):
        for b in range(spec.n):
            if a != b and rng.random() < spec.p:
                edges.append((a, b))
    if spec.max_out is not None:
        capped = []
        for a in range(spec.n):
            outs = sorted(dst for src, dst in edges if src == a)
            if len(outs) > spec.max_out:
                outs = sorted(rng.sample(outs, spec.max_out))
            capped.extend((a, dst) for dst in outs)
        edges = capped
    return ConfirmationNetwork.build(spec.n, edges)


# -- catalog ---------------------------------------------------------------


def _check_degree(g: ConfirmationNetwork, agent: int, expected: int, label: str) -> None:
    actual = len(g.in_neighbors[agent])
    if actual != expected:
        raise GenerationError(
            f"{label}: expected in-degree {expected}, got {actual}"
        )


def _example1() -> ConfirmationNetwork:
    # Five committee members (displayed 1..5); member #5 is confirmed by three
    # others, everyone else by at most one.
    g = ConfirmationNetwork.build(
        5,
        [(0, 4), (1, 0), (1, 4), (2, 4), (3, 2)],
        names=["1", "2", "3", "4", "5"],
    )
    _check_degree(g, 4, 3, "example1 agent #5")
    for a in range(4):
        if len(g.in_neighbors[a]) > 1:
            raise GenerationError(f"example1 agent #{a + 1} has in-degree > 1")
    return g


def _example2() -> ConfirmationNetwork:
    # Four members, each confirming at most one other.
    g = ConfirmationNetwork.build(
        4,
        [(0, 3), (1, 2), (2, 3)],
        names=["1", "2", "3", "4"],
    )
    if degree_profile(g).max_out != 1:
        raise GenerationError("example2 must have max out-degree 1")
    return g


def _g_k(k: int) -> ConfirmationNetwork:
    """Max-out-degree-2 family with additive gap k.

    Layout (also the voting/tie-breaking order): d-type groups d_1..d_{k-1}
    (|d_i| = i + 1), then c_{k+1}, c_k, ..., c_1, then b-type groups b_1..b_k.
    Each d_i agent confirms c_i and c_{k+1}; each b_i agent confirms c_i; and
    the c-agents form a confirmation chain c_{k+1} -> c_k -> ... -> c_1.  The
    chain is what lets each c withhold its own vote from the next-more-popular
    c, which drives the cascade that forces the d agents to support only
    c_{k+1}.  b-group sizes pin c_1's in-degree at k(k+1)/2 + k - 1 and grade
    the remaining c potentials in steps of two; at k = 2 the solver reproduces
    the unique winner c_3 under both rules, beyond that the construction is a
    candidate only.
    """
    if k < 2:
        raise GenerationError(f"g_k requires k >= 2, got {k}")
    top = k * (k + 1) // 2 + k - 1  # target in-degree of c_1
    b_sizes = {1: top - 3}  # c_1 also receives the edge from c_2 and |d_1| = 2 votes
    for i in range(2, k + 1):
        pot = (b_sizes[1] + 2) - 2 * (i - 2)
        b_sizes[i] = pot - (i + 2) if i <= k - 1 else pot - 1
        if b_sizes[i] < 0:
            raise GenerationError(f"g_k(k={k}): b_{i} size underflow")
    names: list[str] = []
    d_agents: dict[int, list[int]] = {}
    for i in range(1, k):
        d_agents[i] = []
        for j in range(i + 1):
            d_agents[i].append(len(names))
            names.append(f"d{i}{chr(ord('a') + j)}")
    c_agents: dict[int, int] = {}
    for i in range(k + 1, 0, -1):
        c_agents[i] = len(names)
        names.append(f"c{i}")
    b_agents: dict[int, list[int]] = {}
    for i in range(1, k + 1):
        b_agents[i] = []
        for j in range(b_sizes[i]):
            b_agents[i].append(len(names))
            names.append(f"b{i}{chr(ord('a') + j)}")
    edges = []
    for i in range(1, k):
        for d in d_agents[i]:
            edges.append((d, c_agents[i]))
            edges.append((d, c_agents[k + 1]))
    for i in range(1, k + 1):
        for b in b_agents[i]:
            edges.append((b, c_agents[i]))
    for i in range(1, k + 1):
        edges.append((c_agents[i + 1], c_agents[i]))
    g = ConfirmationNetwork.build(len(names), edges, names=names)
    _check_degree(g, c_agents[1], top, f"g_k(k={k}) c_1")
    _check_degree(g, c_agents[k + 1], k * (k + 1) // 2 - 1, f"g_k(k={k}) c_{k + 1}")
    if degree_profile(g).max_out != 2:
        raise GenerationError(f"g_k(k={k}) must have max out-degree 2")
    return g


def _plurality_chain_fig5() -> ConfirmationNetwork:
    # Seven agents in order d1, d2, d3, c3, c2, c1, b1.  The d2 -> c1 edge is
    # the minimal choice that gives c1 in-degree 3 (ratio 3 for winner c3) and
    # reproduces the narrated equilibrium; it is not stated outright in the
    # source description.
    names = ["d1", "d2", "d3", "c3", "c2", "c1", "b1"]
    idx = {name: i for i, name in enumerate(names)}
    edges = [
        (idx["d1"], idx["c1"]),
        (idx["d1"], idx["b1"]),
        (idx["d2"], idx["c1"]),
        (idx["d2"], idx["c2"]),
        (idx["d3"], idx["c1"]),
        (idx["d3"], idx["c2"]),
        (idx["d3"], idx["c3"]),
    ]
    g = ConfirmationNetwork.build(len(names), edges, names=names)
    _check_degree(g, idx["c1"], 3, "plurality_chain_fig5 c1")
    _check_degree(g, idx["c3"], 1, "plurality_chain_fig5 c3")
    return g


def _plurality_chain(k: int) -> ConfirmationNetwork:
    """Unbounded-ratio plurality family: a ratio-k equilibrium elects c_k.

    Order d_1..d_k, c_k..c_1, b_1..b_{k-1}; d_i confirms c_1..c_i, and
    additionally b_i for i <= k - 1.
    """
    if k < 2:
        raise GenerationError(f"plurality_chain requires k >= 2, got {k}")
    names = [f"d{i}" for i in range(1, k + 1)]
    names += [f"c{i}" for i in range(k, 0, -1)]
    names += [f"b{i}" for i in range(1, k)]
    idx = {name: i for i, name in enumerate(names)}
    edges = []
    for i in range(1, k + 1):
        for j in range(1, i + 1):
            edges.append((idx[f"d{i}"], idx[f"c{j}"]))
        if i <= k - 1:
            edges.append((idx[f"d{i}"], idx[f"b{i}"]))
    g = ConfirmationNetwork.build(len(names), edges, names=names)
    _check_degree(g, idx["c1"], k, f"plurality_chain(k={k}) c1")
    _check_degree(g, idx[f"c{k}"], 1, f"plurality_chain(k={k}) c{k}")
    return g


def _kapproval_chain(k: int) -> ConfirmationNetwork:
    """k-approval chain family, reconstructed around a ratio-3 equilibrium
    electing c3 (popularity 1 against c1's 3).

    Order d1, d2, d3, c3, c2, c1, then the filler groups B1 (k agents) and
    B2, B3 (k - 1 agents each); d_i confirms c_1..c_i plus its own B group.
    Under 2-approval the narrated equilibrium is not subgame-perfect and
    W = {c1, c2}: after d1 = {b1a, b1b}, d2 burns a vote on the filler b1a
    with {b1a, c1}, lifting the winning score to 2, which c3 (confirmed only
    by d3) cannot reach; d3 then adds c1, which d2 confirms and which
    precedes b1a in the tie-break.
    """
    if k < 1:
        raise GenerationError(f"kapproval_chain requires k >= 1, got {k}")
    names = ["d1", "d2", "d3", "c3", "c2", "c1"]
    idx = {name: i for i, name in enumerate(names)}
    b_groups: dict[int, list[int]] = {}
    sizes = {1: k, 2: k - 1, 3: k - 1}
    for i in (1, 2, 3):
        b_groups[i] = []
        for j in range(sizes[i]):
            b_groups[i].append(len(names))
            names.append(f"b{i}{chr(ord('a') + j)}")
    edges = []
    for i in (1, 2, 3):
        for j in range(1, i + 1):
            edges.append((idx[f"d{i}"], idx[f"c{j}"]))
        for b in b_groups[i]:
            edges.append((idx[f"d{i}"], b))
    g = ConfirmationNetwork.build(len(names), edges, names=names)
    _check_degree(g, idx["c1"], 3, f"kapproval_chain(k={k}) c1")
    _check_degree(g, idx["c3"], 1, f"kapproval_chain(k={k}) c3")
    return g


def _h_k(k: int) -> ConfirmationNetwork:
    """Approval lower-bound family: m leads every other agent's popularity by
    k, yet c_1 is elected under approval.

    Agents: c_1..c_k (each confirms only m); d_1..d_{k-1} (d_i confirms m and
    c_1..c_i); e_2..e_k (e_i confirms c_1..c_i); equalizer groups b_i with
    2i - 3 agents confirming c_i (2 <= i <= k) and k - 1 agents confirming m.
    Order: c_1, d_1, e_2, c_2, d_2, ..., e_k, c_k interleaved, then the b
    groups ascending, then m (the tail order is fixed here for determinism).
    """
    if k < 2:
        raise GenerationError(f"h_k requires k >= 2, got {k}")
    names: list[str] = []
    c_idx: dict[int, int] = {}
    d_idx: dict[int, int] = {}
    e_idx: dict[int, int] = {}

    def add(name: str) -> int:
        names.append(name)
        return len(names) - 1

    c_idx[1] = add("c1")
    d_idx[1] = add("d1")
    for i in range(2, k + 1):
        e_idx[i] = add(f"e{i}")
        c_idx[i] = add(f"c{i}")
        if i <= k - 1:
            d_idx[i] = add(f"d{i}")
    b_agents: dict[int, list[int]] = {}
    for i in range(2, k + 1):
        b_agents[i] = [add(f"b{i}{chr(ord('a') + j)}") for j in range(2 * i - 3)]
    bm_agents = [add(f"bm{chr(ord('a') + j)}") for j in range(k - 1)]
    m = add("m")
    edges = []
    for i in range(1, k + 1):
        edges.append((c_idx[i], m))
    for i in range(1, k):
        edges.append((d_idx[i], m))
        for j in range(1, i + 1):
            edges.append((d_idx[i], c_idx[j]))
    for i in range(2, k + 1):
        for j in range(1, i + 1):
            edges.append((e_idx[i], c_idx[j]))
        for b in b_agents[i]:
            edges.append((b, c_idx[i]))
    for b in bm_agents:
        edges.append((b, m))
    g = ConfirmationNetwork.build(len(names), edges, names=names)
    _check_degree(g, m, 3 * k - 2, f"h_k(k={k}) m")
    for i in range(1, k + 1):
        _check_degree(g, c_idx[i], 2 * k - 2, f"h_k(k={k}) c{i}")
    return g


_CATALOG = {
    "example1": (_example1, False),
    "example2": (_example2, False),
    "g_k": (_g_k, True),
    "plurality_chain_fig5": (_plurality_chain_fig5, False),
    "plurality_chain": (_plurality_chain, True),
    "kapproval_chain": (_kapproval_chain, True),
    "h_k": (_h_k, True),
}


def catalog_names() -> list[str]:
    return sorted(_CATALOG)


def gen_paper_instance(spec: InstanceSpec) -> ConfirmationNetwork:
    """Build a catalog instance; raises GenerationError for unknown names,
    missing/invalid parameters, or failed structural checks."""
    entry = _CATALOG.get(spec.name)
    if entry is None:
        raise GenerationError(
            f"unknown catalog name {spec.name!r}; known: {', '.join(catalog_names())}"
        )
    builder, wants_k = entry
    if wants_k:
        if spec.k is None:
            raise GenerationError(f"catalog instance {spec.name!r} requires k")
        return builder(spec.k)
    if spec.k is not None:
        raise GenerationError(f"catalog instance {spec.name!r} takes no k parameter")
    return builder()


def agent_index(g: ConfirmationNetwork, name: str) -> int:
    """Index of a display name in a catalog instance."""
    if g.names is None:
        raise GenerationError("network carries no display names")
    try:
        return g.names.index(name)
    except ValueError:
        raise GenerationError(f"no agent named {name!r}") from None
