"""Confirmation networks: directed graphs over agents plus voting and tie-breaking orders.

Agents are dense integer indices ``0..n-1``.  An edge ``(x, y)`` means agent
``x`` confirms (deems worthy) agent ``y``.  Optional display names exist only
in the JSON file format and are never consulted by any algorithm.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable


class NetworkError(ValueError):
    """Raised when a network violates a structural invariant."""


def _check_order(order: tuple[int, ...], n: int, label: str) -> None:
    if sorted(order) != list(range(n)):
        raise NetworkError(f"{label} must be a permutation of 0..{n - 1}, got {list(order)}")


@dataclass(frozen=True)
class ConfirmationNetwork:
    """Immutable directed graph with a voting order and a tie-breaking order."""

    n: int
    edges: frozenset[tuple[int, int]]
    voting_order: tuple[int, ...]
    tiebreak_order: tuple[int, ...]
    names: tuple[str, ...] | None = field(default=None, compare=True)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise NetworkError(f"agent count must be >= 1, got {self.n}")
        for src, dst in self.edges:
            if not (0 <= src < self.n and 0 <= dst < self.n):
                raise NetworkError(f"edge ({src}, {dst}) references an invalid agent id")
            if src == dst:
                raise NetworkError(f"self-loop ({src}, {dst}) is not allowed")
        _check_order(self.voting_order, self.n, "voting_order")
        _check_order(self.tiebreak_order, self.n, "tiebreak_order")
        if self.names is not None and len(self.names) != self.n:
            raise NetworkError(f"names must list exactly {self.n} entries")

    @classmethod
    def build(
        cls,
        n: int,
        edges: Iterable[tuple[int, int]],
        voting_order: Iterable[int] | None = None,
        tiebreak_order: Iterable[int] | None = None,
        names: Iterable[str] | None = None,
    ) -> "ConfirmationNetwork":
        """Construct with defaults: both orders fall back to the identity permutation."""
        edge_list = [(int(s), int(d)) for s, d in edges]
        edge_set = frozenset(edge_list)
        if len(edge_set) != len(edge_list):
            raise NetworkError("duplicate edges are not allowed")
        identity = tuple(range(n))
        return cls(
            n=n,
            edges=edge_set,
            voting_order=tuple(voting_order) if voting_order is not None else identity,
            tiebreak_order=tuple(tiebreak_order) if tiebreak_order is not None else identity,
            names=tuple(names) if names is not None else None,
        )

    # -- adjacency caches (instances are immutable, so these are computed once) --

    @cached_property
    def in_neighbors(self) -> tuple[frozenset[int], ...]:
        ins: list[set[int]] = [set() for _ in range(self.n)]
        for src, dst in self.edges:
            ins[dst].add(src)
        return tuple(frozenset(s) for s in ins)

    @cached_property
    def out_neighbors(self) -> tuple[frozenset[int], ...]:
        outs: list[set[int]] = [set() for _ in range(self.n)]
        for src, dst in self.edges:
            outs[src].add(dst)
        return tuple(frozenset(s) for s in outs)

    def _check_agent(self, a: int) -> None:
        if not (0 <= a < self.n):
            raise NetworkError(f"invalid agent id {a} for network with n={self.n}")


@dataclass(frozen=True)
class DegreeProfile:
    in_degree: tuple[int, ...]
    out_degree: tuple[int, ...]
    max_in: int
    max_out: int


def degree_profile(g: ConfirmationNetwork) -> DegreeProfile:
    ins = tuple(len(s) for s in g.in_neighbors)
    outs = tuple(len(s) for s in g.out_neighbors)
    return DegreeProfile(in_degree=ins, out_degree=outs, max_in=max(ins), max_out=max(outs))


def popularity(g: ConfirmationNetwork, a: int) -> int:
    """Number of agents confirming ``a`` (its in-degree)."""
    g._check_agent(a)
    return len(g.in_neighbors[a])


def remove_out_edges(g: ConfirmationNetwork, w: int) -> ConfirmationNetwork:
    """The same network minus all edges whose source is ``w``; orders unchanged."""
    g._check_agent(w)
    return ConfirmationNetwork(
        n=g.n,
        edges=frozenset(e for e in g.edges if e[0] != w),
        voting_order=g.voting_order,
        tiebreak_order=g.tiebreak_order,
        names=g.names,
    )


def additive_gap(g: ConfirmationNetwork, w: int) -> int:
    """Popularity shortfall of ``w`` versus the most popular agent, ignoring w's own out-edges."""
    g._check_agent(w)
    stripped = remove_out_edges(g, w)
    return degree_profile(stripped).max_in - popularity(g, w)


def ratio(g: ConfirmationNetwork, w: int) -> Fraction | float:
    """Popularity ratio of the most popular agent to ``w``, ignoring w's own out-edges.

    Convention for a zero denominator (never evaluated by the source
    definitions): 0/0 is 1 and x/0 with x > 0 is +inf, so aggregation over
    winner sets stays total.  +inf is reported distinctly.
    """
    g._check_agent(w)
    stripped = remove_out_edges(g, w)
    top = degree_profile(stripped).max_in
    d_w = popularity(g, w)
    if d_w == 0:
        return Fraction(1) if top == 0 else math.inf
    return Fraction(top, d_w)


# -- JSON graph format ------------------------------------------------------
#
# {"n": int, "edges": [[src, dst], ...],
#  "voting_order": [int, ...] (optional), "tiebreak_order": [int, ...] (optional),
#  "names": [str, ...] (optional)}


def to_json_dict(g: ConfirmationNetwork) -> dict:
    out: dict = {
        "n": g.n,
        "edges": sorted([s, d] for s, d in g.edges),
        "voting_order": list(g.voting_order),
        "tiebreak_order": list(g.tiebreak_order),
    }
    if g.names is not None:
        out["names"] = list(g.names)
    return out


def serialize(g: ConfirmationNetwork) -> str:
    return json.dumps(to_json_dict(g), indent=2) + "\n"


def from_json_dict(data: dict) -> ConfirmationNetwork:
    if not isinstance(data, dict):
        raise NetworkError(f"graph document must be a JSON object, got {type(data).__name__}")
    if "n" not in data:
        raise NetworkError('graph document is missing required field "n"')
    n = data["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise NetworkError(f'"n" must be an integer, got {n!r}')
    raw_edges = data.get("edges", [])
    if not isinstance(raw_edges, list):
        raise NetworkError('"edges" must be a list of [src, dst] pairs')
    edges = []
    for item in raw_edges:
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in item)
        ):
            raise NetworkError(f"malformed edge entry {item!r}; expected [src, dst]")
        edges.append((item[0], item[1]))
    for key in ("voting_order", "tiebreak_order"):
        if key in data and not (
            isinstance(data[key], list)
            and all(isinstance(v, int) and not isinstance(v, bool) for v in data[key])
        ):
            raise NetworkError(f'"{key}" must be a list of integers')
    names = data.get("names")
    if names is not None and not (
        isinstance(names, list) and all(isinstance(v, str) for v in names)
    ):
        raise NetworkError('"names" must be a list of strings')
    return ConfirmationNetwork.build(
        n=n,
        edges=edges,
        voting_order=data.get("voting_order"),
        tiebreak_order=data.get("tiebreak_order"),
        names=names,
    )


def parse(text: str) -> ConfirmationNetwork:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise NetworkError(f"invalid JSON: {exc}") from exc
    return from_json_dict(data)
