"""Voting rules, ballot legality and enumeration, score accumulation, winner selection."""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import combinations

from .network import ConfirmationNetwork, is_int


class RuleError(ValueError):
    """Raised for malformed rules or illegal ballot parameters."""


@dataclass(frozen=True)
class Rule:
    """A voting rule: vote for at most ``cap`` other agents; abstention always legal.

    plurality is 1-approval and approval is (n-1)-approval; those kinds carry
    no explicit cap and resolve it against the instance size.
    """

    kind: str  # "plurality" | "approval" | "k_approval"
    cap: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("plurality", "approval", "k_approval"):
            raise RuleError(f"unknown rule kind {self.kind!r}")
        if self.kind == "k_approval":
            if not is_int(self.cap) or self.cap < 1:
                raise RuleError(f"k_approval needs a positive cap, got {self.cap!r}")
        elif self.cap is not None:
            raise RuleError(f"{self.kind} does not take a cap")

    def ballot_cap(self, n: int) -> int:
        """The per-ballot size limit for an instance with ``n`` agents."""
        if self.kind == "plurality":
            return 1
        if self.kind == "approval":
            return max(n - 1, 0)
        return self.cap  # type: ignore[return-value]

    def label(self) -> str:
        return self.kind if self.cap is None else f"{self.kind}({self.cap})"


PLURALITY = Rule("plurality")
APPROVAL = Rule("approval")


def k_approval(k: int) -> Rule:
    return Rule("k_approval", cap=k)


def rule_from_strings(name: str, k: int | None = None) -> Rule:
    """Parse a CLI-style rule name (plurality | approval | k-approval with --k)."""
    name = name.replace("-", "_")
    if name == "k_approval":
        if k is None:
            raise RuleError("k-approval requires --k")
        return k_approval(k)
    if k is not None:
        raise RuleError(f"--k only applies to k-approval, not {name}")
    return Rule(name)


def ballot_members(rule: Rule, voter: int, n: int) -> Iterator[tuple[int, ...]]:
    """The members of every legal ballot for ``voter``, ascending, in
    canonical order.

    Canonical order: ascending cardinality, then lexicographic on the sorted
    member indices.  The empty ballot (abstention) is always first.
    """
    if n < 1:
        raise RuleError(f"need n >= 1, got {n}")
    cap = rule.ballot_cap(n)
    if rule.kind == "k_approval" and cap < 1:
        raise RuleError(f"ballot cap must be >= 1, got {cap}")
    others = [a for a in range(n) if a != voter]
    for size in range(0, min(cap, len(others)) + 1):
        yield from combinations(others, size)


def legal_ballots(rule: Rule, voter: int, n: int) -> list[frozenset[int]]:
    """All legal ballots for ``voter``, in canonical order (see
    :func:`ballot_members`)."""
    return [frozenset(members) for members in ballot_members(rule, voter, n)]


def apply_ballot(scores: tuple[int, ...], ballot: frozenset[int]) -> tuple[int, ...]:
    """One more vote for each approved agent."""
    updated = list(scores)
    for a in ballot:
        updated[a] += 1
    return tuple(updated)


def winner(scores: tuple[int, ...], tiebreak_order: tuple[int, ...]) -> int:
    """The max scorer; among max scorers, the earliest in the tie-breaking order.

    A zero-vote winner is possible.
    """
    top = max(scores)
    for a in tiebreak_order:
        if scores[a] == top:
            return a
    raise AssertionError("tiebreak_order does not cover all agents")


def is_truthful_class(
    g: ConfirmationNetwork, rule: Rule, voter: int, ballot: frozenset[int]
) -> bool:
    """Whether ``ballot`` belongs to the truthful class for ``voter``.

    Approval: exactly the confirmation set.  Plurality / k-approval: any
    subset of confirmed agents of maximal size up to the cap.
    """
    confirmed = g.out_neighbors[voter]
    if rule.kind == "approval":
        return ballot == confirmed
    cap = rule.ballot_cap(g.n)
    return ballot <= confirmed and len(ballot) == min(cap, len(confirmed))
