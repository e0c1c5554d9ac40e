"""Voting rules, ballot legality and enumeration, score accumulation, winner selection."""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import combinations

from .network import ConfirmationNetwork, is_int, is_str, or_null, read_object


class RuleError(ValueError):
    """Raised for malformed rules or illegal ballot parameters."""


def _is_cap(value) -> bool:
    """A k-approval cap: an integer (a bool is not one) of at least 1."""
    return is_int(value) and value >= 1


# The rule block of a run record, one row per field (see ``network.read_object``).
_RULE_FIELDS = (
    ("kind", is_str, "a string", True),
    ("cap", or_null(_is_cap), "a positive cap or null", False),
)


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
            if not _is_cap(self.cap):
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

    def as_dict(self) -> dict:
        """The rule block of a run record: ``kind``, and ``cap`` when set."""
        return {"kind": self.kind} if self.cap is None else {"kind": self.kind, "cap": self.cap}

    @staticmethod
    def from_dict(data: dict) -> "Rule":
        """The rule a rule block names; a null ``cap`` reads as absent."""
        read_object(data, _RULE_FIELDS, RuleError, "rule block")
        return Rule(**data)


PLURALITY = Rule("plurality")
APPROVAL = Rule("approval")


def k_approval(k: int) -> Rule:
    return Rule("k_approval", cap=k)


def rule_from_strings(name: str, k: int | None = None) -> Rule:
    """Parse a CLI-style rule name (plurality | approval | k-approval with --k)."""
    kind = name.replace("-", "_")
    if kind == "k_approval" and k is None:
        raise RuleError("k-approval requires --k")
    if kind != "k_approval" and k is not None:
        raise RuleError(f"--k only applies to k-approval, not {kind}")
    return Rule(kind, k)


def ballot_members(rule: Rule, voter: int, n: int) -> Iterator[tuple[int, ...]]:
    """The members of every legal ballot for ``voter``, ascending, in
    canonical order.

    Canonical order: ascending cardinality, then lexicographic on the sorted
    member indices.  The empty ballot (abstention) is always first.
    """
    if n < 1:
        raise RuleError(f"need n >= 1, got {n}")
    cap = rule.ballot_cap(n)
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
