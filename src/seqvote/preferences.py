"""Truth-biased preferences: three-level outcome utility plus an exact ballot bonus.

A voter's utility from outcome ``w`` while having cast ballot ``b`` is a
three-level outcome value (self > confirmed > unconfirmed) perturbed by a
bonus ``eps**2 * f - eps * g`` where ``f`` counts confirmed approvals and
``g`` unconfirmed approvals, for any ``0 < eps < 1/(2n)``.  Because the
perturbation can never cross outcome levels and a single ``g`` unit always
outweighs the maximal ``f`` bonus, the ordering induced by the exact utility
is the lexicographic order on ``(level, -g, f)`` for every valid ``eps``
simultaneously.  The solver compares only these keys; ``eps`` never enters
any solving path.
"""

from __future__ import annotations

from fractions import Fraction

from .network import ConfirmationNetwork

# Outcome levels; stored as order-isomorphic integers rather than {1, 1/2, 0}.
LEVEL_SELF = 2
LEVEL_CONFIRMED = 1
LEVEL_UNCONFIRMED = 0

_LEVEL_VALUE = {
    LEVEL_SELF: Fraction(1),
    LEVEL_CONFIRMED: Fraction(1, 2),
    LEVEL_UNCONFIRMED: Fraction(0),
}


def outcome_level(g: ConfirmationNetwork, x: int, y: int) -> int:
    g._check_agent(x)
    g._check_agent(y)
    if x == y:
        return LEVEL_SELF
    if y in g.out_neighbors[x]:
        return LEVEL_CONFIRMED
    return LEVEL_UNCONFIRMED


def assess(g: ConfirmationNetwork, x: int, ballot: frozenset[int]) -> tuple[int, int]:
    """``(f, g)``: the confirmed and the unconfirmed agents ``x`` votes for."""
    f = len(ballot & g.out_neighbors[x])
    return f, len(ballot) - f


def key_from_parts(level: int, f: int, g: int) -> tuple[int, int, int]:
    """``(level, -g, f)``, compared lexicographically."""
    return (level, -g, f)


def utility_from_parts(level: int, f: int, g: int, eps: Fraction) -> Fraction:
    """Outcome utility plus the exact truth-bias bonus, in rational arithmetic,
    from raw (level, f, g) parts; used by the equivalence checks."""
    return _LEVEL_VALUE[level] + eps * eps * f - eps * g
