"""Exact subgame-perfect-equilibrium analysis of the sequential voting game.

The solver computes the full set of achievable winners (agents elected in at
least one SPE) by a set-valued backward recursion over subgame states.  A
state is ``(i, scores)``: the number of ballots already cast and the
accumulated score vector.  Histories reaching equal states have identical
subgame solutions, which makes the state the memoization key; soundness of
that and of every pruning rule is asserted against a naive reference solver
rather than assumed.

Recursion at a non-terminal state with mover ``x``: every legal ballot ``b``
leads to a child whose achievable set ``C_b`` is known by induction.  The
sibling subgames are independent, so an outcome ``w`` in ``C_b`` can be
sustained through ``b`` exactly when, for every alternative ballot ``b'``,
``x`` weakly prefers ``(b, w)`` to the worst element of ``C_{b'}`` under the
lexicographic preference key (outcome level, -g, f).  The state's achievable
set is the union of sustainable outcomes.

Exact cuts (``use_pruning``), none of which changes a result:

- Dead agents.  An agent that can no longer win under any continuation is
  dead.  Dead agents' scores are masked out of memo keys, and a ballot
  approving a dead agent the mover does not confirm is dominated by the same
  ballot without it.
- Threat bound, the set-valued form of alpha-beta pruning (Knuth & Moore,
  1975).  Agent ``z`` is hopeful when it ties or passes the leader's (votes,
  tie-break precedence) with only the votes of the voters still to move
  that confirm it.  Only hopeful agents can win (the lemma below), so no
  outcome of ballot ``b`` has a key above ``(L, -g_b, f_b)``, where ``L``
  is the mover's best level over hopeful agents.  Ballots are visited in
  ``(g ascending, f descending)`` order and ``m1`` is the largest worst key
  seen so far; once a ballot's bound falls below ``m1`` so do all later
  ones, and none of them can add a winner, be the threshold, or be a
  policy's choice.

  Lemma: every achievable winner of a state is hopeful there.  At a
  terminal state the winner is the leader.  Otherwise take ``w`` in the
  achievable set ``C_b`` of ballot ``b``'s child, hopeful there by
  induction.  If the mover ``x`` confirms ``w`` or ``b`` leaves it out,
  ``w``'s votes plus its confirmers' votes are no more in the child than
  at the parent, and the lead is no less, so ``w`` is hopeful at the
  parent.  Otherwise ``b`` approves ``w``, which is level 0 for ``x``:
  ``b`` minus ``w`` costs ``x`` one ``g`` less and has no outcome below
  level 0, so its worst key beats ``(0, -g_b, f_b)`` and ``w`` is not
  sustained through ``b``.  So each ``C_b`` holds hopeful agents and
  agents at level 0 for the mover, none above the bound, and the winners
  are hopeful.  Hopeful agents are live, so the bound is never looser than
  one over live agents.

  Ballot ``b`` also has a bound of its own: by the lemma at the child,
  every outcome of ``b`` is hopeful in ``b``'s child.  When no agent
  hopeful there is at ``b``'s threshold level (below), no outcome of ``b``
  has a key at or above ``m1``: none is sustained, ``b``'s worst key is
  below ``m1`` and so leaves it unchanged, and ``b``'s winners pass
  neither the ``L`` nor the ``L + 1`` test below.  The ballot that set
  ``m1`` has a policy outcome of at least ``m1``, so ``b`` is not the
  policy's choice either.  ``b`` is skipped, but a later ballot's child can
  have a larger bound, so the pass goes on.
- Sole-hopeful states.  The leader is always hopeful; where it is the only
  hopeful agent, the lemma alone fixes the outcome: the leader wins every
  SPE, and the entry depends only on the mover and the leader.  One rule
  settles every such state from a per-call table, with no search and
  nothing stored: a parent tests each child past the per-ballot bound with
  the child's own hopeful agents, and a call's root, which has no parent,
  is tested before its ballots are listed.  A quiescent state, where no
  voter still to move confirms a live agent, needs no rule of its own: a
  live agent other than the leader has no confirmers' votes to come and
  trails the lead, and a dead agent trails it with every vote, so
  quiescent implies sole-hopeful.  The entry is exact under a policy too.
  Every ballot of the best bonus has ``g = 0``: it approves only agents the
  mover confirms, whose votes plus their confirmers' votes do not change,
  so the child's only hopeful agent is still the leader, and its outcome is
  the leader.  By the lemma every other outcome of any ballot is the leader
  or at level 0 for the mover, never above the leader's level.  So the
  policy's pick is the first ballot of the best bonus, or under
  ``bias_toward(t)`` the first of those approving ``t``, and its child's
  entry is the table's for the same leader one depth on.

A node is one pass over its ballots, which also tracks the policy's pick.
Keys pack as ``level * unit + base`` with ``base < unit``, so ballot ``b``'s
threshold level ``ceil((m1 - base_b) / unit)`` is ``L = m1 // unit`` if
``base_b`` is at least the base of the ballot that set ``m1``, else ``L +
1``; in visit order the first kind is a prefix.  The winners are that
prefix's child winners at level ``L`` or more, and all children's at ``L +
1`` or more.

The inner loop works on ints.  A state is one int, ``i * B**n +
sum(scores[a] * B**a)`` with digit base ``B = 2**width``, and a ballot adds
a fixed delta to it (an incremental key, after Zobrist 1970).  A parent
probes the memo for each child with this raw key; on a miss, and when the
child is not settled, with the child's canonical key, and the raw key is
stored as an alias of the canonical entry while the aliases number fewer
than four per entry (``_ALIAS_CAP``).  The canonical key sets all bits of
each dead agent's digit, a value no score reaches, and gives live agent
``z`` the digit ``s_z - S + R``, with ``S`` the leader's score and ``R``
the voters still to move: ``z`` trails the leader by at most ``R``, so no
digit borrows or overflows.  It is exact, because the leader wins under a
fixed tie-break: votes added to every live agent alike change no
continuation's winner, no deadness and no preference key.  A key with no
dead agents may equal a translated twin's raw key, which is the same class.

The agent sets the search derives from scores are digit sets: ints in the
state's own layout with the top bit of each member's digit set, so that one
addition tests every agent at once (SWAR; Lamport, "Multiple byte
processing with full-word instructions", CACM 1975).  Agents compare by
key ``votes * n + precedence``, precedence ``n - 1`` for the first in
tie-break order.  ``z`` with ``k`` more votes reaches key ``K = S * n + t``
exactly when ``s_z + k + [precedence_z >= t] > S``.  So adding to a state a
packed table of each agent's ``k`` (its votes still to come, or only its
confirmers') and ``reaches[K]``, which holds that 0/1 tie-break digit plus
a bias of ``B/2 - 1 - S`` in every digit, sets the top bit of ``z``'s digit
exactly when ``z`` reaches ``K``.  No digit carries or borrows:
``SubgameState.validate`` keeps every score at most ``i <= n``, a table
digit is at most ``n + 1``, and the bias lies in ``[0, B/2)`` for every
``S <= n + 1``, the largest the search meets.  The width is the smallest of
8, 16 and 32 bits with ``n + 1 < B/4``, so that score plus table digit,
at most ``2n + 1``, stays below ``B/2`` and the biased sum below ``B``: 8
bits up to n = 62, the byte layout of plain packing, and 16 bits from n =
63.  The hopeful agents, the contenders, a child's dead agents and hope,
and a call root's dead agents each take a few such additions, where a loop
takes a step per agent.  A canonical key's fill and live ones come from the
dead digit set by a shift each.

Winner sets, and every mask read where a child is found by its raw key,
stay bitmasks of ``n`` bits: small ints, which Python caches for ``n <=
8``, on the path most ballots take.  A ballot carries its member digit set,
for its contenders and the dead-agent ban.  A parent reads a child's lead
key from the digits of the ballot's contenders, and a child's dead agents
come from its own key by ``_known``'s formula: once per lead key it meets,
the parent adds to its state that key's ``reaches`` and the votes still to
come in the child, and each ballot adds its delta.  The child's hopeful
agents come the same way, from its confirmers' votes, and give both the
ballot's bound and the child's settle test.  Only a call's root and a
terminal state decode all the scores.  Winner sets become frozensets only
when a call returns.

Under a policy an entry is ``(winners, policy winner, policy ballot, child
entry)``, linking to the entry of the child its ballot leads to, and a
settled state's table entry to the same leader's entry one depth on;
without one it is ``(winners,)``.  The selected equilibrium's path is the
chain of ballots from the root's entry, so it comes out of the one search,
under its budget.
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass
from operator import itemgetter

from .balloting import Rule, apply_ballot, ballot_members, legal_ballots
from .balloting import winner as score_winner
from .network import ConfirmationNetwork
from .preferences import assess, outcome_level

_TIME_CHECK_MASK = 0x3FF  # check the wall clock on node 1, then every 1024 nodes
_NEVER = 1 << 64  # a node count no search reaches: no check is due
_NAIVE_MAX_LEAVES = 4_000_000  # the oracle's game-tree size limit
# Raw-key aliases the memo keeps per canonical entry at most.  Past it a raw
# miss takes the canonical-key path, which counts the same node and hit.
# Catalog-sized games store about 3 per entry, h_k(3) approval 20 or more.
_ALIAS_CAP = 4


@dataclass(frozen=True)
class SubgameState:
    """Number of ballots already cast, and the score vector they produced."""

    i: int
    scores: tuple[int, ...]

    def validate(self, n: int) -> None:
        if not (0 <= self.i <= n):
            raise ValueError(f"state index {self.i} out of range for n={n}")
        if len(self.scores) != n:
            raise ValueError(f"score vector has {len(self.scores)} entries, expected {n}")
        if any(s < 0 or s > self.i for s in self.scores):
            raise ValueError(f"scores {self.scores} inconsistent with {self.i} cast ballots")


@dataclass(frozen=True)
class Budget:
    """Per-call search limits; None is no limit, and ``max_nodes=0`` or
    ``max_seconds=0`` stops at the first node.  They bound the search a call
    makes, not the ballot tables that ``Solver(...)`` builds before it: those
    hold n * 2^(n-1) entries under approval."""

    max_nodes: int | None = None
    max_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.max_nodes is not None and self.max_nodes < 0:
            raise ValueError(f"max_nodes must be >= 0, got {self.max_nodes}")
        # NaN fails every comparison, so it fails this one too.
        if self.max_seconds is not None and not self.max_seconds >= 0:
            raise ValueError(f"max_seconds must be >= 0, got {self.max_seconds}")


@dataclass
class SolveStats:
    nodes: int = 0
    cache_hits: int = 0
    cache_size: int = 0
    wall_seconds: float = 0.0
    quiescent: int = 0  # states settled as sole-hopeful
    bound_skips: int = 0  # ballots the threat bound skipped
    break_skips: int = 0  # of those, ballots never visited: the node-level break
    memo_aliases: int = 0  # raw state keys stored next to canonical entries

    def as_dict(self) -> dict:
        """The fields by name, in declaration order (a shallow copy)."""
        return dict(vars(self))


class BudgetExceededError(RuntimeError):
    """A node or time budget was hit; partial results are never returned."""

    def __init__(self, message: str, stats: SolveStats):
        super().__init__(message)
        self.stats = stats


@dataclass(frozen=True)
class Policy:
    """Selects one ballot among preference-optimal ballots at every node.

    canonical: the first optimal ballot in canonical enumeration order.
    bias_toward(t): among optimal ballots prefer those approving ``t``, then
    canonical order.
    """

    target: int | None = None  # None: canonical

    @staticmethod
    def canonical() -> "Policy":
        return Policy()

    @staticmethod
    def bias_toward(target: int) -> "Policy":
        if target is None:
            raise ValueError("bias_toward needs a target agent")
        return Policy(target)


@dataclass
class PolicyResult:
    """One policy-selected SPE, and the achievable set of the same search."""

    path: list[frozenset[int]]
    winner: int
    winners: frozenset[int]


class Solver:
    """Memoized, pruned SPE solver for one network/rule pair.

    One recursion, :meth:`solve`, answers both questions asked of a state:
    its achievable set and, when a selection policy is given, the policy's
    winner and on-path ballots, read off the root's entry.
    :meth:`achievable_winners` returns the set as a frozenset;
    :meth:`policy_spe` returns the selected equilibrium together with the
    set from the same search.  Every call starts a fresh memo under its own
    budget, so callers that need several facts about one game solve it once
    and read them all from that result.

    Every search memoizes.  ``use_pruning`` defaults on, changes no result
    and covers every exact cut: dead agents in memo keys and ballot lists,
    the threat bound and the sole-hopeful settle.  With it off the search is
    the plain recursion over every legal ballot, memoized on raw states, in
    the same visit order under a bound that never fires, which moves no
    counter of a completed search; :func:`naive_achievable_winners` stays
    the canonical-order reference.

    The threat bound rests on a lemma of the game (see the module
    docstring): an agent wins a subgame only if the votes of its confirmers
    still to move can carry it to the lead, since no SPE elects anyone
    through a vote its voter pays ``-g`` for.  ``_conf_votes[i]`` holds
    those votes, packed as a state's digits.  The bound is taken at a node,
    for all its ballots, and at each ballot's child, for that ballot alone:
    it is skipped when no agent hopeful in its child is at its threshold
    level.  Where the leader is the only hopeful agent, the lemma settles
    the state outright.

    With pruning, a searched state is given ``known``: its dead agents as
    a digit set, its leader's key and its canonical memo key.  A parent
    derives it for each child it searches, and :meth:`_known` for a call's
    root.  Every other fact the node needs comes from its packed state by a
    few additions with the solver's packed tables (see the module
    docstring).

    A settled state is a node, counts in ``quiescent`` and is never
    stored: a parent settles each sole-hopeful child it meets past the
    per-ballot bound, and :meth:`_search` only a call's root.  A terminal
    state is not a node.

    The memo also keeps raw state keys as aliases of canonical entries, up
    to ``_ALIAS_CAP`` per canonical entry.  A hit on an alias is a memo hit
    and a node, as a canonical hit is, so counters and budgets are those of
    a memo without aliases; ``cache_size`` counts canonical entries and
    ``memo_aliases`` the raw keys stored, in games with no dead agents too,
    since canonical keys translate.  Both probes of a child happen at its
    parent, so a canonical hit, like a settled child, costs no call.

    Node accounting is inline: each node adds one to ``_nodes`` and calls
    :meth:`_check` only when the count reaches ``_check_at``.
    """

    def __init__(
        self,
        g: ConfirmationNetwork,
        rule: Rule,
        *,
        use_pruning: bool = True,
        budget: Budget | None = None,
    ):
        self.g = g
        self.rule = rule
        self.use_pruning = use_pruning
        self.budget = budget or Budget()

        n = g.n
        self.n = n
        self._order = g.voting_order
        bits_of = [1 << a for a in range(n)]
        self._all = (1 << n) - 1
        self._conf_mask = conf_of = [sum(bits_of[a] for a in g.out_neighbors[x]) for x in range(n)]
        # Preference keys (level, -g, f) packed into ints that compare the
        # same way: level * unit + base, with base = (n - g) * (n + 1) + f.
        # Levels: 2 for the voter itself, 1 for an agent it confirms, else 0.
        radix = n + 1
        unit = radix * radix
        self._level = [
            [(2 if w == x else conf >> w & 1) * unit for w in range(n)]
            for x, conf in enumerate(conf_of)
        ]
        self._unit = unit
        self._no_bound = 3 * unit  # above every key: the bound never fires
        # A state (i, scores) packs into i * B**n + sum(scores[a] * B**a),
        # B = 2**width, the smallest of 2**8, 2**16 and 2**32 with n + 1 <
        # B / 4 (see the module docstring).  A digit set is an int with
        # the top bit of each member's digit set, B / 2 * B**a for agent a.
        width, code = (8, "B") if n < 63 else (16, "H") if n < 16383 else (32, "I")
        self._width = width
        self._digits = struct.Struct(f"<{n}{code}")  # unpacks the score digits
        self._nbytes = (n + 1) * width // 8
        self._pows = pows = [1 << width * a for a in range(n)]
        self._istep = istep = 1 << width * n
        self._ones = ones = sum(pows)
        self._half = half = 1 << width - 1
        self._tops = ones * half  # every agent's digit set
        self._dbits = dbits = [w * half for w in pows]
        confd = [sum([dbits[a] for a in g.out_neighbors[x]]) for x in range(n)]
        # Ballot lists per voter in visit order, best bonus first (g
        # ascending, f descending), canonical order among equals: (members,
        # member digit set, base, key delta from a state to its child).  A
        # ballot's f is its members the voter confirms, its g the others;
        # its digit set and delta are the same for every voter casting it.
        self._visit_order: list[list[tuple[tuple[int, ...], int, int, int]]] = []
        masks: dict[tuple[int, ...], tuple[int, int]] = {}  # (digit set, delta) by members
        for x, conf in enumerate(confd):
            entries = []
            for members in ballot_members(rule, x, n):
                known = masks.get(members)
                if known is None:
                    ones_of = sum([pows[a] for a in members])
                    known = masks[members] = (ones_of * half, istep + ones_of)
                dmask, delta = known
                f = (dmask & conf).bit_count()
                gcnt = len(members) - f
                entries.append((members, dmask, (n - gcnt) * radix + f, delta))
            entries.sort(key=itemgetter(2), reverse=True)
            self._visit_order.append(entries)
        self._ballot_cache: dict[tuple[int, int], list] = {}
        # Agents at level 0 for x: approving a dead one is dominated.  A
        # bitmask for winner sets and a digit set for dead agents.
        self._unconf = [self._all & ~self._conf_mask[x] & ~(1 << x) for x in range(n)]
        self._unconf_digits = [self._tops - confd[x] - dbits[x] for x in range(n)]
        # at_least[x][k]: agents at level k or more for x, and as a digit set.
        self._at_least = [(self._all, c | 1 << x, 1 << x, 0) for x, c in enumerate(self._conf_mask)]
        self._at_least_digits = [(self._tops, c | d, d, 0) for c, d in zip(confd, dbits)]
        # Per depth i, as packed digits, the votes each agent can still
        # receive from the voters of order[i:]: from all but itself
        # (reach[i]), and from those that confirm it (conf_votes[i]), the
        # only votes that can help elect it.
        self._reach = [0] * (n + 1)
        self._conf_votes = [0] * (n + 1)
        for i in range(n - 1, -1, -1):
            x = self._order[i]
            self._reach[i] = self._reach[i + 1] + ones - pows[x]
            self._conf_votes[i] = self._conf_votes[i + 1] + (confd[x] >> width - 1)
        # Deadness and hope compare (votes, tie-break precedence) keys,
        # votes * n + (n - 1 - tie-break rank).  reaches[K] makes a digit
        # set of the agents whose key plus k votes reaches key K = S * n + t
        # when added to a state with k added to each digit (see _reaching).
        tb_rank = [0] * n
        for rank, a in enumerate(g.tiebreak_order):
            tb_rank[a] = rank
        self._tb_key = [n - 1 - tb_rank[a] for a in range(n)]
        self._leader_of = leader_of = [g.tiebreak_order[n - 1 - t] for t in range(n)]
        self._ties = ties = [0] * (n + 1)  # ties[t]: the ones of the agents of precedence t or more
        for t in range(n - 1, -1, -1):
            ties[t] = ties[t + 1] + pows[leader_of[t]]
        # Filled as searches meet each key: made up front, the (n + 2) * n
        # wide ints of n digits each would take O(n**3) bytes.
        self._reaches: list[int | None] = [None] * ((n + 2) * n)
        self._memo: dict = {}
        self._policy: Policy | None = None
        self.last_stats = SolveStats()

    # -- per-call bookkeeping -------------------------------------------------

    def _start(self, policy: Policy | None) -> None:
        """Fresh memo, counters and budget for one call."""
        self._memo = {}
        self._policy = policy
        self._nodes = 0
        self._hits = 0
        self._quiescent = 0
        self._bound_skips = 0
        self._break_skips = 0
        self._aliases = 0
        self._max_nodes = self.budget.max_nodes
        # Entries of settled (sole-hopeful) states by depth and leader; depth
        # n: terminal, each of one slot without a policy.
        quiet = [[(1 << w,) if policy is None else (1 << w, w, None, None) for w in range(self.n)]]
        for x in reversed(self._order):
            quiet.append(self._settled(x, quiet[-1]))
        self._quiet = quiet[::-1]
        self._t0 = time.monotonic()
        max_s = self.budget.max_seconds
        self._deadline = self._t0 + max_s if max_s is not None else None
        limited = self._max_nodes is not None or self._deadline is not None
        self._check_at = 1 if limited else _NEVER

    def _stats(self) -> SolveStats:
        return SolveStats(
            nodes=self._nodes,
            cache_hits=self._hits,
            cache_size=len(self._memo) - self._aliases,
            wall_seconds=time.monotonic() - self._t0,
            quiescent=self._quiescent,
            bound_skips=self._bound_skips,
            break_skips=self._break_skips,
            memo_aliases=self._aliases,
        )

    def _check(self) -> None:
        """The budget check at node ``_check_at``, the next node that can
        exceed the node budget or must read the clock (node 1, then every
        1024th).  Raises when the node budget is exceeded or the clock has
        reached the deadline; otherwise moves ``_check_at`` to the next such
        node."""
        nodes = self._nodes
        max_n = self._max_nodes
        if max_n is not None and nodes > max_n:
            raise BudgetExceededError(
                f"node budget of {max_n} exceeded", self._stats()
            )
        check_at = _NEVER if max_n is None else max_n + 1
        if self._deadline is not None:
            if (nodes & _TIME_CHECK_MASK) == 1 and time.monotonic() >= self._deadline:
                raise BudgetExceededError(
                    f"time budget of {self.budget.max_seconds}s exceeded", self._stats()
                )
            check_at = min(check_at, ((nodes - 1) | _TIME_CHECK_MASK) + 2)
        self._check_at = check_at

    # -- packed states, dead agents and memo keys -------------------------------

    def _pack(self, state: SubgameState) -> int:
        return state.i * self._istep + sum(s * w for s, w in zip(state.scores, self._pows))

    def _lead_key(self, p: int) -> int:
        """The leader's key, ``votes * n + precedence``, the largest, from
        the score digits of packed state ``p``."""
        n = self.n
        scores = self._digits.unpack_from(p.to_bytes(self._nbytes, "little"))
        return max([s * n + t for s, t in zip(scores, self._tb_key)])

    def _reaching(self, key: int) -> int:
        """``_reaches[key]``, made the first time it is needed: a 1 in the
        digit of each agent of precedence ``t = key % n`` or more, plus
        ``B/2 - 1 - S`` in every digit, ``S = key // n``.  Added to a state
        with ``k`` added to each digit, its top bits are the agents with
        ``votes + k + [precedence >= t] > S``, those whose key plus ``k``
        votes reaches ``key``."""
        value = self._reaches[key]
        if value is None:
            score, t = divmod(key, self.n)
            value = self._reaches[key] = self._ties[t] + (self._half - 1 - score) * self._ones
        return value

    def _known(self, i: int, p: int) -> tuple[int, int, int]:
        """What :meth:`_search` is given about state ``p``: the digit set of
        agents that can no longer win, the leader's key and the canonical
        memo key.

        The leader is ``winner(scores)``, the agent of the largest key.
        ``z`` is dead when, given every vote it can still receive, it still
        trails the leader: fewer votes, or as many and later in the
        tie-breaking order.  This runs only at a call's root; a parent finds
        every other state's dead agents by the same formula, at the child's
        lead key with the ballot's delta added.
        """
        lead = self._lead_key(p)
        tops = self._tops
        dead = p + self._reach[i] + self._reaching(lead) & tops ^ tops
        dead_ones = dead >> self._width - 1
        offset = self.n - i - lead // self.n
        return dead, lead, p + offset * (self._ones - dead_ones) | (dead << 1) - dead_ones

    def _ballots_at(self, x: int, dead: int) -> list[tuple[tuple[int, ...], int, int, int]]:
        """Legal ballots for mover ``x`` in visit order, dominated ones pruned,
        given the digit set ``dead`` of dead agents.

        A ballot approving a dead agent the mover does not confirm is
        dominated by the same ballot without that agent: the child states are
        winner-bisimilar and the larger ballot pays a strictly worse bonus.
        Filtering the visit-ordered list keeps its order.
        """
        banned = dead & self._unconf_digits[x]
        if not banned:
            return self._visit_order[x]
        cache_key = (x, banned)
        cached = self._ballot_cache.get(cache_key)
        if cached is None:
            cached = [e for e in self._visit_order[x] if not e[1] & banned]
            self._ballot_cache[cache_key] = cached
        return cached

    # -- the search ------------------------------------------------------------

    def solve(
        self,
        state: SubgameState | None = None,
        policy: Policy | None = None,
    ) -> tuple[frozenset[int], int | None, list[frozenset[int]] | None]:
        """The achievable set of ``state`` (default: the initial state), the
        policy's winner and its on-path ballots, one per voter still to move.

        The last two are None without a policy.  The path follows each
        entry's selected child from the root's entry, so nothing is searched
        after the search.  Each call starts a fresh memo and has its own
        budget and ``last_stats``.
        """
        if policy is not None and policy.target is not None and not 0 <= policy.target < self.n:
            raise ValueError(f"bias_toward needs a valid target, got {policy.target}")
        if state is None:
            state = SubgameState(0, (0,) * self.n)
        state.validate(self.n)
        self._start(policy)
        i, p = state.i, self._pack(state)
        try:
            # The root is the one state no parent derives facts for.
            entry = self._search(i, p, self._known(i, p) if self.use_pruning else None)
        finally:
            self.last_stats = self._stats()
        winners = frozenset(a for a in range(self.n) if entry[0] >> a & 1)
        if policy is None:
            return winners, None, None
        winner, path = entry[1], []
        while entry[2] is not None:
            path.append(frozenset(entry[2]))
            entry = entry[3]
        return winners, winner, path

    def achievable_winners(self, state: SubgameState | None = None) -> frozenset[int]:
        """Exactly the agents elected in at least one SPE of the (sub)game."""
        return self.solve(state)[0]

    def policy_spe(
        self, policy: Policy, state: SubgameState | None = None
    ) -> PolicyResult:
        """One SPE selected by ``policy`` at every node: its on-path ballots and
        winner, with the achievable set the same search found."""
        winners, winner, path = self.solve(state, policy)
        return PolicyResult(path=path, winner=winner, winners=winners)

    def _search(self, i: int, p: int, known=None):
        """Entry of state ``p``, searched; no probe has found it.  One pass
        over the ballots, in visit order, finds every child entry, the
        winners and the policy's pick.

        With pruning, a parent settles each child that misses the raw-key
        probe and passes the per-ballot bound when the child's only hopeful
        agent is its leader, as it always is in a terminal child.  For any
        other child it derives ``known``, the child's dead digit set, lead
        key and canonical key, probes the memo with the canonical key and
        calls this method with ``known`` only on a miss.  :meth:`solve`
        gives a call's root its ``known``; without pruning it is None and
        unused.

        Each agent set below is a digit set, one or two additions to ``p``
        (see the module docstring).  A child's lead key ``top`` is the
        parent's, or a member's key after the vote if larger, so ballots
        approving the same contenders (agents whose key after a vote passes
        the lead) share it.  For each ``top`` met, the node adds once to
        ``p`` the child's votes still to come, from its confirmers
        (``hope``) and from every voter (``alive``), each with
        ``reaches[top]``.  A ballot's delta added to ``hope`` gives the
        child's hopeful agents, and added to ``alive`` its live agents:
        its dead agents come from its own key by :meth:`_known`'s formula.
        A terminal child is never probed.

        A call's root whose only hopeful agent is its leader is settled from
        the per-call table before its ballots are listed; a parent settles
        every other such state.

        The threat bound is the mover's best level over the state's hopeful
        agents, those whose key plus the votes of their confirmers still to
        move reaches the lead: every outcome of every ballot is one of them
        or an agent the ballot approves without confirming it, which is
        level 0 for the mover.  Past the raw-key probe, a ballot also has
        its child's bound: by the lemma at the child, every outcome of the
        ballot is hopeful in its child.  So the ballot is skipped when its
        child's hopeful digit set has no agent at the ballot's threshold
        level ``ceil((m1 - base) / unit)``, one ``&`` with the mover's row
        of ``_at_least_digits``.  A skipped child is not a node and counts
        in ``bound_skips``; the ballots the node-level break leaves
        unvisited count there and in ``break_skips`` too.
        """
        n = self.n
        if i == n:
            return self._quiet[n][self._leader_of[self._lead_key(p) % n]]
        self._nodes += 1
        if self._nodes >= self._check_at:
            self._check()
        memo = self._memo
        x = self._order[i]
        key = p
        settle = None  # entries of settled children by leader; None: search every child
        nonterminal = i + 1 < n  # terminal children are never stored, nor settled as nodes
        unit = self._unit
        if self.use_pruning:
            dead, lead, key = known
            tops = self._tops
            dbits = self._dbits
            reaches = self._reaches
            ones = self._ones
            hopeful = p + self._conf_votes[i] + (reaches[lead] or self._reaching(lead)) & tops
            leader = self._leader_of[lead % n]
            if hopeful == dbits[leader]:
                # Only the leader can win.  A parent settles every such
                # child, so this is a call's root: its entry is the
                # per-call table's, and nothing probes for it.
                self._quiescent += 1
                return self._quiet[i][leader]
            ballots = self._ballots_at(x, dead)
            at_level = self._at_least_digits[x]  # the mover's agents at level k or more
            # The mover's best level over hopeful agents: no ballot reaches more.
            bound = unit * (2 if hopeful & at_level[2] else 1 if hopeful & at_level[1] else 0)
            settle = self._quiet[i + 1]
            tb_key = self._tb_key
            width = self._width
            shift = width - 1
            digit = (1 << width) - 1
            # Added to reaches[K] and a ballot's delta: the agents hopeful,
            # and those alive, in its child of lead key K.
            hope_at = p + self._conf_votes[i + 1]
            alive_at = p + self._reach[i + 1]
            # Agents whose key after a vote passes the lead.
            contenders = p + ones + (reaches[lead + 1] or self._reaching(lead + 1)) & tops
            # (top, hope, alive, leader's digit, settled entry, key offset)
            # by the ballot's contenders.
            facts_of = {}
        else:
            ballots = self._visit_order[x]
            bound = self._no_bound
        low = self._unconf[x]
        conf = self._conf_mask[x]
        search = self._search
        lookup = memo.get
        policy = self._policy
        if policy is not None:
            levels = self._level[x]
            # dmask & target: the ballot approves the policy's target
            target = 0 if policy.target is None else self._dbits[policy.target]
            best = -1
        acc = pre = 0  # winners of the children so far; of those at m1's base or above
        m1 = m1_base = -1  # the largest worst key so far, and the base of its ballot
        for k, (members, dmask, base, delta) in enumerate(ballots):
            if bound + base < m1:
                # Threat bound: bases only fall from here on, so no outcome
                # of this or any later ballot can reach m1.
                self._bound_skips += len(ballots) - k
                self._break_skips += len(ballots) - k
                break
            q = p + delta
            child = lookup(q) if nonterminal else None
            if child is not None:  # a raw-key hit is a node and a memo hit
                self._nodes += 1
                if self._nodes >= self._check_at:
                    self._check()
                self._hits += 1
            elif settle is None:
                child = search(i + 1, q)
            else:
                ahead = dmask & contenders
                facts = facts_of.get(ahead)
                if facts is None:
                    # The ballot's contenders, highest digit first: the
                    # child's lead key is the largest of their keys after
                    # the vote, or the lead.
                    top = lead
                    rest = ahead
                    while rest:
                        end = rest.bit_length()
                        a = end // width - 1
                        v = ((p >> end - width & digit) + 1) * n + tb_key[a]
                        if v > top:
                            top = v
                        rest ^= dbits[a]
                    at_top = reaches[top] or self._reaching(top)
                    w = self._leader_of[top % n]  # the child's leader
                    offset = n - i - 1 - top // n  # voters to move in it, less its lead
                    facts = (top, hope_at + at_top, alive_at + at_top, dbits[w], settle[w], offset)
                    facts_of[ahead] = facts
                top, hope, alive, sole, quiet, offset = facts
                hopes = hope + delta  # its top bits: the child's hopeful agents
                # The child's threat bound: no hopeful agent at the ballot's
                # threshold level ceil((m1 - base) / unit) means no outcome
                # reaches m1.  The index is 0 while m1 = -1, as every base is
                # at most unit - 2, and at most 2 past the node-level break;
                # at_level holds top bits only.  A later ballot's child may
                # have a larger bound, so the loop goes on.
                if not hopes & at_level[(m1 - base + unit - 1) // unit]:
                    self._bound_skips += 1
                    continue
                if hopes & tops == sole:
                    # The child's only hopeful agent is its leader, always so
                    # for a terminal child: it is settled, and not stored.
                    child = quiet
                    if nonterminal:
                        self._nodes += 1
                        if self._nodes >= self._check_at:
                            self._check()
                        self._quiescent += 1
                else:
                    child_dead = alive + delta & tops ^ tops
                    dead_ones = child_dead >> shift
                    canon = q + offset * (ones - dead_ones) | (child_dead << 1) - dead_ones
                    if canon != q:
                        child = lookup(canon)
                    if child is not None:  # a canonical hit: a node, a hit and an alias
                        self._nodes += 1
                        if self._nodes >= self._check_at:
                            self._check()
                        self._hits += 1
                        if self._aliases < _ALIAS_CAP * (len(memo) - self._aliases):
                            self._aliases += 1
                            memo[q] = child
                    else:
                        child = search(i + 1, q, (child_dead, top, canon))
            # The mover's worst key over the child's winners.
            mask = child[0]
            worst = base + (0 if mask & low else unit if mask & conf else 2 * unit)
            acc |= mask
            if worst > m1:
                m1, m1_base, pre = worst, base, acc
            elif base == m1_base:
                pre |= mask
            if policy is not None:
                # The first of the best: tied ballots share a base, and the
                # visit order keeps canonical order within a base.
                rank = (levels[child[1]] + base) * 2 + (dmask & target > 0)
                if rank > best:
                    best, pick, picked = rank, members, child
        # m1 serves as every ballot's threshold, its own worst key included,
        # which all its winners reach: a child's winners at level
        # ceil((m1 - base) / unit) or more count, L = m1 // unit at m1's base
        # or above and L + 1 below.
        at_least = self._at_least[x]
        level = m1 // unit
        winners = pre & at_least[level] | acc & at_least[level + 1]
        entry = (winners,) if policy is None else (winners, picked[1], pick, picked)
        memo[key] = entry  # stored under its memo key, and p as an alias while the cap allows
        if key != p and self._aliases < _ALIAS_CAP * (len(memo) - self._aliases):
            self._aliases += 1
            memo[p] = entry
        return entry

    def _settled(self, x: int, after: list) -> list:
        """Entries of the sole-hopeful states where ``x`` moves, by leader,
        given ``after``, those one depth on.  In such a state the leader is
        the only hopeful agent, and it wins every SPE (see the module
        docstring).

        Under a policy the mover casts what :meth:`_search` would pick: the
        first ballot in visit order, which maximizes ``(-g, f)``, or under
        ``bias_toward(t)`` the first of those approving ``t``.  They approve
        no unconfirmed agent, so the dead-agent ban never removes them: the
        entry does not depend on which agents are dead.  Its child's only
        hopeful agent is the same leader, so its entry is ``after``'s entry
        for that leader.
        """
        if self._policy is None:
            return after
        ballots = self._visit_order[x]
        pick = ballots[0]
        target = self._policy.target
        if target is not None:
            for e in ballots:
                if e[2] != pick[2]:
                    break
                if e[1] & self._dbits[target]:
                    pick = e
                    break
        return [(1 << w, w, pick[0], after[w]) for w in range(self.n)]


class NaiveSizeError(ValueError):
    """The instance is too large for the unmemoized reference solver."""


def naive_achievable_winners(g: ConfirmationNetwork, rule: Rule) -> frozenset[int]:
    """Reference oracle: direct extensive-form recursion, no memo, no pruning.

    It walks the full game tree, every legal ballot at every node, and gives
    each ballot the threshold of the best worst key among all the others.
    The node's one threshold, the best worst key over all its ballots, is the
    same test: a ballot's own worst key is no higher than any key it gives.
    The per-voter constants are built once per call, before the walk: each
    depth's legal ballots with their ``(-g, f)`` key parts, and the mover's
    row of outcome levels.  Nothing is shared with :class:`Solver`.

    Enforces a hard size limit on the full game tree (roughly n <= 6 for
    plurality, n <= 4 for approval) so it can never silently take forever.
    """
    n = g.n
    tb = g.tiebreak_order
    order = g.voting_order
    leaves = 1
    tables = []  # per depth: the mover's outcome levels, its ballots with (-g, f)
    for x in order:
        ballots = legal_ballots(rule, x, n)
        leaves *= len(ballots)
        if leaves > _NAIVE_MAX_LEAVES:
            raise NaiveSizeError(
                f"game tree exceeds the naive-solver limit of {_NAIVE_MAX_LEAVES} leaves"
            )
        keyed = []
        for b in ballots:
            f, gcnt = assess(g, x, b)
            keyed.append((b, -gcnt, f))
        tables.append(([outcome_level(g, x, w) for w in range(n)], keyed))

    def recurse(i: int, scores: tuple[int, ...]) -> set[int]:
        if i == n:
            return {score_winner(scores, tb)}
        levels, ballots = tables[i]
        options = []
        threshold = None
        for b, neg_g, f in ballots:
            child = recurse(i + 1, apply_ballot(scores, b))
            worst = (min(levels[w] for w in child), neg_g, f)
            if threshold is None or worst > threshold:
                threshold = worst
            options.append((child, neg_g, f))
        return {
            w
            for child, neg_g, f in options
            for w in child
            if (levels[w], neg_g, f) >= threshold
        }

    result = recurse(0, (0,) * n)
    if not result:
        raise AssertionError("achievable set must be non-empty")
    return frozenset(result)

