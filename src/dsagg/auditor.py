"""Verification of a concrete scheme: recovery, security against every
collusion set, the rank certificate, and converse floor checks.

Security of a zero-sum linear scheme is equivalent to a rank statement on
each coalition D = {k} ∪ C of a user k and its colluders: the submatrix
Ĥ(D) of the precoder restricted to the users S outside D and the groups
inside S must reach rank (K - |D| - 1) * L. The auditor never assumes that
equivalence: every check records both the exact mutual information and the
rank, and reports disagreement as a failure of the auditor itself.

Both quantities depend on the coalition D alone. Every message is
X_u = W_u + H_u Z_u, so the colluders' messages and inputs are functions of
the pooled material (W_D, Z_D), and

    I(X_others; W_others | ΣW, W_D, Z_D) = I(X_S; W_S | ΣW, W_D, Z_D).

Once every input and the coalition's keys are known, X_S is Ĥ(D) applied
to the keys of the groups inside S, so for any linear precoder

    H(X_S | W, Z_D) = rank Ĥ(D).

That entropy is r_abc - r_bc of the MI's own stacks, so the audit reads the
rank certificate from the ranks the MI has just taken, once per coalition,
and shares both among the |D| (user, collusion set) pairs that form it.
``rank_condition(precoder, D)`` builds Ĥ(D) itself and stays the
independent per-coalition reference.

For a zero-sum precoder the condition on every coalition of size T+1
implies it on every smaller one (the lemma proved in
``rank_certificate_ok``), so the build's certificate ranks only the
C(K, T+1) largest coalitions. The audit stays exhaustive.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from . import infocalc
from .infocalc import (
    LinearObservable,
    _message,
    layout_for,
    observe_input,
    observe_key_bundle,
    observe_total,
)
from .linalg import Matrix, _left_null, _mod_addmul
from .scheme import Precoder, SchemeParams, _integers, _validate_collusion, capacity
from .sim import run_round


class InvalidCollusionSetError(ValueError):
    """A user outside 1..K, or a coalition that is not 1 to T+1 distinct users."""


def _user(k: int, K: int) -> int:
    """User k as an int; InvalidCollusionSetError unless it passes the
    check ``key_map`` makes."""
    try:
        return _integers([k], "user", 1, K).item()
    except (TypeError, KeyError) as e:
        raise InvalidCollusionSetError(e.args[0]) from None


def collusion_sets(K: int, k: int, T: int) -> Iterator[tuple[int, ...]]:
    """All subsets of [1..K] \\ {k} of size 0..T, lexicographic within each
    size; ParamsOutOfModelError, at the call, for K < 3 or T outside
    [0, K-3]."""
    K, T = _validate_collusion(K, T)
    k = _user(k, K)
    others = [u for u in range(1, K + 1) if u != k]
    return itertools.chain.from_iterable(
        itertools.combinations(others, size) for size in range(T + 1))


def expected_check_count(K: int, T: int) -> int:
    """Number of (user, collusion set) pairs an exhaustive audit must cover;
    ParamsOutOfModelError for K < 3 or T outside [0, K-3]."""
    K, T = _validate_collusion(K, T)
    return K * sum(math.comb(K - 1, t) for t in range(T + 1))


def _coalition(precoder: Precoder, users: Sequence[int]) -> tuple[int, ...]:
    """``users`` as a sorted tuple of ints; InvalidCollusionSetError unless
    they are 1 to T+1 distinct users of 1..K."""
    p = precoder.params
    try:
        coalition = tuple(sorted(_user(u, p.K) for u in users))
    except TypeError:  # users is not iterable; _user raises no TypeError
        raise InvalidCollusionSetError(f"coalition {users!r} is not a collection") from None
    if not 1 <= len(set(coalition)) == len(coalition) <= p.T + 1:
        raise InvalidCollusionSetError(
            f"coalition {coalition} must be 1 to T+1={p.T + 1} distinct users")
    return coalition


# -- rank certificate --------------------------------------------------------


def submatrix_hhat(precoder: Precoder, coalition: Sequence[int]) -> Matrix:
    """Ĥ(D): the precoder restricted to the survivors of the coalition D,
    given in any order, and their exclusive keys.

    Row blocks: users outside D, ascending. Column blocks: groups fully
    inside the surviving set, lexicographic. Shape is (K - |D|) * L rows by
    C(K - |D|, G) * L_S columns; with fewer than G survivors there are no
    surviving groups and the matrix has zero columns.
    """
    return _hhat(precoder, _coalition(precoder, coalition))


def _hhat(precoder: Precoder, coalition: tuple[int, ...]) -> Matrix:
    p = precoder.params
    alive = np.ones(p.K + 1, dtype=bool)
    alive[[0, *coalition]] = False
    inside = np.flatnonzero(alive[p.members].all(axis=1))  # the surviving groups
    return Matrix(p.field, precoder.key_map(np.flatnonzero(alive), inside))


@dataclass(frozen=True)
class RankCheck:
    coalition: tuple[int, ...]
    required: int
    achieved: int

    @property
    def ok(self) -> bool:
        return self.achieved >= self.required


def rank_condition(precoder: Precoder, coalition: Sequence[int]) -> RankCheck:
    """Required vs achieved rank of Ĥ(D) for the coalition D, in any order."""
    coalition = _coalition(precoder, coalition)
    required = (precoder.params.K - len(coalition) - 1) * precoder.L
    return RankCheck(coalition, required, _hhat(precoder, coalition).rank())


def _top_checks(precoder: Precoder) -> Iterator[RankCheck]:
    """``rank_condition`` of every coalition of size T+1, lexicographic, for
    a zero-sum precoder, through the identity and the sharing rule proved in
    ``rank_certificate_ok``: one ``Matrix.rank`` call per coalition, on
    N_X·A, and one elimination of X = Ĥ(D ∪ {u}) for consecutive
    coalitions that share D ∪ {u}."""
    p = precoder.params
    required = (p.K - p.T - 2) * precoder.L
    members = p.members
    e = ()  # the E = D ∪ {u} whose X is held
    for coalition in itertools.combinations(p.users, p.T + 1):
        fresh = not set(coalition) <= set(e)
        if fresh:
            survivors = [v for v in p.users if v not in coalition]
            e = tuple(sorted((*coalition, next(
                (v for v in survivors if v > coalition[-1]), survivors[0]))))
            alive = np.ones(p.K + 1, dtype=bool)  # the survivors of E
            alive[[0, *e]] = False
            rows = np.flatnonzero(alive)
            x_ids = np.flatnonzero(alive[members].all(axis=1))  # the groups inside them
        u = next(v for v in e if v not in coalition)
        alive[u] = True  # the surviving groups of D that hold u
        a_ids = np.flatnonzero(alive[members].all(axis=1) & (members == u).any(axis=1))
        alive[u] = False
        # One map per coalition: [X A] for a new E, A alone for a held one.
        nx = x_ids.size * precoder.L_S if fresh else 0
        xa = precoder.key_map(rows, np.concatenate([x_ids, a_ids]) if fresh else a_ids)
        if fresh:
            pivots, rest, z = _left_null(xa[:, :nx], p.q)
        a = xa[:, nx:]
        reduced = a[rest]  # N_X·A = A[rest] + z·A[pivots]
        _mod_addmul(reduced, z, a[pivots], p.q)
        yield RankCheck(coalition, required, pivots.size + Matrix(p.field, reduced).rank())


def _first_failure(precoder: Precoder) -> RankCheck | None:
    """The first coalition, in ``rank_certificate_ok``'s order, whose rank
    condition fails; None if the certificate holds."""
    p = precoder.params
    if precoder.zero_sum_ok():
        checks = _top_checks(precoder)
    else:
        checks = (rank_condition(precoder, coalition) for size in range(p.T + 1, 0, -1)
                  for coalition in itertools.combinations(p.users, size))
    return next((check for check in checks if not check.ok), None)


def rank_certificate_ok(precoder: Precoder) -> bool:
    """Whether the rank condition holds for every user and collusion set.

    Checked once per coalition D = {k} ∪ C, which fixes the submatrix and
    its required rank. Largest coalitions go first: their submatrices are
    the smallest, the cheapest to rank and the likeliest to fail over a
    small field, so a failing draw is rejected sooner. For a zero-sum
    precoder the C(K, T+1) coalitions of size T+1 are all that is ranked,
    by the lemma below; any other precoder is checked on every coalition.

    Lemma: if P is zero-sum and every coalition of size T+1 passes, every
    smaller coalition passes. Write S for the survivors of D, |S| >= 2.

    - Every group inside S has all its members in S, so the L vectors
      (y, ..., y), y in F_q^L, are left null vectors of Ĥ(D), and
      rank Ĥ(D) <= (|S| - 1) L, the required rank. Passing therefore means
      equality, and then the left null space of Ĥ(D) is exactly those
      vectors.
    - Take D' of size t <= T, survivors S' (|S'| = K - t >= 3), and assume
      every coalition of size t + 1 passes. Pick u != w in S'. Order the
      rows of Ĥ(D') as (S' - {u}, u) and its columns as the groups inside
      S' - {u}, then the groups inside S' that hold u. Then
      Ĥ(D') = [[X, A], [0, B]] with X = Ĥ(D' ∪ {u}).
    - Let (x, z) be a left null vector. From xX = 0, x = (y, ..., y).
      Zero-sum on the groups that hold u gives xA = -yB, so (z - y)B = 0.
      Hence rank Ĥ(D') = (|S'| - 2) L + rank B, which reaches the required
      (|S'| - 1) L exactly when rank B = L.
    - D' ∪ {w} passes, so a left null vector of its Ĥ supported on u's rows
      alone has the form (y, ..., y) over |S'| - 1 >= 2 users, so y = 0.
      So u's L rows there, which are B restricted to the groups not holding
      w, are independent, and rank B = L.

    By induction downward from t = T, every coalition passes.

    Each coalition D of size T+1 is ranked through a smaller matrix
    (Marsaglia & Styan, "Equalities and inequalities for ranks of
    matrices", Linear and Multilinear Algebra 1974). Pick a survivor u of
    D and write E = D ∪ {u}, so X = Ĥ(E) has the rows of S - {u}.

    - Each group inside S has all its members in S, and its blocks sum to
      zero, so u's rows of Ĥ(D) are minus the sum of the other survivors'
      rows. Dropping them keeps the rank: rank Ĥ(D) = rank [X A], where A
      holds the rows of S - {u} on the groups inside S that hold u.
    - Eliminate X's rows (``linalg._left_null``): pivot rows P span its
      row space and are independent, and each other row r satisfies
      X[r] + z_r X[P] = 0. The same row operations on [X A] leave
      [[X[P], A[P]], [0, N_X·A]], with N_X·A = A[rest] + z A[P] for the
      left null basis N_X of X. X[P] has full row rank, so
      rank [X A] = rank X + rank(N_X·A), and rank X = |P|.

    Only N_X·A reaches ``Matrix.rank``: (C(K-T-2, G-1) L_S)-wide, against
    C(K-T-1, G) L_S for Ĥ(D). X depends on E alone, so one elimination
    serves every D inside E. The coalitions go in lexicographic order, one
    elimination held at a time: the held E is reused when it contains D;
    otherwise u is the first survivor after max(D), wrapping around to the
    lowest. At T=0 that pairs {1},{2} / {3},{4} / ...; at T>0 about every
    other coalition reuses its E.
    """
    return _first_failure(precoder) is None


# -- audit entries ------------------------------------------------------------


_RELATIONS = {"ge": operator.ge, "le": operator.le, "eq": operator.eq}


@dataclass(frozen=True)
class Check:
    """One line of the audit report: an exact value that must meet its bound
    under ``relation`` ("ge", "le" or "eq"). ``agrees`` is False when a
    second computation of the entry disagrees with the first, a fault of
    the auditor: the line then fails whatever the relation says."""

    kind: str
    k: int | None
    colluders: tuple[int, ...]
    value: int | Fraction
    bound: int | Fraction
    relation: str
    agrees: bool = True

    @property
    def ok(self) -> bool:
        return self.agrees and _RELATIONS[self.relation](self.value, self.bound)

    def line(self) -> str:
        who = "-" if self.k is None else self.k
        colluders = ",".join(str(u) for u in self.colluders)
        return (f"CHECK {self.kind} k={who} T={{{colluders}}} value={self.value} "
                f"bound={self.bound} {'PASS' if self.ok else 'FAIL'}")


@dataclass
class AuditReport:
    params: SchemeParams
    checks: list[Check]

    @property
    def all_ok(self) -> bool:
        return bool(self.checks) and all(c.ok for c in self.checks)

    def to_lines(self) -> list[str]:
        """Machine-readable one-line-per-check report."""
        return [c.line() for c in self.checks]


# -- audit context --------------------------------------------------------------


class AuditContext:
    """The observables of one precoder, the views an audit takes of them, and
    the rank cache its queries share: the one way into the audit's views.

    Each observable is built once; the cache holds those it ranked, keyed
    by their ids (``infocalc``), so no label can fool it. ``audit`` shares
    one context across its phases, and ``dsagg oracle`` enumerates the same
    views to check the entries the phases computed from it.
    """

    def __init__(self, precoder: Precoder) -> None:
        p = precoder.params
        self.precoder = precoder
        self.layout = layout_for(precoder)
        self.messages = {k: _message(precoder, self.layout, k) for k in p.users}
        self.inputs = {k: observe_input(self.layout, k) for k in p.users}
        self.bundles = {k: observe_key_bundle(self.layout, k) for k in p.users}
        self.total = observe_total(self.layout)
        self.cache: dict = {}

    def others(self, k: int) -> list[int]:
        return [u for u in self.precoder.params.users if u != k]

    def material(self, users: Sequence[int]) -> list[LinearObservable]:
        """The inputs and keys of ``users``, in that order."""
        return [o for u in users for o in (self.inputs[u], self.bundles[u])]

    def security_terms(self, coalition: Sequence[int]) -> tuple[list, list, list]:
        """(a, b, view) with I(a; b | view) the security MI of the sorted
        ``coalition``: what the messages of the users outside it reveal about
        their inputs beyond the global sum and the coalition's inputs and
        keys. It equals the MI of any member k colluding with the rest."""
        outside = [u for u in self.precoder.params.users if u not in coalition]
        return ([self.messages[u] for u in outside], [self.inputs[u] for u in outside],
                [self.total] + self.material(coalition))

    def recovery_view(self, k: int) -> list[LinearObservable]:
        """What user k decodes from: the received messages, its own input
        and keys."""
        return [self.messages[u] for u in self.others(k)] + self.material((k,))


def _context(subject: Precoder | AuditContext) -> AuditContext:
    return subject if isinstance(subject, AuditContext) else AuditContext(subject)


# -- audits ---------------------------------------------------------------------

# Each audit takes a precoder, or the context ``audit`` shares across them.


def audit_security(precoder: Precoder | AuditContext) -> list[Check]:
    """Exact MI and rank certificate for every user and collusion set.

    The MI probed is: what the received messages reveal about the other
    users' inputs beyond the global sum, the receiver's own material, and
    the colluders' material. Both it and the rank depend only on the
    coalition D = {k} ∪ C (module docstring), so each is computed once per
    coalition and shared by every pair forming it. The achieved rank is
    H(X_S | W, Z_D) = rank Ĥ(D), read from the MI's own cached stacks with
    no further rank call; ``rank_condition`` is the independent
    per-coalition reference. Each pair gives a ``security`` line, MI = 0,
    then a ``rank`` line, achieved >= required, which agrees only if both
    pass or both fail. Pairs go in (user, set size, lexicographic) order so
    reports diff cleanly.
    """
    ctx = _context(precoder)
    p = ctx.precoder.params
    per_coalition: dict[tuple[int, ...], tuple[int, int, int]] = {}
    checks: list[Check] = []
    for k in p.users:
        for cset in collusion_sets(p.K, k, p.T):
            coalition = tuple(sorted((k, *cset)))
            if coalition not in per_coalition:
                a, b, view = ctx.security_terms(coalition)
                mi = infocalc.mutual_information(a, b, view, cache=ctx.cache)
                achieved = infocalc.conditional_entropy(a, b + view, cache=ctx.cache)
                required = (p.K - len(coalition) - 1) * ctx.precoder.L
                per_coalition[coalition] = mi, achieved, required
            mi, achieved, required = per_coalition[coalition]
            checks.append(Check("security", k, cset, mi, 0, "eq"))
            checks.append(Check("rank", k, cset, achieved, required, "ge",
                                agrees=(mi == 0) == (achieved >= required)))
    return checks


def audit_recovery(precoder: Precoder | AuditContext, seed: int = 0) -> list[Check]:
    """Zero residual entropy of the global sum per user, plus a spot check:
    two simulated rounds, seeds 2 * seed and 2 * seed + 1, whose verdicts
    must both pass for any ``recovery`` line to agree. Every user decodes
    the same value, the sum of all messages, so one verdict per round
    speaks for each user."""
    ctx = _context(precoder)
    # A list, not a generator: both rounds run even when the first fails.
    spot = all([run_round(ctx.precoder, "random", seed=2 * seed + i).verdict
                for i in range(2)])
    checks = []
    for k in ctx.precoder.params.users:
        residual = infocalc.conditional_entropy([ctx.total], ctx.recovery_view(k),
                                                cache=ctx.cache)
        checks.append(Check("recovery", k, (), residual, 0, "eq", agrees=spot))
    return checks


def audit_converse(precoder: Precoder | AuditContext) -> list[Check]:
    """Evaluate the converse floors on this scheme and assert each one.

    These hold for every valid scheme whatsoever; here they are instantiated
    numerically on this one. Worst-case collusion sets (size exactly T) are
    enumerated for the set-dependent checks. The key_budget entry records the
    tight key-versus-input budget: C(K-T-1, G) * L_S >= (K-T-2) * L, met with
    equality by the optimal construction.
    """
    ctx = _context(precoder)
    p = ctx.precoder.params
    cache = ctx.cache
    L = ctx.precoder.L
    messages, inputs, bundles = ctx.messages, ctx.inputs, ctx.bundles
    checks: list[Check] = []

    # Each message still carries a full input's worth of fresh entropy even
    # when everyone else's material is known.
    for u in p.users:
        value = infocalc.conditional_entropy([messages[u]], ctx.material(ctx.others(u)),
                                             cache=cache)
        checks.append(Check("message_entropy_floor", u, (), value, L, "ge"))

    # A message must stay independent of its own input from any single
    # other user's seat.
    for k in p.users:
        for u in ctx.others(k):
            value = infocalc.mutual_information(
                [messages[k]], [inputs[k]], ctx.material((u,)), cache=cache)
            checks.append(Check("pairwise_input_leak", k, (u,), value, 0, "eq"))

    for k in p.users:
        others = ctx.others(k)
        for cset in itertools.combinations(others, p.T):
            surv = [u for u in others if u not in cset]
            cond = ctx.material((k, *cset))
            surv_msgs = [messages[u] for u in surv]
            surv_inputs = [inputs[u] for u in surv]

            value = infocalc.conditional_entropy(surv_msgs, cond, cache=cache)
            checks.append(Check("joint_message_floor", k, cset, value, len(surv) * L, "ge"))

            value = infocalc.mutual_information(surv_msgs, surv_inputs, cond, cache=cache)
            checks.append(Check("residual_sum_leak", k, cset, value, L, "le"))

            key_cond = [bundles[k]] + [bundles[u] for u in cset]
            value = infocalc.conditional_entropy([bundles[u] for u in surv],
                                                 key_cond, cache=cache)
            checks.append(Check("key_entropy_floor", k, cset, value, (p.K - p.T - 2) * L, "ge"))

    budget = math.comb(p.K - p.T - 1, p.G) * ctx.precoder.L_S
    checks.append(Check("key_budget", None, (), budget, (p.K - p.T - 2) * L, "ge"))
    return checks


def audit_rates(precoder: Precoder) -> list[Check]:
    """The achieved rates against the optimal corner: R_X = 1, as each
    broadcast is L long, and R_S = L_S / L."""
    region = capacity(precoder.params.K, precoder.params.T, precoder.params.G)
    return [Check("rate_x", None, (), Fraction(1), region.r_x_star, "ge"),
            Check("rate_s", None, (), Fraction(precoder.L_S, precoder.L),
                  region.r_s_star, "ge")]


def audit(precoder: Precoder, seed: int = 0) -> AuditReport:
    """Run the full battery and assemble one deterministic report."""
    ctx = AuditContext(precoder)
    return AuditReport(precoder.params, audit_recovery(ctx, seed=seed) + audit_security(ctx)
                       + audit_converse(ctx) + audit_rates(precoder))
