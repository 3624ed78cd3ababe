"""Verification of a concrete scheme: recovery, security against every
collusion set, the rank certificate, and converse floor checks.

Security of a zero-sum linear scheme is equivalent to a rank statement: for
user k colluding with a set C, the block submatrix of the precoder restricted
to the surviving users and their exclusively-held keys must reach rank
(K - |C| - 2) * L. The auditor never assumes that equivalence: every check
computes both the exact mutual information and the rank, records both, and
reports disagreement as a failure of the auditor itself.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from . import infocalc
from .infocalc import (
    LinearObservable,
    layout_for,
    observe_input,
    observe_key_bundle,
    observe_message,
    observe_total,
)
from .linalg import Matrix
from .scheme import (
    InfeasibilityReason,
    Precoder,
    SchemeParams,
    capacity,
    encode,
    recover,
    sample_keys,
)


class InvalidCollusionSetError(ValueError):
    """The collusion set must be a subset of the other users, of size <= T."""


class NotInfeasibleRegimeError(ValueError):
    """Raised when an infeasibility explanation is requested for a feasible triple."""


def collusion_sets(K: int, k: int, T: int) -> Iterator[tuple[int, ...]]:
    """All subsets of [1..K] \\ {k} of size 0..T, lexicographic within each size."""
    others = [u for u in range(1, K + 1) if u != k]
    for size in range(T + 1):
        yield from itertools.combinations(others, size)


def expected_check_count(K: int, T: int) -> int:
    """Number of (user, collusion set) pairs an exhaustive audit must cover."""
    return K * sum(math.comb(K - 1, t) for t in range(T + 1))


def _validate_collusion(precoder: Precoder, k: int, colluders: Sequence[int]) -> tuple[int, ...]:
    p = precoder.params
    cset = tuple(sorted(colluders))
    if not 1 <= k <= p.K:
        raise InvalidCollusionSetError(f"user {k} outside [1..{p.K}]")
    if len(set(cset)) != len(cset) or k in cset or any(not 1 <= u <= p.K for u in cset):
        raise InvalidCollusionSetError(
            f"colluders {cset} must be distinct users other than {k}"
        )
    if len(cset) > p.T:
        raise InvalidCollusionSetError(
            f"collusion set of size {len(cset)} exceeds the bound T={p.T}"
        )
    return cset


# -- rank certificate --------------------------------------------------------


def submatrix_hhat(precoder: Precoder, k: int, colluders: Sequence[int]) -> Matrix:
    """The precoder restricted to surviving users and their exclusive keys.

    Row blocks: users outside colluders+{k}, ascending. Column blocks: groups
    fully inside the surviving set, lexicographic. Shape is
    (K - |C| - 1) * L rows by C(K - |C| - 1, G) * L_S columns; with fewer
    than G survivors there are no surviving groups and the matrix has zero
    columns.
    """
    cset = _validate_collusion(precoder, k, colluders)
    p = precoder.params
    L, L_S = precoder.L, precoder.L_S
    survivors = [u for u in p.users if u != k and u not in cset]
    surviving = p.key_columns((g for g in p.groups if all(u in survivors for u in g)), L_S)
    out = np.zeros((len(survivors) * L, surviving.size), dtype=np.int64)
    for r, u in enumerate(survivors):
        held = p.key_columns(p.held(u), L_S)
        keep = np.isin(held, surviving)
        out[r * L : (r + 1) * L, np.searchsorted(surviving, held[keep])] = (
            precoder.row(u).data[:, keep])
    return Matrix(p.field, out)


@dataclass(frozen=True)
class RankCheck:
    k: int
    colluders: tuple[int, ...]
    required: int
    achieved: int

    @property
    def ok(self) -> bool:
        return self.achieved >= self.required


def rank_condition(precoder: Precoder, k: int, colluders: Sequence[int]) -> RankCheck:
    """Required vs achieved rank of the surviving-key submatrix."""
    cset = _validate_collusion(precoder, k, colluders)
    required = (precoder.params.K - len(cset) - 2) * precoder.L
    achieved = submatrix_hhat(precoder, k, cset).rank()
    return RankCheck(k, cset, required, achieved)


def rank_certificate_ok(precoder: Precoder) -> bool:
    """Whether the rank condition holds for every user and collusion set."""
    p = precoder.params
    for k in p.users:
        for cset in collusion_sets(p.K, k, p.T):
            if not rank_condition(precoder, k, cset).ok:
                return False
    return True


# -- audit entries ------------------------------------------------------------


@dataclass(frozen=True)
class SecurityCheck:
    """One (user, collusion set) security probe: exact MI plus the rank view."""

    k: int
    colluders: tuple[int, ...]
    mi: int
    rank: RankCheck

    @property
    def ok(self) -> bool:
        return self.mi == 0

    @property
    def consistent(self) -> bool:
        """MI and rank must agree; disagreement indicts the auditor."""
        return (self.mi == 0) == self.rank.ok


@dataclass(frozen=True)
class RecoveryCheck:
    """Residual entropy of the global sum given one user's view, plus a
    concrete seeded spot check through the decode path."""

    k: int
    residual_entropy: int
    spot_check_ok: bool

    @property
    def ok(self) -> bool:
        return self.residual_entropy == 0 and self.spot_check_ok


@dataclass(frozen=True)
class ConverseCheck:
    """A floor/ceiling the theory imposes on every valid scheme, evaluated
    numerically on this one."""

    check_id: str
    k: int | None
    colluders: tuple[int, ...]
    value: int
    bound: int
    relation: str  # "ge", "le", or "eq"

    @property
    def ok(self) -> bool:
        if self.relation == "ge":
            return self.value >= self.bound
        if self.relation == "le":
            return self.value <= self.bound
        return self.value == self.bound


@dataclass(frozen=True)
class RateCheck:
    """Achieved rates against the optimal corner."""

    r_x: Fraction
    r_s: Fraction
    r_x_star: Fraction
    r_s_star: Fraction

    @property
    def ok(self) -> bool:
        return self.r_x >= self.r_x_star and self.r_s >= self.r_s_star

    @property
    def tight(self) -> bool:
        return self.r_x == self.r_x_star and self.r_s == self.r_s_star


@dataclass
class AuditReport:
    params: SchemeParams
    recovery: list[RecoveryCheck] = dc_field(default_factory=list)
    security: list[SecurityCheck] = dc_field(default_factory=list)
    converse: list[ConverseCheck] = dc_field(default_factory=list)
    rates: RateCheck | None = None

    @property
    def security_consistent(self) -> bool:
        return all(c.consistent for c in self.security)

    @property
    def all_ok(self) -> bool:
        checks: list[bool] = [c.ok for c in self.recovery]
        checks += [c.ok and c.consistent for c in self.security]
        checks += [c.ok for c in self.converse]
        if self.rates is not None:
            checks.append(self.rates.ok)
        return bool(checks) and all(checks)

    def to_lines(self) -> list[str]:
        """Machine-readable one-line-per-check report."""

        def tset(cset: Sequence[int]) -> str:
            return "{" + ",".join(str(u) for u in cset) + "}"

        def line(kind: str, k, cset, value, bound, ok: bool) -> str:
            who = "-" if k is None else str(k)
            verdict = "PASS" if ok else "FAIL"
            return (f"CHECK {kind} k={who} T={tset(cset)} "
                    f"value={value} bound={bound} {verdict}")

        lines: list[str] = []
        for c in self.recovery:
            lines.append(line("recovery", c.k, (), c.residual_entropy, 0, c.ok))
        for c in self.security:
            lines.append(line("security", c.k, c.colluders, c.mi, 0, c.ok))
            lines.append(line("rank", c.k, c.colluders, c.rank.achieved,
                              c.rank.required, c.rank.ok and c.consistent))
        for c in self.converse:
            lines.append(line(c.check_id, c.k, c.colluders, c.value, c.bound, c.ok))
        if self.rates is not None:
            r = self.rates
            lines.append(line("rate_x", None, (), r.r_x, r.r_x_star, r.r_x >= r.r_x_star))
            lines.append(line("rate_s", None, (), r.r_s, r.r_s_star, r.r_s >= r.r_s_star))
        return lines


# -- audit context --------------------------------------------------------------


class _AuditContext:
    """The observables of one precoder, the views an audit takes of them, and
    the rank cache its queries share.

    The cache is keyed by observable labels, which name different matrices
    for different precoders; holding it here ties it to one precoder.
    """

    def __init__(self, precoder: Precoder) -> None:
        p = precoder.params
        self.precoder = precoder
        self.layout = layout_for(precoder)
        self.messages = {k: observe_message(precoder, k) for k in p.users}
        self.inputs = {k: observe_input(self.layout, k) for k in p.users}
        self.bundles = {k: observe_key_bundle(self.layout, k) for k in p.users}
        self.total = observe_total(self.layout)
        self.cache: dict = {}

    def others(self, k: int) -> list[int]:
        return [u for u in self.precoder.params.users if u != k]

    def material(self, users: Sequence[int]) -> list[LinearObservable]:
        """The inputs and keys of ``users``, in that order."""
        return [o for u in users for o in (self.inputs[u], self.bundles[u])]

    def security_terms(self, k: int, cset: Sequence[int]) -> tuple[list, list, list]:
        """(a, b, view) with I(a; b | view) the security MI of user k
        colluding with cset: what the received messages reveal about the
        other users' inputs beyond the global sum, k's own input and keys,
        and the colluders' inputs and keys."""
        others = self.others(k)
        return ([self.messages[u] for u in others], [self.inputs[u] for u in others],
                [self.total] + self.material((k, *cset)))

    def recovery_view(self, k: int) -> list[LinearObservable]:
        """What user k decodes from: the received messages, its own input
        and keys."""
        return [self.messages[u] for u in self.others(k)] + self.material((k,))


def _context(subject: Precoder | _AuditContext) -> _AuditContext:
    return subject if isinstance(subject, _AuditContext) else _AuditContext(subject)


# -- audits ---------------------------------------------------------------------

# Each audit takes a precoder, or the context ``audit`` shares across them.


def audit_security(precoder: Precoder | _AuditContext) -> list[SecurityCheck]:
    """Exact MI and rank certificate for every user and collusion set.

    The MI probed is: what the received messages reveal about the other
    users' inputs beyond the global sum, the receiver's own material, and
    the colluders' material. Entries are emitted in (user, set size,
    lexicographic) order so reports diff cleanly across runs.
    """
    ctx = _context(precoder)
    p = ctx.precoder.params
    checks: list[SecurityCheck] = []
    for k in p.users:
        for cset in collusion_sets(p.K, k, p.T):
            mi = infocalc.mutual_information(*ctx.security_terms(k, cset), cache=ctx.cache)
            checks.append(SecurityCheck(k, cset, mi, rank_condition(ctx.precoder, k, cset)))
    return checks


def audit_recovery(precoder: Precoder | _AuditContext, seed: int = 0,
                   samples: int = 2) -> list[RecoveryCheck]:
    """Zero residual entropy of the global sum per user, plus seeded decode
    spot checks against directly summed inputs."""
    ctx = _context(precoder)
    precoder = ctx.precoder
    p = precoder.params

    spot: dict[int, bool] = {k: True for k in p.users}
    rng = np.random.Generator(np.random.PCG64(seed))
    for _ in range(samples):
        keys = sample_keys(precoder, rng.integers(0, 2**63 - 1))
        inputs = rng.integers(0, p.q, size=(p.K, precoder.L), dtype=np.int64)
        expected = inputs.sum(axis=0) % p.q
        sent = {k: encode(precoder, keys, inputs[k - 1], k) for k in p.users}
        for k in p.users:
            got = recover(precoder, keys, k, [sent[u] for u in p.users if u != k])
            full = (got + inputs[k - 1]) % p.q
            if not np.array_equal(full, expected):
                spot[k] = False

    checks = []
    for k in p.users:
        residual = infocalc.conditional_entropy([ctx.total], ctx.recovery_view(k),
                                                cache=ctx.cache)
        checks.append(RecoveryCheck(k, residual, spot[k]))
    return checks


def audit_converse(precoder: Precoder | _AuditContext) -> list[ConverseCheck]:
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
    checks: list[ConverseCheck] = []

    # Each message still carries a full input's worth of fresh entropy even
    # when everyone else's material is known.
    for u in p.users:
        value = infocalc.conditional_entropy([messages[u]], ctx.material(ctx.others(u)),
                                             cache=cache)
        checks.append(ConverseCheck("message_entropy_floor", u, (), value, L, "ge"))

    # A message must stay independent of its own input from any single
    # other user's seat.
    for k in p.users:
        for u in ctx.others(k):
            value = infocalc.mutual_information(
                [messages[k]], [inputs[k]], ctx.material((u,)), cache=cache)
            checks.append(ConverseCheck("pairwise_input_leak", k, (u,), value, 0, "eq"))

    for k in p.users:
        others = ctx.others(k)
        for cset in itertools.combinations(others, p.T):
            surv = [u for u in others if u not in cset]
            cond = ctx.material((k, *cset))
            surv_msgs = [messages[u] for u in surv]
            surv_inputs = [inputs[u] for u in surv]

            value = infocalc.conditional_entropy(surv_msgs, cond, cache=cache)
            checks.append(ConverseCheck("joint_message_floor", k, cset,
                                        value, len(surv) * L, "ge"))

            value = infocalc.mutual_information(surv_msgs, surv_inputs, cond, cache=cache)
            checks.append(ConverseCheck("residual_sum_leak", k, cset, value, L, "le"))

            key_cond = [bundles[k]] + [bundles[u] for u in cset]
            value = infocalc.conditional_entropy([bundles[u] for u in surv],
                                                 key_cond, cache=cache)
            checks.append(ConverseCheck("key_entropy_floor", k, cset,
                                        value, (p.K - p.T - 2) * L, "ge"))

    budget = math.comb(p.K - p.T - 1, p.G) * ctx.precoder.L_S
    checks.append(ConverseCheck("key_budget", None, (), budget,
                                (p.K - p.T - 2) * L, "ge"))
    return checks


def audit_rates(precoder: Precoder) -> RateCheck:
    region = capacity(precoder.params.K, precoder.params.T, precoder.params.G)
    return RateCheck(
        r_x=Fraction(precoder.L, precoder.L),  # broadcast length equals L
        r_s=Fraction(precoder.L_S, precoder.L),
        r_x_star=region.r_x_star,
        r_s_star=region.r_s_star,
    )


def audit(precoder: Precoder, seed: int = 0) -> AuditReport:
    """Run the full battery and assemble one deterministic report."""
    ctx = _AuditContext(precoder)
    report = AuditReport(params=precoder.params)
    report.recovery = audit_recovery(ctx, seed=seed)
    report.security = audit_security(ctx)
    report.converse = audit_converse(ctx)
    report.rates = audit_rates(precoder)
    return report


# -- infeasible regimes ----------------------------------------------------------


@dataclass(frozen=True)
class InfeasibilityExplanation:
    K: int
    T: int
    G: int
    reason: InfeasibilityReason
    detail: str
    # For G == 1: per-user MI that security would need to be zero.
    leak_by_user: tuple[tuple[int, int], ...] = ()


def audit_infeasibility(K: int, T: int, G: int, q: int = 2,
                        candidate: Precoder | None = None) -> InfeasibilityExplanation:
    """Demonstrate numerically why an infeasible triple admits no scheme.

    For G == 1 every group has a single member, so the zero-sum constraint
    forces every block to zero and messages go out unmasked; the security MI
    is computed on the (supplied or canonical all-zero) candidate and shown
    to be positive for every user. For G >= K - T a counting argument is
    verified exhaustively: every group meets every coalition of T + 1 users,
    so such a coalition reads every key in the system.
    """
    region = capacity(K, T, G)
    if region.feasible:
        raise NotInfeasibleRegimeError(f"(K={K}, T={T}, G={G}) is feasible")

    if region.infeasibility_reason is InfeasibilityReason.GROUP_SIZE_ONE:
        params = SchemeParams(K=K, T=T, G=1, q=q, m=1)
        if candidate is None:
            candidate = Precoder(params, np.zeros((K, 1, 1, 1), dtype=np.int64))
        if not candidate.zero_sum_ok():
            detail = ("zero-sum fails: with singleton groups each block must "
                      "itself be zero, so this candidate cannot even cancel "
                      "keys from the sum")
            return InfeasibilityExplanation(K, T, G,
                                            InfeasibilityReason.GROUP_SIZE_ONE, detail)
        ctx = _AuditContext(candidate)
        leaks = [(k, infocalc.mutual_information(*ctx.security_terms(k, ()), cache=ctx.cache))
                 for k in candidate.params.users]
        detail = ("singleton groups force all-zero masks; every user's "
                  "received messages leak the others' inputs beyond the sum")
        return InfeasibilityExplanation(K, T, G, InfeasibilityReason.GROUP_SIZE_ONE,
                                        detail, tuple(leaks))

    # G >= K - T: exhaustively confirm every coalition of T+1 users touches
    # every group, i.e. no key survives outside the coalition's reach.
    assert region.infeasibility_reason is InfeasibilityReason.GROUP_TOO_LARGE
    uncovered = 0
    for coalition in itertools.combinations(range(1, K + 1), T + 1):
        outside = [u for u in range(1, K + 1) if u not in coalition]
        uncovered = max(uncovered, sum(1 for _ in itertools.combinations(outside, G)))
    assert uncovered == math.comb(K - T - 1, G) == 0
    detail = (f"every size-{G} group intersects every coalition of {T + 1} "
              f"users (K - G + 1 = {K - G + 1} <= T + 1 = {T + 1}), so a "
              "coalition can reconstruct all keys in the system")
    return InfeasibilityExplanation(K, T, G, InfeasibilityReason.GROUP_TOO_LARGE, detail)
