"""Scheme parameters, the optimal rate region, and the groupwise-key linear
masking scheme: construction, encoding, and recovery.

The setting: K users on an error-free broadcast network each hold a private
length-L input vector over F_q and want every user to learn the sum of all
inputs, and nothing else, even when up to T of the other users pool their
inputs and keys with the curious one. Every G-subset of users shares an
independent uniform key of L_S symbols. Each user broadcasts its input plus
a fixed linear combination of the keys it holds; the per-user, per-group
coefficient blocks form the precoder. Correctness needs each group's blocks
to sum to zero so key material cancels in the global sum; privacy needs the
surviving blocks to look full-rank to every feasible collusion set.
"""

from __future__ import annotations

import enum
import itertools
import math
import os
import re
import sys
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from fractions import Fraction
from typing import Sequence

import numpy as np

from .gf import FieldMismatchError, PrimeField, _integer
from .linalg import DimensionMismatchError, Matrix

SCHEME_MAGIC = "DSA1"

# A scheme file's one number form, so each scheme has one text: a plain
# decimal of at most 18 digits (it fits int64), no sign or leading zero.
_NUMBER = re.compile(r"(?:0|[1-9][0-9]{0,17})")

# Largest precoder a draw will construct: 2**24 int64 entries is 128 MB of
# coefficients. ``SchemeParams.members`` holds no more entries than that either.
_MAX_PRECODER_ENTRIES = 2**24


def _integers(values: Sequence[int], what: str, lo: int, hi: int) -> np.ndarray:
    """``values`` (each a ``what``) as a flat intp array; TypeError for
    floats, bools, nested or ragged input or anything else a cast would
    round or flatten, and KeyError for one outside lo..hi. Every user id
    and group id of the public API passes this one check."""
    try:
        arr = np.asarray(values)
    except ValueError:  # ragged
        arr = np.asarray(values, dtype=object)
    if arr.ndim > 1 or arr.size and arr.dtype.kind not in "iu":
        raise TypeError(f"{what}s must be integers, not {arr.ndim}-d {arr.dtype}")
    arr = arr.reshape(-1)
    # NumPy makes [True, 5] an integer array, so a list is checked by item.
    if arr.size and not isinstance(values, np.ndarray) and any(
            isinstance(v, (bool, np.bool_)) for v in np.asarray(values, dtype=object).flat):
        raise TypeError(f"{what}s must be integers, not bool")
    arr = arr.astype(np.intp)
    bad = arr[(arr < lo) | (arr > hi)]
    if bad.size:
        raise KeyError(f"{what} {bad[0]} outside [{lo}..{hi}]")
    return arr


class ParamsOutOfModelError(ValueError):
    """Parameters outside the model: K < 3, T outside [0, K-3], or G outside [1, K]."""


class InfeasibleSchemeError(ValueError):
    """Operation requires a feasible (K, T, G) triple."""


class ConstructionFailedError(RuntimeError):
    """Randomized construction exhausted its retry budget.

    Signals that the field or the block scale is too small for the rank
    certificate to hold with noticeable probability. ``failures`` holds one
    ``auditor.RankCheck`` per seed tried, in seed order: the first coalition
    that draw failed, with its required and achieved rank.
    """

    def __init__(self, first_seed: int, last_seed: int, failures: Sequence):
        self.seed_range = (first_seed, last_seed)
        self.failures = tuple(failures)
        super().__init__(
            f"no rank-valid precoder found for seeds {first_seed}..{last_seed}; "
            "try a larger field or block scale"
        )


class SchemeFormatError(ValueError):
    """Malformed scheme file; carries the 1-based offending line number."""

    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(f"line {line}: {message}")


class InfeasibilityReason(enum.Enum):
    GROUP_SIZE_ONE = "group_size_one"
    GROUP_TOO_LARGE = "group_too_large"


def _validate_collusion(K: int, T: int) -> tuple[int, int]:
    """(K, T) as ints; ParamsOutOfModelError for K < 3 or T outside [0, K-3]."""
    K, T = _integer("K", K), _integer("T", T)
    if K < 3:
        raise ParamsOutOfModelError(f"need at least 3 users, got K={K}")
    if not 0 <= T <= K - 3:
        raise ParamsOutOfModelError(f"collusion bound T={T} outside [0, {K - 3}]")
    return K, T


def _validate_model(K: int, T: int, G: int) -> tuple[int, int, int]:
    """(K, T, G) as ints; ParamsOutOfModelError as above or for G outside [1, K]."""
    K, T = _validate_collusion(K, T)
    G = _integer("G", G)
    if not 1 <= G <= K:
        raise ParamsOutOfModelError(f"group size G={G} outside [1, {K}]")
    return K, T, G


def _infeasibility(K: int, T: int, G: int) -> InfeasibilityReason | None:
    """Why the in-model triple (K, T, G) admits no scheme; None if it does."""
    if G == 1:
        return InfeasibilityReason.GROUP_SIZE_ONE
    if G >= K - T:
        return InfeasibilityReason.GROUP_TOO_LARGE
    return None


def _binomial_up_to(n: int, k: int, cap: int) -> int:
    """C(n, k) if it is at most ``cap``, else cap + 1. The partial products
    C(n - k + i, i) only grow with i, so none exceeds cap * n."""
    k = min(k, n - k)
    c = int(k >= 0)
    for i in range(1, k + 1):
        c = c * (n - k + i) // i
        if c > cap:
            return cap + 1
    return c


# -- rate region ---------------------------------------------------------------


@dataclass(frozen=True)
class RateRegion:
    """Feasibility and the optimal rate corner for a (K, T, G) triple.

    Rates are exact rationals: r_x_star is the minimum broadcast symbols per
    input symbol, r_s_star the minimum key symbols per input symbol for each
    group key. r_z_star and r_z_sigma_star are the per-user and total key
    rates implied by r_s_star (each user holds C(K-1, G-1) group keys; the
    system holds C(K, G)).
    """

    K: int
    T: int
    G: int
    feasible: bool
    r_x_star: Fraction | None = None
    r_s_star: Fraction | None = None
    r_z_star: Fraction | None = None
    r_z_sigma_star: Fraction | None = None
    infeasibility_reason: InfeasibilityReason | None = None


def capacity(K: int, T: int, G: int) -> RateRegion:
    """The optimal rate region for the (K, T, G) aggregation problem.

    Infeasible exactly when G == 1 (keys are uncorrelated, so they cannot
    cancel from the sum) or G >= K - T (any T+1 users jointly see every key).
    Otherwise the corner point is r_x = 1 and
    r_s = (K - T - 2) / C(K - T - 1, G).

    Raises ParamsOutOfModelError when K < 3, T outside [0, K-3], or G outside
    [1, K]; that is distinct from an in-model infeasible triple.
    """
    K, T, G = _validate_model(K, T, G)
    reason = _infeasibility(K, T, G)
    if reason is not None:
        return RateRegion(K, T, G, False, infeasibility_reason=reason)
    r_s = Fraction(K - T - 2, math.comb(K - T - 1, G))
    return RateRegion(
        K, T, G, True,
        r_x_star=Fraction(1),
        r_s_star=r_s,
        r_z_star=math.comb(K - 1, G - 1) * r_s,
        r_z_sigma_star=math.comb(K, G) * r_s,
    )


@dataclass(frozen=True)
class GroupSizeReport:
    """Where the per-group key rate is smallest as a function of G.

    ``formula`` is the closed-form minimizer floor((K-T-1)/2), which can fall
    below the feasibility floor G >= 2 for small K - T; ``minimizers`` lists
    every feasible G attaining the minimum r_s_star, and ``best`` is the
    smallest of them. Both views are reported so the clamp is never silent.
    """

    best: int
    formula: int
    minimizers: tuple[int, ...]


def optimal_group_size_report(K: int, T: int) -> GroupSizeReport:
    K, T = _validate_collusion(K, T)  # so G = 2 is feasible: 2 < K - T
    formula = (K - T - 1) // 2
    rates = {G: capacity(K, T, G).r_s_star for G in range(2, K - T)}
    best_rate = min(rates.values())
    minimizers = tuple(sorted(G for G, r in rates.items() if r == best_rate))
    return GroupSizeReport(minimizers[0], formula, minimizers)


# -- parameters ----------------------------------------------------------------


@dataclass(frozen=True)
class SchemeParams:
    """Problem size (K users, T colluders, group size G) plus field and scale.

    The block scale m multiplies the minimal vector lengths: inputs carry
    L = m * C(K-T-1, G) symbols and each group key L_S = m * (K-T-2), which
    realizes the optimal rate corner exactly (L_S / L == r_s_star as a
    rational identity). Lengths are only defined on feasible triples.
    """

    K: int
    T: int
    G: int
    q: int
    m: int = 1
    field: PrimeField = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        sizes = _validate_model(self.K, self.T, self.G) + (_integer("m", self.m),
                                                             _integer("q", self.q))
        for name, value in zip(("K", "T", "G", "m", "q"), sizes):
            object.__setattr__(self, name, value)
        if self.m < 1:
            raise ValueError(f"block scale m must be >= 1, got {self.m}")
        object.__setattr__(self, "field", PrimeField(self.q))

    @property
    def feasible(self) -> bool:
        return _infeasibility(self.K, self.T, self.G) is None

    def _require_feasible(self) -> None:
        reason = _infeasibility(self.K, self.T, self.G)
        if reason is not None:
            raise InfeasibleSchemeError(
                f"(K={self.K}, T={self.T}, G={self.G}) is infeasible "
                f"({reason.value}); lengths are undefined"
            )

    @property
    def L(self) -> int:
        self._require_feasible()
        return self.m * math.comb(self.K - self.T - 1, self.G)

    @property
    def L_S(self) -> int:
        self._require_feasible()
        return self.m * (self.K - self.T - 2)

    @property
    def users(self) -> range:
        return range(1, self.K + 1)

    def group_index(self, group: Sequence[int]) -> int:
        """Row of ``group`` in ``members``; TypeError unless its users are
        integers, KeyError if it is not a group."""
        try:
            users = _integers(group, "user", 1, self.K)
            if users.size == self.G:
                return int(np.flatnonzero((self.members == users).all(axis=1))[0])
        except (KeyError, IndexError):  # a user outside 1..K, or no such row
            pass
        raise KeyError(f"{tuple(group)} is not a size-{self.G} group of [1..{self.K}]")

    def group_ids(self, ids: Sequence[int]) -> np.ndarray:
        """``ids`` as a flat array of rows of ``members``; TypeError unless
        they are integers, KeyError unless each is in range(C(K, G))."""
        return _integers(ids, "group id", 0, len(self.members) - 1)

    def user_index(self, k: int) -> int:
        """0-based position of user k; TypeError unless it is an integer,
        KeyError unless 1 <= k <= K."""
        return _integers([k], "user", 1, self.K).item() - 1

    @cached_property
    def members(self) -> np.ndarray:
        """Every G-subset of users 1..K as a read-only (C(K, G), G) array,
        groups in lexicographic order, members ascending: the first two axes
        of a precoder's block array. ParamsOutOfModelError, before any group
        is enumerated, if it would hold more than the precoder size limit."""
        n = _binomial_up_to(self.K, self.G, _MAX_PRECODER_ENTRIES)
        if n * self.G > _MAX_PRECODER_ENTRIES:
            raise ParamsOutOfModelError(
                f"the groups would hold more than the limit of {_MAX_PRECODER_ENTRIES} entries")
        groups = itertools.combinations(self.users, self.G)
        arr = np.fromiter(groups, dtype=(np.intp, self.G), count=n)
        arr.setflags(write=False)
        return arr


# -- precoder --------------------------------------------------------------


class Precoder:
    """The per-user, per-group key coefficient blocks of a linear scheme.

    The block of user k for a group holding k is the L x L_S matrix applied
    to that group's key inside k's message; users outside a group implicitly
    carry the zero block. The precoder is stored as one read-only integer
    array ``blocks`` of shape (C(K, G), G, L, L_S) in scheme-file order:
    groups in lexicographic order, members ascending (``params.members``).
    L and L_S are read from that shape and may deliberately differ from the
    parameter-derived lengths (e.g. to study undersized keys). Instances are
    immutable after construction and safe to audit from concurrent workers.
    """

    __slots__ = ("params", "L", "L_S", "blocks")

    def __init__(self, params: SchemeParams, blocks: np.ndarray) -> None:
        blocks = np.asarray(blocks)
        expected = (len(params.members), params.G)
        if blocks.ndim != 4 or blocks.shape[:2] != expected or blocks.shape[2] < 1:
            raise DimensionMismatchError(
                f"block array has shape {blocks.shape}, expected {expected} + (L, L_S), L >= 1")
        blocks = params.field.reduce(blocks)
        blocks.setflags(write=False)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "L", blocks.shape[2])
        object.__setattr__(self, "L_S", blocks.shape[3])
        object.__setattr__(self, "blocks", blocks)

    def __setattr__(self, name, value):
        raise AttributeError("Precoder is immutable")

    def block(self, k: int, group: Sequence[int]) -> Matrix:
        """The coefficient block of user k for ``group`` (zero if k is outside)."""
        i = self.params.group_index(group)  # KeyError for a group that does not exist
        return Matrix(self.params.field, self.key_map([k], [i]))  # and for a user outside 1..K

    def zero_sum_ok(self) -> bool:
        """Whether every group's blocks sum to the zero matrix."""
        return not (self.blocks.sum(axis=1) % self.params.q).any()

    def key_map(self, users: Sequence[int], ids: Sequence[int]) -> np.ndarray:
        """The coefficients of ``users``' masks on the keys of the groups
        ``ids`` (rows of ``params.members``), both in the order given:
        a (len(users) * L) x (len(ids) * L_S) array whose (i, j) block is
        the block of users[i] for group ids[j], zero if it is outside.
        TypeError unless both are integers; KeyError for a user outside 1..K
        or an id outside range(C(K, G))."""
        ids = self.params.group_ids(ids)
        users = _integers(users, "user", 1, self.params.K)
        # (user, group, seat) of every block that lands in the map
        at, gi, seat = np.nonzero(self.params.members[ids] == users[:, None, None])
        out = np.zeros((users.size, self.L, ids.size, self.L_S), dtype=np.int64)
        out[at, :, gi, :] = self.blocks[ids[gi], seat]
        return out.reshape(users.size * self.L, ids.size * self.L_S)

    def masks(self, keys: "GroupKeySet") -> np.ndarray:
        """Every user's key mask as a K x L array: row k-1 is the sum over the
        groups g holding k of H_{k,g} S_g. One batched product of the groups'
        blocks with their keys, a sum over each user's n = C(K-1, G-1) seats
        and one reduction mod q: exact while n*L_S*(q-1)**2 < 2**63 (at m=1,
        every q below 2**25 up to K=12). Past it the keys split into 16-bit
        limbs, each product summed per user, then reduced: exact while
        n*L_S*(q-1)*(2**16-1) < 2**63 (q=2**31-1 up to K=15). Past that the
        symbols go in chunks whose products fit, each seat's reduced first."""
        p, q, L = self.params, self.params.q, self.L
        if (keys.params, keys.L_S) != (p, self.L_S):
            raise DimensionMismatchError(f"keys of {keys.L_S} symbols for {keys.params} "
                                         f"do not fit a precoder with L_S={self.L_S} for {p}")
        n = len(p.members) * p.G // p.K
        split = n * self.L_S * (q - 1) ** 2 >= 2**63
        top = (q - 1) * (2**16 - 1 if split else q - 1)  # the largest product
        whole = n * self.L_S * top < 2**63
        width = (self.L_S or 1) if whole else (2**63 - 1) // top
        seats = np.argsort(p.members, axis=None, kind="stable")  # user 1's n, then 2's, ...
        blocks = self.blocks.reshape(len(p.members), p.G * L, self.L_S)
        out = 0
        for s in range(0, self.L_S or 1, width):
            part = keys.table[:, s:s + width]
            limbs = np.stack([part >> 16, part & 0xFFFF]) if split else part[None]
            prod = np.matmul(blocks[..., s:s + width], limbs[..., None])
            prod = (prod if whole else prod % q).reshape(len(limbs), -1, L)[:, seats]
            sums = prod.reshape(len(limbs), p.K, n, L).sum(axis=2) % q
            out = (out + (sums[0] << 16) + sums[1] if split else out + sums[0]) % q
        return out

    def replace_block(self, k: int, group: Sequence[int], mat: Matrix) -> "Precoder":
        """A copy with one block swapped (used by damage/mutation tests)."""
        i = self.params.group_index(group)
        seat = np.flatnonzero(self.params.members[i] == self.params.user_index(k) + 1)
        if not seat.size:
            raise KeyError(f"user {k} carries no block for {tuple(group)}")
        if mat.field != self.params.field:
            raise FieldMismatchError(f"block over F_{mat.field.q}, expected F_{self.params.q}")
        if mat.shape != (self.L, self.L_S):
            raise DimensionMismatchError(f"block is {mat.shape}, expected {(self.L, self.L_S)}")
        blocks = self.blocks.copy()
        blocks[i, seat[0]] = mat.data
        return Precoder(self.params, blocks)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Precoder):
            return NotImplemented
        return self.params == other.params and np.array_equal(self.blocks, other.blocks)


def _check_precoder_size(params: SchemeParams,
                         L: int | None = None, L_S: int | None = None) -> None:
    """Refuse a precoder of K*C(K-1,G-1) blocks of L x L_S, with L = m*C(K-T-1,G)
    and L_S = m*(K-T-2) unless given, over the size limit, before any group
    is enumerated. Each binomial is counted only up to the limit, so a capped
    one alone puts a product of positive factors over it. A given L < 1 or
    L_S < 0 is refused first, as ``Precoder`` refuses L = 0: a negative
    length would make the product negative, and so under the limit. A
    given length that is not an integer (a float, a bool) is refused by
    name before that."""
    for name, n in (("L", L), ("L_S", L_S)):
        if n is not None:
            _integers([n], f"{name} value", -sys.maxsize, sys.maxsize)
    if (L is not None and L < 1) or (L_S is not None and L_S < 0):
        raise DimensionMismatchError(
            f"block lengths need L >= 1 and L_S >= 0, got L={L}, L_S={L_S}")
    K, T, G, cap = params.K, params.T, params.G, _MAX_PRECODER_ENTRIES
    L = params.m * _binomial_up_to(K - T - 1, G, cap) if L is None else L
    L_S = params.L_S if L_S is None else L_S
    if K * _binomial_up_to(K - 1, G - 1, cap) * L * L_S > cap:
        raise ParamsOutOfModelError(
            f"the precoder would hold more than the limit of {cap} entries")


def random_precoder(params: SchemeParams, seed: int,
                    L: int | None = None, L_S: int | None = None) -> Precoder:
    """One seeded zero-sum draw with no rank verification: in each group the
    G-1 lowest-index members get i.i.d. uniform blocks and the highest-index
    member absorbs the negated sum; ParamsOutOfModelError past the size limit."""
    _check_precoder_size(params, L, L_S)
    L = params.L if L is None else L
    L_S = params.L_S if L_S is None else L_S
    rng = np.random.Generator(np.random.PCG64(seed))
    blocks = np.empty((len(params.members), params.G, L, L_S), dtype=np.int64)
    blocks[:, :-1] = rng.integers(0, params.q, size=blocks[:, :-1].shape, dtype=np.int64)
    blocks[:, -1] = -blocks[:, :-1].sum(axis=1)
    return Precoder(params, blocks)


def build_precoder(params: SchemeParams, seed: int = 0, max_retries: int = 16) -> Precoder:
    """Construct a precoder whose rank certificate holds for every user and
    every collusion set of size at most T.

    Draws zero-sum blocks from the seeded generator and verifies the
    certificate; on failure the next seed is tried. The draws are zero-sum,
    so the certificate ranks only the coalitions of size T+1 and a lemma
    covers the smaller ones (``auditor.rank_certificate_ok``). Over a large
    field a single draw succeeds with probability close to 1, so the retry
    budget is only exercised on small fields.

    Raises ConstructionFailedError, carrying each seed's first failing
    coalition, when every seed in [seed, seed + max_retries) fails, which
    signals that q or m is too small.
    """
    from .auditor import _first_failure  # local import to avoid a cycle

    if max_retries < 1:
        raise ValueError(f"max_retries must be at least 1, got {max_retries}")
    if not params.feasible:
        raise InfeasibleSchemeError(
            f"(K={params.K}, T={params.T}, G={params.G}) admits no scheme"
        )
    failures = []
    for attempt in range(max_retries):
        pre = random_precoder(params, seed + attempt)
        failure = _first_failure(pre)
        if failure is None:
            return pre
        failures.append(failure)
    raise ConstructionFailedError(seed, seed + max_retries - 1, failures)


# -- deterministic reference constructions (K <= 4) -------------------------


def reference_precoder(params: SchemeParams) -> Precoder:
    """A closed-form rank-valid precoder for the K <= 4 feasible triples.

    These witnesses show that valid precoders exist at every block scale
    without any random search:

    - K - T - 1 == 2, G == 2 (covers (3,0,2) and (4,1,2)): signed identity
      blocks; the surviving pair's stacked [I; -I] has full column rank.
    - (4,0,2): pairs are assigned one of three rank-2 column patterns by
      perfect-matching class of the 4-vertex complete graph, so the three
      pairs inside any surviving triple get three 2m-dim column spaces of
      F^(3m) with trivial common intersection.
    - (4,0,3): inside each triple the members carry [I 0], [0 I], -[I I].
    """
    if not params.feasible:
        raise InfeasibleSchemeError("reference construction needs a feasible triple")
    m = params.m
    n = len(params.members)
    eye = np.eye(m, dtype=np.int64)

    if params.G == 2 and params.K - params.T - 1 == 2:
        blocks = np.tile([eye, -eye], (n, 1, 1, 1))
    elif (params.K, params.T, params.G) == (4, 0, 2):
        patterns = (
            np.array([[1, 0], [0, 1], [0, 0]], dtype=np.int64),
            np.array([[0, 0], [1, 0], [0, 1]], dtype=np.int64),
            np.array([[1, 0], [0, 0], [0, 1]], dtype=np.int64),
        )
        matching_class = {(1, 2): 0, (3, 4): 0, (1, 3): 1, (2, 4): 1, (1, 4): 2, (2, 3): 2}
        mats = np.stack([np.kron(patterns[matching_class[tuple(g)]], eye)
                         for g in params.members.tolist()])
        blocks = np.stack([mats, -mats], axis=1)
    elif (params.K, params.T, params.G) == (4, 0, 3):
        zero = np.zeros((m, m), dtype=np.int64)
        blocks = np.tile([np.hstack([eye, zero]), np.hstack([zero, eye]),
                          -np.hstack([eye, eye])], (n, 1, 1, 1))
    else:
        raise ValueError(
            f"no deterministic reference construction for "
            f"(K={params.K}, T={params.T}, G={params.G}); use build_precoder"
        )
    return Precoder(params, blocks)


# -- bundled worked examples -------------------------------------------------

_EXAMPLE2_PAIR_BLOCKS: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {
    (1, 2): ((2, 3), (4, 0), (2, 1)),
    (1, 3): ((3, 2), (3, 2), (3, 0)),
    (1, 4): ((3, 3), (1, 0), (3, 2)),
    (1, 5): ((3, 4), (4, 4), (3, 0)),
    (2, 3): ((2, 1), (0, 1), (3, 1)),
    (2, 4): ((0, 0), (0, 4), (4, 2)),
    (2, 5): ((1, 0), (0, 1), (4, 0)),
    (3, 4): ((4, 2), (3, 3), (2, 0)),
    (3, 5): ((0, 0), (0, 1), (1, 3)),
    (4, 5): ((0, 3), (1, 1), (2, 0)),
}


def fixture_example1() -> Precoder:
    """The bundled 3-user, no-collusion pairwise scheme over F_2.

    Scalar blocks: in each pair the lower-index user adds the shared key and
    the higher-index user subtracts it, so all three keys cancel in the sum.
    """
    params = SchemeParams(K=3, T=0, G=2, q=2, m=1)
    return reference_precoder(params)


def fixture_example2() -> Precoder:
    """The bundled 5-user scheme over F_5 tolerating one colluder.

    Hard-coded 3x2 blocks whose surviving stacks are full-rank for every
    (user, colluder) pair; in each pair the lower-index user carries +H and
    the higher-index user carries -H.
    """
    params = SchemeParams(K=5, T=1, G=2, q=5, m=1)
    h = np.array([_EXAMPLE2_PAIR_BLOCKS[tuple(g)] for g in params.members.tolist()],
                 dtype=np.int64)
    return Precoder(params, np.stack([h, -h], axis=1))


FIXTURES = {"example1": fixture_example1, "example2": fixture_example2}


# -- keys, encoding, recovery ---------------------------------------------


class GroupKeySet:
    """One sampled key of L_S symbols per G-subset of users, held as one
    read-only (C(K, G), L_S) ``table`` in lexicographic group order;
    ``vector`` is its flat view, the key part of the uniform source."""

    __slots__ = ("params", "L_S", "table", "vector")

    def __init__(self, params: SchemeParams, table: np.ndarray):
        table = params.field.reduce(table)
        if table.ndim != 2 or table.shape[0] != len(params.members):
            raise DimensionMismatchError(
                f"key table has shape {table.shape}, expected ({len(params.members)}, L_S)")
        table.setflags(write=False)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "L_S", table.shape[1])
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "vector", table.reshape(-1))

    def __setattr__(self, name, value):
        raise AttributeError("GroupKeySet is immutable")


def sample_keys(precoder: Precoder, seed) -> GroupKeySet:
    """Draw all C(K, G) group keys of the precoder's L_S symbols i.i.d. uniform,
    deterministically in seed, in one draw of the whole table."""
    p = precoder.params
    rng = np.random.Generator(np.random.PCG64(seed))
    return GroupKeySet(p, rng.integers(0, p.q, size=(len(p.members), precoder.L_S),
                                       dtype=np.int64))


def _user_rows(precoder: Precoder, values, what: str) -> np.ndarray:
    values = precoder.params.field.reduce(values)
    if values.shape != (precoder.params.K, precoder.L):
        raise DimensionMismatchError(
            f"{what} must be {precoder.params.K} x {precoder.L}, got {values.shape}")
    return values


def encode(precoder: Precoder, masks: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """Every user's broadcast as a K x L array: row k-1 is user k's input
    plus its key mask, row k-1 of ``masks`` (``precoder.masks(keys)``)."""
    inputs = _user_rows(precoder, inputs, "inputs")
    return (inputs + _user_rows(precoder, masks, "masks")) % precoder.params.q


def recover(precoder: Precoder, masks: np.ndarray, messages: np.ndarray) -> np.ndarray:
    """What every user decodes from the K x L broadcast ``messages``: row
    k-1 is the sum of the other users' messages plus user k's own key mask,
    row k-1 of ``masks`` (``precoder.masks(keys)``).

    For a zero-sum precoder that is the sum of the other users' inputs: in
    each group the other members' blocks sum to the negation of k's, so the
    mask cancels every residual key term. Each user adds its own input to
    obtain the global sum.
    """
    messages = _user_rows(precoder, messages, "messages")
    masks = _user_rows(precoder, masks, "masks")
    return (messages.sum(axis=0) - messages + masks) % precoder.params.q


# -- scheme file format ---------------------------------------------------


def scheme_to_text(precoder: Precoder) -> str:
    """Serialize: header '{magic} K T G q m', then every block in group
    lexicographic order, members ascending, as an 'L L_S' line and its L
    rows of L_S decimals.

    Raises ValueError for a precoder whose blocks are not the L x L_S its
    parameters derive, which the file format cannot carry.
    """
    p = precoder.params
    if (precoder.L, precoder.L_S) != (p.L, p.L_S):
        raise ValueError(f"blocks are {precoder.L}x{precoder.L_S}; a scheme file "
                         f"for these parameters holds {p.L}x{p.L_S} blocks")
    # One format call per block: formatting the whole file in one call would
    # hold every entry as a Python int at once.
    template = f"{p.L} {p.L_S}\n" + (" ".join(["{}"] * p.L_S) + "\n") * p.L
    parts = [f"{SCHEME_MAGIC} {p.K} {p.T} {p.G} {p.q} {p.m}\n"]
    parts += (template.format(*block.tolist())
              for block in precoder.blocks.reshape(-1, p.L * p.L_S))
    return "".join(parts)


def scheme_from_text(text: str) -> Precoder:
    """Parse exactly the text ``scheme_to_text`` writes; SchemeFormatError
    naming the first line that differs."""
    lines = text.split("\n")
    if lines[-1] == "":
        del lines[-1]  # what follows the final newline
    if not lines:
        raise SchemeFormatError("empty scheme file", 1)
    header = lines[0].split(" ")
    if len(header) != 6 or header[0] != SCHEME_MAGIC:
        raise SchemeFormatError(f"header must be '{SCHEME_MAGIC} K T G q m'", 1)
    if not all(_NUMBER.fullmatch(t) for t in header[1:]):
        raise SchemeFormatError("header fields must be plain decimal integers", 1)
    K, T, G, q, m = map(int, header[1:])
    try:
        params = SchemeParams(K=K, T=T, G=G, q=q, m=m)
        params._require_feasible()
    except (ParamsOutOfModelError, InfeasibleSchemeError, ValueError) as exc:
        raise SchemeFormatError(str(exc), 1) from None
    # C(K, G) groups of G blocks, each a header and L = m * C(K-T-1, G)
    # rows, counted before L is derived and only up to the file's own line
    # count, so a header claiming astronomically many costs nothing.
    have = len(lines)
    groups, rows = _binomial_up_to(K, G, have), m * _binomial_up_to(K - T - 1, G, have)
    if 1 + G * groups * (rows + 1) > have:
        raise SchemeFormatError(
            f"file has {have} lines; C({K}, {G}) groups of {G} blocks, "
            f"each a header and {m}*C({K - T - 1}, {G}) rows, need more", 1)
    L, L_S = params.L, params.L_S
    # The line count does not bound L_S: each of the rows holds L_S decimals
    # and their separators, so the text bounds the array allocated below.
    rows = math.comb(K, G) * G * L
    if len(text) < rows * 2 * L_S:
        raise SchemeFormatError(
            f"file has {len(text)} characters; {rows} rows of {L_S} entries "
            f"need at least {rows * 2 * L_S}", 1)

    head = f"{L} {L_S}"
    row = re.compile(rf"{_NUMBER.pattern}(?: {_NUMBER.pattern}){{{L_S - 1}}}")
    blocks = np.empty((math.comb(K, G), G, L, L_S), dtype=np.int64)
    out = blocks.reshape(-1, L, L_S)  # views, so each block is filled in place
    for b, block in enumerate(out):
        i = 1 + b * (L + 1)  # the block's 'L L_S' line; its L rows follow
        if lines[i] != head:
            raise SchemeFormatError(f"expected block header '{head}'", i + 1)
        # The rows before the first bad one are converted and checked at
        # once, so an entry outside the field is named before a later bad row.
        body = lines[i + 1:i + 1 + L]
        n = next((r for r, line in enumerate(body) if not row.fullmatch(line)), L)
        block[:n] = np.fromstring(" ".join(body[:n]), dtype=np.int64, sep=" ").reshape(n, L_S)
        bad = np.flatnonzero(block[:n] >= q)
        if bad.size:
            raise SchemeFormatError(f"entry {block.flat[bad[0]]} outside [0, {q})",
                                    i + 2 + bad[0] // L_S)
        if n < L:
            raise SchemeFormatError(f"matrix entries must be plain decimal integers, "
                                    f"{L_S} to a row, one space apart", i + 2 + n)
    end = 1 + len(out) * (L + 1)  # lines in the file
    if len(lines) > end or not text.endswith("\n"):  # the first line past it, or the last
        raise SchemeFormatError("the file must end with the final block's newline",
                                min(len(lines), end + 1))
    del lines  # freed before the precoder copies the blocks
    return Precoder(params, blocks)


def save_scheme(precoder: Precoder, path: str | os.PathLike) -> None:
    text = scheme_to_text(precoder)  # before opening, so a failed save writes nothing
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def load_scheme(path: str | os.PathLike) -> Precoder:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise SchemeFormatError(f"non-ASCII byte 0x{data[exc.start]:02x}",
                                data.count(b"\n", 0, exc.start) + 1) from None
    del data  # the file's bytes are not needed while the text is parsed
    return scheme_from_text(text)
