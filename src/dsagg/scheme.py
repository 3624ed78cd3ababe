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
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .gf import FieldMismatchError, PrimeField
from .linalg import DimensionMismatchError, Matrix

SCHEME_MAGIC = "DSA1"


class ParamsOutOfModelError(ValueError):
    """Parameters outside the model: K < 3, T outside [0, K-3], or G outside [1, K]."""


class InfeasibleSchemeError(ValueError):
    """Operation requires a feasible (K, T, G) triple."""


class ConstructionFailedError(RuntimeError):
    """Randomized construction exhausted its retry budget.

    Signals that the field or the block scale is too small for the rank
    certificate to hold with noticeable probability.
    """

    def __init__(self, first_seed: int, last_seed: int):
        self.seed_range = (first_seed, last_seed)
        super().__init__(
            f"no rank-valid precoder found for seeds {first_seed}..{last_seed}; "
            "try a larger field or block scale"
        )


class MissingMessageError(ValueError):
    """Recovery needs exactly one message from every other user."""


class SchemeFormatError(ValueError):
    """Malformed scheme file; carries the 1-based offending line number."""

    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(f"line {line}: {message}")


class InfeasibilityReason(enum.Enum):
    GROUP_SIZE_ONE = "group_size_one"
    GROUP_TOO_LARGE = "group_too_large"


def _validate_model(K: int, T: int, G: int) -> None:
    if K < 3:
        raise ParamsOutOfModelError(f"need at least 3 users, got K={K}")
    if not 0 <= T <= K - 3:
        raise ParamsOutOfModelError(f"collusion bound T={T} outside [0, {K - 3}]")
    if not 1 <= G <= K:
        raise ParamsOutOfModelError(f"group size G={G} outside [1, {K}]")


def groups_of(K: int, G: int) -> tuple[tuple[int, ...], ...]:
    """All G-subsets of users 1..K in lexicographic order."""
    return tuple(itertools.combinations(range(1, K + 1), G))


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
    _validate_model(K, T, G)
    if G == 1:
        return RateRegion(K, T, G, False,
                          infeasibility_reason=InfeasibilityReason.GROUP_SIZE_ONE)
    if G >= K - T:
        return RateRegion(K, T, G, False,
                          infeasibility_reason=InfeasibilityReason.GROUP_TOO_LARGE)
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
    if K - T - 1 < 2:
        raise ParamsOutOfModelError(f"no feasible group size for K={K}, T={T}")
    formula = (K - T - 1) // 2
    rates = {G: capacity(K, T, G).r_s_star for G in range(2, K - T)}
    best_rate = min(rates.values())
    minimizers = tuple(sorted(G for G, r in rates.items() if r == best_rate))
    return GroupSizeReport(minimizers[0], formula, minimizers)


def optimal_group_size(K: int, T: int) -> int:
    """The smallest feasible G minimizing the per-group key rate."""
    return optimal_group_size_report(K, T).best


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
        _validate_model(self.K, self.T, self.G)
        if self.m < 1:
            raise ValueError(f"block scale m must be >= 1, got {self.m}")
        object.__setattr__(self, "field", PrimeField(self.q))

    @property
    def region(self) -> RateRegion:
        return capacity(self.K, self.T, self.G)

    @property
    def feasible(self) -> bool:
        return self.region.feasible

    def _require_feasible(self) -> None:
        if not self.feasible:
            reason = self.region.infeasibility_reason
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

    @cached_property
    def groups(self) -> tuple[tuple[int, ...], ...]:
        return groups_of(self.K, self.G)

    @cached_property
    def _group_ids(self) -> dict[tuple[int, ...], int]:
        return {g: i for i, g in enumerate(self.groups)}

    def group_index(self, group: Sequence[int]) -> int:
        """Position of ``group`` in ``groups``; KeyError if it is not one."""
        try:
            return self._group_ids[tuple(group)]
        except KeyError:
            raise KeyError(f"{tuple(group)} is not a size-{self.G} group of "
                           f"[1..{self.K}]") from None

    @cached_property
    def _held(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        return tuple(tuple(g for g in self.groups if k in g) for k in self.users)

    def user_index(self, k: int) -> int:
        """0-based position of user k; KeyError unless 1 <= k <= K."""
        if not 1 <= k <= self.K:
            raise KeyError(f"user {k} outside [1..{self.K}]")
        return k - 1

    def held(self, k: int) -> tuple[tuple[int, ...], ...]:
        """The groups holding user k in lexicographic order: the order of
        k's blocks in the precoder's stored form."""
        return self._held[self.user_index(k)]

    def key_columns(self, groups: Iterable[Sequence[int]], L_S: int) -> np.ndarray:
        """Positions of the listed groups' key symbols among all C(K, G)
        keys of L_S symbols, stacked in lexicographic group order."""
        ids = np.array([self.group_index(g) for g in groups], dtype=np.int64)
        return (ids[:, None] * L_S + np.arange(L_S)).ravel()


# -- precoder --------------------------------------------------------------


def _block_slots(params: SchemeParams, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Where user k's blocks sit in a precoder's block array: the indices of
    the groups holding k and k's position in each, in ``held(k)`` order."""
    held = params.held(k)
    return (np.array([params.group_index(g) for g in held], dtype=np.intp),
            np.array([g.index(k) for g in held], dtype=np.intp))


class Precoder:
    """The per-user, per-group key coefficient blocks of a linear scheme.

    The block of user k for a group holding k is the L x L_S matrix applied
    to that group's key inside k's message; users outside a group implicitly
    carry the zero block. A precoder is built from one integer array of
    shape (C(K, G), G, L, L_S) in scheme-file order: groups in lexicographic
    order, members ascending. L and L_S are read from that shape and may
    deliberately differ from the parameter-derived lengths (e.g. to study
    undersized keys). Each user's blocks are stored side by side, in the
    order of ``params.held(k)``, as one L x C(K-1, G-1)*L_S matrix: user k's
    mask is that matrix times k's held keys stacked in the same order.
    Instances are immutable after construction and safe to audit from
    concurrent workers.
    """

    __slots__ = ("params", "L", "L_S", "_rows")

    def __init__(self, params: SchemeParams, blocks: np.ndarray) -> None:
        blocks = np.asarray(blocks)
        expected = (len(params.groups), params.G)
        if blocks.ndim != 4 or blocks.shape[:2] != expected:
            raise DimensionMismatchError(
                f"block array has shape {blocks.shape}, expected {expected} + (L, L_S)")
        L, L_S = blocks.shape[2:]
        rows = tuple(
            Matrix(params.field, blocks[ids, pos].transpose(1, 0, 2).reshape(L, len(ids) * L_S))
            for ids, pos in (_block_slots(params, k) for k in params.users)
        )
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "L_S", L_S)
        object.__setattr__(self, "_rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("Precoder is immutable")

    @property
    def groups(self) -> tuple[tuple[int, ...], ...]:
        return self.params.groups

    def row(self, k: int) -> Matrix:
        """User k's stored blocks side by side, in ``params.held(k)`` order."""
        return self._rows[self.params.user_index(k)]

    def blocks(self) -> np.ndarray:
        """A fresh (C(K, G), G, L, L_S) array of every block in scheme-file
        order: the array this precoder can be rebuilt from."""
        p = self.params
        out = np.empty((len(p.groups), p.G, self.L, self.L_S), dtype=np.int64)
        for k in p.users:
            ids, pos = _block_slots(p, k)
            out[ids, pos] = self.row(k).data.reshape(self.L, len(ids), self.L_S).transpose(1, 0, 2)
        return out

    def block(self, k: int, group: Sequence[int]) -> Matrix:
        """The coefficient block of user k for ``group`` (zero if k is outside)."""
        g = tuple(group)
        self.params.group_index(g)  # KeyError for a group that does not exist
        row = self.row(k)  # KeyError for a user outside 1..K
        if k not in g:
            return Matrix.zeros(self.params.field, self.L, self.L_S)
        start = self.params.held(k).index(g) * self.L_S
        return Matrix(self.params.field, row.data[:, start : start + self.L_S])

    def zero_sum_ok(self) -> bool:
        """Whether every group's blocks sum to the zero matrix."""
        return not (self.blocks().sum(axis=1) % self.params.q).any()

    def mask(self, k: int, keys: "GroupKeySet") -> np.ndarray:
        """Sum of this user's key contributions: sum over groups holding k."""
        p = self.params
        if (keys.params, keys.L_S) != (p, self.L_S):
            raise DimensionMismatchError(f"keys of {keys.L_S} symbols for {keys.params} "
                                         f"do not fit a precoder with L_S={self.L_S} for {p}")
        return self.row(k).matvec(keys.vector[p.key_columns(p.held(k), self.L_S)])

    def replace_block(self, k: int, group: Sequence[int], mat: Matrix) -> "Precoder":
        """A copy with one block swapped (used by damage/mutation tests)."""
        g = tuple(group)
        i = self.params.group_index(g)
        if k not in g:
            raise KeyError(f"user {k} carries no block for {g}")
        if mat.field != self.params.field:
            raise FieldMismatchError(f"block over F_{mat.field.q}, expected F_{self.params.q}")
        if mat.shape != (self.L, self.L_S):
            raise DimensionMismatchError(f"block is {mat.shape}, expected {(self.L, self.L_S)}")
        blocks = self.blocks()
        blocks[i, g.index(k)] = mat.data
        return Precoder(self.params, blocks)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Precoder):
            return NotImplemented
        return (self.params == other.params and self.L == other.L
                and self.L_S == other.L_S and self._rows == other._rows)


def random_precoder(params: SchemeParams, seed: int,
                    L: int | None = None, L_S: int | None = None) -> Precoder:
    """One seeded zero-sum draw with no rank verification: in each group
    the G-1 lowest-index members get i.i.d. uniform blocks and the
    highest-index member absorbs the negated sum."""
    L = params.L if L is None else L
    L_S = params.L_S if L_S is None else L_S
    rng = np.random.Generator(np.random.PCG64(seed))
    blocks = np.empty((len(params.groups), params.G, L, L_S), dtype=np.int64)
    blocks[:, :-1] = rng.integers(0, params.q, size=blocks[:, :-1].shape, dtype=np.int64)
    blocks[:, -1] = -blocks[:, :-1].sum(axis=1)
    return Precoder(params, blocks)


def build_precoder(params: SchemeParams, seed: int = 0, max_retries: int = 16) -> Precoder:
    """Construct a precoder whose rank certificate holds for every user and
    every collusion set of size at most T.

    Draws zero-sum blocks from the seeded generator and verifies the full
    certificate; on failure the next seed is tried. Over a large field a
    single draw succeeds with probability close to 1, so the retry budget is
    only exercised on small fields.

    Raises ConstructionFailedError when every seed in
    [seed, seed + max_retries) fails, which signals that q or m is too small.
    """
    from .auditor import rank_certificate_ok  # local import to avoid a cycle

    if not params.feasible:
        raise InfeasibleSchemeError(
            f"(K={params.K}, T={params.T}, G={params.G}) admits no scheme"
        )
    for attempt in range(max_retries):
        pre = random_precoder(params, seed + attempt)
        if rank_certificate_ok(pre):
            return pre
    raise ConstructionFailedError(seed, seed + max_retries - 1)


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
    n = len(params.groups)
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
        mats = np.stack([np.kron(patterns[matching_class[g]], eye) for g in params.groups])
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
    h = np.array([_EXAMPLE2_PAIR_BLOCKS[g] for g in params.groups], dtype=np.int64)
    return Precoder(params, np.stack([h, -h], axis=1))


FIXTURES = {"example1": fixture_example1, "example2": fixture_example2}


# -- keys, encoding, recovery ---------------------------------------------


class GroupKeySet:
    """One sampled key of L_S symbols per G-subset of users, held as one
    read-only vector in lexicographic group order, as in the uniform source."""

    __slots__ = ("params", "L_S", "vector", "_table")

    def __init__(self, params: SchemeParams, keys: Mapping[tuple[int, ...], np.ndarray]):
        keys = {tuple(g): params.field.reduce(v) for g, v in keys.items()}
        if set(keys) != set(params.groups):
            raise ValueError("key map must cover exactly the G-subsets of [1..K]")
        shapes = {v.shape for v in keys.values()}
        if len(shapes) != 1 or len(next(iter(shapes))) != 1:
            raise DimensionMismatchError(
                f"keys must be vectors of one common length, got shapes {sorted(shapes)}")
        table = np.stack([keys[g] for g in params.groups])
        table.setflags(write=False)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "L_S", table.shape[1])
        object.__setattr__(self, "vector", table.reshape(-1))
        object.__setattr__(self, "_table", table)

    def __setattr__(self, name, value):
        raise AttributeError("GroupKeySet is immutable")

    def key(self, group: Sequence[int]) -> np.ndarray:
        return self._table[self.params.group_index(group)]

    def __len__(self) -> int:
        return len(self._table)

    def items(self):
        return zip(self.params.groups, self._table)


def sample_keys(precoder: Precoder, seed) -> GroupKeySet:
    """Draw all C(K, G) group keys of the precoder's L_S symbols i.i.d. uniform,
    deterministically in seed; one draw per key, which fixes the key stream."""
    p = precoder.params
    rng = np.random.Generator(np.random.PCG64(seed))
    return GroupKeySet(p, {g: rng.integers(0, p.q, size=precoder.L_S, dtype=np.int64)
                           for g in p.groups})


@dataclass(frozen=True)
class Message:
    """One user's broadcast payload of L symbols."""

    user: int
    payload: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.payload, dtype=np.int64)
        arr.setflags(write=False)
        object.__setattr__(self, "payload", arr)


def encode(precoder: Precoder, keys: GroupKeySet, w: np.ndarray, k: int) -> Message:
    """User k's broadcast: its input plus its key mask."""
    w = precoder.params.field.reduce(w)
    if w.shape != (precoder.L,):
        raise DimensionMismatchError(
            f"input for user {k} must have length {precoder.L}, got {w.shape}"
        )
    payload = (w + precoder.mask(k, keys)) % precoder.params.q
    return Message(k, payload)


def recover(precoder: Precoder, keys: GroupKeySet,
            k: int, received: Iterable[Message]) -> np.ndarray:
    """The sum of the other users' inputs, as seen by user k.

    Adding the receiver's own key mask cancels every residual key term, since
    within each group the other members' blocks sum to the negation of k's.
    The caller adds its own input to obtain the global sum.
    """
    p = precoder.params
    mask = precoder.mask(k, keys)
    msgs = list(received)
    senders = sorted(m.user for m in msgs)
    expected = [u for u in p.users if u != k]
    if senders != expected:
        raise MissingMessageError(
            f"user {k} expected one message from each of {expected}, got {senders}"
        )
    total = np.zeros(precoder.L, dtype=np.int64)
    for msg in msgs:
        if msg.payload.shape != (precoder.L,):
            raise DimensionMismatchError(
                f"message from user {msg.user} has length {msg.payload.shape}"
            )
        total = (total + msg.payload) % p.q
    return (total + mask) % p.q


# -- scheme file format ---------------------------------------------------


def scheme_to_text(precoder: Precoder) -> str:
    """Serialize: header '{magic} K T G q m', then every block in group
    lexicographic order, members ascending, in the matrix text format.

    Raises ValueError for a precoder whose blocks are not the L x L_S its
    parameters derive, which the file format cannot carry.
    """
    p = precoder.params
    if (precoder.L, precoder.L_S) != (p.L, p.L_S):
        raise ValueError(f"blocks are {precoder.L}x{precoder.L_S}; a scheme file "
                         f"for these parameters holds {p.L}x{p.L_S} blocks")
    parts = [f"{SCHEME_MAGIC} {p.K} {p.T} {p.G} {p.q} {p.m}\n"]
    parts += (Matrix(p.field, b).to_text() for b in precoder.blocks().reshape(-1, p.L, p.L_S))
    return "".join(parts)


def scheme_from_text(text: str) -> Precoder:
    """Parse a scheme file; raises SchemeFormatError with a line number."""
    # The precoder is built once _parse_scheme has returned, so the file's
    # split lines are freed before the precoder copies the blocks.
    params, blocks = _parse_scheme(text)
    return Precoder(params, blocks)


def _parse_scheme(text: str) -> tuple[SchemeParams, np.ndarray]:
    lines = text.splitlines()
    if not lines:
        raise SchemeFormatError("empty scheme file", 1)
    header = lines[0].split()
    if len(header) != 6 or header[0] != SCHEME_MAGIC:
        raise SchemeFormatError(
            f"header must be '{SCHEME_MAGIC} K T G q m'", 1
        )
    try:
        K, T, G, q, m = (int(t) for t in header[1:])
    except ValueError:
        raise SchemeFormatError("non-integer header field", 1) from None
    try:
        params = SchemeParams(K=K, T=T, G=G, q=q, m=m)
        L, L_S = params.L, params.L_S
    except (ParamsOutOfModelError, InfeasibleSchemeError, ValueError) as exc:
        raise SchemeFormatError(str(exc), 1) from None
    needed = 1 + G * math.comb(K, G) * (L + 1)
    if len(lines) < needed:
        raise SchemeFormatError(
            f"file has {len(lines)} lines; {math.comb(K, G)} groups of {G} "
            f"blocks, each a header and {L} rows, need {needed}", 1)

    pos = 1  # 0-based index of the next unread line

    def read_block() -> list[list[int]]:
        nonlocal pos
        head = lines[pos].split()
        if len(head) != 2 or head != [str(L), str(L_S)]:
            raise SchemeFormatError(f"expected block header '{L} {L_S}'", pos + 1)
        pos += 1
        rows = []
        for _ in range(L):
            row = lines[pos].split()
            if len(row) != L_S:
                raise SchemeFormatError(f"expected {L_S} entries per row", pos + 1)
            try:
                vals = [int(t) for t in row]
            except ValueError:
                raise SchemeFormatError("non-integer matrix entry", pos + 1) from None
            for v in vals:
                if not 0 <= v < q:
                    raise SchemeFormatError(f"entry {v} outside [0, {q})", pos + 1)
            rows.append(vals)
            pos += 1
        return rows

    blocks = np.empty((math.comb(K, G), G, L, L_S), dtype=np.int64)
    for block in blocks.reshape(-1, L, L_S):  # a view, so each block is filled in place
        block[...] = read_block()
    if pos != len(lines):
        extra = next((i for i in range(pos, len(lines)) if lines[i].strip()), None)
        if extra is not None:
            raise SchemeFormatError("trailing content after final block", extra + 1)
    return params, blocks


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
        line = len((data[:exc.start] + b"x").decode("ascii").splitlines())
        raise SchemeFormatError(f"non-ASCII byte 0x{data[exc.start]:02x}", line) from None
    del data  # the file's bytes are not needed while the text is parsed
    return scheme_from_text(text)
