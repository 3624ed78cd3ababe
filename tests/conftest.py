import numpy as np
from hypothesis import settings

from dsagg.linalg import Matrix, _row_reduce
from dsagg.scheme import Precoder

# CI runs with --hypothesis-profile=ci: a fixed seed, so a failing example
# found there is found again by the same command anywhere.
settings.register_profile("ci", derandomize=True)


def plain_rank(field, data) -> int:
    """The rank of ``data`` over ``field`` by the reference row loop,
    ``linalg._row_reduce``, which no fast path shares: ``Matrix.rank`` runs
    the delayed-reduction loop and the recursive kernel instead."""
    return _row_reduce(Matrix(field, data).data.copy(), field.q)


def zero_precoder(params, L=None, L_S=None) -> Precoder:
    """A precoder of all-zero blocks: it masks nothing. L and L_S default
    to the parameters' own."""
    L = params.L if L is None else L
    L_S = params.L_S if L_S is None else L_S
    return Precoder(params, np.zeros((len(params.members), params.G, L, L_S), dtype=np.int64))


def feasible_triples(k_max):
    """Every (K, T, G) with 3 <= K <= k_max inside the rate region."""
    for K in range(3, k_max + 1):
        for T in range(0, K - 2):
            for G in range(2, K - T):
                yield K, T, G


def by_kind(checks) -> dict:
    """Audit checks grouped by kind, each group in report order."""
    groups = {}
    for c in checks:
        groups.setdefault(c.kind, []).append(c)
    return groups
