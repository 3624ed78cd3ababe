from hypothesis import settings

from dsagg.linalg import Matrix, _row_reduce

# CI runs with --hypothesis-profile=ci: a fixed seed, so a failing example
# found there is found again by the same command anywhere.
settings.register_profile("ci", derandomize=True)


def plain_rank(field, data) -> int:
    """The rank of ``data`` over ``field`` by the reference row loop,
    ``linalg._row_reduce``, which no fast path shares: ``Matrix.rank`` runs
    the delayed-reduction loop and the recursive kernel instead."""
    return _row_reduce(Matrix(field, data).data.copy(), field.q)
