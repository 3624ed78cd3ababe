"""Two independent roads to the same information quantities.

The fast road: entropy of a linear observable of a uniform source equals the
rank of its matrix, so privacy audits are exact linear algebra. The slow
road: enumerate every source realization, build the joint distribution, and
evaluate the Shannon sums directly. On a 3-user instance (64 realizations at
q=2) both roads agree on every query, which is the license to trust the rank
road at sizes enumeration can never reach.
"""

import numpy as np

from dsagg import AuditContext, fixture_example1, random_matrix
from dsagg import infocalc

pre = fixture_example1()
params = pre.params
ctx = AuditContext(pre)  # the audit's own views and rank cache
lay = ctx.layout
print(f"source: {lay.N} symbols over F_{params.q} -> "
      f"{params.q ** lay.N} realizations to enumerate")

print(f"\n{'query':<44} {'rank':>5} {'enum':>5}")
for k in params.users:
    a, b, view = ctx.security_terms((k,))
    ranked = infocalc.mutual_information(a, b, view, cache=ctx.cache)
    brute = infocalc.brute_force_mi(a, b, view)
    label = f"leak past user {k}'s view"
    print(f"{label:<44} {ranked:>5} {str(brute):>5}")

h_rank = infocalc.entropy([ctx.messages[1]], cache=ctx.cache)
h_enum = infocalc.brute_force_entropy([ctx.messages[1]])
print(f"{'H(X1)':<44} {h_rank:>5} {str(h_enum):>5}")

rng = np.random.Generator(np.random.PCG64(7))
for i in range(3):
    a = [infocalc.LinearObservable(
        f"a{i}", random_matrix(2, lay.N, params.field, rng=rng), lay)]
    b = [infocalc.LinearObservable(
        f"b{i}", random_matrix(2, lay.N, params.field, rng=rng), lay)]
    ranked = infocalc.mutual_information(a, b)
    brute = infocalc.brute_force_mi(a, b)
    label = f"random two-row observables, query {i}"
    print(f"{label:<44} {ranked:>5} {str(brute):>5}")
