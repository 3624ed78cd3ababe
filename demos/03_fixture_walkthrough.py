"""Anatomy of the bundled 5-user scheme over F_5 that survives one colluder.

Walks the three properties that make the scheme work: the blocks of every
pair sum to zero (so keys vanish from the global sum), the surviving key
stack is full-rank for every (user, colluder) pair (so nothing leaks beyond
the sum), and the exact mutual-information audit returns zero everywhere.
"""

from collections import Counter

from dsagg import (
    audit,
    fixture_example2,
    rank_condition,
    submatrix_hhat,
)

pre = fixture_example2()
params = pre.params

print("block for user 1 in pair (1,2):")
print(pre.block(1, (1, 2)).data)
print("block for user 2 in pair (1,2)  (negated, so the pair sums to zero):")
print(pre.block(2, (1, 2)).data)
print("zero-sum across all pairs:", pre.zero_sum_ok())
print()

hh = submatrix_hhat(pre, (1, 2))
print("user 1 colluding with user 2 leaves users 3,4,5 and keys "
      "S{3,4}, S{3,5}, S{4,5}")
print(f"surviving-key stack: {hh.rows}x{hh.cols}, rank {hh.rank()}")
check = rank_condition(pre, (1, 2))
print(f"rank floor: need {check.required}, have {check.achieved} -> "
      f"{'ok' if check.ok else 'BROKEN'}")
print()

report = audit(pre)
kinds = Counter(c.kind for c in report.checks)
rate_x, rate_s = (c for c in report.checks if c.kind.startswith("rate_"))
converse = sum(n for kind, n in kinds.items()
               if kind not in ("recovery", "security", "rank", "rate_x", "rate_s"))
print(f"full audit: {kinds['security']} security probes, "
      f"{kinds['recovery']} recovery probes, "
      f"{converse} converse floors")
print("all checks pass:", report.all_ok)
print("achieved rates are the optimal corner:",
      rate_x.value == rate_x.bound and rate_s.value == rate_s.bound,
      f"(R_X={rate_x.value}, R_S={rate_s.value})")
print()
print("first few report lines:")
for line in report.to_lines()[:6]:
    print(" ", line)
