"""Draw a scheme at random, certify it, run a round, break it, watch it fail.

Over a large field one random draw is almost always rank-valid, so the
constructor rarely retries. The auditor then certifies recovery and privacy
exactly; zeroing a single coefficient block afterwards is enough to trip
named checks.
"""

from dsagg import Matrix, SchemeParams, audit, build_precoder, run_round

params = SchemeParams(K=6, T=1, G=2, q=101)
print(f"building K={params.K}, T={params.T}, G={params.G} over F_{params.q}: "
      f"L={params.L}, L_S={params.L_S}")
pre = build_precoder(params, seed=0)

report = audit(pre)
print("audit passes:", report.all_ok)

transcript = run_round(pre, "random", seed=42)
print("round verdict:", "pass" if transcript.verdict else "fail")
print("one recovered global sum:", transcript.recovered[0].tolist())
print()

damaged = pre.replace_block(3, (3, 4), Matrix.zeros(params.field, pre.L, pre.L_S))
bad = audit(damaged)
print("after zeroing user 3's block for pair (3,4):")
print("audit passes:", bad.all_ok)
failing = [line for line in bad.to_lines() if line.endswith("FAIL")]
print(f"{len(failing)} failing checks; first three:")
for line in failing[:3]:
    print(" ", line)
