"""Key rates as the group size grows, at K = 20 users and no collusion.

The per-group key rate first falls then rises, bottoming out at
G = floor((K - T - 1) / 2); the per-user and system-wide key rates grow
monotonically, always above the flat baselines that arbitrarily correlated
keys would need (1 and K - 1). Writes its CSV with the `dsagg rates-sweep`
command.
"""

from fractions import Fraction

from dsagg import capacity, optimal_group_size_report
from dsagg.cli import main

K, T = 20, 0
print(f"{'G':>3} {'R_S*':>12} {'R_Z*':>10} {'R_ZSigma*':>10}")
for G in range(1, K + 1):
    region = capacity(K, T, G)
    if not region.feasible:
        print(f"{G:>3} {'infeasible':>12}")
        continue
    print(f"{G:>3} {str(region.r_s_star):>12} {str(region.r_z_star):>10} "
          f"{str(region.r_z_sigma_star):>10}")

rep = optimal_group_size_report(K, T)
print(f"\nminimum R_S* at G = {rep.best} (ties: {list(rep.minimizers)})")
print(f"baselines with arbitrarily correlated keys: R_Z = 1, R_ZSigma = {K - 1}")

# The CSV comes from the command itself, so the two cannot drift apart.
if main(["rates-sweep", "-K", "20", "-T", "0", "--out", "rate_sweep_k20.csv"]):
    raise SystemExit("dsagg rates-sweep failed")
with open("rate_sweep_k20.csv", encoding="ascii") as fh:
    csv_rows = fh.read().splitlines()
print("\nwrote rate_sweep_k20.csv "
      f"({sum(1 for r in csv_rows[1:] if ',yes,' in r)} feasible rows); "
      "every value parses back with fractions.Fraction:",
      Fraction(csv_rows[2].split(",")[2]) == Fraction(18, 171))
