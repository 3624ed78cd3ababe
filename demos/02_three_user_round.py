"""A full three-user round over F_2, small enough to read symbol by symbol.

Users 1, 2, 3 hold one-bit inputs; every pair shares a one-bit key. Each user
broadcasts its input XOR its two keys (with signs that cancel pairwise), then
decodes the other two inputs' sum from what it heard plus what it holds.
"""

import numpy as np

from dsagg import GroupKeySet, encode, fixture_example1, recover, run_round

pre = fixture_example1()
params = pre.params

w = np.array([[1], [0], [1]])
keys = GroupKeySet(params, [[1], [0], [1]])  # one row per pair, lexicographic

print("inputs :", w.ravel().tolist())
print("keys   :", {tuple(g): int(v[0]) for g, v in zip(params.members.tolist(), keys.table)})

masks = pre.masks(keys)  # row k-1 is user k's key mask
messages = encode(pre, masks, w)  # row k-1 is user k's broadcast
for k in params.users:
    print(f"user {k} broadcasts X{k} = {int(messages[k - 1, 0])}")

others_sums = recover(pre, masks, messages)  # row k-1 is what user k decodes
for k in params.users:
    total = (others_sums[k - 1] + w[k - 1]) % 2
    print(f"user {k} recovers others-sum {int(others_sums[k - 1, 0])}, "
          f"global sum {int(total[0])}")

print()
print("same thing through the round simulator, transcript form:")
print(run_round(pre, w, seed=0).to_text())
