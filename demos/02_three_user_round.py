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
keys = GroupKeySet(params, {
    (1, 2): np.array([1]),
    (1, 3): np.array([0]),
    (2, 3): np.array([1]),
})

print("inputs :", w.ravel().tolist())
print("keys   :", {g: int(v[0]) for g, v in keys.items()})

messages = {k: encode(pre, keys, w[k - 1], k) for k in params.users}
for k, msg in messages.items():
    print(f"user {k} broadcasts X{k} = {int(msg.payload[0])}")

for k in params.users:
    others = [messages[u] for u in params.users if u != k]
    others_sum = recover(pre, keys, k, others)
    total = (others_sum + w[k - 1]) % 2
    print(f"user {k} recovers others-sum {int(others_sum[0])}, "
          f"global sum {int(total[0])}")

print()
print("same thing through the round simulator, transcript form:")
print(run_round(pre, w, seed=0).to_text())
