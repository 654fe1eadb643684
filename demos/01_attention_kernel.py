"""Tour of the attention kernel: masking semantics and rotary position laws."""

import numpy as np

from bachkit import NEG, RotaryTable, joint_attention, rope_encode
from bachkit.tensorops import grid_positions

rng = np.random.default_rng(0)

print("== scaled dot-product over a joint sequence ==")
q = rng.standard_normal((4, 8)).astype(np.float32)
k = rng.standard_normal((6, 8)).astype(np.float32)
v = rng.standard_normal((6, 8)).astype(np.float32)
att = joint_attention(q, k, v)
w, o = att.weights(), att.out
print(f"weights {w.shape} (heads, queries, keys), outputs {o.shape}, row sums {w[0].sum(axis=1)}")
print(f"weights on request, for a block only: {att.weights(slice(0, 2), slice(4, 6)).shape}")

print("\n== additive region mask: forbidden entries flush to exact zero ==")
mask = np.zeros((4, 6), dtype=np.float32)
mask[0, 3:] = NEG  # query 0 may only see the first three keys
w = joint_attention(q, k, v, mask).weights()
print(f"row 0: {w[0, 0]}")
print(f"forbidden weights are exactly zero: {(w[0, 0, 3:] == 0.0).all()}")
print(f"remaining weights renormalize: sum = {w[0, 0].sum():.7f}")

print("\n== heads: one call attends on every channel group ==")
both = joint_attention(q, k, v, mask, heads=2)
one = joint_attention(q[:, 4:], k[:, 4:], v[:, 4:], mask)
print(f"weights {both.weights().shape}, outputs {both.out.shape}")
print(f"head 1 is attention on channels 4:8: "
      f"{np.allclose(both.weights()[1], one.weights()[0]) and np.allclose(both.out[:, 4:], one.out)}")

print("\n== rotary encoding on the (frame, row, column) grid ==")
pos = grid_positions(2, 2, 2)
table = RotaryTable.at(pos, 12)  # cos/sin of every rotary pair's angle at each position
x = rng.standard_normal((8, 12)).astype(np.float32)
enc = rope_encode(x, table)
print(f"norms preserved: "
      f"{np.allclose(np.linalg.norm(enc, axis=1), np.linalg.norm(x, axis=1), atol=1e-4)}")
print(f"origin row unchanged: {np.allclose(enc[0], x[0], atol=1e-6)}")

# a model computes the table of its grid once; its rows serve any subset
rows = [1, 6]
sub = rope_encode(x[rows], table[rows])
print(f"table rows encode bit for bit: "
      f"{np.array_equal(sub, rope_encode(x[rows], RotaryTable.at(pos[rows], 12)))}, "
      f"subset {np.array_equal(sub, enc[rows])}")

# scores depend on relative position only: shift both tokens, dot is invariant
a = rng.standard_normal((1, 12)).astype(np.float32)
b = rng.standard_normal((1, 12)).astype(np.float32)
p1, p2, d = np.array([[0, 1, 2]]), np.array([[1, 3, 0]]), np.array([[2, 2, 5]])
shifts = RotaryTable.at(np.concatenate([p1, p2, p1 + d, p2 + d]), 12)
lhs = (rope_encode(a, shifts[[0]]) @ rope_encode(b, shifts[[1]]).T).item()
rhs = (rope_encode(a, shifts[[2]]) @ rope_encode(b, shifts[[3]]).T).item()
print(f"relative-position law: {lhs:.6f} vs {rhs:.6f}")
