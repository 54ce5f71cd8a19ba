"""Predual norms: decompositions, truncation, products, and duality.

A symbol C is priced by writing it as a sum of Schur products A*B and
charging ||A||_p ||B||_q per term (q conjugate).  The bracket pairs that
price with a witnessed lower bound.
"""

import numpy as np

from herzkit import (
    HerzOptions,
    herz_norm,
    herz_schur_product,
    herz_truncate,
    multiplier_norm,
    pair_with_multiplier,
    random_matrix,
    represent,
    submultiplicativity_check,
)

C = random_matrix(3, ensemble="gaussian", seed=21)
opts = HerzOptions(restarts=6, seed=0)

print("== brackets across exponents ==")
for p in (1, 1.5, 2, 3):
    res = herz_norm(C, p, opts)
    b = res.bracket
    print(f"  p = {p:3}  [{b.lower:.6f}, {b.upper:.6f}]  "
          f"terms = {len(res.best_decomposition.terms)}")
print("  (p=2 is the closed form sum of |entries|, width zero)")

print()
print("== the decomposition really represents the symbol ==")
res = herz_norm(C, 1.5, opts)
d = res.best_decomposition
defect = np.max(np.abs(represent(d) - C))
print(f"  rebuild defect {defect:.1e}, cost {d.cost:.6f} = upper bound")

print()
print("== truncation only cheapens ==")
cut = herz_truncate(d, [0, 2])
print(f"  keep rows/cols (0, 2): cost {cut.cost:.6f} <= {d.cost:.6f}")

print()
print("== Schur products multiply prices ==")
D = random_matrix(3, ensemble="gaussian", seed=22)
x = herz_norm(C, 1.5, opts).best_decomposition
y = herz_norm(D, 1.5, opts).best_decomposition
z = herz_schur_product(x, y)
print(f"  cost(x*y) = {z.cost:.6f} <= {x.cost * y.cost:.6f} = cost(x)cost(y)")
rep = submultiplicativity_check(C, D, 1.5, product="schur", opts=opts)
print(f"  bracket check: lower(C*D) = {rep.lower_product:.6f} <= "
      f"{rep.upper_left * rep.upper_right:.6f} (passed: {rep.passed})")

print()
print("== duality sandwich ==")
A = random_matrix(3, ensemble="sign", seed=23)
mu = multiplier_norm(A, 1.5)
hz = herz_norm(C, 1.5, opts)
pairing = abs(pair_with_multiplier(A, C))
print(f"  |<A, C>| = {pairing:.6f} <= {mu.upper:.6f} * {hz.bracket.upper:.6f} "
      f"= {mu.upper * hz.bracket.upper:.6f}")
