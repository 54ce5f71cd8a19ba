"""Averaging a general operator down to a multiplier, plus the built-in
invariant suites that keep the whole toolkit honest.
"""

import numpy as np

from herzkit import (
    LinearOperatorOnSp,
    averaging_projection,
    averaging_projection_grid,
    random_matrix,
    run_suite,
)

n = 3
R = random_matrix(n * n, ensemble="gaussian", seed=13)
T = LinearOperatorOnSp.from_function(
    n, lambda B: (R @ B.reshape(-1)).reshape(n, n))

print("== project an arbitrary operator onto multipliers ==")
sym = averaging_projection(T)
print(f"  extracted symbol (rounded):\n{np.round(sym, 3)}")

again = averaging_projection(LinearOperatorOnSp.from_multiplier(sym))
print(f"  idempotent: {np.array_equal(again, sym)}")

for N in (n, 2 * n):
    grid = averaging_projection_grid(T, N)
    print(f"  grid variant N = {N}: defect {np.max(np.abs(grid - sym)):.1e}")

smax = float(np.linalg.svd(T.rep, compute_uv=False)[0])
print(f"  max|symbol| = {np.max(np.abs(sym)):.6f} <= {smax:.6f} = ||T||")

print()
print("== invariant suites ==")
for report in run_suite("all", trials=3):
    flag = "ok" if report.passed else "FAILED"
    print(f"  {report.suite:14} {len(report.checks):2d} checks  {flag}")
