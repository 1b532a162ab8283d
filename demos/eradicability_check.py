"""
Eradicability of an age-structured pest: root versus eigenvalue
===============================================================

For the age-structured model the question "can effort L confined to
omega eradicate the population" reduces to comparing two numbers: the
intrinsic growth exponent r* (the root of the renewal equation) and the
principal eigenvalue of the controlled diffusion operator -d lap + u,
where the effort u = L chi_omega removes at rate L on omega.  Eradicable
if the eigenvalue wins, not eradicable if it falls short, indeterminate
on the knife edge.
"""

import numpy as np

from regionopt import (
    AgeModelParams,
    GridSpec,
    LevelSetFunction,
    ScalarField,
    eradicability_verdict,
    lotka_root,
    principal_eigenvalue,
    sharp_effort,
)

grid = GridSpec(N=20, M=2, T=1.0)
model = AgeModelParams(
    A=1.0, Na=20, fertility=2.0, mortality=0.0, d=1.0, L=2.0, T=1.0
)

# The renewal root depends only on demography: two offspring over a unit
# lifespan with no deaths gives a growing population, r* ~ 1.59.
print("Lotka root r* = %.6f" % lotka_root(model))

# The eigenvalue depends only on where the effort acts.  Empty region:
# 0.  Full square: exactly L.  A half square sits strictly between.
shapes = {
    "empty": LevelSetFunction(ScalarField.constant(grid, -1.0)),
    "left half": LevelSetFunction.from_function(
        grid, lambda x1, x2: np.where(x1 < 0.5, 1.0, -1.0)
    ),
    "full": LevelSetFunction(ScalarField.constant(grid, 1.0)),
}
for name, phi in shapes.items():
    lam = principal_eigenvalue(sharp_effort(phi, model.L), model.d)
    print(f"lambda1 on {name:10s} = {lam:.6f}")

# The verdict bundles the comparison with a tolerance band.
print()
for name, phi in shapes.items():
    report = eradicability_verdict(phi, model)
    print(f"{name:10s} -> {report.verdict}  (margin {report.margin:+.4f})")
