"""
Forward and adjoint solves for the harvested population
=======================================================

Solves the reaction-diffusion state equation under a harvesting effort
restricted to a disc, then the backward adjoint system, and checks the
duality identity linking the harvested biomass to the adjoint's initial
trace: integral of H_eps(phi) u y over space-time versus minus the
integral of y0 * p(.,0).
"""

from regionopt import (
    ControlProblemParams,
    GridSpec,
    Mollifier,
    ScalarField,
    SpaceTimeField,
    circle_levelset,
    gaussian_density,
    heaviside_mollified,
    solve_adjoint,
    solve_forward,
)

grid = GridSpec(N=20, M=20, T=1.0)
m = Mollifier(1.0)
params = ControlProblemParams(
    d=1.0,
    a=ScalarField.constant(grid, 3.0),
    y0=gaussian_density(grid),
    L=1.0,
    alpha=0.4,
    beta=0.6,
    mollifier=m,
)
phi = circle_levelset(grid)

# Backward adjoint first: its values decide where effort pays off, and
# the mollified switching rule u = L H_eps(1 + p) gives the control.
adjoint = solve_adjoint(phi, params)
control_values = params.L * heaviside_mollified(1.0 + adjoint.values, m)
print(
    "adjoint range [%.4f, %.4f], control range [%.4f, %.4f]"
    % (
        adjoint.values.min(),
        adjoint.values.max(),
        control_values.min(),
        control_values.max(),
    )
)

# Forward solve under that effort; density grows (a = 3) but the harvest
# keeps the controlled region leaner.
state = solve_forward(phi, SpaceTimeField(grid, control_values), params)
print("population max at t=0: %.5f, at t=T: %.5f" % (
    state.values[0].max(), state.values[-1].max()))

# Duality: both sides computed with the scheme's own quadrature, the
# right-endpoint rule in time and the lumped interior mass in space.
h2 = grid.h * grid.h
weight = heaviside_mollified(phi.phi.values, m)
integrand = weight[None, :, :] * control_values * state.values
harvest = grid.dt * sum(
    h2 * integrand[k][1:-1, 1:-1].sum() for k in range(1, grid.M + 1)
)
trace = h2 * (params.y0.values[1:-1, 1:-1] * adjoint.values[0][1:-1, 1:-1]).sum()
print("harvest integral      %.6f" % harvest)
print("-(y0, p(.,0)) trace   %.6f" % -trace)
print("relative gap          %.2f%% (first order in dt)" % (
    100 * abs(harvest + trace) / abs(trace)))
