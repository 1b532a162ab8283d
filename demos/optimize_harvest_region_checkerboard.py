"""
Harvest-region optimization from a checkerboard initialization
==============================================================

Same reference parameter set as the disc demo, but the level set starts
as sin(3 pi x1) sin(3 pi x2): nine alternating cells.  The descent is
topology-friendly, so disconnected pieces can merge or vanish without
any surgery on the representation.
"""

import pathlib

from regionopt import (
    ControlProblemParams,
    GridSpec,
    Mollifier,
    ScalarField,
    checkerboard_levelset,
    gaussian_density,
    optimize_region,
    write_region_pgm,
)

out = pathlib.Path(__file__).with_name("output")
out.mkdir(exist_ok=True)

grid = GridSpec(N=20, M=20, T=1.0)
params = ControlProblemParams(
    d=1.0,
    a=ScalarField.constant(grid, 3.0),
    y0=gaussian_density(grid),
    L=1.0,
    alpha=0.4,
    beta=0.6,
    mollifier=Mollifier(1.0),
)

phi0 = checkerboard_levelset(grid)
write_region_pgm(phi0, out / "checkerboard_initial.pgm")

best, trace, _ = optimize_region(phi0, params)

costs = trace.costs()
print("iterations:", len(trace.records), "stop:", trace.stop_reason)
print("J: %.5f -> %.5f, strictly decreasing: %s" % (
    costs[0], costs[-1], bool((costs[1:] < costs[:-1]).all())))
print("mollified area of the final region: %.4f" % trace.best().region_area)

trace.write_csv(out / "checkerboard_trace.csv")
write_region_pgm(best, out / "checkerboard_final.pgm")
print("wrote", out / "checkerboard_trace.csv")
