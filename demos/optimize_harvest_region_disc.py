"""
Harvest-region optimization from a disc initialization
======================================================

Runs the adjoint-driven level-set descent on the reference parameter
set (growth 3, effort bound 1, length weight 0.4, area weight 0.6,
width eps = 1) starting from a centered disc.  Prints the iteration
trace and writes the region masks and trace CSV next to this script.
"""

import pathlib

from regionopt import (
    ControlProblemParams,
    GridSpec,
    Mollifier,
    ScalarField,
    circle_levelset,
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


def snapshot(n, phi, record):
    write_region_pgm(phi, out / f"disc_omega_{n:04d}.pgm")


best, trace, _ = optimize_region(circle_levelset(grid), params, callback=snapshot)

print("  n        J       adjoint    length     area    step")
for r in trace.records:
    adjoint, length, area = r.terms
    print(
        f"{r.n:4d} {r.cost:10.5f} {adjoint:9.5f} {length:9.5f}"
        f" {area:9.5f} {r.theta:7.3f}"
    )
print("stopped:", trace.stop_reason)
record = trace.best()
print("best J: %.6f, mollified area %.4f" % (record.cost, record.region_area))

trace.write_csv(out / "disc_trace.csv")
write_region_pgm(best, out / "disc_omega_final.pgm")
print("wrote", out / "disc_trace.csv", "and the omega_*.pgm masks")
