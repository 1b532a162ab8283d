"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``)
and asserts the same condition, so the suite doubles as a checklist:

1. duality identity between the harvest integral and the adjoint trace
2. mass conservation of the forward solver without reaction or control
3. closed-form uniform growth against the implicit-Euler oracle
4. manufactured-solution convergence orders in h and dt
5. reference optimization runs: termination, monotone J, proper region
6. principal-eigenvalue exactness, dense-oracle agreement, monotonicity
7. renewal-equation root: zero case, bisection oracle, refinement order
8. eradication dichotomy of the age-structured model under full effort
9. byte-identical artifacts across repeated runs
"""

import csv
import time

import numpy as np

from regionopt.agestruct import (
    AgeModelParams,
    eigen_operator_matrix,
    lotka_root,
    principal_eigenvalue,
    sharp_effort,
    solve_age_structured,
    total_population,
)
from regionopt.cli import run
from regionopt.config import gaussian_density, parse_config
from regionopt.grid import (
    GridSpec,
    ScalarField,
    SpaceTimeField,
    simpson_integral_2d,
)
from regionopt.levelset import (
    LevelSetFunction,
    Mollifier,
    checkerboard_levelset,
    circle_levelset,
    heaviside_mollified,
    region_area,
    write_region_pgm,
)
from regionopt.pde import (
    ControlProblemParams,
    bang_bang_control,
    solve_adjoint,
    solve_forward,
)
from regionopt.shapeopt import optimize_region

ANALYTIC_ROOT = 1.5936242600400399  # constant fertility 2, lifespan 1, no deaths


def _report(ok: bool, label: str, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


def reference_params(grid: GridSpec) -> ControlProblemParams:
    return ControlProblemParams(
        d=1.0,
        a=ScalarField.constant(grid, 3.0),
        y0=gaussian_density(grid),
        L=1.0,
        alpha=0.4,
        beta=0.6,
        mollifier=Mollifier(1.0),
    )


def _duality_gaps(N: int) -> tuple:
    """Relative mismatch of the two cost expressions at resolution N,
    for the mollified switching control and the sharp one."""
    grid = GridSpec(N=N, M=N, T=1.0)
    params = reference_params(grid)
    m = params.mollifier
    phi = circle_levelset(grid)
    adjoint = solve_adjoint(phi, params)
    h2 = grid.h * grid.h
    weight = heaviside_mollified(phi.phi.values, m)
    trace = h2 * (
        params.y0.values[1:-1, 1:-1] * adjoint.values[0][1:-1, 1:-1]
    ).sum()
    gaps = []
    sharp = bang_bang_control(adjoint, params)
    mollified = SpaceTimeField(
        grid, params.L * heaviside_mollified(1.0 + adjoint.values, m)
    )
    for control in (mollified, sharp):
        state = solve_forward(phi, control, params)
        integrand = weight[None, :, :] * control.values * state.values
        harvest = grid.dt * sum(
            h2 * integrand[k][1:-1, 1:-1].sum() for k in range(1, grid.M + 1)
        )
        gaps.append(abs(harvest + trace) / abs(trace))
    return tuple(gaps)


def test_criterion_1_duality_identity():
    start = time.perf_counter()
    coarse, coarse_sharp = _duality_gaps(20)
    mid = time.perf_counter() - start
    fine, fine_sharp = _duality_gaps(40)
    elapsed = time.perf_counter() - start - mid
    ok = coarse <= 0.05 and fine < coarse and mid <= 60.0 and elapsed <= 60.0
    _report(
        ok,
        "criterion 1 (duality identity)",
        f"mollified-control gap {100 * coarse:.3f}% at N=M=20, "
        f"{100 * fine:.3f}% at N=M=40 "
        f"(sharp control: {100 * coarse_sharp:.3f}%, {100 * fine_sharp:.3f}%)",
    )


def test_criterion_2_mass_conservation():
    grid = GridSpec(N=20, M=100, T=1.0)
    zero_growth = ScalarField.constant(grid, 0.0)
    no_control = SpaceTimeField.constant(grid, 0.0)
    phi = circle_levelset(grid)

    uniform = ControlProblemParams(
        d=1.0, a=zero_growth, y0=ScalarField.constant(grid, 1.0),
        L=1.0, alpha=0.0, beta=0.0, mollifier=Mollifier(1.0),
    )
    state = solve_forward(phi, no_control, uniform)
    masses = np.array(
        [simpson_integral_2d(state.level(k)) for k in range(grid.M + 1)]
    )
    simpson_drift = np.max(np.abs(masses - masses[0])) / abs(masses[0])

    bump = ControlProblemParams(
        d=1.0, a=zero_growth, y0=gaussian_density(grid),
        L=1.0, alpha=0.0, beta=0.0, mollifier=Mollifier(1.0),
    )
    state = solve_forward(phi, no_control, bump)
    h2 = grid.h * grid.h
    lumped = h2 * state.values[:, 1:-1, 1:-1].sum(axis=(1, 2))
    lumped_drift = np.max(np.abs(lumped - lumped[0])) / abs(lumped[0])

    ok = simpson_drift <= 1e-8 and lumped_drift <= 1e-8
    _report(
        ok,
        "criterion 2 (mass conservation)",
        f"Simpson drift {simpson_drift:.2e}, lumped drift {lumped_drift:.2e} "
        f"over {grid.M} steps",
    )


def test_criterion_3_closed_form_growth():
    grid = GridSpec(N=10, M=100, T=1.0)
    params = ControlProblemParams(
        d=1.0,
        a=ScalarField.constant(grid, 3.0),
        y0=ScalarField.constant(grid, 1.0),
        L=1.0,
        alpha=0.0,
        beta=0.0,
        mollifier=Mollifier(1.0),
    )
    state = solve_forward(
        circle_levelset(grid), SpaceTimeField.constant(grid, 0.0), params
    )
    dt = grid.dt
    worst = 0.0
    for k in range(grid.M + 1):
        closed = (1.0 - 3.0 * dt) ** (-k)
        worst = max(worst, np.abs(state.values[k] - closed).max() / closed)
    final = state.values[-1, 0, 0]
    euler_vs_exact = abs(final - np.e**3) / np.e**3
    ok = worst <= 1e-12 and euler_vs_exact <= 0.05
    _report(
        ok,
        "criterion 3 (closed-form growth)",
        f"discrete mismatch {worst:.2e}, implicit-Euler vs e^3 "
        f"{100 * euler_vs_exact:.2f}%",
    )


def _poly(x):
    return x**3 / 3.0 - x**4 / 2.0 + x**5 / 5.0


def _poly_lap(x):
    return 2.0 * x * (1.0 - x) * (1.0 - 2.0 * x)


def test_criterion_4_manufactured_orders():
    space_errors = []
    for N in (10, 20, 40):
        grid = GridSpec(N=N, M=N * N, T=1.0)
        X1, X2 = grid.mesh()
        profile = 1.0 + _poly(X1) + _poly(X2)
        lap = _poly_lap(X1) + _poly_lap(X2)
        params = ControlProblemParams(
            d=1.0,
            a=ScalarField.constant(grid, 3.0),
            y0=ScalarField(grid, profile.copy()),
            L=1.0,
            alpha=0.0,
            beta=0.0,
            mollifier=Mollifier(1.0),
        )
        t = grid.times()[:, None, None]
        forcing = SpaceTimeField(grid, np.exp(t) * (-2.0 * profile - lap))
        state = solve_forward(
            circle_levelset(grid),
            SpaceTimeField.constant(grid, 0.0),
            params,
            forcing=forcing,
        )
        space_errors.append(np.abs(state.values[-1] - np.e * profile).max())
    space_orders = [
        np.log2(space_errors[i] / space_errors[i + 1]) for i in range(2)
    ]

    time_errors = []
    for M in (10, 20, 40):
        grid = GridSpec(N=10, M=M, T=1.0)
        params = ControlProblemParams(
            d=1.0,
            a=ScalarField.constant(grid, 0.0),
            y0=ScalarField.constant(grid, 1.0),
            L=1.0,
            alpha=0.0,
            beta=0.0,
            mollifier=Mollifier(1.0),
        )
        t = grid.times()[:, None, None]
        forcing = SpaceTimeField(
            grid, np.broadcast_to(3.0 * t * t, (M + 1, 11, 11)).copy()
        )
        state = solve_forward(
            circle_levelset(grid),
            SpaceTimeField.constant(grid, 0.0),
            params,
            forcing=forcing,
        )
        time_errors.append(np.abs(state.values[-1] - 2.0).max())
    time_orders = [np.log2(time_errors[i] / time_errors[i + 1]) for i in range(2)]

    ok = min(space_orders) >= 1.8 and min(time_orders) >= 0.9
    _report(
        ok,
        "criterion 4 (manufactured orders)",
        f"h-orders {space_orders[0]:.2f}/{space_orders[1]:.2f}, "
        f"dt-orders {time_orders[0]:.2f}/{time_orders[1]:.2f}",
    )


def test_criterion_5_reference_runs(tmp_path):
    grid = GridSpec(N=20, M=20, T=1.0)
    params = reference_params(grid)
    outcomes = []
    for name, phi0 in (
        ("disc", circle_levelset(grid)),
        ("checkerboard", checkerboard_levelset(grid)),
    ):
        best, trace, _ = optimize_region(phi0, params, max_iter=200)
        costs = trace.costs()
        area = region_area(best, params.mollifier)
        masks = []
        for idx, snapshot in enumerate((phi0, best), start=1):
            path = tmp_path / f"{name}_{idx:04d}.pgm"
            write_region_pgm(snapshot, path)
            masks.append(path.read_text().splitlines()[0] == "P2")
        outcomes.append(
            (
                name,
                len(trace.records),
                trace.stop_reason,
                bool(np.all(np.diff(costs) < 0.0)),
                area,
                all(masks) and len(masks) >= 2,
            )
        )
    ok = all(
        count <= 200
        and reason != "iteration budget"
        and decreasing
        and 0.0 < area < 1.0
        and masks_ok
        for _, count, reason, decreasing, area, masks_ok in outcomes
    )
    detail = "; ".join(
        f"{name}: {count} iterations, {reason}, J strictly decreasing "
        f"{decreasing}, mollified area {area:.4f}"
        for name, count, reason, decreasing, area, _ in outcomes
    )
    _report(ok, "criterion 5 (reference optimization runs)", detail)


def _rectangle(grid, lo, hi):
    return LevelSetFunction.from_function(
        grid,
        lambda x1, x2: np.where(
            (x1 >= lo[0]) & (x1 <= hi[0]) & (x2 >= lo[1]) & (x2 <= hi[1]),
            1.0,
            -1.0,
        ),
    )


def test_criterion_6_eigenvalue_exactness():
    L = 1.0
    grid20 = GridSpec(N=20, M=2, T=1.0)
    empty = LevelSetFunction(ScalarField.constant(grid20, -1.0))
    full = LevelSetFunction(ScalarField.constant(grid20, 1.0))
    empty_err = abs(principal_eigenvalue(sharp_effort(empty, L), 1.0))
    full_err = abs(principal_eigenvalue(sharp_effort(full, L), 1.0) - L)

    grid10 = GridSpec(N=10, M=2, T=1.0)
    rng = np.random.default_rng(301)
    oracle_err = 0.0
    for _ in range(3):
        lo = rng.uniform(0.0, 0.4, 2)
        hi = lo + rng.uniform(0.2, 0.5, 2)
        phi = _rectangle(grid10, lo, hi)
        produced = principal_eigenvalue(sharp_effort(phi, L), 1.0)
        dense = np.linalg.eigvalsh(
            eigen_operator_matrix(sharp_effort(phi, L), 1.0).toarray()
        )[0]
        oracle_err = max(oracle_err, abs(produced - dense))

    rng = np.random.default_rng(302)
    violations = 0
    for _ in range(20):
        lo = rng.uniform(0.0, 0.35, 2)
        hi = lo + rng.uniform(0.25, 0.55, 2)
        grow = rng.uniform(0.0, 0.25, 2)
        inner = _rectangle(grid20, lo, hi)
        outer = _rectangle(
            grid20,
            (max(lo[0] - grow[0], 0.0), max(lo[1] - grow[1], 0.0)),
            (min(hi[0] + grow[1], 1.0), min(hi[1] + grow[0], 1.0)),
        )
        small = principal_eigenvalue(sharp_effort(inner, L), 1.0)
        large = principal_eigenvalue(sharp_effort(outer, L), 1.0)
        if not small <= large + 1e-8:
            violations += 1

    ok = empty_err <= 1e-8 and full_err <= 1e-8 and oracle_err <= 1e-8 and (
        violations == 0
    )
    _report(
        ok,
        "criterion 6 (eigenvalue exactness)",
        f"empty {empty_err:.1e}, full {full_err:.1e}, dense-oracle "
        f"{oracle_err:.1e}, nested-pair violations {violations}/20",
    )


def test_criterion_7_renewal_root():
    balanced = AgeModelParams(
        A=2.0, Na=20, fertility=0.5, mortality=0.0, d=1.0, L=1.0, T=2.0
    )
    zero_err = abs(lotka_root(balanced))

    model = AgeModelParams(
        A=1.0, Na=40, fertility=2.0, mortality=0.0, d=1.0, L=1.0, T=1.0
    )
    ages = model.ages
    da = model.da
    beta = model.fertility_samples

    def lhs(r):
        samples = beta * np.exp(-r * ages)
        return da * (samples.sum() - 0.5 * (samples[0] + samples[-1]))

    lo, hi = 0.0, 4.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if lhs(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    oracle_err = abs(lotka_root(model) - 0.5 * (lo + hi))

    errors = []
    for Na in (20, 40, 80):
        refined = AgeModelParams(
            A=1.0, Na=Na, fertility=2.0, mortality=0.0, d=1.0, L=1.0, T=1.0
        )
        errors.append(abs(lotka_root(refined) - ANALYTIC_ROOT))
    orders = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]

    ok = zero_err <= 1e-10 and oracle_err <= 1e-8 and min(orders) >= 1.8
    _report(
        ok,
        "criterion 7 (renewal-equation root)",
        f"zero-case |r*| {zero_err:.1e}, oracle mismatch {oracle_err:.1e}, "
        f"refinement orders {orders[0]:.2f}/{orders[1]:.2f}",
    )


def test_criterion_8_eradication_dichotomy():
    start = time.perf_counter()
    grid = GridSpec(N=20, M=2, T=1.0)
    model = AgeModelParams(
        A=1.0, Na=20, fertility=2.0, mortality=0.0, d=1.0, L=2.0, T=1.0
    )
    r_star = lotka_root(model)
    full = LevelSetFunction(ScalarField.constant(grid, 1.0))
    lambda_full = principal_eigenvalue(sharp_effort(full, model.L), model.d)

    controlled = total_population(
        solve_age_structured(sharp_effort(full, model.L), model)
    )
    settled = len(controlled)
    for idx in range(len(controlled)):
        if np.all(np.diff(controlled[idx:]) < 0.0):
            settled = idx
            break

    empty = LevelSetFunction(ScalarField.constant(grid, -1.0))
    free = total_population(solve_age_structured(sharp_effort(empty, model.L), model))
    nondecreasing = bool(np.all(np.diff(free) >= -1e-12))
    elapsed = time.perf_counter() - start

    ok = (
        lambda_full > r_star > 0.0
        and settled <= 3
        and nondecreasing
        and elapsed <= 120.0
    )
    _report(
        ok,
        "criterion 8 (eradication dichotomy)",
        f"lambda1 {lambda_full:.4f} > r* {r_star:.4f}; full effort decreasing "
        f"after {settled} steps; uncontrolled nondecreasing {nondecreasing}; "
        f"{elapsed:.1f}s",
    )


REFERENCE_CONFIG = """
[run]
command = optimize-region

[grid]
N = 20
M = 20
T = 1.0

[model]
d = 1.0
a = 3.0
y0 = gaussian
L = 1.0

[penalty]
alpha = 0.4
beta = 0.6

[mollifier]
eps = 1.0

[convergence]
eps1 = 0.001
eps2 = 0.001

[levelset]
init = circle
"""


def test_criterion_9_determinism(tmp_path):
    path = tmp_path / "reference.ini"
    path.write_text(REFERENCE_CONFIG.lstrip())
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert run(parse_config(path), out_dir=str(first)) == 0
    assert run(parse_config(path), out_dir=str(second)) == 0
    trace_same = (first / "trace.csv").read_bytes() == (
        second / "trace.csv"
    ).read_bytes()
    mask_same = (first / "omega_final.pgm").read_bytes() == (
        second / "omega_final.pgm"
    ).read_bytes()
    with open(first / "trace.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    ok = trace_same and mask_same and len(rows) >= 2
    _report(
        ok,
        "criterion 9 (determinism)",
        f"trace.csv byte-identical {trace_same}, final mask byte-identical "
        f"{mask_same} across repeated runs",
    )
