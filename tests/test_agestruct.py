"""Tests for the age-structured eradicability and region-design module."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse
from scipy.sparse.linalg import eigsh

from regionopt import agestruct
from regionopt.agestruct import (
    AgeModelParams,
    ERADICATION_TRACE_COLUMNS,
    age_trapezoid_weights,
    eigen_operator_matrix,
    eradicability_verdict,
    eradication_velocity,
    evaluate_psi,
    lotka_root,
    mollified_effort,
    optimize_eradication_region,
    principal_eigenvalue,
    sharp_effort,
    solve_age_structured,
    solve_eradication_adjoint,
    total_population,
)
from regionopt.errors import ConvergenceFailure, SolverFailure
from regionopt.grid import GridSpec, ScalarField
from regionopt.levelset import LevelSetFunction, Mollifier, circle_levelset

# Root of 2 (1 - e^-r) / r = 1, computed by high-precision bisection on
# the closed-form equation before the module was written.
CONSTANT_FERTILITY_ROOT = 1.5936242600400399


def spatial_grid(N=10):
    return GridSpec(N=N, M=2, T=1.0)


def uniform_phi(grid, value):
    return LevelSetFunction(ScalarField.constant(grid, value))


def rectangle_phi(grid, x1_lo, x1_hi, x2_lo, x2_hi):
    return LevelSetFunction.from_function(
        grid,
        lambda x1, x2: np.where(
            (x1 >= x1_lo) & (x1 <= x1_hi) & (x2 >= x2_lo) & (x2 <= x2_hi),
            1.0,
            -1.0,
        ),
    )


def basic_model(**overrides):
    settings = dict(
        A=1.0,
        Na=20,
        fertility=2.0,
        mortality=0.0,
        d=1.0,
        L=1.0,
        T=1.0,
    )
    settings.update(overrides)
    return AgeModelParams(**settings)


def discrete_lotka_lhs(model, r):
    """Trapezoid left-hand side built independently of the module."""
    ages = model.ages
    da = model.da
    mu = model.mortality_samples
    beta = model.fertility_samples
    integral = 0.0
    cumulative = 0.0
    previous = beta[0] * np.exp(-r * ages[0])
    for level in range(1, ages.size):
        cumulative += 0.5 * (mu[level - 1] + mu[level]) * da
        current = beta[level] * np.exp(-cumulative - r * ages[level])
        integral += 0.5 * (previous + current) * da
        previous = current
    return integral


def test_unit_reproduction_has_zero_root():
    model = basic_model(A=2.0, Na=20, fertility=0.5, T=2.0)
    root = lotka_root(model)
    assert abs(root) <= 1e-9


def test_constant_fertility_root_matches_oracle_bisection():
    model = basic_model(Na=40)
    root = lotka_root(model)
    lo, hi = 0.0, 4.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if discrete_lotka_lhs(model, mid) > 1.0:
            lo = mid
        else:
            hi = mid
    assert abs(root - 0.5 * (lo + hi)) <= 1e-8


def test_root_refinement_converges_at_second_order():
    errors = []
    for Na in (20, 40, 80):
        model = basic_model(Na=Na, T=1.0)
        errors.append(abs(lotka_root(model) - CONSTANT_FERTILITY_ROOT))
    order1 = np.log2(errors[0] / errors[1])
    order2 = np.log2(errors[1] / errors[2])
    assert order1 >= 1.8
    assert order2 >= 1.8


def test_scaling_fertility_raises_root():
    rng = np.random.default_rng(13)
    ages = np.linspace(0.0, 1.0, 21)
    for _ in range(5):
        base = rng.uniform(0.5, 2.0, ages.size)
        lower = basic_model(fertility=base)
        upper = basic_model(fertility=1.5 * base)
        assert lotka_root(upper) > lotka_root(lower)


def test_zero_fertility_has_no_root():
    with pytest.raises(SolverFailure):
        lotka_root(basic_model(fertility=0.0))


def test_eigenvalue_empty_and_full_region():
    grid = spatial_grid(N=20)
    L = 1.0
    empty = sharp_effort(uniform_phi(grid, -1.0), L)
    full = sharp_effort(uniform_phi(grid, 1.0), L)
    assert abs(principal_eigenvalue(empty, 1.0)) <= 1e-8
    assert abs(principal_eigenvalue(full, 1.0) - L) <= 1e-8


def test_eigenvalue_left_half_strictly_inside():
    grid = GridSpec(N=40, M=2, T=1.0)
    phi = LevelSetFunction.from_function(
        grid, lambda x1, x2: np.where(x1 < 0.5, 1.0, -1.0)
    )
    value = principal_eigenvalue(sharp_effort(phi, 1.0), 1.0)
    assert 0.0 < value < 1.0


def test_eigenvalue_matches_dense_oracle_on_random_rectangles():
    rng = np.random.default_rng(17)
    grid = spatial_grid(N=10)
    for _ in range(3):
        lo = rng.uniform(0.0, 0.4, 2)
        hi = lo + rng.uniform(0.2, 0.5, 2)
        phi = rectangle_phi(grid, lo[0], hi[0], lo[1], hi[1])
        produced = principal_eigenvalue(sharp_effort(phi, 1.0), 1.0)
        dense = np.linalg.eigvalsh(
            eigen_operator_matrix(sharp_effort(phi, 1.0), 1.0).toarray()
        )[0]
        assert abs(produced - dense) <= 1e-8


def test_eigenvalue_monotone_in_region():
    rng = np.random.default_rng(19)
    grid = spatial_grid(N=10)
    L = 1.0
    for _ in range(5):
        lo = rng.uniform(0.0, 0.3, 2)
        hi = lo + rng.uniform(0.3, 0.6, 2)
        inner = rectangle_phi(grid, lo[0], hi[0], lo[1], hi[1])
        grow = rng.uniform(0.0, 0.2, 2)
        outer = rectangle_phi(
            grid,
            max(lo[0] - grow[0], 0.0),
            min(hi[0] + grow[1], 1.0),
            max(lo[1] - grow[1], 0.0),
            min(hi[1] + grow[0], 1.0),
        )
        small = principal_eigenvalue(sharp_effort(inner, L), 1.0)
        large = principal_eigenvalue(sharp_effort(outer, L), 1.0)
        assert small <= large + 1e-8
        assert -1e-8 <= small <= L + 1e-8
        assert -1e-8 <= large <= L + 1e-8


def test_eigenvalue_edge_cases_match_dense_oracle():
    grid = spatial_grid(N=4)  # n = 9 interior nodes
    single_node = np.full((5, 5), -1.0)
    single_node[2, 3] = 1.0
    regions = (
        LevelSetFunction(ScalarField(grid, single_node)),
        rectangle_phi(grid, 0.2, 0.6, 0.2, 0.9),
    )
    for phi in regions:
        for d, L in ((0.0, 1.0), (1.0, 1.0e6), (0.0, 1.0e6), (0.3, 2.0)):
            matrix = eigen_operator_matrix(sharp_effort(phi, L), d).toarray()
            expected = np.linalg.eigvalsh(matrix)[0]
            produced = principal_eigenvalue(sharp_effort(phi, L), d)
            assert abs(produced - expected) <= 1e-8 * max(1.0, abs(expected))


def test_eigenvalue_of_smooth_effort_matches_kron_assembly():
    grid = spatial_grid(N=12)
    d = 0.7
    effort = ScalarField.from_function(
        grid,
        lambda x1, x2: 3.0
        + 2.0 * np.cos(np.pi * x1) * np.sin(2.0 * np.pi * x2)
        + 5.0 * x1 * x2,
    )
    # -d lap + u assembled independently: Kronecker sum of two Neumann
    # path Laplacians plus the effort on the interior nodes.
    n1 = grid.N - 1
    ends = np.full(n1, 2.0)
    ends[[0, -1]] = 1.0
    path = np.diag(ends) - np.eye(n1, k=1) - np.eye(n1, k=-1)
    eye = np.eye(n1)
    lap = np.kron(path, eye) + np.kron(eye, path)
    interior = effort.values[1:-1, 1:-1]
    matrix = d / grid.h**2 * lap + np.diag(interior.ravel())
    expected = np.linalg.eigvalsh(matrix)[0]
    produced = principal_eigenvalue(effort, d)
    assert interior.min() < produced < interior.max()
    assert abs(produced - expected) <= 1e-8 * max(1.0, abs(expected))


def test_eigenvalue_matches_eigsh_on_disc_union():
    grid = spatial_grid(N=64)
    discs = ((0.3, 0.35, 0.15), (0.7, 0.6, 0.2), (0.45, 0.8, 0.1))
    phi = LevelSetFunction.from_function(
        grid,
        lambda x1, x2: np.max(
            [r - np.hypot(x1 - cx, x2 - cy) for cx, cy, r in discs], axis=0
        ),
    )
    d, L = 1.0, 20.0
    # The operator assembled independently: Kronecker sum of two Neumann
    # path Laplacians plus the region indicator.
    n1 = grid.N - 1
    ends = np.full(n1, 2.0)
    ends[[0, -1]] = 1.0
    path = sparse.diags([-np.ones(n1 - 1), ends, -np.ones(n1 - 1)], [-1, 0, 1])
    eye = sparse.identity(n1)
    lap = sparse.kron(path, eye) + sparse.kron(eye, path)
    chi = (phi.phi.values[1:-1, 1:-1] > 0.0).astype(float).ravel()
    matrix = (d / grid.h**2 * lap + sparse.diags(L * chi)).tocsc()
    expected = eigsh(matrix, k=1, sigma=-1e-3, which="LM", return_eigenvectors=False)
    produced = principal_eigenvalue(sharp_effort(phi, L), d)
    assert 0.0 < produced < L
    assert abs(produced - expected[0]) <= 1e-8 * max(1.0, abs(expected[0]))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    N=st.sampled_from([4, 6, 8, 10, 12]),
    seed=st.integers(0, 2**32 - 1),
    d=st.floats(0.0, 2.0),
    L=st.floats(0.0, 50.0),
    grow=st.floats(0.0, 1.5),
)
def test_eigenvalue_bounded_and_monotone_on_random_fields(N, seed, d, L, grow):
    grid = spatial_grid(N=N)
    values = np.random.default_rng(seed).standard_normal((N + 1, N + 1))
    inner = LevelSetFunction(ScalarField(grid, values))
    outer = LevelSetFunction(ScalarField(grid, values + grow))
    small = principal_eigenvalue(sharp_effort(inner, L), d)
    large = principal_eigenvalue(sharp_effort(outer, L), d)
    tol = 1e-8 * max(1.0, L)
    assert -tol <= small <= large + tol
    assert large <= L + tol


def test_eigen_iteration_budget_raises_convergence_failure(monkeypatch):
    monkeypatch.setattr(agestruct, "EIGEN_MAX_ITER", 1)
    grid = spatial_grid(N=10)
    with pytest.raises(ConvergenceFailure, match="after 1 steps"):
        principal_eigenvalue(sharp_effort(circle_levelset(grid), 2.0), 1.0)


def test_eigen_non_finite_operator_is_solver_failure(monkeypatch):
    grid = spatial_grid(N=10)
    phi = circle_levelset(grid)
    broken = eigen_operator_matrix(sharp_effort(phi, 2.0), 1.0) * np.nan
    monkeypatch.setattr(agestruct, "eigen_operator_matrix", lambda *args: broken)
    with pytest.raises(SolverFailure, match="non-finite"):
        principal_eigenvalue(sharp_effort(phi, 2.0), 1.0)


def test_verdict_trivial_cases():
    grid = spatial_grid(N=10)
    balanced = basic_model(fertility=1.0)
    report = eradicability_verdict(uniform_phi(grid, 1.0), balanced)
    assert report.verdict == "Eradicable"
    assert report.margin == pytest.approx(1.0, abs=1e-6)

    growing = basic_model(fertility=2.0)
    report = eradicability_verdict(uniform_phi(grid, -1.0), growing)
    assert report.verdict == "NotEradicable"
    assert report.margin == pytest.approx(-report.r_star, abs=1e-8)
    assert report.r_star > 0.0


def test_verdict_indeterminate_by_tuned_fertility():
    grid = spatial_grid(N=10)
    phi = LevelSetFunction.from_function(
        grid, lambda x1, x2: np.where(x1 < 0.5, 1.0, -1.0)
    )
    target = principal_eigenvalue(sharp_effort(phi, 1.0), 1.0)
    lo, hi = 0.1, 5.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if lotka_root(basic_model(fertility=mid)) < target:
            lo = mid
        else:
            hi = mid
    tuned = basic_model(fertility=0.5 * (lo + hi))
    report = eradicability_verdict(phi, tuned)
    assert abs(report.margin) <= 1e-7
    assert report.verdict == "Indeterminate"


def test_verdict_summary_lists_fields():
    # The eradicability summary.txt lists r_star, lambda1, margin and
    # verdict from the report and the module's verdict tolerance.
    grid = spatial_grid(N=10)
    report = eradicability_verdict(uniform_phi(grid, 1.0), basic_model())
    for key in ("r_star", "lambda1", "margin"):
        assert np.isfinite(getattr(report, key))
    assert report.margin == report.lambda1 - report.r_star
    assert report.verdict in {"Eradicable", "NotEradicable", "Indeterminate"}
    assert agestruct.VERDICT_TOLERANCE > 0.0


def test_pure_aging_transport_is_exact():
    grid = spatial_grid(N=10)
    model = basic_model(
        Na=10, fertility=0.0, mortality=0.0, T=0.5, y0=lambda x1, x2, a: 1.0 + a
    )
    phi = uniform_phi(grid, -1.0)
    density = solve_age_structured(ScalarField.constant(grid, 0.0), model)
    for k in range(model.n_time + 1):
        for level in range(model.Na + 1):
            if level >= k:
                expected = 1.0 + model.ages[level - k]
                assert np.abs(density.values[k, level] - expected).max() <= 1e-12
            else:
                assert np.all(density.values[k, level] == 0.0)


def test_constant_mortality_closed_form():
    grid = spatial_grid(N=10)
    mu0 = 0.7
    model = basic_model(Na=20, fertility=0.0, mortality=mu0, T=1.0)
    density = solve_age_structured(ScalarField.constant(grid, 0.0), model)
    dt = model.da
    for k in range(model.n_time + 1):
        expected = (1.0 + mu0 * dt) ** (-k)
        for level in range(model.Na + 1):
            if level >= k:
                assert np.abs(density.values[k, level] - expected).max() <= 1e-12
    final = density.values[model.n_time, model.Na, 0, 0]
    assert abs(final - np.exp(-mu0)) / np.exp(-mu0) <= 0.05


def test_transport_exact_without_diffusion():
    grid = spatial_grid(N=4)
    model = basic_model(
        Na=8, fertility=0.0, mortality=0.0, d=0.0, T=0.5,
        y0=lambda x1, x2, a: 2.0 - a,
    )
    density = solve_age_structured(ScalarField.constant(grid, 0.0), model)
    k = model.n_time
    for level in range(k, model.Na + 1):
        expected = 2.0 - model.ages[level - k]
        assert np.abs(density.values[k, level] - expected).max() <= 1e-13


def test_renewal_equation_holds_on_solution():
    grid = spatial_grid(N=8)
    model = basic_model(Na=10, fertility=lambda a: 1.0 + a, mortality=0.5)
    density = solve_age_structured(ScalarField.constant(grid, 0.0), model)
    weights = age_trapezoid_weights(model.Na, model.da)
    for k in range(1, model.n_time + 1):
        births = np.tensordot(
            weights * model.fertility_samples, density.values[k], axes=(0, 0)
        )
        assert np.abs(births - density.values[k, 0]).max() <= 1e-12


def test_harvesting_never_increases_density():
    grid = spatial_grid(N=8)
    model = basic_model(Na=10, fertility=1.5, mortality=0.2, L=2.0)
    phi = circle_levelset(grid)
    off = solve_age_structured(ScalarField.constant(grid, 0.0), model)
    sharp = solve_age_structured(sharp_effort(phi, model.L), model)
    moll = solve_age_structured(mollified_effort(phi, model.L, Mollifier(1.0)), model)
    assert np.all(sharp.values <= off.values + 1e-12)
    assert np.all(moll.values <= off.values + 1e-12)
    assert np.all(off.values >= 0.0)


def test_logistic_pressure_reduces_population():
    grid = spatial_grid(N=8)
    linear = basic_model(Na=10, fertility=1.5)
    crowded = basic_model(Na=10, fertility=1.5, logistic_slope=0.8)
    off = ScalarField.constant(grid, 0.0)
    y_lin = solve_age_structured(off, linear)
    y_log = solve_age_structured(off, crowded)
    assert np.all(y_log.values <= y_lin.values + 1e-12)
    assert total_population(y_log)[-1] < total_population(y_lin)[-1]


def test_model_validation():
    with pytest.raises(ValueError):
        basic_model(T=0.93)
    with pytest.raises(ValueError):
        basic_model(Na=1)
    with pytest.raises(ValueError):
        basic_model(fertility=-1.0)
    with pytest.raises(ValueError):
        basic_model(d=-0.5)
    with pytest.raises(ValueError):
        basic_model(mortality=lambda a: a - 10.0)
    grid = spatial_grid(N=4)
    heavy_newborns = basic_model(Na=2, fertility=50.0)
    with pytest.raises(ValueError):
        solve_age_structured(ScalarField.constant(grid, 0.0), heavy_newborns)


def test_negative_effort_rejected():
    grid = spatial_grid(N=4)
    model = basic_model(Na=4)
    values = np.zeros((5, 5))
    values[2, 3] = -1.0e-3
    negative = ScalarField(grid, values)
    with pytest.raises(ValueError, match="effort must be nonnegative"):
        solve_age_structured(negative, model)
    density = solve_age_structured(ScalarField.constant(grid, 0.0), model)
    with pytest.raises(ValueError, match="effort must be nonnegative"):
        solve_eradication_adjoint(negative, density, model)
    with pytest.raises(ValueError, match="effort must be nonnegative"):
        principal_eigenvalue(negative, 1.0)


def test_adjoint_rejects_effort_on_another_grid():
    model = basic_model(Na=4)
    density = solve_age_structured(ScalarField.constant(spatial_grid(N=4), 0.0), model)
    other = ScalarField.constant(spatial_grid(N=6), 0.0)
    with pytest.raises(ValueError, match="not on the effort grid"):
        solve_eradication_adjoint(other, density, model)


def test_positivity_failure_names_highest_failing_age_level(monkeypatch):
    class NegativeLevels(agestruct._ImplicitStepper):
        def step(self, e1, rhs):
            out = super().step(e1, rhs)
            out[[2, 5]] = -1.0  # age levels 3 and 6 of the batch
            return out

    monkeypatch.setattr(agestruct, "_ImplicitStepper", NegativeLevels)
    grid = spatial_grid(N=4)
    with pytest.raises(SolverFailure, match="time level 1, age level 6: min"):
        solve_age_structured(ScalarField.constant(grid, 0.0), basic_model(Na=10))


def test_psi_zero_density_is_penalties_only():
    grid = spatial_grid(N=8)
    model = basic_model(Na=10, y0=0.0)
    m = Mollifier(1.0)
    psi, (population, length_term, area_term) = evaluate_psi(
        circle_levelset(grid), model, (0.3, 0.7), m
    )
    assert population == 0.0
    assert psi == length_term + area_term
    assert area_term > 0.0


def test_psi_far_outside_components():
    grid = spatial_grid(N=8)
    model = basic_model(Na=10)
    m = Mollifier(1.0)
    beta_weight = 0.7
    psi, (population, length_term, area_term) = evaluate_psi(
        uniform_phi(grid, -1000.0), model, (0.3, beta_weight), m
    )
    assert length_term == 0.0
    from regionopt.levelset import heaviside_mollified

    assert area_term == pytest.approx(
        beta_weight * heaviside_mollified(np.array(-1000.0), m), rel=1e-12
    )


def test_more_effort_never_raises_population_term():
    grid = spatial_grid(N=8)
    m = Mollifier(1.0)
    phi = circle_levelset(grid)
    weak = basic_model(Na=10, L=1.0)
    strong = basic_model(Na=10, L=2.0)
    _, parts_weak = evaluate_psi(phi, weak, (0.0, 0.0), m)
    _, parts_strong = evaluate_psi(phi, strong, (0.0, 0.0), m)
    assert parts_strong[0] <= parts_weak[0] + 1e-12


def test_adjoint_terminal_and_age_boundary():
    grid = spatial_grid(N=8)
    model = basic_model(Na=10)
    phi = circle_levelset(grid)
    effort = mollified_effort(phi, model.L, Mollifier(1.0))
    density = solve_age_structured(effort, model)
    dual = solve_eradication_adjoint(effort, density, model)
    assert np.all(dual.values[-1, : model.Na] == 1.0)
    assert np.all(dual.values[:, model.Na] == 0.0)


def test_adjoint_reduces_to_backward_transport():
    grid = spatial_grid(N=4)
    model = basic_model(
        Na=10, fertility=0.0, mortality=0.0, d=0.0, T=0.5, L=1.0
    )
    phi = uniform_phi(grid, -1000.0)
    effort = mollified_effort(phi, model.L, Mollifier(1.0))
    density = solve_age_structured(effort, model)
    dual = solve_eradication_adjoint(effort, density, model)
    steps = model.n_time
    for k in range(steps + 1):
        for level in range(model.Na + 1):
            if level < model.Na - (steps - k):
                assert np.abs(dual.values[k, level] - 1.0).max() <= 1e-3
            else:
                assert np.all(dual.values[k, level] == 0.0)


def test_adjoint_linear_in_terminal_data():
    grid = spatial_grid(N=6)
    model = basic_model(Na=10, fertility=1.5, mortality=0.3)
    phi = circle_levelset(grid)
    m = Mollifier(1.0)
    effort = mollified_effort(phi, model.L, m)
    density = solve_age_structured(effort, model)
    single = solve_eradication_adjoint(effort, density, model, terminal_value=1.0)
    double = solve_eradication_adjoint(effort, density, model, terminal_value=2.0)
    assert np.allclose(double.values, 2.0 * single.values, rtol=1e-12, atol=1e-12)


def test_velocity_variants():
    grid = spatial_grid(N=8)
    model = basic_model(Na=10, L=0.0)
    phi = uniform_phi(grid, 0.5)
    m = Mollifier(1.0)
    effort = mollified_effort(phi, model.L, m)
    density = solve_age_structured(effort, model)
    dual = solve_eradication_adjoint(effort, density, model)
    velocity, weight = eradication_velocity(
        phi, density, dual, model, (0.3, 0.7), "descent"
    )
    assert np.all(velocity.values == -0.7)
    assert weight == 0.3
    velocity, weight = eradication_velocity(
        phi, density, dual, model, (0.3, 0.7), "printed"
    )
    assert np.allclose(velocity.values, 0.7, rtol=0, atol=1e-12)
    assert weight == 0.0
    with pytest.raises(ValueError):
        eradication_velocity(phi, density, dual, model, (0.3, 0.7), "upwind")


def test_loop_trivial_stop_by_tolerance():
    grid = spatial_grid(N=8)
    model = basic_model(Na=10, L=0.0)
    best, trace, _ = optimize_eradication_region(
        circle_levelset(grid), model, (0.0, 0.0), Mollifier(1.0), max_iter=10
    )
    assert len(trace.records) == 1
    assert trace.stop_reason == "J tolerance"


def test_loop_budget_of_one():
    grid = spatial_grid(N=8)
    model = basic_model(Na=10)
    _, trace, _ = optimize_eradication_region(
        circle_levelset(grid), model, (0.1, 0.1), Mollifier(1.0), max_iter=1
    )
    assert len(trace.records) == 1
    assert trace.stop_reason == "iteration budget"


def test_heavy_area_penalty_shrinks_region():
    grid = spatial_grid(N=10)
    model = basic_model(Na=10, T=0.5)
    best, trace, _ = optimize_eradication_region(
        uniform_phi(grid, 1.0), model, (0.0, 5.0), Mollifier(1.0), max_iter=6
    )
    areas = [r.region_area for r in trace.records]
    assert len(areas) >= 2
    assert all(b < a for a, b in zip(areas, areas[1:]))
    psis = trace.costs()
    assert np.all(np.diff(psis) < 0.0)


def test_printed_variant_still_gated_on_decrease():
    grid = spatial_grid(N=8)
    model = basic_model(Na=10, T=0.5)
    _, trace, _ = optimize_eradication_region(
        circle_levelset(grid),
        model,
        (0.1, 0.1),
        Mollifier(1.0),
        max_iter=4,
        sign_variant="printed",
    )
    assert trace.constants["sign_variant"] == "printed"
    psis = trace.costs()
    assert np.all(np.diff(psis) < 0.0)


def test_eradication_trace_csv(tmp_path):
    grid = spatial_grid(N=8)
    model = basic_model(Na=10, T=0.5)
    _, trace, _ = optimize_eradication_region(
        circle_levelset(grid), model, (0.1, 0.1), Mollifier(1.0), max_iter=3
    )
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == list(ERADICATION_TRACE_COLUMNS)
    assert len(rows) == len(trace.records) + 1
    assert rows[-1][-1] == trace.stop_reason
    assert all(row[-2] == trace.constants["sign_variant"] for row in rows[1:])
    for row, record in zip(rows[1:], trace.records):
        assert float(row[1]) == record.cost


def test_best_state_is_the_density_of_the_best_iterate():
    grid = spatial_grid(N=8)
    model = basic_model(Na=10, T=0.5)
    m = Mollifier(1.0)
    best, trace, density = optimize_eradication_region(
        circle_levelset(grid), model, (0.1, 0.1), m, max_iter=3
    )
    assert len(trace.records) >= 2
    fresh = solve_age_structured(mollified_effort(best, model.L, m), model)
    assert np.array_equal(density.values, fresh.values)
    psi, terms = evaluate_psi(best, model, (0.1, 0.1), m)
    assert (psi, terms) == (trace.best().cost, trace.best().terms)
