"""Tests for the age-structured eradicability and region-design module."""

import csv
import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.sparse.linalg import eigsh

from regionopt import agestruct, shapeopt
from regionopt.agestruct import (
    AgeDensityField,
    AgeModelParams,
    age_trapezoid_weights,
    eradicability_verdict,
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
from regionopt.errors import ConvergenceFailure, FieldError, SolverFailure
from regionopt.grid import GridSpec, ScalarField
from regionopt.levelset import LevelSetFunction, Mollifier, circle_levelset
from regionopt.pde import ROUNDOFF, ControlProblemParams, _ImplicitStepper, dct_matrix
from regionopt.shapeopt import Convergence

from neumann_oracle import neumann_operator

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


def full_history_dual(density):
    """The eradication dual at every time level, stored whole: the
    reference that the streamed pairing is checked against.  Each level
    comes from the one after it by the implicit step, with the same
    arithmetic as solve_eradication_adjoint."""
    model, y, u = density.model, density.values, density.effort.values
    dt, slope = model.da, model.logistic_slope
    mu, beta = model.mortality_samples, model.fertility_samples
    w = age_trapezoid_weights(model.Na, dt)
    stepper = _ImplicitStepper(density.grid.N, model.d * dt / density.grid.h**2)
    r = np.zeros_like(y)
    r[-1, : model.Na] = 1.0
    for k in range(y.shape[0] - 1, 0, -1):
        coupling = np.tensordot(w, r[k] * y[k], axes=(0, 0))
        pressure = np.tensordot(w, y[k - 1], axes=(0, 0))
        source = dt * (-slope * coupling + np.multiply.outer(beta, r[k, 0]))
        e1 = dt * (mu[:-1, None, None] + slope * pressure + u)
        r[k - 1, :-1] = stepper.step(e1, r[k, 1:] + source[:-1])
    return r


def probed_dual(density):
    """The dual levels r[k, a] that solve_eradication_adjoint pairs with
    the density, read off the pairing itself.  Without the logistic term
    the dual does not depend on the density, so a density of 1 at (k, a)
    and 0 elsewhere pairs to w_k w_a r[k, a]."""
    model = density.model
    assert model.logistic_slope == 0.0
    time_w = age_trapezoid_weights(density.values.shape[0] - 1, model.da)
    age_w = age_trapezoid_weights(model.Na, model.da)
    r = np.empty_like(density.values)
    for k, a in np.ndindex(*r.shape[:2]):
        probe = np.zeros_like(density.values)
        probe[k, a] = 1.0
        paired = solve_eradication_adjoint(AgeDensityField(model, density.effort, probe))
        r[k, a] = paired.values / (time_w[k] * age_w[a])
    return r


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


def test_zero_fertility_root_is_minus_infinity():
    # No births: every cohort ages out past A, whatever the effort.
    assert lotka_root(basic_model(fertility=0.0)) == -np.inf


def test_births_only_at_age_zero_root_is_minus_infinity():
    # Births b_0 y(0) alone with b_0 < 1 force y(0) = 0: nothing renews.
    fertility = np.zeros(21)
    fertility[0] = 1.0
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        assert lotka_root(basic_model(fertility=fertility)) == -np.inf


def test_ill_posed_renewal_step_has_no_root():
    # beta(0) da / 2 = 12.5 >= 1: the left-hand side never falls to 1.
    with pytest.raises(ValueError, match="renewal step is ill-posed"):
        lotka_root(basic_model(Na=2, fertility=50.0))


def test_root_far_below_replacement_is_found_without_overflow():
    # The root is near -26, and the bracket's far end near -1800 puts
    # exp(-r a) far past the double range: the sum must not overflow there.
    model = basic_model(Na=80, fertility=1.0e-10)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        root = lotka_root(model)
    assert -27.0 < root < -25.0
    assert abs(discrete_lotka_lhs(model, root) - 1.0) <= 1e-13


@st.composite
def renewal_models(draw):
    """Age models with beta(0) da / 2 < 1 and some fertility past age 0.

    Positive fertility stays at least 0.01, so at the root every positive
    term w beta exp(-C - r a) is at most 1 and its exponential stays finite.
    """
    Na = draw(st.integers(2, 80))
    A = draw(st.floats(0.1, 5.0))
    rates = st.one_of(st.just(0.0), st.floats(0.01, 3.0))
    fertility = np.array(draw(st.lists(rates, min_size=Na + 1, max_size=Na + 1)))
    mortality = np.array(
        draw(st.lists(st.floats(0.0, 2.0), min_size=Na + 1, max_size=Na + 1))
    )
    assume(fertility[0] * (A / Na) / 2.0 < 1.0 and np.any(fertility[1:] > 0.0))
    return basic_model(A=A, Na=Na, fertility=fertility, mortality=mortality, T=A)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(renewal_models())
def test_root_solves_the_discrete_equation_to_rounding(model):
    root = lotka_root(model)
    da = model.da
    mu = model.mortality_samples
    cumulative = np.concatenate(([0.0], np.cumsum(0.5 * (mu[:-1] + mu[1:]) * da)))
    births = model.fertility_samples > 0.0
    terms = (age_trapezoid_weights(model.Na, da) * model.fertility_samples)[births]
    lhs = np.sum(terms * np.exp(-cumulative[births] - root * model.ages[births]))
    assert abs(lhs - 1.0) <= 1e-13


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
            neumann_operator(sharp_effort(phi, 1.0), 1.0).toarray()
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
            matrix = neumann_operator(sharp_effort(phi, L), d).toarray()
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
    interior = effort.values[1:-1, 1:-1]
    expected = np.linalg.eigvalsh(neumann_operator(effort, d).toarray())[0]
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
    matrix = neumann_operator(sharp_effort(phi, L), d)
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
    raise_L=st.floats(0.0, 50.0),
    grow=st.floats(0.0, 1.5),
)
def test_eigenvalue_bounded_and_monotone_on_random_fields(
    N, seed, d, L, raise_L, grow
):
    grid = spatial_grid(N=N)
    values = np.random.default_rng(seed).standard_normal((N + 1, N + 1))
    inner = LevelSetFunction(ScalarField(grid, values))
    outer = LevelSetFunction(ScalarField(grid, values + grow))
    small = principal_eigenvalue(sharp_effort(inner, L), d)
    large = principal_eigenvalue(sharp_effort(outer, L), d)
    tol = 1e-8 * max(1.0, L)
    assert -tol <= small <= large + tol
    assert large <= L + tol
    # Nondecreasing in the effort bound too: L2 >= L on the same region.
    L2 = L + raise_L
    harder = principal_eigenvalue(sharp_effort(inner, L2), d)
    assert small <= harder + 1e-8 * max(1.0, L2)
    assert harder <= L2 + 1e-8 * max(1.0, L2)


def test_eigen_step_work_and_in_place_orthonormalization(monkeypatch):
    # A solve of k steps makes k preconditionings of one block and its
    # products one block at a time: one for x, then one per column, the
    # x and T r columns at the first step and the update too after it.
    # It orthonormalizes them in place: no np.linalg.qr, no column_stack.
    # The preconditioned block is single precision; everything else is not.
    grid = spatial_grid(N=16)
    effort = sharp_effort(rectangle_phi(grid, 0.1, 0.5, 0.3, 0.8), 2.0)
    expected = np.linalg.eigvalsh(neumann_operator(effort, 1.0).toarray())[0]
    blocks = {"precondition": [], "apply": []}
    dtypes = {"precondition": set(), "apply": set()}
    for name, counts in blocks.items():
        method = getattr(_ImplicitStepper, name)

        def recorded(
            self, first, x, _method=method, _counts=counts, _seen=dtypes[name], **out
        ):
            _counts.append(x.shape)
            _seen.add((first.dtype, x.dtype))
            return _method(self, first, x, **out)

        monkeypatch.setattr(_ImplicitStepper, name, recorded)

    def forbidden(*args, **kwargs):
        raise AssertionError("the eigen solver allocates its basis once")

    monkeypatch.setattr(np.linalg, "qr", forbidden)
    monkeypatch.setattr(np, "column_stack", forbidden)
    produced = principal_eigenvalue(effort, 1.0)
    steps = len(blocks["precondition"])
    assert steps >= 2
    one_block = (grid.N - 1, grid.N - 1)
    assert blocks["precondition"] == [one_block] * steps
    assert blocks["apply"] == [one_block] * (1 + 2 + 3 * (steps - 1))
    assert dtypes["precondition"] == {(np.dtype(np.float32), np.dtype(np.float32))}
    assert dtypes["apply"] == {(np.dtype(np.float64), np.dtype(np.float64))}
    assert abs(produced - expected) <= 1e-8 * max(1.0, abs(expected))


def test_eigen_stopping_test_is_floored_at_round_off():
    # With d / h^2 = 1e9 one product rounds off by about eps * 8e9 = 2e-6,
    # far above EIGEN_TOL * lambda, which the solver then cannot meet.
    grid = spatial_grid(N=32)
    phi = LevelSetFunction.from_function(
        grid, lambda x1, x2: 0.3 - np.hypot(x1 - 0.3, x2 - 0.6)
    )
    effort = sharp_effort(phi, 4.0)
    d = 1.0e6
    expected = eigsh(
        neumann_operator(effort, d), k=1, sigma=0.0, which="LM",
        return_eigenvectors=False,
    )[0]
    produced = principal_eigenvalue(effort, d)
    row_sum = 8.0 * d / grid.h**2 + 4.0
    floor = ROUNDOFF * np.finfo(float).eps * row_sum
    assert floor > 1e2 * agestruct.EIGEN_TOL * expected
    # A unit vector with residual norm at most the floor lies that close
    # to an eigenvalue of the symmetric operator.
    assert abs(produced - expected) <= floor


def test_eigen_preconditioner_casts_without_overflow():
    # d / h^2 = 1e38 puts the preconditioner's spectrum past the float32
    # range; the solver scales it before the cast.
    grid = spatial_grid(N=32)
    effort = sharp_effort(rectangle_phi(grid, 0.1, 0.5, 0.3, 0.8), 1.0e36)
    with np.errstate(over="raise"):
        produced = principal_eigenvalue(effort, 1.0e35)
    assert 0.0 < produced < 1.0e36


def test_eigen_iteration_budget_raises_convergence_failure(monkeypatch):
    monkeypatch.setattr(agestruct, "EIGEN_MAX_ITER", 1)
    grid = spatial_grid(N=10)
    with pytest.raises(ConvergenceFailure, match="after 1 steps"):
        principal_eigenvalue(sharp_effort(circle_levelset(grid), 2.0), 1.0)


def test_eigen_non_finite_operator_is_solver_failure():
    grid = spatial_grid(N=10)
    phi = circle_levelset(grid)
    with pytest.raises(SolverFailure, match="non-finite"):
        principal_eigenvalue(sharp_effort(phi, 2.0), np.nan)


def test_eigen_failed_orthonormalization_is_solver_failure(monkeypatch):
    # A disc effort, so the constant start vector is no eigenvector and the
    # first step reaches the QR factorization.
    class FailingLapack:
        @staticmethod
        def dgeqrf(*args):
            return {"info": -7}

    monkeypatch.setattr(agestruct, "lapack_lite", FailingLapack)
    grid = spatial_grid(N=10)
    message = "eigen Rayleigh-Ritz step failed: LAPACK info -7"
    with pytest.raises(SolverFailure, match=f"^{message}$"):
        principal_eigenvalue(sharp_effort(circle_levelset(grid), 2.0), 1.0)


def test_eigen_failed_projection_is_solver_failure(monkeypatch):
    def failing(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing)
    grid = spatial_grid(N=10)
    message = "eigen Rayleigh-Ritz step failed: Eigenvalues did not converge"
    with pytest.raises(SolverFailure, match=f"^{message}$") as excinfo:
        principal_eigenvalue(sharp_effort(circle_levelset(grid), 2.0), 1.0)
    assert isinstance(excinfo.value.__cause__, np.linalg.LinAlgError)


def test_eigen_solve_is_pure():
    # The solver writes only into its own buffers: two solves on one
    # effort agree to the bit, the effort (whose interior it reads through
    # a view) keeps every bit, and the shared DCT matrix stays read-only.
    grid = spatial_grid(N=24)
    effort = sharp_effort(circle_levelset(grid), 20.0)
    before = effort.values.copy()
    first = principal_eigenvalue(effort, 1.0)
    q = dct_matrix(grid.N - 1, np.dtype(np.float32))  # the one it preconditioned with
    second = principal_eigenvalue(effort, 1.0)
    assert first.hex() == second.hex()
    assert np.array_equal(effort.values.view(np.uint64), before.view(np.uint64))
    assert dct_matrix(grid.N - 1, np.dtype(np.float32)) is q
    assert not q.flags.writeable


def test_eigen_working_set_is_fixed():
    # The solver allocates its working set once per solve, so on a
    # sweep-like two-disc region at N = 128 (L = 20, d = 1) its peak stays
    # within 14 vectors of (N-1)^2 doubles, about 13.1 here.
    grid = spatial_grid(N=128)
    phi = LevelSetFunction.from_function(
        grid,
        lambda x1, x2: np.maximum(
            0.2 - np.hypot(x1 - 0.35, x2 - 0.4), 0.15 - np.hypot(x1 - 0.7, x2 - 0.65)
        ),
    )
    effort = sharp_effort(phi, 20.0)
    principal_eigenvalue(effort, 1.0)  # warm the DCT cache
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        principal_eigenvalue(effort, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base <= 14 * (grid.N - 1) ** 2 * 8


def test_verdict_builds_one_stepper(monkeypatch):
    # The band's round-off floor is built from pde.lap_diagonal, so a
    # verdict builds the stepper of its eigen solve and no other.
    built = []

    class Counted(_ImplicitStepper):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(agestruct, "_ImplicitStepper", Counted)
    grid = spatial_grid(N=16)
    report = eradicability_verdict(circle_levelset(grid), basic_model(L=4.0))
    assert report.verdict == "NotEradicable"
    assert len(built) == 1


@pytest.mark.parametrize("radius, verdict", [(0.25, "NotEradicable"), (0.45, "Eradicable")])
def test_march_grows_at_minus_the_margin(radius, verdict):
    # Without the logistic term the march under the verdict's effort is
    # linear, so its total population grows like exp(-margin t) once the
    # principal mode dominates, up to the O(da) error of the age march.
    grid = spatial_grid(N=20)
    phi = LevelSetFunction.from_function(
        grid, lambda x1, x2: radius - np.hypot(x1 - 0.5, x2 - 0.5)
    )
    gaps = []
    for Na in (20, 40):
        model = basic_model(Na=Na, d=0.1, L=4.0, T=6.0)
        report = eradicability_verdict(phi, model)
        assert report.verdict == verdict
        density = solve_age_structured(sharp_effort(phi, model.L), model)
        times = np.arange(model.n_time + 1) * model.da
        late = times >= 3.0
        rate = np.polyfit(times[late], np.log(total_population(density)[late]), 1)[0]
        assert rate * report.margin < 0.0
        gaps.append(abs(rate + report.margin))
    assert 0.4 < gaps[1] / gaps[0] < 0.6


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


@pytest.mark.parametrize("N, d", [(16, 1.0e20), (16, 1.0e35), (128, 1.0e35)])
def test_verdict_within_round_off_is_indeterminate(N, d):
    # With d / h^2 this large the effort is rounded out of the operator's
    # main diagonal, and lambda_1 carries no information about the region:
    # -7.7e6, 4.6e21 and 0.0 here, each inside the round-off band.
    grid = spatial_grid(N=N)
    phi = LevelSetFunction.from_function(
        grid, lambda x1, x2: 0.3 - np.hypot(x1 - 0.5, x2 - 0.5)
    )
    model = basic_model(d=d, L=4.0)
    report = eradicability_verdict(phi, model)
    bound = agestruct.eigen_roundoff(sharp_effort(phi, model.L), d)
    row_sum = 8.0 * d / grid.h**2 + 4.0
    assert bound == pytest.approx(
        ROUNDOFF * np.finfo(float).eps * row_sum, rel=1e-12
    )
    assert report.tolerance == bound
    assert abs(report.margin) <= bound
    assert report.verdict == "Indeterminate"


def test_verdict_band_is_the_tolerance_at_moderate_diffusion():
    grid = spatial_grid(N=128)
    phi = LevelSetFunction.from_function(
        grid, lambda x1, x2: 0.3 - np.hypot(x1 - 0.5, x2 - 0.5)
    )
    effort = sharp_effort(phi, 4.0)
    assert agestruct.eigen_roundoff(effort, 1.0) < 1e-9
    report = eradicability_verdict(phi, basic_model(L=4.0))
    assert report.tolerance == agestruct.VERDICT_TOLERANCE
    assert report.verdict == "NotEradicable"


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
        basic_model(Na=1)
    with pytest.raises(ValueError):
        basic_model(fertility=-1.0)
    with pytest.raises(ValueError):
        basic_model(d=-0.5)
    with pytest.raises(ValueError):
        basic_model(mortality=lambda a: a - 10.0)
    # beta(0) da / 2 = 12.5 >= 1: no renewal root and no renewal step, so
    # the model is rejected when it is built.
    with pytest.raises(ValueError, match="renewal step is ill-posed"):
        basic_model(Na=2, fertility=50.0)
    # The horizon is checked by the march that uses it: the verdict has none.
    off_horizon = basic_model(T=0.93)
    with pytest.raises(ValueError, match="integer multiple of the age step"):
        solve_age_structured(ScalarField.constant(spatial_grid(N=4), 0.0), off_horizon)


@pytest.mark.parametrize(
    "overrides, field, complaint",
    [
        (
            {"fertility": np.ones(5)},
            "fertility",
            "samples have shape (5,), expected (21,)",
        ),
        (
            {"fertility": lambda a: np.ones(5)},
            "fertility",
            "samples have shape (5,), expected (21,)",
        ),
        (
            {"mortality": np.full(21, np.nan)},
            "mortality",
            "samples must be finite on the age grid",
        ),
        ({"Na": 2.5}, "Na", "must be an integer, got 2.5"),
        ({"T": 0.0}, "T", "must be positive, got 0.0"),
        ({"y0": -1.0}, "y0", "must be nonnegative"),
        ({"alpha": -0.1}, "alpha", "must be nonnegative, got -0.1"),
        ({"beta": np.nan}, "beta", "must be nonnegative, got nan"),
        ({"d": np.inf}, "d", "must be finite, got inf"),
        ({"L": np.inf}, "L", "must be finite, got inf"),
        ({"T": np.inf}, "T", "must be finite, got inf"),
        ({"logistic_slope": np.inf}, "logistic_slope", "must be finite, got inf"),
        ({"alpha": np.inf}, "alpha", "must be finite, got inf"),
        ({"beta": np.inf}, "beta", "must be finite, got inf"),
        ({"d": -np.inf}, "d", "must be nonnegative, got -inf"),
        ({"T": -np.inf}, "T", "must be positive, got -inf"),
        ({"Na": np.inf}, "Na", "must be an integer, got inf"),
        ({"Na": -np.inf}, "Na", "must be an integer, got -inf"),
        ({"Na": np.nan}, "Na", "must be an integer, got nan"),
        ({"y0": np.inf}, "y0", "must be finite, got inf"),
        ({"y0": np.nan}, "y0", "must be nonnegative"),
        ({"A": np.inf}, "A", "must be finite, got inf"),
        ({"A": np.nan}, "A", "must be positive, got nan"),
    ],
    ids=[
        "sample-shape",
        "callable-sample-shape",
        "non-finite-samples",
        "fractional-Na",
        "T",
        "y0",
        "alpha",
        "beta",
        "d-inf",
        "L-inf",
        "T-inf",
        "slope-inf",
        "alpha-inf",
        "beta-inf",
        "d-minus-inf",
        "T-minus-inf",
        "Na-inf",
        "Na-minus-inf",
        "Na-nan",
        "y0-inf",
        "y0-nan",
        "A-inf",
        "A-nan",
    ],
)
def test_model_rejection_names_its_field(overrides, field, complaint):
    with pytest.raises(FieldError) as excinfo:
        basic_model(**overrides)
    assert (excinfo.value.field, excinfo.value.complaint) == (field, complaint)


@pytest.mark.parametrize(
    "y0, message",
    [
        (lambda x1, x2, a: np.full_like(x1, np.nan), "y0 must be finite"),
        (lambda x1, x2, a: x1 - 0.5, "y0 must be nonnegative"),
    ],
    ids=["non-finite", "negative"],
)
def test_initial_density_checks_a_callable_y0(y0, message):
    # A callable y0 is sampled only on a spatial grid, so the march checks it.
    model = basic_model(Na=4, y0=y0)
    with pytest.raises(ValueError, match=f"^{message}$"):
        model.initial_density(spatial_grid(N=4))


@pytest.mark.parametrize(
    "name, value",
    [
        ("fertility_samples", np.full(21, 50.0)),
        ("fertility", 50.0),
        ("Na", 1),
        ("alpha", -1.0),
    ],
)
def test_model_fields_cannot_be_reassigned(name, value):
    # The checks run once, in the constructor.  Fertility samples of 50
    # set afterwards (beta(0) da / 2 = 1.25 >= 1) would give lotka_root a
    # NaN bracket that its bisection never leaves, so every field is
    # frozen, and a changed model is a new one, checked again.
    model = basic_model()
    root = lotka_root(model)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(model, name, value)
    assert lotka_root(model) == root
    if name != "fertility_samples":
        with pytest.raises(FieldError, match=f"^{name} "):
            dataclasses.replace(model, **{name: value})


def test_region_design_needs_a_mollifier():
    grid = spatial_grid(N=4)
    model = basic_model(Na=4)
    with pytest.raises(ValueError, match="needs a mollifier"):
        evaluate_psi(circle_levelset(grid), model)
    with pytest.raises(ValueError, match="needs a mollifier"):
        optimize_eradication_region(circle_levelset(grid), model)
    # The harvest solvers switch on H_eps(1 + p) with or without a
    # design, so the harvest model rejects a missing mollifier when built.
    params = ControlProblemParams(
        d=1.0,
        a=ScalarField.constant(grid, 1.0),
        y0=ScalarField.constant(grid, 1.0),
        L=1.0,
        alpha=0.0,
        beta=0.0,
        mollifier=Mollifier(1.0),
    )
    with pytest.raises(FieldError, match="^mollifier is required") as excinfo:
        dataclasses.replace(params, mollifier=None)
    assert excinfo.value.field == "mollifier"


def test_model_rejects_age_step_that_underflows():
    # A / Na rounds to 0: no age step, so no march and no renewal root.
    with pytest.raises(FieldError, match="age step A / Na = 0.0") as excinfo:
        basic_model(A=5e-324, Na=10)
    assert excinfo.value.field == "A"


def test_model_samples_are_read_only_copies():
    # The constructor checks the samples once (beta(0) da / 2 < 1 among
    # them), so they can change neither in place nor through the caller.
    fertility = np.full(21, 2.0)
    model = basic_model(fertility=fertility)
    fertility[0] = 50.0
    assert model.fertility_samples[0] == 2.0
    with pytest.raises(ValueError, match="read-only"):
        model.fertility_samples[0] = 50.0


def test_negative_effort_rejected():
    grid = spatial_grid(N=4)
    model = basic_model(Na=4)
    values = np.zeros((5, 5))
    values[2, 3] = -1.0e-3
    negative = ScalarField(grid, values)
    with pytest.raises(ValueError, match="effort must be nonnegative"):
        solve_age_structured(negative, model)
    with pytest.raises(ValueError, match="effort must be nonnegative"):
        principal_eigenvalue(negative, 1.0)


def test_density_values_must_match_its_model_and_effort():
    # The values must have Na + 1 ages and the effort's spatial grid.
    model = basic_model(Na=4)
    density = solve_age_structured(ScalarField.constant(spatial_grid(N=4), 0.0), model)
    other = ScalarField.constant(spatial_grid(N=6), 0.0)
    with pytest.raises(ValueError, match="values have shape"):
        AgeDensityField(model, other, density.values)
    with pytest.raises(ValueError, match="values have shape"):
        AgeDensityField(basic_model(Na=5), density.effort, density.values)
    assert AgeDensityField(model, density.effort, density.values[-1:]).grid == density.grid


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
    model = basic_model(Na=10, y0=0.0, alpha=0.3, beta=0.7, mollifier=Mollifier(1.0))
    psi, (population, length_term, area_term) = evaluate_psi(circle_levelset(grid), model)
    assert population == 0.0
    assert psi == length_term + area_term
    assert area_term > 0.0


def test_psi_far_outside_components():
    grid = spatial_grid(N=8)
    m = Mollifier(1.0)
    beta_weight = 0.7
    model = basic_model(Na=10, alpha=0.3, beta=beta_weight, mollifier=m)
    psi, (population, length_term, area_term) = evaluate_psi(
        uniform_phi(grid, -1000.0), model
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
    weak = basic_model(Na=10, L=1.0, mollifier=m)
    strong = basic_model(Na=10, L=2.0, mollifier=m)
    _, parts_weak = evaluate_psi(phi, weak)
    _, parts_strong = evaluate_psi(phi, strong)
    assert parts_strong[0] <= parts_weak[0] + 1e-12


def test_adjoint_terminal_and_age_boundary():
    grid = spatial_grid(N=8)
    model = basic_model(Na=10)
    phi = circle_levelset(grid)
    effort = mollified_effort(phi, model.L, Mollifier(1.0))
    density = solve_age_structured(effort, model)
    dual = probed_dual(density)
    assert np.all(dual[-1, : model.Na] == 1.0)
    assert np.all(dual[:, model.Na] == 0.0)


def test_adjoint_reduces_to_backward_transport():
    grid = spatial_grid(N=4)
    model = basic_model(
        Na=10, fertility=0.0, mortality=0.0, d=0.0, T=0.5, L=1.0
    )
    phi = uniform_phi(grid, -1000.0)
    effort = mollified_effort(phi, model.L, Mollifier(1.0))
    density = solve_age_structured(effort, model)
    dual = probed_dual(density)
    steps = model.n_time
    for k in range(steps + 1):
        for level in range(model.Na + 1):
            if level < model.Na - (steps - k):
                assert np.abs(dual[k, level] - 1.0).max() <= 1e-3
            else:
                assert np.all(dual[k, level] == 0.0)


def test_dual_pairing_is_linear_in_density_without_logistic_term():
    # Without the logistic term the dual does not read the density, so its
    # pairing with the density is linear in it (probed_dual relies on it).
    grid = spatial_grid(N=6)
    model = basic_model(Na=10, fertility=1.5, mortality=0.3)
    effort = mollified_effort(circle_levelset(grid), model.L, Mollifier(1.0))
    density = solve_age_structured(effort, model)
    other = np.random.default_rng(17).uniform(0.0, 1.0, density.values.shape)

    def paired(values):
        return solve_eradication_adjoint(AgeDensityField(model, effort, values)).values

    single = paired(density.values)
    assert np.array_equal(paired(2.0 * density.values), 2.0 * single)
    summed = paired(density.values + other)
    assert np.allclose(summed, single + paired(other), rtol=1e-12, atol=0.0)


def test_velocity_variants():
    grid = spatial_grid(N=8)
    model = basic_model(Na=10, L=0.0)
    phi = uniform_phi(grid, 0.5)
    m = Mollifier(1.0)
    effort = mollified_effort(phi, model.L, m)
    density = solve_age_structured(effort, model)
    integral = solve_eradication_adjoint(density)
    assert integral.grid == grid
    assert np.all(integral.values > 0.0)


@pytest.mark.parametrize("slope", [0.0, 0.8])
def test_streamed_integral_matches_full_history(slope):
    # The reference stores every level of the dual and integrates r * y
    # over time, then age, in one product.
    grid = spatial_grid(N=8)
    model = basic_model(Na=10, T=1.5, fertility=1.5, mortality=0.3, logistic_slope=slope)
    phi = circle_levelset(grid)
    m = Mollifier(1.0)
    effort = mollified_effort(phi, model.L, m)
    density = solve_age_structured(effort, model)
    dual = full_history_dual(density)
    age_w = age_trapezoid_weights(model.Na, model.da)
    time_w = age_trapezoid_weights(model.n_time, model.da)
    product = dual * density.values
    expected = np.tensordot(age_w, np.tensordot(time_w, product, axes=(0, 0)), axes=(0, 0))
    integral = solve_eradication_adjoint(density)
    assert np.abs(expected).min() > 0.0
    assert np.allclose(integral.values, expected, rtol=1e-12, atol=0.0)


def test_dual_streams_in_two_levels():
    # Beyond its inputs, the paired dual holds a few age-space levels,
    # not a space-time-age array: at 51 time levels one level is 2% of
    # the density.
    grid = spatial_grid(N=8)
    model = basic_model(Na=10, T=5.0, fertility=1.5, mortality=0.3, logistic_slope=0.5)
    effort = mollified_effort(circle_levelset(grid), model.L, Mollifier(1.0))
    density = solve_age_structured(effort, model)
    solve_eradication_adjoint(density)  # warm the DCT cache
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        solve_eradication_adjoint(density)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base < 0.5 * density.values.nbytes


def test_descent_builds_one_effort_per_forward_march(monkeypatch):
    # The direction reads the effort from the density it was marched
    # under, so the only efforts built are those of the forward marches.
    counts = {"mollified_effort": 0, "solve_age_structured": 0}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in counts:
        monkeypatch.setattr(agestruct, name, counted(name, getattr(agestruct, name)))
    grid = spatial_grid(N=8)
    _, trace, _ = optimize_eradication_region(
        circle_levelset(grid),
        basic_model(Na=10, T=0.5, alpha=0.1, beta=0.1, mollifier=Mollifier(1.0)),
        Convergence(max_iter=3),
    )
    assert len(trace.records) >= 2
    assert counts["mollified_effort"] == counts["solve_age_structured"]


def test_loop_trivial_stop_by_tolerance():
    grid = spatial_grid(N=8)
    model = basic_model(Na=10, L=0.0, mollifier=Mollifier(1.0))
    best, trace, _ = optimize_eradication_region(
        circle_levelset(grid),
        model,
        Convergence(max_iter=10),
    )
    assert len(trace.records) == 1
    assert trace.stop_reason == "J tolerance"


def test_loop_budget_of_one():
    grid = spatial_grid(N=8)
    model = basic_model(Na=10, alpha=0.1, beta=0.1, mollifier=Mollifier(1.0))
    _, trace, _ = optimize_eradication_region(
        circle_levelset(grid),
        model,
        Convergence(max_iter=1),
    )
    assert len(trace.records) == 1
    assert trace.stop_reason == "iteration budget"


def test_heavy_area_penalty_shrinks_region():
    grid = spatial_grid(N=10)
    model = basic_model(Na=10, T=0.5, beta=5.0, mollifier=Mollifier(1.0))
    best, trace, _ = optimize_eradication_region(
        uniform_phi(grid, 1.0),
        model,
        Convergence(max_iter=6),
    )
    areas = [r.region_area for r in trace.records]
    assert len(areas) >= 2
    assert all(b < a for a, b in zip(areas, areas[1:]))
    psis = trace.costs()
    assert np.all(np.diff(psis) < 0.0)


def test_eradication_trace_csv(tmp_path):
    grid = spatial_grid(N=8)
    model = basic_model(Na=10, T=0.5, alpha=0.1, beta=0.1, mollifier=Mollifier(1.0))
    _, trace, _ = optimize_eradication_region(
        circle_levelset(grid),
        model,
        Convergence(max_iter=3),
    )
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert path.read_bytes().startswith(
        b"n,psi,population_term,length_term,area_term,region_area,region_length,phi_change,theta,stop_reason\r\n"
    )
    assert len(rows) == len(trace.records) + 1
    assert rows[-1][-1] == trace.stop_reason
    for row, record in zip(rows[1:], trace.records):
        assert float(row[1]) == record.cost


def test_best_state_is_the_density_of_the_best_iterate():
    grid = spatial_grid(N=8)
    m = Mollifier(1.0)
    model = basic_model(Na=10, T=0.5, alpha=0.1, beta=0.1, mollifier=m)
    best, trace, density = optimize_eradication_region(
        circle_levelset(grid), model, Convergence(max_iter=3)
    )
    assert len(trace.records) >= 2
    fresh = solve_age_structured(mollified_effort(best, model.L, m), model)
    assert np.array_equal(density.values, fresh.values)
    psi, terms = evaluate_psi(best, model)
    assert (psi, terms) == (trace.best().cost, trace.best().terms)


@pytest.mark.parametrize("step", ["halving", "paper"])
def test_descent_holds_one_density_at_a_time(step):
    # An iterate's density is released once its direction is formed, so
    # each trial's march is the only density alive: the peak is one
    # density plus the dual's few levels, not the accepted iterate's
    # density beside the trial's (about 2.25 densities).
    grid = spatial_grid(N=12)
    m = Mollifier(1.0)
    model = basic_model(T=2.0, alpha=0.1, beta=0.1, mollifier=m)
    phi0 = circle_levelset(grid)
    density = solve_age_structured(mollified_effort(phi0, model.L, m), model)
    nbytes = density.values.nbytes  # the march above warms the DCT cache
    del density
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _, trace, _ = optimize_eradication_region(
            phi0, model, Convergence(max_iter=4, step=step)
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(trace.records) == 4
    assert peak - base <= 1.6 * nbytes


@pytest.mark.parametrize("step", ["halving", "paper"])
def test_descent_ending_on_an_increase_returns_the_best_density(step):
    # At theta0 = 100 the paper run takes an increasing step and stops on
    # it; the halving run stops on "J increase" only when every halving
    # of a step increases Psi.  Either way the best iterate's density was
    # released with its direction, so it is marched once more, to the
    # same bits.
    grid = spatial_grid(N=8)
    m = Mollifier(1.0)
    model = basic_model(Na=10, T=0.5, beta=0.5, mollifier=m)
    convergence = Convergence(max_iter=20, theta0=100.0, eps1=1.0e-9, step=step)
    best, trace, density = optimize_eradication_region(
        circle_levelset(grid), model, convergence
    )
    assert trace.stop_reason == "J increase"
    if step == "paper":
        assert trace.best() is not trace.records[-1]
    fresh = solve_age_structured(mollified_effort(best, model.L, m), model)
    assert np.array_equal(density.values, fresh.values)
    assert np.array_equal(density.effort.values, fresh.effort.values)


def test_halving_descent_on_budget_marches_once_per_evaluated_phi(monkeypatch):
    # Each evaluated phi (the start and each trial step, one evolve_phi
    # each) is marched once; a run whose last iterate is its best is
    # never re-measured.
    counts = {"solve_age_structured": 0, "evolve_phi": 0}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        agestruct, "solve_age_structured", counted("solve_age_structured", solve_age_structured)
    )
    monkeypatch.setattr(shapeopt, "evolve_phi", counted("evolve_phi", shapeopt.evolve_phi))
    grid = spatial_grid(N=8)
    _, trace, _ = optimize_eradication_region(
        circle_levelset(grid),
        basic_model(Na=10, T=0.5, alpha=0.1, beta=0.1, mollifier=Mollifier(1.0)),
        Convergence(max_iter=4),
    )
    assert trace.stop_reason == "iteration budget"
    assert counts["evolve_phi"] >= len(trace.records) - 1 == 3
    assert counts["solve_age_structured"] == 1 + counts["evolve_phi"]
