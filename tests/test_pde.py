"""Tests for the implicit solvers behind the harvested diffusion model.

The step solver (DCT-preconditioned conjugate gradients on the
five-point stencil) is checked against a dense Gaussian elimination
oracle implemented here, and the stencil and the interior-operator
assembly against an independent node-by-node construction from the
neighbor-count rule.
Spatially uniform problems reduce every solver to a scalar recurrence
with a known closed form, which pins the time stepping exactly.
"""

import numpy as np
import pytest

from regionopt.errors import SolverFailure
from regionopt.grid import (
    GridSpec,
    ScalarField,
    SpaceTimeField,
    simpson_integral_2d,
)
from regionopt.levelset import (
    LevelSetFunction,
    Mollifier,
    circle_levelset,
    delta_mollified,
    heaviside_mollified,
)
from regionopt import pde
from regionopt.pde import (
    ControlProblemParams,
    _ImplicitStepper,
    _complete_with_ghost,
    bang_bang_control,
    interior_operator,
    linear_solve,
    solve_adjoint,
    solve_forward,
    solve_sensitivity,
)

GROWTH_RATE = 3.0
FAR_INSIDE = 1000.0
FAR_OUTSIDE = -1000.0


def gauss_solve(matrix, rhs):
    """Dense Gaussian elimination with partial pivoting (oracle)."""
    a = np.array(matrix, dtype=float)
    b = np.array(rhs, dtype=float)
    n = b.size
    for col in range(n):
        piv = col + int(np.argmax(np.abs(a[col:, col])))
        if abs(a[piv, col]) == 0.0:
            raise ZeroDivisionError("singular matrix in oracle")
        if piv != col:
            a[[col, piv]] = a[[piv, col]]
            b[[col, piv]] = b[[piv, col]]
        for row in range(col + 1, n):
            f = a[row, col] / a[col, col]
            a[row, col:] -= f * a[col, col:]
            b[row] -= f * b[col]
    x = np.zeros(n)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1 :] @ x[row + 1 :]) / a[row, row]
    return x


def dense_from_neighbor_rule(N, lam, e1):
    """Step matrix built entry by entry from the interior-neighbor count.

    Independent of the stencil and the assembly: nodes are visited in
    grid order and each row gets 1 + (number of interior neighbors) * lam
    + E1 on the diagonal and -lam per neighbor.
    """
    n1 = N - 1
    a = np.zeros((n1 * n1, n1 * n1))
    for i in range(2, N + 1):
        for j in range(2, N + 1):
            q = (i - 2) * n1 + (j - 1) - 1
            count = 0
            for ii, jj in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
                if 2 <= ii <= N and 2 <= jj <= N:
                    r = (ii - 2) * n1 + (jj - 1) - 1
                    a[q, r] = -lam
                    count += 1
            a[q, q] = 1.0 + count * lam + e1[i - 2, j - 2]
    return a


def make_params(grid, growth=0.0, y0_value=1.0, L=1.0, eps=1.0):
    return ControlProblemParams(
        d=1.0,
        a=ScalarField.constant(grid, growth),
        y0=ScalarField.constant(grid, y0_value),
        L=L,
        alpha=0.0,
        beta=0.0,
        mollifier=Mollifier(eps),
    )


def uniform_levelset(grid, value):
    return LevelSetFunction(ScalarField.constant(grid, value))


def full_grid(interior):
    """A full-grid field whose interior is the given block (ghosts zero)."""
    full = np.zeros(interior.shape[:-2] + (interior.shape[-1] + 2,) * 2)
    full[..., 1:-1, 1:-1] = interior
    return full


def test_small_block_every_row_is_a_corner_row():
    lam = 0.7
    e1 = np.array([[0.1, 0.2], [0.3, 0.4]])
    matrix = interior_operator(lam, full_grid(1.0 + e1))
    main, off1, offb = (matrix.diagonal(k) for k in (0, 1, 2))
    assert np.allclose(main, 1.0 + 2.0 * lam + e1.ravel(), rtol=0, atol=1e-15)
    assert off1.shape == (3,)
    assert off1[0] == -lam and off1[2] == -lam
    assert off1[1] == 0.0
    assert np.all(offb == -lam)
    assert offb.shape == (2,)
    assert (matrix - matrix.T).count_nonzero() == 0


def test_interior_operator_validation():
    with pytest.raises(ValueError):
        interior_operator(0.5, np.zeros((3, 3)))
    with pytest.raises(ValueError):
        interior_operator(0.5, np.zeros((5, 6)))


def test_assembled_matrix_matches_neighbor_rule():
    rng = np.random.default_rng(7)
    for N in (4, 8):
        e1 = rng.uniform(0.0, 0.3, (N - 1, N - 1))
        assembled = interior_operator(0.8, full_grid(e1)).toarray()
        assembled += np.eye((N - 1) ** 2)
        dense = dense_from_neighbor_rule(N, 0.8, e1)
        assert np.allclose(assembled, dense, rtol=0, atol=1e-13)


def test_step_solve_agrees_with_dense_elimination():
    rng = np.random.default_rng(11)
    for N in (3, 4, 8):
        for lam in (0.3, 7.0):
            stepper = _ImplicitStepper(N, lam)
            for _ in range(3):
                e1 = rng.uniform(-0.5, 0.5, (N - 1, N - 1))
                rhs = rng.standard_normal((N - 1, N - 1))
                x = linear_solve(stepper, e1, rhs)[0]
                x_ref = gauss_solve(dense_from_neighbor_rule(N, lam, e1), rhs.ravel())
                scale = max(np.abs(x_ref).max(), 1.0)
                assert np.abs(x.ravel() - x_ref).max() <= 1e-12 * scale


def test_batched_step_equals_single_solves():
    rng = np.random.default_rng(13)
    stepper = _ImplicitStepper(8, 2.0)
    e1 = rng.uniform(-0.5, 0.5, (3, 7, 7))
    e1[1] = 0.25  # one member converges before the others
    rhs = rng.standard_normal((3, 7, 7))
    batch = linear_solve(stepper, e1, rhs)[0]
    assert batch.shape == (3, 7, 7)
    for b in range(3):
        single = linear_solve(stepper, e1[b], rhs[b])[0]
        assert np.abs(batch[b] - single).max() <= 1e-14 * max(np.abs(single).max(), 1.0)


def test_uniform_reaction_needs_no_cg_iteration():
    rng = np.random.default_rng(17)
    N, lam = 6, 0.4
    stepper = _ImplicitStepper(N, lam)
    rhs = rng.standard_normal((N - 1, N - 1))
    # 1 + E1 = -0.5 is indefinite, not rejected: the preconditioner is exact.
    for value in (0.3, -1.5):
        e1 = np.full((N - 1, N - 1), value)
        x, iterations = linear_solve(stepper, e1, rhs)
        assert iterations == 0
        x_ref = gauss_solve(dense_from_neighbor_rule(N, lam, e1), rhs.ravel())
        assert np.abs(x.ravel() - x_ref).max() <= 1e-12 * max(np.abs(x_ref).max(), 1.0)


def test_matvec_agrees_with_dense_product():
    rng = np.random.default_rng(3)
    for N in (3, 6):
        stepper = _ImplicitStepper(N, 0.9)
        e1 = rng.uniform(0.0, 0.5, (N - 1, N - 1))
        dense = dense_from_neighbor_rule(N, 0.9, e1)
        x = rng.standard_normal((5, N - 1, N - 1))
        y = stepper.apply(e1, x)
        for b in range(5):
            assert np.allclose(
                y[b].ravel(), dense @ x[b].ravel(), rtol=1e-13, atol=1e-13
            )


def test_linear_solve_reports_breakdown(monkeypatch):
    stepper = _ImplicitStepper(4, 1.0)
    e1 = np.zeros((3, 3))
    rhs = np.ones((3, 3))
    bad = e1.copy()
    bad[1, 1] = np.nan
    rhs_bad = rhs.copy()
    rhs_bad[0, 2] = np.inf
    with np.errstate(invalid="ignore"):
        with pytest.raises(SolverFailure, match="non-finite"):
            linear_solve(stepper, bad, rhs)[0]
        with pytest.raises(SolverFailure, match="non-finite"):
            linear_solve(stepper, e1, rhs_bad)[0]
    monkeypatch.setattr(pde, "CG_MAX_ITER", 0)
    with pytest.raises(SolverFailure, match="did not converge"):
        linear_solve(stepper, np.diag([0.0, 0.4, 0.1]), rhs)[0]


def test_full_grid_step_solves_interiors_and_fills_ghosts(monkeypatch):
    rng = np.random.default_rng(19)
    N = 6
    stepper = _ImplicitStepper(N, 0.6)
    e1 = rng.uniform(-0.3, 0.3, (2, N + 1, N + 1))
    rhs = rng.standard_normal((2, N + 1, N + 1))
    calls = []

    def counted(*args):
        calls.append(args)
        return linear_solve(*args)

    # The step must look linear_solve up on the module, where spans and
    # solve counts are attached to it.
    monkeypatch.setattr(pde, "linear_solve", counted)
    full = stepper.step(e1, rhs)
    assert len(calls) == 1
    interior = linear_solve(stepper, e1[:, 1:-1, 1:-1], rhs[:, 1:-1, 1:-1])[0]
    assert np.array_equal(full, _complete_with_ghost(interior))
    assert full.shape == (2, N + 1, N + 1)
    assert np.array_equal(full[:, 1:-1, 1:-1], interior)
    assert np.array_equal(full[:, 0], full[:, 1])
    assert np.array_equal(full[:, -1], full[:, -2])
    assert np.array_equal(full[:, :, 0], full[:, :, 1])
    assert np.array_equal(full[:, :, -1], full[:, :, -2])


def test_forward_uniform_growth_closed_form():
    grid = GridSpec(N=10, M=100, T=1.0)
    params = make_params(grid, growth=GROWTH_RATE)
    phi = uniform_levelset(grid, FAR_OUTSIDE)
    control = SpaceTimeField.constant(grid, 0.0)
    y = solve_forward(phi, control, params)
    dt = grid.dt
    for k in range(grid.M + 1):
        expected = (1.0 - GROWTH_RATE * dt) ** (-k)
        level = y.values[k]
        assert np.abs(level - expected).max() <= 1e-12 * expected
    final = y.values[-1, 0, 0]
    assert abs(final - np.e**3) / np.e**3 <= 0.05


def test_forward_full_effort_decay():
    grid = GridSpec(N=10, M=100, T=1.0)
    params = make_params(grid, growth=0.0, L=1.0)
    phi = uniform_levelset(grid, FAR_INSIDE)
    control = SpaceTimeField.constant(grid, 1.0)
    y = solve_forward(phi, control, params)
    h1000 = heaviside_mollified(np.array(FAR_INSIDE), params.mollifier)
    dt = grid.dt
    for k in range(grid.M + 1):
        expected = (1.0 + dt * h1000) ** (-k)
        assert np.abs(y.values[k] - expected).max() <= 1e-12
    assert abs(y.values[-1, 0, 0] - np.exp(-1.0)) / np.exp(-1.0) <= 0.05


def test_forward_conserves_mass_without_reaction():
    grid = GridSpec(N=10, M=20, T=0.5)
    y0 = ScalarField.from_function(
        grid,
        lambda x1, x2: np.exp(-50.0 * ((x1 - 0.3) ** 2 + (x2 - 0.4) ** 2)),
    )
    params = ControlProblemParams(
        d=1.0,
        a=ScalarField.constant(grid, 0.0),
        y0=y0,
        L=1.0,
        alpha=0.0,
        beta=0.0,
        mollifier=Mollifier(0.1),
    )
    phi = uniform_levelset(grid, FAR_OUTSIDE)
    control = SpaceTimeField.constant(grid, 0.0)
    y = solve_forward(phi, control, params)
    h2 = grid.h * grid.h
    total0 = h2 * y.values[0, 1:-1, 1:-1].sum()
    for k in range(1, grid.M + 1):
        total = h2 * y.values[k, 1:-1, 1:-1].sum()
        assert abs(total - total0) <= 1e-10 * total0


def test_forward_uniform_start_keeps_simpson_mass():
    grid = GridSpec(N=10, M=20, T=0.5)
    params = make_params(grid, growth=0.0, y0_value=2.0)
    phi = uniform_levelset(grid, FAR_OUTSIDE)
    control = SpaceTimeField.constant(grid, 0.0)
    y = solve_forward(phi, control, params)
    for k in range(grid.M + 1):
        mass = simpson_integral_2d(ScalarField(grid, y.values[k]))
        assert abs(mass - 2.0) <= 1e-12


def test_forward_monotone_in_control():
    rng = np.random.default_rng(23)
    grid = GridSpec(N=10, M=10, T=0.5)
    params = make_params(grid, growth=1.0, L=2.0)
    phi = circle_levelset(grid)
    shape = (grid.M + 1, grid.N + 1, grid.N + 1)
    for _ in range(5):
        u_lo = rng.uniform(0.0, 1.0, shape)
        u_hi = u_lo + rng.uniform(0.0, 1.0, shape)
        y_lo = solve_forward(phi, SpaceTimeField(grid, u_lo), params)
        y_hi = solve_forward(phi, SpaceTimeField(grid, u_hi), params)
        assert np.all(y_hi.values <= y_lo.values + 1e-12)


def test_forward_rejects_out_of_range_control():
    grid = GridSpec(N=4, M=4, T=0.5)
    params = make_params(grid, L=1.0)
    phi = uniform_levelset(grid, FAR_INSIDE)
    with pytest.raises(ValueError):
        solve_forward(phi, SpaceTimeField.constant(grid, 1.5), params)
    with pytest.raises(ValueError):
        solve_forward(phi, SpaceTimeField.constant(grid, -0.1), params)


def test_params_validation():
    grid = GridSpec(N=4, M=4, T=0.5)
    with pytest.raises(ValueError):
        make_params(grid, y0_value=0.0)
    with pytest.raises(ValueError):
        ControlProblemParams(
            d=0.0,
            a=ScalarField.constant(grid, 0.0),
            y0=ScalarField.constant(grid, 1.0),
            L=1.0,
            alpha=0.0,
            beta=0.0,
            mollifier=Mollifier(1.0),
        )
    with pytest.raises(ValueError):
        ControlProblemParams(
            d=1.0,
            a=ScalarField.constant(grid, 0.0),
            y0=ScalarField.constant(grid, 1.0),
            L=-1.0,
            alpha=0.0,
            beta=0.0,
            mollifier=Mollifier(1.0),
        )


def test_forward_rejects_unstable_time_step():
    # a = 1/dt would zero the step preconditioner's shift 1 + mean(E1);
    # the forward solve refuses it, naming dt * max(a) and the smallest
    # even M that works, before any step can warn or go non-finite.
    grid = GridSpec(N=4, M=4, T=0.5)
    params = make_params(grid, growth=1.0 / grid.dt)
    zero = SpaceTimeField.constant(grid, 0.0)
    with pytest.raises(ValueError) as excinfo:
        solve_forward(uniform_levelset(grid, 1.0), zero, params)
    message = str(excinfo.value)
    assert "dt * max(a)" in message and "is 1 >= 1" in message
    assert "grid.M >= 6" in message and "non-finite" not in message
    make_params(GridSpec(N=4, M=6, T=0.5), growth=1.0 / grid.dt).check_time_step()


def test_adjoint_terminal_level_is_zero():
    grid = GridSpec(N=10, M=20, T=1.0)
    params = make_params(grid, growth=GROWTH_RATE)
    p = solve_adjoint(circle_levelset(grid), params)
    assert p.values.shape == (grid.M + 1, grid.N + 1, grid.N + 1)
    assert np.all(p.values[-1] == 0.0)


def test_adjoint_far_outside_region_stays_small():
    grid = GridSpec(N=10, M=20, T=1.0)
    params = make_params(grid, growth=0.0, L=1.0)
    p = solve_adjoint(uniform_levelset(grid, FAR_OUTSIDE), params)
    assert np.all(p.values <= 0.0)
    assert np.abs(p.values).max() <= 1e-3


def test_adjoint_vanishes_without_effort_bound():
    grid = GridSpec(N=10, M=20, T=1.0)
    params = make_params(grid, growth=GROWTH_RATE, L=0.0)
    p = solve_adjoint(circle_levelset(grid), params)
    assert np.all(p.values == 0.0)


def test_adjoint_matches_scalar_recurrence():
    grid = GridSpec(N=10, M=20, T=1.0)
    params = make_params(grid, growth=GROWTH_RATE, L=1.0)
    p = solve_adjoint(uniform_levelset(grid, FAR_INSIDE), params)
    m = params.mollifier
    hphi = heaviside_mollified(np.array(FAR_INSIDE), m)
    dt = grid.dt
    q = np.zeros(grid.M + 1)
    for k in range(grid.M - 1, -1, -1):
        s = 1.0 + q[k + 1]
        g = dt * params.L * hphi * s * heaviside_mollified(np.array(s), m)
        q[k] = (q[k + 1] - g) / (1.0 - GROWTH_RATE * dt)
    for k in range(grid.M + 1):
        level = p.values[k]
        assert np.abs(level - level[1, 1]).max() <= 1e-10
        assert abs(level[1, 1] - q[k]) <= 1e-8


def test_sensitivity_tracks_growth_when_region_is_far():
    grid = GridSpec(N=10, M=100, T=1.0)
    params = make_params(grid, growth=GROWTH_RATE)
    phi = uniform_levelset(grid, FAR_OUTSIDE)
    p = solve_adjoint(phi, params)
    r = solve_sensitivity(phi, p, params)
    dt = grid.dt
    for k in range(grid.M + 1):
        expected = (1.0 - GROWTH_RATE * dt) ** (-k)
        rel = np.abs(r.values[k] - expected).max() / expected
        assert rel <= 1e-3
    final = r.values[-1, 0, 0]
    assert abs(final - np.e**3) / np.e**3 <= 0.05


def test_sensitivity_is_linear_in_initial_density():
    grid = GridSpec(N=8, M=10, T=0.5)
    params = make_params(grid, growth=1.0)
    phi = circle_levelset(grid)
    p = solve_adjoint(phi, params)
    r1 = solve_sensitivity(phi, p, params)
    doubled = ControlProblemParams(
        d=params.d,
        a=params.a,
        y0=ScalarField(grid, 2.0 * params.y0.values),
        L=params.L,
        alpha=params.alpha,
        beta=params.beta,
        mollifier=params.mollifier,
    )
    r2 = solve_sensitivity(phi, p, doubled)
    assert np.allclose(r2.values, 2.0 * r1.values, rtol=1e-12, atol=1e-12)


def test_bang_bang_matches_elementwise_rule():
    rng = np.random.default_rng(5)
    grid = GridSpec(N=4, M=4, T=0.5)
    params = make_params(grid, L=1.5)
    for _ in range(5):
        values = rng.uniform(-2.0, 1.0, (grid.M + 1, grid.N + 1, grid.N + 1))
        control = bang_bang_control(SpaceTimeField(grid, values), params)
        for idx in np.ndindex(values.shape):
            expected = params.L if 1.0 + values[idx] >= 0.0 else 0.0
            assert control.values[idx] == expected


def test_bang_bang_tie_goes_to_full_effort():
    grid = GridSpec(N=4, M=4, T=0.5)
    values = np.full((grid.M + 1, grid.N + 1, grid.N + 1), -1.0)
    control = bang_bang_control(SpaceTimeField(grid, values), make_params(grid, L=2.0))
    assert np.all(control.values == 2.0)


def test_ghost_completion_copies_boundary():
    grid = GridSpec(N=10, M=10, T=0.5)
    params = make_params(grid, growth=1.0)
    phi = circle_levelset(grid)
    control = SpaceTimeField.constant(grid, 0.5)
    y = solve_forward(phi, control, params)
    for k in range(grid.M + 1):
        level = y.values[k]
        assert np.array_equal(level[0, 1:-1], level[1, 1:-1])
        assert np.array_equal(level[-1, 1:-1], level[-2, 1:-1])
        assert np.array_equal(level[:, 0], level[:, 1])
        assert np.array_equal(level[:, -1], level[:, -2])
