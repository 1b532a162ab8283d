"""Tests for the implicit solvers behind the harvested diffusion model.

The step solver (DCT-preconditioned conjugate gradients on the
five-point stencil) is checked against a dense Gaussian elimination
oracle implemented here, and the stencil against an independent
node-by-node construction from the neighbor-count rule.
Spatially uniform problems reduce every solver to a scalar recurrence
with a known closed form, which pins the time stepping exactly.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from regionopt.errors import FieldError, SolverFailure
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
    heaviside_mollified,
)
from regionopt import pde
from regionopt.pde import (
    ROUNDOFF,
    ControlProblemParams,
    _ImplicitStepper,
    _complete_with_ghost,
    bang_bang_control,
    dct_matrix,
    linear_solve,
    solve_adjoint,
    solve_forward,
    solve_sensitivity,
)
from regionopt.shapeopt import descent_velocity

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

    Independent of the stencil: nodes are visited in grid order and each
    row gets 1 + (number of interior neighbors) * lam + E1 on the
    diagonal and -lam per neighbor.
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


def stencil_matrix(stepper, diagonal):
    """Dense matrix of stepper.apply(diagonal, .), one unit vector per column."""
    n = diagonal.size
    units = np.eye(n).reshape((n,) + diagonal.shape)
    return stepper.apply(diagonal, units).reshape(n, n).T


def test_small_block_every_row_is_a_corner_row():
    lam = 0.7
    e1 = np.array([[0.1, 0.2], [0.3, 0.4]])
    stepper = _ImplicitStepper(3, lam)
    matrix = stencil_matrix(stepper, stepper.main + e1)
    main, off1, offb = (np.diagonal(matrix, k) for k in (0, 1, 2))
    assert np.allclose(main, 1.0 + 2.0 * lam + e1.ravel(), rtol=0, atol=1e-15)
    assert off1.shape == (3,)
    assert off1[0] == -lam and off1[2] == -lam
    assert off1[1] == 0.0
    assert np.all(offb == -lam)
    assert offb.shape == (2,)
    assert np.diagonal(matrix, 3)[0] == 0.0
    assert np.array_equal(matrix, matrix.T)


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


@pytest.mark.parametrize("N", [20, 64])
@pytest.mark.parametrize("lam", [1.0e5, 1.0e8])
def test_large_lam_solve_stops_at_round_off(N, lam):
    # One stencil product rounds off by about eps * (1 + 8 lam) * max|x|,
    # above 1e-10 * max|rhs| from lam = 1e5 on, even when the
    # preconditioner is exact (uniform E1): the solve stops at that
    # floor instead of failing.
    rng = np.random.default_rng(29)
    stepper = _ImplicitStepper(N, lam)
    rhs = rng.uniform(0.5, 1.5, (N - 1, N - 1))
    for e1 in (np.full_like(rhs, 0.1), rng.uniform(0.0, 0.5, rhs.shape)):
        x, iterations = linear_solve(stepper, e1, rhs)
        if np.ptp(e1) == 0.0:
            assert iterations == 0
        residual = np.abs(stepper.apply(stepper.main + e1, x) - rhs).max()
        row_sum = 1.0 + 8.0 * lam + e1.max()
        floor = ROUNDOFF * np.finfo(float).eps * row_sum * np.abs(x).max()
        assert 1e-10 * np.abs(rhs).max() < floor
        assert residual <= floor


@pytest.mark.parametrize("N", [3, 4, 6, 8])
def test_matvec_agrees_with_dense_product(N):
    rng = np.random.default_rng(N)
    lam = 0.8
    stepper = _ImplicitStepper(N, lam)
    e1 = rng.uniform(0.0, 0.5, (N - 1, N - 1))
    dense = dense_from_neighbor_rule(N, lam, e1)
    # Unit vectors: the whole matrix of apply.
    assembled = stencil_matrix(stepper, stepper.main + e1)
    assert np.allclose(assembled, dense, rtol=0, atol=1e-13)
    # Random batches: apply on a stack of vectors at once.
    x = rng.standard_normal((5, N - 1, N - 1))
    y = stepper.apply(stepper.main + e1, x)
    for b in range(5):
        assert np.allclose(y[b].ravel(), dense @ x[b].ravel(), rtol=1e-13, atol=1e-13)


def sequential_stencil(lam, diagonal, x):
    """diagonal * x, then lam * x subtracted node by node at i-1, i+1, j-1, j+1."""
    y = diagonal * x
    n = x.shape[-1]
    for i in range(n):
        for j in range(n):
            for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                if 0 <= i + di < n and 0 <= j + dj < n:
                    y[..., i, j] -= lam * x[..., i + di, j + dj]
    return y


@pytest.mark.parametrize("N", [3, 4, 6])
def test_matvec_is_bit_exact(N):
    rng = np.random.default_rng(100 + N)
    stepper = _ImplicitStepper(N, 0.8)
    diagonal = stepper.main + rng.uniform(0.0, 0.5, (N - 1, N - 1))
    x = rng.standard_normal((4, N - 1, N - 1))
    x[rng.random(x.shape) < 0.3] = -0.0
    # Checkerboard of -0.0 among +0.0: each -0.0 keeps its sign only if
    # the border subtracts +0.0, as the sequential reference does.
    i, j = np.indices((N - 1, N - 1))
    x[0] = np.where((i + j) % 2 == 0, -0.0, 0.0)
    reference = sequential_stencil(stepper.lam, diagonal, x)
    # The batch whole, as a batch-innermost strided view, and one block
    # at a time into a given output, as the eigen solver applies it.
    strided = np.moveaxis(np.ascontiguousarray(np.moveaxis(x, 0, -1)), -1, 0)
    per_block = np.empty_like(x)
    for block, image in zip(x, per_block):
        stepper.apply(diagonal, block, out=image)
    for y in (stepper.apply(diagonal, x), stepper.apply(diagonal, strided), per_block):
        # Every bit, the sign of zero included: the artifacts depend on them.
        assert np.array_equal(y, reference)
        assert np.array_equal(y.view(np.uint64), reference.view(np.uint64))


@pytest.mark.parametrize("N", [4, 7])
def test_kept_border_buffer_leaves_every_bit(N):
    # One stepper applies to batches of several shapes in turn, keeping a
    # zero-bordered buffer per shape; each product equals a fresh
    # stepper's, signed zeros included, and no later call changes it.
    rng = np.random.default_rng(300 + N)
    n = N - 1
    kept = _ImplicitStepper(N, 0.8)
    diagonal = kept.main + rng.uniform(0.0, 0.5, (n, n))
    shapes = ((3, n, n), (3, n, n), (2, n, n), (n, n))
    inputs = [rng.standard_normal(shape) for shape in shapes]
    for x in inputs:
        x[rng.random(x.shape) < 0.3] = -0.0
    products = [kept.apply(diagonal, x) for x in inputs]
    for x, y in zip(inputs, products):
        fresh = _ImplicitStepper(N, 0.8).apply(diagonal, x)
        assert np.array_equal(y.view(np.uint64), fresh.view(np.uint64))


def test_dct_matrix_is_built_once_per_size():
    # precondition works in the precision of its input, through one
    # shared, read-only matrix per (size, dtype).
    rng = np.random.default_rng(3)
    r = rng.standard_normal((2, 7, 7))
    exact = None
    for dtype, tol in ((np.float64, 1e-14), (np.float32, 1e-6)):
        q = dct_matrix(7, np.dtype(dtype))
        assert q.dtype == dtype
        assert not q.flags.writeable  # shared, so no caller may change it
        assert np.allclose(q @ q.T, np.eye(7), rtol=0, atol=tol)
        built = dct_matrix.cache_info().misses
        for lam in (1.0, 2.0):  # two steppers of one size share it
            stepper = _ImplicitStepper(8, lam)
            denominator = (1.0 + stepper.lap_eigs).astype(dtype)
            z = stepper.precondition(denominator, r.astype(dtype))
            assert z.dtype == dtype
        assert dct_matrix.cache_info().misses == built
        if exact is None:
            exact = z
        assert np.allclose(z, exact, rtol=0, atol=tol * np.abs(exact).max())


def count_stepper_calls(monkeypatch):
    """Count _ImplicitStepper.precondition and .apply calls by name."""
    counts = {"precondition": 0, "apply": 0}
    for name in counts:
        method = getattr(_ImplicitStepper, name)

        def counted(self, *args, _name=name, _method=method):
            counts[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(_ImplicitStepper, name, counted)
    return counts


@pytest.mark.parametrize("batch", [(), (3,)], ids=["single", "batch"])
def test_work_per_solve(monkeypatch, batch):
    rng = np.random.default_rng(23)
    stepper = _ImplicitStepper(8, 2.0)
    counts = count_stepper_calls(monkeypatch)
    rhs = rng.standard_normal(batch + (7, 7))
    # Uniform E1: the initial guess is the solution.
    linear_solve(stepper, np.full(batch + (7, 7), 0.25), rhs)
    assert counts == {"precondition": 1, "apply": 1}
    counts.update(precondition=0, apply=0)
    e1 = rng.uniform(-0.5, 0.5, batch + (7, 7))
    iterations = linear_solve(stepper, e1, rhs)[1]
    assert iterations >= 1
    assert counts == {"precondition": iterations + 1, "apply": iterations + 2}


def test_zero_iteration_solve_still_checks_its_residual(monkeypatch):
    stepper = _ImplicitStepper(4, 1.0)
    counts = count_stepper_calls(monkeypatch)
    monkeypatch.setattr(pde, "CG_TOL", 1.0)  # the loop exits at once
    with pytest.raises(SolverFailure, match="exceeds 1e-10"):
        linear_solve(stepper, np.diag([0.0, 0.4, 0.1]), np.ones((3, 3)))
    assert counts == {"precondition": 1, "apply": 1}


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


def random_forward_problem(N, M, seed, d, L, a_top, a_spread, eps):
    """A harvest problem on seeded random data: y0 in [0, 1] with one
    interior node at 1, growth with dt * max(a) <= a_top < 1, and a level
    set of white noise."""
    grid = GridSpec(N=N, M=M, T=1.0)
    rng = np.random.default_rng(seed)
    shape = (N + 1, N + 1)
    y0 = rng.uniform(0.0, 1.0, shape) * (rng.random(shape) < 0.5)
    y0[rng.integers(1, N), rng.integers(1, N)] = 1.0
    a = (a_top - a_spread * rng.random(shape)) / grid.dt
    params = ControlProblemParams(
        d=d,
        a=ScalarField(grid, a),
        y0=ScalarField(grid, y0),
        L=L,
        alpha=0.0,
        beta=0.0,
        mollifier=Mollifier(eps),
    )
    return params, LevelSetFunction(ScalarField(grid, rng.standard_normal(shape)))


SIZES = dict(
    N=st.sampled_from([4, 6, 8]),
    M=st.sampled_from([2, 4]),
    seed=st.integers(0, 2**32 - 1),
    d=st.floats(1e-3, 2.0),
)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    L=st.floats(0.0, 10.0),
    level=st.floats(0.0, 1.0),
    a_top=st.floats(-5.0, 0.99),
    a_spread=st.floats(0.0, 5.0),
    eps=st.floats(0.05, 1.0),
    **SIZES,
)
def test_forward_stays_nonnegative_on_random_data(
    N, M, seed, d, L, level, a_top, a_spread, eps
):
    params, phi = random_forward_problem(N, M, seed, d, L, a_top, a_spread, eps)
    control = SpaceTimeField.constant(params.grid, level * L)
    y = solve_forward(phi, control, params)
    assert y.values.min() >= -1e-12


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(**SIZES)
def test_forward_keeps_lumped_mass_on_random_data(N, M, seed, d):
    params, phi = random_forward_problem(N, M, seed, d, 1.0, 0.0, 0.0, 1.0)
    y = solve_forward(phi, SpaceTimeField.constant(params.grid, 0.0), params)
    h = params.grid.h
    mass = h * h * y.values[:, 1:-1, 1:-1].sum(axis=(1, 2))
    assert np.all(np.abs(mass - mass[0]) <= 1e-10 * mass[0])


def test_forward_rejects_out_of_range_control():
    grid = GridSpec(N=4, M=4, T=0.5)
    params = make_params(grid, L=1.0)
    phi = uniform_levelset(grid, FAR_INSIDE)
    with pytest.raises(ValueError):
        solve_forward(phi, SpaceTimeField.constant(grid, 1.5), params)
    with pytest.raises(ValueError):
        solve_forward(phi, SpaceTimeField.constant(grid, -0.1), params)


def test_forward_under_constant_control_holds_one_space_time_array():
    # The constant control is a broadcast view and the removal rate is
    # formed one level at a time, so beyond small per-level arrays the
    # march allocates its state alone.
    grid = GridSpec(N=32, M=200, T=1.0)
    params = make_params(grid)
    phi = circle_levelset(grid)
    solve_forward(phi, SpaceTimeField.constant(grid, 0.5), params)  # warm caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        y = solve_forward(phi, SpaceTimeField.constant(grid, 0.5), params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base < 1.5 * y.values.nbytes


def test_forward_same_bits_under_constant_and_stored_control():
    grid = GridSpec(N=8, M=6, T=0.5)
    params = make_params(grid, growth=GROWTH_RATE)
    phi = circle_levelset(grid)
    constant = SpaceTimeField.constant(grid, 0.5)
    stored = SpaceTimeField(grid, np.full(constant.values.shape, 0.5))
    y = solve_forward(phi, constant, params)
    assert np.array_equal(y.values, solve_forward(phi, stored, params).values)


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


@pytest.mark.parametrize("name", ["L", "alpha", "beta"])
def test_params_reject_nan_bound_and_weights(name):
    # NaN passes every ordered test but "not x >= 0", so each field has it.
    grid = GridSpec(N=4, M=4, T=0.5)
    settings = dict(L=1.0, alpha=0.0, beta=0.0)
    settings[name] = np.nan
    with pytest.raises(FieldError, match=f"^{name} must be nonnegative, got nan$"):
        ControlProblemParams(
            d=1.0,
            a=ScalarField.constant(grid, 0.0),
            y0=ScalarField.constant(grid, 1.0),
            mollifier=Mollifier(1.0),
            **settings,
        )


def test_params_reject_a_and_y0_on_different_grids():
    grid = GridSpec(N=4, M=4, T=0.5)
    with pytest.raises(ValueError, match="^a and y0 live on different grids$"):
        ControlProblemParams(
            d=1.0,
            a=ScalarField.constant(grid, 0.0),
            y0=ScalarField.constant(GridSpec(N=6, M=4, T=0.5), 1.0),
            L=1.0,
            alpha=0.0,
            beta=0.0,
            mollifier=Mollifier(1.0),
        )


@pytest.mark.parametrize(
    "name, value",
    [
        ("L", -1.0),
        ("alpha", np.nan),
        ("d", 0.0),
        ("alpha", -1.0),
        ("beta", np.nan),
        ("d", np.inf),
        ("L", np.inf),
        ("alpha", np.inf),
        ("beta", np.inf),
        ("L", -np.inf),
    ],
)
def test_params_fields_cannot_be_reassigned(name, value):
    # The checks run once, in the constructor: a field set afterwards
    # would bypass them, so every field is frozen.
    params = make_params(GridSpec(N=4, M=4, T=0.5))
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(params, name, value)
    with pytest.raises(FieldError, match=f"^{name} must be"):
        dataclasses.replace(params, **{name: value})


# (solve, message): solve(params, on, off) calls one solver with the
# fields on the problem grid (on) or on another grid (off), each a dict
# of a level set "phi" and a space-time field "time".
OFF_GRID_CALLS = {
    "adjoint-phi": (
        lambda params, on, off: solve_adjoint(off["phi"], params),
        "phi is not on the problem grid",
    ),
    "sensitivity-phi": (
        lambda params, on, off: solve_sensitivity(off["phi"], on["time"], params),
        "phi/adjoint are not on the problem grid",
    ),
    "sensitivity-adjoint": (
        lambda params, on, off: solve_sensitivity(on["phi"], off["time"], params),
        "phi/adjoint are not on the problem grid",
    ),
    "forward-phi": (
        lambda params, on, off: solve_forward(off["phi"], on["time"], params),
        "phi/control are not on the problem grid",
    ),
    "forward-control": (
        lambda params, on, off: solve_forward(on["phi"], off["time"], params),
        "phi/control are not on the problem grid",
    ),
    "forward-forcing": (
        lambda params, on, off: solve_forward(
            on["phi"], on["time"], params, forcing=off["time"]
        ),
        "forcing is not on the problem grid",
    ),
    "velocity-adjoint": (
        lambda params, on, off: descent_velocity(off["time"], on["time"], params),
        "inputs are not on the problem grid",
    ),
    "velocity-sensitivity": (
        lambda params, on, off: descent_velocity(on["time"], off["time"], params),
        "inputs are not on the problem grid",
    ),
}


@pytest.mark.parametrize("case", list(OFF_GRID_CALLS))
def test_solvers_reject_fields_off_the_problem_grid(case):
    solve, message = OFF_GRID_CALLS[case]
    grid = GridSpec(N=4, M=4, T=0.5)

    def fields(g):
        return {"phi": uniform_levelset(g, 1.0), "time": SpaceTimeField.constant(g, 0.0)}

    # Another M alone makes another grid: the time axes differ.
    off = fields(GridSpec(N=4, M=6, T=0.5))
    with pytest.raises(ValueError, match=f"^{message}$"):
        solve(make_params(grid), fields(grid), off)


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
