import numpy as np
import pytest

from regionopt.errors import SolverFailure
from regionopt.grid import GridSpec, ScalarField
from regionopt.levelset import (
    LevelSetFunction,
    Mollifier,
    checkerboard_levelset,
    circle_levelset,
    delta_mollified,
    evolve_phi,
    heaviside_mollified,
    region_area,
    region_length,
    write_region_pgm,
)

# analytic radial-quadrature oracle values for the disc level set
# phi = 0.25 - dist(x, (0.5, 0.5)) on the unit square, computed before the
# build with scipy.integrate.quad over the square-truncated circumference.
# The arctan mollifier has heavy tails: at these eps the mollified values
# sit well away from the sharp limits pi/16 and pi/2, approaching them
# monotonically as eps shrinks.
CIRCLE_AREA_ORACLE = {0.2: 0.348351151153, 0.1: 0.291637444699, 0.05: 0.250211837142}
CIRCLE_LENGTH_ORACLE = {0.2: 0.998001329093, 0.1: 1.256929190853, 0.05: 1.409544015106}
# recorded eps-sensitivity of the analytic values between eps and 2*eps
LENGTH_EPS_BAND = 0.16
AREA_EPS_BAND = 0.05

DELTA1_AT_5 = 1.0 / (26.0 * np.pi)


def test_mollifier_validation():
    with pytest.raises(ValueError):
        Mollifier(0.0)
    with pytest.raises(ValueError):
        Mollifier(-1.0)


def test_heaviside_midpoint_and_tails():
    m = Mollifier(1.0)
    assert heaviside_mollified(0.0, m) == 0.5
    far = heaviside_mollified(-1000.0, m)
    assert 3.17e-4 <= far <= 3.19e-4
    assert heaviside_mollified(1000.0, m) == pytest.approx(1.0 - far, abs=1e-15)


def test_heaviside_monotone_and_bounded():
    m = Mollifier(0.3)
    z = np.linspace(-50.0, 50.0, 1001)
    hv = heaviside_mollified(z, m)
    assert np.all(np.diff(hv) > 0.0)
    assert np.all((hv > 0.0) & (hv < 1.0))


def test_delta_peak_and_symmetry():
    m = Mollifier(1.0)
    assert delta_mollified(0.0, m) == pytest.approx(1.0 / np.pi, rel=1e-15)
    assert delta_mollified(5.0, m) == pytest.approx(DELTA1_AT_5, rel=1e-13)
    z = np.linspace(-9.0, 9.0, 37)
    assert np.array_equal(delta_mollified(z, m), delta_mollified(-z, m))


def test_delta_is_derivative_of_heaviside():
    rng = np.random.default_rng(2)
    step = 1e-5
    for _ in range(100):
        z = rng.uniform(-5.0, 5.0)
        m = Mollifier(rng.uniform(0.1, 2.0))
        fd = (
            heaviside_mollified(z + step, m) - heaviside_mollified(z - step, m)
        ) / (2.0 * step)
        assert fd == pytest.approx(delta_mollified(z, m), abs=1e-6)


def test_region_area_level_zero():
    g = GridSpec(10, 2, 1.0)
    phi = LevelSetFunction(ScalarField.constant(g, 0.0))
    assert region_area(phi, Mollifier(1.0)) == pytest.approx(0.5, abs=1e-14)


def test_region_area_deep_inside():
    g = GridSpec(10, 2, 1.0)
    phi = LevelSetFunction(ScalarField.constant(g, 1000.0))
    assert region_area(phi, Mollifier(1.0)) == pytest.approx(1.0, abs=1e-3)


def test_region_area_complement_sums_to_one():
    g = GridSpec(12, 2, 1.0)
    rng = np.random.default_rng(4)
    v = rng.standard_normal((13, 13))
    m = Mollifier(0.7)
    a = region_area(LevelSetFunction(ScalarField(g, v)), m)
    b = region_area(LevelSetFunction(ScalarField(g, -v)), m)
    assert a + b == pytest.approx(1.0, abs=1e-12)


def test_region_length_sign_symmetry():
    g = GridSpec(12, 2, 1.0)
    rng = np.random.default_rng(6)
    v = rng.standard_normal((13, 13))
    m = Mollifier(0.5)
    assert region_length(
        LevelSetFunction(ScalarField(g, v)), m
    ) == region_length(LevelSetFunction(ScalarField(g, -v)), m)


def test_region_length_flat_phi_vanishes():
    g = GridSpec(10, 2, 1.0)
    phi = LevelSetFunction(ScalarField.constant(g, -5.0))
    assert region_length(phi, Mollifier(1.0)) == 0.0


def test_circle_area_against_analytic_oracle():
    g = GridSpec(80, 2, 1.0)
    phi = circle_levelset(g)
    for eps, expect in CIRCLE_AREA_ORACLE.items():
        assert region_area(phi, Mollifier(eps)) == pytest.approx(expect, abs=1e-6)


def test_circle_length_against_analytic_oracle():
    g = GridSpec(80, 2, 1.0)
    phi = circle_levelset(g)
    for eps, expect in CIRCLE_LENGTH_ORACLE.items():
        assert region_length(phi, Mollifier(eps)) == pytest.approx(expect, abs=1.5e-3)


def test_circle_sharp_limit_approach():
    # shrinking eps moves both quantities monotonically toward the sharp
    # disc values (the mollifier tails keep them biased at finite eps)
    g = GridSpec(80, 2, 1.0)
    phi = circle_levelset(g)
    area_err = [
        abs(region_area(phi, Mollifier(e)) - np.pi / 16.0) for e in (0.2, 0.1, 0.05)
    ]
    len_err = [
        abs(region_length(phi, Mollifier(e)) - np.pi / 2.0) for e in (0.2, 0.1, 0.05)
    ]
    assert area_err[0] > area_err[1] > area_err[2]
    assert len_err[0] > len_err[1] > len_err[2]


def test_doubling_eps_stays_within_recorded_band():
    g = GridSpec(80, 2, 1.0)
    phi = circle_levelset(g)
    dlen = abs(region_length(phi, Mollifier(0.1)) - region_length(phi, Mollifier(0.05)))
    darea = abs(region_area(phi, Mollifier(0.1)) - region_area(phi, Mollifier(0.05)))
    assert dlen <= LENGTH_EPS_BAND
    assert darea <= AREA_EPS_BAND


def test_evolve_phi_zero_velocity_identity():
    g = GridSpec(8, 2, 1.0)
    phi = checkerboard_levelset(g)
    out = evolve_phi(phi, ScalarField.constant(g, 0.0), 0.05, Mollifier(1.0), alpha=0.0)
    assert np.array_equal(out.phi.values, phi.phi.values)


def test_evolve_phi_far_from_interface_bound():
    g = GridSpec(10, 2, 1.0)
    rng = np.random.default_rng(8)
    vel = ScalarField(g, rng.uniform(-2.0, 2.0, (11, 11)))
    phi = LevelSetFunction(ScalarField.constant(g, -5.0))
    bound = 0.1 * DELTA1_AT_5 * np.abs(vel.values).max()
    for alpha in (0.0, 0.4):
        out = evolve_phi(phi, vel, 0.1, Mollifier(1.0), alpha=alpha)
        assert np.abs(out.phi.values - phi.phi.values).max() <= bound * (1.0 + 1e-12)


def test_evolve_phi_positive_velocity_grows_region():
    g = GridSpec(40, 2, 1.0)
    phi = circle_levelset(g)
    vel = ScalarField.constant(g, 1.0)
    out = evolve_phi(phi, vel, 0.5, Mollifier(0.1), alpha=0.0)
    assert out.region_mask().sum() > phi.region_mask().sum()
    assert np.all(out.phi.values >= phi.phi.values)


def test_evolve_phi_matches_dense_reference():
    # rebuild the frozen-coefficient implicit system with plain loops and
    # compare against the sparse production path
    g = GridSpec(4, 2, 1.0)
    rng = np.random.default_rng(9)
    pv = rng.standard_normal((5, 5))
    vv = rng.standard_normal((5, 5))
    theta, alpha, eta = 0.07, 0.3, 1e-8
    m = Mollifier(0.8)
    h = g.h
    n_side = 5
    gx, gy = np.gradient(pv, h, edge_order=1)
    delta = delta_mollified(pv, m)

    def c_east(i, j):
        dx = (pv[i + 1, j] - pv[i, j]) / h
        ty = 0.5 * (gy[i + 1, j] + gy[i, j])
        return 1.0 / np.sqrt(dx * dx + ty * ty + eta * eta)

    def c_north(i, j):
        dy = (pv[i, j + 1] - pv[i, j]) / h
        tx = 0.5 * (gx[i, j + 1] + gx[i, j])
        return 1.0 / np.sqrt(dy * dy + tx * tx + eta * eta)

    n = n_side * n_side
    a = np.zeros((n, n))
    for i in range(n_side):
        for j in range(n_side):
            q = i * n_side + j
            s = theta * alpha * delta[i, j] / (h * h)
            a[q, q] = 1.0
            if i + 1 < n_side:
                c = c_east(i, j)
                a[q, q] += s * c
                a[q, q + n_side] -= s * c
            if i - 1 >= 0:
                c = c_east(i - 1, j)
                a[q, q] += s * c
                a[q, q - n_side] -= s * c
            if j + 1 < n_side:
                c = c_north(i, j)
                a[q, q] += s * c
                a[q, q + 1] -= s * c
            if j - 1 >= 0:
                c = c_north(i, j - 1)
                a[q, q] += s * c
                a[q, q - 1] -= s * c
    rhs = (pv + theta * delta * vv).ravel()
    expect = np.linalg.solve(a, rhs).reshape(5, 5)

    out = evolve_phi(
        LevelSetFunction(ScalarField(g, pv)),
        ScalarField(g, vv),
        theta,
        m,
        alpha=alpha,
        eta=eta,
    )
    assert np.allclose(out.phi.values, expect, rtol=1e-12, atol=1e-12)


def test_evolve_phi_validation():
    g = GridSpec(4, 2, 1.0)
    phi = LevelSetFunction(ScalarField.constant(g, 1.0))
    vel = ScalarField.constant(g, 0.0)
    with pytest.raises(ValueError):
        evolve_phi(phi, vel, 0.0, Mollifier(1.0))
    with pytest.raises(ValueError):
        evolve_phi(phi, vel, 0.1, Mollifier(1.0), alpha=-1.0)
    other = ScalarField.constant(GridSpec(6, 2, 1.0), 0.0)
    with pytest.raises(ValueError):
        evolve_phi(phi, other, 0.1, Mollifier(1.0))


def test_evolve_phi_non_finite_implicit_step_is_solver_failure():
    g = GridSpec(4, 2, 1.0)
    phi = circle_levelset(g)
    vel = ScalarField.constant(g, 0.0)
    vel.values[2, 2] = np.nan
    with pytest.raises(SolverFailure, match="non-finite"):
        evolve_phi(phi, vel, 0.1, Mollifier(1.0), alpha=0.4)


def test_write_region_pgm(tmp_path):
    g = GridSpec(4, 2, 1.0)
    phi = LevelSetFunction.from_function(g, lambda x1, x2: x1 - 0.55)
    path = tmp_path / "omega_0000.pgm"
    write_region_pgm(phi, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "P2"
    assert lines[1] == "5 5"
    assert lines[2] == "255"
    # nodes x1 = 0, .25, .5, .75, 1 -> mask only for x1 > 0.55
    assert lines[3:] == ["0 0 0 255 255"] * 5


def test_presets_shapes():
    g = GridSpec(20, 2, 1.0)
    disc = circle_levelset(g)
    assert disc.phi.values[10, 10] == pytest.approx(0.25, abs=1e-14)
    board = checkerboard_levelset(g)
    assert board.phi.values[0, 0] == pytest.approx(0.0, abs=1e-14)
