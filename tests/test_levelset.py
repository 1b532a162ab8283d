import csv

import numpy as np
import pytest
from test_cli import TEST1_TEXT, write_config

from regionopt.cli import main
from regionopt.errors import FieldError, SolverFailure
from regionopt.grid import GridSpec, ScalarField
from regionopt.levelset import (
    LevelSetFunction,
    Mollifier,
    _zero_flux_divergence,
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


def apply_bands(bands, x):
    """The product of the five-band operator of _zero_flux_divergence with x;
    built at x with weight 1/h^2, the product is the curvature of x."""
    main, east, west, north, south = bands
    out = main * x
    out[:-1] += east[:-1] * x[1:]
    out[1:] += west[1:] * x[:-1]
    out[:, :-1] += north[:, :-1] * x[:, 1:]
    out[:, 1:] += south[:, 1:] * x[:, :-1]
    return out


def test_mollifier_validation():
    with pytest.raises(ValueError):
        Mollifier(0.0)
    with pytest.raises(ValueError):
        Mollifier(-1.0)
    # The number rule of every model type's real fields; an infinite width
    # would make region_length NaN.
    for eps, complaint in [
        (0.0, "must be positive, got 0.0"),
        (np.nan, "must be positive, got nan"),
        (np.inf, "must be finite, got inf"),
    ]:
        with pytest.raises(FieldError) as excinfo:
            Mollifier(eps)
        assert (excinfo.value.field, excinfo.value.complaint) == ("eps", complaint)


def test_mollifier_rejects_width_whose_square_underflows():
    # delta_mollified divides by eps^2 + z^2, which is 0 at z = 0 if eps^2 is.
    with pytest.raises(FieldError, match="^eps must be positive") as excinfo:
        Mollifier(1.0e-300)
    assert excinfo.value.field == "eps"
    # A subnormal square still divides to a finite peak 1 / (pi eps).
    assert np.isfinite(delta_mollified(0.0, Mollifier(1.0e-160)))


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
    # rebuild the frozen-coefficient zero-flux operator with plain loops and
    # compare the implicit step and the explicit curvature against it
    for n_grid in (4, 10):
        g = GridSpec(n_grid, 2, 1.0)
        n_side = n_grid + 1
        rng = np.random.default_rng(9)
        pv = rng.standard_normal((n_side, n_side))
        vv = rng.standard_normal((n_side, n_side))
        theta, alpha, eta = 0.07, 0.3, 1e-8
        m = Mollifier(0.8)
        h = g.h
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
        # k u / h^2 = div(c grad u); boundary faces carry no flux
        k = np.zeros((n, n))
        for i in range(n_side):
            for j in range(n_side):
                q = i * n_side + j
                if i + 1 < n_side:
                    c = c_east(i, j)
                    k[q, q] -= c
                    k[q, q + n_side] += c
                if i - 1 >= 0:
                    c = c_east(i - 1, j)
                    k[q, q] -= c
                    k[q, q - n_side] += c
                if j + 1 < n_side:
                    c = c_north(i, j)
                    k[q, q] -= c
                    k[q, q + 1] += c
                if j - 1 >= 0:
                    c = c_north(i, j - 1)
                    k[q, q] -= c
                    k[q, q - 1] += c
        a = np.eye(n) - (theta * alpha * delta.ravel() / (h * h))[:, None] * k
        rhs = (pv + theta * delta * vv).ravel()
        expect = np.linalg.solve(a, rhs).reshape(n_side, n_side)

        out = evolve_phi(
            LevelSetFunction(ScalarField(g, pv)),
            ScalarField(g, vv),
            theta,
            m,
            alpha=alpha,
        )
        assert np.allclose(out.phi.values, expect, rtol=1e-12, atol=1e-12), n_grid
        curv = apply_bands(_zero_flux_divergence(pv, h, 1.0 / (h * h)), pv)
        expect_curv = (k @ pv.ravel()).reshape(n_side, n_side) / (h * h)
        assert np.allclose(curv, expect_curv, rtol=1e-12, atol=1e-12), n_grid


def test_curvature_flat_interface_zero():
    # a plane has no curvature inside; zero flux through the walls leaves
    # the unit normal flux of the wall faces as +-1/h on the wall rows
    g = GridSpec(20, 2, 1.0)
    p = ScalarField.from_function(g, lambda x1, x2: x1 - 0.3).values
    k = apply_bands(_zero_flux_divergence(p, g.h, 1.0 / g.h**2), p)
    expect = np.zeros_like(k)
    expect[0, :] = 1.0 / g.h
    expect[-1, :] = -1.0 / g.h
    assert np.allclose(k, expect, rtol=1e-12, atol=1e-12)


def test_curvature_circle_signed_distance():
    # phi positive inside a disc of radius 0.25: curvature -1/R on the interface
    g = GridSpec(80, 2, 1.0)
    p = ScalarField.from_function(
        g, lambda x1, x2: 0.25 - np.sqrt((x1 - 0.5) ** 2 + (x2 - 0.5) ** 2)
    ).values
    k = apply_bands(_zero_flux_divergence(p, g.h, 1.0 / g.h**2), p)
    near = np.abs(p) < 1.5 * g.h
    vals = k[near]
    assert np.abs(vals.mean() + 4.0) <= 0.4


def test_evolve_phi_backward_error_with_flat_patches():
    # Clipping flattens phi inside and outside a ring, where the face
    # coefficients reach 1/CURVATURE_ETA: the system's rows then span
    # about ten orders of magnitude.  The row-block solve must still be
    # backward stable.
    g = GridSpec(48, 2, 1.0)
    radius = circle_levelset(g).phi.values
    phi = LevelSetFunction(ScalarField(g, np.clip(radius, -0.05, 0.05)))
    p = phi.phi.values
    vel = ScalarField(g, np.cos(7.0 * p))
    theta, alpha, m = 0.05, 0.4, Mollifier(0.1)
    x = evolve_phi(phi, vel, theta, m, alpha=alpha).phi.values
    delta = delta_mollified(p, m)
    b = p + theta * delta * vel.values
    bands = _zero_flux_divergence(p, g.h, -theta * alpha * delta / g.h**2, 1.0)
    assert np.abs(bands[1]).max() > 1e9  # the east band
    ax = apply_bands(bands, x)
    norm_a = sum(np.abs(band) for band in bands).max()
    scale = norm_a * np.abs(x).max() + np.abs(b).max()
    assert np.abs(ax - b).max() / scale <= 1e-14


def test_singular_row_block_is_solver_failure(tmp_path, monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    g = GridSpec(4, 2, 1.0)
    vel = ScalarField.constant(g, 1.0)
    with pytest.raises(SolverFailure, match="Singular matrix"):
        evolve_phi(circle_levelset(g), vel, 0.1, Mollifier(1.0), alpha=0.4)
    # the CLI maps it to exit 3 and keeps the trace up to the failure
    out = tmp_path / "fail"
    assert main(["--config", str(write_config(tmp_path, TEST1_TEXT)), "--out", str(out)]) == 3
    with open(out / "trace.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    # the start iterate's record, closed by the failure
    assert [(row[0], row[-1]) for row in rows[1:]] == [("1", "solver failure")]


def test_evolve_phi_validation():
    g = GridSpec(4, 2, 1.0)
    phi = LevelSetFunction(ScalarField.constant(g, 1.0))
    vel = ScalarField.constant(g, 0.0)
    with pytest.raises(ValueError):
        evolve_phi(phi, vel, 0.0, Mollifier(1.0))
    with pytest.raises(ValueError):
        evolve_phi(phi, vel, 0.1, Mollifier(1.0), alpha=-1.0)
    with pytest.raises(ValueError, match="alpha must be nonnegative, got nan"):
        evolve_phi(phi, vel, 0.1, Mollifier(1.0), alpha=np.nan)
    other = ScalarField.constant(GridSpec(6, 2, 1.0), 0.0)
    with pytest.raises(ValueError):
        evolve_phi(phi, other, 0.1, Mollifier(1.0))


@pytest.mark.parametrize("alpha", [0.0, 0.4], ids=["explicit", "implicit"])
def test_evolve_phi_non_finite_step_is_solver_failure(alpha):
    g = GridSpec(4, 2, 1.0)
    phi = circle_levelset(g)
    vel = ScalarField.constant(g, 0.0)
    vel.values[2, 2] = np.nan
    with pytest.raises(SolverFailure, match="non-finite"):
        evolve_phi(phi, vel, 0.1, Mollifier(1.0), alpha=alpha)


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


def test_write_region_pgm_orientation(tmp_path):
    g = GridSpec(4, 2, 1.0)
    # The quadrant x1 > 0.55, x2 > 0.3: nodes i = 3, 4 and j = 2, 3, 4.
    phi = LevelSetFunction.from_function(
        g, lambda x1, x2: np.minimum(x1 - 0.55, x2 - 0.3)
    )
    path = tmp_path / "quadrant.pgm"
    write_region_pgm(phi, path)
    # Rows run over j (top to bottom), pixels within a row over i.
    rows = ["0 0 0 0 0"] * 2 + ["0 0 0 255 255"] * 3
    assert path.read_text() == "\n".join(["P2", "5 5", "255", *rows]) + "\n"


def test_presets_shapes():
    g = GridSpec(20, 2, 1.0)
    disc = circle_levelset(g)
    assert disc.phi.values[10, 10] == pytest.approx(0.25, abs=1e-14)
    board = checkerboard_levelset(g)
    assert board.phi.values[0, 0] == pytest.approx(0.0, abs=1e-14)
