import numpy as np
import pytest

from regionopt.grid import (
    GridSpec,
    ScalarField,
    curvature_divergence,
    gradient_magnitude,
    read_field_csv,
    simpson_integral_2d,
    write_field_csv,
)

# Simpson integral of (1/2pi) exp(-(x1^2+x2^2)/2) over the unit square,
# computed with an independent N = 400 run (dblquad agrees to 7e-15).
GAUSS_INTEGRAL_N400 = 0.11651623566866978


def gaussian(x1, x2):
    return (1.0 / (2.0 * np.pi)) * np.exp(-(x1 * x1 + x2 * x2) / 2.0)


def test_gridspec_validation():
    GridSpec(4, 2, 1.0)
    with pytest.raises(ValueError):
        GridSpec(5, 2, 1.0)  # odd N
    with pytest.raises(ValueError):
        GridSpec(2, 2, 1.0)  # N < 4
    with pytest.raises(ValueError):
        GridSpec(4, 3, 1.0)  # odd M
    with pytest.raises(ValueError):
        GridSpec(4, 2, 0.0)  # T not positive


def test_gridspec_steps():
    g = GridSpec(20, 40, 2.0)
    assert g.h == pytest.approx(0.05, abs=0)
    assert g.dt == pytest.approx(0.05, abs=0)
    assert g.nodes()[0] == 0.0 and g.nodes()[-1] == pytest.approx(1.0, abs=1e-15)


def test_simpson_constant_exact():
    g = GridSpec(20, 2, 1.0)
    assert simpson_integral_2d(ScalarField.constant(g, 1.0)) == pytest.approx(
        1.0, abs=1e-14
    )


def test_simpson_bilinear():
    g = GridSpec(8, 2, 1.0)
    f = ScalarField.from_function(g, lambda x1, x2: x1 * x2)
    assert simpson_integral_2d(f) == pytest.approx(0.25, abs=1e-12)


def test_simpson_gaussian_against_refinement_oracle():
    g = GridSpec(20, 2, 1.0)
    f = ScalarField.from_function(g, gaussian)
    assert simpson_integral_2d(f) == pytest.approx(GAUSS_INTEGRAL_N400, abs=1e-6)


def test_simpson_linearity_on_random_fields():
    g = GridSpec(12, 2, 1.0)
    rng = np.random.default_rng(7)
    for _ in range(20):
        u = rng.standard_normal((13, 13))
        v = rng.standard_normal((13, 13))
        a, b = rng.standard_normal(2)
        lhs = simpson_integral_2d(ScalarField(g, a * u + b * v))
        rhs = a * simpson_integral_2d(ScalarField(g, u)) + b * simpson_integral_2d(
            ScalarField(g, v)
        )
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_scalarfield_shape_and_finiteness():
    g = GridSpec(4, 2, 1.0)
    with pytest.raises(ValueError):
        ScalarField(g, np.zeros((4, 4)))
    bad = np.zeros((5, 5))
    bad[2, 2] = np.nan
    with pytest.raises(ValueError):
        ScalarField(g, bad)


def test_gradient_magnitude_linear_field():
    g = GridSpec(10, 2, 1.0)
    f = ScalarField.from_function(g, lambda x1, x2: x1)
    gm = gradient_magnitude(f)
    assert np.allclose(gm.values, 1.0, atol=1e-13)


def test_gradient_magnitude_constant_field():
    g = GridSpec(10, 2, 1.0)
    gm = gradient_magnitude(ScalarField.constant(g, 3.7))
    assert np.all(gm.values == 0.0)


def test_gradient_magnitude_shift_and_scale():
    g = GridSpec(10, 2, 1.0)
    rng = np.random.default_rng(11)
    v = rng.standard_normal((11, 11))
    base = gradient_magnitude(ScalarField(g, v)).values
    shifted = gradient_magnitude(ScalarField(g, v + 4.2)).values
    assert np.allclose(shifted, base, rtol=1e-12, atol=1e-12)
    scaled = gradient_magnitude(ScalarField(g, 2.5 * v)).values
    assert np.allclose(scaled, 2.5 * base, rtol=1e-13, atol=0)


def test_gradient_magnitude_edge_stencil_values():
    # pin the one-sided edge formulas on a random field
    g = GridSpec(6, 2, 1.0)
    rng = np.random.default_rng(3)
    v = rng.standard_normal((7, 7))
    gm = gradient_magnitude(ScalarField(g, v)).values
    h = g.h
    j = 3
    expect = np.sqrt(((v[1, j] - v[0, j]) ** 2 + (v[0, j + 1] - v[0, j]) ** 2) / h**2)
    assert gm[0, j] == pytest.approx(expect, rel=1e-14)
    i = 2
    expect = np.sqrt(((v[i + 1, 0] - v[i, 0]) ** 2 + (v[i, 1] - v[i, 0]) ** 2) / h**2)
    assert gm[i, 0] == pytest.approx(expect, rel=1e-14)
    expect = np.sqrt(
        ((v[-1, j] - v[-2, j]) ** 2 + (v[-1, j + 1] - v[-1, j]) ** 2) / h**2
    )
    assert gm[-1, j] == pytest.approx(expect, rel=1e-14)
    expect = np.sqrt(
        ((v[i + 1, -1] - v[i, -1]) ** 2 + (v[i, -1] - v[i, -2]) ** 2) / h**2
    )
    assert gm[i, -1] == pytest.approx(expect, rel=1e-14)


def test_gradient_magnitude_corner_copies():
    # the four corner values copy fixed edge neighbors (asymmetric pairing)
    g = GridSpec(6, 2, 1.0)
    rng = np.random.default_rng(5)
    gm = gradient_magnitude(ScalarField(g, rng.standard_normal((7, 7)))).values
    assert gm[0, 0] == gm[1, 0]
    assert gm[0, -1] == gm[0, -2]
    assert gm[-1, 0] == gm[-1, 1]
    assert gm[-1, -1] == gm[-1, -2]


def test_gradient_magnitude_interior_convergence_order():
    def phi(x1, x2):
        return np.sin(2.0 * np.pi * x1) * np.cos(np.pi * x2)

    def exact_mag(x1, x2):
        gx = 2.0 * np.pi * np.cos(2.0 * np.pi * x1) * np.cos(np.pi * x2)
        gy = -np.pi * np.sin(2.0 * np.pi * x1) * np.sin(np.pi * x2)
        return np.sqrt(gx * gx + gy * gy)

    errs = []
    for n in (20, 40, 80):
        g = GridSpec(n, 2, 1.0)
        gm = gradient_magnitude(ScalarField.from_function(g, phi)).values
        X1, X2 = g.mesh()
        err = np.abs(gm - exact_mag(X1, X2))[1:-1, 1:-1].max()
        errs.append(err)
    orders = [np.log2(errs[k] / errs[k + 1]) for k in range(2)]
    assert min(orders) >= 1.8


def test_curvature_flat_interface_zero():
    g = GridSpec(20, 2, 1.0)
    f = ScalarField.from_function(g, lambda x1, x2: x1 - 0.5)
    k = curvature_divergence(f)
    assert np.abs(k.values[1:-1, 1:-1]).max() <= 1e-12


def test_curvature_circle_signed_distance():
    # phi positive inside a disc of radius 0.25: curvature -1/R on the interface
    g = GridSpec(80, 2, 1.0)
    f = ScalarField.from_function(
        g, lambda x1, x2: 0.25 - np.sqrt((x1 - 0.5) ** 2 + (x2 - 0.5) ** 2)
    )
    k = curvature_divergence(f)
    near = np.abs(f.values) < 1.5 * g.h
    vals = k.values[near]
    assert np.abs(vals.mean() + 4.0) <= 0.4


def test_curvature_eta_validation():
    g = GridSpec(4, 2, 1.0)
    with pytest.raises(ValueError):
        curvature_divergence(ScalarField.constant(g, 0.0), eta=0.0)


def test_field_csv_roundtrip(tmp_path):
    g = GridSpec(8, 2, 1.0)
    rng = np.random.default_rng(13)
    f = ScalarField(g, rng.standard_normal((9, 9)) * 1e3)
    path = tmp_path / "field.csv"
    write_field_csv(f, path)
    back = read_field_csv(path, g)
    assert np.array_equal(back.values, f.values)
    assert path.read_text().splitlines()[0] == "x1,x2,value"


def test_field_csv_bytes_match_per_row_format(tmp_path):
    g = GridSpec(8, 2, 1.0)
    rng = np.random.default_rng(29)
    values = rng.standard_normal((9, 9)) * 10.0 ** rng.integers(-300, 300, (9, 9))
    values[0, :3] = (-0.0, 5e-324, -1.7976931348623157e308)
    values[4, 4] = 1.0 / 3.0
    f = ScalarField(g, values)
    x = g.nodes()
    rows = ["x1,x2,value"]
    for i in range(9):
        for j in range(9):
            rows.append(f"{x[i]:.17g},{x[j]:.17g},{values[i, j]:.17g}")
    path = tmp_path / "field.csv"
    write_field_csv(f, path)
    assert path.read_bytes() == ("\n".join(rows) + "\n").encode()


def test_field_csv_rejects_wrong_grid(tmp_path):
    g = GridSpec(8, 2, 1.0)
    f = ScalarField.constant(g, 1.0)
    path = tmp_path / "field.csv"
    write_field_csv(f, path)
    with pytest.raises(ValueError):
        read_field_csv(path, GridSpec(10, 2, 1.0))
