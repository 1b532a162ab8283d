import re

import numpy as np
import pytest

from regionopt.errors import FieldError
from regionopt.grid import (
    GridSpec,
    ScalarField,
    SpaceTimeField,
    gradient_magnitude,
    read_field_csv,
    simpson_integral_2d,
    simpson_weights,
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
    for N, M, field, bad in [
        (6.5, 2, "N", 6.5),
        (np.nan, 2, "N", np.nan),
        (np.inf, 2, "N", np.inf),
        (4, 2.5, "M", 2.5),
        (4, -np.inf, "M", -np.inf),
    ]:
        with pytest.raises(FieldError) as excinfo:
            GridSpec(N, M, 1.0)
        assert excinfo.value.field == field
        assert excinfo.value.complaint == f"must be an integer, got {bad}"
    for T, complaint in [
        (0.0, "must be positive, got 0.0"),
        (-1.0, "must be positive, got -1.0"),
        (np.nan, "must be positive, got nan"),
        (np.inf, "must be finite, got inf"),
    ]:
        with pytest.raises(FieldError) as excinfo:
            GridSpec(4, 2, T)
        assert (excinfo.value.field, excinfo.value.complaint) == ("T", complaint)
    # an integral float is stored as an int, so the field constructors take it
    g = GridSpec(6.0, 2.0, 1.0)
    assert (type(g.N), type(g.M)) == (int, int)
    assert ScalarField.constant(g, 1.0).values.shape == (7, 7)


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


@pytest.mark.parametrize("n", [0, 1, 3, 21])
def test_simpson_weights_need_an_even_count_of_at_least_two(n):
    message = f"^Simpson rule needs an even interval count >= 2, got {n}$"
    with pytest.raises(ValueError, match=message):
        simpson_weights(n, 0.1)


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


def test_field_csv_roundtrip(tmp_path):
    g = GridSpec(8, 2, 1.0)
    rng = np.random.default_rng(13)
    f = ScalarField(g, rng.standard_normal((9, 9)) * 1e3)
    path = tmp_path / "field.csv"
    write_field_csv(f, path)
    back = read_field_csv(path, g)
    assert np.array_equal(back.values, f.values)
    assert path.read_text().splitlines()[0] == "x1,x2,value"


def test_parsed_field_owns_its_values(tmp_path):
    # The value column is copied out of the parsed table, so a field that
    # outlives its parse (a config's) does not keep the (N+1)^2 x 3 table.
    g = GridSpec(8, 2, 1.0)
    values = np.random.default_rng(31).standard_normal((9, 9))
    values[2, 3] = -0.0
    path = tmp_path / "field.csv"
    write_field_csv(ScalarField(g, values), path)
    back = read_field_csv(path, g).values
    table = np.loadtxt(path, delimiter=",", skiprows=1)
    assert back.base is None
    assert np.array_equal(back.ravel().view(np.uint64), table[:, -1].view(np.uint64))


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


def test_field_csv_skips_comments_and_blank_lines_and_reads_crlf(tmp_path):
    g = GridSpec(4, 2, 1.0)
    f = ScalarField(g, np.random.default_rng(5).standard_normal((5, 5)))
    clean = tmp_path / "clean.csv"
    write_field_csv(f, clean)
    lines = clean.read_bytes().split(b"\n")
    lines.insert(1, b"# written by hand")
    lines.insert(4, b"")
    lines[6] += b"\r"
    lines[9] += b"  # a trailing comment"
    edited = tmp_path / "edited.csv"
    edited.write_bytes(b"\n".join(lines))
    assert np.array_equal(read_field_csv(edited, g).values, f.values)


def test_field_csv_bad_row_after_blank_line_names_its_file_line(tmp_path):
    g = GridSpec(4, 2, 1.0)
    path = tmp_path / "field.csv"
    write_field_csv(ScalarField.constant(g, 1.0), path)
    lines = path.read_text().split("\n")
    lines.insert(3, "")  # file line 4, skipped as the reader skips it
    lines[5] += "x"  # file line 6
    path.write_text("\n".join(lines))
    message = f"{path}: line 6: could not convert '1x' to a number"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_field_csv(path, g)


def test_field_csv_row_only_numpy_rejects_keeps_numpy_message(tmp_path):
    # 1_0 is a number to Python's float() but not to NumPy's reader, so no
    # row is found at fault and the message is NumPy's own.
    g = GridSpec(4, 2, 1.0)
    path = tmp_path / "field.csv"
    write_field_csv(ScalarField.constant(g, 1.0), path)
    lines = path.read_text().split("\n")
    lines[2] = lines[2].rsplit(",", 1)[0] + ",1_0"
    path.write_text("\n".join(lines))
    with pytest.raises(ValueError) as numpy_error:
        np.loadtxt(path, delimiter=",", ndmin=2, skiprows=1)
    with pytest.raises(ValueError) as excinfo:
        read_field_csv(path, g)
    assert str(excinfo.value) == f"{path}: {numpy_error.value}"


def test_field_csv_rejects_wrong_grid(tmp_path):
    g = GridSpec(8, 2, 1.0)
    f = ScalarField.constant(g, 1.0)
    path = tmp_path / "field.csv"
    write_field_csv(f, path)
    with pytest.raises(ValueError):
        read_field_csv(path, GridSpec(10, 2, 1.0))


def test_constant_space_time_field_is_read_only():
    g = GridSpec(4, 6, 1.0)
    field = SpaceTimeField.constant(g, 2.5)
    assert field.values.shape == (7, 5, 5)
    assert np.all(field.values == 2.5)
    with pytest.raises(ValueError):
        field.values[3, 2, 2] = 0.0
    level = field.level(3)
    level.values[2, 2] = 0.0  # a level is a copy
    assert field.values[3, 2, 2] == 2.5
