"""
Grid toolbox: Simpson quadrature, stencils and field files
==========================================================

Exercises the discretization layer on its own: composite Simpson
integration over the unit square, the one-sided/central gradient
stencils, and the CSV field format used by the command line runner.
"""

import pathlib

import numpy as np

from regionopt import (
    GridSpec,
    ScalarField,
    gradient_magnitude,
    read_field_csv,
    simpson_integral_2d,
    write_field_csv,
)

out = pathlib.Path(__file__).with_name("output")
out.mkdir(exist_ok=True)

# Composite Simpson is exact for cubics, so polynomial integrands come
# out to machine precision and smooth ones converge at fourth order.
grid = GridSpec(N=20, M=2, T=1.0)
cubic = ScalarField.from_function(grid, lambda x1, x2: x1**3 + x2**3 - x1 * x2)
print("Simpson on a cubic:", simpson_integral_2d(cubic), "(exact 0.25)")

for N in (10, 20, 40):
    g = GridSpec(N=N, M=2, T=1.0)
    wave = ScalarField.from_function(
        g, lambda x1, x2: np.sin(np.pi * x1) * np.sin(np.pi * x2)
    )
    exact = 4.0 / np.pi**2
    print(f"  N={N:3d}  sine-product error {abs(simpson_integral_2d(wave) - exact):.3e}")

# The gradient-magnitude stencil mixes central differences inside with
# one-sided differences along the boundary frame; on an affine field the
# answer is exact everywhere.
plane = ScalarField.from_function(grid, lambda x1, x2: 3.0 * x1 + 4.0 * x2)
mag = gradient_magnitude(plane)
print("plane |grad| max deviation from 5:", np.abs(mag.values - 5.0).max())

# Fields round-trip through the 17-digit CSV format bit for bit.
path = out / "plane.csv"
write_field_csv(plane, path)
again = read_field_csv(path, grid)
print("CSV round trip exact:", bool(np.all(again.values == plane.values)))
