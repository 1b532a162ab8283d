"""Uniform-grid fields and quadrature on the unit square.

Everything downstream works on the same discretization: the unit square
split into N subintervals per side (nodes x_i = (i-1)h with h = 1/N, so
N+1 nodes per side) and M implicit-Euler levels on [0, T].  This module
holds the shared bookkeeping: the grid description, nodal scalar and
space-time fields, tensor-product composite Simpson quadrature, the
gradient-magnitude stencil with its one-sided boundary closure, the
regularized curvature operator, and the CSV field format used by the
command line runner.

Simpson quadrature requires an even number of subintervals, hence the
parity constraints on N and M.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on the unit square with a matching time axis.

    Attributes
    ----------
    N : int
        Number of subintervals per side; N + 1 nodes per side.  Must be
        even (Simpson) and at least 4.
    M : int
        Number of time steps; M + 1 levels.  Must be even and at least 2.
    T : float
        Final time, T > 0.
    """

    N: int
    M: int
    T: float

    def __post_init__(self):
        if self.N < 4 or self.N % 2 != 0:
            raise ValueError(f"N must be even and >= 4, got {self.N}")
        if self.M < 2 or self.M % 2 != 0:
            raise ValueError(f"M must be even and >= 2, got {self.M}")
        if not (self.T > 0.0):
            raise ValueError(f"T must be positive, got {self.T}")

    @property
    def h(self) -> float:
        return 1.0 / self.N

    @property
    def dt(self) -> float:
        return self.T / self.M

    def nodes(self) -> np.ndarray:
        """Node coordinates along one axis, shape (N + 1,)."""
        return np.arange(self.N + 1) * self.h

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """Meshgrid (X1, X2) with axis 0 = x1, axis 1 = x2."""
        x = self.nodes()
        return np.meshgrid(x, x, indexing="ij")

    def times(self) -> np.ndarray:
        """Time levels t_k = k * dt, shape (M + 1,)."""
        return np.arange(self.M + 1) * self.dt


def _check_values(values: np.ndarray, shape: tuple, what: str) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.shape != shape:
        raise ValueError(f"{what} has shape {values.shape}, expected {shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} contains non-finite entries")
    return values


@dataclass
class ScalarField:
    """Nodal values on the spatial grid, shape (N + 1, N + 1), axis 0 = x1."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        n = self.grid.N + 1
        self.values = _check_values(self.values, (n, n), "ScalarField values")

    @classmethod
    def from_function(cls, grid: GridSpec, f) -> "ScalarField":
        X1, X2 = grid.mesh()
        return cls(grid, np.asarray(f(X1, X2), dtype=float))

    @classmethod
    def constant(cls, grid: GridSpec, value: float) -> "ScalarField":
        n = grid.N + 1
        return cls(grid, np.full((n, n), float(value)))


@dataclass
class SpaceTimeField:
    """Nodal values on all time levels, shape (M + 1, N + 1, N + 1).

    The time index is outermost: values[k] is the spatial field at
    t_k = k * dt for k = 0..M; within a level the layout is row-major
    over (i, j) like ScalarField.
    """

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        n = self.grid.N + 1
        self.values = _check_values(
            self.values, (self.grid.M + 1, n, n), "SpaceTimeField values"
        )

    @classmethod
    def constant(cls, grid: GridSpec, value: float) -> "SpaceTimeField":
        n = grid.N + 1
        return cls(grid, np.full((grid.M + 1, n, n), float(value)))

    def level(self, k: int) -> ScalarField:
        """Spatial field at time level k (0-based)."""
        return ScalarField(self.grid, self.values[k].copy())


def simpson_weights(n_intervals: int, step: float) -> np.ndarray:
    """Composite Simpson weights (step/3) * (1, 4, 2, ..., 2, 4, 1)."""
    if n_intervals < 2 or n_intervals % 2 != 0:
        raise ValueError(
            f"Simpson rule needs an even interval count >= 2, got {n_intervals}"
        )
    w = np.ones(n_intervals + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (step / 3.0)


def simpson_integral_2d(field: ScalarField) -> float:
    """Tensor-product composite Simpson integral over the unit square.

    Each grid row is reduced with the 1-d composite rule
    (h/3) * [f_1 + f_{N+1} + 4 * (odd interior) + 2 * (even interior)]
    and the same rule is applied across rows.
    """
    w = simpson_weights(field.grid.N, field.grid.h)
    return float(w @ field.values @ w)


def gradient_magnitude(field: ScalarField) -> ScalarField:
    """Nodal |grad phi|: central differences inside, one-sided at edges.

    Interior nodes use centered differences in both directions.  Edge
    nodes use the one-sided pair of differences along and across the
    edge; the four corners copy an adjacent edge value.  The corner
    pairing is deliberately asymmetric ((1,1) copies from (2,1) while
    (1,N+1) copies from (1,N), and so on) and is pinned by tests.
    """
    phi = field.values
    h = field.grid.h
    g = np.empty_like(phi)
    g[1:-1, 1:-1] = np.sqrt(
        ((phi[2:, 1:-1] - phi[:-2, 1:-1]) ** 2 + (phi[1:-1, 2:] - phi[1:-1, :-2]) ** 2)
        / (4.0 * h * h)
    )
    g[0, 1:-1] = np.sqrt(
        ((phi[1, 1:-1] - phi[0, 1:-1]) ** 2 + (phi[0, 2:] - phi[0, 1:-1]) ** 2) / (h * h)
    )
    g[-1, 1:-1] = np.sqrt(
        ((phi[-1, 1:-1] - phi[-2, 1:-1]) ** 2 + (phi[-1, 2:] - phi[-1, 1:-1]) ** 2)
        / (h * h)
    )
    g[1:-1, 0] = np.sqrt(
        ((phi[2:, 0] - phi[1:-1, 0]) ** 2 + (phi[1:-1, 1] - phi[1:-1, 0]) ** 2) / (h * h)
    )
    g[1:-1, -1] = np.sqrt(
        ((phi[2:, -1] - phi[1:-1, -1]) ** 2 + (phi[1:-1, -1] - phi[1:-1, -2]) ** 2)
        / (h * h)
    )
    g[0, 0] = g[1, 0]
    g[0, -1] = g[0, -2]
    g[-1, 0] = g[-1, 1]
    g[-1, -1] = g[-1, -2]
    return ScalarField(field.grid, g)


def curvature_divergence(field: ScalarField, eta: float = 1.0e-8) -> ScalarField:
    """div(grad phi / sqrt(|grad phi|^2 + eta^2)) at every node.

    The gradient is normalized with the eta safeguard so flat regions
    stay finite, then the divergence is taken with centered differences
    (one-sided at the boundary nodes).  For a level set that is positive
    inside a disc of radius R the value on the interface is -1/R: the
    normalized gradient points inward there.
    """
    if eta <= 0.0:
        raise ValueError(f"eta must be positive, got {eta}")
    h = field.grid.h
    gx, gy = np.gradient(field.values, h, edge_order=1)
    norm = np.sqrt(gx * gx + gy * gy + eta * eta)
    n1 = gx / norm
    n2 = gy / norm
    div = np.gradient(n1, h, axis=0, edge_order=1) + np.gradient(
        n2, h, axis=1, edge_order=1
    )
    return ScalarField(field.grid, div)


def write_field_csv(field: ScalarField, path) -> None:
    """Write a field as CSV rows x1,x2,value with 17 significant digits."""
    x = [f"{v:.17g}," for v in field.grid.nodes().tolist()]
    values = [f"{v:.17g}\n" for v in field.values.ravel().tolist()]
    rows = [xi + xj for xi in x for xj in x]
    with open(path, "w") as fh:
        fh.write("x1,x2,value\n" + "".join(map(str.__add__, rows, values)))


def read_field_csv(path, grid: GridSpec) -> ScalarField:
    """Read a field written by write_field_csv, validating the node layout."""
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "x1,x2,value":
            raise ValueError(f"{path}: expected header 'x1,x2,value', got {header!r}")
        raw = np.loadtxt(fh, delimiter=",", ndmin=2)
    n = grid.N + 1
    if raw.shape != (n * n, 3):
        raise ValueError(
            f"{path}: expected {n * n} rows for N={grid.N}, got {raw.shape[0]}"
        )
    x = grid.nodes()
    X1, X2 = grid.mesh()
    if not (
        np.allclose(raw[:, 0].reshape(n, n), X1, atol=1e-12)
        and np.allclose(raw[:, 1].reshape(n, n), X2, atol=1e-12)
    ):
        raise ValueError(f"{path}: node coordinates do not match the grid")
    return ScalarField(grid, raw[:, 2].reshape(n, n))
