"""Uniform-grid fields and quadrature on the unit square.

Everything downstream works on the same discretization: the unit square
split into N subintervals per side (nodes x_i = (i-1)h with h = 1/N, so
N+1 nodes per side) and M implicit-Euler levels on [0, T].  This module
holds the shared bookkeeping: the grid description (whose whole-number
check and number rule every model type's fields share), nodal scalar and
space-time fields, tensor-product composite Simpson quadrature, the
gradient-magnitude stencil with its one-sided boundary closure, and the
CSV node tables (fields on the grid, samples on the age grid) read and
written by the command line runner.

Simpson quadrature requires an even number of subintervals, hence the
parity constraints on N and M.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import FieldError


def _integer(value, field: str) -> int:
    """A constructor's integer field as an int; FieldError naming the field
    unless value is a whole number."""
    try:
        if int(value) == value:
            return int(value)
    except (OverflowError, ValueError):  # int(inf), int(nan)
        pass
    raise FieldError(field, f"must be an integer, got {value}")


def _bounded(value, field: str, positive: bool = False) -> None:
    """The number rule of every real field of the model types: FieldError
    naming the field unless value is finite and >= 0 (> 0 if positive)."""
    if not (value > 0.0 if positive else value >= 0.0):
        bound = "positive" if positive else "nonnegative"
        raise FieldError(field, f"must be {bound}, got {value}")
    if value == np.inf:
        raise FieldError(field, "must be finite, got inf")


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
        N and M must be whole numbers; an integral float is stored as int.
    T : float
        Final time; by the number rule (_bounded), finite and > 0.
    """

    N: int
    M: int
    T: float

    def __post_init__(self):
        for name in ("N", "M"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.N < 4 or self.N % 2 != 0:
            raise FieldError("N", f"must be even and >= 4, got {self.N}")
        if self.M < 2 or self.M % 2 != 0:
            raise FieldError("M", f"must be even and >= 2, got {self.M}")
        _bounded(self.T, "T", positive=True)

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
        """The field equal to value on every node and level.

        Its values are a read-only np.broadcast_to view of one number,
        so it allocates nothing of space-time size; writing into it
        raises ValueError.
        """
        n = grid.N + 1
        return cls(grid, np.broadcast_to(float(value), (grid.M + 1, n, n)))

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
    nodes use forward differences along both axes, backward ones on the
    last row and column; the four corners copy an adjacent edge value.
    The corner pairing is deliberately asymmetric ((1,1) copies from
    (2,1) while (1,N+1) copies from (1,N), and so on) and is pinned by
    tests.
    """
    phi = field.values
    h = field.grid.h
    dx = np.diff(phi, axis=0)
    dy = np.diff(phi, axis=1)
    dx = np.concatenate((dx, dx[-1:]), axis=0)
    dy = np.concatenate((dy, dy[:, -1:]), axis=1)
    g = np.sqrt((dx**2 + dy**2) / (h * h))
    g[1:-1, 1:-1] = np.sqrt(
        ((phi[2:, 1:-1] - phi[:-2, 1:-1]) ** 2 + (phi[1:-1, 2:] - phi[1:-1, :-2]) ** 2)
        / (4.0 * h * h)
    )
    g[0, 0] = g[1, 0]
    g[0, -1] = g[0, -2]
    g[-1, 0] = g[-1, 1]
    g[-1, -1] = g[-1, -2]
    return ScalarField(field.grid, g)


def write_field_csv(field: ScalarField, path) -> None:
    """Write a field as CSV rows x1,x2,value with 17 significant digits."""
    x = [f"{v:.17g}," for v in field.grid.nodes().tolist()]
    # One template holds every row's coordinates; one % fills in the values.
    # The rows of x1 = xi are xi + xj + "%.17g\n" over j, so xi.join(tails).
    tails = [xj + "%.17g\n" for xj in x]
    template = "x1,x2,value\n" + "".join([xi + xi.join(tails) for xi in x])
    with open(path, "w") as fh:
        fh.write(template % tuple(field.values.ravel().tolist()))


def _bad_row(lines, width):
    """Why the first data row (file line 2 on) fails to parse; None if none does."""
    for number, line in enumerate(lines, start=2):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue  # loadtxt skips blank and comment lines too
        cells = text.split(",")
        if len(cells) != width:
            return f"line {number}: expected {width} cells, got {len(cells)}"
        for cell in cells:
            try:
                float(cell)
            except ValueError:
                return f"line {number}: could not convert {cell.strip()!r} to a number"
    return None


def read_node_csv(path, names, nodes) -> np.ndarray:
    """Read a ``names...,value`` CSV table with one row per node in C order.

    Each coordinate column must match its node array to within
    ``np.allclose(..., atol=1e-12)``; the value column comes back in the
    nodes' shape, as an array of its own (base None): a view would keep
    the whole parsed table alive for as long as the field lives.  A bad
    table raises ValueError naming the path (and the file line of a row
    that does not parse); a file that cannot be read or decoded raises
    OSError or UnicodeDecodeError.
    """
    header = ",".join((*names, "value"))
    with open(path) as fh:
        got = fh.readline().strip()
    if got != header:
        raise ValueError(f"{path}: expected header {header!r}, got {got!r}")
    try:
        with warnings.catch_warnings():
            # A table with no rows fails the row count below instead.
            warnings.simplefilter("ignore", UserWarning)
            # Given a path, not a handle, NumPy's C reader takes the file in chunks.
            raw = np.loadtxt(path, delimiter=",", ndmin=2, skiprows=1)
    except UnicodeDecodeError:
        raise
    except ValueError as exc:
        # Name the file line of the row that does not parse.
        with open(path) as fh:
            fh.readline()
            raise ValueError(f"{path}: {_bad_row(fh, len(names) + 1) or exc}") from None
    shape = np.shape(nodes[0])
    rows, cols = int(np.prod(shape)), len(names) + 1
    if raw.shape != (rows, cols):
        raise ValueError(
            f"{path}: expected {rows} rows of {cols} columns, "
            f"got {raw.shape[0]} of {raw.shape[1]}"
        )
    for name, column, node in zip(names, raw.T, nodes):
        if not np.allclose(column, np.ravel(node), atol=1e-12):
            raise ValueError(f"{path}: {name} coordinates do not match the grid")
    return raw[:, -1].reshape(shape).copy()


def read_field_csv(path, grid: GridSpec) -> ScalarField:
    """Read a field written by write_field_csv, validating the node layout."""
    return ScalarField(grid, read_node_csv(path, ("x1", "x2"), grid.mesh()))
