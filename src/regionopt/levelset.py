"""Level-set representation of the control region.

The region omega is carried implicitly as {x : phi(x) > 0} for a nodal
level-set function phi.  Sharp geometric quantities are replaced by
mollified ones built from the arctan-regularized Heaviside

    H_eps(t) = (1/2) * (1 + (2/pi) * arctan(t / eps))

and its derivative delta_eps(t) = eps / (pi * (eps^2 + t^2)): the region
area is the integral of H_eps(phi) and the interface length is the
integral of delta_eps(phi) * |grad phi|.  Note that delta_eps has heavy
tails, so both quantities approach their sharp limits only slowly as
eps -> 0; tests pin the approach against an analytic radial oracle.

evolve_phi performs one step of the descent flow

    d phi / d theta = delta_eps(phi) * (alpha * curvature + velocity)

treating the curvature term implicitly with coefficients frozen at the
current iterate (a linear solve per step, unconditionally stable) and
the remaining velocity explicitly.  The flow keeps the homogeneous
Neumann condition through zero-flux closure of the curvature operator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve

from .errors import SolverFailure
from .grid import GridSpec, ScalarField, gradient_magnitude, simpson_integral_2d


@dataclass(frozen=True)
class Mollifier:
    """Regularization width eps > 0 for the smoothed Heaviside/delta pair."""

    eps: float

    def __post_init__(self):
        if not (self.eps > 0.0):
            raise ValueError(f"mollifier width must be positive, got {self.eps}")


@dataclass
class LevelSetFunction:
    """A level-set function phi on the grid; the region is {phi > 0}."""

    phi: ScalarField

    @property
    def grid(self) -> GridSpec:
        return self.phi.grid

    @classmethod
    def from_function(cls, grid: GridSpec, f) -> "LevelSetFunction":
        return cls(ScalarField.from_function(grid, f))

    def region_mask(self) -> np.ndarray:
        """Boolean indicator of {phi > 0} at the nodes (strict)."""
        return self.phi.values > 0.0


def heaviside_mollified(z, m: Mollifier):
    """Smoothed Heaviside (1/2)(1 + (2/pi) arctan(z/eps)); maps into (0, 1)."""
    return 0.5 * (1.0 + (2.0 / np.pi) * np.arctan(np.asarray(z, dtype=float) / m.eps))


def delta_mollified(z, m: Mollifier):
    """Smoothed Dirac eps / (pi (eps^2 + z^2)); peak value 1/(pi eps) at 0."""
    z = np.asarray(z, dtype=float)
    return m.eps / (np.pi * (m.eps * m.eps + z * z))


def region_area(phi: LevelSetFunction, m: Mollifier) -> float:
    """Mollified area of {phi > 0}: Simpson integral of H_eps(phi)."""
    return simpson_integral_2d(
        ScalarField(phi.grid, heaviside_mollified(phi.phi.values, m))
    )


def region_length(phi: LevelSetFunction, m: Mollifier) -> float:
    """Mollified interface length: Simpson integral of delta_eps(phi)|grad phi|."""
    g = gradient_magnitude(phi.phi)
    return simpson_integral_2d(
        ScalarField(phi.grid, delta_mollified(phi.phi.values, m) * g.values)
    )


def _face_coefficients(phi: np.ndarray, h: float, eta: float):
    """1/sqrt(|grad phi|^2 + eta^2) on east and north cell faces.

    The face gradient takes the difference across the face and averages
    the central tangential differences of the two adjacent nodes, so the
    assembled operator is symmetric.
    """
    gx, gy = np.gradient(phi, h, edge_order=1)
    # east faces between (i, j) and (i+1, j)
    dx_e = (phi[1:, :] - phi[:-1, :]) / h
    ty_e = 0.5 * (gy[1:, :] + gy[:-1, :])
    c_e = 1.0 / np.sqrt(dx_e * dx_e + ty_e * ty_e + eta * eta)
    # north faces between (i, j) and (i, j+1)
    dy_n = (phi[:, 1:] - phi[:, :-1]) / h
    tx_n = 0.5 * (gx[:, 1:] + gx[:, :-1])
    c_n = 1.0 / np.sqrt(dy_n * dy_n + tx_n * tx_n + eta * eta)
    return c_e, c_n


def evolve_phi(
    phi: LevelSetFunction,
    velocity: ScalarField,
    theta: float,
    m: Mollifier,
    alpha: float = 0.0,
    eta: float = 1.0e-8,
) -> LevelSetFunction:
    """One semi-implicit step of the level-set descent flow.

    Solves (I - theta * D * alpha * Lcurv) phi' = phi + theta * D * velocity
    where D = diag(delta_eps(phi)) and Lcurv is the zero-flux divergence
    form of the curvature operator with coefficients frozen at phi.  With
    alpha = 0 the update is the explicit pointwise one.

    Parameters
    ----------
    theta : float
        Step size theta > 0.
    alpha : float
        Weight of the implicit curvature term, alpha >= 0.
    """
    if not (theta > 0.0):
        raise ValueError(f"step size must be positive, got {theta}")
    if alpha < 0.0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    if velocity.grid != phi.grid:
        raise ValueError("velocity and phi live on different grids")
    grid = phi.grid
    h = grid.h
    p = phi.phi.values
    delta = delta_mollified(p, m)
    rhs = (p + theta * delta * velocity.values).ravel()

    if alpha == 0.0:
        out = rhs.reshape(p.shape)
        return LevelSetFunction(ScalarField(grid, out.copy()))

    n_side = grid.N + 1
    n = n_side * n_side
    c_e, c_n = _face_coefficients(p, h, eta)
    scale = theta * alpha * delta / (h * h)

    # flux couplings; boundary faces are omitted (zero flux)
    east = np.zeros((n_side, n_side))
    west = np.zeros((n_side, n_side))
    north = np.zeros((n_side, n_side))
    south = np.zeros((n_side, n_side))
    east[:-1, :] = c_e
    west[1:, :] = c_e
    north[:, :-1] = c_n
    south[:, 1:] = c_n

    diag = 1.0 + scale * (east + west + north + south)
    a = sparse.diags(
        [
            diag.ravel(),
            -(scale * east)[:-1, :].ravel(),
            -(scale * west)[1:, :].ravel(),
            -(scale * north).ravel()[:-1],
            -(scale * south).ravel()[1:],
        ],
        [0, n_side, -n_side, 1, -1],
        shape=(n, n),
        format="csr",
    )
    out = spsolve(a, rhs)
    if not np.all(np.isfinite(out)):
        raise SolverFailure("implicit level-set step produced non-finite values")
    return LevelSetFunction(ScalarField(grid, out.reshape(p.shape)))


def write_region_pgm(phi: LevelSetFunction, path) -> None:
    """Write {phi > 0} as an ASCII PGM (P2) mask, 255 inside and 0 outside.

    One pixel per node; pixel rows run over j increasing top to bottom,
    pixels within a row over i.
    """
    mask = phi.region_mask()
    n = phi.grid.N + 1
    lines = ["P2", f"{n} {n}", "255"]
    for j in range(n):
        lines.append(" ".join("255" if mask[i, j] else "0" for i in range(n)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def circle_levelset(grid: GridSpec, radius: float = 0.25, center=(0.5, 0.5)) -> LevelSetFunction:
    """Signed-distance-like disc initializer radius - dist(x, center)."""
    cx, cy = center
    return LevelSetFunction.from_function(
        grid, lambda x1, x2: radius - np.sqrt((x1 - cx) ** 2 + (x2 - cy) ** 2)
    )


def checkerboard_levelset(grid: GridSpec) -> LevelSetFunction:
    """Checkerboard initializer sin(3 pi x1) * sin(3 pi x2)."""
    return LevelSetFunction.from_function(
        grid, lambda x1, x2: np.sin(3.0 * np.pi * x1) * np.sin(3.0 * np.pi * x2)
    )
