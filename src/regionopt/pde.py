"""Implicit-Euler solvers for the harvested reaction-diffusion model.

The state equation on the unit square with homogeneous Neumann data,

    dy/dt - d lap y = a(x) y - H_eps(phi) u y,      y(x, 0) = y0(x),

its backward adjoint and the forward sensitivity equation are all
discretized the same way: implicit Euler in time and the five-point
Laplacian in space, with the boundary condition folded in by copying
each boundary node from its interior neighbor.  Eliminating the boundary
leaves one linear system per time step for the (N-1)^2 interior nodes

    (1 + c lam + E1) v_ij - lam * (interior neighbors) = rhs_ij,

with lam = d dt / h^2, E1 the per-node reaction coefficient times dt,
and c the number of interior neighbors (2 at interior-block corners, 3
along its edges, 4 in the middle).  Unknowns are ordered row-major,
v_22, v_23, ..., v_2N, v_32, ..., so each row has at most five nonzeros
at offsets {0, +-1, +-(N-1)}: a banded system solved by banded
elimination (LAPACK) in the production path; tests check it against a
dense Gaussian-elimination oracle.

Nonlinear reaction terms are lagged at the previously computed time
level, so every step stays linear.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .errors import SolverFailure
from .grid import GridSpec, ScalarField, SpaceTimeField
from .levelset import (
    LevelSetFunction,
    Mollifier,
    delta_mollified,
    heaviside_mollified,
)


@dataclass
class ControlProblemParams:
    """Model data and loop settings for the harvest problem.

    Attributes
    ----------
    d : float
        Diffusion coefficient, d > 0.
    a : ScalarField
        Intrinsic growth rate a(x).
    y0 : ScalarField
        Initial density, y0 >= 0 and not identically zero.
    L : float
        Harvesting effort bound, u in [0, L].
    alpha, beta : float
        Interface-length and region-area penalty weights, >= 0.
    mollifier : Mollifier
        Regularization used for both phi and 1 + p.
    eps1, eps2 : float
        Stopping tolerances on the cost decrement and the L2 change of
        phi in the outer loop.
    theta0 : float
        Initial descent step size.
    """

    d: float
    a: ScalarField
    y0: ScalarField
    L: float
    alpha: float
    beta: float
    mollifier: Mollifier
    eps1: float = 1.0e-3
    eps2: float = 1.0e-3
    theta0: float = 0.05

    def __post_init__(self):
        if not (self.d > 0.0):
            raise ValueError(f"d must be positive, got {self.d}")
        if self.L < 0.0:
            raise ValueError(f"L must be nonnegative, got {self.L}")
        if self.alpha < 0.0 or self.beta < 0.0:
            raise ValueError("penalty weights must be nonnegative")
        if self.a.grid != self.y0.grid:
            raise ValueError("a and y0 live on different grids")
        if np.any(self.y0.values < 0.0) or not np.any(self.y0.values > 0.0):
            raise ValueError("y0 must be nonnegative and not identically zero")

    @property
    def grid(self) -> GridSpec:
        return self.a.grid

    @property
    def lam(self) -> float:
        g = self.grid
        return self.d * g.dt / (g.h * g.h)


@dataclass
class BandedSystem:
    """One interior-node system in diagonal-ordered banded storage.

    Row q <-> interior node (i, j) through q = (i-2)(N-1) + (j-1) with
    1-based i, j; ab follows the LAPACK layout ab[bw + q - c, c] = A[q, c]
    with bandwidth bw = N - 1.
    """

    n: int
    bandwidth: int
    ab: np.ndarray
    rhs: np.ndarray

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        bw = self.bandwidth
        for off in range(-bw, bw + 1):
            row = bw - off
            if off >= 0:
                np.fill_diagonal(a[:, off:], self.ab[row, off:])
            else:
                np.fill_diagonal(a[-off:, :], self.ab[row, : self.n + off])
        return a

    def matvec(self, x: np.ndarray) -> np.ndarray:
        y = np.zeros_like(x)
        bw = self.bandwidth
        for off in (0, 1, -1, bw, -bw):
            row = bw - off
            if off >= 0:
                y[: self.n - off] += self.ab[row, off:] * x[off:]
            else:
                y[-off:] += self.ab[row, : self.n + off] * x[: self.n + off]
        return y


def interior_step_diagonals(N: int, lam: float, e1_interior: np.ndarray):
    """Raw five-band diagonals of the step matrix for any N >= 3.

    Returns (main, off1, offb): the main diagonal 1 + c lam + E1, the
    +-1 diagonal (j-neighbors, zeroed across block boundaries) and the
    +-(N-1) diagonal (i-neighbors).  Kept separate from the validated
    grid path so the small-N structure stays testable.
    """
    if N < 3:
        raise ValueError(f"interior block needs N >= 3, got {N}")
    n1 = N - 1
    e1 = np.asarray(e1_interior, dtype=float)
    if e1.shape != (n1, n1):
        raise ValueError(f"reaction block has shape {e1.shape}, expected {(n1, n1)}")
    inner = np.zeros(n1)
    inner[1:] += 1.0
    inner[:-1] += 1.0
    deg = inner[:, None] + inner[None, :]
    main = 1.0 + lam * deg.ravel() + e1.ravel()
    n = n1 * n1
    off1 = np.full(n - 1, -lam)
    off1[n1 - 1 :: n1] = 0.0
    offb = np.full(n - n1, -lam)
    return main, off1, offb


def _banded_template(N: int, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Banded storage with off-diagonals filled; main diagonal to be set."""
    n1 = N - 1
    n = n1 * n1
    main, off1, offb = interior_step_diagonals(N, lam, np.zeros((n1, n1)))
    ab = np.zeros((2 * n1 + 1, n))
    ab[n1 - 1, 1:] = off1
    ab[n1 + 1, :-1] = off1
    ab[0, n1:] = offb
    ab[2 * n1, : n - n1] = offb
    base_main = main - 1.0  # lam * degree part; caller adds 1 + E1
    return ab, base_main


def assemble_step_matrix(params: ControlProblemParams, reaction: ScalarField) -> BandedSystem:
    """Build the banded step matrix for a per-node reaction coefficient.

    `reaction` holds the E1 values (dt times the implicit reaction part)
    on the full grid; only its interior block enters the matrix.
    """
    if reaction.grid != params.grid:
        raise ValueError("reaction field is not on the problem grid")
    N = params.grid.N
    main, off1, offb = interior_step_diagonals(
        N, params.lam, reaction.values[1:-1, 1:-1]
    )
    n1 = N - 1
    n = n1 * n1
    ab = np.zeros((2 * n1 + 1, n))
    ab[n1, :] = main
    ab[n1 - 1, 1:] = off1
    ab[n1 + 1, :-1] = off1
    ab[0, n1:] = offb
    ab[2 * n1, : n - n1] = offb
    return BandedSystem(n=n, bandwidth=n1, ab=ab, rhs=np.zeros(n))


def linear_solve(system: BandedSystem) -> np.ndarray:
    """Solve the banded system and verify the residual.

    Raises SolverFailure when elimination breaks down or the residual
    exceeds 1e-10 relative to the right-hand side.
    """
    try:
        x = solve_banded(
            (system.bandwidth, system.bandwidth), system.ab, system.rhs
        )
    except np.linalg.LinAlgError as exc:
        raise SolverFailure(f"banded elimination failed: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise SolverFailure("banded elimination produced non-finite values")
    scale = max(np.abs(system.rhs).max(), 1.0)
    resid = np.abs(system.matvec(x) - system.rhs).max()
    if resid > 1.0e-10 * scale:
        raise SolverFailure(
            f"linear solve residual {resid:.3e} exceeds 1e-10 * {scale:.3e}"
        )
    return x


def _complete_with_ghost(interior: np.ndarray, N: int) -> np.ndarray:
    """Extend interior values to the full grid by the Neumann ghost copy."""
    full = np.empty((N + 1, N + 1))
    full[1:-1, 1:-1] = interior
    full[0, 1:-1] = interior[0]
    full[-1, 1:-1] = interior[-1]
    full[:, 0] = full[:, 1]
    full[:, -1] = full[:, -2]
    return full


class _ImplicitStepper:
    """Reusable one-step solver; only the main diagonal changes per step."""

    def __init__(self, N: int, lam: float):
        self.N = N
        self.n1 = N - 1
        self.ab, self.base_main = _banded_template(N, lam)

    def step(self, e1_interior: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        self.ab[self.n1, :] = 1.0 + self.base_main + e1_interior.ravel()
        sys = BandedSystem(
            n=self.n1 * self.n1, bandwidth=self.n1, ab=self.ab, rhs=rhs.ravel()
        )
        return linear_solve(sys).reshape(self.n1, self.n1)


def _check_nonnegative(level: np.ndarray, k: int, what: str) -> None:
    low = level.min()
    if low < -1.0e-12:
        raise SolverFailure(
            f"{what} lost positivity at time level {k}: min = {low:.3e}"
        )


def solve_adjoint(phi: LevelSetFunction, params: ControlProblemParams) -> SpaceTimeField:
    """Backward adjoint solve with terminal value zero.

    Marching down from t = T, each step solves the implicit system with
    reaction E1 = dt * (-a) and right-hand side p^{k+1} - G, where the
    source G = dt * L * H_eps(phi) (1 + p^{k+1}) H_eps(1 + p^{k+1}) is
    lagged at the previously computed level.
    """
    grid = params.grid
    if phi.grid != grid:
        raise ValueError("phi is not on the problem grid")
    m = params.mollifier
    dt = grid.dt
    hphi = heaviside_mollified(phi.phi.values[1:-1, 1:-1], m)
    e1 = dt * (-params.a.values[1:-1, 1:-1])
    stepper = _ImplicitStepper(grid.N, params.lam)
    n = grid.N + 1
    p = np.empty((grid.M + 1, n, n))
    p[grid.M] = 0.0
    for k in range(grid.M - 1, -1, -1):
        prev = p[k + 1][1:-1, 1:-1]
        shifted = 1.0 + prev
        g = dt * params.L * hphi * shifted * heaviside_mollified(shifted, m)
        sol = stepper.step(e1, prev - g)
        p[k] = _complete_with_ghost(sol, grid.N)
    return SpaceTimeField(grid, p)


def solve_sensitivity(
    phi: LevelSetFunction, adjoint: SpaceTimeField, params: ControlProblemParams
) -> SpaceTimeField:
    """Forward sensitivity solve started from y0.

    The reaction combines growth with the two adjoint-coupling terms,
    E1 = dt * (-a + L H_eps(phi) [H_eps(1+p) + (1+p) delta_eps(1+p)]),
    evaluated at the target time level of each step.
    """
    grid = params.grid
    if phi.grid != grid or adjoint.grid != grid:
        raise ValueError("phi/adjoint are not on the problem grid")
    m = params.mollifier
    dt = grid.dt
    hphi = heaviside_mollified(phi.phi.values[1:-1, 1:-1], m)
    a_int = params.a.values[1:-1, 1:-1]
    stepper = _ImplicitStepper(grid.N, params.lam)
    n = grid.N + 1
    r = np.empty((grid.M + 1, n, n))
    r[0] = params.y0.values
    for k in range(grid.M):
        shifted = 1.0 + adjoint.values[k + 1][1:-1, 1:-1]
        coupling = params.L * hphi * (
            heaviside_mollified(shifted, m)
            + shifted * delta_mollified(shifted, m)
        )
        e1 = dt * (-a_int + coupling)
        sol = stepper.step(e1, r[k][1:-1, 1:-1])
        _check_nonnegative(sol, k + 1, "sensitivity")
        r[k + 1] = _complete_with_ghost(sol, grid.N)
    return SpaceTimeField(grid, r)


def solve_forward(
    phi: LevelSetFunction,
    control: SpaceTimeField,
    params: ControlProblemParams,
    forcing: SpaceTimeField | None = None,
) -> SpaceTimeField:
    """Forward state solve under a given control effort field.

    The control must satisfy 0 <= u <= L everywhere; it acts through the
    mollified region indicator as the removal rate H_eps(phi) u.  The
    optional forcing adds a source term (used by the convergence tests).
    """
    grid = params.grid
    if phi.grid != grid or control.grid != grid:
        raise ValueError("phi/control are not on the problem grid")
    if forcing is not None and forcing.grid != grid:
        raise ValueError("forcing is not on the problem grid")
    if np.any(control.values < 0.0) or np.any(control.values > params.L + 1e-12):
        raise ValueError("control must lie in [0, L]")
    m = params.mollifier
    dt = grid.dt
    hphi = heaviside_mollified(phi.phi.values[1:-1, 1:-1], m)
    a_int = params.a.values[1:-1, 1:-1]
    stepper = _ImplicitStepper(grid.N, params.lam)
    n = grid.N + 1
    y = np.empty((grid.M + 1, n, n))
    y[0] = params.y0.values
    for k in range(grid.M):
        e1 = dt * (-a_int + hphi * control.values[k + 1][1:-1, 1:-1])
        rhs = y[k][1:-1, 1:-1].copy()
        if forcing is not None:
            rhs += dt * forcing.values[k + 1][1:-1, 1:-1]
        sol = stepper.step(e1, rhs)
        if forcing is None:
            _check_nonnegative(sol, k + 1, "state")
        y[k + 1] = _complete_with_ghost(sol, grid.N)
    return SpaceTimeField(grid, y)


def bang_bang_control(
    adjoint: SpaceTimeField, params: ControlProblemParams
) -> SpaceTimeField:
    """Optimal effort from the adjoint sign: L where 1 + p >= 0, else 0."""
    values = np.where(1.0 + adjoint.values >= 0.0, params.L, 0.0)
    return SpaceTimeField(adjoint.grid, values)
