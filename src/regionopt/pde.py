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
along its edges, 4 in the middle).  In matrix form this is
(I + lam L + diag(E1)) v = rhs, where L is the graph Laplacian of the
interior grid with Neumann closure.  The DCT-II diagonalizes L exactly,
so the step solver runs conjugate gradients on the five-point stencil,
preconditioned by the exact inverse at the mean diagonal 1 + mean(E1),
applied through the DCT matrix.  It solves a whole batch of blocks at
once (all age levels of one time step); tests check it against a dense
Gaussian-elimination oracle.

Nonlinear reaction terms are lagged at the previously computed time
level, so every step stays linear.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverFailure
from .grid import GridSpec, ScalarField, SpaceTimeField
from .levelset import (
    LevelSetFunction,
    Mollifier,
    delta_mollified,
    heaviside_mollified,
)

CG_TOL = 1.0e-13
CG_MAX_ITER = 100


@dataclass
class ControlProblemParams:
    """Model data of the harvest problem.

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
    """

    d: float
    a: ScalarField
    y0: ScalarField
    L: float
    alpha: float
    beta: float
    mollifier: Mollifier

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


def interior_step_diagonals(N: int, lam: float, e1_interior: np.ndarray):
    """Raw five-band diagonals of the step matrix for any N >= 3.

    Returns (main, off1, offb): the main diagonal 1 + c lam + E1, the
    +-1 diagonal (j-neighbors, zeroed across block boundaries) and the
    +-(N-1) diagonal (i-neighbors).  The step solver takes its main
    diagonal at E1 = 0; eigen_operator_matrix assembles all five bands.
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


def dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II matrix; its rows are the eigenvectors of the
    Neumann path Laplacian of n nodes, with eigenvalues 4 sin^2(pi k / 2n)."""
    k = np.arange(n)[:, None]
    q = np.sqrt(2.0 / n) * np.cos(np.pi * k * (2 * np.arange(n) + 1) / (2 * n))
    q[0] /= np.sqrt(2.0)
    return q


class _ImplicitStepper:
    """Step solver for one (N-1)^2 interior block or a batch of them.

    The operator is applied as a five-point stencil; blocks are the last
    two axes, any leading axis is a batch of independent systems.
    """

    def __init__(self, N: int, lam: float):
        n1 = N - 1
        self.lam = lam
        main = interior_step_diagonals(N, lam, np.zeros((n1, n1)))[0]
        self.main = main.reshape(n1, n1)
        self.q = dct_matrix(n1)
        eig = 4.0 * np.sin(0.5 * np.pi * np.arange(n1) / n1) ** 2
        self.lap_eigs = lam * (eig[:, None] + eig[None, :])

    def apply(self, e1: np.ndarray, x: np.ndarray) -> np.ndarray:
        """The product (I + lam L + diag(E1)) x."""
        lam = self.lam
        y = (self.main + e1) * x
        y[..., 1:, :] -= lam * x[..., :-1, :]
        y[..., :-1, :] -= lam * x[..., 1:, :]
        y[..., :, 1:] -= lam * x[..., :, :-1]
        y[..., :, :-1] -= lam * x[..., :, 1:]
        return y

    def precondition(self, shift: np.ndarray, r: np.ndarray) -> np.ndarray:
        """The exact inverse of shift I + lam L applied to r, in the DCT basis."""
        q = self.q
        return q.T @ ((q @ r @ q.T) / (shift + self.lap_eigs)) @ q

    def step(self, e1: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        return linear_solve(self, e1, rhs)[0]


def linear_solve(stepper: _ImplicitStepper, e1: np.ndarray, rhs: np.ndarray):
    """Solve (I + lam L + diag(E1)) v = rhs by preconditioned CG.

    The preconditioner is the exact inverse at the mean diagonal
    1 + mean(E1), so a uniform E1 is solved by the initial guess alone.
    Each batch member has its own reductions and stops once its max-norm
    residual is at most CG_TOL * max(|rhs|, 1).  Returns (v, iterations).
    Raises SolverFailure on non-finite values, after CG_MAX_ITER
    iterations, or when the true residual exceeds 1e-10 * max(|rhs|, 1).
    """
    axes = (-2, -1)
    scale = np.maximum(np.abs(rhs).max(axis=axes, keepdims=True), 1.0)
    shift = 1.0 + np.mean(e1, axis=axes, keepdims=True)
    x = stepper.precondition(shift, rhs)
    r = rhs - stepper.apply(e1, x)
    p = stepper.precondition(shift, r)
    rz = np.sum(r * p, axis=axes, keepdims=True)
    iterations = 0
    while True:
        rmax = np.abs(r).max(axis=axes, keepdims=True)
        if not np.all(np.isfinite(rmax)):
            raise SolverFailure("conjugate gradients produced non-finite values")
        active = rmax > CG_TOL * scale
        if not active.any():
            break
        if iterations == CG_MAX_ITER:
            raise SolverFailure(
                f"conjugate gradients did not converge in {CG_MAX_ITER} "
                f"iterations: relative residual {(rmax / scale).max():.3e}"
            )
        ap = stepper.apply(e1, p)
        pap = np.sum(p * ap, axis=axes, keepdims=True)
        alpha = np.divide(rz, pap, out=np.zeros_like(rz), where=active)
        x = x + alpha * p
        r = r - alpha * ap
        z = stepper.precondition(shift, r)
        rz_new = np.sum(r * z, axis=axes, keepdims=True)
        beta = np.divide(rz_new, rz, out=np.zeros_like(rz), where=active)
        p = z + beta * p
        rz = rz_new
        iterations += 1
    resid = np.abs(stepper.apply(e1, x) - rhs).max(axis=axes, keepdims=True)
    resid = (resid / scale).max()
    if resid > 1.0e-10:
        raise SolverFailure(f"linear solve relative residual {resid:.3e} exceeds 1e-10")
    return x, iterations


def _complete_with_ghost(interior: np.ndarray, N: int) -> np.ndarray:
    """Extend interior values to the full grid by the Neumann ghost copy."""
    full = np.empty(interior.shape[:-2] + (N + 1, N + 1))
    full[..., 1:-1, 1:-1] = interior
    full[..., 0, 1:-1] = interior[..., 0, :]
    full[..., -1, 1:-1] = interior[..., -1, :]
    full[..., :, 0] = full[..., :, 1]
    full[..., :, -1] = full[..., :, -2]
    return full


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
