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
Gaussian-elimination oracle.  The interior block is private to this
module: the step solver takes and returns full-grid levels and fills in
the Neumann ghost nodes, and interior_operator assembles lam L + diag(c)
as a sparse matrix (the eigenvalue operator of the agestruct module).

Nonlinear reaction terms are lagged at the previously computed time
level, so every step stays linear.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

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

    def check_time_step(self) -> None:
        """Raise ValueError unless dt * a < 1 on interior nodes (M-matrix step)."""
        grid = self.grid
        a_max = float(self.a.values[1:-1, 1:-1].max())
        if grid.dt * a_max >= 1.0:
            bound = grid.T * a_max  # grid.M must exceed it
            need = f"grid.M > grid.T * max(a) = {bound:.6g}"
            if bound < 2.0**52:  # beyond, M += 2 no longer changes T / M
                M = 2 * int(bound / 2.0) + 2
                while grid.T / M * a_max >= 1.0:
                    M += 2
                need = f"grid.M >= {M}"
            raise ValueError(
                f"dt * max(a) = grid.T / grid.M * max(a) is {grid.dt * a_max:.6g} "
                f">= 1: the implicit step loses positivity; use {need}"
            )


def _neighbor_count(n1: int) -> np.ndarray:
    """Number of interior neighbors of each node of the (n1, n1) interior block."""
    inner = np.zeros(n1)
    inner[1:] += 1.0
    inner[:-1] += 1.0
    return inner[:, None] + inner[None, :]


def interior_operator(lam: float, c: np.ndarray) -> sparse.csc_matrix:
    """Sparse lam L + diag(c) on the interior nodes of the full-grid field c.

    L is the Neumann graph Laplacian of the interior block, assembled as
    five bands: the main diagonal lam * (neighbor count) + c, the +-1
    diagonal (j-neighbors, zeroed across block rows) and the +-(N-1)
    diagonal (i-neighbors).
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1] or c.shape[0] < 4:
        raise ValueError(f"need a square full-grid field with N >= 3, got {c.shape}")
    n1 = c.shape[0] - 2
    main = lam * _neighbor_count(n1).ravel() + c[1:-1, 1:-1].ravel()
    off1 = np.full(n1 * n1 - 1, -lam)
    off1[n1 - 1 :: n1] = 0.0
    offb = np.full(n1 * n1 - n1, -lam)
    return sparse.diags(
        [main, off1, off1, offb, offb], [0, 1, -1, n1, -n1], format="csc"
    )


def dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II matrix; its rows are the eigenvectors of the
    Neumann path Laplacian of n nodes, with eigenvalues 4 sin^2(pi k / 2n)."""
    k = np.arange(n)[:, None]
    q = np.sqrt(2.0 / n) * np.cos(np.pi * k * (2 * np.arange(n) + 1) / (2 * n))
    q[0] /= np.sqrt(2.0)
    return q


class _ImplicitStepper:
    """Implicit step solver on full-grid levels, one or a batch of them.

    step() takes and returns levels (..., N+1, N+1); apply, precondition
    and linear_solve work on the (N-1)^2 interior blocks.  Any leading
    axis is a batch of independent systems.
    """

    def __init__(self, N: int, lam: float):
        n1 = N - 1
        self.lam = lam
        self.main = 1.0 + lam * _neighbor_count(n1)
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
        """Solve on the interiors of the full-grid e1 and rhs; return the
        full-grid solution with its Neumann ghost nodes filled in."""
        inner = (..., slice(1, -1), slice(1, -1))
        # Contiguous, so that mean(E1) sums in the same order at every N.
        e1 = np.ascontiguousarray(e1[inner])
        return _complete_with_ghost(linear_solve(self, e1, rhs[inner])[0])


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


def _complete_with_ghost(interior: np.ndarray) -> np.ndarray:
    """Extend interior values to the full grid by the Neumann ghost copy."""
    full = np.empty(interior.shape[:-2] + (interior.shape[-1] + 2,) * 2)
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
    hphi = heaviside_mollified(phi.phi.values, m)
    e1 = dt * (-params.a.values)
    stepper = _ImplicitStepper(grid.N, params.lam)
    p = np.empty((grid.M + 1,) + hphi.shape)
    p[grid.M] = 0.0
    for k in range(grid.M - 1, -1, -1):
        shifted = 1.0 + p[k + 1]
        g = dt * params.L * hphi * shifted * heaviside_mollified(shifted, m)
        p[k] = stepper.step(e1, p[k + 1] - g)
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
    hphi = heaviside_mollified(phi.phi.values, m)
    stepper = _ImplicitStepper(grid.N, params.lam)
    r = np.empty_like(adjoint.values)
    r[0] = params.y0.values
    for k in range(grid.M):
        shifted = 1.0 + adjoint.values[k + 1]
        coupling = params.L * hphi * (
            heaviside_mollified(shifted, m)
            + shifted * delta_mollified(shifted, m)
        )
        r[k + 1] = stepper.step(dt * (-params.a.values + coupling), r[k])
        _check_nonnegative(r[k + 1], k + 1, "sensitivity")
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
    params.check_time_step()
    m = params.mollifier
    dt = grid.dt
    hphi = heaviside_mollified(phi.phi.values, m)
    stepper = _ImplicitStepper(grid.N, params.lam)
    y = np.empty_like(control.values)
    y[0] = params.y0.values
    for k in range(grid.M):
        e1 = dt * (-params.a.values + hphi * control.values[k + 1])
        rhs = y[k] if forcing is None else y[k] + dt * forcing.values[k + 1]
        y[k + 1] = stepper.step(e1, rhs)
        if forcing is None:
            _check_nonnegative(y[k + 1], k + 1, "state")
    return SpaceTimeField(grid, y)


def bang_bang_control(
    adjoint: SpaceTimeField, params: ControlProblemParams
) -> SpaceTimeField:
    """Optimal effort from the adjoint sign: L where 1 + p >= 0, else 0."""
    values = np.where(1.0 + adjoint.values >= 0.0, params.L, 0.0)
    return SpaceTimeField(adjoint.grid, values)
