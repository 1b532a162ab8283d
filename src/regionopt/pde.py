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
Gaussian-elimination oracle.  The step solver takes and returns
full-grid levels and fills in the Neumann ghost nodes.  Its stencil is
the one representation of lam L + diag(w) for any diagonal w: the eigen
solver of the agestruct module multiplies through it with its own main
diagonal, into its own buffers.

Nonlinear reaction terms are lagged at the previously computed time
level, so every step stays linear.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import FieldError, SolverFailure
from .grid import GridSpec, ScalarField, SpaceTimeField, _bounded
from .levelset import (
    LevelSetFunction,
    Mollifier,
    delta_mollified,
    heaviside_mollified,
)

CG_TOL = 1.0e-13
CG_MAX_ITER = 100
ROUNDOFF = 16.0  # least attainable residual, in units of eps * max |row sum|


@dataclass(frozen=True)
class ControlProblemParams:
    """Model data of the harvest problem, frozen so its checks hold; its
    reals follow grid's number rule with d > 0 and L, alpha, beta >= 0.

    Attributes
    ----------
    d : float
        Diffusion coefficient.
    a : ScalarField
        Intrinsic growth rate a(x).
    y0 : ScalarField
        Initial density, y0 >= 0 and not identically zero.
    L : float
        Harvesting effort bound; u in [0, L].
    alpha, beta : float
        Interface-length and region-area penalty weights.
    mollifier : Mollifier
        Regularization used for both phi and 1 + p; required.
    """

    d: float
    a: ScalarField
    y0: ScalarField
    L: float
    alpha: float
    beta: float
    mollifier: Mollifier

    def __post_init__(self):
        _bounded(self.d, "d", positive=True)
        for name in ("L", "alpha", "beta"):
            _bounded(getattr(self, name), name)
        if self.mollifier is None:
            raise FieldError("mollifier", "is required: the solvers switch on H_eps(1 + p)")
        if self.a.grid != self.y0.grid:
            raise ValueError("a and y0 live on different grids")
        if np.any(self.y0.values < 0.0) or not np.any(self.y0.values > 0.0):
            raise FieldError("y0", "must be nonnegative and not identically zero")

    @property
    def grid(self) -> GridSpec:
        return self.a.grid

    @property
    def lam(self) -> float:
        g = self.grid
        return self.d * g.dt / (g.h * g.h)

    def check_time_step(self) -> None:
        """Raise FieldError on M unless dt * a < 1 on interior nodes (M-matrix)."""
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
            raise FieldError(
                "M",
                f"is too small: dt * max(a) = T / M * max(a) is {grid.dt * a_max:.6g} "
                f">= 1, and the implicit step loses positivity; use {need}",
            )


def lap_diagonal(N: int, lam: float) -> np.ndarray:
    """Diagonal of lam L on the (N-1)^2 interior block: lam times each
    node's count of interior neighbors."""
    deg = np.zeros(N - 1)  # interior neighbors along one axis
    deg[1:] += 1.0
    deg[:-1] += 1.0
    return lam * (deg[:, None] + deg[None, :])


def lap_eigenvalues(N: int, lam: float) -> np.ndarray:
    """Eigenvalues of lam L on the (N-1)^2 interior block, in the order
    of the dct_matrix rows that diagonalize it."""
    n1 = N - 1
    eig = 4.0 * np.sin(0.5 * np.pi * np.arange(n1) / n1) ** 2
    return lam * (eig[:, None] + eig[None, :])


def roundoff(diagonal: np.ndarray, lap_diag: np.ndarray) -> np.ndarray:
    """ROUNDOFF units of round-off of one stencil product with main
    diagonal diagonal: eps times the largest absolute row sum |diagonal|
    + lap_diag of each block, shaped (..., 1, 1)."""
    row_sum = np.abs(diagonal) + lap_diag
    return ROUNDOFF * np.finfo(float).eps * row_sum.max(axis=(-2, -1), keepdims=True)


@lru_cache(maxsize=None)
def dct_matrix(n: int, dtype: np.dtype) -> np.ndarray:
    """Orthonormal DCT-II matrix; its rows are the eigenvectors of the
    Neumann path Laplacian of n nodes, with eigenvalues 4 sin^2(pi k / 2n).
    Built in double precision, rounded to dtype once per (n, dtype) and
    shared by every stepper that preconditions in dtype, so read-only."""
    k = np.arange(n)[:, None]
    q = np.sqrt(2.0 / n) * np.cos(np.pi * k * (2 * np.arange(n) + 1) / (2 * n))
    q[0] /= np.sqrt(2.0)
    q = q.astype(dtype, copy=False)
    q.flags.writeable = False
    return q


class _ImplicitStepper:
    """Implicit step solver on full-grid levels, one or a batch of them.

    step() takes and returns levels (..., N+1, N+1); apply, precondition
    and linear_solve work on the (N-1)^2 interior blocks.  Any leading
    axis is a batch of independent systems.  precondition reads the
    shared dct_matrix of its input's precision; the stepper keeps none.
    A new stepper holds N, lam and an empty border buffer: the (N-1)^2
    arrays lap_diag, lap_eigs and main are built when a linear solve
    first reads them, so the eigen solver, which only applies and
    preconditions, builds none.
    """

    def __init__(self, N: int, lam: float):
        self.N = N
        self.lam = lam
        self._bordered = np.zeros(0)  # zero-bordered blocks, grown on demand

    @cached_property
    def lap_diag(self) -> np.ndarray:
        return lap_diagonal(self.N, self.lam)

    @cached_property
    def lap_eigs(self) -> np.ndarray:
        return lap_eigenvalues(self.N, self.lam)

    @cached_property
    def main(self) -> np.ndarray:
        """Main diagonal of I + lam L."""
        return 1.0 + self.lap_diag

    def apply(self, diagonal: np.ndarray, x: np.ndarray, out=None) -> np.ndarray:
        """The product (lam L + diag(w)) x from its main diagonal
        lap_diag + w, into out if given: diagonal * x minus lam times
        each interior neighbor.

        lam x is written into the interior of a zero-bordered buffer, and
        its four shifted views are subtracted in the order i-1, i+1, j-1,
        j+1; a border node subtracts +0.0, which leaves every bit
        unchanged.  One flat buffer, never written on a border, serves
        every batch shape: only a batch larger than any before allocates.
        """
        n = x.shape[-1]
        size = x.size // (n * n) * (n + 2) ** 2
        if self._bordered.size < size:
            self._bordered = None  # release the smaller buffer first
            self._bordered = np.zeros(size)
        bordered = self._bordered[:size].reshape(x.shape[:-2] + (n + 2, n + 2))
        np.multiply(self.lam, x, out=bordered[..., 1:-1, 1:-1])
        y = np.multiply(diagonal, x, out=out)
        y -= bordered[..., :-2, 1:-1]
        y -= bordered[..., 2:, 1:-1]
        y -= bordered[..., 1:-1, :-2]
        y -= bordered[..., 1:-1, 2:]
        return y

    def precondition(self, denominator: np.ndarray, r: np.ndarray) -> np.ndarray:
        """The exact inverse of shift I + lam L applied to r, in the DCT
        basis, given its eigenvalues denominator = shift + lap_eigs.
        Works in the precision of r, which denominator must share."""
        q = dct_matrix(r.shape[-1], r.dtype)
        return q.T @ ((q @ r @ q.T) / denominator) @ q

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
    residual is at most CG_TOL * max(|rhs|, 1), or at the round-off
    floor roundoff * max|x| of one stencil product where that is
    larger (large lam), with x the initial guess.  Convergence is
    checked before each preconditioning, so a solve of k >= 1
    iterations costs k + 1 preconditioner calls and k + 2 stencil
    products, and a solve of 0 iterations one of each.  Returns
    (v, iterations).  Raises SolverFailure on non-finite values, after
    CG_MAX_ITER iterations, or when the true residual exceeds both
    1e-10 * max(|rhs|, 1) and the floor at the solution.
    """
    axes = (-2, -1)
    scale = np.maximum(np.abs(rhs).max(axis=axes, keepdims=True), 1.0)
    denominator = 1.0 + np.mean(e1, axis=axes, keepdims=True) + stepper.lap_eigs
    diagonal = stepper.main + e1
    unit = roundoff(diagonal, stepper.lap_diag)
    x = stepper.precondition(denominator, rhs)
    tolerance = np.maximum(CG_TOL * scale, unit * np.abs(x).max(axis=axes, keepdims=True))
    r = rhs - stepper.apply(diagonal, x)
    iterations = 0
    while True:
        rmax = np.abs(r).max(axis=axes, keepdims=True)
        if not np.all(np.isfinite(rmax)):
            raise SolverFailure("conjugate gradients produced non-finite values")
        live = rmax > tolerance
        if not live.any():
            break
        if iterations == CG_MAX_ITER:
            raise SolverFailure(
                f"conjugate gradients did not converge in {CG_MAX_ITER} "
                f"iterations: relative residual {(rmax / scale).max():.3e}"
            )
        z = stepper.precondition(denominator, r)
        rz_new = np.sum(r * z, axis=axes, keepdims=True)
        if iterations == 0:
            p = z
        else:  # beta takes alpha's mask from the last iteration, keeping p's bits
            beta = np.divide(rz_new, rz, out=np.zeros_like(rz), where=active)
            p = z + beta * p
        rz, active = rz_new, live
        ap = stepper.apply(diagonal, p)
        pap = np.sum(p * ap, axis=axes, keepdims=True)
        alpha = np.divide(rz, pap, out=np.zeros_like(rz), where=active)
        x += alpha * p
        r -= alpha * ap
        iterations += 1
    if iterations:
        rmax = np.abs(stepper.apply(diagonal, x) - rhs).max(axis=axes, keepdims=True)
    # else r = rhs - apply(x) is the true residual, and rmax its max-norm.
    floor = unit * np.abs(x).max(axis=axes, keepdims=True)
    failing = rmax > np.maximum(1.0e-10 * scale, floor)
    if failing.any():
        resid = (rmax / scale)[failing].max()
        raise SolverFailure(
            f"linear solve relative residual {resid:.3e} exceeds 1e-10 "
            "and the round-off floor"
        )
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


def _march_state(params, weight, rate, forcing, what):
    """March y[k+1] = step(dt (-a + weight rate[k+1]), y[k] + dt forcing[k+1]) from y0.

    The removal rate weight * rate[k+1] of each step is formed inside
    the loop, one level at a time, so the state is the only space-time
    array that the march allocates.  Without forcing, each new level
    must stay nonnegative; what names the solve in the SolverFailure.
    """
    grid = params.grid
    dt = grid.dt
    stepper = _ImplicitStepper(grid.N, params.lam)
    y = np.empty((grid.M + 1,) + weight.shape)
    y[0] = params.y0.values
    for k in range(grid.M):
        e1 = dt * (-params.a.values + weight * rate[k + 1])
        rhs = y[k] if forcing is None else y[k] + dt * forcing.values[k + 1]
        y[k + 1] = stepper.step(e1, rhs)
        if forcing is None:
            _check_nonnegative(y[k + 1], k + 1, what)
    return SpaceTimeField(grid, y)


def solve_sensitivity(
    phi: LevelSetFunction, adjoint: SpaceTimeField, params: ControlProblemParams
) -> SpaceTimeField:
    """Forward sensitivity solve started from y0: the state march with
    the removal rate L H_eps(phi) [H_eps(1+p) + (1+p) delta_eps(1+p)],
    evaluated at the target time level of each step.
    """
    grid = params.grid
    if phi.grid != grid or adjoint.grid != grid:
        raise ValueError("phi/adjoint are not on the problem grid")
    m = params.mollifier
    hphi = heaviside_mollified(phi.phi.values, m)
    shifted = 1.0 + adjoint.values
    rate = heaviside_mollified(shifted, m) + shifted * delta_mollified(shifted, m)
    return _march_state(params, params.L * hphi, rate, None, "sensitivity")


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
    if control.values.min() < 0.0 or control.values.max() > params.L + 1e-12:
        raise ValueError("control must lie in [0, L]")
    params.check_time_step()
    hphi = heaviside_mollified(phi.phi.values, params.mollifier)
    return _march_state(params, hphi, control.values, forcing, "state")


def bang_bang_control(
    adjoint: SpaceTimeField, params: ControlProblemParams
) -> SpaceTimeField:
    """Optimal effort from the adjoint sign: L where 1 + p >= 0, else 0."""
    values = np.where(1.0 + adjoint.values >= 0.0, params.L, 0.0)
    return SpaceTimeField(adjoint.grid, values)
