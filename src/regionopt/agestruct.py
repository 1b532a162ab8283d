"""Eradicability analysis and region design for an age-structured pest.

The population density y(x, a, t) ages, diffuses, dies at rate mu(a),
reproduces through the renewal boundary y(x, 0, t) = int beta(a) y da,
saturates through a logistic term M(int y da), and is harvested at the
rate u(x) of an effort field, the input of every solve here; a region
omega = {phi > 0} becomes an effort only through sharp_effort (L
chi_omega) or mollified_effort (L H_eps(phi)).  Two questions:

* Eradicability.  The population can be driven to zero from the region
  omega exactly when the principal eigenvalue lambda_1 of -d lap + L
  chi_omega (Neumann) clears the intrinsic growth exponent r*, the root
  of the characteristic equation int beta(a) exp(-int mu - r a) da = 1.
  lambda_1 > r* guarantees eradication under full effort u = L;
  eradicability requires lambda_1 >= r*.

* Region design.  Under the relaxed effort L H_eps(phi), the region is
  shaped to minimize Psi(phi) = int y_phi(x, a, T) dx da + alpha *
  length + beta * area, by the same level-set descent as the harvest
  problem.

The solver locks the time step to the age step, so aging is an exact
shift along characteristics, and reuses the implicit step solver of the
pde module for diffusion and decay, all age levels of a time step in one
batched solve on full-grid levels.  The principal eigenvalue comes from
a block-1 LOBPCG that factorizes no operator and allocates its working
set once per solve: its products go through the step solver's stencil,
one column at a time, into its own buffers, and its preconditioner is
the step solver's DCT inverse at a fixed shift, in single precision.
Mortality is sampled finitely on the age grid; whatever is transported
past the maximal age A flows out of the system.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import lapack_lite

from .errors import ConvergenceFailure, FieldError, SolverFailure
from .grid import GridSpec, ScalarField, _bounded, _integer, simpson_integral_2d
from .levelset import LevelSetFunction, Mollifier, heaviside_mollified
from .pde import _ImplicitStepper, lap_diagonal, lap_eigenvalues, roundoff
from .shapeopt import Convergence, Trace, descend, penalised_cost

EIGEN_TOL = 1.0e-8
EIGEN_MAX_ITER = 500
VERDICT_TOLERANCE = 1.0e-6

def _age_samples(spec, ages: np.ndarray, name: str) -> np.ndarray:
    values = np.array(spec(ages) if callable(spec) else spec, dtype=float, ndmin=1)
    if values.shape == (1,):
        values = np.full(ages.shape, values[0])
    if values.shape != ages.shape:
        raise FieldError(
            name, f"samples have shape {values.shape}, expected {ages.shape}"
        )
    if not np.all(np.isfinite(values)):
        raise FieldError(name, "samples must be finite on the age grid")
    if np.any(values < 0.0):
        raise FieldError(name, "must be nonnegative")
    values.flags.writeable = False  # checked once: the consumers trust them
    return values


@dataclass(frozen=True)
class AgeModelParams:
    """Data of the age-structured model on the age grid, and of its
    region design.

    fertility and mortality may each be a number, Na+1 samples or a
    callable of the ages, each checked for shape on the age grid; y0 a
    callable (x1, x2, a) or a constant, finite and >= 0.  The reals
    follow grid's number rule with A, T > 0 and the rest >= 0.
    The logistic term is M(s) = logistic_slope * s.  The age step A/Na
    must not underflow and beta(0) da / 2 < 1: the renewal root exists
    only then, and the march divides by 1 minus it.  The time step is
    locked to the age step, so a march (n_time) needs the horizon T to
    be an integer multiple of it; the eigenvalue never reads T.  alpha
    and beta weigh the interface length and region area in Psi, and
    mollifier gives H_eps; only the region design reads the three.
    Frozen, so no field can change after the checks: a new model is a
    new instance (dataclasses.replace), checked again.
    """

    A: float
    Na: int
    fertility: object
    mortality: object
    d: float
    L: float
    T: float
    y0: object = 1.0
    logistic_slope: float = 0.0
    alpha: float = 0.0
    beta: float = 0.0
    mollifier: Mollifier | None = None
    fertility_samples: np.ndarray = field(init=False, repr=False)
    mortality_samples: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        _bounded(self.A, "A", positive=True)
        object.__setattr__(self, "Na", _integer(self.Na, "Na"))
        if self.Na < 2:
            raise FieldError("Na", f"must be at least 2, got {self.Na}")
        if not self.da > 0.0:
            raise FieldError(
                "A", f"gives the age step A / Na = {self.da}, not positive and finite"
            )
        for name in ("d", "L", "logistic_slope", "alpha", "beta"):
            _bounded(getattr(self, name), name)
        _bounded(self.T, "T", positive=True)
        ages = self.ages
        for name in ("fertility", "mortality"):
            samples = _age_samples(getattr(self, name), ages, name)
            object.__setattr__(self, f"{name}_samples", samples)
        newborn = float(self.fertility_samples[0]) * (self.da / 2.0)
        if newborn >= 1.0:
            raise FieldError(
                "fertility",
                f"at age 0 times half the age step is {newborn:.6g} >= 1: the "
                "renewal step is ill-posed; refine the age grid (Na) or lower "
                "the fertility at age 0",
            )
        if not callable(self.y0):
            if not float(self.y0) >= 0.0:
                raise FieldError("y0", "must be nonnegative")
            if float(self.y0) == np.inf:
                raise FieldError("y0", "must be finite, got inf")

    @property
    def da(self) -> float:
        return self.A / self.Na

    @property
    def ages(self) -> np.ndarray:
        return np.linspace(0.0, self.A, self.Na + 1)

    @property
    def n_time(self) -> int:
        """Time steps to T; FieldError on Na unless T is a whole number of
        age steps."""
        steps = self.T / self.da
        if not (steps < np.inf and abs(steps - round(steps)) <= 1.0e-9):
            raise FieldError(
                "Na",
                f"sets the age step A / Na = {self.da}, and T = {self.T} is not "
                "an integer multiple of the age step (the time step is locked "
                "to it)",
            )
        return int(round(steps))

    def initial_density(self, grid: GridSpec) -> np.ndarray:
        x1, x2 = grid.mesh()
        y0 = self.y0 if callable(self.y0) else lambda *_: float(self.y0)
        values = np.empty((self.Na + 1, grid.N + 1, grid.N + 1))
        for level, age in enumerate(self.ages):
            values[level] = y0(x1, x2, age)
        if not np.all(np.isfinite(values)):
            raise ValueError("y0 must be finite")
        if np.any(values < 0.0):
            raise ValueError("y0 must be nonnegative")
        return values


@dataclass
class AgeDensityField:
    """Density on the (time, age, space, space) grid, with the model and
    the effort it was marched under: the dual and the population integral
    read both from here, so they cannot be paired with other ones."""

    model: AgeModelParams
    effort: ScalarField
    values: np.ndarray

    def __post_init__(self):
        n = self.grid.N + 1
        expected = (self.values.shape[0], self.model.Na + 1, n, n)
        if self.values.shape != expected:
            raise ValueError(
                f"values have shape {self.values.shape}, expected {expected}"
            )

    @property
    def grid(self) -> GridSpec:
        return self.effort.grid


def age_trapezoid_weights(Na: int, da: float) -> np.ndarray:
    weights = np.full(Na + 1, da)
    weights[0] = weights[-1] = da / 2.0
    return weights


def lotka_root(params: AgeModelParams) -> float:
    """Root r* of the characteristic equation of the age dynamics.

    Solves int beta(a) exp(-int_0^a mu - r a) da = 1 by composite
    trapezoid on the age grid.  With b_k = w_k beta_k exp(-int_0^{a_k} mu)
    the left-hand side b_0 + sum_{k>=1} b_k exp(-r a_k) falls strictly
    from +inf to b_0 = beta(0) da / 2, and AgeModelParams holds b_0 < 1,
    so the root exists.  As every a_k >= da, the root lies between
    0 and ln(S / (1 - b_0)) / da, S = sum_{k>=1} b_k, and that bracket is
    bisected until its ends are adjacent floats, the sum compared in
    log-sum-exp form so that no exponential overflows.  Without births
    past age 0 (S = 0) every cohort dies out or ages past A, and r* is -inf.
    """
    beta = params.fertility_samples
    mu = params.mortality_samples
    da = params.da
    births = 1 + np.flatnonzero(beta[1:] > 0.0)
    if births.size == 0:
        return -np.inf
    cumulative_mu = np.concatenate(([0.0], np.cumsum(0.5 * (mu[:-1] + mu[1:]) * da)))
    weights = age_trapezoid_weights(params.Na, da)
    log_births = np.log(weights[births]) + np.log(beta[births]) - cumulative_mu[births]
    ages = params.ages[births]
    log_rest = float(np.log1p(-weights[0] * beta[0]))

    def excess(r: float) -> float:
        """ln sum_{k>=1} b_k exp(-r a_k) - ln(1 - b_0), strictly decreasing in r."""
        terms = log_births - r * ages
        top = terms.max()
        return float(top + np.log(np.exp(terms - top).sum())) - log_rest

    lo, hi = sorted((0.0, excess(0.0) / da))
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid


def sharp_effort(phi: LevelSetFunction, L: float) -> ScalarField:
    """Effort L chi_omega: full effort on the nodes where phi > 0."""
    return ScalarField(phi.grid, L * (phi.phi.values > 0.0).astype(float))


def mollified_effort(phi: LevelSetFunction, L: float, m: Mollifier) -> ScalarField:
    """Relaxed effort L H_eps(phi) under which the region design runs."""
    return ScalarField(phi.grid, L * heaviside_mollified(phi.phi.values, m))


def eigen_roundoff(effort: ScalarField, d: float) -> float:
    """Least stopping residual of principal_eigenvalue: the step
    solver's round-off of one product (pde.ROUNDOFF units of eps times
    the largest absolute row sum) with the main diagonal of -d lap + u.
    The residual of a unit vector bounds |lambda - theta| for this
    symmetric operator, so it bounds the error of lambda_1 as well.
    It needs no stepper, so a verdict builds only its solve's.
    """
    grid = effort.grid
    lap_diag = lap_diagonal(grid.N, d / (grid.h * grid.h))
    return roundoff(lap_diag + effort.values[1:-1, 1:-1], lap_diag).item()


def principal_eigenvalue(effort: ScalarField, d: float) -> float:
    """Smallest eigenvalue of -d lap + u (Neumann) by block-1 LOBPCG.

    The operator is the step solver's five-point stencil on the interior
    nodes with main diagonal (d / h^2) (neighbor count) + u.  Each step
    projects onto span{x, T r, p}, with T the step solver's DCT inverse
    of (mean(u) + 1e-3) I - d lap, the mean taken over the interior
    nodes (Knyazev 2001), starting from the constant vector.  T runs in
    float32 on the unit residual: it only picks a search direction, and
    the float64 Rayleigh-Ritz step and residual test decide lambda_1.
    The working set is allocated once per solve and peaks at about 13
    vectors of n doubles: the n x 3 block of the three columns
    (orthonormalized in place by lapack_lite's dgeqrf and dorgqr), a
    block of their images, x, its image, one residual/update vector, the
    main diagonal, the float32 unit residual and spectrum, the stepper's
    border buffer and the preconditioner's float32 temporaries.  Every
    product, residual, cast and Ritz combination is written into them
    (out=).  Products go one column at a time, so the border buffer
    holds one vector, not three, and the diagonals come from pde's
    module functions, so the stepper builds none.
    Stops at a relative eigenresidual of 1e-8, or at eigen_roundoff
    where that is larger (large d / h^2).  A negative d or effort raises
    ValueError; running out of EIGEN_MAX_ITER steps raises
    ConvergenceFailure, and non-finite values or a failed projection
    raise SolverFailure.
    """
    if d < 0.0 or np.any(effort.values < 0.0):
        raise ValueError("d and the effort must be nonnegative")
    grid = effort.grid
    n1 = grid.N - 1
    lam = d / (grid.h * grid.h)
    stepper = _ImplicitStepper(grid.N, lam)
    interior = effort.values[1:-1, 1:-1]
    floor = eigen_roundoff(effort, d)
    diagonal = lap_diagonal(grid.N, lam)
    diagonal += interior

    def product(vector: np.ndarray, out: np.ndarray) -> None:
        """The operator applied to one vector, into out."""
        stepper.apply(diagonal, vector.reshape(n1, n1), out=out.reshape(n1, n1))

    # Scaled to a least value of 1 and capped at the float32 range, the
    # spectrum casts without overflow, and so does the unit residual.
    eigs = lap_eigenvalues(grid.N, lam)
    eigs += np.mean(interior) + 1.0e-3
    eigs /= eigs.min()
    eigs = np.minimum(eigs, np.finfo(np.float32).max, out=eigs).astype(np.float32)
    n = n1 * n1
    # rows x, T r, update (none at step 0): C-ordered, so block[:k].T is
    # the Fortran n x k matrix that LAPACK factors in place
    block = np.empty((3, n))
    images = np.empty((3, n))  # the operator applied to block's rows
    tau = np.empty(3)
    work = np.empty(192)  # three columns at any LAPACK block size up to 64
    x = np.full(n, 1.0 / n1)
    image = np.empty(n)
    r = np.empty(n)  # residual, then the update
    unit = np.empty(n, dtype=np.float32)
    product(x, image)
    value = float(x @ image)
    for step in range(EIGEN_MAX_ITER + 1):
        np.subtract(image, np.multiply(value, x, out=r), out=r)
        residual = float(np.linalg.norm(r))
        if not np.isfinite(residual):
            raise SolverFailure("eigen iteration produced non-finite values")
        if residual <= max(EIGEN_TOL * max(1.0, abs(value)), floor):
            return value
        if step == EIGEN_MAX_ITER:
            break
        block[0] = x
        np.divide(r, residual, out=unit)
        block[1] = stepper.precondition(eigs, unit.reshape(n1, n1)).ravel()
        k = 3 if step else 2
        info = lapack_lite.dgeqrf(n, k, block, n, tau, work, work.size, 0)["info"]
        if info == 0:
            info = lapack_lite.dorgqr(n, k, k, block, n, tau, work, work.size, 0)["info"]
        if info:
            raise SolverFailure(f"eigen Rayleigh-Ritz step failed: LAPACK info {info}")
        for row in range(k):
            product(block[row], images[row])
        basis = block[:k].T
        try:
            values, vectors = np.linalg.eigh(basis.T @ images[:k].T)
        except np.linalg.LinAlgError as exc:
            raise SolverFailure(f"eigen Rayleigh-Ritz step failed: {exc}") from exc
        coeffs = vectors[:, 0]
        # basis[:, 0] is +-x, so the rest of the Ritz vector is the update;
        # both are formed before the next step overwrites the block.
        np.matmul(basis[:, 1:], coeffs[1:, None], out=r.reshape(n, 1))
        np.matmul(basis, coeffs, out=x)
        np.matmul(images[:k].T, coeffs, out=image)
        value = float(values[0])
        block[2] = r
    raise ConvergenceFailure(
        f"eigenvalue iteration stagnated after {EIGEN_MAX_ITER} steps: "
        f"residual {residual:.3e} at value {value:.6e}"
    )


@dataclass
class EradicabilityReport:
    """Verdict of the eigenvalue-versus-growth-rate comparison, with the
    half-width of the Indeterminate band it applied."""

    r_star: float
    lambda1: float
    margin: float
    verdict: str
    tolerance: float


def eradicability_verdict(
    phi: LevelSetFunction, model: AgeModelParams
) -> EradicabilityReport:
    """Compare lambda_1 under the sharp effort L chi_omega against r*.

    Margins beyond the band max(VERDICT_TOLERANCE, eigen_roundoff) give
    Eradicable / NotEradicable; anything inside it is Indeterminate: too
    close for the discrete operators to call, or within the round-off
    of lambda_1 where d / h^2 swamps the effort.
    """
    r_star = lotka_root(model)
    effort = sharp_effort(phi, model.L)
    lambda1 = principal_eigenvalue(effort, model.d)
    tolerance = max(VERDICT_TOLERANCE, eigen_roundoff(effort, model.d))
    margin = lambda1 - r_star
    if margin > tolerance:
        verdict = "Eradicable"
    elif margin < -tolerance:
        verdict = "NotEradicable"
    else:
        verdict = "Indeterminate"
    return EradicabilityReport(r_star, lambda1, margin, verdict, tolerance)


def solve_age_structured(effort: ScalarField, model: AgeModelParams) -> AgeDensityField:
    """March the age-structured model from its initial density.

    Each time step (dt = age step) shifts every age level up one cell
    along the aging characteristic, applies the implicit diffusion and
    decay solve to all levels at once (decay rate mu(a) + M(P) + u, with
    the logistic pressure P = int y da lagged at the previous time level),
    and closes with the renewal integral for the newborn level, handled
    implicitly in its own weight.  Density transported past the maximal
    age flows out.  The effort u is the removal rate on each node.
    """
    if np.any(effort.values < 0.0):
        raise ValueError("effort must be nonnegative")
    grid = effort.grid
    dt = model.da
    beta = model.fertility_samples
    mu = model.mortality_samples
    weights = age_trapezoid_weights(model.Na, model.da)
    newborn_weight = weights[0] * beta[0]
    stepper = _ImplicitStepper(grid.N, model.d * dt / (grid.h * grid.h))
    y = np.empty((model.n_time + 1, model.Na + 1) + effort.values.shape)
    y[0] = model.initial_density(grid)
    slope = model.logistic_slope
    for k in range(model.n_time):
        pressure = np.tensordot(weights, y[k], axes=(0, 0))
        e1 = dt * (mu[1:, None, None] + slope * pressure + effort.values)
        y[k + 1][1:] = stepper.step(e1, y[k][:-1])
        low = y[k + 1][1:].min(axis=(1, 2))
        failing = np.flatnonzero(low < -1.0e-12)
        if failing.size:
            level = failing[-1] + 1
            raise SolverFailure(
                f"density lost positivity at time level {k + 1}, age "
                f"level {level}: min = {low[level - 1]:.3e}"
            )
        births = np.tensordot(weights[1:] * beta[1:], y[k + 1][1:], axes=(0, 0))
        y[k + 1][0] = births / (1.0 - newborn_weight)
    return AgeDensityField(model, effort, y)


def total_population(density: AgeDensityField) -> np.ndarray:
    """Population integral over age and space at each time level."""
    weights = age_trapezoid_weights(density.model.Na, density.model.da)
    per_time = np.empty(density.values.shape[0])
    for k in range(per_time.size):
        merged = np.tensordot(weights, density.values[k], axes=(0, 0))
        per_time[k] = simpson_integral_2d(ScalarField(density.grid, merged))
    return per_time


def _final_population(phi: LevelSetFunction, model: AgeModelParams):
    effort = mollified_effort(phi, model.L, model.mollifier)
    density = solve_age_structured(effort, model)
    final = AgeDensityField(density.model, density.effort, density.values[-1:])
    return float(total_population(final)[0]), density


def evaluate_psi(phi: LevelSetFunction, model: AgeModelParams):
    """Region cost Psi and its components for the eradication problem.

    Runs the model under the mollified effort H_eps(phi) L and returns
    (Psi, (population term, weighted length term, weighted area term)),
    the first being the age-space integral of the final-time density
    (trapezoid in age, Simpson in space): penalised_cost's record under
    the eradication measure, _final_population.
    """
    record, _ = penalised_cost(phi, model, _final_population)
    return record.cost, record.terms


def solve_eradication_adjoint(density: AgeDensityField) -> ScalarField:
    """The nodal integral sum_k w_k sum_a w_a r y of the eradication dual
    r against the density y (trapezoid weights in time and age).

    The dual r of the final-population cost is marched backward in time
    under the density's own model and effort, from 1 at the final time
    and 0 on the maximal-age line at every level.  Each step sets r at
    (age level l, time k) from (l+1, k+1) along the characteristic, with
    diffusion and decay mu(a) + M(P) + u implicit and the sources lagged
    at time k+1: the logistic derivative times the pairing sum_a w_a r y,
    and the fertility times the newborn trace.  Each level of r is a new
    array and the march holds two, streamed into the integral and not
    stored, so beyond its inputs this allocates nothing of space-time
    size.
    """
    model, effort, grid = density.model, density.effort, density.grid
    steps = density.values.shape[0] - 1
    dt = model.da
    beta = model.fertility_samples
    mu = model.mortality_samples
    weights = age_trapezoid_weights(model.Na, dt)
    time_w = age_trapezoid_weights(steps, dt)
    stepper = _ImplicitStepper(grid.N, model.d * dt / (grid.h * grid.h))
    slope = model.logistic_slope
    r = np.ones(density.values.shape[1:])
    r[model.Na] = 0.0
    integral = np.zeros(density.values.shape[2:])
    for k in range(steps, -1, -1):
        coupling = np.tensordot(weights, r * density.values[k], axes=(0, 0))
        integral += time_w[k] * coupling
        if k == 0:
            break
        pressure = np.tensordot(weights, density.values[k - 1], axes=(0, 0))
        source = dt * (-slope * coupling + np.multiply.outer(beta, r[0]))
        e1 = dt * (mu[:-1, None, None] + slope * pressure + effort.values)
        below = np.empty_like(r)
        below[:-1] = stepper.step(e1, r[1:] + source[:-1])
        below[model.Na] = 0.0
        r = below
    return ScalarField(grid, integral)


def _eradication_velocity(phi: LevelSetFunction, density, model: AgeModelParams):
    integral = solve_eradication_adjoint(density)
    return ScalarField(integral.grid, model.L * integral.values)


def optimize_eradication_region(
    phi0: LevelSetFunction,
    model: AgeModelParams,
    convergence: Convergence = Convergence(),
    callback=None,
):
    """Shape the harvesting region to minimize Psi by shapeopt.descend.

    The age-structured model gives Psi, with the model's penalties and
    mollifier, and the pairing of its dual with the density the data
    velocity L * solve_eradication_adjoint; under convergence.step =
    "halving" every step is gated on an actual Psi decrease.  Returns
    (best iterate by Psi, trace, its age density).
    """
    return descend(
        phi0,
        model,
        _final_population,
        _eradication_velocity,
        Trace("psi", "population_term"),
        convergence,
        callback,
    )
