"""Eradicability analysis and region design for an age-structured pest.

The population density y(x, a, t) ages, diffuses, dies at rate mu(a),
reproduces through the renewal boundary y(x, 0, t) = int beta(a) y da,
saturates through a logistic term M(int y da), and is harvested at rate
u on the control region.  Two questions are answered here:

* Eradicability.  The population can be driven to zero from the region
  omega exactly when the principal eigenvalue lambda_1 of -d lap + L
  chi_omega (Neumann) clears the intrinsic growth exponent r*, the root
  of the characteristic equation int beta(a) exp(-int mu - r a) da = 1.
  lambda_1 > r* guarantees eradication under full effort u = L;
  eradicability requires lambda_1 >= r*.

* Region design.  With the effort fixed at L, the region is shaped to
  minimize Psi(phi) = int y_phi(x, a, T) dx da + alpha * length +
  beta * area, by the same level-set descent as the harvest problem.

The solver locks the time step to the age step, so aging is an exact
shift along characteristics, and reuses the implicit step solver of the
pde module for diffusion and decay, all age levels of a time step in one
batched solve on full-grid levels.  The principal eigenvalue comes from
a block-1 LOBPCG that factorizes nothing: its products use the pde
module's interior-operator assembly, and its preconditioner is the step
solver's DCT inverse at a fixed shift.  Mortality is sampled finitely on
the age grid; whatever is transported past the maximal age A flows out
of the system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy import sparse

from .errors import ConvergenceFailure, SolverFailure
from .grid import GridSpec, ScalarField, curvature_divergence, simpson_integral_2d
from .levelset import LevelSetFunction, Mollifier, heaviside_mollified
from .pde import _ImplicitStepper, interior_operator
from .shapeopt import Trace, descend, penalised_cost

EIGEN_TOL = 1.0e-8
EIGEN_MAX_ITER = 500
LOTKA_TOL = 1.0e-10
VERDICT_TOLERANCE = 1.0e-6
SIGN_VARIANTS = ("descent", "printed")

ERADICATION_TRACE_COLUMNS = (
    "n",
    "psi",
    "population_term",
    "length_term",
    "area_term",
    "region_area",
    "region_length",
    "phi_change",
    "theta",
    "sign_variant",
    "stop_reason",
)


def _age_samples(spec, ages: np.ndarray, name: str) -> np.ndarray:
    if callable(spec):
        values = np.asarray(spec(ages), dtype=float)
        values = np.broadcast_to(values, ages.shape).copy()
    else:
        values = np.atleast_1d(np.asarray(spec, dtype=float))
        if values.shape == (1,):
            values = np.full(ages.shape, values[0])
    if values.shape != ages.shape:
        raise ValueError(
            f"{name} samples have shape {values.shape}, expected {ages.shape}"
        )
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} samples must be finite on the age grid")
    if np.any(values < 0.0):
        raise ValueError(f"{name} must be nonnegative")
    return values


@dataclass
class AgeModelParams:
    """Data of the age-structured model on the age grid.

    fertility and mortality may be given as callables of age or as
    arrays of Na+1 samples; y0 as a callable (x1, x2, a) or a constant.
    The logistic term is M(s) = logistic_slope * s.  The time step is
    locked to the age step A/Na, so the horizon T must be an integer
    multiple of it.
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
    fertility_samples: np.ndarray = field(init=False, repr=False)
    mortality_samples: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not (self.A > 0.0):
            raise ValueError(f"maximal age must be positive, got {self.A}")
        if int(self.Na) != self.Na or self.Na < 2:
            raise ValueError(f"Na must be an integer >= 2, got {self.Na}")
        self.Na = int(self.Na)
        if self.d < 0.0:
            raise ValueError(f"diffusion must be nonnegative, got {self.d}")
        if self.L < 0.0:
            raise ValueError(f"effort bound must be nonnegative, got {self.L}")
        if self.logistic_slope < 0.0:
            raise ValueError("logistic slope must be nonnegative")
        if not (self.T > 0.0):
            raise ValueError(f"horizon must be positive, got {self.T}")
        steps = self.T / self.da
        if abs(steps - round(steps)) > 1.0e-9:
            raise ValueError(
                f"T = {self.T} is not an integer multiple of the age step "
                f"{self.da} (time step is locked to the age step)"
            )
        ages = self.ages
        self.fertility_samples = _age_samples(self.fertility, ages, "fertility")
        self.mortality_samples = _age_samples(self.mortality, ages, "mortality")
        if not callable(self.y0):
            y0c = float(self.y0)
            if y0c < 0.0:
                raise ValueError("y0 must be nonnegative")

    @property
    def da(self) -> float:
        return self.A / self.Na

    @property
    def ages(self) -> np.ndarray:
        return np.linspace(0.0, self.A, self.Na + 1)

    @property
    def n_time(self) -> int:
        return int(round(self.T / self.da))

    def initial_density(self, grid: GridSpec) -> np.ndarray:
        x1, x2 = grid.mesh()
        values = np.empty((self.Na + 1, grid.N + 1, grid.N + 1))
        for level, age in enumerate(self.ages):
            if callable(self.y0):
                values[level] = np.broadcast_to(
                    np.asarray(self.y0(x1, x2, age), dtype=float), x1.shape
                )
            else:
                values[level] = float(self.y0)
        if not np.all(np.isfinite(values)):
            raise ValueError("y0 must be finite")
        if np.any(values < 0.0):
            raise ValueError("y0 must be nonnegative")
        return values


@dataclass
class AgeDensityField:
    """Density on the (time, age, space, space) grid."""

    grid: GridSpec
    ages: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        n = self.grid.N + 1
        expected = (self.values.shape[0], self.ages.size, n, n)
        if self.values.shape != expected:
            raise ValueError(
                f"values have shape {self.values.shape}, expected {expected}"
            )


def age_trapezoid_weights(Na: int, da: float) -> np.ndarray:
    weights = np.full(Na + 1, da)
    weights[0] = weights[-1] = da / 2.0
    return weights


def lotka_root(params: AgeModelParams) -> float:
    """Root r* of the characteristic equation of the age dynamics.

    Solves int beta(a) exp(-int_0^a mu - r a) da = 1 by bracketing and
    bisection on the strictly decreasing left-hand side; the inner
    integrals use composite trapezoid on the age grid.
    """
    beta = params.fertility_samples
    if not np.any(beta > 0.0):
        raise SolverFailure(
            "characteristic equation has no root: fertility is identically zero"
        )
    mu = params.mortality_samples
    da = params.da
    ages = params.ages
    cumulative_mu = np.concatenate(
        ([0.0], np.cumsum(0.5 * (mu[:-1] + mu[1:]) * da))
    )
    weights = age_trapezoid_weights(params.Na, da)

    def lhs(r: float) -> float:
        return float(weights @ (beta * np.exp(-cumulative_mu - r * ages)))

    lo, hi = 0.0, 0.0
    if lhs(0.0) >= 1.0:
        hi = 1.0
        while lhs(hi) > 1.0:
            lo, hi = hi, 2.0 * hi
            if hi > 1.0e308:
                raise SolverFailure("failed to bracket the characteristic root")
    else:
        lo = -1.0
        while lhs(lo) < 1.0:
            hi, lo = lo, 2.0 * lo
            if lo < -1.0e308:
                raise SolverFailure("failed to bracket the characteristic root")
    for _ in range(20_000):
        mid = 0.5 * (lo + hi)
        value = lhs(mid)
        if abs(value - 1.0) <= LOTKA_TOL:
            return mid
        if value > 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1.0e-15 * max(1.0, abs(mid)):
            break
    raise ConvergenceFailure(
        f"bisection stalled on the characteristic equation: |LHS-1| = "
        f"{abs(lhs(0.5 * (lo + hi)) - 1.0):.3e} > {LOTKA_TOL}"
    )


def eigen_operator_matrix(
    phi: LevelSetFunction, d: float, L: float, grid: GridSpec
) -> sparse.csc_matrix:
    """Symmetric interior-node matrix of -d lap + L chi_omega (Neumann).

    The Neumann closure folds boundary nodes onto their interior
    neighbors, leaving the graph Laplacian of the interior grid scaled
    by d / h^2 plus the diagonal indicator term.
    """
    if phi.grid != grid:
        raise ValueError("phi is not on the given grid")
    if d < 0.0 or L < 0.0:
        raise ValueError("d and L must be nonnegative")
    indicator = (phi.phi.values > 0.0).astype(float)
    return interior_operator(d / (grid.h * grid.h), L * indicator)


def principal_eigenvalue(
    phi: LevelSetFunction, d: float, L: float, grid: GridSpec
) -> float:
    """Smallest eigenvalue of -d lap + L chi_omega by block-1 LOBPCG.

    The region indicator is sharp (phi > 0 on nodes).  Each step projects
    onto span{x, T r, p}, with T the step solver's DCT inverse of
    (mean(L chi) + 1e-3) I - d lap (Knyazev 2001), starting from the
    constant vector.  Stops at a relative eigenresidual of 1e-8; running
    out of EIGEN_MAX_ITER steps raises ConvergenceFailure, and non-finite
    values or a failed projection raise SolverFailure.
    """
    matrix = eigen_operator_matrix(phi, d, L, grid)
    n1 = grid.N - 1
    stepper = _ImplicitStepper(grid.N, d / (grid.h * grid.h))
    shift = L * np.mean(phi.phi.values[1:-1, 1:-1] > 0.0) + 1.0e-3
    x = np.full(n1 * n1, 1.0 / n1)
    image = matrix @ x
    value = float(x @ image)
    update = np.empty((n1 * n1, 0))  # no previous update before step 1
    for step in range(EIGEN_MAX_ITER + 1):
        r = image - value * x
        residual = float(np.linalg.norm(r))
        if not np.isfinite(residual):
            raise SolverFailure("eigen iteration produced non-finite values")
        if residual <= EIGEN_TOL * max(1.0, abs(value)):
            return value
        if step == EIGEN_MAX_ITER:
            break
        columns = [x, stepper.precondition(shift, r.reshape(n1, n1)).ravel(), update]
        try:
            basis = np.linalg.qr(np.column_stack(columns))[0]
            images = matrix @ basis
            values, vectors = np.linalg.eigh(basis.T @ images)
        except np.linalg.LinAlgError as exc:
            raise SolverFailure(f"eigen Rayleigh-Ritz step failed: {exc}") from exc
        coeffs = vectors[:, 0]
        # basis[:, 0] is +-x, so the rest of the Ritz vector is the update.
        update = basis[:, 1:] @ coeffs[1:, None]
        x = basis @ coeffs
        image = images @ coeffs
        value = float(values[0])
    raise ConvergenceFailure(
        f"eigenvalue iteration stagnated after {EIGEN_MAX_ITER} steps: "
        f"residual {residual:.3e} at value {value:.6e}"
    )


@dataclass
class EradicabilityReport:
    """Verdict of the eigenvalue-versus-growth-rate comparison."""

    r_star: float
    lambda1: float
    margin: float
    verdict: str


def eradicability_verdict(
    phi: LevelSetFunction, model: AgeModelParams, grid: GridSpec
) -> EradicabilityReport:
    """Compare lambda_1 of the region against r* and classify.

    Margins beyond +-VERDICT_TOLERANCE give Eradicable / NotEradicable;
    anything inside the band is Indeterminate (the comparison is too
    close for the discrete operators to call).
    """
    r_star = lotka_root(model)
    lambda1 = principal_eigenvalue(phi, model.d, model.L, grid)
    margin = lambda1 - r_star
    if margin > VERDICT_TOLERANCE:
        verdict = "Eradicable"
    elif margin < -VERDICT_TOLERANCE:
        verdict = "NotEradicable"
    else:
        verdict = "Indeterminate"
    return EradicabilityReport(r_star, lambda1, margin, verdict)


def _effort_field(
    phi: LevelSetFunction,
    model: AgeModelParams,
    control: str,
    m: Mollifier | None,
) -> np.ndarray:
    if control == "off":
        return np.zeros_like(phi.phi.values)
    if control == "sharp":
        return model.L * (phi.phi.values > 0.0).astype(float)
    if control == "mollified":
        if m is None:
            raise ValueError("mollified control needs a mollifier")
        return model.L * heaviside_mollified(phi.phi.values, m)
    raise ValueError(
        f"control must be 'off', 'sharp' or 'mollified', got {control!r}"
    )


def solve_age_structured(
    phi: LevelSetFunction,
    model: AgeModelParams,
    control: str = "off",
    m: Mollifier | None = None,
) -> AgeDensityField:
    """March the age-structured model from its initial density.

    Each time step (dt = age step) shifts every age level up one cell
    along the aging characteristic, applies the implicit diffusion and
    decay solve to all levels at once (decay rate mu(a) + M(P) + u, with
    the logistic pressure P = int y da lagged at the previous time level),
    and closes with the renewal integral for the newborn level, handled
    implicitly in its own weight.  Density transported past the maximal
    age flows out.  control selects no harvesting ("off"), the sharp
    indicator region ("sharp") or the mollified one ("mollified").
    """
    grid = phi.grid
    dt = model.da
    effort = _effort_field(phi, model, control, m)
    beta = model.fertility_samples
    mu = model.mortality_samples
    weights = age_trapezoid_weights(model.Na, model.da)
    newborn_weight = weights[0] * beta[0]
    if newborn_weight >= 1.0:
        raise ValueError(
            "renewal step is ill-posed: fertility at age 0 times the half "
            f"age step is {newborn_weight:.3g} >= 1; refine the age grid"
        )
    stepper = _ImplicitStepper(grid.N, model.d * dt / (grid.h * grid.h))
    y = np.empty((model.n_time + 1, model.Na + 1) + effort.shape)
    y[0] = model.initial_density(grid)
    slope = model.logistic_slope
    for k in range(model.n_time):
        pressure = np.tensordot(weights, y[k], axes=(0, 0))
        e1 = dt * (mu[1:, None, None] + slope * pressure + effort)
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
    return AgeDensityField(grid=grid, ages=model.ages, values=y)


def total_population(density: AgeDensityField) -> np.ndarray:
    """Population integral over age and space at each time level."""
    Na = density.ages.size - 1
    da = density.ages[-1] / Na if Na else 0.0
    weights = age_trapezoid_weights(Na, da)
    per_time = np.empty(density.values.shape[0])
    for k in range(per_time.size):
        merged = np.tensordot(weights, density.values[k], axes=(0, 0))
        per_time[k] = simpson_integral_2d(ScalarField(density.grid, merged))
    return per_time


def _final_population(phi: LevelSetFunction, model: AgeModelParams, m: Mollifier):
    density = solve_age_structured(phi, model, control="mollified", m=m)
    return float(total_population(density)[-1]), density


def evaluate_psi(
    phi: LevelSetFunction,
    model: AgeModelParams,
    penalties,
    m: Mollifier,
):
    """Region cost Psi and its components for the eradication problem.

    Runs the model under the mollified effort H_eps(phi) L and returns
    (Psi, (population term, weighted length term, weighted area term)),
    the first being the age-space integral of the final-time density
    (trapezoid in age, Simpson in space).
    """
    measure = partial(_final_population, model=model, m=m)
    psi, terms, *_ = penalised_cost(phi, measure, penalties, m)
    return psi, terms


def solve_eradication_adjoint(
    phi: LevelSetFunction,
    density: AgeDensityField,
    model: AgeModelParams,
    m: Mollifier,
    terminal_value: float = 1.0,
) -> AgeDensityField:
    """Backward dual field of the final-population cost.

    Integrates the backward-in-time, backward-in-age transport with
    implicit diffusion: each step sets r at (age level l, time k) from
    r at (l+1, k+1) along the characteristic, with decay mu(a) + M(P) +
    L H_eps(phi) implicit and the nonlocal sources (the logistic
    derivative paired with int r y da, and the fertility times the
    newborn trace) lagged at time level k+1.  Terminal data is
    terminal_value except on the maximal-age line, which is held at 0.
    """
    grid = phi.grid
    if density.grid != grid:
        raise ValueError("density is not on the phi grid")
    steps = density.values.shape[0] - 1
    dt = model.da
    beta = model.fertility_samples
    mu = model.mortality_samples
    weights = age_trapezoid_weights(model.Na, model.da)
    harvested = model.L * heaviside_mollified(phi.phi.values, m)
    stepper = _ImplicitStepper(grid.N, model.d * dt / (grid.h * grid.h))
    slope = model.logistic_slope
    r = np.empty_like(density.values)
    r[steps] = terminal_value
    r[steps, model.Na] = 0.0
    for k in range(steps - 1, -1, -1):
        pressure = np.tensordot(weights, density.values[k], axes=(0, 0))
        coupling = np.tensordot(
            weights, r[k + 1] * density.values[k + 1], axes=(0, 0)
        )
        source = dt * (-slope * coupling + np.multiply.outer(beta, r[k + 1][0]))
        e1 = dt * (mu[:-1, None, None] + slope * pressure + harvested)
        r[k][:-1] = stepper.step(e1, r[k + 1][1:] + source[:-1])
        r[k][model.Na] = 0.0
    return AgeDensityField(grid=grid, ages=model.ages, values=r)


def eradication_velocity(
    phi: LevelSetFunction,
    density: AgeDensityField,
    dual: AgeDensityField,
    model: AgeModelParams,
    penalties,
    sign_variant: str = "descent",
):
    """Nodal velocity for the eradication descent and its curvature weight.

    Returns (velocity field, implicit curvature weight).  The data term
    integrates r * y over age and time by trapezoid in both.  The
    "descent" variant mirrors the harvest problem: velocity
    -beta + L * integral with the length term applied implicitly at
    weight alpha.  The "printed" variant follows the published system
    verbatim (opposite alpha and beta signs), with its negative-weight
    curvature term applied explicitly inside the velocity.
    """
    if sign_variant not in SIGN_VARIANTS:
        raise ValueError(f"sign_variant must be one of {SIGN_VARIANTS}")
    alpha, beta_weight = penalties
    steps = density.values.shape[0] - 1
    dt = model.da
    age_w = age_trapezoid_weights(model.Na, model.da)
    time_w = age_trapezoid_weights(steps, dt)
    product = dual.values * density.values
    merged = np.tensordot(age_w, np.tensordot(time_w, product, axes=(0, 0)), axes=(0, 0))
    data_term = model.L * merged
    if sign_variant == "descent":
        velocity = ScalarField(phi.grid, -beta_weight + data_term)
        return velocity, alpha
    curvature = curvature_divergence(phi.phi)
    velocity = ScalarField(
        phi.grid, -alpha * curvature.values + beta_weight - data_term
    )
    return velocity, 0.0


def optimize_eradication_region(
    phi0: LevelSetFunction,
    model: AgeModelParams,
    penalties,
    m: Mollifier,
    max_iter: int = 200,
    eps1: float = 1.0e-3,
    eps2: float = 1.0e-3,
    theta0: float = 0.05,
    sign_variant: str = "descent",
    callback=None,
):
    """Shape the harvesting region to minimize Psi by shapeopt.descend.

    The age-structured model gives Psi and its dual the velocity.  Every
    step is gated on an actual Psi decrease regardless of the sign
    variant.  Returns (best iterate by Psi, trace, its age density).
    """
    if sign_variant not in SIGN_VARIANTS:
        raise ValueError(f"sign_variant must be one of {SIGN_VARIANTS}")

    def direction(phi, density):
        dual = solve_eradication_adjoint(phi, density, model, m)
        return eradication_velocity(
            phi, density, dual, model, penalties, sign_variant
        )

    return descend(
        phi0,
        partial(_final_population, model=model, m=m),
        direction,
        m,
        Trace(ERADICATION_TRACE_COLUMNS, {"sign_variant": sign_variant}),
        penalties=penalties,
        max_iter=max_iter,
        eps1=eps1,
        eps2=eps2,
        theta0=theta0,
        callback=callback,
    )
