"""Outer descent loop that reshapes a control region, and the harvest cost.

The cost of a harvest region encoded by the level-set function phi is

    J(phi) = int y0 p(x, 0) dx + alpha * length + beta * area,

with p the backward adjoint of the harvested model under the bang-bang
effort.  Its shape derivative yields the nodal descent velocity

    v = -beta + L * int_0^T (1 + p) H_eps(1 + p) r dt,

where r is the forward sensitivity; the interface-length penalty enters
as a curvature term treated semi-implicitly inside evolve_phi.  The loop
(descend, shared with the eradication cost of the agestruct module)
evaluates the cost, stops on a small decrement or an increase, otherwise
steps phi along the velocity and repeats.  When a step increases the cost
the step size is halved and retried a few times before giving up; a pure
descent mode disables that retry and stops on the first increase.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import SolverFailure
from .grid import ScalarField, SpaceTimeField, simpson_integral_2d, simpson_weights
from .levelset import (
    LevelSetFunction,
    Mollifier,
    evolve_phi,
    heaviside_mollified,
    region_area,
    region_length,
)
from .pde import (
    ControlProblemParams,
    solve_adjoint,
    solve_sensitivity,
)

# the nominal step and up to five halvings of it
MAX_TRIALS = 6

TRACE_COLUMNS = (
    "n",
    "cost",
    "adjoint_term",
    "length_term",
    "area_term",
    "region_area",
    "region_length",
    "phi_change",
    "theta",
    "stop_reason",
)


@dataclass
class IterationRecord:
    """One accepted iterate; terms are the three summands of cost."""

    n: int
    cost: float
    terms: tuple
    region_area: float
    region_length: float
    phi_change: float
    theta: float


@dataclass
class Trace:
    """Accepted iterates in order plus the reason the loop stopped.

    columns is the CSV header; constants maps each column between theta
    and stop_reason to its value on every row.
    """

    columns: tuple = TRACE_COLUMNS
    constants: dict = field(default_factory=dict)
    records: list = field(default_factory=list)
    stop_reason: str | None = None

    def costs(self) -> np.ndarray:
        return np.array([r.cost for r in self.records])

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(self.columns)
            last = len(self.records) - 1
            for idx, r in enumerate(self.records):
                reason = self.stop_reason if idx == last else ""
                values = (
                    r.cost,
                    *r.terms,
                    r.region_area,
                    r.region_length,
                    r.phi_change,
                    r.theta,
                )
                writer.writerow(
                    [r.n]
                    + [format(value, ".17g") for value in values]
                    + list(self.constants.values())
                    + [reason]
                )


def _measure_J(phi: LevelSetFunction, params: ControlProblemParams):
    adjoint = solve_adjoint(phi, params)
    adjoint_term = simpson_integral_2d(
        ScalarField(params.grid, params.y0.values * adjoint.values[0])
    )
    length_term = params.alpha * region_length(phi, params.mollifier)
    area_term = params.beta * region_area(phi, params.mollifier)
    total = adjoint_term + length_term + area_term
    return total, (adjoint_term, length_term, area_term), adjoint


def evaluate_J(phi: LevelSetFunction, params: ControlProblemParams):
    """Cost of the region {phi > 0} and its three components.

    Solves the adjoint internally and returns (J, (adjoint term,
    weighted length term, weighted area term)).
    """
    cost, terms, _ = _measure_J(phi, params)
    return cost, terms


def descent_velocity(
    phi: LevelSetFunction,
    adjoint: SpaceTimeField,
    sensitivity: SpaceTimeField,
    params: ControlProblemParams,
) -> ScalarField:
    """Nodal descent velocity -beta + L int (1+p) H_eps(1+p) r dt.

    The time integral uses composite Simpson over the M (even) steps.
    The curvature part of the descent direction is not included here;
    evolve_phi applies it implicitly with weight alpha.
    """
    grid = params.grid
    if phi.grid != grid or adjoint.grid != grid or sensitivity.grid != grid:
        raise ValueError("inputs are not on the problem grid")
    shifted = 1.0 + adjoint.values
    integrand = shifted * heaviside_mollified(shifted, params.mollifier)
    integrand = integrand * sensitivity.values
    weights = simpson_weights(grid.M, grid.dt)
    integral = np.tensordot(weights, integrand, axes=(0, 0))
    return ScalarField(grid, -params.beta + params.L * integral)


def _phi_distance(a: LevelSetFunction, b: LevelSetFunction) -> float:
    diff = a.phi.values - b.phi.values
    return float(np.sqrt(simpson_integral_2d(ScalarField(a.grid, diff * diff))))


def descend(
    phi0: LevelSetFunction,
    measure,
    direction,
    m: Mollifier,
    trace: Trace,
    *,
    max_iter: int,
    eps1: float,
    eps2: float,
    theta0: float,
    paper_mode: bool = False,
    callback=None,
):
    """Run the outer descent loop from phi0.

    measure(phi) returns (cost, its three terms, solver state) and
    direction(phi, state) returns (velocity, curvature weight).  Each
    pass evaluates the cost, checks the stopping rules (small decrement,
    increase, small phi change, iteration budget), then moves phi one
    semi-implicit step along the velocity.  An increase triggers
    step-size halving with up to 5 retries unless paper_mode is set, in
    which case the first increase stops the loop on the spot.

    Fills trace and returns (best iterate by cost, trace).  Solver
    failures re-raise with the partial trace attached as exc.trace.  The
    optional callback receives (n, phi, record) after each accepted
    iterate.

    Stop reasons: "J tolerance", "J increase", "phi tolerance",
    "iteration budget".
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if not (eps1 > 0.0 and eps2 > 0.0 and theta0 > 0.0):
        raise ValueError("eps1, eps2 and theta0 must be positive")
    phi = phi0
    best_phi = phi0
    best_cost = np.inf
    cost_prev = np.inf
    phi_change = 0.0
    theta = 0.0
    n = 1
    try:
        cost, terms, state = measure(phi)
        while True:
            record = IterationRecord(
                n=n,
                cost=cost,
                terms=terms,
                region_area=region_area(phi, m),
                region_length=region_length(phi, m),
                phi_change=phi_change,
                theta=theta,
            )
            trace.records.append(record)
            if cost < best_cost:
                best_cost = cost
                best_phi = phi
            if callback is not None:
                callback(n, phi, record)
            if n > 1 and phi_change < eps2:
                stop = "phi tolerance"
                break
            if abs(cost - cost_prev) < eps1:
                stop = "J tolerance"
                break
            if cost >= cost_prev:
                stop = "J increase"
                break
            if n >= max_iter:
                stop = "iteration budget"
                break
            velocity, curvature_weight = direction(phi, state)
            theta = theta0
            closest_gap = np.inf
            for _ in range(1 if paper_mode else MAX_TRIALS):
                phi_next = evolve_phi(phi, velocity, theta, m, alpha=curvature_weight)
                cost_next, terms_next, state_next = measure(phi_next)
                if paper_mode or cost_next < cost:
                    break
                closest_gap = min(closest_gap, abs(cost_next - cost))
                theta *= 0.5
            else:
                # No step decreased the cost; the non-decrease rule fires,
                # with the small-decrement clause taking precedence when
                # some trial landed within the tolerance.
                stop = "J tolerance" if closest_gap < eps1 else "J increase"
                break
            phi_change = _phi_distance(phi_next, phi)
            cost_prev = cost
            phi = phi_next
            cost = cost_next
            terms = terms_next
            state = state_next
            n += 1
    except SolverFailure as exc:
        trace.stop_reason = "solver failure"
        exc.trace = trace
        raise
    trace.stop_reason = stop
    return best_phi, trace


def optimize_region(
    phi0: LevelSetFunction,
    params: ControlProblemParams,
    max_iter: int = 200,
    paper_mode: bool = False,
    callback=None,
):
    """Minimize J from phi0 by descend: the adjoint gives J, the
    sensitivity the velocity, and alpha weighs the implicit curvature.

    Returns (best iterate by cost, trace).  Solver failures re-raise
    with the partial trace attached as exc.trace.
    """

    def direction(phi, adjoint):
        sensitivity = solve_sensitivity(phi, adjoint, params)
        return descent_velocity(phi, adjoint, sensitivity, params), params.alpha

    return descend(
        phi0,
        lambda phi: _measure_J(phi, params),
        direction,
        params.mollifier,
        Trace(),
        max_iter=max_iter,
        eps1=params.eps1,
        eps2=params.eps2,
        theta0=params.theta0,
        paper_mode=paper_mode,
        callback=callback,
    )
