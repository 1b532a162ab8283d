"""Outer descent loop that reshapes a control region, and the harvest cost.

The cost of a harvest region encoded by the level-set function phi is

    J(phi) = int y0 p(x, 0) dx + alpha * length + beta * area,

with p the backward adjoint of the harvested model under the bang-bang
effort.  Its shape derivative yields the nodal descent velocity

    v = -beta + L * int_0^T (1 + p) H_eps(1 + p) r dt,

where r is the forward sensitivity; the interface-length penalty enters
as a curvature term treated semi-implicitly inside evolve_phi.  The loop
(descend, shared with the eradication cost of the agestruct module)
adds the two penalties to the data term of each iterate, stops on a
small decrement or an increase, otherwise steps phi along the velocity
and repeats.  When a step increases the cost the step size is halved
and retried a few times before giving up; a pure descent mode disables
that retry and stops on the first increase.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import partial

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

    def best(self) -> IterationRecord:
        """The first record of lowest cost: the iterate descend returns."""
        return min(self.records, key=lambda r: r.cost)

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


def _adjoint_term(phi: LevelSetFunction, params: ControlProblemParams):
    adjoint = solve_adjoint(phi, params)
    term = simpson_integral_2d(
        ScalarField(params.grid, params.y0.values * adjoint.values[0])
    )
    return term, adjoint


def penalised_cost(phi: LevelSetFunction, measure, penalties, m: Mollifier):
    """Region cost of phi as (cost, terms, area, length, state).

    measure(phi) gives (data term, state); terms = (data, alpha * length,
    beta * area) with the mollified region_area and region_length, and
    cost is their sum in that order.
    """
    alpha, beta = penalties
    if alpha < 0.0 or beta < 0.0:
        raise ValueError("penalty weights must be nonnegative")
    data, state = measure(phi)
    area = region_area(phi, m)
    length = region_length(phi, m)
    terms = (data, alpha * length, beta * area)
    return data + terms[1] + terms[2], terms, area, length, state


def evaluate_J(phi: LevelSetFunction, params: ControlProblemParams):
    """Cost of the region {phi > 0} and its three components.

    Solves the adjoint internally and returns (J, (adjoint term,
    weighted length term, weighted area term)).
    """
    measure = partial(_adjoint_term, params=params)
    penalties = (params.alpha, params.beta)
    cost, terms, *_ = penalised_cost(phi, measure, penalties, params.mollifier)
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
    penalties,
    max_iter: int,
    eps1: float,
    eps2: float,
    theta0: float,
    paper_mode: bool = False,
    callback=None,
):
    """Run the outer descent loop from phi0.

    measure(phi) returns (data term, solver state), to which
    penalised_cost adds the length and area penalties = (alpha, beta)
    once per evaluated phi; direction(phi, state) returns (velocity,
    curvature weight).  Each pass evaluates the cost, checks the
    stopping rules (small decrement, increase, small phi change,
    iteration budget), then moves phi one semi-implicit step along the
    velocity.  An increase triggers step-size halving with up to 5
    retries unless paper_mode is set, in which case the first increase
    stops the loop on the spot.

    Fills trace and returns (best_phi, trace, best_state): the iterate
    of lowest cost, whose record is trace.best(), and its solver state.
    Solver failures re-raise with the partial trace attached as
    exc.trace.  The optional callback receives (n, phi, record) after
    each accepted iterate.

    Stop reasons: "J tolerance", "J increase", "phi tolerance",
    "iteration budget".
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if not (eps1 > 0.0 and eps2 > 0.0 and theta0 > 0.0):
        raise ValueError("eps1, eps2 and theta0 must be positive")
    phi = phi0
    best_phi = best_state = best_cost = None
    cost_prev = np.inf
    phi_change = 0.0
    theta = 0.0
    n = 1
    try:
        cost, terms, area, length, state = penalised_cost(phi, measure, penalties, m)
        while True:
            record = IterationRecord(
                n=n,
                cost=cost,
                terms=terms,
                region_area=area,
                region_length=length,
                phi_change=phi_change,
                theta=theta,
            )
            trace.records.append(record)
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_phi = phi
                best_state = state
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
                trial = penalised_cost(phi_next, measure, penalties, m)
                if paper_mode or trial[0] < cost:
                    break
                closest_gap = min(closest_gap, abs(trial[0] - cost))
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
            cost, terms, area, length, state = trial
            n += 1
    except SolverFailure as exc:
        trace.stop_reason = "solver failure"
        exc.trace = trace
        raise
    trace.stop_reason = stop
    return best_phi, trace, best_state


def optimize_region(
    phi0: LevelSetFunction,
    params: ControlProblemParams,
    max_iter: int = 200,
    eps1: float = 1.0e-3,
    eps2: float = 1.0e-3,
    theta0: float = 0.05,
    paper_mode: bool = False,
    callback=None,
):
    """Minimize J from phi0 by descend: the adjoint gives J, the
    sensitivity the velocity, and alpha weighs the implicit curvature.

    eps1 and eps2 are the stopping tolerances on the cost decrement and
    on the L2 change of phi, theta0 the initial step size.  Returns
    (best iterate by cost, trace, its adjoint).  Solver failures re-raise
    with the partial trace attached as exc.trace.
    """

    def direction(phi, adjoint):
        sensitivity = solve_sensitivity(phi, adjoint, params)
        return descent_velocity(phi, adjoint, sensitivity, params), params.alpha

    return descend(
        phi0,
        partial(_adjoint_term, params=params),
        direction,
        params.mollifier,
        Trace(),
        penalties=(params.alpha, params.beta),
        max_iter=max_iter,
        eps1=eps1,
        eps2=eps2,
        theta0=theta0,
        paper_mode=paper_mode,
        callback=callback,
    )
