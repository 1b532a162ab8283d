"""Outer descent loop that reshapes a control region, and the harvest cost.

The cost of a harvest region encoded by the level-set function phi is

    J(phi) = int y0 p(x, 0) dx + alpha * length + beta * area,

with p the backward adjoint of the harvested model under the bang-bang
effort.  Its shape derivative yields the nodal descent velocity

    v = -beta + L * int_0^T (1 + p) H_eps(1 + p) r dt,

where r is the forward sensitivity; the interface-length penalty enters
as a curvature term treated semi-implicitly inside evolve_phi.  The loop
(descend, shared with the eradication cost of the agestruct module)
reads both penalties and the mollifier from the problem's model: it
adds the penalties to each iterate's data term, and -beta and the
alpha curvature to the data velocity, stops on a small decrement or an
increase, otherwise steps phi along the velocity and repeats.  A design
is two module functions of (phi, model), here _adjoint_term (the data
term and its adjoint) and _harvest_velocity (the L integral).
Convergence.step picks the step policy: under "halving" a step that
increases the cost is halved and retried a few times before giving up;
under "paper" each step is taken as it comes and the loop stops on the
first increase.  The loop's one record is its Trace of the records
penalised_cost built, and the iterate it returns is Trace.best()'s.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import FieldError, SolverFailure
from .grid import (
    ScalarField,
    SpaceTimeField,
    _bounded,
    _integer,
    simpson_integral_2d,
    simpson_weights,
)
from .levelset import (
    LevelSetFunction,
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
STEP_POLICIES = ("halving", "paper")

@dataclass(frozen=True)
class Convergence:
    """descend's [convergence] settings: whole-number iteration budget,
    tolerances on the cost decrement and the L2 change of phi and initial
    step size (each > 0 by grid's number rule), step policy (STEP_POLICIES)."""

    max_iter: int = 200
    eps1: float = 1.0e-3
    eps2: float = 1.0e-3
    theta0: float = 0.05
    step: str = "halving"

    def __post_init__(self):
        object.__setattr__(self, "max_iter", _integer(self.max_iter, "max_iter"))
        if self.max_iter < 1:
            raise FieldError("max_iter", f"must be >= 1, got {self.max_iter}")
        if self.step not in STEP_POLICIES:
            policies = ", ".join(STEP_POLICIES)
            raise FieldError("step", f"must be one of {policies}; got {self.step!r}")
        for key in ("eps1", "eps2", "theta0"):
            _bounded(getattr(self, key), key, positive=True)


@dataclass
class IterationRecord:
    """One iterate's cost as penalised_cost builds it, terms its three
    summands; descend sets n, phi_change and theta as it appends it."""

    cost: float
    terms: tuple
    region_area: float
    region_length: float
    n: int = 0
    phi_change: float = 0.0
    theta: float = 0.0


@dataclass
class Trace:
    """Accepted iterates in order plus the reason the loop stopped: the
    descent's one record.  cost and data name the cost and its data
    term, the two CSV columns that differ between objectives; columns is
    the CSV header."""

    cost: str = "cost"
    data: str = "adjoint_term"
    records: list = field(default_factory=list)
    stop_reason: str | None = None

    @property
    def columns(self) -> tuple:
        return (
            "n",
            self.cost,
            self.data,
            "length_term",
            "area_term",
            "region_area",
            "region_length",
            "phi_change",
            "theta",
            "stop_reason",
        )

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
                    + [reason]
                )


def _adjoint_term(phi: LevelSetFunction, params: ControlProblemParams):
    adjoint = solve_adjoint(phi, params)
    term = simpson_integral_2d(
        ScalarField(params.grid, params.y0.values * adjoint.values[0])
    )
    return term, adjoint


def penalised_cost(phi: LevelSetFunction, model, measure):
    """Region cost of phi as (record, state).

    model is the problem, ControlProblemParams or AgeModelParams: it
    holds the penalty weights alpha and beta and the mollifier.
    measure(phi, model) gives (data term, state); the IterationRecord
    holds terms = (data, alpha * length, beta * area) with the mollified
    region_area and region_length, and cost, their sum in that order.  A
    model without a mollifier raises ValueError before measure runs.
    """
    m = model.mollifier
    if m is None:
        raise ValueError("the region design needs a mollifier; the model has none")
    data, state = measure(phi, model)
    area = region_area(phi, m)
    length = region_length(phi, m)
    terms = (data, model.alpha * length, model.beta * area)
    return IterationRecord(data + terms[1] + terms[2], terms, area, length), state


def evaluate_J(phi: LevelSetFunction, params: ControlProblemParams):
    """Cost of the region {phi > 0} and its three components.

    Solves the adjoint internally and returns (J, (adjoint term,
    weighted length term, weighted area term)): penalised_cost's record
    under the harvest measure, _adjoint_term.
    """
    record, _ = penalised_cost(phi, params, _adjoint_term)
    return record.cost, record.terms


def descent_velocity(
    adjoint: SpaceTimeField,
    sensitivity: SpaceTimeField,
    params: ControlProblemParams,
) -> ScalarField:
    """Data velocity L int (1+p) H_eps(1+p) r dt of the harvest cost.

    The time integral uses composite Simpson over the M (even) steps.
    The penalties' parts of the descent direction, -beta and the
    curvature weighted by alpha, are added by descend.
    """
    grid = params.grid
    if adjoint.grid != grid or sensitivity.grid != grid:
        raise ValueError("inputs are not on the problem grid")
    shifted = 1.0 + adjoint.values
    integrand = shifted * heaviside_mollified(shifted, params.mollifier)
    integrand = integrand * sensitivity.values
    weights = simpson_weights(grid.M, grid.dt)
    integral = np.tensordot(weights, integrand, axes=(0, 0))
    return ScalarField(grid, params.L * integral)


def _harvest_velocity(phi: LevelSetFunction, adjoint, params: ControlProblemParams):
    sensitivity = solve_sensitivity(phi, adjoint, params)
    return descent_velocity(adjoint, sensitivity, params)


def _phi_distance(a: LevelSetFunction, b: LevelSetFunction) -> float:
    diff = a.phi.values - b.phi.values
    return float(np.sqrt(simpson_integral_2d(ScalarField(a.grid, diff * diff))))


def descend(
    phi0: LevelSetFunction,
    model,
    measure,
    direction,
    trace: Trace,
    convergence: Convergence,
    callback=None,
):
    """Run the outer descent loop from phi0.

    model is the problem, ControlProblemParams or AgeModelParams: the
    loop reads its penalty weights alpha and beta and its mollifier, and
    calls the objective's two functions with it: measure(phi, model)
    returns (data term, solver state) and direction(phi, state, model)
    the data term's velocity, a ScalarField.  The penalties enter here
    alone: penalised_cost adds alpha * length + beta * area to each data
    term, and phi moves along -beta plus the data velocity, with
    evolve_phi adding the curvature weighted by alpha.  Each pass
    evaluates the cost, checks the stopping rules of convergence (small
    decrement, increase, small phi change, iteration budget), then moves
    phi one semi-implicit step of size theta0 along the velocity.  Under
    convergence.step = "halving" a trial step that does not decrease the
    cost is halved, with up to 5 retries; under "paper" the one trial is
    taken as it is, so the first increase stops the loop at the next
    pass.

    Appends to trace, which starts empty and holds the run's history,
    the record penalised_cost built for each accepted iterate, with n,
    phi_change and theta set here (0.0 for the first iterate's last
    two), and returns (best_phi, trace, state): the iterate whose record
    is trace.best() and its solver state.  Solver failures re-raise with
    the partial trace attached as exc.trace.  The optional callback
    receives (n, phi, record) after each accepted iterate.

    Each trial is measured with no other solver state alive: an
    iterate's state is dropped once its direction is formed.  Unless the
    loop stops at the best iterate before forming its direction, the
    last trial's state is dropped too and measure(best_phi, model) runs
    once more; the solvers are deterministic, so it gives the same bits.

    Stop reasons: "J tolerance", "J increase", "phi tolerance",
    "iteration budget".
    """
    alpha, beta, m = model.alpha, model.beta, model.mollifier
    phi = phi0
    cost_prev = np.inf
    paper = convergence.step == "paper"
    try:
        record, state = penalised_cost(phi, model, measure)
        while True:
            record.n = len(trace.records) + 1
            trace.records.append(record)
            if trace.best() is record:
                best_phi = phi
            if callback is not None:
                callback(record.n, phi, record)
            if record.n > 1 and record.phi_change < convergence.eps2:
                stop = "phi tolerance"
                break
            if abs(record.cost - cost_prev) < convergence.eps1:
                stop = "J tolerance"
                break
            if record.cost >= cost_prev:
                stop = "J increase"
                break
            if record.n >= convergence.max_iter:
                stop = "iteration budget"
                break
            velocity = ScalarField(phi.grid, -beta + direction(phi, state, model).values)
            state = None  # served its direction
            theta = convergence.theta0
            closest_gap = np.inf
            for _ in range(1 if paper else MAX_TRIALS):
                trial = None  # so each trial's march is the one state alive
                phi_next = evolve_phi(phi, velocity, theta, m, alpha=alpha)
                trial = penalised_cost(phi_next, model, measure)
                if paper or trial[0].cost < record.cost:
                    break
                closest_gap = min(closest_gap, abs(trial[0].cost - record.cost))
                theta *= 0.5
            else:
                # No step decreased the cost; the non-decrease rule fires,
                # with the small-decrement clause taking precedence when
                # some trial landed within the tolerance.
                stop = "J tolerance" if closest_gap < convergence.eps1 else "J increase"
                break
            cost_prev = record.cost
            record, state = trial
            record.phi_change = _phi_distance(phi_next, phi)
            record.theta = theta
            phi = phi_next
        if state is None or best_phi is not phi:
            state = trial = None  # so the re-measure is the one state alive
            state = measure(best_phi, model)[1]
    except SolverFailure as exc:
        trace.stop_reason = "solver failure"
        exc.trace = trace
        raise
    trace.stop_reason = stop
    return best_phi, trace, state


def optimize_region(
    phi0: LevelSetFunction,
    params: ControlProblemParams,
    convergence: Convergence = Convergence(),
    callback=None,
):
    """Minimize J from phi0 by descend: the adjoint gives J and the
    sensitivity its data velocity.

    convergence holds the iteration budget, stopping tolerances,
    initial step size and step policy.  Returns (best iterate by cost,
    trace, its adjoint).  Solver failures re-raise with the partial trace
    attached as exc.trace.
    """
    return descend(
        phi0, params, _adjoint_term, _harvest_velocity, Trace(), convergence, callback
    )
