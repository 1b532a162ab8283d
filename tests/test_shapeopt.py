"""Tests for the outer region-descent loop and its cost evaluation."""

import csv
from collections import Counter

import numpy as np
import pytest

from regionopt import shapeopt
from regionopt.errors import FieldError, SolverFailure
from regionopt.grid import GridSpec, ScalarField, SpaceTimeField
from regionopt.levelset import (
    LevelSetFunction,
    Mollifier,
    circle_levelset,
    evolve_phi,
    heaviside_mollified,
)
from regionopt.pde import ControlProblemParams, solve_adjoint, solve_sensitivity
from regionopt.shapeopt import (
    Convergence,
    Trace,
    descent_velocity,
    evaluate_J,
    optimize_region,
)

STOP_REASONS = {"J tolerance", "J increase", "phi tolerance", "iteration budget"}


def gaussian_initial_density(grid):
    return ScalarField.from_function(
        grid,
        lambda x1, x2: np.exp(-(x1**2 + x2**2) / 2.0) / (2.0 * np.pi),
    )


def make_params(grid, L=1.0, alpha=0.4, beta=0.6, growth=3.0, **kwargs):
    return ControlProblemParams(
        d=1.0,
        a=ScalarField.constant(grid, growth),
        y0=gaussian_initial_density(grid),
        L=L,
        alpha=alpha,
        beta=beta,
        mollifier=Mollifier(1.0),
        **kwargs,
    )


def test_data_velocity_without_effort_is_zero():
    # The velocity is the data term's alone: descend adds -beta.
    grid = GridSpec(N=10, M=10, T=1.0)
    params = make_params(grid, L=0.0, beta=0.6)
    phi = circle_levelset(grid)
    p = solve_adjoint(phi, params)
    r = solve_sensitivity(phi, p, params)
    v = descent_velocity(p, r, params)
    assert np.all(v.values == 0.0)


def test_data_velocity_of_zero_sensitivity_is_zero():
    grid = GridSpec(N=10, M=10, T=1.0)
    params = make_params(grid, beta=0.25)
    phi = circle_levelset(grid)
    p = SpaceTimeField.constant(grid, 0.0)
    r = SpaceTimeField.constant(grid, 0.0)
    v = descent_velocity(p, r, params)
    assert np.all(v.values == 0.0)


@pytest.mark.parametrize("alpha", [0.0, 0.4])
def test_descend_moves_phi_under_its_own_penalties(alpha):
    # With L = 0 the data velocity is zero, so the accepted step is the
    # flow of the penalties alone: velocity -beta, curvature weight alpha.
    grid = GridSpec(N=10, M=10, T=1.0)
    params = make_params(grid, L=0.0, alpha=alpha, beta=0.6)
    phi0 = circle_levelset(grid)
    convergence = Convergence(max_iter=2)
    steps = {}

    def direction(phi, adjoint, model):
        sensitivity = solve_sensitivity(phi, adjoint, model)
        return descent_velocity(adjoint, sensitivity, model)

    shapeopt.descend(
        phi0,
        params,
        shapeopt._adjoint_term,
        direction,
        Trace(),
        convergence=convergence,
        callback=lambda n, phi, record: steps.setdefault(n, (phi, record.theta)),
    )
    phi1, theta = steps[2]
    assert theta == convergence.theta0
    expected = evolve_phi(
        phi0,
        ScalarField.constant(grid, -0.6),
        convergence.theta0,
        params.mollifier,
        alpha=alpha,
    )
    assert np.array_equal(phi1.phi.values, expected.phi.values)


def test_velocity_constant_integrand_pinned():
    grid = GridSpec(N=10, M=10, T=1.0)
    params = make_params(grid, L=1.0, beta=0.0)
    phi = circle_levelset(grid)
    p = SpaceTimeField.constant(grid, 0.0)
    r = SpaceTimeField.constant(grid, 1.0)
    v = descent_velocity(p, r, params)
    assert np.allclose(v.values, 0.75, rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("penalties", [(np.nan, 0.0), (0.0, np.nan), (-1.0, 0.0)])
def test_cost_rejects_negative_or_nan_weights(penalties):
    # penalised_cost reads its weights from the model, so a negative or
    # NaN weight is stopped by the constructor before any cost is formed.
    grid = GridSpec(N=8, M=2, T=1.0)
    alpha, beta = penalties
    measured = []
    with pytest.raises(ValueError, match="^(alpha|beta) must be"):
        params = make_params(grid, alpha=alpha, beta=beta)
        shapeopt.penalised_cost(
            circle_levelset(grid),
            params,
            lambda phi, model: measured.append(phi) or (0.0, None),
        )
    assert measured == []


def test_cost_zero_without_control_and_penalties():
    grid = GridSpec(N=10, M=10, T=1.0)
    params = make_params(grid, L=0.0, alpha=0.0, beta=0.0)
    J, parts = evaluate_J(circle_levelset(grid), params)
    assert J == 0.0
    assert parts == (0.0, 0.0, 0.0)


def test_cost_components_far_outside_region():
    grid = GridSpec(N=20, M=20, T=1.0)
    params = make_params(grid, alpha=0.4, beta=0.6)
    phi = LevelSetFunction(ScalarField.constant(grid, -1000.0))
    J, (adjoint_term, length_term, area_term) = evaluate_J(phi, params)
    assert length_term == 0.0
    h_far = heaviside_mollified(np.array(-1000.0), params.mollifier)
    assert area_term == pytest.approx(0.6 * h_far, rel=1e-12)
    assert adjoint_term < 0.0
    assert abs(adjoint_term) < 5e-4
    assert J == adjoint_term + length_term + area_term


def test_trivial_loop_stops_at_first_iterate():
    grid = GridSpec(N=10, M=10, T=1.0)
    params = make_params(grid, L=0.0, alpha=0.0, beta=0.0)
    best, trace, _ = optimize_region(
        circle_levelset(grid), params, Convergence(max_iter=10)
    )
    assert len(trace.records) == 1
    assert trace.records[0].n == 1
    assert trace.records[0].cost == 0.0
    assert trace.stop_reason in STOP_REASONS


def test_budget_of_one_gives_single_record():
    grid = GridSpec(N=10, M=10, T=1.0)
    params = make_params(grid)
    best, trace, _ = optimize_region(
        circle_levelset(grid), params, Convergence(max_iter=1)
    )
    assert len(trace.records) == 1
    assert trace.stop_reason == "iteration budget"


def test_max_iter_validation():
    grid = GridSpec(N=10, M=10, T=1.0)
    params = make_params(grid)
    with pytest.raises(ValueError):
        optimize_region(circle_levelset(grid), params, Convergence(max_iter=0))
    # A NaN budget would never be reached, so it and any other non-integer
    # are rejected; an integral float is stored as an int.
    for bad in (np.nan, np.inf, 2.5):
        with pytest.raises(FieldError) as excinfo:
            Convergence(max_iter=bad)
        assert excinfo.value.field == "max_iter"
        assert excinfo.value.complaint == f"must be an integer, got {bad}"
    assert type(Convergence(max_iter=3.0).max_iter) is int
    # The real settings follow the number rule: an infinite tolerance would
    # stop every descent at its second record, an infinite step make phi
    # non-finite.
    for key in ("eps1", "eps2", "theta0"):
        for bad, complaint in [
            (0.0, "must be positive, got 0.0"),
            (np.nan, "must be positive, got nan"),
            (np.inf, "must be finite, got inf"),
        ]:
            with pytest.raises(FieldError) as excinfo:
                Convergence(**{key: bad})
            assert (excinfo.value.field, excinfo.value.complaint) == (key, complaint)


def test_loop_decreases_cost_on_small_problem():
    grid = GridSpec(N=10, M=10, T=1.0)
    params = make_params(grid)
    best, trace, _ = optimize_region(
        circle_levelset(grid), params, Convergence(max_iter=8)
    )
    costs = trace.costs()
    assert len(costs) >= 3
    assert np.all(np.diff(costs) < 0.0)
    assert trace.stop_reason in STOP_REASONS
    record = trace.records[-1]
    assert 0.0 < record.region_area < 1.0


def test_first_record_has_zero_step_fields():
    grid = GridSpec(N=10, M=10, T=1.0)
    params = make_params(grid)
    _, trace, _ = optimize_region(
        circle_levelset(grid), params, Convergence(max_iter=3)
    )
    assert trace.records[0].phi_change == 0.0
    assert trace.records[0].theta == 0.0
    for record in trace.records[1:]:
        assert record.theta > 0.0


def test_returned_phi_has_lowest_recorded_cost():
    grid = GridSpec(N=10, M=10, T=1.0)
    params = make_params(grid)
    best, trace, _ = optimize_region(
        circle_levelset(grid), params, Convergence(max_iter=5)
    )
    J_best, _ = evaluate_J(best, params)
    assert J_best == pytest.approx(trace.costs().min(), rel=1e-12)


def test_paper_mode_accepts_then_checks():
    grid = GridSpec(N=10, M=10, T=1.0)
    params = make_params(grid, L=0.0, alpha=0.0, beta=0.0)
    best, trace, _ = optimize_region(
        circle_levelset(grid), params, Convergence(max_iter=10, step="paper")
    )
    assert len(trace.records) == 2
    assert trace.records[1].cost == 0.0
    assert trace.stop_reason == "phi tolerance"


def test_first_cost_above_a_million_still_descends():
    # The first iterate is compared against +inf, so a cost of any size
    # can take a step; J(circle) here is about 4.59e6.
    grid = GridSpec(N=20, M=20, T=1.0)
    params = make_params(grid, beta=1.0e7)
    _, trace, _ = optimize_region(
        circle_levelset(grid), params, Convergence(max_iter=200)
    )
    costs = trace.costs()
    assert len(costs) == 3
    assert costs[0] > 1.0e6
    assert costs[1] < 25.0
    assert np.all(np.diff(costs) < 0.0)
    assert trace.stop_reason == "phi tolerance"


def test_callback_sees_every_record():
    grid = GridSpec(N=10, M=10, T=1.0)
    params = make_params(grid)
    seen = []
    _, trace, _ = optimize_region(
        circle_levelset(grid),
        params,
        Convergence(max_iter=3),
        callback=lambda n, phi, record: seen.append((n, record.cost)),
    )
    assert seen == [(r.n, r.cost) for r in trace.records]


def test_solver_failure_carries_partial_trace():
    grid = GridSpec(N=4, M=2, T=1.0)
    params = ControlProblemParams(
        d=1e-8,
        a=ScalarField.constant(grid, 3.0),
        y0=ScalarField.constant(grid, 1.0),
        L=1.0,
        alpha=0.0,
        beta=0.0,
        mollifier=Mollifier(1.0),
    )
    with pytest.raises(SolverFailure) as excinfo:
        optimize_region(circle_levelset(grid), params, Convergence(max_iter=5))
    trace = excinfo.value.trace
    assert isinstance(trace, Trace)
    assert trace.stop_reason == "solver failure"
    assert len(trace.records) >= 1


def test_trace_csv_round_trip(tmp_path):
    grid = GridSpec(N=10, M=10, T=1.0)
    params = make_params(grid)
    _, trace, _ = optimize_region(
        circle_levelset(grid), params, Convergence(max_iter=3)
    )
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert path.read_bytes().startswith(
        b"n,cost,adjoint_term,length_term,area_term,region_area,region_length,phi_change,theta,stop_reason\r\n"
    )
    assert len(rows) == len(trace.records) + 1
    for row, record in zip(rows[1:], trace.records):
        assert int(row[0]) == record.n
        assert float(row[1]) == record.cost
        assert float(row[7]) == record.phi_change
    assert rows[-1][-1] == trace.stop_reason
    assert all(row[-1] == "" for row in rows[1:-1])


def test_region_geometry_computed_once_per_evaluated_phi(monkeypatch):
    # Every evaluated phi (the start and each trial step) solves one
    # adjoint; its area and length are computed once with it.
    counts = Counter()

    def counted(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in ("solve_adjoint", "region_area", "region_length"):
        monkeypatch.setattr(shapeopt, name, counted(name, getattr(shapeopt, name)))
    grid = GridSpec(N=10, M=10, T=1.0)
    _, trace, _ = optimize_region(
        circle_levelset(grid), make_params(grid), Convergence(max_iter=5)
    )
    assert counts["solve_adjoint"] >= len(trace.records) >= 3
    assert counts["region_area"] == counts["solve_adjoint"]
    assert counts["region_length"] == counts["solve_adjoint"]


@pytest.mark.parametrize("paper_mode", [False, True])
def test_best_state_is_the_adjoint_of_the_best_iterate(paper_mode):
    # With theta0 = 10 the paper-mode run ends on an increase, so its
    # best iterate is not the last one.
    grid = GridSpec(N=10, M=10, T=1.0)
    params = make_params(grid)
    best, trace, adjoint = optimize_region(
        circle_levelset(grid),
        params,
        Convergence(
            max_iter=20, theta0=10.0, step="paper" if paper_mode else "halving"
        ),
    )
    if paper_mode:
        assert trace.stop_reason == "J increase"
        assert trace.best() is not trace.records[-1]
    assert trace.best().cost == trace.costs().min()
    assert np.array_equal(adjoint.values, solve_adjoint(best, params).values)
    J_best, terms = evaluate_J(best, params)
    assert (J_best, terms) == (trace.best().cost, trace.best().terms)
