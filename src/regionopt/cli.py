"""Command line runner: parse a config file, run a pipeline, write artifacts.

Every pipeline writes human-inspectable, diff-friendly files into the
output directory: iteration traces as CSV, region masks as ASCII PGM,
fields as ``x1,x2,value`` CSV and a ``summary.txt`` of ``key = value``
lines (also echoed to stdout).  Runs are deterministic: the same config
produces byte-identical outputs.

Exit codes: 0 success, 2 bad configuration (also a config too large for
memory, an output directory or artifact that cannot be written),
3 solver failure, 4 convergence failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .agestruct import (
    AgeDensityField,
    eradicability_verdict,
    optimize_eradication_region,
    total_population,
)
from .config import RunConfig, parse_config
from .errors import ConfigError, ConvergenceFailure, SolverFailure
from .grid import ScalarField, SpaceTimeField, write_field_csv
from .levelset import write_region_pgm
from .pde import solve_forward
from .shapeopt import optimize_region


def _write_summary(out_dir: str, items) -> None:
    text = "".join(f"{key} = {value}\n" for key, value in items)
    with open(os.path.join(out_dir, "summary.txt"), "w") as handle:
        handle.write(text)
    sys.stdout.write(text)


def _region_snapshot_callback(out_dir: str, every: int):
    def callback(n, phi, record):
        if (n - 1) % every == 0:
            write_region_pgm(phi, os.path.join(out_dir, f"omega_{n:04d}.pgm"))

    return callback


def _run_forward(config: RunConfig, out_dir: str) -> int:
    grid = config.phi0.grid
    control = SpaceTimeField.constant(grid, config.control_level)
    state = solve_forward(config.phi0, control, config.model)
    h2 = grid.h * grid.h
    interior = state.values[:, 1:-1, 1:-1]
    masses = h2 * interior.sum(axis=(1, 2))
    drift = float(np.max(np.abs(masses - masses[0])) / max(abs(masses[0]), 1e-300))
    written = 0
    for k in range(grid.M + 1):
        if k % config.snapshot_every == 0 or k == grid.M:
            write_field_csv(
                state.level(k), os.path.join(out_dir, f"field_k{k:04d}.csv")
            )
            written += 1
    _write_summary(
        out_dir,
        [
            ("command", "forward"),
            ("control_level", format(config.control_level, ".17g")),
            ("mass_initial", format(masses[0], ".17g")),
            ("mass_final", format(masses[-1], ".17g")),
            ("mass_drift", format(drift, ".17g")),
            ("time_levels_written", written),
        ],
    )
    return 0


def _write_descent(config: RunConfig, out_dir: str, best, trace, extra) -> None:
    """Write trace.csv, omega_final.pgm and, last, the summary: five lines
    both descents share (the cost keyed by the trace's cost name), then
    extra."""
    trace.write_csv(os.path.join(out_dir, "trace.csv"))
    write_region_pgm(best, os.path.join(out_dir, "omega_final.pgm"))
    record = trace.best()
    _write_summary(
        out_dir,
        [
            ("command", config.command),
            ("iterations", trace.records[-1].n),
            ("stop_reason", trace.stop_reason),
            (f"final_{trace.cost}", format(record.cost, ".17g")),
            ("final_region_area", format(record.region_area, ".17g")),
            *extra,
        ],
    )


def _run_optimize_region(config: RunConfig, out_dir: str) -> int:
    callback = _region_snapshot_callback(out_dir, config.snapshot_every)
    best, trace, _ = optimize_region(
        config.phi0, config.model, config.convergence, callback=callback
    )
    length = format(trace.best().region_length, ".17g")
    _write_descent(config, out_dir, best, trace, [("final_region_length", length)])
    return 0


def _run_eradicability(config: RunConfig, out_dir: str) -> int:
    report = eradicability_verdict(config.phi0, config.model)
    _write_summary(
        out_dir,
        [
            ("command", "eradicability"),
            ("r_star", format(report.r_star, ".12g")),
            ("lambda1", format(report.lambda1, ".12g")),
            ("margin", format(report.margin, ".12g")),
            ("verdict", report.verdict),
            ("tolerance", format(report.tolerance, ".12g")),
        ],
    )
    return 0


def _run_optimize_eradication(config: RunConfig, out_dir: str) -> int:
    callback = _region_snapshot_callback(out_dir, config.snapshot_every)
    model = config.model
    best, trace, density = optimize_eradication_region(
        config.phi0, model, config.convergence, callback=callback
    )
    final = density.values[-1]
    for level in range(model.Na + 1):
        write_field_csv(
            ScalarField(density.grid, final[level]),
            os.path.join(out_dir, f"density_a{level:04d}.csv"),
        )
    ends = AgeDensityField(density.model, density.effort, density.values[[0, -1]])
    population = total_population(ends)
    extra = [
        ("population_initial", format(population[0], ".17g")),
        ("population_final", format(population[-1], ".17g")),
    ]
    _write_descent(config, out_dir, best, trace, extra)
    return 0


_PIPELINES = {
    "forward": _run_forward,
    "optimize-region": _run_optimize_region,
    "eradicability": _run_eradicability,
    "optimize-eradication": _run_optimize_eradication,
}


def _run_pipeline(config: RunConfig, target: str) -> int:
    try:
        # Settings too large for double precision, or for memory, fail as
        # solver failures.
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return _PIPELINES[config.command](config, target)
    except (SolverFailure, FloatingPointError, MemoryError) as exc:
        trace = getattr(exc, "trace", None)
        if trace is not None:
            trace.write_csv(os.path.join(target, "trace.csv"))
        print(f"{config.command}: solver failure: {exc}", file=sys.stderr)
        return 3
    except ConvergenceFailure as exc:
        print(f"{config.command}: convergence failure: {exc}", file=sys.stderr)
        return 4


def run(config: RunConfig, out_dir: str | None = None) -> int:
    """Execute the configured pipeline, writing artifacts into out_dir.

    Every setting, the step policy and snapshot interval included, comes
    from config.  out_dir defaults to the config's output directory and
    is created if absent.  Returns the process exit status; a failed
    descent leaves its partial trace.csv.  An artifact that cannot be
    written raises ConfigError naming it.
    """
    target = out_dir if out_dir is not None else config.output
    try:
        os.makedirs(target, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {target}: {exc}") from None
    try:
        return _run_pipeline(config, target)
    except OSError as exc:
        raise ConfigError(f"cannot write artifacts to {target}: {exc}") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="regionopt",
        description=(
            "Harvest-region optimization and pest-eradicability runs "
            "driven by an INI config file."
        ),
    )
    parser.add_argument(
        "--config", required=True, help="path to the run configuration file"
    )
    parser.add_argument(
        "--out", default=None, help="output directory (overrides the config)"
    )
    args = parser.parse_args(argv)
    try:
        return run(parse_config(args.config), out_dir=args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
