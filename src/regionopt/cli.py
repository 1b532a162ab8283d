"""Command line runner: parse a config file, run a pipeline, write artifacts.

Every pipeline writes human-inspectable, diff-friendly files into the
output directory: iteration traces as CSV, region masks as ASCII PGM,
fields as ``x1,x2,value`` CSV and a ``summary.txt`` of ``key = value``
lines (also echoed to stdout).  Runs are deterministic: the same config
produces byte-identical outputs.

Exit codes: 0 success, 2 bad configuration, 3 solver failure,
4 convergence failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .agestruct import (
    VERDICT_TOLERANCE,
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


def _run_forward(config: RunConfig, out_dir: str, snapshot_every: int) -> int:
    grid = config.grid
    control = SpaceTimeField.constant(grid, config.control_level)
    state = solve_forward(config.phi0, control, config.control)
    h2 = grid.h * grid.h
    interior = state.values[:, 1:-1, 1:-1]
    masses = h2 * interior.sum(axis=(1, 2))
    drift = float(np.max(np.abs(masses - masses[0])) / max(abs(masses[0]), 1e-300))
    written = 0
    for k in range(grid.M + 1):
        if k % snapshot_every == 0 or k == grid.M:
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


def _run_optimize_region(
    config: RunConfig, out_dir: str, paper_mode: bool, snapshot_every: int
) -> int:
    callback = _region_snapshot_callback(out_dir, snapshot_every)
    best, trace, _ = optimize_region(
        config.phi0,
        config.control,
        max_iter=config.max_iter,
        eps1=config.eps1,
        eps2=config.eps2,
        theta0=config.theta0,
        paper_mode=paper_mode,
        callback=callback,
    )
    trace.write_csv(os.path.join(out_dir, "trace.csv"))
    write_region_pgm(best, os.path.join(out_dir, "omega_final.pgm"))
    record = trace.best()
    _write_summary(
        out_dir,
        [
            ("command", "optimize-region"),
            ("iterations", trace.records[-1].n),
            ("stop_reason", trace.stop_reason),
            ("final_cost", format(record.cost, ".17g")),
            ("final_region_area", format(record.region_area, ".17g")),
            ("final_region_length", format(record.region_length, ".17g")),
        ],
    )
    return 0


def _run_eradicability(config: RunConfig, out_dir: str) -> int:
    report = eradicability_verdict(config.phi0, config.age_model, config.grid)
    _write_summary(
        out_dir,
        [
            ("command", "eradicability"),
            ("r_star", format(report.r_star, ".12g")),
            ("lambda1", format(report.lambda1, ".12g")),
            ("margin", format(report.margin, ".12g")),
            ("verdict", report.verdict),
            ("tolerance", format(VERDICT_TOLERANCE, ".12g")),
        ],
    )
    return 0


def _run_optimize_eradication(
    config: RunConfig, out_dir: str, snapshot_every: int
) -> int:
    callback = _region_snapshot_callback(out_dir, snapshot_every)
    model = config.age_model
    best, trace, density = optimize_eradication_region(
        config.phi0,
        model,
        (config.alpha, config.beta),
        config.mollifier,
        max_iter=config.max_iter,
        eps1=config.eps1,
        eps2=config.eps2,
        theta0=config.theta0,
        sign_variant=config.sign_variant,
        callback=callback,
    )
    trace.write_csv(os.path.join(out_dir, "trace.csv"))
    write_region_pgm(best, os.path.join(out_dir, "omega_final.pgm"))
    final = density.values[-1]
    for level in range(model.Na + 1):
        write_field_csv(
            ScalarField(config.grid, final[level]),
            os.path.join(out_dir, f"density_a{level:04d}.csv"),
        )
    population = total_population(density)
    record = trace.best()
    _write_summary(
        out_dir,
        [
            ("command", "optimize-eradication"),
            ("iterations", trace.records[-1].n),
            ("stop_reason", trace.stop_reason),
            ("sign_variant", config.sign_variant),
            ("final_psi", format(record.cost, ".17g")),
            ("final_region_area", format(record.region_area, ".17g")),
            ("population_initial", format(population[0], ".17g")),
            ("population_final", format(population[-1], ".17g")),
        ],
    )
    return 0


def run(
    config: RunConfig,
    out_dir: str | None = None,
    paper_mode: bool = False,
    snapshot_every: int = 1,
) -> int:
    """Execute the configured pipeline, writing artifacts into out_dir.

    out_dir defaults to the config's output directory and is created if
    absent.  paper_mode applies to optimize-region only.  Returns the
    process exit status; a failed descent leaves its partial trace.csv.
    """
    if snapshot_every < 1:
        raise ConfigError(f"snapshot-every must be >= 1, got {snapshot_every}")
    if paper_mode and config.command != "optimize-region":
        raise ConfigError(
            f"--paper-mode applies to optimize-region only, not {config.command}"
        )
    target = out_dir if out_dir is not None else config.output
    os.makedirs(target, exist_ok=True)
    try:
        if config.command == "forward":
            return _run_forward(config, target, snapshot_every)
        if config.command == "optimize-region":
            return _run_optimize_region(config, target, paper_mode, snapshot_every)
        if config.command == "eradicability":
            return _run_eradicability(config, target)
        return _run_optimize_eradication(config, target, snapshot_every)
    except SolverFailure as exc:
        trace = getattr(exc, "trace", None)
        if trace is not None:
            trace.write_csv(os.path.join(target, "trace.csv"))
        print(f"{config.command}: solver failure: {exc}", file=sys.stderr)
        return 3
    except ConvergenceFailure as exc:
        print(f"{config.command}: convergence failure: {exc}", file=sys.stderr)
        return 4


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
    parser.add_argument(
        "--paper-mode",
        action="store_true",
        help="optimize-region only: take every step at full size, no backtracking",
    )
    parser.add_argument(
        "--snapshot-every",
        type=int,
        default=1,
        metavar="K",
        help="write region or field snapshots every K iterations/time levels",
    )
    args = parser.parse_args(argv)
    try:
        config = parse_config(args.config)
        return run(
            config,
            out_dir=args.out,
            paper_mode=args.paper_mode,
            snapshot_every=args.snapshot_every,
        )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
