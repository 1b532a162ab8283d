"""Run-configuration parsing for the command line entry point.

Configuration files are INI-style text: ``key = value`` lines grouped
under ``[section]`` headers.  Coefficient entries accept a plain number,
a named preset, or a path to a CSV file (resolved relative to the
configuration file), so one format covers both uniform textbook runs
and spatially varying data.  Everything is validated here, before any
solve starts; problems raise :class:`~regionopt.errors.ConfigError`
with a message naming the offending key.
"""

from __future__ import annotations

import configparser
import csv
import os
from dataclasses import dataclass

import numpy as np

from .agestruct import SIGN_VARIANTS, AgeModelParams
from .errors import ConfigError
from .grid import GridSpec, ScalarField, read_field_csv
from .levelset import (
    LevelSetFunction,
    Mollifier,
    checkerboard_levelset,
    circle_levelset,
)
from .pde import ControlProblemParams

COMMANDS = ("forward", "optimize-region", "eradicability", "optimize-eradication")

_SECTION_KEYS = {
    "run": ("command", "output"),
    "grid": ("N", "M", "T"),
    "model": ("d", "a", "y0", "L", "u"),
    "penalty": ("alpha", "beta"),
    "mollifier": ("eps",),
    "convergence": ("eps1", "eps2", "theta0", "max_iter"),
    "levelset": ("init",),
    "agestruct": ("A", "Na", "fertility", "mortality", "m", "sign_variant"),
}

_BASE_REQUIRED = (
    ("run", "command"),
    ("grid", "N"),
    ("grid", "M"),
    ("grid", "T"),
    ("model", "d"),
    ("model", "L"),
    ("levelset", "init"),
)

_COMMAND_REQUIRED = {
    "forward": (
        ("model", "a"),
        ("model", "y0"),
        ("mollifier", "eps"),
    ),
    "optimize-region": (
        ("model", "a"),
        ("model", "y0"),
        ("mollifier", "eps"),
        ("penalty", "alpha"),
        ("penalty", "beta"),
    ),
    "eradicability": (
        ("agestruct", "A"),
        ("agestruct", "Na"),
        ("agestruct", "fertility"),
        ("agestruct", "mortality"),
    ),
    "optimize-eradication": (
        ("model", "y0"),
        ("mollifier", "eps"),
        ("penalty", "alpha"),
        ("penalty", "beta"),
        ("agestruct", "A"),
        ("agestruct", "Na"),
        ("agestruct", "fertility"),
        ("agestruct", "mortality"),
    ),
}


def gaussian_density(grid: GridSpec) -> ScalarField:
    """Normal bump (1 / 2pi) exp(-(x1^2 + x2^2) / 2) sampled on the grid."""
    return ScalarField.from_function(
        grid,
        lambda x1, x2: np.exp(-(x1 * x1 + x2 * x2) / 2.0) / (2.0 * np.pi),
    )


@dataclass
class RunConfig:
    """Validated settings for one pipeline run.

    Fields not used by ``command`` are left at their defaults (None for
    the parameter bundles), so a config only has to supply the sections
    its pipeline reads.
    """

    command: str
    output: str
    grid: GridSpec
    phi0: LevelSetFunction
    control_level: float
    alpha: float
    beta: float
    eps1: float
    eps2: float
    theta0: float
    max_iter: int
    sign_variant: str
    mollifier: Mollifier | None
    control: ControlProblemParams | None
    age_model: AgeModelParams | None


def _get_raw(parser, section: str, key: str):
    if parser.has_option(section, key):
        return parser.get(section, key)
    return None


def _get_float(parser, section: str, key: str, fallback=None):
    raw = _get_raw(parser, section, key)
    if raw is None:
        return fallback
    try:
        value = float(raw)
    except ValueError:
        value = np.nan
    if not np.isfinite(value):
        raise ConfigError(f"{section}.{key} must be a finite number, got {raw!r}")
    return value


def _get_int(parser, section: str, key: str, fallback=None):
    raw = _get_raw(parser, section, key)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(
            f"{section}.{key} must be an integer, got {raw!r}"
        ) from None


def _resolve_existing_path(base_dir: str, spec: str):
    path = spec if os.path.isabs(spec) else os.path.join(base_dir, spec)
    return path if os.path.exists(path) else None


def _field_spec(raw, grid, presets, base_dir, what) -> ScalarField:
    """Resolve a constant, preset name, or grid-CSV path to a field."""
    try:
        return ScalarField.constant(grid, float(raw))
    except ValueError:
        pass
    if raw in presets:
        return presets[raw](grid)
    path = _resolve_existing_path(base_dir, raw)
    if path is not None:
        try:
            return read_field_csv(path, grid)
        except ValueError as exc:
            raise ConfigError(f"{what}: bad field file {raw}: {exc}") from None
    names = ", ".join(sorted(presets)) if presets else "none"
    raise ConfigError(
        f"{what} must be a number, a preset ({names}), "
        f"or an existing CSV path; got {raw!r}"
    )


def read_age_samples_csv(path, ages: np.ndarray) -> np.ndarray:
    """Read an ``age,value`` CSV whose age column matches the age grid."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows or rows[0] != ["age", "value"]:
        raise ConfigError(f"{path}: expected header row age,value")
    body = rows[1:]
    if len(body) != ages.size:
        raise ConfigError(
            f"{path}: expected {ages.size} sample rows, found {len(body)}"
        )
    values = np.empty(ages.size)
    for idx, row in enumerate(body):
        if len(row) != 2:
            raise ConfigError(f"{path}: row {idx + 2} must have two columns")
        try:
            age = float(row[0])
            values[idx] = float(row[1])
        except ValueError:
            raise ConfigError(f"{path}: row {idx + 2} is not numeric") from None
        if abs(age - ages[idx]) > 1e-9 * max(1.0, abs(ages[idx])):
            raise ConfigError(
                f"{path}: row {idx + 2} age {age} does not match "
                f"grid age {ages[idx]}"
            )
    return values


def _age_spec(raw, ages, base_dir, what):
    try:
        return float(raw)
    except ValueError:
        pass
    path = _resolve_existing_path(base_dir, raw)
    if path is not None:
        return read_age_samples_csv(path, ages)
    raise ConfigError(
        f"{what} must be a number or an existing CSV path; got {raw!r}"
    )


def parse_config(path) -> RunConfig:
    """Parse and validate a run configuration file.

    Unknown sections or keys, missing required keys (collected into a
    single message), unparsable values and values rejected by the model
    constructors all raise ConfigError.
    """
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#", ";")
    )
    parser.optionxform = str
    try:
        with open(path) as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from None
    base_dir = os.path.dirname(os.path.abspath(path))

    for section in parser.sections():
        if section not in _SECTION_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _SECTION_KEYS[section]:
                raise ConfigError(f"unknown key {section}.{key}")

    command = _get_raw(parser, "run", "command")
    if command is not None and command not in COMMANDS:
        raise ConfigError(
            f"run.command must be one of {', '.join(COMMANDS)}; got {command!r}"
        )
    required = list(_BASE_REQUIRED)
    if command is not None:
        required += list(_COMMAND_REQUIRED[command])
    missing = [f"{s}.{k}" for s, k in required if not parser.has_option(s, k)]
    if missing:
        raise ConfigError("missing required keys: " + ", ".join(missing))

    try:
        grid = GridSpec(
            N=_get_int(parser, "grid", "N"),
            M=_get_int(parser, "grid", "M"),
            T=_get_float(parser, "grid", "T"),
        )
    except ValueError as exc:
        raise ConfigError(f"grid section rejected: {exc}") from None

    output = _get_raw(parser, "run", "output") or "out"
    d = _get_float(parser, "model", "d")
    L = _get_float(parser, "model", "L")
    control_level = _get_float(parser, "model", "u", fallback=0.0)
    alpha = _get_float(parser, "penalty", "alpha", fallback=0.0)
    beta = _get_float(parser, "penalty", "beta", fallback=0.0)
    eps1 = _get_float(parser, "convergence", "eps1", fallback=1.0e-3)
    eps2 = _get_float(parser, "convergence", "eps2", fallback=1.0e-3)
    theta0 = _get_float(parser, "convergence", "theta0", fallback=0.05)
    max_iter = _get_int(parser, "convergence", "max_iter", fallback=200)
    if max_iter < 1:
        raise ConfigError(f"convergence.max_iter must be >= 1, got {max_iter}")
    for key, value in (("eps1", eps1), ("eps2", eps2), ("theta0", theta0)):
        if not value > 0.0:
            raise ConfigError(f"convergence.{key} must be positive, got {value}")
    for key, value in (("alpha", alpha), ("beta", beta)):
        if not value >= 0.0:
            raise ConfigError(f"penalty.{key} must be nonnegative, got {value}")

    mollifier = None
    eps = _get_float(parser, "mollifier", "eps")
    if eps is not None:
        try:
            mollifier = Mollifier(eps)
        except ValueError as exc:
            raise ConfigError(f"mollifier.eps rejected: {exc}") from None

    phi0 = LevelSetFunction(
        _field_spec(
            _get_raw(parser, "levelset", "init"),
            grid,
            {
                "circle": lambda g: circle_levelset(g).phi,
                "checkerboard": lambda g: checkerboard_levelset(g).phi,
            },
            base_dir,
            "levelset.init",
        )
    )

    growth = None
    raw_a = _get_raw(parser, "model", "a")
    if raw_a is not None:
        growth = _field_spec(raw_a, grid, {}, base_dir, "model.a")
    initial_density = None
    raw_y0 = _get_raw(parser, "model", "y0")
    if raw_y0 is not None:
        initial_density = _field_spec(
            raw_y0, grid, {"gaussian": gaussian_density}, base_dir, "model.y0"
        )

    control = None
    if command in ("forward", "optimize-region"):
        try:
            control = ControlProblemParams(
                d=d,
                a=growth,
                y0=initial_density,
                L=L,
                alpha=alpha,
                beta=beta,
                mollifier=mollifier,
            )
            control.check_time_step()
        except ValueError as exc:
            raise ConfigError(f"model/penalty settings rejected: {exc}") from None
        if not 0.0 <= control_level <= L:
            raise ConfigError(
                f"model.u must lie in [0, L] = [0, {L}], got {control_level}"
            )

    sign_variant = _get_raw(parser, "agestruct", "sign_variant") or "descent"
    if sign_variant not in SIGN_VARIANTS:
        raise ConfigError(
            "agestruct.sign_variant must be one of "
            f"{', '.join(SIGN_VARIANTS)}; got {sign_variant!r}"
        )

    age_model = None
    if command in ("eradicability", "optimize-eradication"):
        A = _get_float(parser, "agestruct", "A")
        Na = _get_int(parser, "agestruct", "Na")
        if not A > 0.0:
            raise ConfigError(f"agestruct.A must be positive, got {A}")
        if Na < 2:
            raise ConfigError(f"agestruct.Na must be at least 2, got {Na}")
        ages = np.linspace(0.0, A, Na + 1)
        fertility = _age_spec(
            _get_raw(parser, "agestruct", "fertility"),
            ages,
            base_dir,
            "agestruct.fertility",
        )
        mortality = _age_spec(
            _get_raw(parser, "agestruct", "mortality"),
            ages,
            base_dir,
            "agestruct.mortality",
        )
        slope = _get_float(parser, "agestruct", "m", fallback=0.0)
        y0_model = 1.0
        if initial_density is not None:
            # The age model spreads a spatial density uniformly in age.
            y0_values = initial_density.values
            if np.any(y0_values < 0.0):
                raise ConfigError("model.y0 must be nonnegative")
            y0_model = lambda x1, x2, a: y0_values  # noqa: E731
        try:
            age_model = AgeModelParams(
                A=A,
                Na=Na,
                fertility=fertility,
                mortality=mortality,
                d=d,
                L=L,
                T=grid.T,
                y0=y0_model,
                logistic_slope=slope,
            )
        except ValueError as exc:
            raise ConfigError(f"agestruct section rejected: {exc}") from None
        # Only the age-structured march closes the renewal step implicitly.
        if command == "optimize-eradication":
            try:
                age_model.check_renewal_step()
            except ValueError as exc:
                raise ConfigError(f"agestruct.fertility rejected: {exc}") from None

    return RunConfig(
        command=command,
        output=output,
        grid=grid,
        phi0=phi0,
        control_level=control_level,
        alpha=alpha,
        beta=beta,
        eps1=eps1,
        eps2=eps2,
        theta0=theta0,
        max_iter=max_iter,
        sign_variant=sign_variant,
        mollifier=mollifier,
        control=control,
        age_model=age_model,
    )
