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
import os
from dataclasses import dataclass, fields

import numpy as np

from .agestruct import SIGN_VARIANTS, AgeModelParams
from .errors import ConfigError
from .grid import GridSpec, ScalarField, read_field_csv, read_node_csv
from .levelset import (
    LevelSetFunction,
    Mollifier,
    checkerboard_levelset,
    circle_levelset,
)
from .pde import ControlProblemParams
from .shapeopt import Convergence

COMMANDS = ("forward", "optimize-region", "eradicability", "optimize-eradication")

_SECTION_KEYS = {
    "run": ("command", "output"),
    "grid": ("N", "M", "T"),
    "model": ("d", "a", "y0", "L", "u"),
    "penalty": ("alpha", "beta"),
    "mollifier": ("eps",),
    "convergence": tuple(f.name for f in fields(Convergence)),
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
    convergence: Convergence
    sign_variant: str
    mollifier: Mollifier | None
    control: ControlProblemParams | None
    age_model: AgeModelParams | None


def _get_raw(parser, section: str, key: str):
    if parser.has_option(section, key):
        return parser.get(section, key)
    return None


def _finite_or_none(raw, what):
    """The number raw spells, None if it spells none; ConfigError if not finite."""
    try:
        value = float(raw)
    except ValueError:
        return None
    if not np.isfinite(value):
        raise ConfigError(f"{what} must be a finite number, got {raw!r}")
    return value


def _get_float(parser, section: str, key: str, fallback=None):
    raw = _get_raw(parser, section, key)
    if raw is None:
        return fallback
    value = _finite_or_none(raw, f"{section}.{key}")
    if value is None:
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


def _coefficient(parser, base_dir, section, key, constant, read, presets=None):
    """Resolve a number, a preset name or a table path; None if the key is absent.

    A table path is taken relative to the config file.  A table that
    cannot be read or decoded and a table ``read`` rejects with any
    other ValueError map to one ConfigError each, for every key.
    """
    raw = _get_raw(parser, section, key)
    if raw is None:
        return None
    what = f"{section}.{key}"
    value = _finite_or_none(raw, what)
    if value is not None:
        return constant(value)
    presets = presets or {}
    if raw in presets:
        return presets[raw]()
    path = raw if os.path.isabs(raw) else os.path.join(base_dir, raw)
    if os.path.isfile(path):
        try:
            return read(path)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{what}: cannot read {raw}: {exc}") from None
        except ValueError as exc:
            raise ConfigError(f"{what}: bad table {raw}: {exc}") from None
    names = ", ".join(sorted(presets)) or "none"
    raise ConfigError(
        f"{what} must be a number, a preset ({names}), "
        f"or an existing CSV path; got {raw!r}"
    )


def parse_config(path) -> RunConfig:
    """Parse and validate a run configuration file.

    Unknown sections or keys, missing required keys (collected into a
    single message), unparsable values, values rejected by the model
    constructors and grids too large for memory all raise ConfigError.
    """
    try:
        return _parse_config(path)
    except MemoryError as exc:
        raise ConfigError(
            f"the config asks for more memory than is available: {exc}"
        ) from None


def _parse_config(path) -> RunConfig:
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#", ";")
    )
    parser.optionxform = str
    try:
        with open(path) as handle:
            parser.read_file(handle)
    except (OSError, UnicodeDecodeError) as exc:
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
    # Each Convergence field is read by the type of its default.
    given = {}
    for f in fields(Convergence):
        if parser.has_option("convergence", f.name):
            read = {int: _get_int, float: _get_float}[type(f.default)]
            given[f.name] = read(parser, "convergence", f.name)
    try:
        convergence = Convergence(**given)
    except ValueError as exc:
        raise ConfigError(f"convergence.{exc}") from None
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

    def field(section, key, presets=None):
        return _coefficient(
            parser,
            base_dir,
            section,
            key,
            lambda value: ScalarField.constant(grid, value),
            lambda table: read_field_csv(table, grid),
            presets,
        )

    phi0 = LevelSetFunction(
        field(
            "levelset",
            "init",
            {
                "circle": lambda: circle_levelset(grid).phi,
                "checkerboard": lambda: checkerboard_levelset(grid).phi,
            },
        )
    )
    growth = field("model", "a")
    initial_density = field("model", "y0", {"gaussian": lambda: gaussian_density(grid)})

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
        fertility, mortality = (
            _coefficient(
                parser,
                base_dir,
                "agestruct",
                key,
                float,
                lambda table: read_node_csv(table, ("age",), (ages,)),
            )
            for key in ("fertility", "mortality")
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
        convergence=convergence,
        sign_variant=sign_variant,
        mollifier=mollifier,
        control=control,
        age_model=age_model,
    )
