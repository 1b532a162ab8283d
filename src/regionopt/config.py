"""Run-configuration parsing for the command line entry point.

Configuration files are INI-style text: ``key = value`` lines grouped
under ``[section]`` headers.  Coefficient entries accept a plain number,
a named preset, or a path to a CSV file (resolved relative to the
configuration file), so one format covers both uniform textbook runs
and spatially varying data.  One reader, _read, types every key present,
whatever the command, so a coefficient's number is checked finite there;
its preset or table is resolved by the commands that read it.  Everything
is validated before any solve starts; problems raise
:class:`~regionopt.errors.ConfigError` with a message naming the
offending key.  The model constructors own the checks of their fields: a
field one rejects is named by its key.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, fields

import numpy as np

from .agestruct import AgeModelParams
from .errors import ConfigError, FieldError
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

_HARVEST = ("forward", "optimize-region")
_AGE = ("eradicability", "optimize-eradication")
_DESCENT = ("optimize-region", "optimize-eradication")
_MARCHING = _HARVEST + ("optimize-eradication",)

# section -> key -> (reader, the commands that require the key[, default]).
# The reader is int, float, str or the tuple of the strings allowed; None
# marks a coefficient (a number, a preset or a table path): _read checks
# its number, and the commands that read it resolve its text.  A key is
# required without a command if every command needs it.  A default
# stands for an absent key and for a string left empty; the defaults of a
# model type stay with it.
_KEYS = {
    "run": {
        "command": (COMMANDS, COMMANDS),
        "output": (str, (), "out"),
        "snapshot_every": (int, (), 1),
    },
    "grid": {"N": (int, COMMANDS), "M": (int, COMMANDS), "T": (float, COMMANDS)},
    "model": {
        "d": (float, COMMANDS),
        "a": (None, _HARVEST),
        "y0": (None, _MARCHING),
        "L": (float, COMMANDS),
        "u": (float, (), 0.0),
    },
    "penalty": {"alpha": (float, _DESCENT, 0.0), "beta": (float, _DESCENT, 0.0)},
    "mollifier": {"eps": (float, _MARCHING)},
    "convergence": {f.name: (type(f.default), ()) for f in fields(Convergence)},
    "levelset": {"init": (None, COMMANDS)},
    "agestruct": {
        "A": (float, _AGE),
        "Na": (int, _AGE),
        "fertility": (None, _AGE),
        "mortality": (None, _AGE),
        "m": (float, ()),
    },
}

# model field -> config key: the names agree but for the logistic slope.
_FIELD_KEYS = {key: f"{section}.{key}" for section in _KEYS for key in _KEYS[section]}
_FIELD_KEYS["logistic_slope"] = "agestruct.m"


def gaussian_density(grid: GridSpec) -> ScalarField:
    """Normal bump (1 / 2pi) exp(-(x1^2 + x2^2) / 2) sampled on the grid."""
    return ScalarField.from_function(
        grid,
        lambda x1, x2: np.exp(-(x1 * x1 + x2 * x2) / 2.0) / (2.0 * np.pi),
    )


@dataclass
class RunConfig:
    """Validated settings for one pipeline run.

    model is the problem of the command: ControlProblemParams for the
    harvest commands, AgeModelParams for the age commands.  It holds the
    penalties and the mollifier of its problem, so a config only has to
    supply the sections its pipeline reads.  phi0.grid is the run's grid.
    """

    command: str
    output: str
    snapshot_every: int
    phi0: LevelSetFunction
    control_level: float
    convergence: Convergence
    model: ControlProblemParams | AgeModelParams


def _read(raw, reader, what):
    """raw read by reader: an int, a finite float, an allowed string, or
    raw; a coefficient (reader None) is a finite float if raw spells one."""
    if isinstance(reader, tuple):
        if raw not in reader:
            raise ConfigError(f"{what} must be one of {', '.join(reader)}; got {raw!r}")
        return raw
    if reader is str:
        return raw
    try:
        value = (reader or float)(raw)
    except ValueError:
        if reader is None:
            return raw
        kind = "an integer" if reader is int else "a finite number"
        raise ConfigError(f"{what} must be {kind}, got {raw!r}") from None
    if reader is not int and not np.isfinite(value):
        raise ConfigError(f"{what} must be a finite number, got {raw!r}")
    return value


def _table(raw, what, base_dir, presets):
    """The loader of the table raw names, taken relative to the config file.

    load(reader, *args) is reader(path, *args), with a table that cannot
    be read or decoded, or that reader rejects with any other ValueError,
    raised as one ConfigError each.  ConfigError if raw names no file.
    """
    path = os.path.join(base_dir, raw)
    if not os.path.isfile(path):
        names = ", ".join(sorted(presets)) or "none"
        raise ConfigError(
            f"{what} must be a number, a preset ({names}), "
            f"or an existing CSV path; got {raw!r}"
        )

    def load(reader, *args):
        try:
            return reader(path, *args)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{what}: cannot read {raw}: {exc}") from None
        except ValueError as exc:
            raise ConfigError(f"{what}: bad table {raw}: {exc}") from None

    return load


def _check_memory(size: int, what: str) -> None:
    """ConfigError naming what unless size bytes fit in physical memory."""
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if size > memory:
        gib = f"{size / 2**30:.3g} GiB, more than the {memory / 2**30:.3g} GiB"
        raise ConfigError(f"{what} would take {gib} of physical memory")


def parse_config(path) -> RunConfig:
    """Parse and validate a run configuration file.

    Unknown sections or keys, missing required keys (collected into a
    single message), unparsable values, values rejected by the model
    constructors and grids too large for memory all raise ConfigError.
    """
    try:
        return _parse_config(path)
    except FieldError as exc:
        raise ConfigError(f"{_FIELD_KEYS[exc.field]} {exc.complaint}") from None
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

    given = {section: {} for section in _KEYS}
    for section in parser.sections():
        if section not in _KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser[section].items():
            if key not in _KEYS[section]:
                raise ConfigError(f"unknown key {section}.{key}")
            given[section][key] = raw

    # An unknown command needs no key, so its typed read below names it.
    command = given["run"].get("command")
    asked = COMMANDS if command is None else (command,)
    missing = [
        f"{section}.{key}"
        for section, keys in _KEYS.items()
        for key, (_, needed_by, *_) in keys.items()
        if all(c in needed_by for c in asked) and key not in given[section]
    ]
    if missing:
        raise ConfigError("missing required keys: " + ", ".join(missing))

    # The table's defaults, then every key present read by its _KEYS
    # reader, whatever the command; empty text leaves a text default.
    value = {
        section: {key: entry[2] for key, entry in keys.items() if len(entry) > 2}
        for section, keys in _KEYS.items()
    }
    for section, keys in given.items():
        for key, raw in keys.items():
            if raw or not isinstance(value[section].get(key), str):
                reader = _KEYS[section][key][0]
                value[section][key] = _read(raw, reader, f"{section}.{key}")
    every = value["run"]["snapshot_every"]
    if every < 1:
        raise ConfigError(f"run.snapshot_every must be >= 1, got {every}")
    grid = GridSpec(**value["grid"])
    _check_memory(8 * (grid.N + 1) ** 2, f"grid.N = {grid.N}: one field")
    model, penalty, age = value["model"], value["penalty"], value["agestruct"]
    d, L, u = model["d"], model["L"], model["u"]
    convergence = Convergence(**value["convergence"])
    mollifier = Mollifier(**value["mollifier"]) if value["mollifier"] else None
    design = dict(penalty, mollifier=mollifier)  # held by the model of each command

    # Every command resolves these coefficients on the run's grid.
    shapes = {
        "circle": lambda: circle_levelset(grid).phi,
        "checkerboard": lambda: checkerboard_levelset(grid).phi,
    }
    coefficient = {}
    for section, key, presets in (
        ("levelset", "init", shapes),
        ("model", "a", {}),
        ("model", "y0", {"gaussian": lambda: gaussian_density(grid)}),
    ):
        raw = value[section].get(key)
        if isinstance(raw, float):
            raw = ScalarField.constant(grid, raw)
        elif raw in presets:
            raw = presets[raw]()
        elif raw is not None:
            raw = _table(raw, f"{section}.{key}", base_dir, presets)(read_field_csv, grid)
        coefficient[key] = raw
    phi0 = LevelSetFunction(coefficient["init"])
    growth, initial_density = coefficient["a"], coefficient["y0"]

    if command in _HARVEST:
        problem = ControlProblemParams(d=d, a=growth, y0=initial_density, L=L, **design)
        problem.check_time_step()
        if not 0.0 <= u <= L:
            raise ConfigError(f"model.u must lie in [0, L] = [0, {L}], got {u}")
    else:
        rates = []
        for key in ("fertility", "mortality"):
            rate = age[key]
            if isinstance(rate, str):
                load = _table(rate, f"agestruct.{key}", base_dir, {})
                # Read by AgeModelParams, on the age grid it has checked.
                rate = lambda ages, load=load: load(read_node_csv, ("age",), (ages,))
            rates.append(rate)
        # m and y0 are passed only when given: AgeModelParams holds their defaults.
        keywords = dict(design)  # the design fields always
        if "m" in age:
            keywords["logistic_slope"] = age["m"]
        if initial_density is not None:
            # The age model spreads a spatial density uniformly in age.
            y0_values = initial_density.values
            keywords["y0"] = lambda x1, x2, a: y0_values
        problem = AgeModelParams(age["A"], age["Na"], *rates, d, L, grid.T, **keywords)
        # Only the age-structured march reads y0 and the horizon, in whole
        # age steps, and it holds one density of them all in memory.
        if command == "optimize-eradication":
            if np.any(initial_density.values < 0.0):
                raise ConfigError("model.y0 must be nonnegative")
            size = 8 * (problem.n_time + 1) * (problem.Na + 1) * (grid.N + 1) ** 2
            steps = f"grid.T = {grid.T} spans {problem.n_time:.6g} age steps"
            _check_memory(size, f"{steps}: the age density")

    return RunConfig(
        **value["run"],
        phi0=phi0,
        control_level=u,
        convergence=convergence,
        model=problem,
    )
