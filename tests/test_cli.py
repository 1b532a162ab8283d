"""Tests for configuration parsing and the command line pipelines."""

import csv
import dataclasses
import inspect
import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from regionopt import agestruct, cli, shapeopt
from regionopt import config as config_module
from regionopt.agestruct import AgeModelParams
from regionopt.cli import main, run
from regionopt.config import gaussian_density, parse_config
from regionopt.errors import ConfigError, SolverFailure
from regionopt.grid import (
    GridSpec,
    ScalarField,
    read_field_csv,
    read_node_csv,
    write_field_csv,
)
from regionopt.levelset import checkerboard_levelset, circle_levelset
from regionopt.pde import ControlProblemParams
from regionopt.shapeopt import Convergence

TEST1_TEXT = """
[run]
command = optimize-region

[grid]
N = 20
M = 20
T = 1.0

[model]
d = 1.0
a = 3.0
y0 = gaussian
L = 1.0

[penalty]
alpha = 0.4
beta = 0.6

[mollifier]
eps = 1.0

[convergence]
eps1 = 0.001
eps2 = 0.001

[levelset]
init = circle
"""


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text.lstrip())
    return path


def read_summary(out_dir):
    entries = {}
    with open(os.path.join(out_dir, "summary.txt")) as handle:
        for line in handle:
            key, _, value = line.partition(" = ")
            entries[key] = value.strip()
    return entries


def test_parse_reference_harvest_config(tmp_path):
    config = parse_config(write_config(tmp_path, TEST1_TEXT))
    assert config.command == "optimize-region"
    grid = config.phi0.grid
    assert (grid.N, grid.M, grid.T) == (20, 20, 1.0)
    params = config.model
    assert isinstance(params, ControlProblemParams)
    assert params.d == 1.0
    assert params.L == 1.0
    assert (params.alpha, params.beta) == (0.4, 0.6)
    assert params.mollifier.eps == 1.0
    conv = config.convergence
    assert (conv.eps1, conv.eps2, conv.theta0) == (0.001, 0.001, 0.05)
    assert np.all(params.a.values == 3.0)
    assert np.allclose(
        params.y0.values, gaussian_density(grid).values, rtol=0, atol=0
    )
    expected_phi = circle_levelset(grid)
    assert np.allclose(
        config.phi0.phi.values, expected_phi.phi.values, rtol=0, atol=0
    )
    assert config.convergence.max_iter == 200


def test_empty_file_lists_every_missing_key(tmp_path):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(write_config(tmp_path, ""))
    message = str(excinfo.value)
    for name in (
        "run.command",
        "grid.N",
        "grid.M",
        "grid.T",
        "model.d",
        "model.L",
        "levelset.init",
    ):
        assert name in message


def test_odd_node_count_cites_parity_rule(tmp_path):
    text = TEST1_TEXT.replace("N = 20", "N = 21")
    with pytest.raises(ConfigError, match="even"):
        parse_config(write_config(tmp_path, text))


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("N = 20", "N = x", "grid.N must be an integer, got 'x'"),
        ("T = 1.0", "T = soon", "grid.T must be a finite number, got 'soon'"),
        ("N = 20", "N = 21", "grid.N must be even and >= 4, got 21"),
        ("T = 1.0", "T = 0", "grid.T must be positive, got 0.0"),
        ("eps = 1.0", "eps = -1", "mollifier.eps must be positive, got -1.0"),
    ],
    ids=["N-not-a-number", "T-not-a-number", "N-odd", "T-zero", "eps-negative"],
)
def test_grid_key_messages(tmp_path, capsys, old, new, message):
    path = write_config(tmp_path, TEST1_TEXT.replace(old, new))
    assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert message in err
    # GridSpec's own range checks are named by their key too, with no prefix.
    assert err == f"config error: {message}\n"


def test_unknown_section_and_key_are_named(tmp_path):
    with pytest.raises(ConfigError, match=r"\[extras\]"):
        parse_config(write_config(tmp_path, TEST1_TEXT + "\n[extras]\nzip = 1\n"))
    text = TEST1_TEXT.replace("[penalty]", "[penalty]\ngamma = 2.0")
    with pytest.raises(ConfigError, match="penalty.gamma"):
        parse_config(write_config(tmp_path, text))


def test_unknown_command_rejected(tmp_path):
    text = TEST1_TEXT.replace("command = optimize-region", "command = sideways")
    with pytest.raises(ConfigError, match="sideways"):
        parse_config(write_config(tmp_path, text))


def test_command_specific_keys_reported(tmp_path):
    text = TEST1_TEXT.replace("[penalty]\nalpha = 0.4\nbeta = 0.6\n", "")
    with pytest.raises(ConfigError) as excinfo:
        parse_config(write_config(tmp_path, text))
    assert "penalty.alpha" in str(excinfo.value)
    assert "penalty.beta" in str(excinfo.value)


# What a config holding nothing but run.command misses, per command
# (None: not even run.command).
BASE_KEYS = {"grid.N", "grid.M", "grid.T", "model.d", "model.L", "levelset.init"}
HARVEST_KEYS = {"model.a", "model.y0", "mollifier.eps"}
PENALTY_KEYS = {"penalty.alpha", "penalty.beta"}
AGE_KEYS = {
    "agestruct.A",
    "agestruct.Na",
    "agestruct.fertility",
    "agestruct.mortality",
}
MISSING_KEYS = {
    None: BASE_KEYS | {"run.command"},
    "forward": BASE_KEYS | HARVEST_KEYS,
    "optimize-region": BASE_KEYS | HARVEST_KEYS | PENALTY_KEYS,
    "eradicability": BASE_KEYS | AGE_KEYS,
    "optimize-eradication": BASE_KEYS
    | {"model.y0", "mollifier.eps"}
    | PENALTY_KEYS
    | AGE_KEYS,
}


@pytest.mark.parametrize("command", list(MISSING_KEYS), ids=str)
def test_missing_required_keys_per_command(tmp_path, command):
    text = "" if command is None else f"[run]\ncommand = {command}\n"
    with pytest.raises(ConfigError) as excinfo:
        parse_config(write_config(tmp_path, text))
    prefix = "missing required keys: "
    message = str(excinfo.value)
    assert message.startswith(prefix)
    listed = message[len(prefix) :].split(", ")
    assert sorted(listed) == sorted(MISSING_KEYS[command])


def test_non_numeric_value_names_key(tmp_path):
    text = TEST1_TEXT.replace("d = 1.0", "d = fast")
    with pytest.raises(ConfigError, match="model.d"):
        parse_config(write_config(tmp_path, text))


def test_coefficient_from_csv_path(tmp_path):
    grid = GridSpec(N=20, M=20, T=1.0)
    bump = ScalarField.from_function(grid, lambda x1, x2: 3.0 + x1 * x2)
    write_field_csv(bump, tmp_path / "growth.csv")
    text = TEST1_TEXT.replace("a = 3.0", "a = growth.csv")
    config = parse_config(write_config(tmp_path, text))
    assert np.allclose(config.model.a.values, bump.values, rtol=1e-16, atol=0)


def test_levelset_from_csv_and_constant(tmp_path):
    grid = GridSpec(N=20, M=20, T=1.0)
    write_field_csv(checkerboard_levelset(grid).phi, tmp_path / "init.csv")
    text = TEST1_TEXT.replace("init = circle", "init = init.csv")
    config = parse_config(write_config(tmp_path, text))
    assert np.allclose(
        config.phi0.phi.values,
        checkerboard_levelset(grid).phi.values,
        rtol=1e-16,
        atol=1e-16,
    )
    text = TEST1_TEXT.replace("init = circle", "init = -1.0")
    config = parse_config(write_config(tmp_path, text))
    assert np.all(config.phi0.phi.values == -1.0)


def test_control_level_must_respect_bounds(tmp_path):
    text = TEST1_TEXT.replace("L = 1.0", "L = 1.0\nu = 2.0")
    with pytest.raises(ConfigError, match="model.u"):
        parse_config(write_config(tmp_path, text))


AGE_TEXT = """
[run]
command = eradicability

[grid]
N = 10
M = 2
T = 1.0

[model]
d = 1.0
L = 2.0

[levelset]
init = 1.0

[agestruct]
A = 1.0
Na = 20
fertility = 1.0
mortality = 0.0
"""


def test_age_config_builds_model(tmp_path):
    config = parse_config(write_config(tmp_path, AGE_TEXT))
    model = config.model
    assert isinstance(model, AgeModelParams)
    assert (model.A, model.Na, model.d, model.L, model.T) == (1.0, 20, 1.0, 2.0, 1.0)
    assert np.all(model.fertility_samples == 1.0)
    assert np.all(model.mortality_samples == 0.0)


def test_age_samples_from_csv(tmp_path):
    ages = np.linspace(0.0, 1.0, 21)
    with open(tmp_path / "fert.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["age", "value"])
        for age in ages:
            writer.writerow([format(age, ".17g"), format(2.0 * age, ".17g")])
    text = AGE_TEXT.replace("fertility = 1.0", "fertility = fert.csv")
    config = parse_config(write_config(tmp_path, text))
    assert np.allclose(
        config.model.fertility_samples, 2.0 * ages, rtol=1e-15, atol=1e-15
    )
    short = ages[:-1]
    with open(tmp_path / "short.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["age", "value"])
        for age in short:
            writer.writerow([age, 1.0])
    with pytest.raises(ValueError, match="expected 21 rows"):
        read_node_csv(tmp_path / "short.csv", ("age",), (ages,))


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("A", "-1.0", "agestruct.A must be positive, got -1.0"),
        ("Na", "-3", "agestruct.Na must be at least 2, got -3"),
    ],
    ids=["A", "Na"],
)
def test_age_range_checked_before_tables_are_read(
    tmp_path, capsys, key, value, message
):
    # The fertility table matches the valid age grid; the range check
    # fires before the table is read against the bad one.
    rows = [f"{age!r},1.0" for age in np.linspace(0.0, 1.0, 21)]
    (tmp_path / "fert.csv").write_text("age,value\n" + "\n".join(rows) + "\n")
    text = AGE_TEXT.replace("fertility = 1.0", "fertility = fert.csv")
    text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
    out = tmp_path / "o"
    assert main(["--config", str(write_config(tmp_path, text)), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_age_horizon_must_match_age_step(tmp_path):
    text = ERADICATION_TEXT.replace("T = 0.5", "T = 0.93")
    with pytest.raises(ConfigError, match="agestruct"):
        parse_config(write_config(tmp_path, text))
    # The verdict has no horizon, so it does not check one.
    text = AGE_TEXT.replace("T = 1.0", "T = 0.93")
    assert parse_config(write_config(tmp_path, text)).model.T == 0.93


def test_bad_sign_variant_rejected(tmp_path, capsys):
    # The eradication descent has one velocity, so no key selects one.
    text = ERADICATION_TEXT + "sign_variant = descent\n"
    out = tmp_path / "o"
    assert main(["--config", str(write_config(tmp_path, text)), "--out", str(out)]) == 2
    assert "unknown key agestruct.sign_variant" in capsys.readouterr().err
    assert not out.exists()


FORWARD_TEXT = """
[run]
command = forward

[grid]
N = 10
M = 100
T = 1.0

[model]
d = 1.0
a = 0.0
y0 = gaussian
L = 1.0
u = 0.0

[mollifier]
eps = 1.0

[levelset]
init = circle
"""


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("Na", "many", "agestruct.Na must be an integer, got 'many'"),
        ("m", "x", "agestruct.m must be a finite number, got 'x'"),
        ("fertility", "inf", "agestruct.fertility must be a finite number, got 'inf'"),
        ("mortality", "nan", "agestruct.mortality must be a finite number, got 'nan'"),
    ],
    ids=["Na", "m", "fertility-inf", "mortality-nan"],
)
def test_age_keys_type_checked_for_forward(tmp_path, capsys, key, value, message):
    text = FORWARD_TEXT + f"\n[agestruct]\n{key} = {value}\n"
    path = write_config(tmp_path, text)
    out = tmp_path / "o"
    assert main(["--config", str(path), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_forward_conservation_run(tmp_path):
    text = FORWARD_TEXT.replace("[run]", "[run]\nsnapshot_every = 50")
    path = write_config(tmp_path, text)
    out = tmp_path / "fw"
    status = main(["--config", str(path), "--out", str(out)])
    assert status == 0
    summary = read_summary(out)
    assert float(summary["mass_drift"]) <= 1e-8
    grid = GridSpec(N=10, M=100, T=1.0)
    first = read_field_csv(out / "field_k0000.csv", grid)
    assert np.allclose(
        first.values, gaussian_density(grid).values, rtol=1e-15, atol=0
    )
    assert (out / "field_k0100.csv").exists()


def test_forward_runs_at_a_large_diffusion_number(tmp_path):
    # lam = d dt / h^2 = 100 * 0.1 * 64^2 = 4.1e4 with dt * a = 0.3: a
    # stable step whose round-off residual exceeds 1e-10 of its
    # right-hand side, so only the round-off floor lets it pass.
    text = FORWARD_TEXT
    for old, new in [
        ("[run]", "[run]\nsnapshot_every = 10"),
        ("N = 10", "N = 64"),
        ("M = 100", "M = 10"),
        ("d = 1.0", "d = 100.0"),
        ("a = 0.0", "a = 3.0"),
        ("u = 0.0", "u = 0.5"),
    ]:
        text = text.replace(old, new)
    out = tmp_path / "fw"
    assert main(["--config", str(write_config(tmp_path, text)), "--out", str(out)]) == 0
    assert read_summary(out)["time_levels_written"] == "2"


def test_optimize_region_artifacts(tmp_path):
    path = write_config(tmp_path, TEST1_TEXT)
    out = tmp_path / "opt"
    assert main(["--config", str(path), "--out", str(out)]) == 0
    with open(out / "trace.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    assert len(rows) >= 2
    masks = sorted(p.name for p in out.glob("omega_*.pgm"))
    assert len(masks) >= 2
    summary = read_summary(out)
    assert summary["stop_reason"] in {
        "J tolerance",
        "J increase",
        "phi tolerance",
        "iteration budget",
    }
    float(summary["final_cost"])
    header = (out / masks[0]).read_text().splitlines()
    assert header[0] == "P2"


def test_eradicability_full_region_summary(tmp_path):
    path = write_config(tmp_path, AGE_TEXT)
    out = tmp_path / "ev"
    assert main(["--config", str(path), "--out", str(out)]) == 0
    summary = read_summary(out)
    assert summary["verdict"] == "Eradicable"
    assert abs(float(summary["margin"]) - 2.0) <= 1e-6
    for key in ("r_star", "lambda1", "margin", "verdict", "tolerance"):
        assert key in summary


def test_eradicability_without_births_is_eradicable(tmp_path):
    # No births: every cohort ages out past A, so r* = -inf.
    path = write_config(tmp_path, AGE_TEXT.replace("fertility = 1.0", "fertility = 0"))
    out = tmp_path / "ev"
    assert main(["--config", str(path), "--out", str(out)]) == 0
    summary = read_summary(out)
    assert summary["r_star"] == "-inf"
    assert summary["margin"] == "inf"
    assert summary["verdict"] == "Eradicable"


def test_eradicability_with_births_only_at_age_zero_is_eradicable(tmp_path):
    # Births b_0 y(0) alone with b_0 < 1 force y(0) = 0, so r* = -inf.
    rows = [f"{age:.17g},{1.0 if age == 0.0 else 0.0}" for age in np.linspace(0, 1, 21)]
    (tmp_path / "fert.csv").write_text("age,value\n" + "\n".join(rows) + "\n")
    text = AGE_TEXT.replace("fertility = 1.0", "fertility = fert.csv")
    out = tmp_path / "ev"
    assert main(["--config", str(write_config(tmp_path, text)), "--out", str(out)]) == 0
    summary = read_summary(out)
    assert summary["r_star"] == "-inf"
    assert summary["margin"] == "inf"
    assert summary["verdict"] == "Eradicable"


def test_ill_posed_renewal_step_rejected_for_both_age_commands(tmp_path, capsys):
    # beta(0) da / 2 = 50 * 0.5 / 2 >= 1: no renewal root and no renewal step.
    errors = []
    for text in (AGE_TEXT, ERADICATION_TEXT):
        text = re.sub(r"Na = \d+", "Na = 2", text)
        text = re.sub(r"fertility = [\d.]+", "fertility = 50", text)
        path, out = write_config(tmp_path, text), tmp_path / "o"
        assert main(["--config", str(path), "--out", str(out)]) == 2
        errors.append(capsys.readouterr().err)
        assert not out.exists()
    message = "agestruct.fertility at age 0 times half the age step is 12.5 >= 1"
    assert message in errors[0]
    assert errors[1] == errors[0]


def test_y0_range_checked_only_where_the_age_model_marches(tmp_path, capsys):
    outputs = []
    for text in (AGE_TEXT, AGE_TEXT.replace("[model]", "[model]\ny0 = -1")):
        path = write_config(tmp_path, text)
        out = tmp_path / f"ev{len(outputs)}"
        assert main(["--config", str(path), "--out", str(out)]) == 0
        outputs.append((out / "summary.txt").read_text())
    assert outputs[1] == outputs[0]
    text = ERADICATION_TEXT.replace("y0 = gaussian", "y0 = -1")
    out = tmp_path / "er"
    assert main(["--config", str(write_config(tmp_path, text)), "--out", str(out)]) == 2
    assert "model.y0 must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


def test_exit_code_for_convergence_failure(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(agestruct, "EIGEN_MAX_ITER", 1)
    path = write_config(tmp_path, AGE_TEXT.replace("init = 1.0", "init = circle"))
    out = tmp_path / "ev"
    assert main(["--config", str(path), "--out", str(out)]) == 4
    assert "eradicability: convergence failure" in capsys.readouterr().err
    assert not (out / "summary.txt").exists()


ERADICATION_TEXT = """
[run]
command = optimize-eradication

[grid]
N = 8
M = 2
T = 0.5

[model]
d = 1.0
y0 = gaussian
L = 1.0

[penalty]
alpha = 0.1
beta = 0.1

[mollifier]
eps = 1.0

[convergence]
max_iter = 3

[levelset]
init = checkerboard

[agestruct]
A = 1.0
Na = 10
fertility = 1.5
mortality = 0.2
"""


def test_eradication_run_is_deterministic(tmp_path):
    path = write_config(tmp_path, ERADICATION_TEXT)
    first = tmp_path / "a"
    second = tmp_path / "b"
    config = parse_config(path)
    assert run(config, out_dir=str(first)) == 0
    assert run(parse_config(path), out_dir=str(second)) == 0
    assert (first / "trace.csv").read_bytes() == (second / "trace.csv").read_bytes()
    assert (first / "summary.txt").read_bytes() == (
        second / "summary.txt"
    ).read_bytes()
    assert (first / "omega_0001.pgm").read_bytes() == (
        second / "omega_0001.pgm"
    ).read_bytes()
    density_files = sorted(first.glob("density_a*.csv"))
    assert len(density_files) == 11
    assert (first / "trace.csv").read_bytes().startswith(
        b"n,psi,population_term,length_term,area_term,region_area,region_length,phi_change,theta,stop_reason\r\n"
    )
    assert "sign_variant" not in read_summary(first)


def test_eradication_run_solves_the_age_model_once_per_evaluated_phi(
    tmp_path, monkeypatch
):
    # One age solve for the start and one per trial step (one evolve_phi
    # each); the density files come from the best iterate's own solve.
    counts = {"solve_age_structured": 0, "evolve_phi": 0}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    solve = counted("solve_age_structured", agestruct.solve_age_structured)
    for module in (agestruct, cli):
        monkeypatch.setattr(module, "solve_age_structured", solve, raising=False)
    monkeypatch.setattr(
        shapeopt, "evolve_phi", counted("evolve_phi", shapeopt.evolve_phi)
    )
    path = write_config(tmp_path, ERADICATION_TEXT)
    assert run(parse_config(path), out_dir=str(tmp_path / "o")) == 0
    assert counts["evolve_phi"] >= 1
    assert counts["solve_age_structured"] == counts["evolve_phi"] + 1


def test_paper_step_reaches_the_eradication_descent(tmp_path, monkeypatch):
    # Under step = paper every trial step is taken as it comes: one
    # evolve_phi per accepted iterate after the first.  A large theta0
    # overshoots, so the run stops on an increase past its best record.
    evolve_phi = shapeopt.evolve_phi
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return evolve_phi(*args, **kwargs)

    monkeypatch.setattr(shapeopt, "evolve_phi", counted)
    text = ERADICATION_TEXT.replace("L = 1.0", "L = 4.0").replace(
        "max_iter = 3", "max_iter = 20\ntheta0 = 200.0\nstep = paper"
    )
    path = write_config(tmp_path, text)
    out = tmp_path / "o"
    assert run(parse_config(path), out_dir=str(out)) == 0
    with open(out / "trace.csv", newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    assert len(calls) == len(rows) - 1 >= 1
    assert rows[-1][-1] == "J increase"
    costs = [float(row[1]) for row in rows]
    assert min(costs) < costs[-1]


# command -> (config, its summary.txt lines).  A refactor keeps these
# numbers: floats to a relative 1e-9 (the rule of perfbench/references.json),
# integers and strings exactly.
PINNED_SUMMARIES = {
    # Late iterates of this run have flat patches, where the level-set
    # system's face coefficients reach about 1e10: its region length holds
    # only about seven digits across exact solvers (reordering the same
    # sparse LU moves it by up to 1.1e-7), so it records this solver's
    # rounding.
    "optimize-region": (
        TEST1_TEXT,
        {
            "command": "optimize-region",
            "iterations": 10,
            "stop_reason": "J tolerance",
            "final_cost": 0.015436763823712341,
            "final_region_area": 0.44180092373779367,
            "final_region_length": 7.1910491644964726e-06,
        },
    ),
    "forward": (
        FORWARD_TEXT,
        {
            "command": "forward",
            "control_level": 0.0,
            "mass_initial": 0.095541194211273203,
            "mass_final": 0.095541194211270788,
            "mass_drift": 2.5274281931414181e-14,
            "time_levels_written": 101,
        },
    ),
    "eradicability": (
        AGE_TEXT,
        {
            "command": "eradicability",
            "r_star": -2.33731163079e-16,
            "lambda1": 2.0,
            "margin": 2.0,
            "verdict": "Eradicable",
            "tolerance": 1e-06,
        },
    ),
    # The full region's lambda1 = L comes out at once; a disc's takes the
    # eigen solver's iteration, so this pins what that iteration returns.
    "eradicability-disc": (
        AGE_TEXT.replace("N = 10", "N = 64")
        .replace("L = 2.0", "L = 20.0")
        .replace("init = 1.0", "init = circle")
        .replace("fertility = 1.0", "fertility = 2.0"),
        {
            "command": "eradicability",
            "r_star": 1.59504685083,
            "lambda1": 3.14444539746,
            "margin": 1.54939854663,
            "verdict": "Eradicable",
            "tolerance": 1e-06,
        },
    ),
    "optimize-eradication": (
        ERADICATION_TEXT,
        {
            "command": "optimize-eradication",
            "iterations": 3,
            "stop_reason": "iteration budget",
            "final_psi": 0.29285652293974823,
            "final_region_area": 0.51038784781337421,
            "population_initial": 0.11651668629226231,
            "population_final": 0.11107827205276735,
        },
    ),
}


@pytest.mark.parametrize("command", list(PINNED_SUMMARIES))
def test_summary_numbers_are_pinned(tmp_path, command):
    text, expected = PINNED_SUMMARIES[command]
    out = tmp_path / "o"
    assert run(parse_config(write_config(tmp_path, text)), out_dir=str(out)) == 0
    summary = read_summary(out)
    assert list(summary) == list(expected)
    for key, value in expected.items():
        if isinstance(value, float):
            got = float(summary[key])
            assert abs(got - value) <= 1e-9 * max(abs(value), 1e-300), key
        else:
            assert summary[key] == str(value), key


def test_exit_code_for_missing_config(tmp_path):
    assert main(["--config", str(tmp_path / "nope.ini")]) == 2


def test_exit_code_for_bad_snapshot_interval(tmp_path, capsys):
    for value in ("0", "2.5"):
        text = TEST1_TEXT.replace("[run]", f"[run]\nsnapshot_every = {value}")
        path = write_config(tmp_path, text)
        out = tmp_path / "x"
        assert main(["--config", str(path), "--out", str(out)]) == 2
        assert "run.snapshot_every" in capsys.readouterr().err
        assert not out.exists()


def test_unknown_step_policy_rejected(tmp_path, capsys):
    text = TEST1_TEXT.replace("[convergence]", "[convergence]\nstep = bogus")
    path = write_config(tmp_path, text)
    out = tmp_path / "x"
    assert main(["--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "convergence.step" in err and "halving" in err and "paper" in err
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--paper-mode"], ["--snapshot-every", "5"]])
def test_removed_flags_are_usage_errors(tmp_path, capsys, flags):
    # The step policy and snapshot interval are config keys, not flags.
    path = write_config(tmp_path, TEST1_TEXT)
    out = tmp_path / "x"
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(path), "--out", str(out), *flags])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


def test_run_takes_the_config_alone(capsys):
    assert list(inspect.signature(run).parameters) == ["config", "out_dir"]
    with pytest.raises(SystemExit):
        main(["--help"])
    flags = set(re.findall(r"--[\w-]+", capsys.readouterr().out))
    assert flags == {"--help", "--config", "--out"}


SOLVER_FAILURE_TEXT = """
[run]
command = optimize-region

[grid]
N = 4
M = 2
T = 1.0

[model]
d = 1e-8
a = 3.0
y0 = 1.0
L = 1.0

[penalty]
alpha = 0.0
beta = 0.0

[mollifier]
eps = 1.0

[levelset]
init = circle
"""


def test_exit_code_for_solver_failure(tmp_path, monkeypatch):
    def lose_positivity(*args):
        raise SolverFailure("sensitivity lost positivity at time level 1")

    monkeypatch.setattr(shapeopt, "solve_sensitivity", lose_positivity)
    text = SOLVER_FAILURE_TEXT.replace("a = 3.0", "a = 1.0")
    path = write_config(tmp_path, text)
    out = tmp_path / "fail"
    status = main(["--config", str(path), "--out", str(out)])
    assert status == 3
    with open(out / "trace.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[-1][-1] == "solver failure"


def test_unstable_time_step_rejected_at_parse(tmp_path, capsys):
    # dt * a = 1.5: the implicit step would lose positivity mid-solve.
    path = write_config(tmp_path, SOLVER_FAILURE_TEXT)
    out = tmp_path / "fail"
    assert main(["--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "1.5 >= 1" in err and "grid.M >= 4" in err
    assert not out.exists()
    # dt * a = 1 exactly makes the preconditioner singular; forward is
    # checked too.
    text = FORWARD_TEXT.replace("a = 0.0", "a = 20.0").replace("M = 100", "M = 20")
    assert main(["--config", str(write_config(tmp_path, text)), "--out", str(out)]) == 2
    assert "grid.M >= 22" in capsys.readouterr().err
    assert not out.exists()


def test_unstable_time_step_names_the_first_m_past_rounding(tmp_path, capsys):
    # T * max(a) rounds to 13.999999999999998, so the first guess is
    # M = 14, where dt * a = 0.3 / 14 * a is 1.0 exactly: the message
    # steps past it to M = 16.
    text = FORWARD_TEXT.replace("a = 0.0", "a = 46.666666666666664")
    text = text.replace("M = 100", "M = 10").replace("T = 1.0", "T = 0.3")
    out = tmp_path / "o"
    assert main(["--config", str(write_config(tmp_path, text)), "--out", str(out)]) == 2
    assert "use grid.M >= 16" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "text",
    ["command = forward\n", FORWARD_TEXT.replace("N = 10", "N = 10\nN = 12")],
    ids=["no-section-header", "duplicate-key"],
)
def test_malformed_config_exits_2(tmp_path, capsys, text):
    out = tmp_path / "o"
    assert main(["--config", str(write_config(tmp_path, text)), "--out", str(out)]) == 2
    assert "malformed config file" in capsys.readouterr().err
    assert not out.exists()


def test_negative_penalty_rejected_for_every_command(tmp_path, capsys):
    for text in (TEST1_TEXT, ERADICATION_TEXT):
        for key in ("alpha", "beta"):
            bad = re.sub(rf"^{key} = .*$", f"{key} = -0.1", text, flags=re.M)
            path = write_config(tmp_path, bad)
            out = tmp_path / "o"
            assert main(["--config", str(path), "--out", str(out)]) == 2
            assert f"penalty.{key} must be nonnegative" in capsys.readouterr().err
            assert not out.exists()


@pytest.mark.parametrize("command", ["eradicability", "optimize-eradication"])
@pytest.mark.parametrize(
    "section, key, value",
    [("model", "d", -1.0), ("model", "L", -2.0), ("agestruct", "m", -1.0)],
)
def test_age_model_rejection_names_its_key(
    tmp_path, capsys, command, section, key, value
):
    text = AGE_TEXT if command == "eradicability" else ERADICATION_TEXT
    text = re.sub(rf"^{key} = .*\n", "", text, flags=re.M)
    text = text.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n")
    out = tmp_path / "o"
    assert main(["--config", str(write_config(tmp_path, text)), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{section}.{key} must be nonnegative, got {value}" in err
    assert "agestruct section" not in err
    assert not out.exists()


def test_run_seed_is_an_unknown_key(tmp_path, capsys):
    text = TEST1_TEXT.replace("[run]", "[run]\nseed = 7")
    path = write_config(tmp_path, text)
    assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "unknown key run.seed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text", [TEST1_TEXT, ERADICATION_TEXT], ids=["region", "eradication"]
)
@pytest.mark.parametrize(
    "key, value, message",
    [
        ("max_iter", "0", "convergence.max_iter must be >= 1, got 0"),
        ("eps1", "0", "convergence.eps1 must be positive, got 0.0"),
        ("eps2", "-1", "convergence.eps2 must be positive, got -1.0"),
        ("theta0", "0", "convergence.theta0 must be positive, got 0.0"),
    ],
    ids=["max_iter", "eps1", "eps2", "theta0"],
)
def test_convergence_settings_checked_at_parse(
    tmp_path, capsys, text, key, value, message
):
    text = re.sub(rf"^{key} = .*\n", "", text, flags=re.M)
    text = text.replace("[convergence]", f"[convergence]\n{key} = {value}")
    path = write_config(tmp_path, text)
    out = tmp_path / "o"
    assert main(["--config", str(path), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "text", [TEST1_TEXT, ERADICATION_TEXT], ids=["region", "eradication"]
)
def test_missing_convergence_section_parses_to_defaults(tmp_path, text):
    text = re.sub(r"\[convergence\]\n(\w+ = .*\n)*", "", text)
    assert "convergence" not in text
    assert parse_config(write_config(tmp_path, text)).convergence == Convergence()


def test_readme_config_parses(tmp_path):
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as handle:
        block = re.search(r"```ini\n(.*?)```", handle.read(), re.S).group(1)
    config = parse_config(write_config(tmp_path, block))
    assert config.command == "optimize-region"
    stated = Convergence(
        max_iter=200, eps1=0.001, eps2=0.001, theta0=0.05, step="halving"
    )
    assert config.convergence == stated == Convergence()


def test_readme_names_every_setting():
    # Each key as `section.key` or as a key line under its [section] in an
    # ini block; each allowed value in backticks or in an ini block.
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as handle:
        text = handle.read()
    blocks = re.findall(r"```ini\n(.*?)```", text, re.S)
    in_blocks = set()
    for block in blocks:
        section = None
        for line in block.splitlines():
            header = re.match(r"\[(\w+)\]", line)
            section = header.group(1) if header else section
            entry = re.match(r"(\w+) =", line)
            if entry:
                in_blocks.add(f"{section}.{entry.group(1)}")
    known = set()
    for section, keys in config_module._KEYS.items():
        for key, (reader, *_) in keys.items():
            name = f"{section}.{key}"
            known.add(name)
            assert f"`{name}`" in text or name in in_blocks, name
            for choice in reader if isinstance(reader, tuple) else ():
                spelled = rf"(?<![\w-]){re.escape(choice)}(?![\w-])"
                assert f"`{choice}`" in text or any(
                    re.search(spelled, block) for block in blocks
                ), choice
    # and the settings table names no key that the key table lacks
    table = re.search(r"^\| key \| value \|.*?\n\n", text, re.S | re.M).group(0)
    rows = re.findall(r"^\| `([^`]+)` \|", table, re.M)
    assert rows and set(rows) <= known, set(rows) - known
    # Each row's commands and default agree with _KEYS, and with the model
    # type's own default where the type holds it; the table has every key.
    words = {
        "every command": config_module.COMMANDS,
        "harvest": config_module._HARVEST,
        "age": config_module._AGE,
        "descents": config_module._DESCENT,
        "—": (),
    }
    words.update({f"`{command}`": (command,) for command in config_module.COMMANDS})
    own = {f"convergence.{f.name}": f.default for f in dataclasses.fields(Convergence)}
    own["agestruct.m"] = AgeModelParams.logistic_slope
    cells = re.findall(r"^\| `([^`]+)` \|.* \| ([^|]+) \| ([^|]+) \|$", table, re.M)
    assert [row[0] for row in cells] == rows and set(rows) == known
    for name, needed_by, default in cells:
        section, key = name.split(".")
        entry = config_module._KEYS[section][key]
        commands = {c for word in needed_by.split(", ") for c in words[word]}
        assert commands == set(entry[1]), name
        stated = entry[2] if len(entry) > 2 else own.get(name)
        if stated is None:
            assert default == "—", name
        else:
            cell = default.strip("`")
            assert (cell if isinstance(stated, str) else float(cell)) == stated, name


@pytest.mark.parametrize(
    "text, old, key",
    [
        (TEST1_TEXT, "init = circle", "levelset.init"),
        (TEST1_TEXT, "a = 3.0", "model.a"),
        (AGE_TEXT, "fertility = 1.0", "agestruct.fertility"),
    ],
    ids=["levelset.init", "model.a", "agestruct.fertility"],
)
def test_input_path_naming_a_directory_is_a_config_error(
    tmp_path, capsys, text, old, key
):
    (tmp_path / "inputs").mkdir()
    new = old.split(" = ")[0] + " = inputs"
    path = write_config(tmp_path, text.replace(old, new))
    out = tmp_path / "o"
    assert main(["--config", str(path), "--out", str(out)]) == 2
    assert f"{key} must be a number" in capsys.readouterr().err
    assert not out.exists()


def test_unreadable_input_file_is_a_config_error(tmp_path, capsys, monkeypatch):
    def unreadable(path, *args):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr(config_module, "read_field_csv", unreadable)
    monkeypatch.setattr(config_module, "read_node_csv", unreadable)
    (tmp_path / "field.csv").write_text("x1,x2,value\n")
    (tmp_path / "ages.csv").write_text("age,value\n")
    cases = (
        (TEST1_TEXT, "init = circle", "init = field.csv", "levelset.init"),
        (AGE_TEXT, "fertility = 1.0", "fertility = ages.csv", "agestruct.fertility"),
    )
    for text, old, new, key in cases:
        path = write_config(tmp_path, text.replace(old, new))
        assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"{key}: cannot read" in err and "Permission denied" in err


# key -> (config text, the setting a table path replaces, coordinate columns)
TABLE_KINDS = {
    "levelset.init": (TEST1_TEXT, "init = circle", ("x1", "x2")),
    "agestruct.fertility": (AGE_TEXT, "fertility = 1.0", ("age",)),
}


def write_table(tmp_path, key, spoil=lambda lines: lines):
    """Write a config reading key from table.csv; return it and the table's values.

    The table is written on the nodes of TEST1_TEXT's grid (N = 20) or
    of AGE_TEXT's age grid (A = 1, Na = 20), then its lines are passed
    through spoil and written as latin-1 bytes.
    """
    text, old, names = TABLE_KINDS[key]
    if names == ("age",):
        nodes = (np.linspace(0.0, 1.0, 21),)
    else:
        nodes = GridSpec(20, 20, 1.0).mesh()
    values = np.random.default_rng(5).uniform(0.5, 2.0, nodes[0].shape)
    rows = zip(*(node.ravel() for node in nodes), values.ravel())
    lines = [",".join(names + ("value",))]
    lines += [",".join(f"{v:.17g}" for v in row) for row in rows]
    table = "".join(line + "\n" for line in spoil(lines))
    (tmp_path / "table.csv").write_bytes(table.encode("latin-1"))
    new = old.split(" = ")[0] + " = table.csv"
    return write_config(tmp_path, text.replace(old, new)), values


def doubled_coordinates(lines):
    # The same rows on a grid twice as long: twice the unit square, or A = 2.
    cells = [line.split(",") for line in lines[1:]]
    return lines[:1] + [
        ",".join([f"{2.0 * float(x):.17g}" for x in row[:-1]] + row[-1:])
        for row in cells
    ]


@pytest.mark.parametrize("key", sorted(TABLE_KINDS))
def test_table_parses_to_the_written_values(tmp_path, key):
    path, values = write_table(tmp_path, key)
    config = parse_config(path)
    if key == "levelset.init":
        assert np.array_equal(config.phi0.phi.values, values)
    else:
        assert np.array_equal(config.model.fertility_samples, values)


@pytest.mark.parametrize("key", sorted(TABLE_KINDS))
@pytest.mark.parametrize(
    "spoil, message, detail",
    [
        (lambda lines: [lines[0].upper()] + lines[1:], "bad table", "expected header"),
        (lambda lines: lines[:-1], "bad table", "rows of"),
        (lambda lines: lines[:1], "bad table", "got 0 of 1"),
        (doubled_coordinates, "bad table", "coordinates do not match the grid"),
        (
            lambda lines: lines[:-1] + [lines[-1] + "x"],
            "bad table",
            "line {last_line}: could not convert",
        ),
        (
            lambda lines: lines[:-1] + [lines[-1].rsplit(",", 1)[0]],
            "bad table",
            "line {last_line}: expected",
        ),
        (lambda lines: lines + ["\xff"], "cannot read", "can't decode byte 0xff"),
    ],
    ids=[
        "header",
        "row-short",
        "header-only",
        "other-grid",
        "non-numeric",
        "cell-short",
        "undecodable",
    ],
)
def test_bad_table_is_a_config_error(tmp_path, capsys, key, spoil, message, detail):
    path, _ = write_table(tmp_path, key, spoil)
    out = tmp_path / "o"
    assert main(["--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config error: {key}: {message} table.csv: " in err
    # A fault in a row is named by its line in the file, header included.
    last_line = (tmp_path / "table.csv").read_bytes().count(b"\n")
    assert detail.format(last_line=last_line) in err
    assert not out.exists()


def test_undecodable_input_file_is_a_config_error(tmp_path, capsys):
    (tmp_path / "ages.csv").write_bytes(b"\xff\xfe age,value\n")
    text = AGE_TEXT.replace("fertility = 1.0", "fertility = ages.csv")
    path = write_config(tmp_path, text)
    assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "agestruct.fertility: cannot read ages.csv" in capsys.readouterr().err
    binary = tmp_path / "binary.ini"
    binary.write_bytes(b"\xff\xfe[run]\n")
    assert main(["--config", str(binary), "--out", str(tmp_path / "o")]) == 2
    assert "cannot read config file" in capsys.readouterr().err


def test_output_directory_that_cannot_be_created_exits_2(tmp_path, capsys):
    blocker = tmp_path / "a_file"
    blocker.write_text("not a directory\n")
    path = write_config(tmp_path, AGE_TEXT)
    assert main(["--config", str(path), "--out", str(blocker / "sub")]) == 2
    assert "cannot create output directory" in capsys.readouterr().err
    assert blocker.read_text() == "not a directory\n"


@pytest.mark.parametrize("name", ["summary.txt", "field_k0000.csv"])
def test_artifact_that_cannot_be_written_exits_2(tmp_path, capsys, name):
    out = tmp_path / "fw"
    (out / name).mkdir(parents=True)
    path = write_config(tmp_path, FORWARD_TEXT)
    assert main(["--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: cannot write artifacts to" in err
    assert str(out / name) in err


def test_out_of_memory_is_a_solver_failure(tmp_path, capsys, monkeypatch):
    # The error an oversized horizon raises, injected: nothing is allocated.
    def oversized(*args, **kwargs):
        raise MemoryError("Unable to allocate 5.2 EiB for an array")

    monkeypatch.setattr(cli, "optimize_eradication_region", oversized)
    path = write_config(tmp_path, ERADICATION_TEXT)
    assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "optimize-eradication: solver failure: Unable to allocate" in err


def test_config_too_large_for_memory_exits_2(tmp_path, capsys, monkeypatch):
    # The error an oversized array raises, injected on a small grid that
    # passes the memory checks of parse_config: nothing is allocated.
    def oversized(cls, grid, value):
        raise MemoryError("Unable to allocate 29.1 TiB for an array")

    monkeypatch.setattr(ScalarField, "constant", classmethod(oversized))
    path = write_config(tmp_path, AGE_TEXT.replace("N = 10", "N = 20"))
    out = tmp_path / "o"
    assert main(["--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: the config asks for more memory than is available" in err
    assert "Unable to allocate 29.1 TiB" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "text",
    [TEST1_TEXT, FORWARD_TEXT, AGE_TEXT, ERADICATION_TEXT],
    ids=["optimize-region", "forward", "eradicability", "optimize-eradication"],
)
def test_grid_too_large_for_memory_rejected_at_parse(tmp_path, monkeypatch, text):
    # One field of 401^2 doubles (1.23 MiB) does not fit in a reported
    # 1 MiB, so every command stops at the grid, before any field is built.
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 256}
    monkeypatch.setattr(config_module.os, "sysconf", pages.__getitem__)
    path = write_config(tmp_path, re.sub(r"^N = \d+$", "N = 400", text, flags=re.M))
    message = (
        "grid.N = 400: one field would take 0.0012 GiB, more than the "
        "0.000977 GiB of physical memory"
    )
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_config(path)


def test_ill_posed_renewal_step_rejected_at_parse(tmp_path, capsys):
    text = ERADICATION_TEXT.replace("fertility = 1.5", "fertility = 50")
    path = write_config(tmp_path, text)
    out = tmp_path / "o"
    assert main(["--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "agestruct.fertility" in err and "2.5 >= 1" in err
    assert not out.exists()


def test_output_directory_from_config(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    text = TEST1_TEXT.replace("[run]", "[run]\noutput = made_here").replace(
        "M = 20", "M = 20"
    )
    path = write_config(tmp_path, text)
    config = parse_config(path)
    assert config.output == "made_here"


@pytest.mark.parametrize(
    "text, old, new, key",
    [
        (TEST1_TEXT, "T = 1.0", "T = inf", "grid.T"),
        (ERADICATION_TEXT, "T = 0.5", "T = inf", "grid.T"),
        (TEST1_TEXT, "T = 1.0", "T = 1e308", "grid.M >"),
        (TEST1_TEXT, "T = 1.0", "T = 1e300", "grid.M >"),
        (TEST1_TEXT, "eps = 1.0", "eps = inf", "mollifier.eps"),
        (FORWARD_TEXT, "L = 1.0\nu = 0.0", "L = inf\nu = inf", "model.L"),
        (TEST1_TEXT, "d = 1.0", "d = inf", "model.d"),
        (TEST1_TEXT, "L = 1.0", "L = inf", "model.L"),
        (TEST1_TEXT, "[convergence]", "[convergence]\ntheta0 = inf", "theta0"),
        (AGE_TEXT, "d = 1.0", "d = nan", "model.d"),
        (AGE_TEXT, "L = 2.0", "L = nan", "model.L"),
        (AGE_TEXT, "L = 2.0", "L = inf", "model.L"),
        # Finite values that once ended in a traceback (exit 1) or in a
        # divide by zero partway through a descent (exit 3).
        (ERADICATION_TEXT, "T = 0.5", "T = 1e300", "grid.T = 1e+300 spans 1e+301 age"),
        (ERADICATION_TEXT, "A = 1.0", "A = 1e-300", "grid.T = 0.5 spans 5e+300 age"),
        (ERADICATION_TEXT, "A = 1.0", "A = 5e-324", "agestruct.A gives the age step"),
        (ERADICATION_TEXT, "eps = 1.0", "eps = 1e-300", "mollifier.eps must be"),
        (TEST1_TEXT, "eps = 1.0", "eps = 1e-300", "mollifier.eps must be"),
        (TEST1_TEXT, "alpha = 0.4", "alpha = inf", "penalty.alpha"),
        (
            TEST1_TEXT,
            "a = 3.0",
            "a = inf",
            "model.a must be a finite number, got 'inf'",
        ),
        (
            TEST1_TEXT,
            "y0 = gaussian",
            "y0 = nan",
            "model.y0 must be a finite number, got 'nan'",
        ),
        (
            TEST1_TEXT,
            "init = circle",
            "init = -inf",
            "levelset.init must be a finite number, got '-inf'",
        ),
        (
            AGE_TEXT,
            "fertility = 1.0",
            "fertility = inf",
            "agestruct.fertility must be a finite number, got 'inf'",
        ),
    ],
    ids=[
        "grid.T-inf",
        "eradication-grid.T-inf",
        "grid.T-1e308",
        "grid.T-1e300",
        "mollifier.eps-inf",
        "forward-model.L-inf",
        "model.d-inf",
        "model.L-inf",
        "convergence.theta0-inf",
        "age-model.d-nan",
        "age-model.L-nan",
        "age-model.L-inf",
        "eradication-grid.T-1e300",
        "agestruct.A-1e-300",
        "agestruct.A-5e-324",
        "eradication-mollifier.eps-1e-300",
        "mollifier.eps-1e-300",
        "penalty.alpha-inf",
        "model.a-inf",
        "model.y0-nan",
        "levelset.init--inf",
        "agestruct.fertility-inf",
    ],
)
def test_non_finite_setting_rejected_at_parse(tmp_path, capsys, text, old, new, key):
    assert old in text
    path = write_config(tmp_path, text.replace(old, new))
    out = tmp_path / "o"
    assert main(["--config", str(path), "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


RANDOM_BASE = {
    "run": {},
    "grid": {"N": 6, "M": 4, "T": 1.0},
    "model": {"d": 1.0, "a": 3.0, "y0": "gaussian", "L": 1.0, "u": 0.5},
    "penalty": {"alpha": 0.1, "beta": 0.2},
    "mollifier": {"eps": 1.0},
    "convergence": {"eps1": 1e-3, "eps2": 1e-3, "theta0": 0.05, "max_iter": 1},
    "levelset": {"init": "circle"},
    "agestruct": {"A": 1.0, "Na": 4, "fertility": 1.5, "mortality": 0.2, "m": 0.1},
}
FLOAT_KEYS = [
    (section, key)
    for section, items in RANDOM_BASE.items()
    for key, value in items.items()
    if isinstance(value, float) or key in ("y0", "init")
]
FLOAT_POOL = (
    0.5,
    2.0,
    0.0,
    -1.0,
    math.inf,
    -math.inf,
    math.nan,
    1e308,
    1e300,
    1e-300,
    5e-324,
)
INT_KEYS = [("grid", "N"), ("grid", "M"), ("agestruct", "Na")]
INT_POOL = (2, 4, 8, 3, 1, 0, -1)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    command=st.sampled_from(
        ["forward", "optimize-region", "eradicability", "optimize-eradication"]
    ),
    overrides=st.lists(
        st.one_of(
            st.tuples(st.sampled_from(FLOAT_KEYS), st.sampled_from(FLOAT_POOL)),
            st.tuples(st.sampled_from(INT_KEYS), st.sampled_from(INT_POOL)),
        ),
        max_size=3,
    ),
)
# Three configs that once ended in a traceback, which the 150 drawn
# examples need not reach.
@example(command="optimize-eradication", overrides=[(("grid", "T"), 1e300)])
@example(command="optimize-eradication", overrides=[(("agestruct", "A"), 1e-300)])
@example(command="optimize-eradication", overrides=[(("agestruct", "A"), 5e-324)])
def test_random_configs_exit_with_a_known_code(command, overrides):
    sections = {name: dict(items) for name, items in RANDOM_BASE.items()}
    sections["run"]["command"] = command
    for (section, key), value in overrides:
        sections[section][key] = value
    text = "".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in items.items())
        for name, items in sections.items()
    )
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "run.ini")
        with open(path, "w") as handle:
            handle.write(text)
        status = main(["--config", path, "--out", os.path.join(scratch, "out")])
    assert status in (0, 2, 3, 4)
