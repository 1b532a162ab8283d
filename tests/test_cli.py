"""Tests for configuration parsing and the command line pipelines."""

import csv
import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from regionopt import agestruct, cli, shapeopt
from regionopt.cli import main, run
from regionopt.config import gaussian_density, parse_config, read_age_samples_csv
from regionopt.errors import ConfigError, SolverFailure
from regionopt.grid import GridSpec, ScalarField, read_field_csv, write_field_csv
from regionopt.levelset import checkerboard_levelset, circle_levelset

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
    assert (config.grid.N, config.grid.M, config.grid.T) == (20, 20, 1.0)
    params = config.control
    assert params.d == 1.0
    assert params.L == 1.0
    assert (params.alpha, params.beta) == (0.4, 0.6)
    assert params.mollifier.eps == 1.0
    assert (config.eps1, config.eps2, config.theta0) == (0.001, 0.001, 0.05)
    assert np.all(params.a.values == 3.0)
    assert np.allclose(
        params.y0.values, gaussian_density(config.grid).values, rtol=0, atol=0
    )
    expected_phi = circle_levelset(config.grid)
    assert np.allclose(
        config.phi0.phi.values, expected_phi.phi.values, rtol=0, atol=0
    )
    assert config.max_iter == 200
    assert config.age_model is None


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
    assert np.allclose(config.control.a.values, bump.values, rtol=1e-16, atol=0)


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
    model = config.age_model
    assert (model.A, model.Na, model.d, model.L, model.T) == (1.0, 20, 1.0, 2.0, 1.0)
    assert np.all(model.fertility_samples == 1.0)
    assert np.all(model.mortality_samples == 0.0)
    assert config.control is None


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
        config.age_model.fertility_samples, 2.0 * ages, rtol=1e-15, atol=1e-15
    )
    short = ages[:-1]
    with open(tmp_path / "short.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["age", "value"])
        for age in short:
            writer.writerow([age, 1.0])
    with pytest.raises(ConfigError, match="sample rows"):
        read_age_samples_csv(tmp_path / "short.csv", ages)


def test_age_horizon_must_match_age_step(tmp_path):
    text = AGE_TEXT.replace("T = 1.0", "T = 0.93")
    with pytest.raises(ConfigError, match="agestruct"):
        parse_config(write_config(tmp_path, text))


def test_bad_sign_variant_rejected(tmp_path):
    text = AGE_TEXT + "sign_variant = upwind\n"
    with pytest.raises(ConfigError, match="sign_variant"):
        parse_config(write_config(tmp_path, text))


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


def test_forward_conservation_run(tmp_path):
    path = write_config(tmp_path, FORWARD_TEXT)
    out = tmp_path / "fw"
    status = main(
        ["--config", str(path), "--out", str(out), "--snapshot-every", "50"]
    )
    assert status == 0
    summary = read_summary(out)
    assert float(summary["mass_drift"]) <= 1e-8
    grid = GridSpec(N=10, M=100, T=1.0)
    first = read_field_csv(out / "field_k0000.csv", grid)
    assert np.allclose(
        first.values, gaussian_density(grid).values, rtol=1e-15, atol=0
    )
    assert (out / "field_k0100.csv").exists()


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
    summary = read_summary(first)
    assert summary["sign_variant"] == "descent"


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


def test_exit_code_for_missing_config(tmp_path):
    assert main(["--config", str(tmp_path / "nope.ini")]) == 2


def test_exit_code_for_bad_snapshot_interval(tmp_path):
    path = write_config(tmp_path, TEST1_TEXT)
    status = main(
        ["--config", str(path), "--out", str(tmp_path / "x"), "--snapshot-every", "0"]
    )
    assert status == 2


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


def test_negative_penalty_rejected_for_every_command(tmp_path, capsys):
    for text in (TEST1_TEXT, ERADICATION_TEXT):
        for key in ("alpha", "beta"):
            bad = re.sub(rf"^{key} = .*$", f"{key} = -0.1", text, flags=re.M)
            path = write_config(tmp_path, bad)
            out = tmp_path / "o"
            assert main(["--config", str(path), "--out", str(out)]) == 2
            assert f"penalty.{key} must be nonnegative" in capsys.readouterr().err
            assert not out.exists()


def test_paper_mode_rejected_outside_optimize_region(tmp_path, capsys):
    path = write_config(tmp_path, FORWARD_TEXT)
    out = tmp_path / "fw"
    status = main(["--config", str(path), "--out", str(out), "--paper-mode"])
    assert status == 2
    assert "optimize-region only" in capsys.readouterr().err
    assert not out.exists()


def test_run_seed_is_an_unknown_key(tmp_path, capsys):
    text = TEST1_TEXT.replace("[run]", "[run]\nseed = 7")
    path = write_config(tmp_path, text)
    assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "unknown key run.seed" in capsys.readouterr().err


def test_eradication_convergence_settings_checked_at_parse(tmp_path, capsys):
    text = ERADICATION_TEXT.replace("max_iter = 3", "max_iter = 3\neps1 = 0")
    path = write_config(tmp_path, text)
    assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "convergence.eps1 must be positive" in capsys.readouterr().err


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
        (TEST1_TEXT, "alpha = 0.4", "alpha = inf", "penalty.alpha"),
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
FLOAT_POOL = (0.5, 2.0, 0.0, -1.0, math.inf, -math.inf, math.nan, 1e308)
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
