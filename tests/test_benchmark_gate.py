"""The benchmark's correctness gate passes on a few of its own inputs.

perfbench/check.py judges every benchmark run: the summaries of the
seeds listed in perfbench/references.json must match the recorded
values (discrete fields exactly, floats to a relative 1e-9), and each
output must pass the invariant checks.  This test writes the seed-0
inputs of both workloads with perfbench/gen.py, runs them through the
command line runner and asks check.py for its verdict, so that a change
which moves a referenced number past the gate, or flips a verdict, fails
here first.  All of ``time-marchers`` and two regions of
``verdict-sweep`` get every check; the other 14 regions are compared
with their references only, which skips the costlier independent
eigenvalue.  The traced runs also time perfbench/worker.py's scaling
probe, which a failing public call turns into a failed run, so the probe
runs here at its smallest size.  The modules are loaded by path; nothing
under perfbench/ is imported as a package.
"""

import importlib.util
import math
import os
from pathlib import Path

import pytest

import regionopt
from regionopt import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    path = PERFBENCH / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gen = load("gen")
check = load("check")


@pytest.mark.parametrize(
    "workload, picked", [("time-marchers", (0, 1, 2)), ("verdict-sweep", (0, 2))]
)
def test_seed_zero_outputs_pass_the_benchmark_check(tmp_path, workload, picked):
    configs = gen.generate(workload, 0, str(tmp_path / "inputs"))
    references = check.load_references()[workload]["0"]
    assert len(references) == len(configs)
    for index, path in enumerate(configs):
        out = str(tmp_path / os.path.splitext(os.path.basename(path))[0])
        assert cli.run(cli.parse_config(path), out_dir=out) == 0
        if index in picked:
            assert check.check_config_output(out, path, references[index]) == []
        else:
            summary = check.read_summary(out)
            assert check.compare_reference(summary, references[index]) == []


def test_scaling_probe_runs_on_the_package(monkeypatch):
    # The probe calls solve_adjoint(phi, params) on a level set and
    # evolve_phi(phi, velocity, 0.05, m, alpha=0.4); run.py counts a probe
    # that does not finish as a failed attempt.
    worker = load("worker")
    monkeypatch.setattr(worker, "PROBE_SIZES", (20,))
    timings = worker.probe(regionopt)
    assert timings["N"] == [20]
    for key in ("adjoint_step_s", "evolve_phi_s"):
        assert len(timings[key]) == 1
        assert 0.0 < timings[key][0] < math.inf
