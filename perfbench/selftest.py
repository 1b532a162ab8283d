"""Checks of the benchmark's own parts; run from the root of a checkout:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import numpy as np  # noqa: E402

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from regionopt import cli, read_field_csv  # noqa: E402
from regionopt.grid import GridSpec  # noqa: E402
from regionopt.levelset import checkerboard_levelset  # noqa: E402


def _run(config_path: str, out: str) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.run(cli.parse_config(config_path), out_dir=out)


def _levelset_bytes(configs: list) -> bytes:
    init = check.read_ini(configs[0])["levelset"]["init"]
    with open(os.path.join(os.path.dirname(configs[0]), init), "rb") as handle:
        return handle.read()


class GeneratorTest(unittest.TestCase):
    def test_seed_zero_levelset_is_the_checkerboard_preset(self):
        with tempfile.TemporaryDirectory() as tmp:
            gen.generate("time-marchers", 0, tmp)
            for name, N in (("harvest", 48), ("eradication", 20), ("forward", 64)):
                grid = GridSpec(N=N, M=2, T=1.0)
                read = read_field_csv(os.path.join(tmp, f"{name}_phi0.csv"), grid)
                np.testing.assert_array_equal(read.values, checkerboard_levelset(grid).phi.values)

    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        with tempfile.TemporaryDirectory() as tmp:
            for name in gen.WORKLOADS:
                fields = [
                    _levelset_bytes(gen.generate(name, seed, os.path.join(tmp, f"{name}{tag}")))
                    for tag, seed in enumerate((5, 5, 6))
                ]
                self.assertEqual(fields[0], fields[1], name)
                self.assertNotEqual(fields[0], fields[2], name)

    def test_seed_zero_harvest_matches_preset_run(self):
        with tempfile.TemporaryDirectory() as tmp:
            config = gen.generate("time-marchers", 0, os.path.join(tmp, "in"))[0]
            with open(config) as handle:
                text = handle.read()
            preset = os.path.join(tmp, "in", "preset.ini")
            with open(preset, "w") as handle:
                handle.write(text.replace("init = harvest_phi0.csv", "init = checkerboard"))
            self.assertEqual(_run(config, os.path.join(tmp, "csv")), 0)
            self.assertEqual(_run(preset, os.path.join(tmp, "preset")), 0)
            for name in ("trace.csv", "summary.txt", "omega_final.pgm"):
                with open(os.path.join(tmp, "csv", name), "rb") as a, open(
                    os.path.join(tmp, "preset", name), "rb"
                ) as b:
                    self.assertEqual(a.read(), b.read(), name)


class TracerTest(unittest.TestCase):
    def test_missing_lookup_site_is_reported_absent(self):
        saved = dict(tracer.SPAN_SITES)
        try:
            tracer.SPAN_SITES.clear()
            tracer.SPAN_SITES["pde.gone"] = [("regionopt.pde", "no_such_function")]
            t = tracer.Tracer()
            t.install()
            self.assertEqual(t.absent, ["regionopt.pde.no_such_function"])
        finally:
            tracer.SPAN_SITES.clear()
            tracer.SPAN_SITES.update(saved)

    def test_summarize_counts_loop_iterations_and_trials(self):
        loop = "shapeopt.optimize_region"
        spans = [
            [loop, 0.0, 10.0, -1, 0],
            ["levelset.write_region_pgm", 1.0, 1.1, 0, 7],
            ["levelset.evolve_phi", 2.0, 2.5, 0, 0],
            ["levelset.evolve_phi", 3.0, 3.5, 0, 0],
            ["levelset.write_region_pgm", 4.0, 4.1, 0, 7],
            ["levelset.write_region_pgm", 11.0, 11.1, -1, 7],
        ]
        s = tracer.summarize(spans)
        self.assertEqual(s["loops"][loop], {"seconds": 10.0, "iterations": 2, "trials": 2})
        self.assertEqual(s["calls"]["levelset.write_region_pgm"], 3)
        self.assertEqual(s["bytes"]["levelset.write_region_pgm"], 21)

    def test_summarize_splits_totals_by_cli_run(self):
        spans = [
            ["config.parse_config", 0.0, 1.0, -1, 0],
            ["cli.run", 1.0, 3.0, -1, 0],
            ["pde.linear_solve", 1.5, 2.0, 1, 0],
            ["config.parse_config", 3.0, 3.5, -1, 0],
            ["cli.run", 3.5, 9.5, -1, 0],
            ["pde.solve_adjoint", 4.0, 8.0, 4, 0],
            ["pde.linear_solve", 5.0, 6.0, 5, 0],
        ]
        runs = tracer.summarize(spans)["runs"]
        self.assertEqual([r["seconds"]["cli.run"] for r in runs], [2.0, 6.0])
        self.assertEqual([r["calls"]["pde.linear_solve"] for r in runs], [1, 1])
        self.assertNotIn("config.parse_config", runs[0]["calls"])
        self.assertEqual(runs[1]["seconds"]["pde.solve_adjoint"], 4.0)


class GateTest(unittest.TestCase):
    def test_gate_rejects_corrupted_outputs(self):
        with tempfile.TemporaryDirectory() as tmp:
            config = gen.generate("time-marchers", 0, os.path.join(tmp, "in"))[1]
            out = os.path.join(tmp, "out")
            self.assertEqual(_run(config, out), 0)
            self.assertEqual(check.check_config_output(out, config, None), [])
            summary = check.read_summary(out)
            ref = {k: summary[k] for k in ("iterations", "stop_reason", "final_psi")}
            self.assertEqual(check.compare_reference(summary, ref), [])
            bad = dict(ref, final_psi=repr(float(ref["final_psi"]) * (1 + 1e-6)))
            self.assertTrue(check.compare_reference(summary, bad))
            path = os.path.join(out, "trace.csv")
            with open(path) as handle:
                lines = handle.read().splitlines()
            cells = lines[2].split(",")
            cells[1] = repr(float(cells[1]) + 1.0)
            lines[2] = ",".join(cells)
            with open(path, "w") as handle:
                handle.write("\n".join(lines) + "\n")
            self.assertTrue(check.check_config_output(out, config, None))

    def test_gate_checks_verdicts_against_independent_solves(self):
        with tempfile.TemporaryDirectory() as tmp:
            configs = gen.generate("verdict-sweep", 0, os.path.join(tmp, "in"))
            out = os.path.join(tmp, "out")
            self.assertEqual(_run(configs[0], out), 0)
            self.assertEqual(check.check_config_output(out, configs[0], None), [])
            verdict = check.read_summary(out)["verdict"]
            flipped = "NotEradicable" if verdict == "Eradicable" else "Eradicable"
            summary = os.path.join(out, "summary.txt")
            with open(summary) as handle:
                text = handle.read()
            with open(summary, "w") as handle:
                handle.write(text.replace(f"verdict = {verdict}", f"verdict = {flipped}"))
            self.assertTrue(check.check_config_output(out, configs[0], None))


class ContractTest(unittest.TestCase):
    def test_reported_metrics_match_benchmark_json(self):
        with open("BENCHMARK.json") as handle:
            spec = json.load(handle)
        w = run.Workload.__new__(run.Workload)
        w.spans = []
        w.runs = [
            {
                "traced": False,
                "run_s": 1.0,
                "run_rel": 1.0,
                "cal_s": 1.0,
                "setup_s": 1.0,
                "peak_rss_mb": 1.0,
                "steal_s": 0.0,
            }
        ]
        probe = {"pde.step_exponent": 3.0, "levelset.evolve_phi_exponent": 2.0}
        for reported, declared in (
            (run.end_to_end(w), spec["end_to_end"]),
            (run.per_layer(w, probe), spec["per_layer"]),
        ):
            self.assertEqual(
                {k: v["unit"] for k, v in reported.items()},
                {m["name"]: m["unit"] for m in declared},
            )


if __name__ == "__main__":
    unittest.main()
