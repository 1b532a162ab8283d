"""regionopt benchmark: closed-loop CLI runs on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a regionopt checkout.  The workload's inputs are
generated from the seed (perfbench/gen.py), then one client runs the
pipeline through ``regionopt.cli.parse_config`` and ``regionopt.cli.run``
again and again for S seconds, each run in a fresh worker process and
the next one started only after the previous one ended.  ``--workload
all`` interleaves the workloads run by run, so that host drift hits
them alike.

With --trace 0 the last line of output is a JSON object holding the
end-to-end metrics (medians over the runs): run_rel, setup_s and
peak_rss_mb.  run_rel is each run's wall time divided by that of a
fixed reference process timed just before it (see CALIBRATION); the
wall times themselves are printed above it.  With --trace 1 runs
alternate between traced and untraced workers; the traced ones record
spans around the calls into each module and give the per-layer
metrics, and a layer scaling probe fits how the step solver and the
level-set step grow with N.  Every run's artifacts
are checked (perfbench/check.py); a run that fails is counted, never
dropped.  A workload's scratch directory is kept only when a run
failed.  The exit code is 0 when the benchmark ran, whatever the
verdict, and 2 when it cannot run here.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy

import check
import gen
from tracer import summarize

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORK_DIR = ".perfbench_work"
BLAS_THREADS = 1
# A worker (a run or the probe) still running after this long is taken
# to hang: it is killed and fails.  One run takes a few seconds, so the
# guard is far from any run's time, and it does not depend on --seconds.
HANG_TIMEOUT_S = 60.0

# The reference process timed before every run.  The host's speed
# wanders by 20-30% within minutes, and a fresh process slows with it
# alike whatever it computes, so run time divided by this one's stays
# steady.  It shares no code with regionopt: a change to the program
# leaves it alone.  It is timed from spawn until the monotonic time it
# prints at its end, as set-up is.
CALIBRATION = """
import time
import numpy as np
a = np.eye(300) * 4.0 + np.ones((300, 300)) * 0.01
for _ in range(60):
    x = np.linalg.solve(a, np.ones(300))
y = np.linspace(0.0, 1.0, 361)
for _ in range(6000):
    y = np.abs(0.5 * y - 0.25) + np.maximum(y, 0.1) * 0.5
total = 0
for i in range(600000):
    total += i % 7
print(time.monotonic())
"""

# The layer each config of a workload is meant to stress, as span names
# whose inclusive time is summed and reported as a share of that
# config's cli.run span; "*" stands for all of the workload's configs.
INTENDED_LAYERS = {
    "time-marchers": {
        "harvest": ("pde.solve_adjoint", "pde.solve_sensitivity"),
        "eradication": (
            "agestruct.solve_age_structured",
            "agestruct.solve_eradication_adjoint",
        ),
        "forward": ("grid.write_field_csv",),
    },
    "verdict-sweep": {"*": ("agestruct.principal_eigenvalue",)},
}


class CheckoutError(Exception):
    """The current directory is not a regionopt checkout."""


def read_steal_s() -> float:
    """Cumulative CPU steal time of this machine, from /proc/stat (0 where absent)."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
    except OSError:
        return 0.0
    if len(fields) < 9 or fields[0] != "cpu":
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def git_sha(root: str) -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def worker_env() -> dict:
    env = dict(os.environ)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = str(BLAS_THREADS)
    env.pop("PYTHONPATH", None)
    return env


class Workload:
    """Inputs, runs and outcomes of one workload within a benchmark process."""

    def __init__(self, name: str, seed: int, root: str, references: dict):
        self.name = name
        self.dir = os.path.join(root, WORK_DIR, f"{name}-seed{seed}")
        shutil.rmtree(self.dir, ignore_errors=True)
        self.configs = gen.generate(name, seed, os.path.join(self.dir, "inputs"))
        self.reference = references.get(name, {}).get(str(seed))
        # one dict per run: traced, start, wall, cal_s, steal_s, passed (a flag
        # per config) and, when the worker finished, setup_s, run_s, run_rel,
        # peak_rss_mb
        self.runs: list = []
        self.first_digests: list | None = None
        self.first_errors: list | None = None
        self.first_out: str | None = None
        self.spans: list = []  # tracer.summarize() of each traced run
        self.absent: set = set()

    def config_names(self):
        return [os.path.splitext(os.path.basename(p))[0] for p in self.configs]

    def run_once(self, src: str, traced: bool) -> dict:
        idx = len(self.runs)
        out = os.path.join(self.dir, f"run{idx:03d}")
        result = os.path.join(self.dir, f"result{idx:03d}.json")
        spans = os.path.join(self.dir, f"spans{idx:03d}.json")
        cmd = [sys.executable, WORKER, "--src", src, "--out", out, "--result", result]
        if traced:
            cmd += ["--spans", spans]
        cmd += self.configs
        cal_start = time.monotonic()
        cal = subprocess.run(
            [sys.executable, "-c", CALIBRATION],
            env=worker_env(),
            capture_output=True,
            text=True,
            check=True,
            timeout=HANG_TIMEOUT_S,
        )
        cal_s = float(cal.stdout) - cal_start
        steal0 = read_steal_s()
        start = time.monotonic()
        with open(os.path.join(self.dir, f"stderr{idx:03d}.txt"), "w") as err:
            proc = subprocess.Popen(
                cmd, stdout=subprocess.DEVNULL, stderr=err, env=worker_env()
            )
            try:
                code = proc.wait(timeout=HANG_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                print(f"{self.name}: run {idx} hung for {HANG_TIMEOUT_S:g} s", file=sys.stderr)
                code = None
        wall = time.monotonic() - start
        record = {
            "traced": traced,
            "start": start,
            "wall": wall + cal_s,
            "cal_s": cal_s,
            "steal_s": read_steal_s() - steal0,
        }
        record["passed"] = self._judge(code, out, result, spans if traced else None, record)
        self.runs.append(record)
        if out != self.first_out:
            shutil.rmtree(out, ignore_errors=True)
        return record

    def _judge(self, code, out, result, spans, record) -> list:
        """Fill record from the worker's result; return per-config pass flags."""
        names = self.config_names()
        if code != 0 or not os.path.exists(result):
            return [False] * len(names)
        with open(result) as handle:
            res = json.load(handle)
        record["setup_s"] = res["setup_end"] - record["start"]
        record["run_s"] = res["run_s"]
        record["run_rel"] = res["run_s"] / record["cal_s"]
        record["peak_rss_mb"] = res["peak_rss_mb"]
        digests = [
            check.digest(os.path.join(out, n)) if os.path.isdir(os.path.join(out, n)) else None
            for n in names
        ]
        if self.first_digests is None:
            self.first_digests = digests
            self.first_errors = [
                check.check_config_output(
                    os.path.join(out, n), p, self.reference[i] if self.reference else None
                )
                if d is not None
                else ["no output directory"]
                for i, (n, p, d) in enumerate(zip(names, self.configs, digests))
            ]
            self.first_out = out
        passed = [
            d is not None and d == first and not errs
            for d, first, errs in zip(digests, self.first_digests, self.first_errors)
        ]
        if res["status"] != 0:
            passed = [False] * len(names)
        if spans is not None:
            with open(spans) as handle:
                data = json.load(handle)
            self.spans.append(summarize(data["spans"]))
            self.absent.update(data["absent"])
            passed = [p and self._cross_check(self.spans[-1]) for p in passed]
        return passed

    def _cross_check(self, summary: dict) -> bool:
        """Loop iterations in each config's spans equal the rows of its trace.csv."""
        names = self.config_names()
        if len(summary["runs"]) != len(names):
            print(f"{self.name}: {len(summary['runs'])} cli.run spans", file=sys.stderr)
            return False
        for name, totals in zip(names, summary["runs"]):
            path = os.path.join(self.first_out, name, "trace.csv")
            for loop in totals["loops"].values():
                if not os.path.exists(path):
                    return False
                with open(path) as handle:
                    rows = sum(1 for _ in handle) - 1
                if loop["iterations"] != rows:
                    print(
                        f"{self.name}: {name}: spans show {loop['iterations']} "
                        f"iterations, trace.csv has {rows} rows",
                        file=sys.stderr,
                    )
                    return False
        return True

    # ---- results -------------------------------------------------------

    def attempted(self) -> int:
        return sum(len(r["passed"]) for r in self.runs)

    def failed(self) -> int:
        return sum(not p for r in self.runs for p in r["passed"])

    def samples(self, key: str, traced: bool = False) -> list:
        return [r[key] for r in self.runs if r["traced"] == traced and key in r]


def tail_percentile(values: list):
    """Highest of a few percentiles with at least 10 samples beyond it."""
    n = len(values)
    for p in (99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            ordered = sorted(values)
            return p, ordered[min(n - 1, int(round(p / 100.0 * (n - 1))))]
    return None


END_TO_END = (("run_rel", "ratio"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def end_to_end(w: Workload) -> dict:
    metrics = {}
    for key, unit in END_TO_END:
        values = w.samples(key)
        if values:
            metrics[key] = {"value": statistics.median(values), "unit": unit}
    return metrics


def _median_or_zero(values: list) -> float:
    return statistics.median(values) if values else 0.0


def per_layer(w: Workload, probe: dict | None) -> dict:
    """Medians over the traced runs of each layer's counts and times.

    The probe's exponents are left out when the probe did not finish.
    """
    traced = w.spans

    def calls(name):
        return _median_or_zero([s["calls"].get(name, 0) for s in traced])

    def seconds(*names):
        return _median_or_zero([sum(s["seconds"].get(n, 0.0) for n in names) for s in traced])

    def loop(name, key):
        return [s["loops"].get(name, {}).get(key, 0) for s in traced]

    m = {}
    for mod, fn in (
        ("pde", "solve_adjoint"),
        ("pde", "solve_sensitivity"),
        ("agestruct", "solve_age_structured"),
        ("agestruct", "solve_eradication_adjoint"),
        ("agestruct", "principal_eigenvalue"),
        ("levelset", "evolve_phi"),
        ("grid", "write_field_csv"),
        ("config", "read_field_csv"),
    ):
        m[f"{mod}.{fn}_calls"] = (calls(f"{mod}.{fn}"), "count")
        m[f"{mod}.{fn}_s"] = (seconds(f"{mod}.{fn}"), "s")
    m["pde.solve_forward_s"] = (seconds("pde.solve_forward"), "s")
    m["pde.step_solves"] = (calls("pde.linear_solve"), "count")
    m["pde.step_solve_s"] = (seconds("pde.linear_solve"), "s")
    per_call = [
        1e6 * s["seconds"]["pde.linear_solve"] / s["calls"]["pde.linear_solve"]
        for s in traced
        if s["calls"].get("pde.linear_solve")
    ]
    m["pde.step_solve_us"] = (_median_or_zero(per_call), "us")
    m["agestruct.total_population_s"] = (seconds("agestruct.total_population"), "s")
    m["agestruct.lotka_root_s"] = (seconds("agestruct.lotka_root"), "s")
    m["shapeopt.descent_velocity_s"] = (seconds("shapeopt.descent_velocity"), "s")
    for mod, name in (
        ("shapeopt", "shapeopt.optimize_region"),
        ("agestruct", "agestruct.optimize_eradication_region"),
    ):
        iters, trials = loop(name, "iterations"), loop(name, "trials")
        secs = loop(name, "seconds")
        m[f"{mod}.outer_iterations"] = (_median_or_zero(iters), "count")
        m[f"{mod}.trial_steps"] = (_median_or_zero(trials), "count")
        m[f"{mod}.accept_ratio"] = (
            _median_or_zero([(i - 1) / t for i, t in zip(iters, trials) if t]),
            "ratio",
        )
        m[f"{mod}.s_per_iteration"] = (
            _median_or_zero([s / i for s, i in zip(secs, iters) if i]),
            "s",
        )
    m["levelset.region_geometry_s"] = (
        seconds("levelset.region_area", "levelset.region_length"),
        "s",
    )
    m["levelset.write_region_pgm_s"] = (seconds("levelset.write_region_pgm"), "s")
    m["grid.write_field_csv_mb"] = (
        _median_or_zero([s["bytes"].get("grid.write_field_csv", 0) / 1e6 for s in traced]),
        "MB",
    )
    m["config.parse_config_s"] = (seconds("config.parse_config"), "s")
    m["host.steal_s"] = (_median_or_zero(w.samples("steal_s", True)), "s")
    m["host.blas_threads"] = (BLAS_THREADS, "count")
    m["host.calibration_s"] = (_median_or_zero(w.samples("cal_s", True)), "s")
    untraced, traced_run = w.samples("run_s"), w.samples("run_s", True)
    m["trace_overhead"] = (
        statistics.median(traced_run) / statistics.median(untraced)
        if untraced and traced_run
        else 0.0,
        "ratio",
    )
    for key, value in (probe or {}).items():
        m[key] = (value, "exponent")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def run_probe(src: str, work: str) -> dict | None:
    """Fitted exponents of the scaling probe, or None if it did not finish."""
    result = os.path.join(work, "probe.json")
    cmd = [sys.executable, WORKER, "--src", src, "--result", result, "--probe"]
    try:
        code = subprocess.run(
            cmd, stdout=subprocess.DEVNULL, env=worker_env(), timeout=HANG_TIMEOUT_S
        ).returncode
    except subprocess.TimeoutExpired:
        code = None
    if code != 0:
        print(f"probe did not finish (exit {code})", file=sys.stderr)
        return None
    with open(result) as handle:
        res = json.load(handle)
    logn = np.log(res["N"])
    out = {
        "pde.step_exponent": float(np.polyfit(logn, np.log(res["adjoint_step_s"]), 1)[0]),
        "levelset.evolve_phi_exponent": float(
            np.polyfit(logn, np.log(res["evolve_phi_s"]), 1)[0]
        ),
    }
    print("probe " + json.dumps(res))
    return out


def report(w: Workload, layers: dict | None) -> None:
    """Human-readable lines for one workload."""
    n = len(w.runs)
    for key, unit in (("run_s", "s"), ("cal_s", "s")) + END_TO_END:
        values = w.samples(key)
        if not values:
            print(f"{w.name:20s} {key:12s} no successful untraced runs")
            continue
        tail = tail_percentile(values)
        tail_text = f" p{tail[0]:g}={tail[1]:.4f}" if tail else " (too few samples for a tail)"
        print(
            f"{w.name:20s} {key:12s} median={statistics.median(values):.4f} {unit}"
            f"{tail_text} n={len(values)}"
        )
    print(f"{w.name:20s} run_s samples: {' '.join(f'{v:.3f}' for v in w.samples('run_s'))}")
    ratio = w.failed() / w.attempted() if w.attempted() else 1.0
    print(f"{w.name:20s} {'fail_ratio':12s} {ratio:.4f} ({w.failed()}/{w.attempted()}) runs={n}")
    if w.first_errors:
        for name, errs in zip(w.config_names(), w.first_errors):
            for e in errs:
                print(f"{w.name}: {name}: {e}", file=sys.stderr)
    if layers is not None:
        names = w.config_names()
        for label, spans in INTENDED_LAYERS[w.name].items():
            picked = [i for i, n in enumerate(names) if label in (n, "*")]
            shares = [
                sum(s["runs"][i]["seconds"].get(n, 0.0) for i in picked for n in spans)
                / sum(s["runs"][i]["seconds"]["cli.run"] for i in picked)
                for s in w.spans
                if len(s["runs"]) == len(names)
            ]
            share = f"{statistics.median(shares):.3f}" if shares else "n/a"
            print(
                f"{w.name:20s} layer share in {label}: {'+'.join(spans)} = {share} "
                f"of cli.run (median of {len(shares)} traced runs)"
            )
        if w.absent:
            print(f"{w.name}: absent lookup sites: {', '.join(sorted(w.absent))}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "regionopt", "__init__.py")):
        raise CheckoutError(f"no regionopt sources under {src}")
    names = gen.WORKLOADS if args.workload == "all" else (args.workload,)
    references = check.load_references()
    workloads = [Workload(n, args.seed, root, references) for n in names]

    # Let the bytecode and file caches fill: CLI users run warm.
    subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); import regionopt.cli", src],
        env=worker_env(),
        timeout=HANG_TIMEOUT_S,
    )
    traced = bool(args.trace)
    # Every workload runs at least once, and a traced benchmark runs each
    # both untraced and traced.  Past that, a run is started only if a run
    # of its median wall time would end within --seconds.
    min_runs = 2 if traced else 1
    deadline = time.monotonic() + args.seconds
    turn = 0
    while True:
        w = workloads[turn % len(workloads)]
        if min(len(x.runs) for x in workloads) >= min_runs:
            walls = [r["wall"] for r in w.runs]
            if time.monotonic() + statistics.median(walls) > deadline:
                break
        w.run_once(src, traced and len(w.runs) % 2 == 1)
        turn += 1

    probe = run_probe(src, os.path.join(root, WORK_DIR)) if traced else None
    nproc = len(os.sched_getaffinity(0))
    print(
        "meta "
        + json.dumps(
            {
                "git_sha": git_sha(root),
                "python": platform.python_version(),
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "nproc": nproc,
                "host.blas_threads": BLAS_THREADS,
                "seed": args.seed,
                "seconds": args.seconds,
                "steal_s_per_run": {
                    w.name: [round(r["steal_s"], 3) for r in w.runs] for w in workloads
                },
            }
        )
    )
    metrics = {}
    for w in workloads:
        layers = per_layer(w, probe) if traced else None
        report(w, layers)
        chosen = layers if traced else end_to_end(w)
        prefix = f"{w.name}." if len(workloads) > 1 else ""
        metrics.update({prefix + k: v for k, v in chosen.items()})
    # The probe counts as one attempt that fails when it does not finish.
    attempted = sum(w.attempted() for w in workloads) + traced
    failed = sum(w.failed() for w in workloads) + (traced and probe is None)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    for w in workloads:
        if w.failed() == 0:
            shutil.rmtree(w.dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
