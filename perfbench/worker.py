"""One benchmark run in a fresh interpreter.

    python3 perfbench/worker.py --src SRC --out DIR --result FILE [--spans FILE] CONFIG...

Imports regionopt from SRC, parses the first config (set-up ends here),
then runs every config through ``regionopt.cli.run`` in order, the
later ones each preceded by their own ``parse_config``, with artifacts
in DIR/<config name>.  Writes a JSON result: the monotonic time set-up
ended, the run's wall seconds, the exit code and the peak RSS.  With
--spans, spans around the calls into each module are recorded and
written to that file.

    python3 perfbench/worker.py --src SRC --result FILE --probe

instead times the public adjoint solve (M = 2) and one implicit level-set
step at several N and writes the per-step seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time

PROBE_SIZES = (20, 40, 80, 160)


def _import_regionopt(src: str):
    sys.path.insert(0, src)
    import regionopt
    import regionopt.cli

    where = os.path.realpath(regionopt.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"regionopt imported from {where}, not from {src}")
    return regionopt


def peak_rss_mb() -> float:
    """Peak resident set of this process since exec, in MB.

    VmHWM is read first: ru_maxrss also keeps the high-water mark of the
    address space this process had before exec, which is the parent's.
    """
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    times.sort()
    return times[len(times) // 2]


def probe(regionopt) -> dict:
    """Per-step seconds of solve_adjoint (M = 2) and evolve_phi by N."""
    out: dict = {"N": list(PROBE_SIZES), "adjoint_step_s": [], "evolve_phi_s": []}
    for N in PROBE_SIZES:
        grid = regionopt.GridSpec(N=N, M=2, T=1.0)
        m = regionopt.Mollifier(1.0)
        params = regionopt.ControlProblemParams(
            d=1.0,
            a=regionopt.ScalarField.constant(grid, 3.0),
            y0=regionopt.gaussian_density(grid),
            L=1.0,
            alpha=0.4,
            beta=0.6,
            mollifier=m,
        )
        phi = regionopt.checkerboard_levelset(grid)
        velocity = regionopt.ScalarField(grid, phi.phi.values - 0.6)
        repeats = 3 if N >= 160 else 7
        seconds = _median_time(lambda: regionopt.solve_adjoint(phi, params), repeats)
        out["adjoint_step_s"].append(seconds / grid.M)
        out["evolve_phi_s"].append(
            _median_time(
                lambda: regionopt.evolve_phi(phi, velocity, 0.05, m, alpha=0.4),
                repeats,
            )
        )
    return out


def run_configs(cli, configs: list, out: str) -> tuple[float, float, int]:
    """Return (monotonic time set-up ended, run wall seconds, exit code)."""
    first = cli.parse_config(configs[0])
    setup_end = time.monotonic()
    start = time.perf_counter()
    status = 0
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        for idx, path in enumerate(configs):
            config = first if idx == 0 else cli.parse_config(path)
            name = os.path.splitext(os.path.basename(path))[0]
            status = cli.run(config, out_dir=os.path.join(out, name))
            if status != 0:
                break
    return setup_end, time.perf_counter() - start, status


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--out")
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("configs", nargs="*")
    args = parser.parse_args()

    regionopt = _import_regionopt(args.src)
    if args.probe:
        result = probe(regionopt)
    else:
        tracer = None
        if args.spans:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        setup_end, run_s, status = run_configs(regionopt.cli, args.configs, args.out)
        result = {"setup_end": setup_end, "run_s": run_s, "status": status}
        if tracer is not None:
            tracer.write(args.spans)
    result["peak_rss_mb"] = peak_rss_mb()
    with open(args.result, "w") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
