"""In-memory span recorder that wraps regionopt's public functions.

Each function is wrapped where its caller looks it up (the attribute of
the calling module), so spans sit on the layer boundaries without any
change to the program.  A span is [name, start, end, parent index,
bytes written]; spans stay in memory and are written out once, at exit.
A lookup site that no longer exists is listed as absent, not an error.
"""

from __future__ import annotations

import importlib
import json
import os
import time

# span name -> the (module, attribute) sites where callers look it up
SPAN_SITES = {
    "cli.run": [("regionopt.cli", "run")],
    "config.parse_config": [("regionopt.cli", "parse_config")],
    "config.read_field_csv": [("regionopt.config", "read_field_csv")],
    "pde.solve_adjoint": [("regionopt.shapeopt", "solve_adjoint")],
    "pde.solve_sensitivity": [("regionopt.shapeopt", "solve_sensitivity")],
    "pde.solve_forward": [("regionopt.cli", "solve_forward")],
    "pde.linear_solve": [("regionopt.pde", "linear_solve")],
    "shapeopt.optimize_region": [("regionopt.cli", "optimize_region")],
    "shapeopt.descent_velocity": [("regionopt.shapeopt", "descent_velocity")],
    "agestruct.optimize_eradication_region": [
        ("regionopt.cli", "optimize_eradication_region")
    ],
    "agestruct.solve_age_structured": [
        ("regionopt.agestruct", "solve_age_structured"),
        ("regionopt.cli", "solve_age_structured"),
    ],
    "agestruct.solve_eradication_adjoint": [
        ("regionopt.agestruct", "solve_eradication_adjoint")
    ],
    "agestruct.total_population": [
        ("regionopt.agestruct", "total_population"),
        ("regionopt.cli", "total_population"),
    ],
    "agestruct.principal_eigenvalue": [("regionopt.agestruct", "principal_eigenvalue")],
    "agestruct.lotka_root": [("regionopt.agestruct", "lotka_root")],
    "levelset.evolve_phi": [
        ("regionopt.shapeopt", "evolve_phi"),
        ("regionopt.agestruct", "evolve_phi"),
    ],
    "levelset.region_area": [
        ("regionopt.shapeopt", "region_area"),
        ("regionopt.agestruct", "region_area"),
        ("regionopt.cli", "region_area"),
    ],
    "levelset.region_length": [
        ("regionopt.shapeopt", "region_length"),
        ("regionopt.agestruct", "region_length"),
        ("regionopt.cli", "region_length"),
    ],
    "levelset.write_region_pgm": [("regionopt.cli", "write_region_pgm")],
    "grid.write_field_csv": [("regionopt.cli", "write_field_csv")],
}

# writers whose second argument is the path they write; its size is recorded
WRITERS = {"grid.write_field_csv", "levelset.write_region_pgm"}


class Tracer:
    """Collects spans from every wrapped call in this process."""

    def __init__(self):
        self.spans: list = []
        self.absent: list = []
        self._stack: list = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        writer = name in WRITERS

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1, 0])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
                if writer and os.path.exists(args[1]):
                    spans[idx][4] = os.path.getsize(args[1])

        return wrapper

    def install(self) -> None:
        for name, sites in SPAN_SITES.items():
            for module_name, attr in sites:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    self.absent.append(f"{module_name}.{attr}")
                    continue
                setattr(module, attr, self._wrap(name, fn))

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "absent": self.absent}, handle)


LOOP_NAMES = ("shapeopt.optimize_region", "agestruct.optimize_eradication_region")


def _totals(spans: list, members) -> dict:
    calls: dict = {}
    seconds: dict = {}
    written: dict = {}
    loops: dict = {}
    for idx in members:
        name, start, end, parent, size = spans[idx]
        calls[name] = calls.get(name, 0) + 1
        seconds[name] = seconds.get(name, 0.0) + (end - start)
        written[name] = written.get(name, 0) + size
        if name in LOOP_NAMES:
            loop = loops.setdefault(name, {"seconds": 0.0, "iterations": 0, "trials": 0})
            loop["seconds"] += end - start
        if parent >= 0 and spans[parent][0] in LOOP_NAMES:
            loop = loops.setdefault(
                spans[parent][0], {"seconds": 0.0, "iterations": 0, "trials": 0}
            )
            if name == "levelset.write_region_pgm":
                loop["iterations"] += 1
            elif name == "levelset.evolve_phi":
                loop["trials"] += 1
    return {"calls": calls, "seconds": seconds, "bytes": written, "loops": loops}


def summarize(spans: list) -> dict:
    """Per-name totals plus the loop-structure counts derived from spans.

    Returns {"calls": {name: n}, "seconds": {name: s}, "bytes": {name: b},
    "loops": {loop name: {"seconds", "iterations", "trials"}}, "runs": [...]},
    where "runs" holds the same totals restricted to each top-level
    ``cli.run`` call and its descendants, one per config in run order.  An
    iteration of a descent loop is a region snapshot written from inside
    it (one per accepted iterate); a trial step is an evolve_phi call
    made directly by the loop.
    """
    out = _totals(spans, range(len(spans)))
    # a parent span is always recorded before its children
    top: list = []
    for idx, span in enumerate(spans):
        top.append(idx if span[3] < 0 else top[span[3]])
    members: dict = {}
    for idx, root in enumerate(top):
        if spans[root][0] == "cli.run" and spans[root][3] < 0:
            members.setdefault(root, []).append(idx)
    out["runs"] = [_totals(spans, members[root]) for root in sorted(members)]
    return out
