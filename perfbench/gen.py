"""Seeded input generator for the regionopt benchmark workloads.

Each workload is an INI config plus the field CSVs it names.  Seed 0
writes the reference inputs (the presets the configs would otherwise
name, written at 17 significant digits so that reading them back gives
the same doubles).  Any other seed adds a seeded smooth perturbation to
the initial level set; for ``verdict-sweep`` it draws a new family of
regions.  The program only ever sees the files written here.

``time-marchers`` runs the three time-marching pipelines one after the
other in each run (harvest-region descent, eradication descent and a
forward run that writes a field per time level); ``verdict-sweep`` runs
none of them.
"""

from __future__ import annotations

import os

import numpy as np

WORKLOADS = ("time-marchers", "verdict-sweep")

# verdict-sweep: regions per sweep and the shared eradicability model
SWEEP_REGIONS = 16
SWEEP_N = 128
# perturbation amplitude relative to the unit-amplitude checkerboard
PERTURBATION = 0.05


def _nodes(N: int) -> np.ndarray:
    # Same node formula as the program's grid, so seed 0 reproduces its
    # presets bit for bit.
    return np.arange(N + 1) * (1.0 / N)


def _mesh(N: int):
    x = _nodes(N)
    return np.meshgrid(x, x, indexing="ij")


def write_field(path: str, values: np.ndarray) -> None:
    """Write an (N+1, N+1) array in the program's x1,x2,value CSV layout."""
    N = values.shape[0] - 1
    x = _nodes(N)
    lines = ["x1,x2,value"]
    for i in range(N + 1):
        for j in range(N + 1):
            lines.append(f"{x[i]:.17g},{x[j]:.17g},{values[i, j]:.17g}")
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def checkerboard(N: int) -> np.ndarray:
    X1, X2 = _mesh(N)
    return np.sin(3.0 * np.pi * X1) * np.sin(3.0 * np.pi * X2)


def smooth_perturbation(N: int, rng: np.random.Generator) -> np.ndarray:
    """Sum of low cosine modes (Neumann-compatible) with seeded weights."""
    X1, X2 = _mesh(N)
    out = np.zeros_like(X1)
    for k1 in range(4):
        for k2 in range(4):
            weight = rng.normal() / (1.0 + k1 * k1 + k2 * k2)
            out += weight * np.cos(k1 * np.pi * X1) * np.cos(k2 * np.pi * X2)
    return PERTURBATION * out / max(np.abs(out).max(), 1e-300)


def initial_levelset(N: int, seed: int) -> np.ndarray:
    phi = checkerboard(N)
    if seed != 0:
        phi = phi + smooth_perturbation(N, np.random.default_rng(seed))
    return phi


def disc_union(N: int, rng: np.random.Generator) -> np.ndarray:
    """Level set max_i (r_i - |x - c_i|) of a union of 1-3 discs."""
    X1, X2 = _mesh(N)
    phi = np.full_like(X1, -np.inf)
    for _ in range(int(rng.integers(1, 4))):
        cx, cy = rng.uniform(0.15, 0.85, size=2)
        radius = rng.uniform(0.08, 0.3)
        phi = np.maximum(phi, radius - np.hypot(X1 - cx, X2 - cy))
    return phi


def _ini(sections) -> str:
    out = []
    for name, items in sections:
        out.append(f"[{name}]")
        out.extend(f"{key} = {value}" for key, value in items)
        out.append("")
    return "\n".join(out)


HARVEST_MODEL = [("d", 1.0), ("a", 3.0), ("y0", "gaussian"), ("L", 1.0)]


def _harvest(out: str, seed: int) -> str:
    N = 48
    write_field(os.path.join(out, "harvest_phi0.csv"), initial_levelset(N, seed))
    text = _ini(
        [
            ("run", [("command", "optimize-region")]),
            ("grid", [("N", N), ("M", 12), ("T", 1.0)]),
            ("model", HARVEST_MODEL),
            ("penalty", [("alpha", 0.4), ("beta", 0.6)]),
            ("mollifier", [("eps", 1.0)]),
            ("levelset", [("init", "harvest_phi0.csv")]),
        ]
    )
    return _write_config(out, "harvest.ini", text)


def _eradication(out: str, seed: int) -> str:
    N = 20
    write_field(os.path.join(out, "eradication_phi0.csv"), initial_levelset(N, seed))
    text = _ini(
        [
            ("run", [("command", "optimize-eradication")]),
            ("grid", [("N", N), ("M", 2), ("T", 1.0)]),
            ("model", [("d", 1.0), ("y0", "gaussian"), ("L", 1.0)]),
            ("penalty", [("alpha", 0.1), ("beta", 0.4)]),
            ("mollifier", [("eps", 1.0)]),
            ("convergence", [("max_iter", 6)]),
            ("levelset", [("init", "eradication_phi0.csv")]),
            (
                "agestruct",
                [("A", 1.0), ("Na", 20), ("fertility", 1.5), ("mortality", 0.2)],
            ),
        ]
    )
    return _write_config(out, "eradication.ini", text)


def _forward(out: str, seed: int) -> str:
    N = 64
    write_field(os.path.join(out, "forward_phi0.csv"), initial_levelset(N, seed))
    text = _ini(
        [
            ("run", [("command", "forward")]),
            ("grid", [("N", N), ("M", 50), ("T", 1.0)]),
            ("model", HARVEST_MODEL + [("u", 0.5)]),
            ("mollifier", [("eps", 1.0)]),
            ("levelset", [("init", "forward_phi0.csv")]),
        ]
    )
    return _write_config(out, "forward.ini", text)


def _time_marchers(out: str, seed: int) -> list[str]:
    return [_harvest(out, seed), _eradication(out, seed), _forward(out, seed)]


def _verdict_sweep(out: str, seed: int) -> list[str]:
    rng = np.random.default_rng(seed)
    paths = []
    for idx in range(SWEEP_REGIONS):
        name = f"region_{idx:02d}"
        write_field(os.path.join(out, name + ".csv"), disc_union(SWEEP_N, rng))
        text = _ini(
            [
                ("run", [("command", "eradicability")]),
                ("grid", [("N", SWEEP_N), ("M", 2), ("T", 1.0)]),
                ("model", [("d", 1.0), ("L", 20.0)]),
                ("levelset", [("init", name + ".csv")]),
                (
                    "agestruct",
                    [("A", 1.0), ("Na", 20), ("fertility", 2.0), ("mortality", 0.0)],
                ),
            ]
        )
        paths.append(_write_config(out, name + ".ini", text))
    return paths


def _write_config(out: str, name: str, text: str) -> str:
    path = os.path.join(out, name)
    with open(path, "w") as handle:
        handle.write(text)
    return path


_BUILDERS = {
    "time-marchers": _time_marchers,
    "verdict-sweep": _verdict_sweep,
}


def generate(workload: str, seed: int, out: str) -> list[str]:
    """Write the workload's inputs into out; return its config paths in run order."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    os.makedirs(out, exist_ok=True)
    return _BUILDERS[workload](out, seed)
