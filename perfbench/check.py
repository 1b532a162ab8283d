"""Correctness gate for the benchmark's runs.

Three kinds of check, all on the files a run writes:

* identity: every run of a set writes byte-identical artifacts (the
  digest of each config's output directory matches the first run's);
* reference: for a seed listed in ``references.json`` the summary
  matches the values recorded on the seed commit, discrete fields
  exactly and floating-point fields within REL_TOL;
* invariants that hold for any seed, checked against numbers the
  benchmark computes itself: a descent trace is consistent with its
  summary and masks, the forward run balances mass step by step, and
  each verdict agrees with an independent eigenvalue and renewal root.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import json
import math
import os

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")

# Admits the drift a per-solve error of 1e-12 leaves in the summaries
# (about 1e-10 here), yet catches a per-solve error of 1e-9, which moves
# them by 5e-9 to 8e-8.
REL_TOL = 1e-9
EXACT_KEYS = ("command", "iterations", "stop_reason", "verdict", "time_levels_written")
CLOSE_KEYS = ("final_cost", "final_psi", "lambda1", "r_star", "mass_final")
STOP_REASONS = ("J tolerance", "J increase", "phi tolerance", "iteration budget")


def digest(directory: str) -> str:
    """sha256 over the relative paths and bytes of every file in directory."""
    h = hashlib.sha256()
    for root, _, files in sorted(os.walk(directory)):
        for name in sorted(files):
            path = os.path.join(root, name)
            h.update(os.path.relpath(path, directory).encode() + b"\0")
            with open(path, "rb") as handle:
                h.update(handle.read())
    return h.hexdigest()


def read_summary(directory: str) -> dict:
    out = {}
    with open(os.path.join(directory, "summary.txt")) as handle:
        for line in handle:
            key, _, value = line.partition(" = ")
            out[key.strip()] = value.strip()
    return out


def load_references() -> dict:
    with open(REFERENCES) as handle:
        return json.load(handle)


def compare_reference(summary: dict, reference: dict) -> list[str]:
    errors = []
    for key, expected in reference.items():
        got = summary.get(key)
        if got is None:
            errors.append(f"summary lacks {key}")
        elif key in CLOSE_KEYS:
            a, b = float(got), float(expected)
            if abs(a - b) > REL_TOL * max(abs(b), 1e-300):
                errors.append(f"{key} = {got}, reference {expected}")
        elif key in EXACT_KEYS and got != expected:
            errors.append(f"{key} = {got!r}, reference {expected!r}")
    return errors


def _read_field(path: str) -> np.ndarray:
    with open(path) as handle:
        handle.readline()
        raw = np.array(handle.read().replace("\n", ",").rstrip(",").split(","), float)
    values = raw.reshape(-1, 3)[:, 2]
    n = math.isqrt(values.size)
    return values.reshape(n, n)


def read_ini(path: str) -> dict:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    parser.read(path)
    return {s: dict(parser[s]) for s in parser.sections()}


def check_descent(out: str, summary: dict) -> list[str]:
    """Trace, summary and masks of optimize-region / optimize-eradication agree."""
    with open(os.path.join(out, "trace.csv"), newline="") as handle:
        rows = list(csv.reader(handle))
    header, body = rows[0], rows[1:]
    errors = []
    if str(len(body)) != summary.get("iterations"):
        errors.append(f"trace.csv has {len(body)} rows, summary says {summary.get('iterations')}")
    if not body:
        return errors + ["trace.csv is empty"]
    if [int(r[0]) for r in body] != list(range(1, len(body) + 1)):
        errors.append("trace.csv iteration numbers are not 1..n")
    costs = [float(r[1]) for r in body]
    if any(b >= a for a, b in zip(costs, costs[1:])):
        errors.append("accepted costs do not strictly decrease")
    terms = [i for i, name in enumerate(header) if name.endswith("_term")]
    for r in body:
        parts = sum(float(r[i]) for i in terms)
        if abs(parts - float(r[1])) > 1e-12 * max(1.0, abs(float(r[1]))):
            errors.append(f"row {r[0]}: cost differs from the sum of its terms")
            break
    final_key = "final_cost" if "final_cost" in summary else "final_psi"
    if float(summary.get(final_key, "nan")) != min(costs):
        errors.append(f"{final_key} is not the smallest traced cost")
    stop = body[-1][header.index("stop_reason")]
    if stop != summary.get("stop_reason") or stop not in STOP_REASONS:
        errors.append(f"stop reason {stop!r} / {summary.get('stop_reason')!r}")
    best = 1 + costs.index(min(costs))
    for name in (f"omega_{n:04d}.pgm" for n in range(1, len(body) + 1)):
        if not os.path.exists(os.path.join(out, name)):
            errors.append(f"missing snapshot {name}")
            break
    else:
        with open(os.path.join(out, "omega_final.pgm"), "rb") as a, open(
            os.path.join(out, f"omega_{best:04d}.pgm"), "rb"
        ) as b:
            if a.read() != b.read():
                errors.append("omega_final.pgm is not the mask of the best iterate")
    return errors


def check_forward(out: str, summary: dict, inputs: str, config: dict) -> list[str]:
    """Each implicit step balances mass: sum y'(1 + dt (-a + H(phi) u)) = sum y."""
    M = int(config["grid"]["M"])
    dt = float(config["grid"]["T"]) / M
    a = float(config["model"]["a"])
    u = float(config["model"]["u"])
    eps = float(config["mollifier"]["eps"])
    phi = _read_field(os.path.join(inputs, config["levelset"]["init"]))[1:-1, 1:-1]
    removal = 0.5 * (1.0 + (2.0 / np.pi) * np.arctan(phi / eps)) * u
    factor = 1.0 + dt * (removal - a)
    files = sorted(f for f in os.listdir(out) if f.startswith("field_k"))
    errors = []
    if len(files) != M + 1 or summary.get("time_levels_written") != str(M + 1):
        errors.append(f"expected {M + 1} field snapshots, found {len(files)}")
        return errors
    h2 = (1.0 / (phi.shape[0] + 1)) ** 2
    prev = _read_field(os.path.join(out, files[0]))[1:-1, 1:-1]
    first = h2 * prev.sum()
    for name in files[1:]:
        level = _read_field(os.path.join(out, name))[1:-1, 1:-1]
        lhs, rhs = (level * factor).sum(), prev.sum()
        if abs(lhs - rhs) > 1e-10 * abs(rhs):
            errors.append(f"{name}: mass balance off by {abs(lhs - rhs) / abs(rhs):.2e}")
            break
        if level.min() < 0.0:
            errors.append(f"{name}: negative density")
            break
        prev = level
    else:
        for key, value in (("mass_initial", first), ("mass_final", h2 * prev.sum())):
            if abs(float(summary[key]) - value) > 1e-12 * abs(value):
                errors.append(f"{key} = {summary[key]} but the fields give {value!r}")
    return errors


def _renewal_root(config: dict) -> float:
    from scipy.optimize import brentq

    A = float(config["agestruct"]["A"])
    Na = int(config["agestruct"]["Na"])
    beta = float(config["agestruct"]["fertility"])
    mu = float(config["agestruct"]["mortality"])
    ages = np.linspace(0.0, A, Na + 1)
    w = np.full(Na + 1, A / Na)
    w[0] = w[-1] = A / Na / 2.0
    return brentq(lambda r: w @ (beta * np.exp(-mu * ages - r * ages)) - 1.0, -50.0, 50.0, xtol=1e-14)


def _lowest_eigenvalue(phi: np.ndarray, d: float, L: float) -> float:
    """Lowest eigenvalue of d/h^2 (graph Laplacian) + L chi on interior nodes."""
    from scipy import sparse
    from scipy.sparse.linalg import eigsh

    N = phi.shape[0] - 1
    n1 = N - 1
    ends = np.ones(n1)
    ends[1:-1] = 2.0
    path = sparse.diags([-np.ones(n1 - 1), ends, -np.ones(n1 - 1)], [-1, 0, 1])
    eye = sparse.identity(n1)
    lap = sparse.kron(path, eye) + sparse.kron(eye, path)
    chi = (phi[1:-1, 1:-1] > 0.0).astype(float).ravel()
    matrix = (d * N * N * lap + sparse.diags(L * chi)).tocsc()
    return float(eigsh(matrix, k=1, sigma=-1e-3, which="LM", return_eigenvectors=False)[0])


def check_verdict(summary: dict, inputs: str, config: dict) -> list[str]:
    """lambda1 and r* match independent solves; the verdict follows their sign."""
    phi = _read_field(os.path.join(inputs, config["levelset"]["init"]))
    lam = _lowest_eigenvalue(phi, float(config["model"]["d"]), float(config["model"]["L"]))
    root = _renewal_root(config)
    errors = []
    if abs(float(summary["lambda1"]) - lam) > 1e-7 * max(1.0, abs(lam)):
        errors.append(f"lambda1 = {summary['lambda1']}, independent solve gives {lam!r}")
    if abs(float(summary["r_star"]) - root) > 1e-8 * max(1.0, abs(root)):
        errors.append(f"r_star = {summary['r_star']}, independent root {root!r}")
    margin = lam - root
    expected = "Eradicable" if margin > 0 else "NotEradicable"
    if abs(margin) > 1e-4 and summary.get("verdict") != expected:
        errors.append(f"verdict {summary.get('verdict')} but margin {margin:+.3e}")
    return errors


def check_config_output(out: str, config_path: str, reference: dict | None) -> list[str]:
    """All checks for one config's output directory."""
    if not os.path.exists(os.path.join(out, "summary.txt")):
        return ["no summary.txt written"]
    summary = read_summary(out)
    config = read_ini(config_path)
    inputs = os.path.dirname(config_path)
    command = config["run"]["command"]
    if command in ("optimize-region", "optimize-eradication"):
        errors = check_descent(out, summary)
    elif command == "forward":
        errors = check_forward(out, summary, inputs, config)
    else:
        errors = check_verdict(summary, inputs, config)
    if reference is not None:
        errors += compare_reference(summary, reference)
    return errors
