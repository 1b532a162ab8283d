"""The benchmark tracer finds every function it is meant to time.

perfbench/tracer.py wraps each traced function where its caller looks it
up; a site that no longer exists is skipped, and the per-layer metrics of
that function then read 0.  This test reads the tracer's SPAN_SITES
table without importing or running the tracer, and checks that every
site resolves in the package, apart from a fixed list of known stale
sites left over from calls the package no longer makes.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# Lookup sites of calls that were removed from these modules.
STALE_SITES = [
    "regionopt.agestruct.evolve_phi",
    "regionopt.agestruct.region_area",
    "regionopt.agestruct.region_length",
    "regionopt.cli.region_area",
    "regionopt.cli.region_length",
    "regionopt.cli.solve_age_structured",
]


def span_sites():
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SPAN_SITES" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no SPAN_SITES table in {TRACER}")


def test_every_traced_lookup_site_resolves():
    sites = span_sites()
    assert "pde.linear_solve" in sites
    unresolved = sorted(
        f"{module}.{attr}"
        for lookups in sites.values()
        for module, attr in lookups
        if getattr(importlib.import_module(module), attr, None) is None
    )
    assert unresolved == STALE_SITES
