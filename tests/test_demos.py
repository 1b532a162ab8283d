"""Smoke test: every demo script runs to completion.

Each demo is copied into a temporary directory before it runs, so the
artifacts it writes next to itself land there and not in demos/output/.
"""

import pathlib
import runpy
import shutil

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path, capsys):
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out
