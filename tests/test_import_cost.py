"""The CLI imports and runs on NumPy alone: no scipy module is loaded.

Most of a short run's setup time is `import regionopt`, and importing
scipy.linalg alone used to cost more than half of it.  The package needs
no scipy: the level-set step solves its row blocks with numpy.linalg and
the eigen solver's QR goes through numpy.linalg.lapack_lite.  SciPy stays
a test dependency (oracles in the tests and in perfbench/check.py).  The
first probe checks a fresh `import regionopt.cli`; the second blocks
scipy outright and runs one small config of each command, so a lazy
import inside a code path fails here too.
"""

import subprocess
import sys
from pathlib import Path

from test_cli import AGE_TEXT, ERADICATION_TEXT, FORWARD_TEXT, TEST1_TEXT

SRC = Path(__file__).resolve().parent.parent / "src"

IMPORT_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import regionopt.cli
print(" ".join(sorted(name for name in sys.modules if name.startswith("scipy"))))
"""

RUN_PROBE = """
import sys
sys.modules["scipy"] = None
sys.path.insert(0, sys.argv[1])
from regionopt import cli
for path in sys.argv[2:]:
    status = cli.main(["--config", path, "--out", path + ".out"])
    print(path, status, file=sys.stderr)
    assert status == 0, path
"""

# One small config per command; the eradicability region is a disc, so
# the eigen solver goes through its QR steps (a full region converges at
# the constant start vector).
CONFIGS = {
    "forward": FORWARD_TEXT,
    "optimize-region": TEST1_TEXT,
    "optimize-eradication": ERADICATION_TEXT,
    "eradicability": AGE_TEXT.replace("init = 1.0", "init = circle"),
}


def test_cli_import_loads_no_scipy():
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.split() == []


def test_every_command_runs_with_scipy_blocked(tmp_path):
    paths = []
    for name, text in CONFIGS.items():
        path = tmp_path / f"{name}.ini"
        path.write_text(text.lstrip())
        paths.append(str(path))
    result = subprocess.run(
        [sys.executable, "-c", RUN_PROBE, str(SRC), *paths],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr.count(" 0\n") == len(CONFIGS)
