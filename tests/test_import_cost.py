"""Importing the CLI loads no scipy subpackage beyond the ones it uses.

Most of a run's setup time is `import regionopt`, and scipy's share of
it grows with each subpackage loaded.  The package uses scipy.sparse
(the level-set solve) and scipy.linalg (LAPACK QR in the eigen solver),
so a new import of any other subpackage fails here first.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import regionopt.cli
names = {name.split(".")[1] for name in sys.modules if name.startswith("scipy.")}
print(" ".join(sorted(n for n in names if not n.startswith("_") and n != "version")))
"""


def test_cli_import_loads_only_scipy_linalg_and_sparse():
    result = subprocess.run(
        [sys.executable, "-c", PROBE, str(SRC)],
        capture_output=True,
        text=True,
        check=True,
    )
    assert set(result.stdout.split()) == {"linalg", "sparse"}
