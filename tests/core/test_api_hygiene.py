"""API hygiene: importing the package must need nothing beyond the
standard library."""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"


#: The CI ``docs-drift`` job runs the same line where none of them is installed.
IMPORT_CHECK = (
    "import sys, repro; "
    "heavy = sorted({'networkx', 'hypothesis', 'pytest'} & set(sys.modules)); "
    "sys.exit('import repro pulled in: ' + ', '.join(heavy) if heavy else 0)"
)


def test_import_repro_is_stdlib_only():
    """``networkx`` (the serializability checker's graph) is imported where
    it is used; every process start would otherwise pay ~0.2 s for it."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_CHECK], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
