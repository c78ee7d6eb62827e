"""API hygiene: src/ must not call its own deprecated shims, and importing
the package must need nothing beyond the standard library.

Mirrors the CI lint step so the failure shows up in a local test run too:
``Driver.submit`` / ``Driver.submit_keyed`` exist only for external
callers; everything under ``src/repro`` goes through ``Driver.call``.
"""

import os
import pathlib
import re
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
SHIM_CALL = re.compile(r"\.submit(_keyed)?\(")


def test_src_does_not_use_deprecated_submit_shims():
    hits = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "driver.py":
            continue  # the shims themselves live here
        for number, line in enumerate(path.read_text().splitlines(), 1):
            if SHIM_CALL.search(line):
                hits.append(f"{path.relative_to(SRC)}:{number}: {line.strip()}")
    assert not hits, (
        "deprecated Driver.submit()/submit_keyed() used in src/ "
        "(use Driver.call()):\n" + "\n".join(hits)
    )


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
