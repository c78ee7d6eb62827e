"""vrbench: the repository's benchmark.

Seven workloads, end-to-end metrics in host time and in exact simulated
time, per-layer counts, and a layer-attributed traced run -- all measured
from outside ``src/``.  See ``vrbench/README.md``.

Run as ``python -m vrbench`` from the repository root.  The program under
test is imported from ``src/`` beside this package; it is put on
``sys.path`` here so the command needs no ``PYTHONPATH``.
"""

import functools
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent
RESULTS = ROOT / "results"

_SRC = ROOT.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


@functools.cache
def spec() -> dict:
    """``BENCHMARK.json``: the names, units and bounds the command prints."""
    return json.loads((ROOT.parent / "BENCHMARK.json").read_text())
