"""``pytest vrbench/tests`` from the repository root (not collected by the
repo's tier-1 run, whose ``testpaths`` is ``tests``)."""

import pathlib
import sys

_ROOT = pathlib.Path(__file__).resolve().parents[2]
if str(_ROOT) not in sys.path:
    sys.path.insert(0, str(_ROOT))
