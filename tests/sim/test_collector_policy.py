"""The kernel's one collector policy (``repro.sim.kernel._relax_collector``).

The policy is process-wide, so each case runs in a fresh interpreter.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

from repro.sim.kernel import GC_GEN0_THRESHOLD

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

REPORT = "print(json.dumps([gc.isenabled(), list(gc.get_threshold())]))"


def _fresh_interpreter(body: str):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", f"import gc, json\n{body}\n{REPORT}"],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def test_constructing_a_simulator_raises_the_gen0_threshold_only():
    default = _fresh_interpreter("")
    enabled, threshold = _fresh_interpreter(
        "from repro.sim.kernel import Simulator\nSimulator()"
    )
    assert enabled
    assert default[1][0] < GC_GEN0_THRESHOLD
    assert threshold == [GC_GEN0_THRESHOLD] + default[1][1:]


def test_importing_the_package_changes_nothing():
    assert _fresh_interpreter("import repro, repro.sim.kernel") == _fresh_interpreter("")


def test_a_larger_threshold_is_kept():
    larger = GC_GEN0_THRESHOLD * 4
    enabled, threshold = _fresh_interpreter(
        f"gc.set_threshold({larger}, 7, 3)\n"
        "from repro.sim.kernel import Simulator\nSimulator()"
    )
    assert enabled
    assert threshold == [larger, 7, 3]


def test_a_disabled_collector_is_left_disabled():
    enabled, _threshold = _fresh_interpreter(
        "gc.disable()\nfrom repro.sim.kernel import Simulator\nSimulator()"
    )
    assert not enabled


def test_a_zero_threshold_is_left_at_zero():
    _enabled, threshold = _fresh_interpreter(
        "gc.set_threshold(0)\nfrom repro.sim.kernel import Simulator\nSimulator()"
    )
    assert threshold[0] == 0


def test_the_policy_is_the_only_threshold_setter_in_src():
    hits = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        for line in path.read_text().splitlines()
        if "set_threshold" in line
    ]
    assert hits == ["repro/sim/kernel.py"]
