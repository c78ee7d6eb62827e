"""API hygiene: importing the package, and checking a run's invariants, must
need nothing beyond the standard library."""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"


def _no_heavy(step):
    return (
        "heavy = sorted({'networkx', 'hypothesis', 'pytest'} & set(sys.modules)); "
        f"sys.exit('{step} pulled in: ' + ', '.join(heavy) if heavy else 0)"
    )


#: The CI ``docs-drift`` job runs the same lines where none of them is installed.
IMPORT_CHECK = "import sys, repro; " + _no_heavy("import repro")

#: One kv transaction on a 3-cohort group, then the one-copy serializability
#: and convergence checks every vrbench pass, gate row and chaos test runs.
CHECK_PATH = (
    "import sys\n"
    "from repro import EmptyModule, Runtime\n"
    "from repro.workloads.kv import KVStoreSpec, update_program\n"
    "rt = Runtime(seed=1)\n"
    "spec = KVStoreSpec(n_keys=4)\n"
    "rt.create_group('kv', spec, n_cohorts=3)\n"
    "clients = rt.create_group('clients', EmptyModule(), n_cohorts=3)\n"
    "clients.register_program('update', update_program)\n"
    "outcome = rt.create_driver('driver').call('clients', 'update', 'kv', spec.key(0))\n"
    "rt.run_for(500)\n"
    "assert outcome.result()[0] == 'committed', outcome.result()\n"
    "rt.check_invariants()\n"
    + _no_heavy("rt.check_invariants()")
)


def _run(code):
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )


def test_import_repro_is_stdlib_only():
    """Every process start pays for what ``import repro`` imports."""
    done = _run(IMPORT_CHECK)
    assert done.returncode == 0, done.stderr


def test_check_invariants_is_stdlib_only():
    """The serializability checker's graph is two dicts: the post-run check
    imports no graph library (which once set every workload's peak RSS)."""
    done = _run(CHECK_PATH)
    assert done.returncode == 0, done.stderr
