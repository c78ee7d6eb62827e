"""API hygiene: importing the package, and checking a run's invariants, must
need nothing beyond the standard library -- and map no OpenSSL, which only
``hashlib`` would load and which no run uses (DESIGN.md D31)."""

import ast
import importlib.util
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"

#: ``repro.sim.rng`` takes sha256 from CPython's built-in module; only a
#: build with neither ``_sha2`` (3.12+) nor ``_sha256`` (3.11) falls back to
#: ``hashlib``, and there the OpenSSL checks are left out.
BUILTIN_SHA2 = any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256"))
OPENSSL_MODULES = ("hashlib", "_hashlib", "ssl") if BUILTIN_SHA2 else ()


def _no_heavy(step):
    heavy = sorted({"networkx", "hypothesis", "pytest", *OPENSSL_MODULES})
    return (
        f"heavy = sorted(set({heavy!r}) & set(sys.modules))\n"
        f"if {bool(OPENSSL_MODULES)} and sys.platform == 'linux':\n"
        "    with open('/proc/self/maps') as maps:\n"
        "        heavy += sorted({line.split()[-1] for line in maps\n"
        "                         if 'libcrypto' in line or 'libssl' in line})\n"
        f"sys.exit('{step} pulled in: ' + ', '.join(heavy) if heavy else 0)\n"
    )


#: The CI ``docs-drift`` job runs the same lines where none of them is installed.
IMPORT_CHECK = "import sys, repro\n" + _no_heavy("import repro")

#: One kv transaction on a 3-cohort group, then the one-copy serializability
#: and convergence checks every vrbench pass, gate row and chaos test runs,
#: both digests, and a forked stream.
CHECK_PATH = (
    "import sys\n"
    "from repro import EmptyModule, Runtime\n"
    "from repro.perf.report import ledger_digest, state_digest\n"
    "from repro.sim.rng import SeededRng\n"
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
    "ledger_digest(rt), state_digest(rt)\n"
    "SeededRng(1).fork('net').random()\n"
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
    imports no graph library (which once set every workload's peak RSS), and
    the digests hash without OpenSSL."""
    done = _run(CHECK_PATH)
    assert done.returncode == 0, done.stderr


def _hashlib_imports():
    """``(module path, inside an except handler)`` for every import of
    ``hashlib`` under ``src/repro``."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        handled = {
            id(node)
            for handler in ast.walk(tree)
            if isinstance(handler, ast.ExceptHandler)
            for node in ast.walk(handler)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "hashlib" for name in names):
                found.append((path.relative_to(SRC).as_posix(), id(node) in handled))
    return found


def test_hashlib_is_only_the_rng_fallback():
    """One owner of sha256: ``repro.sim.rng`` imports ``hashlib`` only where
    neither built-in SHA-2 module exists, and nothing else imports it."""
    assert _hashlib_imports() == [("sim/rng.py", True)]
