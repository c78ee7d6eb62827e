"""Determinism of the read serving path: same seed, same condition must
replay byte-for-byte, and every serving configuration (reads disabled,
leases, backup reads, client cache) must leave the committed state with
an identical digest -- the property ``python -m repro.gate reads`` checks
at full size, here at small parameters for the tier-1 suite."""

from repro.gate import GATES
from repro.harness.experiments_reads import E19_CONDITIONS, reads_run


def test_same_seed_same_condition_replays_identically():
    first = reads_run(5, "leases", n_keys=8, duration=150.0, rate=0.4)
    second = reads_run(5, "leases", n_keys=8, duration=150.0, rate=0.4)
    assert first == second


def test_all_serving_configs_commit_identical_state():
    runs = {
        label: run(6, 8)
        for label, run, _relations in GATES["reads"].rows
        if label in E19_CONDITIONS
    }
    assert set(runs) == set(E19_CONDITIONS)
    digests = {run.state for run in runs.values()}
    assert len(digests) == 1, "serving configs diverged: " + ", ".join(
        f"{label}={run.state[:12]}" for label, run in sorted(runs.items())
    )
    assert all(run.complete for run in runs.values())
    # each path answered the reads it was asked to
    assert {label: set(run.metrics["read_modes"]) for label, run in runs.items()} == {
        "baseline": {"txn"},
        "leases": {"lease"},
        "backup": {"backup"},
        "cache": {"cache", "lease"},
    }
