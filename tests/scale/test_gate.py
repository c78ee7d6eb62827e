"""The scale rows of ``repro.gate``."""

from repro.config import ProtocolConfig, ScaleConfig
from repro.gate import state_run
from repro.harness.common import build_kv_system


def _run(scale):
    system = build_kv_system(
        seed=77, n_cohorts=5, n_keys=8, kv_config=ProtocolConfig(scale=scale)
    )
    return state_run(system, settle=200.0, quiesce=100.0)


def test_state_run_is_deterministic_and_mechanism_invariant():
    baseline = _run(None)
    assert baseline == _run(None)  # same seed, same run -- metrics and digests
    assert baseline.complete and baseline.metrics["committed"] == 8
    # All-off is byte-identical DOWN TO THE SCHEDULE (ledger digest)...
    assert _run(ScaleConfig()) == baseline
    # ...while armed mechanisms move messages but never change the state.
    armed = _run(ScaleConfig(gossip=True, ack_tree=True, witnesses=1))
    assert armed.complete
    assert armed.state == baseline.state
    assert armed.schedule != baseline.schedule  # gossip genuinely reshapes it
