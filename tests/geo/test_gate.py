"""The geo rows of ``repro.gate``."""

from repro.gate import GATES


def test_state_run_is_deterministic_and_placement_invariant():
    rows = {label: run for label, run, _relations in GATES["geo"].rows}
    flat = rows["flat"](77, 8)
    assert flat == rows["flat"](77, 8)  # same seed, same run -- metrics and digests
    assert flat.complete and flat.metrics["committed"] == 8
    # Geography reshapes transport, never the replicated state.
    spread = rows["spread"](77, 8)
    assert spread.complete
    assert spread.state == flat.state
    assert spread.schedule != flat.schedule
