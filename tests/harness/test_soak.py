"""The chaos soak as a gate: reads armed under the storm, twice, faults firing."""

from repro.gate import PAPER, Gate, _chaos, run_gate


def test_short_soak_passes_and_is_deterministic(capsys):
    assert run_gate("soak", Gate(11, 600, (PAPER, _chaos("reads")))) == []
    storm = capsys.readouterr().out.splitlines()[1]
    metrics = dict(item.split("=", 1) for item in storm.split()[2:] if "=" in item)
    assert int(metrics["committed"]) == 600 and int(metrics["reads_ok"]) > 0
    assert int(metrics["view_changes"]) > 0 and int(metrics["faults"]) >= 10
