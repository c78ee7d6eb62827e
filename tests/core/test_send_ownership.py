"""One sender (DESIGN.md D7): asking a group for its view is the send loop's
business, so ``probe_view`` is called, and a ``ViewProbeMsg`` built, only in
``repro.core.calls``.  Every other host hands its sends to the ``Sender``."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
OWNED = {"probe_view", "ViewProbeMsg"}


def owned_calls(source: str):
    """Names in :data:`OWNED` that *source* calls (bare or as an attribute)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in OWNED:
                found.add(name)
    return found


def callers(files):
    return {
        str(path.relative_to(SRC)): names
        for path, source in files
        if (names := owned_calls(source))
    }


def _tree():
    return [(path, path.read_text()) for path in sorted(SRC.rglob("*.py"))]


def test_only_the_sender_asks_a_group_for_its_view():
    assert callers(_tree()) == {"core/calls.py": OWNED}


@pytest.mark.parametrize(
    "planted",
    ["probe_view(self, groupid)", "self.send(address, m.ViewProbeMsg(reply_to=self.address))"],
)
def test_a_planted_probe_in_the_driver_is_caught(planted):
    driver = SRC / "driver.py"
    files = [
        (path, source + f"\n\ndef _planted(self, groupid, address):\n    {planted}\n")
        if path == driver
        else (path, source)
        for path, source in _tree()
    ]
    assert "driver.py" in callers(files)
