"""One owner for "I'm alive" (DESIGN.md D14, D19): what counts as evidence
of life is decided in ``repro.detect`` alone -- the cohort's
``Liveness`` and the estimators it feeds.  Outside that package no module
stores a peer's ``last_heard``, stamps ``sent_at`` on a protocol message (an
attribute store or a ``sent_at=`` keyword) or reads the detector's suspect
query (``is_suspect``, or the cohort's former ``_is_suspect``): other
modules ask ``Liveness.suspects``.  The network's envelope stamp, which
times a delivery and is no evidence of life, is the one listed exception."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
OWNER = "detect/"
STORED = {"last_heard", "sent_at"}
SUSPECT_QUERY = {"is_suspect", "_is_suspect"}
#: (file, attribute) stores allowed outside the owner
EXCEPTIONS = {("net/network.py", "envelope.sent_at")}


def violations(path: str, source: str):
    """What *source* (the module at *path*, relative to ``src/repro``) does
    that only the owner may do, one entry per site."""
    if path.startswith(OWNER):
        return []
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            expression = ast.unparse(node)
            if isinstance(node.ctx, ast.Store) and node.attr in STORED:
                if (path, expression) not in EXCEPTIONS:
                    found.append(f"{path}:{node.lineno} stores {expression}")
            elif isinstance(node.ctx, ast.Load) and node.attr in SUSPECT_QUERY:
                found.append(f"{path}:{node.lineno} reads {expression}")
        elif isinstance(node, ast.keyword) and node.arg == "sent_at":
            found.append(f"{path}:{node.lineno} passes sent_at=")
    return found


def _tree():
    return [
        (str(path.relative_to(SRC)), path.read_text()) for path in sorted(SRC.rglob("*.py"))
    ]


def test_only_repro_detect_decides_what_is_evidence_of_life():
    assert [v for path, source in _tree() for v in violations(path, source)] == []


def test_the_listed_exception_is_still_there():
    """An exception that no longer matches anything would hide a new site."""
    sources = dict(_tree())
    for path, expression in EXCEPTIONS:
        stores = {
            ast.unparse(node)
            for node in ast.walk(ast.parse(sources[path]))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        }
        assert expression in stores


def test_the_owner_does_each_of_these_things():
    """The rule reads the names the owner really uses."""
    owner = [(path, source) for path, source in _tree() if path.startswith(OWNER)]
    text = "\n".join(source for _path, source in owner)
    assert "message.sent_at = " in text
    assert "peer.last_heard = " in text
    assert "sent_at=cohort.sim.now" in text
    assert "self.detect.is_suspect(" in text


@pytest.mark.parametrize(
    "planted",
    [
        "message.sent_at = cohort.sim.now",
        "ack.sent_at = stamped = 0.0",
        "cohort.liveness.detect.peers[0].last_heard = cohort.sim.now",
        "cohort.send(address, m.BufferAckMsg(viewid=None, acked_ts=0, mid=0, sent_at=0.0))",
        "return cohort.liveness.detect.is_suspect(0)",
        "return cohort._is_suspect(0)",
    ],
)
def test_a_planted_stamp_in_the_batching_extension_is_caught(planted):
    path = "core/batching.py"
    source = dict(_tree())[path]
    assert violations(path, source) == []
    planted_source = source + f"\n\ndef _planted(cohort, message, ack, address):\n    {planted}\n"
    (found,) = violations(path, planted_source)
    assert found.startswith(f"{path}:")
