"""The docs-drift check behind every ``python -m repro.<subsystem> check-docs``.

A subsystem names its vocabulary -- config knobs, trace event kinds, wire
terms, command lines -- as a table of ``category -> names``; its doc must
mention each name as a whole identifier: ``gossip_fanout`` does not
document ``gossip``.
"""

from __future__ import annotations

import argparse
import re
import sys
from typing import Callable, List, Mapping, Optional, Sequence


def mentions(text: str, name: str) -> bool:
    """Whether *text* contains *name* with no identifier character
    (``[A-Za-z0-9_]``) directly on either side."""
    return (
        re.search(rf"(?<![A-Za-z0-9_]){re.escape(name)}(?![A-Za-z0-9_])", text)
        is not None
    )


def check_docs(
    doc: str,
    required: Mapping[str, Sequence[str]],
    also: Optional[Callable[[str], List[str]]] = None,
) -> int:
    """Exit status of one docs-drift gate over the file *doc*: 2 if it
    cannot be read, 1 (naming each gap on stderr) if a required name is
    missing, else 0.  *also* maps the doc's text to further gaps, for the
    checks that are not a name lookup."""
    try:
        with open(doc, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as error:
        print(f"cannot read {doc}: {error}", file=sys.stderr)
        return 2
    missing = [
        f"{category} {name!r}"
        for category, names in required.items()
        for name in names
        if not mentions(text, name)
    ]
    if also is not None:
        missing += also(text)
    if missing:
        print(
            f"{doc} is missing documentation for: {', '.join(missing)}",
            file=sys.stderr,
        )
        return 1
    counts = ", ".join(
        f"{len(names)} x {category}" for category, names in required.items()
    )
    print(
        f"{doc} documents all {sum(map(len, required.values()))} required names "
        f"({counts})"
    )
    return 0


def main(prog: str, required: Mapping[str, Sequence[str]], argv=None) -> int:
    """``python -m <prog> check-docs DOC`` for a subsystem whose command
    line is nothing but its docs-drift gate."""
    parser = argparse.ArgumentParser(prog=f"python -m {prog}")
    sub = parser.add_subparsers(dest="command", required=True)
    check = sub.add_parser(
        "check-docs", help="fail unless DOC names the subsystem's whole vocabulary"
    )
    check.add_argument("doc")
    return check_docs(parser.parse_args(argv).doc, required)
