"""``python -m repro.harness [NAME ...]``: make and check the experiment tables.

With no NAME every experiment runs (~2 min); each prints its claim and its
measured table, a pure function of its seeds.  ``--write`` instead replaces
the experiment's fenced block under EXPERIMENTS.md's *Measured tables* (the
file in the current directory; its preamble and verdict summary are edited
by hand), ``--check`` compares against that block and prints a unified diff
when it differs; with no NAME, ``--check`` then holds every doc of
``repro.checkdocs.DOCS`` to its vocabulary and names each gap, and names
each backticked ``Class.attr`` of the prose docs that no ``repro`` class
defines (``checkdocs.dangling``).  In every
mode the experiment's shape check runs (``ExperimentResult.failures``).
Exit status: 0, 1 a block differs, a doc has a gap or names code that is
gone, or a shape check failed, 2 unknown NAME or flag.
"""

from __future__ import annotations

import argparse
import difflib
import re
import sys

from repro import checkdocs
from repro.harness import (
    experiments_ablations as ablations,
    experiments_cohort as cohort,
    experiments_compare as compare,
    experiments_core as core,
    experiments_extensions as extensions,
    experiments_geo as geo,
    experiments_reads as reads,
    experiments_robustness as robustness,
    experiments_scale as scale,
)

#: E14 is the micro-benchmarks: host time, so ``python -m vrbench``'s.
ALL_EXPERIMENTS = {
    "E1": core.e01_call_overhead,
    "E2": core.e02_prepare_wait,
    "E3": core.e03_commit_crossover,
    "E4": core.e04_view_change_cost,
    "E5": compare.e05_vs_voting,
    "E6": compare.e06_availability,
    "E7": compare.e07_viewchange_loss,
    "E8": compare.e08_safety_partitions,
    "E9": compare.e09_vs_isis,
    "E10": extensions.e10_nested,
    "E11": extensions.e11_catastrophe,
    "E12": extensions.e12_unilateral,
    "E13": extensions.e13_end_to_end,
    "E15": ablations.e15_ablations,
    "E16": robustness.e16_liveness,
    "E17": scale.e17_sharding,
    "E18": scale.e18_batching,
    "E19": reads.e19_reads,
    "E20": geo.e20_geo,
    "E21": cohort.e21_cohort_scale,
}

DOC = "EXPERIMENTS.md"


def block_pattern(exp_id: str = r"E\d+") -> re.Pattern:
    """The fenced block of *exp_id* (default: of any experiment) in
    EXPERIMENTS.md; group 1 is the rendered table, group 2 the id."""
    return re.compile(rf"^```\n(== ({exp_id}): .*?)\n```$", re.DOTALL | re.MULTILINE)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "names", nargs="*", metavar="NAME", help=f"from: {', '.join(ALL_EXPERIMENTS)}"
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--write", action="store_true", help=f"replace each table's block in ./{DOC}"
    )
    mode.add_argument(
        "--check", action="store_true", help=f"diff each table against its block in ./{DOC}"
    )
    args = parser.parse_args(argv)
    names = [name.upper() for name in args.names] or list(ALL_EXPERIMENTS)
    unknown = [name for name in names if name not in ALL_EXPERIMENTS]
    if unknown:
        print(
            f"unknown experiment(s) {unknown}; choose from {list(ALL_EXPERIMENTS)}",
            file=sys.stderr,
        )
        return 2
    against_doc = args.write or args.check
    if against_doc:
        with open(DOC, encoding="utf-8") as handle:
            doc = handle.read()
    failures = []
    for name in names:
        result = ALL_EXPERIMENTS[name]()
        table = result.render()
        failures += [f"{name}: {failure}" for failure in result.failures]
        if not result.rows:
            failures.append(f"{name}: produced no rows")
        if not against_doc:
            print(f"{table}\n")
            continue
        pattern = block_pattern(name)
        blocks = pattern.findall(doc)
        if len(blocks) != 1:
            failures.append(f"{name}: {len(blocks)} fenced blocks in {DOC}, not one")
        elif blocks[0][0] == table:
            print(f"{name}: {DOC} is current")
        elif args.write:
            doc = pattern.sub(lambda _: f"```\n{table}\n```", doc)
            print(f"{name}: rewritten")
        else:
            diff = difflib.unified_diff(
                blocks[0][0].splitlines(), table.splitlines(),
                f"{DOC} {name}", f"python -m repro.harness {name}", lineterm="",
            )
            failures.append(f"{name}: {DOC} is stale\n" + "\n".join(diff))
    if args.check and not args.names:
        for path in checkdocs.DOCS:
            gaps = checkdocs.gaps(path)
            if gaps:
                failures.append(f"{path} is missing {', '.join(gaps)}")
            else:
                print(f"{path}: names its whole vocabulary")
        dangling = checkdocs.dangling()
        if dangling:
            failures.append(f"docs name code that is gone: {', '.join(dangling)}")
        else:
            print("docs: every Class.attr they name is defined")
    if args.write:
        with open(DOC, "w", encoding="utf-8") as handle:
            handle.write(doc)
    for failure in failures:
        print(f"harness: FAIL -- {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
