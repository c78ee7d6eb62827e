"""``python -m vrbench``: the benchmark's one command.

With ``--workload`` it measures one workload in this process and prints,
as the last line of standard output, the result object of the benchmark
contract (``--trace 0``: the end-to-end metrics; ``--trace 1``: the
per-layer metrics).  Without it, it runs every workload both ways, each in
a process of its own, and prints every metric by name with its unit.  Any
failed correctness check exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys

from vrbench import suite


def _setup_probe(args) -> int:
    """The process a set-up probe starts: everything before the first timed
    operation, each step a slice on a meter (see ``bench.probe_setup``)."""
    from vrbench import hostspeed

    meter = hostspeed.Meter()
    bench = meter.time(lambda: importlib.import_module("vrbench.bench"))
    workload = bench.resolve(args.workload)
    seed = workload.seed if args.seed is None else args.seed
    bench.setup_only(workload, seed, args.quick, meter)
    print(json.dumps({
        "wall_ns": sum(meter.wall_ns), "ref_ns": sum(meter.reference_wall_ns()),
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m vrbench", description=__doc__)
    parser.add_argument("--workload", help="measure only this workload, in this process")
    parser.add_argument("--seed", type=int, help="override the workload's seed")
    parser.add_argument(
        "--seconds", type=float,
        help="accepted and ignored: a run is 3 timed passes of a fixed operation "
        "count, which take run_seconds of BENCHMARK.json on the reference box",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true",
        help="1/20 of the operations; the suite makes no traced run",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="also replay each workload at 1/10 scale with all trace monitors armed",
    )
    parser.add_argument(
        "--selftest", action="store_true",
        help="run the suite twice and compare; writes results/repeatability.json",
    )
    parser.add_argument(
        "--out", help="without --workload: also write the results document here"
    )
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_only:
        return _setup_probe(args)
    if args.selftest:
        return suite.selftest(out=args.out)
    if args.workload is None:
        return suite.run_and_print(
            quick=args.quick, check=args.check, seed=args.seed, out=args.out
        )

    # Imported here so `--help` works without the program on the path.
    from vrbench import bench

    workload = bench.resolve(args.workload)
    seed = workload.seed if args.seed is None else args.seed
    if args.check:
        bench.replay_with_monitors(workload, seed)
    run = bench.run_per_layer if args.trace else bench.run_end_to_end
    result = run(workload, seed, args.quick)
    detail = result.pop("detail")
    for name, metric in result["metrics"].items():
        print(f"{workload.name} {name} {metric['value']:.6g} {metric['unit']}")
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
