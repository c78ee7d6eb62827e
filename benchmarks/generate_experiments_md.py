#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md from the archived tables in benchmarks/results/.

Run ``pytest benchmarks/ --benchmark-only`` first to refresh the tables,
then ``python benchmarks/generate_experiments_md.py``.

``--check`` compares instead of writing and exits non-zero when
EXPERIMENTS.md is stale relative to benchmarks/results/ -- CI runs this so
the committed document can never drift from the archived tables.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = ROOT / "benchmarks" / "results"

PREAMBLE = """\
# EXPERIMENTS — paper claims vs. measured results

The PODC '88 paper has no empirical evaluation section ("we will be able to
run experiments about system performance when our implementation is
complete" — section 6), so the experiment set below reproduces **every
quantitative claim** the paper makes, each against the baselines the paper
itself names.  DESIGN.md section 2 maps each experiment to the modules and
bench target that regenerate it; this file records the paper's claim next
to what our implementation measures.

Time units are simulated: the network's one-way LAN delay is 1.0 (+U[0,0.2]
jitter), so a round trip is ~2.2.  Every run is deterministic given its
seed.  Regenerate any table with its bench target, e.g.:

    pytest benchmarks/bench_e01_call_overhead.py --benchmark-only -s

All tables below are verbatim output of `pytest benchmarks/ --benchmark-only`
(archived under `benchmarks/results/`).

## Verdict summary

| Exp | Claim (section) | Reproduced? | Shape observed |
|-----|-----------------|-------------|----------------|
| E1 | calls cost the same as unreplicated (3.7) | yes | latency flat 2.2 across n=1..7, = unreplicated; 2 sync msgs/call |
| E2 | prepares usually need no force wait (3.7) | yes | no wait with think time at any flush interval; at zero think time the wait is jitter, not a round trip (half the prepares wait, 0.03-0.05 on average against a 2.2 round trip; txn latency 11.0-11.1 at every interval, was 11.4-13.1) |
| E3 | replication beats stable storage iff comm < disk (3.7) | yes | crossover exactly at the ~2.2 round trip |
| E4 | 1 round (+1 msg) vs virtual partitions' 3 phases (4.1, 5) | yes | VR O(n) msgs vs VP 4(n-1)+n(n-1); VR 6 vs VP 14 msgs at n=3 |
| E5 | fewer messages than voting for writes (5) | yes | writes: 6.15 vs 8-12 (6.00 before background delivery; the push rides on a transaction's predicted last call only, 7.03 without that prediction); pure reads: read-one voting wins, as the paper concedes |
| E6 | majority availability vs write-all voting (4.2, 5) | yes | hardened VR ≈ majority voting >> write-all; volatile VR shows the 4.2 catastrophe exposure |
| E7 | viewstamps avoid view-change aborts (1, 5, 6) | yes | 0 prepare refusals (completed calls reach a sub-majority in the background) vs 29 under the virtual-partitions rule, at unchanged call latency 2.36 -- what force-on-call buys at ~2x; 108 of 120 commit (86 before: inherited transactions are queried, so no lock outlives its transaction) |
| E8 | no split brain; 1SR (1, 4.1) | yes | 5 seeded partition storms: money conserved, zero 1SR violations |
| E9 | psets stay small; Isis grows unboundedly (5) | yes | VR flat ~133 B/msg; Isis 68 -> 1260 B/msg over 40 txns |
| E10 | subactions retry instead of aborting (3.6) | yes | abort rate 0.25 -> 0.01; extra work only on actual view changes |
| E11 | catastrophe stalls, never corrupts (4.2) | yes | volatile: stalls by design; UPS gstate: recovers with state intact |
| E12 | unilateral edits avoid needless view changes (4.1) | yes | 7 view changes -> 0, absorbed by 7 cheap view-edit records |
| E13 | pair survives one failure; VR generalizes (5, 6) | yes | at 2 failures: vr3 18/60 (stalls, by majority), vr5 58/60, pair 41/60 (dead after) |
| E14 | component microbenchmarks | n/a | see `pytest benchmarks/bench_e14_micro.py --benchmark-only` |
| E15 | ablations: ordered managers halve view-change traffic; detector tuning (4.1) | yes | 7 vs 11 manager rounds, 47 vs 78 messages for the same 4 useful view changes |
| E16 | liveness under lossy networks: adaptive detection vs fixed timeouts (beyond the paper) | n/a (extension) | LOSSY: adaptive converges faster (mean 19.8 vs 22.9, worst 84 vs 89) at equal availability 0.93; storms: avail 0.82 vs 0.82 on these two seeds; eight-seed means 0.92 / 0.92 and 0.83 / 0.82 (0.89 / 0.89 and 0.79 / 0.79 before inherited transactions were queried: the prober's keys no longer stay locked) |
| E17 | transactions span many groups; each participant validates its own viewstamps (3.3) | yes | clean speedup 1.0/1.9/3.0/5.8 at 1/2/4/8 shards; a single-shard view change aborts only shard-touching txns (elsewhere 0 at 2-4 shards; 1-7 aborts per row, 0-18 before) |
| E18 | buffer batching: speedy delivery vs small numbers of messages (3.7) | yes | batching cuts msgs/txn 20.3 -> 11.4-13.1 (clean/viewchange), 28.1 -> 21.3 (lossy, 64-record batches; 8-record stop-and-wait 25.3); the unbatched rows send each record once and push completed calls (+0.8 msgs/txn at 16 clients; the lossy cell's +3.1 is this seed's two retries and a longer quiesce, six-seed means 4887 -> 4846 messages), the batched rows are byte-identical to before; state digest byte-identical to unbatched on every schedule |
| E19 | read serving path: leases, backup reads, client caches (beyond the paper; 3.7 prices reads as calls) | n/a (extension) | 90%-read zipfian open loop: leased reads 4.2x mean / 6.3x p99 faster than the full call path (which itself got 7% faster: 10.05 -> 9.33), cache 8.9x mean; backup staleness <= one heartbeat; state digest byte-identical across all serving configs (`python -m repro.gate reads`) |
| E20 | geo-replication: placement, cross-region failover, region faults (beyond the paper; 1 and 4.1 assume partitions and cofailing links) | n/a (extension) | one-shard-per-DC commits 3.2x faster than spread placement (26.5 vs 84.2); every placement's cross-region failover meets the 525 adaptive-timeout bound; a partitioned region's leased reads stop 13.6 after the cut, long before the majority's new primary commits (+316.6 on this seed: a driver retry was in flight at the cut); state digest byte-identical to the flat network (`python -m repro.gate geo`) |
| E21 | cohort scaling: gossip heartbeats, ack trees, witness replicas (beyond the paper; 2 sizes groups at "three or five") | n/a (extension) | all-on cuts primary msgs/interval 9.6x at n=100 (231.2 -> 24.1, mean load 198.8 -> 6.8) with failover 50 -> 70; every cell n=5..100 commits its full load and re-forms after a primary crash; `scale=None` and all-off byte-identical schedules, armed states byte-identical to baseline (`python -m repro.gate scale`) |

Notes on calibration: absolute numbers depend on the simulated link and
timeout parameters (see `repro/config.py`); the claims are about *shape* —
who wins, by what factor, where crossovers sit — and every shape above
matches the paper's argument.  Known deviations from the paper's text are
documented in DESIGN.md ("Key design decisions" and the per-system
substitution notes).

---

# Measured tables
"""


def render() -> str:
    sections = [PREAMBLE]
    for index in list(range(1, 14)) + [15, 16, 17, 18, 19, 20, 21]:
        path = RESULTS / f"e{index}.txt"
        if not path.exists():
            sections.append(f"\n## E{index}\n\n(missing: run the bench first)\n")
            continue
        body = path.read_text().rstrip()
        sections.append(f"\n```\n{body}\n```\n")
    return "\n".join(sections)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 if EXPERIMENTS.md is stale instead of rewriting it",
    )
    args = parser.parse_args(argv)
    out = ROOT / "EXPERIMENTS.md"
    content = render()
    if args.check:
        current = out.read_text() if out.exists() else ""
        if current != content:
            print(
                f"{out} is stale relative to {RESULTS}/; regenerate with "
                "`python benchmarks/generate_experiments_md.py`",
                file=sys.stderr,
            )
            return 1
        print(f"{out} is up to date")
        return 0
    out.write_text(content)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
