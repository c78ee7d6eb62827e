"""Adaptive failure detection and retry pacing (beyond the paper).

Section 4.1 hand-waves liveness: "a manager should use a fairly long
timeout while it waits to hear from all cohorts ... an underling should
use a fairly long timeout before it becomes a manager".  Fixed "fairly
long" timeouts are exactly what makes the protocol fragile on lossy
links: a single dropped invite stalls a view change for the whole static
timeout, and symmetric timeouts let competing managers mint competing
viewids in lockstep.  This package replaces the constants with live
estimates:

- :class:`RttEstimator` -- Jacobson/Karels SRTT/RTTVAR round-trip
  estimation, fed by "I'm alive" heartbeat timestamps and call round
  trips;
- :class:`AdaptiveTimeouts` -- derives the protocol's operational
  timeouts (``call_timeout``, ``prepare_timeout``,
  ``commit_retry_interval``) from the live RTO, clamped so they never
  exceed the paper-faithful fixed values;
- :class:`FailureDetector` -- accrual-style per-peer suspicion from the
  observed heartbeat arrival process, replacing the fixed
  ``suspect_timeout``;
- :class:`Retry` / :class:`ViewChangeWaits` -- the schedule every retry
  path holds, drawing from a seeded-jitter :class:`Backoff` in adaptive
  mode so that competing retriers desynchronize instead of livelocking;
- :class:`~repro.detect.liveness.Liveness` -- a cohort's "I'm alive"
  protocol (section 4), the one owner of what counts as evidence of life.
  It hosts a :class:`~repro.core.cohort.Cohort`, so it is imported from its
  module, which imports ``repro.core``; the package itself does not.

Everything is driven by the simulator's seeded RNG and the simulated
clock, so runs stay byte-for-byte reproducible for a given seed.  Setting
``ProtocolConfig.adaptive_timeouts = False`` restores the paper-faithful
fixed-constant behaviour (used by the E16 baseline and the ablations); this
package is the only reader of that switch (DESIGN.md D21).
"""

from repro.detect.backoff import Backoff, Retry, ViewChangeWaits
from repro.detect.rtt import AdaptiveTimeouts, RttEstimator
from repro.detect.suspicion import FailureDetector

__all__ = [
    "AdaptiveTimeouts",
    "Backoff",
    "FailureDetector",
    "Retry",
    "RttEstimator",
    "ViewChangeWaits",
]
