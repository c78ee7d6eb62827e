"""The conventional non-replicated transaction system (section 3.7).

"There is a one-to-one correspondence between event records and
information written to stable storage by a conventional transaction system
and therefore our system works because a conventional one does.  The
completed-call records are equivalent to the data records that must be
forced to stable storage before preparing, and the commit and abort
records are the same as their stable storage counterparts."

We exploit that correspondence directly: the unreplicated baseline *is* the
viewstamped system with a single cohort per group under
``StableStoragePolicy.LOG`` -- every force (before a prepare accept, at the
coordinator's commit point, before a commit ack) blocks on a stable-storage
write instead of on backup acknowledgments.  Identical code paths, so latency and message
comparisons (experiments E1, E3, E13) measure exactly the replication
delta the paper argues about.
"""

from __future__ import annotations

from repro.app.module import EmptyModule
from repro.config import ProtocolConfig
from repro.runtime import Runtime
from repro.storage.stable import StableStoragePolicy


def build_unreplicated_system(
    spec,
    seed: int = 0,
    stable_write_latency: float = 5.0,
    link=None,
    server_group: str = "server",
    client_group: str = "clients",
):
    """Runtime with an unreplicated server, client group, and driver.

    Returns (runtime, server_group, client_group, driver).
    """
    config = ProtocolConfig(
        storage_policy=StableStoragePolicy.LOG, stable_write_latency=stable_write_latency
    )
    kwargs = {"config": config}
    if link is not None:
        kwargs["link"] = link
    rt = Runtime(seed=seed, **kwargs)
    server = rt.create_group(server_group, spec, n_cohorts=1)
    clients = rt.create_group(client_group, EmptyModule(), n_cohorts=1)
    driver = rt.create_driver("driver")
    return rt, server, clients, driver
