"""The viewstamped replication protocol (the paper's contribution).

Layout mirrors the paper:

- :mod:`repro.core.viewstamp` -- viewids, viewstamps, histories (section 2)
- :mod:`repro.core.events`, :mod:`repro.core.buffer` -- event records and
  the communication buffer (sections 2-3)
- :mod:`repro.core.cohort` -- the cohort state machine (Figures 1, 4)
- :mod:`repro.core.client_role` -- Figure 2 (client primaries, 2PC)
- :mod:`repro.core.server_role` -- Figure 3 (server primaries)
- :mod:`repro.core.view_change` -- Figure 5 (the view change algorithm)
- :mod:`repro.core.quorum` -- who counts toward which quorum (sections 3, 4)
- :mod:`repro.core.group` -- module-group wiring
- :mod:`repro.core.coordinator_server` -- section 3.5
"""

from repro.core.buffer import CommunicationBuffer, ForceAbandoned
from repro.core.cache import ClientCache
from repro.core.calls import CallAborted, RemoteCaller
from repro.core.cohort import Cohort, Status
from repro.core.group import ModuleGroup
from repro.core.quorum import Quorums, majority, sub_majority
from repro.core.view import View
from repro.core.viewstamp import History, ViewId, Viewstamp, compatible, vs_max

__all__ = [
    "CallAborted",
    "ClientCache",
    "Cohort",
    "CommunicationBuffer",
    "ForceAbandoned",
    "History",
    "ModuleGroup",
    "Quorums",
    "RemoteCaller",
    "Status",
    "View",
    "ViewId",
    "Viewstamp",
    "compatible",
    "majority",
    "sub_majority",
    "vs_max",
]
