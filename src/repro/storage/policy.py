"""Section 4.2's stable-storage policies but MINIMAL, as one cohort
extension (DESIGN.md D8): what is written to stable storage beyond the
paper's four fields, when, and what recovery reads back.  The image a
policy writes is ``Cohort.gstate_record``, the full newview record, and
recovery installs it with the newview installer, ``Cohort.install_gstate``.
"""

from __future__ import annotations

from repro.core.extension import Extension, wrap
from repro.sim.future import all_done
from repro.storage.stable import StableStoragePolicy


class StablePolicy(Extension):
    def __init__(self, cohort, policy: StableStoragePolicy) -> None:
        super().__init__(cohort)
        if policy is StableStoragePolicy.LOG:
            wrap(cohort, "force_to", self._force_with_log)
        elif policy is StableStoragePolicy.PRIMARY_GSTATE:
            wrap(cohort, "add_record", self._then_write_image)
        else:  # ALL: every record a cohort adds or applies
            wrap(cohort, "_record_bookkeeping", self._then_write_image)

    def _then_write_image(self, step, *args, **kwargs):
        result = step(*args, **kwargs)
        cohort = self.cohort
        cohort.stable.write_immediate("gstate", cohort.gstate_record(cohort.cur_view))
        return result

    def _force_with_log(self, force_to, viewstamp):
        """The conventional system's force: the image ``reset`` installs
        is written, at disk latency, before the force completes."""
        replica_force = force_to(viewstamp)
        cohort = self.cohort
        stable_force = cohort.stable.write("gstate", cohort.gstate_record(cohort.cur_view))
        return all_done(replica_force, stable_force, label=("force+stable:", viewstamp))

    def reset(self) -> None:
        image = self.cohort.stable.read("gstate")
        if image is not None:
            self.cohort.install_gstate(image)
            self.cohort.up_to_date = True
