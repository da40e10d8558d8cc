"""Correctness harnesses for the TDB reproduction.

Three seeded harnesses on one spine (:mod:`repro.testing.spine`: the
variant a leg runs under, the scenario, the trial report, the read-back
oracle):

* :mod:`repro.testing.adversary` — mutation engine enforcing the
  detect-or-correct oracle over every attack class of §2/§4.8;
* :mod:`repro.testing.differential` — model-based differential testing of
  the chunk store against :mod:`repro.testing.model`, with seed replay and
  prefix shrinking;
* :mod:`repro.testing.faultsweep` — seeded transient/permanent I/O fault
  sweep enforcing the succeed-or-typed-error-or-healable-quarantine
  invariant (and its crash-under-faults composition);

and :mod:`repro.testing.sweep`, the shared discover-then-replay loop over
crash (and tamper) injection points.

Run from the command line via ``python -m repro.testing`` (see
``docs/TESTING.md`` and the ``adversary`` / ``differential`` /
``fault-sweep`` Makefile targets).
"""

from repro.testing.adversary import (
    DETECTED,
    HARMLESS,
    Adversary,
    apply_random_mutation,
)
from repro.testing.differential import (
    AGREED,
    DIVERGED,
    DiffFailure,
    DifferentialRunner,
    Op,
    op_value,
)
from repro.testing.faultsweep import (
    FAILSTOP,
    HEALED,
    OK,
    QUARANTINED,
    TYPED,
    FaultSweep,
    fault_config,
)
from repro.testing.model import ReferenceModel, diff_states, observe_store
from repro.testing.snapshot import PlatformSnapshot
from repro.testing.spine import (
    FOREIGN_ERROR,
    SILENT_CORRUPTION,
    Scenario,
    SweepResult,
    TrialReport,
    Variant,
    build_scenario,
    read_back,
)
from repro.testing.sweep import SweepDriver, SweepSite, sample_sites

__all__ = [
    "Variant",
    "Scenario",
    "build_scenario",
    "TrialReport",
    "SweepResult",
    "read_back",
    "SILENT_CORRUPTION",
    "FOREIGN_ERROR",
    "Adversary",
    "apply_random_mutation",
    "HARMLESS",
    "DETECTED",
    "DifferentialRunner",
    "DiffFailure",
    "Op",
    "op_value",
    "AGREED",
    "DIVERGED",
    "FaultSweep",
    "fault_config",
    "OK",
    "TYPED",
    "HEALED",
    "QUARANTINED",
    "FAILSTOP",
    "ReferenceModel",
    "observe_store",
    "diff_states",
    "PlatformSnapshot",
    "SweepDriver",
    "SweepSite",
    "sample_sites",
]
