"""repro.check — deterministic concurrency testing for the protocol.

Four pieces, layered on the :mod:`repro.obs` trace stream and the
:mod:`repro.sim.tiebreak` schedule-exploration hook:

* :mod:`repro.check.reference` — an executable nested-O2PL reference
  model (pure-python lock table with Moss retention/inheritance), the
  one judge of the paper's lock rules at every grant in a trace;
* :mod:`repro.check.invariants` — trace invariant checkers for what no
  lock table reads: page-version monotonicity, commit-order
  consistency, and heal-aware liveness;
* :mod:`repro.check.explorer` — :func:`judge`, the one verdict on a
  finished run (the serial-replay oracle, the reference model and
  the invariant checkers), and one seed, one reproducible perturbed
  schedule: :class:`FuzzTask` / :func:`run_task` / :func:`minimize`;
* :mod:`repro.check.fuzz` — campaigns over seeds x protocols x fault
  presets with failure minimization and trace artifacts
  (the ``repro fuzz`` CLI).
"""

from repro.check.events import TxnRef, Violation, parse_object, parse_txn
from repro.check.explorer import (
    DEFAULT_POLICIES,
    FuzzReport,
    FuzzTask,
    Verdict,
    judge,
    minimize,
    repro_command,
    run_task,
)
from repro.check.fuzz import (
    ALL_PROTOCOLS,
    CampaignResult,
    Failure,
    run_campaign,
    trace_to_jsonl,
)
from repro.check.invariants import (
    check_commit_order,
    check_liveness,
    check_page_version_monotonic,
    run_invariants,
)
from repro.check.reference import ReferenceModel, check_reference_model

__all__ = [
    "ALL_PROTOCOLS",
    "CampaignResult",
    "DEFAULT_POLICIES",
    "Failure",
    "FuzzReport",
    "FuzzTask",
    "ReferenceModel",
    "TxnRef",
    "Verdict",
    "Violation",
    "check_commit_order",
    "check_liveness",
    "check_page_version_monotonic",
    "check_reference_model",
    "judge",
    "minimize",
    "parse_object",
    "parse_txn",
    "repro_command",
    "run_campaign",
    "run_invariants",
    "run_task",
    "trace_to_jsonl",
]
