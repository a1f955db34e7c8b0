"""repro.faults — deterministic chaos engine for the LOTEC stack.

The protocol of the paper is specified for a well-behaved cluster; this
package generates adverse schedules *deterministically* so the
correctness story extends from "clean runs pass" to "adversarial runs
pass".  Three fault classes are modelled:

* **message faults** — loss, duplication, and delay jitter, injected
  per message at the network layer and recovered by per-request
  timeouts with retransmission (:mod:`repro.net.network`);
* **node crash/recovery** — scheduled fail-stop windows that abort
  in-flight transaction families, reclaim their GDO entries, and
  invalidate holder-list caches (:mod:`repro.faults.crash`); each node
  keeps a durable record (:mod:`repro.faults.wal`) replayed on rejoin,
  and a crashed GDO home's entries fail over to a deterministic
  successor (:mod:`repro.faults.recovery`);
* **partitions and slow nodes** — node-set bipartitions with heal
  times (cross-cut messages are lost until the heal) and degraded
  nodes paying a fixed per-message service-latency surcharge;
* **lock-wait timeouts** — bounded waits that escalate to
  abort-and-retry with capped, seeded exponential backoff
  (:mod:`repro.util.backoff`, shared by the executor retry loop, the
  network retransmission timers, and the failover reroute path).

Everything derives from one :class:`FaultPlan` plus the cluster seed:
the same seed and plan produce the identical fault schedule and the
identical trace, and the default :data:`NULL_INJECTOR` makes a run
byte-identical to one without this package.
"""

from repro.faults.crash import CrashController
from repro.faults.injector import (
    NO_FAULTS,
    NULL_INJECTOR,
    FaultInjector,
    FaultStats,
    MessageFaults,
    NullInjector,
)
from repro.faults.plan import (
    FAULT_PRESETS,
    CrashEvent,
    FaultPlan,
    PartitionEvent,
    SlowNodeEvent,
)
from repro.faults.recovery import RecoveryManager
from repro.faults.wal import NULL_WAL, NodeWal, NullWalSet, WalSet

__all__ = [
    "FAULT_PRESETS",
    "NO_FAULTS",
    "NULL_INJECTOR",
    "NULL_WAL",
    "CrashController",
    "CrashEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultStats",
    "MessageFaults",
    "NodeWal",
    "NullInjector",
    "NullWalSet",
    "PartitionEvent",
    "RecoveryManager",
    "SlowNodeEvent",
    "WalSet",
]
