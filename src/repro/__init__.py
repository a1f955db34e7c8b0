"""repro — a reproduction of LOTEC (Graham & Sui, PODC 1999).

A software DSM consistency protocol for closed nested object
transactions, together with the full substrate the paper depends on:
a discrete-event simulated cluster, a parameterized network, paged
object memory with compile-time access analysis, a partitioned Global
Directory of Objects, nested object two-phase locking, and the
COTEC / OTEC / LOTEC protocol suite (plus the announced nested-object
Release Consistency extension).

Quick start::

    from repro import Attr, Cluster, ClusterConfig, method, shared_class

    @shared_class
    class Counter:
        value = Attr(size=8, default=0)

        @method
        def add(self, ctx, amount):
            self.value += amount

    cluster = Cluster(ClusterConfig(num_nodes=4, protocol="lotec"))
    counter = cluster.create(Counter)
    cluster.call(counter, "add", 3)
    assert cluster.read_attr(counter, "value") == 3

The same cluster can run over real localhost TCP sockets instead of
the virtual clock — pass ``transport="tcp"`` to :class:`ClusterConfig`;
see :class:`Transport` / :class:`SimTransport` / :class:`TcpTransport`.
"""

import importlib

from repro.faults import FAULT_PRESETS, CrashEvent, FaultPlan
from repro.net import SimTransport, Transport
from repro.net.network_config import NetworkConfig
from repro.obs import MetricsRegistry, NullTracer, TraceEvent, Tracer
from repro.net.presets import (
    ETHERNET_10M,
    FAST_ETHERNET_100M,
    GIGABIT_1G,
    SOFTWARE_COSTS,
    preset_network,
)
from repro.objects.schema import Array, Attr, method, shared_class
from repro.runtime.cluster import Cluster, TxnTicket
from repro.runtime.config import ClusterConfig
from repro.runtime.record import run_record
from repro.runtime.verify import (
    check_serializability,
    replay_serially,
)
from repro.util.errors import (
    ConfigurationError,
    DeadlockError,
    LockTimeoutError,
    NodeCrashError,
    ProtocolError,
    RecursiveInvocationError,
    ReproError,
    TransactionAborted,
)
from repro.check import (
    FuzzTask,
    check_reference_model,
    run_campaign,
    run_invariants,
    run_task,
)

__all__ = [
    "Array",
    "Attr",
    "Cluster",
    "ClusterConfig",
    "ConfigurationError",
    "CrashEvent",
    "DeadlockError",
    "ETHERNET_10M",
    "ExperimentResult",
    "FAULT_PRESETS",
    "FaultPlan",
    "FuzzTask",
    "LockTimeoutError",
    "NodeCrashError",
    "FAST_ETHERNET_100M",
    "GIGABIT_1G",
    "MetricsRegistry",
    "NetworkConfig",
    "NullTracer",
    "ProtocolError",
    "RecursiveInvocationError",
    "ReproError",
    "SOFTWARE_COSTS",
    "SimTransport",
    "TcpTransport",
    "TraceEvent",
    "Tracer",
    "Transport",
    "TransactionAborted",
    "TxnTicket",
    "check_serializability",
    "check_reference_model",
    "method",
    "preset_network",
    "replay_serially",
    "run_campaign",
    "run_experiment",
    "run_invariants",
    "run_record",
    "run_task",
    "shared_class",
    "__version__",
]


#: Names that load on first access, with the module that defines them:
#: ``import repro`` loads the runtime and the judges, not the
#: experiment table or the TCP backend's socket machinery.
_LAZY = {
    "ExperimentResult": "repro.bench",
    "run_experiment": "repro.bench",
    "TcpTransport": "repro.net.tcp",
}


def __getattr__(name):
    if name == "__version__":
        global __version__
        __version__ = _installed_version()
        return __version__
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)


def _installed_version() -> str:
    # Single source of truth is the installed package metadata
    # (pyproject.toml); the literal fallback covers running straight
    # from a source tree that was never pip-installed.
    try:  # pragma: no cover - which branch runs depends on the install mode
        from importlib.metadata import PackageNotFoundError, version

        return version("repro")
    except PackageNotFoundError:  # pragma: no cover
        return "1.33.0"
