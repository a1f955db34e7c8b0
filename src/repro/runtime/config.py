"""Cluster configuration: every knob of the reproduction in one place."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.core.transfer import OBJECT_GRAIN, PAGE_GRAIN
from repro.faults.plan import FaultPlan
from repro.gdo.migration import MigrationConfig
from repro.net.network import NetworkConfig
from repro.net.presets import FAST_ETHERNET_100M
from repro.net.sizes import SizeModel
from repro.sim.tiebreak import validate_tiebreak
from repro.util.errors import ConfigurationError

_SCHEDULERS = ("round_robin", "random", "least_loaded")


@dataclass(frozen=True)
class ClusterConfig:
    """Configuration of one simulated cluster run.

    Attributes:
        num_nodes: number of sites; the paper targets small clusters of
            workstations on a system-area network.
        network: bandwidth / software-cost model (see
            :mod:`repro.net.presets` for the paper's sweep points).
        protocol: ``"cotec"``, ``"otec"``, ``"lotec"``, or ``"rc"``.
        page_size: DSM page size in bytes.
        seed: master seed; all run randomness derives from it.
        allow_recursive_reads: permit a descendant to share a read lock
            an ancestor holds (§3.4 precludes recursion outright; this
            flag relaxes it for the safe read-read case only).
        gdo_cache_enabled: cache holder lists at the holding site
            (§4.1); disabling makes every lock operation global — the
            ``abl-gdocache`` ablation.
        transfer_grain: ``"page"`` ships whole pages; ``"object"``
            ships only the object's bytes on each page (the DSD mode of
            §4.2) — the ``abl-dsd`` ablation.
        max_retries: deadlock-victim retry budget per root.
        retry_backoff_s: base for exponential backoff between retries.
        sizes: on-wire size model for protocol messages.
        scheduler: root-transaction placement policy.
        audit_accesses: record per-invocation predicted-vs-actual
            access sets (used by the conservatism tests; benches turn
            it off).
        recovery: rollback mechanism — ``"undo"`` (slot-granular undo
            logs) or ``"shadow"`` (page snapshots); §4.1 offers both.
        class_protocols: per-class consistency protocol overrides, as
            ``(class name, protocol name)`` pairs — the §6 future-work
            item "different consistency protocols ... on a per-class
            basis".  Classes not listed use ``protocol``.
        semantic_locks: grant commuting method invocations on the same
            object concurrently across families, using per-class
            commutativity tables derived from the access analysis
            (blind ``+=``/``-=`` increments and page-disjoint method
            pairs — DESIGN §15).  Off by default: the plain R/W
            lattice, byte-identical to a build without semantic modes.
        prefetch: optimistic pre-acquisition (§5.1/§6 future work):
            ``"off"``, ``"locks"`` (non-blocking pre-acquisition of
            predicted objects' locks, demoted to retained so
            sub-transactions acquire them locally), or
            ``"locks+pages"`` (also pre-fetch their stale pages; each
            object is gathered on its own, in parallel with the
            others).
        trace: record every protocol decision (transaction spans, lock
            grants/waits, GDO forwards, page transfers, per-message
            network events) with the :mod:`repro.obs` tracer; off by
            default — the disabled path is a no-op
            :class:`~repro.obs.tracer.NullTracer`.
        tiebreak: same-instant event-ordering policy of the simulation
            engine (see :mod:`repro.sim.tiebreak`).  The default
            ``"fifo"`` keeps runs byte-identical to the historic strict
            schedule order; the other policies (``"random"``,
            ``"lifo"``, ``"writer-first"``, ``"reader-first"``,
            ``"starve-node[:index]"``) deterministically perturb
            tie-breaks for schedule exploration (``repro fuzz``).
        faults: optional :class:`~repro.faults.plan.FaultPlan` enabling
            deterministic fault injection (message loss/dup/jitter,
            node crash windows, lock-wait timeouts).  ``None`` — the
            default — wires the no-op
            :class:`~repro.faults.injector.NullInjector`, which keeps
            runs byte-identical to a build without fault support.
        migration: optional
            :class:`~repro.gdo.migration.MigrationConfig` enabling
            adaptive re-homing of hot GDO entries toward their
            dominant accessor (DESIGN §11).  ``None`` — the default —
            keeps the paper's static round-robin partition.
        transport: the wire backend — ``"sim"`` (the default) delivers
            messages over the virtual clock via
            :class:`~repro.net.network.SimTransport`; ``"tcp"`` runs
            the cluster against real localhost TCP sockets
            (:class:`~repro.net.tcp.TcpTransport`) on a wall-clock
            environment, one connection per ordered pair of nodes
            (DESIGN §12).
        transport_processes: with ``transport="tcp"``, give each node a
            real OS relay process instead of a connection mesh inside
            the coordinator process.
    """

    num_nodes: int = 4
    network: NetworkConfig = field(default_factory=lambda: FAST_ETHERNET_100M)
    protocol: str = "lotec"
    page_size: int = 4096
    seed: int = 0
    allow_recursive_reads: bool = False
    gdo_cache_enabled: bool = True
    transfer_grain: str = PAGE_GRAIN
    max_retries: int = 10
    retry_backoff_s: float = 0.002
    sizes: SizeModel = field(default_factory=SizeModel)
    scheduler: str = "round_robin"
    audit_accesses: bool = True
    recovery: str = "undo"
    class_protocols: tuple = ()
    semantic_locks: bool = False
    prefetch: str = "off"
    trace: bool = False
    tiebreak: str = "fifo"
    faults: Optional[FaultPlan] = None
    migration: Optional[MigrationConfig] = None
    transport: str = "sim"
    transport_processes: bool = False

    def __post_init__(self) -> None:
        if self.transport not in ("sim", "tcp"):
            raise ConfigurationError(
                f"transport must be 'sim' or 'tcp', got {self.transport!r}"
            )
        if self.transport_processes and self.transport != "tcp":
            raise ConfigurationError(
                "transport_processes requires transport='tcp'"
            )
        if self.num_nodes < 1:
            raise ConfigurationError("num_nodes must be at least 1")
        if self.page_size < 64:
            raise ConfigurationError("page_size must be at least 64 bytes")
        if self.transfer_grain not in (PAGE_GRAIN, OBJECT_GRAIN):
            raise ConfigurationError(
                f"transfer_grain must be {PAGE_GRAIN!r} or {OBJECT_GRAIN!r}"
            )
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be non-negative")
        if self.retry_backoff_s < 0:
            raise ConfigurationError("retry_backoff_s must be non-negative")
        if self.scheduler not in _SCHEDULERS:
            raise ConfigurationError(
                f"scheduler must be one of {_SCHEDULERS}, got {self.scheduler!r}"
            )
        if self.recovery not in ("undo", "shadow"):
            raise ConfigurationError(
                f"recovery must be 'undo' or 'shadow', got {self.recovery!r}"
            )
        if self.prefetch not in ("off", "locks", "locks+pages"):
            raise ConfigurationError(
                f"prefetch must be 'off', 'locks', or 'locks+pages', "
                f"got {self.prefetch!r}"
            )
        for pair in self.class_protocols:
            if (
                not isinstance(pair, tuple) or len(pair) != 2
                or not all(isinstance(part, str) for part in pair)
            ):
                raise ConfigurationError(
                    "class_protocols must be a tuple of "
                    "(class name, protocol name) string pairs"
                )
        validate_tiebreak(self.tiebreak)
        if self.faults is not None:
            if not isinstance(self.faults, FaultPlan):
                raise ConfigurationError(
                    f"faults must be a FaultPlan, got {self.faults!r}"
                )
            if self.faults.max_fault_node_index >= self.num_nodes:
                raise ConfigurationError(
                    f"fault plan {self.faults.name!r} names node "
                    f"{self.faults.max_fault_node_index} (crash, "
                    f"partition, or slow-node event) but the cluster "
                    f"has only {self.num_nodes} node(s)"
                )
        if self.migration is not None and not isinstance(
            self.migration, MigrationConfig
        ):
            raise ConfigurationError(
                f"migration must be a MigrationConfig, got {self.migration!r}"
            )
        if self.sizes.page_bytes != self.page_size:
            # Keep the wire model and the layout engine in agreement.
            object.__setattr__(
                self, "sizes", replace(self.sizes, page_bytes=self.page_size)
            )

    def with_protocol(self, protocol: str) -> "ClusterConfig":
        """The same run parameters under a different protocol — the
        core comparison pattern of every experiment."""
        return replace(self, protocol=protocol)

    def with_network(self, network: NetworkConfig) -> "ClusterConfig":
        return replace(self, network=network)

    def with_faults(self, faults: Optional[FaultPlan]) -> "ClusterConfig":
        """The same run parameters under a fault plan (or none)."""
        return replace(self, faults=faults)
