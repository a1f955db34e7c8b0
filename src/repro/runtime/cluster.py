"""The Cluster facade: the library's main entry point."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.core import ProtocolSuite, make_protocol
from repro.faults.crash import CrashController
from repro.faults.injector import NULL_INJECTOR, FaultInjector
from repro.faults.recovery import RecoveryManager
from repro.faults.wal import NULL_WAL, WalSet
from repro.gdo.cache import EntryCacheTracker
from repro.gdo.directory import Directory
from repro.gdo.migration import HomeMigrationManager
from repro.memory.store import NodeStore
from repro.net.network import SimTransport
from repro.objects.registry import ObjectHandle, ObjectMeta, ObjectRegistry
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.objects.schema import ClassSchema, schema_of
from repro.runtime.config import ClusterConfig
from repro.runtime.executor import Executor
from repro.runtime.scheduler import Scheduler
from repro.sim import Environment, Process
from repro.sim.tiebreak import make_tiebreak
from repro.txn.locks import LockManager
from repro.util.errors import ConfigurationError, ProtocolError
from repro.util.ids import IdAllocator, NodeId, ObjectId
from repro.util.rng import SeededRNG


@dataclass(frozen=True)
class CreationRecord:
    """One object creation, for serial replay by the oracle."""

    object_id: ObjectId
    schema: ClassSchema
    node: NodeId
    initial: Tuple  # sorted (attr, value) pairs for scalars


class TxnTicket:
    """Handle for a submitted root transaction."""

    def __init__(self, process: Process, node: NodeId, label: str):
        self._process = process
        self.node = node
        self.label = label

    @property
    def done(self) -> bool:
        return self._process.triggered

    def result(self):
        """Result of the root transaction; raises what it raised.

        Only valid after the simulation has run the transaction to
        completion (``Cluster.run``)."""
        if not self._process.triggered:
            raise ConfigurationError(
                f"transaction {self.label!r} has not finished; call "
                f"Cluster.run() first"
            )
        if not self._process.ok:
            raise self._process.value
        return self._process.value


class Cluster:
    """A simulated DSM cluster running one consistency protocol.

    Construction wires together every substrate: the simulation
    environment, the network, per-node stores, the partitioned GDO
    with holder-list caching, the O2PL lock manager, and the selected
    consistency protocol.
    """

    def __init__(self, config: Optional[ClusterConfig] = None, **overrides):
        if config is None:
            config = ClusterConfig(**overrides)
        elif overrides:
            raise ConfigurationError(
                "pass either a ClusterConfig or keyword overrides, not both"
            )
        self.config = config
        tiebreak = make_tiebreak(config.tiebreak, config.seed,
                                 config.num_nodes)
        if config.transport == "tcp":
            from repro.sim.realtime import WallClockEnvironment

            self.env = WallClockEnvironment(tiebreak=tiebreak)
        else:
            self.env = Environment(tiebreak=tiebreak)
        self.tracer = (
            Tracer(
                clock=lambda: self.env.now,
                clock_kind="wall" if config.transport == "tcp" else "virtual",
            )
            if config.trace else NULL_TRACER
        )
        self.env.tracer = self.tracer
        self.rng = SeededRNG(config.seed)
        self.alloc = IdAllocator()
        self.nodes: List[NodeId] = [
            self.alloc.next_node() for _ in range(config.num_nodes)
        ]
        self.injector = (
            FaultInjector(config.faults, self.rng.derive("faults"))
            if config.faults is not None else NULL_INJECTOR
        )
        if config.transport == "tcp":
            from repro.net.tcp import TcpTransport

            self.network = TcpTransport(
                self.env, config.network, tracer=self.tracer,
                injector=self.injector,
                processes=config.transport_processes,
            )
        else:
            self.network = SimTransport(self.env, config.network,
                                        tracer=self.tracer,
                                        injector=self.injector)
        self.stores: Dict[NodeId, NodeStore] = {
            node: NodeStore(node) for node in self.nodes
        }
        self.registry = ObjectRegistry()
        self.directory = Directory(self.nodes, tracer=self.tracer)
        self.cache = EntryCacheTracker(enabled=config.gdo_cache_enabled)
        self.migration: Optional[HomeMigrationManager] = None
        if config.migration is not None and config.num_nodes > 1:
            # On one node every entry is already home; tracking would
            # only burn cycles without ever proposing a move.
            self.migration = HomeMigrationManager(
                config.migration, clock=lambda: self.env.now
            )
        # Each node's durable write-ahead record, kept only when crashes
        # are planned: fault-free runs stay byte-identical through the
        # no-op NULL_WAL.
        self.wal = (
            WalSet(config.num_nodes)
            if config.faults is not None and config.faults.crashes
            else NULL_WAL
        )
        self.lockmgr = LockManager(
            self.env, self.network, self.directory, config.sizes, self.cache,
            allow_recursive_reads=config.allow_recursive_reads,
            tracer=self.tracer, injector=self.injector,
            migration=self.migration, wal=self.wal,
        )
        def protocol_factory(name):
            return make_protocol(
                name, env=self.env, network=self.network,
                sizes=config.sizes, stores=self.stores,
                grain=config.transfer_grain, directory=self.directory,
                tracer=self.tracer,
            )

        self.protocol = ProtocolSuite.build(
            protocol_factory, config.protocol, config.class_protocols
        )
        self.executor = Executor(
            self.env, config, self.alloc, self.stores, self.directory,
            self.lockmgr, self.protocol, self.rng.derive("executor"),
            tracer=self.tracer, injector=self.injector, wal=self.wal,
        )
        self.executor._registry = self.registry
        self.scheduler = Scheduler(
            self.nodes, config.scheduler, self.rng.derive("scheduler")
        )
        self.recovery: Optional[RecoveryManager] = None
        self.crash_controller: Optional[CrashController] = None
        if config.faults is not None and (config.faults.crashes
                                          or config.faults.partitions):
            if config.faults.crashes:
                self.recovery = RecoveryManager(
                    self.env, self.injector, self.directory, self.cache,
                    self.wal, self.nodes, self.tracer,
                )
            self.crash_controller = CrashController(
                self.env, self.injector, self.lockmgr, self.cache,
                self.executor, self.tracer, recovery=self.recovery,
            )
            self.crash_controller.schedule()
        self.creation_log: List[CreationRecord] = []
        self._layout_cache: Dict[int, object] = {}
        self._tickets: List[TxnTicket] = []

    # ------------------------------------------------------------------
    # Object creation
    # ------------------------------------------------------------------

    def create(self, cls_or_schema: Union[type, ClassSchema],
               node: Optional[NodeId] = None,
               initial: Optional[Dict[str, object]] = None) -> ObjectHandle:
        """Materialize a new shared object, fully resident at ``node``
        (default: chosen round-robin) with all pages at version 1."""
        schema = schema_of(cls_or_schema)
        layout = self._layout_cache.get(id(schema))
        if layout is None:
            layout = schema.make_layout(self.config.page_size)
            self._layout_cache[id(schema)] = layout
            if self.config.semantic_locks:
                self._register_commutativity(schema, layout)
        if node is None:
            node = self.scheduler.pick_node()
        elif node not in self.stores:
            raise ConfigurationError(f"unknown node {node!r}")
        object_id = self.alloc.next_object()
        meta = ObjectMeta(
            object_id=object_id, schema=schema, layout=layout,
            home_node=self.directory.home_node(object_id), creator_node=node,
        )
        handle = self.registry.register(meta)
        initial = dict(initial or {})
        unknown = set(initial) - set(layout.attribute_names())
        if unknown:
            raise ConfigurationError(
                f"initial values name unknown attributes {sorted(unknown)}"
            )
        slot_values = {}
        for name, value in initial.items():
            if layout.attribute(name).is_array:
                raise ConfigurationError(
                    f"array attribute {name!r} cannot take a scalar initial "
                    f"value; write elements transactionally instead"
                )
            slot_values[(name, 0)] = value
        self.stores[node].create_object(object_id, layout, slot_values)
        self.directory.register(object_id, layout.page_count, node)
        self.wal.record_home(
            self.directory.entry(object_id).home_node.value, object_id
        )
        self.creation_log.append(
            CreationRecord(
                object_id=object_id, schema=schema, node=node,
                initial=tuple(sorted(initial.items())),
            )
        )
        return handle

    def _register_commutativity(self, schema: ClassSchema, layout) -> None:
        """Build and install one class's commutativity table.

        Shadow recovery snapshots whole pages, which cannot roll back
        one family's increments without clobbering a concurrent
        family's — increment-based commutativity is only sound with
        slot-granular undo logs.  The honest table is also emitted as a
        ``lock.commtable`` trace instant so the post-hoc checkers judge
        every semantic grant against exactly what the locks used.
        """
        from repro.analysis.commutativity import build_commutativity

        table = build_commutativity(
            schema, layout,
            allow_increments=(self.config.recovery == "undo"),
        )
        self.lockmgr.register_commutativity(schema.name, table)
        if self.tracer.enabled:
            self.tracer.instant("lock.commtable", "lock",
                                table=table.to_trace())

    def handle(self, object_id: ObjectId) -> ObjectHandle:
        return self.registry.handle(object_id)

    # ------------------------------------------------------------------
    # Transaction submission
    # ------------------------------------------------------------------

    def submit(self, handle: ObjectHandle, method_name: str, *args,
               node: Optional[NodeId] = None, label: str = "",
               delay: float = 0.0) -> TxnTicket:
        """Schedule a root transaction; returns a ticket.

        ``delay`` postpones the start by that much simulated time
        (workload arrival pacing)."""
        handle.meta.schema.method_spec(method_name)  # fail fast
        if node is None:
            node = self.scheduler.pick_node()
        elif node not in self.stores:
            raise ConfigurationError(f"unknown node {node!r}")
        if delay < 0:
            raise ConfigurationError("delay must be non-negative")
        self.scheduler.notify_start(node)

        def tracked():
            if delay > 0:
                yield self.env.timeout(delay)
            try:
                # `process` is bound below, before the bootstrap step
                # ever runs this body; passing it lets a node crash
                # interrupt the attempt mid-coroutine.
                result = yield from self.executor.run_root(
                    node, handle, method_name, args, label=label,
                    process=process,
                )
            finally:
                self.scheduler.notify_end(node)
            return result

        process = self.env.process(
            tracked(), name=label or f"{handle.class_name}.{method_name}"
        )
        ticket = TxnTicket(process, node, label or method_name)
        self._tickets.append(ticket)
        return ticket

    def run(self, until: Optional[float] = None) -> float:
        """Advance the cluster until idle (or ``until``).

        Brings the transport up on first use (the simulation backend's
        ``start`` is a no-op; the TCP backend binds its sockets here,
        so constructing a Cluster stays cheap and side-effect free).
        """
        self.network.start(self.nodes)
        return self.env.run(until)

    def close(self) -> None:
        """Release transport resources (idempotent).

        Required after TCP runs — sockets and any relay processes are
        torn down here; a no-op for the simulation backend."""
        self.network.close()

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def call(self, handle: ObjectHandle, method_name: str, *args,
             node: Optional[NodeId] = None):
        """Submit one root transaction, run to completion, return its
        result (raising whatever it raised)."""
        ticket = self.submit(handle, method_name, *args, node=node)
        self.run()
        return ticket.result()

    def tickets(self) -> Tuple[TxnTicket, ...]:
        return tuple(self._tickets)

    # ------------------------------------------------------------------
    # Authoritative state access (debug / verification; not a txn API)
    # ------------------------------------------------------------------

    def read_object(self, handle: ObjectHandle) -> Dict[str, object]:
        """Latest committed value of every attribute of an object,
        gathered from the page owners recorded in the GDO page map.
        Arrays come back as lists."""
        meta = handle.meta
        entry = self.directory.entry(meta.object_id)
        result: Dict[str, object] = {}
        for spec in meta.layout.attributes:
            if spec.is_array:
                result[spec.name] = [
                    self._authoritative_slot(meta, entry, (spec.name, index))
                    for index in range(spec.count)
                ]
            else:
                result[spec.name] = self._authoritative_slot(
                    meta, entry, (spec.name, 0)
                )
        return result

    def read_attr(self, handle: ObjectHandle, name: str):
        return self.read_object(handle)[name]

    def _authoritative_slot(self, meta: ObjectMeta, entry, slot):
        # Writes dirty every page of a slot together, and page installs
        # copy whole slot values, so any node owning (holding the
        # latest version of) *any* page of the slot has the current
        # value.  Under lazy protocols a slot's pages can legitimately
        # be owned by different nodes; all owners must agree.
        pages = sorted(meta.layout.slot_pages(*slot))
        owners = sorted({entry.page_owner(page) for page in pages})
        values = [
            self.stores[owner].read_slot(meta.object_id, slot)
            for owner in owners
        ]
        if any(value != values[0] for value in values[1:]):
            raise ProtocolError(
                f"slot {slot} of {meta.object_id!r}: owners {owners} "
                f"disagree on the current value ({values})"
            )
        return values[0]

    def state_digest(self) -> Dict[int, Dict[str, object]]:
        """Authoritative state of every object, keyed by object id value."""
        return {
            object_id.value: self.read_object(self.registry.handle(object_id))
            for object_id in self.registry.all_objects()
        }

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------

    @property
    def network_stats(self):
        return self.network.stats

    @property
    def txn_stats(self):
        return self.executor.txn_stats

    @property
    def lock_stats(self):
        return self.lockmgr.stats

    @property
    def cache_stats(self):
        return self.cache.stats

    @property
    def fault_stats(self):
        return self.injector.stats

    @property
    def migration_stats(self):
        """Home-migration counters; ``None`` when migration is off."""
        return self.migration.stats if self.migration is not None else None

    @property
    def metrics(self):
        """The tracer's metrics registry; ``None`` when tracing is off."""
        return self.tracer.metrics

    @property
    def trace_events(self):
        return self.tracer.events

    @property
    def prediction_stats(self):
        return self.protocol.prediction_stats

    @property
    def commit_log(self):
        return self.executor.commit_log

    @property
    def audit(self):
        return self.executor.audit

    def stats_summary(self) -> Dict[str, object]:
        return {
            "protocol": self.config.protocol,
            "network": self.network_stats.snapshot(),
            "transactions": self.txn_stats.snapshot(),
            "locks": self.lock_stats.snapshot(),
            "prediction": self.protocol.snapshot(),
            "faults": {
                "plan": (self.config.faults.name
                         if self.config.faults is not None else None),
                **self.fault_stats.snapshot(),
            },
            "migration": (
                self.migration.stats.snapshot()
                if self.migration is not None else None
            ),
        }
