"""The Cluster facade: the library's main entry point."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Tuple, Union

from repro.core import ProtocolSuite, make_protocol
from repro.faults.crash import CrashController
from repro.faults.injector import NULL_INJECTOR, FaultInjector
from repro.faults.recovery import RecoveryManager
from repro.faults.wal import WalSet
from repro.gdo.cache import EntryCacheTracker
from repro.gdo.directory import Directory
from repro.gdo.migration import HomeMigrationManager
from repro.memory.store import NodeStore
from repro.net.network import SimTransport
from repro.net.sizes import SizeModel
from repro.objects.registry import ObjectHandle, ObjectMeta, ObjectRegistry
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.objects.schema import ClassSchema, schema_of
from repro.runtime.config import ClusterConfig
from repro.runtime.executor import Executor
from repro.sim import Environment, Process
from repro.sim.tiebreak import make_tiebreak
from repro.txn.locks import LockManager
from repro.txn.semantic import IncrementMerger
from repro.util.errors import ConfigurationError, ProtocolError
from repro.util.ids import IdAllocator, NodeId, ObjectId
from repro.util.rng import SeededRNG


@dataclass(frozen=True, init=False)
class CreationRecord:
    """One object creation, for serial replay by the oracle."""

    object_id: ObjectId
    schema: ClassSchema
    node: NodeId
    initial: Tuple  # sorted (attr, value) pairs for scalars

    def __init__(self, object_id: ObjectId, schema: ClassSchema,
                 node: NodeId, initial: Tuple):
        # Frozen: written once, here, past the refusing ``__setattr__``
        # (one per object, at its creation).
        setattr_ = object.__setattr__
        setattr_(self, "object_id", object_id)
        setattr_(self, "schema", schema)
        setattr_(self, "node", node)
        setattr_(self, "initial", initial)


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


def never_finished(tickets) -> ProtocolError:
    """Roots left in flight once ``Cluster.run()`` quiesced (liveness)."""
    stalled = [ticket.label for ticket in tickets if not ticket.done]
    return ProtocolError(f"{len(stalled)} root transaction(s) never "
                         f"finished (first: {stalled[0]!r})")


class Cluster:
    """A simulated DSM cluster running one consistency protocol.

    Construction wires together every substrate: the simulation
    environment, the network, per-node stores, the partitioned GDO
    with holder-list caching, the O2PL lock manager, and the selected
    consistency protocol — then attaches each extension the config
    turns on to the lock manager's and the executor's hooks.
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
        # Clocks read ``env``, not ``self``: a closure over the cluster
        # would hold it in a cycle, and a finished cluster would wait
        # for the cycle collector instead of dying by reference count.
        env = self.env
        self.tracer = (
            Tracer(
                clock=lambda: env.now,
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

            self.network = TcpTransport(self.env, config.network,
                                        tracer=self.tracer,
                                        injector=self.injector)
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
        self.sizes = SizeModel(page_bytes=config.page_size)
        self.lockmgr = LockManager(self.env, self.network, self.sizes,
                                   self.cache, tracer=self.tracer)
        def protocol_factory(name):
            return make_protocol(
                name, env=self.env, network=self.network,
                sizes=self.sizes, stores=self.stores,
                grain=config.transfer_grain, directory=self.directory,
                tracer=self.tracer,
            )

        self.protocol = ProtocolSuite.build(
            protocol_factory, config.protocol, config.class_protocols
        )
        self.executor = Executor(
            self.env, config, self.alloc, self.stores, self.lockmgr,
            self.protocol, self.rng.derive("executor"), tracer=self.tracer,
        )
        self.executor._registry = self.registry
        # Placement (§2: roots "need only be distributed across the
        # available processors"): one round-robin count shared by
        # ``create`` and ``submit`` keeps every run deterministic.
        self._placements = 0
        if config.semantic_locks:
            self.executor.merger = IncrementMerger(self.stores)
        self.migration: Optional[HomeMigrationManager] = None
        if config.migration is not None and config.num_nodes > 1:
            # On one node every entry is already home; tracking would
            # only burn cycles without ever proposing a move.
            self.migration = HomeMigrationManager(config.migration, env)
            self.migration.attach(self.lockmgr, self.directory)
        plan = config.faults
        if plan is not None and plan.lock_wait_timeout_s > 0:
            self.lockmgr.wait_bound = partial(self.injector.bounded_wait,
                                              self.lockmgr)
        # Each node's durable write-ahead record, kept only when crashes
        # are planned (``None`` otherwise).
        self.wal: Optional[WalSet] = None
        self.recovery: Optional[RecoveryManager] = None
        self.crash_controller: Optional[CrashController] = None
        if plan is not None and plan.crashes:
            self.wal = WalSet(config.num_nodes)
            self.recovery = RecoveryManager(
                self.env, self.injector, self.directory, self.cache,
                self.wal, self.nodes, self.tracer,
            )
            self.recovery.attach(self.lockmgr, self.migration)
        if plan is not None and (plan.crashes or plan.partitions):
            self.crash_controller = CrashController(
                self.env, self.injector, self.lockmgr, self.directory,
                self.cache, self.executor, self.tracer,
                recovery=self.recovery,
            )
            if plan.crashes:
                self.executor.start_hooks.append(
                    self.crash_controller.await_node_up)
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
            node = self._next_node()
        elif node not in self.stores:
            raise ConfigurationError(f"unknown node {node!r}")
        object_id = self.alloc.next_object()
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
        entry = self.directory.register(object_id, layout.page_count, node)
        if self.wal is not None:
            self.wal.record_home(entry.home_node.value, object_id)
        handle = self.registry.register(ObjectMeta(
            object_id=object_id, schema=schema, layout=layout,
            creator_node=node, entry=entry,
        ))
        self.creation_log.append(
            CreationRecord(
                object_id=object_id, schema=schema, node=node,
                initial=tuple(sorted(initial.items())),
            )
        )
        return handle

    def _register_commutativity(self, schema: ClassSchema, layout) -> None:
        """Build and install one class's commutativity table.

        The table is also emitted as a ``lock.commtable`` trace instant
        so the post-hoc checkers judge every semantic grant against
        exactly what the locks used.
        """
        from repro.analysis.commutativity import build_commutativity

        table = build_commutativity(schema, layout)
        self.lockmgr.register_commutativity(schema.name, table)
        if self.tracer.enabled:
            self.tracer.instant("lock.commtable", "lock",
                                table=table.to_trace())

    def handle(self, object_id: ObjectId) -> ObjectHandle:
        return self.registry.handle(object_id)

    def _next_node(self) -> NodeId:
        """The next node in round-robin order."""
        node = self.nodes[self._placements % len(self.nodes)]
        self._placements += 1
        return node

    # ------------------------------------------------------------------
    # Transaction submission
    # ------------------------------------------------------------------

    def submit(self, handle: ObjectHandle, method_name: str, *args,
               node: Optional[NodeId] = None, label: str = "",
               delay: float = 0.0) -> TxnTicket:
        """Schedule a root transaction; returns a ticket.

        ``delay`` postpones the start by that much simulated time
        (workload arrival pacing)."""
        spec = handle.meta.schema.method_spec(method_name)  # fail fast
        if node is None:
            node = self._next_node()
        elif node not in self.stores:
            raise ConfigurationError(f"unknown node {node!r}")
        if delay < 0:
            raise ConfigurationError("delay must be non-negative")
        # The process runs ``run_root`` itself, and ``run_root`` holds
        # its own process so a node crash can interrupt the attempt
        # mid-coroutine: allocated first, started once its body has it
        # (the body runs no step before the bootstrap).
        process = Process.__new__(Process)
        process.__init__(
            self.env,
            self.executor.run_root(node, handle, spec, args, label=label,
                                   delay=delay, process=process),
            name=label or f"{handle.class_name}.{method_name}",
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

        Required after TCP runs — the sockets are closed here; a no-op
        for the simulation backend."""
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
        if not ticket.done:
            raise never_finished((ticket,))
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
