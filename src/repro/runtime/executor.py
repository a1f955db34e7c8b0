"""Transaction execution engine.

Maps the paper's model onto simulation processes:

* ``run_root`` — the run-time system's half of §3.5: wraps a user
  invocation in a root transaction, commits via Algorithm 4.3/4.4, and
  retries deadlock victims with exponential backoff.
* ``_execute`` — the compiler's half: lock acquisition before the
  method body, data transfer on global grants, pre-commit (lock and
  effect inheritance) after it, abort processing on exceptions.
* ``_drive`` — interprets generator method bodies, turning each
  yielded :class:`InvocationRequest` into a child transaction (the 1:1
  method-invocation/transaction mapping of §3.3).

Families run sequentially at one site; concurrency comes from multiple
root transactions across (and within) nodes, exactly the throughput
model of §2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.prediction import AccessPrediction, predict
from repro.faults.injector import NULL_INJECTOR
from repro.faults.wal import NULL_WAL
from repro.gdo.entry import LockMode
from repro.memory.shadow import ShadowLog
from repro.memory.undo import UndoLog
from repro.objects.proxy import InstrumentedSelf
from repro.objects.registry import HandleRef as _HandleRef, ObjectHandle
from repro.obs.tracer import NULL_TRACER
from repro.runtime.context import InvocationRequest, TxnContext
from repro.txn.semantic import IncrementMerger
from repro.txn.transaction import Transaction, TxnStats
from repro.util.backoff import backoff_delay
from repro.util.errors import (
    ConfigurationError,
    DeadlockError,
    LockTimeoutError,
    NodeCrashError,
    ProtocolError,
    RecursiveInvocationError,
    TransactionAborted,
)
from repro.util.ids import NodeId, ObjectId


@dataclass(frozen=True)
class CommitRecord:
    """One committed root transaction, in commit order.

    ``args`` are stored in frozen form (handles replaced by object-id
    markers) so the record can be replayed on a fresh cluster by the
    serializability oracle (:mod:`repro.runtime.verify`).
    """

    time: float
    node: NodeId
    object_id: ObjectId
    method_name: str
    frozen_args: Tuple
    result: object
    label: str = ""
    root_serial: int = -1


@dataclass(frozen=True)
class AccessAudit:
    """Predicted vs actual attribute access for one invocation."""

    class_name: str
    method_name: str
    predicted_reads: frozenset
    predicted_writes: frozenset
    actual_reads: frozenset
    actual_writes: frozenset

    @property
    def conservative(self) -> bool:
        """Did the prediction cover everything that happened?"""
        return (
            self.actual_reads <= self.predicted_reads
            and self.actual_writes <= self.predicted_writes
        )

    @property
    def writes_conservative(self) -> bool:
        return self.actual_writes <= self.predicted_writes


@dataclass
class _LiveFamily:
    """One in-flight root attempt, registered for crash targeting.

    ``committing`` flips to True at the family's commit point (body
    finished, effects about to be installed): a node crash no longer
    interrupts such a family — its remaining release messages are
    merely delayed by the down window — which is what makes root
    commit atomic under fail-stop crashes.
    """

    txn: Transaction
    node: NodeId
    process: object = None
    committing: bool = False


def freeze_args(args):
    """Recursively replace handles with id markers (for replay logs).

    Containers are snapshotted afresh on every call (a caller may mutate
    a list after the commit); a plain handle inside one costs one load
    of its shared ref, not a call — every root's args carry the table."""
    if isinstance(args, ObjectHandle):
        return args.ref
    if isinstance(args, (tuple, list)):
        frozen = [item.ref if type(item) is ObjectHandle else freeze_args(item)
                  for item in args]
        return tuple(frozen) if isinstance(args, tuple) else frozen
    if isinstance(args, dict):
        return {key: value.ref if type(value) is ObjectHandle
                else freeze_args(value) for key, value in args.items()}
    return args


def _handles_in(args):
    """Every object id reachable from an argument structure."""
    found = []
    if isinstance(args, ObjectHandle):
        found.append(args.object_id)
    elif isinstance(args, (tuple, list)):
        for item in args:
            found.extend(_handles_in(item))
    elif isinstance(args, dict):
        for value in args.values():
            found.extend(_handles_in(value))
    return found


def thaw_args(frozen, resolve):
    """Inverse of :func:`freeze_args`; ``resolve(value) -> handle``."""
    if isinstance(frozen, _HandleRef):
        return resolve(frozen.object_value)
    if isinstance(frozen, tuple):
        return tuple(thaw_args(item, resolve) for item in frozen)
    if isinstance(frozen, list):
        return [thaw_args(item, resolve) for item in frozen]
    if isinstance(frozen, dict):
        return {key: thaw_args(value, resolve) for key, value in frozen.items()}
    return frozen


class Executor:
    """Executes root transactions against one cluster's substrates."""

    def __init__(self, env, config, alloc, stores, directory, lockmgr,
                 protocol, rng, tracer=None, injector=None, wal=None):
        self.env = env
        self.config = config
        self.alloc = alloc
        self.stores = stores
        self.directory = directory
        self.lockmgr = lockmgr
        self.protocol = protocol
        self.rng = rng
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.injector = injector if injector is not None else NULL_INJECTOR
        self.wal = wal if wal is not None else NULL_WAL
        self._recovery_factory = (
            ShadowLog if config.recovery == "shadow" else UndoLog
        )
        # Semantic lock modes (DESIGN §15): the merger keeps blind
        # increments correct across commuting families; None keeps the
        # plain path byte-identical.
        self.merger = IncrementMerger(stores) if config.semantic_locks else None
        self.txn_stats = TxnStats()
        self.commit_log: List[CommitRecord] = []
        self.audit: List[AccessAudit] = []
        # root serial -> in-flight attempt; the CrashController walks
        # this to find the families a node crash must interrupt.
        self.live_families: Dict[int, _LiveFamily] = {}

    # ------------------------------------------------------------------
    # Root transactions
    # ------------------------------------------------------------------

    def run_root(self, node: NodeId, handle: ObjectHandle, method_name: str,
                 args: Tuple, label: str = "", process=None):
        """Simulation process for one user invocation (with retries).

        ``process`` is the :class:`~repro.sim.process.Process` driving
        this generator, when the caller has one: it lets a node crash
        interrupt the attempt mid-coroutine.  Retryable aborts
        (deadlock victim, lock-wait timeout) restart the loop with a
        fresh root serial after capped exponential backoff; a crash of
        the hosting node is terminal for the family.
        """
        attempts = 0
        while True:
            yield from self._await_node_up(node)
            txn = Transaction(self.alloc.next_root_txn(), node,
                              label=label or method_name,
                              recovery_factory=self._recovery_factory)
            family = _LiveFamily(txn=txn, node=node, process=process)
            self.live_families[txn.id.root] = family
            started = self.env.now
            token = self.tracer.txn_begin(txn)
            try:
                try:
                    if self.config.prefetch != "off" and (
                        handle.meta.schema.method_spec(method_name).may_invoke
                    ):
                        # §5.1 invocation analysis: methods proven to invoke
                        # nothing skip pre-acquisition entirely.
                        yield from self._prefetch(txn, handle, args)
                    result = yield from self._execute(txn, handle, method_name,
                                                      args)
                except DeadlockError:
                    yield from self._abort_root(txn)
                    self.tracer.txn_abort(token, txn, "deadlock")
                    self.txn_stats.aborts_deadlock += 1
                    attempts += 1
                    if attempts > self.config.max_retries:
                        raise TransactionAborted(txn.id,
                                                 "deadlock-retries-exhausted")
                    self.txn_stats.retries += 1
                    yield self.env.timeout(self._retry_backoff(attempts))
                    continue
                except LockTimeoutError:
                    yield from self._abort_root(txn)
                    self.tracer.txn_abort(token, txn, "lock-timeout")
                    self.txn_stats.aborts_lock_timeout += 1
                    attempts += 1
                    if attempts > self.config.max_retries:
                        raise TransactionAborted(
                            txn.id, "lock-timeout-retries-exhausted")
                    self.txn_stats.retries += 1
                    yield self.env.timeout(self._retry_backoff(attempts))
                    continue
                except NodeCrashError:
                    # The submitting client died with the node: roll back
                    # and surface the crash — no retry.
                    yield from self._abort_root(txn)
                    self.tracer.txn_abort(token, txn, "node-crash")
                    self.txn_stats.aborts_crash += 1
                    raise
                except RecursiveInvocationError:
                    yield from self._abort_root(txn)
                    self.tracer.txn_abort(token, txn, "recursive")
                    self.txn_stats.aborts_recursive += 1
                    raise
                except ProtocolError:
                    raise  # internal invariant violation: never mask as an abort
                except TransactionAborted:
                    yield from self._abort_root(txn)
                    self.tracer.txn_abort(token, txn, "user")
                    self.txn_stats.aborts_user += 1
                    raise
                except Exception:
                    yield from self._abort_root(txn)
                    self.tracer.txn_abort(token, txn, "exception")
                    self.txn_stats.aborts_user += 1
                    raise
                family.committing = True
                yield from self._flush_delay(txn)
                yield from self._commit_root(txn)
            finally:
                self.live_families.pop(txn.id.root, None)
            self.txn_stats.commits += 1
            latency = self.env.now - started
            self.tracer.txn_commit(token, txn, latency)
            self.txn_stats.root_latencies.append(latency)
            self.commit_log.append(
                CommitRecord(
                    time=self.env.now, node=node, object_id=handle.object_id,
                    method_name=method_name, frozen_args=freeze_args(tuple(args)),
                    result=freeze_args(result), label=label,
                    root_serial=txn.id.serial,
                )
            )
            return result

    def _retry_backoff(self, attempts: int) -> float:
        """Capped exponential backoff with seeded jitter (same stream
        and formula for every retryable abort cause) — the unified
        curve of :func:`repro.util.backoff.backoff_delay`, shared with
        the network retransmission timers and the failover reroute."""
        return backoff_delay(self.config.retry_backoff_s, attempts,
                             rng=self.rng)

    def _await_node_up(self, node: NodeId):
        """Hold off while ``node`` is inside a crash window.

        New root attempts cannot start on a down node; with no fault
        plan (or no crash covering now) this yields nothing, keeping
        the fault-free event schedule untouched.
        """
        while True:
            until = self.injector.down_until(node, self.env.now)
            if until <= self.env.now:
                return
            yield self.env.timeout(until - self.env.now)

    def _commit_root(self, root: Transaction):
        """Algorithm 4.3 (root commits) + 4.4, then protocol commit hook."""
        store = self.stores[root.node]
        resident = {
            object_id: store.resident_pages(object_id)
            for object_id in root.lock_objects
            if store.has_object(object_id)
        }
        yield from self.lockmgr.root_commit_release(root, resident)
        if self.merger is not None:
            # Fold the family's tracked increments into the per-slot
            # ledger and write the merged sums into this (now owning)
            # store before any newly granted family can fetch from us.
            self.merger.on_root_commit(root)
        # The committing site now holds the newest version of every
        # page it dirtied: stamp the local tags with the post-commit
        # versions before anyone can fetch from us.
        for object_id, pages in root.dirty.items():
            page_map = self.directory.entry(object_id).page_map
            versions = store.copy_of(object_id).page_versions
            for page in pages:
                versions[page] = version = page_map[page].version
                # Durable record: the committed version now owned here
                # survives a crash of this node (fail-stop with stable
                # storage) and is replayed at rejoin.
                self.wal.record_page(root.node.value, object_id, page,
                                     version)
        self.protocol.on_root_commit(root, dict(root.dirty), self._meta_of)
        root.mark_committed()
        self._finalize_prediction_accounting(root)

    def _abort_root(self, root: Transaction):
        """Root abort: UNDO from local logs, release with no dirty info."""
        root.undo.apply(self.stores[root.node])
        root.dirty.clear()
        if self.merger is not None:
            self.merger.on_abort(root)
        yield from self.lockmgr.root_abort_release(root)
        root.mark_aborted()

    def crash_rollback(self, root: Transaction) -> int:
        """Discard a crash-aborted family's uncommitted writes *now*.

        A node crash frees the family's directory entries at the crash
        instant (``crash_release``), but the family's own unwinding —
        which normally applies the undo logs frame by frame — is
        exception-driven and can stall on the down node's messaging
        until rejoin.  In that window another family could acquire the
        freed locks and read the doomed family's dirty slots straight
        out of the crashed node's store.  Volatile state dies with the
        node, so the whole family tree's logs are applied here, newest
        frame first; the stalled unwinding later re-applies only
        already-emptied logs.
        """
        store = self.stores[root.node]
        applied = 0

        def walk(txn: Transaction) -> None:
            nonlocal applied
            for child in reversed(txn.children):
                walk(child)
            applied += txn.undo.apply(store)
            txn.dirty.clear()
            if self.merger is not None:
                self.merger.on_abort(txn)

        walk(root)
        return applied

    def _prefetch(self, txn: Transaction, handle: ObjectHandle, args):
        """Optimistic pre-acquisition of predicted invocation targets.

        "We can also predict which other objects a given method may
        invoke methods on ... to permit optimistic pre-acquisition of
        locks in the GDO as well as pre-fetching of needed objects"
        (§5.1).  The conservative target prediction is every object
        handle reachable from the invocation's arguments; candidates
        are pre-acquired concurrently (hiding remote lock latency) and
        in sorted order for determinism.  Pre-acquisition never blocks,
        so it cannot introduce deadlocks — a busy lock is simply not
        prefetched.  Under ``"locks+pages"`` each granted candidate
        gathers its own pages in its own process, so the transfers of
        objects at a common owner overlap instead of sharing a message.
        """
        candidates = sorted(
            object_id
            for object_id in _handles_in(args)
            if object_id != handle.object_id
        )
        if not candidates:
            return
        fetch_pages = self.config.prefetch == "locks+pages"
        processes = [
            self.env.process(
                self._prefetch_one(txn, object_id, fetch_pages),
                name=f"prefetch:{object_id!r}",
            )
            for object_id in candidates
        ]
        yield self.env.all_of(processes)

    def _prefetch_one(self, txn: Transaction, object_id: ObjectId,
                      fetch_pages: bool):
        from repro.gdo.entry import LockMode as _LockMode

        snapshot = yield from self.lockmgr.try_prefetch(
            txn, object_id, _LockMode.WRITE
        )
        if snapshot is None:
            return
        meta = self._meta_of(object_id)
        if not fetch_pages:
            # Lock-only prefetch: remember the page map; the protocol's
            # data transfer runs at the object's first real use, with
            # the actual method's prediction.
            self.stores[txn.node].register_object(object_id, meta.layout)
            txn.root.prefetch_maps[object_id] = snapshot
            return
        prediction = AccessPrediction(
            read_pages=meta.layout.all_pages(), write_pages=frozenset()
        )
        outcome = yield from self.protocol.for_meta(meta).acquire_transfer(
            txn, meta, snapshot, prediction
        )
        root = txn.root
        root.transfer_log.setdefault(object_id, set()).update(outcome.shipped)

    def _flush_delay(self, txn: Transaction):
        """Apply network delay deferred by synchronous demand fetches."""
        root = txn.root
        if root.pending_delay > 0:
            delay, root.pending_delay = root.pending_delay, 0.0
            yield self.env.timeout(delay)

    def _meta_of(self, object_id: ObjectId):
        return self._registry.meta(object_id)

    # The registry is attached by the Cluster right after construction
    # (it also owns object creation); kept as an attribute rather than a
    # constructor argument to avoid an init-order dance.
    _registry = None

    # ------------------------------------------------------------------
    # [Sub-]transaction execution
    # ------------------------------------------------------------------

    def _execute(self, txn: Transaction, handle: ObjectHandle,
                 method_name: str, args: Tuple):
        """Run one method invocation as transaction ``txn``."""
        meta = handle.meta
        spec = meta.schema.method_spec(method_name)
        if not txn.is_root:
            txn.label = method_name
        token = None if txn.is_root else self.tracer.txn_begin(txn)
        prediction = predict(spec.access, meta.layout)
        mode = LockMode.WRITE if spec.is_update else LockMode.READ
        increments = frozenset()
        if self.config.semantic_locks:
            mode = self.lockmgr.semantic_mode_for(
                meta.schema.name, method_name, mode
            )
            if getattr(mode, "tag", None) is not None:
                increments = mode.table.methods[method_name].increment_attrs
        try:
            snapshot = yield from self.lockmgr.acquire(txn, meta.object_id, mode)
            if snapshot is None:
                # A lock-only prefetch may have deferred this object's
                # data transfer to its first real use — now.
                snapshot = txn.root.prefetch_maps.pop(meta.object_id, None)
            if snapshot is not None:
                outcome = yield from self.protocol.for_meta(meta).acquire_transfer(
                    txn, meta, snapshot, prediction
                )
                root = txn.root
                root.transfer_log.setdefault(meta.object_id, set()).update(
                    outcome.shipped
                )
            ctx = TxnContext(self, txn, meta, spec,
                             merger=self.merger, increments=increments)
            proxy = InstrumentedSelf(ctx, meta)
            if spec.is_generator:
                body = spec.func(proxy, ctx, *args)
                result = yield from self._drive(body, txn)
            else:
                result = spec.func(proxy, ctx, *args)
            yield from self._flush_delay(txn)
            self._record_audit(ctx, spec, meta)
        except (ProtocolError, GeneratorExit):
            raise
        except BaseException as exc:
            yield from self._abort_sub(txn)
            if not txn.is_root:
                reason = "deadlock" if isinstance(exc, DeadlockError) else "abort"
                self.tracer.txn_abort(token, txn, reason)
            raise
        if not txn.is_root:
            txn.precommit()
            if self.merger is not None:
                self.merger.on_sub_commit(txn)
            self.lockmgr.precommit_release(txn)
            self.txn_stats.sub_commits += 1
            self.tracer.txn_commit(token, txn)
        return result

    def _abort_sub(self, txn: Transaction):
        """Sub-transaction abort (Algorithm 4.3): local UNDO, then lock
        disposition.  Roots are handled by :meth:`_abort_root`."""
        if txn.is_root:
            return
        txn.undo.apply(self.stores[txn.node])
        txn.dirty.clear()
        if self.merger is not None:
            self.merger.on_abort(txn)
        yield from self.lockmgr.sub_abort_release(txn)
        txn.mark_aborted()
        self.txn_stats.sub_aborts += 1

    def _drive(self, body, txn: Transaction):
        """Interpret a generator method body, spawning children for
        yielded invocation requests."""
        send_value = None
        throw_exc: Optional[BaseException] = None
        while True:
            try:
                if throw_exc is not None:
                    exc, throw_exc = throw_exc, None
                    item = body.throw(exc)
                else:
                    item = body.send(send_value)
            except StopIteration as stop:
                return stop.value
            send_value = None
            if not isinstance(item, InvocationRequest):
                body.close()
                raise ConfigurationError(
                    f"method body yielded {item!r}; methods may only yield "
                    f"ctx.invoke(...) requests"
                )
            child = Transaction(
                self.alloc.next_sub_txn(txn.id), txn.node, parent=txn,
                label=item.method_name,
                recovery_factory=self._recovery_factory,
            )
            try:
                send_value = yield from self._execute(
                    child, item.handle, item.method_name, item.args
                )
            except (DeadlockError, LockTimeoutError, NodeCrashError,
                    RecursiveInvocationError, ProtocolError):
                # Family-fatal: not visible to user code.
                body.close()
                raise
            except TransactionAborted as exc:
                # The child aborted; the parent may catch and retry
                # (§3.2: "permits attempted re-execution of the failing
                # sub-transaction").
                throw_exc = exc
            except Exception as exc:  # noqa: BLE001 - forwarded to user code
                throw_exc = exc
            yield from self._flush_delay(txn)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def _record_audit(self, ctx: TxnContext, spec, meta) -> None:
        if not self.config.audit_accesses:
            return
        self.audit.append(
            AccessAudit(
                class_name=meta.schema.name,
                method_name=spec.name,
                predicted_reads=frozenset(spec.access.reads),
                predicted_writes=frozenset(spec.access.writes),
                actual_reads=frozenset(ctx.actual_reads),
                actual_writes=frozenset(ctx.actual_writes),
            )
        )

    def _finalize_prediction_accounting(self, root: Transaction) -> None:
        for object_id, shipped in root.transfer_log.items():
            stats = self.protocol.for_meta(self._meta_of(object_id)).prediction_stats
            touched = root.touch_pages.get(object_id, set())
            stats.over_predicted_pages += len(shipped - touched)
        for object_id, pages in root.touch_pages.items():
            stats = self.protocol.for_meta(self._meta_of(object_id)).prediction_stats
            stats.touched_pages += len(pages)
