"""Transaction execution engine.

Maps the paper's model onto simulation processes:

* ``run_root`` — the run-time system's half of §3.5: wraps a user
  invocation in a root transaction, commits via Algorithm 4.3/4.4, and
  retries deadlock victims with exponential backoff.
* ``_execute`` — the compiler's half: lock acquisition before the
  method body, data transfer on global grants, pre-commit (lock and
  effect inheritance) after it, abort processing on exceptions.  It
  drives a generator body in its own frame, turning each yielded
  :class:`InvocationRequest` into a child transaction (the 1:1
  method-invocation/transaction mapping of §3.3), so a nested invoke
  costs one generator frame per level.

Families run sequentially at one site; concurrency comes from multiple
root transactions across (and within) nodes, exactly the throughput
model of §2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.analysis.prediction import AccessPrediction, predict
from repro.gdo.entry import LockMode
from repro.objects.proxy import proxy_class
from repro.objects.registry import HandleRef as _HandleRef, ObjectHandle
from repro.objects.schema import MethodSpec
from repro.obs.tracer import NULL_TRACER
from repro.runtime.context import InvocationRequest, TxnContext
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
from repro.util.ids import NodeId, ObjectId, TypedId

#: How a root attempt's exception ends it, checked in order (the last
#: row catches the rest): (exception type, ``txn_abort`` reason,
#: ``TxnStats`` counter, retryable).  Retryable aborts restart the
#: family after backoff; the others roll back and re-raise.  The
#: submitting client of a crashed node died with it: no retry.
_ROOT_ABORTS = (
    (DeadlockError, "deadlock", "aborts_deadlock", True),
    (LockTimeoutError, "lock-timeout", "aborts_lock_timeout", True),
    (NodeCrashError, "node-crash", "aborts_crash", False),
    (RecursiveInvocationError, "recursive", "aborts_recursive", False),
    (TransactionAborted, "user", "aborts_user", False),
    (Exception, "exception", "aborts_user", False),
)


@dataclass(init=False)
class CommitRecord:
    """One committed root transaction, in commit order.

    ``args`` are stored in frozen form (handles replaced by object-id
    markers) so the record can be replayed on a fresh cluster by the
    serializability oracle (:mod:`repro.runtime.verify`).  The executor
    writes a record once, per root commit, and nothing changes it after
    (``dataclasses.replace`` makes a changed copy): it is not frozen,
    so building one is plain stores.
    """

    time: float
    node: NodeId
    object_id: ObjectId
    method_name: str
    frozen_args: Tuple
    result: object
    label: str = ""
    root_serial: int = -1

    def __init__(self, time: float, node: NodeId, object_id: ObjectId,
                 method_name: str, frozen_args: Tuple, result: object,
                 label: str = "", root_serial: int = -1):
        self.time = time
        self.node = node
        self.object_id = object_id
        self.method_name = method_name
        self.frozen_args = frozen_args
        self.result = result
        self.label = label
        self.root_serial = root_serial


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


class _LiveFamily:
    """One in-flight root attempt, registered for crash targeting.

    ``committing`` flips to True at the family's commit point (body
    finished, effects about to be installed): a node crash no longer
    interrupts such a family — its remaining release messages are
    merely delayed by the down window — which is what makes root
    commit atomic under fail-stop crashes.
    """

    __slots__ = ("txn", "process", "committing")

    def __init__(self, txn: Transaction, process=None):
        self.txn = txn
        self.process = process
        self.committing = False


def freeze_args(args):
    """Recursively replace handles with id markers (for replay logs).

    Containers are snapshotted afresh on every call (a caller may mutate
    a list after the commit); a plain handle inside one costs one load
    of its shared ref, not a call — every root's args carry the table."""
    if isinstance(args, ObjectHandle):
        return args.ref
    if isinstance(args, TypedId):  # an id is a tuple: keep its type
        return args
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
    elif isinstance(args, (tuple, list)) and not isinstance(args, TypedId):
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
    if isinstance(frozen, TypedId):
        return frozen
    if isinstance(frozen, tuple):
        return tuple(thaw_args(item, resolve) for item in frozen)
    if isinstance(frozen, list):
        return [thaw_args(item, resolve) for item in frozen]
    if isinstance(frozen, dict):
        return {key: thaw_args(value, resolve) for key, value in frozen.items()}
    return frozen


class Executor:
    """Executes root transactions against one cluster's substrates."""

    #: Semantic lock modes' increment ledger, which ``Cluster``
    #: attaches; method contexts read it.
    merger = None

    def __init__(self, env, config, alloc, stores, lockmgr, protocol, rng,
                 tracer=None):
        self.env = env
        self.config = config
        self.alloc = alloc
        self.stores = stores
        self.lockmgr = lockmgr
        self.protocol = protocol
        self.rng = rng
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: ``yield from hook(node)`` before each root attempt (crash
        #: windows hold it off a down node); ``Cluster`` fills it.
        self.start_hooks: List = []
        self.txn_stats = TxnStats()
        self.commit_log: List[CommitRecord] = []
        self.audit: List[AccessAudit] = []
        # root serial -> in-flight attempt; the CrashController walks
        # this to find the families a node crash must interrupt.
        self.live_families: Dict[int, _LiveFamily] = {}
        # id(tuple of handles) -> (that tuple, its frozen form): see
        # :meth:`_freeze_root_args`.
        self._frozen_tables: Dict[int, Tuple[tuple, tuple]] = {}

    # ------------------------------------------------------------------
    # Root transactions
    # ------------------------------------------------------------------

    def run_root(self, node: NodeId, handle: ObjectHandle, spec: MethodSpec,
                 args: Tuple, label: str = "", delay: float = 0.0,
                 process=None):
        """Simulation process for one user invocation (with retries).

        ``spec`` is the invoked method, looked up by the caller;
        ``delay`` is the arrival offset, waited out first.  ``process``
        is the :class:`~repro.sim.process.Process` driving this
        generator, when the caller has one: it lets a node crash
        interrupt the attempt mid-coroutine.  Retryable aborts (deadlock
        victim, lock-wait timeout) restart the loop with a fresh root
        serial after capped exponential backoff; a crash of the hosting
        node is terminal for the family.
        """
        if delay > 0:
            yield self.env.timeout(delay)
        method_name = spec.name
        attempts = 0
        while True:
            for hook in self.start_hooks:
                yield from hook(node)
            txn = Transaction(self.alloc.next_root_txn(), node,
                              label=label or method_name)
            family = _LiveFamily(txn, process)
            self.live_families[txn.id.root] = family
            started = self.env.now
            token = (self.tracer.txn_begin(txn) if self.tracer.enabled
                     else None)
            try:
                try:
                    if self.config.prefetch != "off" and spec.may_invoke:
                        # §5.1 invocation analysis: methods proven to invoke
                        # nothing skip pre-acquisition entirely.
                        yield from self._prefetch(txn, handle, args)
                    result = yield from self._execute(txn, handle, spec, args)
                except ProtocolError:
                    raise  # internal invariant violation: never mask as an abort
                except Exception as exc:
                    for kind, reason, counter, retryable in _ROOT_ABORTS:
                        if isinstance(exc, kind):
                            break
                    if retryable:
                        # The traceback's frames hold the failed wake,
                        # which holds ``exc``: cut the cycle so the
                        # victim dies by reference count.
                        exc.__traceback__ = None
                    yield from self._abort_root(txn)
                    if self.tracer.enabled:
                        self.tracer.txn_abort(token, txn, reason)
                    stats = self.txn_stats
                    setattr(stats, counter, getattr(stats, counter) + 1)
                    if not retryable:
                        raise
                    attempts += 1
                    if attempts > self.config.max_retries:
                        raise TransactionAborted(
                            txn.id, f"{reason}-retries-exhausted")
                    stats.retries += 1
                    yield self.env.timeout(self._retry_backoff(attempts))
                    continue
                family.committing = True
                yield from self._flush_delay(txn)
                yield from self._commit_root(txn)
            finally:
                self.live_families.pop(txn.id.root, None)
                txn.unlink()
            self.txn_stats.commits += 1
            latency = self.env.now - started
            if self.tracer.enabled:
                self.tracer.txn_commit(token, txn, latency)
            self.txn_stats.root_latencies.append(latency)
            self.commit_log.append(
                CommitRecord(
                    time=self.env.now, node=node, object_id=handle.object_id,
                    method_name=method_name,
                    frozen_args=self._freeze_root_args(args),
                    result=freeze_args(result), label=label,
                    root_serial=txn.id.serial,
                )
            )
            return result

    def _freeze_root_args(self, args: Tuple) -> Tuple:
        """``freeze_args(tuple(args))`` for the commit log, with every
        argument that is a tuple of handles frozen once per tuple.

        Such a tuple cannot change (a handle is a value), and a workload
        passes the same handle table to every root: its frozen form is
        kept beside it, and the tuple itself is held so its ``id`` is
        never reused.  Anything else — a list above all — is frozen
        afresh on every commit."""
        frozen = []
        for arg in args:
            if type(arg) is tuple:
                memo = self._frozen_tables.get(id(arg))
                if memo is not None:
                    frozen.append(memo[1])
                    continue
                value = freeze_args(arg)
                if all(type(item) is ObjectHandle for item in arg):
                    self._frozen_tables[id(arg)] = (arg, value)
            else:
                value = freeze_args(arg)
            frozen.append(value)
        return tuple(frozen)

    def _retry_backoff(self, attempts: int) -> float:
        """Capped exponential backoff with seeded jitter (same stream
        and formula for every retryable abort cause) — the unified
        curve of :func:`repro.util.backoff.backoff_delay`, shared with
        the network retransmission timers and the failover reroute."""
        return backoff_delay(self.config.retry_backoff_s, attempts,
                             rng=self.rng)

    def _commit_root(self, root: Transaction):
        """Algorithm 4.3 (root commits) + 4.4, then protocol commit hook."""
        # Each copy and entry is resolved once (DESIGN §14): the copies
        # here, the entries by the release, which returns them.
        cached = self.stores[root.node].objects
        copies, resident = {}, {}
        for object_id in root.lock_objects:
            copy = cached.get(object_id)
            if copy is not None:
                copies[object_id] = copy
                resident[object_id] = dict(copy.page_versions)
        entries = yield from self.lockmgr.root_commit_release(root, resident)
        # Commit actions (the increment ledger's fold) run first, too.
        for action in root.commit_actions:
            action(root)
        # The committing site now holds the newest version of every
        # page it dirtied: stamp the local tags with the post-commit
        # versions before anyone can fetch from us.
        for object_id, pages in root.dirty.items():
            page_map = entries[object_id].page_map
            versions = copies[object_id].page_versions
            for page in pages:
                versions[page] = page_map[page].version
        self.protocol.on_root_commit(root, dict(root.dirty), self._meta_of)
        root.mark_committed()
        self._finalize_prediction_accounting(root)

    def _abort_root(self, root: Transaction):
        """Root abort: UNDO from local logs, release with no dirty info."""
        root.undo.apply(self.stores[root.node])
        root.dirty.clear()
        for action in root.abort_actions:
            action(root)
        yield from self.lockmgr.root_abort_release(root)
        root.mark_aborted()

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
        meta = self._meta_of(object_id)
        snapshot = yield from self.lockmgr.acquire(
            txn, meta.entry, LockMode.WRITE, prefetch=True
        )
        if snapshot is None:
            return
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
        shipped = yield from self.protocol.for_meta(meta).acquire_transfer(
            txn, meta, snapshot, prediction
        )
        if shipped:
            txn.root.transfer_log.setdefault(object_id, set()).update(shipped)

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
                 spec: MethodSpec, args: Tuple):
        """Run one invocation of ``spec`` (looked up by the caller) as
        transaction ``txn``."""
        meta = handle.meta
        method_name = spec.name
        if not txn.is_root:
            txn.label = method_name
        token = (self.tracer.txn_begin(txn)
                 if self.tracer.enabled and not txn.is_root else None)
        # The layout's memo, read in place; ``predict`` fills a miss.
        access = spec.access
        prediction = meta.layout.predictions.get((access.reads, access.writes))
        if prediction is None:
            prediction = predict(access, meta.layout)
        mode = LockMode.WRITE if access.writes else LockMode.READ
        increments = frozenset()
        if self.config.semantic_locks:
            mode = self.lockmgr.semantic_mode_for(meta.schema.name,
                                                  method_name, mode)
            if getattr(mode, "tag", None) is not None:
                increments = mode.table.methods[method_name].increment_attrs
        try:
            snapshot = yield from self.lockmgr.acquire(txn, meta.entry, mode)
            if snapshot is None:
                # A lock-only prefetch may have deferred this object's
                # data transfer to its first real use — now.
                snapshot = txn.root.prefetch_maps.pop(meta.object_id, None)
            if snapshot is not None:
                shipped = yield from self.protocol.for_meta(meta).acquire_transfer(
                    txn, meta, snapshot, prediction
                )
                if shipped:
                    txn.root.transfer_log.setdefault(
                        meta.object_id, set()).update(shipped)
            ctx = TxnContext(self, txn, meta, spec, increments)
            proxy = (meta.layout.proxy_class
                     or proxy_class(meta.layout))(ctx, meta)
            if spec.is_generator:
                # Driven in this frame: each yielded request runs as a
                # child; its result or exception goes back into the body.
                body = spec.func(proxy, ctx, *args)
                send_value = throw_exc = None
                while True:
                    try:
                        if throw_exc is not None:
                            item = body.throw(throw_exc)
                        else:
                            item = body.send(send_value)
                    except StopIteration as stop:
                        result = stop.value
                        break
                    send_value = throw_exc = None
                    if not isinstance(item, InvocationRequest):
                        body.close()
                        raise ConfigurationError(
                            f"method body yielded {item!r}; methods may "
                            f"only yield ctx.invoke(...) requests"
                        )
                    child = Transaction(
                        self.alloc.next_sub_txn(txn.id), txn.node,
                        parent=txn, label=item.spec.name,
                    )
                    try:
                        send_value = yield from self._execute(
                            child, item.handle, item.spec, item.args
                        )
                    except (DeadlockError, LockTimeoutError, NodeCrashError,
                            RecursiveInvocationError, ProtocolError):
                        # Family-fatal: not visible to user code.
                        body.close()
                        raise
                    except Exception as exc:  # noqa: BLE001 - to user code
                        # The parent may catch a child abort and retry
                        # (§3.2: "attempted re-execution").
                        throw_exc = exc
                    if txn.root.pending_delay > 0:
                        yield from self._flush_delay(txn)
            else:
                result = spec.func(proxy, ctx, *args)
            if txn.root.pending_delay > 0:
                yield from self._flush_delay(txn)
            if self.config.audit_accesses:
                self._record_audit(ctx, spec, meta)
        except (ProtocolError, GeneratorExit):
            raise
        except BaseException as exc:
            yield from self._abort_sub(txn)
            if self.tracer.enabled and not txn.is_root:
                reason = "deadlock" if isinstance(exc, DeadlockError) else "abort"
                self.tracer.txn_abort(token, txn, reason)
            raise
        if not txn.is_root:
            txn.precommit()
            self.lockmgr.precommit_release(txn)
            self.txn_stats.sub_commits += 1
            if self.tracer.enabled:
                self.tracer.txn_commit(token, txn)
        return result

    def _abort_sub(self, txn: Transaction):
        """Sub-transaction abort (Algorithm 4.3): local UNDO, then lock
        disposition.  Roots are handled by :meth:`_abort_root`."""
        if txn.is_root:
            return
        txn.undo.apply(self.stores[txn.node])
        txn.dirty.clear()
        for action in txn.abort_actions:
            action(txn)
        yield from self.lockmgr.sub_abort_release(txn)
        txn.mark_aborted()
        self.txn_stats.sub_aborts += 1

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def _record_audit(self, ctx: TxnContext, spec, meta) -> None:
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
        suite = self.protocol
        stats = suite.default.prediction_stats
        for object_id in root.transfer_log.keys() | root.touch_pages.keys():
            if suite.by_class:  # else every object is the default's
                stats = suite.for_meta(self._meta_of(object_id)).prediction_stats
            touched = root.touch_pages.get(object_id, ())
            stats.touched_pages += len(touched)
            shipped = root.transfer_log.get(object_id)
            if shipped:
                stats.over_predicted_pages += len(shipped.difference(touched))
