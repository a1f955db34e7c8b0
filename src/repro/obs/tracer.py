"""Virtual-clock tracing of every protocol decision.

A :class:`Tracer` turns the reproduction from a box that prints
end-of-run aggregates into a flight recorder: each transaction span,
lock grant, GDO forward, page gather, and network message is recorded
as a :class:`TraceEvent` stamped with the *simulation* clock, and the
same call sites feed a :class:`~repro.obs.metrics.MetricsRegistry` so
aggregates never drift from the event stream.

Instrumented code never checks "is tracing on?": it unconditionally
calls methods on whatever tracer it was wired with, and the default
:class:`NullTracer` (shared :data:`NULL_TRACER` instance) makes every
such call a no-op attribute lookup plus an empty function — cheap
enough to leave in the hottest paths (per-message accounting, lock
grants).

Two event shapes exist, mirroring Chrome's ``trace_event`` model:

* **spans** (``phase "X"``) carry a duration — transactions, lock
  waits, page gathers, message occupancy;
* **instants** (``phase "i"``) are point decisions — grants, releases,
  demand fetches, deadlock victims.

Spans are recorded at *end* time via begin/end tokens, so interleaved
simulation processes can hold concurrent open spans without any
thread-local context.
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.obs.metrics import MetricsRegistry

#: Event categories, used as the Chrome ``cat`` field and for filtering.
CAT_TXN = "txn"
CAT_LOCK = "lock"
CAT_GDO = "gdo"
CAT_TRANSFER = "transfer"
CAT_NET = "net"
CAT_SIM = "sim"
CAT_FAULT = "fault"


@dataclass
class TraceEvent:
    """One recorded event; all fields are JSON-primitive after
    :func:`sanitize` so JSONL round-trips reproduce the event exactly."""

    ts: float               # virtual seconds at the event (span start)
    name: str
    category: str
    phase: str              # "X" (complete span) or "i" (instant)
    dur: float = 0.0        # virtual seconds; 0 for instants
    node: Optional[int] = None   # NodeId.value; None = cluster-wide
    track: str = ""         # sub-node grouping (maps to a Chrome tid)
    args: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


def sanitize(value):
    """Reduce a value to JSON primitives, stably.

    Typed ids (``NodeId``/``ObjectId``/``TxnId``) use their compact
    ``repr`` (``N0``, ``O3``, ``T7/r2``); enums use their value; sets
    become sorted lists so output is deterministic.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, enum.Enum):
        return sanitize(value.value)
    if isinstance(value, dict):
        return {str(key): sanitize(val) for key, val in value.items()}
    if isinstance(value, (set, frozenset)):
        return sorted(sanitize(item) for item in value)
    if isinstance(value, (list, tuple)):
        return [sanitize(item) for item in value]
    return repr(value)


class NullTracer:
    """The disabled tracer: every hook is an explicit no-op.

    There is no ``__getattr__`` fallback: a misspelt or not-yet-stubbed
    hook fails with tracing off exactly as it does with tracing on, and
    ``tests/test_obs.py`` pins this class's hook names and signatures
    equal to :class:`Tracer`'s.
    """

    enabled = False
    #: No events and no registry when disabled; :class:`Tracer`
    #: overrides both with real per-instance state.
    events: tuple = ()
    metrics = None
    clock_kind = "virtual"

    # -- generic recording -------------------------------------------------

    def instant(self, name, category, node=None, track="", **args):
        pass

    def begin(self, name, category, node=None, track="", **args):
        return None

    def end(self, token, **args):
        pass

    # -- domain hooks ------------------------------------------------------

    def txn_begin(self, txn):
        return None

    def txn_commit(self, token, txn, latency=None):
        pass

    def txn_abort(self, token, txn, reason):
        pass

    def lock_granted(self, txn, object_id, mode, scope, info=None):
        pass

    def lock_wait_begin(self, txn, object_id, mode, scope):
        return None

    def lock_wait_end(self, token, ok=True):
        pass

    def lock_inherited(self, txn, parent, object_ids):
        pass

    def lock_released(self, node, root_serial, object_ids, cause):
        pass

    def lock_prefetch(self, txn, object_id, granted, mode=None):
        pass

    def deadlock(self, victim_root, cycle):
        pass

    def gdo_register(self, object_id, home_node, page_count):
        pass

    def gdo_forward(self, node, home_node, object_id):
        pass

    def gdo_migrate(self, object_id, old_home, new_home):
        pass

    def gdo_request_forwarded(self, object_id, old_home, new_home):
        pass

    def gdo_request_latency(self, shard, seconds):
        pass

    def gdo_queue_depth(self, shard, delta):
        pass

    def transfer_begin(self, node, object_id, cause, requested):
        return None

    def transfer_end(self, token, cause, shipped, data_bytes):
        pass

    def transfer_install(self, node, object_id, pages, cause, delivered_at,
                         versions=None):
        pass

    def demand_fetch(self, node, object_id, pages, shipped, data_bytes,
                     is_write, delay, versions=None):
        pass

    def prediction(self, node, object_id, predicted, wanted, shipped):
        pass

    def update_push(self, node, object_id, pages, data_bytes, replicas,
                    versions=None):
        pass

    def message(self, message, transfer_time):
        pass

    # -- fault injection ---------------------------------------------------

    def fault_drop(self, message, attempt):
        pass

    def fault_retransmit(self, message, attempt):
        pass

    def fault_duplicate(self, message):
        pass

    def fault_delay(self, message, extra_s):
        pass

    def lock_timeout(self, txn, object_id, waited_s):
        pass

    def node_crash(self, node_index, down_for_s):
        pass

    def node_recover(self, node_index):
        pass

    def crash_abort(self, node_index, root_serial):
        pass

    def crash_cache_invalidate(self, node_index, count):
        pass

    def partition_start(self, group_a, heal_after_s):
        pass

    def partition_heal(self, group_a):
        pass

    def gdo_failover(self, object_id, old_home, new_home):
        pass

    def node_rejoin(self, node_index, replayed, reclaimed, discarded):
        pass


def _lineage(txn):
    """Ancestor serials of a transaction, parent first, root last.

    Recorded on lock and transaction events so offline consumers (the
    ``repro.check`` reference model) can evaluate Moss's
    retainer-must-be-ancestor rule from the trace alone —
    :class:`~repro.util.ids.TxnId` itself carries only serial and root.
    """
    return [ancestor.id.serial for ancestor in txn.ancestors()]


#: Shared disabled tracer — the default everywhere a tracer is optional.
NULL_TRACER = NullTracer()


class Tracer(NullTracer):
    """Recording tracer bound to a clock.

    ``clock`` is any zero-argument callable returning the current time
    in seconds (typically ``lambda: env.now``).  ``clock_kind`` names
    the clock domain the timestamps live in — ``"virtual"`` (the DES
    clock, the default) or ``"wall"`` (real elapsed seconds, used with
    the TCP transport) — and is stamped into the JSONL trace header so
    post-hoc checkers know what ``ts`` means.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float],
                 metrics: Optional[MetricsRegistry] = None,
                 clock_kind: str = "virtual"):
        self._clock = clock
        self.clock_kind = clock_kind
        self.events: List[TraceEvent] = []
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._open: Dict[int, TraceEvent] = {}
        self._next_token = 0

    # -- generic recording -------------------------------------------------

    def instant(self, name, category, node=None, track="", **args):
        self.events.append(TraceEvent(
            ts=self._clock(), name=name, category=category, phase="i",
            node=None if node is None else node.value,
            track=track, args=sanitize(args),
        ))

    def begin(self, name, category, node=None, track="", **args):
        token = self._next_token
        self._next_token += 1
        self._open[token] = TraceEvent(
            ts=self._clock(), name=name, category=category, phase="X",
            node=None if node is None else node.value,
            track=track, args=sanitize(args),
        )
        return token

    def end(self, token, **args):
        event = self._open.pop(token, None)
        if event is None:
            return  # unmatched end (or end of a span begun while disabled)
        event.dur = self._clock() - event.ts
        if args:
            event.args.update(sanitize(args))
        self.events.append(event)

    # -- transactions ------------------------------------------------------

    def txn_begin(self, txn):
        self.metrics.gauge("txn.active").inc()
        if txn.is_root:
            # Spans are only recorded at their *end*, so a family
            # interrupted mid-flight (crash, stall) leaves no span —
            # this instant is the start-of-family evidence the
            # liveness checker keys on.
            self.instant(
                f"txn.start T{txn.id.root}", CAT_TXN, node=txn.node,
                track=f"family T{txn.id.root}",
                txn=txn.id, root=txn.id.root,
            )
        return self.begin(
            f"txn:{txn.label or txn.id!r}", CAT_TXN, node=txn.node,
            track=f"family T{txn.id.root}",
            lineage=_lineage(txn),
            **txn.trace_info(),
        )

    def txn_commit(self, token, txn, latency=None):
        self.metrics.gauge("txn.active").dec()
        kind = "root" if txn.is_root else "sub"
        self.metrics.counter("txn.commits", kind=kind).inc()
        if latency is not None:
            self.metrics.histogram("txn.latency_s").observe(latency)
        self.end(token, outcome="commit")

    def txn_abort(self, token, txn, reason):
        self.metrics.gauge("txn.active").dec()
        kind = "root" if txn.is_root else "sub"
        self.metrics.counter("txn.aborts", kind=kind, reason=reason).inc()
        self.end(token, outcome="abort", reason=reason)

    # -- locking -----------------------------------------------------------

    def lock_granted(self, txn, object_id, mode, scope, info=None):
        self.metrics.counter("lock.acquisitions", scope=scope).inc()
        self.instant(
            f"lock.grant {object_id!r}", CAT_LOCK, node=txn.node,
            track=f"family T{txn.id.root}",
            txn=txn.id, object=object_id, mode=mode, scope=scope,
            lineage=_lineage(txn),
            **(info or {}),
        )

    def lock_wait_begin(self, txn, object_id, mode, scope):
        self.metrics.counter("lock.waits", scope=scope).inc()
        return self.begin(
            f"lock.wait {object_id!r}", CAT_LOCK, node=txn.node,
            track=f"family T{txn.id.root}",
            txn=txn.id, object=object_id, mode=mode, scope=scope,
            lineage=_lineage(txn),
        )

    def lock_wait_end(self, token, ok=True):
        event = self._open.get(token)
        if event is not None:
            self.metrics.histogram("lock.wait_s").observe(
                self._clock() - event.ts
            )
        self.end(token, granted=ok)

    def lock_inherited(self, txn, parent, object_ids):
        self.metrics.counter("lock.inherits").inc(len(object_ids))
        self.instant(
            "lock.inherit", CAT_LOCK, node=txn.node,
            track=f"family T{txn.id.root}",
            txn=txn.id, parent=parent.id, objects=object_ids,
            lineage=_lineage(txn),
        )

    def lock_released(self, node, root_serial, object_ids, cause):
        self.metrics.counter("lock.releases", cause=cause).inc(len(object_ids))
        self.instant(
            "lock.release", CAT_LOCK, node=node,
            track=f"family T{root_serial}",
            root=root_serial, objects=object_ids, cause=cause,
        )

    def lock_prefetch(self, txn, object_id, granted, mode=None):
        outcome = "granted" if granted else "denied"
        self.metrics.counter("lock.prefetch", outcome=outcome).inc()
        self.instant(
            f"lock.prefetch {object_id!r}", CAT_LOCK, node=txn.node,
            track=f"family T{txn.id.root}",
            txn=txn.id, object=object_id, outcome=outcome, mode=mode,
            lineage=_lineage(txn),
        )

    def deadlock(self, victim_root, cycle):
        self.metrics.counter("lock.deadlocks").inc()
        self.instant(
            "lock.deadlock", CAT_LOCK,
            victim=victim_root, cycle=list(cycle),
        )

    # -- GDO ---------------------------------------------------------------

    def gdo_register(self, object_id, home_node, page_count):
        self.metrics.counter("gdo.registrations").inc()
        self.instant(
            f"gdo.register {object_id!r}", CAT_GDO, node=home_node,
            track="gdo", object=object_id, pages=page_count,
        )

    def gdo_forward(self, node, home_node, object_id):
        self.metrics.counter("gdo.forwards").inc()
        self.instant(
            f"gdo.forward {object_id!r}", CAT_GDO, node=node,
            track="gdo", object=object_id, home=home_node,
        )

    def gdo_migrate(self, object_id, old_home, new_home):
        self.metrics.counter("gdo.migrations").inc()
        self.instant(
            f"gdo.migrate {object_id!r}", CAT_GDO, node=new_home,
            track="gdo", object=object_id, old_home=old_home,
            new_home=new_home,
        )

    def gdo_request_forwarded(self, object_id, old_home, new_home):
        """A lock request (or release) raced a home move and took one
        extra forwarding hop from the stale home to the new one."""
        self.metrics.counter("gdo.request_forwards").inc()
        self.instant(
            f"gdo.request_forward {object_id!r}", CAT_GDO, node=old_home,
            track="gdo", object=object_id, old_home=old_home,
            new_home=new_home,
        )

    def gdo_request_latency(self, shard, seconds):
        """Completed global acquisition, attributed to the home shard
        that served it (the per-shard SLO tables' input)."""
        self.metrics.histogram(
            "gdo.request_latency_s", shard=shard.value
        ).observe(seconds)

    def gdo_queue_depth(self, shard, delta):
        gauge = self.metrics.gauge("gdo.queue_depth", shard=shard.value)
        if delta >= 0:
            gauge.inc(delta)
        else:
            gauge.dec(-delta)

    # -- data transfer -----------------------------------------------------

    def transfer_begin(self, node, object_id, cause, requested):
        return self.begin(
            f"transfer.gather {object_id!r}", CAT_TRANSFER, node=node,
            track=f"gather {object_id!r}",
            object=object_id, cause=cause, requested=requested,
        )

    def transfer_end(self, token, cause, shipped, data_bytes):
        self.metrics.counter("transfer.bytes", cause=cause).inc(data_bytes)
        self.metrics.counter("transfer.pages", cause=cause).inc(len(shipped))
        self.end(token, shipped=shipped, data_bytes=data_bytes)

    def transfer_install(self, node, object_id, pages, cause, delivered_at,
                         versions=None):
        """Pages entered the acquiring store — strictly after the last
        ``PAGE_DATA`` delivery event of the gather that carried them;
        ``delivered_at`` records those responses' delivery instants and
        ``versions`` the installed per-page versions (the stale-install
        invariant checker's input)."""
        self.metrics.counter("transfer.installs", cause=cause).inc()
        self.instant(
            f"transfer.install {object_id!r}", CAT_TRANSFER, node=node,
            track=f"gather {object_id!r}",
            object=object_id, pages=pages, cause=cause,
            delivered_at=delivered_at, versions=versions,
        )

    def demand_fetch(self, node, object_id, pages, shipped, data_bytes,
                     is_write, delay, versions=None):
        self.metrics.counter("transfer.bytes", cause="demand").inc(data_bytes)
        self.metrics.counter("transfer.pages", cause="demand").inc(len(shipped))
        self.metrics.counter("predict.demand_pages").inc(len(shipped))
        self.instant(
            f"transfer.demand {object_id!r}", CAT_TRANSFER, node=node,
            track=f"gather {object_id!r}",
            object=object_id, pages=pages, shipped=shipped,
            data_bytes=data_bytes, write=is_write, deferred_delay=delay,
            versions=versions,
        )

    def prediction(self, node, object_id, predicted, wanted, shipped):
        self.metrics.counter("predict.predicted_pages").inc(len(predicted))
        self.metrics.counter("predict.shipped_pages").inc(len(shipped))
        self.instant(
            f"transfer.prediction {object_id!r}", CAT_TRANSFER, node=node,
            track=f"gather {object_id!r}",
            object=object_id, predicted=predicted, wanted=wanted,
            shipped=shipped,
        )

    def update_push(self, node, object_id, pages, data_bytes, replicas,
                    versions=None):
        self.metrics.counter("transfer.bytes", cause="push").inc(data_bytes)
        self.metrics.counter("transfer.pages", cause="push").inc(len(pages))
        self.instant(
            f"transfer.push {object_id!r}", CAT_TRANSFER, node=node,
            track=f"gather {object_id!r}",
            object=object_id, pages=pages, data_bytes=data_bytes,
            replicas=replicas, versions=versions,
        )

    # -- network -----------------------------------------------------------

    def message(self, message, transfer_time):
        category = message.category.value
        self.metrics.counter("net.bytes", category=category).inc(
            message.size_bytes
        )
        self.metrics.counter("net.messages", category=category).inc()
        self.metrics.counter(
            "net.sent_bytes", node=message.src.value
        ).inc(message.size_bytes)
        self.metrics.counter(
            "net.received_bytes", node=message.dst.value
        ).inc(message.size_bytes)
        args = {
            "category": category, "src": message.src,
            "dst": message.dst, "bytes": message.size_bytes,
            "object": message.object_id,
        }
        # Stamped with the clock, not message.send_time: send_time is
        # pinned to the first attempt, while this event records the
        # wire occupancy of the *current* attempt.
        self.events.append(TraceEvent(
            ts=self._clock(), name=f"msg:{category}", category=CAT_NET,
            phase="X", dur=transfer_time, node=message.src.value,
            track=f"net to N{message.dst.value}",
            args=sanitize(args),
        ))

    # -- fault injection ---------------------------------------------------

    def fault_drop(self, message, attempt):
        category = message.category.value
        self.metrics.counter("fault.drops", category=category).inc()
        self.instant(
            f"fault.drop msg:{category}", CAT_FAULT, node=message.src,
            track=f"net to N{message.dst.value}",
            msg_category=category, dst=message.dst, attempt=attempt,
            object=message.object_id,
        )

    def fault_retransmit(self, message, attempt):
        category = message.category.value
        self.metrics.counter("fault.retransmissions", category=category).inc()
        self.instant(
            f"fault.retransmit msg:{category}", CAT_FAULT, node=message.src,
            track=f"net to N{message.dst.value}",
            msg_category=category, dst=message.dst, attempt=attempt,
            object=message.object_id,
        )

    def fault_duplicate(self, message):
        category = message.category.value
        self.metrics.counter("fault.duplicates", category=category).inc()
        self.instant(
            f"fault.duplicate msg:{category}", CAT_FAULT, node=message.src,
            track=f"net to N{message.dst.value}",
            msg_category=category, dst=message.dst,
            object=message.object_id,
        )

    def fault_delay(self, message, extra_s):
        self.metrics.counter("fault.delay_s").inc(extra_s)
        self.instant(
            f"fault.delay msg:{message.category.value}", CAT_FAULT,
            node=message.src, track=f"net to N{message.dst.value}",
            msg_category=message.category, dst=message.dst, extra_s=extra_s,
            object=message.object_id,
        )

    def lock_timeout(self, txn, object_id, waited_s):
        self.metrics.counter("fault.lock_timeouts").inc()
        self.instant(
            f"fault.lock_timeout {object_id!r}", CAT_FAULT, node=txn.node,
            track=f"family T{txn.id.root}",
            txn=txn.id, object=object_id, waited_s=waited_s,
        )

    def node_crash(self, node_index, down_for_s):
        self.metrics.counter("fault.crashes").inc()
        self.instant(
            f"fault.node_crash N{node_index}", CAT_FAULT,
            crashed_node=node_index, down_for_s=down_for_s,
        )

    def node_recover(self, node_index):
        self.metrics.counter("fault.recoveries").inc()
        self.instant(
            f"fault.node_recover N{node_index}", CAT_FAULT,
            recovered_node=node_index,
        )

    def crash_abort(self, node_index, root_serial):
        self.metrics.counter("fault.crash_aborts").inc()
        self.instant(
            f"fault.crash_abort T{root_serial}", CAT_FAULT,
            track=f"family T{root_serial}",
            crashed_node=node_index, root=root_serial,
        )

    def crash_cache_invalidate(self, node_index, count):
        self.metrics.counter("fault.cache_invalidations").inc(count)
        self.instant(
            f"fault.cache_invalidate N{node_index}", CAT_FAULT,
            crashed_node=node_index, entries=count,
        )

    def partition_start(self, group_a, heal_after_s):
        self.metrics.counter("fault.partitions").inc()
        self.instant(
            f"fault.partition {list(group_a)}", CAT_FAULT,
            group_a=list(group_a), heal_after_s=heal_after_s,
        )

    def partition_heal(self, group_a):
        self.metrics.counter("fault.partition_heals").inc()
        self.instant(
            f"fault.partition_heal {list(group_a)}", CAT_FAULT,
            group_a=list(group_a),
        )

    def gdo_failover(self, object_id, old_home, new_home):
        self.metrics.counter("fault.failovers").inc()
        self.instant(
            f"gdo.failover {object_id!r}", CAT_GDO, node=new_home,
            object=object_id, old_home=old_home, new_home=new_home,
        )

    def node_rejoin(self, node_index, replayed, reclaimed, discarded):
        self.metrics.counter("fault.rejoins").inc()
        self.instant(
            f"fault.node_rejoin N{node_index}", CAT_FAULT,
            rejoined_node=node_index, replayed=replayed,
            reclaimed=reclaimed, discarded=discarded,
        )
