"""Virtual-clock tracing of every protocol decision.

A :class:`Tracer` turns the reproduction from a box that prints
end-of-run aggregates into a flight recorder: each transaction span,
lock grant, GDO forward, page gather, and network message is recorded
as a :class:`TraceEvent` stamped with the *simulation* clock.  Counts
are not kept here: the run's stats objects hold them
(:func:`~repro.runtime.record.run_record`).  The hooks feed a
:class:`~repro.obs.metrics.MetricsRegistry` only with what nothing else
measures: the active-transaction and GDO queue-depth gauges and the
latency and lock-wait histograms.

Tracing off is one branch at the call site: instrumented code asks
``tracer.enabled`` and calls a hook only when it is true.  The default
:class:`NullTracer` (shared :data:`NULL_TRACER` instance) is that
switch and nothing else — it defines no hooks, so :class:`Tracer` is
the one place a hook exists, and an untraced run pays one attribute
load per site, not a call.

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
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.obs.metrics import MetricsRegistry
from repro.util.ids import TypedId

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
        # Shallow: ``args`` is already JSON primitives (sanitize), and
        # no exporter, checker or the reference model mutates it.
        return {"ts": self.ts, "name": self.name, "category": self.category,
                "phase": self.phase, "dur": self.dur, "node": self.node,
                "track": self.track, "args": self.args}


def sanitize(value):
    """Reduce a value to JSON primitives, stably.

    Typed ids (``NodeId``/``ObjectId``/``TxnId``) use their compact
    ``repr`` (``N0``, ``O3``, ``T7/r2``); enums use their value; sets
    become sorted lists so output is deterministic.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, TypedId):  # an id is a tuple: test it first
        return repr(value)
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
    """The disabled tracer: a switch with no hooks.

    Every instrumented call site asks ``tracer.enabled`` before calling
    a hook, so this class defines none — an unguarded call fails with
    ``AttributeError`` on every untraced run, and ``tests/test_obs.py``
    checks statically that every call in ``repro`` is guarded.  The
    attributes below are what untraced code and reports may read.
    """

    enabled = False
    #: No events and no registry when disabled.
    events: tuple = ()
    metrics = None
    clock_kind = "virtual"


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


class Tracer:
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
        # Bound once: every transaction moves these two.
        self._txn_active = self.metrics.gauge("txn.active")
        self._txn_latency = self.metrics.histogram("txn.latency_s")
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
        self._txn_active.inc()
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
        self._txn_active.dec()
        if latency is not None:
            self._txn_latency.observe(latency)
        self.end(token, outcome="commit")

    def txn_abort(self, token, txn, reason):
        self._txn_active.dec()
        self.end(token, outcome="abort", reason=reason)

    # -- locking -----------------------------------------------------------

    def lock_granted(self, txn, object_id, mode, scope, info=None):
        self.instant(
            f"lock.grant {object_id!r}", CAT_LOCK, node=txn.node,
            track=f"family T{txn.id.root}",
            txn=txn.id, object=object_id, mode=mode, scope=scope,
            lineage=_lineage(txn),
            **(info or {}),
        )

    def lock_wait_begin(self, txn, object_id, mode):
        # Every wait is behind another family (GDO entry docstring).
        return self.begin(
            f"lock.wait {object_id!r}", CAT_LOCK, node=txn.node,
            track=f"family T{txn.id.root}",
            txn=txn.id, object=object_id, mode=mode, scope="global",
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
        self.instant(
            "lock.inherit", CAT_LOCK, node=txn.node,
            track=f"family T{txn.id.root}",
            txn=txn.id, parent=parent.id, objects=object_ids,
            lineage=_lineage(txn),
        )

    def lock_released(self, node, root_serial, object_ids, cause):
        self.instant(
            "lock.release", CAT_LOCK, node=node,
            track=f"family T{root_serial}",
            root=root_serial, objects=object_ids, cause=cause,
        )

    def lock_prefetch(self, txn, object_id, granted, mode=None):
        outcome = "granted" if granted else "denied"
        self.instant(
            f"lock.prefetch {object_id!r}", CAT_LOCK, node=txn.node,
            track=f"family T{txn.id.root}",
            txn=txn.id, object=object_id, outcome=outcome, mode=mode,
            lineage=_lineage(txn),
        )

    def deadlock(self, victim_root, cycle):
        self.instant(
            "lock.deadlock", CAT_LOCK,
            victim=victim_root, cycle=list(cycle),
        )

    # -- GDO ---------------------------------------------------------------

    def gdo_register(self, object_id, home_node, page_count):
        self.instant(
            f"gdo.register {object_id!r}", CAT_GDO, node=home_node,
            track="gdo", object=object_id, pages=page_count,
        )

    def gdo_forward(self, node, home_node, object_id):
        self.instant(
            f"gdo.forward {object_id!r}", CAT_GDO, node=node,
            track="gdo", object=object_id, home=home_node,
        )

    def gdo_migrate(self, object_id, old_home, new_home):
        self.instant(
            f"gdo.migrate {object_id!r}", CAT_GDO, node=new_home,
            track="gdo", object=object_id, old_home=old_home,
            new_home=new_home,
        )

    def gdo_request_forwarded(self, object_id, old_home, new_home):
        """A lock request (or release) raced a home move and took one
        extra forwarding hop from the stale home to the new one."""
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
        self.end(token, shipped=shipped, data_bytes=data_bytes)

    def transfer_install(self, node, object_id, pages, cause, delivered_at,
                         versions=None):
        """Pages entered the acquiring store — strictly after the last
        ``PAGE_DATA`` delivery event of the gather that carried them;
        ``delivered_at`` records those responses' delivery instants and
        ``versions`` the installed per-page versions (the stale-install
        invariant checker's input)."""
        self.instant(
            f"transfer.install {object_id!r}", CAT_TRANSFER, node=node,
            track=f"gather {object_id!r}",
            object=object_id, pages=pages, cause=cause,
            delivered_at=delivered_at, versions=versions,
        )

    def demand_fetch(self, node, object_id, pages, shipped, data_bytes,
                     is_write, delay, versions=None):
        self.instant(
            f"transfer.demand {object_id!r}", CAT_TRANSFER, node=node,
            track=f"gather {object_id!r}",
            object=object_id, pages=pages, shipped=shipped,
            data_bytes=data_bytes, write=is_write, deferred_delay=delay,
            versions=versions,
        )

    def prediction(self, node, object_id, predicted, wanted, shipped):
        self.instant(
            f"transfer.prediction {object_id!r}", CAT_TRANSFER, node=node,
            track=f"gather {object_id!r}",
            object=object_id, predicted=predicted, wanted=wanted,
            shipped=shipped,
        )

    def update_push(self, node, object_id, pages, data_bytes, replicas,
                    versions=None):
        self.instant(
            f"transfer.push {object_id!r}", CAT_TRANSFER, node=node,
            track=f"gather {object_id!r}",
            object=object_id, pages=pages, data_bytes=data_bytes,
            replicas=replicas, versions=versions,
        )

    # -- network -----------------------------------------------------------

    def message(self, message, transfer_time):
        category = message.category.value
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
        self.instant(
            f"fault.drop msg:{category}", CAT_FAULT, node=message.src,
            track=f"net to N{message.dst.value}",
            msg_category=category, dst=message.dst, attempt=attempt,
            object=message.object_id,
        )

    def fault_retransmit(self, message, attempt):
        category = message.category.value
        self.instant(
            f"fault.retransmit msg:{category}", CAT_FAULT, node=message.src,
            track=f"net to N{message.dst.value}",
            msg_category=category, dst=message.dst, attempt=attempt,
            object=message.object_id,
        )

    def fault_duplicate(self, message):
        category = message.category.value
        self.instant(
            f"fault.duplicate msg:{category}", CAT_FAULT, node=message.src,
            track=f"net to N{message.dst.value}",
            msg_category=category, dst=message.dst,
            object=message.object_id,
        )

    def fault_delay(self, message, extra_s):
        self.instant(
            f"fault.delay msg:{message.category.value}", CAT_FAULT,
            node=message.src, track=f"net to N{message.dst.value}",
            msg_category=message.category, dst=message.dst, extra_s=extra_s,
            object=message.object_id,
        )

    def lock_timeout(self, txn, object_id, waited_s):
        self.instant(
            f"fault.lock_timeout {object_id!r}", CAT_FAULT, node=txn.node,
            track=f"family T{txn.id.root}",
            txn=txn.id, object=object_id, waited_s=waited_s,
        )

    def node_crash(self, node_index, down_for_s):
        self.instant(
            f"fault.node_crash N{node_index}", CAT_FAULT,
            crashed_node=node_index, down_for_s=down_for_s,
        )

    def node_recover(self, node_index):
        self.instant(
            f"fault.node_recover N{node_index}", CAT_FAULT,
            recovered_node=node_index,
        )

    def crash_abort(self, node_index, root_serial):
        self.instant(
            f"fault.crash_abort T{root_serial}", CAT_FAULT,
            track=f"family T{root_serial}",
            crashed_node=node_index, root=root_serial,
        )

    def crash_cache_invalidate(self, node_index, count):
        self.instant(
            f"fault.cache_invalidate N{node_index}", CAT_FAULT,
            crashed_node=node_index, entries=count,
        )

    def partition_start(self, group_a, heal_after_s):
        self.instant(
            f"fault.partition {list(group_a)}", CAT_FAULT,
            group_a=list(group_a), heal_after_s=heal_after_s,
        )

    def partition_heal(self, group_a):
        self.instant(
            f"fault.partition_heal {list(group_a)}", CAT_FAULT,
            group_a=list(group_a),
        )

    def gdo_failover(self, object_id, old_home, new_home):
        self.instant(
            f"gdo.failover {object_id!r}", CAT_GDO, node=new_home,
            object=object_id, old_home=old_home, new_home=new_home,
        )

    def node_rejoin(self, node_index, replayed, reclaimed, discarded):
        self.instant(
            f"fault.node_rejoin N{node_index}", CAT_FAULT,
            rejoined_node=node_index, replayed=replayed,
            reclaimed=reclaimed, discarded=discarded,
        )
