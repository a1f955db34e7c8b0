"""Tests for the observability subsystem (:mod:`repro.obs`): metrics
registry, virtual-clock tracer, exporters, the run summary, and the
completeness of the trace: its events carry every byte and message
:class:`NetworkStats` counted."""

import ast
import functools
import inspect
import json
import textwrap
from pathlib import Path

import pytest

import repro
from repro import Attr, Cluster, ClusterConfig, method, shared_class
from repro.obs import (
    MetricsRegistry,
    NULL_TRACER,
    NullTracer,
    TraceEvent,
    Tracer,
    chrome_trace,
    events_to_jsonl,
    read_jsonl,
    render_summary,
    sanitize,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import Gauge, Histogram
from repro.runtime import run_record
from repro.workload import SCENARIOS, generate_workload, run_workload
from repro.util.ids import NodeId, ObjectId, TxnId

from conftest import summary_rows


# ---------------------------------------------------------------------------
# Metrics instruments
# ---------------------------------------------------------------------------

class TestInstruments:
    def test_gauge_tracks_high_water(self):
        gauge = Gauge()
        gauge.inc()
        gauge.inc()
        gauge.dec()
        gauge.inc()
        assert gauge.value == 2
        assert gauge.high_water == 2
        gauge.set(10)
        gauge.dec(10)
        assert gauge.value == 0
        assert gauge.high_water == 10

    def test_histogram_buckets_and_stats(self):
        hist = Histogram(buckets=(0.001, 0.1, 1.0))
        for value in (0.0005, 0.05, 0.5, 5.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.counts == [1, 1, 1, 1]  # one overflow
        assert hist.mean == pytest.approx(5.5505 / 4)
        assert hist.min == pytest.approx(0.0005)
        assert hist.max == pytest.approx(5.0)

    def test_histogram_empty_snapshot(self):
        assert Histogram().snapshot() == {
            "count": 0, "total": 0.0, "mean": 0.0,
        }

    def test_histogram_snapshot_omits_empty_buckets(self):
        hist = Histogram(buckets=(1.0, 2.0))
        hist.observe(0.5)
        snap = hist.snapshot()
        assert snap["buckets"] == {"1.0": 1}
        assert snap["overflow"] == 0


class TestMetricsRegistry:
    def test_instruments_created_on_demand_and_cached(self):
        registry = MetricsRegistry()
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.gauge("g", k="x") is not registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")

    def test_label_order_is_irrelevant(self):
        registry = MetricsRegistry()
        assert registry.histogram("h", x=1, y=2) is registry.histogram(
            "h", y=2, x=1
        )
        assert registry.gauge("g", x=1, y=2) is registry.gauge(
            "g", y=2, x=1
        )

    def test_snapshot_is_json_ready(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(2)
        registry.gauge("q", shard=1).set(3)
        registry.histogram("h").observe(0.5)
        snap = registry.snapshot()
        json.dumps(snap)  # must not raise
        assert set(snap) == {"gauges", "histograms"}
        assert snap["gauges"]["q"]["shard=1"]["value"] == 3
        assert snap["gauges"]["g"]["total"]["high_water"] == 2
        assert snap["histograms"]["h"]["total"]["count"] == 1

    def test_registry_survives_pickling(self):
        import pickle

        registry = MetricsRegistry()
        registry.gauge("g").inc(3)
        registry.histogram("h").observe(0.5)
        clone = pickle.loads(pickle.dumps(registry))
        assert clone.gauge("g").value == 3
        assert clone.snapshot() == registry.snapshot()


# ---------------------------------------------------------------------------
# Tracer core
# ---------------------------------------------------------------------------

class TestSanitize:
    def test_primitives_pass_through(self):
        assert sanitize(None) is None
        assert sanitize(3) == 3
        assert sanitize("x") == "x"
        assert sanitize(True) is True

    def test_ids_use_compact_repr(self):
        assert sanitize(NodeId(2)) == "N2"
        assert sanitize(ObjectId(3)) == "O3"
        assert sanitize(TxnId(serial=7, root=2)) == repr(TxnId(serial=7,
                                                             root=2))

    def test_sets_become_sorted_lists(self):
        assert sanitize({3, 1, 2}) == [1, 2, 3]

    def test_nested_containers(self):
        value = {"k": (NodeId(0), [ObjectId(1)])}
        assert sanitize(value) == {"k": ["N0", ["O1"]]}

    def test_ids_nested_anywhere_render_as_reprs(self):
        """Ids are tuples: sanitize must not export them as lists."""
        value = {NodeId(4): [TxnId(serial=9, root=4)],
                 "s": {ObjectId(2), ObjectId(1)}}
        assert sanitize(value) == {"N4": ["T9/r4"], "s": ["O1", "O2"]}


class TestTracerCore:
    def make(self):
        clock = [0.0]
        tracer = Tracer(clock=lambda: clock[0])
        return clock, tracer

    def test_instant_stamps_virtual_clock(self):
        clock, tracer = self.make()
        clock[0] = 1.25
        tracer.instant("tick", "sim", node=NodeId(3), detail=7)
        (event,) = tracer.events
        assert event.ts == 1.25
        assert event.phase == "i"
        assert event.node == 3
        assert event.args == {"detail": 7}

    def test_span_duration_from_begin_end(self):
        clock, tracer = self.make()
        token = tracer.begin("work", "sim")
        clock[0] = 2.0
        tracer.end(token, outcome="done")
        (event,) = tracer.events
        assert event.phase == "X"
        assert event.ts == 0.0
        assert event.dur == 2.0
        assert event.args["outcome"] == "done"

    def test_interleaved_spans_use_tokens(self):
        clock, tracer = self.make()
        first = tracer.begin("a", "sim")
        clock[0] = 1.0
        second = tracer.begin("b", "sim")
        clock[0] = 3.0
        tracer.end(first)
        clock[0] = 4.0
        tracer.end(second)
        by_name = {event.name: event for event in tracer.events}
        assert by_name["a"].dur == 3.0
        assert by_name["b"].dur == 3.0

    def test_unmatched_end_is_ignored(self):
        _, tracer = self.make()
        tracer.end(None)
        tracer.end(999)
        assert tracer.events == []

    def test_tracer_owns_a_registry_by_default(self):
        _, tracer = self.make()
        assert isinstance(tracer.metrics, MetricsRegistry)


def _owned_by(node, owner):
    """``owner`` or ``<x>.owner``."""
    return ((isinstance(node, ast.Name) and node.id == owner)
            or (isinstance(node, ast.Attribute) and node.attr == owner))


def _reads_enabled(node, aliases):
    return any(
        (isinstance(sub, ast.Attribute) and sub.attr == "enabled")
        or (isinstance(sub, ast.Name) and sub.id in aliases)
        for sub in ast.walk(node)
    )


def _tests_wal(node, aliases):
    """``wal is not None`` or ``<x>.wal is not None``."""
    return any(
        isinstance(sub, ast.Compare) and _owned_by(sub.left, "wal")
        and isinstance(sub.ops[0], ast.IsNot)
        and isinstance(sub.comparators[0], ast.Constant)
        and sub.comparators[0].value is None
        for sub in ast.walk(node)
    )


def _reads_faults_on(node, aliases):
    # The WAL exists only when crashes are planned, so a ``wal is not
    # None`` branch is a faults-on branch too.
    return _reads_enabled(node, aliases) or _tests_wal(node, aliases)


def guarded_calls(tree, owner, guard):
    """``(line, method, guarded)`` for every ``owner.<method>(...)`` or
    ``<x>.owner.<method>(...)`` call.  Guarded means under an ``if`` (or
    ``... if ... else``) whose test passes ``guard``, directly or through
    a local alias assigned from such a test, or after such a test in an
    ``and``, or inside a function that every call in the module makes
    from a guarded position."""
    parents = {child: node for node in ast.walk(tree)
               for child in ast.iter_child_nodes(node)}
    callers = {}
    for call in ast.walk(tree):
        if isinstance(call, ast.Call):
            func = call.func
            name = (func.attr if isinstance(func, ast.Attribute)
                    else getattr(func, "id", None))
            callers.setdefault(name, []).append(call)
    verdicts, scope_aliases = {}, {}

    def guarded(node):
        chain = [node]
        while not isinstance(chain[-1], (ast.FunctionDef, ast.Module)):
            chain.append(parents[chain[-1]])
        scope = chain[-1]
        if scope not in scope_aliases:
            scope_aliases[scope] = {
                target.id for assign in ast.walk(scope)
                if isinstance(assign, ast.Assign)
                and guard(assign.value, ())
                for target in assign.targets
                if isinstance(target, ast.Name)
            }
        aliases = scope_aliases[scope]
        if any(
            (isinstance(parent, ast.If) and child in parent.body
             or isinstance(parent, ast.IfExp) and child is parent.body)
            and guard(parent.test, aliases)
            or isinstance(parent, ast.BoolOp)
            and isinstance(parent.op, ast.And)
            and any(guard(value, aliases)
                    for value in parent.values[:parent.values.index(child)])
            for child, parent in zip(chain, chain[1:])
        ):
            return True
        if not isinstance(scope, ast.FunctionDef):
            return False
        if scope not in verdicts:
            verdicts[scope] = False  # a recursive call guards nothing
            sites = callers.get(scope.name, [])
            verdicts[scope] = bool(sites) and all(map(guarded, sites))
        return verdicts[scope]

    for call in ast.walk(tree):
        if (isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and _owned_by(call.func.value, owner)):
            yield call.lineno, call.func.attr, guarded(call)


@functools.lru_cache(maxsize=None)
def parsed_modules():
    """``(path, tree)`` for every module of ``repro``, parsed once for
    all the static checks below."""
    root = Path(repro.__file__).parent
    return tuple((path, ast.parse(path.read_text()))
                 for path in sorted(root.rglob("*.py")))


def hook_calls(tree):
    """``tracer.<hook>(...)`` calls; guarded means under a branch that
    reads ``.enabled``."""
    return guarded_calls(tree, "tracer", _reads_enabled)


def fault_calls(tree):
    """``injector.<query>(...)`` and ``wal.<write>(...)`` calls as
    ``(line, call, guarded)``: a query must sit under a faults-on branch
    (``.enabled``, or ``wal is not None``), a write under a ``wal is not
    None`` branch."""
    for line, query, ok in guarded_calls(tree, "injector", _reads_faults_on):
        yield line, f"injector.{query}", ok
    for line, write, ok in guarded_calls(tree, "wal", _tests_wal):
        if write.startswith("record_"):
            yield line, f"wal.{write}", ok


class TestNullTracer:
    def test_all_hooks_are_noops(self):
        # Tracing off is the call site's ``tracer.enabled`` branch, so an
        # untraced run leaves the null tracer exactly as it found it.
        cluster = Cluster(ClusterConfig(num_nodes=4, protocol="lotec", seed=3))
        leaves = [cluster.create(Leaf) for _ in range(6)]
        root = cluster.create(Root)
        for index in range(24):
            cluster.submit(leaves[index % 6], "bump")
        cluster.run()
        assert cluster.call(root, "sweep", leaves) == 24
        assert cluster.tracer is NULL_TRACER
        assert cluster.trace_events == ()
        assert vars(NULL_TRACER) == {}
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.events == ()
        assert NULL_TRACER.metrics is None
        assert NULL_TRACER.clock_kind == "virtual"
        with pytest.raises(AttributeError):
            NULL_TRACER.some_misspelt_hook  # no fallback: loud when off

    def test_hook_sets_match_tracer(self):
        # Hooks exist on ``Tracer`` only: a stub on the null tracer would
        # be a second copy to keep equal, and a call site naming a hook
        # ``Tracer`` lacks would fail only with tracing on.
        hooks = {name for name, value in vars(Tracer).items()
                 if inspect.isfunction(value) and not name.startswith("_")}
        assert {"txn_begin", "message", "node_rejoin"} <= hooks
        assert sorted(name for name in hooks
                      if hasattr(NULL_TRACER, name)) == []
        assert not issubclass(Tracer, NullTracer)
        called = {hook for _, tree in parsed_modules()
                  for _, hook, _ in hook_calls(tree)}
        assert {"begin", "end", "txn_begin"} <= called
        assert sorted(called - hooks) == []

    def test_every_hook_call_in_repro_is_guarded(self):
        """Statically, so fault and failover paths no untraced test
        reaches are held to it too."""
        root = Path(repro.__file__).parent
        calls, unguarded = 0, []
        for path, tree in parsed_modules():
            for line, _, guarded in hook_calls(tree):
                calls += 1
                if not guarded:
                    unguarded.append(f"{path.relative_to(root)}:{line}")
        assert calls > 40  # the walk sees the instrumented tree
        assert unguarded == []

    def test_guard_check_bites(self):
        source = textwrap.dedent("""
            def plain(self):
                self.tracer.txn_begin(txn)
            def guarded(self):
                if self.tracer.enabled:
                    self.tracer.txn_begin(txn)
            def aliased(tracer):
                tracing = tracer.enabled
                token = tracer.begin("x", "sim") if tracing else None
                if tracing:
                    tracer.end(token)
            def else_branch(self):
                if self.tracer.enabled:
                    pass
                else:
                    self.tracer.deadlock(root, cycle)
        """)
        assert sorted(line for line, _, guarded in
                      hook_calls(ast.parse(source)) if not guarded) == [3, 16]

    def test_cluster_defaults_to_null_tracer(self):
        cluster = Cluster(ClusterConfig(num_nodes=2))
        assert cluster.tracer is NULL_TRACER
        assert cluster.metrics is None
        assert cluster.trace_events == ()


@functools.lru_cache(maxsize=None)
def fault_sites_outside_faults():
    """``(where, call, guarded)`` for every fault call in ``repro`` that
    lies outside :mod:`repro.faults` (code there runs only with faults
    on)."""
    root = Path(repro.__file__).parent
    return tuple(
        (f"{path.relative_to(root)}:{line}", call, guarded)
        for path, tree in parsed_modules()
        if path.parent.name != "faults"
        for line, call, guarded in fault_calls(tree)
    )


class TestFaultSitesGuarded:
    """Faults off is one branch, like tracing off: the null injector
    answers no query and there is no WAL, so every site is checked
    statically — crash and failover paths no fault-free test reaches
    are held to it too."""

    # The lock-wait bound, failover, crash windows and the WAL's grant,
    # release and commit records run inside repro.faults, attached by
    # hooks; the transport and object creation are what is left.
    def test_every_injector_query_outside_faults_is_guarded(self):
        sites = [site for site in fault_sites_outside_faults()
                 if site[1].startswith("injector.")]
        assert {"injector.message_faults", "injector.retransmit_timeout_s"} \
            <= {call for _, call, _ in sites}
        assert [f"{where} {call}" for where, call, guarded in sites
                if not guarded] == []

    def test_every_wal_write_outside_faults_is_guarded(self):
        sites = [site for site in fault_sites_outside_faults()
                 if site[1].startswith("wal.")]
        assert {"wal.record_home"} == {call for _, call, _ in sites}
        assert [f"{where} {call}" for where, call, guarded in sites
                if not guarded] == []

    def test_fault_guard_check_bites(self):
        source = textwrap.dedent("""
            def plain(self):
                self.injector.is_down(node, now)
            def guarded(self):
                if self.injector.enabled and self.injector.is_down(n, t):
                    self._helper()
                if self.wal is not None:
                    self.wal.record_home(0, oid)
            def _helper(self):
                self.injector.down_until(node, now)
                self.wal.record_page(0, oid, 0, 1)
            def wrong_guard(self):
                if self.injector.enabled:
                    self.wal.record_home(0, oid)
            def _stray(self):
                self.injector.cut(a, b, now)
            def calls_stray(self):
                self._stray()
                if self.wal is not None:
                    self._stray()
        """)
        assert sorted((line, call) for line, call, guarded in
                      fault_calls(ast.parse(source)) if not guarded) == [
            (3, "injector.is_down"), (11, "wal.record_page"),
            (14, "wal.record_home"), (16, "injector.cut"),
        ]


# ---------------------------------------------------------------------------
# Traced cluster integration
# ---------------------------------------------------------------------------

@shared_class
class Leaf:
    hits = Attr(size=2048, default=0)

    @method
    def bump(self, ctx):
        self.hits += 1

    @method
    def value(self, ctx):
        return self.hits


@shared_class
class Root:
    total = Attr(size=8, default=0)

    @method
    def sweep(self, ctx, leaves):
        total = 0
        for leaf in leaves:
            total += yield ctx.invoke(leaf, "value")
        self.total = total
        return total


def net_totals(events, key):
    """Bytes and message counts of the `net` events, grouped by one
    event argument."""
    size, count = {}, {}
    for event in events:
        if event.category == "net":
            group = event.args[key]
            size[group] = size.get(group, 0) + event.args["bytes"]
            count[group] = count.get(group, 0) + 1
    return size, count


@pytest.fixture(scope="module")
def traced():
    cluster = Cluster(ClusterConfig(num_nodes=4, protocol="lotec", seed=3,
                                    trace=True))
    leaves = [cluster.create(Leaf) for _ in range(6)]
    root = cluster.create(Root)
    for index in range(24):
        cluster.submit(leaves[index % 6], "bump")
    cluster.run()
    cluster.call(root, "sweep", leaves)
    return cluster


class TestTracedCluster:
    def test_events_recorded_with_virtual_timestamps(self, traced):
        events = traced.trace_events
        assert events
        assert all(event.ts >= 0.0 for event in events)
        categories = {event.category for event in events}
        assert {"txn", "lock", "gdo", "net", "transfer"} <= categories

    def test_txn_spans_balance_commits(self, traced):
        spans = [e for e in traced.trace_events
                 if e.category == "txn" and e.phase == "X"]
        commits = [e for e in spans if e.args.get("outcome") == "commit"]
        stats = traced.txn_stats
        assert len(commits) == stats.commits + stats.sub_commits

    def test_metrics_bytes_match_network_stats_exactly(self, traced):
        # The trace is complete: per category, its `net` events carry
        # every byte and message NetworkStats counted.
        stats = traced.network_stats
        net_bytes, net_messages = net_totals(traced.trace_events, "category")
        assert sum(net_bytes.values()) == stats.total_bytes
        assert sum(net_messages.values()) == stats.total_messages
        assert net_bytes == {category.value: expected for category, expected
                             in stats.by_category_bytes.items()}
        assert net_messages == {category.value: expected
                                for category, expected
                                in stats.by_category_messages.items()}

    def test_metrics_per_node_bytes_match_node_traffic(self, traced):
        sent, _ = net_totals(traced.trace_events, "src")
        received, _ = net_totals(traced.trace_events, "dst")
        by_node = traced.network_stats.by_node
        assert sent == {repr(node): traffic.sent_bytes
                        for node, traffic in by_node.items()
                        if traffic.sent_bytes}
        assert received == {repr(node): traffic.received_bytes
                            for node, traffic in by_node.items()
                            if traffic.received_bytes}

    def test_net_events_one_per_message(self, traced):
        net_events = [e for e in traced.trace_events if e.category == "net"]
        assert len(net_events) == traced.network_stats.total_messages
        assert sum(e.args["bytes"] for e in net_events) \
            == traced.network_stats.total_bytes

    def test_transfer_bytes_match_consistency_bytes(self, traced):
        # Every consistency-data byte on the wire is attributed to a
        # cause (acquire / demand / push) by a `transfer.*` event; the
        # workload run demand-fetches too.
        workload = generate_workload(SCENARIOS["medium-high"].scaled(0.1),
                                     seed=2)
        fetching = Cluster(ClusterConfig(num_nodes=4, protocol="lotec",
                                         seed=2, trace=True))
        run_workload(fetching, workload)
        assert any(event.name.startswith("transfer.demand ")
                   for event in fetching.trace_events)
        for cluster in (traced, fetching):
            assert sum(
                event.args.get("data_bytes", 0)
                for event in cluster.trace_events
                if event.name.startswith("transfer.")
            ) == cluster.network_stats.consistency_bytes()

    def test_summary_renders(self, traced):
        text = render_summary(run_record(traced))
        assert "transactions" in text
        assert "root commits" in text
        assert "total bytes" in text
        assert f"{traced.network_stats.total_bytes:,}" in text
        assert "peak concurrent txns" in text

    def test_summary_renders_an_untraced_run(self):
        cluster = Cluster(ClusterConfig(num_nodes=4, protocol="lotec",
                                        seed=3))
        leaves = [cluster.create(Leaf) for _ in range(6)]
        for index in range(24):
            cluster.submit(leaves[index % 6], "bump")
        cluster.run()
        record = run_record(cluster)
        assert "metrics" not in record
        text = render_summary(record)
        rows = summary_rows(text)
        assert rows["root commits"] == str(cluster.txn_stats.commits)
        assert f"{cluster.network_stats.total_bytes:,}" in text
        assert "peak concurrent txns" not in text
        assert "faults" not in text


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------

class TestExporters:
    def test_jsonl_round_trip(self, traced, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_jsonl(traced.trace_events, path)
        assert read_jsonl(path) == traced.trace_events

    def test_jsonl_lines_are_json_objects(self, traced):
        lines = events_to_jsonl(traced.trace_events).splitlines()
        assert len(lines) == len(traced.trace_events)
        record = json.loads(lines[0])
        assert set(record) == {
            "ts", "name", "category", "phase", "dur", "node", "track", "args",
        }

    def test_chrome_trace_schema(self, traced):
        doc = chrome_trace(traced.trace_events)
        json.dumps(doc)  # must be JSON-serializable
        assert doc["displayTimeUnit"] == "ms"
        records = doc["traceEvents"]
        assert records
        for record in records:
            assert {"name", "ph", "pid", "tid"} <= set(record)
            if record["ph"] == "X":
                assert record["ts"] >= 0
                assert record["dur"] >= 0
            elif record["ph"] == "i":
                assert record["s"] == "t"
            else:
                assert record["ph"] == "M"

    def test_chrome_trace_names_processes_and_threads(self, traced):
        records = chrome_trace(traced.trace_events)["traceEvents"]
        process_names = {
            record["args"]["name"]
            for record in records if record["name"] == "process_name"
        }
        assert any(name.startswith("node N") for name in process_names)
        thread_meta = [r for r in records if r["name"] == "thread_name"]
        assert thread_meta
        # tids are unique within a pid
        seen = set()
        for record in thread_meta:
            key = (record["pid"], record["tid"])
            assert key not in seen
            seen.add(key)

    def test_chrome_trace_timestamps_in_microseconds(self, traced):
        events = traced.trace_events
        records = [r for r in chrome_trace(events)["traceEvents"]
                   if r["ph"] != "M"]
        assert records[0]["ts"] == pytest.approx(events[0].ts * 1e6)

    def test_write_chrome_trace(self, traced, tmp_path):
        path = tmp_path / "trace.chrome.json"
        write_chrome_trace(traced.trace_events, path)
        with open(path) as handle:
            doc = json.load(handle)
        assert "traceEvents" in doc
