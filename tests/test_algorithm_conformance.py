"""Algorithm conformance: the message choreography of §4.1.

Each test scripts a small scenario and asserts the exact sequence /
counts of GDO and data messages the paper's Algorithms 4.1-4.5
prescribe — not just final state, but *how* the protocol got there.
"""

import pytest

from repro.net.message import MessageCategory as MC

from conftest import Counter, Ledger, Orchestrator, make_cluster


def category_counts(cluster):
    stats = cluster.network_stats
    return {
        category: stats.category_messages(category)
        for category in MC
        if stats.category_messages(category)
    }


class TestAlgorithm41LocalLockAcquisition:
    """'IF the requesting transaction belongs to the current holder's
    family ... Grant' — intra-family operations send nothing."""

    def test_family_reacquisition_sends_nothing(self):
        cluster = make_cluster(protocol="lotec", seed=1)
        counter = cluster.create(Counter, node=cluster.nodes[0])
        boss = cluster.create(Orchestrator, node=cluster.nodes[0])
        # Root at node 3: boss + counter both acquired globally once;
        # the second and third invocations on counter are local.
        cluster.call(boss, "fanout", [counter], 1, node=cluster.nodes[3])
        assert cluster.lock_stats.local_acquisitions >= 1
        # Exactly one global acquisition per object (boss, counter):
        # 2 requests, 2 grants — no request for re-acquisitions.
        counts = category_counts(cluster)
        assert counts[MC.LOCK_REQUEST] == 2
        assert counts[MC.LOCK_GRANT] == 2


class TestAlgorithm42GlobalLockAcquisition:
    """Free lock: 'Set the lock to held ... Send the list pointed to by
    HolderPtr and the object's page map to the requesting site.'"""

    def test_grant_pairs_with_request(self):
        cluster = make_cluster(protocol="lotec", seed=1)
        counter = cluster.create(Counter, node=cluster.nodes[0])
        cluster.call(counter, "get", node=cluster.nodes[1])
        counts = category_counts(cluster)
        assert counts[MC.LOCK_REQUEST] == 1
        assert counts[MC.LOCK_GRANT] == 1

    def test_grant_size_includes_page_map(self):
        cluster = make_cluster(protocol="lotec", seed=1)
        ledger = cluster.create(Ledger, node=cluster.nodes[0])  # 4 pages
        cluster.call(ledger, "read_gamma", node=cluster.nodes[1])
        sizes = cluster.sizes
        grant_bytes = cluster.network_stats.category_bytes(MC.LOCK_GRANT)
        assert grant_bytes == sizes.lock_grant(
            holder_entries=1,
            page_map_entries=ledger.meta.page_count,
        )

    def test_concurrent_read_granted_without_release(self):
        cluster = make_cluster(protocol="lotec", seed=1)
        counter = cluster.create(Counter, node=cluster.nodes[0])
        first = cluster.submit(counter, "get", node=cluster.nodes[1])
        second = cluster.submit(counter, "get", node=cluster.nodes[2])
        cluster.run()
        first.result(), second.result()
        # Two independent request/grant pairs; zero releases needed
        # before the second reader was admitted (reader sharing).
        assert cluster.lock_stats.waits == 0


class TestAlgorithm43LocalLockRelease:
    """Pre-commit: 'Release lock to parent transaction for retaining' —
    free; root commit: 'Forward request to GlobalLockRelease'."""

    def test_one_release_message_per_home_node(self):
        cluster = make_cluster(protocol="lotec", seed=1)
        # Objects O0..O2 have home nodes 0..2; a root touching all
        # three releases with one message per distinct home.
        counters = [cluster.create(Counter) for _ in range(3)]
        boss = cluster.create(Orchestrator)  # O3, home node 3
        cluster.call(boss, "fanout", counters, 1, node=cluster.nodes[3])
        counts = category_counts(cluster)
        # Homes 0,1,2 are remote from node 3; home 3 is local (free).
        assert counts[MC.LOCK_RELEASE] == 3

    def test_sub_abort_with_retaining_ancestor_sends_no_release(self):
        """A child abort whose lock an ancestor retains stays local:
        'the locks are again retained by the ancestor transaction'.
        The run with the abort must release exactly as often as the
        identical run without it."""
        from repro import Attr, method, shared_class

        @shared_class
        class Retry:
            n = Attr(size=8, default=0)

            @method
            def run(self, ctx, target, fail_second):
                from repro import TransactionAborted

                yield ctx.invoke(target, "add", 1)  # boss retains after
                try:
                    if fail_second:
                        yield ctx.invoke(target, "fail_after_write", 9)
                    else:
                        yield ctx.invoke(target, "add", 0)
                except TransactionAborted:
                    pass
                self.n += 1

        def releases(fail_second):
            cluster = make_cluster(protocol="lotec", seed=1)
            counter = cluster.create(Counter, node=cluster.nodes[0])
            boss = cluster.create(Retry, node=cluster.nodes[0])
            cluster.call(boss, "run", counter, fail_second,
                         node=cluster.nodes[2])
            return cluster.network_stats.category_messages(MC.LOCK_RELEASE)

        assert releases(True) == releases(False)


class TestAlgorithm44GlobalLockRelease:
    """'Unlink the next transaction list ... Send the list pointed to
    by HolderPtr and the page map to the new holder's site.'"""

    def test_waiter_receives_grant_from_release(self):
        cluster = make_cluster(protocol="lotec", seed=1)
        counter = cluster.create(Counter, node=cluster.nodes[0])
        first = cluster.submit(counter, "add", 1, node=cluster.nodes[1])
        second = cluster.submit(counter, "add", 1, node=cluster.nodes[2])
        cluster.run()
        first.result(), second.result()
        counts = category_counts(cluster)
        # Two requests; two grants (one immediate, one at release).
        assert counts[MC.LOCK_REQUEST] == 2
        assert counts[MC.LOCK_GRANT] == 2
        assert cluster.lock_stats.waits == 1

    def test_release_carries_dirty_page_entries(self):
        cluster = make_cluster(protocol="lotec", seed=1)
        ledger = cluster.create(Ledger, node=cluster.nodes[0])
        cluster.call(ledger, "bump_alpha", 1, node=cluster.nodes[1])
        sizes = cluster.sizes
        # alpha dirties exactly one page -> one piggybacked entry.
        assert cluster.network_stats.category_bytes(MC.LOCK_RELEASE) == \
            sizes.lock_release(1)


class TestAlgorithm45TransferOfUpdatedPages:
    """'FOREACH site from which page(s) must be obtained DO: copy the
    set of pages provided in the site's list.'"""

    def test_one_round_trip_per_source_site(self):
        cluster = make_cluster(protocol="lotec", seed=1)
        ledger = cluster.create(Ledger, node=cluster.nodes[0])
        cluster.call(ledger, "bump_alpha", 1, node=cluster.nodes[1])
        cluster.call(ledger, "log_entry", 15, 2, node=cluster.nodes[2])
        before_req = cluster.network_stats.category_messages(MC.PAGE_REQUEST)
        before_data = cluster.network_stats.category_messages(MC.PAGE_DATA)
        cluster.call(ledger, "sum_all", node=cluster.nodes[3])
        req = cluster.network_stats.category_messages(MC.PAGE_REQUEST) \
            - before_req
        data = cluster.network_stats.category_messages(MC.PAGE_DATA) \
            - before_data
        assert req == data  # strict request/response pairing
        assert req >= 2     # at least two distinct source sites

    def test_no_transfer_when_everything_is_local(self):
        cluster = make_cluster(protocol="lotec", seed=1)
        counter = cluster.create(Counter, node=cluster.nodes[0])
        cluster.call(counter, "add", 1, node=cluster.nodes[0])
        cluster.call(counter, "add", 1, node=cluster.nodes[0])
        counts = category_counts(cluster)
        assert MC.PAGE_REQUEST not in counts
        assert MC.PAGE_DATA not in counts


class TestRetentionChoreography:
    """Trace-level conformance for rule 1a and Algorithm 4.3: who may
    enter under a retained lock, and where a sub-transaction's locks go
    on pre-commit vs abort.  Asserted against the sanitized trace
    stream (:mod:`repro.obs`) rather than message counts, so the tests
    pin the *order* of retention events, not just their totals."""

    @staticmethod
    def _events(cluster):
        from repro.check.events import event_dicts

        return event_dicts(cluster.trace_events)

    @staticmethod
    def _grants_on(events, oname):
        """(index, family-root) of every admission to ``oname``."""
        out = []
        for index, event in enumerate(events):
            if event.get("category") != "lock":
                continue
            args = event.get("args", {})
            if args.get("object") != oname:
                continue
            name = event.get("name", "")
            granted = (
                name.startswith("lock.grant ")
                or (name.startswith("lock.wait ") and args.get("granted"))
                or (name.startswith("lock.prefetch ")
                    and args.get("outcome") == "granted")
            )
            if granted:
                serial, _, root = args["txn"][1:].partition("/r")
                out.append((index, int(root or serial)))
        return out

    def test_retained_lock_admits_other_family_only_after_release(self):
        """Rule 1a: with the boss's family retaining the counter lock
        between its two sub-invocations, a concurrent family's write
        must not be admitted until the retainer's root releases."""
        cluster = make_cluster(protocol="lotec", seed=1, trace=True)
        counter = cluster.create(Counter, node=cluster.nodes[0])
        boss = cluster.create(Orchestrator, node=cluster.nodes[0])
        a = cluster.submit(boss, "fanout", [counter], 1,
                           node=cluster.nodes[1])
        b = cluster.submit(counter, "add", 10, node=cluster.nodes[2])
        cluster.run()
        a.result(), b.result()
        assert cluster.read_attr(counter, "value") == 11
        assert cluster.lock_stats.waits >= 1
        events = self._events(cluster)
        grants = self._grants_on(events, "O0")
        roots = {root for _, root in grants}
        assert len(roots) == 2  # both families reached the counter
        winner = grants[0][1]
        release_index = next(
            index for index, event in enumerate(events)
            if event.get("name") == "lock.release"
            and event["args"].get("root") == winner
            and "O0" in event["args"].get("objects", ())
        )
        # Every admission of the losing family sits after the winning
        # family's global release — no interleaving under retention.
        for index, root in grants:
            if root != winner:
                assert index > release_index

    def test_precommit_moves_locks_to_parent_before_any_release(self):
        """Algorithm 4.3: 'Release lock to parent transaction for
        retaining' — the sub's pre-commit shows up as lock.inherit to
        the root, and the only global release of the counter is the
        root's own commit release, after the inherit."""
        cluster = make_cluster(protocol="lotec", seed=1, trace=True)
        counter = cluster.create(Counter, node=cluster.nodes[0])
        boss = cluster.create(Orchestrator, node=cluster.nodes[0])
        cluster.call(boss, "fanout", [counter], 1, node=cluster.nodes[1])
        events = self._events(cluster)
        inherits = [
            (index, event["args"]) for index, event in enumerate(events)
            if event.get("name") == "lock.inherit"
            and "O0" in event["args"].get("objects", ())
        ]
        assert inherits, "sub pre-commit traced no inheritance"
        assert all("/r" in args["txn"] and "/r" not in args["parent"]
                   for _, args in inherits)
        releases = [
            (index, event["args"]) for index, event in enumerate(events)
            if event.get("name") == "lock.release"
            and "O0" in event["args"].get("objects", ())
        ]
        assert len(releases) == 1
        assert releases[0][1]["cause"] == "commit"
        assert all(index < releases[0][0] for index, _ in inherits)

    def test_sub_abort_reverts_to_retainer_without_release(self):
        """Algorithm 4.3, last case: an aborting sub whose lock an
        ancestor retains hands nothing to its parent (no inherit) and
        releases nothing — the retention silently survives until the
        root's single commit release."""
        from repro import Attr, TransactionAborted, method, shared_class

        @shared_class
        class Retry:
            n = Attr(size=8, default=0)

            @method
            def run(self, ctx, target):
                yield ctx.invoke(target, "add", 1)  # boss retains after
                try:
                    yield ctx.invoke(target, "fail_after_write", 9)
                except TransactionAborted:
                    pass
                self.n += 1

        cluster = make_cluster(protocol="lotec", seed=1, trace=True)
        counter = cluster.create(Counter, node=cluster.nodes[0])
        boss = cluster.create(Retry, node=cluster.nodes[0])
        cluster.call(boss, "run", counter, node=cluster.nodes[2])
        assert cluster.read_attr(counter, "value") == 1  # abort undone
        events = self._events(cluster)
        aborted = [
            event["args"]["txn"] for event in events
            if event.get("category") == "txn"
            and event.get("phase") == "X"
            and event["args"].get("outcome") == "abort"
        ]
        assert len(aborted) == 1 and "/r" in aborted[0]
        # The aborting sub inherits nothing to its parent ...
        assert not any(
            event.get("name") == "lock.inherit"
            and event["args"]["txn"] == aborted[0]
            for event in events
        )
        # ... and the counter sees exactly one global release: the
        # root's commit (no sub-abort release while retained).
        causes = [
            event["args"]["cause"] for event in events
            if event.get("name") == "lock.release"
            and "O0" in event["args"].get("objects", ())
        ]
        assert causes == ["commit"]
