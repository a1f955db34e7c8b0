"""How many Python frames each repeated step of an acquisition enters.

``py_calls`` counts Python frames, and the steps below repeat for every
slot access, page copy, nested invoke and root commit, so their frame
counts are pinned here, measured with ``sys.setprofile`` on a small
cluster:

* a scalar read enters one ``repro`` frame (``read_slot``) and a scalar
  write at most two (``__setattr__``, ``write_slot``: the undo record is
  appended in place);
* ``NodeStore.ship_pages`` enters only itself;
* one nested invoke adds one generator frame to the chain every resume
  of the body re-enters (``_execute`` drives the body itself);
* with one protocol, a root commit makes no ``for_meta`` call;
* every resume of a root enters ``run_root`` straight from
  ``Process._resume``, with no wrapper generator around it;
* releasing an entry nobody waits on enters none of the waiter
  machinery, and the lock path (acquire, pre-commit, release, the
  migration check, ``TxnContext._bind``) reaches each entry by
  reference, with no ``Directory.entry`` lookup;
* a pre-commit decides no waiter, a release that admits a writer at
  the head of a queue decides that one waiter only, and a first grant
  or retention records its mode without entering ``_join``;
* a grant whose wanted pages are all local enters neither
  ``gather_pages`` nor ``_plan_sources``; ``_execute`` on a method whose
  prediction is memoised enters neither ``predict`` nor ``is_update``;
  ``decide`` enters no ``is_free``; ``_commit_root`` finds each held
  copy with neither ``has_object`` nor ``copy_of``;
* a quiet remote send over TCP is priced, booked and written in
  ``send``, ``_put_on_wire`` and their leaves, and a read of k whole
  frames enters ``_read`` once and ``decode_frame`` once per frame.
"""

import os
import select
import socket
import sys
import time
from inspect import CO_GENERATOR

import repro
from repro import Attr, method, shared_class
from repro.gdo import MigrationConfig
from repro.gdo.directory import Directory
from repro.gdo.entry import DirectoryEntry, LockMode, Waiter
from repro.net.message import Message, MessageCategory
from repro.net.network_config import NetworkConfig
from repro.net.tcp import TcpTransport
from repro.sim.process import Process
from repro.sim.realtime import WallClockEnvironment
from repro.txn.transaction import Transaction
from repro.util.ids import NodeId, ObjectId, TxnId

from conftest import make_cluster

REPRO = os.path.dirname(repro.__file__) + os.sep

#: What the method bodies below measured, by name.
seen = {}


def _repro_frames(action):
    """Names of the ``repro`` frames ``action()`` enters, in order."""
    entered = []

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code.co_filename.startswith(REPRO):
            entered.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        action()
    finally:
        sys.setprofile(None)
    return entered


def _generator_frames():
    """Generator frames on the caller's stack: the chain every resume
    of the calling body re-enters."""
    frame, count = sys._getframe(1), 0
    while frame is not None:
        count += bool(frame.f_code.co_flags & CO_GENERATOR)
        frame = frame.f_back
    return count


@shared_class
class Probe:
    x = Attr(size=8, default=0)

    @method
    def poke(self, ctx):
        self.x = self.x + 1  # the first access binds the context

        def write():
            self.x = 7

        seen["read"] = _repro_frames(lambda: self.x)
        seen["write"] = _repro_frames(write)

    @method
    def leaf(self, ctx, key):
        seen[key] = _generator_frames()
        self.x = self.x + 1

    @method
    def outer(self, ctx, target):
        yield ctx.invoke(target, "leaf", "nested")


def test_scalar_read_enters_one_frame_and_write_two():
    cluster = make_cluster()
    cluster.call(cluster.create(Probe), "poke")
    assert seen["read"] == ["read_slot"]
    assert seen["write"] == ["__setattr__", "write_slot"]


def test_ship_pages_enters_only_itself():
    cluster = make_cluster()
    source, target = cluster.nodes[0], cluster.nodes[1]
    handle = cluster.create(Probe, node=source)
    layout, oid = handle.meta.layout, handle.object_id
    cluster.stores[target].register_object(oid, layout)
    frames = _repro_frames(lambda: cluster.stores[source].ship_pages(
        oid, range(layout.page_count), cluster.stores[target]))
    assert frames == ["ship_pages"]
    assert cluster.stores[target].resident_pages(oid) == \
        cluster.stores[source].resident_pages(oid)


def test_nested_invoke_adds_one_generator_frame():
    cluster = make_cluster()
    node = cluster.nodes[0]
    target = cluster.create(Probe, node=node)
    cluster.call(target, "leaf", "root", node=node)
    cluster.call(cluster.create(Probe, node=node), "outer", target, node=node)
    assert seen["nested"] - seen["root"] == 1


def test_single_protocol_root_commit_makes_no_for_meta_call():
    cluster = make_cluster()
    assert not cluster.protocol.by_class
    handle = cluster.create(Probe, node=cluster.nodes[0])
    callers = []

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code.co_name == "for_meta":
            callers.append(frame.f_back.f_code.co_name)

    sys.setprofile(profile)
    try:
        cluster.call(handle, "leaf", "commit", node=cluster.nodes[1])
    finally:
        sys.setprofile(None)
    assert cluster.txn_stats.commits == 1
    # The remote grant's transfer dispatches; the commit does not.
    assert callers == ["_execute"]


def _calls_during(action):
    """``(code, caller's code)`` of every Python frame ``action()``
    enters, generator resumes included."""
    entered = []

    def profile(frame, event, _arg):
        if event == "call":
            entered.append((frame.f_code, frame.f_back.f_code))

    sys.setprofile(profile)
    try:
        action()
    finally:
        sys.setprofile(None)
    return entered


def _nested_remote_root(**config):
    """One root with one nested invoke, run on a node that is home to
    neither object: global acquisitions, a pre-commit, a release."""
    cluster = make_cluster(**config)
    owner, runner = cluster.nodes[0], cluster.nodes[3]
    target = cluster.create(Probe, node=owner)
    outer = cluster.create(Probe, node=owner)
    assert runner not in {cluster.directory.home_node(handle.object_id)
                          for handle in (outer, target)}
    return cluster, lambda: cluster.call(outer, "outer", target, node=runner)


def test_root_resumes_enter_run_root_with_no_wrapper_frame():
    cluster = make_cluster()
    handle = cluster.create(Probe, node=cluster.nodes[0])

    def run():
        cluster.submit(handle, "leaf", "delayed", node=cluster.nodes[1],
                       delay=0.001)
        cluster.run()

    resume = Process._resume.__code__
    entered = [code.co_name for code, caller in _calls_during(run)
               if caller is resume]
    assert cluster.txn_stats.commits == 1
    # The arrival delay, the remote grant and the release all resume
    # the root: each enters ``run_root`` itself.
    assert len(entered) >= 3
    assert set(entered) == {"run_root"}


def test_release_with_no_waiters_enters_no_waiter_machinery():
    cluster, run = _nested_remote_root()
    entered = {code.co_name for code, _caller in _calls_during(run)}
    assert cluster.txn_stats.commits == 1
    assert cluster.lock_stats.waits == 0
    assert {"_global_release", "precommit_release"} <= entered
    assert not entered & {"pump", "_deliver_grants", "blocking_family_roots",
                          "remove_family_waiters"}


def test_lock_path_makes_no_directory_entry_call():
    cluster, run = _nested_remote_root(migration=MigrationConfig())
    calls = _calls_during(run)
    entered = {code.co_name for code, _caller in calls}
    assert cluster.txn_stats.commits == 1
    assert cluster.lock_stats.global_acquisitions == 2
    assert {"acquire", "precommit_release", "_global_release",
            "_maybe_migrate", "_bind"} <= entered
    lookup = Directory.entry.__code__
    assert [caller.co_name for code, caller in calls if code is lookup] == []


def _held_entry(cluster, holder, mode):
    """An entry on node 0 that ``holder`` holds in ``mode``, filed in
    its ``lock_objects`` as ``acquire`` files it."""
    node = cluster.nodes[0]
    entry = DirectoryEntry(ObjectId(0), home_node=node, page_count=1,
                           creator_node=node)
    entry.grant(holder, mode)
    holder.lock_objects[entry.object_id] = entry
    return entry


def _queue(cluster, entry, modes):
    """One waiter per foreign family (roots 10, 11, ...), in order."""
    waiters = []
    for index, mode in enumerate(modes):
        txn = Transaction(TxnId(serial=10 + index, root=10 + index),
                          cluster.nodes[1 + index % 3])
        waiters.append(Waiter(txn, mode, wake=cluster.env.event()))
        entry.enqueue_global(waiters[-1])
    return waiters


def test_precommit_with_a_foreign_waiter_decides_nothing():
    cluster = make_cluster()
    node = cluster.nodes[0]
    parent = Transaction(TxnId(serial=1, root=1), node)
    child = Transaction(TxnId(serial=2, root=1), node, parent=parent)
    entry = _held_entry(cluster, child, LockMode.WRITE)
    waiters = _queue(cluster, entry, [LockMode.READ])
    frames = _repro_frames(lambda: cluster.lockmgr.precommit_release(child))
    assert frames == ["precommit_release", "release_to_parent", "_retain"]
    assert entry.retainers == {parent.id: LockMode.WRITE}
    assert entry.waiting_families == waiters


def test_release_admitting_a_head_writer_decides_one_waiter():
    cluster = make_cluster()
    root = Transaction(TxnId(serial=1, root=1), cluster.nodes[0])
    entry = _held_entry(cluster, root, LockMode.WRITE)
    waiters = _queue(cluster, entry, [LockMode.WRITE] + [LockMode.READ] * 4)
    Process(cluster.env, cluster.lockmgr.root_abort_release(root))
    decide = DirectoryEntry.decide.__code__
    calls = _calls_during(cluster.run)
    assert [code for code, _caller in calls if code is decide] == [decide]
    assert entry.holders == {waiters[0].txn_id: LockMode.WRITE}
    assert entry.waiting_families == waiters[1:]
    assert waiters[0].wake.triggered


def test_first_grant_and_retention_enter_no_join():
    cluster = make_cluster()
    node = cluster.nodes[0]
    entry = DirectoryEntry(ObjectId(0), home_node=node, page_count=1,
                           creator_node=node)
    txn = Transaction(TxnId(serial=1, root=1), node)
    assert _repro_frames(lambda: entry.grant(txn, LockMode.READ)) == [
        "grant"]
    assert _repro_frames(lambda: entry.demote_to_retained(txn)) == [
        "demote_to_retained", "_retain"]
    assert entry.retainers == {txn.id: LockMode.READ}


def _entered_from(calls, caller):
    """Names of the frames a ``caller`` frame entered, in order."""
    return [code.co_name for code, back in calls if back.co_name == caller]


def test_all_local_grant_enters_no_gather():
    cluster = make_cluster()
    node = cluster.nodes[0]
    handle = cluster.create(Probe, node=node)
    calls = _calls_during(lambda: cluster.call(handle, "leaf", "local",
                                               node=node))
    entered = {code.co_name for code, _caller in calls}
    assert cluster.lock_stats.global_acquisitions == 1
    assert "acquire_transfer" in entered
    assert not entered & {"gather_pages", "_plan_sources"}
    # A grant at a node holding nothing still gathers.
    calls = _calls_during(lambda: cluster.call(handle, "leaf", "remote",
                                               node=cluster.nodes[1]))
    entered = {code.co_name for code, _caller in calls}
    assert {"gather_pages", "_plan_sources"} <= entered


def test_memoised_execute_enters_no_predict_or_is_update():
    cluster = make_cluster()
    node = cluster.nodes[0]
    handle = cluster.create(Probe, node=node)
    cluster.call(handle, "leaf", "first", node=node)  # fills the memo
    calls = _calls_during(lambda: cluster.call(handle, "leaf", "again",
                                               node=node))
    entered = _entered_from(calls, "_execute")
    assert "acquire" in entered
    assert not set(entered) & {"predict", "is_update"}


def test_decide_enters_no_is_free():
    cluster, run = _nested_remote_root()
    calls = _calls_during(run)
    assert cluster.txn_stats.commits == 1
    assert {code.co_name for code, _caller in calls} >= {"decide"}
    assert _entered_from(calls, "decide") == []


def test_commit_root_finds_copies_without_store_lookups():
    cluster, run = _nested_remote_root()
    calls = _calls_during(run)
    assert cluster.txn_stats.commits == 1
    entered = _entered_from(calls, "_commit_root")
    assert "root_commit_release" in entered
    assert not set(entered) & {"has_object", "copy_of"}


def _tcp_wire():
    """A started two-node TCP transport whose clock is running."""
    env = WallClockEnvironment(stall_timeout_s=5.0)
    network = TcpTransport(env, NetworkConfig(bandwidth_bps=100e6,
                                              software_cost_s=1e-5))
    network.start([NodeId(0), NodeId(1)])
    env.run()
    return env, network


def _control(size):
    return Message(src=NodeId(0), dst=NodeId(1),
                   category=MessageCategory.CONTROL, size_bytes=size)


def test_quiet_tcp_send_is_priced_booked_and_written_in_place():
    env, network = _tcp_wire()
    try:
        network.send(_control(100))  # books the pair's first traffic
        message = _control(100)
        frames = _repro_frames(lambda: network.send(message))
        env.run()
        assert message.deliver_time is not None
        assert frames == ["send", "__init__", "record", "_put_on_wire",
                          "encode_frame"]
    finally:
        network.close()


def test_read_of_whole_frames_enters_read_once():
    env, network = _tcp_wire()
    try:
        messages = [_control(100 + index) for index in range(3)]
        for message in messages:
            network.send(message)
        # Wait until every frame is readable, so one read takes them all.
        total = sum(message.size_bytes for message in messages)
        readers = [link.sock for link in network._links if link.reading]
        deadline = time.monotonic() + 5.0
        while sum(len(sock.recv(total, socket.MSG_PEEK))
                  for sock in select.select(readers, [], [], 5.0)[0]) < total:
            assert time.monotonic() < deadline
        frames = _repro_frames(lambda: network.poll(1.0))
        assert frames == ["poll", "_read"] + ["decode_frame", "succeed"] * 3
        env.run()
        assert all(message.deliver_time is not None for message in messages)
    finally:
        network.close()
