"""Shared fixtures and helper shared-classes for the test suite."""

from __future__ import annotations

import functools

import pytest

from repro import Array, Attr, method, shared_class
from repro.runtime import Cluster, ClusterConfig


@shared_class
class Counter:
    """Minimal single-page shared class used across tests."""

    value = Attr(size=8, default=0)
    touches = Attr(size=8, default=0)

    @method
    def add(self, ctx, amount):
        self.value += amount
        self.touches += 1
        return self.value

    @method
    def get(self, ctx):
        return self.value

    @method
    def fail_after_write(self, ctx, amount):
        self.value += amount
        ctx.abort("test-abort")


@shared_class
class Ledger:
    """Multi-attribute, multi-page class: methods touch page subsets."""

    alpha = Attr(size=3000, default=0)
    beta = Attr(size=3000, default=0)
    gamma = Attr(size=3000, default=0)
    log = Array(size=500, count=16, default=0)

    @method
    def bump_alpha(self, ctx, amount):
        self.alpha += amount

    @method
    def bump_beta(self, ctx, amount):
        self.beta += amount

    @method
    def read_gamma(self, ctx):
        return self.gamma

    @method
    def log_entry(self, ctx, index, value):
        self.log[index] = value

    @method
    def sum_all(self, ctx):
        total = self.alpha + self.beta + self.gamma
        for entry in self.log:
            total += entry
        return total


@shared_class
class Orchestrator:
    """Drives nested invocations over other objects."""

    runs = Attr(size=8, default=0)

    @method
    def fanout(self, ctx, targets, amount):
        total = 0
        for target in targets:
            total += yield ctx.invoke(target, "add", amount)
            total += yield ctx.invoke(target, "get")
        self.runs += 1
        return total

    @method
    def safe_transfer(self, ctx, source, sink, amount):
        from repro import TransactionAborted

        try:
            yield ctx.invoke(source, "fail_after_write", amount)
        except TransactionAborted:
            # Child rolled back; compensate by a plain add instead.
            yield ctx.invoke(sink, "add", amount)
        self.runs += 1
        return amount


def make_cluster(protocol: str = "lotec", nodes: int = 4, seed: int = 0,
                 **overrides) -> Cluster:
    overrides.setdefault("num_nodes", nodes)
    overrides.setdefault("protocol", protocol)
    overrides.setdefault("seed", seed)
    return Cluster(ClusterConfig(**overrides))


def summary_rows(text: str) -> dict:
    """``label -> value`` of every two-column row printed by
    :func:`repro.obs.render_summary`."""
    return dict(line.rsplit(None, 1) for line in text.splitlines()
                if "  " in line)


@pytest.fixture
def cluster() -> Cluster:
    return make_cluster()


@pytest.fixture(params=["cotec", "otec", "lotec", "rc"])
def any_protocol_cluster(request) -> Cluster:
    return make_cluster(protocol=request.param)


class TappedSocket:
    """A real socket with some of its methods stood in for: ``taps``
    maps a method name to ``tap(sock, *args)``, called with the real
    socket.  Everything else (``fileno``, ``close``) is the real
    socket's, so the transport and its selector use the wrapper as
    they would the socket."""

    def __init__(self, sock, **taps):
        self._sock = sock
        self._taps = taps

    def __getattr__(self, name):
        tap = self._taps.get(name)
        if tap is None:
            return getattr(self._sock, name)
        return functools.partial(tap, self._sock)


def tap_sockets(cluster, reading=False, **taps):
    """Bring ``cluster``'s TCP wire up and tap every socket it writes
    frames into (with ``reading``, every socket it reads them from)."""
    network = cluster.network
    network.start(cluster.nodes)
    for link in network._links:
        if link.reading == reading:
            link.sock = TappedSocket(link.sock, **taps)
