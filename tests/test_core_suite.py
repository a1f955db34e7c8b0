"""Unit tests for per-class protocol dispatch (ProtocolSuite)."""

import pytest

from repro.core import ProtocolSuite, make_protocol
from repro.memory.store import NodeStore
from repro.net.network import NetworkConfig, SimTransport
from repro.net.sizes import SizeModel
from repro.sim import Environment
from repro.util.errors import ConfigurationError
from repro.util.ids import NodeId


def make_factory():
    env = Environment()
    network = SimTransport(env, NetworkConfig(bandwidth_bps=1e8,
                                              software_cost_s=1e-5))
    sizes = SizeModel()
    stores = {NodeId(0): NodeStore(NodeId(0))}

    def factory(name):
        return make_protocol(name, env=env, network=network, sizes=sizes,
                             stores=stores)

    return factory


class FakeMeta:
    def __init__(self, class_name):
        class Schema:
            name = class_name

        self.schema = Schema()


class TestSuiteBuild:
    def test_default_only(self):
        suite = ProtocolSuite.build(make_factory(), "lotec", ())
        assert suite.name == "lotec"
        assert len(suite.instances()) == 1
        assert suite.for_meta(FakeMeta("Anything")).name == "lotec"

    def test_class_override(self):
        suite = ProtocolSuite.build(
            make_factory(), "lotec", (("Hot", "rc"), ("Cold", "cotec"))
        )
        assert suite.for_meta(FakeMeta("Hot")).name == "rc"
        assert suite.for_meta(FakeMeta("Cold")).name == "cotec"
        assert suite.for_meta(FakeMeta("Other")).name == "lotec"
        assert suite.name == "cotec+lotec+rc"
        assert len(suite.instances()) == 3

    def test_same_name_shares_instance(self):
        suite = ProtocolSuite.build(
            make_factory(), "lotec", (("A", "rc"), ("B", "rc"))
        )
        assert suite.for_meta(FakeMeta("A")) is suite.for_meta(FakeMeta("B"))
        assert len(suite.instances()) == 2

    def test_override_with_default_name_shares_default(self):
        suite = ProtocolSuite.build(
            make_factory(), "lotec", (("A", "lotec"),)
        )
        assert suite.for_meta(FakeMeta("A")) is suite.default
        assert len(suite.instances()) == 1

    def test_duplicate_class_rejected(self):
        with pytest.raises(ConfigurationError, match="twice"):
            ProtocolSuite.build(
                make_factory(), "lotec", (("A", "rc"), ("A", "otec"))
            )


class TestSuiteStats:
    def test_prediction_stats_merge_across_instances(self):
        suite = ProtocolSuite.build(make_factory(), "lotec", (("A", "rc"),))
        suite.default.prediction_stats.acquisitions = 3
        suite.for_meta(FakeMeta("A")).prediction_stats.acquisitions = 4
        assert suite.prediction_stats.acquisitions == 7

    def test_snapshot_single_vs_multi(self):
        single = ProtocolSuite.build(make_factory(), "lotec", ())
        assert single.snapshot()["protocol"] == "lotec"
        multi = ProtocolSuite.build(make_factory(), "lotec", (("A", "rc"),))
        snap = multi.snapshot()
        assert snap["protocol"] == "lotec+rc"
        assert len(snap["instances"]) == 2

    def test_commit_hook_groups_by_protocol(self):
        calls = []

        class Spy:
            def __init__(self, name):
                self.name = name
                self.prediction_stats = None

            def on_root_commit(self, root, dirty, metas):
                calls.append((self.name, sorted(d.value for d in dirty)))

        from repro.util.ids import ObjectId

        suite = ProtocolSuite(default=Spy("lazy"), by_class={"Hot": Spy("eager")})
        metas = {
            ObjectId(1): FakeMeta("Hot"),
            ObjectId(2): FakeMeta("Cold"),
            ObjectId(3): FakeMeta("Hot"),
        }
        suite.on_root_commit(
            root=None,
            dirty={ObjectId(1): {0}, ObjectId(2): {1}, ObjectId(3): {2}},
            metas=metas.__getitem__,
        )
        assert sorted(calls) == [("eager", [1, 3]), ("lazy", [2])]
