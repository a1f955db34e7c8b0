"""Unit tests for the instrumented ``self`` proxy and array views."""

import pytest

from repro import Array, Attr, ConfigurationError, method, shared_class
from repro.objects.proxy import InstrumentedSelf

from conftest import make_cluster


@shared_class
class Gadget:
    name_code = Attr(size=8, default=7)
    slots = Array(size=16, count=5, default=0)

    @method
    def read_scalar(self, ctx):
        return self.name_code

    @method
    def write_scalar(self, ctx, value):
        self.name_code = value

    @method
    def array_ops(self, ctx):
        self.slots[0] = 10
        self.slots[-1] = 99  # negative indexing supported
        self.slots[1] += 5
        return len(self.slots), list(self.slots)

    @method
    def bad_attr_read(self, ctx):
        return self.ghost

    @method
    def bad_attr_write(self, ctx):
        self.ghost = 1

    @method
    def whole_array_write(self, ctx):
        self.slots = [1, 2, 3, 4, 5]

    @method
    def out_of_range(self, ctx):
        self.slots[5] = 1

    @method
    def bad_index_type(self, ctx):
        self.slots["x"] = 1

    @method
    def call_own_method(self, ctx):
        return self.read_scalar()


class TestProxy:
    def setup_method(self):
        self.cluster = make_cluster()
        self.gadget = self.cluster.create(Gadget)

    def test_scalar_round_trip(self):
        self.cluster.call(self.gadget, "write_scalar", 55)
        assert self.cluster.call(self.gadget, "read_scalar") == 55

    def test_array_semantics(self):
        length, values = self.cluster.call(self.gadget, "array_ops")
        assert length == 5
        assert values == [10, 5, 0, 0, 99]

    def test_unknown_attribute_read(self):
        with pytest.raises(AttributeError, match="ghost"):
            self.cluster.call(self.gadget, "bad_attr_read")

    def test_unknown_attribute_write(self):
        with pytest.raises(AttributeError, match="closed"):
            self.cluster.call(self.gadget, "bad_attr_write")

    def test_whole_array_assignment_rejected(self):
        with pytest.raises(ConfigurationError, match="assign elements"):
            self.cluster.call(self.gadget, "whole_array_write")

    def test_array_bounds_checked(self):
        with pytest.raises(IndexError):
            self.cluster.call(self.gadget, "out_of_range")

    def test_array_index_type_checked(self):
        with pytest.raises(TypeError, match="integer"):
            self.cluster.call(self.gadget, "bad_index_type")

    def test_direct_method_call_guidance(self):
        with pytest.raises(ConfigurationError, match="ctx.invoke"):
            self.cluster.call(self.gadget, "call_own_method")

    def test_repr_is_informative(self):
        from repro.objects.proxy import InstrumentedSelf
        from repro.runtime.context import TxnContext

        # repr must not trigger tracked attribute access.
        proxy_repr = None

        @shared_class
        class ReprProbe:
            x = Attr(size=8)

            @method
            def probe(self, ctx):
                nonlocal proxy_repr
                proxy_repr = repr(self)

        probe = self.cluster.create(ReprProbe)
        self.cluster.call(probe, "probe")
        assert "ReprProbe" in proxy_repr


@shared_class
class Sprocket:
    teeth = Attr(size=8, default=12)
    cogs = Array(size=8, count=3, default=0)

    @method
    def own_type(self, ctx):
        return type(self)

    @method
    def is_instrumented(self, ctx):
        return isinstance(self, InstrumentedSelf)


class TestProxyClasses:
    """Each layout gets one ``InstrumentedSelf`` subclass whose scalar
    attributes are read properties (``objects.proxy.proxy_class``)."""

    def setup_method(self):
        self.cluster = make_cluster()

    def _class_of(self, handle):
        return self.cluster.call(handle, "own_type")

    def test_one_class_per_layout(self):
        first, second = (self.cluster.create(Sprocket) for _ in range(2))
        classes = {self._class_of(handle) for handle in (first, second)
                   for _ in range(3)}
        assert len(classes) == 1
        assert first.meta.layout is second.meta.layout
        assert classes == {first.meta.layout.proxy_class}

    def test_distinct_layouts_get_distinct_classes(self):
        other = make_cluster(page_size=1024)
        own, foreign = self.cluster.create(Sprocket), other.create(Sprocket)
        assert own.meta.layout is not foreign.meta.layout
        assert self._class_of(own) is not other.call(foreign, "own_type")

    def test_proxy_is_an_instrumented_self(self):
        handle = self.cluster.create(Sprocket)
        assert self.cluster.call(handle, "is_instrumented") is True
        cls = self._class_of(handle)
        assert cls is not InstrumentedSelf
        assert isinstance(cls.__dict__["teeth"], property)
        assert "cogs" not in cls.__dict__  # only scalars get properties
