"""Unit tests for shared-class declaration and schema compilation."""

import pytest

from repro import Array, Attr, method, shared_class
from repro.objects.schema import build_schema, schema_of
from repro.util.errors import ConfigurationError


@shared_class
class Sample:
    small = Attr(size=8, default=1)
    big = Attr(size=6000, default=0)
    items = Array(size=100, count=10, default=0)

    @method
    def read_small(self, ctx):
        return self.small

    @method
    def update_big(self, ctx, v):
        self.big = v + self.small

    @method
    def touch_item(self, ctx, i):
        self.items[i] += 1

    @method(reads=["small"], writes=["small"])
    def annotated(self, ctx):
        self.small += 1

    @method
    def fanout(self, ctx, other):
        result = yield ctx.invoke(other, "read_small")
        self.small = result
        return result


class TestDeclarations:
    def test_schema_attached(self):
        schema = schema_of(Sample)
        assert schema.name == "Sample"
        assert set(schema.attribute_names()) == {"small", "big", "items"}
        assert set(schema.methods) == {
            "read_small", "update_big", "touch_item", "annotated", "fanout",
        }

    def test_attr_validation(self):
        with pytest.raises(ConfigurationError):
            Attr(size=0)
        with pytest.raises(ConfigurationError):
            Array(size=8, count=1)

    def test_leading_underscore_attribute_rejected_at_definition(self):
        """Such an attribute could be written (``self._hidden = 7``) but
        never read back: the proxy reserves the ``_`` prefix."""
        with pytest.raises(ConfigurationError, match="'_hidden'.*reserved"):
            @shared_class
            class Hidden:
                _hidden = Attr(8)

                @method
                def peek(self, ctx):
                    return self._hidden

    def test_class_without_attrs_rejected(self):
        class NoAttrs:
            @method
            def m(self, ctx):
                return 0

        with pytest.raises(ConfigurationError, match="no Attr"):
            build_schema(NoAttrs)

    def test_class_without_methods_rejected(self):
        class NoMethods:
            x = Attr(size=8)

        with pytest.raises(ConfigurationError, match="no @method"):
            build_schema(NoMethods)

    def test_schema_of_rejects_plain_class(self):
        class Plain:
            pass

        with pytest.raises(ConfigurationError):
            schema_of(Plain)

    def test_unknown_method_lookup(self):
        with pytest.raises(KeyError, match="no method"):
            schema_of(Sample).method_spec("nope")


class TestAnalyzedAccess:
    def test_reader_gets_read_lock(self):
        spec = schema_of(Sample).method_spec("read_small")
        assert spec.access.reads == {"small"}
        assert not spec.is_update

    def test_updater_detected(self):
        spec = schema_of(Sample).method_spec("update_big")
        assert spec.access.writes == {"big"}
        assert spec.access.reads == {"small"}
        assert spec.is_update

    def test_array_element_access(self):
        spec = schema_of(Sample).method_spec("touch_item")
        assert "items" in spec.access.writes
        assert "items" in spec.access.reads

    def test_generator_method_flagged(self):
        schema = schema_of(Sample)
        assert schema.method_spec("fanout").is_generator
        assert not schema.method_spec("read_small").is_generator

    def test_generator_access_sets(self):
        spec = schema_of(Sample).method_spec("fanout")
        assert spec.access.writes == {"small"}

    def test_annotation_overrides_analysis(self):
        spec = schema_of(Sample).method_spec("annotated")
        assert spec.access.reads == {"small"}
        assert spec.access.writes == {"small"}

    def test_annotation_unknown_attr_rejected(self):
        class Bad:
            x = Attr(size=8)

            @method(writes=["ghost"])
            def m(self, ctx):
                self.x = 1

        with pytest.raises(ConfigurationError, match="unknown attributes"):
            build_schema(Bad)

    def test_method_names_not_in_access_sets(self):
        # self.helper(...) style calls must not leak method names into
        # the data-attribute access sets after resolve().
        class WithHelper:
            x = Attr(size=8)
            y = Attr(size=8)

            @method
            def outer(self, ctx):
                self.inner_helper()
                return self.x

            @method
            def inner_helper(self, ctx):
                self.y = 1

        schema = build_schema(WithHelper)
        spec = schema.method_spec("outer")
        assert "inner_helper" not in spec.access.reads
        assert "y" in spec.access.writes  # transitively included

    def test_layout_factory(self):
        layout = schema_of(Sample).make_layout(page_size=4096)
        assert layout.page_count >= 2
        assert layout.has_attribute("items")
