"""Unit + property tests for the attribute-to-page layout engine."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory.layout import AttributeSpec, ObjectLayout
from repro.util.errors import ConfigurationError


def layout_of(*specs, page_size=100):
    return ObjectLayout(specs, page_size=page_size)


class TestAttributeSpec:
    def test_scalar_defaults(self):
        spec = AttributeSpec(name="x", size_bytes=8)
        assert not spec.is_array
        assert spec.total_bytes == 8

    def test_array_totals(self):
        spec = AttributeSpec(name="a", size_bytes=10, count=5)
        assert spec.is_array
        assert spec.total_bytes == 50

    @pytest.mark.parametrize("bad", [
        dict(name="1bad", size_bytes=8),
        dict(name="_hidden", size_bytes=8),  # writable but never readable
        dict(name="__dunder__", size_bytes=8),
        dict(name="x", size_bytes=0),
        dict(name="x", size_bytes=8, count=0),
    ])
    def test_validation(self, bad):
        with pytest.raises(ConfigurationError):
            AttributeSpec(**bad)

    def test_leading_underscore_error_names_attribute_and_reason(self):
        with pytest.raises(ConfigurationError,
                           match=r"'_hidden'.*reserved.*instrumented self"):
            AttributeSpec(name="_hidden", size_bytes=8)


class TestLayoutBasics:
    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            ObjectLayout([], page_size=100)

    def test_bad_page_size_rejected(self):
        with pytest.raises(ConfigurationError):
            layout_of(AttributeSpec("x", 8), page_size=0)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigurationError):
            layout_of(AttributeSpec("x", 8), AttributeSpec("x", 8))

    def test_sequential_offsets(self):
        layout = layout_of(AttributeSpec("a", 30), AttributeSpec("b", 50))
        assert layout.offset_of("a") == 0
        assert layout.offset_of("b") == 30
        assert layout.total_bytes == 80

    def test_page_count_rounds_up(self):
        layout = layout_of(AttributeSpec("a", 150))
        assert layout.page_count == 2

    def test_small_object_is_one_page(self):
        assert layout_of(AttributeSpec("a", 10)).page_count == 1

    def test_unknown_attribute_raises(self):
        layout = layout_of(AttributeSpec("a", 10))
        with pytest.raises(KeyError):
            layout.attribute("nope")
        with pytest.raises(KeyError):
            layout.attribute_pages("nope")
        with pytest.raises(KeyError):
            layout.slot_pages("nope", 0)


class TestPageMapping:
    def test_attribute_within_one_page(self):
        layout = layout_of(AttributeSpec("a", 40), AttributeSpec("b", 40))
        assert layout.attribute_pages("a") == frozenset({0})
        assert layout.attribute_pages("b") == frozenset({0})

    def test_attribute_spanning_pages(self):
        layout = layout_of(AttributeSpec("a", 90), AttributeSpec("b", 90))
        assert layout.attribute_pages("a") == frozenset({0})
        assert layout.attribute_pages("b") == frozenset({0, 1})

    def test_array_elements_on_distinct_pages(self):
        layout = layout_of(AttributeSpec("arr", size_bytes=100, count=4))
        assert layout.attribute_pages("arr") == frozenset({0, 1, 2, 3})
        assert layout.slot_pages("arr", 0) == frozenset({0})
        assert layout.slot_pages("arr", 3) == frozenset({3})

    def test_element_straddling_page_boundary(self):
        layout = layout_of(AttributeSpec("pad", 60),
                           AttributeSpec("arr", size_bytes=60, count=2))
        assert layout.slot_pages("arr", 0) == frozenset({0, 1})
        assert layout.slot_pages("arr", 1) == frozenset({1})

    def test_pages_for_attributes_union(self):
        layout = layout_of(AttributeSpec("a", 90), AttributeSpec("b", 90),
                           AttributeSpec("c", 90))
        assert layout.pages_for_attributes(["a", "c"]) == frozenset({0, 1, 2})

    def test_all_pages(self):
        layout = layout_of(AttributeSpec("a", 250))
        assert layout.all_pages() == frozenset({0, 1, 2})

    def test_slots_on_page_includes_partials(self):
        layout = layout_of(AttributeSpec("a", 90), AttributeSpec("b", 90))
        assert set(layout.slots_on_page(0)) == {("a", 0), ("b", 0)}
        assert set(layout.slots_on_page(1)) == {("b", 0)}

    def test_slots_on_pages_dedup(self):
        layout = layout_of(AttributeSpec("a", 150))
        assert layout.slots_on_pages([0, 1]) == (("a", 0),)

    def test_slots_on_page_out_of_range(self):
        layout = layout_of(AttributeSpec("a", 10))
        with pytest.raises(KeyError):
            layout.slots_on_page(5)
        with pytest.raises(KeyError):  # not the last page, wrapped
            layout.slots_on_page(-1)

    def test_slots_by_page_is_the_checked_table(self):
        layout = layout_of(AttributeSpec("a", 90), AttributeSpec("b", 90))
        assert layout.slots_by_page == ((("a", 0), ("b", 0)), (("b", 0),))
        for page in range(layout.page_count):
            assert layout.slots_on_page(page) is layout.slots_by_page[page]

    def test_object_bytes_on_page_partial_tail(self):
        layout = layout_of(AttributeSpec("a", 150))
        assert layout.object_bytes_on_page(0) == 100
        assert layout.object_bytes_on_page(1) == 50
        with pytest.raises(KeyError):
            layout.object_bytes_on_page(2)

    def test_initial_values_cover_all_slots(self):
        layout = layout_of(AttributeSpec("x", 8, default=3),
                           AttributeSpec("arr", 8, count=3, default="e"))
        values = layout.initial_values()
        assert values[("x", 0)] == 3
        assert values[("arr", 2)] == "e"
        assert len(values) == 4


@st.composite
def layouts(draw):
    page_size = draw(st.sampled_from([64, 100, 256, 4096]))
    count = draw(st.integers(1, 6))
    specs = []
    for index in range(count):
        if draw(st.booleans()):
            specs.append(AttributeSpec(f"s{index}",
                                       draw(st.integers(1, 3 * page_size))))
        else:
            specs.append(
                AttributeSpec(f"a{index}", draw(st.integers(1, page_size)),
                              count=draw(st.integers(2, 8)))
            )
    return ObjectLayout(specs, page_size=page_size)


class TestLayoutProperties:
    @given(layouts())
    @settings(max_examples=60)
    def test_every_byte_belongs_to_a_page(self, layout):
        assert layout.page_count * layout.page_size >= layout.total_bytes
        assert (layout.page_count - 1) * layout.page_size < max(
            layout.total_bytes, 1
        )

    @given(layouts())
    @settings(max_examples=60)
    def test_slot_pages_consistent_with_page_slots(self, layout):
        for spec in layout.attributes:
            for index in range(spec.count):
                slot = (spec.name, index)
                for page in layout.slot_pages(spec.name, index):
                    assert slot in layout.slots_on_page(page)
        for page in range(layout.page_count):
            for slot in layout.slots_on_page(page):
                assert page in layout.slot_pages(*slot)

    @given(layouts())
    @settings(max_examples=60)
    def test_attribute_pages_are_union_of_slot_pages(self, layout):
        for spec in layout.attributes:
            union = frozenset()
            for index in range(spec.count):
                union |= layout.slot_pages(spec.name, index)
            assert layout.attribute_pages(spec.name) == union

    @given(layouts())
    @settings(max_examples=60)
    def test_object_bytes_sum_to_total(self, layout):
        total = sum(
            layout.object_bytes_on_page(page)
            for page in range(layout.page_count)
        )
        assert total == layout.total_bytes
