"""Property tests for serialization round trips and the size model."""

from hypothesis import given, settings, strategies as st

from repro.net.sizes import SizeModel
from repro.runtime.executor import _HandleRef, freeze_args, thaw_args
from repro.workload.generator import PlanNode


@st.composite
def plan_nodes(draw, depth=0):
    children = ()
    if depth < 2 and draw(st.booleans()):
        children = tuple(
            draw(plan_nodes(depth=depth + 1))
            for _ in range(draw(st.integers(1, 3)))
        )
    return PlanNode(
        obj_index=draw(st.integers(0, 50)),
        method_name=draw(st.sampled_from(["m0", "m1", "m2"])),
        salt=draw(st.integers(0, 2**31 - 1)),
        inject_abort=draw(st.booleans()),
        children=children,
    )


frozen_values = st.recursive(
    st.one_of(
        st.integers(-2**31, 2**31),
        st.text(max_size=8),
        st.booleans(),
        st.none(),
        st.builds(_HandleRef, st.integers(0, 100)),
        plan_nodes(),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3).map(tuple),
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=5), inner, max_size=3),
    ),
    max_leaves=12,
)


class TestFreezeJsonRoundTrip:
    """Frozen values — the commit log's argument form —
    pass through ``freeze_args`` / ``thaw_args`` unchanged."""

    @given(frozen_values)
    @settings(max_examples=80, deadline=None)
    def test_freeze_thaw_identity_on_frozen_data(self, value):
        # freeze_args on already-frozen data (no live handles) is the
        # identity, and thaw with an identity resolver restores refs.
        assert freeze_args(value) == value
        assert thaw_args(value, lambda v: _HandleRef(v)) == value


class _Pair(tuple):
    pass


class _Bag(list):
    pass


class _Table(dict):
    pass


class TestFreezeContainerSubclasses:
    """Subclasses miss the exact-type shortcut for handles but freeze
    and thaw like their builtin base."""

    @given(st.lists(frozen_values, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_thaw_of_freeze_is_identity(self, items):
        for value in (_Pair(items), _Bag(items),
                      _Table(enumerate(items)), tuple(items), list(items)):
            frozen = freeze_args(value)
            assert type(frozen) in (tuple, list, dict)
            assert thaw_args(frozen, lambda v: _HandleRef(v)) == value

    def test_handle_subclass_and_nested_subclass_containers(self):
        from repro.objects.registry import ObjectHandle
        from conftest import Counter, make_cluster

        class Tagged(ObjectHandle):
            __slots__ = ()

        cluster = make_cluster()
        plain = cluster.create(Counter)
        tagged = Tagged(plain.meta)
        frozen = freeze_args(_Bag([_Pair((plain, tagged)), _Table(k=tagged)]))
        assert frozen == [(plain.ref, tagged.ref), {"k": tagged.ref}]
        assert frozen[0][0] is plain.ref
        assert thaw_args(frozen, lambda v: cluster.handle(
            cluster.registry.all_objects()[v])) == [(plain, plain),
                                                     {"k": plain}]


class TestSizeModelProperties:
    @given(
        holders=st.integers(0, 100),
        pages=st.integers(0, 100),
        dirty=st.integers(0, 100),
    )
    @settings(max_examples=80)
    def test_sizes_monotone_and_positive(self, holders, pages, dirty):
        sizes = SizeModel()
        assert sizes.lock_grant(holders, pages) >= sizes.header_bytes
        assert sizes.lock_grant(holders + 1, pages) >= \
            sizes.lock_grant(holders, pages)
        assert sizes.lock_release(dirty + 1) > sizes.lock_release(dirty)
        assert sizes.page_data(pages + 1) > sizes.page_data(pages)

    @given(byte_count=st.integers(0, 5 * 4096), pages=st.integers(1, 5))
    @settings(max_examples=80)
    def test_object_grain_never_exceeds_page_grain(self, byte_count, pages):
        sizes = SizeModel()
        # Object data on n pages is at most n full pages of bytes.
        capped = min(byte_count, pages * sizes.page_bytes)
        assert sizes.object_data(capped) <= sizes.page_data(pages)
