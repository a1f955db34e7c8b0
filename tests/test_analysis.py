"""Unit tests for the "compiler": AST access analysis and prediction."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import ALL_ATTRIBUTES, AccessSets, analyze_method, predict
from repro.analysis.prediction import PredictionStats
from repro.memory.layout import AttributeSpec, ObjectLayout


def analyze(func, helpers=None):
    return analyze_method(func, class_methods=helpers or {})


class TestLoadsAndStores:
    def test_plain_read(self):
        def m(self, ctx):
            return self.x + self.y

        result = analyze(m)
        assert result.reads == {"x", "y"}
        assert result.writes == frozenset()

    def test_plain_write(self):
        def m(self, ctx, v):
            self.x = v

        result = analyze(m)
        assert result.writes == {"x"}
        assert result.reads == frozenset()

    def test_augassign_reads_and_writes(self):
        def m(self, ctx):
            self.x += 1

        result = analyze(m)
        assert result.reads == {"x"}
        assert result.writes == {"x"}

    def test_delete_counts_as_write(self):
        def m(self, ctx):
            del self.x

        assert analyze(m).writes == {"x"}

    def test_all_control_paths_unioned(self):
        def m(self, ctx, flag):
            if flag:
                self.a = 1
            else:
                self.b = self.c

        result = analyze(m)
        assert result.writes == {"a", "b"}
        assert result.reads == {"c"}

    def test_loops_and_nested_blocks(self):
        def m(self, ctx, n):
            for _ in range(n):
                while self.x > 0:
                    self.y = self.z

        result = analyze(m)
        assert result.reads == {"x", "z"}
        assert result.writes == {"y"}


class TestSubscripts:
    def test_element_read(self):
        def m(self, ctx, i):
            return self.arr[i]

        result = analyze(m)
        assert result.reads == {"arr"}
        assert result.writes == frozenset()

    def test_element_write(self):
        def m(self, ctx, i, v):
            self.arr[i] = v

        result = analyze(m)
        assert "arr" in result.writes

    def test_element_augassign(self):
        def m(self, ctx, i):
            self.arr[i] += 1

        result = analyze(m)
        assert "arr" in result.reads and "arr" in result.writes

    def test_index_expression_analyzed(self):
        def m(self, ctx):
            return self.arr[self.cursor]

        result = analyze(m)
        assert result.reads == {"arr", "cursor"}


class TestEscapes:
    def test_getattr_degrades_reads(self):
        def m(self, ctx, name):
            return getattr(self, name)

        assert analyze(m).reads is ALL_ATTRIBUTES

    def test_setattr_degrades_writes(self):
        def m(self, ctx, name, v):
            setattr(self, name, v)

        result = analyze(m)
        assert result.writes is ALL_ATTRIBUTES

    def test_bare_self_escape_degrades_everything(self):
        def m(self, ctx, sink):
            sink.append(self)

        result = analyze(m)
        assert result.reads is ALL_ATTRIBUTES
        assert result.writes is ALL_ATTRIBUTES

    def test_unanalyzable_callable_degrades(self):
        result = analyze_method(len)  # no Python source
        assert result.reads is ALL_ATTRIBUTES

    def test_resolve_replaces_sentinel(self):
        sets = AccessSets(reads=ALL_ATTRIBUTES, writes=frozenset({"x"}))
        resolved = sets.resolve({"x", "y"})
        assert resolved.reads == {"x", "y"}
        assert resolved.writes == {"x"}
        assert resolved.is_exact


class TestHelperCalls:
    def test_helper_accesses_unioned(self):
        def helper(self, amount):
            self.total += amount

        def m(self, ctx, amount):
            self.count += 1
            self.helper(amount)

        result = analyze(m, helpers={"helper": helper})
        assert result.writes == {"count", "total", "helper"} - {"helper"} \
            or result.writes == {"count", "total"}
        assert "total" in result.writes
        assert "count" in result.reads

    def test_mutually_recursive_helpers_terminate(self):
        def ping(self):
            self.a = 1
            self.pong()

        def pong(self):
            self.b = 2
            self.ping()

        result = analyze(ping, helpers={"ping": ping, "pong": pong})
        assert {"a", "b"} <= set(result.writes)

    def test_unknown_callee_name_stays_in_reads(self):
        def m(self, ctx):
            self.mystery()

        result = analyze(m)
        assert "mystery" in result.reads  # resolved away later by schema


class TestGeneratorBodies:
    def test_yield_bodies_analyzed(self):
        def m(self, ctx, other):
            before = self.x
            result = yield ctx.invoke(other, "get")
            self.y = before + result

        sets = analyze(m)
        assert sets.reads == {"x"}
        assert sets.writes == {"y"}


class TestPrediction:
    def make_layout(self):
        return ObjectLayout(
            [AttributeSpec("a", 90), AttributeSpec("b", 90),
             AttributeSpec("c", 90)],
            page_size=100,
        )

    def test_maps_attrs_to_pages(self):
        layout = self.make_layout()
        prediction = predict(
            AccessSets(reads=frozenset({"a"}), writes=frozenset({"c"})), layout
        )
        assert prediction.read_pages == frozenset({0})
        assert prediction.write_pages == frozenset({1, 2})
        assert prediction.pages == frozenset({0, 1, 2})
        assert prediction.is_update

    def test_read_only_is_not_update(self):
        layout = self.make_layout()
        prediction = predict(
            AccessSets(reads=frozenset({"b"}), writes=frozenset()), layout
        )
        assert not prediction.is_update
        assert prediction.pages == frozenset({0, 1})

    def test_all_sentinel_means_every_page(self):
        layout = self.make_layout()
        prediction = predict(
            AccessSets(reads=ALL_ATTRIBUTES, writes=ALL_ATTRIBUTES), layout
        )
        assert prediction.pages == layout.all_pages()

    @given(
        sizes=st.lists(st.tuples(st.integers(1, 300), st.integers(1, 4)),
                       min_size=1, max_size=6),
        page_sizes=st.lists(st.integers(16, 256), min_size=2, max_size=2,
                            unique=True),
        picks=st.lists(st.tuples(
            st.one_of(st.just(ALL_ATTRIBUTES), st.sets(st.integers(0, 5))),
            st.one_of(st.just(ALL_ATTRIBUTES), st.sets(st.integers(0, 5))),
        ), min_size=1, max_size=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_memoised_predict_equals_fresh_computation(self, sizes,
                                                       page_sizes, picks):
        specs = [AttributeSpec(f"a{i}", size, count)
                 for i, (size, count) in enumerate(sizes)]
        small, large = (ObjectLayout(specs, page_size=size)
                        for size in page_sizes)

        def names(pick):
            if pick is ALL_ATTRIBUTES:
                return pick
            return frozenset(f"a{i}" for i in pick if i < len(specs))

        def pages(layout, attrs):  # un-memoised, from the layout's API
            if attrs is ALL_ATTRIBUTES:
                return layout.all_pages()
            return frozenset().union(*map(layout.attribute_pages, attrs))

        for reads, writes in picks * 2:  # second round hits the memo
            access = AccessSets(reads=names(reads), writes=names(writes))
            for layout in (small, large):
                prediction = predict(access, layout)
                assert prediction is predict(access, layout)
                assert prediction.read_pages == pages(layout, access.reads)
                assert prediction.write_pages == pages(layout, access.writes)
                assert layout.predictions[access.reads, access.writes] \
                    is prediction
        # One schema at two page sizes: two tables, no shared entry.
        assert small.predictions is not large.predictions
        assert small.predictions.keys() == large.predictions.keys()
        shared = {id(p) for p in small.predictions.values()} & \
            {id(p) for p in large.predictions.values()}
        assert not shared

    def test_stats_merge_and_rates(self):
        stats = PredictionStats(predicted_pages=10, transferred_pages=8,
                                demand_fetches=2, acquisitions=4,
                                over_predicted_pages=2)
        other = PredictionStats(acquisitions=4, demand_fetches=2,
                                transferred_pages=2)
        stats.merge(other)
        assert stats.acquisitions == 8
        assert stats.demand_fetch_rate == pytest.approx(0.5)
        assert stats.waste_rate == pytest.approx(0.2)

    def test_rates_zero_safe(self):
        stats = PredictionStats()
        assert stats.demand_fetch_rate == 0.0
        assert stats.waste_rate == 0.0
