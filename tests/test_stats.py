"""Tests for the accounting dataclasses."""

import dataclasses

import pytest

from repro.core.stats import AccessCounter, IndexStats, QueryStats, aggregate_query_stats


class TestAccessCounter:
    def test_snapshot_diff_merge(self):
        counter = AccessCounter()
        counter.random_accesses = 3
        counter.sequential_pages = 10
        snap = counter.snapshot()
        counter.random_accesses = 8
        counter.sequential_pages = 12
        delta = counter.diff(snap)
        assert delta.random_accesses == 5
        assert delta.sequential_pages == 2
        other = AccessCounter(random_accesses=1)
        delta.merge(other)
        assert delta.random_accesses == 6

    def test_reset(self):
        counter = AccessCounter(sequential_pages=4, random_accesses=2, series_read=9)
        counter.reset()
        assert counter.sequential_pages == 0
        assert counter.random_accesses == 0
        assert counter.series_read == 0

    def test_bytes_written_tracked_through_snapshot_diff_merge(self):
        counter = AccessCounter(bytes_read=100, bytes_written=40)
        snap = counter.snapshot()
        assert snap.bytes_written == 40
        counter.bytes_written = 90
        counter.bytes_read = 150
        delta = counter.diff(snap)
        assert delta.bytes_written == 50
        assert delta.bytes_read == 50
        delta.merge(AccessCounter(bytes_written=10))
        assert delta.bytes_written == 60
        counter.reset()
        assert counter.bytes_written == 0


class TestQueryStats:
    def test_pruning_ratio(self):
        stats = QueryStats(series_examined=20, dataset_size=100)
        assert stats.pruning_ratio == pytest.approx(0.8)

    def test_pruning_ratio_zero_dataset(self):
        assert QueryStats().pruning_ratio == 0.0

    def test_pruning_ratio_clamped(self):
        stats = QueryStats(series_examined=200, dataset_size=100)
        assert stats.pruning_ratio == 0.0

    def test_total_seconds(self):
        stats = QueryStats(cpu_seconds=1.5, io_seconds=0.5)
        assert stats.total_seconds == pytest.approx(2.0)

    def test_merge(self):
        a = QueryStats(series_examined=5, random_accesses=2, cpu_seconds=1.0, dataset_size=50)
        b = QueryStats(series_examined=3, random_accesses=4, cpu_seconds=0.5, dataset_size=50)
        a.merge(b)
        assert a.series_examined == 8
        assert a.random_accesses == 6
        assert a.cpu_seconds == pytest.approx(1.5)

    def test_aggregate(self):
        stats = [
            QueryStats(series_examined=10, dataset_size=100),
            QueryStats(series_examined=30, dataset_size=100),
        ]
        total = aggregate_query_stats(stats)
        assert total.series_examined == 40
        assert total.dataset_size == 100

    def test_aggregate_empty(self):
        assert aggregate_query_stats([]).series_examined == 0


def _distinct_values(cls, skip=()):
    """A distinct nonzero value per field of ``cls`` (ints stay ints)."""
    values = {}
    for number, item in enumerate(dataclasses.fields(cls), start=1):
        if item.name in skip:
            continue
        values[item.name] = number if isinstance(item.default, int) else number + 0.5
    return values


class TestNoCounterDropped:
    """Every field survives every accounting operation, so a counter added
    later cannot silently miss a snapshot, diff, merge or reset."""

    def test_access_counter_carries_every_field(self):
        values = _distinct_values(AccessCounter)
        assert set(values) == {f.name for f in dataclasses.fields(AccessCounter)}
        counter = AccessCounter(**values)

        snap = counter.snapshot()
        assert snap is not counter
        assert dataclasses.asdict(snap) == values

        doubled = AccessCounter(**{name: 3 * v for name, v in values.items()})
        assert dataclasses.asdict(doubled.diff(counter)) == {
            name: 2 * v for name, v in values.items()
        }

        merged = AccessCounter(**values)
        merged.merge(counter)
        assert dataclasses.asdict(merged) == {name: 2 * v for name, v in values.items()}

        counter.reset()
        assert counter == AccessCounter()
        assert dataclasses.asdict(snap) == values  # the snapshot is a copy

    def test_query_stats_merge_sums_every_summed_field(self):
        unsummed = {"dataset_size", "degraded", "answer_distance"}
        values = _distinct_values(QueryStats, skip=unsummed)
        assert set(values) | unsummed == {f.name for f in dataclasses.fields(QueryStats)}
        total = QueryStats(**values, dataset_size=10, answer_distance=1.5)
        total.merge(QueryStats(**values, dataset_size=40, degraded=True))
        for name, value in values.items():
            assert getattr(total, name) == pytest.approx(2 * value), name
        assert total.dataset_size == 40
        assert total.degraded is True
        assert total.answer_distance == 1.5


class TestIndexStats:
    def test_median_fill_factor_odd_even(self):
        stats = IndexStats(leaf_fill_factors=[0.2, 0.8, 0.5])
        assert stats.median_fill_factor == pytest.approx(0.5)
        stats = IndexStats(leaf_fill_factors=[0.2, 0.4, 0.6, 0.8])
        assert stats.median_fill_factor == pytest.approx(0.5)
        assert IndexStats().median_fill_factor == 0.0

    def test_max_leaf_depth(self):
        assert IndexStats(leaf_depths=[1, 5, 3]).max_leaf_depth == 5
        assert IndexStats().max_leaf_depth == 0

    def test_build_seconds(self):
        stats = IndexStats(build_cpu_seconds=2.0, build_io_seconds=1.0)
        assert stats.build_seconds == pytest.approx(3.0)
