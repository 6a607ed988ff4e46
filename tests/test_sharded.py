"""Tests for the parallel sharded execution engine.

Covers the ``ShardedMethod`` wrapper (partition-parallel builds, shard
fan-out with a shared best-so-far radius, deterministic answer merging), the
``core.parallel`` helpers, the thread-safe ``BufferPool``, the engine/runner
``workers=`` dispatch, and persistence of sharded indexes.  The central
contract: ``ShardedMethod(m, shards=S, workers=W)`` returns exactly ``m``'s
answers — including distance ties, ``k`` larger than a shard, range and
epsilon queries — for every registered method and every worker count.
"""

import threading

import numpy as np
import pytest

from repro import (
    Dataset,
    SeriesStore,
    SimilaritySearchEngine,
    available_methods,
    create_method,
    load_method,
    parallel_batch_search,
    save_method,
)
from repro.core.answers import KnnAnswerSet
from repro.core.buffer import BufferPool
from repro.core.parallel import SharedRadius, ThreadExecutor, chunk_slices, resolve_workers
from repro.core.queries import KnnQuery, RangeQuery
from repro.indexes.sharded import ShardedMethod
from repro.workloads import random_walk_dataset, synth_rand_workload

SHARDED_METHOD_PARAMS = {
    "dstree": {"leaf_capacity": 10},
    "isax2+": {"leaf_capacity": 10},
    "ads+": {"leaf_capacity": 10},
    "va+file": {"coefficients": 8, "bits_per_dimension": 3},
    "sfa-trie": {"leaf_capacity": 15, "coefficients": 6},
    "ucr-suite": {},
    "mass": {},
    "flat": {},
    "stepwise": {},
    "m-tree": {"node_capacity": 8},
    "r*-tree": {"leaf_capacity": 8, "segments": 4},
}

#: methods whose batch path is a vectorized GEMM kernel — distances may move
#: in the final ulp between tile shapes (the documented batch-API caveat).
VECTOR_BATCH = {"flat", "mass"}

SHARDS = 3
WORKERS = 2


@pytest.fixture(scope="module")
def tie_dataset():
    """Seeded dataset with exact duplicates so k-NN answers contain ties."""
    base = random_walk_dataset(140, 32, seed=61).values
    values = np.vstack([base, base[:20]])  # the first 20 series appear twice
    return Dataset(values=values, name="sharded-ties")


@pytest.fixture(scope="module")
def queries(tie_dataset):
    workload = synth_rand_workload(tie_dataset.length, count=3, seed=63)
    rows = [q.series for q in workload]
    rows.append(tie_dataset.values[7])  # self-query: duplicates tie at zero
    rows.append(tie_dataset.values[150])  # self-query on the duplicated tail
    return np.vstack([np.asarray(q, dtype=np.float64) for q in rows])


@pytest.fixture(scope="module")
def built_pairs(tie_dataset):
    """(plain, sharded) instances of every registered method, built once."""
    pairs = {}
    for name, params in SHARDED_METHOD_PARAMS.items():
        plain = create_method(name, SeriesStore(tie_dataset), **params)
        plain.build()
        sharded = create_method(
            f"sharded:{name}",
            SeriesStore(tie_dataset),
            shards=SHARDS,
            workers=WORKERS,
            **params,
        )
        sharded.build()
        pairs[name] = (plain, sharded)
    return pairs


def assert_identical(a, b):
    """Positions AND distances must agree exactly (byte-identical answers)."""
    assert a.positions() == b.positions()
    assert a.distances() == b.distances()


class TestShardedEquivalence:
    def test_all_registered_methods_covered(self):
        assert sorted(SHARDED_METHOD_PARAMS) == sorted(available_methods())

    @pytest.mark.parametrize("method_name", sorted(SHARDED_METHOD_PARAMS))
    @pytest.mark.parametrize("k", [1, 5])
    def test_knn_byte_identical(self, built_pairs, queries, method_name, k):
        plain, sharded = built_pairs[method_name]
        for q in queries:
            assert_identical(
                plain.knn_exact(KnnQuery(series=q, k=k)),
                sharded.knn_exact(KnnQuery(series=q, k=k)),
            )

    @pytest.mark.parametrize("method_name", sorted(SHARDED_METHOD_PARAMS))
    def test_k_larger_than_shard(self, built_pairs, queries, method_name):
        """k = 70 exceeds each ~53-series shard, so every shard under-fills."""
        plain, sharded = built_pairs[method_name]
        q = KnnQuery(series=queries[0], k=70)
        assert_identical(plain.knn_exact(q), sharded.knn_exact(q))

    @pytest.mark.parametrize("method_name", sorted(SHARDED_METHOD_PARAMS))
    def test_batch_matches_plain_batch(self, built_pairs, queries, method_name):
        plain, sharded = built_pairs[method_name]
        b1 = plain.knn_exact_batch(queries, k=4)
        b2 = sharded.knn_exact_batch(queries, k=4)
        for x, y in zip(b1, b2):
            assert x.positions() == y.positions()
            if method_name in VECTOR_BATCH:
                np.testing.assert_allclose(
                    x.distances(), y.distances(), rtol=1e-9, atol=1e-6
                )
            else:
                assert x.distances() == y.distances()

    @pytest.mark.parametrize(
        "method_name", ["dstree", "isax2+", "va+file", "m-tree", "ucr-suite", "stepwise"]
    )
    @pytest.mark.parametrize("radius_factor", [0.5, 1.0, 1.5])
    def test_range_byte_identical(
        self, built_pairs, tie_dataset, queries, method_name, radius_factor
    ):
        plain, sharded = built_pairs[method_name]
        query = queries[1]
        diffs = tie_dataset.values.astype(np.float64) - query
        radius = float(np.sqrt(np.einsum("ij,ij->i", diffs, diffs).min())) * radius_factor + 1e-6
        r1 = plain.range_exact(RangeQuery(series=query, radius=radius))
        r2 = sharded.range_exact(RangeQuery(series=query, radius=radius))
        assert r1.positions() == r2.positions()
        assert r1.distances() == r2.distances()

    def test_epsilon_zero_byte_identical(self, built_pairs, queries):
        plain, sharded = built_pairs["m-tree"]
        q = KnnQuery(series=queries[3], k=5)
        assert_identical(plain.knn_epsilon(q, 0.0), sharded.knn_epsilon(q, 0.0))

    def test_epsilon_guarantee_holds_sharded(self, built_pairs, tie_dataset, queries):
        _, sharded = built_pairs["m-tree"]
        epsilon = 0.5
        for q in queries:
            knn = KnnQuery(series=q, k=3)
            result = sharded.knn_epsilon(knn, epsilon)
            diffs = tie_dataset.values.astype(np.float64) - np.asarray(q)
            exact_kth = float(
                np.sqrt(np.partition(np.einsum("ij,ij->i", diffs, diffs), 2)[2])
            )
            assert all(d <= (1 + epsilon) * exact_kth + 1e-9 for d in result.distances())

    def test_epsilon_unsupported_inner_raises(self, built_pairs, queries):
        _, sharded = built_pairs["flat"]
        with pytest.raises(NotImplementedError):
            sharded.knn_epsilon(KnnQuery(series=queries[0], k=1), 0.1)

    def test_approximate_search_merges_shard_leaves(self, built_pairs, queries):
        plain, sharded = built_pairs["isax2+"]
        assert sharded.supports_approximate
        result = sharded.knn_approximate(KnnQuery(series=queries[3], k=1))
        # The self-query's duplicate pair sits in some shard's leaf; the
        # merged multi-shard descent must find a zero-distance answer.
        assert result.distances()[0] == pytest.approx(0.0, abs=1e-6)
        assert plain.knn_approximate(KnnQuery(series=queries[3], k=1)).neighbors


class TestWorkerInvarianceAndStats:
    def test_worker_count_does_not_change_answers(self, tie_dataset, queries):
        """workers=1 and workers=4 return byte-identical answers.

        (Work *stats* may legitimately differ with timing: the shared radius
        is a performance hint whose pruning depends on publication order.)
        """
        results = []
        for workers in (1, 4):
            method = create_method(
                "sharded:dstree",
                SeriesStore(tie_dataset),
                shards=4,
                workers=workers,
                leaf_capacity=10,
            )
            method.build()
            for q in queries:
                results.append(method.knn_exact(KnnQuery(series=q, k=5)))
        half = len(results) // 2
        for a, b in zip(results[:half], results[half:]):
            assert_identical(a, b)

    def test_sequential_fanout_stats_deterministic(self, tie_dataset, queries):
        """With workers=1 the fan-out is ordered, so stats are reproducible."""
        runs = []
        for _ in range(2):
            method = create_method(
                "sharded:isax2+",
                SeriesStore(tie_dataset),
                shards=SHARDS,
                workers=1,
                leaf_capacity=10,
            )
            method.build()
            runs.append(method.knn_exact(KnnQuery(series=queries[0], k=3)).stats)
        a, b = runs
        assert a.series_examined == b.series_examined
        assert a.leaves_visited == b.leaves_visited
        assert a.random_accesses == b.random_accesses

    def test_stats_totals_are_shard_sums(self, tie_dataset, queries):
        """Merged QueryStats are the exact sum of the per-shard searches."""
        sharded = create_method(
            "sharded:isax2+",
            SeriesStore(tie_dataset),
            shards=SHARDS,
            workers=1,
            leaf_capacity=10,
        )
        sharded.build()
        merged = sharded.knn_exact(KnnQuery(series=queries[0], k=3)).stats

        # Independent shard runs (no shared radius) bound the merged totals
        # from above, and every shard contributes at least its seeded leaf.
        independent_leaves = 0
        for shard in sharded._shards:
            result = shard.method.knn_exact(KnnQuery(series=queries[0], k=3))
            independent_leaves += result.stats.leaves_visited
        assert sharded.shard_count <= merged.leaves_visited <= independent_leaves
        assert 0 < merged.series_examined <= tie_dataset.count
        assert merged.dataset_size == tie_dataset.count
        # The store-level roll-up matches the per-query charge.
        before = sharded.store.counter.snapshot()
        result = sharded.knn_exact(KnnQuery(series=queries[1], k=3))
        delta = sharded.store.counter.diff(before)
        assert result.stats.random_accesses == delta.random_accesses
        assert result.stats.bytes_read == delta.bytes_read

    def test_shared_radius_tightens_pruning(self, tie_dataset):
        """A self-query's zero radius must spread: other shards prune to ~0."""
        sharded = create_method(
            "sharded:dstree",
            SeriesStore(tie_dataset),
            shards=SHARDS,
            workers=1,
            leaf_capacity=10,
        )
        sharded.build()
        stats = sharded.knn_exact(KnnQuery(series=tie_dataset.values[7], k=1)).stats
        # Without radius sharing every shard would scan at least one leaf plus
        # every tied leaf; with sharing the total stays far below a full scan.
        assert stats.series_examined < tie_dataset.count / 2

    def test_shared_radius_applies_to_batch_path(self, tie_dataset):
        """Batch queries carry per-query radii: self-queries prune cross-shard."""
        sharded = create_method(
            "sharded:dstree",
            SeriesStore(tie_dataset),
            shards=SHARDS,
            workers=1,
            leaf_capacity=10,
        )
        sharded.build()
        batch = sharded.knn_exact_batch(tie_dataset.values[[7, 30]], k=1)
        for result in batch:
            assert result.distances()[0] == 0.0
            assert result.stats.series_examined < tie_dataset.count / 2

    def test_batch_factory_contract_violation_raises(self, tie_dataset):
        """An inner batch path creating extra answer sets must fail loudly.

        Pinned to the thread executor: the monkeypatched inner method cannot
        cross the pickle boundary (process workers rebuild their own); the
        worker-side half of the same contract is unit-tested in
        test_executors.py.
        """
        sharded = create_method(
            "sharded:flat",
            SeriesStore(tie_dataset),
            shards=2,
            workers=1,
            executor="thread",
        )
        sharded.build()
        inner = sharded._shards[0].method

        def greedy_batch(queries, k):
            inner._make_answer_set(k)  # one extra set beyond one-per-query
            sets = [inner._make_answer_set(k) for _ in range(queries.shape[0])]
            from repro.core.stats import QueryStats

            return sets, [QueryStats() for _ in sets]

        inner._batch_answer_sets = greedy_batch
        with pytest.raises(RuntimeError, match="one answer set per query"):
            sharded.knn_exact_batch(tie_dataset.values[:2], k=1)

    def test_build_stats_aggregate_shards(self, built_pairs, tie_dataset):
        plain, sharded = built_pairs["isax2+"]
        assert sharded.index_stats.leaf_nodes > 0
        assert len(sharded.index_stats.leaf_fill_factors) == sharded.index_stats.leaf_nodes
        assert sharded.index_stats.disk_bytes == plain.index_stats.disk_bytes
        assert sharded.index_stats.method == "sharded:isax2+"
        # Build I/O rolled up from every shard: at least one scan of the data.
        assert sharded.index_stats.sequential_pages > 0


class TestShardedConfiguration:
    def test_shards_clamped_to_collection(self):
        dataset = random_walk_dataset(10, 16, seed=3)
        method = create_method("sharded:flat", SeriesStore(dataset), shards=64, workers=2)
        method.build()
        assert method.shard_count == 10
        result = method.knn_exact(KnnQuery(series=dataset.values[4], k=3))
        assert result.positions()[0] == 4

    def test_nested_sharding_rejected(self, tie_dataset):
        with pytest.raises(ValueError):
            ShardedMethod(SeriesStore(tie_dataset), inner="sharded:flat")

    def test_unknown_inner_raises_keyerror(self, tie_dataset):
        with pytest.raises(KeyError):
            create_method("sharded:nope", SeriesStore(tie_dataset))

    def test_bare_sharded_name_with_inner_param(self, tie_dataset):
        method = create_method("sharded", SeriesStore(tie_dataset), inner="iSAX2+",
                               shards=2, workers=1, leaf_capacity=10)
        assert method.inner_name == "isax2+"  # inner= is case-insensitive
        with pytest.raises(ValueError):  # prefix and inner= must not conflict
            create_method("sharded:flat", SeriesStore(tie_dataset), inner="flat")

    def test_close_releases_and_recreates_pool(self, tie_dataset, queries):
        # Pinned to the thread executor: shared process executors are owned
        # by the registry and deliberately survive method.close().
        method = create_method(
            "sharded:flat",
            SeriesStore(tie_dataset),
            shards=2,
            workers=2,
            executor="thread",
        )
        method.build()
        first = method.knn_exact(KnnQuery(series=queries[0], k=3))
        assert method.executor._pool is not None
        method.close()
        assert method.executor._pool is None
        method.close()  # idempotent
        again = method.knn_exact(KnnQuery(series=queries[0], k=3))  # still usable
        assert_identical(first, again)

    def test_invalid_worker_and_shard_counts(self, tie_dataset):
        with pytest.raises(ValueError):
            create_method("sharded:flat", SeriesStore(tie_dataset), shards=0)
        with pytest.raises(ValueError):
            create_method("sharded:flat", SeriesStore(tie_dataset), workers=0)

    def test_append_rejects_already_indexed_rows(self, built_pairs):
        # Appends route to the tail shard and must pick up exactly where the
        # indexed rows end — re-appending row 0 is a contract violation.
        _, sharded = built_pairs["isax2+"]
        with pytest.raises(ValueError, match="indexed row count"):
            sharded.append(0)

    def test_describe_reports_topology(self, built_pairs):
        _, sharded = built_pairs["dstree"]
        info = sharded.describe()
        assert info["inner"] == "dstree"
        assert info["shards"] == SHARDS
        assert info["workers"] == WORKERS

    def test_persistence_roundtrip(self, tie_dataset, queries, tmp_path):
        sharded = create_method(
            "sharded:isax2+",
            SeriesStore(tie_dataset),
            shards=SHARDS,
            workers=WORKERS,
            leaf_capacity=10,
        )
        sharded.build()
        expected = sharded.knn_exact(KnnQuery(series=queries[0], k=5))
        path = tmp_path / "sharded.idx"
        envelope = save_method(sharded, path)
        # Shard stores are detached before pickling: no raw data in the file.
        assert tie_dataset.values[60:90].tobytes() not in envelope.method_state
        loaded = load_method(path, tie_dataset)
        assert_identical(expected, loaded.knn_exact(KnnQuery(series=queries[0], k=5)))
        # The live instance keeps working after the save detach/re-attach.
        assert_identical(expected, sharded.knn_exact(KnnQuery(series=queries[0], k=5)))


class TestEngineAndRunnerWorkers:
    def test_engine_search_batch_workers_identical(self, tie_dataset, queries):
        engine = SimilaritySearchEngine(tie_dataset)
        engine.build("sharded:dstree", shards=SHARDS, workers=WORKERS, leaf_capacity=10)
        sequential = engine.search_batch(queries, k=3)
        parallel = engine.search_batch(queries, k=3, workers=4)
        for a, b in zip(sequential, parallel):
            assert_identical(a, b)

    def test_parallel_batch_search_plain_method(self, tie_dataset, queries):
        method = create_method("dstree", SeriesStore(tie_dataset), leaf_capacity=10)
        method.build()
        sequential = method.knn_exact_batch(queries, k=3)
        parallel = parallel_batch_search(method, queries, k=3, workers=3)
        for a, b in zip(sequential, parallel):
            assert_identical(a, b)

    def test_parallel_batch_search_accounting_rolls_up(self, tie_dataset, queries):
        method = create_method("dstree", SeriesStore(tie_dataset), leaf_capacity=10)
        method.build()
        before = method.store.counter.snapshot()
        results = parallel_batch_search(method, queries, k=3, workers=3)
        delta = method.store.counter.diff(before)
        # Worker-local counters were merged back: per-query charges sum to the
        # store-level delta.
        assert sum(r.stats.random_accesses for r in results) == delta.random_accesses
        assert sum(r.stats.bytes_read for r in results) == delta.bytes_read

    def test_runner_workers_matches_sequential(self, tie_dataset):
        from repro.evaluation import HDD, run_experiment

        workload = synth_rand_workload(tie_dataset.length, count=4, seed=71)
        base = run_experiment(tie_dataset, workload, "flat", platform=HDD)
        threaded = run_experiment(tie_dataset, workload, "flat", platform=HDD, workers=3)
        for a, b in zip(base.answers, threaded.answers):
            assert [n.position for n in a] == [n.position for n in b]

    def test_cli_sharded_run_and_workers(self, capsys):
        from repro.cli import main

        code = main(
            [
                "run",
                "--method",
                "sharded:isax2+",
                "--count",
                "200",
                "--length",
                "32",
                "--queries",
                "4",
                "--workers",
                "2",
                "--shards",
                "3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "sharded:isax2+" in out

    def test_cli_rejects_unknown_sharded_inner(self, capsys):
        from repro.cli import main

        code = main(["run", "--method", "sharded:nope", "--count", "50", "--length", "16"])
        assert code == 2

    def test_cli_rejects_shards_on_unsharded_method(self, capsys):
        from repro.cli import main

        code = main(
            ["run", "--method", "isax2+", "--count", "50", "--length", "16", "--shards", "4"]
        )
        out = capsys.readouterr().out
        assert code == 2
        assert "sharded:isax2+" in out


class TestParallelPrimitives:
    def test_resolve_workers(self, monkeypatch):
        assert resolve_workers(3) == 3
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert resolve_workers(None) == 5
        monkeypatch.delenv("REPRO_WORKERS")
        assert resolve_workers(None) >= 1
        with pytest.raises(ValueError):
            resolve_workers(0)

    def test_chunk_slices_partition_exactly(self):
        for total, parts in [(10, 3), (7, 7), (5, 9), (100, 4), (1, 1)]:
            slices = chunk_slices(total, parts)
            assert slices[0].start == 0 and slices[-1].stop == total
            covered = [i for sl in slices for i in range(sl.start, sl.stop)]
            assert covered == list(range(total))
            sizes = [sl.stop - sl.start for sl in slices]
            assert max(sizes) - min(sizes) <= 1
        assert chunk_slices(0, 4) == []

    def test_parallel_map_orders_and_propagates(self):
        assert ThreadExecutor(4).map(lambda x: x * x, range(20)) == [
            x * x for x in range(20)
        ]
        with pytest.raises(RuntimeError):
            ThreadExecutor(2).map(
                lambda x: (_ for _ in ()).throw(RuntimeError("boom")), [1, 2]
            )

    def test_shared_radius_monotone_under_threads(self):
        shared = SharedRadius()
        values = [float(v) for v in np.random.default_rng(5).random(400) * 100]

        def publish(chunk):
            for v in chunk:
                shared.tighten(v)

        ThreadExecutor(4).map(publish, [values[i::4] for i in range(4)])
        assert shared.value == min(values)
        assert not shared.tighten(min(values) + 1.0)

    def test_store_fork_isolates_counters(self, tie_dataset):
        store = SeriesStore(tie_dataset)
        fork = store.fork()
        fork.scan()
        assert store.counter.sequential_pages == 0
        assert fork.counter.sequential_pages > 0
        store.counter.merge(fork.counter)
        assert store.counter.sequential_pages == fork.counter.sequential_pages


class TestAnswerSetTieDeterminism:
    def test_position_breaks_distance_ties(self):
        answers = KnnAnswerSet(2)
        answers.offer(9, 1.0)
        answers.offer(4, 1.0)
        answers.offer(7, 1.0)  # ties at the k-th distance: smallest positions win
        assert answers.positions() == [4, 7]

    def test_tie_break_is_offer_order_independent(self):
        rng = np.random.default_rng(13)
        offers = [(int(p), float(d)) for p, d in zip(range(40), np.repeat([1.0, 2.0], 20))]
        expected = None
        for _ in range(5):
            rng.shuffle(offers)
            answers = KnnAnswerSet(25)
            for p, d in offers:
                answers.offer(p, d)
            got = answers.positions()
            expected = got if expected is None else expected
            assert got == expected
        assert expected == sorted(expected)

    def test_offer_batch_ties_match_scalar_loop(self):
        positions = np.arange(50)
        distances = np.repeat([3.0, 1.0, 2.0, 1.0, 3.0], 10)
        scalar = KnnAnswerSet(12)
        for p, d in zip(positions, distances):
            scalar.offer(int(p), float(d))
        batched = KnnAnswerSet(12)
        batched.offer_batch(positions, distances)
        assert scalar.positions() == batched.positions()
        assert scalar.distances() == batched.distances()

    def test_merge_with_offset_matches_single_set(self):
        rng = np.random.default_rng(17)
        distances = np.round(rng.random(60) * 4, 1)  # rounding creates ties
        reference = KnnAnswerSet(8)
        reference.offer_batch(np.arange(60), distances)
        merged = KnnAnswerSet(8)
        for start, stop in [(0, 20), (20, 45), (45, 60)]:
            part = KnnAnswerSet(8)
            part.offer_batch(np.arange(stop - start), distances[start:stop])
            merged.merge(part, position_offset=start)
        assert merged.positions() == reference.positions()
        assert merged.distances() == reference.distances()

    def test_squared_items_sorted(self):
        answers = KnnAnswerSet(3)
        answers.offer(5, 4.0)
        answers.offer(2, 1.0)
        answers.offer(9, 1.0)
        assert answers.squared_items() == [(1.0, 2), (1.0, 9), (4.0, 5)]


class TestBufferPoolThreadSafety:
    def test_concurrent_adds_account_exactly(self):
        pool = BufferPool(capacity_series=None)
        threads = [
            threading.Thread(
                target=lambda t=t: [pool.add(("node", t, i % 7)) for i in range(500)]
            )
            for t in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert pool.stats.series_buffered == 2000
        assert pool.in_memory_series == 2000
        assert pool.flush_all() == 2000

    def test_concurrent_adds_with_spills_conserve_series(self):
        pool = BufferPool(capacity_series=50, series_bytes=8, page_series=16)
        threads = [
            threading.Thread(
                target=lambda t=t: [pool.add((t, i % 13), 2) for i in range(300)]
            )
            for t in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Every buffered series is either still in memory or was spilled.
        assert pool.stats.series_buffered == 4 * 300 * 2
        assert pool.stats.series_spilled + pool.in_memory_series == pool.stats.series_buffered
        assert pool.in_memory_series <= 50 + 2  # at most one add over capacity
        assert pool.counter.bytes_written == pool.stats.series_spilled * 8

    def test_pool_survives_pickle(self):
        import pickle

        pool = BufferPool(capacity_series=10)
        pool.add("a", 3)
        clone = pickle.loads(pickle.dumps(pool))
        clone.add("b", 4)  # the lock was recreated
        assert clone.buffered("a") == 3
        assert clone.buffered("b") == 4
