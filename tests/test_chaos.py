"""Chaos suite: fault plans driven through every method (ISSUE acceptance).

Three guarantees, exercised with deterministic seeded fault plans:

(a) injected single-block corruption on checksummed storage surfaces as a
    typed :class:`CorruptionError` — never a silently wrong answer;
(b) transient-fault plans (I/O errors, short reads, latency) up to a 20%
    site rate yield **byte-identical** answers via the retry layer, for every
    registered method and the sharded wrapper;
(c) a killed shard worker is recovered by re-fork/re-execution to the exact
    answer, or — under ``allow_partial`` — the query returns a result
    explicitly flagged degraded.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Dataset, SeriesStore
from repro.core.faults import FaultPlan, RetryPolicy
from repro.core.integrity import CorruptionError, invalidate_manifest_cache
from repro.core.queries import KnnQuery, RangeQuery
from repro.core.registry import available_methods, create_method
from repro.workloads.generators import random_walk_dataset

#: fast build params per method (mirrors the CLI defaults, shrunk for tests).
_PARAMS = {
    "ads+": {"leaf_capacity": 50},
    "dstree": {"leaf_capacity": 50},
    "isax2+": {"leaf_capacity": 50},
    "sfa-trie": {"leaf_capacity": 100},
    "m-tree": {"node_capacity": 16},
    "r*-tree": {"leaf_capacity": 25},
}

#: a quick retry policy so chaos runs do not sleep through real backoffs.
#: A site can be transient-faulty AND truncate-faulty, so the worst case is
#: 2 * max_failures consecutive failures before it serves — budget past that.
_FAST_RETRY = RetryPolicy(attempts=8, base_delay=1e-5, max_delay=1e-4)

#: the two fixed transient plans exercised in CI (both at or under 20%).
TRANSIENT_PLANS = [
    FaultPlan(seed=7, transient=0.2, truncate=0.1),
    FaultPlan(seed=23, transient=0.15, truncate=0.2, latency=0.05, latency_seconds=0.0001),
]


@pytest.fixture(scope="module")
def chaos_dataset():
    return random_walk_dataset(240, 32, seed=5, name="chaos")


@pytest.fixture(scope="module")
def chaos_queries(chaos_dataset):
    rng = np.random.default_rng(17)
    return [
        KnnQuery(series=np.cumsum(rng.standard_normal(32)), k=3) for _ in range(3)
    ]


def _method(name, store, **extra):
    params = dict(_PARAMS.get(name.split(":", 1)[-1], {}))
    params.update(extra)
    method = create_method(name, store, **params)
    method.build()
    return method


def _answers(method, queries):
    out = []
    for query in queries:
        result = method.knn_exact(query)
        out.append([(n.position, n.distance) for n in result.neighbors])
    return out


# -- (b) transient faults: byte-identical answers through retries --------------


@pytest.mark.parametrize("name", available_methods() + ["sharded:flat", "sharded:dstree"])
def test_transient_plans_yield_identical_answers(name, chaos_dataset, chaos_queries):
    clean = _answers(_method(name, SeriesStore(chaos_dataset)), chaos_queries)
    for plan in TRANSIENT_PLANS:
        store = SeriesStore(chaos_dataset, faults=plan, retry=_FAST_RETRY)
        chaotic = _method(name, store)
        assert _answers(chaotic, chaos_queries) == clean, (
            f"{name} answers drifted under {plan.describe()}"
        )


def test_transient_plan_is_actually_firing(chaos_dataset):
    # Guard against the suite silently testing nothing: at 100% the plan must
    # produce retries on this dataset.
    store = SeriesStore(
        chaos_dataset, faults=FaultPlan(seed=1, transient=1.0), retry=_FAST_RETRY
    )
    store.read_contiguous(0, chaos_dataset.count)
    assert store.counter.retries > 0


# -- (a) corruption: typed error, never a wrong answer -------------------------


class TestCorruptionIsAlwaysCaught:
    def _corrupt_store(self, tmp_path, fmt):
        dataset = random_walk_dataset(600, 32, seed=9, name=f"corrupt-{fmt}")
        if fmt == "rcz":
            # The .rcz payload CRC guards the file bytes themselves, so the
            # corruption model for the compressed format is damage *in* the
            # file: flip a byte inside one stored block's payload.
            from repro.core.quantize import read_rcz_info

            dataset = dataset.to_compressed(tmp_path / "data.rcz")
            path = tmp_path / "data.rcz"
            info = read_rcz_info(path)
            with open(path, "r+b") as handle:
                handle.seek(int(info.table["offset"][0]) + 3)
                byte = handle.read(1)
                handle.seek(int(info.table["offset"][0]) + 3)
                handle.write(bytes([byte[0] ^ 0x10]))
            invalidate_manifest_cache()
            return SeriesStore(Dataset.from_file(path))
        if fmt == "npy":
            dataset = dataset.to_mmap(tmp_path / "data.npy")
        else:
            dataset.to_file(tmp_path / "data.f32")
            dataset = Dataset.from_file(tmp_path / "data.f32", length=32)
        invalidate_manifest_cache()
        # Damage-at-rest injected by the fault layer: every region of every
        # read comes back with a flipped bit, which the sidecar digests catch.
        return SeriesStore(
            dataset,
            faults=FaultPlan(seed=3, corrupt=1.0, region_rows=64),
            retry=_FAST_RETRY,
        )

    @pytest.mark.parametrize("fmt", ["rcz", "npy", "raw"])
    def test_scan_query_raises_corruption_error(self, tmp_path, fmt):
        store = self._corrupt_store(tmp_path, fmt)
        query = KnnQuery(series=np.zeros(32), k=3)
        # The typed error surfaces at the first read that touches the damaged
        # block — during the build scan or the query — never a wrong answer.
        with pytest.raises(CorruptionError):
            method = _method("flat", store)
            method.knn_exact(query)

    @pytest.mark.parametrize("fmt", ["npy", "raw"])
    def test_random_access_raises_corruption_error(self, tmp_path, fmt):
        store = self._corrupt_store(tmp_path, fmt)
        with pytest.raises(CorruptionError):
            store.read_block(np.arange(0, 600, 7))

    def test_corruption_is_permanent_not_retried_forever(self, tmp_path):
        store = self._corrupt_store(tmp_path, "raw")
        before = store.counter.retries
        with pytest.raises(CorruptionError):
            store.read_contiguous(0, 64)
        # CorruptionError is permanent: the retry loop must not have burned
        # its budget re-reading damaged bytes.
        assert store.counter.retries == before


# -- (c) shard-worker failure: recover exactly or degrade explicitly ----------


class TestShardWorkerRecovery:
    def _sharded(self, dataset, **extra):
        store = SeriesStore(dataset)
        return _method("sharded:flat", store, shards=3, workers=2, **extra)

    def _kill_next_calls(self, shard, count, attr="_knn_exact"):
        """Make the shard's ``attr`` search raise for its next ``count`` calls."""
        original = getattr(shard.method, attr)
        state = {"left": count}

        def dying(*args):
            if state["left"] > 0:
                state["left"] -= 1
                raise RuntimeError("simulated killed shard worker")
            return original(*args)

        setattr(shard.method, attr, dying)
        return state

    #: op -> (sharded method, the inner search the op's shard task calls)
    OPS = {
        "knn_exact": ("sharded:flat", "_knn_exact"),
        "knn_exact_batch": ("sharded:flat", "_batch_answer_sets"),
        "range_exact": ("sharded:flat", "_range_exact"),
        "knn_approximate": ("sharded:isax2+", "_knn_approximate"),
        "knn_epsilon": ("sharded:m-tree", "_knn_bounded"),
    }

    def _op_method(self, op, dataset, **extra):
        return _method(self.OPS[op][0], SeriesStore(dataset), shards=3, workers=2, **extra)

    def _run_op(self, op, method, dataset, queries):
        """Every result the op returns for the chaos queries."""
        if op == "knn_exact_batch":
            stacked = np.vstack([np.asarray(q.series, dtype=np.float64) for q in queries])
            return method.knn_exact_batch(stacked, k=3)
        query = queries[0]
        if op == "range_exact":
            # A radius holding the query's eight nearest rows.
            diffs = dataset.values.astype(np.float64) - np.asarray(query.series)
            radius = float(np.sort(np.sqrt(np.einsum("ij,ij->i", diffs, diffs)))[7])
            return [method.range_exact(RangeQuery(series=query.series, radius=radius))]
        if op == "knn_epsilon":
            return [method.knn_epsilon(query, epsilon=0.5)]
        return [getattr(method, op)(query)]

    @pytest.mark.parametrize("op", list(OPS))
    def test_every_op_recovers_from_one_failure(self, op, chaos_dataset, chaos_queries):
        clean = self._run_op(
            op, self._op_method(op, chaos_dataset), chaos_dataset, chaos_queries
        )
        method = self._op_method(op, chaos_dataset)
        state = self._kill_next_calls(method._shards[0], 1, self.OPS[op][1])
        results = self._run_op(op, method, chaos_dataset, chaos_queries)
        assert all(r.neighbors for r in clean)
        assert state["left"] == 0  # the failure was injected
        assert [[(n.position, n.distance) for n in r.neighbors] for r in results] == [
            [(n.position, n.distance) for n in r.neighbors] for r in clean
        ]
        assert all(r.stats.retries >= 1 for r in results)
        assert not any(r.stats.degraded for r in results)

    @pytest.mark.parametrize("op", list(OPS))
    def test_every_op_degrades_on_permanent_failure(
        self, op, chaos_dataset, chaos_queries
    ):
        method = self._op_method(op, chaos_dataset, allow_partial=True)
        self._kill_next_calls(method._shards[0], 10**6, self.OPS[op][1])
        results = self._run_op(op, method, chaos_dataset, chaos_queries)
        assert all(r.stats.degraded for r in results)
        assert all(r.stats.shards_failed == 1 for r in results)

    def test_killed_worker_recovers_to_exact_answer(self, chaos_dataset, chaos_queries):
        baseline = _answers(self._sharded(chaos_dataset), chaos_queries[:1])
        method = self._sharded(chaos_dataset)
        self._kill_next_calls(method._shards[0], 1)
        result = method.knn_exact(chaos_queries[0])
        assert [(n.position, n.distance) for n in result.neighbors] == baseline[0]
        assert not result.stats.degraded
        assert result.stats.retries >= 1  # the re-executed shard is visible

    def test_permanent_failure_without_allow_partial_raises(
        self, chaos_dataset, chaos_queries
    ):
        method = self._sharded(chaos_dataset)
        self._kill_next_calls(method._shards[0], 10**6)
        with pytest.raises(RuntimeError, match="killed shard worker"):
            method.knn_exact(chaos_queries[0])

    def test_permanent_failure_with_allow_partial_degrades(
        self, chaos_dataset, chaos_queries
    ):
        method = self._sharded(chaos_dataset, allow_partial=True)
        dead = method._shards[0]
        self._kill_next_calls(dead, 10**6)
        result = method.knn_exact(chaos_queries[0])
        assert result.stats.degraded
        assert result.stats.shards_failed == 1
        # The answer is correct for the data examined: it equals brute force
        # over the surviving shards' rows.
        survivors = np.arange(dead.store.count, chaos_dataset.count)
        values = chaos_dataset.values[survivors].astype(np.float64)
        diffs = values - np.asarray(chaos_queries[0].series, dtype=np.float64)
        distances = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
        order = np.argsort(distances, kind="stable")[:3]
        expected = [
            (int(survivors[i]), pytest.approx(float(distances[i]))) for i in order
        ]
        got = [(n.position, n.distance) for n in result.neighbors]
        assert got == expected

    def test_batch_path_flags_degraded_queries(self, chaos_dataset, chaos_queries):
        method = self._sharded(chaos_dataset, allow_partial=True)
        # The batch fan-out runs the shard's vectorized batch path, so the
        # killed worker must die there; every query in the affected (shard,
        # chunk) task degrades.
        broken = method._shards[1]

        def dying_batch(queries, k):
            raise RuntimeError("simulated killed shard worker")

        broken.method._batch_answer_sets = dying_batch
        stacked = np.vstack(
            [np.asarray(q.series, dtype=np.float64) for q in chaos_queries]
        )
        results = method.knn_exact_batch(stacked, k=3)
        assert all(r.stats.degraded for r in results)
        assert all(r.stats.shards_failed == 1 for r in results)

    def test_deadline_requires_allow_partial(self, chaos_dataset):
        store = SeriesStore(chaos_dataset)
        with pytest.raises(ValueError, match="allow_partial"):
            create_method(
                "sharded:flat", store, shards=2, workers=2, deadline_seconds=0.5
            )

    def test_deadline_drops_stragglers_as_degraded(self, chaos_dataset, chaos_queries):
        import time as _time

        method = self._sharded(
            chaos_dataset, allow_partial=True, deadline_seconds=0.15
        )
        slow = method._shards[0]
        original = slow.method._knn_exact

        def sleepy(query, k, stats):
            _time.sleep(1.0)
            return original(query, k, stats)

        slow.method._knn_exact = sleepy
        start = _time.monotonic()
        result = method.knn_exact(chaos_queries[0])
        elapsed = _time.monotonic() - start
        assert result.stats.degraded
        assert result.stats.shards_failed >= 1
        assert elapsed < 0.9  # did not wait for the sleeping worker
        method.close()

    def test_transient_faults_in_shard_stores_recover(self, chaos_dataset, chaos_queries):
        clean = _answers(self._sharded(chaos_dataset), chaos_queries)
        store = SeriesStore(
            chaos_dataset, faults=TRANSIENT_PLANS[0], retry=_FAST_RETRY
        )
        chaotic = _method("sharded:flat", store, shards=3, workers=2)
        assert _answers(chaotic, chaos_queries) == clean
