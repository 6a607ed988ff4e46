"""The three workloads: inputs from a seed, set-up, one closed-loop step.

Every workload drives the public :class:`repro.SimilaritySearchEngine` API
with one client that sends its next call only after the previous one
returned.  Queries are exact 1-NN.  ``workloads.json`` beside this file
records why each workload exists, the layers it loads and bypasses, and its
sizes.
"""

from __future__ import annotations

import os
import shutil
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import numpy as np

from repro import Dataset, SimilaritySearchEngine
from repro.core.series import znormalize

ROWS = 200_000
LENGTH = 128
LEAF_CAPACITY = 100
#: distinct synth-rand queries available to one run; a run never exhausts it
QUERY_POOL = 3000
#: untimed queries (or ingest steps) run after set-up, before timing
WARMUP_OPS = 8
INGEST_ROWS = 500
CHECKPOINT_EVERY = 10
QUERY_NOISE = 0.1
_GENERATE_CHUNK = 16384

# Independent random streams drawn from one seed.
_DATA, _QUERIES, _WARMUP, _INGEST = range(4)


def random_walks(rng: np.random.Generator, count: int, length: int = LENGTH) -> np.ndarray:
    """``count`` z-normalized float32 random walks (generated in chunks, so
    the float64 staging stays small)."""
    out = np.empty((count, length), dtype=np.float32)
    for lo in range(0, count, _GENERATE_CHUNK):
        hi = min(count, lo + _GENERATE_CHUNK)
        out[lo:hi] = znormalize(rng.standard_normal((hi - lo, length)).cumsum(axis=1))
    return out


class Workload:
    """Inputs, set-up and steps of one workload.

    ``asked`` maps an answer key to ``(query, rows visible to it)`` and
    ``answers`` maps it to every ``(position, distance)`` the engine returned
    for it, for the oracle check after the run.
    """

    name = ""
    #: whether a step index can be run again with the same answer (read-only)
    replayable = True

    def __init__(self, seed: int, workdir: Path, rows: int = ROWS) -> None:
        self.seed = int(seed)
        self.workdir = Path(workdir)
        self.rows = int(rows)
        self.engine: SimilaritySearchEngine | None = None
        self.asked: dict = {}
        self.answers: dict = {}

    def rng(self, *stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *stream])

    # -- inputs and set-up -----------------------------------------------------
    def generate(self) -> None:
        self.data = random_walks(self.rng(_DATA), self.rows)
        self.pool = random_walks(self.rng(_QUERIES), QUERY_POOL)
        self.warmup_queries = random_walks(self.rng(_WARMUP), WARMUP_OPS + 1)

    def setup(self) -> None:
        """Build the store and index and answer the first query."""
        self.open()
        self.search(("setup",), self.warmup_queries[-1])

    def open(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Close the engine and delete the store, ready for another set-up."""
        self.close()
        shutil.rmtree(self.workdir / "store", ignore_errors=True)

    def close(self) -> None:
        if self.engine is not None and hasattr(self.engine.method, "close"):
            self.engine.method.close()

    # -- the closed loop ---------------------------------------------------------
    def search(self, key, query: np.ndarray, scope=None):
        """One exact 1-NN engine call; returns ``(seconds, result)``."""
        engine = self.engine
        seconds, result = _timed(scope, "query", lambda: engine.search(query, k=1))
        self.asked[key] = (query, engine.store.count)
        nearest = result.neighbors[0]
        self.answers.setdefault(key, []).append((nearest.position, nearest.distance))
        return seconds, result

    def warm_up(self) -> int:
        """Run the untimed warm-up; returns the first step index to time."""
        for i in range(WARMUP_OPS):
            self.search(("warmup", i), self.warmup_queries[i])
        return 0

    def step(self, index: int, scope=None) -> list[tuple]:
        """One client step: ``[(kind, seconds, result or rows), ...]``."""
        seconds, result = self.search(
            ("pool", index % QUERY_POOL), self.pool[index % QUERY_POOL], scope
        )
        return [("query", seconds, result)]

    # -- checks and footprint ----------------------------------------------------
    def stored_rows(self):
        """``(offset, float32 block)`` chunks of the values the program stores."""
        for lo in range(0, self.rows, _GENERATE_CHUNK):
            yield lo, self.data[lo : lo + _GENERATE_CHUNK]

    def stored_bytes(self) -> int:
        raise NotImplementedError

    def user_bytes(self) -> int:
        return self.engine.store.count * LENGTH * 4

    def durability_failures(self) -> tuple[int, int, list[str]]:
        """``(operations checked, failed, messages)`` of the end-of-run check."""
        return 0, 0, []


class MemIsax(Workload):
    """``mem-isax2-1nn``: in-memory iSAX2+ on synth-rand queries."""

    name = "mem-isax2-1nn"
    backend = "memory"
    executor = "none"
    workers = 0

    def open(self) -> None:
        self.engine = SimilaritySearchEngine(Dataset.from_array(self.data))
        self.engine.build("isax2+", leaf_capacity=LEAF_CAPACITY)

    def stored_bytes(self) -> int:
        return int(self.engine.dataset.values.nbytes)


class RczShardedFlat(Workload):
    """``rcz-sharded-flat-1nn``: a compressed ``.rcz`` store scanned by two
    flat-scan shards on the thread executor."""

    name = "rcz-sharded-flat-1nn"
    backend = "compressed"
    executor = "thread"
    workers = 2

    def open(self) -> None:
        store = self.workdir / "store"
        store.mkdir(parents=True, exist_ok=True)
        self.path = store / "rows.rcz"
        dataset = Dataset.from_array(self.data).to_compressed(self.path)
        self.engine = SimilaritySearchEngine(dataset, executor="thread")
        self.engine.build("sharded:flat", shards=2, workers=self.workers)

    def stored_rows(self):
        from repro.core.backends import CompressedBackend

        backend = CompressedBackend(self.path)
        for lo in range(0, backend.count, _GENERATE_CHUNK):
            yield lo, backend.read_rows(lo, lo + _GENERATE_CHUNK)

    def stored_bytes(self) -> int:
        return os.path.getsize(self.path)


class GrowableIngest(Workload):
    """``growable-ingest-recent``: durable ingest beside recency-skewed queries."""

    name = "growable-ingest-recent"
    replayable = False
    backend = "growable"
    executor = "none"
    workers = 0

    def generate(self) -> None:
        super().generate()
        self.batches: list[np.ndarray] = []

    def open(self) -> None:
        self.path = self.workdir / "store" / "rows"
        dataset = Dataset.from_array(self.data).to_growable(self.path)
        self.engine = SimilaritySearchEngine(dataset)
        self.engine.build("isax2+", leaf_capacity=LEAF_CAPACITY)

    def teardown(self) -> None:
        super().teardown()
        self.batches = []

    def close(self) -> None:
        if self.engine is not None:
            self.engine.store.backend.close()

    def warm_up(self) -> int:
        for i in range(WARMUP_OPS):
            self.step(i)
        return WARMUP_OPS

    def step(self, index: int, scope=None) -> list[tuple]:
        """Ack one batch of fresh rows, then query a noisy copy of one of them."""
        rng = self.rng(_INGEST, index)
        rows = random_walks(rng, INGEST_ROWS)
        target = rows[int(rng.integers(INGEST_ROWS))]
        query = znormalize(target + rng.normal(0.0, QUERY_NOISE, LENGTH))
        checkpoint = index % CHECKPOINT_EVERY == CHECKPOINT_EVERY - 1
        if len(self.batches) != index:
            raise RuntimeError(f"ingest step {index} out of order")
        ingest, _count = _timed(
            scope, "extend", lambda: self.engine.extend(rows, checkpoint=checkpoint)
        )
        self.batches.append(rows)
        seconds, result = self.search(("step", index), query, scope)
        return [("extend", ingest, rows), ("query", seconds, result)]

    def store_shape(self) -> tuple[int, int]:
        """``(rows in the WAL tail, sealed segments)`` of the live store."""
        info = self.engine.store.backend.describe()
        return info["watermark"] - info["sealed_rows"], len(info["segments"])

    def stored_rows(self):
        yield from super().stored_rows()
        for i, rows in enumerate(self.batches):
            yield self.rows + i * INGEST_ROWS, rows

    def stored_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.path.rglob("*") if p.is_file())

    def durability_failures(self) -> tuple[int, int, list[str]]:
        """Close the store, reopen it (running recovery) and compare every
        acked row byte for byte.  Each batch -- and the initial load -- is
        one checked operation."""
        self.close()
        reopened = Dataset.from_file(self.path, length=LENGTH)
        backend = reopened.backend
        messages = []
        try:
            expected = self.rows + INGEST_ROWS * len(self.batches)
            if backend.count != expected:
                messages.append(f"reopened store has {backend.count} rows, acked {expected}")
            failed = 0
            for lo in range(0, self.rows, _GENERATE_CHUNK):
                hi = min(self.rows, lo + _GENERATE_CHUNK)
                if not _byte_equal(backend.read_rows(lo, hi), self.data[lo:hi]):
                    messages.append(f"initial rows [{lo}, {hi}) differ after reopen")
                    failed += 1
                    break
            for i, rows in enumerate(self.batches):
                lo = self.rows + i * INGEST_ROWS
                if not _byte_equal(backend.read_rows(lo, lo + INGEST_ROWS), rows):
                    messages.append(f"acked batch {i} missing or changed after reopen")
                    failed += 1
            if backend.count != expected and not failed:
                failed = 1
        finally:
            backend.close()
        return 1 + len(self.batches), failed, messages


def _timed(scope, kind: str, call):
    """``(seconds, result)`` of ``call()``, traced as one ``kind`` operation
    when a tracer's ``scope`` is given."""
    with scope(kind) if scope is not None else nullcontext():
        start = perf_counter()
        result = call()
        return perf_counter() - start, result


def _byte_equal(a: np.ndarray, b: np.ndarray) -> bool:
    a = np.ascontiguousarray(a, dtype=np.float32)
    b = np.ascontiguousarray(b, dtype=np.float32)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


WORKLOADS = {cls.name: cls for cls in (MemIsax, RczShardedFlat, GrowableIngest)}
