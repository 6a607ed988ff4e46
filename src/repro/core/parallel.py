"""Parallel execution backends: worker pools, shared radii, batch dispatch.

Every hot path in the library bottoms out in NumPy kernels that release the
GIL (distance tiles, lower-bound batches, FFTs, lexsorts), so thread pools are
the cheapest way to use every core for those: no serialization, no copies of
the dataset, and the simulated-storage accounting stays in process.  Python-
heavy tree descent (iSAX2+/DSTree/SFA-trie node routing) does *not* scale on
threads — the GIL serializes it — which is what the process executor exists
for.  This module is the single home for that machinery:

* :func:`resolve_workers` — one rule for turning a ``workers=`` argument (or
  the ``REPRO_WORKERS`` environment variable) into a worker count;
* :func:`chunk_slices` — deterministic contiguous partitioning shared by the
  shard planner and the inter-query batch chunker;
* :class:`SharedRadius` — the lock-guarded monotone best-so-far threshold that
  concurrent shard searches read to tighten their pruning;
* :class:`Executor` / :class:`ThreadExecutor` / :class:`ProcessExecutor` —
  the pluggable execution seam the sharded wrapper fans out on, selected by
  ``executor=`` arguments or the ``REPRO_EXECUTOR`` environment variable;
* :class:`ProcessSharedRadius` — the shared-memory counterpart of
  :class:`SharedRadius` for cross-process best-so-far pruning;
* :func:`parallel_batch_search` — inter-query parallelism over any built
  :class:`~repro.indexes.base.SearchMethod`.

Thread-safety story (applies to every worker spawned here): workers never
mutate shared accounting state.  Each worker gets a *forked* store
(:meth:`~repro.core.storage.SeriesStore.fork` — same dataset, fresh
:class:`~repro.core.stats.AccessCounter`), accumulates privately, and the
coordinating thread merges the counters with ``AccessCounter.merge`` after
joining.  Process workers follow the same protocol across a pickle boundary:
task results carry the worker-local counter deltas back for post-join
merging.  Results are always returned in submission order; scheduling never
reorders or changes answers (chunking a batch does change the GEMM tile
shape seen by the flat/MASS vectorized kernels, whose distances may move in
the final ulp — the caveat their batch path already documents).
"""

from __future__ import annotations

import math
import multiprocessing
import os
import sys
import threading
import time
from concurrent.futures import (
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait as futures_wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Iterable

__all__ = [
    "DEFAULT_WORKERS_ENV",
    "DEFAULT_EXECUTOR_ENV",
    "DEFAULT_START_METHOD_ENV",
    "EXECUTOR_KINDS",
    "default_workers",
    "resolve_workers",
    "default_executor_kind",
    "resolve_executor",
    "shared_process_executor",
    "shutdown_shared_executors",
    "chunk_slices",
    "TaskOutcome",
    "Executor",
    "ThreadExecutor",
    "ProcessExecutor",
    "SharedRadius",
    "ProcessSharedRadius",
    "parallel_batch_search",
]

#: environment variable overriding the default worker count.
DEFAULT_WORKERS_ENV = "REPRO_WORKERS"

#: environment variable selecting the default executor kind.
DEFAULT_EXECUTOR_ENV = "REPRO_EXECUTOR"

#: environment variable overriding the multiprocessing start method.
DEFAULT_START_METHOD_ENV = "REPRO_MP_START"

#: recognised ``executor=`` / ``REPRO_EXECUTOR`` spellings.
EXECUTOR_KINDS = ("thread", "process")


def default_workers() -> int:
    """Default worker count: ``REPRO_WORKERS`` if set, else the CPU count."""
    override = os.environ.get(DEFAULT_WORKERS_ENV, "").strip()
    if override:
        try:
            workers = int(override)
        except ValueError as exc:
            raise ValueError(
                f"{DEFAULT_WORKERS_ENV} must be an integer, got {override!r}"
            ) from exc
        if workers <= 0:
            raise ValueError(
                f"{DEFAULT_WORKERS_ENV} must be positive, got {workers} "
                "(use 1 to force sequential execution)"
            )
        return workers
    return os.cpu_count() or 1


def resolve_workers(workers: int | None = None) -> int:
    """Resolve a ``workers=`` argument: ``None`` means the environment default."""
    if workers is None:
        return max(1, default_workers())
    count = int(workers)
    if count <= 0:
        raise ValueError("workers must be a positive integer (or None for the default)")
    return count


def chunk_slices(total: int, parts: int) -> list[slice]:
    """Split ``range(total)`` into ``parts`` contiguous, nearly equal slices.

    The first ``total % parts`` slices get one extra element, so the layout is
    a pure function of ``(total, parts)`` — shard boundaries and batch chunks
    are reproducible across runs and worker counts.
    """
    if total <= 0:
        return []
    parts = max(1, min(int(parts), total))
    base, extra = divmod(total, parts)
    slices = []
    start = 0
    for i in range(parts):
        stop = start + base + (1 if i < extra else 0)
        slices.append(slice(start, stop))
        start = stop
    return slices


@dataclass
class TaskOutcome:
    """What happened to one task of a fault-tolerant fan-out.

    Exactly one of three states: ``value`` holds the task's return value on
    success, ``error`` the exception it raised, and ``timed_out`` marks tasks
    that never completed before the fan-out's deadline.
    """

    value: object = None
    error: BaseException | None = None
    timed_out: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None and not self.timed_out


class SharedRadius:
    """A monotonically tightening best-so-far squared radius shared by workers.

    Concurrent shard searches publish their local pruning threshold here and
    read the global minimum to prune against answers found by *other* shards.
    Updates are lock-guarded and monotone (the value only ever decreases), so
    a stale read is always a *looser* threshold — never incorrect, exactness
    does not depend on the interleaving.  Reads are a single attribute load
    (atomic under the GIL) so the hot path takes no lock.
    """

    __slots__ = ("_lock", "_value")

    def __init__(self, value: float = math.inf) -> None:
        self._lock = threading.Lock()
        self._value = float(value)

    @property
    def value(self) -> float:
        """The current global threshold (squared distance)."""
        return self._value

    def tighten(self, value: float) -> bool:
        """Lower the shared threshold to ``value`` if it improves the current one."""
        if not value < self._value:  # cheap lock-free rejection of stale updates
            return False
        with self._lock:
            if value < self._value:
                self._value = value
                return True
        return False


# --------------------------------------------------------------------------- #
# Executor seam
# --------------------------------------------------------------------------- #

#: worker-process view of the coordinator's shared radius table, installed by
#: the pool initializer (shared ``multiprocessing`` synchronized objects can
#: only travel to children at spawn time, never inside task arguments).
_WORKER_RADIUS_TABLE = None


def _process_worker_init(radius_table, sys_paths: list[str]) -> None:
    """Pool initializer run once in each spawned worker process.

    Stashes the shared radius table in a module global and replays the
    parent's ``sys.path`` so spawned children resolve ``repro`` regardless of
    how the parent acquired it (``PYTHONPATH``, ``sys.path`` edits, editable
    installs).
    """
    global _WORKER_RADIUS_TABLE
    _WORKER_RADIUS_TABLE = radius_table
    for path in reversed(sys_paths):
        if path and path not in sys.path:
            sys.path.insert(0, path)


class ProcessSharedRadius:
    """Shared-memory counterpart of :class:`SharedRadius` for process workers.

    The coordinator owns a ``multiprocessing`` double array (one slot per
    in-flight query) that reaches every worker through the pool initializer;
    instances of this class are the picklable per-query handle — they carry
    only a slot index, and resolve the table through the worker-side module
    global.  Same monotone-tighten API and the same staleness argument as the
    thread variant: a stale read is a looser threshold, never a wrong one.
    Reads are a single aligned 8-byte load (atomic on every supported
    platform), so the pruning hot path takes no cross-process lock; tightening
    takes the table's lock and re-checks under it.
    """

    __slots__ = ("slot",)

    def __init__(self, slot: int) -> None:
        self.slot = int(slot)

    @property
    def value(self) -> float:
        """The current global threshold (squared distance)."""
        table = _WORKER_RADIUS_TABLE
        if table is None:  # outside a pool worker: no sharing, prune locally
            return float("inf")
        return table.get_obj()[self.slot]

    def tighten(self, value: float) -> bool:
        """Lower the shared threshold to ``value`` if it improves the current one."""
        table = _WORKER_RADIUS_TABLE
        if table is None:
            return False
        cells = table.get_obj()
        if not value < cells[self.slot]:  # cheap lock-free rejection
            return False
        with table.get_lock():
            if value < cells[self.slot]:
                cells[self.slot] = value
                return True
        return False


class Executor:
    """Protocol for the sharded wrapper's fan-out backend.

    Implementations provide a fault-capturing :meth:`map_outcomes` and the
    shared-radius API that backs cross-worker best-so-far pruning; the
    ordered, exception-propagating :meth:`map` is built on top of it.
    """

    kind: str = ""

    def __init__(self, workers: int | None = None) -> None:
        self.workers = resolve_workers(workers)
        #: registry-shared executors are reused across methods and must not be
        #: closed by any one of them; ``shutdown_shared_executors`` owns those.
        self.shared = False

    def map(self, fn: Callable, items: Iterable) -> list:
        """Apply ``fn`` to every item, in order; the first failure raises."""
        results = []
        for outcome in self.map_outcomes(fn, items):
            if outcome.error is not None:
                raise outcome.error
            if outcome.timed_out:
                raise TimeoutError(f"{self.kind} task did not complete")
            results.append(outcome.value)
        return results

    def map_outcomes(
        self, fn: Callable, items: Iterable, deadline: float | None = None
    ) -> list[TaskOutcome]:
        """Run ``fn`` over every item, capturing each task's outcome in order.

        A task raising does not abort the fan-out — its exception is captured
        in its :class:`TaskOutcome` and every other task still runs, which is
        what lets the sharded wrapper retry, fail or degrade one shard without
        losing the others' work.  ``deadline`` is an absolute
        ``time.monotonic()`` timestamp: tasks not finished by then are
        reported ``timed_out`` (queued tasks are cancelled; running ones
        cannot be interrupted and their late results are discarded).
        """
        raise NotImplementedError

    def acquire_radii(self, count: int) -> list:
        """``count`` fresh shared radii; a ``None`` entry means no sharing."""
        raise NotImplementedError

    def release_radii(self, radii: list) -> None:
        """Return radii from :meth:`acquire_radii` once their queries finish."""

    def close(self) -> None:
        """Release pooled resources; the executor lazily recreates them on reuse."""


class ThreadExecutor(Executor):
    """The default executor: a lazily created, persistent thread pool.

    Shared memory, zero serialization, NumPy kernels scale, Python-level
    descent does not.  ``workers <= 1`` (or a single task) degenerates to a
    plain loop on the calling thread, which is what makes one worker the
    exact sequential baseline.  Radii are in-process :class:`SharedRadius`
    objects.
    """

    kind = "thread"

    def __init__(self, workers: int | None = None) -> None:
        super().__init__(workers)
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()

    def _ensure_pool(self) -> ThreadPoolExecutor | None:
        if self.workers <= 1:
            return None
        pool = self._pool
        if pool is None:
            with self._pool_lock:
                pool = self._pool
                if pool is None:
                    pool = self._pool = ThreadPoolExecutor(
                        max_workers=self.workers, thread_name_prefix="repro-shard"
                    )
        return pool

    def map_outcomes(
        self, fn: Callable, items: Iterable, deadline: float | None = None
    ) -> list[TaskOutcome]:
        """See :meth:`Executor.map_outcomes`; sequential runs check the
        deadline between tasks (the first task always runs)."""
        work = list(items)

        def run(item) -> TaskOutcome:
            try:
                return TaskOutcome(value=fn(item))
            # repro-lint: disable=no-bare-except -- sanctioned fault-capture
            # seam: the exception rides back typed in TaskOutcome.error for
            # the caller to classify (re-raise, retry, or degrade).
            except Exception as exc:
                return TaskOutcome(error=exc)

        pool = self._ensure_pool() if len(work) > 1 else None
        if pool is None:
            outcomes: list[TaskOutcome] = []
            for item in work:
                if deadline is not None and outcomes and time.monotonic() >= deadline:
                    outcomes.append(TaskOutcome(timed_out=True))
                else:
                    outcomes.append(run(item))
            return outcomes
        futures = [pool.submit(run, item) for item in work]
        if deadline is None:
            futures_wait(futures)
        else:
            futures_wait(futures, timeout=max(0.0, deadline - time.monotonic()))
            for future in futures:
                future.cancel()
        # A snapshot taken at the deadline: a straggler finishing afterwards
        # never changes what the caller sees.
        return [
            future.result()
            if future.done() and not future.cancelled()
            else TaskOutcome(timed_out=True)
            for future in futures
        ]

    def acquire_radii(self, count: int) -> list:
        return [SharedRadius() for _ in range(count)]

    def close(self) -> None:
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)


class ProcessExecutor(Executor):
    """A persistent warm ``multiprocessing`` pool for GIL-free shard work.

    Tasks and results cross a pickle boundary, so callers ship *plans* (method
    name + params + backend path/slice — never raw data) and get counters back
    as deltas.  The pool uses the ``spawn`` start method by default
    (``REPRO_MP_START`` overrides): spawn is fork-safe in threaded parents and
    behaves identically on every platform, at the cost of a one-time interpreter
    + import startup per worker — which is why the pool is persistent and
    worker-side index caches make repeated queries cheap.

    Cross-process pruning uses a fixed table of shared-memory radius slots
    created *before* the pool and handed to workers via the pool initializer
    (``multiprocessing`` synchronized objects cannot ride task arguments).
    A SIGKILLed worker surfaces as :class:`BrokenProcessPool` on every
    in-flight future; those tasks are reported as failed outcomes and the
    broken pool is discarded so the next dispatch transparently spawns a
    fresh one (the radius table survives — it belongs to the executor, not
    the pool).
    """

    kind = "process"

    #: default number of concurrently shareable query radii; overflow queries
    #: silently fall back to local-only pruning (same answers, more work).
    RADIUS_SLOTS = 512

    def __init__(
        self,
        workers: int | None = None,
        start_method: str | None = None,
        radius_slots: int | None = None,
    ) -> None:
        super().__init__(workers)
        method = (
            start_method
            or os.environ.get(DEFAULT_START_METHOD_ENV, "").strip()
            or "spawn"
        )
        self.start_method = method
        self._ctx = multiprocessing.get_context(method)
        slots = int(radius_slots if radius_slots is not None else self.RADIUS_SLOTS)
        self._radius_table = self._ctx.Array("d", slots)
        self._free_slots = list(range(slots))
        self._slot_lock = threading.Lock()
        self._pool: ProcessPoolExecutor | None = None
        self._pool_lock = threading.Lock()

    # -- pool lifecycle ----------------------------------------------------- #

    def _ensure_pool(self) -> ProcessPoolExecutor:
        pool = self._pool
        if pool is None:
            with self._pool_lock:
                pool = self._pool
                if pool is None:
                    pool = self._pool = ProcessPoolExecutor(
                        max_workers=self.workers,
                        mp_context=self._ctx,
                        initializer=_process_worker_init,
                        initargs=(self._radius_table, [p for p in sys.path if p]),
                    )
        return pool

    def _discard_pool(self) -> None:
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        # Unlike discarding a *broken* pool (whose workers are already dead),
        # a clean close waits: a worker still mid-spawn would otherwise try to
        # attach the radius table's semaphore after the parent unlinked it.
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    # -- dispatch ----------------------------------------------------------- #

    def map_outcomes(
        self, fn: Callable, items: Iterable, deadline: float | None = None
    ) -> list[TaskOutcome]:
        work = list(items)
        if not work:
            return []
        pool = self._ensure_pool()
        try:
            futures = [pool.submit(fn, item) for item in work]
        except BrokenProcessPool:
            # The pool died between dispatches (e.g. a worker was killed while
            # idle); replace it once and resubmit — a second break is reported
            # through the futures below like any mid-flight loss.
            self._discard_pool()
            pool = self._ensure_pool()
            futures = [pool.submit(fn, item) for item in work]
        if deadline is None:
            futures_wait(futures)
        else:
            futures_wait(futures, timeout=max(0.0, deadline - time.monotonic()))
            for future in futures:
                future.cancel()
        outcomes: list[TaskOutcome] = []
        broken = False
        for future in futures:
            if not future.done() or future.cancelled():
                outcomes.append(TaskOutcome(timed_out=True))
                continue
            error = future.exception()
            if error is None:
                outcomes.append(TaskOutcome(value=future.result()))
            else:
                broken = broken or isinstance(error, BrokenProcessPool)
                outcomes.append(TaskOutcome(error=error))
        if broken:
            self._discard_pool()
        return outcomes

    # -- shared radius slots ------------------------------------------------ #

    def acquire_radii(self, count: int) -> list:
        """Handles onto ``count`` free slots, reset to infinity; ``None``
        entries once the table is exhausted (local-only pruning)."""
        taken: list[int] = []
        with self._slot_lock:
            while len(taken) < count and self._free_slots:
                taken.append(self._free_slots.pop())
        if taken:
            with self._radius_table.get_lock():
                cells = self._radius_table.get_obj()
                for index in taken:
                    cells[index] = float("inf")
        return [ProcessSharedRadius(slot) for slot in taken] + [None] * (count - len(taken))

    def release_radii(self, radii: list) -> None:
        live = [radius.slot for radius in radii if radius is not None]
        if not live:
            return
        with self._slot_lock:
            self._free_slots.extend(live)

    def radius_value(self, slot: int) -> float:
        """Coordinator-side read of one slot (tests and merge diagnostics)."""
        return self._radius_table.get_obj()[slot]


def default_executor_kind() -> str:
    """Default executor kind: ``REPRO_EXECUTOR`` if set, else ``"thread"``."""
    kind = os.environ.get(DEFAULT_EXECUTOR_ENV, "").strip().lower()
    if not kind:
        return "thread"
    if kind not in EXECUTOR_KINDS:
        raise ValueError(
            f"{DEFAULT_EXECUTOR_ENV} must be one of {EXECUTOR_KINDS}, got {kind!r}"
        )
    return kind


#: process executors shared across methods, keyed by (workers, start method).
#: Spawning a pool costs a fresh interpreter + imports per worker, so every
#: method asking for the same shape reuses one warm pool (and its worker-side
#: index caches) instead of respawning.
_SHARED_PROCESS_EXECUTORS: dict[tuple[int, str], ProcessExecutor] = {}
_SHARED_EXECUTORS_LOCK = threading.Lock()


def shared_process_executor(
    workers: int | None = None, start_method: str | None = None
) -> ProcessExecutor:
    """A process executor shared by every caller with the same shape."""
    count = resolve_workers(workers)
    method = (
        start_method
        or os.environ.get(DEFAULT_START_METHOD_ENV, "").strip()
        or "spawn"
    )
    key = (count, method)
    with _SHARED_EXECUTORS_LOCK:
        executor = _SHARED_PROCESS_EXECUTORS.get(key)
        if executor is None:
            executor = ProcessExecutor(count, start_method=method)
            executor.shared = True
            _SHARED_PROCESS_EXECUTORS[key] = executor
    return executor


def shutdown_shared_executors() -> None:
    """Close every registry-shared process executor (benchmarks, test teardown)."""
    with _SHARED_EXECUTORS_LOCK:
        executors = list(_SHARED_PROCESS_EXECUTORS.values())
        _SHARED_PROCESS_EXECUTORS.clear()
    for executor in executors:
        executor.shared = False
        executor.close()


def resolve_executor(
    executor: "str | Executor | None" = None, workers: int | None = None
) -> Executor:
    """Resolve an ``executor=`` argument into an :class:`Executor` instance.

    Accepts an executor instance (returned as-is, caller-owned), a kind string
    (``"thread"`` / ``"process"``), or ``None`` — which defers to the
    ``REPRO_EXECUTOR`` environment variable and defaults to ``"thread"``.
    Process executors come from the shared registry so repeated resolutions
    reuse one warm pool per worker count.
    """
    if isinstance(executor, Executor):
        return executor
    kind = executor.strip().lower() if isinstance(executor, str) else None
    if kind is None:
        kind = default_executor_kind()
    if kind == "thread":
        return ThreadExecutor(workers)
    if kind == "process":
        return shared_process_executor(workers)
    raise ValueError(
        f"unknown executor {executor!r} (expected one of {EXECUTOR_KINDS} or an Executor)"
    )


def parallel_batch_search(method, queries, k: int = 1, workers: int | None = None) -> list:
    """Answer a query batch with inter-query parallelism over ``method``.

    The batch is split into contiguous chunks (one per worker) and each chunk
    runs ``method.knn_exact_batch`` on its own thread with a *forked* store,
    so access accounting is worker-local; the forks are merged into the
    method's counter after the join.  Results come back in query order and
    match the sequential batch call — byte-identically for per-query-loop
    batch paths, to the final ulp for the flat/MASS GEMM kernels (tile-shape
    sensitivity, see :mod:`repro.indexes.sharded`).  Composes with the
    sharded wrapper: each chunk then fans out across shards (inter-query x
    intra-query parallelism).
    """
    import numpy as np

    count = resolve_workers(workers)
    qs = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    total = qs.shape[0]
    if count <= 1 or total <= 1:
        return method.knn_exact_batch(qs, k=k)
    slices = chunk_slices(total, count)

    def run_chunk(chunk: slice):
        reader = method.store.fork()
        with method.execution_context(store=reader):
            results = method.knn_exact_batch(qs[chunk], k=k)
        return results, reader.counter

    executor = ThreadExecutor(count)
    try:
        outputs = executor.map(run_chunk, slices)
    finally:
        executor.close()
    results: list = []
    counter = method.store.counter
    for chunk_results, chunk_counter in outputs:
        counter.merge(chunk_counter)
        results.extend(chunk_results)
    return results
