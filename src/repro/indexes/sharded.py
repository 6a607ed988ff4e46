"""Parallel sharded execution: any method, partitioned and run on all cores.

:class:`ShardedMethod` splits a :class:`~repro.core.storage.SeriesStore` into
``shards`` contiguous partitions, builds one instance of any registered
:class:`~repro.indexes.base.SearchMethod` per partition (concurrently), and
answers queries by fanning out over the shards on a pluggable
:class:`~repro.core.parallel.Executor`.  Every shard query is one task plan —
an operation, its payload and a fresh fork of the shard store — and the same
code dispatches the plans in retry rounds, degrades failed shards and merges
the answers and counters, whichever executor runs them:

* **thread mode** (the default): the coordinator's built shard methods run
  the plans on a persistent thread pool in shared memory — zero
  serialization, and NumPy kernels that release the GIL scale across cores.
  Python-heavy tree descent does not (the GIL serializes it), which is what
  process mode exists for.
* **process mode** (``executor="process"`` / ``REPRO_EXECUTOR=process``):
  the plans run on a persistent warm process pool.  They ship a method
  name + params + a picklable backend handle (path + row range), never raw
  data; in-memory collections are spilled once to a temporary ``.npy`` and
  shipped as mmap slices of the spill.  Each worker process rebuilds (or
  reuses, via a per-worker cache keyed by dataset fingerprint + shard slice +
  method signature) its shard's index, and returns answers plus
  :class:`~repro.core.stats.AccessCounter` / ``QueryStats`` deltas for
  post-join merging.

Query semantics are executor-independent:

* **k-NN**: every shard searches its partition; shards publish their local
  best-so-far into a shared monotone radius — an in-process
  :class:`~repro.core.parallel.SharedRadius` on threads, a shared-memory
  :class:`~repro.core.parallel.ProcessSharedRadius` slot on processes — that
  the other shards read to prune harder.  The per-shard
  :class:`~repro.core.answers.KnnAnswerSet` results are merged with the
  deterministic ``(distance, position)`` tie-break, so the merged answers are
  **byte-identical** to running the unsharded method — and identical for any
  worker count and either executor, including ``workers=1``.
* **batch k-NN**: the query batch is chunked and every (shard, chunk) pair is
  one task, so inter-query and intra-query parallelism compose; each query
  carries its own shared radius across shards, and shards with a vectorized
  batch path (flat, MASS) keep it per shard.  (For those two GEMM-based batch
  kernels the *distances* may differ from the unsharded batch call in the
  final ulp — BLAS blocking depends on tile shape — exactly the caveat the
  batch API already carries relative to per-query search; both executors use
  the same chunk layout, so thread and process answers stay byte-identical to
  each other.)
* **range / epsilon queries**: same fan-out, with concatenated match lists
  (range) or merged bounded answer sets (the M-tree's epsilon search).

Accounting follows the library's per-worker protocol: every task reads
through a *forked* shard store (fresh counter) — in process mode the fork
crosses a pickle boundary and its counter delta rides back in the task result
— and the coordinating thread merges the counters after the join, so
per-query stats are the exact sum of the per-shard stats in both modes.

The wrapper is itself a :class:`SearchMethod`, registered under the name
prefix ``"sharded:<inner>"`` (e.g. ``create_method("sharded:isax2+", store,
shards=4, workers=4, leaf_capacity=100)``), so engines, runners, benchmarks,
and persistence treat it like any other method.
"""

from __future__ import annotations

import functools
import hashlib
import os
import pickle
import signal
import tempfile
import time
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from ..core.answers import KnnAnswerSet, Neighbor, RangeAnswerSet
from ..core.faults import take_kill_budget
from ..core.integrity import CorruptionError
from ..core.parallel import (
    Executor,
    TaskOutcome,
    chunk_slices,
    resolve_executor,
    resolve_workers,
)
from ..core.queries import KnnQuery
from ..core.stats import QueryStats
from ..core.storage import SeriesStore
from .base import SearchMethod, SearchResult

__all__ = ["ShardedMethod", "SharedKnnAnswerSet"]


class SharedKnnAnswerSet(KnnAnswerSet):
    """A k-NN answer set whose pruning threshold is tightened across shards.

    The *content* of the set is purely local (each shard keeps its own top-k),
    but the :attr:`worst_squared_distance` read by the shard's pruning logic
    is the minimum of the local threshold and the shared radius — any object
    with the :class:`~repro.core.parallel.SharedRadius` ``value``/``tighten``
    API, including its shared-memory process variant.  The shared value is an
    upper bound on the final merged k-th distance, so pruning against it never
    discards a merged-top-k candidate; it only skips work another shard has
    already made redundant.  Admissions publish the local threshold back.
    """

    def __init__(self, k: int, shared) -> None:
        super().__init__(k)
        self._shared = shared

    @property
    def worst_squared_distance(self) -> float:
        local = KnnAnswerSet.worst_squared_distance.fget(self)
        return min(local, self._shared.value)

    def offer(self, position: int, squared_distance: float) -> bool:
        admitted = super().offer(position, squared_distance)
        if admitted:
            local = KnnAnswerSet.worst_squared_distance.fget(self)
            if local < float("inf"):
                self._shared.tighten(local)
        return admitted


@dataclass
class _Shard:
    """One partition: its global offset, its store, and its inner method."""

    index: int
    offset: int
    store: SeriesStore | None
    method: SearchMethod
    #: worker-cache key for process dispatch; ``None`` until first computed,
    #: reset whenever the shard's rows change (extend/repartition/re-attach).
    task_key: tuple | None = None


# --------------------------------------------------------------------------- #
# Shard tasks: the coordinator plans them, either executor runs them
# --------------------------------------------------------------------------- #


@dataclass
class _ShardTask:
    """A shard task plan: which operation to run, over which bytes.

    Every shard query runs through one of these, on either executor.  The
    operation payload carries the query arrays, ``k`` and the shared radii.
    ``store`` is a fresh fork of the shard store, so each attempt reads with
    a private counter and a new fault incarnation.  The remaining fields are
    for process dispatch, where the plan crosses a pickle boundary: a method
    name + params + a by-path store handle, never raw data; ``key``
    identifies the shard's built index in the per-worker cache; ``kill`` is
    the fault-injection flag consumed from the coordinator-side
    ``kill_worker`` budget (the worker SIGKILLs itself on arrival).  Thread
    tasks run against the coordinator's built method and leave ``key`` unset.
    """

    key: tuple | None
    store: SeriesStore
    method_name: str
    params: dict
    op: str
    payload: dict = field(default_factory=dict)
    kill: bool = False
    #: force a rebuild even on a warm cache.  Explicit ``build()`` tasks set
    #: this so build accounting is executor-independent (a build the user asked
    #: for always reads and charges its data); query tasks leave it off and
    #: reuse whatever the worker already built.
    fresh: bool = False


#: per-worker-process cache of built shard indexes.  Keyed by
#: (content fingerprint, shard row range, method name, params signature), so
#: repeated queries against an unchanged shard reuse the built index and only
#: the first task per (worker, shard) pays the build.  LRU-bounded so long
#: sweeps over many collections don't accumulate every index ever built.
_WORKER_METHODS: "OrderedDict[tuple, SearchMethod]" = OrderedDict()
_WORKER_CACHE_LIMIT = 32


def _params_signature(params: dict) -> tuple:
    return tuple(sorted((key, repr(value)) for key, value in params.items()))


def _content_key(store: SeriesStore) -> str:
    """Fingerprint of a shard's bytes: geometry + a deterministic row sample.

    Reads through the *unwrapped* backend so fault injection (transients,
    corruption) cannot destabilize cache keys — the key names bytes at rest,
    not what a faulty read happens to return.
    """
    backend = store.backend
    inner = getattr(backend, "inner", backend)
    digest = hashlib.sha256()
    count = int(store.count)
    digest.update(repr((count, int(store.length), str(inner.dtype))).encode())
    if count:
        positions = sorted({0, count - 1, *range(0, count, max(1, count // 64))})
        rows = inner.take(np.asarray(positions, dtype=np.int64))
        digest.update(np.ascontiguousarray(rows).tobytes())
    return digest.hexdigest()


def _shared_answer_set(k: int, radius) -> KnnAnswerSet:
    """A k-NN answer set pruning against ``radius``; local-only for ``None``
    (a process executor whose slot table overflowed: less cross-shard
    pruning, identical answers)."""
    return KnnAnswerSet(k) if radius is None else SharedKnnAnswerSet(k, radius)


def _batch_answer_factory(radii: list):
    """Answer-set factory wiring one shared radius to each query, in order.

    ``_batch_answer_sets`` implementations must create exactly one answer
    set per query, in query order — violations raise rather than silently
    crossing radii between queries.
    """
    pending = iter(radii)

    def factory(k: int) -> KnnAnswerSet:
        try:
            radius = next(pending)
        except StopIteration:
            raise RuntimeError(
                "_batch_answer_sets created more answer sets than "
                "queries; implementations must create exactly one "
                "answer set per query, in query order"
            ) from None
        return _shared_answer_set(k, radius)

    return factory


def _run_shard_task(method: SearchMethod, task: _ShardTask):
    """Run one query task on ``method``, reading through ``task.store``.

    Returns ``(result, counter_delta)``: ``result`` is ``(answers,
    QueryStats)`` for the single-query ops and the inner
    ``_batch_answer_sets`` pair for ``"batch"``; ``counter_delta`` is the
    :class:`AccessCounter` this task accumulated, for the coordinator to
    merge after the join.  A single query's answer sets all share its one
    radius; a batch wires one radius per query.
    """
    store, op, payload = task.store, task.op, task.payload
    factory = None
    if op == "knn":
        factory = functools.partial(_shared_answer_set, radius=payload["radii"][0])
    elif op == "batch":
        factory = _batch_answer_factory(payload["radii"])
    query, k = payload.get("query"), int(payload.get("k", 0))
    before = store.counter_snapshot()
    local = QueryStats(dataset_size=store.count)
    with method.execution_context(store=store, answer_factory=factory):
        if op == "batch":
            result = method._batch_answer_sets(payload["queries"], k)
        elif op == "knn":
            result = method._knn_exact(query, k, local), local
        elif op == "range":
            result = method._range_exact(query, payload["radius"], local), local
        elif op == "approx":
            result = method._knn_approximate(query, k, local), local
        elif op == "bounded":
            result = method._knn_bounded(query, k, local, payload["epsilon"]), local
        else:
            raise ValueError(f"unknown shard task op {op!r}")
    return result, store.since(before)


def _run_thread_task(item: tuple[SearchMethod, _ShardTask]):
    """Thread-pool entry point: the coordinator's built method runs the task."""
    return _run_shard_task(*item)


def _method_blob(method: SearchMethod) -> bytes:
    """Pickle a built method with its store detached (no raw data in transit)."""
    base_store = method._base_store
    method._base_store = None
    try:
        return pickle.dumps(method, protocol=pickle.HIGHEST_PROTOCOL)
    finally:
        method._base_store = base_store


def _worker_method(task: _ShardTask) -> SearchMethod:
    """The (cached) built index for ``task``'s shard, bound to the task store.

    Cache hits rebind the cached method to the task's store — each task ships
    a fresh fork (fresh counter, fresh fault incarnation), so retried tasks
    re-roll transient faults exactly like thread-mode re-forks.
    """
    method = None if task.fresh else _WORKER_METHODS.get(task.key)
    if method is None:
        from ..core.registry import create_method

        method = create_method(task.method_name, task.store, **task.params)
        method.build()
        _WORKER_METHODS[task.key] = method
        _WORKER_METHODS.move_to_end(task.key)
        while len(_WORKER_METHODS) > _WORKER_CACHE_LIMIT:
            _WORKER_METHODS.popitem(last=False)
    else:
        _WORKER_METHODS.move_to_end(task.key)
        method.store = task.store
    return method


def _execute_shard_task(task: _ShardTask):
    """Process-pool entry point: run one shard task, return result + delta.

    Query tasks go through :func:`_run_shard_task` after the worker-cache
    lookup, so their deltas exclude any cache-miss build the task happened to
    pay (matching thread mode, where builds charge at build time, not per
    query); ``"build"`` tasks return the pickled method, its stats and the
    build's own delta.
    """
    if task.kill:
        os.kill(os.getpid(), signal.SIGKILL)
    dispatch_counter = task.store.counter_snapshot()
    method = _worker_method(task)
    if task.op == "build":
        result = (_method_blob(method), method.index_stats)
        return result, task.store.since(dispatch_counter)
    return _run_shard_task(method, task)


class ShardedMethod(SearchMethod):
    """Partition-parallel wrapper around any registered search method.

    Parameters
    ----------
    store:
        The raw-data store over the full collection.
    inner:
        Registry name of the wrapped method (``"isax2+"``, ``"flat"``, ...).
        Wrapping another sharded method is rejected.
    shards:
        Number of contiguous partitions (default: the worker count).  Clamped
        to the collection size, so tiny collections never plan empty shards.
    workers:
        Pool width for builds and searches (default: ``REPRO_WORKERS`` or the
        CPU count).  ``workers=1`` runs the identical code path sequentially.
    executor:
        Fan-out backend: ``"thread"`` (default), ``"process"``, or an
        :class:`~repro.core.parallel.Executor` instance.  ``None`` defers to
        the ``REPRO_EXECUTOR`` environment variable.  Process mode answers
        byte-identically to thread mode; it wins when per-shard work is
        Python-bound (tree descent) and loses on small collections or
        GEMM-bound flat scans (task pickling + result shipping overhead).
    shard_attempts:
        How many times a failed shard task is executed before it counts as
        permanently failed (default 2: one retry).  Retries run in rounds,
        once the other shards' tasks finish.  Each attempt runs on a
        *fresh* fork of the shard store, so a worker that died mid-query is
        replaced wholesale rather than resumed — in process mode that
        includes a worker process lost to SIGKILL, whose shard re-executes on
        a fresh worker from a transparently respawned pool.
        :class:`CorruptionError` short-circuits the retries — re-reading
        damaged bytes cannot help.
    allow_partial:
        Off (the default), a permanently failed shard fails the whole query
        with the shard's original exception.  On, the query returns a
        *degraded* answer over the surviving shards, with
        ``QueryStats.degraded`` set and ``QueryStats.shards_failed`` counting
        the dropped partitions — correct for the data examined, possibly
        incomplete.
    deadline_seconds:
        Optional per-query time budget; shard tasks not finished in time are
        dropped as failed.  Only meaningful with ``allow_partial=True``
        (rejected otherwise), since a deadline exists to trade completeness
        for latency.
    inner_params / **params:
        Forwarded to every inner method's constructor.
    """

    name = "sharded"
    is_index = True
    supports_bulk_build = False

    def __init__(
        self,
        store: SeriesStore,
        inner: str = "flat",
        shards: int | None = None,
        workers: int | None = None,
        executor: "str | Executor | None" = None,
        shard_attempts: int = 2,
        allow_partial: bool = False,
        deadline_seconds: float | None = None,
        repartition_factor: float | None = 2.0,
        inner_params: dict | None = None,
        **params,
    ) -> None:
        inner_name = str(inner).lower()
        if inner_name.startswith("sharded"):
            raise ValueError("sharded methods cannot be nested")
        self.inner_name = inner_name
        merged = dict(inner_params or {})
        merged.update(params)
        self.inner_params = merged
        self.workers = resolve_workers(workers)
        resolved_executor = resolve_executor(executor, self.workers)
        self._executor_obj: Executor | None = resolved_executor
        #: the kind string re-resolved after unpickling (executors hold pools
        #: and shared-memory tables; only their kind crosses a pickle).
        self._executor_spec = resolved_executor.kind
        self.shard_attempts = int(shard_attempts)
        if self.shard_attempts < 1:
            raise ValueError("shard_attempts must be at least 1")
        self.allow_partial = bool(allow_partial)
        self.deadline_seconds = None if deadline_seconds is None else float(deadline_seconds)
        if self.deadline_seconds is not None:
            if self.deadline_seconds <= 0:
                raise ValueError("deadline_seconds must be positive")
            if not self.allow_partial:
                raise ValueError(
                    "deadline_seconds requires allow_partial=True: a deadline "
                    "trades completeness for latency, which only a degraded "
                    "answer can express"
                )
        self._requested_shards = int(shards) if shards is not None else self.workers
        if self._requested_shards <= 0:
            raise ValueError("shards must be a positive integer")
        self.repartition_factor = (
            None if not repartition_factor else float(repartition_factor)
        )
        if self.repartition_factor is not None and self.repartition_factor <= 1.0:
            raise ValueError("repartition_factor must exceed 1.0 (or be None)")
        self.repartitions = 0
        self._shards: list[_Shard] = []
        self._spill_dir: tempfile.TemporaryDirectory | None = None
        self._spill_store: SeriesStore | None = None
        self._spill_rows = -1
        super().__init__(store)
        self._shards = self._plan_shards(store)
        self.name = f"sharded:{self.inner_name}"
        self.index_stats.method = self.name
        self.supports_approximate = bool(
            self._shards and self._shards[0].method.supports_approximate
        )

    # -- executor ---------------------------------------------------------------
    @property
    def executor(self) -> Executor:
        """The fan-out backend (lazily re-resolved after unpickling)."""
        obj = self._executor_obj
        if obj is None:
            obj = self._executor_obj = resolve_executor(
                self._executor_spec, self.workers
            )
        return obj

    @property
    def executor_kind(self) -> str:
        return self._executor_spec

    # -- shard planning ---------------------------------------------------------
    @property
    def shard_count(self) -> int:
        return len(self._shards)

    def _plan_shards(self, store: SeriesStore, rows: int | None = None) -> list[_Shard]:
        from ..core.registry import create_method

        total = store.count if rows is None else int(rows)
        shards: list[_Shard] = []
        # chunk_slices clamps the part count to the row count, so a collection
        # smaller than the requested shard count plans fewer (never empty)
        # shards, and an empty collection plans none.
        for i, sl in enumerate(chunk_slices(total, self._requested_shards)):
            shard_store = self._shard_store(store, i, sl)
            method = create_method(self.inner_name, shard_store, **self.inner_params)
            shards.append(
                _Shard(index=i, offset=sl.start, store=shard_store, method=method)
            )
        return shards

    def _shard_store(self, store: SeriesStore, index: int, sl: slice) -> SeriesStore:
        # Zero-copy partition through the backend layer: in-memory shards view
        # the parent array, mmap shards are (path, row-range) handles onto the
        # same file — both stay picklable and reopen cleanly per worker.
        return store.slice(sl.start, sl.stop, name=f"{store.dataset.name}#shard{index}")

    def _on_store_attached(self, store: SeriesStore | None) -> None:
        # Re-slice shard stores whenever the base store is (re-)attached —
        # this is how a persisted sharded index reconnects to live data.
        if store is None or not getattr(self, "_shards", None):
            return
        slices = chunk_slices(store.count, len(self._shards))
        if len(slices) != len(self._shards):
            raise ValueError(
                f"cannot attach a store with {store.count} rows to a sharded "
                f"index built over {len(self._shards)} shards: re-slicing "
                f"would leave {len(self._shards) - len(slices)} shard(s) "
                "empty; rebuild the index over the new collection instead"
            )
        self._invalidate_process_state()
        for shard, sl in zip(self._shards, slices):
            shard.offset = sl.start
            shard.store = self._shard_store(store, shard.index, sl)
            shard.method.store = shard.store
            shard.task_key = None

    def _invalidate_process_state(self) -> None:
        """Forget the memory spill; worker caches key off content, not identity."""
        self._spill_store = None
        self._spill_rows = -1

    def close(self) -> None:
        """Release pooled resources (idempotent; the method stays usable).

        Closes the executor's pool unless it came from the shared registry
        (``REPRO_EXECUTOR``-driven process pools are reused across methods and
        owned by :func:`~repro.core.parallel.shutdown_shared_executors`), and
        removes the temporary memory-spill file if process dispatch created
        one.  The next parallel call lazily recreates what it needs.
        """
        executor = self._executor_obj
        if executor is not None and not executor.shared:
            executor.close()
        self._invalidate_process_state()
        spill_dir = self._spill_dir
        if spill_dir is not None:
            self._spill_dir = None
            spill_dir.cleanup()

    def __getstate__(self) -> dict:
        state = super().__getstate__()
        # Executors hold pools and shared-memory tables; spills are per-process
        # temporaries.  Both are recreated lazily from the kind string.
        state["_executor_obj"] = None
        state["_spill_dir"] = None
        state["_spill_store"] = None
        state["_spill_rows"] = -1
        if state.get("_base_store") is None:
            # Persistence detaches the top store before pickling; detach the
            # shard stores too so no raw data lands in the index file.  The
            # stores are rebuilt by ``_on_store_attached`` when a store is
            # reassigned (which ``save_method`` does right after pickling).
            for shard in self._shards:
                shard.store = None
                shard.method.store = None
        return state

    # -- construction -----------------------------------------------------------
    def _build(self) -> None:
        """Build every shard concurrently and aggregate the index stats."""
        shard_stats = self._build_shards(self._shards)
        total = self.index_stats
        for stats in shard_stats:
            total.total_nodes += stats.total_nodes
            total.leaf_nodes += stats.leaf_nodes
            total.memory_bytes += stats.memory_bytes
            total.disk_bytes += stats.disk_bytes
            total.leaf_fill_factors.extend(stats.leaf_fill_factors)
            total.leaf_depths.extend(stats.leaf_depths)

    def _build_shards(self, shards: list[_Shard]) -> list:
        """Build ``shards`` on the active executor; returns per-shard stats.

        Thread mode builds in place.  Process mode fans the builds out to the
        pool — each worker builds its shard GIL-free, seeds its index cache,
        and ships the built method back (pickled, store detached) so the
        coordinator's copy is identical to a local build; counter deltas ride
        the task results.  Build failures always raise (``allow_partial``
        degrades *answers*; a missing shard index is a broken method, not a
        degraded one), though killed workers still get their ``shard_attempts``
        re-executions first.
        """
        if not shards:
            return []
        if self.executor.kind == "process":
            units = [(shard, "build", {}) for shard in shards]
            successes = self._fan_out(units, require_all=True)
            stats_list = []
            for shard, (blob, stats) in successes:
                method = pickle.loads(blob)
                method.store = shard.store
                shard.method = method
                stats_list.append(stats)
            return stats_list

        def build_one(shard: _Shard):
            shard.method.build()
            return shard.method.index_stats

        shard_stats = self.executor.map(build_one, shards)
        counter = self.store.counter
        for shard in shards:
            counter.merge(shard.store.counter)
        return shard_stats

    def _collect_footprint(self) -> None:
        """Aggregated in :meth:`_build`; nothing further to collect."""

    def append(self, position: int) -> None:
        """Route one appended row into the tail shard (see :meth:`extend`)."""
        self.extend(int(position), int(position) + 1)

    def extend(self, start: int, stop: int | None = None) -> int:
        """Bulk-insert newly ingested rows ``[start, stop)`` into the index.

        Appends route to the *tail* shard: its store is re-sliced to cover
        the new rows (zero-copy) and the inner method's own :meth:`extend`
        absorbs them, so every other shard — and any query running against
        it — is untouched.  A method planned over an *empty* collection has
        no shards yet; its first extend plans and builds them.  When
        sustained ingest skews the tail past ``repartition_factor`` times the
        mean shard size, the collection is re-partitioned into balanced
        contiguous shards and rebuilt (:meth:`repartition`), restoring
        parallel query speedup.
        """
        self._require_built()
        start = int(start)
        stop = self.store.count if stop is None else int(stop)
        if not (0 <= start <= stop <= self.store.count):
            raise ValueError(
                f"extend range [{start}, {stop}) out of bounds for "
                f"{self.store.count} rows"
            )
        if stop <= start:
            return 0
        if not self._shards:
            if start != 0:
                raise ValueError(
                    f"extend must start at the indexed row count 0; got {start}"
                )
            self._shards = self._plan_shards(self.store, rows=stop)
            self._build_shards(self._shards)
            self.supports_approximate = bool(
                self._shards and self._shards[0].method.supports_approximate
            )
            self._invalidate_process_state()
            self._maybe_repartition()
            return stop - start
        tail = self._shards[-1]
        local_old = int(tail.store.count)
        indexed = tail.offset + local_old
        if start != indexed:
            raise ValueError(
                f"extend must start at the indexed row count {indexed}; "
                f"got {start}"
            )
        tail.store = self._shard_store(
            self.store, tail.index, slice(tail.offset, stop)
        )
        tail.method.store = tail.store
        tail.method.extend(local_old, stop - tail.offset)
        tail.task_key = None  # the tail's rows changed: new worker-cache key
        self._invalidate_process_state()
        self._maybe_repartition()
        return stop - start

    def _maybe_repartition(self) -> None:
        if self.repartition_factor is None or len(self._shards) < 2:
            return
        total = sum(int(s.store.count) for s in self._shards)
        tail_rows = int(self._shards[-1].store.count)
        if tail_rows * len(self._shards) > self.repartition_factor * total:
            self.repartition()

    def repartition(self) -> None:
        """Re-plan balanced contiguous shards over the current store and rebuild.

        The heavyweight half of live ingest: amortized by the skew threshold,
        so steady appends pay per-row insert cost almost always and a full
        rebuild only when the tail has grown far past its siblings.
        """
        self._shards = self._plan_shards(self.store)
        self.repartitions += 1
        self._invalidate_process_state()
        self._build_shards(self._shards)

    # -- shard task dispatch --------------------------------------------------------
    def _deadline(self) -> float | None:
        """Absolute monotonic deadline for one fan-out, or ``None``."""
        if self.deadline_seconds is None:
            return None
        return time.monotonic() + self.deadline_seconds

    def _task_key(self, shard: _Shard) -> tuple:
        if shard.task_key is None:
            shard.task_key = (
                _content_key(shard.store),
                shard.offset,
                shard.offset + int(shard.store.count),
                self.inner_name,
                _params_signature(self.inner_params),
            )
        return shard.task_key

    def _task_store(self, shard: _Shard) -> SeriesStore:
        """A picklable-by-path fork of the shard's store for task shipping.

        File-backed shards (mmap / compressed / growable, fault-wrapped or
        not) already pickle as (path, row-range) handles.  In-memory shards
        would pickle their raw rows — instead the full collection is spilled
        once to a temporary ``.npy`` and every shard ships as an mmap slice of
        the spill; the bytes are bit-identical and access accounting is pure
        page geometry, so answers and counters are unchanged.  Each dispatch
        forks the handle, giving retried tasks a fresh fault incarnation
        (transients re-roll) while corruption — keyed to absolute file regions
        — stays deterministic, exactly like thread-mode re-forks.
        """
        store = shard.store
        if store.backend.source_path is not None:
            return store.fork()
        return self._spill_slice(shard).fork()

    def _spill_slice(self, shard: _Shard) -> SeriesStore:
        base = self._ensure_spill()
        start = shard.offset
        stop = start + int(shard.store.count)
        return base.slice(
            start, stop, name=f"{self.store.dataset.name}#shard{shard.index}"
        )

    def _ensure_spill(self) -> SeriesStore:
        store = self.store
        if self._spill_store is not None and self._spill_rows == store.count:
            return self._spill_store
        if self._spill_dir is None:
            self._spill_dir = tempfile.TemporaryDirectory(prefix="repro-spill-")
        path = os.path.join(self._spill_dir.name, f"spill-{store.count}.npy")
        dataset = store.dataset.to_mmap(path)
        self._spill_store = SeriesStore(
            dataset,
            page_bytes=store.page_bytes,
            measure_io=store.measure_io,
            faults=store.faults,
            retry=store.retry,
            verify=store.verify,
        )
        self._spill_rows = store.count
        return self._spill_store

    def _process_task(self, shard: _Shard, op: str, payload: dict) -> _ShardTask:
        return _ShardTask(
            key=self._task_key(shard),
            store=self._task_store(shard),
            method_name=self.inner_name,
            params=dict(self.inner_params),
            op=op,
            payload=payload,
            kill=take_kill_budget(self.store.faults),
            fresh=op == "build",
        )

    def _thread_task(self, shard: _Shard, op: str, payload: dict):
        """The coordinator's built method plus a plan over a fresh store fork.

        No worker-cache key, no spill and no ``kill_worker`` budget: those
        exist for process workers (a kill flag here would SIGKILL the
        coordinator).
        """
        task = _ShardTask(
            key=None,
            store=shard.store.fork(),
            method_name=self.inner_name,
            params=self.inner_params,
            op=op,
            payload=payload,
        )
        return shard.method, task

    def _dispatch(self, units: list, deadline: float | None):
        """Run ``(shard, op, payload)`` units in retry rounds on the executor.

        The one shard retry loop, for both executors.  A unit whose task
        fails — including every task in flight when a worker process is
        SIGKILLed and the pool breaks — is re-dispatched in the next round on
        a fresh store fork (new fault incarnation), after the other units
        finish, up to ``shard_attempts`` times in all; a failed attempt's
        counters are discarded with it, and a broken process pool
        is respawned transparently between rounds.  The deadline is checked
        before each retry round.  :class:`CorruptionError` — re-reading
        damaged bytes cannot help — and deadline misses do not retry.
        Returns ``(outcomes, extras)`` aligned with ``units``, where
        ``extras`` counts the re-dispatches behind each eventual success.
        """
        executor = self.executor
        if executor.kind == "process":
            run, plan = _execute_shard_task, self._process_task
        else:
            run, plan = _run_thread_task, self._thread_task
        outcomes: list[TaskOutcome] = [TaskOutcome(timed_out=True)] * len(units)
        extras = [0] * len(units)
        pending = list(range(len(units)))
        for attempt in range(self.shard_attempts):
            if attempt and deadline is not None and time.monotonic() >= deadline:
                break
            tasks = [plan(*units[i]) for i in pending]
            retry = []
            for i, outcome in zip(
                pending, executor.map_outcomes(run, tasks, deadline=deadline)
            ):
                outcomes[i] = outcome
                if not (
                    outcome.ok
                    or outcome.timed_out
                    or isinstance(outcome.error, CorruptionError)
                ):
                    retry.append(i)
            if not retry:
                break
            for i in retry:
                extras[i] += 1
            pending = retry
        return outcomes, [
            extra if outcome.ok else 0 for outcome, extra in zip(outcomes, extras)
        ]

    def _count_failures(self, outcomes: list, require_all: bool = False) -> int:
        """Failed outcomes; raises the first shard error unless partial
        answers are allowed (``require_all`` forbids them outright)."""
        failed = sum(1 for outcome in outcomes if not outcome.ok)
        if failed and (require_all or not self.allow_partial):
            error = next((o.error for o in outcomes if o.error is not None), None)
            if error is not None:
                raise error
            raise TimeoutError(f"{failed} shard task(s) missed the fan-out deadline")
        return failed

    def _fan_out(
        self, units: list, stats: QueryStats | None = None, require_all: bool = False
    ):
        """Dispatch ``(shard, op, payload)`` units; merge counters; degrade.

        Counter deltas from the successful tasks are merged into the current
        thread's store counter after the join, so accounting rolls up exactly
        once whether this search runs standalone or nested under an outer
        execution context.  A unit still failed after its retries (or past
        the per-query deadline) either raises the shard's original exception
        (``allow_partial=False`` or ``require_all``) or is dropped, with the
        degradation recorded in ``stats``.  Returns ``(shard, result)`` pairs
        for the units that succeeded — callers must not assume one entry per
        shard.
        """
        outcomes, extras = self._dispatch(units, self._deadline())
        failed = self._count_failures(outcomes, require_all)
        counter = self.store.counter
        successes = []
        reexecutions = 0
        for (shard, _op, _payload), outcome, extra in zip(units, outcomes, extras):
            if outcome.ok:
                result, delta = outcome.value
                counter.merge(delta)
                reexecutions += extra
                successes.append((shard, result))
        if stats is not None:
            stats.retries += reexecutions
            if failed:
                stats.shards_failed += failed
                stats.degraded = True
        return successes

    def _shard_answers(self, op: str, payload: dict, stats: QueryStats) -> list:
        """``(shard, answers)`` for one query fanned out over every shard; the
        shards' per-query stats are folded into ``stats``."""
        pairs = self._fan_out([(shard, op, payload) for shard in self._shards], stats)
        for _shard, (_answers, local) in pairs:
            stats.merge(local)
        return [(shard, answers) for shard, (answers, _local) in pairs]

    def _merged_knn(
        self, op: str, payload: dict, k: int, stats: QueryStats
    ) -> KnnAnswerSet:
        merged = self._make_answer_set(k)
        for shard, answers in self._shard_answers(op, payload, stats):
            merged.merge(answers, position_offset=shard.offset)
        return merged

    # -- search -------------------------------------------------------------------
    def _knn_exact(self, query: np.ndarray, k: int, stats: QueryStats) -> KnnAnswerSet:
        radii = self.executor.acquire_radii(1)
        try:
            payload = {"query": query, "k": int(k), "radii": radii}
            return self._merged_knn("knn", payload, k, stats)
        finally:
            self.executor.release_radii(radii)

    def _knn_approximate(
        self, query: np.ndarray, k: int, stats: QueryStats
    ) -> KnnAnswerSet:
        """ng-approximate search: one descent per shard, merged."""
        return self._merged_knn("approx", {"query": query, "k": int(k)}, k, stats)

    def _range_exact(
        self, query: np.ndarray, radius: float, stats: QueryStats
    ) -> RangeAnswerSet:
        payload = {"query": query, "radius": float(radius)}
        merged = RangeAnswerSet(radius=radius)
        for shard, answers in self._shard_answers("range", payload, stats):
            merged.matches.extend(
                Neighbor(distance=n.distance, position=n.position + shard.offset)
                for n in answers.matches
            )
        return merged

    def _batch_answer_sets(self, queries: np.ndarray, k: int):
        """Batch fan-out: (shard x query-chunk) tasks on one pool.

        Chunking the batch adds inter-query parallelism on top of the shard
        fan-out when there are more workers than shards; each shard applies
        its own (possibly vectorized) batch path to every chunk.  Every query
        gets its own shared radius, so — exactly like the single-query path —
        an answer found for query ``j`` in one shard tightens every other
        shard's pruning for query ``j``.  Both executors use the same
        (shard x chunk) task layout, so the GEMM tile shapes — and therefore
        the flat/MASS batch distances — are identical in thread and process
        mode.  A failed task degrades exactly the queries it served.
        """
        total = queries.shape[0]
        if total == 0:
            return [], []
        chunk_count = max(1, min(total, -(-self.workers // max(1, len(self._shards)))))
        spans = [
            (shard, sl)
            for sl in chunk_slices(total, chunk_count)
            for shard in self._shards
        ]
        radii = self.executor.acquire_radii(total)
        try:
            units = [
                (shard, "batch", {"queries": queries[sl], "k": int(k), "radii": radii[sl]})
                for shard, sl in spans
            ]
            outcomes, extras = self._dispatch(units, self._deadline())
        finally:
            self.executor.release_radii(radii)
        merged_sets = [self._make_answer_set(k) for _ in range(total)]
        merged_stats = [QueryStats(dataset_size=self.store.count) for _ in range(total)]
        self._count_failures(outcomes)
        counter = self.store.counter
        for (shard, sl), outcome, extra in zip(spans, outcomes, extras):
            if not outcome.ok:
                for j in range(sl.start, sl.stop):
                    merged_stats[j].shards_failed += 1
                    merged_stats[j].degraded = True
                continue
            (sets, stats_list), delta = outcome.value
            counter.merge(delta)
            for within, (answers, shard_stats) in enumerate(zip(sets, stats_list)):
                j = sl.start + within
                merged_sets[j].merge(answers, position_offset=shard.offset)
                merged_stats[j].merge(shard_stats)
                merged_stats[j].retries += extra
        return merged_sets, merged_stats

    def knn_epsilon(self, query: KnnQuery, epsilon: float = 0.0) -> SearchResult:
        """Epsilon-approximate k-NN fan-out (inner method must support it).

        Each shard runs the inner bounded search; merged answers keep the
        per-shard ``(1 + epsilon)`` guarantee (with ``epsilon = 0`` the result
        is byte-identical to exact search).  Currently the M-tree is the one
        inner method offering this interface.
        """
        self._require_built()
        if epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        if not all(hasattr(s.method, "_knn_bounded") for s in self._shards):
            raise NotImplementedError(
                f"{self.inner_name} does not support epsilon-approximate search"
            )
        before = self.store.counter_snapshot()
        stats = QueryStats(dataset_size=self.store.count)
        series = np.asarray(query.series, dtype=np.float64)
        start = time.perf_counter()
        payload = {"query": series, "k": int(query.k), "epsilon": float(epsilon)}
        merged = self._merged_knn("bounded", payload, query.k, stats)
        stats.cpu_seconds = time.perf_counter() - start
        self._charge_delta(stats, self.store.since(before))
        return self._package_result(merged, stats)

    # -- description ----------------------------------------------------------------
    def describe(self) -> dict:
        info = super().describe()
        info.update(
            inner=self.inner_name,
            shards=self.shard_count,
            workers=self.workers,
            executor=self.executor_kind,
            shard_attempts=self.shard_attempts,
            allow_partial=self.allow_partial,
            deadline_seconds=self.deadline_seconds,
            repartition_factor=self.repartition_factor,
            repartitions=self.repartitions,
            inner_params=dict(self.inner_params),
        )
        return info
