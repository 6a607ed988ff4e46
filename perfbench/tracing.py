"""Per-layer tracing from the benchmark's side of the library boundary.

:func:`install` wraps the public entry points of each layer where their
callers look them up: class attributes for methods, and every ``repro``
module attribute bound to a function that other modules import by name (for
example ``squared_euclidean_batch``, imported into each index module).  A
wrapper records one span per call -- name, start, end, parent span and the
operation (one ``engine.search`` or ``engine.extend`` call) it belongs to --
plus counts of the work it saw.  Nothing under ``src/`` changes, and
:meth:`Tracer.uninstall` restores every attribute it replaced.

Span names are ``<layer>.<function>``; a layer's self time is the time its
spans cover minus the part their child spans cover.  Spans opened on shard
worker threads are parented to the executor call that issued them, so they
count towards the query that issued it.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

#: the span of one shard task on a worker thread (see :func:`concurrency_weights`)
TASK_SPAN = "parallel.task"
FAN_OUT_SPAN = "parallel.map_outcomes"


class Tracer:
    """Spans and counts of the operations run inside :meth:`op` scopes.

    Calls made outside an operation (setup, warm-up, bookkeeping) pass
    through the wrappers untraced.
    """

    def __init__(self) -> None:
        #: ``(span id, name, start, end, parent id, operation id)``; parent 0
        #: marks an operation's root span.
        self.spans: list[tuple] = []
        self.op_kinds: dict[int, str] = {}
        #: ``(operation kind, key) -> total``
        self.counts: defaultdict = defaultdict(float)
        #: ``(operation id, call start, call end, [(task start, task end)])``
        self.fan_outs: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple] = []

    # -- operation scope -------------------------------------------------------
    def _state(self):
        state = self._local
        if not hasattr(state, "stack"):
            state.stack, state.op, state.root = [], None, 0
        return state

    @contextmanager
    def op(self, kind: str):
        """Trace the calls made inside this block as one ``kind`` operation."""
        state = self._state()
        op_id = next(self._ids)
        self.op_kinds[op_id] = kind
        state.op, state.root, state.stack = op_id, 0, []
        try:
            yield op_id
        finally:
            state.op = None

    def add(self, key: str, value: float) -> None:
        """Add ``value`` to the count ``key`` of the current operation's kind."""
        op = self._state().op
        if op is None:
            return
        with self._lock:
            self.counts[(self.op_kinds[op], key)] += value

    # -- wrappers --------------------------------------------------------------
    def _open(self, state) -> tuple[int, int, float]:
        sid = next(self._ids)
        parent = state.stack[-1] if state.stack else state.root
        state.stack.append(sid)
        return sid, parent, perf_counter()

    def _close(self, state, sid: int, parent: int, start: float, name: str) -> float:
        end = perf_counter()
        state.stack.pop()
        self.spans.append((sid, name, start, end, parent, state.op))
        return end

    def wrap(self, fn, name, after=None):
        """``fn`` recording one span per call; ``name`` may be a callable of
        the call's arguments, ``after(tracer, args, result)`` records counts."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = tracer._state()
            if state.op is None:
                return fn(*args, **kwargs)
            span_name = name if isinstance(name, str) else name(args)
            sid, parent, start = tracer._open(state)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(state, sid, parent, start, span_name)
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    def wrap_generator(self, fn, name: str, per_call=None, per_item=None):
        """A generator function whose every resumption is one span; the
        counts ``per_call`` and ``per_item`` go up by one per call and item."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            generator = fn(*args, **kwargs)
            if tracer._state().op is None:
                return generator
            if per_call is not None:
                tracer.add(per_call, 1)
            return tracer._iterate(generator, name, per_item)

        return traced

    def _iterate(self, generator, name, per_item):
        try:
            while True:
                state = self._state()
                sid, parent, start = self._open(state)
                try:
                    item = next(generator)
                except StopIteration:
                    return
                finally:
                    self._close(state, sid, parent, start, name)
                if per_item is not None:
                    self.add(per_item, 1)
                yield item
        finally:
            generator.close()

    def wrap_fan_out(self, fn):
        """An executor's ``map_outcomes`` whose tasks are traced on the worker
        threads as children of the call, within the calling operation."""
        tracer = self

        @functools.wraps(fn)
        def traced(executor, task_fn, items, *args, **kwargs):
            state = tracer._state()
            if state.op is None:
                return fn(executor, task_fn, items, *args, **kwargs)
            op = state.op
            sid, parent, start = tracer._open(state)
            tasks: list[tuple[float, float]] = []

            def task(item):
                worker = tracer._state()
                saved = (worker.op, worker.root, worker.stack)
                worker.op, worker.root, worker.stack = op, sid, []
                tid, _, task_start = tracer._open(worker)
                try:
                    return task_fn(item)
                finally:
                    task_end = tracer._close(worker, tid, sid, task_start, TASK_SPAN)
                    tasks.append((task_start, task_end))
                    worker.op, worker.root, worker.stack = saved

            try:
                return fn(executor, task, items, *args, **kwargs)
            finally:
                end = tracer._close(state, sid, parent, start, FAN_OUT_SPAN)
                tracer.fan_outs.append((op, start, end, tasks))

        return traced

    # -- patching --------------------------------------------------------------
    def patch_method(self, cls, attr: str, make) -> None:
        """Replace ``cls.attr`` (defined on ``cls`` itself) by ``make(original)``."""
        original = vars(cls)[attr]
        setattr(cls, attr, make(original))
        self._patches.append((cls, attr, original))

    def patch_function(self, module, attr: str, make) -> None:
        """Replace a module-level function in every ``repro`` module bound to it."""
        original = getattr(module, attr)
        wrapped = make(original)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "") or ""
            if name.split(".")[0] == "repro" and vars(mod).get(attr) is original:
                setattr(mod, attr, wrapped)
                self._patches.append((mod, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()


# -- what gets wrapped -----------------------------------------------------------
def _count(*pairs):
    """An ``after`` hook adding ``measure(args, result)`` to each ``key``."""

    def after(tracer: Tracer, args, result) -> None:
        for key, measure in pairs:
            tracer.add(key, measure(args, result))

    return after


def _rows(array) -> int:
    shape = np.shape(array)
    return int(shape[0]) if len(shape) == 2 else 1


def _nbytes(buffer) -> int:
    size = getattr(buffer, "nbytes", None)
    return int(size) if size is not None else len(buffer)


def _dir_sizes(root) -> dict:
    out = {}
    with os.scandir(root) as entries:
        for entry in entries:
            if entry.is_file():
                st = entry.stat()
                out[entry.name] = (st.st_size, st.st_mtime_ns)
    return out


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are measured at."""
    from repro.core import distance, integrity, quantize
    from repro.core.answers import KnnAnswerSet
    from repro.core.backends import CompressedBackend, StorageBackend
    from repro.core.engine import SimilaritySearchEngine
    from repro.core.growable import WAL_NAME, GrowableBackend
    from repro.core.parallel import ThreadExecutor
    from repro.core.storage import SeriesStore
    from repro.core.wal import WriteAheadLog
    from repro.indexes.base import SearchMethod
    from repro.indexes.isax import Isax2PlusIndex
    from repro.indexes.sharded import ShardedMethod
    from repro.sequential.flat import FlatScan
    from repro.summarization.paa import PaaSummarizer
    from repro.summarization.sax import IsaxSummarizer

    def span(name, after=None):
        return lambda fn: tracer.wrap(fn, name, after)

    def method_layer(method) -> str:
        if isinstance(method, ShardedMethod):
            return "sharded"
        return "indexes" if method.is_index else "sequential"

    # engine: the public API the client calls
    tracer.patch_method(SimilaritySearchEngine, "search", span("engine.search"))
    tracer.patch_method(SimilaritySearchEngine, "extend", span("engine.extend"))

    # indexes / sharded / sequential: the search method and its shard scans
    tracer.patch_method(
        SearchMethod, "knn_exact", span(lambda a: method_layer(a[0]) + ".knn_exact")
    )
    tracer.patch_method(FlatScan, "_knn_exact", span("sequential._knn_exact"))
    for cls in (SearchMethod, Isax2PlusIndex, FlatScan, ShardedMethod):
        if "extend" in vars(cls):
            tracer.patch_method(
                cls, "extend", span(lambda a: method_layer(a[0]) + ".extend")
            )

    # summarization: PAA transforms and the iSAX lower bounds
    tracer.patch_method(PaaSummarizer, "transform", span("summarization.transform"))
    tracer.patch_method(
        PaaSummarizer, "transform_batch", span("summarization.transform_batch")
    )
    tracer.patch_method(IsaxSummarizer, "word_from_paa", span("summarization.word_from_paa"))
    tracer.patch_method(
        IsaxSummarizer,
        "mindist_paa_to_words_batch",
        span(
            "summarization.mindist_paa_to_words_batch",
            _count(("summarization.lower_bounds", lambda a, r: _rows(a[2]))),
        ),
    )

    # storage: the SeriesStore read primitives (and the ingest entry)
    reads = _count(("storage.reads", lambda a, r: 1))
    tracer.patch_method(SeriesStore, "read_block", span("storage.read_block", reads))
    tracer.patch_method(
        SeriesStore,
        "read_contiguous",
        span(
            "storage.read_contiguous",
            _count(
                ("storage.reads", lambda a, r: 1),
                ("storage.read_contiguous", lambda a, r: 1),
            ),
        ),
    )
    tracer.patch_method(SeriesStore, "read_one", span("storage.read_one", reads))
    tracer.patch_method(SeriesStore, "peek", span("storage.peek"))
    tracer.patch_method(SeriesStore, "extend", span("storage.extend"))
    tracer.patch_method(
        SeriesStore,
        "scan_chunks",
        lambda fn: tracer.wrap_generator(fn, "storage.scan_chunks", "storage.reads"),
    )
    tracer.patch_method(
        SeriesStore,
        "scan_quantized_chunks",
        lambda fn: tracer.wrap_generator(
            fn, "storage.scan_quantized_chunks", "storage.reads", "storage.quantized_tiles"
        ),
    )

    # backends: row gathers, block reads and the quantized view
    for cls in (StorageBackend, CompressedBackend, GrowableBackend):
        for attr in ("take", "read_rows", "quantized_parts"):
            if attr in vars(cls):
                tracer.patch_method(cls, attr, span(f"backends.{attr}"))
    tracer.patch_method(
        CompressedBackend,
        "_block",
        lambda fn: _counting(tracer, fn, "backends.block_lookups"),
    )

    # quantize / integrity / distance / answers: the kernels
    tracer.patch_function(
        quantize,
        "decode_payload",
        span(
            "quantize.decode_payload", _count(("quantize.blocks_decoded", lambda a, r: 1))
        ),
    )
    tracer.patch_function(
        quantize, "quantized_lower_bounds", span("quantize.quantized_lower_bounds")
    )
    tracer.patch_function(
        integrity,
        "checksum",
        span(
            "integrity.checksum",
            _count(("integrity.crc_bytes", lambda a, r: _nbytes(a[0]))),
        ),
    )
    tracer.patch_function(
        distance,
        "squared_euclidean_batch",
        span(
            "distance.squared_euclidean_batch",
            _count(("distance.rows", lambda a, r: _rows(a[1]))),
        ),
    )
    tracer.patch_method(
        KnnAnswerSet,
        "offer_batch",
        span(
            "answers.offer_batch",
            _count(
                ("answers.offered", lambda a, r: int(np.size(a[1]))),
                ("answers.accepted", lambda a, r: int(r)),
            ),
        ),
    )

    # parallel: the shard fan-out
    tracer.patch_method(ThreadExecutor, "map_outcomes", tracer.wrap_fan_out)

    # wal / growable: the durable write path
    tracer.patch_method(WriteAheadLog, "append", span("wal.append"))
    tracer.patch_method(
        WriteAheadLog, "_sync", span("wal.sync", _count(("wal.fsyncs", lambda a, r: 1)))
    )

    def measure_extend(fn):
        traced = tracer.wrap(fn, "growable.extend")

        def extend(backend, rows):
            wal = backend.root / WAL_NAME
            before = wal.stat().st_size if wal.exists() else 0
            result = traced(backend, rows)
            tracer.add("growable.bytes_written", wal.stat().st_size - before)
            tracer.add("growable.user_bytes", int(np.asarray(rows).nbytes))
            return result

        return functools.wraps(fn)(extend)

    def measure_checkpoint(fn):
        traced = tracer.wrap(fn, "growable.checkpoint")

        def checkpoint(backend):
            before = _dir_sizes(backend.root)
            result = traced(backend)
            after = _dir_sizes(backend.root)
            written = sum(
                size for name, (size, mtime) in after.items()
                if before.get(name) != (size, mtime)
            )
            tracer.add("growable.bytes_written", written)
            tracer.add("growable.checkpoints", 1)
            return result

        return functools.wraps(fn)(checkpoint)

    tracer.patch_method(GrowableBackend, "extend", measure_extend)
    tracer.patch_method(GrowableBackend, "checkpoint", measure_checkpoint)


def _counting(tracer: Tracer, fn, key: str):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        tracer.add(key, 1)
        return fn(*args, **kwargs)

    return counted


# -- analysis ----------------------------------------------------------------------
def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: defaultdict = defaultdict(list)
    for _sid, _name, start, end, parent, _op in spans:
        children[parent].append((start, end))
    return {
        sid: (end - start) - _covered(children.get(sid, []), start, end)
        for sid, _name, start, end, _parent, _op in spans
    }


def concurrency_weights(spans: list[tuple]) -> dict[int, float]:
    """Wall-time weight of every span inside a shard task.

    The tasks of one fan-out may overlap in wall time.  Each span under a
    task is weighted by the union of its fan-out's task intervals divided by
    their summed durations: 1 when the tasks run in turn, ``1/n`` when ``n``
    fully overlap.  Weighted self times then add up to wall time.
    """
    tasks_by_fan_out: defaultdict = defaultdict(list)
    parent_of = {}
    for sid, name, start, end, parent, _op in spans:
        parent_of[sid] = parent
        if name == TASK_SPAN:
            tasks_by_fan_out[parent].append((start, end, sid))
    weights: dict[int, float] = {}
    for tasks in tasks_by_fan_out.values():
        intervals = [(start, end) for start, end, _sid in tasks]
        busy = sum(end - start for start, end in intervals)
        lo, hi = min(i[0] for i in intervals), max(i[1] for i in intervals)
        weight = _covered(intervals, lo, hi) / busy if busy > 0 else 1.0
        weights.update((sid, weight) for _s, _e, sid in tasks)
    for sid in parent_of:
        chain = []
        node = sid
        while node and node not in weights:
            chain.append(node)
            node = parent_of.get(node, 0)
        weight = weights.get(node, 1.0)
        weights.update((n, weight) for n in chain)
    return weights


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(tracer: Tracer) -> dict:
    """Self and total times, per operation kind, by layer and by span name.

    Returns ``{"self": {(kind, name): s}, "total": {(kind, name): s},
    "wall_self": {kind: s},
    "layers": set of layers seen, "min_self": s}``, where ``wall_self`` sums
    self times weighted by :func:`concurrency_weights`.
    """
    spans = tracer.spans
    own = self_times(spans)
    weights = concurrency_weights(spans)
    by_name: defaultdict = defaultdict(float)
    total: defaultdict = defaultdict(float)
    wall: defaultdict = defaultdict(float)
    for sid, name, start, end, _parent, op in spans:
        kind = tracer.op_kinds[op]
        by_name[(kind, name)] += own[sid]
        total[(kind, name)] += end - start
        wall[kind] += own[sid] * weights[sid]
    return {
        "self": by_name,
        "total": total,
        "wall_self": wall,
        "layers": {layer_of(name) for _s, name, *_rest in spans},
        "min_self": min(own.values(), default=0.0),
    }


def fan_out_times(tracer: Tracer, kind: str) -> dict:
    """Queue wait, dispatch and straggler seconds summed over ``kind`` fan-outs."""
    wait = dispatch = straggler = 0.0
    for op, start, end, tasks in tracer.fan_outs:
        if tracer.op_kinds[op] != kind or not tasks:
            continue
        durations = [b - a for a, b in tasks]
        wait += sum(a - start for a, _b in tasks)
        dispatch += (end - start) - max(durations)
        straggler += max(durations) - sum(durations) / len(durations)
    return {"queue_wait": wait, "dispatch": dispatch, "straggler": straggler}


def save(tracer: Tracer, path, extra: dict) -> None:
    """Write the spans (as arrays) and ``extra`` (as JSON) to ``path``."""
    import json

    names = sorted({name for _s, name, *_r in tracer.spans})
    code = {name: i for i, name in enumerate(names)}
    spans = tracer.spans
    np.savez(
        path,
        span_id=np.array([s[0] for s in spans], dtype=np.int64),
        name=np.array([code[s[1]] for s in spans], dtype=np.int32),
        start=np.array([s[2] for s in spans], dtype=np.float64),
        end=np.array([s[3] for s in spans], dtype=np.float64),
        parent=np.array([s[4] for s in spans], dtype=np.int64),
        op=np.array([s[5] for s in spans], dtype=np.int64),
        names=np.array(names),
        op_kinds=np.array(json.dumps({str(k): v for k, v in tracer.op_kinds.items()})),
        extra=np.array(json.dumps(extra)),
    )
