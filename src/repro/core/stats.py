"""Accounting structures for index construction and query answering.

The paper's evaluation is driven by counters, not just wall-clock time: number
of random disk accesses (one per leaf visit, or one per skip for skip-sequential
methods), number of sequential accesses, number of raw series examined (which
defines the pruning ratio), and CPU vs I/O time breakdowns.  These dataclasses
collect exactly those quantities so every method reports them uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

__all__ = [
    "AccessCounter",
    "QueryStats",
    "IndexStats",
    "aggregate_query_stats",
]


@dataclass
class AccessCounter:
    """Low-level storage access counters (shared by a store and its readers).

    Thread safety: the counter is a plain accumulator with **no locking**, and
    ``+=`` on its fields is not atomic.  The contract for parallel execution
    is therefore *per-worker counters, merged at the end*: every worker thread
    accumulates into its own private counter (obtained via
    :meth:`~repro.core.storage.SeriesStore.fork`) and the coordinating thread
    folds the workers' counters into the shared one with :meth:`merge` after
    joining them.  A counter instance must never be mutated concurrently from
    two threads; :mod:`repro.core.parallel` and the sharded index wrapper
    follow this protocol everywhere.

    The same protocol crosses process boundaries: a pickled
    :class:`~repro.core.storage.SeriesStore` arrives in a worker process with
    a **fresh** counter (``__getstate__`` drops the parent's — shipping live
    tallies would double-count them on merge), the worker accumulates locally,
    and the accumulated *delta* rides back in the task result for the
    coordinator to :meth:`merge` after the join.  Every field — including
    ``retries`` and the ``bytes_written``/``bytes_read`` halves of a
    construction-buffer spill — is additive, so thread-mode and process-mode
    totals for the same work are identical.
    """

    sequential_pages: int = 0
    random_accesses: int = 0
    series_read: int = 0
    bytes_read: int = 0
    #: bytes actually stored for the rows served (equal to ``bytes_read`` on
    #: the uncompressed backends; the compressed backend's stored block bytes
    #: otherwise, so the logical/physical split quantifies the compression win).
    physical_bytes_read: int = 0
    #: bytes written to the simulated storage (construction-buffer spills).
    bytes_written: int = 0
    #: measured wall-clock seconds spent in backend reads (only accumulated by
    #: stores opened with ``measure_io=True``; calibrates the simulated models).
    measured_io_seconds: float = 0.0
    #: backend reads retried after a transient fault (zero on healthy storage;
    #: the resilience layer's visibility into how hard it had to work).
    retries: int = 0

    def reset(self) -> None:
        for item in fields(self):
            setattr(self, item.name, item.default)

    def snapshot(self) -> "AccessCounter":
        return replace(self)

    def diff(self, earlier: "AccessCounter") -> "AccessCounter":
        """Counters accumulated since ``earlier`` was snapshotted."""
        mine, theirs = vars(self), vars(earlier)
        return AccessCounter(*[mine[name] - theirs[name] for name in _COUNTER_FIELDS])

    def merge(self, other: "AccessCounter") -> None:
        _add_fields(self, other, _COUNTER_FIELDS)


#: every :class:`AccessCounter` field, in declaration order; all are additive.
_COUNTER_FIELDS = tuple(item.name for item in fields(AccessCounter))


@dataclass
class QueryStats:
    """Per-query accounting, mirroring the measures in §4.2 of the paper."""

    #: raw series whose full-resolution distance to the query was computed.
    series_examined: int = 0
    #: total series in the collection (used to derive the pruning ratio).
    dataset_size: int = 0
    #: summarized candidates whose lower bound was evaluated.
    lower_bounds_computed: int = 0
    #: random disk accesses (leaf visits, or skips for skip-sequential methods).
    random_accesses: int = 0
    #: sequential page reads.
    sequential_pages: int = 0
    #: logical bytes read from the simulated raw-data file (uncompressed view).
    bytes_read: int = 0
    #: physical bytes read from storage (== ``bytes_read`` except on the
    #: compressed backend, where it counts the stored block bytes actually
    #: decoded — the measure the two-phase pruned scans minimize).
    physical_bytes_read: int = 0
    #: index nodes visited (internal + leaf).
    nodes_visited: int = 0
    #: leaf nodes visited.
    leaves_visited: int = 0
    #: wall-clock seconds spent answering, measured with ``perf_counter``
    #: (despite the name, not CPU time; a shape-only signal).
    cpu_seconds: float = 0.0
    #: simulated I/O seconds under the active hardware cost model.
    io_seconds: float = 0.0
    #: measured wall-clock I/O seconds (only populated by ``measure_io`` stores).
    measured_io_seconds: float = 0.0
    #: distance of the final (exact or approximate) answer.
    answer_distance: float = float("nan")
    #: backend reads retried after transient faults while answering this query.
    retries: int = 0
    #: shard workers that failed permanently (after re-fork/re-execution) and
    #: were dropped from this query's answer under ``allow_partial``.
    shards_failed: int = 0
    #: the degraded-answer flag: ``True`` when any part of the collection was
    #: *not* consulted (failed or deadline-expired shards), so the reported
    #: neighbors are correct for the data examined but may be incomplete.
    degraded: bool = False

    @property
    def pruning_ratio(self) -> float:
        """``1 - (#raw series examined / #series in dataset)`` (higher is better)."""
        if self.dataset_size <= 0:
            return 0.0
        ratio = 1.0 - (self.series_examined / self.dataset_size)
        return max(0.0, min(1.0, ratio))

    @property
    def total_seconds(self) -> float:
        return self.cpu_seconds + self.io_seconds

    def merge(self, other: "QueryStats") -> None:
        """Sum every counter of ``other`` in; see :data:`_SUMMED_QUERY_FIELDS`."""
        _add_fields(self, other, _SUMMED_QUERY_FIELDS)
        self.dataset_size = max(self.dataset_size, other.dataset_size)
        self.degraded = self.degraded or other.degraded


#: the :class:`QueryStats` fields :meth:`QueryStats.merge` sums: all but the
#: dataset size, which takes the max (shards of one collection merge to its
#: full size), ``degraded``, which is OR-ed, and the answer distance, which is
#: left alone.
_SUMMED_QUERY_FIELDS = tuple(
    item.name
    for item in fields(QueryStats)
    if item.name not in ("dataset_size", "degraded", "answer_distance")
)


def _add_fields(
    total: AccessCounter | QueryStats,
    other: AccessCounter | QueryStats,
    names: tuple[str, ...],
) -> None:
    """Add the ``names`` fields of ``other`` into ``total``."""
    mine, theirs = vars(total), vars(other)
    for name in names:
        mine[name] += theirs[name]


@dataclass
class IndexStats:
    """Index construction statistics and footprint (Figure 8 in the paper)."""

    method: str = ""
    total_nodes: int = 0
    leaf_nodes: int = 0
    memory_bytes: int = 0
    disk_bytes: int = 0
    build_cpu_seconds: float = 0.0
    build_io_seconds: float = 0.0
    sequential_pages: int = 0
    random_accesses: int = 0
    #: fill factor (fraction of capacity used) per leaf, for the fill-factor boxplots.
    leaf_fill_factors: list[float] = field(default_factory=list)
    #: depth of every leaf, for the balance analysis.
    leaf_depths: list[int] = field(default_factory=list)

    @property
    def build_seconds(self) -> float:
        return self.build_cpu_seconds + self.build_io_seconds

    @property
    def median_fill_factor(self) -> float:
        if not self.leaf_fill_factors:
            return 0.0
        ordered = sorted(self.leaf_fill_factors)
        mid = len(ordered) // 2
        if len(ordered) % 2 == 1:
            return float(ordered[mid])
        return float((ordered[mid - 1] + ordered[mid]) / 2.0)

    @property
    def max_leaf_depth(self) -> int:
        return max(self.leaf_depths) if self.leaf_depths else 0


def aggregate_query_stats(stats: list[QueryStats]) -> QueryStats:
    """Sum a list of per-query stats into one aggregate (dataset size is kept)."""
    total = QueryStats()
    for entry in stats:
        total.merge(entry)
    if stats:
        total.dataset_size = stats[0].dataset_size
    return total
