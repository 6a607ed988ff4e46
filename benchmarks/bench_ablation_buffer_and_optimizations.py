"""Ablation benches for the paper's tuning choices beyond the leaf size.

The paper tunes two things beyond the leaf size: the construction buffer size
(§4.3.1, "all methods benefit from a larger buffer size except ADS+"), and it
applies the UCR-Suite distance optimizations (early abandoning, reordering) to
every method.  These benches measure both at small scale:

* buffer-size ablation — spills vs buffer budget during iSAX2+/DSTree builds;
* early-abandoning ablation — UCR-Suite scan with and without the optimization;
* summarization-resolution ablation — pruning as a function of the number of
  segments/coefficients (the paper fixes 16 for all methods).
"""

from __future__ import annotations


from repro import SeriesStore, create_method
from repro.evaluation import HDD, render_table, run_experiment

from .conftest import dataset_for, summarize, workload_for


def test_ablation_buffer_size(benchmark):
    dataset = dataset_for(100)
    rows = []
    for budget in (None, 2_000, 500, 100):
        store = SeriesStore(dataset)
        index = create_method("dstree", store, leaf_capacity=100, buffer_capacity=budget)
        index.build()
        spills = index._buffer.stats.spills if index._buffer is not None else 0
        rows.append(
            {
                "buffer_series": "unbounded" if budget is None else budget,
                "spills": spills,
                "build_random_io": index.index_stats.random_accesses,
                "build_pages": index.index_stats.sequential_pages,
            }
        )
    summarize("Ablation - construction buffer size (DSTree)", render_table(rows))
    # Smaller buffers can only increase spill I/O.
    assert rows[-1]["build_random_io"] >= rows[0]["build_random_io"]

    def build_once():
        store = SeriesStore(dataset)
        index = create_method("dstree", store, leaf_capacity=100, buffer_capacity=500)
        index.build()
        return index.index_stats.random_accesses

    benchmark.pedantic(build_once, rounds=1, iterations=1)


def test_ablation_early_abandoning(benchmark):
    dataset = dataset_for(50)
    workload = workload_for(count=5)
    rows = []
    for enabled in (True, False):
        result = run_experiment(
            dataset,
            workload,
            "ucr-suite",
            platform=HDD,
            method_params={"use_early_abandoning": enabled},
        )
        rows.append(
            {
                "early_abandoning": enabled,
                "query_cpu_s": round(result.query_cpu_seconds, 3),
                "query_s": round(result.query_seconds, 3),
            }
        )
    summarize("Ablation - UCR-Suite early abandoning", render_table(rows))

    def scan_once():
        return run_experiment(
            dataset, workload, "ucr-suite", platform=HDD,
            method_params={"use_early_abandoning": True},
        ).query_cpu_seconds

    benchmark.pedantic(scan_once, rounds=1, iterations=1)


def test_ablation_summary_resolution(benchmark):
    """Pruning ratio as a function of the summary resolution (segments)."""
    dataset = dataset_for(50)
    workload = workload_for(count=5)
    rows = []
    pruning_by_segments = {}
    for segments in (4, 8, 16, 32):
        result = run_experiment(
            dataset,
            workload,
            "isax2+",
            platform=HDD,
            method_params={"segments": segments, "leaf_capacity": 100},
        )
        pruning_by_segments[segments] = result.pruning_ratio
        rows.append(
            {
                "segments": segments,
                "pruning": round(result.pruning_ratio, 3),
                "query_s": round(result.query_seconds, 3),
            }
        )
    summarize("Ablation - iSAX2+ summary resolution (segments)", render_table(rows))
    # More segments means a finer summary and at least comparable pruning.
    assert pruning_by_segments[32] >= pruning_by_segments[4] - 0.05

    def one_cell():
        return run_experiment(
            dataset, workload, "isax2+", platform=HDD,
            method_params={"segments": 16, "leaf_capacity": 100},
        ).pruning_ratio

    benchmark.pedantic(one_cell, rounds=1, iterations=1)
