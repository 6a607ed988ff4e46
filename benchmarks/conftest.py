"""Shared configuration and helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures at reduced
scale (see the README "Benchmarks" section for the substitutions).  The scale
knobs live here so
the whole suite stays runnable in minutes; increase them to push the harness
closer to the paper's sizes.

The "GB" labels printed by the benchmarks are *paper-equivalent* sizes: the
paper's datasets hold 25GB-1TB of float32 data, and the scaled datasets used
here keep the same series length while reducing the series count.  Labels are
computed by mapping the largest scaled dataset to the largest paper size so the
output rows read side by side with the paper's figures.
"""

from __future__ import annotations

import os

import pytest


def pytest_ignore_collect(collection_path, config):
    """Keep benchmarks out of plain pytest runs.

    The benchmark files regenerate whole paper figures and take minutes; they
    only collect when explicitly requested with ``RUN_BENCHMARKS=1``.  (Under
    the default ``python -m pytest`` invocation the ``bench_*`` filename
    pattern already skips them; this guard also covers explicit
    ``pytest benchmarks/...`` invocations.)
    """
    if os.environ.get("RUN_BENCHMARKS"):
        return None
    if collection_path.name.startswith("bench_"):
        return True
    return None

from repro.evaluation import HDD, run_experiment
from repro.workloads import random_walk_dataset, synth_rand_workload

# -- scale knobs -----------------------------------------------------------------
#: series counts standing in for the paper's 25 / 50 / 100 / 250 GB datasets.
SIZE_SWEEP = {25: 1_000, 50: 2_000, 100: 4_000, 250: 8_000}
#: series counts for the "best methods" sweep that reaches 1TB in the paper.
LARGE_SIZE_SWEEP = {25: 1_000, 100: 4_000, 1000: 16_000}
#: series lengths used by the length sweeps (the paper goes to 16384).
LENGTH_SWEEP = (64, 128, 256, 512)
#: default series length (the paper's synthetic datasets use 256).
DEFAULT_LENGTH = 128
#: number of queries per workload (the paper uses 100).
QUERY_COUNT = 10

#: per-method parameters used when a benchmark does not sweep them itself.
METHOD_PARAMS = {
    "ads+": {"leaf_capacity": 100},
    "dstree": {"leaf_capacity": 100},
    "isax2+": {"leaf_capacity": 100},
    "sfa-trie": {"leaf_capacity": 500},
    "va+file": {},
    "m-tree": {"node_capacity": 16},
    "r*-tree": {"leaf_capacity": 50},
    "stepwise": {},
    "ucr-suite": {},
    "mass": {},
}

#: the six methods the paper carries into its §4.3.3 comparison.
BEST_METHODS = ("ads+", "dstree", "isax2+", "sfa-trie", "va+file", "ucr-suite")


def dataset_for(paper_gb: int, length: int = DEFAULT_LENGTH, seed: int = 2018):
    """Synthetic dataset standing in for one of the paper's sizes.

    A paper dataset of a given size in GB holds fewer series when the series
    are longer (the paper keeps the on-disk size fixed while sweeping length),
    so the scaled series count shrinks proportionally with the length.
    """
    count = SIZE_SWEEP.get(paper_gb) or LARGE_SIZE_SWEEP.get(paper_gb)
    if count is None:
        raise KeyError(f"no scaled count configured for {paper_gb}GB")
    count = max(200, int(count * DEFAULT_LENGTH / length))
    return random_walk_dataset(count, length, seed=seed, name=f"synthetic-{paper_gb}GB")


def workload_for(length: int = DEFAULT_LENGTH, count: int = QUERY_COUNT, seed: int = 77):
    return synth_rand_workload(length, count=count, seed=seed)


def run_cell(dataset, workload, method, platform=HDD, params=None):
    """One experiment cell with the benchmark-wide default parameters."""
    return run_experiment(
        dataset,
        workload,
        method,
        platform=platform,
        method_params=params if params is not None else METHOD_PARAMS.get(method, {}),
    )


@pytest.fixture(scope="session")
def default_dataset():
    return dataset_for(100)


@pytest.fixture(scope="session")
def default_workload():
    return workload_for()


def summarize(name: str, text: str) -> None:
    """Print a benchmark's regenerated table under a recognizable banner."""
    banner = "=" * 72
    print(f"\n{banner}\n{name}\n{banner}\n{text}\n")
