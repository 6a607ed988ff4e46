"""Table 2 — best method per scenario, dataset and platform.

The paper's Table 2 names the winning method for every combination of dataset
(small/large synthetic plus the four real datasets), platform (HDD/SSD) and
scenario (Idx, Exact100, Idx+Exact100, Idx+Exact10K, Easy-20, Hard-20).  This
benchmark regenerates the table at reduced scale using the controlled
workloads, the same extrapolation procedure and the same easy/hard labelling
(by average pruning ratio across methods).
"""

from __future__ import annotations

from repro.evaluation import HDD, SSD, best_method_per_scenario, render_table, run_comparison
from repro.evaluation.scenarios import SCENARIOS
from repro.workloads import (
    random_walk_dataset,
    real_like_dataset,
    synth_ctrl_workload,
)

from .conftest import METHOD_PARAMS, summarize

TABLE_METHODS = {name: METHOD_PARAMS[name] for name in (
    "ads+", "dstree", "isax2+", "sfa-trie", "va+file", "ucr-suite"
)}
QUERIES = 8


def _datasets():
    yield "Small", random_walk_dataset(800, 128, seed=41, name="synthetic-small")
    yield "Large", random_walk_dataset(4_000, 128, seed=42, name="synthetic-large")
    yield "Astro", real_like_dataset("astro", 2_000, seed=43)
    yield "Deep1B", real_like_dataset("deep1b", 2_000, seed=44)
    yield "SALD", real_like_dataset("sald", 2_000, seed=45)
    yield "Seismic", real_like_dataset("seismic", 2_000, seed=46)


def test_table2_best_methods(benchmark):
    rows = []
    winners_by_platform = {"hdd": {}, "ssd": {}}
    for label, dataset in _datasets():
        workload = synth_ctrl_workload(dataset, count=QUERIES, seed=47)
        for platform in (HDD, SSD):
            results = run_comparison(dataset, workload, TABLE_METHODS, platform=platform)
            winners = best_method_per_scenario(results)
            winners_by_platform[platform.name][label] = winners
            row = {"platform": platform.name, "dataset": label}
            row.update({scenario: winners[scenario] for scenario in SCENARIOS})
            rows.append(row)
    summarize("Table 2 - best method per scenario (controlled workloads)", render_table(rows))

    # Every cell must be filled with one of the compared methods; the
    # time-based winner identities at laptop scale differ from the paper's
    # (fewer series and simulated disks; see the README "Benchmarks" section),
    # so the assertions stay structural.
    for platform_winners in winners_by_platform.values():
        for winners in platform_winners.values():
            assert set(winners) == set(SCENARIOS)
            for winner in winners.values():
                assert winner in TABLE_METHODS
    # The serial scan has no build phase, so it can never lose "Idx" to a
    # method whose build does strictly more work than its own single pass -
    # sanity-check that the Idx winner is one of the single-pass builders.
    for winners in winners_by_platform["hdd"].values():
        assert winners["Idx"] in ("ads+", "va+file", "sfa-trie", "ucr-suite", "isax2+")

    dataset = random_walk_dataset(800, 128, seed=41)
    workload = synth_ctrl_workload(dataset, count=QUERIES, seed=47)

    def one_comparison():
        results = run_comparison(
            dataset, workload, {"dstree": METHOD_PARAMS["dstree"], "ucr-suite": {}}, platform=HDD
        )
        return best_method_per_scenario(results)

    benchmark.pedantic(one_comparison, rounds=1, iterations=1)
