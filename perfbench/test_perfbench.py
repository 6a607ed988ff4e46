"""The benchmark's own tests: tracing changes no answer or counter, metric
names are well formed, and self times add up."""

from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path

import pytest

from perfbench import harness, oracle, tracing
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SMALL = 3000
STEPS = 6
#: |coverage - 1| allowed: the loop's own timer brackets each engine call,
#: so the layer self times fall short of it only by the call overhead
COVERAGE_TOLERANCE = 0.05


def _session(name: str, directory: Path, workers: int | None = None):
    workload = WORKLOADS[name](seed=7, workdir=directory, rows=SMALL)
    if workers is not None:
        workload.workers = workers
    workload.generate()
    workload.setup()
    return workload, workload.warm_up()


def _phase(workload, first: int, tracer=None):
    before = workload.engine.store.counter_snapshot()
    phase = harness.run_loop(workload, first, steps=STEPS, tracer=tracer)
    counter = dataclasses.asdict(workload.engine.store.since(before))
    counter.pop("measured_io_seconds")
    return phase, counter


def _stats(phase) -> list[dict]:
    out = []
    for stats in phase.stats:
        fields = dataclasses.asdict(stats)
        fields.pop("cpu_seconds")
        out.append(fields)
    return out


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced_pair(request, tmp_path_factory):
    """``(workload, untraced phase, its counters, traced phase, its counters,
    tracer)`` over the same steps of one workload.

    The shards run in turn (one worker): with two concurrent shards the
    shared best-so-far radius makes the pruning counts depend on thread
    timing, traced or not.
    """
    name = request.param
    tmp_path = tmp_path_factory.mktemp(name)
    workload, first = _session(name, tmp_path / "a", workers=1)
    other = workload
    try:
        plain, plain_counter = _phase(workload, first)
        if not workload.replayable:
            # Ingest changes the store: replay the steps on a fresh copy.
            other, first = _session(name, tmp_path / "b", workers=1)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            traced, traced_counter = _phase(other, first, tracer)
        finally:
            tracer.uninstall()
        yield workload, plain, plain_counter, traced, traced_counter, tracer
    finally:
        workload.close()
        other.close()


def test_tracing_changes_no_answer_or_counter(traced_pair):
    _workload, plain, plain_counter, traced, traced_counter, _tracer = traced_pair
    assert plain.errors == traced.errors == 0
    assert traced.answers == plain.answers
    assert _stats(traced) == _stats(plain)
    assert traced_counter == plain_counter


def test_self_times_non_negative_and_cover_the_query(traced_pair):
    workload, _plain, _pc, traced, _tc, tracer = traced_pair
    summary = tracing.summarize(tracer)
    assert summary["min_self"] >= 0.0
    coverage = summary["wall_self"]["query"] / sum(traced.query_seconds)
    assert abs(coverage - 1.0) <= COVERAGE_TOLERANCE
    assert "engine" in summary["layers"] and "storage" in summary["layers"]
    if workload.name.startswith("rcz"):
        assert {"parallel", "quantize", "integrity"} <= summary["layers"]
    if workload.name.startswith("growable"):
        assert {"wal", "growable"} <= summary["layers"]


def test_traced_answers_pass_the_oracle(traced_pair):
    workload, *_rest = traced_pair
    checked, wrong, messages = oracle.check(
        workload.stored_rows(), workload.asked, workload.answers
    )
    assert checked > STEPS and wrong == 0, messages


def test_shard_worker_spans_attach_to_their_query(tmp_path):
    workload, first = _session("rcz-sharded-flat-1nn", tmp_path)
    assert workload.workers == 2
    try:
        plain = harness.run_loop(workload, first, steps=STEPS)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            traced = harness.run_loop(workload, first, steps=STEPS, tracer=tracer)
        finally:
            tracer.uninstall()
    finally:
        workload.close()
    assert traced.answers == plain.answers
    tasks = {s[0]: s[5] for s in tracer.spans if s[1] == tracing.TASK_SPAN}
    assert len(tasks) == 2 * STEPS
    scans = [s for s in tracer.spans if s[1] == "sequential._knn_exact"]
    assert len(scans) == 2 * STEPS
    assert all(tasks[s[4]] == s[5] for s in scans)
    summary = tracing.summarize(tracer)
    coverage = summary["wall_self"]["query"] / sum(traced.query_seconds)
    assert abs(coverage - 1.0) <= COVERAGE_TOLERANCE


def test_oracle_flags_a_wrong_answer(tmp_path):
    workload, first = _session("mem-isax2-1nn", tmp_path)
    harness.run_loop(workload, first, steps=2)
    key = next(iter(workload.answers))
    position, distance = workload.answers[key][0]
    workload.answers[key].append(((position + 1) % SMALL, distance))
    _checked, wrong, _messages = oracle.check(
        workload.stored_rows(), workload.asked, workload.answers
    )
    assert wrong == 1


def test_self_times_subtract_the_union_of_children():
    spans = [
        (1, "engine.search", 0.0, 10.0, 0, 1),
        (2, "indexes.knn_exact", 1.0, 4.0, 1, 1),
        (3, "storage.read_block", 3.0, 6.0, 1, 1),  # overlaps its sibling
        (4, "distance.squared_euclidean_batch", 1.0, 2.0, 2, 1),
    ]
    own = tracing.self_times(spans)
    assert own == {1: 5.0, 2: 2.0, 3: 3.0, 4: 1.0}


@pytest.mark.parametrize(
    "second_task, weight", [((0.0, 2.0), 4.0 / 6.0), ((4.0, 5.0), 1.0)]
)
def test_overlapping_shard_tasks_share_wall_time(second_task, weight):
    spans = [
        (1, "parallel.map_outcomes", 0.0, 5.0, 0, 1),
        (2, tracing.TASK_SPAN, 0.0, 4.0, 1, 1),
        (3, tracing.TASK_SPAN, *second_task, 1, 1),
        (4, "sequential._knn_exact", second_task[0], second_task[1], 3, 1),
    ]
    weights = tracing.concurrency_weights(spans)
    assert weights == pytest.approx({1: 1.0, 2: weight, 3: weight, 4: weight})


@pytest.mark.parametrize("trace", [False, True])
def test_run_reports_every_named_metric(tmp_path, trace):
    names = harness.PER_LAYER if trace else harness.END_TO_END
    for name in sorted(WORKLOADS):
        result = harness.run(name, 3, 0.3, trace, tmp_path, rows=SMALL)
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == list(names)
        for metric in result["metrics"].values():
            assert isinstance(metric["value"], float)


def test_metric_names_match_the_benchmark_file():
    pattern = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layered = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == harness.END_TO_END
    assert layered == harness.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    for name in [*declared, *layered]:
        assert pattern.fullmatch(name), name
    records = json.loads((ROOT / "perfbench" / "workloads.json").read_text())
    assert set(records["workloads"]) == set(WORKLOADS)
