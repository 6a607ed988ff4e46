"""One benchmark run: generate, set up (several times), warm up, run the
closed loop for a fixed time, check every answer, and report.

With tracing off the run reports the end-to-end metrics.  With tracing on it
runs the loop untraced for half the time, then traced over the same number
of steps (the same queries, on the read-only workloads), and reports the
per-layer metrics; their difference gives the tracing overhead.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from . import oracle, tracing
from .workloads import ROWS, WORKLOADS, Workload

#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 5

END_TO_END = {
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "qps": "1/s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "bytes_stored_per_byte": "ratio",
}

PER_LAYER = {
    "engine.self_ms_per_query": "ms",
    "engine.extend_p50_ms": "ms",
    "engine.extend_p90_ms": "ms",
    "engine.ingest_rows_per_s": "1/s",
    "indexes.self_ms_per_query": "ms",
    "indexes.nodes_visited_per_query": "count",
    "indexes.leaves_visited_per_query": "count",
    "indexes.pruning_ratio": "ratio",
    "indexes.extend_ms_per_batch": "ms",
    "sequential.self_ms_per_query": "ms",
    "sequential.tiles_refined_frac": "ratio",
    "summarization.ms_per_query": "ms",
    "summarization.lower_bounds_per_query": "count",
    "summarization.ms_per_batch": "ms",
    "storage.self_ms_per_query": "ms",
    "storage.reads_per_query": "count",
    "storage.bytes_read_per_query": "bytes",
    "storage.physical_bytes_per_query": "bytes",
    "storage.retries_per_query": "count",
    "backends.ms_per_query": "ms",
    "backends.block_cache_hit_ratio": "ratio",
    "quantize.decode_ms_per_query": "ms",
    "quantize.blocks_decoded_per_query": "count",
    "quantize.lb_ms_per_query": "ms",
    "integrity.crc_ms_per_query": "ms",
    "integrity.crc_bytes_per_query": "bytes",
    "distance.ms_per_query": "ms",
    "distance.rows_per_query": "count",
    "answers.ms_per_query": "ms",
    "answers.offered_per_query": "count",
    "answers.accept_ratio": "ratio",
    "parallel.queue_wait_ms_per_query": "ms",
    "parallel.dispatch_ms_per_query": "ms",
    "parallel.straggler_ms_per_query": "ms",
    "sharded.merge_ms_per_query": "ms",
    "wal.append_ms_per_batch": "ms",
    "wal.fsyncs_per_batch": "count",
    "growable.checkpoint_ms": "ms",
    "growable.bytes_written_per_user_byte": "ratio",
    "growable.tail_rows_at_query": "count",
    "growable.segments_at_query": "count",
    "trace.overhead_frac": "ratio",
    "trace.coverage": "ratio",
}

#: layers whose spans the traced run looks for; a layer without spans on a
#: workload is reported absent and its metrics read 0
LAYERS = (
    "engine", "indexes", "sequential", "summarization", "storage", "backends",
    "quantize", "integrity", "distance", "answers", "parallel", "sharded",
    "wal", "growable",
)


class Phase:
    """What one stretch of the closed loop did."""

    def __init__(self) -> None:
        self.query_seconds: list[float] = []
        self.extend_seconds: list[float] = []
        self.rows_ingested = 0
        self.stats: list = []
        self.answers: list[list[tuple]] = []
        self.steps = 0
        self.errors = 0
        self.tail_rows: list[int] = []
        self.segments: list[int] = []

    @property
    def qps(self) -> float:
        return len(self.query_seconds) / sum(self.query_seconds)


def run_loop(
    workload: Workload,
    first_step: int,
    *,
    seconds: float | None = None,
    steps: int | None = None,
    tracer: tracing.Tracer | None = None,
) -> Phase:
    """Run client steps until ``seconds`` have passed or ``steps`` are done."""
    phase = Phase()
    scope = tracer.op if tracer is not None else None
    start = perf_counter()
    index = first_step
    while True:
        if steps is not None and phase.steps >= steps:
            break
        if seconds is not None and perf_counter() - start >= seconds:
            break
        if tracer is not None and workload.backend == "growable":
            tail_rows, segments = workload.store_shape()
            phase.tail_rows.append(tail_rows)
            phase.segments.append(segments)
        try:
            done = workload.step(index, scope)
        # A failing call must not stop the loop: it is counted as a failed
        # operation and the first traceback is shown.
        except Exception:
            if not phase.errors:
                traceback.print_exc(file=sys.stderr)
            phase.errors += 1
            done = []
        for kind, took, outcome in done:
            if kind == "query":
                phase.query_seconds.append(took)
                phase.stats.append(outcome.stats)
                phase.answers.append([(n.position, n.distance) for n in outcome.neighbors])
            else:
                phase.extend_seconds.append(took)
                phase.rows_ingested += int(outcome.shape[0])
        phase.steps += 1
        index += 1
    return phase


# -- memory --------------------------------------------------------------------------
def reset_peak_rss() -> bool:
    """Reset the resident-set high-water mark; False where unsupported."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


def peak_rss_mb() -> float | None:
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


# -- environment ---------------------------------------------------------------------
def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` (no subprocess)."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint(workload: Workload, root: Path) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": {
            var: os.environ.get(var)
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "numpy": np.__version__,
        "python": platform.python_version(),
        "backend": workload.backend,
        "executor": workload.executor,
        "worker_threads": workload.workers,
        "worker_threads_within_cpus": workload.workers <= len(os.sched_getaffinity(0)),
        "git_commit": git_commit(root),
    }


# -- metrics -------------------------------------------------------------------------
def _percentile_ms(seconds: list[float], q: float) -> float:
    return float(np.percentile(seconds, q)) * 1000.0


def end_to_end(
    workload: Workload, phase: Phase, setups: list[float], peak: float | None
) -> dict:
    calls = phase.query_seconds + phase.extend_seconds
    return {
        "query_p50_ms": _percentile_ms(phase.query_seconds, 50),
        "query_p90_ms": _percentile_ms(phase.query_seconds, 90),
        "qps": phase.qps,
        "ops_per_s": len(calls) / sum(calls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak,
        "bytes_stored_per_byte": workload.stored_bytes() / workload.user_bytes(),
    }


def _mean(values: list) -> float:
    return float(np.mean(values)) if values else 0.0


def ingest_metrics(phase: Phase) -> dict:
    if not phase.extend_seconds:
        return {}
    return {
        "ingest_rows_per_s": phase.rows_ingested / sum(phase.extend_seconds),
        "ingest_p50_ms": _percentile_ms(phase.extend_seconds, 50),
        "ingest_p90_ms": _percentile_ms(phase.extend_seconds, 90),
    }


def per_layer(
    tracer: tracing.Tracer, untraced: Phase, traced: Phase
) -> tuple[dict, list[str]]:
    """The per-layer metrics of a traced phase, and the layers absent from it."""
    summary = tracing.summarize(tracer)
    own, total, counts = summary["self"], summary["total"], tracer.counts
    queries = max(1, len(traced.query_seconds))
    batches = max(1, len(traced.extend_seconds))

    def self_ms(prefix: str, kind: str = "query") -> float:
        found = sum(v for (k, name), v in own.items() if k == kind and name.startswith(prefix))
        return 1000.0 * found / (queries if kind == "query" else batches)

    def total_ms(name: str, per: int) -> float:
        return 1000.0 * sum(v for (_k, n), v in total.items() if n == name) / per

    def count(key: str, kind: str = "query") -> float:
        return counts.get((kind, key), 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def stat(field: str) -> float:
        return sum(getattr(s, field) for s in traced.stats) / queries

    examined = sum(s.series_examined for s in traced.stats)
    size = sum(s.dataset_size for s in traced.stats)
    fan = tracing.fan_out_times(tracer, "query")
    ingest = ingest_metrics(untraced)
    checkpoints = count("growable.checkpoints", "extend")
    user_bytes = count("growable.user_bytes", "extend")
    values = {
        "engine.self_ms_per_query": self_ms("engine.search"),
        "engine.extend_p50_ms": ingest.get("ingest_p50_ms", 0.0),
        "engine.extend_p90_ms": ingest.get("ingest_p90_ms", 0.0),
        "engine.ingest_rows_per_s": ingest.get("ingest_rows_per_s", 0.0),
        "indexes.self_ms_per_query": self_ms("indexes.knn_exact"),
        "indexes.nodes_visited_per_query": stat("nodes_visited"),
        "indexes.leaves_visited_per_query": stat("leaves_visited"),
        "indexes.pruning_ratio": 1.0 - ratio(examined, size),
        "indexes.extend_ms_per_batch": total_ms("indexes.extend", batches),
        "sequential.self_ms_per_query": self_ms("sequential."),
        "sequential.tiles_refined_frac": ratio(
            count("storage.read_contiguous"), count("storage.quantized_tiles")
        ),
        "summarization.ms_per_query": self_ms("summarization."),
        "summarization.lower_bounds_per_query": count("summarization.lower_bounds") / queries,
        "summarization.ms_per_batch": self_ms("summarization.", "extend"),
        "storage.self_ms_per_query": self_ms("storage."),
        "storage.reads_per_query": count("storage.reads") / queries,
        "storage.bytes_read_per_query": stat("bytes_read"),
        "storage.physical_bytes_per_query": stat("physical_bytes_read"),
        "storage.retries_per_query": stat("retries"),
        "backends.ms_per_query": self_ms("backends."),
        "backends.block_cache_hit_ratio": (
            1.0 - ratio(count("quantize.blocks_decoded"), count("backends.block_lookups"))
            if count("backends.block_lookups")
            else 0.0
        ),
        "quantize.decode_ms_per_query": self_ms("quantize.decode_payload"),
        "quantize.blocks_decoded_per_query": count("quantize.blocks_decoded") / queries,
        "quantize.lb_ms_per_query": self_ms("quantize.quantized_lower_bounds"),
        "integrity.crc_ms_per_query": self_ms("integrity."),
        "integrity.crc_bytes_per_query": count("integrity.crc_bytes") / queries,
        "distance.ms_per_query": self_ms("distance."),
        "distance.rows_per_query": count("distance.rows") / queries,
        "answers.ms_per_query": self_ms("answers."),
        "answers.offered_per_query": count("answers.offered") / queries,
        "answers.accept_ratio": ratio(count("answers.accepted"), count("answers.offered")),
        "parallel.queue_wait_ms_per_query": 1000.0 * fan["queue_wait"] / queries,
        "parallel.dispatch_ms_per_query": 1000.0 * fan["dispatch"] / queries,
        "parallel.straggler_ms_per_query": 1000.0 * fan["straggler"] / queries,
        "sharded.merge_ms_per_query": self_ms("sharded."),
        "wal.append_ms_per_batch": total_ms("wal.append", batches),
        "wal.fsyncs_per_batch": count("wal.fsyncs", "extend") / batches,
        "growable.checkpoint_ms": total_ms("growable.checkpoint", max(1, int(checkpoints))),
        "growable.bytes_written_per_user_byte": ratio(
            count("growable.bytes_written", "extend"), user_bytes
        ),
        "growable.tail_rows_at_query": _mean(traced.tail_rows),
        "growable.segments_at_query": _mean(traced.segments),
        "trace.overhead_frac": 1.0 - traced.qps / untraced.qps,
        "trace.coverage": summary["wall_self"].get("query", 0.0) / sum(traced.query_seconds),
    }
    absent = [layer for layer in LAYERS if layer not in summary["layers"]]
    if "engine" in absent or not traced.extend_seconds:
        absent.append("engine.extend")
    return values, absent


# -- the run -----------------------------------------------------------------------
def run(
    name: str, seed: int, seconds: float, trace: bool, root: Path, rows: int = ROWS
) -> dict:
    """Run one workload; returns the result with its report fields."""
    workdir = root / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](seed, workdir, rows)
    try:
        return _run(workload, seconds, trace, root)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still works there


def _run(workload: Workload, seconds: float, trace: bool, root: Path) -> dict:
    workload.generate()
    setups = []
    peak_supported = False
    for repeat in range(SETUP_REPEATS):
        if repeat:
            workload.teardown()
        gc.collect()
        peak_supported = reset_peak_rss()
        start = perf_counter()
        workload.setup()
        setups.append(perf_counter() - start)
    first = workload.warm_up()
    gc.collect()
    report: dict = {"fingerprint": fingerprint(workload, root)}
    if trace:
        untraced = run_loop(workload, first, seconds=seconds / 2)
        again = first if workload.replayable else first + untraced.steps
        gc.collect()
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            traced = run_loop(workload, again, steps=untraced.steps, tracer=tracer)
        finally:
            tracer.uninstall()
        metrics, absent = per_layer(tracer, untraced, traced)
        report["absent_layers"] = absent
        phases = (untraced, traced)
        out = root / ".perfbench_out"
        out.mkdir(exist_ok=True)
        tracing.save(
            tracer,
            out / f"trace-{workload.name}-seed{workload.seed}.npz",
            {"fingerprint": report["fingerprint"], "metrics": metrics},
        )
        del tracer
    else:
        phase = run_loop(workload, first, seconds=seconds)
        peak = peak_rss_mb() if peak_supported else None
        metrics = end_to_end(workload, phase, setups, peak)
        report["samples"] = {
            "queries": len(phase.query_seconds),
            "extends": len(phase.extend_seconds),
        }
        report["ingest"] = ingest_metrics(phase)
        phases = (phase,)
    checked, wrong, messages = oracle.check(
        workload.stored_rows(), workload.asked, workload.answers
    )
    batches, lost, lost_messages = workload.durability_failures()
    errors = sum(p.errors for p in phases)
    attempted = checked + batches + errors
    failed = wrong + lost + errors
    report["failed_frac"] = failed / max(1, attempted)
    report["messages"] = messages + lost_messages
    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "report": report,
    }


def render(result: dict) -> list[str]:
    """Human-readable lines for the report printed before the JSON result."""
    report = result["report"]
    lines = [f"env {json.dumps(report['fingerprint'], sort_keys=True)}"]
    absent = set(report.get("absent_layers", ()))
    for name, metric in result["metrics"].items():
        value = metric["value"]
        layer = "engine.extend" if name.startswith(("engine.extend", "engine.ingest")) else (
            name.split(".")[0]
        )
        mark = "  (absent)" if layer in absent and not value else ""
        shown = "unavailable" if value is None else f"{value:.6g}"
        lines.append(f"{name:40s} {shown:>14s} {metric['unit']}{mark}")
    for name, value in report.get("ingest", {}).items():
        unit = "1/s" if name.endswith("_per_s") else "ms"
        lines.append(f"{name:40s} {value:>14.6g} {unit}")
    if "samples" in report:
        lines.append(f"{'samples':40s} {json.dumps(report['samples'])}")
    lines.append(f"{'failed_frac':40s} {report['failed_frac']:>14.6g} ratio")
    lines.extend(f"FAILED: {m}" for m in report["messages"])
    return lines
