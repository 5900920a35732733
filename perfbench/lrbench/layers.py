"""Per-layer metrics of the traced run.

:func:`install` wraps each layer's entry functions with spans and counts;
:func:`round_metrics` turns one traced round (every episode executed once)
into the per-layer metrics named in ``BENCHMARK.json``.  Times are seconds
per round and, except where a name says otherwise, self times.
"""

from __future__ import annotations

import multiprocessing.context
from bisect import bisect_left, bisect_right
from typing import Dict, List, Sequence

import repro.core.join_evaluator as join_evaluator
import repro.parallel.backend as backend
import repro.sim.simulator as simulator
from repro.core.bucket_cache import BucketCacheManager
from repro.core.preprocessor import QueryPreProcessor
from repro.core.scheduler import LifeRaftScheduler
from repro.core.workload_manager import WorkloadManager
from repro.service.frontend import ServingFrontEnd
from repro.storage.bucket_store import BucketStore

from lrbench.tracing import END, NAME, PARENT, START, Tracer, self_times

#: Per-layer metrics: name -> (unit, better).
PER_LAYER = {
    "scheduler.decisions": ("count", "lower"),
    "scheduler.decide_s": ("s", "lower"),
    "scheduler.us_per_decision": ("us", "lower"),
    "manager.pending_state_s": ("s", "lower"),
    "manager.pending_buckets_per_decision": ("count", "lower"),
    "manager.add_query_s": ("s", "lower"),
    "manager.drain_s": ("s", "lower"),
    "preprocess.assign_s": ("s", "lower"),
    "preprocess.objects_assigned": ("count", "lower"),
    "cache.loads": ("count", "lower"),
    "cache.hit_rate": ("ratio", "higher"),
    "cache.load_s": ("s", "lower"),
    "join.evaluate_self_s": ("s", "lower"),
    "join.scan_services": ("count", "lower"),
    "join.estimated_services": ("count", "lower"),
    "kernel.crossmatch_s": ("s", "lower"),
    "kernel.objects_refined": ("count", "lower"),
    "kernel.candidates": ("count", "lower"),
    "kernel.matches": ("count", "higher"),
    "kernel.match_ratio": ("ratio", "higher"),
    "store.reads": ("count", "lower"),
    "store.read_s": ("s", "lower"),
    "store.page_cache_hit_rate": ("ratio", "higher"),
    "store.decoded_mb": ("MB", "lower"),
    "store.worker_real_read_s": ("s", "lower"),
    "store.ingest_s": ("s", "lower"),
    "store.bytes_written_per_row": ("B/row", "lower"),
    "service.admit_s": ("s", "lower"),
    "service.admitted": ("count", "higher"),
    "service.deferrals": ("count", "lower"),
    "service.rejected": ("count", "lower"),
    "service.ingest_records_s": ("s", "lower"),
    "service.chunks": ("count", "lower"),
    "parallel.spawn_s": ("s", "lower"),
    "parallel.first_reply_s": ("s", "lower"),
    "parallel.fan_out_s": ("s", "lower"),
    "parallel.window_round_trips": ("count", "lower"),
    "parallel.window_wait_s": ("s", "lower"),
    "parallel.steal_rounds": ("count", "lower"),
    "parallel.steals": ("count", "lower"),
    "parallel.steal_s": ("s", "lower"),
    "parallel.merge_s": ("s", "lower"),
    "telemetry.ledger_s": ("s", "lower"),
    "telemetry.merge_s": ("s", "lower"),
    "sim.execute_s": ("s", "lower"),
    "sim.unattributed_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

#: Which layer (``src/repro`` module) each span's self time belongs to.
SPAN_LAYER = {
    "sim.execute": "sim",
    "scheduler.next_work": "core.scheduler",
    "manager.pending_state": "core.workload_manager",
    "manager.add_query": "core.workload_manager",
    "manager.drain_bucket": "core.workload_manager",
    "preprocess.assign": "core.preprocessor",
    "cache.load": "core.bucket_cache",
    "store.read_bucket": "storage",
    "join.evaluate": "core.join_evaluator",
    "kernel.crossmatch_block": "core.kernels",
    "service.admit": "service",
    "service.ingest_records": "service",
    "parallel.fan_out": "parallel",
    "parallel.spawn": "parallel",
    "parallel.window": "parallel",
    "parallel.recv": "parallel",
    "parallel.steal_round": "parallel",
    "parallel.merge": "parallel",
    "parallel.shutdown": "parallel",
    "telemetry.ledger": "telemetry",
    "telemetry.merge": "telemetry",
}


class Counts:
    """Work counted at the same boundaries the spans time."""

    def __init__(self) -> None:
        self.pending_buckets = 0
        self.objects_assigned = 0
        #: (block, entries, matches found) per kernel call, counted after the run.
        self.kernel_calls: List[tuple] = []

    def reset(self) -> None:
        self.__init__()


def _assigned(result, *_args) -> int:
    return sum(v if isinstance(v, int) else len(v) for v in result.values())


def install(tracer: Tracer, counts: Counts) -> None:
    """Wrap every layer's entry functions with spans (undo with ``tracer.restore()``)."""

    def add_pending(result, *_args):
        counts.pending_buckets += len(result)

    def add_assigned(result, *_args):
        counts.objects_assigned += _assigned(result)

    def add_kernel_call(result, block, entries):
        counts.kernel_calls.append((block, entries, len(result[0])))

    wrap = tracer.wrap
    wrap(simulator.Simulator, "execute", "sim.execute")
    wrap(LifeRaftScheduler, "next_work", "scheduler.next_work")
    wrap(WorkloadManager, "pending_state", "manager.pending_state", observe=add_pending)
    wrap(WorkloadManager, "add_query", "manager.add_query", tag=lambda _m, qid, *_: qid)
    wrap(WorkloadManager, "drain_bucket", "manager.drain_bucket", tag=lambda _m, b, *_: b)
    wrap(QueryPreProcessor, "assign", "preprocess.assign",
         tag=lambda _p, query: query.query_id, observe=add_assigned)
    wrap(BucketCacheManager, "load", "cache.load", tag=lambda _c, b: b)
    wrap(BucketStore, "read_bucket", "store.read_bucket", tag=lambda _s, b, *_: b)
    wrap(join_evaluator.HybridJoinEvaluator, "evaluate", "join.evaluate",
         tag=lambda _e, spec, *_: spec.index)
    wrap(join_evaluator, "crossmatch_block", "kernel.crossmatch_block", observe=add_kernel_call)
    wrap(ServingFrontEnd, "admit", "service.admit")
    wrap(ServingFrontEnd, "ingest_records", "service.ingest_records")
    wrap(backend, "fan_out_arrivals", "parallel.fan_out")
    wrap(multiprocessing.context.SpawnProcess, "start", "parallel.spawn")
    wrap(backend.ProcessBackend, "_run_window", "parallel.window", tag=lambda _h, until, _b: until)
    wrap(backend._ShardHandle, "recv", "parallel.recv", tag=lambda handle: handle.worker_id)
    wrap(backend.ProcessBackend, "_steal_round", "parallel.steal_round")
    wrap(backend, "merge_backend_outcome", "parallel.merge")
    wrap(backend.ProcessBackend, "_shutdown", "parallel.shutdown")
    wrap(backend, "merge_snapshots", "telemetry.merge")
    wrap(simulator, "build_run_ledger", "telemetry.ledger")
    wrap(simulator, "merge_snapshots", "telemetry.merge")


def kernel_work(kernel_calls: Sequence[tuple]) -> Dict[str, float]:
    """Objects refined, candidate rows tested and matches of the kernel calls.

    Candidates are the rows inside each object's HTM window, located the
    way the kernel locates them; counted after the run, outside any span.
    """
    refined = candidates = matches = 0
    for block, entries, found in kernel_calls:
        ids = block.htm_ids
        matches += found
        for entry in entries:
            for obj in entry.objects:
                if obj.ra is None or obj.dec is None:
                    continue
                refined += 1
                low = bisect_left(ids, obj.htm_range.low)
                high = bisect_right(ids, obj.htm_range.high)
                candidates += max(0, high - low)
    return {"refined": refined, "candidates": candidates, "matches": matches}


def _counter(snapshot: dict, name: str) -> float:
    entry = (snapshot or {}).get("metrics", {}).get(name)
    return float(entry["value"]) if entry else 0.0


def layer_self_times(spans: List[list]) -> Dict[str, float]:
    """Self time per layer over the given spans."""
    by_layer: Dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        layer = SPAN_LAYER[span[NAME]]
        by_layer[layer] = by_layer.get(layer, 0.0) + own
    return by_layer


def round_metrics(
    spans: List[list], counts: Counts, results: Sequence, page_bytes: float
) -> Dict[str, float]:
    """The per-layer metrics of one traced round (``trace.overhead_s`` and
    the ingest metrics are filled in by the caller).

    *page_bytes* is the store's mean bytes per bucket page (0 in memory).
    """
    own = self_times(spans)
    self_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    total_s: Dict[str, float] = {}
    window_wait = 0.0
    first_reply = 0.0
    last_spawn_end = None
    for index, (span, span_self) in enumerate(zip(spans, own)):
        name = span[NAME]
        self_s[name] = self_s.get(name, 0.0) + span_self
        total_s[name] = total_s.get(name, 0.0) + span[END] - span[START]
        calls[name] = calls.get(name, 0) + 1
        if name == "parallel.spawn":
            last_spawn_end = span[END]
        elif name == "parallel.recv":
            if last_spawn_end is not None:
                first_reply += span[END] - last_spawn_end
                last_spawn_end = None
            parent = span[PARENT]
            if parent >= 0 and spans[parent][NAME] == "parallel.window":
                window_wait += span_self

    snapshots = [r.telemetry or {} for r in results]
    hits = sum(_counter(s, "cache.hits") for s in snapshots)
    misses = sum(_counter(s, "cache.misses") for s in snapshots)
    page_hits = sum(_counter(s, "disk.page_cache_hits") for s in snapshots)
    page_reads = sum(_counter(s, "disk.page_reads") for s in snapshots)
    kernel = kernel_work(counts.kernel_calls)
    decisions = calls.get("scheduler.next_work", 0)
    serving = [r.serving for r in results if r.serving is not None]

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    return {
        "scheduler.decisions": float(decisions),
        "scheduler.decide_s": self_s.get("scheduler.next_work", 0.0),
        "scheduler.us_per_decision": 1e6 * ratio(
            total_s.get("scheduler.next_work", 0.0), decisions
        ),
        "manager.pending_state_s": self_s.get("manager.pending_state", 0.0),
        "manager.pending_buckets_per_decision": ratio(counts.pending_buckets, decisions),
        "manager.add_query_s": self_s.get("manager.add_query", 0.0),
        "manager.drain_s": self_s.get("manager.drain_bucket", 0.0),
        "preprocess.assign_s": self_s.get("preprocess.assign", 0.0),
        "preprocess.objects_assigned": float(counts.objects_assigned),
        "cache.loads": hits + misses,
        "cache.hit_rate": ratio(hits, hits + misses),
        "cache.load_s": self_s.get("cache.load", 0.0),
        "join.evaluate_self_s": self_s.get("join.evaluate", 0.0),
        "join.scan_services": float(
            sum(r.strategy_counts.get("sequential_scan", 0) for r in results)
        ),
        "join.estimated_services": float(
            sum(r.strategy_counts.get("indexed_join", 0) for r in results)
        ),
        "kernel.crossmatch_s": self_s.get("kernel.crossmatch_block", 0.0),
        "kernel.objects_refined": float(kernel["refined"]),
        "kernel.candidates": float(kernel["candidates"]),
        "kernel.matches": float(kernel["matches"]),
        "kernel.match_ratio": ratio(kernel["matches"], kernel["candidates"]),
        "store.reads": float(sum(r.bucket_reads for r in results)),
        "store.read_s": self_s.get("store.read_bucket", 0.0),
        "store.page_cache_hit_rate": ratio(page_hits, page_hits + page_reads),
        "store.decoded_mb": page_reads * page_bytes / 1e6,
        "store.worker_real_read_s": sum(r.real_read_s for r in results),
        "service.admit_s": self_s.get("service.admit", 0.0),
        "service.admitted": float(sum(s.admitted for s in serving)),
        "service.deferrals": float(sum(s.deferrals for s in serving)),
        "service.rejected": float(sum(s.rejected for s in serving)),
        "service.ingest_records_s": self_s.get("service.ingest_records", 0.0),
        "service.chunks": float(sum(s.chunks for s in serving)),
        "parallel.spawn_s": self_s.get("parallel.spawn", 0.0),
        "parallel.first_reply_s": first_reply,
        "parallel.fan_out_s": self_s.get("parallel.fan_out", 0.0),
        "parallel.window_round_trips": float(calls.get("parallel.window", 0)),
        "parallel.window_wait_s": window_wait,
        "parallel.steal_rounds": float(calls.get("parallel.steal_round", 0)),
        "parallel.steals": float(sum(r.steals for r in results)),
        "parallel.steal_s": total_s.get("parallel.steal_round", 0.0),
        "parallel.merge_s": self_s.get("parallel.merge", 0.0),
        "telemetry.ledger_s": self_s.get("telemetry.ledger", 0.0),
        "telemetry.merge_s": self_s.get("telemetry.merge", 0.0),
        "sim.execute_s": total_s.get("sim.execute", 0.0),
        "sim.unattributed_s": self_s.get("sim.execute", 0.0),
    }
