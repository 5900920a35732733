"""Run one workload: generate, set up, check, measure, print the result.

With ``--trace 0`` the run measures the end-to-end metrics with nothing
wrapped; with ``--trace 1`` it alternates untraced and traced rounds and
reports the per-layer metrics, writing the last traced round's spans to
``.perfbench_out/`` in the checkout.  End-to-end times are rescaled to a
reference CPU speed (see :data:`REFERENCE_PROBE_S`); per-layer times are not.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from multiprocessing import resource_tracker
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.join_evaluator import HybridJoinEvaluator
from repro.service.frontend import ServingFrontEnd

from lrbench import layers
from lrbench.checks import CheckLog, CrossmatchOracle, check_crossmatch, check_served
from lrbench.tracing import Patches, Tracer
from lrbench.workloads import WORKLOADS, SetUp, Workload, expected_footprints

#: End-to-end metrics: name -> (unit, better).
END_TO_END = {
    "queries_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "virtual_throughput_qps": ("1/s", "higher"),
    "virtual_response_p50_s": ("s", "lower"),
    "virtual_response_p95_s": ("s", "lower"),
    "virtual_first_result_p50_s": ("s", "lower"),
}

#: Seconds the speed probe takes at its fastest on a shared 2-vCPU Xeon KVM
#: guest.  Wall times are rescaled by ``REFERENCE_PROBE_S / probe time``
#: measured right before and after them: on that guest the CPU speed drifts
#: by up to a quarter over minutes (other tenants), and one 0.5 s execute
#: measured 0.43-1.16 s within four minutes.  Over 20 s windows the
#: rescaled times spread by 5% where the raw ones spread by 17%.
REFERENCE_PROBE_S = 0.005

_PROBE_STATE = [
    (n, age)
    for n, age in zip(range(1, 4000, 2), (i * 48.7 % 1e5 for i in range(2000)))
]


def speed_probe() -> float:
    """Seconds a fixed interpreted loop (a scheduler-like scan) takes now."""
    started = time.perf_counter()
    best = -1.0
    for _ in range(16):
        for n, age in _PROBE_STATE:
            score = 0.5 * n / (1200.0 + 0.13 * n) + 0.5 * math.sqrt(age)
            if score > best:
                best = score
    return time.perf_counter() - started


IMPORT_PROBE = (
    "import time; started = time.perf_counter(); import repro; "
    "print(time.perf_counter() - started)"
)


def timed(function: Callable) -> Tuple[object, float]:
    started = time.perf_counter()
    value = function()
    return value, time.perf_counter() - started


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def import_seconds(src: str) -> float:
    """``import repro`` timed inside a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    completed = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return float(completed.stdout.split()[-1])


class Episode:
    """One generated trace and what its executes must reproduce."""

    def __init__(self, index: int, queries: list) -> None:
        self.index = index
        self.queries = queries
        self.digest: Optional[str] = None
        self.completed = 0
        self.rejected = 0
        #: From the checked execute: (virtual makespan s, response s per
        #: query, first-result s per query).  Results are not kept: they
        #: would add the benchmark's own memory to ``peak_rss_mb``.
        self.virtual: Optional[Tuple[float, List[float], List[float]]] = None


class Run:
    def __init__(self, workload: Workload, root: str) -> None:
        self.workload = workload
        self.root = root
        self.src = os.path.join(root, "src")
        self.log = CheckLog()
        self.offered = 0
        self.failed_executes_queries = 0

    # -- executing ------------------------------------------------------ #

    def execute(self, setup: SetUp, episode: Episode) -> Tuple[Optional[object], float]:
        """One timed ``Simulator.execute``; failures are counted, not raised."""
        gc.collect()
        self.offered += len(episode.queries)
        started = time.perf_counter()
        try:
            result = setup.simulator.execute(episode.queries, self.workload.spec)
        except Exception as error:  # a failing execute is a measured outcome
            elapsed = time.perf_counter() - started
            self.log.fail(f"execute raised {error!r}", episode.index)
            self.failed_executes_queries += len(episode.queries)
            return None, elapsed
        elapsed = time.perf_counter() - started
        if episode.digest is not None and result.result_digest != episode.digest:
            self.log.fail("result_digest differs between executes", episode.index)
            self.failed_executes_queries += len(episode.queries)
        return result, elapsed

    def check_round(self, setup: SetUp, episodes: List[Episode], catalog) -> Dict[str, int]:
        """Execute every episode once with its outputs captured, and check them."""
        bucket_ranges = [(s.htm_range.low, s.htm_range.high) for s in setup.simulator.layout]
        oracle = CrossmatchOracle(catalog) if catalog is not None else None
        counted = {"scan_services": 0, "estimated_services": 0, "pairs_checked": 0}
        for episode in episodes:
            services: List[tuple] = []
            intakes: list = []

            def capture_evaluate(function):
                def evaluate(evaluator, spec, entries, *args, **kwargs):
                    join = function(evaluator, spec, entries, *args, **kwargs)
                    services.append((spec.index, entries, join))
                    return join
                return evaluate

            def capture_admit(function):
                def admit(frontend, queries):
                    outcome = function(frontend, queries)
                    intakes.append(outcome)
                    return outcome
                return admit

            with Patches() as patches:
                patches.replace(HybridJoinEvaluator, "evaluate", capture_evaluate)
                patches.replace(ServingFrontEnd, "admit", capture_admit)
                result, _elapsed = self.execute(setup, episode)
            if result is None:
                continue
            footprints = expected_footprints(episode.queries, bucket_ranges)
            if intakes:
                admitted = {a.query.query_id for a in intakes[0].admitted}
            else:
                admitted = set(footprints)
            check_served(self.log, episode.index, result, admitted, footprints)
            for key, value in check_crossmatch(
                self.log, episode.index, services, oracle, bucket_ranges
            ).items():
                counted[key] += value
            episode.digest = result.result_digest
            episode.completed = result.completed_queries
            episode.rejected = result.serving.rejected if result.serving is not None else 0
            episode.virtual = virtual_times(result)
        return counted

    # -- set-up ----------------------------------------------------------- #

    def set_up(self, inputs, repetitions: int):
        """Set the program up *repetitions* times.

        Returns the last set-up, each repetition's time rescaled to the
        reference speed, the unscaled times, and the median of each part.
        """
        workdir = os.path.join(self.root, ".perfbench_work")
        os.makedirs(workdir, exist_ok=True)
        import_seconds(self.src)  # compile caches; not measured
        scaled: List[float] = []
        raw: List[float] = []
        parts: Dict[str, List[float]] = {"import_s": [], "ingest_s": [], "construct_s": []}
        setup = None
        for _ in range(repetitions):
            probe = speed_probe()
            import_s = import_seconds(self.src)
            setup = self.workload.set_up(inputs, workdir, timed)
            probe = (probe + speed_probe()) / 2.0
            raw.append(import_s + setup.ingest_s + setup.construct_s)
            scaled.append(raw[-1] * REFERENCE_PROBE_S / probe)
            parts["import_s"].append(import_s)
            parts["ingest_s"].append(setup.ingest_s)
            parts["construct_s"].append(setup.construct_s)
        return setup, scaled, raw, {k: statistics.median(v) for k, v in parts.items()}

    # -- reporting -------------------------------------------------------- #

    def virtual_metrics(self, episodes: List[Episode]) -> Dict[str, float]:
        """Pooled over all episodes, from the checked executes (digest-identical to the rest)."""
        checked = [e for e in episodes if e.virtual is not None]
        makespans = [t for e in checked for t in e.virtual[1]]
        first = [t for e in checked for t in e.virtual[2]]
        completed = sum(e.completed for e in checked)
        span_s = sum(e.virtual[0] for e in checked)
        if not makespans:
            return {}
        return {
            "virtual_throughput_qps": completed / span_s if span_s else 0.0,
            "virtual_response_p50_s": percentile(makespans, 0.50),
            "virtual_response_p95_s": percentile(makespans, 0.95),
            "virtual_first_result_p50_s": percentile(first, 0.50),
        }

    def counts_line(self, episodes: List[Episode]) -> str:
        completed = sum(e.completed for e in episodes)
        rejected = sum(e.rejected for e in episodes)
        return (
            f"per round: offered {sum(len(e.queries) for e in episodes)} "
            f"completed {completed} rejected {rejected} "
            f"failed {len(self.log.failed_queries)}"
        )

    def failed(self) -> int:
        return len(self.log.failed_queries) + self.failed_executes_queries


def virtual_times(result) -> Tuple[float, List[float], List[float]]:
    """Virtual makespan, and each query's response and first-result time, in s."""
    makespans: List[float] = []
    first: List[float] = []
    for entry in result.ledger["queries"]:
        makespans.append(entry["makespan_ms"] / 1000.0)
        # The first result is delivered when the first bucket service ends.
        first_result_ms = entry["first_service_ms"] + entry["buckets"][0]["service_ms"]
        first.append((first_result_ms - entry["arrival_ms"]) / 1000.0)
    return result.makespan_s, makespans, first


def peak_rss_mb(workers: int) -> float:
    """Peak resident memory of this process plus, for process runs, its shard workers.

    Children's peak is the largest reaped child's; the shard workers are
    the largest children this process starts.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * children) / 1024.0


def run_rounds(run: Run, setup: SetUp, episodes: List[Episode], seconds: float,
               min_rounds: int = 1,
               before: Callable[[], None] = lambda: None,
               after: Callable[[list], None] = lambda results: None) -> List[List[tuple]]:
    """Execute rounds (every episode once) for about *seconds*.

    Returns per episode ``(wall seconds, speed probe seconds)`` per round.
    """
    walls: List[List[float]] = [[] for _ in episodes]
    started = time.perf_counter()
    rounds = 0
    while True:
        before()
        results = []
        for episode in episodes:
            probe = speed_probe()
            result, elapsed = run.execute(setup, episode)
            probe = (probe + speed_probe()) / 2.0
            walls[episode.index].append((elapsed, probe))
            results.append(result)
        after([r for r in results if r is not None])
        rounds += 1
        spent = time.perf_counter() - started
        # Stop at the round boundary nearest to *seconds*.
        if rounds >= min_rounds and spent + spent / rounds / 2.0 >= seconds:
            return walls


def measure(run: Run, args) -> Dict[str, float]:
    workload = run.workload
    inputs, generate_s = timed(lambda: workload.generate(args.seed))
    print(f"{workload.name} seed {args.seed}: inputs generated in {generate_s:.2f} s "
          f"(diagnostic, not timed) {inputs.notes}")
    episodes = [Episode(i, queries) for i, queries in enumerate(inputs.episodes)]
    setup, setup_totals, raw_setup, parts = run.set_up(
        inputs, 1 if args.trace else workload.setups
    )
    print("set-up medians: " + ", ".join(f"{k} {v:.4f}" for k, v in parts.items()))
    counted = run.check_round(setup, episodes, inputs.catalog)
    print(f"checks: {counted}; {'ok' if run.log.ok else 'FAILED'}")
    for message in run.log.messages[:20]:
        print(f"  check failed: {message}")
    print(run.counts_line(episodes))
    # Timed rounds repeat the first episodes only: the rest are there to
    # pool the virtual metrics over more traces.
    timed_episodes = episodes[: workload.timed_episodes]
    if not args.trace:
        walls = run_rounds(run, setup, timed_episodes, args.seconds)
        rounds = len(walls[0])
        completed = rounds * sum(e.completed for e in timed_episodes)
        # Work over the whole timed window, each execute's wall time rescaled
        # to the reference speed by the probes around it.
        timed_s = sum(elapsed for w in walls for elapsed, _probe in w)
        scaled_s = sum(
            elapsed * REFERENCE_PROBE_S / probe for w in walls for elapsed, probe in w
        )
        print(f"diagnostic: unscaled queries_per_s {completed / timed_s:.6g}, "
              f"unscaled setup_s {statistics.median(raw_setup):.6g}")
        metrics = {
            "queries_per_s": completed / scaled_s,
            "setup_s": statistics.median(setup_totals),
            "peak_rss_mb": peak_rss_mb(
                workload.spec.workers if workload.spec.backend == "process" else 0
            ),
        }
        metrics.update(run.virtual_metrics(episodes))
        print(f"timed rounds: {rounds} in {timed_s:.1f} s; per-episode median wall s: "
              + " ".join(f"{statistics.median(e for e, _p in w):.3f}" for w in walls))
        return metrics
    return trace(run, setup, timed_episodes, args)


def trace(run: Run, setup: SetUp, episodes: List[Episode], args) -> Dict[str, float]:
    tracer = Tracer()
    counts = layers.Counts()
    traced_rounds: List[Dict[str, float]] = []
    walls = {"untraced": [], "traced": []}
    mode = {"traced": False}
    page_bytes = setup.store_bytes / len(setup.simulator.layout) if setup.store_bytes else 0.0

    def before():
        mode["traced"] = not mode["traced"]
        if mode["traced"]:
            tracer.reset()
            counts.reset()
            layers.install(tracer, counts)

    def after(results):
        if mode["traced"]:
            tracer.restore()
            traced_rounds.append(layers.round_metrics(tracer.spans, counts, results, page_bytes))

    per_episode = run_rounds(run, setup, episodes, args.seconds, 2, before, after)
    for round_index in range(len(per_episode[0])):
        key = "untraced" if round_index % 2 else "traced"
        walls[key].append(sum(w[round_index][0] for w in per_episode))
    metrics = {
        name: statistics.median(m[name] for m in traced_rounds)
        for name in traced_rounds[0]
    }
    metrics["trace.overhead_s"] = statistics.median(walls["traced"]) - statistics.median(
        walls["untraced"]
    )
    metrics["store.ingest_s"] = setup.ingest_s
    metrics["store.bytes_written_per_row"] = (
        setup.store_bytes / setup.store_rows if setup.store_rows else 0.0
    )
    by_layer = layers.layer_self_times(tracer.spans)
    total = sum(by_layer.values()) or 1.0
    print("self time by layer, last traced round: " + ", ".join(
        f"{layer} {seconds:.3f} s ({100 * seconds / total:.0f}%)"
        for layer, seconds in sorted(by_layer.items(), key=lambda item: -item[1])
    ))
    out = os.path.join(run.root, ".perfbench_out")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"{run.workload.name}-seed{args.seed}-spans.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"fields": ["name", "start", "end", "parent", "tag"],
                   "spans": tracer.spans, "layer_self_s": by_layer, "metrics": metrics}, handle)
    print(f"spans of the last traced round: {path}")
    return metrics


def parse(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_pids() -> List[int]:
    """This process's child processes, from ``/proc`` (Linux)."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                stat = handle.read()
        except OSError:  # the process has ended
            continue
        # After the parenthesised command name: state, then the parent's pid.
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry))
    return pids


def stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    The program joins its shard workers and ingest pools, but an exit in
    the middle of ``Process.start`` (on SIGTERM) leaves a half-spawned
    worker that no ``multiprocessing`` object knows of.  The ``spawn``
    start method also starts multiprocessing's resource tracker, which
    outlives this process by seconds unless stopped; it ends once no other
    child holds its pipe, so it is stopped last.
    """
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    tracker = resource_tracker._resource_tracker._pid
    for pid in child_pids():
        if pid != tracker:
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
    resource_tracker._resource_tracker._stop()


def on_signal(signum, _frame):
    raise SystemExit(128 + signum)


def main(argv: Optional[Sequence[str]], root: str) -> int:
    args = parse(argv)
    run = Run(WORKLOADS[args.workload], root)
    signal.signal(signal.SIGTERM, on_signal)
    try:
        metrics = measure(run, args)
    finally:
        stop_children()
        shutil.rmtree(os.path.join(root, ".perfbench_work"), ignore_errors=True)
    units = END_TO_END if not args.trace else layers.PER_LAYER
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name][0]}")
    print(json.dumps({
        "correct": run.log.ok,
        "attempted": run.offered,
        "failed": run.failed(),
        "metrics": {name: {"value": value, "unit": units[name][0]}
                    for name, value in metrics.items()},
    }))
    return 0
