"""Tests of the benchmark itself: span arithmetic, the crossmatch oracle, metric names."""

import json
import os

from repro.catalog.generator import SkyGenerator, SkyGeneratorConfig
from repro.core.join_evaluator import HybridJoinEvaluator
from repro.sim.runspec import RunSpec
from repro.sim.simulator import Simulator
from repro.storage.ingest import ingest_catalog
from repro.workload.query import CrossMatchObject, CrossMatchQuery

from lrbench import layers
from lrbench.checks import CheckLog, CrossmatchOracle, check_crossmatch, check_served
from lrbench.bench import END_TO_END
from lrbench.tracing import Patches, Tracer, self_times
from lrbench.workloads import WORKLOADS, error_circle_range, expected_footprints

HERE = os.path.dirname(os.path.abspath(__file__))


class _Calls:
    def outer(self, clock):
        clock.advance(1.0)
        self.inner(clock)
        clock.advance(2.0)
        self.inner(clock)
        return "done"

    def inner(self, clock):
        clock.advance(0.5)


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_subtracts_direct_children_only():
    clock = _Clock()
    tracer = Tracer(clock=clock)
    tracer.wrap(_Calls, "outer", "outer", tag=lambda _self, _clock: "batch-7")
    tracer.wrap(_Calls, "inner", "inner")
    try:
        assert _Calls().outer(clock) == "done"
    finally:
        tracer.restore()
    names = [span[0] for span in tracer.spans]
    assert names == ["outer", "inner", "inner"]
    assert [span[3] for span in tracer.spans] == [-1, 0, 0]
    assert tracer.spans[0][4] == "batch-7"
    assert self_times(tracer.spans) == [3.0, 0.5, 0.5]
    # Restored: further calls record nothing.
    _Calls().outer(clock)
    assert len(tracer.spans) == 3


def test_nested_three_levels_sum_to_the_root():
    spans = [
        ["root", 0.0, 10.0, -1, None],
        ["mid", 1.0, 7.0, 0, None],
        ["leaf", 2.0, 3.0, 1, None],
        ["leaf", 4.0, 6.5, 1, None],
        ["mid", 8.0, 9.0, 0, None],
    ]
    own = self_times(spans)
    assert own == [3.0, 2.5, 1.0, 2.5, 1.0]
    assert sum(own) == spans[0][2] - spans[0][1]


def test_layer_self_times_group_spans_by_layer():
    spans = [
        ["sim.execute", 0.0, 10.0, -1, None],
        ["scheduler.next_work", 1.0, 5.0, 0, None],
        ["manager.pending_state", 2.0, 4.0, 1, None],
        ["manager.drain_bucket", 6.0, 7.0, 0, 3],
    ]
    assert layers.layer_self_times(spans) == {
        "sim": 5.0, "core.scheduler": 2.0, "core.workload_manager": 3.0,
    }


def test_patches_restore_inherited_methods():
    class Base:
        def hello(self):
            return "base"

    class Child(Base):
        pass

    with Patches() as patches:
        patches.replace(Child, "hello", lambda f: lambda self: "patched " + f(self))
        assert Child().hello() == "patched base"
    assert "hello" not in Child.__dict__
    assert Child().hello() == "base"


def _tiny_crossmatch(tmp_path):
    generator = SkyGenerator(SkyGeneratorConfig(object_count=400, cluster_count=3, seed=11))
    sky = generator.generate("sdss")
    path = os.path.join(tmp_path, "tiny.lrbs")
    ingest_catalog(path, sky, objects_per_bucket=100)
    companion = generator.derive_companion(sky, "twomass", extra_fraction=0.0)
    objects = [
        CrossMatchObject(
            object_id=row.object_id,
            htm_range=error_circle_range(row.ra, row.dec, 3.0, generator.mesh),
            ra=row.ra,
            dec=row.dec,
            match_radius_arcsec=3.0,
        )
        for row in companion.rows[:120]
    ]
    queries = [
        CrossMatchQuery(query_id=i, objects=tuple(objects[i * 20:i * 20 + 40]),
                        arrival_time_s=0.01 * i)
        for i in range(5)
    ]
    return sky, Simulator.from_store(path), queries


def _captured_run(simulator, queries):
    services = []

    def capture(function):
        def evaluate(evaluator, spec, entries, *args, **kwargs):
            join = function(evaluator, spec, entries, *args, **kwargs)
            services.append((spec.index, entries, join))
            return join
        return evaluate

    with Patches() as patches:
        patches.replace(HybridJoinEvaluator, "evaluate", capture)
        result = simulator.execute(queries, RunSpec(policy="liferaft", alpha=0.5))
    return result, services


def test_crossmatch_oracle_agrees_with_the_scan_on_a_tiny_catalog(tmp_path):
    sky, simulator, queries = _tiny_crossmatch(tmp_path)
    result, services = _captured_run(simulator, queries)
    ranges = [(s.htm_range.low, s.htm_range.high) for s in simulator.layout]
    log = CheckLog()
    counted = check_crossmatch(log, 0, services, CrossmatchOracle(sky), ranges)
    assert log.ok, log.messages
    assert counted["scan_services"] > 0
    assert counted["pairs_checked"] > 0
    footprints = expected_footprints(queries, ranges)
    check_served(log, 0, result, set(footprints), footprints)
    assert log.ok, log.messages


def test_crossmatch_oracle_catches_a_dropped_pair(tmp_path):
    sky, simulator, queries = _tiny_crossmatch(tmp_path)
    _result, services = _captured_run(simulator, queries)
    ranges = [(s.htm_range.low, s.htm_range.high) for s in simulator.layout]
    index = next(i for i, (_b, _e, join) in enumerate(services) if join.matches)
    join = services[index][2]
    join.matches = join.matches[1:]
    log = CheckLog()
    check_crossmatch(log, 0, services, CrossmatchOracle(sky), ranges)
    assert not log.ok
    assert log.failed_queries


def test_metric_and_workload_names_match_benchmark_json():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    assert {m["name"]: (m["unit"], m["better"]) for m in declared["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in declared["per_layer"]} == (
        layers.PER_LAYER
    )
    assert {w["name"]: w["why"] for w in declared["workloads"]} == {
        name: workload.why for name, workload in WORKLOADS.items()
    }
    with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as handle:
        layer_map = json.load(handle)
    metric_names = set(END_TO_END) | set(layers.PER_LAYER)
    for layer in layer_map["layers"].values():
        assert set(layer["metrics"]) <= metric_names
        assert set(layer["moves"]) <= set(END_TO_END)
        assert set(layer["shows_on"]) | set(layer["bypass"]) <= set(WORKLOADS)
    assert set(layer_map["workloads"]) == set(WORKLOADS)
    assert set(layers.SPAN_LAYER.values()) <= set(layer_map["layers"])
