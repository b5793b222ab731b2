"""The workloads' traced runs: same engine, conserved time, full metric set."""

import dataclasses
import json
from pathlib import Path

import pytest

from layers import LAYER_TARGETS, PER_LAYER
from tracer import LayerTracer
from workloads import (
    E2E_METRICS,
    WORKLOADS,
    CellWorkload,
    Checker,
    build,
    cell_seeds,
    engine_of,
    synthesize,
)

CELL_WORKLOADS = [name for name, w in WORKLOADS.items() if isinstance(w, CellWorkload)]


def test_cell_seeds_cover_the_pinned_seed_and_never_overlap():
    assert cell_seeds(1, 3) == [1, 2, 3]
    assert cell_seeds(3, 1) == [3]
    assert not set(cell_seeds(4, 2)) & set(cell_seeds(5, 2))


@pytest.mark.parametrize("name", CELL_WORKLOADS)
def test_traced_run_uses_the_same_engine_as_the_untimed_run(name):
    workload = WORKLOADS[name]
    cell = workload.cells(workload.pinned_seed)[0]
    untraced = engine_of(build(cell, synthesize(cell)))
    tracer = LayerTracer()
    tracer.install(LAYER_TARGETS)
    try:
        traced = engine_of(build(cell, synthesize(cell)))
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert untraced == ("fast" if name == "hot_loop" else "reference")


def test_layer_self_times_cover_the_traced_wall_time(tmp_path):
    small = dataclasses.replace(WORKLOADS["its_cell"], scale=0.05, cells_per_run=1)
    checker = Checker(None)
    metrics, _ = small.trace(1, 0.0, tmp_path, checker)
    assert checker.failed == 0
    assert set(metrics) == {name for name, _ in PER_LAYER}
    assert metrics["bench.attributed_frac"] == pytest.approx(1.0, abs=0.05)
    assert metrics["cpu.runahead.episodes"] > 0
    assert metrics["bench.trace_overhead"] > 1.0


def test_catalogue_matches_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        (name, unit, better) for name, unit, better, _ in E2E_METRICS
    ]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_pinned_digests_cover_every_cell_of_every_workload():
    pinned = json.loads((Path(__file__).resolve().parents[1] / "pinned.json").read_text())
    assert set(pinned) == set(WORKLOADS)
    for name, workload in WORKLOADS.items():
        cells = workload.cells(workload.pinned_seed)
        assert pinned[name]["seed"] == workload.pinned_seed
        assert set(pinned[name]["digests"]) == {cell.describe() for cell in cells}
    assert pinned["hot_loop"]["reference_engine_matches"] is True
