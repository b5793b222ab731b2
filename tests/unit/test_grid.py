"""The declarative experiment grid.

A grid's result cube must equal simulating each of its cells on its
own, at any worker count, and an experiment built on a grid must make
exactly one ``run_cells`` call however many config points it spans.
"""

import dataclasses

import pytest

from repro.analysis import runner
from repro.analysis.experiments import run_batch_policy, run_tail_sensitivity
from repro.analysis.runner import Grid, SweepCell, run_grid
from repro.common.config import MachineConfig
from repro.common.errors import ConfigError

SCALE = 0.05
BATCHES = ("No_Data_Intensive", "1_Data_Intensive")
POLICIES = ("Sync", "Async")
SEEDS = (1, 2)


def slow_device(config, latency_ns=30_000):
    return dataclasses.replace(
        config,
        device=dataclasses.replace(config.device, access_latency_ns=latency_ns),
    )


def tiny_grid():
    return Grid(
        points={"fast": MachineConfig(), "slow": slow_device(MachineConfig())},
        batches=BATCHES,
        policies=POLICIES,
        seeds=SEEDS,
        scale=SCALE,
    )


@pytest.fixture(scope="module")
def independent():
    """Every cell of the tiny grid, simulated one at a time."""
    grid = tiny_grid()
    return {
        (label, batch, policy): [
            run_batch_policy(config, batch, policy, seed=seed, scale=SCALE)
            for seed in SEEDS
        ]
        for label, config in grid.points.items()
        for batch in BATCHES
        for policy in POLICIES
    }


class TestCube:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_matches_independent_runs(self, independent, workers):
        assert run_grid(tiny_grid(), workers=workers) == independent


class TestGridAxes:
    def test_cells_in_point_batch_seed_policy_order(self):
        grid = tiny_grid()
        cells = grid.cells()
        assert len(cells) == 2 * 2 * 2 * 2
        assert cells[0] == SweepCell(MachineConfig(), BATCHES[0], "Sync", 1, SCALE)
        assert cells[1] == SweepCell(MachineConfig(), BATCHES[0], "Async", 1, SCALE)
        assert cells[2] == SweepCell(MachineConfig(), BATCHES[0], "Sync", 2, SCALE)
        assert cells[4].batch == BATCHES[1]
        assert cells[8].config == grid.points["slow"]

    @pytest.mark.parametrize("axis", ["points", "batches", "policies", "seeds"])
    def test_empty_axis_rejected(self, axis):
        axes = dict(
            points={None: MachineConfig()},
            batches=BATCHES,
            policies=POLICIES,
            seeds=SEEDS,
        )
        axes[axis] = {} if axis == "points" else ()
        with pytest.raises(ConfigError, match=axis):
            Grid(**axes)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError, match="Magic"):
            Grid(points={None: MachineConfig()}, batches=BATCHES, policies=("Magic",))


class TestOnePassPerExperiment:
    def test_tail_sensitivity_is_one_run_cells_call(self, monkeypatch):
        calls = []
        run_cells = runner.run_cells

        def counting(cells, **kwargs):
            calls.append(len(cells))
            return run_cells(cells, **kwargs)

        monkeypatch.setattr(runner, "run_cells", counting)
        profiles = ("none", "tail_lognormal", "tail_bimodal")
        rows = run_tail_sensitivity(
            profiles=profiles,
            latencies_us=(3, 30),
            batch="No_Data_Intensive",
            scale=SCALE,
        )
        assert calls == [len(profiles) * 2 * 2]
        assert [row.profile for row in rows] == list(profiles)
        assert all([p.value for p in row.points] == [3, 30] for row in rows)
