"""The headline reproduction checks: the paper's figure *shapes*.

These tests assert orderings and rough factors, not absolute numbers
(our substrate is a scaled-down simulator).  They run the full grid once
at reduced scale, averaged over seeds, exactly as the benchmark harness
does.  Expected shapes (paper Section 4.2):

* Fig 4a — total idle time: ITS < Sync_Prefetch < Sync_Runahead <
  Sync < Async, in every batch.
* Fig 4b — major faults: ITS lowest (within noise of Sync_Prefetch);
  Async ≥ Sync; Async clearly worst on data-intensive batches.
* Fig 4c — cache misses: Sync_Runahead lowest, Async highest.
* Fig 5a — top-50% finish time: ITS best, Async worst.
* Fig 5b — bottom-50% finish time: ITS beats Async, Sync and
  Sync_Runahead (the Sync_Prefetch comparison is the one documented
  deviation, see EXPERIMENTS.md).
"""

import pytest

from repro import MachineConfig
from repro.analysis.experiments import run_figures, run_observation

# Full-scale traces: the Async-vs-Sync fault-thrash differential needs
# the reuse passes that scaled-down traces drop.
SEEDS = (1, 2)
SCALE = 1.0


@pytest.fixture(scope="module")
def figures():
    """Both figures, projected from one simulation of the grid."""
    return run_figures(MachineConfig(), seeds=SEEDS, scale=SCALE)


@pytest.fixture(scope="module")
def fig4(figures):
    return figures[0]


@pytest.fixture(scope="module")
def fig5(figures):
    return figures[1]


def series_by_batch(series):
    for i, batch in enumerate(series.x_labels):
        yield batch, {name: values[i] for name, values in series.series.items()}


class TestFigure4a:
    def test_its_always_best(self, fig4):
        for batch, values in series_by_batch(fig4.idle_time):
            assert values["ITS"] == min(values.values()), (batch, values)

    def test_async_always_worst(self, fig4):
        for batch, values in series_by_batch(fig4.idle_time):
            assert values["Async"] == max(values.values()), (batch, values)

    def test_full_paper_ordering(self, fig4):
        for batch, values in series_by_batch(fig4.idle_time):
            assert (
                values["ITS"]
                < values["Sync_Prefetch"]
                < values["Sync_Runahead"]
                < values["Sync"]
                < values["Async"]
            ), (batch, values)

    def test_savings_vs_async_substantial(self, fig4):
        # Paper: 61-66% saved vs Async.  We assert at least half.
        for batch, values in series_by_batch(fig4.idle_time):
            assert values["ITS"] < 0.5 * values["Async"], (batch, values)

    def test_savings_vs_sync_visible(self, fig4):
        # Paper: 17-43% saved vs Sync.  We assert at least 15%.
        for batch, values in series_by_batch(fig4.idle_time):
            assert values["ITS"] < 0.85 * values["Sync"], (batch, values)


class TestFigure4b:
    def test_its_fewest_faults_or_close_to_prefetch(self, fig4):
        for batch, values in series_by_batch(fig4.page_faults):
            floor = min(values.values())
            assert values["ITS"] <= 1.15 * floor, (batch, values)

    def test_async_comparable_or_worse_than_sync(self, fig4):
        # Paper Fig 4b: Async tracks Sync on low-intensity batches and
        # exceeds it once data-intensive processes thrash the pool.
        for batch, values in series_by_batch(fig4.page_faults):
            assert values["Async"] >= 0.9 * values["Sync"], (batch, values)

    def test_prefetchers_cut_faults_substantially(self, fig4):
        # Paper: >=61-65% fault reduction on the low-intensity batches.
        for batch, values in series_by_batch(fig4.page_faults):
            if batch in ("No_Data_Intensive", "1_Data_Intensive"):
                assert values["ITS"] < 0.5 * values["Sync"], (batch, values)

    def test_async_thrash_on_data_intensive(self, fig4):
        values = dict(series_by_batch(fig4.page_faults))["3_Data_Intensive"]
        assert values["Async"] > 1.1 * values["Sync"]


class TestFigure4c:
    def test_runahead_fewest_misses(self, fig4):
        for batch, values in series_by_batch(fig4.cache_misses):
            assert values["Sync_Runahead"] == min(values.values()), (batch, values)

    def test_async_most_misses(self, fig4):
        for batch, values in series_by_batch(fig4.cache_misses):
            assert values["Async"] == max(values.values()), (batch, values)

    def test_runahead_beats_its_on_misses_but_loses_on_idle(self, fig4):
        # The paper's key cross-metric observation.
        idle = dict(series_by_batch(fig4.idle_time))
        misses = dict(series_by_batch(fig4.cache_misses))
        for batch in idle:
            assert misses[batch]["Sync_Runahead"] < misses[batch]["ITS"]
            assert idle[batch]["Sync_Runahead"] > idle[batch]["ITS"]


class TestFigure5a:
    def test_its_best_top_half(self, fig5):
        for batch, values in series_by_batch(fig5.top_half):
            assert values["ITS"] == min(values.values()), (batch, values)

    def test_async_worst_top_half(self, fig5):
        for batch, values in series_by_batch(fig5.top_half):
            assert values["Async"] == max(values.values()), (batch, values)

    def test_substantial_savings_vs_async(self, fig5):
        # Paper: 65-75% saved vs Async.
        for batch, values in series_by_batch(fig5.top_half):
            assert values["ITS"] < 0.5 * values["Async"], (batch, values)


class TestFigure5b:
    def test_beats_async_sync_runahead(self, fig5):
        for batch, values in series_by_batch(fig5.bottom_half):
            assert values["ITS"] < values["Async"], (batch, values)
            assert values["ITS"] < 1.05 * values["Sync"], (batch, values)
            assert values["ITS"] < 1.05 * values["Sync_Runahead"], (batch, values)


class TestObservation:
    def test_idle_grows_with_process_count(self):
        data = run_observation(MachineConfig(), scale=0.4)
        assert data.normalized_idle == sorted(data.normalized_idle)
        assert data.normalized_idle[0] == 1.0
        assert data.normalized_idle[-1] > 1.5

    def test_idle_share_significant(self):
        # Paper: more than 22% of time is CPU idle under Sync.
        data = run_observation(MachineConfig(), scale=0.4)
        assert all(frac > 0.22 for frac in data.idle_fraction)
