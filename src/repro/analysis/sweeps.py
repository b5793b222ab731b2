"""Parameter sweeps: one knob varied, everything else held.

The paper's premise lives on two axes (device latency vs context-switch
cost) and its motivation on a third (page size).  These helpers run a
batch across one axis for a set of policies and return structured rows,
shared by the ablation benches, the CLI ``crossover`` command, and the
examples.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Hashable, Mapping, Optional, Sequence

from repro.analysis.runner import Cube, Grid, run_grid
from repro.common.config import MachineConfig
from repro.common.errors import ConfigError
from repro.common.units import KIB, US
from repro.sim.metrics import SimulationResult


@dataclass(frozen=True)
class SweepRow:
    """One sweep point: the knob value and the per-policy results."""

    value: float
    results: Mapping[str, SimulationResult]

    def winner_by_makespan(self) -> str:
        """Policy with the smallest makespan at this point."""
        return min(self.results, key=lambda name: self.results[name].makespan_ns)

    def winner_by_idle(self) -> str:
        """Policy with the least CPU idle time at this point."""
        return min(self.results, key=lambda name: self.results[name].total_idle_ns)


def sweep(
    transform: Callable[[MachineConfig, float], MachineConfig],
    values: Sequence[float],
    *,
    policies: Sequence[str] = ("Sync", "Async"),
    batch: str = "1_Data_Intensive",
    seed: int = 1,
    scale: float = 0.5,
    base: Optional[MachineConfig] = None,
    workers: int = 1,
    cache=None,
    telemetry=None,
    progress=None,
    executor=None,
) -> list[SweepRow]:
    """Run *batch* under *policies* for every knob value.

    ``transform(config, value)`` returns the config for one sweep point.
    The sweep is one :class:`~repro.analysis.runner.Grid` whose points
    are the knob values, run by :func:`repro.analysis.runner.run_grid`:
    ``workers > 1`` fans the cells out across processes, *cache* (a
    :class:`~repro.analysis.runner.ResultCache` or a directory path)
    serves previously simulated cells from disk, and results are
    identical at any worker count.
    """
    base = base or MachineConfig()
    grid = Grid(
        points={value: transform(base, value) for value in values},
        batches=(batch,),
        policies=policies,
        seeds=(seed,),
        scale=scale,
    )
    cube = run_grid(
        grid, workers=workers, cache=cache, telemetry=telemetry,
        progress=progress, executor=executor,
    )
    return [_sweep_row(cube, value, value, batch, policies) for value in values]


def _sweep_row(
    cube: Cube, label: Hashable, value: float, batch: str, policies: Sequence[str]
) -> SweepRow:
    """The sweep row of one single-seed grid point."""
    return SweepRow(
        value=value,
        results={policy: cube[label, batch, policy][0] for policy in policies},
    )


def _with_device_latency(config: MachineConfig, latency_us: float) -> MachineConfig:
    return dataclasses.replace(
        config,
        device=dataclasses.replace(
            config.device, access_latency_ns=round(latency_us * US)
        ),
    )


def _with_switch_cost(config: MachineConfig, cost_us: float) -> MachineConfig:
    return dataclasses.replace(
        config,
        scheduler=dataclasses.replace(
            config.scheduler, context_switch_ns=round(cost_us * US)
        ),
    )


def _with_dram_frames(config: MachineConfig, frames: float) -> MachineConfig:
    return dataclasses.replace(
        config,
        memory=dataclasses.replace(config.memory, dram_frames=int(frames)),
    )


def _with_page_size(config: MachineConfig, page_kib: float) -> MachineConfig:
    page_size = round(page_kib * KIB)
    frames = max(16, config.memory.dram_bytes // page_size)
    return dataclasses.replace(
        config,
        memory=dataclasses.replace(
            config.memory, page_size=page_size, dram_frames=frames
        ),
    )


def sweep_device_latency(latencies_us: Sequence[float], **kwargs) -> list[SweepRow]:
    """Sweep the ULL device's access latency (microseconds)."""
    return sweep(_with_device_latency, latencies_us, **kwargs)


def sweep_context_switch_cost(costs_us: Sequence[float], **kwargs) -> list[SweepRow]:
    """Sweep the context-switch cost (microseconds)."""
    return sweep(_with_switch_cost, costs_us, **kwargs)


def sweep_page_size(pages_kib: Sequence[float], **kwargs) -> list[SweepRow]:
    """Sweep the page size (KiB), holding DRAM bytes constant."""
    return sweep(_with_page_size, pages_kib, **kwargs)


def _with_core_count(config: MachineConfig, count: float) -> MachineConfig:
    from repro.common.config import with_cores

    return with_cores(config, int(count))


def sweep_dram_frames(frames: Sequence[int], **kwargs) -> list[SweepRow]:
    """Sweep the DRAM frame count (memory pressure axis)."""
    return sweep(_with_dram_frames, frames, **kwargs)


def sweep_cores(counts: Sequence[int], **kwargs) -> list[SweepRow]:
    """Sweep the SMP core count.

    Note ``counts=[1]`` produces a config whose explicit default
    ``cores`` block hashes identically to no block at all
    (:meth:`~repro.common.config.MachineConfig.to_dict` omits it), so a
    core-scaling sweep shares its single-core cells with every
    historical sweep in the cache.
    """
    return sweep(_with_core_count, counts, **kwargs)


def find_crossover(rows: Sequence[SweepRow], a: str, b: str) -> Optional[float]:
    """First sweep value where the makespan winner flips from *a* to *b*.

    Returns ``None`` if no flip occurs over the swept range.
    """
    previous_a_wins: Optional[bool] = None
    for row in rows:
        if a not in row.results or b not in row.results:
            raise ConfigError(f"sweep rows lack policies {a!r}/{b!r}")
        a_wins = row.results[a].makespan_ns < row.results[b].makespan_ns
        if previous_a_wins is True and not a_wins:
            return row.value
        previous_a_wins = a_wins
    return None
