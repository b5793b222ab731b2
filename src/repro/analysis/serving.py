"""Latency-vs-offered-load analysis rows for the serving layer.

The serving analogue of :func:`repro.analysis.experiments.run_core_scaling`:
sweep (policy x offered rate) as one :class:`~repro.analysis.runner.Grid`
whose points are rates — every point's config carries an enabled
:class:`~repro.common.config.ServingConfig`, so results are
content-addressed, cacheable, and bit-identical at any worker count —
and distil each result's :class:`~repro.serving.request.ServingSummary`
into one table row.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from repro.analysis.runner import Grid, run_grid
from repro.common.config import MachineConfig, ServingConfig
from repro.common.errors import ConfigError
from repro.sim.metrics import SimulationResult


@dataclass(frozen=True)
class ServingRow:
    """One (policy, offered rate) point of the latency-vs-load story."""

    policy: str
    rate_per_s: float
    arrivals: int
    completed: int
    dropped: int
    deferrals: int
    demoted: int
    p50_ns: Optional[int]
    p95_ns: Optional[int]
    p99_ns: Optional[int]
    mean_ns: Optional[float]
    attainment: float
    slo_met: bool
    slo_violations: int


def row_from_result(result: SimulationResult) -> ServingRow:
    """Distil one open-loop result into its table row."""
    summary = result.serving
    if summary is None:
        raise ConfigError(
            f"result of {result.policy!r} carries no serving summary "
            "(was the cell run with serving enabled?)"
        )
    return ServingRow(
        policy=result.policy,
        rate_per_s=summary.rate_per_s,
        arrivals=summary.arrivals,
        completed=summary.completed,
        dropped=summary.dropped,
        deferrals=summary.deferrals,
        demoted=summary.demoted,
        p50_ns=summary.p50_ns,
        p95_ns=summary.p95_ns,
        p99_ns=summary.p99_ns,
        mean_ns=summary.mean_latency_ns,
        attainment=summary.attainment,
        slo_met=summary.slo_met,
        slo_violations=summary.slo_violations,
    )


def run_serving_sweep(
    config: Optional[MachineConfig] = None,
    *,
    rates: Sequence[float] = (500.0, 2000.0, 4000.0),
    policies: Sequence[str] = ("Async", "Sync", "Sync_Runahead", "Sync_Prefetch", "ITS", "Adaptive"),
    batch: str = "1_Data_Intensive",
    seed: int = 1,
    scale: float = 0.1,
    workers: int = 1,
    cache=None,
    telemetry=None,
    progress=None,
    executor=None,
) -> dict[float, list[ServingRow]]:
    """Latency percentiles and SLO attainment per (rate, policy).

    Returns ``rows[rate] -> [ServingRow per policy, in input order]``.
    The base *config*'s serving block supplies everything except the
    swept rate (arrival process, SLO, admission); a disabled block is
    promoted to the enabled default first, so
    ``run_serving_sweep(MachineConfig())`` works out of the box.

    Because arrival draws are rate-independent uniforms (see
    :mod:`repro.serving.arrivals`), sweeping the rate compresses one
    fixed schedule rather than sampling fresh traffic — the latency
    curve is load response, not replanned noise.
    """
    config = config or MachineConfig()
    serving = config.serving if config.serving.enabled else ServingConfig(enabled=True)
    grid = Grid(
        points={
            float(rate): dataclasses.replace(
                config, serving=dataclasses.replace(serving, rate_per_s=float(rate))
            )
            for rate in rates
        },
        batches=(batch,),
        policies=policies,
        seeds=(seed,),
        scale=scale,
    )
    cube = run_grid(
        grid, workers=workers, cache=cache, telemetry=telemetry,
        progress=progress, executor=executor,
    )
    return {
        rate: [row_from_result(cube[rate, batch, policy][0]) for policy in policies]
        for rate in grid.points
    }


def serving_headline(rows: Mapping[float, Sequence[ServingRow]]) -> Optional[ServingRow]:
    """The row that best survives the heaviest load: at the highest
    swept rate, the SLO-meeting policy with the lowest p99 (or, when
    none meets it, the highest attainment)."""
    if not rows:
        return None
    heaviest = rows[max(rows)]
    meeting = [r for r in heaviest if r.slo_met and r.p99_ns is not None]
    if meeting:
        return min(meeting, key=lambda r: r.p99_ns)
    return max(heaviest, key=lambda r: r.attainment)


__all__ = ["ServingRow", "row_from_result", "run_serving_sweep", "serving_headline"]
