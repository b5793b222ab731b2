"""The tiered-storage sweep: crossover-by-tier under each placement.

One sweep runs the adaptive policy on the same batch once per placement
policy, with the machine's storage replaced by the named tier presets.
Each run yields one row **per tier**: its traffic, migrations, and the
adaptive controller's decision mix on faults that tier backed.  The
decision mix *is* the paper's regime table read off device-by-device —
a fast (ULL-class) tier should converge to sync/steal servicing while a
slow (NVMe / far-memory) tier should converge to async demotion, and
the table shows exactly where each device lands.

Cells are cached like any sweep: the tier block serialises into
``MachineConfig.to_dict()``, so distinct tier sets, placements and
migration thresholds hash to distinct cache keys while tier-disabled
configs keep their historical ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from repro.analysis.runner import Grid, run_grid
from repro.common.config import (
    TIER_PLACEMENTS,
    MachineConfig,
    with_adaptive,
)
from repro.common.errors import ConfigError

DEFAULT_TIER_NAMES = ("ull", "far_memory")
"""Tier presets swept by default: the two ends of the regime boundary."""

DEFAULT_SWEEP_ADAPTIVE = {"warmup_faults": 4, "min_dwell_faults": 1}
"""Adaptive overrides applied to sweep cells: per-tier estimators warm
quickly, so the steady-state decision mix dominates the table instead of
the cold-start STEAL default."""


@dataclass(frozen=True)
class TierSweepRow:
    """One (placement, tier) point of the tier sweep.

    ``makespan_ns`` repeats the placement run's makespan on each of its
    tier rows; ``sync_steal_fraction`` / ``async_fraction`` partition
    the adaptive decisions taken for faults this tier backed.
    """

    placement: str
    tier: str
    makespan_ns: int
    demand_reads: int
    prefetch_reads: int
    writebacks: int
    retries: int
    migrations_in: int
    migrations_out: int
    promotions: int
    demotions: int
    decisions: Mapping[str, int]
    sync_steal_fraction: float
    async_fraction: float


def tier_sweep_config(
    config: MachineConfig,
    tiers: Sequence,
    placement: str,
    *,
    promote_threshold: int = 0,
    demote_watermark: float = 1.0,
    adaptive_overrides: Optional[Mapping] = None,
) -> MachineConfig:
    """The machine config of one placement's sweep cell.

    ``hot_cold`` needs migration to ever populate the fast tier, so a
    zero *promote_threshold* is raised to a small default there; other
    placements keep migration off unless asked.
    """
    from repro.tiering import with_tier_presets

    if placement == "hot_cold" and promote_threshold == 0:
        promote_threshold = 4
    overrides = dict(DEFAULT_SWEEP_ADAPTIVE)
    overrides.update(adaptive_overrides or {})
    config = with_adaptive(config, **overrides)
    return with_tier_presets(
        config,
        tiers,
        placement=placement,
        promote_threshold=promote_threshold,
        demote_watermark=demote_watermark,
    )


def run_tier_sweep(
    config: Optional[MachineConfig] = None,
    *,
    tiers: Sequence = DEFAULT_TIER_NAMES,
    placements: Sequence[str] = TIER_PLACEMENTS,
    batch: str = "2_Data_Intensive",
    seed: int = 1,
    scale: float = 0.2,
    promote_threshold: int = 0,
    demote_watermark: float = 1.0,
    adaptive_overrides: Optional[Mapping] = None,
    workers: int = 1,
    cache=None,
    telemetry=None,
    progress=None,
    executor=None,
) -> list[TierSweepRow]:
    """Run the adaptive policy over every placement and tabulate per-tier
    decision mixes (rows grouped by placement, tiers in config order).

    ``workers``/``cache`` are forwarded to the sweep engine
    (:mod:`repro.analysis.runner`); results are identical at any worker
    count.
    """
    for placement in placements:
        if placement not in TIER_PLACEMENTS:
            raise ConfigError(
                f"unknown placement {placement!r} "
                f"(known: {', '.join(TIER_PLACEMENTS)})"
            )
    config = config or MachineConfig()
    grid = Grid(
        points={
            placement: tier_sweep_config(
                config,
                tiers,
                placement,
                promote_threshold=promote_threshold,
                demote_watermark=demote_watermark,
                adaptive_overrides=adaptive_overrides,
            )
            for placement in placements
        },
        batches=(batch,),
        policies=("Adaptive",),
        seeds=(seed,),
        scale=scale,
    )
    cube = run_grid(
        grid, workers=workers, cache=cache, telemetry=telemetry,
        progress=progress, executor=executor,
    )
    rows: list[TierSweepRow] = []
    for placement in placements:
        result = cube[placement, batch, "Adaptive"][0]
        summary = result.tiers
        if summary is None:
            raise ConfigError(
                f"placement {placement!r} produced no tier summary; "
                "was the cell cached from a tier-disabled run?"
            )
        for usage in summary.tiers:
            rows.append(
                TierSweepRow(
                    placement=placement,
                    tier=usage.name,
                    makespan_ns=result.makespan_ns,
                    demand_reads=usage.demand_reads,
                    prefetch_reads=usage.prefetch_reads,
                    writebacks=usage.writebacks,
                    retries=usage.retries,
                    migrations_in=usage.migrations_in,
                    migrations_out=usage.migrations_out,
                    promotions=summary.promotions,
                    demotions=summary.demotions,
                    decisions=dict(usage.decisions),
                    sync_steal_fraction=usage.decision_fraction("sync", "steal"),
                    async_fraction=usage.decision_fraction("async"),
                )
            )
    return rows


def format_tier_table(rows: Sequence[TierSweepRow]) -> str:
    """Render sweep rows as the ``repro tiers`` crossover-by-tier table."""
    headers = (
        "placement", "tier", "demand", "prefetch", "wb", "retries",
        "mig in/out", "sync+steal", "async", "makespan_ms",
    )
    table = [headers]
    for row in rows:
        table.append((
            row.placement,
            row.tier,
            str(row.demand_reads),
            str(row.prefetch_reads),
            str(row.writebacks),
            str(row.retries),
            f"{row.migrations_in}/{row.migrations_out}",
            f"{row.sync_steal_fraction:6.1%}",
            f"{row.async_fraction:6.1%}",
            f"{row.makespan_ns / 1e6:.3f}",
        ))
    widths = [max(len(line[i]) for line in table) for i in range(len(headers))]
    lines = []
    for index, line in enumerate(table):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)).rstrip())
        if index == 0:
            lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    return "\n".join(lines)
