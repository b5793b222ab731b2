"""Result aggregation, normalisation, and experiment runners.

One runner per paper artefact: :func:`run_figures` (Figures 4a-4c and
5a-5b, projected from one grid; :func:`run_figure4` and
:func:`run_figure5` return one figure each), and :func:`run_observation`
(the Section 2.2 motivation experiment).  Every grid-shaped experiment
is one :class:`~repro.analysis.runner.Grid` run by
:func:`~repro.analysis.runner.run_grid` and projected into its rows.  The benchmark harness under
``benchmarks/`` is a thin wrapper around these.
"""

from repro.analysis.results import (
    FigureSeries,
    MetricKind,
    PolicyAverages,
    average_results,
    normalize_series,
)
from repro.analysis.tables import (
    render_series_table,
    render_serving_table,
    render_result_summary,
)
from repro.analysis.serving import (
    ServingRow,
    row_from_result,
    run_serving_sweep,
    serving_headline,
)
from repro.analysis.charts import render_bar_chart, render_sparkline
from repro.analysis.store import (
    load_results,
    result_from_dict,
    result_to_dict,
    save_results,
)
from repro.analysis.stats import (
    MetricSummary,
    orderings_stable,
    summarize_metric,
    summarize_policies,
)
from repro.analysis.utilization import (
    UtilizationReport,
    render_utilization,
    utilization,
)
from repro.analysis.sweeps import (
    SweepRow,
    find_crossover,
    sweep,
    sweep_context_switch_cost,
    sweep_device_latency,
    sweep_dram_frames,
    sweep_page_size,
)
from repro.analysis.report import generate_report, write_report
from repro.analysis.runner import (
    EXECUTOR_NAMES,
    CacheStats,
    CellExecutionError,
    Grid,
    ResultCache,
    SweepCell,
    cache_key,
    default_cache_dir,
    run_cells,
    run_grid,
    stable_hash,
)
from repro.analysis.claims import (
    DEFAULT_LEASE_S,
    ClaimInfo,
    ClaimStore,
    default_worker_id,
)
from repro.analysis.manifest import (
    FailureLog,
    SweepManifest,
    SweepProgress,
    scan_progress,
    write_progress,
)
from repro.analysis.worker import (
    QueueOptions,
    QueueWorker,
    WorkerSummary,
    run_manifest_worker,
    run_queue,
)
from repro.analysis.timeline import (
    bucket_events,
    render_density,
    render_strip,
    render_timeline,
)
from repro.analysis.validate import (
    ClaimCheck,
    render_claims,
    validate_figure4,
    validate_figure5,
    validate_observation,
)
from repro.analysis.experiments import (
    DEFAULT_ADAPTIVE_PROFILES,
    DEFAULT_STATIC_POLICIES,
    DEFAULT_TAIL_PROFILES,
    PAPER_POLICIES,
    POLICY_FACTORIES,
    AdaptiveComparisonRow,
    Figure4Data,
    Figure5Data,
    ObservationData,
    TailSensitivityRow,
    run_adaptive_comparison,
    run_batch_policy,
    run_figure4,
    run_figure5,
    run_figures,
    run_observation,
    run_tail_sensitivity,
)

__all__ = [
    "FigureSeries",
    "MetricKind",
    "PolicyAverages",
    "average_results",
    "normalize_series",
    "render_series_table",
    "render_serving_table",
    "render_result_summary",
    "ServingRow",
    "row_from_result",
    "run_serving_sweep",
    "serving_headline",
    "render_bar_chart",
    "render_sparkline",
    "save_results",
    "load_results",
    "result_to_dict",
    "result_from_dict",
    "MetricSummary",
    "summarize_metric",
    "summarize_policies",
    "orderings_stable",
    "UtilizationReport",
    "utilization",
    "render_utilization",
    "SweepRow",
    "sweep",
    "sweep_device_latency",
    "sweep_context_switch_cost",
    "sweep_page_size",
    "sweep_dram_frames",
    "find_crossover",
    "generate_report",
    "write_report",
    "EXECUTOR_NAMES",
    "CacheStats",
    "CellExecutionError",
    "ResultCache",
    "SweepCell",
    "cache_key",
    "default_cache_dir",
    "run_cells",
    "run_grid",
    "Grid",
    "stable_hash",
    "DEFAULT_LEASE_S",
    "ClaimInfo",
    "ClaimStore",
    "default_worker_id",
    "FailureLog",
    "SweepManifest",
    "SweepProgress",
    "scan_progress",
    "write_progress",
    "QueueOptions",
    "QueueWorker",
    "WorkerSummary",
    "run_manifest_worker",
    "run_queue",
    "bucket_events",
    "render_strip",
    "render_density",
    "render_timeline",
    "ClaimCheck",
    "validate_figure4",
    "validate_figure5",
    "validate_observation",
    "render_claims",
    "POLICY_FACTORIES",
    "Figure4Data",
    "Figure5Data",
    "ObservationData",
    "run_batch_policy",
    "run_figure4",
    "run_figure5",
    "run_figures",
    "run_observation",
    "PAPER_POLICIES",
    "DEFAULT_TAIL_PROFILES",
    "TailSensitivityRow",
    "run_tail_sensitivity",
    "DEFAULT_ADAPTIVE_PROFILES",
    "DEFAULT_STATIC_POLICIES",
    "AdaptiveComparisonRow",
    "run_adaptive_comparison",
]
