"""The layers the traced run attributes host time to, and the per-layer
metrics derived from them.

Layers are named after the ``src/repro`` modules they wrap.  Each
:class:`~tracer.Target` names one public callable; calls are looked up
through the class or module at call time, so wrapping the class
attribute or the module binding is enough.  The policy hook
``on_instruction_complete`` is deliberately not wrapped: the fast engine
compares it by identity to pick its path, and a wrapper there would
change the engine that runs.
"""

from __future__ import annotations

from repro.serving.slo import nearest_rank

from tracer import LayerTracer, Target


def _count_records(tracer: LayerTracer, built) -> None:
    tracer.count("trace.records", len(built.trace))


def _count_hit(tracer: LayerTracer, result) -> None:
    tracer.count("cache.hits", result is not None)


LAYER_TARGETS: tuple[Target, ...] = (
    Target("trace", "repro.sim.batch:build_batch"),
    Target("trace", "repro.trace.workloads:build_workload", on_return=_count_records),
    Target("engine", "repro.engine:build_simulation"),
    Target("engine.fast.columns", "repro.engine.fast:build_columns"),
    Target("sim.run", "repro.sim.simulator:Simulation.run", span=True),
    Target("sim.run", "repro.engine.fast:FastSimulation.run", span=True),
    Target("cpu.core", "repro.cpu.core:SimCPU.execute"),
    Target("mem.tlb", "repro.mem.tlb:TLB.lookup"),
    Target("mem.tlb", "repro.mem.tlb:TLB.insert"),
    Target("mem.hierarchy", "repro.mem.hierarchy:MemoryHierarchy.access"),
    Target("cpu.runahead", "repro.cpu.runahead:PreExecuteEngine.run_episode", span=True),
    Target("vm.page_table", "repro.vm.page_table:PageTable.walk"),
    Target("vm.page_table", "repro.vm.page_table:PageTable.lookup_vpn"),
    Target("vm.page_table", "repro.vm.page_table:PageTable.ensure_pte"),
    Target("vm.page_table", "repro.vm.page_table:PageTable.iter_ptes_from"),
    Target("vm.mm", "repro.vm.mm:MemoryManager.classify_touch"),
    Target("vm.mm", "repro.vm.mm:MemoryManager.install_page"),
    Target("core.prefetch", "repro.core.prefetch:VirtualAddressPrefetcher.collect"),
    Target("core.its", "repro.core.its:ITSPolicy.on_major_fault", span=True),
    Target("kernel.fault", "repro.kernel.fault:PageFaultHandler.begin_major_fault", span=True),
    Target("storage.dma", "repro.storage.dma:DMAController.read_page"),
    Target("storage.dma", "repro.storage.dma:DMAController.write_page"),
    Target("common.events", "repro.common.events:EventQueue.schedule"),
    Target("common.events", "repro.common.events:EventQueue.pop"),
    Target("common.events", "repro.common.events:EventQueue.run_due"),
    Target("kernel.scheduler", "repro.kernel.scheduler:RoundRobinScheduler.dispatch"),
    Target("kernel.scheduler", "repro.kernel.smp:SMPScheduler.dispatch"),
    Target("kernel.scheduler", "repro.kernel.smp:SMPScheduler.try_steal"),
    Target("adaptive", "repro.adaptive.controller:AdaptiveController.decide"),
    Target("adaptive", "repro.adaptive.controller:AdaptiveController.observe"),
    Target("faults", "repro.faults.injector:FaultInjector.sample_read_latency_ns"),
    Target("faults", "repro.faults.injector:FaultInjector.sample_write_latency_ns"),
    Target("faults", "repro.faults.injector:FaultInjector.sample_link_jitter_ns"),
    Target("faults", "repro.faults.injector:FaultInjector.next_read_outcome"),
    Target("faults", "repro.faults.injector:FaultInjector.backoff_ns"),
    Target("faults", "repro.faults.injector:FaultInjector.detection_delay_ns"),
    Target("serving.admission", "repro.serving.admission:AdmissionPolicy.decide"),
    Target("analysis.runner", "repro.analysis.runner:run_cells", span=True),
    Target("analysis.runner.cache.get", "repro.analysis.runner:ResultCache.get",
           span=True, on_return=_count_hit),
    Target("analysis.runner.cache.put", "repro.analysis.runner:ResultCache.put", span=True),
    Target("analysis.store.decode", "repro.analysis.store:result_from_dict"),
    Target("analysis.store.encode", "repro.analysis.store:result_to_dict"),
)

_CALL_LAYERS = (
    "trace", "sim.run", "cpu.core", "mem.tlb", "mem.hierarchy", "vm.page_table",
    "vm.mm", "core.prefetch", "core.its", "kernel.fault", "storage.dma",
    "common.events", "kernel.scheduler", "adaptive", "faults", "serving.admission",
)
"""Layers reported as ``<layer>.calls`` and ``<layer>.self_s``."""

_SELF_TIME = {
    "engine.build_s": "engine",
    "engine.fast.columns_s": "engine.fast.columns",
    "cpu.runahead.self_s": "cpu.runahead",
    "analysis.runner.pool_wait_s": "analysis.runner",
    "analysis.runner.cache.get_s": "analysis.runner.cache.get",
    "analysis.runner.cache.put_s": "analysis.runner.cache.put",
    "analysis.store.decode_s": "analysis.store.decode",
    "analysis.store.encode_s": "analysis.store.encode",
    "bench.unattributed_s": "bench",
}
_CALLS = {
    "cpu.runahead.episodes": "cpu.runahead",
    "analysis.runner.cache.get_calls": "analysis.runner.cache.get",
    "analysis.runner.cache.put_calls": "analysis.runner.cache.put",
}

PER_LAYER: tuple[tuple[str, str], ...] = (
    *((f"{layer}.{kind}", unit) for layer in _CALL_LAYERS
      for kind, unit in (("calls", "count"), ("self_s", "s"))),
    *((name, "s") for name in _SELF_TIME),
    *((name, "count") for name in _CALLS),
    ("trace.records", "count"),
    ("mem.llc_miss_ratio", "ratio"),
    ("cpu.runahead.instructions", "count"),
    ("cpu.runahead.useful_ratio", "ratio"),
    ("core.prefetch.hit_ratio", "ratio"),
    ("storage.dma.retries", "count"),
    ("kernel.context.switches", "count"),
    ("analysis.runner.cells_executed", "count"),
    ("analysis.runner.cell_s", "s"),
    ("analysis.runner.cache.hit_ratio", "ratio"),
    ("analysis.runner.warm_wall_s", "s"),
    ("bench.traced_wall_s", "s"),
    ("bench.attributed_frac", "ratio"),
    ("bench.trace_overhead", "ratio"),
    ("sim_p50_ms", "ms"),
    ("sim_p85_ms", "ms"),
    ("sim_claims_passed", "count"),
)
"""Every per-layer metric with its unit.  The traced run reports each on
every workload; a layer a workload never enters reads 0."""


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: LayerTracer,
    passes: int,
    results,
    *,
    retries: int = 0,
    traced_wall_s: float,
    overhead: float,
    runner: tuple[int, float] = (0, 0.0),
    warm_wall_s: float = 0.0,
    claims_passed: int = 0,
) -> dict[str, float]:
    """Per-layer metrics, each averaged over *passes* traced passes.

    *results* are the simulation results of those passes and *retries*
    the DMA retries of their in-process simulations; *runner* is the
    (cells executed, summed cell seconds) pair the runner's own
    telemetry reported; *warm_wall_s* the median untraced warm grid pass.
    """
    stats = tracer.stats

    def calls(layer: str) -> float:
        s = stats.get(layer)
        return s.calls / passes if s else 0

    def self_s(layer: str) -> float:
        s = stats.get(layer)
        return s.self_ns / 1e9 / passes if s else 0.0

    values: dict[str, float] = {}
    for layer in _CALL_LAYERS:
        values[f"{layer}.calls"] = calls(layer)
        values[f"{layer}.self_s"] = self_s(layer)
    for name, layer in _SELF_TIME.items():
        values[name] = self_s(layer)
    for name, layer in _CALLS.items():
        values[name] = calls(layer)
    preexec = sum(r.preexec_instructions for r in results)
    values.update({
        "trace.records": tracer.counts.get("trace.records", 0) / passes,
        "mem.llc_miss_ratio": _ratio(
            sum(r.demand_cache_misses for r in results),
            sum(r.demand_cache_accesses for r in results),
        ),
        "cpu.runahead.instructions": preexec / passes,
        "cpu.runahead.useful_ratio": _ratio(
            sum(r.preexec_lines_warmed for r in results), preexec
        ),
        "core.prefetch.hit_ratio": _ratio(
            sum(r.prefetch_hits for r in results),
            sum(r.prefetch_issued for r in results),
        ),
        "storage.dma.retries": retries / passes,
        "kernel.context.switches": sum(r.context_switches for r in results) / passes,
        "analysis.runner.cells_executed": runner[0] / passes,
        "analysis.runner.cell_s": runner[1] / passes,
        "analysis.runner.cache.hit_ratio": _ratio(
            tracer.counts.get("cache.hits", 0),
            stats["analysis.runner.cache.get"].calls
            if "analysis.runner.cache.get" in stats else 0,
        ),
        "analysis.runner.warm_wall_s": warm_wall_s,
        "bench.traced_wall_s": traced_wall_s / passes,
        "bench.attributed_frac": _ratio(tracer.total_self_s(), traced_wall_s),
        "bench.trace_overhead": overhead,
        **request_latency_ms(results),
        "sim_claims_passed": claims_passed,
    })
    return values


def request_latency_ms(results) -> dict[str, float]:
    """Simulated request latency of open-loop results: the median and
    p85, the highest percentile with at least ten of 66 requests beyond
    it.  Closed-loop batches have no requests and read 0."""
    latencies = sorted(
        ns for r in results if r.serving is not None for ns in r.serving.latencies_ns()
    )
    if not latencies:
        return {"sim_p50_ms": 0.0, "sim_p85_ms": 0.0}
    return {
        "sim_p50_ms": nearest_rank(latencies, 0.50) / 1e6,
        "sim_p85_ms": nearest_rank(latencies, 0.85) / 1e6,
    }
