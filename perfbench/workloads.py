"""The benchmark's four workloads and how one run of each is measured.

Each workload turns the run's ``--seed`` into a fixed set of simulation
cells: k consecutive cell seeds, disjoint between runs (seed n covers
cell seeds ``k*(n-1)+1 .. k*n``).  A cell's work and simulated times
move with its seed; several cells per run keep the run's medians and
means steady from seed to seed.  See README.md for why each workload
exists.

A timed run measures, with no tracing attached, set-up (trace or
request-load synthesis plus ``build_simulation``) and the timed region
in turn until ``--seconds`` is spent: one cell's ``run()``, or for
``figure_grid`` the cold grid of one seed.  Host times are medians
(over several cells, the mean of each cell's median), scaled to the
reference host speed of :mod:`hostspeed`.

A traced run alternates untraced and traced runs of the first cell (for
``figure_grid``, of the grid) and reports the per-layer metrics of
:mod:`layers`.
"""

from __future__ import annotations

import dataclasses
import gc
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Callable, Optional

import repro.analysis.runner as runner_mod
import repro.analysis.store as store_mod
import repro.engine as engine_mod
import repro.sim.batch as batch_mod
import repro.trace.workloads as trace_mod
from repro import (
    PAPER_BATCHES,
    DeterministicRNG,
    FastSimulation,
    MachineConfig,
    Request,
    WorkloadInstance,
    with_cores,
    with_engine,
    with_fault_profile,
    with_serving,
)
from repro.analysis.experiments import (
    PAPER_POLICIES,
    POLICY_FACTORIES,
    run_figure4,
    run_figure5,
)
from repro.analysis.runner import ResultCache, SweepCell, stable_hash
from repro.analysis.validate import validate_figure4, validate_figure5
from repro.telemetry import Telemetry
from repro.trace.workloads import WORKLOADS as TRACE_WORKLOADS

from hostspeed import HostSpeed
from layers import LAYER_TARGETS, layer_metrics
from tracer import LayerTracer, find_wrappers

GRID_WARM_REPEATS = 10
"""Warm grid passes per round of a traced ``figure_grid`` run; one pass
takes tens of milliseconds, too short to read once."""


# -- shared helpers -----------------------------------------------------------


def cell_seeds(seed: int, count: int) -> list[int]:
    """The *count* cell seeds a run with ``--seed`` *seed* covers."""
    return [count * (seed - 1) + 1 + i for i in range(count)]


def synthesize(cell: SweepCell):
    """Build the cell's inputs: ``(workloads, requests)``, with
    ``requests`` None for a closed-loop batch."""
    if cell.config.serving.enabled:
        return request_load(cell)
    workloads = batch_mod.build_batch(
        cell.batch, seed=cell.seed, scale=cell.scale, config=cell.config
    )
    return workloads, None


def request_load(cell: SweepCell):
    """An open-loop request load whose size does not move with the seed.

    ``build_request_load`` draws both the request count (Poisson) and
    each request's workload from the seed, so one seed's load can carry
    twice the runahead work of another's.  Here the count is the
    window's expected count, every workload of the batch's mix serves
    equally many requests in seeded order, and arrival times are iid
    uniform over the window: a Poisson process conditioned on its count.
    Priorities are seeded as in ``build_request_load``.
    """
    serving = cell.config.serving
    mix = PAPER_BATCHES[cell.batch].workloads
    count = round(serving.rate_per_s * serving.duration_ms / 1000)
    rng = DeterministicRNG(serving.seed).fork(cell.seed)
    builds = {
        name: trace_mod.build_workload(name, rng.fork(10 + index), cell.scale)
        for index, name in enumerate(mix)
    }
    names = list(mix) * (count // len(mix))
    rng.fork(2).shuffle(names)
    window_ns = serving.duration_ms * 1e6
    arrival_rng = rng.fork(1)
    arrivals = sorted(int(arrival_rng.random() * window_ns) for _ in names)
    priority_rng = rng.fork(3)
    levels = cell.config.scheduler.priority_levels
    workloads, requests = [], []
    for rid, (name, arrival_ns) in enumerate(zip(names, arrivals)):
        priority = priority_rng.randint(0, levels - 1)
        workloads.append(
            WorkloadInstance(
                name=f"{name}#{rid}",
                trace=builds[name].trace,
                priority=priority,
                data_intensive=TRACE_WORKLOADS[name].data_intensive,
                mapped_vpns=builds[name].mapped_vpns,
            )
        )
        requests.append(
            Request(
                rid=rid,
                workload=name,
                priority=priority,
                arrival_ns=arrival_ns,
                deadline_ns=arrival_ns + serving.slo_target_ns,
            )
        )
    return workloads, requests


def build(cell: SweepCell, inputs):
    """Construct the cell's simulation from its synthesised inputs."""
    workloads, requests = inputs
    extra = {} if requests is None else {"requests": requests}
    return engine_mod.build_simulation(
        cell.config,
        workloads,
        POLICY_FACTORIES[cell.policy](),
        batch_name=cell.batch,
        **extra,
    )


def engine_of(sim) -> str:
    """The engine that actually runs *sim*: the fast engine falls back
    to the reference loop for shapes it does not batch."""
    if isinstance(sim, FastSimulation) and not sim._force_reference:
        return "fast"
    return "reference"


def digest_of(result) -> str:
    """The result digest the correctness gate compares."""
    return stable_hash(store_mod.result_to_dict(result))


def work_units(result) -> int:
    """Committed plus pre-executed instructions."""
    return result.instructions_committed + result.preexec_instructions


def sim_metrics(results) -> dict[str, float]:
    """Simulated-time metrics over a run's cells (exact per seed)."""
    return {
        "sim_makespan_ms": statistics.fmean(r.makespan_ns for r in results) / 1e6,
        "sim_idle_ms": statistics.fmean(r.total_idle_ns for r in results) / 1e6,
    }


def host_metrics(
    speed: HostSpeed, setup: list[float], wall_s: float, rate: float
) -> dict[str, float]:
    """The host metrics of a timed run, from its unscaled set-up samples,
    wall time and rate, read at the reference host speed.  Prints them
    unscaled on the line before the result.  Call it while the probe's
    process runs: once waited for, that process would count as a child
    in ``peak_rss_mb``."""
    print(
        f"unscaled: setup_s {median(setup):.6g} wall_s {wall_s:.6g} "
        f"work_units_per_s {rate:.6g} probe_s {median(speed.probes):.6g}"
    )
    factor = speed.factor()
    return {
        "setup_s": median(setup) * factor,
        "wall_s": wall_s * factor,
        "work_units_per_s": rate / factor,
        "peak_rss_mb": peak_rss_mb(),
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest waited-for child, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    scale = 1 if sys.platform == "darwin" else 1024
    return (own + children) * scale / 2**20


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Checker:
    """Counts operations and failures and holds the correctness gate.

    A cell's first digest in a run is compared with the pinned digest
    when the run's seed is the pinned one, and printed otherwise so two
    commits can be compared; every later digest of the same cell must
    equal the first.
    """

    def __init__(self, pinned: Optional[dict[str, str]]) -> None:
        self.pinned = pinned
        self.seen: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)
        return ok

    def error(self, what: str, exc: BaseException) -> None:
        traceback.print_exception(exc, file=sys.stderr)
        self.op(False, f"{what}: {exc!r}")

    def digest(self, label: str, digest: str) -> bool:
        first = self.seen.get(label)
        if first is not None:
            return self.op(first == digest, f"{label}: digest {digest} differs from {first}")
        self.seen[label] = digest
        if self.pinned is None:
            print(f"digest {label} {digest}")
            return self.op(True, label)
        expected = self.pinned.get(label)
        return self.op(expected == digest, f"{label}: digest {digest}, pinned {expected}")


# -- single-cell workloads ----------------------------------------------------


@dataclass(frozen=True)
class CellWorkload:
    """Workloads whose timed region is one cell's ``run()``."""

    name: str
    batch: str
    policy: str
    scale: float
    cells_per_run: int
    config: Callable[[], MachineConfig]
    pinned_seed: int

    def cells(self, seed: int) -> list[SweepCell]:
        config = self.config()
        return [
            SweepCell(config, self.batch, self.policy, s, self.scale)
            for s in cell_seeds(seed, self.cells_per_run)
        ]

    def measure(self, seed: int, seconds: float, workdir: Path, checker: Checker) -> dict:
        """Set up and time every cell at least once, round-robin until
        *seconds* is spent.  ``wall_s`` and ``work_units_per_s`` are
        means over the cells of each cell's median, so every cell weighs
        the same however many rounds a faster or slower program fits in.
        Set-up is timed before every run, so its samples spread over the
        whole run as the run's samples do."""
        cells = self.cells(seed)
        with HostSpeed() as speed:
            setup, laps = [], []
            walls = [[] for _ in cells]
            results = [None] * len(cells)
            deadline = time.perf_counter() + seconds
            i = 0
            while True:
                lap = time.perf_counter()
                cell = cells[i % len(cells)]
                try:
                    start = time.perf_counter()
                    sim = build(cell, synthesize(cell))
                    setup.append(time.perf_counter() - start)
                    start = time.perf_counter()
                    result = sim.run()
                    wall = time.perf_counter() - start
                    checker.digest(cell.describe(), digest_of(result))
                except Exception as exc:  # noqa: BLE001 - counted, run goes on
                    checker.error(cell.describe(), exc)
                else:
                    walls[i % len(cells)].append(wall)
                    results[i % len(cells)] = result
                # Dead simulations hold reference cycles; collecting them
                # between samples keeps the peak RSS that of one run.
                sim = None
                gc.collect()
                speed.probe()
                i += 1
                laps.append(time.perf_counter() - lap)
                if i >= len(cells) and time.perf_counter() + median(laps) > deadline:
                    break
            if any(r is None for r in results):
                raise RuntimeError(f"{self.name}: a cell never ran cleanly")
            host = host_metrics(
                speed,
                setup,
                statistics.fmean(median(w) for w in walls),
                statistics.fmean(work_units(r) / median(w) for r, w in zip(results, walls)),
            )
        return {**host, **sim_metrics(results)}

    def trace(self, seed: int, seconds: float, workdir: Path, checker: Checker):
        """Alternate untraced and traced runs of the run's first cell."""
        cell = self.cells(seed)[0]
        label = cell.describe()
        inputs = synthesize(cell)
        tracer = LayerTracer()
        untraced, traced, results = [], [], []
        traced_wall = 0.0
        retries = 0
        deadline = time.perf_counter() + seconds
        while True:
            round_start = time.perf_counter()
            sim = build(cell, inputs)
            engine = engine_of(sim)
            start = time.perf_counter()
            result = sim.run()
            untraced.append(time.perf_counter() - start)
            checker.digest(label, digest_of(result))

            tracer.install(LAYER_TARGETS)
            try:
                pass_start = time.perf_counter()
                with tracer.region("cell", label):
                    sim = build(cell, synthesize(cell))
                    start = time.perf_counter()
                    result = sim.run()
                    traced.append(time.perf_counter() - start)
                traced_wall += time.perf_counter() - pass_start
            finally:
                tracer.uninstall()
            retries += getattr(sim.machine.dma, "retries", 0)
            results.append(result)
            left = find_wrappers()
            checker.op(not left, f"wrappers left after the traced run: {left}")
            checker.op(
                engine_of(sim) == engine,
                f"{label}: traced on {engine_of(sim)}, untraced on {engine}",
            )
            checker.digest(label, digest_of(result))
            now = time.perf_counter()
            if now + (now - round_start) > deadline:
                break

        metrics = layer_metrics(
            tracer,
            len(results),
            results,
            retries=retries,
            traced_wall_s=traced_wall,
            overhead=sum(traced) / sum(untraced),
        )
        return metrics, tracer


# -- the figure grid ----------------------------------------------------------


@dataclass(frozen=True)
class FigureGrid:
    """``repro figures --figure all --scale 0.1 --workers 2`` on a fresh
    cache; the traced run also reads it back from the filled cache."""

    name: str = "figure_grid"
    scale: float = 0.1
    workers: int = 2
    seeds_per_run: int = 3
    pinned_seed: int = 1

    def seeds(self, seed: int) -> list[int]:
        return cell_seeds(seed, self.seeds_per_run)

    def cells(self, seed: int) -> list[SweepCell]:
        return self._cells(self.seeds(seed))

    def _cells(self, seeds: list[int]) -> list[SweepCell]:
        # The order of run_grid: batch, then seed, then policy.
        config = MachineConfig()
        return [
            SweepCell(config, batch, policy, s, self.scale)
            for batch in batch_mod.batch_names()
            for s in seeds
            for policy in PAPER_POLICIES
        ]

    def _figures(self, seeds: list[int], cache: ResultCache, telemetry=None):
        kwargs = dict(
            seeds=seeds,
            scale=self.scale,
            workers=self.workers,
            cache=cache,
            telemetry=telemetry,
        )
        return run_figure4(MachineConfig(), **kwargs), run_figure5(MachineConfig(), **kwargs)

    def _digest(self, seeds: list[int], cache: ResultCache, checker: Checker):
        """Digest every cell of *seeds* from the cache; returns the
        cells and their results."""
        cells = self._cells(seeds)
        results = runner_mod.run_cells(cells, cache=cache)
        for cell, result in zip(cells, results):
            checker.digest(cell.describe(), digest_of(result))
        return cells, results

    def _claims(self, figures, checker: Checker) -> int:
        """Check the paper claims; returns the number passed."""
        fig4, fig5 = figures
        claims = validate_figure4(fig4) + validate_figure5(fig5)
        for claim in claims:
            checker.op(
                claim.passed or claim.expected_deviation,
                f"claim {claim.claim_id}: {claim.details}",
            )
        return sum(claim.passed for claim in claims)

    def measure(self, seed: int, seconds: float, workdir: Path, checker: Checker) -> dict:
        """Time the figures for one of the run's seeds at a time, each
        pass on a fresh cache, round-robin over the seeds until *seconds*
        is spent, each seed at least once.  ``wall_s`` is the sum over
        the seeds of each seed's median pass: the three-seed grid's time,
        read from several short passes rather than one or two long ones.
        Before each pass, set-up is timed for each of its cells.  The
        paper claims are checked on the three-seed figures, read back
        from a cache every pass's results are copied into."""
        seeds = self.seeds(seed)
        with HostSpeed() as speed:
            setup, laps = [], []
            walls = {s: [] for s in seeds}
            results = {}
            every = ResultCache(fresh_dir(workdir / "all-seeds"))
            deadline = time.perf_counter() + seconds
            i = 0
            while True:
                lap = time.perf_counter()
                s = seeds[i % len(seeds)]
                cache = ResultCache(fresh_dir(workdir / self.name))
                try:
                    for cell in self._cells([s]):
                        start = time.perf_counter()
                        build(cell, synthesize(cell))
                        setup.append(time.perf_counter() - start)
                    gc.collect()
                    start = time.perf_counter()
                    self._figures([s], cache)
                    wall = time.perf_counter() - start
                    cells, results[s] = self._digest([s], cache, checker)
                except Exception as exc:  # noqa: BLE001 - counted, run goes on
                    checker.error(f"{self.name} seed {s}", exc)
                else:
                    walls[s].append(wall)
                    for cell, result in zip(cells, results[s]):
                        every.put(runner_mod.cache_key(cell), result, cell)
                shutil.rmtree(cache.root, ignore_errors=True)
                speed.probe()
                i += 1
                laps.append(time.perf_counter() - lap)
                if i >= len(seeds) and time.perf_counter() + median(laps) > deadline:
                    break
            if any(not walls[s] for s in seeds):
                raise RuntimeError(f"{self.name}: a seed's pass never ran cleanly")
            self._claims(self._figures(seeds, every), checker)
            shutil.rmtree(every.root, ignore_errors=True)
            wall_s = sum(median(walls[s]) for s in seeds)
            every_result = [r for s in seeds for r in results[s]]
            units = sum(work_units(r) for r in every_result)
            host = host_metrics(speed, setup, wall_s, units / wall_s)
        return {**host, **sim_metrics(every_result)}

    def trace(self, seed: int, seconds: float, workdir: Path, checker: Checker):
        seeds = self.seeds(seed)
        tracer = LayerTracer()
        untraced, traced, warm = [], [], []
        traced_wall = 0.0
        cells_executed, cell_s, claims_passed = 0, 0.0, 0
        results = []
        passes = 0
        deadline = time.perf_counter() + seconds
        while True:
            round_start = time.perf_counter()
            cache = ResultCache(fresh_dir(workdir / self.name))
            start = time.perf_counter()
            self._figures(seeds, cache)
            untraced.append(time.perf_counter() - start)
            for _ in range(GRID_WARM_REPEATS):
                start = time.perf_counter()
                self._figures(seeds, cache)
                warm.append(time.perf_counter() - start)

            cache = ResultCache(fresh_dir(workdir / self.name))
            telemetry = Telemetry(events=False)
            tracer.install(LAYER_TARGETS)
            try:
                pass_start = time.perf_counter()
                with tracer.region("cell", self.name):
                    figures = self._figures(seeds, cache, telemetry)
                    traced.append(time.perf_counter() - pass_start)
                    self._figures(seeds, cache, telemetry)
                traced_wall += time.perf_counter() - pass_start
            finally:
                tracer.uninstall()
            passes += 1
            left = find_wrappers()
            checker.op(not left, f"wrappers left after the traced pass: {left}")
            cells_executed += telemetry.counter("runner.cells.executed").value
            cell_s += telemetry.histogram("runner.cell_wall_ns").total / 1e9
            results.extend(self._digest(seeds, cache, checker)[1])
            claims_passed = self._claims(figures, checker)
            shutil.rmtree(cache.root, ignore_errors=True)
            now = time.perf_counter()
            if now + (now - round_start) > deadline:
                break

        metrics = layer_metrics(
            tracer,
            passes,
            results,
            traced_wall_s=traced_wall,
            overhead=sum(traced) / sum(untraced),
            runner=(cells_executed, cell_s),
            warm_wall_s=median(warm),
            claims_passed=claims_passed,
        )
        return metrics, tracer


# -- the catalogue ------------------------------------------------------------


def _its_config() -> MachineConfig:
    return MachineConfig()


def _hot_loop_config() -> MachineConfig:
    config = MachineConfig()
    config = dataclasses.replace(
        config, memory=dataclasses.replace(config.memory, dram_frames=8192)
    )
    return with_engine(config, "fast")


def _serve_config() -> MachineConfig:
    config = with_fault_profile(with_cores(MachineConfig(), 2), "tail_bimodal")
    # 66 requests at 2000 req/s: a 33 ms arrival window.
    return with_serving(
        config, arrival="poisson", rate_per_s=2000.0, duration_ms=33.0, slo_ms=2.0
    )


WORKLOADS = {
    "its_cell": CellWorkload(
        name="its_cell",
        batch="2_Data_Intensive",
        policy="ITS",
        scale=1.0,
        cells_per_run=6,
        config=_its_config,
        pinned_seed=1,
    ),
    "hot_loop": CellWorkload(
        name="hot_loop",
        batch="No_Data_Intensive",
        policy="Sync",
        scale=3.0,
        cells_per_run=1,
        config=_hot_loop_config,
        pinned_seed=3,
    ),
    "figure_grid": FigureGrid(),
    "serve_smp": CellWorkload(
        name="serve_smp",
        batch="1_Data_Intensive",
        policy="Adaptive",
        scale=0.1,
        # Cells of equal work differ by up to a third in host time, so
        # fewer cells let the run's mean move with the seed.
        cells_per_run=6,
        config=_serve_config,
        pinned_seed=1,
    ),
}
"""Every workload by name, in the order the benchmark reports them."""


E2E_METRICS: tuple[tuple[str, str, str, str], ...] = (
    ("setup_s", "s", "lower", "host"),
    ("wall_s", "s", "lower", "host"),
    ("work_units_per_s", "1/s", "higher", "host"),
    ("peak_rss_mb", "MiB", "lower", "host"),
    ("sim_makespan_ms", "ms", "lower", "sim"),
    ("sim_idle_ms", "ms", "lower", "sim"),
)
"""End-to-end metrics: name, unit, better direction, host or sim time."""
