"""Parallel experiment execution with content-addressed result caching.

Every figure in the paper is a grid of *independent* simulation cells —
one (config, batch, policy, seed, scale) tuple per cell — so the engine
here does two things and nothing else:

* **Fan out.**  :func:`run_cells` executes a batch of cells on a
  pluggable backend (``executor=``): ``"inline"`` runs them serially
  in-process with zero multiprocessing machinery, ``"pool"`` fans them
  out on a ``concurrent.futures.ProcessPoolExecutor`` (platforms where
  a pool cannot be created fall back to inline, so callers never have
  to care), and ``"queue"`` joins the distributed work-queue of
  :mod:`repro.analysis.worker` — many processes, potentially on many
  hosts sharing the cache directory, atomically claiming cells via
  ``O_CREAT|O_EXCL`` claim files with stale-lease reclamation.  The
  default picks inline or pool from ``workers=``.
* **Never simulate the same cell twice.**  Each cell has a
  *content-addressed* cache key — a SHA-256 over the canonical JSON of
  ``MachineConfig.to_dict()`` plus the batch/policy/seed/scale and the
  result-store ``FORMAT_VERSION`` — and a :class:`ResultCache` maps that
  key to a :class:`~repro.sim.metrics.SimulationResult` JSON blob on
  disk (the same versioned encoding as :mod:`repro.analysis.store`).
  Hits skip simulation entirely, which also makes interrupted grid runs
  resumable: completed cells are served from cache on the next run.

Experiments describe their cells declaratively: a :class:`Grid` of
labelled config points x batches x policies x seeds, which
:func:`run_grid` runs in one :func:`run_cells` call and returns as a
result cube every experiment projects its rows from.

Determinism is preserved at any worker count: a cell's result depends
only on its key inputs (per-cell RNG seeding, no state shared between
cells), results are returned in input order, and workers exchange the
same versioned JSON encoding the cache stores — so ``workers=1``,
``workers=8`` and a fully cached run are bit-for-bit identical.

Telemetry: pass a :class:`~repro.telemetry.Telemetry` handle to count
``runner.cache.hit`` / ``runner.cache.miss`` / ``runner.cells.executed``
and observe per-cell worker wall time (``runner.cell_wall_ns``) in the
*parent* process.  Simulation-internal telemetry is not collected across
process boundaries — attach telemetry to a single
:func:`~repro.analysis.experiments.run_batch_policy` call for that.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Hashable, Mapping, Optional, Sequence, Union

from repro.analysis.store import FORMAT_VERSION, result_from_dict, result_to_dict
from repro.common.config import MachineConfig
from repro.common.errors import ConfigError, ReproError
from repro.sim.metrics import SimulationResult

CACHE_ENV_VAR = "REPRO_CACHE_DIR"
"""Environment variable overriding the default cache directory."""

EXECUTOR_NAMES = ("inline", "pool", "queue")
"""Pluggable sweep backends: in-process serial, local process pool,
and the distributed work-queue over a shared cache directory (see
:mod:`repro.analysis.worker` and docs/RUNNING.md)."""

ProgressFn = Callable[[int, int, "SweepCell", bool], None]
"""``progress(done, total, cell, cached)`` — invoked as cells complete."""


class CellExecutionError(ReproError):
    """One or more cells failed while the rest of the grid completed.

    Raised *after* every runnable cell has finished, so progress
    accounting stays consistent: ``completed`` cells were recorded (and
    cached) normally, and every failure names its cell via
    :meth:`SweepCell.describe`.  The first underlying exception is
    chained as ``__cause__``.
    """

    def __init__(
        self,
        failures: Sequence[tuple["SweepCell", str]],
        *,
        completed: int,
        total: int,
    ) -> None:
        self.failures = list(failures)
        self.completed = completed
        self.total = total
        shown = "; ".join(
            f"{cell.describe()}: {error}" for cell, error in self.failures[:5]
        )
        if len(self.failures) > 5:
            shown += f"; ... {len(self.failures) - 5} more"
        super().__init__(
            f"{len(self.failures)} of {total} cells failed "
            f"({completed} completed): {shown}"
        )


@dataclass(frozen=True)
class SweepCell:
    """One independent simulation cell of an experiment grid."""

    config: MachineConfig
    batch: str
    policy: str
    seed: int = 1
    scale: float = 1.0

    def key_payload(self) -> dict:
        """The exact inputs the cache key is derived from."""
        return {
            "format": FORMAT_VERSION,
            "config": self.config.to_dict(),
            "batch": self.batch,
            "policy": self.policy,
            "seed": self.seed,
            "scale": self.scale,
        }

    def describe(self) -> str:
        """Short human-readable label (progress lines, error messages)."""
        return f"{self.policy} on {self.batch} seed={self.seed} scale={self.scale:g}"


def stable_hash(payload: dict) -> str:
    """SHA-256 of the canonical JSON encoding of *payload*.

    Canonical = sorted keys, no whitespace — so the digest is invariant
    to dict insertion order at every nesting level.
    """
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def cache_key(cell: SweepCell) -> str:
    """Content-addressed key of one cell (see :func:`stable_hash`)."""
    return stable_hash(cell.key_payload())


def default_cache_dir() -> Path:
    """Cache root used when none is given.

    ``$REPRO_CACHE_DIR`` if set, else ``$XDG_CACHE_HOME/repro-its``,
    else ``~/.cache/repro-its``.
    """
    override = os.environ.get(CACHE_ENV_VAR)
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-its"


@dataclass
class CacheStats:
    """Point-in-time view of a cache directory plus cumulative traffic."""

    root: str
    entries: int
    size_bytes: int
    hits: int
    misses: int
    puts: int

    def render(self) -> str:
        """Multi-line report for ``repro cache stats``."""
        return "\n".join(
            [
                f"cache dir:  {self.root}",
                f"entries:    {self.entries}",
                f"size:       {self.size_bytes} bytes",
                f"hits:       {self.hits} (cumulative)",
                f"misses:     {self.misses} (cumulative)",
                f"puts:       {self.puts} (cumulative)",
            ]
        )


class ResultCache:
    """Content-addressed, directory-backed store of simulation results.

    One JSON file per cell under ``<root>/<key[:2]>/<key>.json`` holding
    the :func:`~repro.analysis.store.result_to_dict` payload plus the
    cell's key inputs (for human inspection).  Corrupted or truncated
    entries are treated as misses and deleted, so a killed writer can
    never poison future runs.  Writes go through a temp file + rename,
    which keeps concurrent writers safe on POSIX.

    Invalidation is purely key-based: any change to the config dict, the
    batch/policy/seed/scale, or a ``FORMAT_VERSION`` bump in
    :mod:`repro.analysis.store` yields a different key, and the stale
    entries are simply never addressed again (``clear()`` reclaims the
    space).
    """

    _STATS_FILE = "stats.json"

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.puts = 0

    # -- key/value ----------------------------------------------------------

    def path_for(self, key: str) -> Path:
        """Entry path for *key* (two-level fan-out keeps dirs small)."""
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[SimulationResult]:
        """Return the cached result for *key*, or ``None`` on a miss.

        A corrupted entry (invalid JSON, wrong format version, missing
        fields) is deleted and reported as a miss.
        """
        path = self.path_for(key)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            result = result_from_dict(payload["result"])
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError, ConfigError):
            # Unreadable or malformed: drop the entry so it cannot
            # shadow a good re-run, then report a miss.
            path.unlink(missing_ok=True)
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, key: str, result: SimulationResult, cell: Optional[SweepCell] = None) -> None:
        """Store *result* under *key* (atomic temp-file + rename)."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"result": result_to_dict(result)}
        if cell is not None:
            payload["cell"] = cell.key_payload()
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(payload, indent=2), encoding="utf-8")
        tmp.replace(path)
        self.puts += 1

    # -- maintenance --------------------------------------------------------

    def _entry_files(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        return [
            p
            for p in self.root.glob("??/*.json")
            if ".tmp." not in p.name
        ]

    def stats(self) -> CacheStats:
        """Scan the directory and merge with persisted traffic counts."""
        files = self._entry_files()
        persisted = self._load_persisted_stats()
        return CacheStats(
            root=str(self.root),
            entries=len(files),
            size_bytes=sum(p.stat().st_size for p in files),
            hits=persisted.get("hits", 0) + self.hits,
            misses=persisted.get("misses", 0) + self.misses,
            puts=persisted.get("puts", 0) + self.puts,
        )

    def clear(self) -> int:
        """Delete every entry (and the traffic counts); return the count."""
        files = self._entry_files()
        for path in files:
            path.unlink(missing_ok=True)
        (self.root / self._STATS_FILE).unlink(missing_ok=True)
        return len(files)

    def _load_persisted_stats(self) -> dict:
        try:
            data = json.loads(
                (self.root / self._STATS_FILE).read_text(encoding="utf-8")
            )
            return data if isinstance(data, dict) else {}
        except (OSError, ValueError):
            return {}

    @contextlib.contextmanager
    def _stats_lock(self, timeout_s: float = 5.0, stale_s: float = 10.0):
        """Cross-process mutex around the read-merge-write of stats.json.

        An ``O_CREAT|O_EXCL`` lock file, the same primitive the claim
        protocol uses: the filesystem elects exactly one holder.  A lock
        older than *stale_s* (a killed flusher) is broken; if the lock
        cannot be won within *timeout_s* the flush proceeds unlocked —
        traffic counters are best-effort diagnostics and must never
        deadlock a sweep.
        """
        lock = self.root / f"{self._STATS_FILE}.lock"
        deadline = time.monotonic() + timeout_s
        acquired = False
        while True:
            try:
                os.close(os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
                acquired = True
                break
            except FileExistsError:
                try:
                    if time.time() - lock.stat().st_mtime > stale_s:
                        lock.unlink(missing_ok=True)
                        continue
                except OSError:
                    continue  # holder released between open and stat
                if time.monotonic() > deadline:
                    break
                time.sleep(0.002)
        try:
            yield
        finally:
            if acquired:
                lock.unlink(missing_ok=True)

    def flush_stats(self) -> None:
        """Fold this instance's hit/miss/put counts into ``stats.json``.

        Called by :func:`run_cells` after each batch so ``repro cache
        stats`` can report cumulative traffic across processes.  The
        read-merge-write runs under a cross-process lock file: parallel
        workers flushing together each fold their deltas in, instead of
        the last writer clobbering everyone else's counts.
        """
        if not (self.hits or self.misses or self.puts):
            return
        self.root.mkdir(parents=True, exist_ok=True)
        with self._stats_lock():
            persisted = self._load_persisted_stats()
            merged = {
                "hits": persisted.get("hits", 0) + self.hits,
                "misses": persisted.get("misses", 0) + self.misses,
                "puts": persisted.get("puts", 0) + self.puts,
            }
            tmp = self.root / f"{self._STATS_FILE}.tmp.{os.getpid()}"
            tmp.write_text(json.dumps(merged), encoding="utf-8")
            tmp.replace(self.root / self._STATS_FILE)
        self.hits = self.misses = self.puts = 0


def as_cache(
    cache: Union[ResultCache, str, Path, None]
) -> Optional[ResultCache]:
    """Coerce a cache argument: ``None`` stays ``None`` (caching off),
    a path becomes a :class:`ResultCache` rooted there."""
    if cache is None or isinstance(cache, ResultCache):
        return cache
    return ResultCache(cache)


def _execute_cell(payload: dict) -> tuple[dict, int]:
    """Worker entry point: simulate one cell from JSON-safe inputs.

    Takes and returns plain dicts (the store's versioned encoding) so
    the same function serves fork- and spawn-based pools; also used
    directly by the serial fallback.
    """
    # Imported here, not at module scope: keeps the runner importable
    # fast and avoids a circular import (experiments -> runner).
    from repro.analysis.experiments import run_batch_policy

    start = time.perf_counter_ns()
    result = run_batch_policy(
        MachineConfig.from_dict(payload["config"]),
        payload["batch"],
        payload["policy"],
        seed=payload["seed"],
        scale=payload["scale"],
    )
    return result_to_dict(result), time.perf_counter_ns() - start


def _cell_payload(cell: SweepCell) -> dict:
    return {
        "config": cell.config.to_dict(),
        "batch": cell.batch,
        "policy": cell.policy,
        "seed": cell.seed,
        "scale": cell.scale,
    }


def run_cells(
    cells: Sequence[SweepCell],
    *,
    workers: int = 1,
    cache: Union[ResultCache, str, Path, None] = None,
    telemetry=None,
    progress: Optional[ProgressFn] = None,
    executor: Optional[str] = None,
    queue_options=None,
) -> list[SimulationResult]:
    """Execute *cells*, returning their results **in input order**.

    *executor* selects the backend (``None`` picks by *workers*):

    * ``"inline"`` — this process, serially (the ``workers=1`` default);
    * ``"pool"`` — a local ``ProcessPoolExecutor`` of *workers*
      processes (the ``workers > 1`` default; platforms where a pool
      cannot start fall back to inline);
    * ``"queue"`` — the distributed work-queue: cooperate with any
      number of concurrent worker processes (even on other hosts)
      sharing *cache*, claiming cells atomically and reclaiming a
      killed worker's stale claims.  Requires *cache*; *queue_options*
      is a :class:`~repro.analysis.worker.QueueOptions`.

    With *cache* set, cells whose key is already stored are never
    simulated, and every fresh result is stored on completion — so an
    interrupted run resumes where it left off.

    A cell that raises does not poison the grid: every other cell still
    runs (and caches, and reports progress), then all failures surface
    together as one :class:`CellExecutionError` naming each cell.
    """
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    if executor is None:
        executor = "inline" if workers == 1 else "pool"
    if executor not in EXECUTOR_NAMES:
        raise ConfigError(
            f"unknown executor {executor!r}; expected one of {EXECUTOR_NAMES}"
        )
    cache = as_cache(cache)
    if executor == "queue":
        if cache is None:
            raise ConfigError(
                "the queue executor coordinates through the result cache; "
                "pass cache= (a shared directory) or use another executor"
            )
        from repro.analysis.worker import run_queue

        return run_queue(
            cells,
            cache=cache,
            options=queue_options,
            telemetry=telemetry,
            progress=progress,
        )
    total = len(cells)
    results: list[Optional[SimulationResult]] = [None] * total
    done = 0

    def record(index: int, result: SimulationResult, cached: bool, wall_ns: int) -> None:
        nonlocal done
        results[index] = result
        done += 1
        if telemetry is not None:
            telemetry.counter(
                "runner.cache.hit" if cached else "runner.cache.miss"
            ).inc()
            if not cached:
                telemetry.counter("runner.cells.executed").inc()
                telemetry.histogram("runner.cell_wall_ns").observe(wall_ns)
        if progress is not None:
            progress(done, total, cells[index], cached)

    pending: list[int] = []
    for i, cell in enumerate(cells):
        hit = cache.get(cache_key(cell)) if cache is not None else None
        if hit is not None:
            record(i, hit, True, 0)
        else:
            pending.append(i)

    failures: list[tuple[SweepCell, str]] = []
    first_error: Optional[BaseException] = None
    if pending:
        outcomes = _execute_pending(
            [(i, _cell_payload(cells[i])) for i in pending],
            workers if executor == "pool" else 1,
        )
        for i, outcome in outcomes:
            if isinstance(outcome, BaseException):
                failures.append((cells[i], repr(outcome)))
                if first_error is None:
                    first_error = outcome
                continue
            result_dict, wall_ns = outcome
            result = result_from_dict(result_dict)
            if cache is not None:
                cache.put(cache_key(cells[i]), result, cells[i])
            record(i, result, False, wall_ns)

    if cache is not None:
        cache.flush_stats()
    if telemetry is not None:
        telemetry.counter("runner.cells.total").inc(total)
    if failures:
        raise CellExecutionError(
            failures, completed=done, total=total
        ) from first_error
    return results  # type: ignore[return-value]  # every slot is filled


def _execute_pending(
    indexed: list[tuple[int, dict]], workers: int
) -> list[tuple[int, Union[tuple[dict, int], BaseException]]]:
    """Run the uncached cells, serially or on a process pool.

    Per-cell exceptions are *captured* in the outcome list, never
    raised: one failing cell must not abort (or skew the progress
    accounting of) its siblings.
    """

    def capture(fn, payload) -> Union[tuple[dict, int], BaseException]:
        try:
            return fn(payload)
        except Exception as exc:  # noqa: BLE001 — cell isolation is the point
            return exc

    if workers == 1 or len(indexed) == 1:
        return [(i, capture(_execute_cell, payload)) for i, payload in indexed]
    try:
        with ProcessPoolExecutor(max_workers=min(workers, len(indexed))) as pool:
            futures = [(i, pool.submit(_execute_cell, payload)) for i, payload in indexed]
            outcomes: list[tuple[int, Union[tuple[dict, int], BaseException]]] = []
            for i, future in futures:
                try:
                    outcomes.append((i, future.result()))
                except Exception as exc:  # noqa: BLE001 — cell isolation
                    outcomes.append((i, exc))
            return outcomes
    except (OSError, ImportError, NotImplementedError, PermissionError):
        # Platforms without working multiprocessing (restricted
        # sandboxes, missing /dev/shm, no fork): same cells, same
        # order, same results — just in this process.
        return [(i, capture(_execute_cell, payload)) for i, payload in indexed]


@dataclass(frozen=True)
class Grid:
    """A declarative experiment grid: labelled config points x batches x
    policies x seeds, at one trace scale.

    *points* maps a label (any hashable: a swept value, a
    ``(profile, latency)`` pair, a placement name) to the machine config
    of that point — the config axis every sweep varies, so sweeping a
    new knob is one more comprehension over *points*.  The axes are
    checked once, here: none may be empty and every policy must be
    known.
    """

    points: Mapping[Hashable, MachineConfig]
    batches: Sequence[str]
    policies: Sequence[str]
    seeds: Sequence[int] = (1,)
    scale: float = 1.0

    def __post_init__(self) -> None:
        # Imported here: experiments imports this module.
        from repro.analysis.experiments import POLICY_FACTORIES

        for axis in ("points", "batches", "policies", "seeds"):
            if not getattr(self, axis):
                raise ConfigError(f"grid axis {axis!r} is empty")
        unknown = [p for p in self.policies if p not in POLICY_FACTORIES]
        if unknown:
            raise ConfigError(f"unknown policies in grid: {unknown}")

    def coordinates(self) -> list[tuple[Hashable, str, int, str]]:
        """Every ``(point, batch, seed, policy)``, in execution order."""
        return [
            (label, batch, seed, policy)
            for label in self.points
            for batch in self.batches
            for seed in self.seeds
            for policy in self.policies
        ]

    def cells(self) -> list[SweepCell]:
        """The grid's cells, in :meth:`coordinates` order."""
        return [
            SweepCell(self.points[label], batch, policy, seed, self.scale)
            for label, batch, seed, policy in self.coordinates()
        ]


Cube = dict[tuple[Hashable, str, str], list[SimulationResult]]
"""``cube[point, batch, policy]`` -> the per-seed results, in seed order."""


def run_grid(
    grid: Grid,
    *,
    workers: int = 1,
    cache: Union[ResultCache, str, Path, None] = None,
    telemetry=None,
    progress: Optional[ProgressFn] = None,
    executor: Optional[str] = None,
    queue_options=None,
) -> Cube:
    """Run every cell of *grid* in one :func:`run_cells` call.

    Every experiment is a projection of the returned cube, so a whole
    experiment shares one pool, one cache pass and one progress count.
    """
    results = run_cells(
        grid.cells(),
        workers=workers,
        cache=cache,
        telemetry=telemetry,
        progress=progress,
        executor=executor,
        queue_options=queue_options,
    )
    cube: Cube = {}
    for (label, batch, _, policy), result in zip(grid.coordinates(), results):
        cube.setdefault((label, batch, policy), []).append(result)
    return cube
