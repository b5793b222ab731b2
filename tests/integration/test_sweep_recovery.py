"""Crash-recovery harness for the distributed sweep backend.

The ISSUE-10 acceptance contract: run a grid with two real worker
subprocesses, SIGKILL one mid-cell, let the lease expire, ``repro sweep
resume`` the grid, and prove that

* the killed worker's claim is reclaimed (``stale reclaimed`` >= 1),
* the final result set is bit-identical to a serial ``run_cells``, and
* no already-cached cell is ever re-executed — checked twice, via the
  cache files' ``st_mtime_ns`` (unchanged across resume) and via the
  ``runner.cells.executed`` / ``runner.cache.hit`` telemetry counters.
"""

import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.analysis.claims import ClaimStore
from repro.analysis.manifest import FailureLog, SweepManifest, scan_progress
from repro.analysis.runner import ResultCache, SweepCell, run_cells
from repro.analysis.store import result_to_dict
from repro.common.config import MachineConfig
from repro.telemetry import Telemetry

pytestmark = pytest.mark.skipif(
    os.name != "posix", reason="SIGKILL process control needs POSIX"
)

LEASE_S = 1.5
N_CELLS = 10
DEADLINE_S = 120.0


def grid_cells():
    config = MachineConfig()
    return [
        SweepCell(
            config=config,
            batch="No_Data_Intensive",
            policy="Sync",
            seed=seed,
            scale=0.2,
        )
        for seed in range(1, N_CELLS + 1)
    ]


def worker_argv(manifest_path, verb):
    argv = [
        sys.executable, "-m", "repro", "sweep", verb,
        "--manifest", str(manifest_path),
        "--lease-s", str(LEASE_S),
    ]
    if verb in ("run", "resume"):
        argv += ["--poll-s", "0.1", "--backoff-s", "0.05"]
    return argv


def worker_env():
    env = dict(os.environ)
    pkg_root = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = pkg_root + os.pathsep + env.get("PYTHONPATH", "")
    return env


def cached_keys(cache, manifest):
    return [k for k in manifest.keys if cache.path_for(k).exists()]


def claim_pids(claims_root):
    """pid of every live claim file, keyed by path."""
    pids = {}
    for path in claims_root.glob("*.claim"):
        try:
            pids[path] = json.loads(path.read_text(encoding="utf-8"))["pid"]
        except (OSError, ValueError, KeyError):
            continue
    return pids


def test_sigkill_mid_grid_resume_is_bit_identical(tmp_path):
    cells = grid_cells()
    cache = ResultCache(tmp_path / "cache")
    manifest = SweepManifest(
        name="recovery", cache_dir=str(cache.root), cells=cells
    )
    manifest_path = manifest.save(tmp_path / "manifest.json")

    # Serial baseline, separate cache: the ground truth result set.
    baseline = run_cells(cells, cache=ResultCache(tmp_path / "baseline"))

    # Two real workers; --max-cells keeps them from draining the grid
    # so the post-crash resume is guaranteed to have work left.
    argv = worker_argv(manifest_path, "run") + ["--workers", "1", "--max-cells", "4"]
    env = worker_env()
    workers = [subprocess.Popen(argv, env=env) for _ in range(2)]
    by_pid = {p.pid: p for p in workers}

    # Kill one worker as soon as (a) some cells are cached -- so there
    # is pre-crash state to protect -- and (b) it demonstrably holds a
    # claim, so it dies mid-cell and leaves a stale lease behind.
    claims_root = cache.root / "claims"
    victim = None
    deadline = time.monotonic() + DEADLINE_S
    while victim is None and time.monotonic() < deadline:
        if len(cached_keys(cache, manifest)) >= 2:
            for path, pid in claim_pids(claims_root).items():
                if pid in by_pid and by_pid[pid].poll() is None:
                    killed = by_pid.pop(pid)
                    killed.kill()  # SIGKILL: no cleanup, claim left behind
                    killed.wait()
                    if pid in claim_pids(claims_root).values():
                        victim = killed
                    else:
                        # Between the read and the kill it released its
                        # claim, or exited after --max-cells: it left no
                        # stale lease, so a fresh worker takes its place
                        # and the hunt goes on.
                        replacement = subprocess.Popen(argv, env=env)
                        by_pid[replacement.pid] = replacement
                    break
        time.sleep(0.01)
    assert victim is not None, "never caught a worker holding a claim"

    for survivor in by_pid.values():
        assert survivor.wait(timeout=DEADLINE_S) == 0

    # Mid-crash audit: grid incomplete, victim's stale claim on disk.
    claims = ClaimStore(cache.root / "claims", lease_s=LEASE_S)
    failures = FailureLog(cache.root / "failures")
    progress = scan_progress(manifest, cache, claims, failures)
    assert not progress.complete
    assert progress.claimed + progress.stale >= 1  # the orphaned claim
    pre_crash = {
        key: cache.path_for(key).stat().st_mtime_ns
        for key in cached_keys(cache, manifest)
    }
    assert len(pre_crash) >= 2

    # Resume: must reclaim the stale lease and finish the grid.
    resume = subprocess.run(
        worker_argv(manifest_path, "resume") + ["--workers", "1"],
        env=env,
        capture_output=True,
        text=True,
        timeout=DEADLINE_S,
    )
    assert resume.returncode == 0, resume.stderr
    match = re.search(r"(\d+) stale reclaimed", resume.stderr)
    assert match is not None, resume.stderr
    assert int(match.group(1)) >= 1, "stale claim was not reclaimed"

    progress = scan_progress(manifest, cache, claims, failures)
    assert progress.complete
    assert progress.stale == 0 and progress.claimed == 0

    # Zero recomputation, proof 1: the cache files of every pre-crash
    # cell are byte-for-byte untouched (atomic writes would have moved
    # st_mtime_ns had anything been rewritten).
    for key, mtime_ns in pre_crash.items():
        assert cache.path_for(key).stat().st_mtime_ns == mtime_ns

    # Zero recomputation, proof 2 + bit-identical results: assembling
    # the grid through the queue executor is pure cache hits and equals
    # the serial baseline exactly.
    telemetry = Telemetry(events=False)
    resumed = run_cells(
        cells, cache=cache, executor="queue", telemetry=telemetry
    )
    assert telemetry.counter("runner.cells.executed").value == 0
    assert telemetry.counter("runner.cache.hit").value == N_CELLS
    assert [result_to_dict(r) for r in resumed] == [
        result_to_dict(r) for r in baseline
    ]


def test_status_verb_reports_recovery_state(tmp_path):
    """`repro sweep status` renders done/stale counts a recovery
    operator can act on (spot-check of the CLI surface)."""
    cells = grid_cells()[:2]
    cache = ResultCache(tmp_path / "cache")
    manifest = SweepManifest(name="st", cache_dir=str(cache.root), cells=cells)
    manifest_path = manifest.save(tmp_path / "manifest.json")
    run_cells([cells[0]], cache=cache)  # one cell done
    status = subprocess.run(
        worker_argv(manifest_path, "status"),
        env=worker_env(),
        capture_output=True,
        text=True,
        timeout=DEADLINE_S,
    )
    assert status.returncode == 0, status.stderr
    assert "1/2 done" in status.stdout
    assert "1 pending" in status.stdout
