"""Run one workload of the simulator's benchmark and print its metrics.

    python3 perfbench/run.py --workload its_cell --seed 1 --seconds 24 --trace 0

Run from the root of a checkout; the simulator is imported from
``src/``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a
separate traced run with ``--trace 1``.  Digests of unpinned seeds are
printed on the lines before it.

    python3 perfbench/run.py --list              # every metric, unit, tag
    python3 perfbench/run.py --workload all      # every workload, a table

See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench"
"""Scratch space inside the checkout: result caches and trace output."""

PINNED = HERE / "pinned.json"
"""Result digests of each workload at its pinned seed."""


def _load_simulator() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no simulator sources at {ROOT / 'src' / 'repro'}")
    sys.path.insert(0, str(ROOT / "src"))


def _pinned_digests(name: str, seed: int):
    """The pinned digests for (workload, seed), or None if unpinned."""
    try:
        entry = json.loads(PINNED.read_text())[name]
    except (OSError, KeyError, ValueError):
        return None
    return entry["digests"] if entry["seed"] == seed else None


def run_one(name: str, seed: int, seconds: float, traced: bool) -> dict:
    from workloads import WORKLOADS, Checker

    workload = WORKLOADS[name]
    checker = Checker(_pinned_digests(name, seed))
    workdir = WORKDIR / f"{name}-seed{seed}"
    if traced:
        metrics, tracer = workload.trace(seed, seconds, workdir, checker)
        WORKDIR.mkdir(exist_ok=True)
        out = WORKDIR / f"trace-{name}-seed{seed}.json"
        out.write_text(json.dumps({**tracer.to_dict(), "metrics": metrics}))
        print(f"trace written to {out.relative_to(ROOT)}")
    else:
        metrics = workload.measure(seed, seconds, workdir, checker)
    shutil.rmtree(workdir, ignore_errors=True)
    return {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }


def _catalogue() -> list[tuple[str, str, str, str]]:
    from layers import PER_LAYER
    from workloads import E2E_METRICS

    rows = [(n, u, b, k) for n, u, b, k in E2E_METRICS]
    rows += [(n, u, "-", "layer") for n, u in PER_LAYER]
    return rows


def _report(seed, seconds: float, traced: bool) -> int:
    """Run every workload in its own process and print one table."""
    from workloads import WORKLOADS

    units = {n: (u, k) for n, u, _, k in _catalogue()}
    status = 0
    for name, workload in WORKLOADS.items():
        run_seed = workload.pinned_seed if seed is None else seed
        argv = [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(run_seed), "--seconds", str(seconds),
            "--trace", "1" if traced else "0",
        ]
        done = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{name}: failed\n{done.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        print(
            f"{name} (seed {run_seed}): correct={result['correct']} "
            f"attempted={result['attempted']} failed={result['failed']} "
            f"failed_frac={result['failed'] / result['attempted']:.4g}"
        )
        for metric, entry in result["metrics"].items():
            unit, kind = units[metric]
            print(f"  {metric:36s} {entry['value']:>16.6g} {unit:6s} {kind}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's pinned seed)")
    parser.add_argument("--seconds", type=float, default=24.0,
                        help="length of the measured phase (BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--list", action="store_true",
                        help="print every metric with its unit and host/sim tag")
    args = parser.parse_args(argv)
    _load_simulator()
    if args.list:
        for name, unit, better, kind in _catalogue():
            print(f"{name:36s} {unit:6s} {better:6s} {kind}")
        return 0
    if args.workload == "all":
        return _report(args.seed, args.seconds, bool(args.trace))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of: all, {', '.join(WORKLOADS)}")
    seed = WORKLOADS[args.workload].pinned_seed if args.seed is None else args.seed
    result = run_one(args.workload, seed, args.seconds, bool(args.trace))
    units = dict((n, u) for n, u, _, _ in _catalogue())
    result["metrics"] = {
        name: {"value": value, "unit": units[name]}
        for name, value in result["metrics"].items()
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
