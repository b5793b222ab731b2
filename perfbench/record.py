"""Record the benchmark's pinned digests and its baseline numbers.

    python3 perfbench/record.py digests
    python3 perfbench/record.py baseline

``digests`` simulates every workload's cells at its pinned seed and
writes their result digests to ``perfbench/pinned.json``; for
``hot_loop`` it also checks once that the reference engine gives the
same digests as the fast engine.  ``baseline`` runs ``run.py`` once per
seed (1 to 10) and workload, interleaving workloads so host drift hits all of
them alike, then one traced run per workload at its pinned seed, and
writes each end-to-end metric's median and quartiles, its spread
(interquartile range over median) and the per-layer numbers to
``perfbench/baseline.json``.  Run both
from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))


def record_digests() -> dict:
    import dataclasses

    from repro import with_engine
    from repro.analysis.runner import run_cells
    from workloads import WORKLOADS, CellWorkload, build, digest_of, synthesize

    pinned = {}
    for name, workload in WORKLOADS.items():
        cells = workload.cells(workload.pinned_seed)
        if isinstance(workload, CellWorkload):
            results = [build(cell, synthesize(cell)).run() for cell in cells]
        else:
            results = run_cells(cells, workers=workload.workers)
        digests = {c.describe(): digest_of(r) for c, r in zip(cells, results)}
        entry = {"seed": workload.pinned_seed, "digests": digests}
        if name == "hot_loop":
            reference = [
                dataclasses.replace(cell, config=with_engine(cell.config, "reference"))
                for cell in cells
            ]
            same = all(
                digest_of(build(cell, synthesize(cell)).run()) == digests[fast.describe()]
                for cell, fast in zip(reference, cells)
            )
            if not same:
                raise SystemExit("hot_loop: the reference engine's digest differs")
            entry["reference_engine_matches"] = same
        pinned[name] = entry
        print(f"{name}: {len(digests)} digests at seed {workload.pinned_seed}")
    return pinned


def _run(name: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [
        sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
    if done.returncode != 0:
        raise SystemExit(f"{name} seed {seed} failed:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{name} seed {seed} incorrect:\n{done.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()}


SEEDS = list(range(1, 11))
"""The seeds ``baseline`` runs each workload at."""


def record_baseline() -> dict:
    from workloads import WORKLOADS

    names = list(WORKLOADS)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs: dict[str, list[dict]] = {name: [] for name in names}
    for seed in SEEDS:
        for name in names:
            runs[name].append(_run(name, seed, spec["run_seconds"], 0))
            print(f"{name} seed {seed}: {runs[name][-1]}", flush=True)

    summary = {}
    for name in names:
        rows = {}
        for metric in bounds:
            values = [run[metric] for run in runs[name]]
            q1, mid, q3 = statistics.quantiles(values, n=4)
            rows[metric] = {
                "median": statistics.median(values),
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / statistics.median(values),
            }
            spread = rows[metric]["spread"]
            flag = "ok" if spread < bounds[metric] / 3 else "WIDE"
            print(f"{name:12s} {metric:18s} median {rows[metric]['median']:12.6g} "
                  f"spread {spread:.3f} bound {bounds[metric]} {flag}")
        traced = _run(name, WORKLOADS[name].pinned_seed, spec["run_seconds"], 1)
        summary[name] = {"seeds": SEEDS, "end_to_end": rows, "per_layer": traced}
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("what", choices=("digests", "baseline"))
    args = parser.parse_args()
    sys.path.insert(0, str(HERE))
    if args.what == "digests":
        data, out = record_digests(), HERE / "pinned.json"
    else:
        data, out = record_baseline(), HERE / "baseline.json"
    out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
