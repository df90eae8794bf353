"""Run every workload over a range of seeds and summarize the spread.

    python3 perfbench/baseline.py --seeds 101-110 [--workloads a,b] [--out FILE]

Runs ``run.py`` once per (workload, seed) with ``--trace 0`` and the
``run_seconds`` of ``BENCHMARK.json``, one run at a time, then one
``--trace 1`` run per workload on the first seed.  Prints, per workload
and end-to-end metric, the median, the quartiles (``statistics.quantiles``,
n=4) and their distance as a share of the median, against the metric's
bound.  ``--out`` writes all of it, with every run's values, as JSON.
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


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    env = [ln for ln in lines if ln.startswith("environment: ")]
    result["environment"] = json.loads(env[0].split(": ", 1)[1]) if env else {}
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed ops\n{proc.stdout}")
    return result


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", required=True, type=seed_range, help="e.g. 101-110")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--out")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    summary: dict = {"run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        environment = None
        for seed in args.seeds:
            res = run_once(workload, seed, seconds, 0)
            environment = environment or res["environment"]
            runs.append({k: m["value"] for k, m in res["metrics"].items()})
            print(f"{workload} seed {seed}: " + " ".join(f"{k}={v:.5g}" for k, v in runs[-1].items()),
                  flush=True)
        stats = {}
        for name in bounds:
            values = [r[name] for r in runs]
            med = statistics.median(values)
            q1, _q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            stats[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                           "bound": bounds[name]}
            flag = "" if name == "setup_s" or spread < bounds[name] / 3 else "  (over a third of the bound)"
            print(f"  {name:18s} median {med:11.5g}  q1 {q1:11.5g}  q3 {q3:11.5g}  "
                  f"spread {spread:.3f} / bound {bounds[name]}{flag}", flush=True)
        traced = run_once(workload, args.seeds[0], seconds, 1)
        summary["workloads"][workload] = {
            "environment": environment,
            "end_to_end": stats,
            "runs": runs,
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
        }
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
