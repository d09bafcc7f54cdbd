"""Run the benchmark over several seeds and summarize the spread.

    python3 perfbench/collect.py --workloads score-2d score-3d --seeds 0 1 2 3 4 \\
        [--traced-seeds 0 1] [--out perfbench/baseline.json]

Runs ``run.py`` once per workload and seed, one process at a time, with the
run length from ``BENCHMARK.json``.  For each end-to-end metric it reports the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the spread,
the distance between the quartiles as a share of the median, next to a third
of the metric's bound.  ``--traced-seeds`` adds ``--trace 1`` runs and
reports each per-layer metric per seed.  Every printed metric name and unit
is checked against ``BENCHMARK.json``.
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


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The run's JSON result plus its exit code and its full record."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=900, cwd=ROOT)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["exit_code"] = done.returncode
    record = HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    result["record"] = json.loads(record.read_text())
    return result


def check_names(result: dict, declared: list[dict]) -> None:
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        raise SystemExit(f"metrics {got} do not match BENCHMARK.json {want}")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", nargs="+", type=int, required=True)
    p.add_argument("--traced-seeds", nargs="*", type=int, default=[])
    p.add_argument("--out", default=None)
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    summary = {"run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    ok = True
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            result = run_once(workload, seed, seconds, 0)
            check_names(result, spec["end_to_end"])
            ok &= result["correct"] and result["exit_code"] == 0
            runs.append(result)
            print(workload, seed, result["correct"], result["attempted"],
                  {k: round(v["value"], 4) for k, v in result["metrics"].items()}, flush=True)
        stats = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            stats[m["name"]] = {"unit": m["unit"], "median": median, "q1": q1, "q3": q3,
                                "spread": spread, "bound": m["bound"], "values": values}
            flag = "" if spread < m["bound"] / 3 else "  <-- spread above a third of the bound"
            print(f"  {m['name']}: median {median:.6g} {m['unit']}, spread {spread:.3f}"
                  f" (bound/3 {m['bound'] / 3:.3f}){flag}", flush=True)
        traced = {}
        for seed in args.traced_seeds:
            result = run_once(workload, seed, seconds, 1)
            check_names(result, spec["per_layer"])
            ok &= result["correct"] and result["exit_code"] == 0
            traced[str(seed)] = {k: v["value"] for k, v in result["metrics"].items()}
            print(workload, "traced", seed, result["correct"], flush=True)
        summary["env"] = {k: v for k, v in runs[0]["record"]["env"].items() if k != "seed"}
        raw = {k: statistics.median(r["record"]["raw_seconds"][k] for r in runs)
               for k in runs[0]["record"]["raw_seconds"]}
        summary["workloads"][workload] = {
            "why": next(w["why"] for w in spec["workloads"] if w["name"] == workload),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "end_to_end": stats,
            "raw_seconds_median": raw,
            "per_layer_by_seed": traced,
        }
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
