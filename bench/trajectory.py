"""Runs the benchmark on ten seeds per workload and records the spread.

    python3 bench/trajectory.py [--out FILE]

For every workload of BENCHMARK.json and every end-to-end metric it prints
the median over seeds 1 to 10, the quartiles (run.quartiles, which is
statistics.quantiles with n=4) and the quartile distance as a share of the
median, next to the metric's bound.  With --out it also writes those
figures, the stamp and every run's metrics as one JSON file: a point of the
bench trajectory.
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
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = range(1, 11)

sys.path.insert(0, str(HERE))

from run import quartiles  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    point = {"run_seconds": SPEC["run_seconds"], "seeds": list(SEEDS), "workloads": {}}
    status = 0
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = []
        for seed in SEEDS:
            cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            lines = done.stdout.splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
                status = 1
                continue
            point["stamp"] = json.loads(lines[-2])["stamp"]
            runs.append(json.loads(lines[-1]))
        summary = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            if len(values) < 2:
                continue
            q1, median, q3 = quartiles(values)
            summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
                             "bound": bound, "unit": runs[0]["metrics"][name]["unit"], "runs": len(values)}
            print(f"{workload:10s} {name:16s} median {median:10.5g} q1 {q1:10.5g} q3 {q3:10.5g} "
                  f"spread {(q3 - q1) / median:6.3f} (bound {bound})", flush=True)
        point["workloads"][workload] = {
            "summary": summary,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "runs": [r["metrics"] for r in runs],
        }
    if args.out:
        args.out.write_text(json.dumps(point, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
