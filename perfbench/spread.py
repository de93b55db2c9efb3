"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py [--workloads full_drive,cli_cold] [--seeds 10]
                                [--first-seed 1] [--seconds S]

Runs ``run.py --trace 0`` once per seed and workload, one after another, and
prints for each metric the median, the quartile spread (Q3 - Q1) / median
and the metric's bound from BENCHMARK.json.  The raw values are written to
``.perfbench_out/spread-<workload>.json``.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed ops")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        (ROOT / ".perfbench_out" / f"spread-{workload}.json").write_text(
            json.dumps(values, indent=2) + "\n", encoding="utf-8")
        print(f"{workload}: {args.seeds} seeds")
        for name, vals in values.items():
            print(f"  {name:<20} median {stats.median(vals):<12.6g} spread "
                  f"{stats.quartile_spread(vals):7.4f}  bound {bounds[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
