"""Benchmark of the oamring workbench, run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (perfbench/README.md says why each was chosen):
  full_drive  full-mode (non-RWA) dynamics through ``oamring.cli.run``
  rwa_dense   RWA dynamics with thousands of samples through ``oamring.cli.run``
  cli_cold    one cold ``python -m oamring`` process per op

Load is a closed loop: one client in one process sends the next op when the
previous one returns.  Each op's output is checked against an oracle and a
failed check counts as a failed op.  With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it runs each input once with the
layer hooks installed and once without, and reports per-layer metrics.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller record, with the machine
description and raw wall times, goes to ``.perfbench_out/`` in the checkout.
"""

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

import stats
from layers import PER_LAYER

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("full_drive", "rwa_dense", "cli_cold")
# BLAS and worker threads per process.  The load is one client, so one thread
# keeps timings steady on a small machine and never exceeds nproc.
THREAD_CAP = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMBA_NUM_THREADS")
END_TO_END_UNITS = {"op_s_p50": "s", "op_s_tail": "s", "ops_per_s": "1/s",
                    "sim_periods_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "oamring" / "__init__.py").is_file():
        print(f"perfbench: no oamring package under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(THREAD_CAP)
    sys.path.insert(0, str(SRC))
    import bench
    import oamring
    if Path(oamring.__file__).resolve().parent != SRC / "oamring":
        print(f"perfbench: imported oamring from {oamring.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        run = bench.Bench(args.workload, args.seed, args.seconds, ROOT, workdir)
        if args.trace:
            values, notes = run.traced(OUT / f"spans-{args.workload}.json")
            units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        else:
            values, notes = run.timed()
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = stats.count_failures(run.failures)
    env = bench.machine(THREAD_CAP)
    metrics = {}
    for name, unit in units.items():
        value = values[name]
        metrics[name] = ({"value": value, "unit": unit} if value is not None
                         else {"value": None, "unit": unit, "absent": True})
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "machine": env,
              "attempted": attempted, "failed": failed,
              "failed_frac": failed / attempted, "metrics": metrics,
              "notes": notes, "samples": run.samples}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"machine: {json.dumps(env)}")
    print(f"workload {args.workload}, seed {args.seed}: {attempted} ops, "
          f"{failed} failed")
    rows = list(metrics.items())
    if not args.trace:
        rows.append(("failed_frac", {"value": failed / attempted, "unit": "1"}))
    for name, m in rows:
        shown = "absent" if m["value"] is None else f"{m['value']:.6g}"
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<26} {shown:>12} {m['unit']}{note}")
    for key in sorted(set(notes) - set(metrics)):
        print(f"  {key}: {notes[key]}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
