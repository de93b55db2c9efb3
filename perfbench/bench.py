"""The timed and traced runs of one workload.

Imported by ``run.py`` only after it has capped the thread count and put the
checkout's ``src`` first on ``sys.path``.
"""

import importlib.util
import json
import os
import platform
import resource
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import numpy
import oamring
import oamring.cli

import stats
import workloads
from calibrate import Calibration, numpy_task
from layers import layer_metrics
from tracer import Tracer

# Ops whose counts the traced run reports; always run, so counts repeat.
COUNTED_OPS = {"full_drive": 6, "rwa_dense": 6, "cli_cold": 18}
WARMUP_INDEX = 1_000_000
PROBE_REPEATS = 5

# Spawn to first op ready: interpreter, import, bundled config load + resolve.
SETUP_PROBE = ("import oamring, oamring.cli\n"
               "oamring.resolve(oamring.load_bundled_config())\n"
               "print('ready', flush=True)")
IMPORT_PROBE = "import oamring\nprint('ready', flush=True)"
BARE_PROBE = "print('ready', flush=True)"


def child_env(src: Path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    env["PYTHONIOENCODING"] = "utf-8"
    return env


def ready_time(code, cwd, env):
    """Seconds from spawning ``python -c code`` until it prints ``ready``."""
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], cwd=cwd, env=env,
                            stdout=subprocess.PIPE)
    watchdog = threading.Timer(workloads.OP_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.close()
        proc.wait()
    finally:
        watchdog.cancel()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"probe exited with code {proc.returncode}: {code!r}")
    return elapsed


def machine(thread_cap):
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    backend = getattr(getattr(oamring, "_kernels", None), "active_backend", None)
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernel_backend": backend() if callable(backend) else None,
        "thread_cap": thread_cap,
    }


class Bench:
    def __init__(self, workload, seed, seconds, root: Path, workdir: Path):
        self.workload = workload
        self.seconds = seconds
        self.root = root
        self.workdir = workdir
        self.cold = workload == "cli_cold"
        self.env = child_env(root / "src")
        self.gen = workloads.Generator(workload, seed, workdir, oamring)
        self.failures = []
        self.samples = {}            # raw per-op data for the run's record
        self.spawn_cal = Calibration(
            "spawn", lambda: ready_time(BARE_PROBE, root, self.env))
        self.op_cal = (self.spawn_cal if self.cold
                       else Calibration("numpy", numpy_task))

    def probe_median(self, code):
        """Median calibrated seconds of ``PROBE_REPEATS`` probes of ``code``."""
        times = []
        for _ in range(PROBE_REPEATS):
            wall, scale = self.spawn_cal.around(
                lambda: ready_time(code, self.root, self.env))
            times.append(wall * scale)
        return stats.median(times)

    def run_op(self, op, spans_path=None):
        if self.cold:
            outcome = workloads.run_cold(oamring.cli, op, self.root, self.env,
                                         self.workdir, spans_path)
        else:
            outcome = workloads.run_inprocess(oamring.cli, op)
        self.failures.append(outcome.failure)
        if outcome.failure is not None:
            print(f"op {op.index} failed: {outcome.failure}", file=sys.stderr)
        return outcome

    def calibrated_op(self, op, spans_path=None):
        """Run one op; returns its outcome and its calibrated wall time."""
        outcome, scale = self.op_cal.around(lambda: self.run_op(op, spans_path))
        return outcome, outcome.wall * scale

    def timed(self):
        """Closed loop for ``seconds`` of op time; end-to-end metrics and notes."""
        setup_s = self.probe_median(SETUP_PROBE)
        if not self.cold:
            self.run_op(self.gen.make(WARMUP_INDEX))
        raw, walls, periods, rss_kb = [], [], 0.0, 0
        while sum(raw) < self.seconds:
            op = self.gen.make(len(walls))
            outcome, wall = self.calibrated_op(op)
            raw.append(outcome.wall)
            walls.append(wall)
            periods += op.periods
            rss_kb = max(rss_kb, outcome.maxrss_kb)
        if not self.cold:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        busy = sum(walls)
        tail_s, tail_pct = stats.tail(walls)
        self.samples = {"op_wall_s": raw,
                        f"{self.op_cal.kind}_reference_s": self.op_cal.samples}
        metrics = {
            "op_s_p50": stats.median(walls),
            "op_s_tail": tail_s,
            "ops_per_s": len(walls) / busy,
            "sim_periods_per_s": periods / busy,
            "setup_s": setup_s,
            "peak_rss_mb": rss_kb / 1024.0,
        }
        notes = {"op_s_tail": f"p{tail_pct:.1f} of {len(walls)} ops",
                 "sim_periods_per_s": f"{periods:.1f} periods",
                 "raw_op_s_p50": f"{stats.median(raw):.6g} s uncalibrated",
                 "raw_ops_per_s": f"{len(raw) / sum(raw):.6g} 1/s uncalibrated"}
        return metrics, notes

    def traced_op(self, tracer, op):
        tracer.op = op.index
        if not self.cold:
            tracer.install()
        spans_path = self.workdir / "spans.json"
        spans_path.unlink(missing_ok=True)
        try:
            with tracer.span("op"):
                outcome = self.run_op(op, spans_path if self.cold else None)
                if self.cold and spans_path.exists():
                    with open(spans_path, encoding="utf-8") as fh:
                        tracer.absorb(json.load(fh), op.index)
        finally:
            tracer.restore()
        return outcome

    def traced(self, spans_out: Path):
        """Each input traced and untraced, in alternating order; per-layer
        metrics and notes."""
        counted = COUNTED_OPS[self.workload]
        tracer = Tracer()
        if not self.cold:
            self.run_op(self.gen.make(WARMUP_INDEX))
        ops, traced_raw, traced_s, untraced_s = [], 0.0, 0.0, 0.0
        while len(ops) < counted or traced_raw < self.seconds / 2:
            op = self.gen.make(len(ops))
            if op.index % 2:
                untraced_s += self.calibrated_op(op)[1]
            outcome, scale = self.op_cal.around(lambda: self.traced_op(tracer, op))
            traced_raw += outcome.wall
            traced_s += outcome.wall * scale
            if not op.index % 2:
                untraced_s += self.calibrated_op(op)[1]
            op.output_bytes = outcome.output_bytes
            ops.append(op)
        import_s = self.probe_median(IMPORT_PROBE) - self.probe_median(BARE_PROBE)
        metrics = layer_metrics(tracer.spans, tracer.missing, ops, counted,
                                import_s, traced_s / untraced_s - 1.0,
                                time_scale=traced_s / traced_raw)
        tracer.dump(spans_out)
        notes = {"traced_ops": str(len(ops)), "counted_ops": str(counted),
                 "speed_factor": f"{traced_s / traced_raw:.4f} ({self.op_cal.kind})"}
        if tracer.missing:
            notes["missing_hooks"] = ", ".join(sorted(tracer.missing))
        return metrics, notes
