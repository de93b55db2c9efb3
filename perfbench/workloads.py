"""Seeded inputs for the workloads and the closed-loop runners that time them.

Every op is made from ``(workload, seed, op index)`` alone, so a replay of
the same index gets the same config file and arguments.  What sets an op's
cost (command, format, ``n_max``, run length, samples, intensity) follows a
fixed schedule over the op index: stratified (golden-ratio style) sequences
that cover each range evenly within a few ops.  Every run thus measures the
same mix of sizes, and a run-to-run difference is the program's or the
machine's, not the draw's.  The seed draws everything else: polarization,
drive phase, detuning, separation, conventions, command options and the
kind of invalid config.
"""

import math
import os
import random
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import List, Optional

from oracle import COOPER_CHARGE, DynamicsExpectation, check_dynamics

OP_TIMEOUT_S = 120.0
FORMATS = ("table", "json", "csv")
N_MAX_CHOICES = (8, 12, 16)
COLD_COMMANDS = ("feasibility", "spectrum", "selection", "rabi", "czgate",
                 "dynamics")
INVALID_EVERY = 10          # op i is an invalid config when i % 10 == 9

# Bundled paper-design point; generated configs vary the beam around it.
BASE_RING = {"radius": "2 um", "width": "60 nm", "depth": "10 nm"}
BASE_MATERIAL = {"pair_density": "2.1e28 /m^3", "london_depth": "50 nm",
                 "skin_depth": "7 nm"}
BASE_INTENSITY_W_CM2 = 6.6e-3

_STEPS = ((math.sqrt(5.0) - 1.0) / 2.0, math.sqrt(2.0) - 1.0,
          math.sqrt(3.0) - 1.0)


@dataclass
class Op:
    index: int
    argv: List[str]
    periods: float = 0.0             # drive-carrier periods simulated
    samples: int = 0                 # sample times requested from dynamics
    expect_code: int = 0
    expect: Optional[DynamicsExpectation] = None
    output_bytes: int = 0            # filled in by the traced run


@dataclass
class Outcome:
    wall: float
    failure: Optional[str]
    output_bytes: int = 0
    maxrss_kb: int = 0


def config_text(sections) -> str:
    out = []
    for name, items in sections.items():
        out.append(f"[{name}]")
        out.extend(f"{key} = {value}" for key, value in items.items())
        out.append("")
    return "\n".join(out)


class Generator:
    """Makes the ops of one workload for one seed, writing configs to ``workdir``."""

    def __init__(self, workload: str, seed: int, workdir: Path, oamring):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.oamring = oamring
        base = oamring.resolve(oamring.load_bundled_config())
        self.base_rabi = oamring.rabi_frequency(base.params, base.a0_magnitude)
        self.make = {"full_drive": self.full_drive, "rwa_dense": self.rwa_dense,
                     "cli_cold": self.cli_cold}[workload]

    @staticmethod
    def _stratified(i: int, k: int) -> float:
        return ((i + 0.5) * _STEPS[k]) % 1.0

    def _rng(self, i: int) -> random.Random:
        return random.Random(f"{self.workload}:{self.seed}:{i}")

    def _beam(self, i, rng, polarizations=("linear-x", "linear-y")):
        scale = 0.5 + 1.5 * self._stratified(i, 2)      # sets Omega and steps
        detuning = rng.uniform(-1.0, 1.0) * self.base_rabi * math.sqrt(scale)
        return {"oam_index": "1",
                "polarization": rng.choice(polarizations),
                "intensity": f"{BASE_INTENSITY_W_CM2 * scale!r} W/cm^2",
                "phase": f"{rng.uniform(0.0, 2.0 * math.pi)!r} rad",
                "detuning": f"{detuning!r} rad/s"}

    def _write(self, i: int, sections) -> str:
        path = self.workdir / f"op{i}.cfg"
        path.write_text(config_text(sections), encoding="utf-8")
        return str(path)

    def _dynamics(self, i, path, mode, tol, fmt, t_final, samples):
        model = self.oamring.resolve(self.oamring.load_config(path))
        omega = self.oamring.rabi_frequency(model.params, model.a0_magnitude)
        t = t_final(omega, model.omega_drive)
        expect = DynamicsExpectation(
            mode=mode, fmt=fmt, t_final=t, samples=samples, tol=tol,
            omega=omega, delta=model.omega_drive - model.omega_resonance,
            dipole_scale=(COOPER_CHARGE * model.params.n_pairs
                          * model.config.design.radius))
        argv = ["--config", path, "--format", fmt, "dynamics",
                "--t-final", repr(t), "--samples", str(samples)]
        return Op(index=i, argv=argv,
                  periods=t * model.omega_drive / (2.0 * math.pi),
                  samples=samples, expect=expect)

    def _sim(self, mode, tol, n_max):
        return {"tol": repr(tol), "mode": mode, "n_max": str(n_max)}

    def full_drive(self, i: int) -> Op:
        rng = self._rng(i)
        n_max = N_MAX_CHOICES[i % 3]
        periods = 150.0 + 150.0 * self._stratified(i, 0)
        path = self._write(i, {"ring": BASE_RING, "material": BASE_MATERIAL,
                               "beam": self._beam(i, rng),
                               "simulation": self._sim("full", 1e-6, n_max)})
        return self._dynamics(
            i, path, "full", 1e-6, "json",
            lambda omega, w: periods * 2.0 * math.pi / w, rng.randint(90, 110))

    def rwa_dense(self, i: int) -> Op:
        rng = self._rng(i)
        n_max = N_MAX_CHOICES[i % 3]
        fmt = FORMATS[(i // 3) % 3]
        rabi_periods = 1.0 + 2.0 * self._stratified(i, 0)
        samples = 1000 + int(3001 * self._stratified(i, 1))
        path = self._write(i, {"ring": BASE_RING, "material": BASE_MATERIAL,
                               "beam": self._beam(i, rng),
                               "simulation": self._sim("rwa", 1e-9, n_max)})
        return self._dynamics(
            i, path, "rwa", 1e-9, fmt,
            lambda omega, w: rabi_periods * 2.0 * math.pi / omega, samples)

    def cli_cold(self, i: int) -> Op:
        rng = self._rng(i)
        command = COLD_COMMANDS[i % len(COLD_COMMANDS)]
        fmt = FORMATS[(i // len(COLD_COMMANDS)) % len(FORMATS)]
        n_max = N_MAX_CHOICES[(i // 18) % 3]
        sections = {
            "ring": BASE_RING, "material": BASE_MATERIAL,
            "beam": self._beam(i, rng, ("linear-x", "linear-y", "right-circular",
                                     "left-circular")),
            "two_qubit": {"ring_separation": f"{rng.uniform(0.05, 0.2)!r} mm"},
            "simulation": self._sim("rwa", 1e-9, n_max),
            "conventions": {
                "intensity_convention": rng.choice(("paper-consistent",
                                                    "peak-field")),
                "effective_radius_rule": rng.choice(("rosa", "half-mean"))},
        }
        invalid = i % INVALID_EVERY == INVALID_EVERY - 1
        if invalid:
            _break_config(sections, rng)
        path = self._write(i, sections)
        head = ["--config", path, "--format", fmt]
        if command == "dynamics" and not invalid:
            periods = 300.0 + 600.0 * self._stratified(i, 0)
            samples = 21 + int(41 * self._stratified(i, 1))
            op = self._dynamics(
                i, path, "rwa", 1e-9, fmt,
                lambda omega, w: periods * 2.0 * math.pi / w, samples)
            op.expect = None     # checked against the in-process run instead
            return op
        args = {
            "feasibility": [],
            "spectrum": ["--n-levels", str(rng.randint(2, 6))],
            "selection": ["--initial", str(rng.choice((-1, 0, 1)))],
            "rabi": ["--points", str(rng.randint(5, 15))],
            "czgate": ["--samples", str(rng.randint(11, 41))],
            "dynamics": ["--samples", "21"],
        }[command]
        return Op(index=i, argv=head + [command] + args,
                  expect_code=1 if invalid else 0)


def _break_config(sections, rng):
    """Make one schema violation that the CLI must reject with exit code 1."""
    kind = rng.choice(("tol", "n_max", "unknown_key", "missing_beam",
                       "bad_unit", "thick_wire", "intensity_and_amplitude"))
    if kind == "tol":
        sections["simulation"] = dict(sections["simulation"], tol="1e-3")
    elif kind == "n_max":
        sections["simulation"] = dict(sections["simulation"], n_max="0")
    elif kind == "unknown_key":
        sections["beam"] = dict(sections["beam"], waist="1 um")
    elif kind == "missing_beam":
        del sections["beam"]
    elif kind == "bad_unit":
        sections["ring"] = dict(sections["ring"], radius="2 furlong")
    elif kind == "thick_wire":
        sections["ring"] = dict(sections["ring"], width="0.5 um")
    else:
        sections["beam"] = dict(sections["beam"], amplitude="8.6e-14 Wb/m")


def check_inprocess(op: Op, code: int, text: str) -> Optional[str]:
    if code != op.expect_code:
        return f"exit code {code}, expected {op.expect_code}: {text[:200]!r}"
    if op.expect is not None:
        bad = check_dynamics(text, op.expect)
        if bad:
            return "; ".join(bad)
    return None


def run_inprocess(cli, op: Op) -> Outcome:
    """One op through ``oamring.cli.run`` in this process, then its oracle."""
    start = perf_counter()
    try:
        code, text = cli.run(op.argv)
    except Exception as exc:     # an op that raises is a failed op
        return Outcome(perf_counter() - start, f"raised {exc!r}")
    wall = perf_counter() - start
    try:
        failure = check_inprocess(op, code, text)
    except Exception as exc:
        failure = f"unreadable report: {exc!r}"
    return Outcome(wall, failure, output_bytes=len(text.encode("utf-8")))


def spawn(argv, cwd, env, stdout, stderr):
    """Run a child to completion; returns (exit code, wall s, peak RSS in KiB)."""
    start = perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=stdout, stderr=stderr)
    watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


def run_cold(cli, op: Op, root: Path, env, workdir: Path,
             spans_path: Optional[Path] = None) -> Outcome:
    """One op as a fresh ``python -m oamring`` process, checked byte for byte
    against ``oamring.cli.run`` on the same arguments in this process.

    With ``spans_path`` the child runs under ``traced_cli.py``, which installs
    the layer hooks and writes its spans there.
    """
    if spans_path is None:
        argv = [sys.executable, "-m", "oamring", *op.argv]
    else:
        argv = [sys.executable, str(Path(__file__).with_name("traced_cli.py")),
                str(spans_path), *op.argv]
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        code, wall, rss = spawn(argv, root, env, out, err)
    stream = (out_path if code == 0 else err_path).read_bytes()
    outcome = Outcome(wall, None, output_bytes=len(stream), maxrss_kb=rss)
    try:
        ref_code, ref_text = cli.run(op.argv)
    except Exception as exc:
        outcome.failure = f"in-process reference raised {exc!r}"
        return outcome
    if code != op.expect_code or ref_code != op.expect_code:
        outcome.failure = (f"exit code {code} (in-process {ref_code}), expected "
                           f"{op.expect_code}: {err_path.read_bytes()[:200]!r}")
    elif stream != ref_text.encode("utf-8"):
        outcome.failure = "cold output differs from the in-process output"
    return outcome
