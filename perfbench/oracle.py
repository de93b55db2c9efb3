"""Oracles for dynamics reports, independent of the integrator under test.

The qubit is the |0>, |2> pair driven from |0>.  Its reference is the
detuned two-level (Rabi) formula

    P_2(t) = (Omega / W)^2 sin^2(W t / 2),   W = sqrt(Omega^2 + Delta^2),

with Omega the on-resonance Rabi rate and Delta the drive detuning.  Beside
it every report must keep the norm within 10 tol of 1, leave the unaddressed
level -2 empty, and show no in-plane dipole, because the qubit subspace has
no adjacent windings and is therefore dark.

Table and csv reports print six significant digits; each comparison against
a printed value is widened by half a unit in that value's last printed digit.
JSON reports carry every digit and are compared without widening.
"""

import csv
import io
import json
import math
import re
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

COOPER_CHARGE = 2.0 * 1.602176634e-19     # C, 2 e (exact in SI)

# Largest P_2 deviation from the two-level formula that still passes.
P2_GATE = {"full": 1e-3, "rwa": 1e-6}
LEAK_GATE = 1e-6            # P(-2)
DIPOLE_GATE = 1e-9          # in units of q* N* r


def two_level_p2(t, omega: float, delta: float):
    """Population of the upper level of a detuned two-level system."""
    w = math.hypot(omega, delta)
    return (omega / w) ** 2 * np.sin(0.5 * w * np.asarray(t, dtype=float)) ** 2


def print_resolution(values, fmt: str):
    """Half a unit in the last of six significant digits (0 for json)."""
    values = np.abs(np.asarray(values, dtype=float))
    if fmt == "json":
        return np.zeros_like(values)
    with np.errstate(divide="ignore"):
        exponent = np.floor(np.log10(np.where(values > 0.0, values, 1.0)))
    return np.where(values > 0.0, 0.5 * 10.0 ** (exponent - 5), 0.0)


def parse_report(text: str, fmt: str) -> Tuple[List[str], np.ndarray]:
    """Column names (units stripped) and the numeric rows of a tabular report."""
    if fmt == "json":
        payload = json.loads(text)
        names = [c["name"] for c in payload["columns"]]
        rows = payload["rows"]
    elif fmt == "csv":
        records = list(csv.reader(io.StringIO(text)))
        names = [h.split(" [")[0] for h in records[0]]
        rows = records[1:]
    elif fmt == "table":
        lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
        names = [h.split(" [")[0] for h in re.split(r"\s{2,}", lines[0].strip())]
        rows = [ln.split() for ln in lines[2:]]
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return names, np.asarray(rows, dtype=float).reshape(len(rows), len(names))


@dataclass(frozen=True)
class DynamicsExpectation:
    """What a ``dynamics`` report must show for one generated input."""

    mode: str            # "full" or "rwa"
    fmt: str             # report format
    t_final: float       # s
    samples: int
    tol: float
    omega: float         # on-resonance Rabi rate, rad/s
    delta: float         # drive detuning, rad/s
    dipole_scale: float  # q* N* r, C m


def check_dynamics(text: str, exp: DynamicsExpectation) -> List[str]:
    """Every way the report misses its oracle; empty when it passes."""
    names, rows = parse_report(text, exp.fmt)
    missing = {"t", "P_-2", "P_2", "norm", "dipole"} - set(names)
    if missing:
        return [f"missing columns {sorted(missing)}"]
    if rows.shape[0] != exp.samples:
        return [f"{rows.shape[0]} rows, expected {exp.samples}"]
    col = {name: rows[:, names.index(name)] for name in names}
    times = np.linspace(0.0, exp.t_final, exp.samples)
    res = {name: print_resolution(v, exp.fmt) for name, v in col.items()}

    bad = []

    def gate(label, excess):
        worst = float(np.max(excess))
        if worst > 0.0:
            bad.append(f"{label} exceeds its gate by {worst:.3e}")

    gate("t", np.abs(col["t"] - times) - res["t"] - 1e-12 * exp.t_final)
    gate("P_2 vs two-level formula",
         np.abs(col["P_2"] - two_level_p2(times, exp.omega, exp.delta))
         - res["P_2"] - P2_GATE[exp.mode])
    gate("norm", np.abs(col["norm"] - 1.0) - res["norm"] - 10.0 * exp.tol)
    gate("P_-2", col["P_-2"] - res["P_-2"] - LEAK_GATE)
    gate("dipole", np.abs(col["dipole"]) - res["dipole"]
         - DIPOLE_GATE * exp.dipole_scale)
    return bad
