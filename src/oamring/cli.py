"""Command-line workbench.

Subcommands: feasibility, spectrum, selection, rabi, dynamics, czgate.
Global flags: --config, --format {table,json,csv}, --out, --dump-config.
Exit codes: 0 success, 1 config/usage validation, 2 numerical failure.
"""

import argparse
import csv
import io
import json
import math
import sys
from importlib import import_module
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .beam import azimuthal_component
from .config import (DEFAULT_SAMPLES, MODES, dumps_config, load_bundled_config,
                     load_config)
from .constants import SPEED_OF_LIGHT
from .coupling import rabi_frequency, resonance_catalog
from .errors import ConfigError, OamRingError
from .ring import (level_energy, level_supercurrent,
                   transition_angular_frequency)
from .twoqubit import controlled_phase, cz_fidelity, cz_gate_time
from .workbench import (FeasibilityReport, ResolvedModel,
                        build_feasibility_report, resolve)

SCHEMA = "oamring.report/1"

# Names only dynamics uses.  They load on first use, numpy as ``np`` and the
# others from the package (which knows where each lives), so every other
# command, --help and config errors run without numpy.
_LAZY = ("np", "StateVector", "evolve", "dipole_moment")


def __getattr__(name):
    """Load a name of ``_LAZY`` and keep it in the module globals.

    The commands read these names through ``_cli``, so a name replaced on
    this module (``oamring.cli.evolve = ...``) is the one they call, loaded
    or not.
    """
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = (import_module("numpy") if name == "np"
             else getattr(import_module("oamring"), name))
    globals()[name] = value
    return value


_cli = sys.modules[__name__]


class CommandResult(NamedTuple):
    """Uniform tabular payload every subcommand produces."""

    command: str
    columns: List[Tuple[str, str]]          # (name, unit)
    rows: List[List[object]]
    meta: Dict[str, str]
    feasibility: Optional[FeasibilityReport] = None


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _render_table(result: CommandResult) -> str:
    lines = [f"# {result.command}"]
    for key, val in result.meta.items():
        lines.append(f"# {key}: {val}")
    if result.feasibility is not None:
        rep = result.feasibility
        lines.append("")
        lines.append("quantities:")
        width = max(len(q.name) for q in rep.quantities)
        for q in rep.quantities:
            lines.append(f"  {q.name:<{width}}  {_fmt(q.value)} {q.unit}")
        lines.append("")
        lines.append("checks:")
        width = max(len(c.name) for c in rep.checks)
        for c in rep.checks:
            lines.append(f"  {c.name:<{width}}  {c.status:<8}  {c.detail}")
        lines.append("")
        lines.append("conventions:")
        for text in rep.conventions:
            lines.append(f"  - {text}")
        lines.append("")
        return "\n".join(lines)

    headers = [f"{name} [{unit}]" if unit else name
               for name, unit in result.columns]
    str_rows = [[_fmt(v) for v in row] for row in result.rows]
    widths = [max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
              for i, h in enumerate(headers)]
    lines.append("")
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    lines.append("")
    return "\n".join(lines)


def _render_csv(result: CommandResult) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    if result.feasibility is not None:
        rep = result.feasibility
        writer.writerow(["kind", "name", "value", "unit_or_status", "detail"])
        for q in rep.quantities:
            writer.writerow(["quantity", q.name, _fmt(q.value), q.unit, ""])
        for c in rep.checks:
            writer.writerow(["check", c.name, "", c.status, c.detail])
        for i, text in enumerate(rep.conventions):
            writer.writerow(["convention", f"convention_{i}", "", "", text])
        return out.getvalue()
    writer.writerow([f"{name} [{unit}]" if unit else name
                     for name, unit in result.columns])
    for row in result.rows:
        writer.writerow([_fmt(v) for v in row])
    return out.getvalue()


def _render_json(result: CommandResult) -> str:
    payload: Dict[str, object] = {
        "schema": SCHEMA,
        "command": result.command,
        "meta": result.meta,
    }
    if result.feasibility is not None:
        rep = result.feasibility
        payload["quantities"] = [
            {"name": q.name, "value": q.value, "unit": q.unit}
            for q in rep.quantities]
        payload["checks"] = [
            {"name": c.name, "status": c.status, "detail": c.detail}
            for c in rep.checks]
        payload["conventions"] = list(rep.conventions)
    else:
        payload["columns"] = [{"name": n, "unit": u} for n, u in result.columns]
        payload["rows"] = result.rows
    return json.dumps(payload, sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


_RENDERERS = {"table": _render_table, "csv": _render_csv, "json": _render_json}


def _at_least(value: int, low: int, flag: str) -> int:
    if value < low:
        raise ValueError(f"{flag} must be at least {low}, got {value}")
    return value


def _scale(value: float, flag: str) -> float:
    if not 0.0 < value < math.inf:
        raise ValueError(f"{flag} must be a positive finite number, got {value}")
    return value


def _geomspace(start: float, stop: float, num: int) -> List[float]:
    """``numpy.geomspace`` of positive floats on libm, clamped to its ends."""
    if num == 1:
        return [start]
    la, lb = math.log10(start), math.log10(stop)
    step = (lb - la) / (num - 1)
    lo, hi = min(start, stop), max(start, stop)
    return [start, *(min(max(10.0 ** (k * step + la), lo), hi)
                     for k in range(1, num - 1)), stop]


def _linspace(stop: float, num: int) -> List[float]:
    """``numpy.linspace(0.0, stop, num)`` of a finite stop, point for point."""
    if num == 1:
        return [0.0]
    div = num - 1
    step = stop / div
    # numpy divides before it scales where the step underflows to zero; its
    # "+ start" turns a -0.0 point into 0.0
    inner = ([k * step for k in range(div)] if step
             else [k / div * stop + 0.0 for k in range(div)])
    return [*inner, stop]


def cmd_feasibility(model: ResolvedModel, args) -> CommandResult:
    report = build_feasibility_report(model)
    return CommandResult("feasibility", [], [], {}, feasibility=report)


def cmd_spectrum(model: ResolvedModel, args) -> CommandResult:
    n_top = min(_at_least(args.n_levels, 0, "--n-levels"),
                model.config.simulation.n_max)
    rows = []
    for n in range(-n_top, n_top + 1):
        rows.append([
            n,
            level_energy(n, model.params),
            level_supercurrent(n, model.params),
            transition_angular_frequency(n, 0, model.params),
            transition_angular_frequency(n, 0, model.params) / (2e9 * math.pi),
        ])
    columns = [("n", ""), ("E_n", "J"), ("I_n", "A"),
               ("omega_n0", "rad/s"), ("f_n0", "GHz")]
    return CommandResult("spectrum", columns, rows, {})


def cmd_selection(model: ResolvedModel, args) -> CommandResult:
    entries = resonance_catalog(azimuthal_component(model.drive),
                                model.params, n_init=args.initial,
                                n_max=model.config.simulation.n_max)
    rows = []
    for e in entries:
        wavelength = 2.0 * math.pi * SPEED_OF_LIGHT / e.required_omega
        rows.append([
            e.final - e.initial, e.order, e.required_omega,
            e.required_omega / (2e9 * math.pi), wavelength * 1e9, e.source,
        ])
    columns = [("delta_n", ""), ("order", ""), ("required_omega", "rad/s"),
               ("required_f", "GHz"), ("wavelength", "nm"), ("source", "")]
    meta = {"initial": str(args.initial),
            "polarization": model.config.beam.polarization,
            "oam_index": str(model.config.beam.oam_index)}
    return CommandResult("selection", columns, rows, meta)


def cmd_rabi(model: ResolvedModel, args) -> CommandResult:
    scales = _geomspace(_scale(args.min_scale, "--min-scale"),
                        _scale(args.max_scale, "--max-scale"),
                        _at_least(args.points, 1, "--points"))
    rows = []
    for s in scales:
        a0 = model.a0_magnitude * math.sqrt(s)
        omega = rabi_frequency(model.params, a0)
        intensity = (model.config.beam.intensity * s
                     if model.config.beam.intensity is not None else None)
        rows.append([s, intensity, a0, omega, omega / (2e9 * math.pi)])
    columns = [("intensity_scale", ""), ("intensity", "W/m^2"),
               ("A0", "kg*m/(s^2*A)"), ("Omega", "rad/s"),
               ("Omega_cyclic", "GHz")]
    return CommandResult("rabi", columns, rows, {})


def cmd_dynamics(model: ResolvedModel, args) -> CommandResult:
    sim = model.config.simulation
    t_final = args.t_final if args.t_final is not None else sim.t_final
    mode = args.mode if args.mode is not None else sim.mode
    initial = _cli.StateVector.from_levels({0: 1.0}, n_max=sim.n_max)
    traj = _cli.evolve(initial, model.drive, model.params, t_final,
                       tol=sim.tol, mode=mode, n_samples=args.samples)
    shown = [n for n in range(-4, 5) if abs(n) <= sim.n_max]
    with _cli.np.errstate(over="ignore", invalid="ignore"):
        # a phase past the float range makes the dipole nan; the report shows it
        dip = _cli.dipole_moment(traj, model.params, traj.times)
    rows = _cli.np.column_stack([
        traj.times, traj.populations[:, [n + sim.n_max for n in shown]],
        traj.norms, _cli.np.hypot(dip[:, 0], dip[:, 1])]).tolist()
    columns = ([("t", "s")] + [(f"P_{n}", "") for n in shown]
               + [("norm", ""), ("dipole", "C*m")])
    meta = {"mode": mode, "tol": repr(sim.tol), "n_max": str(sim.n_max)}
    return CommandResult("dynamics", columns, rows, meta)


def cmd_czgate(model: ResolvedModel, args) -> CommandResult:
    model.config.require_two_qubit()
    two_ring = model.two_ring
    t_cz = cz_gate_time(two_ring)
    t_total = args.t_total if args.t_total is not None else t_cz
    if not 0.0 <= t_total < math.inf:
        raise ValueError(
            f"--t-total must be a non-negative finite number, got {t_total}")
    times = _linspace(t_total, _at_least(args.samples, 1, "--samples"))
    rows = [[t, controlled_phase(t, two_ring), cz_fidelity(two_ring, t)]
            for t in times]
    columns = [("t", "s"), ("phi_cp", "rad"), ("fidelity_cz", "")]
    meta = {"t_CZ": repr(t_cz), "mutual": repr(two_ring.mutual)}
    return CommandResult("czgate", columns, rows, meta)


class _ParserExit(Exception):
    """The parser's answer instead of a run: ``args`` is (exit_code, text)."""


class _Parser(argparse.ArgumentParser):
    # hand help and usage errors back to ``run`` instead of printing and
    # exiting; a usage error exits 1 like every other config or usage error,
    # not argparse's 2 (sub-command parsers share the class)
    def print_help(self, file=None):
        raise _ParserExit(0, self.format_help())

    def error(self, message):
        raise _ParserExit(1, f"{self.format_usage()}error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="oamring",
        description="Workbench for a junction-free superconducting ring qubit "
                    "driven by twisted light.")
    parser.add_argument("--config", metavar="PATH",
                        help="design config file (default: bundled paper-design)")
    parser.add_argument("--format", choices=("table", "json", "csv"),
                        default="table", help="output format")
    parser.add_argument("--out", metavar="PATH",
                        help="write output to a file instead of stdout")
    parser.add_argument("--dump-config", metavar="PATH",
                        help="also write the resolved config (SI units) to PATH")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("feasibility", help="derived design numbers and checks")

    p = sub.add_parser("spectrum", help="level energies and supercurrents")
    p.add_argument("--n-levels", type=int, default=4,
                   help="list windings up to this |n| (default 4)")

    p = sub.add_parser("selection", help="resonant transitions for the drive")
    p.add_argument("--initial", type=int, default=0,
                   help="initial winding number (default 0)")

    p = sub.add_parser("rabi", help="Rabi frequency vs intensity sweep")
    p.add_argument("--min-scale", type=float, default=0.1,
                   help="lowest intensity scale factor (default 0.1)")
    p.add_argument("--max-scale", type=float, default=10.0,
                   help="highest intensity scale factor (default 10)")
    p.add_argument("--points", type=int, default=7,
                   help="number of sweep points (default 7)")

    p = sub.add_parser("dynamics", help="driven population dynamics from |0>")
    p.add_argument("--t-final", type=float, default=None,
                   help="run duration in seconds (default: config)")
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES,
                   help="number of sample times (default %(default)s)")
    p.add_argument("--mode", choices=MODES, default=None,
                   help="override the config evolution mode")

    p = sub.add_parser("czgate", help="controlled-phase accumulation")
    p.add_argument("--t-total", type=float, default=None,
                   help="sweep end time in seconds (default: gate time)")
    p.add_argument("--samples", type=int, default=21,
                   help="number of sweep points (default 21)")
    return parser


_COMMANDS = {
    "feasibility": cmd_feasibility,
    "spectrum": cmd_spectrum,
    "selection": cmd_selection,
    "rabi": cmd_rabi,
    "dynamics": cmd_dynamics,
    "czgate": cmd_czgate,
}


def _write(path: str, text: str) -> Tuple[int, str]:
    """Write ``text`` to ``path``: (0, "") or (1, an error line)."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        return 1, f"error: cannot write {path}: {exc.strerror or exc}\n"
    return 0, ""


def run(argv: Optional[Sequence[str]] = None) -> Tuple[int, str]:
    """Execute a command line; returns (exit_code, output_text)."""
    try:
        args = build_parser().parse_args(argv)
    except _ParserExit as exc:
        return exc.args
    try:
        if args.config is not None:
            config = load_config(args.config)
        else:
            config = load_bundled_config()
        model = resolve(config)
        if args.dump_config:
            code, error = _write(args.dump_config, dumps_config(config))
            if code:
                return code, error
        result = _COMMANDS[args.command](model, args)
    except ConfigError as exc:
        return 1, f"error: {exc}\n"
    except ValueError as exc:
        return 1, f"error: {exc}\n"
    except OamRingError as exc:
        return 2, f"error: {exc}\n"
    try:
        text = _RENDERERS[args.format](result)
    except ValueError:      # json met an inf or nan, which it cannot hold
        return 2, ("error: the report holds a number that is not finite, "
                   "which JSON cannot carry; --format table or csv prints it\n")
    if args.out:
        return _write(args.out, text)
    return 0, text


def main(argv: Optional[Sequence[str]] = None) -> int:
    code, text = run(argv)
    stream = sys.stdout if code == 0 else sys.stderr
    stream.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
