import decimal
import importlib.util
import json
import math
import os
import subprocess
import sys
from decimal import Decimal
from importlib import import_module
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oamring
from oamring import cli
from oamring.cli import main, run

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden"
SCALES = st.floats(1e-6, 1e6)

MINIMAL = """
[ring]
radius = 2 um
width = 60 nm
depth = 10 nm

[material]
pair_density = 2.1e28 /m^3
london_depth = 50 nm
skin_depth = 7 nm

[beam]
oam_index = 1
polarization = linear-x
intensity = 6.6e-3 W/cm^2

[simulation]
t_final = 2 ps
tol = 1e-9
mode = rwa
n_max = 6
"""


def test_feasibility_matches_golden_table():
    code, text = run(["feasibility"])
    assert code == 0
    assert text == GOLDEN.joinpath("feasibility_paper_design.txt").read_text()


def test_feasibility_matches_golden_json():
    code, text = run(["--format", "json", "feasibility"])
    assert code == 0
    assert text == GOLDEN.joinpath("feasibility_paper_design.json").read_text()


def test_selection_matches_golden_json():
    code, text = run(["--format", "json", "selection"])
    assert code == 0
    assert text == GOLDEN.joinpath("selection_paper_design.json").read_text()


@pytest.mark.parametrize("command", ["spectrum", "rabi", "czgate"])
def test_report_matches_golden_json(command):
    code, text = run(["--format", "json", command])
    assert code == 0
    assert text == GOLDEN.joinpath(f"{command}_paper_design.json").read_text()


@pytest.mark.parametrize("command", ["spectrum", "selection", "rabi"])
def test_report_matches_golden_table(command):
    code, text = run([command])
    assert code == 0
    assert text == GOLDEN.joinpath(f"{command}_paper_design.txt").read_text()


def test_selection_initial_outside_basis_is_usage_error():
    code, text = run(["selection", "--initial", "9"])
    assert code == 1
    assert text == "error: levels (9, 9) outside truncated basis |n| <= 8\n"


def test_selection_has_three_resonances():
    code, text = run(["--format", "json", "selection"])
    payload = json.loads(text)
    assert [row[:2] for row in payload["rows"]] == [[2, 1], [2, 2], [4, 2]]


def test_selection_left_circular_empty(tmp_path):
    cfg = tmp_path / "lc.cfg"
    cfg.write_text(MINIMAL.replace("linear-x", "left-circular"),
                   encoding="utf-8")
    code, text = run(["--config", str(cfg), "--format", "json", "selection"])
    assert code == 0
    assert json.loads(text)["rows"] == []


def test_feasibility_reports_conventions():
    code, text = run(["--format", "json", "feasibility"])
    payload = json.loads(text)
    conventions = " ".join(payload["conventions"])
    assert "paper-consistent" in conventions
    assert "angular" in conventions and "2 pi" in conventions


def test_penetration_check_fails_for_deep_wire(tmp_path):
    cfg = tmp_path / "deep.cfg"
    cfg.write_text(MINIMAL.replace("depth = 10 nm", "depth = 100 nm"),
                   encoding="utf-8")
    code, text = run(["--config", str(cfg), "--format", "json", "feasibility"])
    assert code == 0
    payload = json.loads(text)
    checks = {c["name"]: c["status"] for c in payload["checks"]}
    assert checks["optical_penetration"] == "fail"


def test_penetration_check_marginal_for_paper_design():
    code, text = run(["--format", "json", "feasibility"])
    payload = json.loads(text)
    checks = {c["name"]: c["status"] for c in payload["checks"]}
    assert checks["optical_penetration"] == "marginal"
    assert checks["thin_wire_width"] == "pass"
    assert checks["dipole_formula_range"] == "pass"


def test_near_field_separation_is_a_failed_check_not_a_warning(tmp_path):
    # 15 um is under 10 r: the report says so, and no command warns (the
    # test settings turn a warning into an error)
    cfg = tmp_path / "near.cfg"
    cfg.write_text(MINIMAL + "\n[two_qubit]\nring_separation = 15 um\n",
                   encoding="utf-8")
    for command in ("feasibility", "spectrum", "selection", "rabi",
                    "dynamics", "czgate"):
        code, text = run(["--config", str(cfg), "--format", "json", command])
        assert code == 0, command
        if command == "feasibility":
            checks = {c["name"]: c for c in json.loads(text)["checks"]}
            assert checks["dipole_formula_range"]["status"] == "fail"
            assert checks["dipole_formula_range"]["detail"] == \
                "d_R = 15 um vs 10 r = 20 um"


def test_spectrum_csv():
    code, text = run(["--format", "csv", "spectrum", "--n-levels", "2"])
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0].startswith("n,E_n [J],I_n [A]")
    assert len(lines) == 6   # header + n in [-2..2]


def test_rabi_sweep_scales_with_sqrt_intensity():
    code, text = run(["--format", "json", "rabi", "--points", "3",
                      "--min-scale", "1", "--max-scale", "4"])
    payload = json.loads(text)
    rows = payload["rows"]
    assert rows[2][3] == pytest.approx(2.0 * rows[0][3], rel=1e-12)


def test_rabi_with_amplitude_config_emits_null_intensity(tmp_path):
    cfg = tmp_path / "amp.cfg"
    cfg.write_text(MINIMAL.replace("intensity = 6.6e-3 W/cm^2",
                                   "amplitude = 8.6e-14"), encoding="utf-8")
    code, text = run(["--config", str(cfg), "--format", "json", "rabi",
                      "--points", "2"])
    assert code == 0
    assert "NaN" not in text
    payload = json.loads(text)
    assert payload["rows"][0][1] is None
    # table format renders the missing column as a dash
    code, table = run(["--config", str(cfg), "rabi", "--points", "2"])
    assert code == 0 and " -" in table


def test_peak_field_convention_halves_amplitude(tmp_path):
    base = tmp_path / "base.cfg"
    base.write_text(MINIMAL, encoding="utf-8")
    alt = tmp_path / "peak.cfg"
    alt.write_text(MINIMAL + "\n[conventions]\n"
                   "intensity_convention = peak-field\n", encoding="utf-8")

    def rabi_ghz(path):
        _, text = run(["--config", str(path), "--format", "json",
                       "feasibility"])
        payload = json.loads(text)
        by_name = {q["name"]: q["value"] for q in payload["quantities"]}
        return by_name["A0"], by_name["rabi_Omega"]

    a0_base, omega_base = rabi_ghz(base)
    a0_peak, omega_peak = rabi_ghz(alt)
    assert a0_peak == pytest.approx(a0_base / 2, rel=1e-15)
    assert omega_peak == pytest.approx(omega_base / 2, rel=1e-15)


def test_dynamics_zero_intensity_static(tmp_path):
    cfg = tmp_path / "dark.cfg"
    cfg.write_text(MINIMAL.replace("6.6e-3 W/cm^2", "0 W/cm^2"),
                   encoding="utf-8")
    code, text = run(["--config", str(cfg), "--format", "json", "dynamics",
                      "--samples", "5"])
    assert code == 0
    payload = json.loads(text)
    names = [c["name"] for c in payload["columns"]]
    p0_column = [row[names.index("P_0")] for row in payload["rows"]]
    assert p0_column == [1.0] * 5


def test_dynamics_table_runs():
    code, text = run(["dynamics", "--samples", "4", "--t-final", "1e-12"])
    assert code == 0
    assert "P_2" in text and "dipole" in text


@pytest.mark.parametrize("mode, t_final", [("rwa", "1e-12"),
                                            ("full", "1e-11")])
def test_dynamics_zero_samples_is_usage_error(mode, t_final):
    code, text = run(["dynamics", "--samples", "0", "--mode", mode,
                      "--t-final", t_final])
    assert code == 1
    assert text.startswith("error:") and "n_samples" in text


@pytest.mark.parametrize("mode", ["rwa", "full"])
@pytest.mark.parametrize("t_final", ["nan", "inf"])
def test_dynamics_non_finite_t_final_is_usage_error(mode, t_final):
    code, text = run(["dynamics", "--mode", mode, "--t-final", t_final])
    assert code == 1
    assert text == "error: t_final must be finite\n"


@pytest.mark.parametrize("mode, t_final", [("full", "1e294"),
                                            ("rwa", "1e300")])
def test_dynamics_t_final_past_float_periods_is_usage_error(mode, t_final):
    # finite seconds, but the count of drive periods overflows to inf
    code, text = run(["dynamics", "--mode", mode, "--t-final", t_final])
    assert code == 1
    assert text.startswith("error: t_final = ") and text.count("\n") == 1
    assert "finite number of drive periods" in text


@pytest.mark.parametrize("argv", [
    ["czgate", "--t-total", "1e300"],                   # phi_cp is inf
    ["rabi", "--min-scale", "1e308", "--max-scale", "1.7e308"],  # intensity
    ["dynamics", "--t-final", "1e293"],                 # RWA, dipole is nan
], ids=" ".join)
def test_json_report_with_non_finite_number_is_numerical_error(argv):
    code, text = run(["--format", "json", *argv])
    assert code == 2
    assert text.startswith("error: ") and text.count("\n") == 1
    assert "not finite" in text
    # table keeps printing the value as text
    code, text = run(argv)
    assert code == 0
    assert "inf" in text or "nan" in text


@pytest.mark.parametrize("t_total", ["nan", "inf", "-inf"])
def test_czgate_non_finite_t_total_is_usage_error(t_total):
    code, text = run(["czgate", f"--t-total={t_total}", "--samples", "2"])
    assert code == 1
    assert text.startswith("error: --t-total must be a non-negative finite")


@pytest.mark.parametrize("argv", [
    ["spectrum", "--n-levels", "-2"],
    ["rabi", "--points", "0"],
    ["czgate", "--samples", "0"],
    ["rabi", "--min-scale", "0"],
    ["rabi", "--min-scale", "-0.5"],
    ["rabi", "--min-scale", "nan"],
    ["rabi", "--max-scale", "-3"],
    ["rabi", "--max-scale", "inf"],
], ids=" ".join)
def test_bad_count_or_scale_is_usage_error(argv):
    # a count below its minimum or a scale that is not positive and finite
    # names its flag instead of printing an empty or numpy-made report
    code, text = run(argv)
    assert code == 1
    assert text.startswith(f"error: {argv[1]} must be ")


def test_non_finite_config_number_is_usage_error(tmp_path):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text(MINIMAL.replace("intensity = 6.6e-3 W/cm^2",
                                   "intensity = 6.6e-3 W/cm^2\ndetuning = nan"),
                   encoding="utf-8")
    for command in ("feasibility", "dynamics"):
        code, text = run(["--config", str(cfg), command])
        assert code == 1
        assert text.startswith("error: beam.detuning:") and "finite" in text


def test_non_positive_drive_frequency_names_detuning(tmp_path):
    cfg = tmp_path / "red.cfg"
    cfg.write_text(MINIMAL.replace("intensity = 6.6e-3 W/cm^2",
                                   "intensity = 6.6e-3 W/cm^2\n"
                                   "detuning = -3e15 rad/s"),
                   encoding="utf-8")
    for command in ("feasibility", "dynamics"):
        code, text = run(["--config", str(cfg), command])
        assert code == 1
        assert text.startswith("error: beam.detuning: omega_20 + detuning "
                               "must be positive, got -")


@pytest.mark.parametrize("argv, usage, message", [
    (["dynamics", "--samples", "abc"], "usage: oamring dynamics ",
     "argument --samples: invalid int value: 'abc'"),
    (["--format", "xml", "dynamics"], "usage: oamring ",
     "argument --format: invalid choice: 'xml'"),
    (["nosuch"], "usage: oamring ",
     "argument command: invalid choice: 'nosuch'"),
], ids=["bad-int", "bad-format", "bad-command"])
def test_parser_error_is_usage_error(capsys, argv, usage, message):
    # argparse exits 2 by default, which is the numerical-failure code
    code, text = run(argv)
    assert code == 1
    assert text.startswith(usage)
    assert f"\nerror: {message}" in text and text.endswith("\n")
    assert capsys.readouterr() == ("", "")
    assert main(argv) == 1
    assert capsys.readouterr().err == text


@pytest.mark.parametrize("argv", [["--help"], ["dynamics", "-h"]])
def test_help_is_returned_with_exit_zero(capsys, argv):
    code, text = run(argv)
    assert code == 0
    assert text.startswith("usage: oamring ") and "\noptions:\n" in text
    assert capsys.readouterr() == ("", "")
    assert main(argv) == 0
    assert capsys.readouterr().out == text


def _fresh_python(script, env=os.environ):
    """Stdout of ``script`` run by a new interpreter that imports src/."""
    env = dict(env, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_rwa_dynamics_imports_no_scipy():
    # the closed-form RWA path needs numpy alone; importing scipy would add
    # to every cold start
    script = ("import sys\n"
              "from oamring.cli import run\n"
              "code, _ = run(['dynamics', '--mode', 'rwa', '--samples', '50'])\n"
              "print(code, 'scipy' in sys.modules)\n")
    assert _fresh_python(script).split() == ["0", "False"]


def test_scalar_commands_import_no_numpy(tmp_path):
    # every command but dynamics, --help and config or usage errors compute
    # nothing with arrays, and numpy is most of a cold start
    bad = tmp_path / "bad.cfg"
    bad.write_text(MINIMAL.replace("tol = 1e-9", "tol = 1e-3"),
                   encoding="utf-8")
    script = f"""
import sys
import oamring, oamring.cli, oamring.config, oamring.workbench
import oamring.ring, oamring.beam, oamring.coupling, oamring.twoqubit
from oamring.cli import run

def check(argv, code):
    assert run(argv)[0] == code, argv
    assert 'numpy' not in sys.modules, argv

check([], 1)
for command in ('feasibility', 'spectrum', 'selection', 'rabi', 'czgate'):
    for fmt in ('table', 'json', 'csv'):
        check(['--format', fmt, command], 0)
check(['rabi', '--points', '1'], 0)
check(['rabi', '--min-scale', '10', '--max-scale', '0.1'], 0)
check(['rabi', '--min-scale', '2', '--max-scale', '2'], 0)
check(['czgate', '--samples', '1'], 0)
check(['czgate', '--t-total', '0'], 0)
check(['czgate', '--t-total', '3.7e-9'], 0)
check(['--config', {str(bad)!r}, 'feasibility'], 1)
check(['spectrum', '--n-levels', 'x'], 1)
check(['--help'], 0)
assert run(['dynamics', '--mode', 'rwa', '--samples', '3'])[0] == 0
print('numpy' in sys.modules)
"""
    assert _fresh_python(script).split() == ["True"]


@st.composite
def scale_sweeps(draw):
    """(min, max, points) with the scales in either order, equal or a few
    ulp apart, where rounding could carry a point past an endpoint."""
    start = draw(SCALES)
    stop = draw(st.one_of(SCALES, st.just(start), st.integers(-4, 4).map(
        lambda ulps: start * (1.0 + ulps * sys.float_info.epsilon))))
    return start, stop, draw(st.integers(1, 60))


@settings(max_examples=200)
@given(scale_sweeps())
def test_rabi_grid_is_geometric_between_its_ends(sweep):
    start, stop, num = sweep
    grid = cli._geomspace(start, stop, num)
    assert len(grid) == num
    assert grid[0] == start and grid[-1] == (stop if num > 1 else start)
    assert grid == sorted(grid, reverse=start > stop)
    # log10 of an end is rounded to a few ulp of itself, and pow turns that
    # absolute error into a relative one, so the bound grows with |log10|
    bound = 8 * sys.float_info.epsilon * (
        1 + max(abs(math.log10(start)), abs(math.log10(stop))))
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        a, b = Decimal(start), Decimal(stop)
        for k, point in enumerate(grid):
            exact = a * (b / a) ** (Decimal(k) / max(num - 1, 1))
            assert abs(Decimal(point) / exact - 1) <= bound, (k, point)


# sweep ends: both zeros, the subnormals and the normal floats up to 1e308
SWEEP_ENDS = st.one_of(st.sampled_from([0.0, -0.0]),
                       st.floats(0.0, sys.float_info.min, exclude_max=True),
                       st.floats(0.0, 1e308))


@settings(max_examples=300)
@given(SWEEP_ENDS, st.integers(1, 300))
def test_czgate_sweep_is_numpy_linspace(stop, num):
    import numpy as np
    sweep = cli._linspace(stop, num)
    ref = np.linspace(0.0, stop, num).tolist()
    # bit for bit, the sign of a zero included
    assert [math.copysign(1.0, p) for p in sweep] == \
        [math.copysign(1.0, p) for p in ref]
    assert sweep == ref


def test_rabi_grid_is_numpy_geomspace_on_libm():
    # numpy's geomspace computes the same formula, but with its AVX-512
    # log10 and power loops it differs from libm in the last bits; with
    # every dispatched loop off, whatever names this numpy gives its CPU
    # targets, the two agree bit for bit, once numpy's points are clamped to
    # the endpoints as the grid's are
    from numpy._core._multiarray_umath import __cpu_dispatch__
    script = """
import random
import numpy as np
from oamring.cli import _geomspace

rng = random.Random(13)
for _ in range(2000):
    start = 10.0 ** rng.uniform(-6, 6)
    stop = rng.choice([10.0 ** rng.uniform(-6, 6), start,
                       start * (1.0 + rng.randint(-4, 4) * 2.0 ** -52)])
    lo, hi = min(start, stop), max(start, stop)
    num = rng.randint(1, 60)
    ref = [min(max(p, lo), hi) for p in np.geomspace(start, stop, num).tolist()]
    assert _geomspace(start, stop, num) == ref, (start, stop, num)
print('ok')
"""
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(__cpu_dispatch__))
    assert _fresh_python(script, env).split() == ["ok"]


def test_package_names_load_lazily_from_their_modules(monkeypatch):
    for name in [*oamring._LAZY, *oamring._SUBMODULES]:
        monkeypatch.delitem(vars(oamring), name, raising=False)
    listed = dir(oamring)
    names = {name: getattr(oamring, name) for name in oamring.__all__}
    for name, value in names.items():
        if callable(value):
            assert value.__module__.startswith("oamring."), name
            assert getattr(import_module(value.__module__), name) is value
    assert {name for name, value in names.items() if not callable(value)} \
        == {"DEFAULT_N_MAX", "__version__"}
    assert names["DEFAULT_N_MAX"] is oamring.ring.DEFAULT_N_MAX

    star = {}
    exec("from oamring import *", star)
    assert all(star[name] is value for name, value in names.items())
    assert set(names) <= set(listed)
    assert {"dynamics", "_kernels", "fields", "czgate"} <= set(listed)
    for name in listed:
        getattr(oamring, name)
    for module in (oamring, cli):
        with pytest.raises(AttributeError):
            module.no_such_name


def _tracer_hooks():
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.HOOKS


def test_tracer_hooks_resolve_on_the_cli(monkeypatch):
    # the benchmark's tracer replaces these names on oamring.cli, where the
    # commands look them up; each must be the library function itself
    for name in cli._LAZY:
        monkeypatch.delitem(vars(cli), name, raising=False)
    targets = [attr for module, attr, _ in _tracer_hooks()
               if module == "oamring.cli"]
    assert {"evolve", "dipole_moment", "cz_fidelity"} <= set(targets)
    for attr in targets:
        fn = getattr(cli, attr)
        assert fn.__module__.startswith("oamring."), attr
        assert getattr(import_module(fn.__module__), fn.__name__) is fn


def test_patched_evolve_is_the_one_dynamics_calls(monkeypatch):
    monkeypatch.delitem(vars(cli), "evolve", raising=False)
    real, calls = cli.evolve, []

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "evolve", spy)
    code, _ = run(["dynamics", "--samples", "5"])
    assert code == 0
    assert len(calls) == 1


def test_czgate_reaches_unit_fidelity():
    code, text = run(["--format", "json", "czgate", "--samples", "5"])
    assert code == 0
    payload = json.loads(text)
    final = payload["rows"][-1]
    assert final[1] == pytest.approx(3.141592653589793, rel=1e-12)
    assert 1.0 - final[2] < 1e-10


def test_czgate_without_two_qubit_section(tmp_path, capsys):
    cfg = tmp_path / "single.cfg"
    cfg.write_text(MINIMAL, encoding="utf-8")
    assert main(["--config", str(cfg), "czgate"]) == 1
    assert "two_qubit" in capsys.readouterr().err


def test_validation_error_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(MINIMAL.replace("width = 60 nm", "width = -60 nm"),
                   encoding="utf-8")
    assert main(["--config", str(cfg), "feasibility"]) == 1
    assert "width" in capsys.readouterr().err


def test_numerical_error_exit_code(tmp_path, capsys):
    # explicit wire radius far above 8r/e^2 makes the formula break down
    cfg = tmp_path / "thick.cfg"
    cfg.write_text(MINIMAL + "\n[conventions]\n"
                   "effective_radius_rule = explicit\n"
                   "explicit_radius = 1 m\n", encoding="utf-8")
    assert main(["--config", str(cfg), "feasibility"]) == 2
    assert "thin-wire" in capsys.readouterr().err


def test_norm_drift_is_a_numerical_error():
    # 4.3e7 drive periods: powering the monodromy that often drifts the norm
    # past 10 tol by rounding alone
    code, text = run(["dynamics", "--mode", "full", "--t-final", "1e-7",
                      "--samples", "3"])
    assert code == 2
    assert text.startswith("error: state not normalized: ")
    assert text.count("\n") == 1


def test_out_flag_writes_file(tmp_path):
    out = tmp_path / "report.json"
    code, text = run(["--format", "json", "--out", str(out), "feasibility"])
    assert code == 0
    assert text == ""
    assert json.loads(out.read_text())["command"] == "feasibility"


@pytest.mark.parametrize("flag", ["--out", "--dump-config"])
def test_unwritable_path_is_usage_error(tmp_path, flag):
    path = tmp_path / "missing" / "report"
    code, text = run([flag, str(path), "feasibility"])
    assert code == 1
    assert text.startswith(f"error: cannot write {path}: ")
    assert text.count("\n") == 1


def test_config_round_trip_bitwise(tmp_path):
    resolved = tmp_path / "resolved.cfg"
    code, first = run(["--format", "json", "--dump-config", str(resolved),
                       "feasibility"])
    assert code == 0
    code, second = run(["--config", str(resolved), "--format", "json",
                        "feasibility"])
    assert code == 0
    assert first == second


def test_reports_deterministic():
    for argv in (["--format", "json", "feasibility"],
                 ["--format", "json", "spectrum"],
                 ["--format", "json", "czgate", "--samples", "4"]):
        _, a = run(argv)
        _, b = run(argv)
        assert a == b
