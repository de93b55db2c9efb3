"""Per-layer metrics computed from the spans of a traced run.

Times are seconds per op, averaged over every traced op.  Counts (calls,
steps, bytes) are totals over the first ``counted`` ops of the run, which are
the same inputs for a given seed, so a count repeats exactly between runs of
one program.  A metric whose spans could not be hooked is reported as absent.
"""

from collections import defaultdict

from stats import self_time
from tracer import COUNTS, END, NAME, OP, PARENT, START

_LIBRARY = ("config.load", "workbench.resolve", "workbench.report",
            "dynamics.evolve", "dynamics.dipole", "twoqubit.czgate")
_STEPS = ("kernels.integrate", "kernels.integrate.counts")
# name -> (unit, what it is computed from)
PER_LAYER = {
    "kernels.integrate_s": ("s", ("kernels.integrate",)),
    "kernels.steps": ("count", _STEPS),
    "kernels.us_per_step": ("us", _STEPS),
    "kernels.steps_per_period": ("1", _STEPS),
    "kernels.steps_per_sample": ("1", _STEPS),
    "dynamics.evolve_calls": ("count", ("dynamics.evolve",)),
    "dynamics.evolve_self_s": ("s", ("dynamics.evolve", "kernels.integrate",
                                     "coupling.terms")),
    "dynamics.dipole_calls": ("count", ("dynamics.dipole",)),
    "dynamics.dipole_s": ("s", ("dynamics.dipole",)),
    "coupling.terms_calls": ("count", ("coupling.terms",)),
    "coupling.terms_s": ("s", ("coupling.terms",)),
    "config.load_s": ("s", ("config.load",)),
    "workbench.resolve_s": ("s", ("workbench.resolve",)),
    "workbench.report_s": ("s", ("workbench.report",)),
    "twoqubit.czgate_s": ("s", ("twoqubit.czgate",)),
    "cli.import_s": ("s", ()),
    "cli.run_s": ("s", ("cli.run",)),
    "cli.self_s": ("s", ("cli.run",) + _LIBRARY),
    "cli.output_bytes": ("bytes", ()),
    "trace.overhead_frac": ("1", ()),
}


def layer_metrics(spans, missing, ops, counted, import_s, overhead_frac,
                  time_scale=1.0):
    """Every PER_LAYER metric as ``{name: value}``, None where absent.

    ``ops`` holds one record per traced op with ``index``, ``periods``,
    ``samples`` and ``output_bytes``.  Span times are multiplied by
    ``time_scale`` (the run's machine-speed factor); ``import_s`` is taken
    as given.
    """
    n_ops = len(ops)
    first = {op.index for op in ops if op.index < counted}
    busy = defaultdict(float)        # span name -> seconds, all ops
    calls = defaultdict(int)         # span name -> calls, first ops
    steps_all = steps_first = 0
    children = defaultdict(list)
    for i, s in enumerate(spans):
        busy[s[NAME]] += s[END] - s[START]
        if s[PARENT] is not None:
            children[s[PARENT]].append(i)
        if s[OP] in first:
            calls[s[NAME]] += 1
        if s[NAME] == "kernels.integrate" and s[COUNTS]:
            steps_all += s[COUNTS]["steps"]
            if s[OP] in first:
                steps_first += s[COUNTS]["steps"]

    def self_total(name, child_names):
        total = 0.0
        for i, s in enumerate(spans):
            if s[NAME] == name:
                kids = [(spans[c][START], spans[c][END]) for c in children[i]
                        if spans[c][NAME] in child_names]
                total += self_time(s[START], s[END], kids)
        return total

    periods = sum(op.periods for op in ops if op.index in first)
    samples = sum(op.samples for op in ops if op.index in first)
    values = {
        "kernels.integrate_s": busy["kernels.integrate"] / n_ops,
        "kernels.steps": steps_first,
        "kernels.us_per_step": (1e6 * busy["kernels.integrate"] / steps_all
                                if steps_all else 0.0),
        "kernels.steps_per_period": steps_first / periods if periods else 0.0,
        "kernels.steps_per_sample": steps_first / samples if samples else 0.0,
        "dynamics.evolve_calls": calls["dynamics.evolve"],
        "dynamics.evolve_self_s": self_total(
            "dynamics.evolve", ("kernels.integrate", "coupling.terms")) / n_ops,
        "dynamics.dipole_calls": calls["dynamics.dipole"],
        "dynamics.dipole_s": busy["dynamics.dipole"] / n_ops,
        "coupling.terms_calls": calls["coupling.terms"],
        "coupling.terms_s": busy["coupling.terms"] / n_ops,
        "config.load_s": busy["config.load"] / n_ops,
        "workbench.resolve_s": busy["workbench.resolve"] / n_ops,
        "workbench.report_s": busy["workbench.report"] / n_ops,
        "twoqubit.czgate_s": busy["twoqubit.czgate"] / n_ops,
        "cli.run_s": busy["cli.run"] / n_ops,
        "cli.self_s": self_total("cli.run", _LIBRARY) / n_ops,
        "cli.output_bytes": sum(op.output_bytes for op in ops if op.index in first),
        "trace.overhead_frac": overhead_frac,
    }
    for name, value in values.items():
        if PER_LAYER[name][0] in ("s", "us"):
            values[name] = value * time_scale
    values["cli.import_s"] = import_s
    for name, (_, needs) in PER_LAYER.items():
        if missing.intersection(needs):
            values[name] = None
    return values
