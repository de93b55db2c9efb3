"""Span tracer that wraps the program's functions from outside.

Each hook replaces a function under the name its caller looks it up by (the
CLI calls ``evolve`` through ``oamring.cli``, ``evolve`` calls the kernel
through ``oamring._kernels``), so the program itself is unchanged.  Spans are
kept in memory as ``[name, start, end, parent, op, counts]`` and written out
when the run ends.  A hook whose target no longer exists is recorded as
missing instead of failing, so the benchmark keeps running across refactors
and reports the metrics that depend on it as absent.
"""

import importlib
import json
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span name)
HOOKS = (
    ("oamring.cli", "run", "cli.run"),
    ("oamring.cli", "load_config", "config.load"),
    ("oamring.cli", "load_bundled_config", "config.load"),
    ("oamring.cli", "resolve", "workbench.resolve"),
    ("oamring.cli", "build_feasibility_report", "workbench.report"),
    ("oamring.cli", "evolve", "dynamics.evolve"),
    ("oamring.cli", "dipole_moment", "dynamics.dipole"),
    ("oamring.cli", "cz_gate_time", "twoqubit.czgate"),
    ("oamring.cli", "controlled_phase", "twoqubit.czgate"),
    ("oamring.cli", "cz_fidelity", "twoqubit.czgate"),
    ("oamring.dynamics", "matrix_element_terms", "coupling.terms"),
    ("oamring._kernels", "integrate", "kernels.integrate"),
)

# Counts read off a hooked call's return value: the kernel returns
# (samples, attempted steps, status).  A return value of another shape marks
# the counts (not the span) as missing.
COUNTERS = {"kernels.integrate": lambda result: {"steps": int(result[1])}}

NAME, START, END, PARENT, OP, COUNTS = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self.missing = set()     # span names with a hook not found, and
                                 # "<span>.counts" where counts could not be read
        self._stack = []
        self._patched = []

    def install(self, hooks=HOOKS):
        for module_name, attr, name in hooks:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.add(name)
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                self.missing.add(name)
                continue
            setattr(module, attr, self._wrap(original, name, COUNTERS.get(name)))
            self._patched.append((module, attr, original))

    def restore(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, 0.0, 0.0, parent, self.op, None])
        self._stack.append(index)
        return self.spans[index]

    def _wrap(self, fn, name, counter):
        def traced(*args, **kwargs):
            record = self._open(name)
            record[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                self._stack.pop()
            if counter is not None:
                try:
                    record[COUNTS] = counter(result)
                except (TypeError, IndexError, KeyError, ValueError):
                    self.missing.add(f"{name}.counts")
            return result
        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name):
        record = self._open(name)
        record[START] = perf_counter()
        try:
            yield record
        finally:
            record[END] = perf_counter()
            self._stack.pop()

    def absorb(self, doc, op):
        """Append what another process's ``dump`` wrote under the current span."""
        self.missing.update(doc["missing"])
        offset = len(self.spans)
        outer = self._stack[-1] if self._stack else None
        for rec in doc["spans"]:
            parent = outer if rec["parent"] is None else rec["parent"] + offset
            self.spans.append([rec["name"], rec["start"], rec["end"], parent, op,
                               rec["counts"]])

    def dump(self, path):
        spans = [{"name": s[NAME], "start": s[START], "end": s[END],
                  "parent": s[PARENT], "op": s[OP], "counts": s[COUNTS]}
                 for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"missing": sorted(self.missing), "spans": spans}, fh)
