"""Layer spans recorded from outside the program.

A traced operation replaces selected public functions of ``hazstep`` with
timing wrappers, at the name the calling module looks them up under (so
``hazstep.tuning.flsa_solve`` and ``hazstep.pipeline.flsa_solve`` are wrapped
separately and both report as ``flsa.flsa_solve``).  Each call records a span
with its parent span; when the operation ends the spans are reduced to
per-layer metrics:

- ``<span>.s``      inclusive time, summed over calls;
- ``<span>.self_s`` time not covered by child spans, summed over calls;
- ``<span>.calls``  number of calls;
- exact counters taken from arguments or results (see ``COUNTERS``).

The program itself is not modified; outside ``Tracer.installed()`` the
original functions are in place.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

# (module whose global is replaced, attribute, span name).  Span names are
# "<defining layer>.<function>"; the CLI entry point is the root span "cli".
# Functions left unwrapped on purpose count in their caller's self time:
# pipeline.choose_window and interpolate (fit_hazard.self_s), and
# simulate.interpolate and discretize_truth (run_study.self_s).
WRAPS = (
    ("hazstep.cli", "main", "cli"),
    ("hazstep.cli", "parse_survival_csv", "data.parse_survival_csv"),
    ("hazstep.cli", "parse_multistate_csv", "data.parse_multistate_csv"),
    ("hazstep.cli", "split_transitions", "data.split_transitions"),
    ("hazstep.cli", "fit_hazard", "pipeline.fit_hazard"),
    ("hazstep.cli", "fit_illness_death_detailed", "multistate.fit_illness_death_detailed"),
    ("hazstep.cli", "kaplan_meier", "multistate.kaplan_meier"),
    ("hazstep.cli", "survival_curves", "multistate.survival_curves"),
    ("hazstep.multistate", "split_transitions", "data.split_transitions"),
    ("hazstep.multistate", "fit_hazard", "pipeline.fit_hazard"),
    ("hazstep.simulate", "run_study", "simulate.run_study"),
    ("hazstep.simulate", "gen_scenario", "simulate.gen_scenario"),
    ("hazstep.simulate", "fit_hazard", "pipeline.fit_hazard"),
    ("hazstep.pipeline", "cox_fit", "estimators.cox_fit"),
    ("hazstep.pipeline", "breslow_fit", "estimators.breslow_fit"),
    ("hazstep.pipeline", "build_increments", "estimators.build_increments"),
    ("hazstep.pipeline", "bootstrap_lambda", "tuning.bootstrap_lambda"),
    ("hazstep.pipeline", "flsa_solve", "flsa.flsa_solve"),
    ("hazstep.tuning", "pilot_lambda", "tuning.pilot_lambda"),
    ("hazstep.tuning", "flsa_path", "flsa.flsa_path"),
    ("hazstep.tuning", "flsa_solve", "flsa.flsa_solve"),
)

# span name -> function(result) -> {counter: exact count}
COUNTERS = {
    "estimators.cox_fit": lambda r: {
        "iterations": r.iterations,
        "not_converged": int(not r.converged),
    },
    "flsa.flsa_path": lambda r: {"breakpoints": len(r)},
    "flsa.flsa_solve": lambda r: {"points": r.alpha.size},
    # L replicates of m normal draws each
    "tuning.bootstrap_lambda": lambda r: {"draws": r.u_boot.size * r.residuals.size},
}

# span name -> (counter, child span name): calls of the child made directly
# inside the span.  Two pilot solves mean the direct branch, more mean
# bisection.
CHILD_COUNTERS = {"tuning.pilot_lambda": ("solves", "flsa.flsa_solve")}


class Span:
    __slots__ = ("name", "parent", "start", "end", "children", "counts")

    def __init__(self, name, parent, start, end=None):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = end
        self.children = []
        self.counts = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def self_time(self) -> float:
        """Duration minus the part of this span's interval its children cover."""
        covered = 0.0
        reach = self.start
        for child in sorted(self.children, key=lambda c: c.start):
            lo = max(child.start, reach)
            hi = min(child.end, self.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return self.duration - covered


class Tracer:
    """Collects spans of one thread; ``installed()`` swaps the wrappers in."""

    def __init__(self, wraps=WRAPS):
        self.wraps = wraps
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def reset(self) -> None:
        self.spans = []
        self._stack = []

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, parent, time.perf_counter())
            if parent is not None:
                parent.children.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                self.spans.append(span)
            if count is not None:
                span.counts = count(result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        originals = []
        try:
            for module_name, attr, span_name in self.wraps:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                originals.append((module, attr, original))
                setattr(module, attr, self.wrap(span_name, original))
            yield self
        finally:
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)

    def metrics(self) -> dict:
        """Per-layer metrics of the spans recorded since the last reset."""
        out: dict = {}

        def add(key, value):
            out[key] = out.get(key, 0) + value

        for span in self.spans:
            add(f"{span.name}.s", span.duration)
            add(f"{span.name}.self_s", span.self_time())
            add(f"{span.name}.calls", 1)
            for key, value in span.counts.items():
                add(f"{span.name}.{key}", value)
            if span.name in CHILD_COUNTERS:
                key, child_name = CHILD_COUNTERS[span.name]
                add(f"{span.name}.{key}", sum(c.name == child_name for c in span.children))
        return out
