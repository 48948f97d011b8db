"""Per-layer tracing installed from outside the package.

A Tracer replaces public functions of the convlab modules with wrappers
that record one span per call (name, start, end, parent) and, where a
layer has one, a work count.  Wrappers are installed on every
``convlab.*`` module attribute bound to the original function, so calls
through ``from .x import f`` names are traced too.  Nothing under
``src/`` changes.

Per-stage functions such as ``perrin.canonical_prism_stream`` and
``lineworld.interval_at`` run millions of times per sweep and are left
unwrapped: their cost shows up as self time of the trace that calls them.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from time import perf_counter


def _calls(args, kwargs, result):
    return 1


def _length(args, kwargs, result):
    return len(result)


def _worlds(args, kwargs, result):
    return len(result.plane) + len(result.strand)


def _reps(args, kwargs, result):
    return result.reps


def _trials(args, kwargs, result):
    return kwargs["trials"] if "trials" in kwargs else args[3]


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


# (module, function) -> (self-time metric, [(count metric, counter), ...])
SPANS = {
    ("perrin", "domain_of_convergence"): ("perrin.domain_s", [("perrin.worlds", _worlds)]),
    ("perrin", "classify_world"): ("perrin.domain_s", []),
    ("perrin", "trace"): ("perrin.trace_s", [("perrin.stages", _length)]),
    ("perrin", "asymptotic_oracle"): ("perrin.oracle_s", []),
    ("framework", "classify_convergence"): ("framework.classify_s", []),
    ("perrin", "stability_scan"): ("perrin.stability_s", []),
    ("framework", "check_stability"): ("framework.stability_s", []),
    ("perrin", "score_sheet"): ("perrin.criteria_s", []),
    ("perrin", "ae_check"): ("perrin.criteria_s", []),
    ("perrin", "maximality_check"): ("perrin.criteria_s", []),
    ("perrin", "underdetermination_ok"): ("perrin.criteria_s", []),
    ("perrin", "coverage_study"): ("perrin.estimators_s", [("perrin.coverage_reps", _reps)]),
    ("perrin", "experimental_stream"): ("perrin.estimators_s", []),
    ("gaussian", "normal_quantile"): (
        "gaussian.normal_quantile_s", [("gaussian.normal_quantile_calls", _calls)]),
    ("gaussian", "truth_prob_mc"): ("gaussian.mc_s", [("gaussian.mc_draws", _trials)]),
    ("gaussian", "truth_prob_analytic"): ("gaussian.analytic_s", []),
    ("gaussian", "curve_analytic"): ("gaussian.analytic_s", []),
    ("gaussian", "classify_mode"): ("gaussian.analytic_s", []),
    ("predsel", "regime_experiment"): ("predsel.regime_s", []),
    ("predsel", "score_candidates"): ("predsel.regime_s", []),
    ("predsel", "fit_ols"): ("predsel.fit_s", [("predsel.fits", _calls)]),
    ("predsel", "true_risk"): ("predsel.risk_s", []),
    ("predsel", "generate"): ("predsel.generate_s", []),
    ("predsel", "unbiasedness_probe"): ("predsel.probe_s", []),
    ("lineworld", "trace"): (
        "lineworld.trace_s", [("lineworld.traces", _calls), ("lineworld.stages", _length)]),
    ("lineworld", "check_pointwise"): ("lineworld.pointwise_s", []),
    ("lineworld", "refute_uniform"): ("lineworld.probe_s", []),
    ("lineworld", "witness_is_valid"): ("lineworld.probe_s", []),
    ("lineworld", "razor_necessity_probe"): ("lineworld.probe_s", []),
    ("cli", "write_csv"): ("cli.write_s", [("cli.bytes_written", _file_bytes)]),
    ("cli", "write_json"): ("cli.write_s", [("cli.bytes_written", _file_bytes)]),
}

# Checks re-run experiment code, so their time is reported inclusive of
# the layer spans under them: it is what turning them into predicates
# over the run's own results would save.
CHECKS = ("check_gaussian_levels", "check_lineworld_suite", "check_predsel_directions",
          "check_predsel_probe", "check_perrin_theorem", "check_perrin_estimators")
for _name in CHECKS:
    SPANS[("checks", _name)] = ("checks.total_s", [("checks.count", _length)])

# Counted, not timed: every derived substream goes through substream_key.
COUNTS = {("rand", "substream_key"): "rand.substreams"}

TIME_METRICS = sorted({metric for metric, _ in SPANS.values()})
COUNT_METRICS = sorted({m for _, counts in SPANS.values() for m, _ in counts}
                       | set(COUNTS.values()))


class Tracer:
    """Spans of one traced run, kept in memory until the run ends."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # (name, start, end, parent index or -1)
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self._stack = []
        self._metric = {}

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "convlab" or name.startswith("convlab.")]
        for (mod, func), (metric, counts) in SPANS.items():
            original = getattr(importlib.import_module(f"convlab.{mod}"), func)
            name = f"{mod}.{func}"
            self._metric[name] = metric
            _rebind(modules, original, self._span(name, original, counts))
        for (mod, func), metric in COUNTS.items():
            original = getattr(importlib.import_module(f"convlab.{mod}"), func)
            _rebind(modules, original, self._counter(metric, original))

    def _span(self, name, fn, counters):
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[sid] = (name, start, perf_counter(), parent)
                stack.pop()
            for metric, count in counters:
                counts[metric] += count(args, kwargs, result)
            return result

        return wrapper

    def _counter(self, metric, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        return wrapper

    def metrics(self, wall_s: float) -> dict:
        """Self time per layer metric, inclusive check time, counts, and
        the share of the run's wall time under some span."""
        child = [0.0] * len(self.spans)
        covered = 0.0
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
            else:
                covered += end - start
        out = dict.fromkeys(TIME_METRICS, 0.0)
        for sid, (name, start, end, _) in enumerate(self.spans):
            metric = self._metric[name]
            inclusive = metric == "checks.total_s"
            out[metric] += (end - start) - (0.0 if inclusive else child[sid])
        out.update(self.counts)
        out["trace.covered_share"] = covered / wall_s
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps([self.run_id, sid, name, start, end, parent]) + "\n")


def _rebind(modules, original, wrapper) -> None:
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
