"""Configuration-driven experiment runner.

Reads a strict JSON config, runs the selected experiment suites, and
writes CSV tables and JSON summaries.  A master seed with
per-module derived substreams makes every emitted number a function of
(config, seed); rerunning the same config reproduces the numeric
outputs byte for byte.

Exit codes: 0 success, 1 acceptance-check failure (--check), 2
configuration error, 3 a run that stopped.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib
import json
import math
import os
import reprlib
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Optional

from . import __version__, checks, jobs
from . import lineworld as lw
from .framework import (CONFIDENCE, DIAG_TOL, PROBE_SIZES, EstimationError, FitError,
                        OracleContradiction, Status, StreamError, WorkerError, poly_degree)
from .lineworld import GridSpec, StreamSpec


class ConfigError(ValueError):
    pass


def _num(lo=None, hi=None, lo_open=False, hi_open=False, integer=False):
    def check(v, path):
        if isinstance(v, bool):
            raise ConfigError(f"{path}: expected a number, got {reprlib.repr(v)}")
        if integer:
            if not isinstance(v, int):
                raise ConfigError(f"{path}: expected an integer, got {reprlib.repr(v)}")
        else:
            if not isinstance(v, (int, float)):
                raise ConfigError(f"{path}: expected a number, got {reprlib.repr(v)}")
            try:
                finite = math.isfinite(v)  # JSON 1e400 parses to inf
            except OverflowError:  # an integer beyond the float range
                finite = False
            if not finite:
                raise ConfigError(f"{path}: expected a finite number, got {reprlib.repr(v)}")
        if lo is not None and (v <= lo if lo_open else v < lo):
            raise ConfigError(f"{path}: {reprlib.repr(v)} below the valid range")
        if hi is not None and (v >= hi if hi_open else v > hi):
            raise ConfigError(f"{path}: {reprlib.repr(v)} above the valid range")
        return v
    return check


def _bool(v, path):
    if not isinstance(v, bool):
        raise ConfigError(f"{path}: expected true/false, got {reprlib.repr(v)}")
    return v


def _numlist(item_check, increasing=False, repeats=False):
    """A non-empty list of item_check values: strictly increasing if `increasing`, and with
    no value twice unless `repeats` (by value, so 0.0 and -0.0 are one entry)."""
    def check(v, path):
        if not isinstance(v, list) or not v:
            raise ConfigError(f"{path}: expected a non-empty list")
        items = [item_check(x, f"{path}[{i}]") for i, x in enumerate(v)]
        first = {}  # each value's first index, one hash lookup per entry
        for i, x in enumerate(items):
            if increasing and i and x <= items[i - 1]:
                raise ConfigError(f"{path}[{i}]: {reprlib.repr(x)} must exceed "
                                  f"{path}[{i - 1}] = {reprlib.repr(items[i - 1])}")
            if not repeats and first.setdefault(x, i) < i:
                raise ConfigError(f"{path}[{i}]: {reprlib.repr(x)} repeats "
                                  f"{path}[{first[x]}] = {reprlib.repr(items[first[x]])}")
        return items
    return check


def _experiment(v, path):
    names = list(SUITES) if v == "all" else [v] if isinstance(v, str) else v
    if not isinstance(names, list):
        raise ConfigError(f"{path}: expected a name or list of names")
    for i, x in enumerate(names):
        if not isinstance(x, str) or x not in SUITES:
            raise ConfigError(f"{path}: unknown experiment {reprlib.repr(x)}")
        if x in names[:i]:
            raise ConfigError(f"{path}[{i}]: duplicate experiment {reprlib.repr(x)}")
    return list(names)


def _string(v, path):
    if not isinstance(v, str):
        raise ConfigError(f"{path}: expected a string, got {reprlib.repr(v)}")
    if not v:  # as a path, "" is the current directory
        raise ConfigError(f"{path}: expected a non-empty string, got ''")
    if "\0" in v:  # no file system path can hold one
        raise ConfigError(f"{path}: a path cannot hold a NUL character, got {reprlib.repr(v)}")
    return v


# strictly increasing sample sizes, each a finite float for sqrt(n) and ln(n)
_SIZES = _numlist(_num(lo=2, hi=10**300, integer=True), increasing=True)
# simulated sample sizes: a perrin sample of size m is an (8, m) float array, 64 MB at 10**6
_SAMPLE_SIZES = _numlist(_num(lo=2, hi=10**6, integer=True), increasing=True)
# predsel reps: the probe sums into two (degree + 1, reps) float arrays beside a block of
# at most predsel.PROBE_BLOCK floats, 2 x 49 x 10**5 floats (78 MB) at degree 48
_PREDSEL_REPS = _num(lo=100, hi=10**5, integer=True)
# predsel risks use a 64-node Gauss-Legendre rule, exact for (f* - fhat)^2 up to degree 127
_MAX_DEGREE = _num(lo=0, hi=63, integer=True)
# a predsel regime factors a (max_degree + 2, predsel.CHUNK, n) float buffer, 65 x 16 x
# 10**4 floats (83 MB) at the top
_REGIME_N = _num(lo=4, hi=10**4, integer=True)
_SIGMA = _num(lo=1e-150, hi=1e150)  # sigma**2 stays a positive finite float
# 1 - alpha/2 stays below 1.0 (the float spacing there is ulp(1.0) / 2), so its normal quantile exists
_ALPHA = _num(lo=math.ulp(1.0), hi=1, hi_open=True)
# the stream's last half-width delta0 * ratio**(horizon - 1) takes the horizon as a float
_HORIZON = _num(lo=1, hi=10**300, integer=True)
# a refute_uniform history spans 16 lengths and its world sits at length / 4: finite and nonzero
_LENGTH = _num(lo=1e-300, hi=1e300)


def _theta(v, path):
    """A gaussian world mean: 0, or at least 1e-150 in magnitude, so that the certified
    settle sizes ((z - q) / |theta|)**2 and 1 / theta**2 stay finite floats."""
    if 0 < abs(_num()(v, path)) < 1e-150:
        raise ConfigError(f"{path}: {v} is nonzero but below 1e-150 in magnitude")
    return v


SCHEMA = {
    "experiment": ("all", _experiment),
    "seed": (20250801, _num(integer=True)),
    "out_dir": ("out", _string),
    "check": (False, _bool),
    "gaussian": {
        "theta_grid": ([0.0, 0.1, 0.25, 0.5, 1.0], _numlist(_theta)),
        "n_grid": ([10, 20, 50, 100, 200, 500, 1000, 10000], _SIZES),
        "alpha_grid": ([0.16, 0.05, 0.01, 0.001], _numlist(_ALPHA)),
        # gaussian.truth_prob_mc draws gaussian.MC_BLOCK normals at a time at any count
        "mc_trials": (200000, _num(lo=1000, hi=10**7, integer=True)),
        "mc_theta_grid": ([0.0, 0.5], _numlist(_num())),
        "mc_n_grid": ([10, 100, 1000], _SIZES),
    },
    "lineworld": {
        "theta_min": (-0.5, _num()),
        "theta_max": (0.5, _num()),
        "theta_step": (0.01, _num(lo=0, lo_open=True)),
        "horizon": (60, _HORIZON),
        "delta0": (1.0, _num(lo=0, lo_open=True)),
        "ratio": (0.7, _num(lo=0, hi=1, lo_open=True, hi_open=True)),
        "offsets": ([0.0, -1.0, 0.7], _numlist(_num(lo=-1, hi=1))),
        "uniform_lengths": ([1.0, 0.1, 0.01], _numlist(_LENGTH)),
        "razor_budget": (4000, _num(lo=10, integer=True)),
    },
    "predsel": {
        "regime_a_coeffs": ([1.0, -2.0, 0.5], _numlist(_num(), repeats=True)),
        "regime_a_sigma": (1.0, _SIGMA),
        "regime_a_max_degree": (6, _MAX_DEGREE),
        "regime_a_n": (500, _REGIME_N),
        "regime_a_reps": (2000, _PREDSEL_REPS),
        "regime_b_sigma": (0.5, _SIGMA),
        "regime_b_max_degree": (12, _MAX_DEGREE),
        "regime_b_n": (500, _REGIME_N),
        "regime_b_reps": (1000, _PREDSEL_REPS),
        "probe_reps": (4000, _PREDSEL_REPS),
    },
    "perrin": {
        "grid_lo": (0.5, _num()),
        "grid_hi": (1.5, _num()),
        "grid_step": (0.02, _num(lo=0, lo_open=True)),
        "horizon": (40, _HORIZON),
        "delta0": (1.0, _num(lo=0, lo_open=True)),
        "ratio": (0.6, _num(lo=0, hi=1, lo_open=True, hi_open=True)),
        "way1_p": (1.0, _num()),
        # above the default initial prism width: WAY1 triggers at (p, p) from stage 0
        "way1_eps": (4.0, _num(lo=0, lo_open=True)),
        "way2_p": (1.0, _num()),
        "way2_delta0": (0.1, _num(lo=0, lo_open=True)),
        "way3_delta0": (4.0, _num(lo=0, lo_open=True)),
        "coverage_reps": (1000, _num(lo=10, hi=10**7, integer=True)),  # 80 MB of per-rep statistics
        "coverage_size": (400, _num(lo=10, hi=10**6, integer=True)),  # bounded as _SAMPLE_SIZES
        "stream_schedule": ([50, 100, 200, 400, 800], _SAMPLE_SIZES),
    },
}


def _apply_schema(raw: dict, schema: dict, path: str = "") -> dict:
    """raw's keys in its order, then the schema keys it lacks, each through its check."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{path or 'config'}: expected an object, got {reprlib.repr(raw)}")
    out = {}
    for key in [*raw, *(key for key in schema if key not in raw)]:
        dotted = f"{path}.{key}" if path else key
        if key not in schema:
            raise ConfigError(f"unknown key {reprlib.repr(dotted)}")
        spec = schema[key]  # a section's schema, or a field's (default, checker)
        out[key] = (_apply_schema(raw.get(key, {}), spec, dotted) if isinstance(spec, dict)
                    else spec[1](raw.get(key, spec[0]), dotted))
    return out


GRID_FIELDS = {"lineworld": ("theta_min", "theta_max", "theta_step"),
               "perrin": ("grid_lo", "grid_hi", "grid_step")}
MAX_WORLDS = 10**6
MAX_ORACLE_STAGES = 10**5


def world_axis(config: dict, suite: str) -> tuple:
    """The suite's world values from GridSpec (for perrin, the refined grid it
    sweeps).  A grid it rejects exits 2 naming the field, and so does one of more
    than MAX_WORLDS worlds, counted before any axis is built: k + 1 lineworld worlds
    for a span of k steps, (2k + 1)**2 + 2k + 1 refined perrin worlds.  Lineworld's
    theta_min == theta_max is one world; a lineworld world that rounding moves onto 0
    from beyond the float noise of lo + i * step (a few ulps of an endpoint) exits 2."""
    c, keys = config[suite], GRID_FIELDS[suite]
    lo, hi, step = (c[k] for k in keys)
    given = ", ".join(f"{k}={c[k]}" for k in keys)
    try:
        if suite == "lineworld" and lo == hi:
            axis = (round(lo, 12),)
        else:
            grid = GridSpec(lo, hi, step)
            k = round(grid.span)
            worlds = k + 1 if suite == "lineworld" else (2 * k + 1) ** 2 + 2 * k + 1
            if worlds > MAX_WORLDS:
                where = "" if suite == "lineworld" else " in the refined grid"
                raise ConfigError(f"{suite}.{keys[2]}: {worlds} worlds{where}, above the limit "
                                  f"of {MAX_WORLDS} ({given})")
            axis = (grid if suite == "lineworld" else grid.halved()).axis()
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{suite}.{keys[2] if lo < hi else keys[0]}: {exc} ({given})")
    if suite == "lineworld" and 0.0 in axis:
        x = lo + axis.index(0.0) * step
        if abs(x) > 8.0 * math.ulp(max(abs(lo), abs(hi))):
            raise ConfigError(f"lineworld.{keys[0]}: rounding to 12 decimals moves the world "
                              f"{x!r} onto 0, whose truth is SIMPLE ({given})")
    return axis


def check_consistency(config: dict) -> None:
    """Reject values that are each in range but contradict one another."""
    if config["check"] and not config["experiment"]:
        raise ConfigError("experiment: an empty list leaves --check nothing to judge")
    for suite, (lo, hi, _) in GRID_FIELDS.items():
        axis = world_axis(config, suite)
        c = config[suite]
        top = max(abs(c[lo]), abs(c[hi]))
        if not math.isfinite(top + 2.0 * c["delta0"]):
            raise ConfigError(f"{suite}.delta0: {c['delta0']} puts the stage-0 endpoints, up to "
                              f"|world| + 2*delta0, beyond the float range (|world| <= {top})")
        half = StreamSpec(c["delta0"], c["ratio"]).half_width(c["horizon"] - 1)
        if half <= 2.0 * math.ulp(top):
            raise ConfigError(f"{suite}.horizon: {reprlib.repr(c['horizon'])} stages shrink the "
                              f"half-width delta0*ratio**(horizon-1) to {half:.3g} "
                              f"(delta0={c['delta0']}, ratio={c['ratio']}), at most twice the "
                              f"float spacing at {top}")
        # the oracle steps one stage at a time until 4 * delta0 * ratio**t is below its
        # smallest gap: a world's |theta|, or for perrin DIAG_TOL or a width gate
        if suite == "lineworld":
            gap = min((abs(x) for x in axis if x), default=math.inf)
        else:
            gap = min(DIAG_TOL, c["way2_delta0"], c["way3_delta0"])
        stages = (math.log(gap) - math.log(4.0 * c["delta0"])) / math.log(c["ratio"])
        if stages > MAX_ORACLE_STAGES:
            raise ConfigError(f"{suite}.ratio: {c['ratio']} makes the oracle step through about "
                              f"{stages:.3g} stages down to the gap {gap:.3g} (delta0={c['delta0']}), "
                              f"above the limit of {MAX_ORACLE_STAGES}")
    if "gaussian" in config["experiment"]:
        from . import gaussian as g
        gc = config["gaussian"]
        try:
            g.check_witness_grids(g.RULES, gc["theta_grid"], gc["alpha_grid"])
        except ValueError as exc:
            raise ConfigError(f"gaussian.{exc}")
    sc = config["predsel"]
    degree = poly_degree(sc["regime_a_coeffs"])
    if degree + 2 > PROBE_SIZES[0]:
        raise ConfigError(f"predsel.regime_a_coeffs: the true model's degree {degree} is above "
                          f"{PROBE_SIZES[0] - 2}, the most the unbiasedness probe fits on its "
                          f"smallest design, n = {PROBE_SIZES[0]}")
    if sc["regime_a_max_degree"] < degree:
        raise ConfigError(f"predsel.regime_a_max_degree: {sc['regime_a_max_degree']} leaves out "
                          f"the true model, of degree {degree} (predsel.regime_a_coeffs)")
    # bound on max|f*| over [-1, 1]: the sum of |coeffs| for regime A, 1 for |x|
    bounds = {"a": sum(abs(c) for c in sc["regime_a_coeffs"]), "b": 1.0}
    for regime in ("a", "b"):
        n, deg = sc[f"regime_{regime}_n"], sc[f"regime_{regime}_max_degree"]
        if n < deg + 2:
            raise ConfigError(f"predsel.regime_{regime}_n: {n} points cannot fit degree {deg} "
                              f"(predsel.regime_{regime}_max_degree), which needs {deg + 2}")
        # y = f* + sigma z rounds each point by up to eps |f*| / 2 and the QR adds errors of
        # that order, so rss / sigma^2, on whose scale AIC and BIC weigh penalty steps of 2
        # and ln n, is off by up to about eps n max|f*| / sigma (measured at that sigma: 0.42
        # at n = 50, 0.09 at n = 5000); the margin of 64 keeps it below 0.02
        sigma, per_point = sc[f"regime_{regime}_sigma"], 64 * math.ulp(1.0) * bounds[regime]
        if per_point and sigma / per_point < n:
            raise ConfigError(f"predsel.regime_{regime}_sigma: {sigma} is below 64 eps max|f*| n "
                              f"= {per_point:.3g} * {reprlib.repr(n)} (max|f*| <= "
                              f"{bounds[regime]:.6g}), where the fits' rss is float rounding, "
                              f"not noise")
        # the rank check admits a design whose R diagonal spans 1 / (n eps), and a fit on
        # one carried max|y| <= max|f*| + 8 sigma up by 2**17 / (n eps) at the risk nodes
        # (the worst of 96,000 random near-interpolating designs); a margin of 2**23 on
        # that gain keeps the squared errors, summed over 10**5 reps, finite
        scale = bounds[regime] + 8.0 * sigma
        top = n * math.ulp(1.0) * math.sqrt(sys.float_info.max / 2**17) / 2**40
        if scale > top:
            name = "sigma" if 8.0 * sigma >= bounds[regime] else "coeffs"
            raise ConfigError(f"predsel.regime_{regime}_{name}: max|f*| + 8 sigma = {scale:.3g} "
                              f"(max|f*| <= {bounds[regime]:.6g}, sigma = {sigma}) is above n eps "
                              f"sqrt(max float / 2**17) / 2**40 = {top:.3g} (n = "
                              f"{reprlib.repr(n)}), where a near-interpolating fit's squared "
                              f"error at the risk nodes can overflow")


# command-line flag -> the config field it overrides, applied in this order
FLAGS = {"seed": ("seed",), "experiment": ("experiment",), "check": ("check",),
         "grid_step": ("perrin", "grid_step"), "horizon": ("perrin", "horizon"),
         "trials": ("gaussian", "mc_trials")}


def validate_config(raw_text: str, flags: Optional[dict] = None) -> dict:
    """The config a run takes: the JSON text through SCHEMA, then each FLAGS flag not None
    in `flags` through its field's checker under the flag's name, then check_consistency,
    then one import of each suite `experiment` names, so set-up pays for exactly those."""
    try:
        raw = json.loads(raw_text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except ValueError as exc:  # an integer beyond Python's int-string conversion limit
        raise ConfigError(f"config parse error: {exc}")
    except RecursionError:
        raise ConfigError("config parse error: arrays or objects nested too deeply")
    config, flags = _apply_schema(raw, SCHEMA), flags or {}
    for flag, (*sections, key) in FLAGS.items():
        value = flags.get(flag)
        if value is not None:
            section, schema = config, SCHEMA
            for name in sections:
                section, schema = section[name], schema[name]
            section[key] = schema[key][1](value, "--" + flag.replace("_", "-"))
    check_consistency(config)
    for name in config["experiment"]:
        try:
            importlib.import_module(f".{name}", __package__)
        except ImportError as exc:  # a module missing inside the package is a bug: it raises
            if not exc.name or exc.name.partition(".")[0] == __package__:
                raise
            raise ConfigError(f"experiment: the {name} suite needs the module {exc.name!r}, "
                              "which this interpreter cannot import") from None
    return config


# ---------------------------------------------------------------------------
# output helpers


def _write_atomic(path: Path, write) -> str:
    """write(f) to UTF-8 path.tmp, then moved to path; the bytes' sha256, read back."""
    tmp = path.with_name(path.name + ".tmp")
    digest = hashlib.sha256()
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as f:
            write(f)
        with open(tmp, "rb") as f:
            for block in iter(lambda: f.read(1 << 16), b""):
                digest.update(block)
        os.replace(tmp, path)
    except OSError as exc:  # a directory where the file must be, or no permission to write
        raise ConfigError(f"cannot write the file {path}: {exc.strerror}")
    finally:
        if tmp.is_file():
            tmp.unlink()
    return digest.hexdigest()


def write_csv(path: Path, header, rows) -> str:
    """rows, any iterable, go to the file as they come: none is kept after it is written."""
    def write(f):
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)  # None as "", floats by repr, the rest by str
    return _write_atomic(path, write)


def write_json(path: Path, obj) -> str:
    return _write_atomic(path, lambda f: f.write(json.dumps(obj, indent=2, sort_keys=True) + "\n"))


@dataclass
class Outputs:
    """A run's output directory, and the sha256 of the bytes of every file
    the run wrote there (as the writers return it), keyed by the file's path
    under the directory.  Tables are CSV, summaries JSON."""

    root: Path
    digests: dict = field(default_factory=dict)

    def emit_json(self, name: str, obj) -> None:
        self.digests[name] = write_json(self.root / name, obj)

    def emit_rows(self, base: str, header, rows) -> None:
        self.digests[f"{base}.csv"] = write_csv(self.root / f"{base}.csv", header, rows)


def _report_to_dict(report) -> dict:
    return {"mode": report.mode_id, "pass": report.passed,
            "witnesses": list(report.witnesses)}


# ---------------------------------------------------------------------------
# per-experiment runners: each returns its (name, callable) jobs, which may run in a
# forked worker, and a finish step that builds (summary, checks) from their results


def run_gaussian(cfg: dict, out: Outputs):
    from . import gaussian as g  # loaded by validate_config during set-up: a sys.modules lookup here

    gc = cfg["gaussian"]

    def rule_rows(rule):
        """The rule's analytic curves and its analytic, then Monte Carlo, rows."""
        label = rule.label()
        curves = [(theta, g.curve_analytic(rule, theta, gc["n_grid"])) for theta in gc["theta_grid"]]
        rows = [(label, theta, n, p, None) for theta, pairs in curves for n, p in pairs]
        rows += [(label, theta, n, *g.truth_prob_mc(rule, theta, n, gc["mc_trials"], cfg["seed"]))
                 for theta in gc["mc_theta_grid"] for n in gc["mc_n_grid"]]
        return curves, rows

    def finish(*done):
        rows = [row for _, part in done for row in part]
        out.emit_rows("curves", ("rule", "theta", "n", "truth_prob", "se"), rows)

        modes = {}
        for rule, (curves, _) in zip(g.RULES, done):
            reports = g.classify_mode(rule, curves, gc["alpha_grid"])
            modes[rule.label()] = {mode: _report_to_dict(r) for mode, r in reports.items()}
        summary = {
            "levels_at_theta0": {
                rule.label(): g.truth_prob_analytic(rule, 0.0, 100) for rule in g.RULES
            },
            "modes": modes,
            "curve_rows": len(rows),
        }
        return summary, checks.check_gaussian_levels(rows, gc["mc_trials"])

    return [(rule.label(), partial(rule_rows, rule)) for rule in g.RULES], finish


def run_lineworld(cfg: dict, out: Outputs):
    lc = cfg["lineworld"]
    thetas = world_axis(cfg, "lineworld")
    mstar = lw.mstar_method()
    # one stream per offset, in list order; 0.0 and -0.0 are the centered stream
    specs = [StreamSpec(lc["delta0"], lc["ratio"], offset=lam or 0.0) for lam in lc["offsets"]]
    # each stream's worlds in one contiguous slice per usable CPU, stream-major: worker j
    # of run_jobs then runs slice j of every stream, and a serial run's first failing
    # world is the first failing job's
    n = min(jobs.usable_cpus(), len(thetas))
    bounds = [(k * len(thetas) // n, (k + 1) * len(thetas) // n) for k in range(n)]

    def pointwise(spec, lo, hi):
        records = lw.check_pointwise(mstar, thetas[lo:hi], spec, lc["horizon"])
        counts = {s.value: sum(r.status is s for r in records) for s in Status}
        return counts, all(r.stable for r in records)

    def uniform():
        refutations = []
        for length in lc["uniform_lengths"]:
            wit = lw.refute_uniform(mstar, length)
            refutations.append({
                "prescribed_length": length,
                "witness_theta": wit.theta,
                "verdict": wit.verdict.value,
                "replay_valid": lw.witness_is_valid(mstar, wit, length),
            })
        return refutations

    def razor():
        return {method.name: lw.razor_necessity_probe(method, lc["razor_budget"]).consequence
                for method in [mstar, lw.always_suspend_method()] + lw.razor_violator_suite()}

    def finish(*done):
        *slices, refutations, probes = done
        streams = [slices[i:i + n] for i in range(0, len(slices), n)]
        summary = {
            "worlds": len(thetas),
            "pointwise_by_stream": {
                spec.label(): {s.value: sum(counts[s.value] for counts, _ in parts) for s in Status}
                for spec, parts in zip(specs, streams)},
            "mstar_stable": all(stable for _, stable in slices),
            "uniform_refutations": refutations,
            "razor_probe": probes,
        }
        return summary, checks.check_lineworld_suite(summary, lc)

    return ([(spec.label() + (f"[{lo}:{hi}]" if n > 1 else ""), partial(pointwise, spec, lo, hi))
             for spec in specs for lo, hi in bounds]
            + [("uniform", uniform), ("razor", razor)]), finish


def run_predsel(cfg: dict, out: Outputs):
    from . import predsel as ps
    pc, seed = cfg["predsel"], cfg["seed"]
    header = ("rep", "degree", "rss", "aic", "bic", "true_risk",
              "selected_aic", "selected_bic")
    truth_a = ps.poly_truth(pc["regime_a_coeffs"], pc["regime_a_sigma"])

    def regime_a():
        a = ps.regime_experiment(truth_a, range(pc["regime_a_max_degree"] + 1),
                                 pc["regime_a_n"], pc["regime_a_reps"], seed)
        out.emit_rows("selection", header, a.rows())
        return a

    def regime_b():
        b = ps.regime_experiment(ps.abs_truth(pc["regime_b_sigma"]),
                                 range(pc["regime_b_max_degree"] + 1),
                                 pc["regime_b_n"], pc["regime_b_reps"], seed)
        out.emit_rows("selection_misspecified", header, b.rows())
        return b

    def probe_all():
        return {n: ps.unbiasedness_probe(truth_a, truth_a.poly_degree, n, pc["probe_reps"], seed)
                for n in PROBE_SIZES}

    def finish(a, b, probes):
        summary = {
            "true_model_in_set": {
                "correct_frequency_aic": a.correct_frequency_aic,
                "correct_frequency_bic": a.correct_frequency_bic,
                "mean_excess_risk_aic": a.mean_excess_risk_aic,
                "mean_excess_risk_bic": a.mean_excess_risk_bic,
                "true_degree": a.true_degree,
                "reps": a.reps,
            },
            "misspecified": {
                "mean_excess_risk_aic": b.mean_excess_risk_aic,
                "mean_excess_risk_bic": b.mean_excess_risk_bic,
                "reps": b.reps,
            },
            "unbiasedness_probe_relative_bias": {str(n): p.relative_bias for n, p in probes.items()},
        }
        return summary, checks.check_predsel_directions(a, b) + checks.check_predsel_probe(probes)

    return [("regime_a", regime_a), ("regime_b", regime_b), ("probes", probe_all)], finish


def perrin_methods(pc: dict) -> list:
    """The five built-in methods of a validated perrin section: its
    way1_eps, way2_delta0 and way3_delta0 are the ways' gates."""
    from . import perrin as pr

    return [
        pr.ockham_method(),
        pr.anti_realist_method(),
        pr.PerrinMethod(kind="WAY1", p=pc["way1_p"], gate=pc["way1_eps"]),
        pr.PerrinMethod(kind="WAY2", p=pc["way2_p"], gate=pc["way2_delta0"]),
        pr.PerrinMethod(kind="WAY3", gate=pc["way3_delta0"]),
    ]


def run_perrin(cfg: dict, out: Outputs):
    from . import perrin as pr
    pc, seed = cfg["perrin"], cfg["seed"]

    def score_sheets():
        grid = GridSpec(pc["grid_lo"], pc["grid_hi"], pc["grid_step"])
        methods = perrin_methods(pc)
        sheets = dict(zip((m.kind for m in methods), pr.score_sheets(
            methods, grid, StreamSpec(pc["delta0"], pc["ratio"]), pc["horizon"])))
        axis = [repr(x) for x in grid.axis()]  # the coarse axis, as csv.writer writes it
        worlds = [("plane", a, b) for a in axis for b in axis] + [("strand", a, a) for a in axis]
        labels = {code: status.value for code, status in pr.STATUSES.items()}
        for kind, s in sheets.items():
            codes, settle = s.domain.codes.tolist(), s.domain.settle.tolist()
            out.emit_rows(f"domain_{kind.lower()}", ("component", "a", "b", "status", "settle_stage"),
                          ((*w, labels[c], t if t >= 0 else None)
                           for w, c, t in zip(worlds, codes, settle)))
        out.emit_json("scoresheet.json", {
            kind: {"ae": _report_to_dict(s.ae), "maximal": _report_to_dict(s.maximal),
                   "stable": _report_to_dict(s.stable), "fractions": s.fractions}
            for kind, s in sheets.items()})
        return sheets

    def coverage(kind):
        res = pr.coverage_study(kind, 1.0, 2.0, pc["coverage_size"], pc["coverage_reps"],
                                CONFIDENCE, seed)
        return {"coverage": res.coverage, "mean_width": res.mean_width, "reps": res.reps}

    def sediment():
        streams = {}
        for label, (na, nb) in (("diagonal", (1.0, 1.0)), ("off_diagonal", (0.8, 1.2))):
            sr = pr.experimental_stream(na, nb, pc["stream_schedule"], CONFIDENCE, seed)
            verdicts = [v.value for v in pr.decide_prisms(pr.ockham_method(), sr.prisms)]
            streams[label] = {"stages": len(sr.prisms), "flagged_stage": sr.flagged_stage,
                              "ockham_verdicts": verdicts}
        return coverage("sediment"), streams

    def finish(sheets, brownian, sediment_streams):
        sediment, streams = sediment_streams
        covered = {"brownian": brownian, "sediment": sediment}
        underdet = {kind: pr.underdetermination_ok(s.domain) for kind, s in sheets.items()}
        summary = {
            "pattern": {k: list(s.pattern()) for k, s in sheets.items()},
            "underdetermination_ok": underdet,
            "coverage": covered,
            "experimental_streams": streams,
        }
        return summary, (checks.check_perrin_theorem(sheets, underdet)
                         + checks.check_perrin_estimators(covered, pc["coverage_size"]))

    return [("score_sheets", score_sheets), ("brownian", partial(coverage, "brownian")),
            ("sediment", sediment)], finish


# ---------------------------------------------------------------------------
# orchestration

# what a suite raises when its run cannot go on: exit 3, apart from a
# failed --check (1) and a bad config (2)
RUN_ERRORS = (OracleContradiction, StreamError, FitError, EstimationError, WorkerError)

# experiment name -> runner; `all` runs them in this order
SUITES = {"lineworld": run_lineworld, "gaussian": run_gaussian,
          "predsel": run_predsel, "perrin": run_perrin}


@dataclass
class RunOutcome:
    exit_code: int
    summary: dict


def run(config: dict, out_dir: Optional[str] = None) -> RunOutcome:
    """Run a config validate_config settled; only under `check` do the runners' verdicts
    go to summary.json, print and set the exit code."""
    start = time.perf_counter()
    out = Outputs(Path(config["out_dir"] if out_dir is None else _string(out_dir, "--out")))
    summary = {"experiments": config["experiment"], "seed": config["seed"], "version": __version__}
    check_results = []

    if not config["experiment"]:
        return RunOutcome(0, summary)
    try:
        out.root.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file where a directory must be, or no permission to make one
        raise ConfigError(f"{'out_dir' if out_dir is None else '--out'}: cannot make the "
                          f"directory {exc.filename}: {exc.strerror}")
    for path in (out.root / "summary.json", out.root / "manifest.json"):
        try:  # only a run that finishes leaves a manifest; a directory fails at its write
            if path.is_file():
                path.unlink()
        except OSError as exc:
            raise ConfigError(f"cannot write the file {path}: {exc.strerror}")

    plans = [(name, *SUITES[name](config, out)) for name in config["experiment"]]
    results, log, peak = jobs.run_jobs(out.digests, [(n, *j) for n, js, _ in plans for j in js])
    done = iter(results)
    for name, listed, finish in plans:  # in suite order, after every suite's jobs
        summary[name], verdicts = finish(*[next(done) for _ in listed])
        if config["check"]:
            check_results += verdicts

    if check_results:
        summary["checks"] = {name: {"pass": ok, "detail": detail}
                             for name, ok, detail in check_results}
    out.emit_json("summary.json", summary)

    manifest = {
        "config": config,
        "version": __version__,
        "wall_clock_seconds": round(time.perf_counter() - start, 3),
        "outputs": out.digests,
        "jobs": log,
        "workers": 1 + max((job["worker"] for job in log), default=0),
        "children_peak_rss_mib": peak,
    }
    write_json(out.root / "manifest.json", manifest)

    for name, ok, detail in check_results:
        print(f"check {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return RunOutcome(0 if all(ok for _, ok, _ in check_results) else 1, summary)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convlab",
        description="Run the convergence-standard experiment suites from a JSON config.",
    )
    parser.add_argument("--config", type=str, default=None, help="path to a JSON config")
    parser.add_argument("--out", type=str, default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the master seed")
    parser.add_argument("--experiment", type=str, default=None,
                        help="|".join((*SUITES, "all")))
    parser.add_argument("--check", action="store_const", const=True, default=None,
                        help="enforce acceptance checks via exit code")
    parser.add_argument("--grid-step", type=float, default=None,
                        help="override the perrin grid step")
    parser.add_argument("--horizon", type=int, default=None,
                        help="override the perrin horizon")
    parser.add_argument("--trials", type=int, default=None,
                        help="override the gaussian Monte Carlo trial count")
    return parser


def main(argv=None) -> int:
    if "numpy" not in sys.modules:  # one BLAS thread lets a numpy suite fork (jobs.usable_cpus)
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    args = build_parser().parse_args(argv)
    try:
        config_path = args.config and Path(_string(args.config, "--config"))
        raw_text = config_path.read_text(encoding="utf-8") if config_path else "{}"
    except (OSError, ConfigError) as exc:  # ConfigError: a path holding a NUL
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print(f"config error: {args.config} is not UTF-8 text: {exc}", file=sys.stderr)
        return 2
    try:
        outcome = run(validate_config(raw_text, vars(args)), out_dir=args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RUN_ERRORS as exc:  # a run that stopped, not a failed --check
        print(f"run error: {exc}", file=sys.stderr)
        return 3
    return outcome.exit_code


if __name__ == "__main__":
    sys.exit(main())
