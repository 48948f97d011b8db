"""Acceptance checks: predicates over results a run already holds.

Each check_* function judges values computed elsewhere, by the CLI's
run under --check or by the acceptance tests at their pinned sizes, and
returns a list of (check_id, passed, detail).  Every threshold and the
expected score-sheet patterns are written here once.  A check given no
results to judge fails.
"""

from __future__ import annotations

import math
from collections import defaultdict

from . import lineworld as lw
from .framework import CONFIDENCE, DEFAULT_TIMES, PROBE_SIZES, normal_quantile

MC_FLOOR = 0.004  # absolute MC tolerance of the fixed-z levels, below 4 se at small trials
MC_Z = 4.0  # the Wilson interval's width in standard errors
BIC_TARGETS = {100: 0.968, 10**4: 0.9976, 10**6: 0.9998}
PROBE_ALPHA = 0.01  # family-wise rate at which predsel_unbiasedness fails a sound estimator
PROBE_Z = normal_quantile(1.0 - PROBE_ALPHA / (2 * len(PROBE_SIZES)))  # Bonferroni, ~3.02
# a CONFIDENCE interval's width about na = 1 at sample size m, times sqrt(m), to first order:
# 2 z s, where s / sqrt(m) is the estimator's relative se, 1 for the rate MLE and
# sqrt(2 sum t^4) / sum t^2 for the least-squares msd slope (perrin._intervals)
_T, _Z = DEFAULT_TIMES, normal_quantile(1.0 - (1.0 - CONFIDENCE) / 2.0)
ROOT_N_WIDTH = {kind: 2.0 * _Z * s for kind, s in (
    ("brownian", math.sqrt(2.0 * sum(t**4 for t in _T)) / sum(t * t for t in _T)),
    ("sediment", 1.0))}


def _mc_agrees(exact: dict, mc: list, floor: float, trials: int) -> tuple:
    """(verdict, detail suffix) of a rule's Monte Carlo (n, p) rows at theta = 0
    against its analytic rows there, {n: p}.  Every Monte Carlo row must lie within
    floor of the analytic row at the same n (which must exist), or have it inside
    the z = 4 Wilson score interval (Wilson 1927) of its estimate at the run's trial
    count, which unlike a plug-in se stays open at 0 and 1.  The suffix says why the
    rule fails unjudged ("" when it is judged)."""
    missing = ",".join(str(n) for n, _ in mc if n not in exact)
    if not mc:
        return False, "; no Monte Carlo rows at theta=0"
    if missing:
        return False, f"; no analytic row at Monte Carlo n={missing}"
    shrink = 1.0 + MC_Z**2 / trials

    def agrees(n, p):
        center = (p + MC_Z**2 / (2.0 * trials)) / shrink
        half = MC_Z / shrink * math.sqrt(p * (1.0 - p) / trials + (MC_Z / (2.0 * trials))**2)
        return abs(p - exact[n]) <= floor or abs(exact[n] - center) <= half

    return all(agrees(n, p) for n, p in mc), ""


def check_gaussian_levels(rows, trials: int):
    """The constant levels of the sqrt(2)-threshold rule and the 95% rule,
    BIC's rising level, and power at theta = 0.5.

    rows: (rule label, theta, n, truth_prob, se) curve rows as written to
    curves.csv; analytic rows have se None, Monte Carlo rows carry it and
    were drawn at `trials` trials each.
    """
    from .gaussian import aic_rule, bic_rule, confidence_rule_95

    aic, m95, bic = aic_rule().label(), confidence_rule_95().label(), bic_rule().label()
    exact, mc = defaultdict(dict), defaultdict(list)  # {(rule, theta): {n: p}}, {rule: [(n, p)]}
    for rule, theta, n, p, se in rows:
        if se is None:
            exact[rule, theta][n] = p
        elif theta == 0.0:
            mc[rule].append((n, p))
    results = []
    for check_id, rule, level in (("gaussian_aic_level", aic, 0.8427),  # fixed-z: flat in n
                                  ("gaussian_m_dagger_level", m95, 0.9500)):
        levels = list(exact[rule, 0.0].values())
        agree, gap = _mc_agrees(exact[rule, 0.0], mc[rule], MC_FLOOR, trials)
        ok = bool(levels) and all(abs(p - level) <= 0.0005 for p in levels)
        ok = ok and max(levels) - min(levels) <= 1e-12 and agree
        detail = f"analytic={levels[0]:.6f}" if levels else "no analytic rows at theta=0"
        results.append((check_id, ok, detail + gap))

    vals = exact[bic, 0.0]
    agree, gap = _mc_agrees(vals, mc[bic], 0.0, trials)
    hit = [n for n in BIC_TARGETS if n in vals]
    rising = [vals[n] for n in sorted(vals)]
    ok = bool(hit) and all(abs(vals[n] - BIC_TARGETS[n]) <= 0.001 for n in hit)
    ok = ok and all(a < b for a, b in zip(rising, rising[1:])) and agree
    targets = " ".join(f"n={n}:{vals[n]:.5f}" for n in hit)
    targets = targets or "no analytic row at n=" + ",".join(map(str, BIC_TARGETS))
    results.append(("gaussian_bic_consistency", ok, targets + gap))

    gaps = []
    for label, n0 in ((aic, 100), (bic, 200)):  # sample sizes from which theta = 0.5 is found
        probs = {n: p for n, p in exact[label, 0.5].items() if n >= n0}
        low = " ".join(f"n={n}:{p:.5f}" for n, p in probs.items() if not p >= 0.999)
        if not probs:
            gaps.append(f"{label} has no analytic row at theta=0.5 and n>={n0}")
        elif low:
            gaps.append(f"{label} below 0.999 at theta=0.5: {low}")
    results.append(("gaussian_power", not gaps, "; ".join(["theta=0.5 thresholds", *gaps])))
    return results


def check_lineworld_suite(summary: dict, lc: dict):
    """summary: a lineworld run summary (worlds, pointwise_by_stream,
    mstar_stable, uniform_refutations, razor_probe); lc: the config's lineworld
    section, whose grid and offsets give the worlds and streams the run owes."""
    worlds = summary["worlds"]
    counts = list(summary["pointwise_by_stream"].values())
    got = (worlds, len(counts))
    owed = (round((lc["theta_max"] - lc["theta_min"]) / lc["theta_step"]) + 1, len(lc["offsets"]))
    detail = f"{worlds} worlds x {len(counts)} streams"
    if got != owed:
        detail += f", config gives {owed[0]} x {owed[1]}"
    ok = got == owed and summary["mstar_stable"] and all(c["CONVERGES"] == worlds for c in counts)
    results = [("lineworld_mstar_pointwise_stable", ok, detail)]

    uniform = summary["uniform_refutations"]
    ok = bool(uniform) and all(u["replay_valid"] for u in uniform)
    results.append(("lineworld_uniform_refuted", ok, f"{len(uniform)} witnesses replayed"))

    razor = summary["razor_probe"]
    violators = [m.name for m in lw.razor_violator_suite()]
    ok = razor.get("mstar") == "NONE_FOUND"
    ok = ok and all(razor.get(n) in ("POINTWISE_FAIL", "STABILITY_FAIL") for n in violators)
    results.append(("lineworld_razor_probe", ok, ",".join(str(razor.get(n)) for n in violators)))
    return results


def check_predsel_directions(a, b):
    """a, b: the predsel.RegimeSummary of regime A (true model) and B (misspecified)."""
    results = []
    diff = a.correct_frequency_bic - a.correct_frequency_aic
    results.append(("predsel_regime_true_model", diff >= 0.05,
                    f"bic={a.correct_frequency_bic:.4f} aic={a.correct_frequency_aic:.4f}"))
    results.append(("predsel_regime_misspecified",
                    b.mean_excess_risk_aic < b.mean_excess_risk_bic,
                    f"aic={b.mean_excess_risk_aic:.6f} bic={b.mean_excess_risk_bic:.6f}"))
    return results


def check_predsel_probe(probes: dict):
    """probes: probed sample size -> predsel.ProbeReport, one per size of
    PROBE_SIZES.  The relative bias at n = 200 must be at most
    0.02, and every size's z within the two-sided normal bound PROBE_Z."""
    at200 = probes[200].relative_bias if 200 in probes else math.inf
    ok = sorted(probes) == sorted(PROBE_SIZES) and at200 <= 0.02
    ok = ok and all(abs(p.z) <= PROBE_Z for p in probes.values())
    zs = " ".join(f"{n}:{p.z:+.2f}" for n, p in sorted(probes.items()))
    return [("predsel_unbiasedness", ok, f"rel_bias(200)={at200:.5f} z({zs}) |z|<={PROBE_Z:.2f}")]


EXPECTED_PATTERNS = {
    "OCKHAM_REALIST": (True, True, True),
    "ANTI_REALIST": (False, False, True),
    "WAY1": (True, False, True),
    "WAY2": (True, True, False),
    "WAY3": (False, None, True),  # None: maximality unconstrained
}


def check_perrin_theorem(sheets: dict, underdetermination: dict):
    """sheets: method kind -> ScoreSheet; underdetermination: method
    kind -> underdetermination_ok verdict."""
    from . import perrin as pr

    results = []
    ok = True
    details = []
    for kind, expected in EXPECTED_PATTERNS.items():
        got = sheets[kind].pattern()
        match = all(e is None or e == v for e, v in zip(expected, got))
        ok = ok and match
        details.append(f"{kind}:{''.join('P' if v else 'F' for v in got)}")
    way2 = sheets["WAY2"]
    ok = ok and not way2.stable.passed and len(way2.stable.witnesses) > 0
    results.append(("perrin_score_sheet", ok, " ".join(details)))

    ock = sheets["OCKHAM_REALIST"].fractions
    f1 = ock["coarse"]["plane"]["DIVERGES"]
    f2 = ock["refined"]["plane"]["DIVERGES"]
    ok = f1 > 0 and pr._dimension_ok(f1, f2)
    anti = sheets["ANTI_REALIST"].fractions
    ok = ok and anti["coarse"]["strand"]["DIVERGES"] == 1.0
    ok = ok and anti["refined"]["strand"]["DIVERGES"] == 1.0
    results.append(("perrin_lower_dimension", ok, f"ockham plane {f1:.5f}->{f2:.5f}"))

    ok = bool(underdetermination) and all(underdetermination.values())
    results.append(("perrin_underdetermination", ok, "no pair doubly covered"))
    return results


def check_perrin_estimators(coverage: dict, m: int):
    """coverage: estimator kind -> {"coverage", "mean_width", "reps"} of the run's
    coverage_study at na = 1, confidence CONFIDENCE and sample size m.  Each kind covers
    at least 0.93 of its reps (a bar set for 95% intervals), and its mean width is
    ROOT_N_WIDTH / sqrt(m) to within a relative 0.05 + 3 / m (second-order terms:
    m / (m - 1) for the rate, about 1 + 2 / m for the slope) + 4 / sqrt(m * reps) (4 se
    of a mean of reps widths, each of relative sd about 1 / sqrt(m))."""
    ok = bool(coverage) and all(c["coverage"] >= 0.93 for c in coverage.values())
    for kind, c in coverage.items():
        ratio = c["mean_width"] * math.sqrt(m) / ROOT_N_WIDTH[kind]
        ok = ok and abs(ratio - 1.0) <= 0.05 + 3.0 / m + 4.0 / math.sqrt(m * c["reps"])
    detail = " ".join(f"{k}={c['coverage']:.3f}" for k, c in coverage.items())
    return [("perrin_estimators", ok, f"coverage {detail}")]
