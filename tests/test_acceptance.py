"""Acceptance gate: one test per criterion, at the stated scale and
tolerance, each printing a PASS/FAIL line (run with -s to see them all).
"""

import time

import pytest

from convlab import checks, cli
from convlab import gaussian as g
from convlab import lineworld as lw
from convlab import perrin as pr
from convlab import predsel as ps
from convlab.framework import PROBE_SIZES, Status

import reference as ref

MASTER_SEED = 20250801


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


def verdicts(results) -> dict:
    """check id -> (passed, detail) from a checks.check_* result list."""
    return {name: (ok, detail) for name, ok, detail in results}


@pytest.fixture(scope="module")
def gaussian_verdicts():
    """The gaussian checks on curve rows at the pinned sizes: analytic
    levels at theta = 0, Monte Carlo at 200,000 trials, and power at
    theta = 0.5."""
    rows = []
    for rule, analytic_ns, mc_ns in (
        (g.aic_rule(), (10, 100, 1000), (100,)),
        (g.fixed_z_rule(1.96), (100,), (100,)),
        (g.bic_rule(), (100, 10**4, 10**6), (100, 10**4, 10**6)),
    ):
        rows += [(rule.label(), 0.0, n, g.truth_prob_analytic(rule, 0.0, n), None)
                 for n in analytic_ns]
        rows += [(rule.label(), 0.0, n, *g.truth_prob_mc(rule, 0.0, n, 200_000, MASTER_SEED))
                 for n in mc_ns]
    for rule, ns in ((g.aic_rule(), (100, 150, 200, 500, 1000, 10**4, 10**6)),
                     (g.bic_rule(), (200, 300, 500, 1000, 10**4, 10**6))):
        rows += [(rule.label(), 0.5, n, g.truth_prob_analytic(rule, 0.5, n), None) for n in ns]
    return verdicts(checks.check_gaussian_levels(rows, 200_000)), rows


@pytest.fixture(scope="module")
def perrin_results():
    # a default run's perrin section: grid [0.5, 1.5] step 0.02, refined 0.01, horizon 40
    pc = cli.validate_config("{}")["perrin"]
    grid = pr.GridSpec(pc["grid_lo"], pc["grid_hi"], pc["grid_step"])
    spec = lw.StreamSpec(pc["delta0"], pc["ratio"])
    methods = cli.perrin_methods(pc)
    start = time.time()
    sheets = {m.kind: pr.score_sheet(m, grid, spec, pc["horizon"]) for m in methods}
    elapsed = time.time() - start
    underdet = {kind: pr.underdetermination_ok(s.domain) for kind, s in sheets.items()}
    return verdicts(checks.check_perrin_theorem(sheets, underdet)), sheets, elapsed


@pytest.fixture(scope="module")
def predsel_results():
    start = time.time()
    a = ps.regime_experiment(ps.poly_truth((1.0, -2.0, 0.5), noise_sigma=1.0),
                             range(0, 7), n=500, reps=2000, seed=MASTER_SEED)
    elapsed_a = time.time() - start
    b = ps.regime_experiment(ps.abs_truth(noise_sigma=0.5), range(0, 13),
                             n=500, reps=1000, seed=MASTER_SEED)
    pc = cli.validate_config("{}")["predsel"]  # owes these regimes' reps x candidates
    return verdicts(checks.check_predsel_directions(a, b, pc)), a, elapsed_a


def test_criterion_1_aic_level(gaussian_verdicts):
    results, rows = gaussian_verdicts
    ok, detail = results["gaussian_aic_level"]
    mc = [p for r, t, n, p, se in rows if r == g.aic_rule().label() and se is not None]
    report("01-aic-level", ok, f"{detail} mc={mc[0]:.4f}")


def test_criterion_2_confidence_rule_level(gaussian_verdicts):
    ok, detail = gaussian_verdicts[0]["gaussian_m_dagger_level"]
    report("02-m-dagger-level", ok, detail)


def test_criterion_3_bic_consistency(gaussian_verdicts):
    ok, detail = gaussian_verdicts[0]["gaussian_bic_consistency"]
    report("03-bic-consistency", ok, detail)


def test_criterion_4_power(gaussian_verdicts):
    ok, _ = gaussian_verdicts[0]["gaussian_power"]
    report("04-power", ok,
           f"aic(n=100)={g.truth_prob_analytic(g.aic_rule(), 0.5, 100):.6f} "
           f"bic(n=200)={g.truth_prob_analytic(g.bic_rule(), 0.5, 200):.6f}")


def test_criterion_5_lineworld_suite():
    start = time.time()
    thetas = [round(i * 0.01, 10) for i in range(-50, 51)]
    assert len(thetas) == 101
    mstar = lw.mstar_method()
    specs = [
        lw.StreamSpec(1.0, 0.7),
        lw.StreamSpec(1.0, 0.7, offset=-1.0),
        lw.StreamSpec(1.0, 0.7, offset=0.7),
    ]
    pointwise = {}
    stable = True
    for spec in specs:
        records = lw.check_pointwise(mstar, thetas, spec, 60)
        pointwise[spec.label()] = {s.value: sum(r.status is s for r in records) for s in Status}
        stable = stable and all(r.stable for r in records)

    uniform = [
        {"replay_valid": lw.witness_is_valid(method, lw.refute_uniform(method, length), length)}
        for method in (mstar, ref.always_complex_method(), lw.always_suspend_method())
        for length in (1.0, 0.1, 0.01)
    ]
    adversaries = lw.razor_violator_suite()
    assert len(adversaries) >= 3
    lc = cli.validate_config("{}")["lineworld"]
    razor = {m.name: lw.razor_necessity_probe(m, lc["razor_budget"]).consequence
             for m in [mstar] + adversaries}
    summary = {"worlds": len(thetas), "pointwise_by_stream": pointwise, "mstar_stable": stable,
               "uniform_refutations": uniform, "razor_probe": razor}
    results = checks.check_lineworld_suite(summary, lc)
    elapsed = time.time() - start
    ok = all(passed for _, passed, _ in results) and elapsed < 10.0
    report("05-lineworld-suite", ok,
           " ".join(f"{name}={passed}" for name, passed, _ in results)
           + f" razor=[{'; '.join(f'{k}:{v}' for k, v in razor.items())}] elapsed={elapsed:.1f}s")


def test_criterion_6_regime_reversal_true_model(predsel_results):
    results, a, elapsed = predsel_results
    ok, detail = results["predsel_regime_true_model"]
    diff = a.correct_frequency_bic - a.correct_frequency_aic
    report("06-regime-true-model", ok and elapsed < 120.0,
           f"{detail} diff={diff:.4f} elapsed={elapsed:.1f}s")


def test_criterion_7_regime_reversal_misspecified(predsel_results):
    ok, detail = predsel_results[0]["predsel_regime_misspecified"]
    report("07-regime-misspecified", ok, detail)


def test_criterion_8_unbiasedness_probe():
    truth = ps.poly_truth((1.0, -2.0, 0.5), noise_sigma=1.0)
    probes = {n: ps.unbiasedness_probe(truth, 2, n, 4000, MASTER_SEED) for n in PROBE_SIZES}
    [(_, ok, detail)] = checks.check_predsel_probe(probes)
    report("08-unbiasedness-probe", ok, detail)


def test_criterion_9_score_sheet_theorem(perrin_results):
    results, sheets, elapsed = perrin_results
    ok, detail = results["perrin_score_sheet"]
    report("09-score-sheet", ok and elapsed < 60.0, f"{detail} elapsed={elapsed:.1f}s")


def test_criterion_10_lower_dimension_refinement(perrin_results):
    results, sheets, _ = perrin_results
    ok, detail = results["perrin_lower_dimension"]
    anti = sheets["ANTI_REALIST"].fractions
    report("10-lower-dimension", ok,
           f"{detail}; anti_strand {anti['coarse']['strand']['DIVERGES']:.0%}"
           f"/{anti['refined']['strand']['DIVERGES']:.0%}")


def test_criterion_11_underdetermination(perrin_results):
    ok, detail = perrin_results[0]["perrin_underdetermination"]
    report("11-underdetermination", ok, detail)


def test_criterion_12_estimator_quality():
    size = 400
    coverage = {}
    for kind in ("brownian", "sediment"):
        res = pr.coverage_study(kind, 1.0, 2.0, size, 1000, 0.95, MASTER_SEED)
        coverage[kind] = {"coverage": res.coverage, "mean_width": res.mean_width,
                          "reps": res.reps}
    [(_, ok, detail)] = checks.check_perrin_estimators(coverage, size)
    ratios = {kind: c["mean_width"] * size**0.5 / checks.ROOT_N_WIDTH[kind]
              for kind, c in coverage.items()}
    report("12-estimator-quality", ok,
           f"{detail} width/root-n width={{br={ratios['brownian']:.4f}, "
           f"sed={ratios['sediment']:.4f}}}")
