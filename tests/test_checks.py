"""The acceptance checks are predicates: each passes on sound results and
fails on results doctored to break exactly the property it judges."""

import copy
import math
from types import SimpleNamespace

import pytest

from convlab import checks
from convlab import gaussian as g
from convlab import perrin as pr
from convlab import predsel as ps
from convlab.framework import PROBE_SIZES, ModeReport
from convlab.perrin import ScoreSheet

AIC, M95, BIC = g.aic_rule().label(), g.confidence_rule_95().label(), g.bic_rule().label()


def verdicts(results) -> dict:
    return {name: ok for name, ok, _ in results}


TRIALS = 200_000  # the default gaussian.mc_trials


def gaussian_rows():
    """Analytic rows at theta 0 and 0.5, and one Monte Carlo row per rule
    at theta 0 that agrees with the analytic value at TRIALS trials."""
    rows = []
    for rule in (g.aic_rule(), g.confidence_rule_95(), g.bic_rule()):
        for theta in (0.0, 0.5):
            for n in (10, 100, 1000, 10**4):
                p = g.truth_prob_analytic(rule, theta, n)
                rows.append((rule.label(), theta, n, p, None))
        p100 = g.truth_prob_analytic(rule, 0.0, 100)
        rows.append((rule.label(), 0.0, 100, p100 + 0.0005, 0.0008))
    return rows


def shift_mc(rows, rule, delta):
    return [(r, t, n, p + delta if r == rule and se is not None else p, se)
            for r, t, n, p, se in rows]


GAUSSIAN_DOCTORED = {
    "gaussian_aic_level": lambda rows: shift_mc(rows, AIC, 0.005),
    "gaussian_m_dagger_level": lambda rows: [row for row in rows
                                             if row[0] != M95 or row[4] is None],
    "gaussian_bic_consistency": lambda rows: [row for row in rows
                                              if row[0] != BIC or (row[1], row[2]) != (0.0, 100)],
    "gaussian_power": lambda rows: [row if (row[0], row[1], row[2]) != (BIC, 0.5, 1000)
                                    else (*row[:3], 0.99, None) for row in rows],
}


def test_bounds_keep_the_values_computed_through_the_suites():
    # checks reads the normal quantile and the suites' constants without numpy
    assert checks.PROBE_Z == g.normal_quantile(1.0 - checks.PROBE_ALPHA / (2 * len(PROBE_SIZES)))
    t, z = pr.DEFAULT_TIMES, g.normal_quantile(0.975)
    slope = math.sqrt(2.0 * sum(x**4 for x in t)) / sum(x * x for x in t)
    assert checks.ROOT_N_WIDTH == {"brownian": 2.0 * z * slope, "sediment": 2.0 * z * 1.0}
    assert (checks.PROBE_Z, checks.ROOT_N_WIDTH["brownian"], checks.ROOT_N_WIDTH["sediment"]) == (
        3.0233414397391534, 2.5451432356152246, 3.919927969080107)


def test_gaussian_checks_pass_on_sound_rows():
    assert all(verdicts(checks.check_gaussian_levels(gaussian_rows(), TRIALS)).values())


@pytest.mark.parametrize("check_id", list(GAUSSIAN_DOCTORED))
def test_gaussian_check_fails_on_doctored_rows(check_id):
    got = verdicts(checks.check_gaussian_levels(GAUSSIAN_DOCTORED[check_id](gaussian_rows()),
                                                TRIALS))
    assert [name for name, ok in got.items() if not ok] == [check_id]


@pytest.mark.parametrize("rule, check_id", [(AIC, "gaussian_aic_level"),
                                             (M95, "gaussian_m_dagger_level")])
def test_fixed_z_level_must_be_flat_in_n(rule, check_id):
    # still within 0.0005 of the level, but 1e-9 off at one n: a fixed-z rule's
    # level at theta = 0 is the same at every n
    rows = [(r, t, n, p + 1e-9 if (r, t, n, se) == (rule, 0.0, 1000, None) else p, se)
            for r, t, n, p, se in gaussian_rows()]
    got = verdicts(checks.check_gaussian_levels(rows, TRIALS))
    assert [name for name, ok in got.items() if not ok] == [check_id]


def test_gaussian_details_name_the_rows_missing():
    details = {name: detail for name, _, detail in checks.check_gaussian_levels(
        gaussian_rows(), TRIALS)}
    assert not any("no " in detail for detail in details.values())
    # the Monte Carlo rows at n = 100 lose their analytic rows
    rows = [row for row in gaussian_rows() if row[4] is not None or row[2] != 100]
    results = checks.check_gaussian_levels(rows, TRIALS)
    unmatched = "; no analytic row at Monte Carlo n=100"
    assert {name: (ok, detail.endswith(unmatched)) for name, ok, detail in results} == {
        "gaussian_aic_level": (False, True), "gaussian_m_dagger_level": (False, True),
        "gaussian_bic_consistency": (False, True), "gaussian_power": (True, False)}
    rows = [row for row in rows if row[4] is None and row[2] not in (10**4, 10**6)]
    details = {name: detail for name, _, detail in checks.check_gaussian_levels(rows, TRIALS)}
    assert details["gaussian_bic_consistency"] == (
        "no analytic row at n=100,10000,1000000; no Monte Carlo rows at theta=0")


def test_gaussian_power_detail_names_rule_and_rows():
    def power(rows):
        [(ok, detail)] = [(ok, d) for name, ok, d in checks.check_gaussian_levels(rows, TRIALS)
                          if name == "gaussian_power"]
        return ok, detail

    assert power(gaussian_rows()) == (True, "theta=0.5 thresholds")
    assert power(GAUSSIAN_DOCTORED["gaussian_power"](gaussian_rows())) == (
        False, f"theta=0.5 thresholds; {BIC} below 0.999 at theta=0.5: n=1000:0.99000")
    # a grid that stops short of the sizes the rules are judged from (n_grid [20, 50])
    small = [row for row in gaussian_rows() if row[2] < 100]
    assert power(small) == (False, f"theta=0.5 thresholds; {AIC} has no analytic row at "
                                   f"theta=0.5 and n>=100; {BIC} has no analytic row at "
                                   f"theta=0.5 and n>=200")


def test_mc_agreement_at_probability_one():
    # an estimate of 1.0 has a plug-in se of 0, and BIC's floor is 0: at 1,000
    # trials the z = 4 Wilson interval of 1.0 reaches down to 0.984, past 0.9998
    exact, mc = {10**6: g.truth_prob_analytic(g.bic_rule(), 0.0, 10**6)}, [(10**6, 1.0)]
    assert checks._mc_agrees(exact, mc, 0.0, 1000) == (True, "")
    # a million trials put 0.9998 outside it, and so does a doctored analytic row
    assert checks._mc_agrees(exact, mc, 0.0, 10**6) == (False, "")
    assert checks._mc_agrees({10**6: 0.98}, mc, 0.0, 1000) == (False, "")


LINEWORLD = {
    "worlds": 11,
    "pointwise_by_stream": {
        stream: {"CONVERGES": 11, "DIVERGES": 0, "UNDETERMINED": 0}
        for stream in ("centered", "offcenter")
    },
    "mstar_stable": True,
    "uniform_refutations": [{"replay_valid": True}] * 3,
    "razor_probe": {"mstar": "NONE_FOUND", "always_suspend": "NONE_FOUND",
                    "width_violator(0.01)": "POINTWISE_FAIL",
                    "stage_violator(3)": "STABILITY_FAIL",
                    "parity_violator": "STABILITY_FAIL"},
}
# the config section that owes LINEWORLD's 11 worlds x 2 streams
LINEWORLD_SECTION = {"theta_min": -0.5, "theta_max": 0.5, "theta_step": 0.1, "offsets": [0.0, -1.0]}


def one_diverges(s):
    s["pointwise_by_stream"]["offcenter"].update(CONVERGES=10, DIVERGES=1)


def zero_worlds(s):
    s["worlds"] = 0
    for counts in s["pointwise_by_stream"].values():
        counts["CONVERGES"] = 0


def one_world_short(s):
    s["worlds"] = 10
    for counts in s["pointwise_by_stream"].values():
        counts["CONVERGES"] = 10


def one_stream_short(s):
    del s["pointwise_by_stream"]["offcenter"]


def unstable(s):
    s["mstar_stable"] = False


def replay_invalid(s):
    s["uniform_refutations"] = [{"replay_valid": True}, {"replay_valid": False}]


def no_witnesses(s):
    s["uniform_refutations"] = []


def violator_unflagged(s):
    s["razor_probe"]["parity_violator"] = "NONE_FOUND"


@pytest.mark.parametrize("check_id, doctor", [
    ("lineworld_mstar_pointwise_stable", one_diverges),
    ("lineworld_mstar_pointwise_stable", zero_worlds),
    ("lineworld_mstar_pointwise_stable", one_world_short),
    ("lineworld_mstar_pointwise_stable", one_stream_short),
    ("lineworld_mstar_pointwise_stable", unstable),
    ("lineworld_uniform_refuted", replay_invalid),
    ("lineworld_uniform_refuted", no_witnesses),
    ("lineworld_razor_probe", violator_unflagged),
])
def test_lineworld_check_fails_on_doctored_summary(check_id, doctor):
    assert all(verdicts(checks.check_lineworld_suite(LINEWORLD, LINEWORLD_SECTION)).values())
    summary = copy.deepcopy(LINEWORLD)
    doctor(summary)
    got = verdicts(checks.check_lineworld_suite(summary, LINEWORLD_SECTION))
    assert [name for name, ok in got.items() if not ok] == [check_id]


def test_lineworld_counts_detail():
    # the detail names the config's counts only when the run's differ from them
    assert checks.check_lineworld_suite(LINEWORLD, LINEWORLD_SECTION)[0] == (
        "lineworld_mstar_pointwise_stable", True, "11 worlds x 2 streams")
    one = dict(LINEWORLD_SECTION, theta_min=0.25, theta_max=0.25)  # owes one world
    assert checks.check_lineworld_suite(LINEWORLD, one)[0] == (
        "lineworld_mstar_pointwise_stable", False, "11 worlds x 2 streams, config gives 1 x 2")


# the config section that owes regime A 2,000 reps x 7 candidates and regime B 1,000 x 13
PREDSEL_SECTION = {"regime_a_reps": 2000, "regime_a_max_degree": 6,
                   "regime_b_reps": 1000, "regime_b_max_degree": 12}


def regimes(freq_aic=0.70, freq_bic=0.80, risk_aic=0.0018, risk_bic=0.0025,
            a_counts=(2000, 7), b_counts=(1000, 13)):
    a = SimpleNamespace(correct_frequency_aic=freq_aic, correct_frequency_bic=freq_bic,
                        reps=a_counts[0], degrees=range(a_counts[1]))
    b = SimpleNamespace(mean_excess_risk_aic=risk_aic, mean_excess_risk_bic=risk_bic,
                        reps=b_counts[0], degrees=range(b_counts[1]))
    return a, b, PREDSEL_SECTION


def test_predsel_directions():
    assert all(verdicts(checks.check_predsel_directions(*regimes())).values())
    got = verdicts(checks.check_predsel_directions(*regimes(freq_bic=0.74)))
    assert got == {"predsel_regime_true_model": False, "predsel_regime_misspecified": True}
    got = verdicts(checks.check_predsel_directions(*regimes(risk_aic=0.003)))
    assert got == {"predsel_regime_true_model": True, "predsel_regime_misspecified": False}
    # equal means fail: a run reporting BIC's mean excess risk as AIC's prints a tie
    got = verdicts(checks.check_predsel_directions(*regimes(risk_aic=0.0025)))
    assert got["predsel_regime_misspecified"] is False
    got = verdicts(checks.check_predsel_directions(*regimes(risk_aic=math.nextafter(0.0025, 0))))
    assert got["predsel_regime_misspecified"] is True


@pytest.mark.parametrize("counts, failing", [
    ({"b_counts": (1000, 12)}, "predsel_regime_misspecified"),  # regime B one degree short
    ({"b_counts": (999, 13)}, "predsel_regime_misspecified"),
    ({"a_counts": (2000, 8)}, "predsel_regime_true_model"),
    ({"a_counts": (1000, 7)}, "predsel_regime_true_model"),
])
def test_predsel_regime_counts_against_the_config(counts, failing):
    # a regime whose reps x candidates differ from the config's fails however its selectors
    # compare, and its detail names the config's counts; a matching regime's detail is unchanged
    got = checks.check_predsel_directions(*regimes(**counts))
    sound = checks.check_predsel_directions(*regimes())
    owed = {"predsel_regime_true_model": "2000 x 7", "predsel_regime_misspecified": "1000 x 13"}
    for (check_id, ok, detail), (_, _, plain) in zip(got, sound):
        if check_id == failing:
            assert not ok and detail == f"{plain}, config gives {owed[check_id]}"
        else:
            assert ok and detail == plain


def probes(z=0.5, rel_bias=0.001, sizes=PROBE_SIZES):
    """n -> ProbeReport with the given relative bias and z at each size."""
    return {n: ps.ProbeReport(1.0, 1.0, rel_bias, z) for n in sizes}


@pytest.mark.parametrize("probe, ok", [
    (probes(), True),
    (probes(rel_bias=0.03), False),
    ({**probes(), 400: probes(z=3.1)[400]}, False),
    (probes(sizes=(50, 200, 400)), False),  # a probed size is missing
    ({}, False),
    (probes(z=-3.0), True),  # inside the Bonferroni bound of about 3.02
    (probes(rel_bias=0.02), True),
    ({**probes(), 50: probes(z=-3.1)[50]}, False),
    ({**probes(), 100: probes(z=math.nan)[100]}, False),
    (probes(sizes=(50, 100, 400)), False),  # no relative bias at n = 200
    ({**probes(), 800: probes(sizes=(800,))[800]}, False),  # a size the run does not probe
])
def test_predsel_probe(probe, ok):
    [(_, passed, _)] = checks.check_predsel_probe(probe)
    assert passed is ok


def sheet(pattern, plane=(0.0, 0.0), strand=(0.0, 0.0)):
    # None in a pattern (a criterion left unconstrained) is built as a pass
    reports = [ModeReport(mode, ok is not False, () if ok is not False else ({"w": 0},))
               for mode, ok in zip(("ALMOST_EVERYWHERE", "MAXIMAL_DOMAIN", "STABILITY"), pattern)]
    fractions = {grid: {"plane": {"DIVERGES": plane[i]}, "strand": {"DIVERGES": strand[i]}}
                 for i, grid in enumerate(("coarse", "refined"))}
    return ScoreSheet("m", *reports, fractions=fractions)


def sound_sheets():
    sheets = {kind: sheet(pattern) for kind, pattern in checks.EXPECTED_PATTERNS.items()}
    sheets["OCKHAM_REALIST"] = sheet((True, True, True), plane=(0.02, 0.01))
    sheets["ANTI_REALIST"] = sheet((False, False, True), strand=(1.0, 1.0))
    return sheets


SOUND_UNDERDET = dict.fromkeys(checks.EXPECTED_PATTERNS, True)


@pytest.mark.parametrize("check_id, sheets, underdet", [
    ("perrin_score_sheet", {**sound_sheets(), "WAY1": sheet((True, True, True))}, SOUND_UNDERDET),
    ("perrin_score_sheet", {**sound_sheets(), "WAY2": sheet((True, True, True))}, SOUND_UNDERDET),
    ("perrin_lower_dimension",
     {**sound_sheets(), "OCKHAM_REALIST": sheet((True, True, True), plane=(0.02, 0.02))},
     SOUND_UNDERDET),
    ("perrin_lower_dimension",
     {**sound_sheets(), "ANTI_REALIST": sheet((False, False, True), strand=(1.0, 0.9))},
     SOUND_UNDERDET),
    ("perrin_underdetermination", sound_sheets(), {**SOUND_UNDERDET, "WAY2": False}),
    ("perrin_underdetermination", sound_sheets(), {}),
])
def test_perrin_theorem_fails_on_doctored_sheets(check_id, sheets, underdet):
    assert all(verdicts(checks.check_perrin_theorem(sound_sheets(), SOUND_UNDERDET)).values())
    got = verdicts(checks.check_perrin_theorem(sheets, underdet))
    assert [name for name, ok in got.items() if not ok] == [check_id]


def study(kind, ratio=1.0, coverage=0.95, size=400, reps=1000):
    """A coverage study's summary whose mean width is ratio times the
    root-n width at the size."""
    return {"coverage": coverage, "mean_width": ratio * checks.ROOT_N_WIDTH[kind] / math.sqrt(size),
            "reps": reps}


SOUND_COVERAGE = {"brownian": study("brownian", 1.005), "sediment": study("sediment", 1.002)}


@pytest.mark.parametrize("coverage, size, ok", [
    (SOUND_COVERAGE, 400, True),
    ({**SOUND_COVERAGE, "sediment": study("sediment", coverage=0.92)}, 400, False),
    ({**SOUND_COVERAGE, "brownian": study("brownian", 1.5)}, 400, False),  # too wide
    ({**SOUND_COVERAGE, "sediment": study("sediment", 0.9)}, 400, False),  # too narrow
    # widths scaling as size**-0.3, matched at size 100, are 4**0.2 too wide at 400
    ({**SOUND_COVERAGE, "brownian": study("brownian", 4**0.2)}, 400, False),
    # at size 10 the second-order terms widen a sound study by about a quarter
    ({"brownian": study("brownian", 1.26, size=10), "sediment": study("sediment", 1.12, size=10)},
     10, True),
    ({"brownian": study("brownian", 1.5, size=10), "sediment": study("sediment", 1.12, size=10)},
     10, False),
    # the same widths judged at another size than they were studied at
    (SOUND_COVERAGE, 100, False),
    ({}, 400, False),
], ids=["sound", "low-coverage", "too-wide", "too-narrow", "width-scale-0.3", "sound-at-10",
        "too-wide-at-10", "other-size", "no-studies"])
def test_perrin_estimators(coverage, size, ok):
    [(_, passed, _)] = checks.check_perrin_estimators(coverage, size)
    assert passed is ok
