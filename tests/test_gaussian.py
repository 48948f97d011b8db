import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from convlab import gaussian as g
from convlab.framework import OracleContradiction, Verdict

import reference as ref

S, C = Verdict.SIMPLE, Verdict.COMPLEX

# reference values for the standard normal CDF (tabulated to 17 digits)
CDF_TABLE = {
    0.0: 0.5,
    0.5: 0.6914624612740131,
    1.0: 0.84134474606854295,
    math.sqrt(2.0): 0.92135039647485744,
    1.96: 0.97500210485177957,
    -2.5: 0.0062096653257761352,
    3.5: 0.99976737092096447,
    -4.2: 1.3345749015906338e-5,
}


class TestNormalCdf:
    def test_against_table(self):
        for x, ref in CDF_TABLE.items():
            assert g.normal_cdf(x) == pytest.approx(ref, abs=1e-7)

    def test_tight_agreement_with_libm(self):
        xs = np.linspace(-8, 8, 2001)
        for x in xs:
            ref = 0.5 * math.erfc(-x / math.sqrt(2.0))
            assert abs(g.normal_cdf(float(x)) - ref) < 1e-13

    def test_symmetry(self):
        for x in (0.3, 1.7, 2.9, 5.0):
            assert g.normal_cdf(x) + g.normal_cdf(-x) == pytest.approx(1.0, abs=1e-14)

    def test_against_high_precision_oracle(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        for x in np.linspace(-6, 6, 121):
            ref = float(mpmath.ncdf(mpmath.mpf(float(x))))
            assert abs(g.normal_cdf(float(x)) - ref) < 1e-13

    def test_quantile_roundtrip(self):
        for p in (0.001, 0.05, 0.5, 0.84, 0.975, 0.9999):
            assert g.normal_cdf(g.normal_quantile(p)) == pytest.approx(p, abs=1e-11)
        with pytest.raises(ValueError):
            g.normal_quantile(0.0)


class TestRules:
    def test_confidence_rule_keeps_simple(self):
        assert ref.decide(g.fixed_z_rule(1.96), 100, 0.1) is S

    def test_aic_equivalent_rule_rejects(self):
        assert ref.decide(g.aic_rule(), 100, 0.15) is C
        assert g.aic_rule().critical_value(100) == pytest.approx(0.1414, abs=1e-4)

    def test_bic_rule_keeps_simple(self):
        rule = g.bic_rule()
        assert rule.critical_value(100) == pytest.approx(0.21460, abs=1e-5)
        assert ref.decide(rule, 100, 0.2) is S

    def test_tie_goes_to_simple(self):
        rule = g.fixed_z_rule(1.0)
        c = rule.critical_value(25)
        assert ref.decide(rule, 25, c) is S

    def test_bic_needs_two_observations(self):
        with pytest.raises(ValueError):
            g.bic_rule().critical_value(1)

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            g.fixed_z_rule(-1.0)
        with pytest.raises(ValueError):
            g.TestRule(kind="bic", z=2.0)
        with pytest.raises(ValueError):
            g.TestRule(kind="wald")

    @given(n=st.integers(2, 10_000), xbar=st.floats(-3, 3),
           z=st.floats(0.1, 4.0))
    def test_threshold_coherence(self, n, xbar, z):
        rule = g.fixed_z_rule(z)
        expected = C if abs(xbar) > rule.critical_value(n) else S
        assert ref.decide(rule, n, xbar) is expected


class TestPenalizedLikelihoodOracle:
    """The two rules are exactly the penalized-likelihood comparisons."""

    @given(st.lists(st.floats(-4, 4), min_size=2, max_size=60))
    def test_aic_threshold_equivalence(self, xs):
        n = len(xs)
        xbar = sum(xs) / n
        assume(abs(n * xbar * xbar - 2.0) > 1e-6)
        prefers = ref.aic_prefers_complex(xs)
        assert prefers == (ref.decide(g.aic_rule(), n, xbar) is C)

    @given(st.lists(st.floats(-4, 4), min_size=2, max_size=60))
    def test_bic_threshold_equivalence(self, xs):
        n = len(xs)
        xbar = sum(xs) / n
        assume(abs(n * xbar * xbar - math.log(n)) > 1e-6)
        prefers = ref.bic_prefers_complex(xs)
        assert prefers == (ref.decide(g.bic_rule(), n, xbar) is C)

    def test_level_is_computed_not_hardcoded(self):
        # the constant level of the derived rule: 2 Phi(sqrt(2)) - 1
        cap = g.level_cap(g.aic_rule())
        assert cap == pytest.approx(2.0 * CDF_TABLE[math.sqrt(2.0)] - 1.0, abs=1e-12)
        assert cap == pytest.approx(0.8427007929497149, abs=1e-12)


class TestTruthProbabilities:
    def test_confidence_rule_level(self):
        p = g.truth_prob_analytic(g.fixed_z_rule(1.96), 0.0, 100)
        assert p == pytest.approx(0.9500, abs=0.0005)

    def test_aic_level_constant(self):
        probs = [g.truth_prob_analytic(g.aic_rule(), 0.0, n) for n in (2, 10, 100, 10**4, 10**6)]
        assert probs[0] == pytest.approx(0.8427, abs=0.0005)
        assert max(probs) - min(probs) <= 1e-12

    def test_bic_level_rises(self):
        p = g.truth_prob_analytic(g.bic_rule(), 0.0, 10**4)
        closed_form = 2.0 * g.normal_cdf(math.sqrt(math.log(10**4))) - 1.0
        assert p == pytest.approx(closed_form, abs=1e-12)
        assert p == pytest.approx(0.9976, abs=0.001)

    def test_bic_monotone_at_zero(self):
        probs = [g.truth_prob_analytic(g.bic_rule(), 0.0, n) for n in range(3, 200)]
        assert all(b > a for a, b in zip(probs, probs[1:]))

    def test_power_thresholds(self):
        for n in (100, 200, 500, 1000):
            assert g.truth_prob_analytic(g.aic_rule(), 0.5, n) >= 0.999
        for n in (200, 500, 1000):
            assert g.truth_prob_analytic(g.bic_rule(), 0.5, n) >= 0.999

    def test_symmetric_in_theta(self):
        rule = g.aic_rule()
        for n in (5, 50):
            assert g.truth_prob_analytic(rule, 0.3, n) == pytest.approx(
                g.truth_prob_analytic(rule, -0.3, n), abs=1e-14)


class TestMonteCarlo:
    def test_matches_analytic_within_four_se(self):
        for rule in (g.aic_rule(), g.fixed_z_rule(1.96), g.bic_rule()):
            for theta in (0.0, 0.2, 1.0):
                for n in (10, 100):
                    mc, se = g.truth_prob_mc(rule, theta, n, 50_000, seed=11)
                    exact = g.truth_prob_analytic(rule, theta, n)
                    assert abs(mc - exact) <= max(4.0 * se, 1e-4)

    def test_overwhelming_separation(self):
        mc, _ = g.truth_prob_mc(g.aic_rule(), 5.0, 100, 10_000, seed=3)
        assert mc == 1.0

    def test_deterministic_given_seed(self):
        a = g.truth_prob_mc(g.bic_rule(), 0.1, 50, 20_000, seed=5)
        b = g.truth_prob_mc(g.bic_rule(), 0.1, 50, 20_000, seed=5)
        assert a == b

    def test_trial_floor(self):
        with pytest.raises(ValueError):
            g.truth_prob_mc(g.aic_rule(), 0.0, 10, 999, seed=1)

    @pytest.mark.parametrize("trials", [g.MC_BLOCK - 1, g.MC_BLOCK, g.MC_BLOCK + 1, 200_000])
    @pytest.mark.parametrize("rule, theta, n", [(g.aic_rule(), 0.0, 10), (g.bic_rule(), 0.1, 100),
                                                (g.confidence_rule_95(), -0.25, 1000)])
    def test_blocks_count_what_the_whole_draw_counts(self, rule, theta, n, trials):
        # the generator fills in C order, so the blocks draw exactly the whole draw's numbers
        assert g.truth_prob_mc(rule, theta, n, trials, 7) == ref.truth_prob_mc(
            rule, theta, n, trials, 7)

    def test_peak_memory_is_one_block(self):
        # numpy reports its buffers to tracemalloc: 10**6 trials hold one block of
        # MC_BLOCK floats (0.28 MiB peak), not the whole draw (8.58 MiB)
        tracemalloc.start()
        try:
            g.truth_prob_mc(g.bic_rule(), 0.5, 100, 10**6, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * 2**20


def outcome(classify, *args):
    """The reports' repr, or the contradiction's or the grid error's message."""
    try:
        return repr(classify(*args))
    except (OracleContradiction, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def curves(rule, thetas, ns):
    """The run's classify_mode input: one analytic curve per theta, in order."""
    return [(theta, g.curve_analytic(rule, theta, ns)) for theta in thetas]


class TestModeClassification:
    THETAS = [0.0, 0.1, 0.5, 1.0]
    NS = [10, 100, 1000, 10**4]

    def test_aic_rule_passes_high_prob_at_84(self):
        reports = g.classify_mode(g.aic_rule(), curves(g.aic_rule(), self.THETAS, self.NS),
                                  [0.16, 0.05, 0.01])
        assert reports["HIGH_PROB"].passed
        assert not reports["PROB_ONE"].passed
        wit = reports["PROB_ONE"].witnesses[0]
        assert wit["theta"] == 0.0 and wit["cap"] == pytest.approx(0.8427, abs=1e-3)

    def test_confidence_rule_passes_high_prob_at_95(self):
        rule = g.fixed_z_rule(1.96)
        reports = g.classify_mode(rule, curves(rule, self.THETAS, self.NS), [0.05, 0.01])
        assert reports["HIGH_PROB"].passed
        assert not reports["PROB_ONE"].passed

    def test_confidence_rule_fails_tighter_operative_level(self):
        rule = g.fixed_z_rule(1.96)
        reports = g.classify_mode(rule, curves(rule, self.THETAS, self.NS), [0.01])
        assert not reports["HIGH_PROB"].passed

    def test_bic_passes_prob_one(self):
        reports = g.classify_mode(g.bic_rule(), curves(g.bic_rule(), self.THETAS, self.NS),
                                  [0.16, 0.05, 0.001])
        assert reports["HIGH_PROB"].passed
        assert reports["PROB_ONE"].passed

    def test_grids_validated(self):
        with pytest.raises(ValueError):
            g.classify_mode(g.bic_rule(), [], [0.05])
        with pytest.raises(ValueError):
            g.classify_mode(g.bic_rule(), [(0.0, ())], [0.05])
        with pytest.raises(ValueError):
            g.classify_mode(g.bic_rule(), curves(g.bic_rule(), self.THETAS, self.NS), [])

    @pytest.mark.parametrize("thetas, alphas, grid", [
        ([0.5], [0.05], "theta_grid"), ([0.0, 0.5], [0.16, 0.05], "alpha_grid")])
    def test_grids_that_cannot_witness_a_capped_rule_are_refused(self, thetas, alphas, grid):
        # fixed_z(1.96) caps at 0.9500042: it fails PROB_ONE only at theta 0 and alpha < 0.05
        rule = g.confidence_rule_95()
        with pytest.raises(ValueError, match=f"^{grid}: "):
            g.classify_mode(rule, curves(rule, thetas, self.NS), alphas)
        g.classify_mode(g.bic_rule(), curves(g.bic_rule(), thetas, self.NS), alphas)

    def test_curve_below_its_certificate_contradicts(self):
        # AIC at theta = 0.5 and alpha = 0.05 is certified from n0 = 38 on
        assert g.certified_settle_n(g.aic_rule(), 0.5, 0.05) == 38
        with pytest.raises(OracleContradiction, match="at n=100 despite certificate 38"):
            g.classify_mode(g.aic_rule(), [(0.5, ((100, 0.5),))], [0.05])
        # the same probability before the certified size contradicts nothing
        g.classify_mode(g.aic_rule(), [(0.0, g.curve_analytic(g.aic_rule(), 0.0, [37])),
                                       (0.5, ((37, 0.5),))], [0.05])

    @given(thetas=st.lists(st.sampled_from([0.0, 0.5, 1.0])
                           | st.floats(-3.0, 3.0).filter(lambda t: t == 0 or abs(t) >= 1e-150),
                           min_size=1, max_size=4),
           alphas=st.lists(st.floats(1e-6, 0.5), min_size=1, max_size=4),
           rule=st.sampled_from([g.aic_rule(), g.confidence_rule_95(), g.bic_rule()]))
    def test_witnesses_are_pairs_of_the_grids(self, thetas, alphas, rule):
        # a capped rule fails PROB_ONE only at theta 0 and an alpha below 1 - cap: grids
        # without such a pair are refused by name, not passed unjudged
        cap = g.level_cap(rule)
        if cap is not None and 0.0 not in thetas:
            with pytest.raises(ValueError, match="^theta_grid: .* has no 0"):
                g.classify_mode(rule, curves(rule, thetas, self.NS), alphas)
        elif cap is not None and all(cap >= 1.0 - alpha for alpha in alphas):
            with pytest.raises(ValueError, match="^alpha_grid: .* has no alpha below"):
                g.classify_mode(rule, curves(rule, thetas, self.NS), alphas)
        else:
            reports = g.classify_mode(rule, curves(rule, thetas, self.NS), alphas)
            assert not reports["PROB_ONE"].passed or cap is None
            for report in reports.values():
                assert all(w["theta"] in thetas and w["alpha"] in alphas
                           for w in report.witnesses)

    @given(thetas=st.lists(st.sampled_from([0.0, -0.0, 1e-150, -1e-150, 0.5])
                           | st.floats(-3.0, 3.0).filter(lambda t: t == 0 or abs(t) >= 1e-150),
                           min_size=1, max_size=6),
           ns=st.lists(st.integers(2, 10**6) | st.sampled_from([10**12, 10**300]),
                       min_size=1, max_size=5, unique=True),
           alphas=st.lists(st.floats(1e-6, 0.5), min_size=1, max_size=4),
           rule=st.sampled_from([g.aic_rule(), g.confidence_rule_95(), g.bic_rule()]))
    @example(thetas=[0.0, -0.0, 0.1, 0.1, 1e-150, -1e-150], ns=[10, 100, 10**4],
             alphas=[0.05, 0.05, 0.001], rule=g.bic_rule())
    def test_matches_recomputing_reference(self, thetas, ns, alphas, rule):
        # judging the run's curves reports what recomputing them reported
        ns = sorted(ns)
        assert outcome(g.classify_mode, rule, curves(rule, thetas, ns), alphas) == outcome(
            ref.classify_mode, rule, thetas, ns, alphas)


class TestCurves:
    def test_analytic_curve_schema(self):
        curve = g.curve_analytic(g.aic_rule(), 0.0, [10, 100, 1000])
        assert [n for n, _ in curve] == [10, 100, 1000]
        assert curve == tuple((n, g.truth_prob_analytic(g.aic_rule(), 0.0, n))
                              for n in (10, 100, 1000))

    def test_mc_curve_has_se(self):
        for n in (10, 100):
            p, se = g.truth_prob_mc(g.bic_rule(), 0.5, n, 5000, seed=2)
            assert 0.0 <= p <= 1.0 and se is not None and se >= 0

    @given(rule=st.sampled_from([g.aic_rule(), g.confidence_rule_95(), g.bic_rule()]),
           theta=st.sampled_from([0.0, -0.0, 1e-150, -1e-150, 1e300]) | st.floats(-5.0, 5.0),
           n=st.integers(2, 10**6) | st.just(10**300), trials=st.integers(1000, 5000),
           seed=st.integers(0, 2**32 - 1))
    def test_mc_matches_out_of_place_reference(self, rule, theta, n, trials, seed):
        # the in-place divide, shift and abs count what the plain expression counts
        assert g.truth_prob_mc(rule, theta, n, trials, seed) == ref.truth_prob_mc(
            rule, theta, n, trials, seed)
