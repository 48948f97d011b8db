import math
import os
import statistics
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convlab import cli
from convlab import predsel as ps
from convlab.framework import poly_degree
from convlab.rand import substream, substream_key

import reference as ref


def line_dataset(n=20, b0=1.0, b1=2.0):
    xs = np.linspace(-1, 1, n)
    return xs, b0 + b1 * xs


def dataset(truth, n, seed):
    """One seed's xs and ys from generate."""
    x, y = ps.generate(truth, n, [seed])
    return x[0], y[0]


class TestFit:
    def test_recovers_exact_line(self):
        fit = ps.fit_ols(*line_dataset(), 1)
        assert fit.rss < 1e-8
        assert fit.model.coeffs == pytest.approx((1.0, 2.0), abs=1e-9)

    def test_overparameterized_fit_zeroes_extra_coefficient(self):
        fit = ps.fit_ols(*line_dataset(), 2)
        assert fit.rss < 1e-8
        assert abs(fit.model.coeffs[2]) < 1e-8

    def test_degree_zero_is_the_mean(self):
        truth = ps.poly_truth((0.3, 1.0), noise_sigma=0.5)
        xs, ys = dataset(truth, 200, seed=4)
        fit = ps.fit_ols(xs, ys, 0)
        assert fit.model.coeffs[0] == pytest.approx(np.mean(ys), abs=1e-12)

    def test_needs_enough_points(self):
        with pytest.raises(ValueError):
            ps.fit_ols(*line_dataset(n=4), 3)
        with pytest.raises(ValueError):
            ps.score_candidates(*line_dataset(n=4), [0, 3], sigma2=1.0)

    @pytest.mark.parametrize("xs, ys", [(np.linspace(-1, 1, 20), np.zeros(19)),
                                        (np.linspace(-1, 1, 19), np.zeros(20)),
                                        ((0.0, 0.5, 1.0), (1.0, 2.0))])
    def test_lengths_must_match(self, xs, ys):
        with pytest.raises(ValueError, match="equal length"):
            ps.fit_ols(xs, ys, 1)
        with pytest.raises(ValueError, match="equal length"):
            ps.score_candidates(xs, ys, [0, 1], sigma2=1.0)

    def test_rank_deficiency_detected(self):
        xs, ys = (0.5,) * 10, tuple(range(10))
        with pytest.raises(ps.FitError):
            ps.fit_ols(xs, ys, 1)
        with pytest.raises(ps.FitError):
            ps.score_candidates(xs, ys, range(2), sigma2=1.0)

    @given(seed=st.integers(0, 10_000), n=st.integers(12, 60))
    def test_nested_rss_monotone(self, seed, n):
        truth = ps.poly_truth((0.5, -1.0, 0.25), noise_sigma=1.0)
        xs, ys = dataset(truth, n, seed)
        rss = [ps.fit_ols(xs, ys, k).rss for k in range(5)]
        for a, b in zip(rss, rss[1:]):
            assert b <= a + 1e-9 * (1.0 + a)


def alternating_dataset():
    # mean 0 and rss 50 * 0.2 = 10 at degree 0
    return np.linspace(-1, 1, 50), (0.2**0.5, -(0.2**0.5)) * 25


class TestScores:
    def test_aic_arithmetic(self):
        [(_, rss, aic, _, _)] = ps.score_candidates(*alternating_dataset(), [0], 1.0).per_degree
        assert rss == pytest.approx(10.0)
        assert aic == pytest.approx(12.0)

    def test_bic_arithmetic(self):
        [(_, _, _, bic, _)] = ps.score_candidates(*alternating_dataset(), [0], 1.0).per_degree
        assert bic == pytest.approx(10.0 + math.log(50))

    def test_perfect_fit_scores_penalty_only(self):
        [(_, rss, aic, _, _)] = ps.score_candidates(*line_dataset(n=50), [3], 2.0).per_degree
        assert rss == pytest.approx(0.0, abs=1e-20)
        assert aic == pytest.approx(8.0)

    @given(coeffs=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=6),
           kink=st.booleans(), grid=st.booleans(), sigma=st.floats(0.05, 2.0),
           seed=st.integers(0, 10_000), extra=st.integers(0, 300),
           degrees=st.one_of(st.sampled_from([[2], [0, 3, 5]]),
                             st.lists(st.integers(0, 8), min_size=1, max_size=9, unique=True)))
    def test_nested_fit_matches_reference(self, coeffs, kink, grid, sigma, seed, extra, degrees):
        # one QR at the largest degree against one monomial lstsq fit and
        # one quadrature per degree, on uniform draws or an equispaced design
        truth = ps.abs_truth(sigma) if kink else ps.poly_truth(coeffs, sigma)
        n = min(max(degrees) + 2 + extra, 300)
        if grid:
            xs = np.linspace(-1.0, 1.0, n)
            ys = truth.eval(xs) + sigma * substream(seed, "equispaced").standard_normal(n)
        else:
            xs, ys = dataset(truth, n, seed)
        sigma2 = sigma**2
        report = ps.score_candidates(xs, ys, degrees, sigma2, truth=truth)
        assert [row[0] for row in report.per_degree] == degrees
        for deg, rss, aic, bic, risk in report.per_degree:
            fit = ps.fit_ols(xs, ys, deg)
            assert rss == pytest.approx(fit.rss, rel=1e-8)
            assert risk == pytest.approx(ps.true_risk(fit, truth), rel=1e-8)
            assert aic == rss / sigma2 + 2.0 * (deg + 1)
            assert bic == rss / sigma2 + (deg + 1) * math.log(n)
        aics = [row[2] for row in report.per_degree]
        bics = [row[3] for row in report.per_degree]
        assert report.selected_aic == degrees[ref.select(aics)]
        assert report.selected_bic == degrees[ref.select(bics)]

    @pytest.mark.parametrize("degrees", [[-1, 3], [3, -2], []])
    def test_candidate_degrees_validated(self, degrees):
        # a negative degree once indexed rss[-1] and was reported and selected
        # as the top degree's fit; an empty set died in a bare max()
        match = str(min(degrees)) if degrees else "non-empty"
        with pytest.raises(ValueError, match=match):
            ps.score_candidates(*line_dataset(n=20), degrees, sigma2=1.0)
        with pytest.raises(ValueError, match=match):
            ps.regime_experiment(ps.abs_truth(0.5), degrees, n=20, reps=100, seed=1)

    def test_select_argmin(self):
        assert ref.select([5.0, 4.0, 4.5]) == 1

    def test_select_tie_breaks_small(self):
        assert ref.select([4.0, 4.0]) == 0

    def test_select_singleton_and_empty(self):
        assert ref.select([3.0]) == 0
        with pytest.raises(ValueError):
            ref.select([])

    @given(seed=st.integers(0, 5000), n=st.integers(12, 80))
    def test_heavier_penalty_never_selects_larger_degree(self, seed, n):
        # ln n > 2 from n = 8 on, so the BIC pick is at most the AIC pick
        truth = ps.poly_truth((0.0, 1.0), noise_sigma=1.0)
        report = ps.score_candidates(*dataset(truth, n, seed), range(5), sigma2=1.0)
        assert report.selected_bic <= report.selected_aic


class TestTrueRisk:
    def test_zero_model_zero_truth(self):
        truth = ps.poly_truth((0.0,), noise_sigma=1.0)
        fit = ps.FitResult(ps.PolyModel(0, (0.0,)), rss=0.0, n=10)
        assert ps.true_risk(fit, truth) == pytest.approx(1.0, abs=1e-12)

    def test_linear_truth_zero_model(self):
        truth = ps.poly_truth((0.0, 1.0), noise_sigma=1.0)
        fit = ps.FitResult(ps.PolyModel(0, (0.0,)), rss=0.0, n=10)
        assert ps.true_risk(fit, truth) == pytest.approx(1.0 + 1.0 / 3.0, abs=1e-12)

    def test_kinked_truth_best_quadratic(self):
        # the projection of |x| onto quadratics has squared error 1/192;
        # fitting near-noiseless data approximates that projection
        truth = ps.abs_truth(noise_sigma=1e-6)
        fit = ps.fit_ols(*dataset(truth, 40_000, seed=9), 2)
        risk = ps.true_risk(fit, truth)
        assert risk == pytest.approx(truth.noise_sigma**2 + 1.0 / 192.0, abs=5e-4)

    def test_quadrature_matches_monte_carlo_oracle(self):
        for truth in (ps.abs_truth(0.5), ps.poly_truth((0.2, -1.0, 0.7), 1.0)):
            xs, ys = dataset(truth, 300, seed=13)
            for degree in (0, 2, 5):
                fit = ps.fit_ols(xs, ys, degree)
                exact = ps.true_risk(fit, truth)
                mc, se = ref.true_risk_mc(fit, truth, n_points=200_000, seed=21)
                assert abs(exact - mc) <= 3.0 * se

    def test_unfitted_model_rejected(self):
        with pytest.raises(ValueError):
            ps.PolyModel(1).predict([0.0])


class TestGenerate:
    def test_vanishing_noise_limit(self):
        truth = ps.poly_truth((1.0, -2.0, 0.5), noise_sigma=1e-12)
        xs, ys = dataset(truth, 50, seed=1)
        assert np.allclose(ys, truth.eval(xs), atol=1e-10)

    def test_seed_reproducibility(self):
        truth = ps.poly_truth((0.0, 1.0), noise_sigma=1.0)
        assert np.array_equal(ps.generate(truth, 100, [7]), ps.generate(truth, 100, [7]))
        assert not np.array_equal(ps.generate(truth, 100, [7]), ps.generate(truth, 100, [8]))

    def test_noise_variance_concentrates(self):
        truth = ps.poly_truth((0.0,), noise_sigma=1.5)
        n = 100_000
        xs, ys = dataset(truth, n, seed=3)
        resid = ys - truth.eval(xs)
        sample_var = float(np.var(resid, ddof=1))
        se = truth.noise_sigma**2 * math.sqrt(2.0 / n)
        assert abs(sample_var - truth.noise_sigma**2) <= 3.0 * se

    def test_size_validated(self):
        with pytest.raises(ValueError):
            ps.generate(ps.abs_truth(1.0), 1, [0])

    @settings(max_examples=40, deadline=None)
    @given(c=st.integers(1, 40), spare=st.integers(0, 3), n=st.integers(2, 60), kink=st.booleans(),
           coeffs=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=6),
           sigma=st.floats(1e-3, 1e3), seed=st.integers(0, 2**63 - 1), reuse=st.booleans())
    def test_matches_seed_at_a_time_reference(self, c, spare, n, kink, coeffs, sigma, seed, reuse):
        # 2u - 1 into reused buffers draws uniform(-1, 1)'s bits, as a fresh substream per
        # seed does, whether the stack fills a larger buffer of stale data or one of its own
        truth = ps.abs_truth(sigma) if kink else ps.poly_truth(coeffs, sigma)
        seeds = [substream_key(seed, "rep", i) for i in range(c)]
        out = np.full((2, c + spare, n), np.nan) if reuse else None
        x, y = ps.generate(truth, n, seeds, out)
        ref_x, ref_y = ref.generate(truth, n, seeds)
        assert x.tobytes() == ref_x.tobytes() and y.tobytes() == ref_y.tobytes()
        if reuse:
            assert np.shares_memory(x, out) and np.shares_memory(y, out)


class TestTruthSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ps.poly_truth((1.0,), noise_sigma=0.0)
        with pytest.raises(ValueError):
            ps.TruthSpec(kind="poly", noise_sigma=1.0)
        with pytest.raises(ValueError):
            ps.TruthSpec(kind="spline", noise_sigma=1.0)

    def test_poly_degree_strips_zero_lead(self):
        assert ps.poly_truth((1.0, 2.0, 0.0), 1.0).poly_degree == 1
        assert ps.abs_truth(1.0).poly_degree is None

    @given(st.lists(st.sampled_from([0.0, -0.0]) | st.floats(allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=8))
    @example([1.0, 0.0, 0.0])
    @example([2.0, -1.0, -0.0])
    @example([0.0, 0.0, 0.0])
    @example([-0.0])
    @example([3.0])
    def test_numpy_free_poly_degree_matches_truth_spec(self, coeffs):
        # config validation reads the degree without building a numpy TruthSpec
        highest = max((i for i, c in enumerate(coeffs) if c != 0.0), default=0)
        assert poly_degree(coeffs) == ps.poly_truth(coeffs, 1.0).poly_degree == highest

    def test_breakpoints(self):
        assert ps.abs_truth(1.0).breakpoints() == (0.0,)
        assert ps.poly_truth((1.0,), 1.0).breakpoints() == ()


class TestRegimes:
    def test_degenerate_candidate_set(self):
        truth = ps.poly_truth((1.0, -2.0, 0.5), noise_sigma=1.0)
        summary = ps.regime_experiment(truth, [2], n=120, reps=100, seed=5)
        assert summary.correct_frequency_aic == 1.0
        assert summary.correct_frequency_bic == 1.0
        assert summary.mean_excess_risk_aic == 0.0

    def test_true_model_direction_smoke(self):
        truth = ps.poly_truth((1.0, -2.0, 0.5), noise_sigma=1.0)
        summary = ps.regime_experiment(truth, range(0, 7), n=500, reps=300, seed=17)
        assert summary.regime == "true_model_in_set"
        assert summary.correct_frequency_bic > summary.correct_frequency_aic

    def test_misspecified_direction_smoke(self):
        truth = ps.abs_truth(noise_sigma=0.5)
        summary = ps.regime_experiment(truth, range(0, 13), n=500, reps=150, seed=17)
        assert summary.regime == "misspecified"
        assert summary.correct_frequency_aic is None
        assert summary.mean_excess_risk_aic <= summary.mean_excess_risk_bic

    def test_excess_risk_nonnegative_rows_complete(self):
        truth = ps.abs_truth(noise_sigma=0.5)
        summary = ps.regime_experiment(truth, range(0, 4), n=60, reps=100, seed=2)
        assert summary.mean_excess_risk_aic >= 0.0
        assert summary.mean_excess_risk_bic >= 0.0
        assert len(list(summary.rows())) == 100 * 4
        # each selector's per-rep excess: its pick's true risk over the rep's best
        risk = summary.scores[3]
        best = risk.min(axis=1)
        for picks, excess in zip(summary.picks, summary.excess):
            cols = np.searchsorted(summary.degrees, picks)
            assert (excess >= 0.0).all()
            assert excess.tolist() == (risk[np.arange(100), cols] - best).tolist()

    def test_reps_floor(self):
        with pytest.raises(ValueError):
            ps.regime_experiment(ps.abs_truth(0.5), range(3), 60, reps=10, seed=1)


class TestBatchedRegimes:
    """regime_experiment fits CHUNK reps per stacked call; these hold it to
    the per-rep scalar path and to generate's data."""

    @settings(max_examples=12, deadline=None)
    @given(degrees=st.sampled_from([[2], [0, 3, 5], [5, 0, 3]]), reps=st.sampled_from([100, 129, 257]),
           kink=st.booleans(), coeffs=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=6),
           sigma=st.floats(0.05, 2.0), n=st.integers(7, 60), seed=st.integers(0, 10_000))
    def test_rows_match_scalar_reference(self, degrees, reps, kink, coeffs, sigma, n, seed):
        truth = ps.abs_truth(sigma) if kink else ps.poly_truth(coeffs, sigma)
        summary = ps.regime_experiment(truth, degrees, n, reps, seed)
        all_rows = list(summary.rows())
        assert len(all_rows) == reps * len(degrees)
        excess = {"aic": 0.0, "bic": 0.0}
        for rep in range(reps):
            rows = all_rows[rep * len(degrees):(rep + 1) * len(degrees)]
            xs, ys = dataset(truth, n, substream_key(seed, "regime-rep", rep))
            for row, deg in zip(rows, degrees):
                r, degree, rss, aic, bic, risk, sel_aic, sel_bic = row
                assert (r, degree) == (rep, deg)
                fit = ps.fit_ols(xs, ys, deg)
                assert rss == pytest.approx(fit.rss, rel=1e-8)
                assert risk == pytest.approx(ps.true_risk(fit, truth), rel=1e-8)
                assert aic == rss / sigma**2 + 2.0 * (deg + 1)
                assert bic == rss / sigma**2 + (deg + 1) * math.log(n)
            assert sel_aic == degrees[ref.select([row[3] for row in rows])]
            assert sel_bic == degrees[ref.select([row[4] for row in rows])]
            risks = dict(zip(degrees, (row[5] for row in rows)))
            excess["aic"] += risks[sel_aic] - min(risks.values())
            excess["bic"] += risks[sel_bic] - min(risks.values())
        assert summary.mean_excess_risk_aic == excess["aic"] / reps
        assert summary.mean_excess_risk_bic == excess["bic"] / reps

    @pytest.mark.parametrize("degrees", [[0, 1, 2, 3], [5, 0, 3]])
    @pytest.mark.parametrize("reps", [100, 129, 257])
    def test_rows_match_tuple_reference(self, reps, degrees):
        # the rows built from the score arrays, CHUNK reps at a time, are the
        # tuples the regime once built as it fitted: same values, same types
        truth = ps.abs_truth(0.4)
        rows = list(ps.regime_experiment(truth, degrees, 40, reps, 11).rows())
        expected = ref.regime_rows(truth, degrees, 40, reps, 11)
        assert rows == expected
        assert [tuple(map(type, row)) for row in rows] == [tuple(map(type, row)) for row in expected]

    def test_peak_memory_is_the_score_arrays(self, tmp_path):
        # numpy reports its buffers to tracemalloc.  From 10 to 40 chunks of reps
        # only the (4, reps, 4) scores and the (2, reps) picks and excess grow, 160
        # bytes a rep; the rows exist one chunk at a time while the file is written.
        # A tuple per row, or the file as one string, took several times that.
        truth = ps.abs_truth(0.5)
        header = ("rep", "degree", "rss", "aic", "bic", "true_risk", "selected_aic", "selected_bic")

        def peak(reps):
            tracemalloc.start()
            try:
                summary = ps.regime_experiment(truth, range(4), 60, reps, 2)
                cli.write_csv(tmp_path / "selection.csv", header, summary.rows())
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = 10 * ps.CHUNK, 40 * ps.CHUNK
        peak(small)  # once first, so one-time allocations count against neither run
        added = (large - small) * (4 * 4 + 2 + 2) * 8
        assert peak(large) <= peak(small) + added + 64 * 2**10

    def test_chunks_hold_generate_data(self, monkeypatch):
        truth = ps.poly_truth((0.3, -1.0, 0.5), 0.7)
        kernel, stacks = ps._nested_scores, []

        def spy(x, y, *args):
            stacks.append((x.copy(), y.copy(), args[-1]))
            return kernel(x, y, *args)

        monkeypatch.setattr(ps, "_nested_scores", spy)
        monkeypatch.setattr(ps, "CHUNK", 50)  # two full chunks and a partial third clear 100 reps
        ps.regime_experiment(truth, [0, 2], n=30, reps=2 * ps.CHUNK + 1, seed=3)
        assert [(len(x), first) for x, _, first in stacks] == [
            (ps.CHUNK, 0), (ps.CHUNK, ps.CHUNK), (1, 2 * ps.CHUNK)]
        for x, y, first in stacks:
            for rep, (xs, ys) in enumerate(zip(x, y), start=first):
                d = dataset(truth, 30, substream_key(3, "regime-rep", rep))
                assert np.array_equal(xs, d[0]) and np.array_equal(ys, d[1])

    def test_fit_error_names_its_rep(self, monkeypatch):
        draw, bad_rep = ps.generate, ps.CHUNK + 6

        def one_degenerate_design(truth, n, seeds, out=None):
            x, y = draw(truth, n, seeds, out)
            if seeds[0] == substream_key(1, "regime-rep", ps.CHUNK):
                x[bad_rep - ps.CHUNK] = 0.5
            return x, y

        monkeypatch.setattr(ps, "generate", one_degenerate_design)
        with pytest.raises(ps.FitError, match=rf"\brep {bad_rep}\b"):
            ps.regime_experiment(ps.abs_truth(0.5), range(3), n=40, reps=200, seed=1)

    @settings(max_examples=40, deadline=None)
    @given(c=st.integers(1, ps.CHUNK), n=st.integers(7, 120), kink=st.booleans(),
           coeffs=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=6),
           degrees=st.lists(st.integers(0, 12), min_size=1, max_size=13, unique=True),
           sigma=st.floats(0.05, 2.0), seed=st.integers(0, 10_000), reuse=st.booleans())
    def test_r_only_kernel_matches_explicit_q(self, c, n, kink, coeffs, degrees, sigma, seed, reuse):
        # the augmented R-only kernel against the explicit-Q one on random stacks, writing
        # into a larger buffer that holds stale designs, or into one of its own.  Both are
        # backward stable, so they agree to 1e-12 relative on a well-conditioned design and
        # to about eps * cond(V) on a near-interpolating one (cond(V) reaches 1e10 at
        # n = 13, degree 11; over 3,000 random stacks the worst cases used a third of these)
        truth = ps.abs_truth(sigma) if kink else ps.poly_truth(coeffs, sigma)
        k, at_nodes = ps._prepare([d for d in degrees if d + 2 <= n] or [0], truth)
        x, y = ps.generate(truth, n, range(seed, seed + c))
        buf = np.full((k.max() + 2, ps.CHUNK, n), np.nan) if reuse else None
        rss, _, _, risk, sel = ps._nested_scores(x, y, k, sigma**2, at_nodes, buf)
        ref_rss, _, _, ref_risk, ref_sel = ref.nested_scores_explicit_q(x, y, k, sigma**2, at_nodes)
        assert (sel == ref_sel).all()
        slack = np.finfo(float).eps * np.linalg.cond(np.polynomial.legendre.legvander(x, k.max()))
        y2 = np.sum(y * y, axis=1)
        assert (abs(rss - ref_rss) <= 1e-12 * ref_rss + 8.0 * (slack * y2)[:, None]).all()
        assert (abs(risk - ref_risk) <= np.maximum(1e-12, 32.0 * slack)[:, None] * ref_risk).all()

    @settings(max_examples=60, deadline=None)
    @given(c=st.integers(1, ps.CHUNK), degree=st.sampled_from([0, 1, 63]) | st.integers(0, 63),
           extra=st.integers(0, 6), seed=st.integers(0, 2**32 - 1),
           specials=st.lists(st.tuples(st.integers(0, 10**4), st.sampled_from(
               [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 0.5])), max_size=8))
    def test_in_place_design_is_legvander_bit_for_bit(self, c, degree, extra, seed, specials):
        # the Legendre columns _augmented_r builds in its buffer, over stale data, are
        # legvander's bits, signed zeros and subnormals included, and the last column is y
        n = degree + 2 + extra
        x, y = substream(seed, "design").uniform(-1.0, 1.0, (2, c, n))
        for at, value in specials:
            x.flat[at % x.size] = value
        buf = np.full((degree + 2, ps.CHUNK, n), np.nan)
        try:
            ps._augmented_r(x, y, degree, buf)
        except ps.FitError:  # raised after the design is built: a repeated x, say
            pass
        design = np.moveaxis(np.polynomial.legendre.legvander(x, degree), -1, 0)
        assert buf[:-1, :c].tobytes() == design.tobytes()
        assert buf[-1, :c].tobytes() == y.tobytes()

    def test_default_regime_b_peak_memory(self):
        # regime B at its defaults sets a run's peak when the run's own process fits it.
        # Under tracemalloc it peaks at 2.34 MiB: the (14, CHUNK, 500) designs built in
        # place and the reused draws, beside its scores.  A legvander temporary and fresh
        # draws per chunk peaked at 4.62 MiB with chunks of 32 and 2.54 MiB with 16.
        sc = cli.validate_config("{}")["predsel"]
        truth = ps.abs_truth(sc["regime_b_sigma"])
        ps.regime_experiment(truth, range(3), 20, 100, seed=2)  # one-time allocations first
        tracemalloc.start()
        try:
            ps.regime_experiment(truth, range(sc["regime_b_max_degree"] + 1), sc["regime_b_n"],
                                 sc["regime_b_reps"], seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 2**20

    def test_regimes_form_no_q(self, monkeypatch):
        qr, modes = np.linalg.qr, []

        def spy(a, mode="reduced"):
            modes.append(mode)
            return qr(a, mode)

        monkeypatch.setattr(np.linalg, "qr", spy)
        ps.regime_experiment(ps.abs_truth(0.5), range(4), n=40, reps=100, seed=1)
        assert modes == ["r"] * math.ceil(100 / ps.CHUNK)

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads Linux minor faults")
    def test_default_regimes_fault_in_little_memory(self):
        # a fresh interpreter runs both default regimes; the designs live in one reused
        # buffer per regime and no Q is formed, so few pages are touched for the first
        # time (about 7,000 minor faults against 76,000 with a reduced QR per chunk)
        script = textwrap.dedent("""
            import resource
            from convlab import cli, predsel as ps
            c = cli.validate_config("{}")
            p, seed = c["predsel"], c["seed"]
            runs = [(ps.poly_truth(p["regime_a_coeffs"], p["regime_a_sigma"]), "a"),
                    (ps.abs_truth(p["regime_b_sigma"]), "b")]
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for truth, r in runs:
                ps.regime_experiment(truth, range(p[f"regime_{r}_max_degree"] + 1),
                                     p[f"regime_{r}_n"], p[f"regime_{r}_reps"], seed)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """)
        src = str(Path(ps.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, check=True)
        assert int(done.stdout.split()[-1]) < 25_000


class TestUnbiasednessProbe:
    @settings(max_examples=60, deadline=None)
    @given(degree=st.integers(0, 6), truth_degree=st.integers(0, 6), extra=st.integers(0, 448),
           reps=st.integers(100, 600), seed=st.integers(0, 2**32 - 1),
           sigma=st.sampled_from([1.0, 0.8, 3e-5]), rows=st.integers(0, 60),
           spare=st.integers(0, 99))
    def test_matches_out_of_place_reference(self, degree, truth_degree, extra, reps, seed,
                                            sigma, rows, spare):
        # the blocked sums agree with the whole-array probe (the arithmetic it had)
        # to rounding: means within 1e-12 relative, z and the relative bias within
        # 1e-10; rows = 0 keeps PROBE_BLOCK, else blocks of `rows` rows, the last
        # one short whenever rows does not divide n
        coeffs = (1.0, -0.5, 0.25, 2.0, -1.0, 0.5, 0.125)[:min(truth_degree, degree) + 1]
        truth = ps.poly_truth(coeffs, noise_sigma=sigma)
        n = degree + 2 + extra
        with pytest.MonkeyPatch.context() as mp:
            if rows:
                mp.setattr(ps, "PROBE_BLOCK", rows * reps + spare)
            probe = ps.unbiasedness_probe(truth, degree, n, reps, seed)
        whole = ref.unbiasedness_probe_whole(truth, degree, n, reps, seed)
        assert probe.mean_estimate == pytest.approx(whole.mean_estimate, rel=1e-12, abs=0)
        assert probe.mean_true_insample_risk == pytest.approx(whole.mean_true_insample_risk,
                                                              rel=1e-12, abs=0)
        assert abs(probe.z - whole.z) <= 1e-10
        assert abs(probe.relative_bias - whole.relative_bias) <= 1e-10

    @pytest.mark.parametrize("n, reps, block", [
        (400, 4000, None), (50, 4000, None), (401, 333, 7 * 333), (401, 333, 93 * 333 + 5),
        (5, 333, 1), (None, 100, None), (None, 77_777, None), (None, 10**5, None)])
    def test_row_blocks_are_the_whole_draw(self, monkeypatch, n, reps, block):
        # the blocks, in order, are exactly the whole (n, reps) draw; a block is
        # PROBE_BLOCK floats or one row, and never reaches numpy's 4 MiB hugepage
        # threshold (n = None: just enough rows to fill the buffer, at reps up to
        # the schema's largest probe_reps)
        if block is not None:
            monkeypatch.setattr(ps, "PROBE_BLOCK", block)
        rows = max(1, ps.PROBE_BLOCK // reps)
        n = n or rows + 1
        whole = substream(5, "predsel-probe", 2, n).standard_normal((n, reps))
        starts, blocks, bufs = zip(*((start, blk.copy(), blk.base.nbytes) for start, blk
                                     in ps._row_blocks(substream(5, "predsel-probe", 2, n), n, reps)))
        assert starts == tuple(range(0, n, rows))
        assert set(bufs) == {8 * reps * min(rows, n)} and bufs[0] < 4 * 2**20
        assert np.array_equal(np.concatenate(blocks), whole)

    def test_peak_memory_does_not_grow_with_n(self):
        # numpy reports its buffers to tracemalloc.  The whole (400, 4000) draw and
        # its fitted values took 24.5 MiB; one block of draws and the (3, 4000)
        # sums take about 3.3 MiB at any n.  Only the design and its Q grow with
        # n, 400 x 3 floats at n = 400, inside the 64 KiB slack.
        truth = ps.poly_truth((1, -2, 0.5), 1.0)

        def peak(n):
            tracemalloc.start()
            try:
                ps.unbiasedness_probe(truth, 2, n, 4000, 9)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        at100, at400 = peak(100), peak(400)
        assert at400 < 4 * 2**20
        assert at400 <= at100 + 64 * 2**10

    def test_scale_free(self):
        # at sigma = 1e-50 the noise would vanish next to f* of order 1; fitted
        # alone, it gives the z and relative bias of sigma = 1 exactly
        tiny, unit = (ps.unbiasedness_probe(ps.poly_truth((1.0, -2.0, 0.5), sigma), 2, 50, 400, 3)
                      for sigma in (1e-50, 1.0))
        assert (tiny.z, tiny.relative_bias) == (unit.z, unit.relative_bias)
        assert tiny.z != 0.0 and tiny.relative_bias > 0.0
        assert tiny.mean_estimate == pytest.approx(1e-100 * unit.mean_estimate, rel=1e-15)

    def test_z_is_standardized(self):
        # estimate - in-sample risk has mean 0 and variance 2 sigma^4 / n per rep, so
        # over 200 seeds the z values' mean is within 4 standard errors (0.28) of 0
        # and their variance within 4 standard errors (4 sqrt(2 / 199) = 0.40) of 1
        truth = ps.poly_truth((1.0, -2.0, 0.5), noise_sigma=0.7)
        z = [ps.unbiasedness_probe(truth, 2, 20, 50, seed).z for seed in range(200)]
        assert abs(statistics.fmean(z)) <= 0.28
        assert abs(statistics.variance(z) - 1.0) <= 0.40

    def test_flat_truth_probe(self):
        truth = ps.poly_truth((0.0,), noise_sigma=1.0)
        probe = ps.unbiasedness_probe(truth, degree=0, n=200, reps=5000, seed=31)
        assert probe.relative_bias <= 0.02

    def test_quadratic_truth_probe(self):
        truth = ps.poly_truth((1.0, -2.0, 0.5), noise_sigma=1.0)
        probe = ps.unbiasedness_probe(truth, degree=2, n=200, reps=4000, seed=31)
        assert probe.relative_bias <= 0.02
        # known-variance identity: both means sit near (n + k + 1)/n * sigma^2
        expected = (200 + 3) / 200
        assert probe.mean_estimate == pytest.approx(expected, rel=0.02)
        assert probe.mean_true_insample_risk == pytest.approx(expected, rel=0.02)

    def test_noise_floor_limit(self):
        truth = ps.poly_truth((1.0, 0.5), noise_sigma=1e-9)
        probe = ps.unbiasedness_probe(truth, degree=1, n=100, reps=500, seed=1)
        assert probe.mean_estimate < 1e-17
        assert probe.relative_bias <= 0.05

    def test_bias_shrinks_with_sample_size(self):
        truth = ps.poly_truth((1.0, -2.0, 0.5), noise_sigma=1.0)
        seeds = range(40, 45)
        small = [ps.unbiasedness_probe(truth, 2, 50, 3000, s).relative_bias for s in seeds]
        large = [ps.unbiasedness_probe(truth, 2, 400, 3000, s).relative_bias for s in seeds]
        assert sum(large) / 5 <= sum(small) / 5

    def test_preconditions(self):
        with pytest.raises(ValueError):
            ps.unbiasedness_probe(ps.abs_truth(1.0), 2, 100, 500, 1)
        with pytest.raises(ValueError):
            ps.unbiasedness_probe(ps.poly_truth((0, 0, 1.0), 1.0), 1, 100, 500, 1)
        with pytest.raises(ValueError):  # degree 4 needs 6 points
            ps.unbiasedness_probe(ps.poly_truth((1.0, 2.0), 1.0), 4, 5, 500, 1)
