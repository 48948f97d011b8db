import copy
import math
import pickle
import sys
from dataclasses import replace
from functools import partial

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from convlab import cli
from convlab import lineworld as lw
from convlab.framework import Status, StreamError, Verdict, check_stability

import reference as ref

S, C, Q = Verdict.SIMPLE, Verdict.COMPLEX, Verdict.SUSPEND
BUDGET = cli.validate_config("{}")["lineworld"]["razor_budget"]  # a default run's search budget


@st.composite
def drift_params(draw, min_ratio=0.3, admissible=True):
    """(delta0, ratio, offsets) of an off-center stream.  Each offset after
    the first lies inside the nesting range of its predecessor or exactly
    on one of its bounds, or (unless `admissible`) anywhere in [-1, 1]."""
    ratio = draw(st.floats(min_ratio, 0.95))
    lams = [draw(st.floats(-1, 1))]
    for _ in range(draw(st.integers(0, 6))):
        lo = max(-1.0, (lams[-1] - 1.0) / ratio + 1.0)
        hi = min(1.0, (lams[-1] + 1.0) / ratio - 1.0)
        nested = st.sampled_from([lo, hi]) | st.floats(lo, hi)
        lams.append(draw(nested if admissible else nested | st.floats(-1, 1)))
    return draw(st.floats(0.05, 5)), ratio, tuple(lams)


def per_stage_contract(theta, spec, t):
    """The check the stream made at every stage before offsets were
    validated with the spec: stage t holds theta and nests in stage t - 1,
    both within 1e-12 * max(1, |theta|, delta0)."""
    e = ref.interval_at(theta, spec, t)
    slack = 1e-12 * max(1.0, abs(theta), spec.delta0)
    if not e.lo - slack <= theta <= e.hi + slack:
        return False
    prev = ref.interval_at(theta, spec, t - 1) if t > 0 else e
    return e.lo >= prev.lo - slack and e.hi <= prev.hi + slack


@st.composite
def table_specs(draw):
    """(spec, lam) for a centered spec, or an off-center one with a scalar
    or a sequence offset; lam(t) is the stage-t offset the spec must use,
    the sequence's last entry past its end."""
    delta0, ratio, offsets = draw(drift_params())
    shape = draw(st.sampled_from(["centered", "scalar", "sequence"]))
    if shape == "centered":
        return lw.StreamSpec(delta0, ratio), lambda t: 0.0
    offset = offsets[0] if shape == "scalar" else offsets
    lams = offsets[:1] if shape == "scalar" else offsets
    return (lw.StreamSpec(delta0, ratio, offset=offset),
            lambda t: lams[min(t, len(lams) - 1)])


def closed_form(spec, lam, t):
    """Stage t's (lam -+ 1) * delta0 * ratio**t, computed per stage."""
    d = spec.delta0 * spec.ratio**t
    return (lam(t) - 1.0) * d, (lam(t) + 1.0) * d


def endpoint_bits(method, theta, spec, horizon):
    """The trace's endpoints as hex strings, or the error that refused it."""
    try:
        tr = lw.trace(method, theta, spec, horizon)
    except StreamError:
        return "StreamError"
    return [(e.lo.hex(), e.hi.hex()) for e in tr.evidence]


@st.composite
def trace_cases(draw):
    """(theta, spec, horizon): the stage table's specs, plus on purpose
    worlds 2**20 to 2**60 half-widths out, where a stage rounds onto a
    point (the later the nearer), and a delta0 so near the float maximum
    that an endpoint overflows."""
    spec, _ = draw(table_specs())
    kind = draw(st.sampled_from(["plain", "far-world", "huge-delta0"]))
    theta = draw(st.just(0.0) | st.floats(-5, 5))
    if kind == "far-world":
        scale = draw(st.floats(1.0, 2.0)) * 2.0 ** draw(st.integers(20, 60))
        theta = draw(st.sampled_from([-1.0, 1.0])) * spec.delta0 * scale
    elif kind == "huge-delta0":
        delta0 = draw(st.just(sys.float_info.max) | st.floats(1e300, sys.float_info.max))
        spec = lw.StreamSpec(delta0, spec.ratio, spec.offset)
    return theta, spec, draw(st.integers(0, 120))


def mstar_on(*history):
    return lw.mstar_method().decide(list(history))


class TestDecisionRule:
    def test_zero_inside(self):
        assert mstar_on(lw.IntervalEvidence(-0.5, 0.5)) is S

    def test_zero_excluded(self):
        assert mstar_on(lw.IntervalEvidence(-1.0, 1.0), lw.IntervalEvidence(0.2, 0.4)) is C

    def test_boundary_counts_as_inclusion(self):
        assert mstar_on(lw.IntervalEvidence(0.0, 0.3)) is S
        assert mstar_on(lw.IntervalEvidence(-0.3, 0.0)) is S


class TestStreams:
    def test_centered_stage_two(self):
        e = lw.trace(constant_method(S), 0.0, lw.StreamSpec(1.0, 0.5), 3).evidence[2]
        assert (e.lo, e.hi) == (-0.25, 0.25)

    def test_centered_stage_zero_offset_world(self):
        [e] = lw.trace(constant_method(S), 0.3, lw.StreamSpec(1.0, 0.5), 1).evidence
        assert (e.lo, e.hi) == pytest.approx((-0.7, 1.3))

    def test_eventually_excludes_origin(self):
        # first stage whose interval drops the origin, found by replay
        spec = lw.StreamSpec(1.0, 0.5)
        evidence = lw.trace(constant_method(S), 0.01, spec, 60).evidence
        first = next(t for t, e in enumerate(evidence) if not e.contains(0.0))
        assert evidence[first - 1].contains(0.0)
        assert 2.0 * spec.half_width(first) < 0.02 <= 2.0 * spec.half_width(first - 2)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            lw.StreamSpec(delta0=0.0, ratio=0.5)
        with pytest.raises(ValueError):
            lw.StreamSpec(delta0=1.0, ratio=1.2)
        with pytest.raises(ValueError):
            lw.StreamSpec(delta0=1.0, ratio=0.5, offset=1.5)

    def test_label_names_the_stream_that_runs(self):
        # the scalar 0, given or not, is the centered stream; any other offset
        # labels itself and moves the interval
        centered = lw.StreamSpec(1.0, 0.7)
        assert lw.StreamSpec(1.0, 0.7, offset=0.0) == centered
        assert lw.StreamSpec(1.0, 0.7, offset=0.0).label() == centered.label() == (
            "centered(d0=1.0,r=0.7)")
        assert lw.StreamSpec(1.0, 0.7, offset=-1.0).label() == "offcenter(d0=1.0,r=0.7,lam=-1.0)"
        assert lw.StreamSpec(0.3, 0.6, offset=(0.0, -0.5)).label() == (
            "offcenter(d0=0.3,r=0.6,lam=(0.0, -0.5))")
        assert lw.StreamSpec(1.0, 0.5, offset=0.7).stages(1) == [(0.7 - 1.0, 0.7 + 1.0)]

    def test_nesting_violation_is_stream_error(self):
        # jumping from the far right edge to the far left edge breaks
        # nesting, which the spec rejects when it is built
        with pytest.raises(StreamError):
            lw.StreamSpec(1.0, 0.9, offset=(1.0, -1.0))

    @given(params=drift_params(admissible=False), theta=st.floats(-5, 5))
    @example(params=(1.0, 0.5, (0.0, -1.0)), theta=0.3)  # exactly on the nesting bound
    def test_spec_admits_only_streams_the_per_stage_check_admits(self, params, theta):
        delta0, ratio, offsets = params
        try:
            spec = lw.StreamSpec(delta0, ratio, offset=offsets)
        except StreamError:
            return
        assert all(per_stage_contract(theta, spec, t) for t in range(len(offsets) + 2))

    def test_trace_builds_each_stage_once(self):
        seen = []
        method = lw.MethodSpec(name="recording",
                               decide=lambda hist: seen.append((len(hist), hist[-1])) or S)
        tr = lw.trace(method, 0.1, lw.StreamSpec(1.0, 0.7), 25)
        # each stage decided once, on the history up to and including it,
        # whose last item is the very interval the trace keeps for that stage
        assert [n for n, _ in seen] == list(range(1, 26))
        assert len(tr) == 25 and all(last is e for (_, last), e in zip(seen, tr.evidence))

    @given(params=drift_params(), shape=st.sampled_from(["default", "scalar", "sequence"]),
           t=st.integers(0, 40))
    def test_bounds_equal_the_closed_form(self, params, shape, t):
        # the stage's offset comes from the offset alone: none given is 0; the
        # table's stage t is the closed form the reference computes afresh
        delta0, ratio, offsets = params
        if shape == "default":
            spec, lams = lw.StreamSpec(delta0, ratio), (0.0,)
        elif shape == "scalar":
            spec, lams = lw.StreamSpec(delta0, ratio, offset=offsets[0]), offsets[:1]
        else:
            spec, lams = lw.StreamSpec(delta0, ratio, offset=offsets), offsets
        lam, d = ref.offset_at(spec, t), spec.half_width(t)
        assert lam == lams[min(t, len(lams) - 1)]
        assert ref.bounds(spec, t) == ((lam - 1.0) * d, (lam + 1.0) * d)
        assert spec.stages(t + 1)[t] == ref.bounds(spec, t)
        assert spec.half_widths(t + 1)[t] == d

    @given(params=drift_params(min_ratio=1e-6), k=st.sampled_from([2, 4]),
           gap=st.floats(1e-300, 10.0))
    def test_first_stage_equals_brute_force(self, params, k, gap):
        delta0, ratio, _ = params
        spec = lw.StreamSpec(delta0, ratio)
        brute = next(t for t in range(100_000) if k * (delta0 * ratio**t) < gap)
        assert spec.first_stage(gap, k) == brute

    @pytest.mark.parametrize("gap", [0.0, -1.0, math.nan])
    def test_first_stage_needs_a_positive_gap(self, gap):
        with pytest.raises(ValueError):
            lw.StreamSpec(1.0, 0.5).first_stage(gap, 2)

    @given(
        theta=st.floats(-5, 5),
        delta0=st.floats(0.05, 5),
        ratio=st.floats(0.3, 0.9),
        lam=st.floats(-1, 1),
        t=st.integers(0, 20),
    )
    def test_stream_contract(self, theta, delta0, ratio, lam, t):
        spec = lw.StreamSpec(delta0, ratio, offset=lam)
        evidence = lw.trace(constant_method(S), theta, spec, t + 1).evidence
        e = evidence[t]
        assert e.contains(theta)
        assert e.width == pytest.approx(2.0 * delta0 * ratio**t, rel=1e-9)
        if t > 0:
            assert e.is_subset_of(evidence[t - 1])


class TestIntervalEvidence:
    def test_is_an_immutable_value(self):
        e = lw.IntervalEvidence(-0.25, 0.5)
        assert repr(e) == "IntervalEvidence(lo=-0.25, hi=0.5)"
        with pytest.raises(AttributeError):
            e.lo = 0.0
        same = lw.IntervalEvidence(lo=-0.25, hi=0.5)
        assert e == same and hash(e) == hash(same) and {same: "found"}[e] == "found"
        assert e != lw.IntervalEvidence(-0.25, 0.75)
        for back in (pickle.loads(pickle.dumps(e)), copy.deepcopy(e)):
            assert type(back) is lw.IntervalEvidence and back == e
        assert (e.width, e.contains(0.5), e.is_subset_of(lw.IntervalEvidence(-1.0, 1.0))) == (
            0.75, True, True)

    @pytest.mark.parametrize("lo, hi, message", [
        (0.5, 0.5, "degenerate interval [0.5, 0.5]"),
        (1.0, -1.0, "degenerate interval [1.0, -1.0]"),
        (math.nan, 1.0, "interval endpoints must be finite"),
        (0.0, math.nan, "interval endpoints must be finite"),
        (-math.inf, 0.0, "interval endpoints must be finite"),
        (0.0, math.inf, "interval endpoints must be finite"),
    ])
    def test_bad_endpoints_are_stream_errors(self, lo, hi, message):
        with pytest.raises(StreamError) as made:
            lw.IntervalEvidence(lo, hi)
        with pytest.raises(StreamError) as replaced:
            lw.IntervalEvidence(-2.0, 2.0)._replace(lo=lo, hi=hi)
        assert str(made.value) == str(replaced.value) == message


class TestStageTable:
    @given(case=table_specs(), theta=st.just(0.0) | st.floats(-5, 5),
           horizon=st.integers(0, 120))
    def test_trace_endpoints_equal_the_closed_form(self, case, theta, horizon):
        spec, lam = case
        expected = [(theta + below, theta + above)
                    for below, above in (closed_form(spec, lam, t) for t in range(horizon))]
        if all(lo < hi for lo, hi in expected):
            expected = [(lo.hex(), hi.hex()) for lo, hi in expected]
        else:  # an endpoint rounded onto the world: the stage is refused, not built
            expected = "StreamError"
        assert endpoint_bits(constant_method(S), theta, spec, horizon) == expected

    @given(case=trace_cases())
    @example(case=(1e15, lw.StreamSpec(1.0, 0.5), 40))  # rounds onto a point at stage 4
    @example(case=(0.0, lw.StreamSpec(sys.float_info.max, 0.5, offset=0.5), 5))
    @example(case=(0.0, lw.StreamSpec(sys.float_info.max, 0.5, offset=-0.5), 5))
    @example(case=(-3e17, lw.StreamSpec(1e3, 0.9, offset=(-0.5, -0.6, -0.7)), 80))
    @example(case=(0.0, lw.StreamSpec(1.0, 0.5, offset=1.0), 10))  # 0 on the lower end
    @example(case=(0.0, lw.StreamSpec(1.0, 0.5, offset=-1.0), 10))  # 0 on the upper end
    @example(case=(0.3, lw.StreamSpec(1.0, 1 - 2**-52), 120))  # stages an ulp apart
    # offsets that break nesting by less than the 1e-12 tolerance: stage 1 sticks out of
    # stage 0, so every stage is checked, and at 1e15 stage 5 rounds onto the world
    @example(case=(0.3, lw.StreamSpec(1.0, 0.5, offset=(-0.5, 1e-13)), 40))
    @example(case=(1e15, lw.StreamSpec(1.0, 0.5, offset=(-0.5, 1e-13)), 40))
    @example(case=(-1e17, lw.StreamSpec(100.0, 0.9, offset=0.7), 60))  # rounds onto the world
    @example(case=(3e16, lw.StreamSpec(4.0, 0.5, offset=(0.0, 0.5)), 40))
    @example(case=(math.nan, lw.StreamSpec(1.0, 0.5), 10))
    @example(case=(math.inf, lw.StreamSpec(1.0, 0.5), 10))
    @example(case=(-math.inf, lw.StreamSpec(1.0, 0.5, offset=0.5), 10))
    @example(case=(0.3, lw.StreamSpec(1.0, 0.5), 0))  # horizon 0: an empty trace
    @example(case=(math.nan, lw.StreamSpec(1.0, 0.5), 0))
    def test_trace_equals_interval_at_stage_by_stage(self, case):
        # the first-and-last-stage check of a nested stream, the every-stage check of
        # another, and the frameless intervals against the constructor stage by stage
        theta, spec, horizon = case
        expected = ref.stage_by_stage(partial(ref.interval_at, theta, spec), horizon)
        if isinstance(expected, str):  # refused at a stage: trace refuses it with the same error
            with pytest.raises(StreamError) as refused:
                lw.trace(lw.mstar_method(), theta, spec, horizon)
            assert str(refused.value) == expected
            return
        tr = lw.trace(lw.mstar_method(), theta, spec, horizon)
        assert [(type(e), e.lo.hex(), e.hi.hex()) for e in tr.evidence] == [
            (lw.IntervalEvidence, e.lo.hex(), e.hi.hex()) for e in expected]
        assert tr.verdicts == tuple(ref.mstar_decide(e) for e in tr.evidence)

    @given(case=table_specs(), theta=st.just(0.0) | st.floats(-5, 5),
           horizon=st.integers(1, 120), past=st.integers(1, 300),
           order=st.permutations(["trace", "stages", "half_widths", "first_stage", "nested"]))
    def test_table_does_not_depend_on_fill_order(self, case, theta, horizon, past, order):
        # the readers in any order, each twice, on one spec: a trace's stages, the
        # stages far past the oracle's deepest stage, the half-widths down to that
        # stage and that stage itself, and whether the trace's pairs nest, each
        # filling the table to its own depth
        spec, lam = case
        m = constant_method(S)
        tiny = next(t for t in range(10**5) if 4.0 * (spec.delta0 * spec.ratio**t) < 1e-300)
        far = tiny + past
        pairs = [closed_form(spec, lam, t) for t in range(horizon)]
        expected = {
            "nested": all(a <= c and d <= b for (a, b), (c, d) in zip(pairs, pairs[1:])),
            "trace": endpoint_bits(m, theta, lw.StreamSpec(spec.delta0, spec.ratio, spec.offset),
                                   horizon),
            "stages": [(lo.hex(), hi.hex())
                       for lo, hi in (closed_form(spec, lam, t) for t in range(far + 1))],
            "half_widths": [spec.delta0 * spec.ratio**t for t in range(tiny + 1)],
            "first_stage": tiny,
        }
        read = {
            "trace": lambda: endpoint_bits(m, theta, spec, horizon),
            "stages": lambda: [(lo.hex(), hi.hex()) for lo, hi in spec.stages(far + 1)],
            "half_widths": lambda: spec.half_widths(tiny + 1),
            "first_stage": lambda: spec.first_stage(1e-300, 4.0),
            "nested": lambda: spec.nested(horizon),
        }
        for name in order:
            assert read[name]() == read[name]() == expected[name]

    @pytest.mark.parametrize("args", [(1.0, 0.5), (0.3, 0.6, 0.8), (1.0, 0.5, (0.0, -0.5, -1.0))])
    def test_filled_spec_is_a_plain_value(self, args):
        filled, fresh = lw.StreamSpec(*args), lw.StreamSpec(*args)
        lw.check_pointwise(lw.mstar_method(), [0.1], filled, 30)
        filled.first_stage(1e-9, 4.0)
        assert filled == fresh and hash(filled) == hash(fresh)
        assert repr(filled) == repr(fresh) and filled.label() == fresh.label()
        assert {fresh: "found"}[filled] == "found"

    @pytest.mark.parametrize("horizon", [10, 40])
    def test_check_pointwise_computes_each_half_width_once(self, monkeypatch, horizon):
        calls = []
        original = lw.StreamSpec.half_width
        monkeypatch.setattr(lw.StreamSpec, "half_width",
                            lambda self, t: calls.append(t) or original(self, t))
        thetas = [x / 100 for x in range(-50, 51)]
        lw.check_pointwise(lw.mstar_method(), thetas, lw.StreamSpec(1.0, 0.7), horizon)
        # the oracle's deepest stage: the first with 2 * 0.7**t below the smallest |theta|
        oracle = next(t for t in range(100) if 2.0 * 0.7**t < 0.01)
        assert sorted(calls) == list(range(max(horizon, oracle + 1)))

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_theta_refused(self, theta):
        with pytest.raises(StreamError, match="^interval endpoints must be finite$"):
            lw.trace(lw.mstar_method(), theta, lw.StreamSpec(1.0, 0.5), 3)

    def test_negative_counts_give_no_stages(self):
        spec = lw.StreamSpec(1.0, 0.5)
        assert spec.stages(-1) == spec.half_widths(-1) == []
        assert len(lw.trace(constant_method(S), 0.0, spec, -1)) == 0


class TestPointwise:
    def test_simple_world_settles_immediately(self):
        recs = lw.check_pointwise(lw.mstar_method(), [0.0], lw.StreamSpec(1.0, 0.7), 30)
        assert recs[0].status is Status.CONVERGES and recs[0].settle_stage == 0

    def test_centered_settle_found_by_replay(self):
        spec = lw.StreamSpec(1.0, 0.7)
        [rec] = lw.check_pointwise(lw.mstar_method(), [0.1], spec, 60)
        verdicts = lw.trace(lw.mstar_method(), 0.1, spec, 60).verdicts
        brute = min(s for s in range(60) if all(v is C for v in verdicts[s:]))
        assert rec.status is Status.CONVERGES and rec.settle_stage == brute == 7

    def test_adversarial_drift_settles_at_width_bound(self):
        # drift hugging the origin side delays the exit until the interval
        # is narrower than |theta|: least t with 2 * 0.7**t < 0.1
        spec = lw.StreamSpec(1.0, 0.7, offset=-1.0)
        [rec] = lw.check_pointwise(lw.mstar_method(), [0.1], spec, 60)
        bound = next(t for t in range(60) if 2.0 * 0.7**t < 0.1)
        assert rec.settle_stage == bound == 9

    def test_always_complex_diverges_at_zero(self):
        recs = lw.check_pointwise(ref.always_complex_method(),
                                  [0.0, 0.3],
                                  lw.StreamSpec(1.0, 0.5), 20)
        assert recs[0].status is Status.DIVERGES
        assert recs[1].status is Status.CONVERGES

    @given(params=drift_params(min_ratio=0.55),
           thetas=st.lists(st.just(0.0) | st.floats(-1, 1), min_size=1, max_size=4))
    def test_oracle_holds_on_drift_sequences(self, params, thetas):
        delta0, ratio, offsets = params
        spec = lw.StreamSpec(delta0, ratio, offset=offsets)
        # raises OracleContradiction if a trace disagrees with the oracle
        lw.check_pointwise(lw.mstar_method(), thetas, spec, 40)

    def test_horizon_validated(self):
        with pytest.raises(ValueError):
            lw.check_pointwise(lw.mstar_method(), [0.0], lw.StreamSpec(1.0, 0.5), 0)

    @given(theta=st.floats(-2, 2), lam=st.sampled_from([0.0, -1.0, 1.0, 0.6]))
    def test_mstar_stable_everywhere(self, theta, lam):
        spec = lw.StreamSpec(1.0, 0.6, offset=lam)
        assert check_stability(lw.trace(lw.mstar_method(), theta, spec, 40), lw.truth(theta))[0]


def constant_method(verdict):
    return lw.MethodSpec(name=f"const_{verdict.value}", decide=lambda hist: verdict)


class TestRefuteUniform:
    def test_threshold_rule_refuted_by_nonzero_world(self):
        wit = lw.refute_uniform(lw.mstar_method(), 0.1)
        assert wit.verdict is S
        assert wit.theta != 0.0
        assert abs(wit.theta) <= 0.05
        assert lw.witness_is_valid(lw.mstar_method(), wit, 0.1)

    def test_always_complex_refuted_at_zero(self):
        m = ref.always_complex_method()
        wit = lw.refute_uniform(m, 1.0)
        assert wit.theta == 0.0 and wit.verdict is C
        assert lw.witness_is_valid(m, wit, 1.0)

    def test_always_suspend_refuted_at_zero(self):
        m = lw.always_suspend_method()
        wit = lw.refute_uniform(m, 1.0)
        assert wit.theta == 0.0 and wit.verdict is Q and wit.truth is S
        assert lw.witness_is_valid(m, wit, 1.0)

    def test_length_validated(self):
        with pytest.raises(ValueError):
            lw.refute_uniform(lw.mstar_method(), 0.0)

    @given(
        narrow_verdict=st.sampled_from([S, C, Q]),
        width0=st.floats(1e-3, 2.0),
        length=st.floats(1e-3, 10.0),
        flip=st.booleans(),
    )
    def test_witness_valid_for_generated_rules(self, narrow_verdict, width0, length, flip):
        # a family of width-triggered decision rules, threshold-style
        # above the trigger and constant below it
        def decide(hist):
            e = hist[-1]
            if e.width < width0:
                return narrow_verdict
            return ref.mstar_decide(e) if not flip else C

        m = lw.MethodSpec(name="generated", decide=decide)
        wit = lw.refute_uniform(m, length)
        assert lw.witness_is_valid(m, wit, length)

    @pytest.mark.parametrize("length", [1e-13, 1e-300])
    def test_constant_width_history_rejected(self, length):
        # five copies of one interval: admissible only if widths shrink
        same = lw.IntervalEvidence(-length / 2.0, length / 2.0)
        wit = lw.UniformWitness(theta=length / 4.0, history=(same,) * 5,
                                failing_stage=4, verdict=S, truth=C)
        assert not lw.witness_is_valid(lw.mstar_method(), wit, length)
        halving = tuple(lw.IntervalEvidence(-length * 2.0**k / 2.0, length * 2.0**k / 2.0)
                        for k in range(4, -1, -1))
        assert lw.witness_is_valid(lw.mstar_method(), replace(wit, history=halving), length)

    @given(length=st.floats(1e-300, 1e300),
           method=st.sampled_from([lw.mstar_method(), lw.always_suspend_method(),
                                   ref.always_complex_method()]))
    @example(length=1e-300, method=lw.mstar_method())
    @example(length=1e300, method=lw.mstar_method())
    def test_own_witnesses_valid_at_every_scale(self, length, method):
        assert lw.witness_is_valid(method, lw.refute_uniform(method, length), length)


class TestRazorProbe:
    def test_default_budget_searches_the_whole_design(self):
        # 6 worlds x 5 streams, each history cut off once 0 leaves its interval: 369
        # histories, so NONE_FOUND at the default budget covers every one of them
        design = list(lw._candidate_histories(10**9))
        assert len(design) == 369 <= BUDGET
        assert [len(h) for h in lw._candidate_histories(368)] == [len(h) for h in design[:368]]

    def test_threshold_rule_obeys_razor(self):
        assert lw.razor_necessity_probe(lw.mstar_method(), BUDGET).consequence == "NONE_FOUND"

    def test_suspender_vacuously_obeys_razor(self):
        report = lw.razor_necessity_probe(lw.always_suspend_method(), BUDGET)
        assert report.consequence == "NONE_FOUND"

    def test_width_violator_fails_pointwise(self):
        report = lw.razor_necessity_probe(lw.width_trigger_violator(0.01), BUDGET)
        assert report.consequence == "POINTWISE_FAIL"
        assert report.witness_theta == 0.0
        # the continuation never returns to the true answer
        tail = report.witness_trace.verdicts[-10:]
        assert all(v is not S for v in tail)

    def test_stage_violator_fails_stability(self):
        report = lw.razor_necessity_probe(lw.stage_trigger_violator(3), BUDGET)
        assert report.consequence == "STABILITY_FAIL"
        assert report.witness_theta != 0.0
        ok, _ = check_stability(report.witness_trace, C)
        assert not ok

    def test_every_adversary_flagged_with_replayable_witness(self):
        for adversary in lw.razor_violator_suite():
            report = lw.razor_necessity_probe(adversary, BUDGET)
            assert report.consequence in ("POINTWISE_FAIL", "STABILITY_FAIL")
            hist = list(report.razor_violation)
            assert hist[-1].contains(0.0)
            assert adversary.decide(hist) is C
            # witness trace verdicts replay exactly
            evid = list(report.witness_trace.evidence)
            for k, v in enumerate(report.witness_trace.verdicts):
                assert adversary.decide(evid[: k + 1]) is v
            # the witness history is admissible at the witness world
            theta = report.witness_theta
            assert all(e.contains(theta) for e in evid)
            assert all(b.is_subset_of(a) for a, b in zip(evid, evid[1:]))

    def test_razor_obeying_constant_simple(self):
        assert lw.razor_necessity_probe(constant_method(S), BUDGET).consequence == "NONE_FOUND"


def reference_candidates(budget, thetas, specs):
    """lw._candidate_histories with each interval built by the per-stage
    reference: a stream's histories are its prefixes up to the first
    interval without 0, budget histories in all."""
    count = 0
    for theta in thetas:
        for spec in specs:
            evid = []
            for t in range(40):
                evid.append(ref.interval_at(theta, spec, t))
                if not evid[-1].contains(0.0):
                    break
                count += 1
                yield list(evid)
                if count >= budget:
                    return


def drained(histories):
    """The endpoints of each history an enumeration yields, as hex strings,
    and the message of the StreamError that stopped it, or None."""
    seen = []
    try:
        for hist in histories:
            seen.append([(e.lo.hex(), e.hi.hex()) for e in hist])
    except StreamError as exc:
        return seen, str(exc)
    return seen, None


class TestCandidateHistories:
    @pytest.mark.parametrize("budget", [1, 100, 368, 10**9])
    def test_design_equals_the_stage_by_stage_reference(self, budget):
        design = (lw.RAZOR_THETAS, lw.RAZOR_SPECS)
        histories, error = drained(lw._candidate_histories(budget, *design))
        assert (histories, error) == drained(reference_candidates(budget, *design))
        assert len(histories) == min(budget, 369) and error is None

    @pytest.mark.parametrize("thetas, specs, count, message", [
        # 40 stages about 0, then a world whose stage-0 upper end overflows
        ((0.0, 1e308), (lw.StreamSpec(1e308, 0.5),), 40, "interval endpoints must be finite"),
        # 40 stages of an ordinary stream, then 11 of a subnormal one, whose stage-11
        # half-width 2**-1075 rounds to 0
        ((0.0,), (lw.StreamSpec(1.0, 0.5), lw.StreamSpec(2.0**-1064, 0.5)), 51,
         "degenerate interval [0.0, 0.0]"),
    ])
    def test_refused_stream_stops_at_the_reference_stage(self, thetas, specs, count, message):
        histories, error = drained(lw._candidate_histories(10**9, thetas, specs))
        assert (len(histories), error) == (count, message)
        assert (histories, error) == drained(reference_candidates(10**9, thetas, specs))


class TestRazorAdversaries:
    @given(params=drift_params(min_ratio=0.5), horizon=st.integers(1, 30),
           theta=st.just(0.0) | st.floats(-0.05, 0.05) | st.floats(-2, 2),
           width0=st.floats(1e-4, 4.0), stage=st.integers(0, 30))
    def test_decision_is_the_threshold_rule_unless_the_trigger_fires(self, params, horizon,
                                                                     theta, width0, stage):
        delta0, ratio, offsets = params
        spec = lw.StreamSpec(delta0, ratio, offset=offsets)
        hist = [ref.interval_at(theta, spec, t) for t in range(horizon)]
        width, at_stage, parity = lw.razor_violator_suite()  # at their defaults
        assert (width.name, at_stage.name, parity.name) == (
            "width_violator(0.01)", "stage_violator(3)", "parity_violator")
        cases = [(width, partial(ref.width_trigger, width0=0.01)),
                 (at_stage, partial(ref.stage_trigger, stage=3)),
                 (parity, ref.parity_trigger),
                 (lw.width_trigger_violator(width0), partial(ref.width_trigger, width0=width0)),
                 (lw.stage_trigger_violator(stage), partial(ref.stage_trigger, stage=stage))]
        for method, trigger in cases:
            for t in range(1, horizon + 1):
                assert method.decide(hist[:t]) is ref.razor_violator_decide(trigger, hist[:t])
