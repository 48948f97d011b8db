import math
import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convlab import cli
from convlab import perrin as pr
from convlab.framework import (
    ModeReport,
    OracleContradiction,
    Status,
    StreamError,
    Verdict,
    check_stability,
    classify_convergence,
)
from convlab.lineworld import StreamSpec
from convlab.rand import substream

import reference as ref
from test_lineworld import drift_params, trace_cases

S, C, Q = Verdict.SIMPLE, Verdict.COMPLEX, Verdict.SUSPEND

DEFAULTS = cli.validate_config("{}")["perrin"]  # a default run's perrin section
METHODS = cli.perrin_methods(DEFAULTS)
SPEC = StreamSpec(DEFAULTS["delta0"], DEFAULTS["ratio"])
HORIZON = DEFAULTS["horizon"]
SMALL_GRID = pr.GridSpec(0.5, 1.5, 0.1)
CONV, DIV, UND = (pr.CODES[s] for s in (Status.CONVERGES, Status.DIVERGES, Status.UNDETERMINED))


def scalar_oracle(m, w, spec):
    """The world-by-world oracle that the array oracle replaced: the
    reference for pr.asymptotic_oracle.  The certified stage, or -1 where
    the method never settles on the truth."""
    diag = abs(w.na - w.na_prime) < pr.DIAG_TOL
    # float endpoints are off by ulps of |a| + 2 * delta0: a gap or gate is
    # shortened by a few of them, never below half its size
    slop = 2.0**-48 * (max(abs(w.na), abs(w.na_prime)) + 2.0 * spec.delta0)
    less = lambda x: x - min(slop, x / 2.0)
    # no prism meets the diagonal once twice its width is below |a - b|
    separation = lambda: spec.first_stage(less(abs(w.na - w.na_prime)), 4.0)
    # (p, p) has left every prism once its width is below the distance to it
    point_exit = lambda: spec.first_stage(less(max(abs(w.na - m.p), abs(w.na_prime - m.p))), 2.0)
    width = lambda: spec.first_stage(less(m.gate), 2.0)  # every prism is narrower than the gate

    if m.kind == "OCKHAM_REALIST":
        if w.z == 1:
            return 0
        return -1 if diag else separation()
    if m.kind == "ANTI_REALIST":
        return -1 if diag else separation()
    if m.kind in ("WAY1", "WAY2"):
        if diag and abs(w.na - m.p) < pr.DIAG_TOL:  # the sacrificed pair
            # only (p, p) itself keeps (p, p) in every prism
            at_pair = w.na == w.na_prime == m.p
            return width() if m.kind == "WAY2" and w.z == 0 and at_pair else -1
        if w.z == 1:  # the trigger fires only from the gate stage to the p-exit stage
            t = point_exit()
            return t if t and 2.0 * spec.half_width(t - 1) < m.gate + slop else 0
        return -1 if diag else separation()
    if w.z == 1:  # WAY3
        return -1
    return width() if diag else min(width(), separation())


def scalar_records(m, worlds, spec, horizon):
    """(status, settle stage) per world from its scalar trace and the
    scalar reference oracle."""
    records = (classify_convergence(pr.trace(m, w, spec, horizon), w.truth,
                                    scalar_oracle(m, w, spec)) for w in worlds)
    return [(r.status, r.settle_stage) for r in records]


def array_records(m, worlds, spec, horizon):
    """(status, settle stage) per world from one array sweep and the array oracle."""
    codes, settle = next(pr._classify([m], *pr._world_arrays(worlds), spec, horizon))
    return [(pr.STATUSES[c], s if s >= 0 else None)
            for c, s in zip(codes.tolist(), settle.tolist())]


def grid_worlds(axis):
    """A domain grid's worlds in its layout: the plane row-major, then the strand."""
    return ([pr.plane_world(a, b) for a in axis for b in axis]
            + [pr.strand_world(a) for a in axis])


def scalar_stability_scan(m, worlds, specs, horizon):
    """The world-by-world stability scan the array sweep replaced: the
    reference for pr.stability_scan."""
    witnesses = []
    for w in worlds:
        for spec in specs:
            tr = pr.trace(m, w, spec, horizon)
            ok, pair = check_stability(tr, w.truth)
            if not ok:
                witnesses.append(
                    {"world": w.world_id, "z": w.z, "na": w.na, "na_prime": w.na_prime,
                     "stream": spec.label(), "stage_pair": pair,
                     "verdicts": [v.value for v in tr.verdicts]}
                )
    return ModeReport("STABILITY", not witnesses, tuple(witnesses[:10]))


def raised_or(f):
    """f()'s result, or StreamError when it raises one."""
    try:
        return f()
    except StreamError:
        return StreamError


@st.composite
def sweep_cases(draw):
    """(method, grid, drifting spec, horizon): any of the five kinds,
    sacrificing a point of the grid for WAY1/WAY2.  Ratios down to 0.3
    let some streams shrink below the float spacing within the horizon."""
    lo, step, k = draw(st.floats(-2, 2)), draw(st.floats(0.05, 0.5)), draw(st.integers(1, 6))
    grid = pr.GridSpec(lo, lo + k * step, step)
    p = draw(st.sampled_from(grid.axis()))
    gate = draw(st.floats(0.01, 5))
    m = draw(st.sampled_from([
        pr.ockham_method(), pr.anti_realist_method(),
        pr.PerrinMethod(kind="WAY1", p=p, gate=gate),
        pr.PerrinMethod(kind="WAY2", p=p, gate=gate),
        pr.PerrinMethod(kind="WAY3", gate=gate),
    ]))
    delta0, ratio, offsets = draw(drift_params())
    return m, grid, StreamSpec(delta0, ratio, offset=offsets), draw(st.integers(1, 40))


def decide(m, e):
    """The kernel's verdict on one prism, which must be the reference rule's."""
    (verdict,) = pr.decide_prisms(m, [e])
    assert verdict is ref.decide_latest(m, e)
    return verdict


@pytest.fixture(scope="module")
def small_sheets():
    return {m.kind: pr.score_sheet(m, SMALL_GRID, SPEC, HORIZON) for m in METHODS}


class TestDecide:
    def test_realist_razor_keeps_simple_on_overlap(self):
        e = pr.PrismEvidence(0.9, 1.1, 0.95, 1.2)
        assert decide(pr.ockham_method(), e) is S

    def test_both_deduce_complex_without_overlap(self):
        e = pr.PrismEvidence(0.2, 0.4, 0.6, 0.8)
        assert decide(pr.ockham_method(), e) is C
        assert decide(pr.anti_realist_method(), e) is C

    def test_agnostic_rule_suspends_on_overlap(self):
        e = pr.PrismEvidence(0.9, 1.1, 0.95, 1.2)
        assert decide(pr.anti_realist_method(), e) is Q

    def test_way2_sacrifices_despite_overlap(self):
        way2 = pr.PerrinMethod(kind="WAY2", p=1.0, gate=0.1)
        e = pr.PrismEvidence(0.97, 1.03, 0.98, 1.02)
        assert ref.overlap(e)
        assert decide(way2, e) is C

    def test_way1_suspends_at_sacrificed_point(self):
        way1 = pr.PerrinMethod(kind="WAY1", p=1.0, gate=0.5)
        e = pr.PrismEvidence(0.97, 1.03, 0.98, 1.02)
        assert decide(way1, e) is Q

    def test_way3_threshold(self):
        way3 = pr.PerrinMethod(kind="WAY3", gate=0.05)
        assert decide(way3, pr.PrismEvidence(0.99, 1.01, 0.99, 1.01)) is C
        assert decide(way3, pr.PrismEvidence(0.9, 1.1, 0.9, 1.1)) is S

    def test_method_validation(self):
        with pytest.raises(ValueError):
            pr.PerrinMethod(kind="WAY1", p=1.0)
        with pytest.raises(ValueError):
            pr.PerrinMethod(kind="WAY2", p=1.0, gate=-0.5)
        with pytest.raises(ValueError):
            pr.PerrinMethod(kind="WAY9")


# eighths: sums and differences are exact, so edges fall exactly on p, widths
# exactly on the gate and prisms exactly touch the diagonal
tie_or_float = st.integers(-24, 24).map(lambda k: k / 8) | st.floats(-3, 3)
lengths = st.integers(1, 24).map(lambda k: k / 8) | st.floats(1e-3, 5)  # gates and sides


@st.composite
def verdict_cases(draw):
    """(method, prisms): any kind, carrying p and a gate whether or not its
    rule reads them, and prisms whose endpoints tie with p, the gate and the
    diagonal as often as not."""
    kind = draw(st.sampled_from(["OCKHAM_REALIST", "ANTI_REALIST", "WAY1", "WAY2", "WAY3"]))
    p = draw(tie_or_float if kind in ("WAY1", "WAY2") else st.none() | tie_or_float)
    gate = draw(lengths if kind.startswith("WAY") else st.none() | lengths)
    prisms = []
    for _ in range(draw(st.integers(0, 12))):
        xlo, ylo, xw, yw = (draw(s) for s in (tie_or_float, tie_or_float, lengths, lengths))
        prisms.append(pr.PrismEvidence(xlo, xlo + xw, ylo, ylo + yw))
    return pr.PerrinMethod(kind, p=p, gate=gate), prisms


class TestVerdictKernel:
    @settings(max_examples=300)
    @given(case=verdict_cases())
    def test_kernel_equals_reference_rule(self, case):
        m, prisms = case
        reference = tuple(ref.decide_latest(m, e) for e in prisms)
        assert pr.decide_prisms(m, prisms) == reference
        assert tuple(pr.VERDICTS[int(pr._verdicts(m, e.xlo, e.xhi, e.ylo, e.yhi))]
                     for e in prisms) == reference

    @pytest.mark.parametrize("m", [
        pr.ockham_method(), pr.anti_realist_method(),
        pr.PerrinMethod("OCKHAM_REALIST", p=1.0, gate=1.0),
        pr.PerrinMethod("WAY1", p=1.0, gate=0.5), pr.PerrinMethod("WAY2", p=1.0, gate=0.5),
        pr.PerrinMethod("WAY3", gate=0.5), pr.PerrinMethod("WAY3", p=1.0, gate=0.5),
    ], ids=["ockham", "anti_realist", "ockham-with-p-and-gate", "way1", "way2", "way3",
            "way3-with-p"])
    def test_ties(self, m):
        prisms = [
            pr.PrismEvidence(1.0, 1.25, 0.75, 1.0),    # two edges exactly at p = 1
            pr.PrismEvidence(0.75, 1.25, 0.75, 1.0),   # width exactly at the gate 0.5
            pr.PrismEvidence(0.75, 1.0, 0.5, 0.75),    # touches the diagonal at one corner
            pr.PrismEvidence(0.0, 0.25, 0.25, 0.5),    # touches it away from p
            pr.PrismEvidence(0.0, 0.25, 0.5, 0.75),    # misses it
            pr.PrismEvidence(1.5, 1.75, 1.5, 1.75),    # narrow, on it, away from p
        ]
        assert pr.decide_prisms(m, prisms) == tuple(ref.decide_latest(m, e) for e in prisms)

    def test_kernel_takes_columns(self):
        xlo = np.array([0.9, 0.2, 0.97])
        codes = pr._verdicts(pr.PerrinMethod("WAY2", p=1.0, gate=0.1), xlo, xlo + 0.06,
                             np.array([0.95, 0.6, 0.98]), np.array([1.2, 0.8, 1.02]))
        assert [pr.VERDICTS[c] for c in codes.tolist()] == [S, C, C]


class TestPrismStreams:
    def test_centered_stage_one(self):
        w = pr.strand_world(1.0)
        e = pr.trace(pr.ockham_method(), w, StreamSpec(1.0, 0.5), 2).evidence[1]
        assert (e.xlo, e.xhi, e.ylo, e.yhi) == (0.5, 1.5, 0.5, 1.5)

    def test_overlap_eventually_fails_off_diagonal(self):
        w = pr.plane_world(0.8, 1.2)
        spec = StreamSpec(1.0, 0.5)
        evidence = pr.trace(pr.ockham_method(), w, spec, 40).evidence
        first = next(t for t, e in enumerate(evidence) if not ref.overlap(e))
        assert ref.overlap(evidence[first - 1])
        # centered streams separate once the width drops below the gap
        assert 2.0 * spec.half_width(first) < 0.4 <= 2.0 * spec.half_width(first - 1)

    @given(a=st.floats(0.3, 1.7), b=st.floats(0.3, 1.7),
           lam=st.floats(-1, 1), t=st.integers(1, 20))
    def test_nested_and_containing(self, a, b, lam, t):
        w = pr.plane_world(a, b)
        spec = StreamSpec(1.0, 0.6, offset=lam)
        *_, prev, e = pr.trace(pr.ockham_method(), w, spec, t + 1).evidence
        assert ref.contains_point(e, a, b)
        assert prev.xlo <= e.xlo and e.xhi <= prev.xhi
        assert prev.ylo <= e.ylo and e.yhi <= prev.yhi

    def test_trace_builds_each_stage_once(self, monkeypatch):
        # one read of the stage table, then per stage one interval per axis and one prism
        built = []
        for name in ("IntervalEvidence", "PrismEvidence"):
            original = getattr(pr, name)
            monkeypatch.setattr(pr, name, lambda *a, name=name, original=original:
                                built.append(name) or original(*a))
        stages = StreamSpec.stages
        monkeypatch.setattr(StreamSpec, "stages", lambda spec, n: built.append(n) or stages(spec, n))
        tr = pr.trace(pr.ockham_method(), pr.plane_world(0.8, 1.2), SPEC, 25)
        assert built == [25] + ["IntervalEvidence", "IntervalEvidence", "PrismEvidence"] * 25
        assert len(tr) == 25

    @given(case=trace_cases(), other=st.just(0.0) | st.floats(-5, 5), swap=st.booleans())
    @example(case=(1e15, StreamSpec(1.0, 0.5), 40), other=0.5, swap=False)
    @example(case=(1e15, StreamSpec(1.0, 0.5), 40), other=0.5, swap=True)
    @example(case=(0.0, StreamSpec(1.7e308, 0.5, offset=0.5), 5), other=0.5, swap=True)
    @example(case=(0.3, StreamSpec(1.0, 0.5, offset=(0.0, -0.5, -1.0)), 12), other=0.4,
             swap=False)
    def test_trace_equals_the_stage_by_stage_prisms(self, case, other, swap):
        # the x and y intervals of each stage from the table against the per-stage
        # reference, bit for bit, or the same error at the same stage
        theta, spec, horizon = case
        a, b = (other, theta) if swap else (theta, other)
        w, m = pr.PastaWorld(a, b, 0), pr.ockham_method()
        expected = ref.stage_by_stage(lambda t: ref.canonical_prism_stream(w, spec, t), horizon)
        if isinstance(expected, str):
            with pytest.raises(StreamError) as refused:
                pr.trace(m, w, spec, horizon)
            assert str(refused.value) == expected
            return
        bits = lambda e: (type(e), e.xlo.hex(), e.xhi.hex(), e.ylo.hex(), e.yhi.hex())
        tr = pr.trace(m, w, spec, horizon)
        assert list(map(bits, tr.evidence)) == list(map(bits, expected))
        assert tr.verdicts == tuple(ref.decide_latest(m, e) for e in expected)

    @pytest.mark.parametrize("a, b, spec, stage, message", [
        # the x axis's stage-0 upper end overflows
        (1e308, 1.0, StreamSpec(1e308, 0.5), 0, "interval endpoints must be finite"),
        # the y axis's stage-4 interval rounds onto its world 1e15 (half-width 1/16)
        (0.5, 1e15, StreamSpec(1.0, 0.5), 4, "degenerate interval [1000000000000000.0, "
                                             "1000000000000000.0]"),
    ])
    def test_refused_stream_stops_at_the_reference_stage(self, a, b, spec, stage, message):
        w = pr.plane_world(a, b)
        assert ref.stage_by_stage(lambda t: ref.canonical_prism_stream(w, spec, t), 40) == message
        assert len(pr.trace(pr.ockham_method(), w, spec, stage)) == stage
        with pytest.raises(StreamError) as refused:
            pr.trace(pr.ockham_method(), w, spec, stage + 1)
        assert str(refused.value) == message

    def test_degenerate_prism_rejected(self):
        with pytest.raises(StreamError):
            pr.PrismEvidence(1.0, 1.0, 0.0, 1.0)

    def test_strand_world_requires_equal_parameters(self):
        with pytest.raises(ValueError):
            pr.PastaWorld(na=1.0, na_prime=1.1, z=1)


class TestDomains:
    def test_realist_razor_domain_shape(self):
        g = pr.domain_of_convergence(pr.ockham_method(), SMALL_GRID, SPEC, 40)
        assert (g.strand == CONV).all()
        n = len(g.axis)
        assert g.plane.reshape(n, n).tolist() == [[DIV if ia == ib else CONV for ib in range(n)]
                                                  for ia in range(n)]

    def test_agnostic_domain_shape(self):
        g = pr.domain_of_convergence(pr.anti_realist_method(), SMALL_GRID, SPEC, 40)
        assert (g.strand == DIV).all()
        n = len(g.axis)
        plane = g.plane.reshape(n, n)
        assert (np.diagonal(plane) == DIV).all()
        assert plane[0, n - 1] == CONV

    def test_way1_diverges_only_at_sacrificed_pair(self):
        way1 = pr.PerrinMethod(kind="WAY1", p=1.0, gate=4.0)
        g = pr.domain_of_convergence(way1, SMALL_GRID, SPEC, 40)
        idx = g.axis.index(1.0)
        assert g.strand.tolist() == [DIV if ia == idx else CONV for ia in range(len(g.axis))]

    def test_settle_stages_recorded(self):
        g = pr.domain_of_convergence(pr.ockham_method(), SMALL_GRID, SPEC, 40)
        n = len(g.axis)
        cells = ref.cells(g)
        assert all(cell[4] == 0 for cell in cells[n * n:])
        # settle stage equals the first stage whose prism leaves the diagonal
        w = pr.plane_world(g.axis[0], g.axis[-1])
        brute = next(t for t in range(40)
                     if not ref.overlap(ref.canonical_prism_stream(w, SPEC, t)))
        assert cells[n - 1] == ("plane", g.axis[0], g.axis[-1], Status.CONVERGES, brute)
        assert brute == 2

    def test_undetermined_fraction_shrinks_with_horizon(self):
        g3 = pr.domain_of_convergence(pr.ockham_method(), SMALL_GRID, SPEC, 3)
        g12 = pr.domain_of_convergence(pr.ockham_method(), SMALL_GRID, SPEC, 12)
        u3 = g3.fraction("plane", Status.UNDETERMINED)
        u12 = g12.fraction("plane", Status.UNDETERMINED)
        assert u3 > 0
        assert u12 < u3

    def test_simulation_never_contradicts_oracle(self):
        specs = [SPEC,
                 StreamSpec(1.0, 0.6, offset=1.0),
                 StreamSpec(1.0, 0.6, offset=-0.7)]
        worlds = [pr.strand_world(1.0), pr.strand_world(0.98), pr.plane_world(1.0, 1.0),
                  pr.plane_world(0.9, 1.3), pr.plane_world(1.0, 1.02)]
        for m in METHODS:
            for spec in specs:
                # both paths raise on contradiction
                scalar = scalar_records(m, worlds, spec, 40)
                assert array_records(m, worlds, spec, 40) == scalar
                records = [pr.classify_world(m, w, spec, 40) for w in worlds]
                assert [(r.status, r.settle_stage) for r in records] == scalar

    @given(params=drift_params(min_ratio=0.55),
           a=st.just(1.0) | st.floats(0.5, 1.5), b=st.floats(0.5, 1.5))
    def test_oracle_holds_on_drift_sequences(self, params, a, b):
        delta0, ratio, offsets = params
        spec = StreamSpec(delta0, ratio, offset=offsets)
        worlds = [pr.plane_world(a, b), pr.plane_world(a, a), pr.strand_world(a)]
        for m in METHODS:
            # both paths raise on contradiction
            assert array_records(m, worlds, spec, 40) == scalar_records(m, worlds, spec, 40)

    @given(case=sweep_cases())
    def test_domain_equals_scalar_records(self, case):
        m, grid, spec, horizon = case
        worlds = grid_worlds(grid.axis())

        def cells():
            return ref.cells(pr.domain_of_convergence(m, grid, spec, horizon))

        def scalar():
            return [("strand" if w.z else "plane", w.na, w.na_prime, *record)
                    for w, record in zip(worlds, scalar_records(m, worlds, spec, horizon))]

        assert raised_or(cells) == raised_or(scalar)

    def test_contradiction_names_the_first_world(self, monkeypatch):
        # an oracle promising the truth from stage 0 everywhere is refuted
        # first at the plane's corner, where the razor says SIMPLE forever
        monkeypatch.setattr(pr, "asymptotic_oracle", lambda m, a, b, strand, spec: np.zeros(len(a), int))
        a = SMALL_GRID.axis()[0]
        with pytest.raises(OracleContradiction,
                           match=f"^world {re.escape(pr.plane_world(a, a).world_id)}: "):
            pr.domain_of_convergence(pr.ockham_method(), SMALL_GRID, SPEC, 40)

    @pytest.mark.parametrize("index", range(5))
    def test_endpoints_rounding_onto_world_raise_on_both_paths(self, index):
        # 0.5**79 is far below the float spacing at 1.0: the last prisms
        # near 1.0 collapse onto their world
        m = METHODS[index]
        grid, spec = pr.GridSpec(0.9, 1.1, 0.1), StreamSpec(1.0, 0.5)
        worlds = [pr.strand_world(1.0), pr.plane_world(0.9, 1.1)]
        with pytest.raises(StreamError):
            pr.domain_of_convergence(m, grid, spec, 80)
        with pytest.raises(StreamError):
            pr.classify_world(m, worlds[0], spec, 80)
        with pytest.raises(StreamError):
            pr.stability_scan(m, worlds, [spec], 80)
        with pytest.raises(StreamError):
            scalar_stability_scan(m, worlds, [spec], 80)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            pr.GridSpec(1.5, 0.5, 0.1)
        with pytest.raises(ValueError):
            pr.GridSpec(0.5, 1.5, 0.13)


@st.composite
def oracle_cases(draw):
    """(method, spec, worlds) for any of the five kinds and gates: the
    grid's worlds of both components, sheet worlds within DIAG_TOL of the
    diagonal and just outside it, and both members of the sacrificed pair
    (the method's p, on the grid or off it)."""
    lo, step, k = draw(st.floats(-2, 2)), draw(st.floats(0.05, 0.5)), draw(st.integers(1, 6))
    axis = pr.GridSpec(lo, lo + k * step, step).axis()
    p = draw(st.sampled_from(axis) | st.floats(-3, 3))
    gate = draw(st.floats(0.01, 5))
    m = draw(st.sampled_from([
        pr.ockham_method(), pr.anti_realist_method(),
        pr.PerrinMethod(kind="WAY1", p=p, gate=gate),
        pr.PerrinMethod(kind="WAY2", p=p, gate=gate),
        pr.PerrinMethod(kind="WAY3", gate=gate),
    ]))
    near = draw(st.floats(1e-14, 0.9 * pr.DIAG_TOL))  # nonzero at |a| <= 3
    worlds = grid_worlds(axis) + [pr.plane_world(p, p), pr.strand_world(p)]
    for a in (*axis, p):
        worlds += [pr.plane_world(a, a + near), pr.plane_world(a + near, a),
                   pr.plane_world(a, a + 2.0 * pr.DIAG_TOL)]
    delta0, ratio, offsets = draw(drift_params())
    return m, StreamSpec(delta0, ratio, offset=offsets), worlds


class TestOracle:
    @given(case=oracle_cases())
    def test_array_oracle_equals_scalar_reference(self, case):
        m, spec, worlds = case
        assert pr.asymptotic_oracle(m, *pr._world_arrays(worlds), spec).tolist() == [
            scalar_oracle(m, w, spec) for w in worlds]

    @settings(max_examples=50)
    @given(delta0=st.floats(0.05, 5), ratio=st.floats(1e-6, 0.999), k=st.sampled_from([2.0, 4.0]),
           gaps=st.lists(st.floats(1e-300, 10.0), min_size=1, max_size=4), tie=st.integers(0, 40))
    def test_first_stages_equal_first_stage(self, delta0, ratio, k, gaps, tie):
        spec = StreamSpec(delta0, ratio)
        gaps = [*gaps, k * spec.half_width(tie)]  # a gap one stage's width reaches exactly
        assert pr._first_stages(spec, gaps, k).tolist() == [spec.first_stage(g, k) for g in gaps]

    def test_way2_claims_no_sheet_world_near_but_off_the_pair(self):
        # the grid rounds p = step to 12 digits: (a, a) is within DIAG_TOL of
        # (p, p) but not at it, (p, p) leaves its prism at stage 24 and WAY2
        # says SIMPLE from then on
        step = 0.40227895648052314
        m = pr.PerrinMethod(kind="WAY2", p=step, gate=1.0)
        spec = StreamSpec(1.0, 0.3046875)
        a = pr.GridSpec(0.0, step, step).axis()[1]
        assert a != step and abs(a - step) < pr.DIAG_TOL
        worlds = [pr.plane_world(a, a), pr.plane_world(step, step)]
        assert array_records(m, worlds, spec, 25) == scalar_records(m, worlds, spec, 25) == [
            (Status.DIVERGES, None), (Status.CONVERGES, 1)]

    @pytest.mark.parametrize("m, spec, w, settle", [
        # the gate is 2 * half_width(1) exactly, but the stage-1 prism, which
        # holds p, is 0.7999999999999999 wide: WAY1 fires there after all
        (pr.PerrinMethod(kind="WAY1", p=1.0, gate=0.8), StreamSpec(1.0, 0.4),
         pr.strand_world(1.33), 2),
        # the gate is one ulp above 2 * half_width(3), but the stage-3 interval
        # about 0.82 is 0.43200000000000005 wide: WAY3 fires only from stage 4
        (pr.PerrinMethod(kind="WAY3", gate=0.432), SPEC, pr.plane_world(0.5, 0.82), 4),
        # likewise one ulp above 2 * half_width(2), and the stage-2 prism is 0.245 wide
        (pr.PerrinMethod(kind="WAY2", p=1.0, gate=0.245), StreamSpec(1.0, 0.35),
         pr.plane_world(1.0, 1.0), 3),
        # |a - p| is one ulp above 2 * half_width(1), but the stage-1 interval
        # [a - 2d, a] rounds its lower end onto p, so the prism still holds (p, p)
        (pr.PerrinMethod(kind="WAY1", p=1.0, gate=0.9464439668403605),
         StreamSpec(1.2619252891195614, 0.375, offset=-1.0),
         pr.strand_world(1.9464439668396711), 2),
    ], ids=["untriggered-gate-tie", "gate-stage-tie", "gate-stage-tie-at-the-pair", "p-exit-tie"])
    def test_claims_leave_float_endpoints_a_margin(self, m, spec, w, settle):
        assert array_records(m, [w], spec, 20) == scalar_records(m, [w], spec, 20) == [
            (Status.CONVERGES, settle)]

    @pytest.mark.parametrize("kind, gate", [("WAY3", 5e-324), ("WAY2", 5e-324), ("WAY3", 1.5e-323)])
    def test_least_subnormal_gate_stays_a_positive_gap(self, kind, gate):
        # 5e-324 / 2 rounds to 0, so the gate less its slop must not floor at half of it
        m = pr.PerrinMethod(kind=kind, p=1.0, gate=gate)
        worlds = [pr.plane_world(0.0, 1.0), pr.plane_world(1.0, 1.0), pr.strand_world(0.5)]
        assert array_records(m, worlds, SPEC, 20) == scalar_records(m, worlds, SPEC, 20)

    def test_first_stages_need_positive_gaps(self):
        assert pr._first_stages(SPEC, [], 2.0).tolist() == []
        with pytest.raises(ValueError):
            pr._first_stages(SPEC, [1.0, 0.0], 2.0)


class TestAlmostEverywhere:
    def test_realist_razor_passes(self, small_sheets):
        assert small_sheets["OCKHAM_REALIST"].ae.passed

    def test_agnostic_fails_denseness_on_strand(self, small_sheets):
        report = small_sheets["ANTI_REALIST"].ae
        assert not report.passed
        strand_failures = [w for w in report.witnesses if w.get("component") == "strand"]
        assert strand_failures

    def test_way3_fails_full_strand(self, small_sheets):
        report = small_sheets["WAY3"].ae
        assert not report.passed
        assert small_sheets["WAY3"].fractions["coarse"]["strand"]["DIVERGES"] == 1.0

    def test_dimension_fraction_halves_for_razor(self, small_sheets):
        fr = small_sheets["OCKHAM_REALIST"].fractions
        f1 = fr["coarse"]["plane"]["DIVERGES"]
        f2 = fr["refined"]["plane"]["DIVERGES"]
        assert f1 > 0 and 0.25 * f1 <= f2 <= 0.75 * f1


class TestMaximality:
    def test_realist_razor_maximal(self, small_sheets):
        assert small_sheets["OCKHAM_REALIST"].maximal.passed

    def test_agnostic_misses_every_pair(self, small_sheets):
        report = small_sheets["ANTI_REALIST"].maximal
        assert not report.passed
        assert all(w["check"] == "pair" for w in report.witnesses)

    def test_way1_fails_at_sacrificed_pair(self, small_sheets):
        report = small_sheets["WAY1"].maximal
        assert not report.passed
        assert any(w["a"] == 1.0 for w in report.witnesses)

    def test_way2_keeps_maximality(self, small_sheets):
        assert small_sheets["WAY2"].maximal.passed

    def test_undetermined_grid_rejected(self):
        g = pr.domain_of_convergence(pr.ockham_method(), SMALL_GRID, SPEC, 2)
        report = pr.maximality_check(g)
        assert not report.passed
        undetermined = [w.world_id for w, code in zip(grid_worlds(g.axis), g.codes.tolist())
                        if code == UND]
        assert undetermined
        assert list(report.witnesses) == [{"check": "undetermined", "world": world}
                                          for world in undetermined[:25]]


class TestStability:
    def test_realist_and_agnostic_stable(self, small_sheets):
        assert small_sheets["OCKHAM_REALIST"].stable.passed
        assert small_sheets["ANTI_REALIST"].stable.passed

    def test_way2_retracts_truth_at_sacrificed_strand_point(self, small_sheets):
        report = small_sheets["WAY2"].stable
        assert not report.passed
        strand_hits = [w for w in report.witnesses if w["z"] == 1 and w["na"] == 1.0]
        assert strand_hits
        verdicts = strand_hits[0]["verdicts"]
        assert verdicts[0] == "SIMPLE" and "COMPLEX" in verdicts

    @given(case=sweep_cases())
    def test_scan_equals_scalar_loop(self, case):
        m, grid, spec, horizon = case
        worlds = pr.default_stability_worlds(grid)
        specs = pr.stability_spec_variants(spec)
        assert (raised_or(lambda: pr.stability_scan(m, worlds, specs, horizon))
                == raised_or(lambda: scalar_stability_scan(m, worlds, specs, horizon)))

    def test_scan_keeps_the_first_ten_witnesses_in_scalar_order(self):
        way2 = pr.PerrinMethod(kind="WAY2", p=1.0, gate=0.3)
        worlds = pr.default_stability_worlds(SMALL_GRID)
        specs = pr.stability_spec_variants(SPEC)
        failures = sum(not check_stability(pr.trace(way2, w, s, 40), w.truth)[0]
                       for w in worlds for s in specs)
        report = pr.stability_scan(way2, worlds, specs, 40)
        assert failures > 10 and len(report.witnesses) == 10
        assert report == scalar_stability_scan(way2, worlds, specs, 40)

    def test_way2_witness_replays(self, small_sheets):
        wit = [w for w in small_sheets["WAY2"].stable.witnesses
               if w["z"] == 1 and w["na"] == 1.0][0]
        way2 = METHODS[3]
        world = pr.strand_world(wit["na"])
        for spec in pr.stability_spec_variants(SPEC):
            if spec.label() == wit["stream"]:
                tr = pr.trace(way2, world, spec, HORIZON)
                ok, pair = check_stability(tr, world.truth)
                assert not ok and list(pair) == list(wit["stage_pair"])
                assert [v.value for v in tr.verdicts] == wit["verdicts"]
                break
        else:
            pytest.fail("witness stream spec not found")


class TestScoreSheet:
    @settings(max_examples=30)
    @given(lo=st.floats(-2, 2), step=st.floats(0.05, 0.5), k=st.integers(1, 5),
           horizon=st.integers(1, 30), params=drift_params(min_ratio=0.55),
           index=st.integers(0, 4))
    def test_coarse_slice_equals_coarse_sweep(self, lo, step, k, horizon, params, index):
        delta0, ratio, offsets = params
        spec = StreamSpec(delta0, ratio, offset=offsets)
        grid = pr.GridSpec(lo, lo + k * step, step)
        m = METHODS[index]
        coarse = pr.score_sheet(m, grid, spec, horizon).domain
        swept = pr.domain_of_convergence(m, grid, spec, horizon)
        assert coarse.axis == swept.axis
        assert coarse.codes.tolist() == swept.codes.tolist()
        assert coarse.settle.tolist() == swept.settle.tolist()

    def test_traces_only_stability_witnesses(self, monkeypatch):
        classified, traced = [], []
        classify_world, trace = pr.classify_world, pr.trace
        monkeypatch.setattr(pr, "classify_world",
                            lambda *a: classified.append(a) or classify_world(*a))
        monkeypatch.setattr(pr, "trace", lambda *a: traced.append(a) or trace(*a))
        assert pr.score_sheet(pr.ockham_method(), SMALL_GRID, SPEC, HORIZON).stable.passed
        assert classified == [] and traced == []
        sheet = pr.score_sheet(METHODS[3], SMALL_GRID, SPEC, HORIZON)  # WAY2 retracts
        assert classified == []
        assert 0 < len(traced) == len(sheet.stable.witnesses) <= 10

    def test_theorem_pattern(self, small_sheets):
        assert small_sheets["OCKHAM_REALIST"].pattern() == (True, True, True)
        assert small_sheets["ANTI_REALIST"].pattern() == (False, False, True)
        assert small_sheets["WAY1"].pattern() == (True, False, True)
        assert small_sheets["WAY2"].pattern() == (True, True, False)
        ae, _, stable = small_sheets["WAY3"].pattern()
        assert (ae, stable) == (False, True)

    def test_underdetermination_every_method(self, small_sheets):
        for m in METHODS:
            assert ref.underdetermination_ok(m, SMALL_GRID, SPEC)
            assert pr.underdetermination_ok(small_sheets[m.kind].domain)

    @pytest.mark.parametrize("kind", list(pr._RULES))
    @settings(max_examples=40)
    @given(lo=st.floats(-2, 2), step=st.floats(0.05, 0.5), k=st.integers(1, 6),
           index=st.integers(0, 6), near=st.sampled_from([0.0, 1e-13, -5e-13, 2e-12]),
           gate=st.floats(0.01, 5), params=drift_params(), horizon=st.integers(1, 40),
           salt=st.none() | st.integers(0, 2**16))
    def test_underdetermination_reads_the_sweep(self, kind, lo, step, k, index, near, gate,
                                                params, horizon, salt):
        # p on a grid value, or near one: within DIAG_TOL of it or just beyond
        grid = pr.GridSpec(lo, lo + k * step, step)
        reads = pr._RULES[kind][1]
        m = pr.PerrinMethod(kind, p=grid.axis()[index % (k + 1)] + near if "p" in reads else None,
                            gate=gate if "gate" in reads else None)
        delta0, ratio, offsets = params
        spec = StreamSpec(delta0, ratio, offset=offsets)
        oracle = pr.asymptotic_oracle
        if salt is not None:
            # an oracle that claims, world by world, never or past the horizon, so
            # that some pairs are doubly covered and read UNDETERMINED
            def oracle(m, a, b, strand, spec):
                keys = zip(a.tolist(), b.tolist(), strand.tolist())
                return np.array([-1 if hash((*key, salt)) % 3 == 0 else horizon for key in keys])
        try:
            with mock.patch.object(pr, "asymptotic_oracle", oracle):
                domain = pr.domain_of_convergence(m, grid, spec, horizon)
                expected = ref.underdetermination_ok(m, grid, spec)
        except StreamError:  # prisms narrower than the float spacing: nothing swept to read
            return
        assert pr.underdetermination_ok(domain) == expected

    @pytest.mark.parametrize("status", [Status.CONVERGES, Status.UNDETERMINED])
    def test_underdetermination_fails_a_doubly_covered_pair(self, small_sheets, status):
        # the razor converges on the strand and diverges on its sheet twins (a, a)
        domain = small_sheets["OCKHAM_REALIST"].domain
        n = len(domain.axis)
        assert domain.strand[3] == pr.CODES[Status.CONVERGES]
        assert pr.underdetermination_ok(domain)
        codes = domain.codes.copy()
        codes[3 * n + 3] = pr.CODES[status]  # the sheet world (axis[3], axis[3])
        assert not pr.underdetermination_ok(replace(domain, codes=codes))


@st.composite
def shared_sweep_cases(draw):
    """(methods, grid, base spec, horizon) for score_sheets: a grid of two to
    four points, a centered or off-center base stream, a horizon short enough
    to leave worlds UNDETERMINED, and one to six methods, kinds repeated, each
    way drawing its own p (on the refined grid or off it) and gate."""
    lo, step, k = draw(st.floats(-2, 2)), draw(st.floats(0.05, 0.5)), draw(st.integers(1, 3))
    grid = pr.GridSpec(lo, lo + k * step, step)
    p = st.sampled_from(grid.halved().axis()) | st.floats(-3, 3)
    methods = []
    for kind in draw(st.lists(st.sampled_from(list(pr._RULES)), min_size=1, max_size=6)):
        reads = pr._RULES[kind][1]
        methods.append(pr.PerrinMethod(kind, p=draw(p) if "p" in reads else None,
                                       gate=draw(st.floats(0.01, 5)) if "gate" in reads else None))
    if draw(st.booleans()):
        spec = StreamSpec(draw(st.floats(0.05, 5)), draw(st.floats(0.3, 0.95)))
    else:
        delta0, ratio, offsets = draw(drift_params())
        spec = StreamSpec(delta0, ratio, offset=offsets)
    return methods, grid, spec, draw(st.integers(1, 12))


def error_of(f):
    """The type and message of the StreamError or OracleContradiction f()
    raises, or None when it returns."""
    try:
        f()
    except (StreamError, OracleContradiction) as exc:
        return type(exc), str(exc)
    return None


# repeated kinds, ways with their own p and gate, and a horizon of 3 stages, which
# leaves worlds UNDETERMINED for every method
SHORT_CASE = ([pr.ockham_method(), METHODS[3], METHODS[3],
               pr.PerrinMethod("WAY1", p=0.75, gate=0.3), pr.PerrinMethod("WAY2", p=1.25, gate=2.0)],
              pr.GridSpec(0.5, 1.5, 0.25), SPEC, 3)


class TestSharedSweep:
    """score_sheets sweeps each stream once for all its methods: every sheet
    is the one the scalar references give for its method alone, and the
    first error is the one a method-by-method run raises."""

    @settings(max_examples=40, deadline=None)
    @given(case=shared_sweep_cases())
    @example(case=SHORT_CASE)
    def test_sheets_equal_scalar_references(self, case):
        methods, grid, spec, horizon = case
        fine = grid.halved().axis()
        worlds = grid_worlds(fine)
        stability_worlds = pr.default_stability_worlds(grid)
        specs = pr.stability_spec_variants(spec)
        sheets = pr.score_sheets(methods, grid, spec, horizon)
        assert len(sheets) == len(methods)
        for m, sheet in zip(methods, sheets):
            records = scalar_records(m, worlds, spec, horizon)
            g2 = pr.DomainGrid(fine, np.array([pr.CODES[status] for status, _ in records]),
                               np.array([-1 if t is None else t for _, t in records]))
            g = g2.coarse()
            assert sheet.method == m.label()
            assert ref.cells(sheet.domain) == ref.cells(g)
            assert sheet.ae == pr.ae_check(g2)
            assert sheet.maximal == pr.maximality_check(g)
            assert sheet.fractions == {"coarse": pr.ae_fractions(g), "refined": pr.ae_fractions(g2)}
            assert sheet.stable == scalar_stability_scan(m, stability_worlds, specs, horizon)

    @settings(max_examples=40, deadline=None)
    @given(case=shared_sweep_cases())
    @example(case=SHORT_CASE)
    def test_sweep_keeps_the_settle_and_first_true_stages(self, case):
        # per method and world: the last wrong stage + 1 and the first true stage (the
        # horizon when none), and a retraction of the truth exactly where first_true + 1 < settle
        methods, grid, spec, horizon = case
        worlds = grid_worlds(grid.halved().axis())
        settle, first_true = pr._sweep(methods, *pr._world_arrays(worlds), spec, horizon)
        for i, m in enumerate(methods):
            for j, w in enumerate(worlds):
                tr = pr.trace(m, w, spec, horizon)
                hits = [t for t, v in enumerate(tr.verdicts) if v is w.truth]
                misses = [t for t, v in enumerate(tr.verdicts) if v is not w.truth]
                assert settle[i, j] == max(misses, default=-1) + 1
                assert first_true[i, j] == min(hits, default=horizon)
                retracts = not check_stability(tr, w.truth)[0]
                assert (first_true[i, j] + 1 < settle[i, j]) == retracts

    def test_short_case_leaves_worlds_undetermined(self):
        sheets = pr.score_sheets(*SHORT_CASE)
        assert all((s.domain.codes == UND).any() for s in sheets)

    @settings(max_examples=60, deadline=None)
    @given(case=shared_sweep_cases(), salt=st.none() | st.integers(0, 2**16),
           fault=st.sampled_from([None, "domain", "stability"]))
    def test_first_error_is_the_method_by_method_one(self, case, salt, fault):
        methods, grid, spec, horizon = case
        horizon += 1  # a subnormal stream degenerates by its stage 1
        tiny = StreamSpec(5e-324, 0.5)
        real_oracle, real_variants = pr.asymptotic_oracle, pr.stability_spec_variants
        oracle, variants = real_oracle, real_variants
        if salt is not None:
            # claims the truth from stage 0 at a salted subset of (method, world) pairs,
            # so that some methods, and not others, contradict their sweep
            def oracle(m, a, b, strand, spec):
                method = (tuple(pr._RULES).index(m.kind), m.p or 0.0, m.gate or 0.0)
                keys = zip(a.tolist(), b.tolist(), strand.tolist())
                claim = np.array([hash((*method, *key, salt)) % 7 == 0 for key in keys])
                return np.where(claim, 0, real_oracle(m, a, b, strand, spec))
        if fault == "domain":
            spec = tiny
        elif fault == "stability":
            variants = lambda base: [*real_variants(base), tiny]
        with mock.patch.multiple(pr, asymptotic_oracle=oracle, stability_spec_variants=variants):
            def one_at_a_time():  # each method's domain sweep, then its stability scan
                for m in methods:
                    pr.domain_of_convergence(m, grid.halved(), spec, horizon)
                    pr.stability_scan(m, pr.default_stability_worlds(grid),
                                      pr.stability_spec_variants(spec), horizon)

            expected = error_of(one_at_a_time)
            shared = error_of(lambda: pr.score_sheets(methods, grid, spec, horizon))
        assert shared == expected
        if fault:
            assert expected is not None

    def test_default_run_sweeps_each_stream_once(self, tmp_path, monkeypatch):
        sweeps, builds = [], []
        sweep, build = pr._sweep, pr.default_stability_worlds
        monkeypatch.setattr(pr, "_sweep", lambda methods, *args:
                            sweeps.append(len(methods)) or sweep(methods, *args))
        monkeypatch.setattr(pr, "default_stability_worlds",
                            lambda grid: builds.append(grid) or build(grid))
        cli.run(cli.validate_config('{"experiment": "perrin"}'), str(tmp_path))
        # the refined grid, then the three stream variants, each swept once for all five methods
        assert sweeps == [5, 5, 5, 5]
        assert len(builds) == 1


def reference_intervals(kind, na_true, const, size, rep_seeds, confidence, times):
    """estimate_interval of one simulated sample per rep seed: the scalar
    form of pr._intervals, as (lo, hi, point) per rep."""
    rows = []
    for rep_seed in rep_seeds:
        if kind == "brownian":
            sample = ref.simulate_brownian(na_true, const, times, size, rep_seed)
        else:
            sample = ref.simulate_sedimentation(na_true, const, size, rep_seed)
        est = ref.estimate_interval(sample, confidence)
        rows.append((est.lo, est.hi, est.point))
    return rows


def scalar_coverage(kind, na_true, const, size, reps, confidence, seed):
    """The per-rep loop that the stacked coverage_study replaced: the
    reference it must equal bit for bit."""
    rep_seeds = (substream(seed, "coverage", kind, size, rep).integers(2**63)
                 for rep in range(reps))
    hits, widths = 0, 0.0
    for lo, hi, _ in reference_intervals(kind, na_true, const, size, rep_seeds, confidence,
                                         pr.DEFAULT_TIMES):
        hits += lo <= na_true <= hi
        widths += hi - lo
    return pr.CoverageResult(reps=reps, coverage=hits / reps, mean_width=widths / reps)


def outcome(f, *args):
    """f's result, or the type and message of what it raised."""
    try:
        return f(*args)
    except ValueError as exc:
        return type(exc), str(exc)


class TestExperiments:
    def test_displacement_ratio_matches_generator(self):
        m = 100_000
        sample = ref.simulate_brownian(2.0, 4.0, (1.0, 2.0, 4.0), m, seed=5)
        slope_true = 4.0 / 2.0
        for t, msd in zip(sample.times, sample.msd):
            se = math.sqrt(2.0 / m) * slope_true * t
            assert abs(msd - slope_true * t) <= 3.0 * se

    def test_height_mean_matches_generator(self):
        n = 100_000
        sample = ref.simulate_sedimentation(2.0, 4.0, n, seed=5)
        mean_true = 1.0 / 8.0
        se = mean_true / math.sqrt(n)
        assert abs(sum(sample.heights) / n - mean_true) <= 3.0 * se

    def test_seed_reproducibility(self):
        a = ref.simulate_brownian(1.0, 1.0, (1.0, 2.0), 50, seed=3)
        b = ref.simulate_brownian(1.0, 1.0, (1.0, 2.0), 50, seed=3)
        assert a == b

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ref.simulate_brownian(-1.0, 1.0, (1.0,), 10, 0)
        with pytest.raises(ValueError):
            ref.simulate_sedimentation(1.0, -2.0, 10, 0)
        with pytest.raises(ValueError):
            ref.ExperimentSample(kind="sediment", heights=(1.0, -2.0), cprime=1.0)


class TestEstimators:
    def test_intervals_shrink_onto_truth(self):
        small = ref.estimate_interval(
            ref.simulate_brownian(1.0, 2.0, pr.DEFAULT_TIMES, 200, 7), 0.95)
        large = ref.estimate_interval(
            ref.simulate_brownian(1.0, 2.0, pr.DEFAULT_TIMES, 200_000, 7), 0.95)
        assert large.hi - large.lo < small.hi - small.lo
        assert large.lo <= 1.0 <= large.hi
        assert abs(large.point - 1.0) < 0.02

    def test_sediment_interval(self):
        est = ref.estimate_interval(ref.simulate_sedimentation(1.0, 2.0, 100_000, 7), 0.95)
        assert est.parameter == "na_prime"
        assert est.lo <= 1.0 <= est.hi

    def test_nonpositive_slope_is_estimation_error(self):
        sample = ref.ExperimentSample(kind="brownian", times=(1.0, 2.0),
                                     msd=(1.0, -1.0), m_particles=10, c=1.0)
        with pytest.raises(pr.EstimationError):
            ref.estimate_interval(sample, 0.95)

    def test_confidence_validated(self):
        sample = ref.simulate_sedimentation(1.0, 1.0, 100, 1)
        with pytest.raises(ValueError):
            ref.estimate_interval(sample, 1.0)

    def test_coverage_smoke(self):
        res = pr.coverage_study("brownian", 1.0, 2.0, 400, 200, 0.95, seed=19)
        assert res.coverage >= 0.90
        res2 = pr.coverage_study("sediment", 1.0, 2.0, 400, 200, 0.95, seed=19)
        assert res2.coverage >= 0.90

    def test_width_scales_with_sample_size(self):
        w200 = pr.coverage_study("sediment", 1.0, 2.0, 200, 50, 0.95, 3).mean_width
        w800 = pr.coverage_study("sediment", 1.0, 2.0, 800, 50, 0.95, 3).mean_width
        assert w800 == pytest.approx(w200 / 2.0, rel=0.15)

    def test_coverage_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown sample kind 'brownain'"):
            pr.coverage_study("brownain", 1.0, 2.0, 400, 10, 0.95, seed=19)

    def test_coverage_needs_a_rep(self):
        with pytest.raises(ValueError, match="reps >= 1"):
            pr.coverage_study("sediment", 1.0, 2.0, 400, 0, 0.95, seed=19)

    @settings(max_examples=60)
    # a rep whose slope numpy's square would round unlike Python's pow, by one ulp
    # in its interval (seen with this platform's libm)
    @example(kind="brownian", na_true=1.0, const=2.0, size=10, reps=1, confidence=0.95,
             seed=12977)
    @given(kind=st.sampled_from(["brownian", "sediment"]), na_true=st.floats(0.05, 20.0),
           const=st.floats(0.05, 20.0), size=st.integers(2, 300), reps=st.integers(1, 120),
           confidence=st.floats(0.5, 0.999), seed=st.integers(0, 2**40))
    def test_coverage_matches_scalar_loop(self, kind, na_true, const, size, reps, confidence,
                                          seed):
        # other observation times reach the kernel through test_kernel_equals_estimate_interval
        args = (kind, na_true, const, size, reps, confidence, seed)
        assert outcome(pr.coverage_study, *args) == outcome(scalar_coverage, *args)


def kernel_intervals(*args):
    return list(zip(*(column.tolist() for column in pr._intervals(*args))))


class TestIntervalKernel:
    @settings(max_examples=60)
    # two particles at one time: the slope's standard error is the slope itself,
    # so the interval reaches zero at the first rep
    @example(kind="brownian", na_true=1.0, const=1.0, size=2, rep_seeds=[1, 2],
             confidence=0.95, times=[1.0])
    @given(kind=st.sampled_from(["brownian", "sediment"]), na_true=st.floats(0.05, 20.0),
           const=st.floats(0.05, 20.0), size=st.integers(2, 300),
           rep_seeds=st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=20),
           confidence=st.floats(0.5, 0.999),
           times=st.lists(st.floats(1e-3, 50.0), min_size=1, max_size=9))
    def test_kernel_equals_estimate_interval(self, kind, na_true, const, size, rep_seeds,
                                             confidence, times):
        args = (kind, na_true, const, size, rep_seeds, confidence, times)
        assert outcome(kernel_intervals, *args) == outcome(reference_intervals, *args)


schedules = st.lists(st.integers(2, 400), min_size=1, max_size=6, unique=True).map(sorted)


class TestExperimentalStream:
    @settings(max_examples=100)
    @given(na=st.floats(0.05, 20.0), na_prime=st.floats(0.05, 20.0), schedule=schedules,
           confidence=st.floats(0.5, 0.999), seed=st.integers(0, 2**40))
    def test_stream_equals_reference_loop(self, na, na_prime, schedule, confidence, seed):
        args = (na, na_prime, schedule, confidence, seed)
        assert (outcome(pr.experimental_stream, *args)
                == outcome(ref.experimental_stream, *args))

    @pytest.mark.parametrize("seed", range(16))
    def test_cli_streams_equal_reference_loop(self, seed):
        # run_perrin's diagonal and off-diagonal streams at the default schedule
        schedule = cli.validate_config("{}")["perrin"]["stream_schedule"]
        for na, na_prime in ((1.0, 1.0), (0.8, 1.2)):
            got = pr.experimental_stream(na, na_prime, schedule, 0.95, seed)
            assert got == ref.experimental_stream(na, na_prime, schedule, 0.95, seed)
            assert all(type(v) is float for e in got.prisms
                       for v in (e.xlo, e.xhi, e.ylo, e.yhi))

    def test_diagonal_truth_keeps_simple(self):
        sr = pr.experimental_stream(1.0, 1.0, [50, 100, 200, 400, 800], 0.95, 20250801)
        assert sr.flagged_stage is None
        assert set(pr.decide_prisms(pr.ockham_method(), sr.prisms)) == {S}

    def test_off_diagonal_truth_eventually_complex(self):
        sr = pr.experimental_stream(0.8, 1.2, [50, 100, 200, 400, 800], 0.95, 20250801)
        assert pr.decide_prisms(pr.ockham_method(), sr.prisms)[-1] is C

    def test_nestedness_by_construction(self):
        sr = pr.experimental_stream(0.9, 1.1, [50, 100, 200, 400], 0.95, 11)
        for a, b in zip(sr.prisms, sr.prisms[1:]):
            assert a.xlo <= b.xlo and b.xhi <= a.xhi and a.ylo <= b.ylo and b.yhi <= a.yhi

    def test_stream_flagged_at_stage_zero_has_no_verdicts(self):
        # two heights: the rate interval, point (1 +- 1.96 / sqrt(2)), reaches zero at once
        sr = pr.experimental_stream(1.0, 1.0, [2], 0.95, 1)
        assert (sr.prisms, sr.flagged_stage) == ((), 0)
        assert pr.decide_prisms(pr.ockham_method(), sr.prisms) == ()

    def test_containment_failure_flagged_not_fabricated(self):
        # at 50% confidence the per-stage intervals miss the truth often,
        # so an empty intersection appears quickly; the stream truncates
        sr = pr.experimental_stream(1.0, 1.0, [10, 20, 40, 80, 160, 320], 0.5, seed=0)
        assert sr.flagged_stage is not None
        assert len(sr.prisms) == sr.flagged_stage

    def test_schedule_must_increase(self):
        with pytest.raises(ValueError):
            pr.experimental_stream(1.0, 1.0, [100, 100], 0.95, 1)
