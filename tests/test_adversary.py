"""The analytic oracles against an adversary: nested streams steered to
keep a method wrong for as long as the nesting rule allows.

Soundness: no stream is wrong at or after the oracle's stage.  Witness:
each DIVERGES claim has a stream of the run's own family (one spec for
both axes) that is wrong after every finite claim of the case, read
before the prisms fall below float resolution; worlds within DIAG_TOL of
the diagonal or of (p, p) count as on it by convention, so theirs is
read at the last stage whose half-width is above DIAG_TOL.  Slack, the
oracle's stage minus the latest settle stage any stream reaches, is
reported as a hypothesis event, not asserted: a stage later than need
be leaves a record UNDETERMINED, never wrong.  It is asserted 0 on the
WAY1 and WAY2 strand worlds that (p, p) leaves by the gate stage, where
the trigger never fires, and on lineworld, whose oracle is tight.
"""

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from convlab import lineworld as lw
from convlab import perrin as pr
from convlab.framework import Verdict
from convlab.lineworld import StreamSpec

import reference as ref

S, C, Q = Verdict.SIMPLE, Verdict.COMPLEX, Verdict.SUSPEND
NEAR = st.floats(1e-14, 0.9 * pr.DIAG_TOL)  # inside a DIAG_TOL band, nonzero at |x| <= 6


def tie(delta0, ratio, t, k, eps):
    """k half-widths of stage t, moved by eps: a gap on or next to the
    stage boundary of first_stage(., k)."""
    return k * delta0 * ratio**t + eps


@st.composite
def adversary_cases(draw, kinds=("OCKHAM_REALIST", "ANTI_REALIST", "WAY1", "WAY2", "WAY3")):
    """(method, delta0, ratio, worlds, rng seed).  Besides free worlds, the
    worlds sit on purpose within DIAG_TOL of the diagonal, of (p, p) and of
    the gate's distance from p, and next to a separation (k = 4) or p-exit
    (k = 2) stage boundary; the gate itself is free or next to a stage's
    width.  "Next to" is within DIAG_TOL, down to on it: within an ulp
    of k half-widths a stream's rounded endpoints can still meet, or hold
    p, one stage past the exact-arithmetic stage, which the oracle's slop
    covers."""
    delta0, ratio = draw(st.floats(0.05, 5)), draw(st.floats(0.3, 0.7))
    eps = (st.sampled_from([0.0, pr.DIAG_TOL, -pr.DIAG_TOL]) | st.floats(-1e-14, 1e-14)
           | NEAR | NEAR.map(lambda x: -x))
    t = st.integers(0, 12)
    nudge = draw(eps) if draw(st.booleans()) else None
    gate = draw(st.floats(0.01, 5)) if nudge is None else tie(delta0, ratio, draw(t), 2.0, nudge)
    p = draw(st.floats(-3, 3))
    kind = draw(st.sampled_from(kinds))
    reads = pr._RULES[kind][1]
    m = pr.PerrinMethod(kind, p=p if "p" in reads else None, gate=gate if "gate" in reads else None)
    a, b, near = draw(st.floats(-3, 3)), draw(st.floats(-3, 3)), draw(NEAR)
    sep, exit_ = (draw(st.builds(tie, st.just(delta0), st.just(ratio), t, st.just(k), eps))
                  for k in (4.0, 2.0))
    beside = draw(eps)
    worlds = [pr.plane_world(a, b), pr.plane_world(a, a), pr.strand_world(a),
              pr.plane_world(a, a + near), pr.plane_world(a + near, a),
              pr.plane_world(a, a + 2.0 * pr.DIAG_TOL), pr.plane_world(a, a + sep),
              pr.plane_world(p, p), pr.strand_world(p), pr.strand_world(p + near),
              pr.plane_world(p + near, p + near), pr.plane_world(p, p - near),
              pr.strand_world(p + exit_), pr.strand_world(p - exit_),
              pr.strand_world(p + gate + beside), pr.plane_world(p - exit_, p - exit_)]
    return m, delta0, ratio, worlds, draw(st.integers(0, 2**32 - 1))


def in_band(m, w):
    """Is w within DIAG_TOL of the diagonal, or of (p, p) when m reads p,
    without being on it?"""
    dist = max(abs(w.na - m.p), abs(w.na_prime - m.p)) if m.p is not None else 0.0
    return 0.0 < abs(w.na - w.na_prime) < pr.DIAG_TOL or 0.0 < dist < pr.DIAG_TOL


def check_claims(m, delta0, ratio, worlds, seed, decide=ref.decide_latest):
    """Assert soundness and witness for m's oracle claims on the worlds;
    return the slack per converging world whose claim the streams reach.
    The streams run to the last stage above float resolution at every
    world of the case, which is past every finite claim they can reach."""
    spec = StreamSpec(delta0, ratio)
    claims = pr.asymptotic_oracle(m, *pr._world_arrays(worlds), spec).tolist()
    scale = max(1.0, abs(m.p or 0.0), *(abs(x) for w in worlds for x in (w.na, w.na_prime)))
    n = ref.stages_above(delta0, ratio, 2.0**-48 * scale)
    band = ref.stages_above(delta0, ratio, pr.DIAG_TOL) - 1
    rng = np.random.default_rng(seed)
    slack = []
    for w, claim in zip(worlds, claims):
        runs = [(shared, ref.prism_verdicts(m, w, xs, ys, n, decide))
                for shared, xs, ys in ref.prism_streams(m, w, delta0, ratio, n, rng)]
        if claim >= 0:
            settled = max(ref.settle_stage(v, w.truth) for _, v in runs)
            assert settled <= claim, (w, claim, settled)
            if claim < n:
                slack.append(claim - settled)
        else:
            stage = band if in_band(m, w) else n - 1
            assert any(shared and v[stage] is not w.truth for shared, v in runs), (w, stage)
    return slack


class TestPerrinOracle:
    @settings(max_examples=20)
    @given(case=adversary_cases())
    # gaps within an ulp or so of 4 half-widths, whose intervals, each axis
    # with its own offsets, still meet at the exact-arithmetic separation stage
    @example(case=(pr.ockham_method(), 1.0, 0.3416849206009349,
                   [pr.plane_world(1.0, 1.4669943398642689)], 0))
    @example(case=(pr.ockham_method(), 3.331512098777854, 0.5188362355912909,
                   [pr.plane_world(2.0, 2.000000000002)], 0))
    def test_sound_with_witnesses(self, case):
        m, *rest = case
        for s in check_claims(m, *rest):
            event(f"{m.kind} slack {s}")

    @settings(max_examples=30)
    @given(kind=st.sampled_from(["WAY1", "WAY2"]), delta0=st.floats(0.05, 5),
           ratio=st.floats(0.3, 0.7), p=st.floats(-3, 3), gate=st.floats(0.01, 5),
           beyond=st.floats(1e-9, 3), sign=st.sampled_from([1.0, -1.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_untriggered_strand_worlds_are_tight(self, kind, delta0, ratio, p, gate, beyond,
                                                 sign, seed):
        # (p, p) has left every prism of a strand world beyond twice the gate
        # stage's half-width from p by the time a prism is narrower than the gate
        spec = StreamSpec(delta0, ratio)
        stage = spec.first_stage(gate, 2.0)
        assume(stage == 0 or abs(gate - 2.0 * spec.half_width(stage - 1)) > 1e-12)
        w = pr.strand_world(p + sign * 2.0 * spec.half_width(stage) * (1.0 + beyond))
        assert check_claims(pr.PerrinMethod(kind, p=p, gate=gate), delta0, ratio, [w], seed) == [0]


SIXTH_RULES = [
    (S, ("gate",), Q),
    (Q, ("p", "gate"), C),
    (C, ("gate",), S),
    (C, ("p", "gate"), Q),
]


class TestSixthRule:
    """A kind added to the table gets its oracle from its entry alone."""

    @settings(max_examples=12)
    @given(entry=st.sampled_from(SIXTH_RULES), data=st.data())
    def test_sound_with_witnesses(self, entry, data):
        with pytest.MonkeyPatch.context() as patch:
            patch.setitem(pr._RULES, "SIXTH", entry)
            check_claims(*data.draw(adversary_cases(kinds=("SIXTH",))),
                         decide=ref.rule_decision(entry))

    def test_rule_decision_is_the_reference_rule(self):
        # the sixth rule's scalar decision, on the built-in kinds, is decide_latest
        rng = np.random.default_rng(0)
        for kind, entry in pr._RULES.items():
            m = pr.PerrinMethod(kind, p=1.0, gate=0.3)
            for lo in rng.uniform(0.0, 2.0, (200, 2)):
                e = pr.PrismEvidence(lo[0], lo[0] + rng.uniform(0.05, 1.0),
                                     lo[1], lo[1] + rng.uniform(0.05, 1.0))
                assert ref.rule_decision(entry)(m, e) is ref.decide_latest(m, e)


class TestLineworldOracle:
    @settings(max_examples=30)
    @given(delta0=st.floats(0.05, 5), ratio=st.floats(0.3, 0.9), t=st.integers(0, 20),
           sign=st.sampled_from([1.0, -1.0]), data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_mstar_sound_and_tight(self, delta0, ratio, t, sign, data, seed):
        # worlds at 0, near it, free, and on or next to a stage boundary of the
        # guaranteed settle stage; offsets steer the interval toward 0
        theta = sign * data.draw(st.just(0.0) | NEAR | st.floats(1e-3, 3) | st.builds(
            tie, st.just(delta0), st.just(ratio), st.just(t), st.just(2.0),
            st.sampled_from([0.0, 1e-15, -1e-15])))
        spec = StreamSpec(delta0, ratio)
        claim = lw.mstar_method().oracle(theta, spec)
        assert claim == lw.guaranteed_settle_stage(theta, spec)
        n = ref.stages_above(delta0, ratio, 2.0**-48 * max(1.0, abs(theta)))
        rng = np.random.default_rng(seed)
        streams = [spec, ref.steered(theta, 0.0, delta0, ratio, n),
                   ref.steered(theta, 0.0, delta0, ratio, n, rng),
                   ref.steered(theta, 0.0, delta0, ratio, n, rng)]
        truth = lw.truth(theta)
        settled = max(ref.settle_stage([ref.mstar_decide(lw.IntervalEvidence(theta + lo,
                                                                             theta + hi))
                                        for lo, hi in s.stages(n)], truth) for s in streams)
        assert settled <= claim
        if claim < n:  # steering toward 0 keeps it inside as long as any stream can
            assert settled == claim
