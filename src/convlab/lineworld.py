"""The non-stochastic exact-zero problem on the real line.

Worlds are floats theta (see truth); evidence is a nested sequence of closed
intervals containing theta whose lengths shrink geometrically to zero
but never to a point.  The admissible stream family is parameterized by
an initial half-width, a shrink ratio, and a bounded offset of the
center: at stage t the interval has half-width d_t = delta0 * ratio**t
and its center sits at theta + lam_t * d_t with |lam_t| <= 1.  lam_t == 0
is the centered textbook stream; constant nonzero lam is nested by
construction.  Offsets are validated once, when the StreamSpec is built
(a per-stage sequence that would break nesting is rejected there), so
every stage is built once, from one prefix of the spec's stage table
(StreamSpec.stages), without re-checking the stage before it.

The amount of evidence carried by an interval is the inverse of its
length.  The module houses the razor-following threshold rule (answer
SIMPLE while the interval still covers 0), the uniform-convergence
refuter, and the short-run-razor necessity probe with its adversary
suite.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

from .framework import (
    MethodSpec,
    StreamError,
    StreamTrace,
    Verdict,
    classify_convergence,
)

FAMILY = "lineworld"


def truth(theta: float) -> Verdict:
    """The true answer at world theta: SIMPLE iff theta is exactly 0."""
    return Verdict.SIMPLE if theta == 0.0 else Verdict.COMPLEX


class IntervalEvidence(namedtuple("IntervalEvidence", "lo hi")):
    """A closed interval [lo, hi] with lo < hi (never a single point).

    An immutable named pair: equality, hash, pickling and the repr
    IntervalEvidence(lo=..., hi=...) are those of its two floats."""

    __slots__ = ()

    def __new__(cls, lo: float, hi: float):
        if not -math.inf < lo < hi < math.inf:  # also false on a NaN
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise StreamError("interval endpoints must be finite")
            raise StreamError(f"degenerate interval [{lo}, {hi}]")
        return tuple.__new__(cls, (lo, hi))

    @classmethod
    def _make(cls, iterable):  # _replace builds through here: check it too
        return cls(*iterable)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def is_subset_of(self, other: "IntervalEvidence") -> bool:
        return other.lo <= self.lo and self.hi <= other.hi


# an IntervalEvidence from endpoints already checked, with no Python frame
_checked_interval = partial(tuple.__new__, IntervalEvidence)


@dataclass(frozen=True)
class StreamSpec:
    """Parameters of one admissible evidence stream.

    The interval's center sits at theta + offset * half_width, with
    offset a scalar in [-1, 1] or a per-stage sequence (the last entry is
    reused past its end); the scalar 0 is the centered stream.

    The stream contract is checked once, here: |lam| <= 1 keeps theta in
    every stage, and stage t nests in stage t-1 for every theta iff
    (lam_t - 1) * ratio >= lam_{t-1} - 1 and (lam_t + 1) * ratio <=
    lam_{t-1} + 1.  A sequence breaking this by more than 1e-12 raises
    StreamError; constant offsets always nest.

    stages, half_widths and first_stage are the stage arithmetic of both
    interval suites.  They read one table per spec, which holds each
    stage's half-width and endpoint pair and depends on no world; every
    stage the suites build is a prefix of it.  One method, _grow, fills
    it on first use, once per stage, up to the last stage asked for: a
    trace's horizon, or the stage first_stage returns.
    """

    delta0: float
    ratio: float
    offset: object = 0.0  # float or sequence of floats

    def __post_init__(self):
        if not (self.delta0 > 0 and math.isfinite(self.delta0)):
            raise ValueError("delta0 must be positive and finite")
        if not 0.0 < self.ratio < 1.0:
            raise ValueError("ratio must lie in (0, 1)")
        scalar = isinstance(self.offset, (int, float))
        offs = tuple(map(float, (self.offset,) if scalar else self.offset))
        for lam in offs:
            if not (math.isfinite(lam) and abs(lam) <= 1.0):
                raise ValueError("offsets must lie in [-1, 1]")
        r = self.ratio
        for t, (prev, lam) in enumerate(zip(offs, offs[1:]), start=1):
            if (lam - 1.0) * r < prev - 1.0 - 1e-12 or (lam + 1.0) * r > prev + 1.0 + 1e-12:
                raise StreamError(f"offset {lam} at stage {t} breaks nesting under stage {t - 1}")
        # the offsets normalized once, and the stage table: none is a field,
        # so equality, hash, repr and label() see `offset` only
        object.__setattr__(self, "_lams", offs)
        object.__setattr__(self, "_halves", [])  # half_width(t), stage by stage
        object.__setattr__(self, "_ends", [])  # stage t's endpoint pair, as long as _halves
        object.__setattr__(self, "_loose", [])  # the stages t whose pair is not inside t - 1's

    def half_width(self, t: int) -> float:
        return self.delta0 * self.ratio**t

    def _grow(self, n: int) -> None:
        """Fill the table in place through stage n - 1: stage t's half-width
        d and endpoints less the world's value, (lam -+ 1) * d, whose fixed
        signs, shrinking with d, keep containment and nesting exact (bar an
        offset sequence inside the 1e-12 tolerance, or ratio**t out of order)."""
        halves, ends, lams = self._halves, self._ends, self._lams
        for t in range(len(halves), n):
            d, lam = self.half_width(t), lams[min(t, len(lams) - 1)]
            halves.append(d)
            ends.append(((lam - 1.0) * d, (lam + 1.0) * d))
            if t and not (ends[-2][0] <= ends[-1][0] and ends[-1][1] <= ends[-2][1]):
                self._loose.append(t)

    def half_widths(self, n: int) -> list:
        """half_width(t) for t < n, from the table."""
        self._grow(n)
        return self._halves[:max(n, 0)]

    def stages(self, n: int) -> list:
        """The endpoint pairs of stages t < n, from the table."""
        self._grow(n)
        return self._ends[:max(n, 0)]

    def nested(self, n: int) -> bool:
        """Whether each pair of stages t < n lies inside the one before, from the table."""
        self._grow(n)
        return not self._loose or self._loose[0] >= n

    def first_stage(self, gap: float, k: float) -> int:
        """First stage t with k * half_width(t) < gap: with k = 2 the
        interval's width is below gap, with k = 4 twice its width is."""
        if not gap > 0.0:
            raise ValueError("gap must be positive")
        self._grow(1)
        halves, t = self._halves, 0
        while k * halves[t] >= gap:
            t += 1
            if t == len(halves):
                self._grow(t + 1)
        return t

    def label(self) -> str:
        if isinstance(self.offset, (int, float)) and self.offset == 0:
            return f"centered(d0={self.delta0},r={self.ratio})"
        return f"offcenter(d0={self.delta0},r={self.ratio},lam={self.offset})"


@dataclass(frozen=True)
class GridSpec:
    lo: float
    hi: float
    step: float

    def __post_init__(self):
        if not (self.lo < self.hi and self.step > 0):
            raise ValueError("grid needs lo < hi and step > 0")
        if not math.isfinite(self.span):
            raise ValueError("the grid span overflows the float range")
        if round(self.span) < 1 or abs(round(self.span) - self.span) > 1e-9:
            raise ValueError("step must divide the grid span")

    @property
    def span(self) -> float:
        return (self.hi - self.lo) / self.step

    def axis(self) -> tuple:
        """lo + i * step, rounded to 12 decimals to drop float noise; a grid
        whose rounding merges two of them raises ValueError."""
        k = round(self.span)
        axis = tuple(round(self.lo + i * self.step, 12) for i in range(k + 1))
        if any(b <= a for a, b in zip(axis, axis[1:])):
            raise ValueError("rounding to 12 decimals merges worlds: the step is too fine")
        return axis

    def halved(self) -> "GridSpec":
        return GridSpec(self.lo, self.hi, self.step / 2.0)


def _decisions(method: MethodSpec, evidence) -> tuple:
    """The verdict per stage, each decided once, on one growing history
    list that holds the stages up to and including it."""
    decide, hist, verdicts = method.decide, [], []
    for e in evidence:
        hist.append(e)
        verdicts.append(decide(hist))
    return tuple(verdicts)


def trace(method: MethodSpec, theta: float, spec: StreamSpec, horizon: int) -> StreamTrace:
    """Run a method along the canonical stream for `horizon` stages: the
    world's value plus each endpoint pair of spec.stages(horizon), made
    into intervals without a Python frame each.  Rounding theta + x is
    monotone in x, so nested pairs are checked at their first and last stage."""
    ends = [(theta + below, theta + above) for below, above in spec.stages(horizon)]
    if ends and not (spec.nested(horizon) and -math.inf < ends[0][0] <= ends[-1][0]
                     < ends[-1][1] <= ends[0][1] < math.inf):
        if not all([-math.inf < lo < hi < math.inf for lo, hi in ends]):
            for lo, hi in ends:
                IntervalEvidence(lo, hi)  # raises the constructor's error at the first bad stage
    evidence = tuple(map(_checked_interval, ends))
    return StreamTrace(f"{FAMILY}:theta={theta!r}", evidence, _decisions(method, evidence))


# ---------------------------------------------------------------------------
# decision rules


# bound once: looking an Enum member up costs about as much as the rule
_SIMPLE, _COMPLEX = Verdict.SIMPLE, Verdict.COMPLEX


def guaranteed_settle_stage(theta: float, spec: StreamSpec) -> int:
    """mstar's oracle: the first stage from which every admissible interval
    of the family must exclude 0.  An interval of width w containing theta
    covers 0 only while w >= |theta|, so the bound is the first t with
    2 * delta0 * ratio**t < |theta|.  Valid for every offset."""
    return 0 if theta == 0.0 else spec.first_stage(abs(theta), 2.0)


def _mstar_latest(hist) -> Verdict:
    """The threshold rule on the history's last interval: SIMPLE iff it
    still includes 0 (closed boundaries count as inclusion), COMPLEX
    otherwise; never SUSPEND."""
    lo, hi = hist[-1]
    return _SIMPLE if lo <= 0.0 <= hi else _COMPLEX


def mstar_method() -> MethodSpec:
    return MethodSpec(
        name="mstar",
        decide=_mstar_latest,
        oracle=guaranteed_settle_stage,
    )


def always_suspend_method() -> MethodSpec:
    return MethodSpec(
        name="always_suspend",
        decide=lambda hist: Verdict.SUSPEND,
        oracle=lambda theta, spec: -1,
    )


# adversaries that violate the short-run razor in different ways

def _razor_violator(name: str, fires) -> MethodSpec:
    """The threshold rule plus a trigger: COMPLEX wherever fires(hist) holds,
    even while the last interval still covers 0, else the threshold rule."""
    return MethodSpec(name=name,
                      decide=lambda hist: _COMPLEX if fires(hist) else _mstar_latest(hist))


def width_trigger_violator(width0: float = 0.01) -> MethodSpec:
    """Outputs COMPLEX once the interval is narrower than width0 even
    when 0 is still inside; otherwise behaves like the threshold rule."""
    return _razor_violator(f"width_violator({width0})", lambda hist: hist[-1].width < width0)


def stage_trigger_violator(stage: int = 3) -> MethodSpec:
    """Outputs COMPLEX unconditionally at one fixed stage."""
    return _razor_violator(f"stage_violator({stage})", lambda hist: len(hist) - 1 == stage)


def parity_violator() -> MethodSpec:
    """Outputs COMPLEX at every odd stage regardless of the evidence."""
    return _razor_violator("parity_violator", lambda hist: (len(hist) - 1) % 2 == 1)


def razor_violator_suite() -> list:
    return [width_trigger_violator(), stage_trigger_violator(), parity_violator()]


# ---------------------------------------------------------------------------
# mode checks


def check_pointwise(method: MethodSpec, thetas: Sequence[float], spec: StreamSpec,
                    horizon: int) -> list:
    """One ConvergenceRecord per world theta along the canonical stream,
    upgraded by the method's analytic oracle when it has one and carrying
    the stability verdict of the same trace."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    oracle = method.oracle or (lambda theta, spec: None)
    return [classify_convergence(trace(method, theta, spec, horizon), truth(theta),
                                 oracle(theta, spec))
            for theta in thetas]


@dataclass(frozen=True)
class UniformWitness:
    """A world theta and an admissible finite history refuting one prescribed
    evidence amount: the final interval is at most `prescribed_length`
    long, yet the method's verdict there is false at theta."""

    theta: float
    history: tuple
    failing_stage: int
    verdict: Verdict
    truth: Verdict


def refute_uniform(method: MethodSpec, prescribed_length: float) -> UniformWitness:
    """Produce a counterexample to uniform convergence at the given
    evidence amount (1 / prescribed_length).

    Query the method on a history of origin-centered intervals whose
    final width equals prescribed_length.  If it answers SIMPLE, a
    nonzero world inside the final interval refutes it; any other answer
    is refuted by the world theta = 0.  Such a witness always exists
    because an interval of nonzero length covering 0 decides nothing.
    """
    if not prescribed_length > 0:
        raise ValueError("prescribed_length must be positive")
    stages = 5
    half = prescribed_length / 2.0
    hist = tuple(
        IntervalEvidence(-half * 2.0 ** (stages - 1 - t), half * 2.0 ** (stages - 1 - t))
        for t in range(stages)
    )
    verdict = method.decide(list(hist))
    theta = prescribed_length / 4.0 if verdict is Verdict.SIMPLE else 0.0
    return UniformWitness(
        theta=theta,
        history=hist,
        failing_stage=stages - 1,
        verdict=verdict,
        truth=truth(theta),
    )


def witness_is_valid(method: MethodSpec, wit: UniformWitness, prescribed_length: float) -> bool:
    """Replay a uniform-convergence witness: the history must be
    admissible at the witness world (nested, each interval strictly
    narrower than the one before, at any scale), end at or below the
    prescribed length, and reproduce a verdict that is false at that
    world."""
    final = wit.history[wit.failing_stage]
    if final.width > prescribed_length * (1 + 1e-9):
        return False
    for t, e in enumerate(wit.history):
        if not e.contains(wit.theta):
            return False
        if t > 0 and not e.is_subset_of(wit.history[t - 1]):
            return False
        if t > 0 and not e.width < wit.history[t - 1].width:
            return False
    replayed = method.decide(list(wit.history[: wit.failing_stage + 1]))
    return replayed is wit.verdict and replayed is not wit.truth


@dataclass(frozen=True)
class RazorReport:
    razor_violation: Optional[tuple]  # offending history, when found
    consequence: str  # POINTWISE_FAIL | STABILITY_FAIL | NONE_FOUND
    witness_theta: Optional[float] = None
    witness_trace: Optional[StreamTrace] = None


# the razor probe's design: its worlds, and the streams drawn about each
RAZOR_THETAS = (0.0, 0.004, -0.004, 0.03, -0.03, 0.2)
RAZOR_SPECS = (
    StreamSpec(delta0=1.0, ratio=0.5),
    StreamSpec(delta0=1.0, ratio=0.7),
    StreamSpec(delta0=0.3, ratio=0.6),
    StreamSpec(delta0=1.0, ratio=0.5, offset=-0.8),
    StreamSpec(delta0=1.0, ratio=0.5, offset=0.8),
)


def _candidate_histories(budget: int, thetas=RAZOR_THETAS, specs=RAZOR_SPECS):
    """Bounded enumeration of admissible histories whose final interval
    contains 0, drawn from canonical streams over a small design: each
    history is a prefix of one stream, cut once 0 leaves its interval."""
    count = 0
    for theta in thetas:
        for spec in specs:
            evid = []
            for below, above in spec.stages(40):
                e = IntervalEvidence(theta + below, theta + above)
                evid.append(e)
                if not e.contains(0.0):
                    break
                count += 1
                yield list(evid)
                if count >= budget:
                    return


def razor_necessity_probe(method: MethodSpec, search_budget: int) -> RazorReport:
    """Search for a short-run razor violation and exhibit its cost.

    A violation is a history whose final interval still contains 0 but
    on which the method outputs COMPLEX.  Continuing that history with
    origin-centered shrinking intervals (admissible at theta = 0), one
    of two things must happen: the method never returns to SIMPLE, so it
    fails pointwise convergence at theta = 0; or it outputs SIMPLE at
    some later stage, retracting a verdict that was true at every
    nonzero world still inside the current interval, so it fails
    stability there.  Razor-obeying methods report NONE_FOUND.
    """
    extension = 30
    for hist in _candidate_histories(search_budget):
        if method.decide(hist) is not Verdict.COMPLEX:
            continue
        final = hist[-1]
        # continue toward theta = 0 with halving origin-centered intervals
        half = min(-final.lo, final.hi, final.width / 4.0)
        if half <= 0.0:  # 0 sits on the boundary; unusable for a continuation
            continue
        extended = hist + [IntervalEvidence(-half / 2.0**k, half / 2.0**k)
                           for k in range(1, extension + 1)]
        verdicts = _decisions(method, extended)
        if Verdict.SIMPLE in verdicts[len(hist):]:
            # retraction of a COMPLEX verdict that was true at a nonzero
            # world inside the stage-j interval: the trace stops at stage j
            j = verdicts.index(Verdict.SIMPLE, len(hist))
            consequence, theta_w, cut = "STABILITY_FAIL", extended[j].hi / 2.0, j + 1
        else:  # never returned to SIMPLE: fails pointwise at theta = 0
            consequence, theta_w, cut = "POINTWISE_FAIL", 0.0, len(extended)
        return RazorReport(
            razor_violation=tuple(hist),
            consequence=consequence,
            witness_theta=theta_w,
            witness_trace=StreamTrace(f"{FAMILY}:theta={theta_w!r}", tuple(extended[:cut]),
                                      verdicts[:cut]),
        )
    return RazorReport(razor_violation=None, consequence="NONE_FOUND")
