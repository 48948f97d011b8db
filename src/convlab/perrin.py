"""The atomism case: paired granularity parameters over a two-component
world space.

Worlds carry two positive parameters: the value inferred from mean
squared displacement of suspended particles (X axis) and the value
inferred from the vertical density profile (Y axis), plus a flag for
whether the discreteness hypothesis is true.  When it is true the two
parameters coincide, so the truth-worlds form a one-dimensional strand
over the diagonal; the falsity-worlds form the full two-dimensional
sheet.  The two components are kept disjoint: sheet worlds never come
arbitrarily close to strand worlds, so "almost everywhere" is judged
per component (denseness, and a lower-dimensional exception set).

Evidence is a nested rectangular prism: the product of one interval per
axis, always containing the world's parameter pair.  Both intervals come
from one StreamSpec, whose offsets were validated once when it was
built, so each stage's prism is built once and never re-checked; trace
and the array sweep read the stages as one prefix of the spec's table.  A
prism "meets the diagonal" when its two intervals overlap, in which case
both hypotheses remain live.  Five built-in methods are evaluated: the
realist razor (SIMPLE while the prism meets the diagonal, COMPLEX once
it cannot), the agnostic rule (SUSPEND instead of SIMPLE), and three
ways of sacrificing strand worlds, each realizing one known failure
mode (non-maximal domain, instability, or a missed strand interval).
All five are one rule with different parameters, stated once in the
table _RULES: a prism that meets the diagonal gets the kind's fixed
verdict, any other prism COMPLEX, except that a prism narrower than the
method's gate (which, for the kinds that read p, also contains (p, p))
gets the kind's triggered verdict.  One kernel, _verdicts, applies the
table to scalars or to columns of prisms, and the analytic oracle,
asymptotic_oracle, reads the same table: it takes the columns of any
number of worlds and returns each world's certified stage, -1 where the
method never settles on the truth.  The methods share the worlds and
streams, so one sweep per stream serves them all (score_sheets), and
the run renders the domain coordinates once, as CSV cells.

The same module houses the synthetic displacement/sedimentation
experiments and the one interval kernel that coverage studies and the
experimental streams bridging them to prism evidence share.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .framework import (
    DEFAULT_TIMES,
    DIAG_TOL,
    ConvergenceRecord,
    EstimationError,
    ModeReport,
    OracleContradiction,
    Status,
    StreamError,
    StreamTrace,
    Verdict,
    check_stability,
    classify_convergence,
    normal_quantile,
)
from .lineworld import GridSpec, IntervalEvidence, StreamSpec
from .rand import substream, substream_key, substreams

# a world's status as a code, as DomainGrid stores it
CODES = {Status.CONVERGES: 1, Status.DIVERGES: 0, Status.UNDETERMINED: -1}
STATUSES = {code: status for status, code in CODES.items()}


@dataclass(frozen=True)
class PastaWorld:
    na: float        # X-axis granularity parameter (displacement route)
    na_prime: float  # Y-axis granularity parameter (sedimentation route)
    z: int           # 1: discreteness hypothesis true; 0: false

    def __post_init__(self):
        if self.z not in (0, 1):
            raise ValueError("z must be 0 or 1")
        if self.z == 1 and self.na != self.na_prime:
            raise ValueError("strand worlds require na == na_prime")

    @property
    def truth(self) -> Verdict:
        return Verdict.SIMPLE if self.z == 1 else Verdict.COMPLEX

    @property
    def world_id(self) -> str:
        if self.z == 1:
            return f"strand:a={self.na!r}"
        return f"plane:a={self.na!r},b={self.na_prime!r}"


@dataclass(frozen=True)
class PrismEvidence:
    xlo: float
    xhi: float
    ylo: float
    yhi: float

    def __post_init__(self):
        if not (self.xlo < self.xhi and self.ylo < self.yhi):
            raise StreamError("degenerate prism")


# kind -> (verdict on a prism that meets the diagonal, the parameters the
# trigger reads, verdict once triggered): the one rule of the module docstring
_RULES = {
    "OCKHAM_REALIST": (Verdict.SIMPLE, (), None),
    "ANTI_REALIST": (Verdict.SUSPEND, (), None),
    "WAY1": (Verdict.SIMPLE, ("p", "gate"), Verdict.SUSPEND),
    "WAY2": (Verdict.SIMPLE, ("p", "gate"), Verdict.COMPLEX),
    "WAY3": (Verdict.SIMPLE, ("gate",), Verdict.COMPLEX),
}
VERDICTS = tuple(Verdict)  # _verdicts returns indices into this tuple
# one byte per world: int64 codes made the sweep's per-stage temporaries eight times larger
_CODE = {v: np.int8(code) for code, v in enumerate(VERDICTS)}


@dataclass(frozen=True)
class PerrinMethod:
    """One of the five built-in inference rules (kind: a key of _RULES).

    p marks the sacrificed diagonal value and gate the prism width below
    which the trigger fires, for the kinds whose trigger reads them.
    """

    kind: str
    p: Optional[float] = None
    gate: Optional[float] = None

    def __post_init__(self):
        if self.kind not in _RULES:
            raise ValueError(f"unknown method kind {self.kind!r}")
        reads = _RULES[self.kind][1]
        if "p" in reads and self.p is None:
            raise ValueError(f"{self.kind} needs p")
        if "gate" in reads and not (self.gate and self.gate > 0):
            raise ValueError(f"{self.kind} needs gate > 0")

    def label(self) -> str:
        reads = _RULES[self.kind][1]
        params = ",".join(f"{name}={getattr(self, name)}" for name in reads)
        return f"{self.kind.lower()}({params})" if reads else self.kind.lower()


def ockham_method() -> PerrinMethod:
    return PerrinMethod(kind="OCKHAM_REALIST")


def anti_realist_method() -> PerrinMethod:
    return PerrinMethod(kind="ANTI_REALIST")


def _verdicts(m: PerrinMethod, xlo, xhi, ylo, yhi):
    """m's verdict codes (indices into VERDICTS) on the prisms with these
    endpoints, scalars or arrays alike."""
    on, reads, fired = _RULES[m.kind]
    codes = np.where(np.maximum(xlo, ylo) <= np.minimum(xhi, yhi), _CODE[on],
                     _CODE[Verdict.COMPLEX])
    if not reads:
        return codes
    trigger = np.maximum(xhi - xlo, yhi - ylo) < m.gate
    if "p" in reads:
        trigger = trigger & (xlo <= m.p) & (m.p <= xhi) & (ylo <= m.p) & (m.p <= yhi)
    return np.where(trigger, _CODE[fired], codes)


def decide_prisms(m: PerrinMethod, prisms: Sequence[PrismEvidence]) -> tuple:
    """m's verdict on each prism of a stream, from one _verdicts call."""
    columns = np.array([(e.xlo, e.xhi, e.ylo, e.yhi) for e in prisms], dtype=float)
    return tuple(VERDICTS[code] for code in _verdicts(m, *columns.reshape(-1, 4).T).tolist())


# ---------------------------------------------------------------------------
# canonical prism streams


def trace(m: PerrinMethod, w: PastaWorld, spec: StreamSpec, horizon: int) -> StreamTrace:
    """m along the canonical prism stream about w: each stage's prism is the
    product of its x and y intervals, both axes adding that stage's endpoint
    pair of spec.stages(horizon) to the world's value."""
    prisms = tuple(PrismEvidence(*IntervalEvidence(w.na + below, w.na + above),
                                 *IntervalEvidence(w.na_prime + below, w.na_prime + above))
                   for below, above in spec.stages(horizon))
    return StreamTrace(w.world_id, prisms, decide_prisms(m, prisms))


def _sweep(methods: Sequence[PerrinMethod], a, b, strand, spec: StreamSpec, horizon: int):
    """`trace` for every method and world (na, na_prime, z == 1) at once: one
    array pass per stage of spec.stages(horizon) builds and checks the prisms,
    with the endpoints `trace` adds, so each is bit for bit the scalar one, and
    every method reads them.  Returns two (methods, worlds) arrays: the
    empirical settle stage, the last wrong stage + 1 (horizon when the trace
    does not end on the truth), which classify_convergence reads, and the
    first stage whose verdict is the truth (horizon when none).  A trace
    retracts a true answer, as check_stability reads it, exactly where
    first_true + 1 < settle."""
    truth = np.where(strand, _CODE[Verdict.SIMPLE], _CODE[Verdict.COMPLEX])
    settle = np.zeros((len(methods), len(a)), dtype=np.int64)
    first_true = np.full(settle.shape, horizon, dtype=np.int64)
    for t, (below, above) in enumerate(spec.stages(horizon)):
        xlo, xhi, ylo, yhi = a + below, a + above, b + below, b + above
        if not (all(np.isfinite(e).all() for e in (xlo, xhi, ylo, yhi))
                and (xlo < xhi).all() and (ylo < yhi).all()):
            raise StreamError(f"degenerate prism at stage {t}")
        for i, m in enumerate(methods):
            miss = _verdicts(m, xlo, xhi, ylo, yhi) != truth
            settle[i][miss] = t + 1
            first_true[i][~miss & (first_true[i] == horizon)] = t
    return settle, first_true


def _world_arrays(worlds: Sequence[PastaWorld]):
    """The (na, na_prime, z == 1) columns of a world sequence, as _sweep reads them."""
    return (np.array([w.na for w in worlds], dtype=float),
            np.array([w.na_prime for w in worlds], dtype=float),
            np.array([w.z == 1 for w in worlds], dtype=bool))


# ---------------------------------------------------------------------------
# the analytic oracle (offset-robust bounds, valid for every stream of the
# family: StreamSpec admits only nested streams, and nestedness makes the
# diagonal-overlap, width and point-containment triggers monotone, so
# each settles permanently)


def _first_stages(spec: StreamSpec, gaps, k: float):
    """spec.first_stage(gap, k) per (positive) gap: the number of stages s
    with k * half_width(s) >= gap, counted over the spec's half-widths
    (which only shrink) through the smallest gap's first stage."""
    gaps = np.asarray(gaps, dtype=float)
    if not (gaps > 0.0).all():
        raise ValueError("gaps must be positive")
    n = spec.first_stage(gaps.min(initial=math.inf), k) + 1
    widths = k * np.array(spec.half_widths(n))
    return n - np.searchsorted(widths[::-1], gaps)


def asymptotic_oracle(m: PerrinMethod, a, b, strand, spec: StreamSpec):
    """The stage from which m outputs the truth on every admissible stream,
    per world (na, na_prime, z == 1), or -1 where it never settles on it,
    read off m's _RULES entry (on, reads, fired).  Untriggered, m says `on`
    forever on the diagonal (worlds within DIAG_TOL of it count as on it);
    off it, intervals of width w holding a resp. b meet only while
    |a - b| <= 2w, so m says COMPLEX, the truth, from separation (k = 4).
    A trigger reading only the gate fires for good from first_stage(gate, 2),
    when every prism is narrower than the gate; one reading p, only at the
    sacrificed pair: a strand world within DIAG_TOL of p, or the sheet world
    (p, p).  Elsewhere an interval of width w holding a holds p only while
    |a - p| <= w: it stops firing at the p-exit stage (k = 2), and never
    fires where no prism before that stage is narrower than the gate.
    Where k half-widths come within `slop` (float ulps) of a gap or gate,
    the later stage is claimed."""
    on, reads, fired = _RULES[m.kind]
    truth = np.where(strand, _CODE[Verdict.SIMPLE], _CODE[Verdict.COMPLEX])
    gap = np.abs(a - b)
    off = gap >= DIAG_TOL  # every strand world is on the diagonal
    slop = 2.0**-48 * (np.maximum(np.abs(a), np.abs(b)) + 2.0 * spec.delta0)
    # x less the slop s, but by no more than x / 2 (so still > 0 at x = 5e-324, where
    # x / 2 rounds to 0); wherever x / 2 is exact this is max(x - s, x / 2)
    less = lambda x, s: x - np.minimum(s, x / 2.0)
    settle = np.where(truth == _CODE[on], 0, -1)  # the untriggered verdict's
    settle[off] = _first_stages(spec, less(gap[off], slop[off]), 4.0)
    if not reads:
        return settle
    right, forever = truth == _CODE[fired], np.ones(len(gap), dtype=bool)
    if "p" in reads:
        dist = np.maximum(np.abs(a - m.p), np.abs(b - m.p))  # to (p, p)
        forever = (dist < DIAG_TOL) & (strand | (dist == 0.0))
        exits = ~forever & ~right & ~off & (settle >= 0)  # wrong until the p-exit stage
        near = less(dist[exits], slop[exits])
        stage = _first_stages(spec, near, 2.0)
        gated = _first_stages(spec, np.maximum(near, m.gate + slop[exits]), 2.0)
        settle[exits] = np.where(gated < stage, stage, 0)  # the gate stage first, or never fired
    settle[forever & ~right] = -1
    hold = forever & right  # never WAY1's, whose gate stage is not stepped to
    width = _first_stages(spec, less(m.gate, slop[hold]), 2.0)
    settle[hold] = np.where(settle[hold] < 0, width, np.minimum(settle[hold], width))
    return settle


def _classify(methods: Sequence[PerrinMethod], a, b, strand, spec: StreamSpec, horizon: int):
    """classify_convergence's status rule for every world, yielded per method:
    status codes (CODES) and empirical settle stages (-1 unless CONVERGES),
    from one _sweep upgraded by the method's asymptotic_oracle.  A swept
    settle stage after the oracle's raises OracleContradiction naming the
    first such world, when that method's item is reached."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    settles = _sweep(methods, a, b, strand, spec, horizon)[0]
    for m, settle in zip(methods, settles):
        by = asymptotic_oracle(m, a, b, strand, spec)
        known = (by >= 0) & (by < horizon)
        bad = np.flatnonzero(known & (settle > by))
        if bad.size:
            i = bad[0]
            w = PastaWorld(float(a[i]), float(b[i]), int(strand[i]))
            raise OracleContradiction(f"world {w.world_id}: oracle guarantees truth from stage "
                                      f"{by[i]} but the trace shows otherwise")
        codes = np.where(by < 0, 0, np.where(known, 1, -1))
        yield codes, np.where(codes == 1, settle, -1)


# ---------------------------------------------------------------------------
# domain of convergence over a sampled grid


@dataclass(frozen=True)
class DomainGrid:
    """Per-world status codes (CODES) and empirical settle stages (-1
    unless CONVERGES), both laid out as the plane row-major over (ia, ib),
    z = 0, then the strand over ia, z = 1."""

    axis: tuple
    codes: np.ndarray
    settle: np.ndarray

    @property
    def plane(self) -> np.ndarray:
        return self.codes[:len(self.axis) ** 2]

    @property
    def strand(self) -> np.ndarray:
        return self.codes[len(self.axis) ** 2:]

    def coarse(self) -> "DomainGrid":
        """The grid at twice the step, read off this one (a halved grid, of
        2k + 1 points): every other axis point is the coarse axis bit for
        bit (halving a step is exact in binary), so its codes and settle
        stages are these, subsampled."""
        n = len(self.axis)

        def every_other(x):
            return np.concatenate([x[:n * n].reshape(n, n)[::2, ::2].ravel(), x[n * n:][::2]])

        return DomainGrid(self.axis[::2], every_other(self.codes), every_other(self.settle))

    def fraction(self, component: str, status: Status) -> float:
        codes = self.plane if component == "plane" else self.strand
        return int(np.count_nonzero(codes == CODES[status])) / len(codes)


def plane_world(a: float, b: float) -> PastaWorld:
    return PastaWorld(na=a, na_prime=b, z=0)


def strand_world(a: float) -> PastaWorld:
    return PastaWorld(na=a, na_prime=a, z=1)


def classify_world(m: PerrinMethod, w: PastaWorld, spec: StreamSpec, horizon: int) -> ConvergenceRecord:
    """One world's record from its scalar trace, upgraded by
    asymptotic_oracle on the world's columns."""
    tr = trace(m, w, spec, horizon)
    settle_by = asymptotic_oracle(m, *_world_arrays([w]), spec)[0]
    return classify_convergence(tr, w.truth, int(settle_by))


def domains_of_convergence(methods: Sequence[PerrinMethod], grid: GridSpec, spec: StreamSpec,
                           horizon: int):
    """Per method, as _classify yields it, status codes and settle stages for
    both components, simulated over canonical streams and upgraded by the
    analytic oracle, from arrays of the axis: no world object is built."""
    axis = grid.axis()
    n = len(axis)
    values = np.array(axis, dtype=float)
    for codes, settle in _classify(methods, np.concatenate([np.repeat(values, n), values]),
                                   np.concatenate([np.tile(values, n), values]),
                                   np.arange(n * n + n) >= n * n, spec, horizon):
        yield DomainGrid(axis, codes, settle)


def domain_of_convergence(m: PerrinMethod, grid: GridSpec, spec: StreamSpec,
                          horizon: int) -> DomainGrid:
    return next(domains_of_convergence([m], grid, spec, horizon))


# ---------------------------------------------------------------------------
# the three criteria


def _denseness_failures(g: DomainGrid):
    """Worlds with no converging same-component world within 2h."""
    axis, n = g.axis, len(g.axis)
    plane = np.pad((g.plane == 1).reshape(n, n), 2)  # a margin of 2h that never converges
    strand = np.pad(g.strand == 1, 2)
    near_plane = np.any([plane[2 + di:2 + di + n, 2 + dj:2 + dj + n] for di in range(-2, 3)
                         for dj in range(-2, 3) if di * di + dj * dj <= 4], axis=0)
    near_strand = np.any([strand[2 + di:2 + di + n] for di in range(-2, 3)], axis=0)
    return ([{"component": "plane", "a": axis[ia], "b": axis[ib]}
             for ia, ib in np.argwhere(~near_plane).tolist()]
            + [{"component": "strand", "a": axis[ia]}
               for ia in np.flatnonzero(~near_strand).tolist()])


def _dimension_ok(frac_h: float, frac_h2: float) -> bool:
    if frac_h == 0.0:
        return frac_h2 == 0.0
    return 0.25 * frac_h <= frac_h2 <= 0.75 * frac_h


def ae_fractions(g: DomainGrid) -> dict:
    return {
        comp: {s.value: g.fraction(comp, s) for s in Status}
        for comp in ("plane", "strand")
    }


def ae_check(g2: DomainGrid) -> ModeReport:
    """Almost-everywhere convergence via the two grid-level proxies, on
    the refined grid g2 and its coarse view g (step h).

    Denseness: every world of g has a converging world of its own
    component within 2h.  Lower dimension: the diverging fraction of
    each component either is zero or shrinks by a factor in
    [0.25, 0.75] when the step halves (a line in the sheet, or isolated
    points of the strand, shrink by ~0.5; full-dimensional divergence
    regions keep their fraction).  Undetermined fractions are reported
    separately via ae_fractions.
    """
    g = g2.coarse()
    witnesses = list(_denseness_failures(g))[:25]
    for comp in ("plane", "strand"):
        f1 = g.fraction(comp, Status.DIVERGES)
        f2 = g2.fraction(comp, Status.DIVERGES)
        if not _dimension_ok(f1, f2):
            witnesses.append(
                {"component": comp, "check": "lower_dimension",
                 "fraction_h": f1, "fraction_h2": f2}
            )
    return ModeReport("ALMOST_EVERYWHERE", not witnesses, tuple(witnesses))


def maximality_check(g: DomainGrid) -> ModeReport:
    """A domain on this space is maximal iff it contains every
    off-diagonal sheet world and, for each diagonal value, at least one
    member of the empirically equivalent pair (it can then never be
    properly extended: adding the missing pair member would force
    dropping the other).  It needs fully determined verdicts, so any
    UNDETERMINED world fails it; those are the first witnesses."""
    axis = g.axis
    n = len(axis)
    witnesses = [
        {"check": "undetermined",
         "world": (plane_world(axis[i // n], axis[i % n]) if i < n * n
                   else strand_world(axis[i - n * n])).world_id}
        for i in np.flatnonzero(g.codes == CODES[Status.UNDETERMINED])[:25].tolist()
    ]
    plane = g.plane.reshape(n, n)
    witnesses += [
        {"check": "off_diagonal", "a": axis[ia], "b": axis[ib],
         "status": STATUSES[int(plane[ia, ib])].value}
        for ia, ib in np.argwhere((plane != 1) & ~np.eye(n, dtype=bool))[:25].tolist()
    ]
    witnesses += [
        {"check": "pair", "a": a, "w0": STATUSES[w0].value, "w1": STATUSES[w1].value}
        for a, w0, w1 in zip(axis, np.diagonal(plane).tolist(), g.strand.tolist())
        if w0 != 1 and w1 != 1
    ]
    return ModeReport("MAXIMAL_DOMAIN", not witnesses, tuple(witnesses[:25]))


def default_stability_worlds(grid: GridSpec) -> list:
    axis = grid.axis()
    n = len(axis)
    worlds = [strand_world(a) for a in axis]
    worlds += [plane_world(a, a) for a in axis]
    for ia in range(n - 1):
        worlds.append(plane_world(axis[ia], axis[ia + 1]))
        worlds.append(plane_world(axis[ia + 1], axis[ia]))
    for ia in range(0, n, 5):
        for ib in range(0, n, 5):
            worlds.append(plane_world(axis[ia], axis[ib]))
    return worlds


def stability_scans(methods: Sequence[PerrinMethod], worlds: Sequence[PastaWorld],
                    specs: Sequence[StreamSpec], horizon: int) -> list:
    """Scan sampled worlds and stream variants for a retraction of the
    true answer, one report per method; each witness carries full replay
    parameters.  Every stream variant is swept once; a method's first ten
    failures, world-major, are replayed through the scalar trace."""
    columns = _world_arrays(worlds)
    retracted = np.zeros((len(methods), len(worlds), len(specs)), dtype=bool)
    for j, spec in enumerate(specs):
        settle, first_true = _sweep(methods, *columns, spec, horizon)
        retracted[:, :, j] = first_true + 1 < settle
    reports = []
    for m, failed in zip(methods, retracted):
        witnesses = []
        for iw, js in np.argwhere(failed)[:10].tolist():
            w, spec = worlds[iw], specs[js]
            tr = trace(m, w, spec, horizon)
            _, pair = check_stability(tr, w.truth)
            witnesses.append(
                {"world": w.world_id, "z": w.z, "na": w.na, "na_prime": w.na_prime,
                 "stream": spec.label(), "stage_pair": pair,
                 "verdicts": [v.value for v in tr.verdicts]}
            )
        reports.append(ModeReport("STABILITY", not witnesses, tuple(witnesses)))
    return reports


def stability_scan(m: PerrinMethod, worlds: Sequence[PastaWorld],
                   specs: Sequence[StreamSpec], horizon: int) -> ModeReport:
    return stability_scans([m], worlds, specs, horizon)[0]


@dataclass(frozen=True)
class ScoreSheet:
    method: str
    ae: ModeReport
    maximal: ModeReport
    stable: ModeReport
    fractions: dict = field(default_factory=dict)
    domain: Optional[DomainGrid] = None  # the coarse grid's codes and settle stages

    def pattern(self) -> tuple:
        return (self.ae.passed, self.maximal.passed, self.stable.passed)


def stability_spec_variants(base: StreamSpec) -> list:
    return [
        base,
        StreamSpec(base.delta0, base.ratio, offset=1.0),
        StreamSpec(base.delta0, base.ratio, offset=-1.0),
    ]


def score_sheets(methods: Sequence[PerrinMethod], grid: GridSpec, spec: StreamSpec,
                 horizon: int) -> list:
    """The three criteria per method, from one sweep of the refined grid and
    one per stream variant; a sheet keeps the coarse() view of its refined
    grid.  The first error is that of one method at a time: the first
    method's oracle contradiction comes before the stability sweeps."""
    refined = domains_of_convergence(methods, grid.halved(), spec, horizon)
    first = next(refined)
    scans = stability_scans(methods, default_stability_worlds(grid), stability_spec_variants(spec),
                            horizon)
    sheets = []
    for m, g2, stable in zip(methods, itertools.chain([first], refined), scans):
        g = g2.coarse()
        sheets.append(ScoreSheet(
            method=m.label(), ae=ae_check(g2), maximal=maximality_check(g), stable=stable,
            fractions={"coarse": ae_fractions(g), "refined": ae_fractions(g2)}, domain=g,
        ))
    return sheets


def score_sheet(m: PerrinMethod, grid: GridSpec, spec: StreamSpec, horizon: int) -> ScoreSheet:
    return score_sheets([m], grid, spec, horizon)[0]


def underdetermination_ok(g: DomainGrid) -> bool:
    """No method converges at both members of an empirically equivalent
    pair: for no diagonal value of the grid do both the sheet world (a, a)
    and the strand world a read other than DIVERGES, which the oracle
    claims, horizon or not (the pairs maximality_check reads)."""
    n = len(g.axis)
    diverges = CODES[Status.DIVERGES]
    return not ((np.diagonal(g.plane.reshape(n, n)) != diverges) & (g.strand != diverges)).any()


# ---------------------------------------------------------------------------
# synthetic experiments and interval estimators


def _intervals(kind: str, na_true: float, const: float, size: int, rep_seeds,
               confidence: float, times: Sequence[float]):
    """Interval estimates of the granularity parameter, one per rep seed,
    as (lo, hi, point) arrays; the first rep whose interval reaches zero
    raises EstimationError.

    Each rep draws from substream_key(rep_seed, kind) and is reduced in the
    loop to its slope numerator t . msd (a stacked matrix product would sum
    in another order) or its mean height.  Brownian: size displacements
    Normal(0, (const / na) * t) per time; the least-squares slope of msd
    against time through the origin is inverted through na = const / slope,
    with the model-based variance of a chi-square mean,
    Var(msd_t) = 2 (slope * t)^2 / m, carried through the reciprocal by
    transforming the interval endpoints.  Sedimentation: size heights from
    the exponential density with rate const * na; the rate MLE
    1 / mean(height) with its asymptotic standard error rate / sqrt(n),
    scaled by 1 / const.
    """
    if kind not in ("brownian", "sediment"):
        raise ValueError(f"unknown sample kind {kind!r}")
    if na_true <= 0 or const <= 0:
        raise ValueError("na_true and const must be positive")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie in (0, 1)")
    reps = len(rep_seeds)
    if reps < 1 or size < 2:
        raise ValueError("coverage needs reps >= 1 and size >= 2")
    t = np.asarray(times, dtype=float)
    if kind == "brownian" and (not len(t) or (t <= 0).any()):
        raise ValueError("times must be positive")
    zq = normal_quantile(1.0 - (1.0 - confidence) / 2.0)
    rngs = substreams(substream_key(rep_seed, kind) for rep_seed in rep_seeds)
    stat = np.empty(reps)
    if kind == "brownian":
        sigmas = np.sqrt((const / na_true) * t)[:, None]
        for i, rng in enumerate(rngs):
            disp = rng.standard_normal((len(t), size)) * sigmas
            stat[i] = t @ np.mean(disp * disp, axis=1)
        tt = float(t @ t)
        point = stat / tt  # the msd slope
        # squared by Python's pow (libm's), which rounds unlike numpy's
        # square for about 1 value in 1,200; the reference squares this way
        square = np.fromiter((s**2 for s in point.tolist()), float, reps)
        se = np.sqrt((2.0 / size) * square * float(np.sum(t**4)) / tt**2)
    else:
        scale = 1.0 / (const * na_true)
        for i, rng in enumerate(rngs):
            heights = rng.exponential(scale=scale, size=size)
            if (heights <= 0).any():
                raise ValueError("heights must be positive")
            stat[i] = np.mean(heights)
        point = 1.0 / stat  # the rate; a mean of positive heights is positive
        se = point / math.sqrt(size)
    lo, hi = point - zq * se, point + zq * se
    bad = np.flatnonzero(lo <= 0)  # a non-positive slope has lo <= 0 too
    if bad.size:  # the first rejected rep, for its reason
        if kind == "brownian" and point[bad[0]] <= 0:
            raise EstimationError("non-positive displacement slope")
        what = "slope" if kind == "brownian" else "rate"
        raise EstimationError(f"{what} interval reaches zero; more particles needed")
    if kind == "brownian":
        return const / hi, const / lo, const / point
    return lo / const, hi / const, point / const


@dataclass(frozen=True)
class StreamResult:
    prisms: tuple
    flagged_stage: Optional[int]  # stage whose estimate broke nestedness, if any


def experimental_stream(na: float, naprime: float, schedule: Sequence[int],
                        confidence: float, seed: int) -> StreamResult:
    """Bridge the two estimators to prism evidence.

    Per stage, the product of the two interval estimates (_intervals on
    one rep per axis) is intersected with the previous prism to enforce
    nestedness.  A stage whose estimate fails, or whose intersection
    would be empty (a stochastic containment failure), is flagged and the
    stream truncated there; evidence is never fabricated.
    """
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("the sample-size schedule must be increasing")

    def interval(kind, truth, axis, i, size):
        rep_seed = substream(seed, axis, i).integers(2**63)
        lo, hi, _ = _intervals(kind, truth, 1.0, int(size), [rep_seed], confidence, DEFAULT_TIMES)
        return float(lo[0]), float(hi[0])

    prisms = []
    prev = None
    for i, size in enumerate(schedule):
        try:
            xlo, xhi = interval("brownian", na, "stage-x", i, size)
            ylo, yhi = interval("sediment", naprime, "stage-y", i, size)
        except EstimationError:
            return StreamResult(tuple(prisms), flagged_stage=i)
        if prev is not None:
            xlo, xhi = max(xlo, prev.xlo), min(xhi, prev.xhi)
            ylo, yhi = max(ylo, prev.ylo), min(yhi, prev.yhi)
        if not (xlo < xhi and ylo < yhi):
            return StreamResult(tuple(prisms), flagged_stage=i)
        prev = PrismEvidence(xlo, xhi, ylo, yhi)
        prisms.append(prev)
    return StreamResult(tuple(prisms), flagged_stage=None)


@dataclass(frozen=True)
class CoverageResult:
    reps: int
    coverage: float
    mean_width: float


def coverage_study(kind: str, na_true: float, const: float, size: int,
                   reps: int, confidence: float, seed: int) -> CoverageResult:
    """Fraction of seeded replications whose interval covers the truth,
    plus the mean interval width: _intervals at DEFAULT_TIMES over reps
    rep seeds, each drawn from its own substream of the seed."""
    keys = (substream_key(seed, "coverage", kind, size, rep) for rep in range(reps))
    rep_seeds = np.fromiter((rng.integers(2**63) for rng in substreams(keys)), np.int64)
    lo, hi, _ = _intervals(kind, na_true, const, size, rep_seeds, confidence, DEFAULT_TIMES)
    hits = int(np.count_nonzero((lo <= na_true) & (na_true <= hi)))
    widths = np.cumsum(hi - lo)  # summed in rep order
    return CoverageResult(reps=reps, coverage=hits / reps, mean_width=float(widths[-1]) / reps)
