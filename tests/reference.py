"""Scalar references for the tests.

Each function here is the plain, one-case-at-a-time form of something
the package computes another way, or an executable form of a
derivation the package relies on.  The tests compare the two; nothing
under src/ calls this module.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from convlab import gaussian as g
from convlab import perrin as pr
from convlab import predsel as ps
from convlab.framework import MethodSpec, ModeReport, OracleContradiction, StreamError, Verdict
from convlab.gaussian import TestRule, normal_quantile
from convlab.lineworld import IntervalEvidence, StreamSpec
from convlab.predsel import FitResult, TruthSpec
from convlab.rand import substream, substream_key


# ---------------------------------------------------------------------------
# gaussian: the penalized-likelihood derivations of the two rules (k
# parameters cost 2k for the AIC-type score and k ln n for the BIC-type
# score; unit variance)


def information_scores(xs: Sequence[float], penalty_per_param: float):
    """(-2 log L + penalty) for the null model (mean pinned to 0, k = 0)
    and the free-mean model (k = 1), up to a shared additive constant."""
    arr = np.asarray(xs, dtype=float)
    if arr.size < 2:
        raise ValueError("need at least two observations")
    xbar = float(arr.mean())
    null_fit = float(np.sum(arr * arr))
    free_fit = float(np.sum((arr - xbar) ** 2))
    return null_fit, free_fit + penalty_per_param


def decide(rule: TestRule, n: int, xbar: float) -> Verdict:
    """COMPLEX iff |xbar| strictly exceeds the critical value (a tie
    goes to the simple hypothesis); never SUSPEND."""
    c = rule.critical_value(n)
    return Verdict.COMPLEX if abs(xbar) > c else Verdict.SIMPLE


def aic_prefers_complex(xs: Sequence[float]) -> bool:
    s0, s1 = information_scores(xs, 2.0)
    return s1 < s0


def bic_prefers_complex(xs: Sequence[float]) -> bool:
    s0, s1 = information_scores(xs, math.log(len(xs)))
    return s1 < s0


def truth_prob_mc(rule: TestRule, theta: float, n: int, trials: int, seed: int):
    """gaussian.truth_prob_mc as one whole draw, out of place: the same
    substream's draws, scaled, shifted and folded into new arrays."""
    z = substream(seed, "gaussian-mc", rule.label(), theta, n).standard_normal(trials)
    outside = np.count_nonzero(np.abs(z / math.sqrt(n) + theta) > rule.critical_value(n))
    p = (outside if theta != 0.0 else trials - outside) / trials
    return p, math.sqrt(p * (1.0 - p) / trials)


def classify_mode(rule: TestRule, theta_grid, n_grid, alpha_grid):
    """gaussian.classify_mode on declared grids, each analytic curve
    computed afresh for the certificate check."""
    if not theta_grid or not n_grid or not alpha_grid:
        raise ValueError("grids must be non-empty")
    settle = {(theta, alpha): g.certified_settle_n(rule, theta, alpha)
              for theta in theta_grid for alpha in alpha_grid}
    for (theta, alpha), n0 in settle.items():
        if n0 is None:
            continue
        for n in n_grid:
            if n >= n0 and g.truth_prob_analytic(rule, theta, n) < 1.0 - alpha - 1e-9:
                raise OracleContradiction(
                    f"{rule.label()} at theta={theta}: curve dips below "
                    f"{1 - alpha} at n={n} despite certificate {n0}"
                )
    g.check_witness_grids([rule], theta_grid, alpha_grid)
    cap = g.level_cap(rule)

    def failures(alpha):
        return [{"theta": theta, "alpha": alpha, "cap": cap, "rule": rule.label()}
                for theta in theta_grid if settle[theta, alpha] is None]

    hp_failures = failures(alpha_grid[0])
    po_failures = [f for alpha in alpha_grid for f in failures(alpha)]
    return {"HIGH_PROB": ModeReport("HIGH_PROB", not hp_failures, tuple(hp_failures)),
            "PROB_ONE": ModeReport("PROB_ONE", not po_failures, tuple(po_failures))}


# ---------------------------------------------------------------------------
# perrin: the five rules one prism at a time (the scalar form of the
# rule table perrin._RULES and its kernel perrin._verdicts)


def width(e: pr.PrismEvidence) -> float:
    """Maximum side length."""
    return max(e.xhi - e.xlo, e.yhi - e.ylo)


def overlap(e: pr.PrismEvidence) -> bool:
    """Does the prism meet the diagonal (both hypotheses live)?"""
    return max(e.xlo, e.ylo) <= min(e.xhi, e.yhi)


def contains_point(e: pr.PrismEvidence, x: float, y: float) -> bool:
    return e.xlo <= x <= e.xhi and e.ylo <= y <= e.yhi


def decide_latest(m: pr.PerrinMethod, e: pr.PrismEvidence) -> Verdict:
    ok = Verdict.SIMPLE if overlap(e) else Verdict.COMPLEX
    if m.kind == "OCKHAM_REALIST":
        return ok
    if m.kind == "ANTI_REALIST":
        return Verdict.SUSPEND if overlap(e) else Verdict.COMPLEX
    if m.kind == "WAY1":
        if contains_point(e, m.p, m.p) and width(e) < m.gate:
            return Verdict.SUSPEND
        return ok
    if m.kind == "WAY2":
        if contains_point(e, m.p, m.p) and width(e) < m.gate:
            return Verdict.COMPLEX
        return ok
    # WAY3: complex once the prism is narrow, even while it meets the diagonal
    if width(e) < m.gate:
        return Verdict.COMPLEX
    return ok


def cells(g: pr.DomainGrid) -> list:
    """(component, a, b, status, settle stage or None) per world of a domain
    grid, with float coordinates: the rows of domain_<method>.csv."""
    worlds = [("plane", a, b) for a in g.axis for b in g.axis]
    worlds += [("strand", a, a) for a in g.axis]
    return [(*w, pr.STATUSES[c], s if s >= 0 else None)
            for w, c, s in zip(worlds, g.codes.tolist(), g.settle.tolist())]


def underdetermination_ok(m: pr.PerrinMethod, grid: pr.GridSpec, spec: StreamSpec) -> bool:
    """No method converges at both members of an empirically equivalent
    pair, from a second oracle pass over the grid's diagonal pairs (the
    form perrin.underdetermination_ok replaced by a read of the sweep)."""
    values = np.array(grid.axis(), dtype=float)
    n = len(values)
    pairs = np.concatenate([values, values])
    settle_by = pr.asymptotic_oracle(m, pairs, pairs, np.arange(2 * n) >= n, spec)
    return not ((settle_by[:n] >= 0) & (settle_by[n:] >= 0)).any()


# ---------------------------------------------------------------------------
# streams one stage at a time: the closed form that StreamSpec's stage table
# (stages, half_widths) holds, computed afresh per stage without reading it


def offset_at(spec: StreamSpec, t: int) -> float:
    """The stage-t offset the spec's own `offset` names: a scalar at every
    stage, a sequence's last entry past its end."""
    offs = (spec.offset,) if isinstance(spec.offset, (int, float)) else tuple(spec.offset)
    return float(offs[min(t, len(offs) - 1)])


def bounds(spec: StreamSpec, t: int) -> tuple:
    """Stage t's endpoints less the world's value, (lam -+ 1) * d."""
    lam, d = offset_at(spec, t), spec.half_width(t)
    return (lam - 1.0) * d, (lam + 1.0) * d


def interval_at(theta: float, spec: StreamSpec, t: int) -> IntervalEvidence:
    """Stage t's interval about theta, built (and checked) by its constructor."""
    below, above = bounds(spec, t)
    return IntervalEvidence(theta + below, theta + above)


def canonical_prism_stream(w: pr.PastaWorld, spec: StreamSpec, t: int) -> pr.PrismEvidence:
    """Stage t's prism about w: the product of its x and y intervals, one
    spec for both axes."""
    x = interval_at(w.na, spec, t)
    y = interval_at(w.na_prime, spec, t)
    return pr.PrismEvidence(x.lo, x.hi, y.lo, y.hi)


def stage_by_stage(build, horizon: int):
    """[build(t) for t < horizon], or the message of the StreamError build
    raises at the first stage it refuses."""
    evidence = []
    for t in range(horizon):
        try:
            evidence.append(build(t))
        except StreamError as exc:
            return str(exc)
    return evidence


# ---------------------------------------------------------------------------
# lineworld: the threshold rule on one interval, the razor adversaries'
# triggers, and a method that is right everywhere except at the origin


def mstar_decide(e) -> Verdict:
    """SIMPLE iff the interval still includes 0 (closed boundaries count
    as inclusion), COMPLEX otherwise; never SUSPEND (the one-interval form
    of the rule mstar reads off a history's last interval)."""
    return Verdict.SIMPLE if e.lo <= 0.0 <= e.hi else Verdict.COMPLEX


def width_trigger(hist, width0: float) -> bool:
    """The width violator's trigger: the last interval is narrower than width0."""
    return hist[-1].hi - hist[-1].lo < width0


def stage_trigger(hist, stage: int) -> bool:
    """The stage violator's trigger: the history ends at the given stage (its first
    interval is stage 0)."""
    return len(hist) == stage + 1


def parity_trigger(hist) -> bool:
    """The parity violator's trigger: the history ends at an odd stage."""
    return len(hist) % 2 == 0


def razor_violator_decide(trigger, hist) -> Verdict:
    """A razor adversary's verdict: COMPLEX where its trigger fires, else the
    threshold rule on the last interval."""
    return Verdict.COMPLEX if trigger(hist) else mstar_decide(hist[-1])


def always_complex_method() -> MethodSpec:
    return MethodSpec(
        name="always_complex",
        decide=lambda hist: Verdict.COMPLEX,
        oracle=lambda theta, spec: -1 if theta == 0.0 else 0,
    )


# ---------------------------------------------------------------------------
# predsel: selection by one score list, and a Monte Carlo route to the risk


def select(scores: Sequence[float]) -> int:
    """Index of the minimizing score; ties go to the smaller index."""
    if len(scores) == 0:
        raise ValueError("no scores to select from")
    return int(np.argmin(scores))


def true_risk_mc(fit: FitResult, truth: TruthSpec, n_points: int = 10**6, seed: int = 0):
    """Independent Monte Carlo route to predsel.true_risk; returns
    (estimate, standard error of the integral part)."""
    rng = substream(seed, "predsel-risk-mc")
    x = rng.uniform(-1.0, 1.0, size=n_points)
    sq = (truth.eval(x) - fit.model.predict(x)) ** 2
    est = float(np.mean(sq))
    se = float(np.std(sq, ddof=1) / math.sqrt(n_points))
    return truth.noise_sigma**2 + est, se


def generate(truth: TruthSpec, n: int, seeds) -> tuple:
    """predsel.generate a seed at a time, its earlier form: a fresh substream
    per seed draws uniform(-1, 1) xs, then the noise, each as a new array."""
    xs, ys = [], []
    for seed in seeds:
        rng = substream(seed, "predsel-data")
        x = rng.uniform(-1.0, 1.0, size=n)
        xs.append(x)
        ys.append(truth.eval(x) + truth.noise_sigma * rng.standard_normal(n))
    return np.array(xs), np.array(ys)


def nested_scores_explicit_q(x, y, k, sigma2, at_nodes=None) -> tuple:
    """predsel._nested_scores through the explicit Q of a reduced QR of
    legvander(x, max k), the kernel's earlier form: with b = Q^T y, degree k
    leaves rss_k = |y - Q b|^2 + sum_{j>k} b_j^2.  Same outputs; no rank check."""
    Q, R = np.linalg.qr(np.polynomial.legendre.legvander(x, k.max()))
    b = (y[:, None, :] @ Q)[:, 0]
    resid = y - (Q @ b[:, :, None])[:, :, 0]
    tail = np.cumsum(np.pad(b[:, :0:-1] ** 2, ((0, 0), (1, 0))), axis=1)[:, ::-1]
    rss = ((resid[:, None, :] @ resid[:, :, None])[:, 0] + tail)[:, k]
    aic = rss / sigma2 + 2.0 * (k + 1)
    bic = rss / sigma2 + (k + 1) * math.log(x.shape[1])
    risk = None
    if at_nodes is not None:
        noise2, w, vander, f = at_nodes
        diff = f[:, None] - np.cumsum(vander @ np.linalg.inv(R) * b[:, None, :], axis=2)[:, :, k]
        risk = noise2 + w @ (diff * diff)
    return rss, aic, bic, risk, np.stack([np.argmin(aic, axis=1), np.argmin(bic, axis=1)])


def regime_rows(truth: TruthSpec, candidates: Sequence[int], n: int, reps: int,
                seed: int) -> list:
    """predsel.regime_experiment's selection rows as it built them before it
    kept its scores as arrays: one Python tuple per (rep, degree), extended
    chunk by chunk into one list."""
    k, at_nodes = ps._prepare(candidates, truth)
    rows = []
    buf = np.empty((k.max() + 2, min(ps.CHUNK, reps), n))
    for start in range(0, reps, ps.CHUNK):
        chunk = range(start, min(start + ps.CHUNK, reps))
        x, y = ps.generate(truth, n, [substream_key(seed, "regime-rep", rep) for rep in chunk])
        rss, aic, bic, risk, sel = ps._nested_scores(x, y, k, truth.noise_sigma**2, at_nodes, buf, start)
        rep, sel_aic, sel_bic = np.repeat([chunk, *k[sel]], len(k), axis=1).tolist()
        scores = (a.ravel().tolist() for a in (rss, aic, bic, risk))
        rows.extend(zip(rep, np.tile(k, len(chunk)).tolist(), *scores, sel_aic, sel_bic))
    return rows


def unbiasedness_probe_whole(truth: TruthSpec, degree: int, n: int, reps: int,
                             seed: int) -> ps.ProbeReport:
    """predsel.unbiasedness_probe on the whole (n, reps) draw at once, its
    earlier form: the fitted values Q (Q^T noise) and the residuals, each
    squared and summed per rep."""
    if truth.kind != "poly" or truth.poly_degree > degree:
        raise ValueError("the probe needs a polynomial truth representable at the probed degree")
    Q, _ = ps._legendre_qr(np.linspace(-1.0, 1.0, n), degree)
    noise = substream(seed, "predsel-probe", degree, n).standard_normal((n, reps))
    fitted = Q @ (Q.T @ noise)
    noise -= fitted
    rss = np.sum(np.square(noise, out=noise), axis=0)
    mean_est = float(np.mean((rss + 2.0 * (degree + 1)) / n))
    mean_risk = float(np.mean(1.0 + np.mean(np.square(fitted, out=fitted), axis=0)))
    s2 = truth.noise_sigma**2
    return ps.ProbeReport(s2 * mean_est, s2 * mean_risk, abs(mean_est - mean_risk) / mean_risk,
                          (mean_est - mean_risk) / math.sqrt(2.0 / (n * reps)))


# ---------------------------------------------------------------------------
# perrin: one sample, one interval, one stage at a time (the scalar form
# of perrin._intervals and of the streams built on it)


@dataclass(frozen=True)
class ExperimentSample:
    kind: str  # "brownian" | "sediment"
    times: Optional[tuple] = None
    msd: Optional[tuple] = None
    m_particles: Optional[int] = None
    c: Optional[float] = None
    heights: Optional[tuple] = None
    cprime: Optional[float] = None

    def __post_init__(self):
        if self.kind == "brownian":
            if not self.times or not self.msd or len(self.times) != len(self.msd):
                raise ValueError("brownian samples need matching times and msd")
            if any(t <= 0 for t in self.times) or self.m_particles is None or self.m_particles < 2:
                raise ValueError("times must be positive and m >= 2")
        elif self.kind == "sediment":
            if not self.heights or len(self.heights) < 2:
                raise ValueError("sediment samples need n >= 2 heights")
            if any(h <= 0 for h in self.heights):
                raise ValueError("heights must be positive")
        else:
            raise ValueError(f"unknown sample kind {self.kind!r}")


def simulate_brownian(na_true: float, c: float, times: Sequence[float],
                      m_particles: int, seed: int) -> ExperimentSample:
    """Mean squared displacement at each time over m particles, with
    per-particle displacement drawn Normal(0, (c / na) * t)."""
    if na_true <= 0 or c <= 0:
        raise ValueError("na_true and c must be positive")
    rng = substream(seed, "brownian")
    times = tuple(float(t) for t in times)
    sigmas = np.sqrt((c / na_true) * np.asarray(times))
    disp = rng.standard_normal((len(times), m_particles)) * sigmas[:, None]
    msd = np.mean(disp * disp, axis=1)
    return ExperimentSample(kind="brownian", times=times, msd=tuple(msd.tolist()),
                            m_particles=m_particles, c=c)


def simulate_sedimentation(na_true: float, cprime: float, n: int, seed: int) -> ExperimentSample:
    """Particle heights drawn from the exponential density with rate
    cprime * na."""
    if na_true <= 0 or cprime <= 0:
        raise ValueError("na_true and cprime must be positive")
    rng = substream(seed, "sediment")
    heights = rng.exponential(scale=1.0 / (cprime * na_true), size=n)
    return ExperimentSample(kind="sediment", heights=tuple(heights.tolist()), cprime=cprime)


@dataclass(frozen=True)
class EstimateInterval:
    parameter: str  # "na" | "na_prime"
    lo: float
    hi: float
    point: float


def estimate_interval(sample: ExperimentSample, confidence: float) -> EstimateInterval:
    """Interval estimate of the relevant granularity parameter from one
    sample, by the formulas perrin._intervals documents."""
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie in (0, 1)")
    zq = normal_quantile(1.0 - (1.0 - confidence) / 2.0)
    if sample.kind == "brownian":
        t = np.asarray(sample.times)
        y = np.asarray(sample.msd)
        slope = float((t @ y) / (t @ t))
        if slope <= 0:
            raise pr.EstimationError("non-positive displacement slope")
        var_slope = (2.0 / sample.m_particles) * slope**2 * float(np.sum(t**4)) / float(t @ t) ** 2
        se = math.sqrt(var_slope)
        s_lo, s_hi = slope - zq * se, slope + zq * se
        if s_lo <= 0:
            raise pr.EstimationError("slope interval reaches zero; more particles needed")
        return EstimateInterval("na", lo=sample.c / s_hi, hi=sample.c / s_lo,
                                point=sample.c / slope)
    mean_h = float(np.mean(sample.heights))
    if mean_h <= 0:
        raise pr.EstimationError("non-positive mean height")
    n = len(sample.heights)
    rate = 1.0 / mean_h
    se = rate / math.sqrt(n)
    r_lo, r_hi = rate - zq * se, rate + zq * se
    if r_lo <= 0:
        raise pr.EstimationError("rate interval reaches zero; more particles needed")
    return EstimateInterval("na_prime", lo=r_lo / sample.cprime,
                            hi=r_hi / sample.cprime, point=rate / sample.cprime)


def experimental_stream(na: float, naprime: float, schedule: Sequence[int],
                        confidence: float, seed: int) -> pr.StreamResult:
    """perrin.experimental_stream one sample and one estimate_interval
    per stage and axis."""
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("the sample-size schedule must be increasing")
    prisms = []
    prev = None
    for i, size in enumerate(schedule):
        try:
            bx = simulate_brownian(na, 1.0, pr.DEFAULT_TIMES, int(size),
                                   substream(seed, "stage-x", i).integers(2**63))
            by = simulate_sedimentation(naprime, 1.0, int(size), substream(seed, "stage-y", i).integers(2**63))
            ix = estimate_interval(bx, confidence)
            iy = estimate_interval(by, confidence)
        except pr.EstimationError:
            return pr.StreamResult(tuple(prisms), flagged_stage=i)
        xlo, xhi, ylo, yhi = ix.lo, ix.hi, iy.lo, iy.hi
        if prev is not None:
            xlo, xhi = max(xlo, prev.xlo), min(xhi, prev.xhi)
            ylo, yhi = max(ylo, prev.ylo), min(yhi, prev.yhi)
        if not (xlo < xhi and ylo < yhi):
            return pr.StreamResult(tuple(prisms), flagged_stage=i)
        prev = pr.PrismEvidence(xlo, xhi, ylo, yhi)
        prisms.append(prev)
    return pr.StreamResult(tuple(prisms), flagged_stage=None)


# ---------------------------------------------------------------------------
# the adversary: admissible streams steered against an oracle's claims.  The
# oracles (perrin.asymptotic_oracle, lineworld.guaranteed_settle_stage) argue
# over every nested stream StreamSpec admits, a prism's two axes each with its
# own offsets; the run's streams share one spec for both axes.


def rule_decision(entry):
    """The scalar decision of any _RULES entry (on, reads, fired), for a
    kind decide_latest does not know: the fired verdict on a prism
    narrower than the gate (holding (p, p) when the entry reads p), else
    `on` where the prism meets the diagonal and COMPLEX where it does not."""
    on, reads, fired = entry

    def decide(m: pr.PerrinMethod, e: pr.PrismEvidence) -> Verdict:
        if reads and width(e) < m.gate and ("p" not in reads or contains_point(e, m.p, m.p)):
            return fired
        return on if overlap(e) else Verdict.COMPLEX

    return decide


def stages_above(delta0: float, ratio: float, floor: float) -> int:
    """The number of stages whose half-width delta0 * ratio**t is above floor."""
    t = 0
    while delta0 * ratio**t > floor:
        t += 1
    return t


def steered(theta: float, target: float, delta0: float, ratio: float, n: int,
            rng: Optional[np.random.Generator] = None) -> StreamSpec:
    """A spec of n per-stage offsets for intervals about theta.  Each
    offset is, of those StreamSpec's nesting rule admits after the one
    before it, the one whose interval is centered nearest target (which
    may be infinite), or with rng a uniform draw.  Building the spec checks
    the nesting rule."""
    offsets, lam, d = [], None, delta0
    for _ in range(n):
        lo, hi = -1.0, 1.0
        if lam is not None:
            lo, hi = max(lo, 1.0 + (lam - 1.0) / ratio), min(hi, (lam + 1.0) / ratio - 1.0)
        lam = min(hi, max(lo, (target - theta) / d)) if rng is None else float(rng.uniform(lo, hi))
        offsets.append(lam)
        d *= ratio
    return StreamSpec(delta0, ratio, offset=offsets)


def prism_streams(m: pr.PerrinMethod, w: pr.PastaWorld, delta0: float, ratio: float,
                  n: int, rng: np.random.Generator) -> list:
    """The adversary's n-stage streams about w, as (shared, x spec, y spec);
    shared marks the run's own family, one spec for both axes.  Besides
    the centered stream, greedy streams keep the two intervals overlapping
    and, for a method with p, keep (p, p) inside the prism or push it out,
    each both with offsets per axis and shared (the x axis's); two random
    streams, one of each sort, end the list."""
    a, b = w.na, w.na_prime
    centered = StreamSpec(delta0, ratio)
    streams = [(True, centered, centered),
               (False, steered(a, b, delta0, ratio, n), steered(b, a, delta0, ratio, n))]
    if m.p is not None:
        away = math.copysign(math.inf, (a + b) / 2.0 - m.p)
        for target in (m.p, away):
            shared = steered(a, target, delta0, ratio, n)
            streams += [(False, shared, steered(b, target, delta0, ratio, n)),
                        (True, shared, shared)]
    x, y, shared = (steered(v, 0.0, delta0, ratio, n, rng) for v in (a, b, a))
    return streams + [(False, x, y), (True, shared, shared)]


def prism_verdicts(m: pr.PerrinMethod, w: pr.PastaWorld, xspec: StreamSpec,
                   yspec: StreamSpec, n: int, decide=decide_latest) -> list:
    """decide's verdict at each of the n stages of one stream about w."""
    a, b = w.na, w.na_prime
    return [decide(m, pr.PrismEvidence(a + xlo, a + xhi, b + ylo, b + yhi))
            for (xlo, xhi), (ylo, yhi) in zip(xspec.stages(n), yspec.stages(n))]


def settle_stage(verdicts: Sequence[Verdict], truth: Verdict) -> int:
    """The stage after a stream's last wrong verdict (0 when none is)."""
    return max((t + 1 for t, v in enumerate(verdicts) if v is not truth), default=0)


# ---------------------------------------------------------------------------
# cli: the whole-file writer


def write_csv_whole(path: Path, header, rows) -> str:
    """cli.write_csv as it was before it streamed its rows: the whole file
    built in a StringIO, encoded, written at once; returns the sha256 of
    its bytes."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    data = buf.getvalue().encode("utf-8")
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()
