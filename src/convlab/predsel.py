"""Predictive model selection over nested polynomial families.

Synthetic regression data y = f*(x) + noise feed least-squares fits of
polynomial candidates; penalized scores (fit plus 2 per parameter, or
ln n per parameter) pick a degree.  The candidates are nested, so one
thin QR of the Legendre design at the largest degree gives them all
(Golub & Van Loan, Matrix Computations, 5.3).  The known-variance
score forms make the risk estimate (rss + 2(k+1) sigma^2) / n exactly
unbiased for the in-sample prediction risk, which the probe below
verifies by Monte Carlo.

Expected prediction risk under the uniform design is computed two
independent ways: Gauss-Legendre quadrature split at the truth's kink
points (64 nodes per segment, exact for polynomial integrands up to
degree 127) and a fresh-sample Monte Carlo oracle.  The two regime
experiments reproduce, at desk scale, the opposite selector
recommendations for a truth inside the candidate set (pick the exact
degree: the heavier penalty wins) versus a truth outside it (track the
best-in-class risk: the lighter penalty wins).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .rand import substream, substream_key


class FitError(ValueError):
    """Rank-deficient design or otherwise unusable least-squares fit."""


@dataclass(frozen=True)
class TruthSpec:
    """Data-generating curve, noise level, and x-design on [-1, 1]."""

    kind: str  # "poly" | "abs"
    noise_sigma: float
    design: str = "uniform"  # "uniform" | "grid"
    coeffs: Optional[tuple] = None

    def __post_init__(self):
        if self.noise_sigma <= 0 or not math.isfinite(self.noise_sigma):
            raise ValueError("noise_sigma must be positive and finite")
        if self.design not in ("uniform", "grid"):
            raise ValueError(f"unknown design {self.design!r}")
        if self.kind == "poly":
            if not self.coeffs or any(not math.isfinite(c) for c in self.coeffs):
                raise ValueError("poly truth needs finite coefficients")
        elif self.kind != "abs":
            raise ValueError(f"unknown truth kind {self.kind!r}")

    def eval(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "poly":
            return np.polynomial.polynomial.polyval(x, np.asarray(self.coeffs))
        return np.abs(x)

    def breakpoints(self) -> tuple:
        """Interior non-smooth points; quadrature segments split here so
        each segment's integrand is polynomial."""
        return (0.0,) if self.kind == "abs" else ()

    @property
    def poly_degree(self) -> Optional[int]:
        if self.kind != "poly":
            return None
        deg = len(self.coeffs) - 1
        while deg > 0 and self.coeffs[deg] == 0.0:
            deg -= 1
        return deg


def poly_truth(coeffs, noise_sigma, design="uniform") -> TruthSpec:
    return TruthSpec(kind="poly", noise_sigma=noise_sigma, design=design, coeffs=tuple(coeffs))


def abs_truth(noise_sigma, design="uniform") -> TruthSpec:
    return TruthSpec(kind="abs", noise_sigma=noise_sigma, design=design)


@dataclass(frozen=True)
class PolyModel:
    degree: int
    coeffs: Optional[tuple] = None  # beta_0 .. beta_k once fitted

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be >= 0")
        if self.coeffs is not None and len(self.coeffs) != self.degree + 1:
            raise ValueError("coefficient count must equal degree + 1")

    def predict(self, x):
        if self.coeffs is None:
            raise ValueError("model not fitted")
        return np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), np.asarray(self.coeffs))


@dataclass(frozen=True)
class Dataset:
    xs: tuple
    ys: tuple

    def __post_init__(self):
        if len(self.xs) != len(self.ys):
            raise ValueError("xs and ys must have equal length")

    @property
    def n(self) -> int:
        return len(self.xs)


@dataclass(frozen=True)
class FitResult:
    model: PolyModel
    rss: float
    n: int


def generate(truth: TruthSpec, n: int, seed: int) -> Dataset:
    """Synthetic dataset: ys = f*(xs) + Normal(0, sigma^2) noise;
    deterministic given the seed."""
    if n < 2:
        raise ValueError("n must be >= 2")
    rng = substream(seed, "predsel-data")
    if truth.design == "uniform":
        xs = rng.uniform(-1.0, 1.0, size=n)
    else:
        xs = np.linspace(-1.0, 1.0, n)
    ys = truth.eval(xs) + truth.noise_sigma * rng.standard_normal(n)
    return Dataset(xs=tuple(xs.tolist()), ys=tuple(ys.tolist()))


def fit_ols(d: Dataset, degree: int) -> FitResult:
    """Least squares through an orthogonal (SVD) decomposition of the
    monomial design; the scalar reference for score_candidates."""
    if degree + 2 > d.n:
        raise ValueError(f"degree {degree} needs at least {degree + 2} points, got {d.n}")
    xs = np.asarray(d.xs)
    ys = np.asarray(d.ys)
    V = np.vander(xs, degree + 1, increasing=True)
    coef, _, rank, _ = np.linalg.lstsq(V, ys, rcond=None)
    if rank < degree + 1:
        raise FitError(f"rank-deficient design: rank {rank} < {degree + 1} columns")
    resid = ys - V @ coef
    rss = float(resid @ resid)
    return FitResult(model=PolyModel(degree, tuple(coef.tolist())), rss=rss, n=d.n)


def _legendre_qr(x: np.ndarray, degree: int):
    """Thin QR factors of the Legendre design legvander(x, degree); the
    leading k + 1 columns of Q span the degree-k fits.  Raises ValueError
    below degree + 2 points and FitError on a rank-deficient design."""
    if degree + 2 > len(x):
        raise ValueError(f"degree {degree} needs at least {degree + 2} points, got {len(x)}")
    V = np.polynomial.legendre.legvander(x, degree)
    Q, R = np.linalg.qr(V)
    diag = np.abs(np.diagonal(R))
    if diag.min() <= diag.max() * max(V.shape) * np.finfo(float).eps:
        raise FitError(f"rank-deficient design: {degree + 1} columns on {len(x)} points")
    return Q, R


def select(scores: Sequence[float]) -> int:
    """Index of the minimizing score; ties go to the smaller index."""
    if len(scores) == 0:
        raise ValueError("no scores to select from")
    return int(np.argmin(scores))


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def _quadrature(truth: TruthSpec):
    """Nodes and weights of the 64-node Gauss-Legendre rule on each
    kink-free segment of [-1, 1], weighted by the uniform density 1/2."""
    cuts = np.array((-1.0, *truth.breakpoints(), 1.0))
    mid = 0.5 * (cuts[1:] + cuts[:-1])[:, None]
    halfspan = 0.5 * (cuts[1:] - cuts[:-1])[:, None]
    return (mid + halfspan * _GL_NODES).ravel(), (0.5 * halfspan * _GL_WEIGHTS).ravel()


def true_risk(fit: FitResult, truth: TruthSpec) -> float:
    """Expected squared prediction error at a fresh uniform x:
    sigma^2 + integral of (f* - fhat)^2 dP."""
    x, w = _quadrature(truth)
    diff = truth.eval(x) - fit.model.predict(x)
    return truth.noise_sigma**2 + float(w @ (diff * diff))


def true_risk_mc(fit: FitResult, truth: TruthSpec, n_points: int = 10**6, seed: int = 0):
    """Independent Monte Carlo route to the same risk; returns
    (estimate, standard error of the integral part)."""
    rng = substream(seed, "predsel-risk-mc")
    x = rng.uniform(-1.0, 1.0, size=n_points)
    sq = (truth.eval(x) - fit.model.predict(x)) ** 2
    est = float(np.mean(sq))
    se = float(np.std(sq, ddof=1) / math.sqrt(n_points))
    return truth.noise_sigma**2 + est, se


@dataclass(frozen=True)
class SelectionReport:
    """Per-degree scores for one dataset plus the two selections."""

    per_degree: tuple  # (degree, rss, aic, bic, true_risk-or-None)
    selected_aic: int
    selected_bic: int


def score_candidates(d: Dataset, degrees: Sequence[int], sigma2: float,
                     truth: Optional[TruthSpec] = None) -> SelectionReport:
    """Every candidate degree from one QR of the design at the largest.
    With b = Q^T y the degree-k fit leaves rss_k = |y - Q b|^2 + the sum
    of b_j^2 over j > k, and its values at x are the cumulative sum over
    j <= k of (legvander(x) R^-1)_j b_j; AIC adds 2 (k+1) to rss/sigma^2
    and BIC (k+1) ln n."""
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    top = max(degrees)
    y = np.asarray(d.ys)
    Q, R = _legendre_qr(np.asarray(d.xs), top)
    b = Q.T @ y
    resid = y - Q @ b
    k = np.asarray(degrees)
    rss = (resid @ resid + np.append(np.cumsum(b[:0:-1] ** 2)[::-1], 0.0))[k]
    aics = rss / sigma2 + 2.0 * (k + 1)
    bics = rss / sigma2 + (k + 1) * math.log(d.n)
    risks = [None] * len(k)
    if truth is not None:
        x, w = _quadrature(truth)
        fitted = np.cumsum(np.polynomial.legendre.legvander(x, top) @ np.linalg.inv(R) * b, axis=1)
        diff = truth.eval(x)[:, None] - fitted[:, k]
        risks = (truth.noise_sigma**2 + w @ (diff * diff)).tolist()
    return SelectionReport(
        per_degree=tuple(zip(degrees, rss.tolist(), aics.tolist(), bics.tolist(), risks)),
        selected_aic=degrees[select(aics)],
        selected_bic=degrees[select(bics)],
    )


@dataclass(frozen=True)
class RegimeSummary:
    regime: str  # "true_model_in_set" | "misspecified"
    reps: int
    true_degree: Optional[int]
    correct_frequency_aic: Optional[float]
    correct_frequency_bic: Optional[float]
    mean_excess_risk_aic: float
    mean_excess_risk_bic: float
    rows: tuple  # (rep, degree, rss, aic, bic, true_risk, sel_aic, sel_bic)


def regime_experiment(truth: TruthSpec, candidates: Sequence[int], n: int,
                      reps: int, seed: int) -> RegimeSummary:
    """Repeated generate/fit/select over the candidate degrees.

    When the truth is a polynomial whose degree sits among the
    candidates, the headline statistic is each selector's exact-degree
    hit frequency; when it is not, the headline is the mean excess risk
    over the best fitted candidate.  Both are always computed.
    """
    if reps < 100:
        raise ValueError("reps must be >= 100")
    candidates = list(candidates)
    true_deg = truth.poly_degree
    in_set = true_deg is not None and true_deg in candidates
    sigma2 = truth.noise_sigma**2

    hits_aic = hits_bic = 0
    excess_aic = 0.0
    excess_bic = 0.0
    rows = []
    for rep in range(reps):
        d = generate(truth, n, substream_key(seed, "regime-rep", rep))
        report = score_candidates(d, candidates, sigma2, truth=truth)
        risks = {deg: r for deg, _, _, _, r in report.per_degree}
        best = min(risks.values())
        excess_aic += risks[report.selected_aic] - best
        excess_bic += risks[report.selected_bic] - best
        if in_set:
            hits_aic += report.selected_aic == true_deg
            hits_bic += report.selected_bic == true_deg
        for deg, rss, aic, bic, risk in report.per_degree:
            rows.append((rep, deg, rss, aic, bic, risk,
                         report.selected_aic, report.selected_bic))
    return RegimeSummary(
        regime="true_model_in_set" if in_set else "misspecified",
        reps=reps,
        true_degree=true_deg if in_set else None,
        correct_frequency_aic=hits_aic / reps if in_set else None,
        correct_frequency_bic=hits_bic / reps if in_set else None,
        mean_excess_risk_aic=excess_aic / reps,
        mean_excess_risk_bic=excess_bic / reps,
        rows=tuple(rows),
    )


@dataclass(frozen=True)
class ProbeReport:
    mean_estimate: float
    mean_true_insample_risk: float
    relative_bias: float


def unbiasedness_probe(truth: TruthSpec, degree: int, n: int, reps: int, seed: int) -> ProbeReport:
    """Monte Carlo check that the penalized risk estimate
    (rss + 2 (k+1) sigma^2) / n matches the true in-sample risk on a
    fixed equispaced design when the truth is representable at the
    probed degree (known variance makes it exactly unbiased)."""
    if truth.kind != "poly" or truth.poly_degree > degree:
        raise ValueError("the probe needs a polynomial truth representable at the probed degree")
    sigma = truth.noise_sigma
    xs = np.linspace(-1.0, 1.0, n)
    fstar = truth.eval(xs)
    Q, _ = _legendre_qr(xs, degree)
    rng = substream(seed, "predsel-probe", degree, n)
    noise = rng.standard_normal((n, reps))
    Y = fstar[:, None] + sigma * noise
    fitted = Q @ (Q.T @ Y)
    rss = np.sum((Y - fitted) ** 2, axis=0)
    estimates = (rss + 2.0 * (degree + 1) * sigma**2) / n
    insample = sigma**2 + np.mean((fitted - fstar[:, None]) ** 2, axis=0)
    mean_est = float(np.mean(estimates))
    mean_risk = float(np.mean(insample))
    return ProbeReport(
        mean_estimate=mean_est,
        mean_true_insample_risk=mean_risk,
        relative_bias=abs(mean_est - mean_risk) / mean_risk,
    )
