"""Predictive model selection over nested polynomial families.

Synthetic regression data y = f*(x) + noise at x uniform on [-1, 1],
drawn by generate as stacked xs and ys arrays, one row per seed, feed
least-squares fits of polynomial candidates; penalized scores (fit plus
2 per parameter, or ln n per parameter) pick a degree.  A dataset is
its xs and ys arrays, and fit_ols and score_candidates take one.  The
candidates are nested, so the triangle R of one QR of the augmented
design [Legendre design at the largest degree | y] gives them all, and
no Q is formed (Golub & Van Loan, Matrix Computations, 5.3).  The
known-variance score forms make the risk estimate (rss + 2(k+1)
sigma^2) / n exactly unbiased for the in-sample prediction risk, which
the probe below verifies by Monte Carlo on its own fixed equispaced
design.

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

from .framework import FitError, poly_degree
from .rand import substream, substream_key, substreams


@dataclass(frozen=True)
class TruthSpec:
    """Data-generating curve on [-1, 1] and noise level."""

    kind: str  # "poly" | "abs"
    noise_sigma: float
    coeffs: Optional[tuple] = None

    def __post_init__(self):
        if self.noise_sigma <= 0 or not math.isfinite(self.noise_sigma):
            raise ValueError("noise_sigma must be positive and finite")
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
        return poly_degree(self.coeffs) if self.kind == "poly" else None


def poly_truth(coeffs, noise_sigma) -> TruthSpec:
    return TruthSpec(kind="poly", noise_sigma=noise_sigma, coeffs=tuple(coeffs))


def abs_truth(noise_sigma) -> TruthSpec:
    return TruthSpec(kind="abs", noise_sigma=noise_sigma)


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
class FitResult:
    model: PolyModel
    rss: float
    n: int


def generate(truth: TruthSpec, n: int, seeds, out=None) -> tuple:
    """Synthetic data, stacked (len(seeds), n) xs and ys, one dataset per
    seed and deterministic given it: each seed's substream draws the xs
    uniform on [-1, 1] (2u - 1, as uniform(-1, 1) computes them), then the
    noise, and ys = f*(xs) + sigma * noise.  The two are views of out, a
    (2, len(seeds) or more, n) array filled in place, when one is given:
    one out passed for every chunk is memory reused."""
    if n < 2:
        raise ValueError("n must be >= 2")
    x, y = np.empty((2, len(seeds), n)) if out is None else out[:, :len(seeds)]
    for i, rng in enumerate(substreams(substream_key(seed, "predsel-data") for seed in seeds)):
        rng.random(out=x[i])
        rng.standard_normal(out=y[i])
    x *= 2.0
    x -= 1.0
    y *= truth.noise_sigma
    y += truth.eval(x)
    return x, y


def _dataset(xs, ys) -> tuple:
    """One dataset's xs and ys as float arrays of equal length."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("xs and ys must be one sequence each, of equal length")
    return xs, ys


def fit_ols(xs, ys, degree: int) -> FitResult:
    """Least squares of one dataset through an orthogonal (SVD)
    decomposition of the monomial design; the scalar reference for
    score_candidates."""
    xs, ys = _dataset(xs, ys)
    if degree + 2 > len(xs):
        raise ValueError(f"degree {degree} needs at least {degree + 2} points, got {len(xs)}")
    V = np.vander(xs, degree + 1, increasing=True)
    coef, _, rank, _ = np.linalg.lstsq(V, ys, rcond=None)
    if rank < degree + 1:
        raise FitError(f"rank-deficient design: rank {rank} < {degree + 1} columns")
    resid = ys - V @ coef
    rss = float(resid @ resid)
    return FitResult(model=PolyModel(degree, tuple(coef.tolist())), rss=rss, n=len(xs))


def _check_rank(R: np.ndarray, n: int, first: int = 0) -> None:
    """Raise FitError when a triangle R of a design on n points, or any of
    a stack of them (reps first, first + 1, ...), is numerically singular."""
    diag = np.abs(np.diagonal(R, axis1=-2, axis2=-1))
    bad = np.flatnonzero(diag.min(-1) <= diag.max(-1) * n * np.finfo(float).eps)
    if bad.size:
        raise FitError(f"rank-deficient design at rep {first + bad[0]}: {R.shape[-1]} columns on {n} points")


def _legendre_qr(x: np.ndarray, degree: int):
    """Thin QR factors of the Legendre design legvander(x, degree) of one
    design; the leading k + 1 columns of Q span the degree-k fit.  Raises
    ValueError below degree + 2 points and FitError on a rank-deficient design."""
    if degree + 2 > len(x):
        raise ValueError(f"degree {degree} needs at least {degree + 2} points, got {len(x)}")
    Q, R = np.linalg.qr(np.polynomial.legendre.legvander(x, degree))
    _check_rank(R, len(x))
    return Q, R


def _augmented_r(x: np.ndarray, y: np.ndarray, degree: int, buf=None, first: int = 0):
    """R alone of the QR of each [legvander(x, degree) | y] in the (c, n) stacks
    x, y (reps first, first + 1, ...), each a column-major view of buf, a
    (degree + 2, c or more, n) array filled in place: one buf passed for every
    chunk is memory reused.  The Legendre columns follow legvander's own
    recurrence, v_i = (v_{i-1} x (2i - 1) - v_{i-2} (i - 1)) / i, in its
    operation order, so they are its bits; each column is a block of its own,
    so numpy copies no operand, and y's block is a spare until y goes in.
    Checks as _legendre_qr, on R's leading block."""
    c, n = x.shape
    if degree + 2 > n:
        raise ValueError(f"degree {degree} needs at least {degree + 2} points, got {n}")
    v = np.empty((degree + 2, c, n)) if buf is None else buf[:, :c]
    np.multiply(x, 0, out=v[0])  # x * 0 + 1
    v[0] += 1
    if degree:
        np.add(x, 0.0, out=v[1])  # legvander's x + 0.0, which makes -0.0 +0.0
    for i in range(2, degree + 1):
        np.multiply(v[i - 1], v[1], out=v[i])
        v[i] *= 2 * i - 1
        v[i] -= np.multiply(v[i - 2], i - 1, out=v[-1])
        v[i] /= i
    v[-1] = y
    R = np.linalg.qr(v.transpose(1, 2, 0), mode="r")
    _check_rank(R[:, :-1, :-1], n, first)
    return R


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


@dataclass(frozen=True)
class SelectionReport:
    """Per-degree scores for one dataset plus the two selections."""

    per_degree: tuple  # (degree, rss, aic, bic, true_risk-or-None)
    selected_aic: int
    selected_bic: int


def _prepare(degrees, truth: Optional[TruthSpec] = None) -> tuple:
    """Candidate degrees as an array, and the truth at the risk nodes (see _nested_scores)."""
    k = np.asarray(list(degrees))
    if k.size == 0 or k.min() < 0:
        raise ValueError(f"candidate degrees must be non-empty and >= 0, got {k.tolist()}")
    if truth is None:
        return k, None
    x, w = _quadrature(truth)
    return k, (truth.noise_sigma**2, w, np.polynomial.legendre.legvander(x, k.max()), truth.eval(x))


def _nested_scores(x, y, k, sigma2, at_nodes=None, buf=None, first=0) -> tuple:
    """(c, len(k)) rss, aic, bic and true risks (None without at_nodes) of each degree k
    fitted to each row of the (c, n) stacks x, y, and the (2, c) AIC and BIC argmin columns.
    One R-only QR of [legvander(x, max k) | y] fits all (Golub & Van Loan 5.3): its
    leading block is R of the design, its last column holds b = Q^T y above the diagonal
    and the residual norm rho on it, so degree k leaves rss_k = rho^2 + sum_{j>k} b_j^2
    and has values sum_{j<=k} (legvander(nodes) R^-1)_j b_j at the nodes.  No Q is formed;
    buf is _augmented_r's."""
    Rb = _augmented_r(x, y, k.max(), buf, first)
    R, b = Rb[:, :-1, :-1], Rb[:, :-1, -1]
    rss = np.cumsum(Rb[:, :0:-1, -1] ** 2, axis=1)[:, ::-1][:, k]  # rho^2 first, then b_top^2, ...
    aic = rss / sigma2 + 2.0 * (k + 1)
    bic = rss / sigma2 + (k + 1) * math.log(x.shape[1])
    risk = None
    if at_nodes is not None:
        noise2, w, vander, f = at_nodes
        diff = f[:, None] - np.cumsum(vander @ np.linalg.inv(R) * b[:, None, :], axis=2)[:, :, k]
        risk = noise2 + w @ (diff * diff)
    return rss, aic, bic, risk, np.stack([np.argmin(aic, axis=1), np.argmin(bic, axis=1)])


def score_candidates(xs, ys, degrees: Sequence[int], sigma2: float,
                     truth: Optional[TruthSpec] = None) -> SelectionReport:
    """Every candidate degree of one dataset: _nested_scores on a stack of one."""
    xs, ys = _dataset(xs, ys)
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    k, at_nodes = _prepare(degrees, truth)
    rss, aic, bic, risk, sel = _nested_scores(xs[None], ys[None], k, sigma2, at_nodes)
    risks = [None] * len(k) if risk is None else risk[0].tolist()
    per_degree = tuple(zip(k.tolist(), rss[0].tolist(), aic[0].tolist(), bic[0].tolist(), risks))
    return SelectionReport(per_degree, *k[sel[:, 0]].tolist())


@dataclass(frozen=True, eq=False)
class RegimeSummary:
    """A regime's statistics and score arrays; rows() builds its rows, CHUNK reps at a time."""

    regime: str  # "true_model_in_set" | "misspecified"
    reps: int
    true_degree: Optional[int]
    correct_frequency_aic: Optional[float]
    correct_frequency_bic: Optional[float]
    mean_excess_risk_aic: float
    mean_excess_risk_bic: float
    degrees: np.ndarray  # the candidate degrees, in the order given
    scores: np.ndarray  # (4, reps, len(degrees)): rss, aic, bic, true risk
    picks: np.ndarray  # (2, reps): the AIC and BIC degree per rep
    excess: np.ndarray  # (2, reps): their risk over the rep's best candidate

    def rows(self):
        """(rep, degree, rss, aic, bic, true_risk, sel_aic, sel_bic) by rep, then degree."""
        k = self.degrees
        for start in range(0, self.reps, CHUNK):
            chunk = range(start, min(start + CHUNK, self.reps))
            part = np.s_[:, start:chunk.stop]
            rep, sel_aic, sel_bic = np.repeat([chunk, *self.picks[part]], len(k), axis=1).tolist()
            scores = (a.ravel().tolist() for a in self.scores[part])
            yield from zip(rep, np.tile(k, len(chunk)).tolist(), *scores, sel_aic, sel_bic)


# Reps per stacked fit.  With the designs built in place and the draws in reused
# buffers, 16 fits the default regimes in less time than 32 did before (README), and
# it halves a regime's traced peak (regime B: 2.35 MiB against 4.63), which sets a
# run's peak when the run's own process is the worker that fits it.
CHUNK = 16
# Floats per block of the probe's draws (3.2 MB), under numpy's 4 MiB hugepage
# threshold at any reps: the default probes timed the same from 16,000 to 400,000,
# and at degree 48 and 10**5 reps, where each block adds into a 39 MB sum, the
# largest block was the fastest (README).
PROBE_BLOCK = 400_000


def regime_experiment(truth: TruthSpec, candidates: Sequence[int], n: int,
                      reps: int, seed: int) -> RegimeSummary:
    """Repeated generate/fit/select over the candidate degrees, CHUNK reps at a time.

    When the truth is a polynomial whose degree sits among the
    candidates, the headline statistic is each selector's exact-degree
    hit frequency; when it is not, the headline is the mean excess risk
    over the best fitted candidate.  Both are always computed.
    """
    if reps < 100:
        raise ValueError("reps must be >= 100")
    k, at_nodes = _prepare(candidates, truth)
    true_deg = truth.poly_degree
    in_set = true_deg is not None and true_deg in k.tolist()
    picks = np.empty((2, reps), dtype=int)  # AIC and BIC degree per rep
    excess = np.empty((2, reps))  # their risk over the rep's best candidate
    scores = np.empty((4, reps, len(k)))
    draws = np.empty((2, min(CHUNK, reps), n))  # every chunk's xs and ys, reused
    buf = np.empty((k.max() + 2, min(CHUNK, reps), n))  # every chunk's designs, reused
    for start in range(0, reps, CHUNK):
        chunk = range(start, min(start + CHUNK, reps))
        x, y = generate(truth, n, [substream_key(seed, "regime-rep", rep) for rep in chunk], draws)
        rss, aic, bic, risk, sel = _nested_scores(x, y, k, truth.noise_sigma**2, at_nodes, buf, start)
        picks[:, start:chunk.stop] = k[sel]
        excess[:, start:chunk.stop] = risk[range(len(chunk)), sel] - risk.min(axis=1)
        scores[:, start:chunk.stop] = rss, aic, bic, risk
    hits = (np.count_nonzero(picks == true_deg, axis=1) / reps).tolist()
    mean_excess = (np.cumsum(excess, axis=1)[:, -1] / reps).tolist()  # summed in rep order
    return RegimeSummary(
        regime="true_model_in_set" if in_set else "misspecified",
        reps=reps,
        true_degree=true_deg if in_set else None,
        correct_frequency_aic=hits[0] if in_set else None,
        correct_frequency_bic=hits[1] if in_set else None,
        mean_excess_risk_aic=mean_excess[0],
        mean_excess_risk_bic=mean_excess[1],
        degrees=k,
        scores=scores,
        picks=picks,
        excess=excess,
    )


@dataclass(frozen=True)
class ProbeReport:
    mean_estimate: float
    mean_true_insample_risk: float
    relative_bias: float
    z: float  # (mean_estimate - mean_true_insample_risk) / (sigma^2 sqrt(2 / (n reps)))


def _row_blocks(rng, n: int, cols: int):
    """The rows of rng.standard_normal((n, cols)), PROBE_BLOCK floats or one
    row at a time, as (first row, block): the generator fills in C order,
    so the blocks hold exactly the whole draw's numbers.  Every block is a
    view of one buffer, which the next block overwrites."""
    rows = max(1, PROBE_BLOCK // cols)
    buf = np.empty((min(rows, n), cols))
    for start in range(0, n, rows):
        block = buf[:min(rows, n - start)]
        rng.standard_normal(out=block)
        yield start, block


def unbiasedness_probe(truth: TruthSpec, degree: int, n: int, reps: int, seed: int) -> ProbeReport:
    """Monte Carlo check that the penalized risk estimate
    (rss + 2 (k+1) sigma^2) / n matches the true in-sample risk on a
    fixed equispaced design when the truth is representable at the
    probed degree (known variance makes it exactly unbiased).  Each rep's
    estimate - in-sample risk has mean 0 and variance 2 sigma^4 / n, so
    z (their mean over its sd) is near N(0, 1).  A representable f*
    cancels from both the residuals and the fit's error, so the probe
    fits the unit noise alone and scales the two means by sigma^2: no
    sigma is lost next to f*, and z and the relative bias do not depend
    on sigma.  With Q of the design's thin QR, the fit's squared error
    is |Q^T noise|^2 and the rss |noise|^2 minus that, so the probe sums
    both over row blocks of the draws and holds no (n, reps) array."""
    if truth.kind != "poly" or truth.poly_degree > degree:
        raise ValueError("the probe needs a polynomial truth representable at the probed degree")
    Q, _ = _legendre_qr(np.linspace(-1.0, 1.0, n), degree)
    b, prod = np.zeros((2, degree + 1, reps))  # Q^T noise; each block's share of it
    ss = np.zeros(reps)  # |noise|^2
    for start, block in _row_blocks(substream(seed, "predsel-probe", degree, n), n, reps):
        b += np.matmul(Q[start:start + len(block)].T, block, out=prod)
        ss += np.einsum("ij,ij->j", block, block)
    fit2 = np.einsum("ij,ij->j", b, b)
    mean_est = float(np.mean((ss - fit2 + 2.0 * (degree + 1)) / n))
    mean_risk = float(np.mean(1.0 + fit2 / n))
    s2 = truth.noise_sigma**2
    return ProbeReport(s2 * mean_est, s2 * mean_risk, abs(mean_est - mean_risk) / mean_risk,
                       (mean_est - mean_risk) / math.sqrt(2.0 / (n * reps)))
