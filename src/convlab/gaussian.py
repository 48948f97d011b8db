"""The stochastic exact-zero testing problem under unit-variance
Gaussian sampling.

A world is the mean theta of a unit-variance normal, a plain float;
evidence is an i.i.d. sample summarized by its size and mean.  A test
rule answers SIMPLE (theta is exactly 0) while |mean| stays at or below
a critical threshold c(n), COMPLEX otherwise:

    fixed-z rules:  c(n) = z / sqrt(n)   (z = 1.96 is the 95% interval
                    rule; z = sqrt(2) is the rule the two-parameter AIC
                    comparison reduces to, with constant level
                    2*Phi(sqrt(2)) - 1 = 0.8427... = erf(1))
    BIC rule:       c(n) = sqrt(ln n / n), whose level at theta = 0
                    climbs to 1 as n grows.

Truth probabilities come in two independent routes: a closed form based
on the normal CDF, and a Monte Carlo frequency over the exact sampling
distribution of the mean; classify_mode judges the analytic curves the
run writes.  level_cap computes the 84.3% constant as
2*Phi(sqrt(2)) - 1 rather than hard-coding it; the penalized-likelihood
derivations that reduce AIC and BIC to these thresholds, and the rule's
decision on one sample mean, are executable references in the tests
(tests/reference.py).
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .framework import ModeReport, OracleContradiction, normal_cdf, normal_quantile
from .rand import substream


# ---------------------------------------------------------------------------
# test rules


@dataclass(frozen=True)
class TestRule:
    """A threshold test of 'theta = 0' against 'theta != 0'."""

    kind: str  # "fixed_z" | "bic"
    z: Optional[float] = None

    def __post_init__(self):
        if self.kind == "fixed_z":
            if self.z is None or not (self.z > 0 and math.isfinite(self.z)):
                raise ValueError("fixed_z rules need a positive finite z")
        elif self.kind == "bic":
            if self.z is not None:
                raise ValueError("the BIC rule takes no z")
        else:
            raise ValueError(f"unknown rule kind {self.kind!r}")

    def critical_value(self, n: int) -> float:
        if self.kind == "fixed_z":
            if n < 1:
                raise ValueError("sample size must be >= 1")
            return self.z / math.sqrt(n)
        if n < 2:
            raise ValueError("the BIC threshold needs n >= 2 (ln 1 = 0)")
        return math.sqrt(math.log(n) / n)

    def label(self) -> str:
        return f"fixed_z({self.z!r})" if self.kind == "fixed_z" else "bic"


def fixed_z_rule(z: float) -> TestRule:
    return TestRule(kind="fixed_z", z=z)


def aic_rule() -> TestRule:
    """The threshold test the two-model AIC comparison reduces to
    (prefer 'theta != 0' iff n * xbar**2 > 2)."""
    return fixed_z_rule(math.sqrt(2.0))


def confidence_rule_95() -> TestRule:
    return fixed_z_rule(1.96)


def bic_rule() -> TestRule:
    return TestRule(kind="bic")


RULES = (aic_rule(), confidence_rule_95(), bic_rule())  # a run's rules, in its row order


# ---------------------------------------------------------------------------
# truth-probability curves


def truth_prob_analytic(rule: TestRule, theta: float, n: int) -> float:
    """Exact probability that the rule outputs the true answer at theta.

    The sample mean is Normal(theta, 1/n), so the rejection probability
    is r = 1 - Phi((c - theta) sqrt(n)) + Phi((-c - theta) sqrt(n));
    the rule is right with probability 1 - r when theta = 0 and r
    otherwise.
    """
    c = rule.critical_value(n)
    sqn = math.sqrt(n)
    r = 1.0 - normal_cdf((c - theta) * sqn) + normal_cdf((-c - theta) * sqn)
    return 1.0 - r if theta == 0.0 else r


# Normals per block of truth_prob_mc's draws (256 KiB), so that a curve point holds one
# block at any trials, not 8 bytes a trial (80 MB at the schema's 10**7)
MC_BLOCK = 2**15


def truth_prob_mc(rule: TestRule, theta: float, n: int, trials: int, seed: int):
    """Monte Carlo frequency of true answers with binomial standard
    error.  Means are drawn from their exact sampling distribution
    Normal(theta, 1/n); the substream is derived from
    (seed, rule, theta, n) so grids never share draws.  The normals are
    drawn MC_BLOCK at a time into one buffer, scaled, shifted and folded
    in place: the generator fills in C order, so the blocks hold exactly
    the whole draw's numbers."""
    if trials < 1000:
        raise ValueError("trials must be >= 1000")
    c = rule.critical_value(n)  # validates n for the rule
    rng = substream(seed, "gaussian-mc", rule.label(), theta, n)
    buf = np.empty(min(MC_BLOCK, trials))
    outside = 0
    for start in range(0, trials, MC_BLOCK):
        xbars = buf[:min(MC_BLOCK, trials - start)]
        rng.standard_normal(out=xbars)
        xbars /= math.sqrt(n)
        xbars += theta
        outside += np.count_nonzero(np.abs(xbars, out=xbars) > c)
    p = (outside if theta != 0.0 else trials - outside) / trials
    se = math.sqrt(p * (1.0 - p) / trials)
    return p, se


def curve_analytic(rule: TestRule, theta: float, n_grid: Sequence[int]) -> tuple:
    """The analytic truth-probability curve at theta: one (n, p) pair per
    sample size of n_grid, in its order."""
    return tuple((n, truth_prob_analytic(rule, theta, n)) for n in n_grid)


# ---------------------------------------------------------------------------
# hierarchy classification


def level_cap(rule: TestRule) -> Optional[float]:
    """Limit of the theta = 0 truth probability: constant
    2*Phi(z) - 1 for fixed-z rules, 1 for the BIC rule (returned as
    None to mean 'no cap below 1')."""
    if rule.kind == "fixed_z":
        return 2.0 * normal_cdf(rule.z) - 1.0
    return None


def certified_settle_n(rule: TestRule, theta: float, alpha: float) -> Optional[int]:
    """Smallest sample size from which the analytic truth probability
    provably stays at or above 1 - alpha, or None if it never does.

    Fixed-z at theta = 0 is constant, so the answer is 2 or never.  For
    theta != 0 the bound r(n) >= 1 - Phi(c(n) sqrt(n) - |theta| sqrt(n))
    is used: its argument is monotone beyond an explicit point, so the
    first crossing certifies the tail.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    q = normal_quantile(alpha)
    if theta == 0.0:
        if rule.kind == "fixed_z":
            return 2 if level_cap(rule) >= 1.0 - alpha else None
        # BIC: 2*Phi(sqrt(ln n)) - 1 rises to 1
        qq = normal_quantile(1.0 - alpha / 2.0)
        return max(2, math.ceil(math.exp(qq * qq)))
    athe = abs(theta)
    if rule.kind == "fixed_z":
        if rule.z <= q:
            return 2
        return max(2, math.ceil(((rule.z - q) / athe) ** 2))
    # BIC, theta != 0: h(n) = sqrt(ln n) - |theta| sqrt(n) decreases for
    # every n with n ln n > 1 / theta**2, so the first doubling step
    # satisfying both conditions certifies the whole tail
    n = 3
    while (
        n * math.log(n) <= 1.0 / (athe * athe)
        or math.sqrt(math.log(n)) - athe * math.sqrt(n) > q
    ):
        n *= 2
    return n


def check_witness_grids(rules: Sequence[TestRule], theta_grid, alpha_grid) -> None:
    """Raise ValueError, naming the grid, unless the grids hold a pair at which
    every capped rule of `rules` fails PROB_ONE.  A fixed-z rule, whose theta = 0
    level caps at 2*Phi(z) - 1, fails it only at theta = 0 and an alpha below
    1 - cap, so grids without such a pair could only pass it unjudged."""
    caps = [cap for cap in map(level_cap, rules) if cap is not None]
    if not caps:
        return
    if 0.0 not in theta_grid:
        raise ValueError(f"theta_grid: {reprlib.repr(theta_grid)} has no 0, where alone "
                         f"the fixed-z rules fail PROB_ONE")
    if not any(max(caps) < 1.0 - alpha for alpha in alpha_grid):
        raise ValueError(f"alpha_grid: {reprlib.repr(alpha_grid)} has no alpha below "
                         f"1 - {max(caps)!r}, the highest fixed-z level cap")


def classify_mode(rule: TestRule, curves, alpha_grid):
    """Check the two stochastic standards on the run's analytic curves.

    curves is [(theta, curve_analytic pairs), ...] in theta-grid order.
    HIGH_PROB is judged at the first alpha in alpha_grid (the operative
    level); PROB_ONE at every alpha in the grid.  Every witness is a
    (theta, alpha) pair of the grids; grids that cannot witness a capped
    rule's failure raise ValueError (check_witness_grids).  Returns a dict
    with the two ModeReports.  Each (theta, alpha) certificate is computed
    once, and every curve is checked against it.
    """
    if not curves or not alpha_grid or not all(pairs for _, pairs in curves):
        raise ValueError("grids must be non-empty")
    settle = {(theta, alpha): certified_settle_n(rule, theta, alpha)
              for theta, _ in curves for alpha in alpha_grid}
    # grid consistency: certified settle points must be honored by the curves
    for theta, pairs in curves:
        for alpha in alpha_grid:
            n0 = settle[theta, alpha]
            for n, p in pairs:
                if n0 is not None and n >= n0 and p < 1.0 - alpha - 1e-9:
                    raise OracleContradiction(
                        f"{rule.label()} at theta={theta}: curve dips below "
                        f"{1 - alpha} at n={n} despite certificate {n0}"
                    )
    check_witness_grids([rule], [theta for theta, _ in curves], alpha_grid)
    cap = level_cap(rule)

    def failures(alpha):
        return [{"theta": theta, "alpha": alpha, "cap": cap, "rule": rule.label()}
                for theta, _ in curves if settle[theta, alpha] is None]

    hp_failures = failures(alpha_grid[0])
    high_prob = ModeReport("HIGH_PROB", not hp_failures, tuple(hp_failures))
    po_failures = [f for alpha in alpha_grid for f in failures(alpha)]
    prob_one = ModeReport("PROB_ONE", not po_failures, tuple(po_failures))
    return {"HIGH_PROB": high_prob, "PROB_ONE": prob_one}
