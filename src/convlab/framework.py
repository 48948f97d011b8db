"""Shared vocabulary and the verdict engine.

Every problem family in this package (nested intervals on the line,
Gaussian sampling, polynomial model selection, the paired-parameter
atomism case) evaluates inference methods the same way: a method maps a
finite evidence history to a verdict, verdicts along a stream are
classified against the world's true answer, and the classification feeds
mode checks (pointwise convergence, stability, almost-everywhere
coverage, ...).

Finite simulation cannot decide convergence by itself, so classification
is three-valued: CONVERGES and DIVERGES are only issued when an analytic
oracle certifies what happens beyond the simulated horizon; everything
else stays UNDETERMINED.  Oracles make the theorem-level checks exact
while the empirical runs stay honest.

The module imports no numpy: it also holds what config validation and
the acceptance checks read of the numpy suites (their run errors,
constants, normal quantiles and a polynomial's degree), so that a
lineworld process never loads them.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Sequence


class Verdict(Enum):
    """A method's output at a stage.

    SIMPLE stands for the simple hypothesis of the problem at hand (the
    parameter is exactly zero; atomic theory is true), COMPLEX for its
    negation, SUSPEND for an explicit refusal to answer.  SUSPEND is a
    legal output at any stage.
    """

    SIMPLE = "SIMPLE"
    COMPLEX = "COMPLEX"
    SUSPEND = "SUSPEND"


class Status(Enum):
    """Per-world convergence classification."""

    CONVERGES = "CONVERGES"
    DIVERGES = "DIVERGES"
    UNDETERMINED = "UNDETERMINED"


class StreamError(ValueError):
    """An evidence stream violates its contract (containment of the true
    parameters, nestedness, or strictly shrinking widths)."""


class OracleContradiction(RuntimeError):
    """A simulated trace disagrees with what the analytic oracle
    guarantees.  This must never happen for the built-in methods; it
    indicates a bug in either the oracle or the simulation."""


class FitError(ValueError):
    """Rank-deficient design or otherwise unusable least-squares fit (predsel)."""


class EstimationError(ValueError):
    """An interval estimator could not produce a positive interval (perrin)."""


DIAG_TOL = 1e-12  # perrin: worlds this close to the diagonal count as on it
PROBE_SIZES = (50, 100, 200, 400)  # predsel's unbiasedness-probe designs, smallest first
DEFAULT_TIMES = tuple(float(t) for t in range(1, 9))  # perrin's displacement observation times
CONFIDENCE = 0.95  # level of perrin's estimator intervals: coverage studies and streams

_STANDARD_NORMAL = statistics.NormalDist()


def normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def normal_quantile(p: float) -> float:
    """Inverse of the standard normal CDF; p must lie strictly between
    0 and 1 (StatisticsError, a ValueError, otherwise)."""
    return _STANDARD_NORMAL.inv_cdf(p)


def poly_degree(coeffs) -> int:
    """Degree of the polynomial with coefficients c_0 .. c_k: 0 for a constant."""
    deg = len(coeffs) - 1
    while deg > 0 and coeffs[deg] == 0.0:
        deg -= 1
    return deg


@dataclass(frozen=True)
class MethodSpec:
    """A named, parameterized inference rule.

    Evaluation treats `decide` as a pure function of the finite evidence
    history: identical histories must yield identical verdicts.
    `oracle`, when present, maps (theta, stream spec) to the analytic
    certificate that upgrades UNDETERMINED classifications: the stage g
    from which the method outputs the true answer at world theta at every
    stage on every admissible stream of the family, or -1 where it never
    settles on the true answer.
    """

    name: str
    decide: Callable[[Sequence], Verdict]
    oracle: Optional[Callable] = None


@dataclass(frozen=True)
class StreamTrace:
    """One world's evidence and the method's verdicts, in acquisition
    order: two tuples with one entry per stage.  The convergence
    standards read the verdicts alone; the evidence is kept for replay."""

    world_id: str
    evidence: tuple
    verdicts: tuple

    def __len__(self) -> int:
        return len(self.verdicts)


@dataclass(frozen=True)
class ConvergenceRecord:
    """One world's classification: its status, the settle stage (None
    unless CONVERGES), and whether the trace kept the true answer once it
    had output it (check_stability)."""

    world_id: str
    status: Status
    settle_stage: Optional[int]
    stable: bool


@dataclass(frozen=True)
class ModeReport:
    """Outcome of one evaluative-standard check.

    passed = False implies witnesses is non-empty; each witness is a
    dict with enough parameters (world, stream parameters, stage) to
    replay the failure independently.
    """

    mode_id: str  # UNIFORM | POINTWISE | STABILITY | HIGH_PROB | PROB_ONE | ALMOST_EVERYWHERE | MAXIMAL_DOMAIN
    passed: bool
    witnesses: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if not self.passed and not self.witnesses:
            raise ValueError("a failing ModeReport must carry witnesses")


def empirical_settle_stage(verdicts: Sequence[Verdict], truth: Verdict) -> Optional[int]:
    """Least stage from which every verdict equals `truth` through the
    end of the trace, or None if the trace does not end on the truth."""
    if not verdicts or verdicts[-1] is not truth:
        return None
    s = len(verdicts) - 1
    while s > 0 and verdicts[s - 1] is truth:
        s -= 1
    return s


def classify_convergence(
    trace: StreamTrace,
    truth: Verdict,
    settle_by: Optional[int] = None,
) -> ConvergenceRecord:
    """One world's record of its trace against the true answer, given the
    oracle's certified stage settle_by (-1: never settles; None: no oracle).

    CONVERGES requires both an observed truth-suffix within the horizon
    and an oracle certifying persistence beyond it (settle_by inside the
    horizon); the settle stage is the least observed stage of the suffix,
    and None for any other status.  DIVERGES is issued only on the
    oracle's word.  Without an oracle, or when the certified settle stage
    lies beyond the horizon, the horizon is insufficient and the status
    is UNDETERMINED.
    """
    if len(trace) == 0:
        raise ValueError("empty trace")
    stable = check_stability(trace, truth)[0]
    if settle_by is None or settle_by > len(trace) - 1:
        return ConvergenceRecord(trace.world_id, Status.UNDETERMINED, None, stable)
    if settle_by < 0:
        return ConvergenceRecord(trace.world_id, Status.DIVERGES, None, stable)
    settle = empirical_settle_stage(trace.verdicts, truth)
    if settle is None or settle > settle_by:
        raise OracleContradiction(
            f"world {trace.world_id}: oracle guarantees truth from stage "
            f"{settle_by} but the trace shows otherwise"
        )
    return ConvergenceRecord(trace.world_id, Status.CONVERGES, settle, stable)


def check_stability(trace: StreamTrace, truth: Verdict):
    """Has the true answer, once output, ever been retracted?

    Returns (passed, witness).  witness is the first offending stage
    pair (i, j): stage i output the truth and stage j = i + 1 output
    something else.  Vacuously passes when the truth is never output.
    """
    first_truth = None
    for i, v in enumerate(trace.verdicts):
        if first_truth is None:
            if v is truth:
                first_truth = i
        elif v is not truth:
            return False, (i - 1, i)
    return True, None
