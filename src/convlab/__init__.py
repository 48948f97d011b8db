"""convlab: a workbench that pits inference methods against graded
convergence-to-the-truth standards on four benchmark problems."""

from .framework import (
    ConvergenceRecord,
    MethodSpec,
    ModeReport,
    OracleContradiction,
    Status,
    StreamError,
    StreamTrace,
    Verdict,
    check_stability,
    classify_convergence,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceRecord",
    "MethodSpec",
    "ModeReport",
    "OracleContradiction",
    "Status",
    "StreamError",
    "StreamTrace",
    "Verdict",
    "check_stability",
    "classify_convergence",
    "__version__",
]
