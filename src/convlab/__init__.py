"""convlab: a workbench that pits inference methods against graded
convergence-to-the-truth standards on four benchmark problems."""

__version__ = "0.1.0"
