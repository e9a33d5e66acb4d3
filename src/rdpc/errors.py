"""Exception types shared across the package.

Everything user-facing derives from either ``DomainError`` (bad inputs) or
``RuntimeError`` (a computation that could not be completed). Feasibility is
never signalled by exceptions: infeasible instances come back as ordinary
results with ``feasible=False``.
"""


class DomainError(ValueError):
    """An argument is outside the mathematical domain of an operation."""


class DegenerateSourceError(DomainError):
    """Source parameters make the model degenerate (e.g. a label channel
    with crossover 1/2, which carries no information about the input)."""


class WitnessUnavailableError(RuntimeError):
    """An achievability construction has no valid channel for this instance."""


class NoCrossingError(RuntimeError):
    """Two mixture component densities do not cross between their means."""
