"""Exception hierarchy for the ``repro`` library.

All exceptions raised by this library derive from :class:`ReproError`, so
callers can catch library failures without catching unrelated bugs::

    try:
        tester.run(oracle)
    except ReproError:
        ...  # a library-level failure (bad parameters, invalid pmf, ...)
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class InvalidDistributionError(ReproError, ValueError):
    """A probability vector is malformed (negative mass, wrong sum, empty)."""


class InvalidParameterError(ReproError, ValueError):
    """A numeric parameter is outside its documented range."""


class DimensionMismatchError(ReproError, ValueError):
    """Two objects that must share a dimension (domain size, number of
    players, number of samples) do not."""


class ProtocolError(ReproError, RuntimeError):
    """A distributed protocol was driven incorrectly (e.g. referee invoked
    before all player messages were collected)."""


class SearchDivergedError(ReproError, RuntimeError):
    """An empirical sample-complexity search failed to bracket its target
    within the configured budget.

    ``result`` holds the censored partial search (the levels it probed,
    ``resource_star`` at the cap), or ``None`` when not supplied."""

    def __init__(self, message: str, result: object = None) -> None:
        super().__init__(message)
        self.result = result
