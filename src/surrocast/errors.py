"""Exception hierarchy shared by all surrocast modules.

Every error carries a stable ``code`` (its class name) so that callers,
including the CLI, can report machine-readable failures.
"""

from __future__ import annotations

__all__ = [
    "SurrocastError",
    "DataError",
    "NumericalError",
    "DegenerateSeries",
    "MissingPeriod",
    "PanelMismatch",
    "InsufficientSample",
    "MissingExogenous",
    "InvalidData",
    "RankDeficient",
    "PenaltyUndefined",
    "BaselineDegenerate",
    "InvalidCovariance",
    "NonStationarySpec",
    "BootstrapUnstable",
]


class SurrocastError(Exception):
    """Base class for all library errors."""

    @property
    def code(self) -> str:
        return type(self).__name__


class DataError(SurrocastError):
    """Invalid or inconsistent input data."""


class NumericalError(SurrocastError):
    """A numerical procedure could not be completed."""


class DegenerateSeries(DataError):
    """A series has zero variance where a positive spread is required."""


class MissingPeriod(DataError):
    """A daily index has no observations in a required within-month block."""


class PanelMismatch(DataError):
    """Target and surrogate panels do not share the same month labels."""


class InsufficientSample(DataError):
    """Too few observations for the requested model order or horizon."""


class MissingExogenous(DataError):
    """Future covariate rows required by a forecast are absent."""


class InvalidData(DataError):
    """Malformed input file or non-finite numeric field."""


class RankDeficient(NumericalError):
    """Least-squares design matrix is rank deficient.

    ``columns`` lists the indices of near-collinear design columns.
    """

    def __init__(self, message: str, columns: tuple[int, ...] = ()):
        super().__init__(message)
        self.columns = tuple(columns)


class PenaltyUndefined(NumericalError):
    """Corrected-AIC penalty denominator is non-positive."""


class BaselineDegenerate(NumericalError):
    """Relative metric undefined because the baseline error is exactly zero."""


class InvalidCovariance(NumericalError):
    """Covariance inputs are not (jointly) positive definite."""


class NonStationarySpec(NumericalError):
    """A simulated process specification has spectral radius >= 1."""


class BootstrapUnstable(NumericalError):
    """More than 5% of bootstrap replicates failed to refit."""
