"""Shared exception types."""
from __future__ import annotations


class RegprobeError(Exception):
    """Base class for all errors raised by this package."""


class ModulusDomainError(RegprobeError, ValueError):
    """A modulus was evaluated or integrated outside its domain of validity."""


class RegistryError(RegprobeError, ValueError):
    """An identifier names no registered object (a bundled scenario, a
    problem or a modulus family), or a scenario file that is missing or
    cannot be read."""


class FieldValidationError(RegprobeError, ValueError):
    """A coefficient field violates a structural requirement such as symmetry or ellipticity."""


class DomainError(RegprobeError, ValueError):
    """A requested ball or sample point leaves the domain a field is defined on."""


class AnisotropyError(RegprobeError, ValueError):
    """The coefficient matrix is too anisotropic for the discretization to stay monotone."""


class SolverError(RegprobeError, RuntimeError):
    """A linear solve missed its residual check; the message names the residual."""


class FixedPointError(RegprobeError, RuntimeError):
    """The outer fixed-point iteration failed to contract; the message names
    the last update."""


class FitError(RegprobeError, ValueError):
    """A least-squares fit was rank deficient or otherwise unusable."""


class CalibrationError(RegprobeError, RuntimeError):
    """A constant-calibration regression was degenerate or produced nonsense."""


class ScenarioError(RegprobeError, ValueError):
    """A scenario file is malformed or references unknown components."""


class SchemaVersionError(ScenarioError):
    """A persisted artifact declares an unsupported schema version."""
