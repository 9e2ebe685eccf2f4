"""Exception and warning types shared across the package."""

from __future__ import annotations


class KoopliftError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(KoopliftError, ValueError):
    """An array argument has a shape incompatible with the operation."""


class NonFiniteState(KoopliftError, ArithmeticError):
    """A dynamics step produced NaN or Inf in some state coordinate."""


class DegenerateData(KoopliftError, ValueError):
    """A data matrix is identically zero, or not finite, where a fit requires signal."""


class RankDeficientProbe(KoopliftError, ValueError):
    """Probe points cannot resolve the dimension of a function space."""


class RankDeficientAtInput(KoopliftError, ValueError):
    """A matrix-valued input function loses column rank at a given input."""


class UnknownInputValue(KoopliftError, KeyError):
    """A switched model was queried at an input value it was not fitted on."""


class ConfigError(KoopliftError, ValueError):
    """Invalid configuration, file format, or command-line usage."""


class NonFiniteLoss(KoopliftError, ArithmeticError):
    """A training loss evaluated to NaN or Inf."""


class NonFiniteGradient(KoopliftError, ArithmeticError):
    """A training gradient evaluated to NaN or Inf."""


class OutOfBoxWarning(UserWarning):
    """A state or input left its declared sampling box (kept, not clipped)."""


class RankWarning(UserWarning):
    """A data matrix failed a full-row-rank check; results are advisory."""
