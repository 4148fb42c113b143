"""The refusals of pdm_osc, each a PdmOscError that keeps a builtin base
(ValueError or RuntimeError). This module imports nothing: all import it."""

__all__ = ["PdmOscError", "ConfigError", "DomainError", "NonPhysicalError",
           "NonNormalizableError", "NegativeDiscriminantError", "DegreeOverflowError",
           "IntegrationError"]


class PdmOscError(Exception):
    """A refusal of an input or of a computation it cannot carry out."""


class ConfigError(PdmOscError, ValueError):
    """An option or SystemParams field refused: one machine-parsable line."""

    def __init__(self, field: str, reason: str):
        super().__init__(f"config-error field={field} reason={reason}")


class DomainError(PdmOscError, ValueError):
    """An argument, or what it leads to, outside its function's domain or the doubles."""


class NonPhysicalError(PdmOscError, ValueError):
    """A k outside the regime that a formula needs (k < 0, or k != 0)."""


class NonNormalizableError(PdmOscError, RuntimeError):
    """Parameters outside the bound regime k < 0 < lam: no square-integrable solution."""


class NegativeDiscriminantError(PdmOscError, ValueError):
    """A radicand that must be nonnegative (a8, a9 or a8*a9) is negative."""


class DegreeOverflowError(PdmOscError, ValueError):
    """Polynomial degree exceeds the configured cap."""


class IntegrationError(PdmOscError, RuntimeError):
    """Adaptive quadrature failed to converge."""
