"""Exception hierarchy.

Everything raised on purpose by this package derives from LcsError, so
callers (and the command line driver) can tell usage problems apart from
genuine verification failures.
"""


class LcsError(Exception):
    """Base class for all errors raised by lcscohom."""


class MalformedTableError(LcsError):
    """A structure file or table has the wrong shape or out-of-range entries."""


class UnknownStructureError(LcsError):
    """Requested builtin structure name does not exist."""


class UnsupportedCoefficientsError(LcsError):
    """Coefficient group spec is malformed, infinite, or has a modulus < 2."""


class ShapeError(LcsError):
    """Matrix or table dimensions are incompatible."""


class DegreeError(LcsError):
    """A (co)homological degree outside the supported range was requested."""


class ParameterError(LcsError):
    """An operation parameter is out of its documented range."""


class BudgetError(LcsError):
    """A computation would exceed the configured basis-size budget."""


class StructureValidationError(LcsError):
    """An operation required a valid structure but validation failed.

    Carries the offending validation report in ``report`` when available.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class CocycleError(LcsError):
    """A map that was required to be a 2-cocycle is not one.

    Carries the offending cocycle report in ``report`` when available.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class SectionError(LcsError):
    """A set-theoretic section is missing, not a section, or not linear."""


class LinearityError(LcsError):
    """A cochain fails the linearity (or normalization) membership test."""


class MorphismError(LcsError):
    """A map that should be a morphism of structures is not one."""


class LatticeError(LcsError):
    """A lattice containment that the theory guarantees failed numerically."""
