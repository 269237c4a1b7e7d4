"""Exception types shared across the package."""


class HkrError(Exception):
    """Base class for all package-specific failures."""


class InvalidParams(HkrError, ValueError):
    """User input outside the supported ranges: form parameters, curve data,
    sample counts.  A ValueError too, so callers may catch either."""


class SizeBound(HkrError):
    """Requested matrix size exceeds the configured bound."""


class NotInTable(HkrError):
    """No split-form table entry for the requested form."""


class ConstructionFailure(HkrError):
    """A structural invariant failed while building an algebra."""


class NotInAlgebra(HkrError):
    """A matrix does not lie in the expected (sub)algebra."""


class NonRationalSpectrum(HkrError):
    """An operator expected to have rational (or i-rational) spectrum does not."""


class UnrecognizedDiagram(HkrError):
    """A Dynkin diagram outside the supported classification."""


class RelationFailure(HkrError):
    """An algebraic relation that must hold exactly failed."""


class MismatchWithTable(HkrError):
    """Computed split subalgebra disagrees with the reference table."""


class GradingFailure(HkrError):
    """ad(x) failed to grade a space by the expected eigenvalues."""


class RouteDisagreement(HkrError):
    """Two independent computation routes disagree."""


class AmbiguousCohomology(HkrError):
    """Line bundle cohomology is not determined by degree alone."""


class NoSolution(HkrError):
    """A fiber-matching solve has no solution."""


class NonUnique(HkrError):
    """A fiber-matching solve is underdetermined."""
