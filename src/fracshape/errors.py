"""Exception hierarchy shared by all fracshape modules."""


class FracshapeError(Exception):
    """Base class for all errors raised by fracshape."""


class ParameterError(FracshapeError, ValueError):
    """An input parameter is out of range; the message names the field.

    `field`, when given, is the parameter's name, for callers that report
    it under a path of their own (a config's `grid.half_width`).
    """

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class BudgetError(ParameterError):
    """A requested computation exceeds the dense-assembly size budget."""


class StructuralError(FracshapeError):
    """Objects that must live on the same grid (or be nested) do not."""


class DomainEmptyError(FracshapeError):
    """An operation that needs a nonempty domain received an empty mask.

    Callers translate this to the empty-set conventions: eigenvalues are
    +inf and the resolvent is the null operator.
    """


class NumericError(FracshapeError):
    """A numerical check failed: LAPACK returned info != 0, a solve or an
    eigenpair missed its residual tolerance, or merged eigenvectors are
    not orthonormal."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved
