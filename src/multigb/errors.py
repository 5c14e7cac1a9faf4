"""Exception types shared across the package."""


class MultigbError(Exception):
    """Base class for all package errors."""


class RingMismatchError(MultigbError):
    """Operands belong to different rings or have the wrong shape."""


class ResourceLimitError(MultigbError):
    """A Groebner computation exceeded its configured resource guard.

    When raised by the Buchberger driver it carries the partial state at the
    abort: ``basis_size``, ``pending_pairs`` and ``degree`` (the lcm total
    degree reached).  A monomial ideal with more minimal generators than
    ``max_basis`` reports their number, no pending pairs and their largest
    degree.  All three are None otherwise.
    """

    def __init__(self, message: str, *, basis_size: int | None = None,
                 pending_pairs: int | None = None, degree: int | None = None):
        if basis_size is not None:
            message = (f"{message} (basis size {basis_size}, "
                       f"{pending_pairs} pending pairs, degree {degree})")
        super().__init__(message)
        self.basis_size = basis_size
        self.pending_pairs = pending_pairs
        self.degree = degree


class NotSquarefreeError(MultigbError):
    """Operation requires a squarefree monomial ideal."""


class PolarizationCapacityError(MultigbError):
    """The ambient ring has too few variables to polarize in place."""


class HypothesisNotSatisfiedError(MultigbError):
    """The input does not satisfy the hypotheses of the requested check."""


class InconclusiveError(MultigbError):
    """Randomized evidence was contradictory; the caller should retry."""


class InternalConsistencyError(MultigbError):
    """Two criteria that must agree did not; signals an engine bug."""
