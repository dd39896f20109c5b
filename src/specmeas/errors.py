"""Exception hierarchy for specmeas."""


class SpecmeasError(Exception):
    """Base class for all library errors."""


class ShapeMismatch(SpecmeasError):
    pass


class NonHermitianInput(SpecmeasError):
    pass


class EigSolverFailure(SpecmeasError):
    pass


class NotInSpan(SpecmeasError):
    pass


class InconsistentAssignment(SpecmeasError):
    pass


class NotCommuting(SpecmeasError):
    pass


class NotNormal(SpecmeasError):
    pass


class SpaceMismatch(SpecmeasError):
    pass


class DimMismatch(SpecmeasError):
    pass


class NotSpanning(SpecmeasError):
    pass


class CapExceeded(SpecmeasError):
    pass


class InvalidDocument(SpecmeasError):
    """A serialized matrix/measure/model document violates its schema or invariants."""
