"""Exception types shared across the package."""


class MedgraphError(Exception):
    """Base class for all package errors."""


class Disconnected(MedgraphError):
    pass


class LoopEdge(MedgraphError):
    pass


class ParseError(MedgraphError):
    pass


class WrongDistance(MedgraphError):
    pass


class InteriorTooLarge(MedgraphError):
    pass


class BudgetExceeded(MedgraphError):
    pass


class LabelArity(MedgraphError):
    pass


class EmbeddingUnverified(MedgraphError):
    pass


class NotGated(MedgraphError):
    pass


class NotInducedIso(MedgraphError):
    pass


class NotPrime(MedgraphError):
    pass


class ParameterOutOfRange(MedgraphError):
    pass


class HoleDetected(MedgraphError):
    pass


class DisconnectedHexagons(MedgraphError):
    pass


class ConstraintsUnsatisfiable(MedgraphError):
    pass


class UnknownClass(MedgraphError):
    pass


class UnknownSuite(MedgraphError):
    pass
