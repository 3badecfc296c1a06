"""Exception types shared across the package."""


class PilabError(Exception):
    """Base class for all pilab errors."""


class DisconnectedGraph(PilabError):
    pass


class NonPositiveLength(PilabError):
    pass


class NonPositiveMass(PilabError):
    pass


class NotAhlfors(PilabError):
    pass


class InvalidSpec(PilabError):
    pass


class SchemaError(PilabError):
    """Malformed space file; `field` names the offending entry."""

    def __init__(self, field, message=""):
        self.field = field
        super().__init__(f"{field}: {message}" if message else field)


class NoBasePoint(PilabError):
    pass


class KappaOutOfRange(PilabError):
    pass


class EmptyPiece(PilabError):
    pass


class NoBoundary(PilabError):
    pass


class EtaNotAboveP(PilabError):
    pass


class XEqualsCenter(PilabError):
    pass


class XOutsideBall(PilabError):
    pass


class SphereEmpty(PilabError):
    pass


class ExponentOutOfRange(PilabError):
    pass


class GNotUpperGradient(PilabError):
    pass


class ZeroMass(PilabError):
    pass


class NotConnected(PilabError):
    pass


class NotInAnnulus(PilabError):
    pass
