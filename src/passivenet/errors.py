"""Exception types shared across the toolkit.

Every numerically-gated operation raises one of these instead of letting a
LinAlgError or silent garbage escape.  The gates report the offending block
by name and measure so CLI users can see which inverse failed.
"""


class PassiveNetError(Exception):
    """Base class for all toolkit errors."""


class GateError(PassiveNetError):
    """A numerical gate fired (a needed inverse is too near singular); CLI exit 3."""


class DimensionMismatch(PassiveNetError):
    """Operands have incompatible matrix or port dimensions."""


class SplitMismatch(PassiveNetError):
    """A port-splitting transform needs equal top/bottom widths."""


class NearSpectrum(GateError):
    """A resolvent solve (s - A)^-1 is too near singular to trust."""


class SingularFeedthrough(GateError):
    """Full inversion needs an invertible feedthrough matrix D."""


class SingularBlock(GateError):
    """A feedthrough sub-block required by a transform is singular.

    Carries the block name ("D11", "D22", "D21", ...) in the message.
    """


class SingularGenerator(GateError):
    """The internal reciprocal needs an invertible generator A."""


class SingularShiftedFeedthrough(GateError):
    """The external Cayley transform needs D_i + R invertible."""


class OneEigenvalue(GateError):
    """The inverse external Cayley transform needs I - D invertible."""


class MinusOneEigenvalue(GateError):
    """The inverse internal Cayley transform needs I + A_d invertible."""


class NotWellPosed(GateError):
    """A feedback loop's Delta matrices are singular.

    The attached :class:`~passivenet.feedback.WellPosednessReport` is stored
    on the ``report`` attribute.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NotProperlyPassive(PassiveNetError):
    """Neither star-product operand is properly impedance passive after its
    shift, or one with D + D^T > 0 has a violating band, an unstable A or
    a pole on the imaginary axis whose residue is not positive semidefinite."""


class NotSPD(DimensionMismatch):
    """A matrix expected symmetric positive (semi)definite is not."""


class SingularStiffness(GateError):
    """The general second-order realisation path needs invertible K."""


class OutOfElement(PassiveNetError):
    """A basis function was evaluated outside its element."""


class BadGeometry(PassiveNetError):
    """An area function or mesh request is unusable."""


class ParseError(PassiveNetError):
    """A file could not be parsed; message carries the line number."""


class MonotonicityError(PassiveNetError):
    """Area function nodes must be strictly increasing."""


class CoincidentPoints(PassiveNetError):
    """Loewner interpolation points mu and lambda must be disjoint."""


class PairingViolation(PassiveNetError):
    """Interpolation data is not conjugate-symmetric; cannot realify."""


class RankDeficient(GateError):
    """The projected Loewner pencil is numerically singular at this order."""


class OutOfEnvelope(PassiveNetError):
    """Special-function argument outside the supported accuracy envelope."""


class ZeroFrequency(PassiveNetError):
    """The piston impedance formula is evaluated away from s = 0."""


class NonPositive(PassiveNetError):
    """Semitone discrepancies need two positive frequencies."""
