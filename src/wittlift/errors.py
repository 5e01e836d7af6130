"""Exception hierarchy shared by all wittlift modules."""


class WittliftError(Exception):
    """Base class for all errors raised by this package."""


class InputError(WittliftError):
    """Input outside the supported range; the CLI exits 4 on it."""


# -- coefficient rings ------------------------------------------------------

class NotPrime(InputError):
    pass


class EllTooSmall(InputError):
    pass


class ParamMismatch(WittliftError):
    pass


class ZeroInverse(WittliftError):
    pass


class ZeroPolynomial(WittliftError):
    pass


class NonDivisibleDegrees(WittliftError):
    pass


class NotASimpleRoot(WittliftError):
    pass


# -- matrix toolkit ---------------------------------------------------------

class Singular(WittliftError):
    pass


class RepeatedResidualEigenvalues(WittliftError):
    pass


class EigenvaluesNotInField(WittliftError):
    pass


class ResidualImageTooSmall(WittliftError):
    pass


class DoesNotSpan(WittliftError):
    pass


class UnboundedGroup(WittliftError):
    pass


class Undecided(WittliftError):
    """integral_model found no witness and its saturation did not close."""


# -- group model and cohomology --------------------------------------------

class UnknownGenerator(WittliftError):
    pass


class NotACocycle(WittliftError):
    pass


class LiftsDoNotReduce(WittliftError):
    pass


class DetNotEpsilon(WittliftError):
    pass


# -- lifting engine ---------------------------------------------------------

class Inconsistent(WittliftError):
    pass


class Unreachable(WittliftError):
    pass


class OracleNotFound(WittliftError):
    pass


class PoolExhausted(WittliftError):
    pass


class ShaNotTrivial(WittliftError):
    pass


class SupportConditionUnavailable(WittliftError):
    pass


# -- density / CLI ----------------------------------------------------------

class AlphaExceedsPrecision(InputError):
    """A tube threshold alpha outside 0..m."""


class NotConjugationInvariant(WittliftError):
    pass


class InvalidQuery(InputError, ParamMismatch):
    """A tube query or sample count of the wrong shape."""


class SchemaError(InputError):
    pass
