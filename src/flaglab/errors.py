"""Exception hierarchy shared by all flaglab modules."""


class FlaglabError(Exception):
    """Base class for all errors raised by flaglab."""


class InputError(FlaglabError):
    """Malformed or out-of-contract input (bad index, wrong dimension, ...)."""


class CapacityError(FlaglabError):
    """Requested computation exceeds a configured size budget."""


class ConditioningError(FlaglabError):
    """A matrix is numerically singular."""


class PrecisionError(FlaglabError):
    """A result cannot be produced within the requested tolerance, or a
    word product over/underflowed."""


class TransversalityError(FlaglabError):
    """An intersection did not have the dimension the Anosov hypotheses predict."""


class NotAnosovError(FlaglabError):
    """Gap growth along a word failed, contradicting the Anosov assumption."""
