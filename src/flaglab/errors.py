"""Exception hierarchy shared by all flaglab modules.

An error's class alone picks the command-line exit code (cli.main); exit 2
is left to the `refuted` and `fails` verdicts, so no error can read as one.
"""


class FlaglabError(Exception):
    """Base class for all errors raised by flaglab.  Exit 3 unless a
    subclass names another code."""


class InputError(FlaglabError):
    """Malformed or out-of-contract input (bad index, wrong dimension, a
    singular or ill-conditioned generator, ...).  Exit 64."""


class CapacityError(FlaglabError):
    """Requested computation exceeds a configured size budget.  Exit 3."""


class PrecisionError(FlaglabError):
    """A result cannot be produced within the requested tolerance from
    computed data, or a word product over/underflowed.  Exit 3."""


class NotAnosovError(FlaglabError):
    """Gap growth along a word failed, or a prerequisite Anosov index could
    not be certified: unmet Anosov prerequisites.  Exit 5."""
