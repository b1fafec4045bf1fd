"""Shared error base class.

Every domain error carries a short machine-readable ``code`` that the
replay summary and the HTTP layer report verbatim.
"""


class SemDroughtError(Exception):
    """Base class for all domain errors raised by this package."""

    #: short stable identifier, e.g. "UnknownTerm"
    code = "Error"

    def __init__(self, message: str = ""):
        super().__init__(message or self.code)
