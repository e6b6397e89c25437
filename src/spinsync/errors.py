"""The errors spinsync raises.

Each is a ``ValueError``, so code that catches ``ValueError`` keeps working.
The command-line front end reports these, and no other ``ValueError``, as
user errors.
"""


class SpinsyncError(ValueError):
    """Base of the errors raised for invalid input or a degenerate model."""


class InvalidValueError(SpinsyncError):
    """An argument is malformed, out of range or not finite."""
