"""The library's three exception types.  Bad input raises `InputError`,
whose message names the field or value at fault; too many excluded
replications raise `ExperimentError`.  Both are a `MollikitError`.
`ExperimentResult`'s summary check, which guards against a program
fault rather than bad input, raises a plain `ValueError`."""


class MollikitError(Exception):
    """Base class for all library errors."""


class InputError(MollikitError, ValueError):
    """Input outside a function's grammar or domain; the message names it."""


class ExperimentError(MollikitError, RuntimeError):
    """Too many replications failed for the experiment to be trusted."""
