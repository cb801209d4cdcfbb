"""Exception types raised by the public API."""


class MollikitError(Exception):
    """Base class for all library errors."""


class InvalidScaleError(MollikitError, ValueError):
    """Smoothing scale m must be strictly positive."""


class SingularDesignError(MollikitError, ValueError):
    """Design matrix is rank deficient."""


class NonCoerciveLossError(MollikitError, ValueError):
    """Loss has no unique finite minimizer (e.g. ramp loss)."""


class DegenerateRegressorError(MollikitError, ValueError):
    """Scalar quantile solver requires every regressor to be nonzero."""


class UnsupportedDimensionError(MollikitError, ValueError):
    """Operation only supports single-regressor designs."""


class InvalidBandwidthError(MollikitError, ValueError):
    """Bandwidth h must lie in (0, 1)."""


class InvalidCurvatureError(MollikitError, ValueError):
    """Curvature constant a must be strictly positive."""


class SingularGramError(MollikitError, ValueError):
    """Gram matrix is not invertible."""


class IncompleteSampleError(MollikitError, ValueError):
    """Operation needs the sample's true errors and parameters."""


class NonFiniteSampleError(MollikitError, ValueError):
    """Sample arrays must hold finite values only."""


class InvalidStartError(MollikitError, ValueError):
    """Solver start must be a finite vector with one entry per regressor."""


class CurvatureUndefinedError(MollikitError, ValueError):
    """Error density is not evaluable at a curvature atom."""


class ExperimentError(MollikitError, RuntimeError):
    """Too many replications failed for the experiment to be trusted."""


class InvalidGridError(MollikitError, ValueError):
    """Evaluation grid must be nonempty and hold finite points only."""
