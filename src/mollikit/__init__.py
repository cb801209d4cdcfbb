"""mollikit: mollifier smoothing of nonsmooth losses and its estimation toolkit."""

from .distributions import ErrorDensity, standard_normal, student_t4
from .estimator import (FitResult, LinearSample, fit_convolution_baseline,
                        fit_exact_scalar_quantile, fit_smoothed)
from .kernels import (MollifierKernel, bump_kernel, bump_normalizer,
                      gaussian_kernel, kernel_abs_moment, kernel_value,
                      parse_kernel)
from .losses import (LossSpec, absolute_loss, check_loss, expected_curvature,
                     huber_loss, loss_subgradient, loss_value, parse_loss,
                     relu_loss)
from .mollify import (PartialMomentSmoother, expected_derivative_gap,
                      smooth_derivative, smooth_value, smoothed_loss,
                      sup_error)
from .montecarlo import (ExperimentConfig, ExperimentResult, error_quantile_shift,
                         generate_sample, run_mad_experiment, run_rmse_experiment)
from .quadratic import (QuadraticApprox, approximation_gap, beta_Q,
                        build_quadratic, loglog_scale, q_value, tilde_L)

__all__ = [
    "ErrorDensity", "standard_normal", "student_t4",
    "FitResult", "LinearSample",
    "fit_convolution_baseline", "fit_exact_scalar_quantile", "fit_smoothed",
    "MollifierKernel", "bump_kernel", "bump_normalizer", "gaussian_kernel",
    "kernel_abs_moment", "kernel_value", "parse_kernel",
    "LossSpec", "absolute_loss", "check_loss", "expected_curvature",
    "huber_loss", "loss_subgradient", "loss_value", "parse_loss", "relu_loss",
    "PartialMomentSmoother", "expected_derivative_gap",
    "smooth_derivative", "smooth_value", "smoothed_loss", "sup_error",
    "ExperimentConfig", "ExperimentResult", "error_quantile_shift",
    "generate_sample", "run_mad_experiment", "run_rmse_experiment",
    "QuadraticApprox", "approximation_gap", "beta_Q", "build_quadratic",
    "loglog_scale", "q_value", "tilde_L",
]

__version__ = "0.1.0"
