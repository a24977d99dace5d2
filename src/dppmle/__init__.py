"""Exact enumeration-scale toolkit for discrete determinantal point
processes: probabilities, sampling, likelihood geometry, and
maximum-likelihood estimation under the sign-orbit identifiability."""

from .errors import (ConfigError, DppError, EmptyBatch, GroundSetTooLarge,
                     InsufficientPoints, NonpositiveValue,
                     NormalizationMismatch, NotNullDirection,
                     SingularInformation)
from .kernels import (CorrelationKernel, DeterminantalGraph, Kernel,
                      block_diagonal_kernel, conjugate_by_signs,
                      coords_to_sym, determinantal_graph, k_to_l,
                      kernel_from_json, kernel_to_json, l_to_k,
                      principal_submatrix, sym_to_coords, symmetric_basis,
                      symmetric_dim, symmetrize, tridiagonal_kernel)
from .model import (DppTable, EmpiricalTable, SampleBatch, build_table,
                    empirical_table, empty_probability,
                    inclusion_probability, sample, subset_probability,
                    total_variation)
from .geometry import (HessianForm, IdentityResiduals, NullSpaceBasis,
                       decompose_null_direction, directional_derivative,
                       expected_log_likelihood, fourth_order_form,
                       hessian_matrix, hessian_quadratic_form, identity_residuals,
                       likelihood_gradient, min_curvature, null_space_basis)
from .estimation import (BlockwiseLoss, LossValue, MleConfig, MleResult,
                         RiskEstimate, asymptotic_covariance, blockwise_loss,
                         empirical_log_likelihood, estimate_risk, fit_mle,
                         moment_init, sign_orbit_loss)
from .experiments import (SlopeFit, fit_loglog_slope, fit_semilog_slope,
                          parse_kernel_spec, random_kernel, random_symmetric)

__version__ = "0.1.0"
