"""Sharp Frobenius-norm perturbation coefficients for polar factors.

Closed-form sharp upper and lower constants for the subunitary and positive
factors of the generalized polar decomposition, constructive matrix pairs
attaining each constant, brute-force oracles over the extreme points of the
signed substochastic polytope, and a seeded randomized falsification suite.
"""

__version__ = "0.1.0"

from .bounds import (
    KRatioTable,
    amgm_coeff,
    cauchy_schwarz_coeff,
    h_lower_coeff,
    h_upper_coeff,
    kittaneh_lower_coeff,
    kittaneh_upper_coeff,
    lee_lower_coeff,
    lee_upper_coeff,
    li_sun_coeff,
    q_lower_coeff,
    q_upper_coeff,
    refined_li_sun_coeff,
)
from .extremal import ExtremalWitness, make_witness, verify_witness
from .linalg import PolarFactors, SvdResult, haar_random_unitary, polar_decompose, svd
from .montecarlo import EnsembleConfig, SuiteReport, random_matrix_with_spectrum, run_verification_suite
from .oracle import brute_force_f_extrema, brute_force_kittaneh, directional_move_check
from .spectra import (
    BoundResult,
    EigenPair,
    FGScalars,
    SpectrumPair,
    fg_scalars,
    validate_eigen_pair,
    validate_spectrum_pair,
)

__all__ = [
    # closed forms (bounds)
    "KRatioTable", "amgm_coeff", "cauchy_schwarz_coeff", "h_lower_coeff", "h_upper_coeff",
    "kittaneh_lower_coeff", "kittaneh_upper_coeff", "lee_lower_coeff", "lee_upper_coeff",
    "li_sun_coeff", "q_lower_coeff", "q_upper_coeff", "refined_li_sun_coeff",
    # witnesses (extremal)
    "ExtremalWitness", "make_witness", "verify_witness",
    # linear algebra (linalg)
    "PolarFactors", "SvdResult", "haar_random_unitary", "polar_decompose", "svd",
    # falsification campaign (montecarlo)
    "EnsembleConfig", "SuiteReport", "random_matrix_with_spectrum", "run_verification_suite",
    # brute-force oracles (oracle)
    "brute_force_f_extrema", "brute_force_kittaneh", "directional_move_check",
    # spectrum pairs and their scalars (spectra)
    "BoundResult", "EigenPair", "FGScalars", "SpectrumPair", "fg_scalars",
    "validate_eigen_pair", "validate_spectrum_pair",
]
