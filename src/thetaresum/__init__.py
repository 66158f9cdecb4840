"""Median resummation toolkit for partial-theta-type formal series.

Pipeline: four-residue periodic functions -> exact expansion coefficients via
Bernoulli sums -> Borel transform (Taylor, closed form, singularities) ->
lateral/median Laplace resummation and its discontinuity -> boundary values
at rationals tied to theta radial limits and finite root-of-unity sums.

One name per object: f~ is TildeFunction(f), D(s,t) the tuple pair_set(s, t),
the Borel singular ray the (l, position) pairs of singularities(series, count).
"""

from .precision import DEFAULT_CTX, Estimate, PrecisionContext
from .periodic import (ChiParams, PeriodicFunction, TildeFunction, chi_function,
                       make_periodic, pair_set, s_matrix_entry, verify_decomposition)
from .exact import FormalSeries, bernoulli_polynomial, l_value, series_coefficients
from .qseries import ThetaSpec, eichler_integral, theta_radial_limit, theta_upper_half
from .borel import borel_coefficients, borel_eval, singularities
from .resum import boundary_median, discontinuity, lateral_sum, median_sum
from .habiro import (RootOfUnity, StrangeConfig, hikami_x, q_binomial, q_pochhammer,
                     verify_strange)
from .config import (Config, config_chi, config_general, config_hikami,
                     config_t3_2k, trefoil_chi, trefoil_strange)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_CTX", "Estimate", "PrecisionContext",
    "ChiParams", "PeriodicFunction", "TildeFunction", "chi_function",
    "make_periodic", "pair_set", "s_matrix_entry", "verify_decomposition",
    "FormalSeries", "bernoulli_polynomial", "l_value", "series_coefficients",
    "ThetaSpec", "eichler_integral", "theta_radial_limit", "theta_upper_half",
    "borel_coefficients", "borel_eval", "singularities",
    "boundary_median", "discontinuity", "lateral_sum", "median_sum",
    "RootOfUnity", "StrangeConfig", "hikami_x", "q_binomial", "q_pochhammer",
    "verify_strange",
    "Config", "config_chi", "config_general", "config_hikami", "config_t3_2k",
    "trefoil_chi", "trefoil_strange",
]
