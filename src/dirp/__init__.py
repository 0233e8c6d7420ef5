"""dirp: certified exploration of directional Poincare inequalities on the
torus and diffusion contraction on the circle.

Highlights:
  - exact/interval reals (`CertifiedReal`, `QuadExact`) that decide signs
    of inner products <k, alpha> rigorously;
  - sparse trigonometric polynomials and their Parseval-exact norms;
  - continued fractions, lattice minima, Hurwitz witnesses;
  - named extremizer families and sharpness tables;
  - a grid diffusion model with exact p = 2 contraction factors.
"""

__version__ = "1.0.0"

from .certified import CertifiedReal
from .diffusion import (ContractionEstimate, GridFunction, GridMeasure, RVSpec,
                        apply_markov, cesaro_average, contraction_factor,
                        convolution_power, convolve, density_floor_check,
                        measure_from_rv, parse_rv, scaling_fit,
                        taylor_limit_check)
from .diophantine import (CFExpansion, LatticeSearchResult, LinearFormSystem,
                          bounded_quotient_report, cf_expand, delta_from_sigma,
                          hurwitz_witnesses, lattice_min, lattice_min_profile,
                          markov_bounds, roth_exponents, system_lattice_min)
from .directions import Direction, inner_product, liouville_constant, \
    make_direction, parse_direction
from .errors import (DepthNotCertified, DimensionMismatch, DirpError,
                     GridMismatch, NonpositiveSigma, ParseError,
                     PrecisionCapExceeded, PrecisionExhausted, RationalRatio,
                     UnderResolved, UnsupportedLevel, ZeroDrift, ZeroFunction)
from .extremizers import (FamilyMember, convergent_wave, fibonacci_family,
                          liouville_family, sharpness_table)
from .precision import DEFAULT_CONTEXT, PrecisionContext
from .quadratic import GOLDEN_RATIO, SQRT2, QuadExact
from .spectral import (TrigPoly, directional_norm, directional_symbol,
                       grad_norm, half_mass_cutoff, l2_norm,
                       multi_directional_functional, multiplier_norm,
                       poincare_ratio)
