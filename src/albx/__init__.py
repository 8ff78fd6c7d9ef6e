"""Exact generalized Jacobians of singular rational curves.

The package computes, over the rationals and with no floating point
anywhere, the universal receptor (generalized Albanese) of a singular
projective curve whose normalization is a disjoint union of projective
lines: the lattice and Lie kernels cutting out its formal group of
divisors, the Cartier-dual linear group, Serre local symbols with their
reciprocity law, and the Abel-Jacobi map deciding rational equivalence
of 0-cycles.
"""

from .curve import (
    CurveConfig,
    Divisor,
    SingularPoint,
    curve_from_modulus,
    degree_per_component,
    pushforward_weil,
    validate,
)
from .chow import (
    AJPoint,
    CartierFunction,
    ZeroCycle,
    abel_jacobi,
    div_C,
    interpolate_divisor,
    is_cartier_unit,
    rationally_equivalent,
)
from .funcfield import (
    INF,
    LaurentSeries,
    Place,
    Poly,
    RatFunc,
    dlog,
    expand_at,
    residue,
    val_at,
)
from .infdiv import (
    FormalGroupData,
    InfinitesimalDivisor,
    divisor_group,
    etale_kernel,
    lie_kernel,
    residue_pairing,
)
from .motive import (
    OneMotive,
    albanese,
    double_dual_check,
    dualize,
    linear_group,
    one_motive,
)
from .symbols import Modulus, SymbolValue, is_modulus, reciprocity_check, residue_symbol, tame_symbol

__version__ = "0.1.0"
