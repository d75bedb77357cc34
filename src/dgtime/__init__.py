"""DG time stepping for linearly constrained parabolic systems.

Discontinuous Galerkin discretization in time (piecewise polynomials of
degree q - 1 per slab) for systems M u' + A u + B1^T p = f subject to
linear constraints B1 u = g1 (weak, via a Lagrange multiplier) and
B2 u = g2 (explicit, eliminated with pinv([B1; B2])).  Constraint data is
projected slab-wise onto polynomials that interpolate at the slab
endpoints; this single modification preserves nodal superconvergence of
order 2q - 1 and the optimal multiplier rate q, both of which degrade with
plain data treatment.
"""

from . import analysis, dgsolver, projection, systems, timecore
from .analysis import *
from .dgsolver import *
from .projection import *
from .systems import *
from .timecore import *

__version__ = "0.1.0"

# each public name once, in module order; DataError is in dgsolver's and projection's
__all__ = list(dict.fromkeys(name for module in (analysis, dgsolver, projection, systems, timecore)
                             for name in module.__all__))
