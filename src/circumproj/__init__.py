"""Best approximation onto intersections of affine subspaces.

Circumcentered iteration schemes next to the classical projection methods
(cyclic, symmetrized, accelerated, Douglas Rachford), plus the machinery to
compute the theoretical linear rates those schemes obey and audit every
bound against observed iterates.
"""

__version__ = "0.1.0"

# The modules are bound before the star imports: after them,
# ``from . import circumcenter`` would return the exported function of that
# name instead of the module.
from . import numerics as _numerics, subspace as _subspace, isometry as _isometry
from . import circumcenter as _circumcenter, methods as _methods, rates as _rates
from . import bench as _bench
from .numerics import *
from .subspace import *
from .isometry import *
from .circumcenter import *
from .methods import *
from .rates import *
from .bench import *

__all__ = ["__version__", *_numerics.__all__, *_subspace.__all__, *_isometry.__all__,
           *_circumcenter.__all__, *_methods.__all__, *_rates.__all__, *_bench.__all__]
