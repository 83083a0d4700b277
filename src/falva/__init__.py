"""falva: fractional action-like variational calculus.

Weighted action functionals whose Lagrangian is integrated against a
power-law observer weight, the left/right Riemann-Liouville and combined
complex (Cresson) fractional derivative operators that feed them, the
matching Euler-Lagrange residuals in one, two and three dimensions, a
shooting solver and a direct discrete minimizer for the one-dimensional
extremal problem, and a CSV-emitting command line front end.

The public names are each module's ``__all__``, re-exported here.
"""

__version__ = "0.1.0"

from . import action, errors, euler, exprdsl, fracops, numcore
from .action import *
from .errors import *
from .euler import *
from .exprdsl import *
from .fracops import *
from .numcore import *

__all__ = ["__version__"]
for _module in (numcore, exprdsl, fracops, action, euler, errors):
    __all__ += _module.__all__
del _module
