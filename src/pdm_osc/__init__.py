"""Two-dimensional nonlinear oscillator with position-dependent mass.

Exact bound-state spectra and wavefunctions via the parametric
Nikiforov-Uvarov reduction, plus canonical thermodynamics of the truncated
state sum evaluated by three mutually validating strategies.
"""

__version__ = "0.1.0"

from . import errors, nu, oscillator, specfun, thermo
from .errors import *
from .nu import *
from .oscillator import *
from .specfun import *
from .thermo import *

__all__ = ["__version__", *errors.__all__, *specfun.__all__, *nu.__all__, *oscillator.__all__,
           *thermo.__all__]
