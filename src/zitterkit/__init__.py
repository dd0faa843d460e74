"""Classical dynamics of spinning particles with Zitterbewegung.

A library and CLI built around a higher-derivative Lagrangian family: exact
Minkowski spin-tensor algebra, the order-n free theory and its n=1 canonical
form, RK4 dynamics with conservation monitors, the non-relativistic
fourth-order force law with its generalized work-energy theorem and
barrier-crossing detector, a numerical Poisson-bracket engine, and
gamma-matrix operator identity checks.  The package exports each name in
the ``__all__`` of the seven modules imported below.
"""

from .brackets import *
from .dirac_check import *
from .dynamics import *
from .forms import *
from .lagrangian import *
from .minkowski import *
from .nonrel import *

__version__ = "0.1.0"
