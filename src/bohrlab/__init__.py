"""bohrlab: verified numerics for Bohr majorants of operator-valued
analytic and polyanalytic functions.

The layers, bottom up:

* opmat   dense complex matrices, spectral norm, |A|
* series  truncated matrix power series with certified Bohr enclosures
* zoo     function families (Blaschke, Schur, convex, starlike, layered)
* radii   radius equations with bracketed bisection roots and caps
* harness randomized verification campaigns and report emission
* cli     the bohrlab command line tool
"""

from . import harness, opmat, radii, series, zoo
from .opmat import *
from .series import *
from .zoo import *
from .radii import *
from .harness import *

__all__ = [*opmat.__all__, *series.__all__, *zoo.__all__, *radii.__all__, *harness.__all__]
__version__ = "0.1.0"
