"""betacert: certified interval computations for counting base-q expansions.

The package certifies explicit parameter ranges of the base q in (1, 2)
where points with a prescribed number of base-q digit expansions exist,
by rigorous enclosure arithmetic: k-Bonacci root isolation, gap/bridge
geometry of avoidance subshifts, Newhouse thickness, and inequality
certification, surfaced through the `betacert` command line tool.

Each module's __all__ lists its exports; the package re-exports them all.
"""

from . import (certificate, certify, constructions, expansions, realnum,
               symbolic, thickness)

__version__ = "0.1.0"

# read before the star imports: `from .thickness import *` rebinds the
# package name `thickness` from the module to the function
__all__ = (certificate.__all__ + certify.__all__ + constructions.__all__
           + expansions.__all__ + realnum.__all__ + symbolic.__all__
           + thickness.__all__ + ["__version__"])

from .certificate import *
from .certify import *
from .constructions import *
from .expansions import *
from .realnum import *
from .symbolic import *
from .thickness import *
