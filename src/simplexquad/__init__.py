"""Exact posterior moments of multinomial bin probabilities and
numerical integration over the probability simplex.

The closed-form route (``moments``) evaluates normalization integrals
and moment ratios through log-gamma arithmetic. The numerical routes
(``quadrature``) integrate arbitrary prior-weighted functions over the
simplex after a spherical change of variables that turns the simplex
into an axis-aligned box of angles. ``expressions`` supplies a small
parser for prior weight functions used by the command line tool.

Each module's ``__all__`` decides which of its names are public; the
package re-exports exactly those.
"""

from . import expressions, moments, quadrature, special, spherical
from .expressions import *  # noqa: F401,F403
from .moments import *  # noqa: F401,F403
from .quadrature import *  # noqa: F401,F403
from .special import *  # noqa: F401,F403
from .spherical import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += special.__all__
__all__ += spherical.__all__
__all__ += moments.__all__
__all__ += quadrature.__all__
__all__ += expressions.__all__
