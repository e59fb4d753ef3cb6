"""Zero-sum matrix game toolkit.

Core fact under test: the marginal strategies of any ε-coarse-correlated
equilibrium of a two-player zero-sum game form a 2ε-Nash equilibrium.  The
package provides the game and distribution types, the gap calculators, the
no-regret learners that produce empirical coarse-correlated equilibria through
self-play, and an exact LP value solver.
"""

from . import equilibrium, games, learners, oracle
from .equilibrium import *
from .games import *
from .learners import *
from .oracle import *

__all__ = equilibrium.__all__ + games.__all__ + learners.__all__ + oracle.__all__
