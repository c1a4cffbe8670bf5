"""Exact homological invariants of generalized fibre sums of closed,
oriented 4-manifolds.

Given two sides described by algebraic data (Betti numbers, first
homology, the embedding of the surface on homology, pairing numbers of
the canonical class) and a gluing vector, the library computes the Betti
numbers and first homology of the sum, its rim-tori and split-class
groups, the block intersection form with its unimodular classification,
and the canonical class of the symplectic sum, all in exact integer
arithmetic with full internal cross-validation.

Each public name is declared once, in its module's ``__all__``; the
package republishes those names and nothing else.
"""

from . import abgroups, engine, forms, intlat, model
from .abgroups import *
from .engine import *
from .forms import *
from .intlat import *
from .model import *

__version__ = "0.1.0"

__all__ = sorted(name for module in (abgroups, engine, forms, intlat, model) for name in module.__all__)
