"""Exact algebra of primitive Pythagorean triples.

Triples are held in canonical orientation (odd leg, even leg, hypotenuse) and
everything is computed over exact integers and fractions: half-angle-tangent
generators and key sequences, the ternary tree with path codes, inscribed
squares with the major/minor derivative calculus, and the divisibility
classes T1..T6.
"""

from . import generators, symphonic, tree, triple_core
from .triple_core import *
from .generators import *
from .tree import *
from .symphonic import *

__version__ = "0.1.0"

__all__ = [*triple_core.__all__, *generators.__all__, *tree.__all__, *symphonic.__all__]
