"""Exact computer algebra for braided tensor and exterior Hopf algebras,
Hopf bimodules over finite-dimensional Hopf algebras, and bicovariant
differential calculi.

All arithmetic is exact, in cyclotomic fields over the rationals.
"""

__version__ = "0.1.0"

from .cyclotomic import Scalar  # noqa: F401
from .matrix import Matrix  # noqa: F401
from .braiding import BraidedSpace  # noqa: F401
from .hopf import HopfAlgebraData  # noqa: F401
from .bimodules import CrossedModule, HopfBimodule  # noqa: F401
from .calculus import FirstOrderCalculus  # noqa: F401
