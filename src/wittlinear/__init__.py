"""Exact Witt-theoretic invariants of linear schemes over the reals.

The package computes, in exact integer arithmetic, where multiplication
by the rank-2 form <<-1>> acts bijectively on the ideal-filtration
cohomology of schemes built from cells by open/closed decompositions,
and what the cokernels look like where it does not: construction
levels, bijectivity ranges, explicit cell cohomology as shifted ideal
sums, and the resulting ranges and 2-power cokernel exponents for the
comparison map to singular cohomology.
"""

# each submodule's __all__ is the one list of its public names
from .cells import *
from .grammar import *
from .ranges import *
from .schemes import *
from .shifted import *
from .witt import *

__version__ = "0.1.0"
