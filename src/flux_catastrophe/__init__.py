"""Numerical toolkit for ground-state overlaps of a magnetically perturbed
1D Fermi gas: flux profiles, generalized Toeplitz determinants,
decay-exponent fits, the Anderson-integral upper bound, the Dirichlet
Hilbert-matrix reduction and ground-state energy differences.

The six experiments run through the JSON-config CLI (``cli.main``); the
submodules are imported directly.
"""

__version__ = "0.1.0"
