"""jmult: generalized Hilbert coefficients, j-multiplicity, reduction numbers
and Northcott inequality reports for ideals in polynomial rings and their
quotients over a large prime field, with three cross-validating computational
routes."""

__version__ = "0.1.0"
