"""Verification workbench for removing edges from network coding codes.

Everything here is exhaustive and certificate-producing: codes are explicit
tables, error fractions are exact rationals, and every removal result is
re-verified on the restricted instance before it is returned.
"""

__version__ = "0.1.0"
