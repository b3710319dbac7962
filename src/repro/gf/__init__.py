"""Finite-field substrate used by every coding layer of the CSM reproduction.

The paper operates over an arbitrary field ``F`` whose size is at least the
network size ``N``.  Two constructions are provided:

* :class:`~repro.gf.prime_field.PrimeField` — ``GF(p)`` for a prime ``p``,
  with numpy-vectorised arithmetic.  The default modulus is the Mersenne
  prime ``2**31 - 1`` so element products fit in ``int64`` without overflow.
* :class:`~repro.gf.extension_field.BinaryExtensionField` — ``GF(2**m)``,
  used by the Appendix A embedding of Boolean state machines.

On top of the fields the package provides sparse multivariate polynomials
(:class:`~repro.gf.multivariate.MultivariatePolynomial`, the algebra
state-transition functions are built with; a transition compiles them into
the monomial table it evaluates), Vandermonde matrices, finite-field linear
algebra (solve, inverse, matrix-vector product) and the process-wide cache of
the encode and decode matrices built from them, among them the Lagrange
coefficient matrix ``C`` of equation (7).  A univariate polynomial is never an
object: it is its coefficient array, low degree first.  :mod:`repro.gf.charges`
states the field-operation charge of each kind of work once.
"""

from repro.gf.field import Field
from repro.gf.prime_field import PrimeField, DEFAULT_PRIME
from repro.gf.extension_field import BinaryExtensionField
from repro.gf.multivariate import MultivariatePolynomial
from repro.gf.vandermonde import vandermonde_matrix
from repro.gf.linalg import gf_matvec, gf_solve, gf_inverse_matrix
from repro.gf.matrix_cache import (
    cached_interpolation_matrix,
    cached_transfer_matrix,
    cached_vandermonde,
    clear_matrix_cache,
    matrix_cache_info,
)

__all__ = [
    "Field",
    "PrimeField",
    "DEFAULT_PRIME",
    "BinaryExtensionField",
    "MultivariatePolynomial",
    "vandermonde_matrix",
    "gf_matvec",
    "gf_solve",
    "gf_inverse_matrix",
    "cached_interpolation_matrix",
    "cached_transfer_matrix",
    "cached_vandermonde",
    "clear_matrix_cache",
    "matrix_cache_info",
]
