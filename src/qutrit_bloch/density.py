"""Density-matrix representation: conversions, spectra, entropy.

Implements both directions of rho = (1/3)(I + sqrt(3) n.lambda).  The inverse
map n_j = (sqrt(3)/2) Tr(rho lambda_j) is not an independent convention: it is
forced by Tr(lambda_i lambda_j) = 2 delta_ij.

Validity has one definition: a Hermitian unit-trace rho is a state when its
vector lies in the state body {q1 <= 1, q2 <= 1}, q1 = |n|^2 and q2 = 3|n|^2 -
2 n.(n star n), with tol an absolute slack on both.  As c2 = (1 - q1)/3 and
c3 = (1 - q2)/27 are its characteristic-polynomial coefficients, the bounds are
c2, c3 >= 0, which is positivity; no gate solves an eigenproblem.

Eigenvalues of 3x3 Hermitian matrices come from LAPACK's symmetric solver
(np.linalg.eigvalsh) on the Hermitian part, accurate to about 1e-15 even at a
(near-)double root and byte-identical from run to run.  Entropy of mixing
uses base-3 logarithms, normalizing the maximally mixed state to 1.

Every function broadcasts over leading axes: (..., 8) vectors and (..., 3, 3)
matrices give stacks of results, while one vector or matrix gives the same
Python types and bits as a scalar-only implementation.  Each public call
checks its input once; internal code calls the kernels behind the checks.
The density gate's own projection of a checked rho is judged, not checked again.
"""

from __future__ import annotations

import math

import numpy as np

from .bloch import (
    DEFAULT_TOL, ValidationError, _built, _checked, _checked_matrix, _converted, _require_all, _require_state
)
from .gellmann import _LAMBDA, SQRT3, _dot_lambda, _project

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12

_EYE3 = np.eye(3)
_LN3 = math.log(3.0)


def _bloch_matrix(n) -> np.ndarray:
    """(1/3)(I + sqrt(3) n.lambda) of a validated (..., 8) array, in real arithmetic: the bits of the
    complex expression (whose / 3 multiplies by 1/3), but an overflow reads +-inf, not NaN."""
    rho = _dot_lambda(n)
    parts = rho.view(float)
    parts *= SQRT3
    rho.real += _EYE3
    parts *= 1 / 3
    return rho


def bloch_matrix(n) -> np.ndarray:
    """Evaluate (1/3)(I + sqrt(3) n.lambda) with no state-validity check.

    Always Hermitian with unit trace; positive semidefinite only when n
    satisfies the state constraints.  A (..., 8) stack gives (..., 3, 3), and
    an entry too large for a double reads +-inf, with no warning.
    """
    with np.errstate(over="ignore"):
        return _bloch_matrix(_checked(n)[0])


def from_bloch(n, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Density matrix of a valid Bloch vector, or a (..., 3, 3) stack of them.

    Raises ValidationError naming the violated constraint when n (or the
    first failing vector of a stack) does not parametrize a state.
    """
    return _bloch_matrix(_require_state(*_checked(n), tol))


def to_bloch(rho, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Bloch vector n_j = (sqrt(3)/2) Tr(rho lambda_j) of a density matrix.

    Raises ValidationError naming the violated invariant: shape, finiteness,
    Hermiticity, unit trace, or the state constraints of n with slack tol.
    A (..., 3, 3) stack gives (..., 8); it raises for its first matrix, in C
    order, that fails Hermiticity or trace, then for the first whose vector
    is not a state.
    """
    return _checked_density(rho, tol)[1]


def _checked_density(rho, tol: float = DEFAULT_TOL):
    """The one gate of every density matrix, to_bloch's: the checked complex rho and its vector."""
    rho = _checked_matrix(rho, 3)
    with np.errstate(over="ignore"):  # finite entries: an overflowing deviation or vector reads inf and fails
        herm_dev = np.abs(rho - rho.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
        trace_dev = abs(rho.trace(axis1=-2, axis2=-1) - 1.0)
        n = SQRT3 * _project(rho, _LAMBDA)
    _require_all(
        [
            (herm_dev <= HERMITICITY_TOL, herm_dev, "not Hermitian: max |rho - rho^dag| = {:.3e}"),
            (trace_dev <= TRACE_TOL, trace_dev, "trace must be 1: |Tr rho - 1| = {:.3e}"),
        ]
    )
    return rho, _require_state(*_built(n), tol)  # the gate's own projection, judged without a second check


def eigvals_hermitian_3x3(mat) -> np.ndarray:
    """Eigenvalues of a 3x3 Hermitian matrix, descending; stacks broadcast.

    Raises ValidationError on a wrong shape or a non-finite entry; no other
    validation is performed here.
    """
    return _eigvalsh(_checked_matrix(mat, 3))


def _eigvalsh(a) -> np.ndarray:
    """Descending eigenvalues of the Hermitian part of a checked (..., 3, 3) complex array,
    taken as 0.5 a + 0.5 a^dag, which cannot overflow."""
    return np.linalg.eigvalsh(0.5 * a + 0.5 * a.conj().swapaxes(-1, -2))[..., ::-1]


def validate_density(rho) -> np.ndarray:
    """Run to_bloch's checks on rho (default tol); return rho as a complex array."""
    return _checked_density(rho)[0]


def spectrum(rho) -> np.ndarray:
    """Eigenvalues (x1 >= x2 >= x3) of a valid density matrix; stacks broadcast."""
    return _eigvalsh(_checked_density(rho)[0])


def char_poly_coeffs(rho):
    """Characteristic-polynomial coefficients (c1, c2, c3) of a density matrix.

    c1 = x1+x2+x3 = 1, c2 = x1 x2 + x2 x3 + x1 x3 = (1 - Tr rho^2)/2 and
    c3 = x1 x2 x3 = det rho, so rho^3 - c1 rho^2 + c2 rho - c3 I = 0.
    Valid states satisfy c2 in [0, 1/3] and c3 in [0, 1/27].  One matrix
    gives three floats, a (..., 3, 3) stack three arrays of shape (...).
    """
    rho = _checked_density(rho)[0]
    c1 = rho.trace(axis1=-2, axis2=-1).real
    c2 = (c1 * c1 - np.einsum("...ab,...ba->...", rho, rho).real) / 2.0
    c3 = np.linalg.det(rho).real
    return (float(c1), float(c2), float(c3)) if rho.ndim == 2 else (c1, c2, c3)


def mixing_entropy(eigenvalues) -> float | np.ndarray:
    """Base-3 Shannon entropy -sum_i x_i log3 x_i, with 0 log 0 = 0.

    The triple runs along the first axis and any further axes broadcast, so
    an array of shape (3, ...) gives entropies of shape (...); a plain triple
    gives a scalar.  Entries within round-off below zero are clipped; inputs
    are expected to sum to 1.
    """
    xs = _converted(eigenvalues, "iuf", float, "eigenvalues must be real numbers")
    if xs.shape[:1] != (3,):
        raise ValidationError(f"eigenvalue triples must run along the first axis, got shape {xs.shape}")
    return _entropy(*_xlogx(xs))


def _xlogx(x) -> np.ndarray:
    """x log x elementwise in doubles, with 0 log 0 = 0; entries below zero count as 0."""
    x = np.maximum(x, 0.0, dtype=float)
    return x * np.log(np.where(x > 0, x, 1))


def _entropy(h0, h1, h2):
    """The one entropy sum: -(h0 + h1 + h2)/ln 3 of x log x terms, in the order numpy sums a triple."""
    return -((h0 + h1) + h2) / _LN3 + 0.0  # +0.0 kills -0.0


def entropy_of_mixing(rho):
    """Entropy of mixing E(rho) = -sum_i x_i log3 x_i, in [0, 1]; stacks broadcast."""
    return _entropy(*_xlogx(spectrum(rho)).T).T  # .T twice keeps the leading axes in order
