"""Density-matrix representation: conversions, spectra, entropy.

Implements both directions of rho = (1/3)(I + sqrt(3) n.lambda).  The inverse
map n_j = (sqrt(3)/2) Tr(rho lambda_j) is not an independent convention: it is
forced by Tr(lambda_i lambda_j) = 2 delta_ij.

Validity has one definition: a Hermitian unit-trace rho is a state when its
vector has q1 = |n|^2 and q2 = 3|n|^2 - 2 n.(n star n) in [-tol, 1 + tol], so
tol is an absolute slack on q1 and q2.  As c2 = (1 - q1)/3 and c3 = (1 - q2)/27
are its characteristic-polynomial coefficients, q1, q2 <= 1 is c2, c3 >= 0,
which is positivity; no gate solves an eigenproblem.

Eigenvalues of 3x3 Hermitian matrices are computed by the closed-form
trigonometric (Cardano) method, so results are deterministic across platforms
and need no iterative solver.  Entropy of mixing uses base-3 logarithms,
normalizing the maximally mixed state to 1.
"""

from __future__ import annotations

import math

import numpy as np

from .bloch import DEFAULT_TOL, ValidationError, _require_state, as_bloch_vector
from .gellmann import _LAMBDA, SQRT3

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12

_EYE3 = np.eye(3)
_LN3 = math.log(3.0)


def bloch_matrix(n) -> np.ndarray:
    """Evaluate (1/3)(I + sqrt(3) n.lambda) with no state-validity check.

    Always Hermitian with unit trace; positive semidefinite only when n
    satisfies the state constraints.
    """
    n = as_bloch_vector(n)
    return (_EYE3 + SQRT3 * np.einsum("i,ijk->jk", n, _LAMBDA)) / 3.0


def from_bloch(n, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Density matrix of a valid Bloch vector.

    Raises ValidationError naming the violated constraint when n does not
    parametrize a state.
    """
    return bloch_matrix(_require_state(n, tol))


def to_bloch(rho, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Bloch vector n_j = (sqrt(3)/2) Tr(rho lambda_j) of a density matrix.

    Raises ValidationError naming the violated invariant: shape, finiteness,
    Hermiticity, unit trace, or the state constraints of n with slack tol.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (3, 3):
        raise ValidationError(f"density matrix must be 3x3, got shape {rho.shape}")
    if not np.all(np.isfinite(rho.view(float))):
        raise ValidationError("density matrix entries must be finite")
    herm_dev = float(np.max(np.abs(rho - rho.conj().T)))
    if herm_dev > HERMITICITY_TOL:
        raise ValidationError(f"not Hermitian: max |rho - rho^dag| = {herm_dev:.3e}")
    trace_dev = abs(complex(rho.trace()) - 1.0)
    if trace_dev > TRACE_TOL:
        raise ValidationError(f"trace must be 1: |Tr rho - 1| = {trace_dev:.3e}")
    return _require_state((SQRT3 / 2.0) * np.real(np.einsum("ab,jba->j", rho, _LAMBDA)), tol)


def _det3(m: np.ndarray) -> complex:
    return (
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
    )


def eigvals_hermitian_3x3(mat) -> np.ndarray:
    """Eigenvalues of a 3x3 Hermitian matrix, descending, in closed form.

    Cardano's trigonometric method on the shifted/scaled characteristic
    polynomial: writing mat = mu*I + p*C with Tr C = 0 and Tr C^2 = 6
    (p >= 0), the shifted eigenvalues solve y^3 - 3y - 2r = 0 with
    r = det(C)/2, so with the acos argument clamped to [-1, 1]

        y_k = 2 cos((acos(r) + 2 pi k) / 3),   k = 0, 1, 2.

    Near a double root (r -> +-1) the cubic route alone is only sqrt(eps)
    accurate, so the roots are polished by one closed-form deflation step:
    a cross-product eigenvector for the best-separated root, a Rayleigh
    quotient for that root, and the exact 2x2 solution on the orthogonal
    complement for the remaining pair.  Everything stays deterministic and
    solver-free; accuracy is restored to O(eps).

    Only the Hermitian part of mat enters.  No validation is performed here.
    """
    a = np.asarray(mat, dtype=complex)
    if a.shape != (3, 3):
        raise ValidationError(f"expected a 3x3 matrix, got shape {a.shape}")
    a = 0.5 * (a + a.conj().T)
    mu = a.trace().real / 3.0
    b = a - mu * _EYE3
    p2 = (b * b.conj()).real.sum() / 6.0
    if p2 == 0.0:
        return np.array([mu, mu, mu])
    p = math.sqrt(p2)
    r = (_det3(b).real / (p * p * p)) / 2.0
    phi = math.acos(min(1.0, max(-1.0, r))) / 3.0
    e_max = mu + 2.0 * p * math.cos(phi)
    e_min = mu + 2.0 * p * math.cos(phi + 2.0 * math.pi / 3.0)
    e_mid = 3.0 * mu - e_max - e_min
    rough = np.sort(np.array([e_max, e_mid, e_min]))[::-1]
    return _deflation_polish(a, rough)


def _deflation_polish(a: np.ndarray, rough: np.ndarray) -> np.ndarray:
    """Refine Cardano roots via the best-separated root's eigenvector."""
    isolated = rough[0] if rough[0] - rough[1] >= rough[1] - rough[2] else rough[2]
    m = a - isolated * _EYE3
    crosses = [
        np.cross(m[0], m[1]),
        np.cross(m[0], m[2]),
        np.cross(m[1], m[2]),
    ]
    norms = [float(np.linalg.norm(c)) for c in crosses]
    best = int(np.argmax(norms))
    if norms[best] == 0.0:  # m is (numerically) rank <= 1; rough roots are fine
        return rough
    v = crosses[best] / norms[best]
    lam = float(np.real(v.conj() @ a @ v))
    # Orthonormal complement of v, seeded by the two least-aligned axes.
    order = np.argsort(np.abs(v))
    w1 = _EYE3[order[0]].astype(complex) - v * np.conj(v[order[0]])
    w1 /= np.linalg.norm(w1)
    w2 = _EYE3[order[1]].astype(complex) - v * np.conj(v[order[1]])
    w2 -= w1 * (w1.conj() @ w2)
    w2 /= np.linalg.norm(w2)
    b11 = float(np.real(w1.conj() @ a @ w1))
    b22 = float(np.real(w2.conj() @ a @ w2))
    b12 = complex(w1.conj() @ a @ w2)
    mean = 0.5 * (b11 + b22)
    h = math.hypot(0.5 * (b11 - b22), abs(b12))
    return np.sort(np.array([lam, mean + h, mean - h]))[::-1]


def validate_density(rho) -> np.ndarray:
    """Run to_bloch's checks on rho (default tol); return rho as a complex array."""
    to_bloch(rho)
    return np.asarray(rho, dtype=complex)


def spectrum(rho) -> np.ndarray:
    """Eigenvalues (x1 >= x2 >= x3) of a valid density matrix."""
    return eigvals_hermitian_3x3(validate_density(rho))


def char_poly_coeffs(rho) -> tuple[float, float, float]:
    """Characteristic-polynomial coefficients (c1, c2, c3) of a density matrix.

    c1 = x1+x2+x3 = 1, c2 = x1 x2 + x2 x3 + x1 x3 = (1 - Tr rho^2)/2 and
    c3 = x1 x2 x3 = det rho, so rho^3 - c1 rho^2 + c2 rho - c3 I = 0.
    Valid states satisfy c2 in [0, 1/3] and c3 in [0, 1/27].
    """
    rho = validate_density(rho)
    c1 = rho.trace().real
    tr2 = np.einsum("ab,ba->", rho, rho).real
    c2 = (c1 * c1 - tr2) / 2.0
    c3 = _det3(rho).real
    return float(c1), float(c2), float(c3)


def mixing_entropy(eigenvalues) -> float | np.ndarray:
    """Base-3 Shannon entropy -sum_i x_i log3 x_i, with 0 log 0 = 0.

    The triple runs along the first axis and any further axes broadcast, so
    an array of shape (3, ...) gives entropies of shape (...); a plain triple
    gives a scalar.  Entries within round-off below zero are clipped; inputs
    are expected to sum to 1.
    """
    xs = np.clip(np.asarray(eigenvalues, dtype=float), 0.0, None)
    terms = xs * np.log(np.where(xs > 0.0, xs, 1.0))
    return -terms.sum(axis=0) / _LN3 + 0.0  # +0.0 kills -0.0


def entropy_of_mixing(rho) -> float:
    """Entropy of mixing E(rho) = -sum_i x_i log3 x_i, in [0, 1]."""
    return mixing_entropy(spectrum(rho))
