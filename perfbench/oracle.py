"""Reference computations for the benchmark checks, built apart from the package.

Nothing here imports qutrit_bloch.  Every quantity is computed from numpy and
explicit matrix literals by a different route than the package takes:
spectra from LAPACK (numpy.linalg.eigvalsh) instead of the closed-form
Cardano solver, state constraints from matrix invariants instead of the star
product, Haar draws by Gram-Schmidt instead of Householder QR, and triangle
quantities from barycentric weights instead of the (n3, n8) polynomials.
All functions broadcast over leading axes.
"""

from __future__ import annotations

import numpy as np

SQRT3 = np.sqrt(3.0)
LN3 = np.log(3.0)

# The eight Gell-Mann matrices, entry by entry, Tr(l_i l_j) = 2 delta_ij.
LAMBDA = np.array(
    [
        [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
        [[0, -1j, 0], [1j, 0, 0], [0, 0, 0]],
        [[1, 0, 0], [0, -1, 0], [0, 0, 0]],
        [[0, 0, 1], [0, 0, 0], [1, 0, 0]],
        [[0, 0, -1j], [0, 0, 0], [1j, 0, 0]],
        [[0, 0, 0], [0, 0, 1], [0, 1, 0]],
        [[0, 0, 0], [0, 0, -1j], [0, 1j, 0]],
        [[1 / SQRT3, 0, 0], [0, 1 / SQRT3, 0], [0, 0, -2 / SQRT3]],
    ],
    dtype=complex,
)


def rho_from_bloch(n) -> np.ndarray:
    """(1/3)(I + sqrt(3) n.lambda)."""
    n = np.asarray(n, dtype=float)
    return (np.eye(3) + SQRT3 * np.einsum("...i,ijk->...jk", n, LAMBDA)) / 3.0


def bloch_from_rho(rho) -> np.ndarray:
    """n_j = (sqrt(3)/2) Tr(rho lambda_j)."""
    return (SQRT3 / 2.0) * np.real(np.einsum("...ab,jba->...j", rho, LAMBDA))


def spectrum(rho) -> np.ndarray:
    """Eigenvalues, descending, from LAPACK."""
    return np.linalg.eigvalsh(rho)[..., ::-1]


def entropy(weights) -> np.ndarray:
    """Base-3 Shannon entropy of a probability triple, 0 log 0 = 0.

    Round-off below zero is clipped, as for any eigenvalue triple of a state.
    """
    x = np.clip(np.asarray(weights, dtype=float), 0.0, None)
    safe = np.where(x > 0.0, x, 1.0)
    return -np.sum(x * np.log(safe), axis=-1) / LN3


def constraints(rho) -> tuple[np.ndarray, np.ndarray]:
    """(q1, q2) from invariants: q1 = (3 Tr rho^2 - 1)/2, q2 = 1 - 27 det rho."""
    tr2 = np.real(np.einsum("...ab,...ba->...", rho, rho))
    return (3.0 * tr2 - 1.0) / 2.0, 1.0 - 27.0 * np.real(np.linalg.det(rho))


def char_poly(rho) -> np.ndarray:
    """(c1, c2, c3) = (Tr rho, (Tr^2 rho - Tr rho^2)/2, det rho)."""
    tr = np.real(np.trace(rho, axis1=-2, axis2=-1))
    tr2 = np.real(np.einsum("...ab,...ba->...", rho, rho))
    return np.stack([tr, (tr * tr - tr2) / 2.0, np.real(np.linalg.det(rho))], axis=-1)


def _gram_schmidt(z: np.ndarray) -> np.ndarray:
    """Orthonormalize the columns of each 3x3 matrix, twice-iterated MGS.

    Equals the Q of a QR factorization whose R has a positive real diagonal,
    which is the unique Q the package's phase fix selects.
    """
    q = np.array(z, dtype=complex)
    for k in range(3):
        for _ in range(2):
            for j in range(k):
                proj = np.sum(q[..., :, j].conj() * q[..., :, k], axis=-1)
                q[..., :, k] -= proj[..., None] * q[..., :, j]
        q[..., :, k] /= np.linalg.norm(q[..., :, k], axis=-1)[..., None]
    return q


def haar_from_rng(rng: np.random.Generator, count: int) -> np.ndarray:
    """The next `count` Haar SU(3) draws of a PCG64 generator.

    Per draw the stream yields nine real parts, then nine imaginary parts, in
    row-major order: the order the package consumes it in.
    """
    g = rng.standard_normal((count, 2, 3, 3))
    q = _gram_schmidt(g[:, 0] + 1j * g[:, 1])
    det = np.linalg.det(q)
    return q * np.exp(-1j * np.angle(det) / 3.0)[:, None, None]


def haar_su3(seed: int, count: int) -> np.ndarray:
    """The first `count` Haar SU(3) draws for `seed`, as the package draws them."""
    return haar_from_rng(np.random.default_rng(seed), count)


def adjoint(u) -> np.ndarray:
    """Ad(U)_ij = (1/2) Re Tr(lambda_i U lambda_j U^dag)."""
    return 0.5 * np.real(np.einsum("iab,...bc,jcd,...ad->...ij", LAMBDA, u, LAMBDA, np.conj(u)))


def orbit(n, count: int, seed: int) -> np.ndarray:
    """Rows Ad(U_k) n for the first `count` Haar draws of `seed`."""
    return adjoint(haar_su3(seed, count)) @ np.asarray(n, dtype=float)


def same_up_to_center(u, v, tol: float) -> bool:
    """U equals V times a cube root of unity (the SU(3) center)."""
    roots = np.exp(2j * np.pi * np.arange(3) / 3.0)
    return min(float(np.max(np.abs(u - w * v))) for w in roots) <= tol


def barycentric(n3, n8) -> np.ndarray:
    """Weights of (n3, n8) on the vertices R, B, G: the diagonal of rho."""
    n3 = np.asarray(n3, dtype=float)
    n8 = np.asarray(n8, dtype=float)
    r = np.array([SQRT3 / 2, 0.5])
    b = np.array([-SQRT3 / 2, 0.5])
    g = np.array([0.0, -1.0])
    # Solve p = w_r r + w_b b + w_g g with w_r + w_b + w_g = 1 by areas.
    area = (b[0] - r[0]) * (g[1] - r[1]) - (g[0] - r[0]) * (b[1] - r[1])

    def signed(p_a, p_b):
        return ((p_b[0] - p_a[0]) * (n8 - p_a[1]) - (n3 - p_a[0]) * (p_b[1] - p_a[1])) / area

    return np.stack([signed(b, g), signed(g, r), signed(r, b)], axis=-1)


def triangle_constraints(w) -> tuple[np.ndarray, np.ndarray]:
    """(q1, q2) of the diagonal state with eigenvalues w."""
    return (3.0 * np.sum(w * w, axis=-1) - 1.0) / 2.0, 1.0 - 27.0 * np.prod(w, axis=-1)
