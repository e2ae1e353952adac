"""Shared oracle-side helpers.

Everything here is built from numpy and explicit matrix literals only, so
tests can check the package against independently constructed quantities.
"""

from __future__ import annotations

import numpy as np

SQRT3 = np.sqrt(3.0)

# Reference basis, written out from the standard displays.
LAMBDA_REF = np.array(
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

PAULI_REF = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)


def f_oracle(j: int, k: int, l: int) -> float:
    """f_jkl = (-i/4) Tr([lambda_j, lambda_k] lambda_l), 1-based indices."""
    a, b, c = LAMBDA_REF[j - 1], LAMBDA_REF[k - 1], LAMBDA_REF[l - 1]
    return float((-0.25j * np.trace((a @ b - b @ a) @ c)).real)


def d_oracle(j: int, k: int, l: int) -> float:
    """d_jkl = (1/4) Tr({lambda_j, lambda_k} lambda_l), 1-based indices."""
    a, b, c = LAMBDA_REF[j - 1], LAMBDA_REF[k - 1], LAMBDA_REF[l - 1]
    return float((0.25 * np.trace((a @ b + b @ a) @ c)).real)


def rho_from_bloch_oracle(n: np.ndarray) -> np.ndarray:
    """(1/3)(I + sqrt(3) n.lambda) from the reference basis; broadcasts."""
    n = np.asarray(n, dtype=float)
    return (np.eye(3) + SQRT3 * np.einsum("...i,ijk->...jk", n, LAMBDA_REF)) / 3.0


def bloch_from_rho_oracle(rho: np.ndarray) -> np.ndarray:
    """n_j = (sqrt(3)/2) Tr(rho lambda_j) from the reference basis; broadcasts."""
    return (SQRT3 / 2.0) * np.real(np.einsum("...ab,jba->...j", rho, LAMBDA_REF))


def haar_unitary_oracle(rng: np.random.Generator, dim: int = 3) -> np.ndarray:
    """QR-based Haar unitary, independent of the package sampler."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def sample_pure_bloch(rng: np.random.Generator, size: int) -> np.ndarray:
    """Bloch vectors of Haar-random pure kets, via the reference basis."""
    kets = rng.standard_normal((size, 3)) + 1j * rng.standard_normal((size, 3))
    kets /= np.linalg.norm(kets, axis=1, keepdims=True)
    rhos = np.einsum("na,nb->nab", kets, kets.conj())
    return bloch_from_rho_oracle(rhos)


def sample_valid_bloch(rng: np.random.Generator, size: int) -> np.ndarray:
    """Bloch vectors of random full-rank states: Dirichlet spectra, Haar frames."""
    spectra = rng.dirichlet(np.ones(3), size=size)
    out = np.empty((size, 8))
    for i in range(size):
        u = haar_unitary_oracle(rng)
        rho = (u * spectra[i]) @ u.conj().T
        out[i] = bloch_from_rho_oracle(rho)
    return out


def sample_box_bloch(rng: np.random.Generator, size: int, half_width: float = 1.1) -> np.ndarray:
    """Uniform box samples straddling the valid-state body."""
    return rng.uniform(-half_width, half_width, size=(size, 8))


def sample_radial_bloch(rng: np.random.Generator, size: int, max_radius: float = 1.2) -> np.ndarray:
    """Random directions with radii spanning inside and outside the body."""
    v = rng.standard_normal((size, 8))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v * rng.uniform(0.0, max_radius, size=(size, 1))


def same_bits(a, b) -> bool:
    """Equal shape, dtype and bytes: bit for bit, so -0.0 differs from 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
