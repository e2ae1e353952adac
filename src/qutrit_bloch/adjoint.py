"""Adjoint action of SU(2) and SU(3) on coherence vectors, and Haar sampling.

Conjugation rho -> U rho U^dag acts on Bloch vectors as the real matrix

    Ad(U)_ij = (1/2) Tr(sigma_i U sigma_j U^dag)        (SU(2) -> SO(3))
    Ad(U)_ij = (1/2) Tr(lambda_i U lambda_j U^dag)      (SU(3) -> SO(8))

computed by projecting U g_j U^dag with (1/2) Re Tr(g_i .), as orbit_sample
projects U (n.lambda) U^dag; a (..., dim, dim) stack of unitaries gives the
matching stack of rotations.  Ad(SU(3)) is only an 8-parameter
subgroup of SO(8); this module certifies the necessary conditions
(orthogonality, unit determinant) but does not decide membership.

Haar-random special unitaries come from QR orthonormalization of a complex
Gaussian matrix with the R-diagonal phase fix, then a global det-normalizing
phase.  The generator is numpy's default PCG64; a given seed reproduces the
same matrices on every platform, which is part of the public contract.
"""

from __future__ import annotations

import numpy as np

from .bloch import DEFAULT_TOL, ValidationError, _require_state
from .gellmann import _LAMBDA

UNITARY_TOL = 1e-12
# orbit_sample draws and rotates this many samples at a time, which bounds its
# working memory; successive draws continue the same PCG64 stream.
_ORBIT_CHUNK = 4096

_PAULI = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)
_PAULI.flags.writeable = False


def _validate_special_unitary(u, dim: int, tol: float = UNITARY_TOL) -> np.ndarray:
    """Check a dim x dim special unitary, or a (..., dim, dim) stack of them."""
    u = np.asarray(u, dtype=complex)
    if u.shape[-2:] != (dim, dim):
        raise ValidationError(f"expected a {dim}x{dim} matrix, got shape {u.shape}")
    dev = float(np.max(np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(dim))))
    if dev > tol:
        raise ValidationError(f"not unitary: max |U^dag U - I| = {dev:.3e}")
    det = np.linalg.det(u)
    bad = np.abs(det - 1.0) > tol
    if np.any(bad):
        raise ValidationError(f"not special unitary: det = {complex(det[bad][0]):.17g}")
    return u


def _project(m, generators: np.ndarray) -> np.ndarray:
    """(1/2) Re Tr(g_i m) for each generator g_i, over the trailing (d, d) axes of m."""
    return 0.5 * np.real(np.einsum("iab,...ba->...i", generators, m))


def _adjoint(u, generators: np.ndarray) -> np.ndarray:
    """Ad(U)_ij = (1/2) Tr(g_i U g_j U^dag) for U or a (..., dim, dim) stack."""
    u = _validate_special_unitary(u, generators.shape[-1])[..., None, :, :]
    columns = u @ generators @ u.conj().swapaxes(-1, -2)  # U g_j U^dag
    return _project(columns, generators).swapaxes(-1, -2)


def adjoint_su3(u) -> np.ndarray:
    """The 8x8 rotation Ad(U)_ij = (1/2) Tr(lambda_i U lambda_j U^dag)."""
    return _adjoint(u, _LAMBDA)


def adjoint_su2(u) -> np.ndarray:
    """The 3x3 rotation Ad(U)_ij = (1/2) Tr(sigma_i U sigma_j U^dag)."""
    return _adjoint(u, _PAULI)


def _haar_special_unitary(dim: int, rng: np.random.Generator, shape: tuple = ()) -> np.ndarray:
    """A (*shape, dim, dim) array of Haar special unitaries.

    Each matrix draws its real then its imaginary part before the next one
    starts, so a batch of k equals k single draws from the same generator.
    """
    g = rng.standard_normal((*shape, 2, dim, dim))
    z = g[..., 0, :, :] + 1j * g[..., 1, :, :]
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    q = q * (diag / np.abs(diag))[..., None, :]
    det = np.linalg.det(q)
    return q * np.exp(-1j * np.angle(det) / dim)[..., None, None]


def haar_random_su3(seed: int) -> np.ndarray:
    """Haar-distributed SU(3) element, deterministic for a fixed seed."""
    return _haar_special_unitary(3, np.random.default_rng(seed))


def haar_random_su2(seed: int) -> np.ndarray:
    """Haar-distributed SU(2) element, deterministic for a fixed seed."""
    return _haar_special_unitary(2, np.random.default_rng(seed))


def orbit_sample(n, count: int, seed: int, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Sample the unitary orbit of a state: rows Ad(U_i) n for Haar U_i.

    Every output parametrizes a state with the same spectrum as n.  The
    sampler owns a private generator, so concurrent calls with distinct seeds
    are independent and a fixed (n, count, seed) is fully reproducible.
    Samples are drawn in fixed chunks, which bounds memory; the rows equal
    one batch drawn from the same generator.
    """
    n = _require_state(n, tol)
    if n.shape != (8,):
        raise ValidationError(f"orbit_sample takes one Bloch vector, got shape {n.shape}")
    if count < 1:
        raise ValueError("count must be at least 1")
    # The identity part of rho commutes with U, so only n.lambda is rotated.
    traceless = np.einsum("j,jab->ab", n, _LAMBDA)
    rng = np.random.default_rng(seed)
    out = np.empty((count, 8))
    for start in range(0, count, _ORBIT_CHUNK):
        block = out[start : start + _ORBIT_CHUNK]
        u = _validate_special_unitary(_haar_special_unitary(3, rng, (len(block),)), 3)
        block[:] = _project(u @ traceless @ u.conj().swapaxes(-1, -2), _LAMBDA)
    return out
