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
phase (Mezzadri, Notices AMS 54, 2007).  They are special unitary by
construction, to about 2e-15, so only the matrices that callers pass to
adjoint_su3 and adjoint_su2 are checked against UNITARY_TOL.  The generator
is numpy's default PCG64, which is part of the public contract: a given seed
gives the same normals, bit for bit, on every SIMD dispatch path.  The
matrices built from them are the same on one machine and numpy build, but can
differ by up to 2e-16 per entry between dispatch paths.
"""

from __future__ import annotations

import numpy as np

from .bloch import DEFAULT_TOL, ValidationError, _checked, _checked_matrix, _require_all, _require_state
from .gellmann import _LAMBDA, _dot_lambda, _project, _require_size

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


def _validate_special_unitary(u, dim: int) -> np.ndarray:
    """Check a dim x dim special unitary, or a (..., dim, dim) stack of them, to UNITARY_TOL."""
    u = _checked_matrix(u, dim)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the bound, without a warning
        dev = np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(dim)).max(axis=(-2, -1))
        det = np.linalg.det(u)
    dev = np.fmin(dev, np.inf)  # u is finite, so a NaN is an overflow: fmin reads it as inf
    _require_all(
        [
            (dev <= UNITARY_TOL, dev, "not unitary: max |U^dag U - I| = {:.3e}"),
            (np.abs(det - 1.0) <= UNITARY_TOL, det, "not special unitary: det = {:.17g}"),
        ]
    )
    return u


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
    one batch drawn from the same generator.  n's entries and shape (one
    vector, not a stack), then tol, then the state, then count are each
    checked once, in that order; the Haar unitaries are special unitary by
    construction and are not checked.
    """
    n, safe = _checked(n)
    if n.shape != (8,):
        raise ValidationError(f"orbit_sample takes one Bloch vector, got shape {n.shape}")
    _require_state(n, safe, tol)
    count = _require_size(count, "count", 1)
    # The identity part of rho commutes with U, so only n.lambda is rotated.
    traceless = _dot_lambda(n)
    rng = np.random.default_rng(seed)
    out = np.empty((count, 8))
    for start in range(0, count, _ORBIT_CHUNK):
        u = _haar_special_unitary(3, rng, (min(count - start, _ORBIT_CHUNK),))
        out[start : start + _ORBIT_CHUNK] = _project(u @ traceless @ u.conj().swapaxes(-1, -2), _LAMBDA)
    return out
