"""Adjoint action of SU(2) and SU(3) on coherence vectors, and Haar sampling.

Conjugation rho -> U rho U^dag acts on Bloch vectors as the real matrix

    Ad(U)_ij = (1/2) Tr(sigma_i U sigma_j U^dag)        (SU(2) -> SO(3))
    Ad(U)_ij = (1/2) Tr(lambda_i U lambda_j U^dag)      (SU(3) -> SO(8))

computed by projecting U g_j U^dag with (1/2) Re Tr(g_i .), as orbit_sample
projects U (n.lambda) U^dag; a (..., dim, dim) stack of unitaries gives the
matching stack of rotations.  Both conjugate with one einsum.  Ad(SU(3)) is
only an 8-parameter subgroup of SO(8); this module certifies the necessary
conditions (orthogonality, unit determinant) but does not decide membership.

Haar-random unitaries come from the columns of a complex Gaussian matrix,
orthonormalized by classical Gram-Schmidt run twice (Mezzadri, Notices AMS 54, 2007;
Giraud, Langou & Rozloznik, Comput. Math. Appl. 50, 2005).  orbit_sample
conjugates by these U(3) draws, since a global phase cancels;
haar_random_su3 and haar_random_su2 multiply them by exp(-i arg(det U) / dim).
Every draw is unitary by construction, to about 1e-15, so only the matrices
that callers pass to adjoint_su3 and adjoint_su2 are checked against
UNITARY_TOL.

The generator is numpy's default PCG64, which is part of the public
contract: a given seed gives the same normals, bit for bit, on every SIMD
dispatch path.  The draw and the conjugation call no BLAS or LAPACK, and
no numpy kernel whose bits change with the CPU, so the orbit samples and the
rotations of adjoint_su3 and adjoint_su2 are the same bits on every SIMD path
and OpenBLAS core.  The phase of haar_random_su3 and haar_random_su2 goes
through complex products, np.angle and np.exp, whose kernels numpy picks per
CPU: those matrices can differ by up to about 4e-16 per entry between
numpy's dispatch paths.
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


def _conjugated(u, a) -> np.ndarray:
    """U a U^dag over the trailing (dim, dim) axes, broadcast over the leading ones."""
    return np.einsum("...bc,...cd,...ed->...be", u, a, u.conj())


def _adjoint(u, generators: np.ndarray) -> np.ndarray:
    """Ad(U)_ij = (1/2) Tr(g_i U g_j U^dag) for U or a (..., dim, dim) stack."""
    u = _validate_special_unitary(u, generators.shape[-1])[..., None, :, :]
    return _project(_conjugated(u, generators), generators).swapaxes(-1, -2)


def adjoint_su3(u) -> np.ndarray:
    """The 8x8 rotation Ad(U)_ij = (1/2) Tr(lambda_i U lambda_j U^dag)."""
    return _adjoint(u, _LAMBDA)


def adjoint_su2(u) -> np.ndarray:
    """The 3x3 rotation Ad(U)_ij = (1/2) Tr(sigma_i U sigma_j U^dag)."""
    return _adjoint(u, _PAULI)


def _haar_unitary(dim: int, rng: np.random.Generator, shape: tuple = ()) -> np.ndarray:
    """A (*shape, dim, dim) array of Haar unitaries, from float +, -, *, / and sqrt only.

    Each matrix draws its real then its imaginary part before the next one
    starts, so a batch of k equals k single draws from the same generator.
    The columns of the complex Gaussian matrix are orthonormalized by classical
    Gram-Schmidt run twice: the Q of its QR factorization with a positive real
    R diagonal, which is Haar on U(dim).  Each operation is correctly rounded,
    and each sum has at most 2 dim <= 6 terms, which numpy adds in index order
    (from 8 terms on it sums pairwise), so the bits depend neither on the SIMD
    path nor on the batch shape.  The batch axes are moved last, where each
    ufunc runs along them.
    """
    g = rng.standard_normal((*shape, 2, dim, dim))
    nd = len(shape)
    z = g.transpose(nd + 2, nd, nd + 1, *range(nd))  # column, (re, im), row, *shape
    # basis[j, 0] holds (re q_j, im q_j) and basis[j, 1] holds i q_j = (-im q_j, re q_j), so that
    # <q_j, v> = sum(basis[j, 0] v) + i sum(basis[j, 1] v), and q_j <q_j, v> sums r_j,t basis[j, t].
    basis = np.empty((dim, 2, 2, dim, *shape))
    for k in range(dim):
        v = z[k]
        for _ in range(2 if k else 0):
            r = np.add.reduce((basis[:k] * v).reshape(k, 2, 2 * dim, *shape), axis=2)
            v = v - np.add.reduce((r[:, :, None, None] * basis[:k]).reshape(2 * k, 2, dim, *shape), axis=0)
        q = basis[k, 0]
        np.divide(v, np.sqrt(np.add.reduce((v * v).reshape(2 * dim, *shape), axis=0)), out=q)
        np.negative(q[1], out=basis[k, 1, 0])
        basis[k, 1, 1] = q[0]
    u = np.empty((*shape, dim, dim), dtype=complex)
    u.view(float).reshape(*shape, dim, dim, 2)[...] = basis[:, 0].transpose(*range(3, nd + 3), 2, 0, 1)
    return u


def _det(u) -> np.ndarray:
    """det U of a (..., dim, dim) array for dim 2 or 3, by cofactors, as a (..., 1) array.

    The (..., 1) shape keeps the phase of a single draw on numpy's array
    loops: a sum reduced to 0-d is a numpy scalar, whose complex products
    use no FMA where the array loop does, so it would round unlike a batch.
    """
    if u.shape[-1] == 2:
        return u[..., 0, :1] * u[..., 1, 1:] - u[..., 0, 1:] * u[..., 1, :1]
    cofactors = u[..., 1, [1, 2, 0]] * u[..., 2, [2, 0, 1]] - u[..., 1, [2, 0, 1]] * u[..., 2, [1, 2, 0]]
    return np.add.reduce(u[..., 0, :] * cofactors, axis=-1, keepdims=True)


def _haar_special_unitary(dim: int, rng: np.random.Generator, shape: tuple = ()) -> np.ndarray:
    """A (*shape, dim, dim) array of Haar special unitaries: the draw of
    _haar_unitary times the root exp(-i arg(det U) / dim) of its determinant."""
    u = _haar_unitary(dim, rng, shape)
    return u * np.exp(-1j * np.angle(_det(u)) / dim)[..., None]


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
    checked once, in that order.  The Haar unitaries are unitary by
    construction and are not checked; they are not made special, since a
    global phase cancels in the conjugation.
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
        u = _haar_unitary(3, rng, (min(count - start, _ORBIT_CHUNK),))
        out[start : start + _ORBIT_CHUNK] = _project(_conjugated(u, traceless), _LAMBDA)
    return out
