"""Coherence-vector algebra and closed-form state-membership tests.

A qutrit density matrix corresponds to a real 8-vector n through
rho = (1/3)(I + sqrt(3) n.lambda).  On these vectors we have the Euclidean
dot product and two bilinear products built from the structure tensors,

    (a wedge b)_j = sqrt(3) sum_kl f_jkl a_k b_l      (antisymmetric)
    (a star b)_j  = sqrt(3) sum_kl d_jkl a_k b_l      (symmetric)

in terms of which state membership is polynomial:

    pure state:   |n|^2 = 1  and  n star n = n
    valid state:  0 <= |n|^2 <= 1  and  0 <= 3|n|^2 - 2 n.(n star n) <= 1

Both predicates accept a tolerance; boundary states (pure states, edges of
the diagonal triangle) classify as valid under the symmetric slack.
"""

from __future__ import annotations

import math

import numpy as np

from .gellmann import _D_DENSE, _F_DENSE, SQRT3

DEFAULT_TOL = 1e-9


class ValidationError(ValueError):
    """A quantity failed one of its domain invariants."""


def as_bloch_vector(values) -> np.ndarray:
    """Coerce to a shape-(8,) float array, rejecting non-finite entries."""
    n = np.asarray(values, dtype=float)
    if n.shape != (8,):
        raise ValidationError(f"Bloch vector must have 8 components, got shape {n.shape}")
    if not np.all(np.isfinite(n)):
        raise ValidationError("Bloch vector components must be finite")
    return n


def dot(a, b) -> float:
    """Euclidean inner product of two 8-vectors."""
    return float(np.dot(as_bloch_vector(a), as_bloch_vector(b)))


def wedge(a, b) -> np.ndarray:
    """Antisymmetric wedge product sqrt(3) f_jkl a_k b_l.

    Contracts f with the antisymmetrized outer product (f kills the symmetric
    part anyway), so wedge(a, b) == -wedge(b, a) holds bitwise.
    """
    a = as_bloch_vector(a)
    b = as_bloch_vector(b)
    anti = 0.5 * (np.outer(a, b) - np.outer(b, a))
    return SQRT3 * np.einsum("jkl,kl->j", _F_DENSE, anti)


def star(a, b) -> np.ndarray:
    """Symmetric star product sqrt(3) d_jkl a_k b_l.

    Contracts d with the symmetrized outer product, so star(a, b) ==
    star(b, a) holds bitwise.
    """
    a = as_bloch_vector(a)
    b = as_bloch_vector(b)
    sym = 0.5 * (np.outer(a, b) + np.outer(b, a))
    return SQRT3 * np.einsum("jkl,kl->j", _D_DENSE, sym)


def state_constraints(n) -> tuple[float, float]:
    """The two polynomial state functionals (q1, q2).

    q1 = |n|^2 and q2 = 3|n|^2 - 2 n.(n star n); n parametrizes a density
    matrix exactly when both lie in [0, 1].
    """
    n = as_bloch_vector(n)
    q1 = float(np.dot(n, n))
    q2 = 3.0 * q1 - 2.0 * float(np.dot(n, star(n, n)))
    return q1, q2


def is_pure(n, tol: float = DEFAULT_TOL) -> bool:
    """True when |n|^2 = 1 and n star n = n, both within tol."""
    _require_tol(tol)
    n = as_bloch_vector(n)
    if abs(float(np.dot(n, n)) - 1.0) > tol:
        return False
    return float(np.max(np.abs(star(n, n) - n))) <= tol


def _require_tol(tol: float) -> None:
    """The tol rule of every state predicate: raise ValueError unless tol >= 0 (NaN too)."""
    if not tol >= 0:
        raise ValueError("tol must be nonnegative")


def _in_unit_interval(q, tol: float) -> np.ndarray:
    """Elementwise -tol <= q <= 1 + tol: the slack every state gate allows."""
    _require_tol(tol)
    q = np.asarray(q)
    return (q >= -tol) & (q <= 1.0 + tol)


def is_mixed_state(n, tol: float = DEFAULT_TOL) -> bool:
    """True when both state constraints lie in [-tol, 1 + tol].

    Covers every density matrix, pure states included; the name follows the
    mixed-state parametrization the constraints were derived from.
    """
    return bool(_in_unit_interval(state_constraints(n), tol).all())


def _require_state(n, tol: float) -> np.ndarray:
    """Return n if is_mixed_state(n, tol), else raise naming the violated constraint."""
    n = as_bloch_vector(n)
    q = state_constraints(n)
    names = ("|n|^2", "3|n|^2 - 2 n.(n star n)")
    for name, value, ok in zip(names, q, _in_unit_interval(q, tol)):
        if not ok:
            raise ValidationError(
                f"not a state: {name} = {value:.17g} outside [0, 1] (not positive semidefinite)"
            )
    return n


def geodesic_distance(n, m, tol: float = DEFAULT_TOL) -> float:
    """Angle arccos(n.m) between two pure states, in radians.

    For orthogonal pure states n.m = -1/2, so the angle is 2*pi/3.  The
    arccos argument is clamped to [-1, 1] to absorb round-off.  Reported as
    the plain 8-vector angle; no projective-metric scale factor is applied.
    """
    for name, v in (("first", n), ("second", m)):
        if not is_pure(v, tol):
            raise ValidationError(f"geodesic_distance: {name} argument is not a pure state")
    c = dot(n, m)
    return math.acos(min(1.0, max(-1.0, c)))
