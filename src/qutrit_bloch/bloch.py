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

Every function but geodesic_distance takes a (..., 8) stack as well as one
vector and broadcasts over the leading axes; one (8,) vector gives the same
Python types and the same bits as a scalar-only implementation would.  Each
public call validates its input once, and the kernels behind it run on the
validated array.  n star n, the cubic term of every state gate, is
`_self_star`, and it and a star b share the one d-contraction, `_d_contract`.
"""

from __future__ import annotations

import math

import numpy as np

from .gellmann import _D_DENSE, _F_DENSE, SQRT3

DEFAULT_TOL = 1e-9

# No step of q1 and q2 overflows while every component is at most this large:
# q1 <= 8e200 and |n.(n star n)| < 1e303.
_SAFE = 1e100

# The messages of _require_state, for q1 and q2.
_NOT_A_STATE = tuple(
    f"not a state: {name} = {{:.17g}} outside [0, 1] (not positive semidefinite)"
    for name in ("|n|^2", "3|n|^2 - 2 n.(n star n)")
)


class ValidationError(ValueError):
    """A quantity failed one of its domain invariants."""


def _checked(values) -> tuple[np.ndarray, bool]:
    """as_bloch_vector(values), and whether no component exceeds _SAFE.

    One reduction answers both: the bound fails on NaN and inf too, and only
    then does the finiteness test run.
    """
    n = np.asarray(values, dtype=float)
    if n.shape[-1:] != (8,):
        raise ValidationError(f"Bloch vector must have 8 components, got shape {n.shape}")
    safe = bool(np.abs(n).max(initial=0.0) <= _SAFE)
    if not safe and not np.isfinite(n).all():
        raise ValidationError("Bloch vector components must be finite")
    return n, safe


def _checked_matrix(values, dim: int) -> np.ndarray:
    """Coerce to a complex (..., dim, dim) array: the one check of every matrix input."""
    a = np.asarray(values, dtype=complex)
    if a.shape[-2:] != (dim, dim):
        raise ValidationError(f"expected a {dim}x{dim} matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValidationError("matrix entries must be finite")
    return a


def as_bloch_vector(values) -> np.ndarray:
    """Coerce to a (..., 8) float array, rejecting non-finite entries."""
    return _checked(values)[0]


def _every(ok) -> bool:
    """ok.all() for an array, bool(ok) for one (numpy) bool, which skips a slow reduction."""
    return bool(ok.all()) if isinstance(ok, np.ndarray) else bool(ok)


def _d_contract(sym) -> np.ndarray:
    """sqrt(3) d_jkl s_kl for a symmetric (..., 8, 8) stack s."""
    return SQRT3 * np.einsum("jkl,...kl->...j", _D_DENSE, sym)


def _self_star(n) -> np.ndarray:
    """n star n of a validated (..., 8) array; equal bit for bit to star(n, n)."""
    return _d_contract(n[..., :, None] * n[..., None, :])


def _constraints(n, safe: bool):
    """(q1, q2) of a validated (..., 8) array; safe as _checked reports it.

    Unless safe, n = s m as _scaled gives it, so q1 = s^2 |m|^2 and
    q2 = s^2 (3 |m|^2 - 2 s m.(m star m)) overflow only in their last products.
    """
    if safe:  # np.vecdot gives np.dot's bits on every vector
        q1 = np.vecdot(n, n)
        return q1, 3.0 * q1 - 2.0 * np.vecdot(n, _self_star(n))
    m, s = _scaled(n)
    q1 = np.vecdot(m, m)
    c = np.vecdot(m, _self_star(m))
    with np.errstate(over="ignore"):
        return s * s * q1, s * (s * (3.0 * q1 - 2.0 * (s * c)))


def _scaled(n):
    """(m, s) with n = s m: s is the largest |component| of each vector beyond
    _SAFE, and 1.0 (exact) for the rest."""
    top = np.abs(n).max(axis=-1)
    s = np.where(top <= _SAFE, 1.0, top)
    return n / s[..., None], s


def _bilinear(product, a, b) -> np.ndarray:
    """product(a, b) of two (..., 8) inputs, for a bilinear product with a trailing axis.

    Unless both are safe (as _checked reports), the product is taken of the
    _scaled vectors and multiplied by the two factors one at a time, the
    smaller first: a component whose coefficients vanish reads 0, and the
    rest overflow to +-inf only in those last products, with no warning.
    """
    (a, safe_a), (b, safe_b) = _checked(a), _checked(b)
    if safe_a and safe_b:
        return product(a, b)
    (a, s), (b, t) = _scaled(a), _scaled(b)
    with np.errstate(over="ignore"):
        return product(a, b) * np.minimum(s, t)[..., None] * np.maximum(s, t)[..., None]


def dot(a, b):
    """Euclidean inner product of two 8-vectors; stacks broadcast.

    Past _SAFE it reads 0 where the exact value is 0, and +-inf where it overflows.
    """
    d = _bilinear(lambda a, b: np.vecdot(a, b)[..., None], a, b)[..., 0]
    return float(d) if d.ndim == 0 else d


def wedge(a, b) -> np.ndarray:
    """Antisymmetric wedge product sqrt(3) f_jkl a_k b_l; stacks broadcast.

    Contracts f with the antisymmetrized outer product (f kills the symmetric
    part anyway), so wedge(a, b) == -wedge(b, a) holds bitwise.  Past _SAFE,
    components that vanish read 0 and the rest +-inf where they overflow.
    """

    def product(a, b):
        anti = 0.5 * (a[..., :, None] * b[..., None, :] - b[..., :, None] * a[..., None, :])
        return SQRT3 * np.einsum("jkl,...kl->...j", _F_DENSE, anti)

    return _bilinear(product, a, b)


def star(a, b) -> np.ndarray:
    """Symmetric star product sqrt(3) d_jkl a_k b_l; stacks broadcast.

    Contracts d with the symmetrized outer product, so star(a, b) ==
    star(b, a) holds bitwise.  Past _SAFE, components that vanish read 0 and
    the rest +-inf where they overflow.
    """

    def product(a, b):
        return _d_contract(0.5 * (a[..., :, None] * b[..., None, :] + b[..., :, None] * a[..., None, :]))

    return _bilinear(product, a, b)


def state_constraints(n):
    """The two polynomial state functionals (q1, q2).

    q1 = |n|^2 and q2 = 3|n|^2 - 2 n.(n star n); n parametrizes a density
    matrix exactly when both lie in [0, 1].  One vector gives two floats, a
    (..., 8) stack two arrays of shape (...).  A value too large for a double
    reads +-inf.
    """
    n, safe = _checked(n)
    q1, q2 = _constraints(n, safe)
    return (float(q1), float(q2)) if n.ndim == 1 else (q1, q2)


def is_pure(n, tol: float = DEFAULT_TOL):
    """True when |n|^2 = 1 and n star n = n, both within tol; stacks broadcast."""
    _require_tol(tol)
    n, safe = _checked(n)
    q1 = np.vecdot(n, n) if safe else _constraints(n, safe)[0]
    pure = abs(q1 - 1.0) <= tol
    if not _every(~pure):
        if not safe:
            # Zero each vector beyond _SAFE, whose star product would overflow;
            # its |n|^2 passes the test above only at a tol of 1e200 or more.
            n = np.where((np.abs(n) <= _SAFE).all(axis=-1)[..., None], n, 0.0)
        pure &= np.abs(_self_star(n) - n).max(axis=-1) <= tol
    return bool(pure) if n.ndim == 1 else pure


def _require_tol(tol: float) -> None:
    """The tol rule of every state predicate: raise ValueError unless tol >= 0 (NaN too)."""
    if not tol >= 0:
        raise ValueError("tol must be nonnegative")


def _in_unit_interval(q, tol: float):
    """Elementwise -tol <= q <= 1 + tol, for a checked tol: the slack every state gate allows."""
    return (q >= -tol) & (q <= 1.0 + tol)


def _require_all(checks) -> None:
    """Raise for the first entry, in C order, that fails one of the checks.

    checks are (ok, value, message) triples over one shape, in the order one
    entry is checked; the entry's first failing check formats its message
    with the entry's value, or with each field of a tuple value.
    """
    ok = checks[0][0]
    for passed, _, _ in checks[1:]:
        ok = ok & passed
    if _every(ok):
        return
    first = np.argmin(ok)
    for passed, value, message in checks:
        if not np.ravel(passed)[first]:
            fields = value if isinstance(value, tuple) else (value,)
            raise ValidationError(message.format(*(np.broadcast_to(v, np.shape(ok)).flat[first] for v in fields)))


def is_mixed_state(n, tol: float = DEFAULT_TOL):
    """True when both state constraints lie in [-tol, 1 + tol]; stacks broadcast.

    Covers every density matrix, pure states included; the name follows the
    mixed-state parametrization the constraints were derived from.
    """
    n, safe = _checked(n)
    _require_tol(tol)
    q1, q2 = _constraints(n, safe)
    inside = _in_unit_interval(q1, tol) & _in_unit_interval(q2, tol)
    return bool(inside) if n.ndim == 1 else inside


def _require_state(n, tol: float) -> np.ndarray:
    """Return n as an array if is_mixed_state(n, tol) holds throughout.

    Otherwise raise for the first failing vector in C order, naming the first
    constraint it violates.
    """
    n, safe = _checked(n)
    _require_tol(tol)
    q1, q2 = _constraints(n, safe)
    _require_all(
        [
            (_in_unit_interval(q1, tol), q1, _NOT_A_STATE[0]),
            (_in_unit_interval(q2, tol), q2, _NOT_A_STATE[1]),
        ]
    )
    return n


def geodesic_distance(n, m, tol: float = DEFAULT_TOL) -> float:
    """Angle arccos(n.m) between two pure states, in radians.

    For orthogonal pure states n.m = -1/2, so the angle is 2*pi/3.  The
    arccos argument is clamped to [-1, 1] to absorb round-off.  Reported as
    the plain 8-vector angle; no projective-metric scale factor is applied.
    Takes two single vectors, not stacks.
    """
    for name, v in (("first", n), ("second", m)):
        if np.shape(v) != (8,):
            raise ValidationError(f"geodesic_distance: {name} argument must have shape (8,), got {np.shape(v)}")
        if not is_pure(v, tol):
            raise ValidationError(f"geodesic_distance: {name} argument is not a pure state")
    c = dot(n, m)
    return math.acos(min(1.0, max(-1.0, c)))
