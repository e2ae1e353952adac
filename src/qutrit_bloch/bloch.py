"""Coherence-vector algebra and closed-form state-membership tests.

A qutrit density matrix corresponds to a real 8-vector n through
rho = (1/3)(I + sqrt(3) n.lambda).  On these vectors we have the Euclidean
dot product and two bilinear products built from the structure tensors,

    (a wedge b)_j = sqrt(3) sum_kl f_jkl a_k b_l      (antisymmetric)
    (a star b)_j  = sqrt(3) sum_kl d_jkl a_k b_l      (symmetric)

in terms of which state membership is polynomial:

    pure state:   |n|^2 = 1  and  n star n = n
    valid state:  q1 = |n|^2 <= 1  and  q2 = 3|n|^2 - 2 n.(n star n) <= 1

The state body {q1 <= 1, q2 <= 1} is two upper bounds, decided by _bounds.  Both
predicates accept a tolerance; boundary states (pure states, triangle edges) pass under it.

Every function but geodesic_distance takes a (..., 8) stack as well as one
vector and broadcasts over the leading axes; one (8,) vector gives the same
Python types and the same bits as a scalar-only implementation would.  Each
public call validates its input once, and the kernels behind it run on the
validated array.  n star n, the cubic term of every state gate, is
`_self_star`, and it and a star b share the one d-contraction, `_d_contract`.
"""

from __future__ import annotations

import math
from functools import partial

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


def _converted(values, kinds: str, dtype, message: str) -> np.ndarray:
    """values as a dtype array, the one dtype rule of every vector, matrix and eigenvalue input.

    An array whose numpy dtype kind is not in kinds (bool, string, object, or complex where kinds are real) raises.
    """
    a = np.asarray(values)
    if a.dtype != dtype:
        if a.dtype.kind not in kinds:
            raise ValidationError(f"{message}, got dtype {a.dtype}")
        a = a.astype(dtype)
    return a


def _checked(values) -> tuple[np.ndarray, bool]:
    """as_bloch_vector(values), and whether no component exceeds _SAFE.

    One reduction answers both: the bound fails on NaN and inf too, and only
    then does the finiteness test run.
    """
    n = _converted(values, "iuf", float, "Bloch vector components must be real numbers")
    if n.shape[-1:] != (8,):
        raise ValidationError(f"Bloch vector must have 8 components, got shape {n.shape}")
    built, safe = _built(n)
    if built is not n:  # _built read a NaN or inf
        raise ValidationError("Bloch vector components must be finite")
    return n, safe


def _built(n) -> tuple[np.ndarray, bool]:
    """(n, safe) as _checked reports them, for a (..., 8) float array the package computed; no check runs.
    Unless safe, NaN and inf are sought and read as nan_to_num reads them: an overflow as the largest double."""
    safe = bool(np.abs(n).max(initial=0.0) <= _SAFE)
    return (n if safe or np.isfinite(n).all() else np.nan_to_num(n)), safe


def _checked_matrix(values, dim: int) -> np.ndarray:
    """Coerce to a complex (..., dim, dim) array: the one check of every matrix input."""
    a = _converted(values, "iufc", complex, "matrix entries must be numbers")
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


def _bilinear(product, checked_a, checked_b) -> np.ndarray:
    """product(a, b) of two (..., 8) inputs as _checked gives them, for a bilinear product with a trailing axis.

    Unless both are safe, the product is taken of the _scaled vectors and
    multiplied by the two factors one at a time, the smaller first: a
    component whose coefficients vanish reads 0, and the rest overflow to
    +-inf only in those last products, with no warning.
    """
    (a, safe_a), (b, safe_b) = checked_a, checked_b
    if safe_a and safe_b:
        return product(a, b)
    (a, s), (b, t) = _scaled(a), _scaled(b)
    with np.errstate(over="ignore"):
        return product(a, b) * np.minimum(s, t)[..., None] * np.maximum(s, t)[..., None]


def dot(a, b):
    """Euclidean inner product of two 8-vectors; stacks broadcast.

    Past _SAFE it reads 0 where the exact value is 0, and +-inf where it overflows.
    """
    d = _bilinear(partial(np.vecdot, keepdims=True), _checked(a), _checked(b))[..., 0]
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

    return _bilinear(product, _checked(a), _checked(b))


def star(a, b) -> np.ndarray:
    """Symmetric star product sqrt(3) d_jkl a_k b_l; stacks broadcast.

    Contracts d with the symmetrized outer product, so star(a, b) ==
    star(b, a) holds bitwise.  Past _SAFE, components that vanish read 0 and
    the rest +-inf where they overflow.
    """

    def product(a, b):
        return _d_contract(0.5 * (a[..., :, None] * b[..., None, :] + b[..., :, None] * a[..., None, :]))

    return _bilinear(product, _checked(a), _checked(b))


def state_constraints(n):
    """The two polynomial state functionals (q1, q2).

    q1 = |n|^2 and q2 = 3|n|^2 - 2 n.(n star n); n parametrizes a density
    matrix exactly when both are at most 1.  One vector gives two floats, a
    (..., 8) stack two arrays of shape (...).  A value too large for a double
    reads +-inf.
    """
    n, safe = _checked(n)
    q1, q2 = _constraints(n, safe)
    return (float(q1), float(q2)) if n.ndim == 1 else (q1, q2)


def is_pure(n, tol: float = DEFAULT_TOL):
    """True when |n|^2 = 1 and n star n = n, both within tol; stacks broadcast."""
    n, safe = _checked(n)
    _require_tol(tol)
    pure = _pure(n, safe, tol)
    return bool(pure) if n.ndim == 1 else pure


def _pure(n, safe: bool, tol: float):
    """is_pure of a checked n and tol."""
    q1 = np.vecdot(n, n) if safe else _constraints(n, safe)[0]  # |n|^2 alone: the cubic q2 is not needed
    pure = abs(q1 - 1.0) <= tol
    if not _every(~pure):
        if not safe:
            # Zero each vector beyond _SAFE, whose star product would overflow;
            # its |n|^2 passes the test above only at a tol of 1e200 or more.
            n = np.where((np.abs(n) <= _SAFE).all(axis=-1)[..., None], n, 0.0)
        pure &= np.abs(_self_star(n) - n).max(axis=-1) <= tol
    return pure


def _require_tol(tol: float) -> None:
    """The tol rule of every state predicate: raise ValueError unless tol >= 0 (NaN too).

    No upper limit: from tol = 2.4397 on, the gates accept some q2 < -tol (see _bounds).
    """
    if not tol >= 0:
        raise ValueError("tol must be nonnegative")


def _bounds(q1, q2, tol: float):
    """The verdicts q1 <= 1 + tol and q2 <= 1 + tol, elementwise, for a checked tol; NaN fails.

    The one test of the state body: c2 = (1 - q1)/3 >= 0 and c3 = (1 - q2)/27 >= 0 is
    positivity.  q1 = |n|^2 >= 0, and below tol = 2.4397 the bounds keep q2 above -tol.
    """
    return q1 <= 1.0 + tol, q2 <= 1.0 + tol


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
    """True when q1 <= 1 + tol and q2 <= 1 + tol: the state body with slack tol; stacks broadcast.

    Covers every density matrix, pure states included; the name follows the
    mixed-state parametrization the constraints were derived from.
    """
    n, safe = _checked(n)
    inside = np.logical_and(*_judged(n, safe, tol)[1])
    return bool(inside) if n.ndim == 1 else inside


def _judged(n, safe: bool, tol: float):
    """The one state judgement, of n and safe as _checked reports them: tol checked, then (q1, q2) and their _bounds."""
    _require_tol(tol)
    q = _constraints(n, safe)
    return q, _bounds(*q, tol)


def _require_state(n, safe: bool, tol: float) -> np.ndarray:
    """Return n, as _checked or _built reports it with safe, if is_mixed_state(n, tol) holds throughout;
    otherwise raise for the first failing vector in C order, naming the first constraint it violates."""
    q, below = _judged(n, safe, tol)
    _require_all(list(zip(below, q, _NOT_A_STATE)))
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
    checked = [_checked(n), _checked(m)]
    _require_tol(tol)
    for name, v in zip(("first", "second"), checked):
        if not _pure(*v, tol):
            raise ValidationError(f"geodesic_distance: {name} argument is not a pure state")
    c = float(_bilinear(partial(np.vecdot, keepdims=True), *checked)[0])  # dot(n, m) of the checked pairs
    return math.acos(min(1.0, max(-1.0, c)))
