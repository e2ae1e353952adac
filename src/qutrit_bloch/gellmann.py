"""Gell-Mann basis of su(3) and its structure-constant tensors.

The eight Hermitian traceless generators lambda_1..lambda_8 are normalized so
that Tr(lambda_i lambda_j) = 2 delta_ij.  Their products close through two
real rank-3 tensors, the totally antisymmetric f and the totally symmetric d:

    lambda_j lambda_k = (2/3) delta_jk I + sum_l d_jkl lambda_l
                        + i sum_l f_jkl lambda_l

Ground truth for f and d is the irreducible table of nonzero entries (one
representative per index set); the dense tensors are derived from it by
(anti)symmetry and the scalar lookups read them.  All public indices are
1-based; the tables stay auditable entry by entry.
"""

from __future__ import annotations

import itertools
import math
import operator

import numpy as np

SQRT3 = math.sqrt(3.0)

_LAMBDA = np.array(
    [
        [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
        [[0, -1j, 0], [1j, 0, 0], [0, 0, 0]],
        [[1, 0, 0], [0, -1, 0], [0, 0, 0]],
        [[0, 0, 1], [0, 0, 0], [1, 0, 0]],
        [[0, 0, -1j], [0, 0, 0], [1j, 0, 0]],
        [[0, 0, 0], [0, 0, 1], [0, 1, 0]],
        [[0, 0, 0], [0, 0, -1j], [0, 1j, 0]],
        [[1, 0, 0], [0, 1, 0], [0, 0, -2]],
    ],
    dtype=complex,
)
_LAMBDA[7] /= SQRT3
_LAMBDA.flags.writeable = False

# Independent nonzero entries.  f extends antisymmetrically, d symmetrically;
# every untabulated index set is zero.
_F_TABLE = {
    (1, 2, 3): 1.0,
    (4, 5, 8): SQRT3 / 2,
    (6, 7, 8): SQRT3 / 2,
    (1, 4, 7): 0.5,
    (2, 4, 6): 0.5,
    (2, 5, 7): 0.5,
    (3, 4, 5): 0.5,
    (5, 1, 6): 0.5,
    (6, 3, 7): 0.5,
}
_D_TABLE = {
    (1, 1, 8): 1 / SQRT3,
    (2, 2, 8): 1 / SQRT3,
    (3, 3, 8): 1 / SQRT3,
    (8, 8, 8): -1 / SQRT3,
    (4, 4, 8): -1 / (2 * SQRT3),
    (5, 5, 8): -1 / (2 * SQRT3),
    (6, 6, 8): -1 / (2 * SQRT3),
    (7, 7, 8): -1 / (2 * SQRT3),
    (1, 4, 6): 0.5,
    (1, 5, 7): 0.5,
    (2, 4, 7): -0.5,
    (2, 5, 6): 0.5,
    (3, 4, 4): 0.5,
    (3, 5, 5): 0.5,
    (3, 6, 6): -0.5,
    (3, 7, 7): -0.5,
}


def _require_size(value, name: str, minimum: int) -> int:
    """value as an int of at least minimum: the one integer rule (resolution, count, Gell-Mann index)."""
    try:
        if isinstance(value, bool):  # an int to Python, but not a size or an index
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}")
    return value


def _check_index(i: int) -> int:
    """i as an int in 1..8, by the integer rule of _require_size."""
    i = _require_size(i, "Gell-Mann index", 1)
    if i > 8:
        raise ValueError(f"Gell-Mann index must be in 1..8, got {i}")
    return i


def gell_mann(i: int) -> np.ndarray:
    """Return the i-th Gell-Mann matrix (1-based), as a read-only 3x3 array."""
    return _LAMBDA[_check_index(i) - 1]


def basis() -> np.ndarray:
    """The full (8, 3, 3) stack of Gell-Mann matrices, read-only."""
    return _LAMBDA


def _dense(table: dict, antisymmetric: bool) -> np.ndarray:
    """Spread each tabulated entry over every ordering of its index set."""
    t = np.zeros((8, 8, 8))
    for key, value in table.items():
        for p in itertools.permutations(range(3)):
            # (p1 - p0)(p2 - p0)(p2 - p1)/2 is the sign of the permutation p
            sign = (p[1] - p[0]) * (p[2] - p[0]) * (p[2] - p[1]) // 2 if antisymmetric else 1
            t[tuple(key[i] - 1 for i in p)] = sign * value
    t.flags.writeable = False
    return t


_F_DENSE = _dense(_F_TABLE, antisymmetric=True)
_D_DENSE = _dense(_D_TABLE, antisymmetric=False)


def _dot_lambda(n) -> np.ndarray:
    """n.lambda = sum_i n_i lambda_i of a (..., 8) array; _project(., _LAMBDA) inverts it."""
    return np.einsum("...i,iab->...ab", n, _LAMBDA)


def _project(m, generators: np.ndarray) -> np.ndarray:
    """(1/2) Re Tr(g_i m) for each generator g_i, over the trailing (d, d) axes of m."""
    return 0.5 * np.einsum("iab,...ba->...i", generators, m).real


def f_symbol(j: int, k: int, l: int) -> float:
    """Totally antisymmetric structure constant f_jkl."""
    return float(_F_DENSE[_check_index(j) - 1, _check_index(k) - 1, _check_index(l) - 1])


def d_symbol(j: int, k: int, l: int) -> float:
    """Totally symmetric invariant tensor d_jkl."""
    return float(_D_DENSE[_check_index(j) - 1, _check_index(k) - 1, _check_index(l) - 1])


def f_tensor() -> np.ndarray:
    """Dense (8, 8, 8) f tensor (0-based axes), read-only."""
    return _F_DENSE


def d_tensor() -> np.ndarray:
    """Dense (8, 8, 8) d tensor (0-based axes), read-only."""
    return _D_DENSE


def product_expansion(j: int, k: int) -> np.ndarray:
    """Reconstruct lambda_j lambda_k from the f and d tables.

    Evaluates (2/3) delta_jk I + sum_l (d_jkl + i f_jkl) lambda_l, which must
    coincide with the direct matrix product.
    """
    j, k = _check_index(j), _check_index(k)
    coeff = _D_DENSE[j - 1, k - 1] + 1j * _F_DENSE[j - 1, k - 1]
    out = np.tensordot(coeff, _LAMBDA, axes=(0, 0))
    if j == k:
        out = out + (2.0 / 3.0) * np.eye(3)
    return out
