"""Geometry of diagonal qutrit states in the (n3, n8) plane.

Diagonal density matrices rho = (1/3)(I + sqrt(3)(n3 lambda_3 + n8 lambda_8))
fill an equilateral triangle with pure vertices

    R = (sqrt(3)/2, 1/2)   B = (-sqrt(3)/2, 1/2)   G = (0, -1)

and the maximally mixed state at the origin.  The state constraints reduce to
two polynomial inequalities,

    0 <= n3^2 + n8^2 <= 1
    0 <= 2 n8^3 - 6 n3^2 n8 + 3 n3^2 + 3 n8^2 <= 1,

whose joint solution set is exactly that triangle.  Edge midpoints (named
M_RB, M_RG, M_BG after the vertices they join; each vertex label is used once)
are the equal mixtures of two vertices; M_BG sits at (-sqrt(3)/4, -1/4), the
image of (1/2) diag(0, 1, 1).

The module also evaluates the entropy of mixing over the triangle and
extracts equi-entropy contours by marching triangles on the triangle's own
lattice, whose points have the weights (i, j, N - i - j)/N.  These weights
take only the N + 1 values k/N, so the lattice entropy costs N + 1
logarithms.  Each lattice cell holds at most one segment, and Newton steps
with a bisection fallback refine every crossing at once, so every emitted
point meets the requested |E - level| tolerance.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .bloch import DEFAULT_TOL, ValidationError, _in_unit_interval, _require_all, _require_tol
from .density import _LN3, _entropy, _xlogx
from .gellmann import SQRT3


class DiagPoint(NamedTuple):
    """Coordinates of a diagonal state in the triangle plane."""

    n3: float
    n8: float


# The (R, B, G) weights of each named state, whose density matrix is their
# diagonal; the coordinates invert diag_eigenvalues.
_WEIGHTS = {
    "R": (1.0, 0.0, 0.0),
    "B": (0.0, 1.0, 0.0),
    "G": (0.0, 0.0, 1.0),
    "M_RB": (0.5, 0.5, 0.0),
    "M_RG": (0.5, 0.0, 0.5),
    "M_BG": (0.0, 0.5, 0.5),
    "O": (1 / 3, 1 / 3, 1 / 3),
}
_POINTS = {k: DiagPoint(SQRT3 / 2 * (r - b), (r + b) / 2 - g) for k, (r, b, g) in _WEIGHTS.items()}
VERTICES = {k: _POINTS[k] for k in ("R", "B", "G")}
EDGE_MIDPOINTS = {k: _POINTS[k] for k in ("M_RB", "M_RG", "M_BG")}
ORIGIN = _POINTS["O"]

N3_RANGE = (-SQRT3 / 2, SQRT3 / 2)
N8_RANGE = (-1.0, 0.5)

_REAL = (int, float, np.integer, np.floating, np.ndarray)


def _checked_point(p):
    """(n3, n8) of a point, or of point arrays: the one check of every triangle input.

    Each coordinate must be a real number or a real array, and is returned as
    given, so Python floats in give Python floats out.
    """
    try:
        n3, n8 = p
    except (TypeError, ValueError):
        n3 = n8 = None
    if not all(isinstance(c, _REAL) and np.asarray(c).dtype.kind in "iuf" for c in (n3, n8)):
        raise ValidationError("a point must be a pair (n3, n8) of real numbers or real arrays")
    return n3, n8


def _check_resolution(resolution) -> int:
    """resolution as an int of at least 2: the one check of every grid and lattice size."""
    try:
        resolution = operator.index(resolution)
    except TypeError:
        raise ValueError(f"resolution must be an integer, got {resolution!r}") from None
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    return resolution


def bloch_from_diag(p) -> np.ndarray:
    """Embed (n3, n8) as the 8-vector with only components 3 and 8 set.

    n3 and n8 broadcast to one shape S, and the result has shape (*S, 8).
    """
    n3, n8 = _checked_point(p)
    n = np.zeros((*np.broadcast(n3, n8).shape, 8))
    n[..., 2], n[..., 7] = n3, n8
    return n


def diag_constraints(p):
    """The two reduced constraint polynomials (q1, q2) at a diagonal point.

    p lies in the state triangle exactly when both values are in [0, 1].
    These are the restrictions of the full 8-vector state functionals.
    p = (n3, n8) may hold arrays of one shape; q1 and q2 then have it too.
    """
    return _diag_constraints(*_checked_point(p))


def _diag_constraints(n3, n8):
    """diag_constraints of checked coordinates."""
    return n3 * n3 + n8 * n8, 2 * n8**3 - 6 * n3**2 * n8 + 3 * n3**2 + 3 * n8**2


def in_triangle(p, tol: float = DEFAULT_TOL) -> bool | np.ndarray:
    """True when both constraint polynomials lie in [-tol, 1 + tol]; one answer per point."""
    p = _checked_point(p)
    _require_tol(tol)
    q1, q2 = _diag_constraints(*p)
    inside = _in_unit_interval(q1, tol) & _in_unit_interval(q2, tol)
    return bool(inside) if np.ndim(inside) == 0 else inside


def diag_eigenvalues(p) -> np.ndarray:
    """Eigenvalues of the diagonal state, in (R, B, G) weight order.

    The triple ((1 + sqrt(3) n3 + n8)/3, (1 - sqrt(3) n3 + n8)/3,
    (1 - 2 n8)/3) is affine in p and evaluates to the unit vectors at the
    vertices, so it doubles as barycentric coordinates on the triangle.
    The triple runs along the first axis: n3 and n8 broadcast to one shape S,
    and the result has shape (3, *S), the layout mixing_entropy takes.
    """
    return np.array(np.broadcast_arrays(*_weights(*_checked_point(p))), dtype=float)


def _weights(n3, n8):
    """The weights of diag_eigenvalues, each in its own inputs' broadcast shape: the third uses n8 alone."""
    s = SQRT3 * n3
    return (1.0 + s + n8) / 3.0, (1.0 - s + n8) / 3.0, (1.0 - 2.0 * n8) / 3.0


def diag_entropy(p, tol: float = DEFAULT_TOL) -> float | np.ndarray:
    """Entropy of mixing at diagonal points inside the triangle; raises for the first outside."""
    p = _checked_point(p)
    _require_tol(tol)
    outside = "point ({}, {}) is outside the state triangle"
    _require_all([(_in_unit_interval(q, tol), p, outside) for q in _diag_constraints(*p)])
    return _entropy(*map(_xlogx, _weights(*p)))


def named_points() -> dict[str, tuple[DiagPoint, np.ndarray]]:
    """Labeled special states: vertices, edge midpoints, and the origin.

    Maps label -> (triangle coordinates, density matrix), in the fixed order
    R, B, G, M_RB, M_RG, M_BG, O.
    """
    return {k: (_POINTS[k], np.diag(w).astype(complex)) for k, w in _WEIGHTS.items()}


@dataclass(frozen=True)
class EntropyGrid:
    """Uniform sampling of the triangle's bounding box.

    2-D arrays are indexed [i8, i3] against the two axis vectors.  entropy is
    NaN at out-of-region points: values there are deliberately not defined.
    """

    n3: np.ndarray
    n8: np.ndarray
    q1: np.ndarray
    q2: np.ndarray
    in_region: np.ndarray
    entropy: np.ndarray


def entropy_grid(resolution: int, tol: float = DEFAULT_TOL) -> EntropyGrid:
    """Evaluate constraints and entropy on a resolution x resolution grid."""
    resolution = _check_resolution(resolution)
    _require_tol(tol)
    n3 = np.linspace(*N3_RANGE, resolution)
    n8 = np.linspace(*N8_RANGE, resolution)
    # The third weight depends on n8 alone, so no (3, R, R) stack is built.
    # The entropy comes first, so its temporaries are gone before q1 and q2.
    entropy = _entropy(*map(_xlogx, _weights(n3, n8[:, None])))
    # On the broadcast axes the cubes of n8 are taken R times, not R**2 times;
    # q1 and q2 each mix both axes, so they come out (R, R).
    q1, q2 = _diag_constraints(n3, n8[:, None])
    in_region = _in_unit_interval(q1, tol) & _in_unit_interval(q2, tol)
    entropy[~in_region] = np.nan
    return EntropyGrid(n3=n3, n8=n8, q1=q1, q2=q2, in_region=in_region, entropy=entropy)


def _newton_refine(p0, p1, b0, b1, level, tol, max_iter=120) -> np.ndarray:
    """A point with |E - level| <= tol on each segment [p0, p1], one per column.

    b0 >= 0 > b1 are E - level at the ends.  The weights x = _weights(n3, n8)
    are affine along a segment and sum(dx) = 0, so dE/dt = -sum(dx log x)/ln 3.
    Each lane starts at the linear interpolant and takes Newton steps; a step
    that is not finite or leaves its bracket [ta, tb] is a bisection instead.
    """
    dx = np.subtract(_weights(*p1), _weights(*p0))
    held = dx == 0.0  # a weight held at zero along the segment adds nothing to dE/dt
    t = b0 / (b0 - b1)
    ta, tb = np.zeros_like(t), np.ones_like(t)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(1 + max_iter):
            point = (1.0 - t) * p0 + t * p1
            x = np.array(_weights(*point))
            e = _entropy(*_xlogx(x)) - level
            done = np.abs(e) <= tol
            if done.all():
                return point
            ta, tb = np.where(e >= 0.0, t, ta), np.where(e < 0.0, t, tb)
            slope = np.where(held, 0.0, dx * np.log(x)).sum(axis=0)
            newton = t + e * _LN3 / slope
            newton = np.where((ta < newton) & (newton < tb), newton, 0.5 * (ta + tb))
            t = np.where(done, t, newton)
    raise ValidationError(f"contour refinement failed to reach |E - {level}| <= {tol}")


def equi_entropy_contour(
    level: float, tol: float = DEFAULT_TOL, resolution: int = 256
) -> list[list[DiagPoint]]:
    """Polylines approximating the equi-entropy set {E = level} in the triangle.

    Marching triangles on the triangle's own lattice: the weights of
    diag_eigenvalues run over (i, j, N - i - j)/N with N = resolution - 1, so
    resolution counts lattice points per triangle edge and the triangle's
    edges are lattice edges.  A lattice edge carries a crossing when E - level
    changes sign across it; a lattice cell then has two crossed edges or
    none, and joins those two.  All crossings are refined at once along their
    lattice edges by Newton steps with a bisection fallback until
    |E - level| <= tol, so every returned vertex satisfies the tolerance.
    Below log3(2), the entropy at the edge midpoints, the set is three arcs,
    each cutting off one vertex and ending on two edges; above it, one loop
    around the origin.  A closed curve ends with its first point.

    Raises ValueError for a bad resolution, level or tol, checked in that
    order before any entropy is computed, and ValidationError when no lattice
    cell brackets the level (the level is not attained at this resolution).
    """
    resolution = _check_resolution(resolution)
    _check_level(level, tol)
    return _lattice_contour(_lattice_entropy(resolution), level, tol)


def _check_level(level: float, tol: float) -> None:
    """The checks of a contour level, then of its tol: raise ValueError unless
    level is in (0, 1) and tol > 0."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"contour level must be in (0, 1), got {level}")
    if not tol > 0:  # a convergence target, so 0 is rejected too (and NaN)
        raise ValueError("tol must be positive")


def _lattice_entropy(resolution: int) -> np.ndarray:
    """Entropy at the weights (i, j, n - i - j)/n, n = resolution - 1, as a
    (resolution, resolution) array indexed [i, j]; NaN where i + j > n, off
    the lattice.  resolution is a checked one."""
    n = resolution - 1
    h = _xlogx(np.arange(n + 1) / n)  # the n + 1 weights k/n are all the lattice has
    # row i of the windows of (h[n], ..., h[0], NaN, ...) reads h[n - i - j], NaN past i + j = n
    h_rest = sliding_window_view(np.concatenate([h[::-1], np.full(n, np.nan)]), n + 1)
    return _entropy(h[:, None], h, h_rest)


def _lattice_points(flat, n: int) -> np.ndarray:
    """(n3, n8) of the lattice points at flat indices i (n + 1) + j, one per column.

    n8 = 1.5 (i + j)/n - 1 is written as |sqrt(3) n3| - 1 + 3 min(i, j)/n, and
    as 0.5 where i + j = n, so that _weights gives an exact 0 weight on
    every edge of the triangle: where i or j is 0, 1 +/- sqrt(3) n3 + n8 then
    cancels in floating point.  The weight that vanishes along such an edge
    stays constant, which keeps the Newton slope of _newton_refine finite.
    """
    i, j = np.divmod(flat, n + 1)
    n3 = SQRT3 / 2 * ((i - j) / n)
    n8 = (np.abs(SQRT3 * n3) - 1.0) + 3.0 * np.minimum(i, j) / n
    return np.array([n3, np.where(i + j == n, 0.5, n8)])


def _lattice_contour(entropy, level: float, tol: float) -> list[list[DiagPoint]]:
    """equi_entropy_contour on the lattice entropy built by _lattice_entropy,
    for a level and tol that passed _check_level."""
    n, size = len(entropy) - 1, entropy.size
    b = (entropy - level).ravel()
    above = b >= 0.0
    cells = _crossed_cells(above, n)
    if cells.size == 0:
        raise ValidationError(f"level {level} is not bracketed at lattice resolution {n + 1}")
    # a crossed edge has one corner above the level; its id is above * size + below
    following = np.roll(cells, -1, axis=0)
    side = above[cells]
    ids = np.where(side, cells * size + following, following * size + cells)
    pairs = ids.T[(side != above[following]).T]  # the two crossed edges of each cell, in order
    edges, index = np.unique(pairs, return_inverse=True)
    i0, i1 = np.divmod(edges, size)
    p0, p1 = _lattice_points(i0, n), _lattice_points(i1, n)
    points = _newton_refine(p0, p1, b[i0], b[i1], level, tol)
    return _assemble_polylines(index.reshape(-1, 2), points.T.tolist())


def _crossed_cells(above, n: int) -> np.ndarray:
    """Corners (3, m) of the lattice cells whose corners are not all on one side.

    above holds, by flat index a = i (n + 1) + j, whether a lattice point is at
    or above the level.  The up cell (a, a + 1, a + n + 1) exists for i + j < n,
    the down cell (a + n + 2, a + n + 1, a + 1) for i + j < n - 1; up cells
    come first, each kind in flat order.  Four shifted (n, n) views compare
    the corners of every cell k = i n + j at once; a cell past the hypotenuse,
    whose off-lattice corners read as below, is dropped by its i + j.
    """
    grid = above.reshape(n + 1, n + 1)
    ij, ij1, i1j, i1j1 = grid[:-1, :-1], grid[:-1, 1:], grid[1:, :-1], grid[1:, 1:]
    up = np.flatnonzero((ij != ij1) | (ij != i1j))
    down = np.flatnonzero((i1j1 != i1j) | (i1j1 != ij1))
    up = up[up // n + up % n < n]
    down = down[down // n + down % n < n - 1]
    up, down = up + up // n, down + down // n  # k -> a
    return np.hstack([(up, up + 1, up + n + 1), (down + n + 2, down + n + 1, down + 1)])


def _assemble_polylines(pairs, points) -> list[list[DiagPoint]]:
    """Chain the segments pairs[k] between crossings into polylines.

    A crossing joins at most two segments, so the segments form disjoint paths
    and loops.  Paths are walked first, from their lower end; a loop is walked
    from its lowest crossing towards the neighbor of its first segment.
    """
    adjacency = [[] for _ in points]
    for a, b in pairs.tolist():
        adjacency[a].append(b)
        adjacency[b].append(a)
    points = [DiagPoint(*p) for p in points]
    seen = [False] * len(points)
    polylines = []
    ends = [e for e, nbrs in enumerate(adjacency) if len(nbrs) == 1]
    for start in ends + list(range(len(points))):
        if seen[start]:
            continue
        chain = [start]
        seen[start] = True
        onward = adjacency[start][:1]
        while onward:
            chain.append(onward[0])
            if seen[onward[0]]:
                break  # back at the start of a loop
            seen[onward[0]] = True
            onward = [nb for nb in adjacency[onward[0]] if nb != chain[-2]]
        polylines.append([points[e] for e in chain])
    return polylines
