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
extracts equi-entropy contours by marching squares with per-point bisection
refinement, so every emitted point meets the requested |E - level| tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bloch import DEFAULT_TOL, ValidationError, _in_unit_interval
from .density import mixing_entropy
from .gellmann import SQRT3


class DiagPoint(NamedTuple):
    """Coordinates of a diagonal state in the triangle plane."""

    n3: float
    n8: float


VERTICES = {
    "R": DiagPoint(SQRT3 / 2, 0.5),
    "B": DiagPoint(-SQRT3 / 2, 0.5),
    "G": DiagPoint(0.0, -1.0),
}
EDGE_MIDPOINTS = {
    "M_RB": DiagPoint(0.0, 0.5),
    "M_RG": DiagPoint(SQRT3 / 4, -0.25),
    "M_BG": DiagPoint(-SQRT3 / 4, -0.25),
}
ORIGIN = DiagPoint(0.0, 0.0)

N3_RANGE = (-SQRT3 / 2, SQRT3 / 2)
N8_RANGE = (-1.0, 0.5)

_DENSITIES = {
    "R": np.diag([1.0, 0.0, 0.0]).astype(complex),
    "B": np.diag([0.0, 1.0, 0.0]).astype(complex),
    "G": np.diag([0.0, 0.0, 1.0]).astype(complex),
    "M_RB": np.diag([0.5, 0.5, 0.0]).astype(complex),
    "M_RG": np.diag([0.5, 0.0, 0.5]).astype(complex),
    "M_BG": np.diag([0.0, 0.5, 0.5]).astype(complex),
    "O": (np.eye(3) / 3.0).astype(complex),
}


def bloch_from_diag(p) -> np.ndarray:
    """Embed (n3, n8) as the 8-vector with only components 3 and 8 set."""
    n3, n8 = p
    n = np.zeros(8)
    n[2], n[7] = n3, n8
    return n


def diag_constraints(p):
    """The two reduced constraint polynomials (q1, q2) at a diagonal point.

    p lies in the state triangle exactly when both values are in [0, 1].
    These are the restrictions of the full 8-vector state functionals.
    p = (n3, n8) may hold arrays of one shape; q1 and q2 then have it too.
    """
    n3, n8 = p
    q1 = n3 * n3 + n8 * n8
    q2 = 2 * n8**3 - 6 * n3**2 * n8 + 3 * n3**2 + 3 * n8**2
    return q1, q2


def in_triangle(p, tol: float = DEFAULT_TOL) -> bool:
    """True when both constraint polynomials lie in [-tol, 1 + tol]."""
    return bool(_in_unit_interval(diag_constraints(p), tol).all())


def diag_eigenvalues(p) -> np.ndarray:
    """Eigenvalues of the diagonal state, in (R, B, G) weight order.

    The triple ((1 + sqrt(3) n3 + n8)/3, (1 - sqrt(3) n3 + n8)/3,
    (1 - 2 n8)/3) is affine in p and evaluates to the unit vectors at the
    vertices, so it doubles as barycentric coordinates on the triangle.
    The triple runs along the first axis: p = (n3, n8) holding arrays of
    shape S gives an array of shape (3, *S), the layout mixing_entropy takes.
    """
    n3, n8 = p
    return np.array(
        [
            (1.0 + SQRT3 * n3 + n8) / 3.0,
            (1.0 - SQRT3 * n3 + n8) / 3.0,
            (1.0 - 2.0 * n8) / 3.0,
        ]
    )


def diag_entropy(p, tol: float = DEFAULT_TOL) -> float:
    """Entropy of mixing at a diagonal point inside the triangle."""
    if not in_triangle(p, tol):
        raise ValidationError(f"point {tuple(p)} is outside the state triangle")
    return mixing_entropy(diag_eigenvalues(p))


def named_points() -> dict[str, tuple[DiagPoint, np.ndarray]]:
    """Labeled special states: vertices, edge midpoints, and the origin.

    Maps label -> (triangle coordinates, density matrix), in the fixed order
    R, B, G, M_RB, M_RG, M_BG, O.
    """
    coords = {**VERTICES, **EDGE_MIDPOINTS, "O": ORIGIN}
    return {label: (coords[label], _DENSITIES[label].copy()) for label in coords}


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
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    n3 = np.linspace(*N3_RANGE, resolution)
    n8 = np.linspace(*N8_RANGE, resolution)
    x, y = np.meshgrid(n3, n8)
    q1, q2 = diag_constraints((x, y))
    in_region = _in_unit_interval((q1, q2), tol).all(axis=0)
    entropy = np.where(in_region, mixing_entropy(diag_eigenvalues((x, y))), np.nan)
    return EntropyGrid(n3=n3, n8=n8, q1=q1, q2=q2, in_region=in_region, entropy=entropy)


def _refine_crossing(p0, p1, b0, b1, level, tol, max_iter=120) -> DiagPoint:
    """Locate E = level on the segment [p0, p1] to within tol.

    b0 >= 0 > b1 are the endpoint values of E - level.  Starts from the
    linear interpolant and falls back to bisection; E is smooth along the
    segment and changes sign, so this terminates.
    """
    ta, tb = 0.0, 1.0
    t = b0 / (b0 - b1)
    for _ in range(1 + max_iter):
        point = (1.0 - t) * p0 + t * p1
        b = mixing_entropy(diag_eigenvalues(point)) - level
        if abs(b) <= tol:
            return DiagPoint(*point)
        if b >= 0.0:
            ta = t
        else:
            tb = t
        t = 0.5 * (ta + tb)
    raise ValidationError(
        f"contour refinement failed to reach |E - {level}| <= {tol}"
    )


def equi_entropy_contour(
    level: float, tol: float = DEFAULT_TOL, resolution: int = 256
) -> list[list[DiagPoint]]:
    """Polylines approximating the equi-entropy set {E = level} in the triangle.

    Marching squares over the entropy grid.  A cell edge carries a crossing
    when both endpoints are in-region and E - level changes sign across it;
    cells with exactly two crossings join them, cells with four (saddles) are
    disambiguated by the center value.  Out-of-region grid points never
    contribute, so the curve is clipped at the triangle boundary rather than
    extrapolated.  Each crossing is bisected along its cell edge until
    |E - level| <= tol, so every returned vertex satisfies the tolerance.
    Closed curves repeat their first point at the end.

    Raises ValidationError when no grid cell brackets the level (the level is
    not attained at this resolution).
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"contour level must be in (0, 1), got {level}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    grid = entropy_grid(resolution)
    b = grid.entropy - level
    above = np.where(grid.in_region, b >= 0.0, False)
    valid = grid.in_region

    crossing_h = valid[:, :-1] & valid[:, 1:] & (above[:, :-1] != above[:, 1:])
    crossing_v = valid[:-1, :] & valid[1:, :] & (above[:-1, :] != above[1:, :])
    counts = (
        crossing_h[:-1, :].astype(int)  # bottom
        + crossing_h[1:, :]             # top
        + crossing_v[:, :-1]            # left
        + crossing_v[:, 1:]             # right
    )
    iys, ixs = np.nonzero(counts >= 2)
    if len(iys) == 0:
        raise ValidationError(
            f"level {level} is not bracketed by the entropy grid at resolution {resolution}"
        )

    crossings: dict[tuple, DiagPoint] = {}
    adjacency: dict[tuple, list[tuple]] = {}

    def crossing_point(edge_id):
        if edge_id not in crossings:
            kind, iy, ix = edge_id
            jy, jx = (iy, ix + 1) if kind == "h" else (iy + 1, ix)
            p0 = np.array((grid.n3[ix], grid.n8[iy]))
            p1 = np.array((grid.n3[jx], grid.n8[jy]))
            b0, b1 = b[iy, ix], b[jy, jx]
            if b0 < 0.0:  # orient so the first endpoint is the one above
                p0, p1, b0, b1 = p1, p0, b1, b0
            crossings[edge_id] = _refine_crossing(p0, p1, b0, b1, level, tol)
        return crossings[edge_id]

    def connect(ea, eb):
        crossing_point(ea)
        crossing_point(eb)
        adjacency.setdefault(ea, []).append(eb)
        adjacency.setdefault(eb, []).append(ea)

    for iy, ix in zip(iys.tolist(), ixs.tolist()):
        edges = {
            "bottom": ("h", iy, ix),
            "top": ("h", iy + 1, ix),
            "left": ("v", iy, ix),
            "right": ("v", iy, ix + 1),
        }
        crossed = [
            name
            for name, hit in (
                ("bottom", crossing_h[iy, ix]),
                ("right", crossing_v[iy, ix + 1]),
                ("top", crossing_h[iy + 1, ix]),
                ("left", crossing_v[iy, ix]),
            )
            if hit
        ]
        if len(crossed) == 2:
            connect(edges[crossed[0]], edges[crossed[1]])
        elif len(crossed) == 4:
            # Saddle: pair so segments separate the corners opposite in sign
            # to the cell-center average.
            center = 0.25 * (b[iy, ix] + b[iy, ix + 1] + b[iy + 1, ix + 1] + b[iy + 1, ix])
            if bool(above[iy, ix]) == (center >= 0.0):
                pairs = [("bottom", "right"), ("top", "left")]
            else:
                pairs = [("left", "bottom"), ("right", "top")]
            for name_a, name_b in pairs:
                connect(edges[name_a], edges[name_b])
        # a single crossing is a dead end at the region boundary; skip

    return _assemble_polylines(adjacency, crossings)


def _assemble_polylines(adjacency, crossings) -> list[list[DiagPoint]]:
    """Chain shared cell-edge crossings into open and closed polylines."""
    used: set[tuple] = set()

    def link(a, b):
        return (a, b) if a <= b else (b, a)

    def walk(start):
        chain = [start]
        current = start
        while True:
            step = None
            for neighbor in adjacency[current]:
                if link(current, neighbor) not in used:
                    step = neighbor
                    break
            if step is None:
                return chain
            used.add(link(current, step))
            chain.append(step)
            current = step

    polylines = []
    endpoints = sorted(e for e, nbrs in adjacency.items() if len(nbrs) == 1)
    # Open chains first, from their dead ends; what remains are loops.
    for start in endpoints + sorted(adjacency):
        if all(link(start, nb) in used for nb in adjacency[start]):
            continue
        points = [crossings[e] for e in walk(start)]
        if len(adjacency[start]) > 1:
            points.append(points[0])
        polylines.append(points)
    return polylines
