import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qutrit_bloch import density, triangle
from qutrit_bloch.bloch import ValidationError
from qutrit_bloch.gellmann import SQRT3

from conftest import rho_from_bloch_oracle

LOG3_2 = math.log(2) / math.log(3)

in_box_point = st.tuples(
    st.floats(-SQRT3 / 2, SQRT3 / 2, allow_nan=False, allow_infinity=False),
    st.floats(-1.0, 0.5, allow_nan=False, allow_infinity=False),
)


def rotate_120(p):
    c, s = -0.5, SQRT3 / 2
    return triangle.DiagPoint(c * p[0] - s * p[1], s * p[0] + c * p[1])


# d(weights)/d(n3, n8) for diag_eigenvalues, one row per weight
WEIGHT_JACOBIAN = np.array([[SQRT3 / 3, 1 / 3], [-SQRT3 / 3, 1 / 3], [0.0, -2 / 3]])


def reference_contour(level, tol, resolution):
    """Scalar marching squares: pair each cell's crossings, bisect each one.

    Returns polylines of (point, |dE/ds|) with s the arclength along the cell
    edge the point lies on.  Edges are keyed (kind, iy, ix) and the polylines
    are walked from sorted keys, open chains first.
    """
    grid = triangle.entropy_grid(resolution)
    b = (grid.entropy - level).tolist()
    valid = grid.in_region.tolist()
    above = (grid.in_region & (grid.entropy >= level)).tolist()

    def ends(edge):
        kind, iy, ix = edge
        return (iy, ix), (iy, ix + 1) if kind == "h" else (iy + 1, ix)

    def crossed(edge):
        (py, px), (qy, qx) = ends(edge)
        return valid[py][px] and valid[qy][qx] and above[py][px] != above[qy][qx]

    def refine(edge):
        p, q = ends(edge)
        if b[p[0]][p[1]] < 0.0:
            p, q = q, p
        b0, b1 = b[p[0]][p[1]], b[q[0]][q[1]]
        a = np.array([grid.n3[p[1]], grid.n8[p[0]]])
        c = np.array([grid.n3[q[1]], grid.n8[q[0]]])
        lo, hi, t = 0.0, 1.0, b0 / (b0 - b1)
        for _ in range(200):
            point = (1.0 - t) * a + t * c
            e = density.mixing_entropy(triangle.diag_eigenvalues(point)) - level
            if abs(e) <= tol:
                break
            lo, hi = (t, hi) if e >= 0.0 else (lo, t)
            t = 0.5 * (lo + hi)
        else:
            raise AssertionError("reference bisection did not converge")
        du = WEIGHT_JACOBIAN @ ((c - a) / np.hypot(*(c - a)))
        logs = np.log(np.where(du != 0.0, triangle.diag_eigenvalues(point), 1.0))
        return point, abs(du @ logs) / math.log(3)

    adjacency = {}
    for iy in range(resolution - 1):
        for ix in range(resolution - 1):
            sides = [("h", iy, ix), ("v", iy, ix + 1), ("h", iy + 1, ix), ("v", iy, ix)]
            hit = [e for e in sides if crossed(e)]
            if len(hit) == 2:
                pairs = [hit]
            elif len(hit) == 4:
                center = 0.25 * (b[iy][ix] + b[iy][ix + 1] + b[iy + 1][ix + 1] + b[iy + 1][ix])
                if above[iy][ix] == (center >= 0.0):
                    pairs = [(sides[0], sides[1]), (sides[2], sides[3])]
                else:
                    pairs = [(sides[3], sides[0]), (sides[1], sides[2])]
            else:
                pairs = []
            for ea, eb in pairs:
                adjacency.setdefault(ea, []).append(eb)
                adjacency.setdefault(eb, []).append(ea)
    if not adjacency:
        raise ValidationError("not bracketed")

    used = set()
    polylines = []
    starts = sorted(e for e, nbrs in adjacency.items() if len(nbrs) == 1) + sorted(adjacency)
    for start in starts:
        chain, current = [start], start
        while True:
            step = next((nb for nb in adjacency[current] if frozenset((current, nb)) not in used), None)
            if step is None:
                break
            used.add(frozenset((current, step)))
            chain.append(step)
            current = step
        if len(chain) == 1:
            continue
        if len(adjacency[start]) > 1:
            chain.append(start)
        polylines.append([refine(e) for e in chain])
    return polylines


class TestConstraints:
    def test_origin(self):
        assert triangle.diag_constraints((0.0, 0.0)) == (0.0, 0.0)

    def test_vertex_r_saturates_both(self):
        q1, q2 = triangle.diag_constraints(triangle.VERTICES["R"])
        assert abs(q1 - 1.0) <= 1e-15
        assert abs(q2 - 1.0) <= 1e-15

    def test_edge_midpoint_value(self):
        q1, q2 = triangle.diag_constraints((0.0, 0.5))
        assert q1 == 0.25
        assert q2 == 1.0
        # cross-check: the matching state (1/2)diag(1,1,0) has determinant 0
        assert abs(np.linalg.det(np.diag([0.5, 0.5, 0.0]))) == 0.0

    def test_restriction_of_full_functionals(self):
        from qutrit_bloch.bloch import state_constraints

        rng = np.random.default_rng(5)
        for _ in range(50):
            p = rng.uniform(-1, 1, 2)
            full = state_constraints(triangle.bloch_from_diag(p))
            reduced = triangle.diag_constraints(p)
            assert abs(full[0] - reduced[0]) <= 1e-14
            assert abs(full[1] - reduced[1]) <= 1e-13


class TestMembership:
    def test_origin_inside(self):
        assert triangle.in_triangle((0.0, 0.0))

    def test_above_top_edge_outside(self):
        assert not triangle.in_triangle((0.0, 0.6))
        # eigenvalue cross-check: (1 - 2*0.6)/3 < 0
        assert triangle.diag_eigenvalues((0.0, 0.6)).min() < 0

    def test_vertex_on_boundary_counts_inside(self):
        assert triangle.in_triangle(triangle.VERTICES["R"])

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError):
            triangle.in_triangle((0.0, 0.0), tol=-1.0)

    def test_constraints_broadcast_over_point_arrays(self):
        n3 = np.array([[0.0, 0.3], [-0.2, 0.1]])
        n8 = np.array([[0.0, -0.4], [0.25, 0.5]])
        q1, q2 = triangle.diag_constraints((n3, n8))
        xs = triangle.diag_eigenvalues((n3, n8))
        assert q1.shape == q2.shape == (2, 2) and xs.shape == (3, 2, 2)
        for i, j in np.ndindex(2, 2):
            assert (q1[i, j], q2[i, j]) == triangle.diag_constraints((n3[i, j], n8[i, j]))
            assert np.array_equal(xs[:, i, j], triangle.diag_eigenvalues((n3[i, j], n8[i, j])))

    @given(in_box_point)
    @settings(deadline=None, max_examples=300)
    def test_three_way_equivalence(self, p):
        tol = 1e-9
        q1, q2 = triangle.diag_constraints(p)
        xs = triangle.diag_eigenvalues(p)
        rho = rho_from_bloch_oracle(triangle.bloch_from_diag(p))
        min_eig = np.linalg.eigvalsh(rho)[0]
        boundary = min(abs(q1), abs(1 - q1), abs(q2), abs(1 - q2), abs(min_eig))
        if boundary <= tol:
            return
        by_poly = triangle.in_triangle(p, tol)
        by_bary = bool(xs.min() >= -tol)
        by_eigs = bool(min_eig >= -tol)
        assert by_poly == by_bary == by_eigs

    def test_three_way_equivalence_dense_grid(self):
        tol = 1e-9
        grid = triangle.entropy_grid(200, tol)
        x, y = np.meshgrid(grid.n3, grid.n8)
        xs = np.stack(
            [(1 + SQRT3 * x + y) / 3, (1 - SQRT3 * x + y) / 3, (1 - 2 * y) / 3]
        )
        by_bary = xs.min(axis=0) >= -tol
        vecs = np.zeros(x.shape + (8,))
        vecs[..., 2], vecs[..., 7] = x, y
        min_eig = np.linalg.eigvalsh(rho_from_bloch_oracle(vecs))[..., 0]
        by_eigs = min_eig >= -tol
        boundary = np.minimum.reduce(
            [
                np.abs(grid.q1),
                np.abs(1 - grid.q1),
                np.abs(grid.q2),
                np.abs(1 - grid.q2),
                np.abs(min_eig),
            ]
        )
        decisive = boundary > tol
        assert np.array_equal(grid.in_region[decisive], by_bary[decisive])
        assert np.array_equal(grid.in_region[decisive], by_eigs[decisive])


class TestNamedPoints:
    def test_labels_and_order(self):
        assert list(triangle.named_points()) == ["R", "B", "G", "M_RB", "M_RG", "M_BG", "O"]

    def test_vertex_coordinates(self):
        assert triangle.VERTICES["R"] == (SQRT3 / 2, 0.5)
        assert triangle.VERTICES["B"] == (-SQRT3 / 2, 0.5)
        assert triangle.VERTICES["G"] == (0.0, -1.0)

    def test_equilateral_side_sqrt3(self):
        vs = list(triangle.VERTICES.values())
        for i in range(3):
            a, b = vs[i], vs[(i + 1) % 3]
            side = math.hypot(a.n3 - b.n3, a.n8 - b.n8)
            assert abs(side - SQRT3) <= 1e-15

    def test_midpoint_bg_coordinate_from_matrix(self):
        # (1/2) diag(0,1,1) maps to (-sqrt(3)/4, -1/4); the coordinate is
        # forced by the trace inversion, and matches the average of B and G.
        n = density.to_bloch(np.diag([0.0, 0.5, 0.5]))
        assert abs(n[2] + SQRT3 / 4) <= 1e-15
        assert abs(n[7] + 0.25) <= 1e-15
        b, g = triangle.VERTICES["B"], triangle.VERTICES["G"]
        mid = triangle.EDGE_MIDPOINTS["M_BG"]
        assert mid == ((b.n3 + g.n3) / 2, (b.n8 + g.n8) / 2)

    def test_points_match_their_densities(self):
        for label, (point, rho) in triangle.named_points().items():
            n = density.to_bloch(rho)
            assert abs(n[2] - point.n3) <= 1e-14, label
            assert abs(n[7] - point.n8) <= 1e-14, label
            np.testing.assert_allclose(
                density.from_bloch(triangle.bloch_from_diag(point)), rho, atol=1e-14
            )

    def test_returned_matrices_are_copies(self):
        triangle.named_points()["R"][1][0, 0] = 99.0
        assert triangle.named_points()["R"][1][0, 0] == 1.0


class TestEntropy:
    def test_named_values(self):
        assert abs(triangle.diag_entropy(triangle.ORIGIN) - 1.0) <= 1e-12
        assert abs(triangle.diag_entropy(triangle.VERTICES["R"])) <= 1e-12
        assert abs(triangle.diag_entropy(triangle.EDGE_MIDPOINTS["M_RB"]) - LOG3_2) <= 1e-12

    def test_rejects_outside_point(self):
        with pytest.raises(ValidationError):
            triangle.diag_entropy((0.0, 0.6))

    def test_threefold_rotation_symmetry(self):
        # the 120-degree rotation permutes R -> B -> G
        assert np.allclose(rotate_120(triangle.VERTICES["R"]), triangle.VERTICES["B"])
        assert np.allclose(rotate_120(triangle.VERTICES["B"]), triangle.VERTICES["G"])
        rng = np.random.default_rng(13)
        kept = 0
        while kept < 200:
            p = (rng.uniform(-SQRT3 / 2, SQRT3 / 2), rng.uniform(-1, 0.5))
            if not triangle.in_triangle(p):
                continue
            kept += 1
            assert abs(triangle.diag_entropy(p) - triangle.diag_entropy(rotate_120(p))) <= 1e-10

    def test_mirror_symmetry_in_n3(self):
        rng = np.random.default_rng(17)
        kept = 0
        while kept < 200:
            p = (rng.uniform(-SQRT3 / 2, SQRT3 / 2), rng.uniform(-1, 0.5))
            if not triangle.in_triangle(p):
                continue
            kept += 1
            assert abs(triangle.diag_entropy(p) - triangle.diag_entropy((-p[0], p[1]))) <= 1e-12

    def test_matches_density_module(self):
        rng = np.random.default_rng(19)
        kept = 0
        while kept < 100:
            p = (rng.uniform(-SQRT3 / 2, SQRT3 / 2), rng.uniform(-1, 0.5))
            if not triangle.in_triangle(p):
                continue
            kept += 1
            rho = density.from_bloch(triangle.bloch_from_diag(p))
            assert abs(triangle.diag_entropy(p) - density.entropy_of_mixing(rho)) <= 1e-12


class TestEntropyGrid:
    def test_rejects_small_resolution(self):
        with pytest.raises(ValueError):
            triangle.entropy_grid(1)

    def test_shapes_and_axes(self):
        grid = triangle.entropy_grid(11)
        assert grid.n3.shape == (11,) and grid.n8.shape == (11,)
        assert grid.n3[0] == -SQRT3 / 2 and grid.n3[-1] == SQRT3 / 2
        assert grid.n8[0] == -1.0 and grid.n8[-1] == 0.5
        for arr in (grid.q1, grid.q2, grid.in_region, grid.entropy):
            assert arr.shape == (11, 11)

    def test_out_of_region_marked_not_extrapolated(self):
        grid = triangle.entropy_grid(51)
        assert np.all(np.isnan(grid.entropy[~grid.in_region]))
        assert np.all(np.isfinite(grid.entropy[grid.in_region]))

    def test_named_grid_values(self):
        # resolution 301 places the origin, all three vertices, and M_RB on
        # exact grid nodes
        grid = triangle.entropy_grid(301)
        i0, j0 = 200, 150
        assert grid.n8[i0] == 0.0 and grid.n3[j0] == 0.0
        assert abs(grid.entropy[i0, j0] - 1.0) <= 1e-12
        assert abs(grid.entropy[-1, -1]) <= 1e-12  # vertex R at the box corner
        assert abs(grid.entropy[-1, j0] - LOG3_2) <= 1e-12  # midpoint M_RB

    def test_extrema_locations(self):
        grid = triangle.entropy_grid(301)
        ent = np.where(grid.in_region, grid.entropy, -np.inf)
        assert np.unravel_index(np.argmax(ent), ent.shape) == (200, 150)
        zero = grid.in_region & (np.abs(grid.entropy) <= 1e-12)
        iy, ix = np.nonzero(zero)
        found = {(grid.n3[j], grid.n8[i]) for i, j in zip(iy, ix)}
        assert found == {
            (grid.n3[-1], 0.5),
            (grid.n3[0], 0.5),
            (0.0, -1.0),
        }

    @pytest.mark.parametrize("resolution", [5, 101])
    def test_entropy_is_the_scalar_kernel_bit_for_bit(self, resolution):
        # Odd resolutions put vertex G on a grid node, where the entropy is a
        # zero that must come out as +0, as the scalar path gives it.
        grid = triangle.entropy_grid(resolution)
        iy, ix = np.nonzero(grid.in_region)
        for i, j in zip(iy, ix):
            scalar = density.mixing_entropy(triangle.diag_eigenvalues((grid.n3[j], grid.n8[i])))
            assert np.float64(scalar).view(np.uint64) == grid.entropy[i, j].view(np.uint64)
        assert not np.any(np.signbit(grid.entropy[grid.in_region]))

    @pytest.mark.parametrize("resolution", [64, 101])
    def test_constraints_match_the_meshgrid_bit_for_bit(self, resolution):
        grid = triangle.entropy_grid(resolution)
        q1, q2 = triangle.diag_constraints(np.meshgrid(grid.n3, grid.n8))
        assert grid.q1.shape == grid.q2.shape == (resolution, resolution)
        assert grid.q1.tobytes() == q1.tobytes()
        assert grid.q2.tobytes() == q2.tobytes()

    def test_in_region_fraction_near_half(self):
        grid = triangle.entropy_grid(200)
        assert abs(grid.in_region.mean() - 0.5) <= 0.01


class TestContours:
    def test_every_point_meets_tolerance(self):
        for level in (0.25, 0.5, 0.75, 0.95):
            for line in triangle.equi_entropy_contour(level, tol=1e-10, resolution=200):
                for p in line:
                    assert abs(triangle.diag_entropy(p) - level) <= 1e-10

    def test_high_level_is_small_loop_around_origin(self):
        lines = triangle.equi_entropy_contour(0.999, tol=1e-9, resolution=256)
        assert len(lines) == 1
        (line,) = lines
        assert line[0] == line[-1]
        radii = [math.hypot(*p) for p in line]
        assert max(radii) < 0.05

    def test_mirror_symmetry(self):
        level = 0.7
        lines = triangle.equi_entropy_contour(level, tol=1e-10, resolution=200)
        pts = np.array([p for line in lines for p in line])
        for n3, n8 in pts:
            assert abs(triangle.diag_entropy((-n3, n8)) - level) <= 1e-10
        # the mirrored point set coincides with the original set
        mirrored = pts * [-1, 1]
        dists = np.abs(mirrored[:, None, :] - pts[None, :, :]).sum(axis=2).min(axis=1)
        assert dists.max() <= 2 * SQRT3 / 199

    def test_polylines_are_chains_of_nearby_points(self):
        step = 2 * SQRT3 / 127
        for line in triangle.equi_entropy_contour(0.6, tol=1e-9, resolution=128):
            seg = np.diff(np.asarray(line), axis=0)
            assert np.hypot(seg[:, 0], seg[:, 1]).max() <= step

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 1.5])
    def test_rejects_out_of_range_level(self, bad):
        with pytest.raises(ValueError):
            triangle.equi_entropy_contour(bad)

    @pytest.mark.parametrize("resolution", [64, 200, 256])
    @pytest.mark.parametrize("level", [0.1, 0.33, 0.436, 0.5, 0.95, 0.999])
    def test_matches_scalar_reference(self, level, resolution):
        tol = 1e-9
        expected = reference_contour(level, tol, resolution)
        lines = triangle.equi_entropy_contour(level, tol, resolution)
        assert [len(line) for line in lines] == [len(line) for line in expected]
        for line, ref in zip(lines, expected):
            assert (line[0] == line[-1]) == np.array_equal(ref[0][0], ref[-1][0])
            for p, (q, slope) in zip(line, ref):
                assert abs(triangle.diag_entropy(p) - level) <= tol
                # both points lie on one cell edge within tol of the level
                assert math.hypot(p[0] - q[0], p[1] - q[1]) <= 4 * tol / slope

    @pytest.mark.parametrize(
        ("b", "pairs"),
        [
            # above at bottom-left and top-right, corner average 0 >= 0: the
            # two are joined through the center, cutting off the other two
            ([[1.0, -1.0], [-1.0, 1.0]], [[0, 5], [2, 4]]),
            # the same corners, average -0.125 < 0: bottom-left and top-right
            # are cut off
            ([[1.0, -1.0], [-1.0, 0.5]], [[4, 0], [5, 2]]),
            # above at bottom-right and top-left, average 0.125 >= 0
            ([[-1.0, 1.0], [1.0, -0.5]], [[4, 0], [5, 2]]),
        ],
    )
    def test_saddle_cell_split_by_center_average(self, b, pairs):
        # one cell; its edge ids are bottom 0, top 2, left 4, right 5
        got = triangle._cell_pairs(np.array(b), np.ones((2, 2), bool))
        assert got.tolist() == pairs

    def test_single_crossing_cell_joins_nothing(self):
        b = np.array([[1.0, -1.0], [np.nan, np.nan]])
        valid = np.array([[True, True], [False, False]])
        assert triangle._cell_pairs(b, valid).shape == (0, 2)

    def test_unconverged_lane_raises(self):
        # From the origin (E = 1) to vertices R and G (E = 0) the linear
        # interpolant misses E = 0.5; with no further step neither lane converges.
        p0 = np.zeros((2, 2))
        p1 = np.array([[SQRT3 / 2, 0.0], [0.5, -1.0]])
        args = (p0, p1, np.array([0.5, 0.5]), np.array([-0.5, -0.5]), 0.5, 1e-9)
        with pytest.raises(ValidationError, match="refinement failed"):
            triangle._newton_refine(*args, max_iter=0)
        for p in triangle._newton_refine(*args).T:
            assert abs(triangle.diag_entropy(p) - 0.5) <= 1e-9

    def test_unattained_level_is_signaled(self):
        with pytest.raises(ValidationError, match="not bracketed"):
            triangle.equi_entropy_contour(0.5, tol=1e-9, resolution=2)


class TestBlochEmbedding:
    def test_components(self):
        n = triangle.bloch_from_diag((0.3, -0.4))
        assert n[2] == 0.3 and n[7] == -0.4
        assert np.all(n[[0, 1, 3, 4, 5, 6]] == 0)
