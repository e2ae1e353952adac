import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qutrit_bloch import density, triangle
from qutrit_bloch.bloch import ValidationError
from qutrit_bloch.gellmann import SQRT3

from conftest import rho_from_bloch_oracle, same_bits

ROOT = Path(__file__).resolve().parents[1]
LOG3_2 = math.log(2) / math.log(3)

in_box_point = st.tuples(
    st.floats(-SQRT3 / 2, SQRT3 / 2, allow_nan=False, allow_infinity=False),
    st.floats(-1.0, 0.5, allow_nan=False, allow_infinity=False),
)


def rotate_120(p):
    c, s = -0.5, SQRT3 / 2
    return triangle.DiagPoint(c * p[0] - s * p[1], s * p[0] + c * p[1])


def scalar_entropy(weights):
    return -sum(x * math.log(x) for x in weights if x > 0.0) / math.log(3)


def weights_to_point(w):
    return (SQRT3 / 2 * (w[0] - w[1]), (w[0] + w[1]) / 2 - w[2])


def reference_contour(level, tol, resolution):
    """Scalar marching triangles on the lattice of weights (i, j, n - i - j)/n.

    Each cell with two crossed edges joins them; each crossing is bisected in
    weight space.  Returns polylines of (point, |dE/ds|) with s the arclength
    along the lattice edge the point lies on.  An edge is keyed by its corners
    (i, j), the one above the level first, and the polylines are walked from
    sorted keys, open chains first.
    """
    n = resolution - 1
    weights = {
        (i, j): (i / n, j / n, (n - i - j) / n) for i in range(n + 1) for j in range(n + 1 - i)
    }
    above = {v: scalar_entropy(w) >= level for v, w in weights.items()}

    def refine(edge):
        wu, wv = weights[edge[0]], weights[edge[1]]
        lo, hi = 0.0, 1.0
        for _ in range(200):
            t = 0.5 * (lo + hi)
            w = [(1.0 - t) * a + t * b for a, b in zip(wu, wv)]
            e = scalar_entropy(w) - level
            if abs(e) <= tol:
                break
            lo, hi = (t, hi) if e >= 0.0 else (lo, t)
        else:
            raise AssertionError("reference bisection did not converge")
        # a unit step along a lattice edge (length sqrt(3)/n) moves the weights
        # by (v - u) n / sqrt(3)
        dw = [(b - a) * n / SQRT3 for a, b in zip(wu, wv)]
        slope = sum(d * math.log(x) for d, x in zip(dw, w) if d != 0.0)
        return weights_to_point(w), abs(slope) / math.log(3)

    adjacency = {}
    for i in range(n):
        for j in range(n - i):
            cells = [((i, j), (i, j + 1), (i + 1, j))]
            if i + j < n - 1:
                cells.append(((i + 1, j), (i, j + 1), (i + 1, j + 1)))
            for cell in cells:
                sides = [(cell[a], cell[b]) for a, b in ((0, 1), (1, 2), (0, 2))]
                hit = [e if above[e[0]] else e[::-1] for e in sides if above[e[0]] != above[e[1]]]
                assert len(hit) in (0, 2)
                if hit:
                    ea, eb = hit
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
        polylines.append([refine(e) for e in chain])
    return polylines


def same_polyline(a, b, delta):
    """a and b trace the same points within delta, in either direction and,
    when closed, from any start."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        return False
    candidates = [b, b[::-1]]
    if np.array_equal(a[0], a[-1]):
        a = a[:-1]
        candidates = [
            np.roll(c, -np.argmin(np.hypot(*(c - a[0]).T)), axis=0) for c in (b[:-1], b[-2::-1])
        ]
    return any(np.abs(c - a).max() <= delta for c in candidates)


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

    @pytest.mark.parametrize("bad", [(0.0,), np.zeros((3, 4)), ("a", 0.1)], ids=["one", "3x4", "str"])
    @pytest.mark.parametrize(
        "f", ["diag_constraints", "in_triangle", "diag_eigenvalues", "diag_entropy", "bloch_from_diag"]
    )
    def test_rejects_what_is_not_a_point_in_one_line(self, f, bad):
        with pytest.raises(ValidationError, match="pair \\(n3, n8\\)") as err:
            getattr(triangle, f)(bad)
        assert "\n" not in str(err.value)

    def test_a_point_of_python_floats_gives_python_floats(self):
        q1, q2 = triangle.diag_constraints((0.5, -0.25))
        assert type(q1) is float and type(q2) is float
        assert (q1, q2) == (0.3125, 1.28125)

    def test_answers_per_point(self):
        n3 = np.array([[0.0, 0.3], [-0.2, 0.0]])
        n8 = np.array([[0.0, 0.6], [0.25, -1.1]])
        inside = triangle.in_triangle((n3, n8))
        assert inside.shape == (2, 2) and inside.tolist() == [[True, False], [True, False]]
        for i, j in np.ndindex(2, 2):
            single = triangle.in_triangle((n3[i, j], n8[i, j]))
            assert type(single) is bool and single == inside[i, j]

    @pytest.mark.parametrize(
        "n3, n8",
        [
            (np.array([[0.0, 0.3], [-0.2, 0.1]]), np.array([[0.0, -0.4], [0.25, 0.5]])),
            np.meshgrid(triangle.entropy_grid(64).n3, triangle.entropy_grid(64).n8),
        ],
        ids=["2x2", "grid-64"],
    )
    def test_constraints_broadcast_over_point_arrays(self, n3, n8):
        # Each point gives the array's bits, as numpy scalars and as Python floats.
        q1, q2 = triangle.diag_constraints((n3, n8))
        xs = triangle.diag_eigenvalues((n3, n8))
        assert q1.shape == q2.shape == n3.shape and xs.shape == (3, *n3.shape)
        for idx in np.ndindex(n3.shape):
            for point in ((n3[idx], n8[idx]), (n3[idx].item(), n8[idx].item())):
                assert same_bits(np.array([q1[idx], q2[idx]]), np.array(triangle.diag_constraints(point)))
                assert np.array_equal(xs[(slice(None), *idx)], triangle.diag_eigenvalues(point))

    def test_a_far_point_of_python_floats_overflows_to_inf_not_an_error(self):
        far = (0.0, 1e200)
        assert triangle.diag_constraints(far) == (math.inf, math.inf)
        assert triangle.in_triangle(far) is False
        with pytest.raises(ValidationError, match="outside the state triangle"):
            triangle.diag_entropy(far)

    @pytest.mark.parametrize(
        "p",
        [(np.zeros(3), 0.25), (np.linspace(-0.4, 0.4, 5)[None, :], np.linspace(-0.2, 0.4, 5)[:, None])],
        ids=["vector-scalar", "row-column"],
    )
    def test_weights_and_entropy_broadcast_like_the_constraints(self, p):
        shape = np.broadcast_shapes(*map(np.shape, p))
        xs = triangle.diag_eigenvalues(p)
        entropy = triangle.diag_entropy(p)
        assert xs.shape == (3, *shape) and entropy.shape == shape
        for idx in np.ndindex(shape):
            point = tuple(np.broadcast_to(c, shape)[idx] for c in p)
            assert same_bits(xs[(slice(None), *idx)], triangle.diag_eigenvalues(point))
            assert same_bits(entropy[idx], triangle.diag_entropy(point))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.float16])
    def test_entropy_is_mixing_entropy_of_the_weights(self, dtype):
        w = np.random.default_rng(67).dirichlet([1.0, 1.0, 1.0], size=300).T
        p = (SQRT3 / 2 * (w[0] - w[1])).astype(dtype), ((w[0] + w[1]) / 2 - w[2]).astype(dtype)
        p = tuple(c[triangle.in_triangle(p)] for c in p)
        assert len(p[0]) > 200
        assert same_bits(triangle.diag_entropy(p), density.mixing_entropy(triangle.diag_eigenvalues(p)))
        for point in zip(*p):
            assert same_bits(triangle.diag_entropy(point), density.mixing_entropy(triangle.diag_eigenvalues(point)))

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
        with pytest.raises(ValidationError) as single:
            triangle.diag_entropy((-0.4, 0.6))
        assert str(single.value) == "point (-0.4, 0.6) is outside the state triangle"
        # 5x5 points whose last row lies above the top edge: one line naming the first
        with pytest.raises(ValidationError) as batch:
            triangle.diag_entropy((np.linspace(-0.4, 0.4, 5)[None, :], np.linspace(-0.2, 0.6, 5)[:, None]))
        assert str(batch.value) == str(single.value)

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

    @pytest.mark.parametrize("resolution", [2.5, 1.0, "3"])
    def test_rejects_a_resolution_that_is_not_an_integer(self, resolution):
        with pytest.raises(ValueError, match="resolution must be an integer"):
            triangle.entropy_grid(resolution)
        with pytest.raises(ValueError, match="resolution must be an integer"):
            triangle.equi_entropy_contour(0.5, 1e-9, resolution)

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

    def test_constraints_do_not_depend_on_the_simd_path(self):
        # numpy picks its kernels at run time; the variable makes a process use
        # the pre-AVX-512 ones, and is ignored where those features are unknown.
        code = (
            "import hashlib; from qutrit_bloch.triangle import entropy_grid\n"
            "for r in (64, 1000):\n"
            "    g = entropy_grid(r)\n"
            "    print(r, *(hashlib.sha256(a.tobytes()).hexdigest() for a in (g.q1, g.q2, g.in_region)))\n"
        )
        env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        outs = [
            subprocess.run([sys.executable, "-c", code], env=dict(env, **extra), capture_output=True, text=True).stdout
            for extra in ({}, {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"})
        ]
        assert outs[0].count("\n") == 2 and outs[0] == outs[1]

    def test_in_region_fraction_near_half(self):
        grid = triangle.entropy_grid(200)
        assert abs(grid.in_region.mean() - 0.5) <= 0.01

    @pytest.mark.parametrize("tol", [0.0, 1e-9])
    @pytest.mark.parametrize("resolution", [2, 3, 7, 64, 100, 101, 257])
    def test_grid_is_mirror_symmetric_bit_for_bit(self, resolution, tol):
        # Swapping the first two basis states maps n3 to -n3 and keeps q1, q2
        # and the entropy, so no in_region verdict may differ from its mirror's.
        grid = triangle.entropy_grid(resolution, tol)
        assert np.array_equal(grid.n3, -grid.n3[::-1])
        assert (grid.n3[0], grid.n3[-1]) == (-SQRT3 / 2, SQRT3 / 2)
        if resolution % 2:
            assert same_bits(grid.n3[resolution // 2], 0.0)
        for values in (grid.q1, grid.q2, grid.entropy, grid.in_region):
            assert same_bits(values, values[:, ::-1])


def clipped_entropy(weights):
    """mixing_entropy written with np.clip and one log per weight."""
    xs = np.clip(np.asarray(weights, dtype=float), 0.0, None)
    return -(xs * np.log(np.where(xs > 0.0, xs, 1.0))).sum(axis=0) / math.log(3.0) + 0.0


def lattice_weights(resolution):
    """The weights (i, j, n - i - j)/n as a (3, n + 1, n + 1) array, NaN off the lattice."""
    n = resolution - 1
    k = np.arange(n + 1)
    rest = n - np.add.outer(k, k)
    return np.array(np.broadcast_arrays(k[:, None], k, np.where(rest >= 0, rest, np.nan))) / n


def gathered_cells(above, n):
    """The crossed cells by gathering the corners of every lattice cell."""
    rank = np.add.outer(np.arange(n + 1), np.arange(n + 1)).ravel()
    up, down = np.flatnonzero(rank < n), np.flatnonzero(rank < n - 1)
    cells = np.hstack([(up, up + 1, up + n + 1), (down + n + 2, down + n + 1, down + 1)])
    side = above[cells]
    return cells[:, (side != side[0]).any(axis=0)]


@pytest.mark.parametrize("resolution", [2, 3, 7, 64, 100, 257])
class TestLatticeKernelsBitForBit:
    """The triangle kernels against the direct formulations, NaN bits included."""

    def test_lattice_entropy_is_the_entropy_of_the_weights(self, resolution):
        entropy = triangle._lattice_entropy(resolution)
        weights = lattice_weights(resolution)
        assert same_bits(entropy, density.mixing_entropy(weights))
        assert same_bits(entropy, clipped_entropy(weights))

    def test_grid_entropy_is_the_entropy_of_the_meshgrid(self, resolution):
        grid = triangle.entropy_grid(resolution)
        weights = triangle.diag_eigenvalues(np.meshgrid(grid.n3, grid.n8))
        assert same_bits(grid.entropy, np.where(grid.in_region, density.mixing_entropy(weights), np.nan))
        assert same_bits(grid.entropy, np.where(grid.in_region, clipped_entropy(weights), np.nan))

    def test_crossed_cells_are_the_gathered_ones(self, resolution):
        n = resolution - 1
        entropy = triangle._lattice_entropy(resolution)
        lattice = np.unique(entropy[(entropy > 0.0) & (entropy < 1.0)])
        # levels on lattice values put corners at b == 0, which count as above
        on_lattice = lattice[:: max(1, len(lattice) // 7)].tolist()
        tried_zero = False
        for level in [0.1, 0.436, 0.5, 0.7, 0.999, *on_lattice]:
            b = (entropy - level).ravel()
            tried_zero |= bool((b == 0.0).any())
            above = b >= 0.0
            assert np.array_equal(triangle._crossed_cells(above, n), gathered_cells(above, n))
        assert tried_zero == (resolution > 2)


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

    @pytest.mark.parametrize(("level", "resolution"), [(0.999, 256), (0.5, 64), (0.95, 200)])
    def test_no_point_repeats_its_predecessor(self, level, resolution):
        # A closed curve returns to its first point once, not twice.
        for line in triangle.equi_entropy_contour(level, tol=1e-9, resolution=resolution):
            assert all(p != q for p, q in zip(line, line[1:]))

    @pytest.mark.parametrize("resolution", [64, 65, 256, 257])
    @pytest.mark.parametrize("level", [0.05, 0.1, 0.3, 0.5, 0.6, 0.7, 0.9])
    def test_mirror_symmetry(self, level, resolution):
        # n3 -> -n3 maps the point set onto itself bit for bit, at odd and even resolutions
        points = {p for line in triangle.equi_entropy_contour(level, resolution=resolution) for p in line}
        assert {triangle.DiagPoint(-n3, n8) for n3, n8 in points} == points

    @pytest.mark.parametrize(
        "resolution, shape",
        [(65, [(False, 98)] * 3), (257, [(False, 394)] * 3), (64, [(True, 289)]), (256, [(True, 1183)])],
    )
    def test_a_lattice_point_at_the_level_counts_as_above_it(self, resolution, shape):
        # log3(2) is bit for bit the lattice entropy at the three edge midpoints of an odd resolution;
        # counted above the level, each midpoint splits the set into three arcs
        level = 0.6309297535714574
        assert level == math.log(2, 3)
        lines = triangle.equi_entropy_contour(level, resolution=resolution)
        assert [(line[0] == line[-1], len(line)) for line in lines] == shape

    def test_polylines_are_chains_of_nearby_points(self):
        step = 2 * SQRT3 / 127
        for line in triangle.equi_entropy_contour(0.6, tol=1e-9, resolution=128):
            seg = np.diff(np.asarray(line), axis=0)
            assert np.hypot(seg[:, 0], seg[:, 1]).max() <= step

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 1.5])
    def test_rejects_out_of_range_level(self, bad):
        with pytest.raises(ValueError):
            triangle.equi_entropy_contour(bad)

    @pytest.mark.parametrize("tol", [0.0, -1e-9, float("nan")])
    def test_rejects_a_tol_that_is_not_positive(self, tol):
        with pytest.raises(ValueError, match="tol must be positive"):
            triangle.equi_entropy_contour(0.5, tol, resolution=16)

    @pytest.mark.parametrize("resolution", [64, 200, 256])
    @pytest.mark.parametrize("level", [0.1, 0.33, 0.436, 0.5, 0.95, 0.999])
    def test_matches_scalar_reference(self, level, resolution):
        tol = 1e-9
        expected = reference_contour(level, tol, resolution)
        lines = triangle.equi_entropy_contour(level, tol, resolution)
        assert [len(line) for line in lines] == [len(line) for line in expected]
        for line, ref in zip(lines, expected):
            closed = line[0] == line[-1]
            assert closed == (ref[0][0] == ref[-1][0])
            if closed and math.dist(line[1], ref[1][0]) > math.dist(line[1], ref[-2][0]):
                ref = ref[::-1]  # a loop may run either way from its first point
            for p, (q, slope) in zip(line, ref):
                assert abs(triangle.diag_entropy(p) - level) <= tol
                # both points lie on one lattice edge within tol of the level
                assert math.dist(p, q) <= 4 * tol / slope

    @pytest.mark.parametrize("resolution", [64, 256, 1024])
    @pytest.mark.parametrize("level", [0.1, 0.3, 0.5, 0.6, 0.63, 0.7, 0.9, 0.999])
    def test_three_arcs_below_log3_2_one_loop_above(self, level, resolution):
        lines = triangle.equi_entropy_contour(level, resolution=resolution)
        closed = [line[0] == line[-1] for line in lines]
        if level < LOG3_2:
            assert closed == [False] * 3
            # each arc ends on the two edges at one vertex and cuts it off
            cut = set()
            for line in lines:
                ends = np.abs([triangle.diag_eigenvalues(line[k]) for k in (0, -1)])
                assert ends.min(axis=1).max() <= 1e-15
                on_edges = set(ends.argmin(axis=1).tolist())
                assert len(on_edges) == 2
                cut |= {0, 1, 2} - on_edges
            assert cut == {0, 1, 2}
        else:
            assert closed == [True]
        for line in lines:
            rotated = [rotate_120(p) for p in line]
            assert any(same_polyline(rotated, other, 1e-6) for other in lines)

    def test_unconverged_lane_raises(self):
        # No lane gets within 1e-300 of the level in the 120 steps after its linear start.
        with pytest.raises(ValidationError, match=r"^contour refinement failed to reach \|E - 0.5\| <= 1e-300$"):
            triangle.equi_entropy_contour(0.5, 1e-300, 8)
        # From the origin (E = 1) to vertices R and G (E = 0) the linear
        # interpolant misses E = 0.5; the steps after it converge.
        p0 = np.zeros((2, 2))
        p1 = np.array([[SQRT3 / 2, 0.0], [0.5, -1.0]])
        args = (p0, p1, np.array([0.5, 0.5]), np.array([-0.5, -0.5]), 0.5, 1e-9)
        for p in triangle._newton_refine(*args).T:
            assert abs(triangle.diag_entropy(p) - 0.5) <= 1e-9

    def test_unattained_level_is_signaled(self):
        with pytest.raises(ValidationError, match="not bracketed"):
            triangle.equi_entropy_contour(0.5, tol=1e-9, resolution=2)


class TestBlochEmbedding:
    def test_components(self):
        n = triangle.bloch_from_diag((0.3, -0.4))
        assert n.shape == (8,)
        assert n[2] == 0.3 and n[7] == -0.4
        assert np.all(n[[0, 1, 3, 4, 5, 6]] == 0)

    @pytest.mark.parametrize(
        "p",
        [
            np.zeros((2, 3)),
            (np.zeros(3), np.zeros(3)),
            (np.linspace(-0.4, 0.4, 5)[None, :], np.linspace(-0.2, 0.4, 4)[:, None]),
        ],
        ids=["2x3-array", "pair-of-vectors", "row-column"],
    )
    def test_broadcasts_like_the_weights(self, p):
        shape = np.broadcast_shapes(*map(np.shape, p))
        n = triangle.bloch_from_diag(p)
        assert n.shape == (*shape, 8)
        for idx in np.ndindex(shape):
            point = tuple(np.broadcast_to(c, shape)[idx] for c in p)
            assert same_bits(n[idx], triangle.bloch_from_diag(point))
        assert same_bits(n[..., [2, 7]], np.moveaxis(np.broadcast_arrays(*p), 0, -1))
