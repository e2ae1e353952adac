"""Each public call checks each caller argument once, before computing from it.

Counting wrappers on the one vector, point, matrix and tol checks count the
checks a call makes, so a value the package built itself (a Haar draw, a
point of the contour lattice) shows up as a check too many; the kernels
behind the gates, patched to fail, show that a bad argument is rejected
before any of them runs.
"""

import collections
from fractions import Fraction

import numpy as np
import pytest

from qutrit_bloch import adjoint, bloch, cli, density, triangle

from conftest import sample_valid_bloch


@pytest.fixture
def checks(monkeypatch):
    counts = collections.Counter()

    def count(module, name):
        check = getattr(module, name)

        def counting(*args, **kwargs):
            counts[name] += 1
            return check(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    for module in (bloch, density, adjoint, cli):  # each module that calls _checked imports it by name
        count(module, "_checked")
    count(triangle, "_checked_point")
    count(density, "_checked_matrix")
    count(adjoint, "_checked_matrix")
    count(bloch, "_require_tol")
    count(triangle, "_require_tol")
    return counts


class CountingTol(float):
    """A tol that counts its `tol > x` comparisons: the contour checks tol inline, not through _require_tol."""

    compared = 0

    def __gt__(self, other):
        self.compared += 1
        return float(self) > other


STATE = sample_valid_bloch(np.random.default_rng(71), 1)[0]
RHO = density.bloch_matrix(STATE)
PURE_R, PURE_G = (triangle.bloch_from_diag(triangle.VERTICES[k]) for k in "RG")


class TestCheckCounts:
    def test_contour_checks_no_point_it_builds(self, checks):
        assert triangle.equi_entropy_contour(0.33, 1e-9, 64)
        assert checks["_checked_point"] == 0

    def test_grid_checks_no_point_it_builds(self, checks):
        triangle.entropy_grid(64)
        assert checks["_checked_point"] == 0

    @pytest.mark.parametrize(
        "name", ["diag_entropy", "in_triangle", "diag_eigenvalues", "diag_constraints", "bloch_from_diag"]
    )
    @pytest.mark.parametrize("p", [(0.1, 0.1), (np.linspace(-0.2, 0.2, 5), np.full(5, 0.1))], ids=["one", "stack"])
    def test_point_functions_check_the_point_once(self, name, p, checks):
        getattr(triangle, name)(p)
        assert checks["_checked_point"] == 1

    @pytest.mark.parametrize(
        "name",
        ["spectrum", "entropy_of_mixing", "to_bloch", "validate_density", "char_poly_coeffs",
         "eigvals_hermitian_3x3"],
    )
    @pytest.mark.parametrize("stack", [False, True], ids=["one", "stack"])
    def test_matrix_functions_check_the_matrix_once(self, name, stack, checks):
        getattr(density, name)(np.stack([RHO, RHO]) if stack else RHO)
        assert checks["_checked_matrix"] == 1
        assert checks["_checked"] == 0  # the vector is the gate's own projection: judged, not checked

    def test_an_overflowing_projection_is_judged_once_and_not_checked(self, checks):
        with pytest.raises(bloch.ValidationError, match=r"^not a state: \|n\|\^2 = inf outside \[0, 1\]"):
            density.to_bloch(np.diag([1e308, -1e308, 1.0]))
        assert checks["_checked"] == 0
        assert checks["_require_tol"] == 1

    @pytest.mark.parametrize("call", [bloch.is_mixed_state, bloch.is_pure, density.from_bloch])
    def test_state_gates_check_the_vector_once(self, call, checks):
        call(sample_valid_bloch(np.random.default_rng(59), 1)[0])
        assert checks["_checked"] == 1

    @pytest.mark.parametrize("vector, code", [("0.1 0 0 0 0 0 0 0.2", 0), ("0.9 0 0 0 0 0 0 0.9", 2)])
    def test_cli_check_checks_its_vector_once(self, vector, code, checks, capsys):
        assert cli.main(["check", *vector.split()]) == code
        assert checks["_checked"] == 1

    def test_geodesic_distance_checks_each_vector_once(self, checks):
        r, b = (triangle.bloch_from_diag(triangle.VERTICES[k]) for k in "RB")
        bloch.geodesic_distance(r, b)
        assert checks["_checked"] == 2
        assert checks["_require_tol"] == 1

    @pytest.mark.parametrize("count", [64, 2 * adjoint._ORBIT_CHUNK + 1])
    def test_orbit_sample_checks_its_vector_once_and_no_unitary(self, count, checks):
        adjoint.orbit_sample(sample_valid_bloch(np.random.default_rng(61), 1)[0], count, 0)
        assert checks["_checked"] == 1
        assert checks["_checked_matrix"] == 0

    def test_cli_orbit_checks_its_vector_once_and_no_unitary(self, checks, capsys):
        assert cli.main(["orbit", "--count", "64", "0.1", "0", "0", "0", "0", "0", "0", "0.2"]) == 0
        assert checks["_checked"] == 1
        assert checks["_checked_matrix"] == 0

    @pytest.mark.parametrize(
        "call, draw", [(adjoint.adjoint_su3, adjoint.haar_random_su3), (adjoint.adjoint_su2, adjoint.haar_random_su2)]
    )
    @pytest.mark.parametrize("stack", [False, True], ids=["one", "stack"])
    def test_adjoint_checks_the_unitary_once(self, call, draw, stack, checks):
        u = draw(67)
        call(np.stack([u, u]) if stack else u)
        assert checks["_checked_matrix"] == 1

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda: bloch.is_pure(STATE), id="is_pure"),
            pytest.param(lambda: bloch.is_mixed_state(STATE), id="is_mixed_state"),
            pytest.param(lambda: bloch.geodesic_distance(PURE_R, PURE_G), id="geodesic_distance"),
            pytest.param(lambda: density.from_bloch(STATE), id="from_bloch"),
            pytest.param(lambda: density.to_bloch(RHO), id="to_bloch"),
            pytest.param(lambda: adjoint.orbit_sample(STATE, 64, 0), id="orbit_sample"),
            pytest.param(lambda: triangle.in_triangle((0.1, 0.1)), id="in_triangle"),
            pytest.param(lambda: triangle.diag_entropy((0.1, 0.1)), id="diag_entropy"),
            pytest.param(lambda: triangle.entropy_grid(16), id="entropy_grid"),
        ],
    )
    def test_functions_taking_tol_check_it_once(self, call, checks):
        call()
        assert checks["_require_tol"] == 1

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda tol: triangle.equi_entropy_contour(0.5, tol, 16), id="equi_entropy_contour"),
            pytest.param(lambda tol: triangle._contours([0.2, 0.5, 0.9], tol, 16), id="three-levels"),
        ],
    )
    def test_contour_checks_tol_once(self, call):
        tol = CountingTol(1e-9)
        assert call(tol)
        assert tol.compared == 1


@pytest.fixture
def kernels_fail(monkeypatch):
    """Patch the kernels behind the triangle and state gates to fail when reached."""

    def fail(*args, **kwargs):
        raise AssertionError("a kernel ran before the arguments were checked")

    for module, name in [
        (triangle, "_xlogx"),
        (triangle, "_entropy"),
        (triangle, "_weights"),
        (triangle, "_diag_constraints"),
        (bloch, "_constraints"),
        (bloch, "_bounds"),
        (bloch, "_pure"),
    ]:
        monkeypatch.setattr(module, name, fail)


grid, contour = triangle.entropy_grid, triangle.equi_entropy_contour


def case(id, message, call):
    return pytest.param(call, message, id=id)


class TestFailFirst:
    @pytest.mark.parametrize(
        "call, message",
        [
            case("grid-tol", "tol must be nonnegative", lambda: grid(1500, tol=-1.0)),
            case("grid-tol-nan", "tol must be nonnegative", lambda: grid(1500, tol=float("nan"))),
            case("grid-resolution-first", "resolution must be at least 2", lambda: grid(1, tol=-1.0)),
            case("contour-level", r"level must be in \(0, 1\), got 1.5", lambda: contour(1.5, 1e-9, 1500)),
            case("contour-level-0", r"level must be in \(0, 1\), got 0.0", lambda: contour(0.0, 1e-9, 1500)),
            case("contour-tol", "tol must be positive", lambda: contour(0.5, 0.0, 1500)),
            case("contour-level-first", "level must be in", lambda: contour(1.5, -1.0, 1500)),
            case("contour-resolution-first", "resolution must be at least 2", lambda: contour(1.5, -1.0, 1)),
            case(
                "contours-every-level-first",
                r"level must be in \(0, 1\), got 1.5",
                lambda: triangle._contours([0.5, 1.5], 0.0, 8),
            ),
            case("in_triangle-tol", "tol must be nonnegative", lambda: triangle.in_triangle((0.1, 0.1), -1.0)),
            case("diag_entropy-tol", "tol must be nonnegative", lambda: triangle.diag_entropy((0.1, 0.1), -1.0)),
            case("is_mixed_state-tol", "tol must be nonnegative", lambda: bloch.is_mixed_state(np.zeros(8), -1.0)),
            case("from_bloch-tol", "tol must be nonnegative", lambda: density.from_bloch(np.zeros(8), -1.0)),
            case("is_pure-tol", "tol must be nonnegative", lambda: bloch.is_pure(np.zeros(8), -1.0)),
        ],
    )
    def test_bad_arguments_raise_before_any_kernel(self, call, message, kernels_fail):
        with pytest.raises(ValueError, match=message):
            call()

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda: grid(8), id="entropy_grid"),
            pytest.param(lambda: contour(0.5, 1e-9, 8), id="equi_entropy_contour"),
            pytest.param(lambda: triangle.diag_entropy((0.1, 0.1)), id="diag_entropy"),
            pytest.param(lambda: bloch.is_mixed_state(np.zeros(8)), id="is_mixed_state"),
            pytest.param(lambda: bloch.is_pure(np.zeros(8)), id="is_pure"),
        ],
    )
    def test_good_arguments_reach_the_kernels(self, call, kernels_fail):
        with pytest.raises(AssertionError, match="kernel ran"):
            call()

    def test_a_bad_point_is_reported_before_a_bad_tol(self, kernels_fail):
        with pytest.raises(bloch.ValidationError, match="a point must be a pair"):
            triangle.diag_entropy((0.1, "x"), -1.0)
        with pytest.raises(bloch.ValidationError, match="8 components"):
            bloch.is_mixed_state(np.zeros(3), -1.0)
        with pytest.raises(bloch.ValidationError, match="8 components"):
            bloch.is_pure(np.zeros(3), -1.0)


def one_line_error(call, message):
    with pytest.raises(bloch.ValidationError, match=message) as info:
        call()
    assert "\n" not in str(info.value)


class TestRealDtypes:
    """Each array gate takes numbers of its kind only: a complex, string, bool or object array is an error."""

    @pytest.mark.parametrize(
        "values, dtype",
        [
            (np.full(8, 0.1 + 5j), "complex128"),
            (["0"] * 8, "<U1"),
            ([False] * 8, "bool"),
            ([Fraction(1, 10)] * 8, "object"),
            ([2**70] + [0] * 7, "object"),
        ],
        ids=["complex", "string", "bool", "fraction", "int-past-int64"],
    )
    @pytest.mark.parametrize("call", [bloch.is_mixed_state, bloch.as_bloch_vector, density.from_bloch])
    def test_vector_gate(self, call, values, dtype):
        one_line_error(lambda: call(values), f"^Bloch vector components must be real numbers, got dtype {dtype}$")

    @pytest.mark.parametrize(
        "values, dtype",
        [([1 + 1j, 0, 0], "complex128"), (["1", "0", "0"], "<U1"), ([True, False, False], "bool"),
         ([Fraction(1), 0, 0], "object")],
        ids=["complex", "string", "bool", "fraction"],
    )
    def test_eigenvalue_gate(self, values, dtype):
        one_line_error(
            lambda: density.mixing_entropy(values), f"^eigenvalues must be real numbers, got dtype {dtype}$"
        )

    @pytest.mark.parametrize(
        "values, dtype",
        [(np.full((3, 3), "1"), "<U1"), (np.eye(3, dtype=bool), "bool"), (np.eye(3).astype(object), "object")],
        ids=["string", "bool", "object"],
    )
    @pytest.mark.parametrize("call", [density.eigvals_hermitian_3x3, density.to_bloch, adjoint.adjoint_su3])
    def test_matrix_gate(self, call, values, dtype):
        one_line_error(lambda: call(values), f"^matrix entries must be numbers, got dtype {dtype}$")

    def test_integer_and_narrow_float_inputs_are_their_float64_values(self):
        n = np.array([0.25, 0, 0, 0, 0, 0, 0, -0.5])
        assert bloch.state_constraints(n.astype(np.float32)) == bloch.state_constraints(n)
        assert bloch.state_constraints(np.eye(8, dtype=np.int8)[0]) == bloch.state_constraints(np.eye(8)[0])
        assert density.mixing_entropy([1, 0, 0]) == 0.0
        np.testing.assert_array_equal(density.eigvals_hermitian_3x3(np.eye(3, dtype=int)), np.ones(3))
        np.testing.assert_array_equal(adjoint.adjoint_su3(np.eye(3, dtype=int)), adjoint.adjoint_su3(np.eye(3)))
