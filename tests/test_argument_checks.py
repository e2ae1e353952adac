"""Each public call checks each caller argument once, before computing from it.

Counting wrappers on the one point check and the one matrix check count the
checks a call makes; the kernels behind the gates, patched to fail, show that
a bad argument is rejected before any of them runs.
"""

import collections

import numpy as np
import pytest

from qutrit_bloch import bloch, density, triangle

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

    count(triangle, "_checked_point")
    count(density, "_checked_matrix")
    return counts


def rho():
    return density.from_bloch(sample_valid_bloch(np.random.default_rng(53), 1)[0])


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
        m = rho()
        getattr(density, name)(np.stack([m, m]) if stack else m)
        assert checks["_checked_matrix"] == 1


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
            case("in_triangle-tol", "tol must be nonnegative", lambda: triangle.in_triangle((0.1, 0.1), -1.0)),
            case("diag_entropy-tol", "tol must be nonnegative", lambda: triangle.diag_entropy((0.1, 0.1), -1.0)),
            case("is_mixed_state-tol", "tol must be nonnegative", lambda: bloch.is_mixed_state(np.zeros(8), -1.0)),
            case("from_bloch-tol", "tol must be nonnegative", lambda: density.from_bloch(np.zeros(8), -1.0)),
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
