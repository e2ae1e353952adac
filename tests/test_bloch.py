import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qutrit_bloch import bloch
from qutrit_bloch.density import from_bloch
from qutrit_bloch.gellmann import SQRT3
from qutrit_bloch.triangle import VERTICES, bloch_from_diag

from conftest import (
    f_oracle,
    d_oracle,
    rho_from_bloch_oracle,
    sample_box_bloch,
    sample_pure_bloch,
    sample_radial_bloch,
    sample_valid_bloch,
    same_bits,
)

N_R = bloch_from_diag(VERTICES["R"])
N_B = bloch_from_diag(VERTICES["B"])
N_G = bloch_from_diag(VERTICES["G"])


def basis_vec(i):
    e = np.zeros(8)
    e[i - 1] = 1.0
    return e


vec8 = st.lists(
    st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False), min_size=8, max_size=8
).map(np.array)


class TestVectorValidation:
    def test_accepts_lists_and_arrays(self):
        np.testing.assert_array_equal(bloch.as_bloch_vector([0] * 8), np.zeros(8))

    def test_rejects_wrong_length(self):
        with pytest.raises(bloch.ValidationError):
            bloch.as_bloch_vector([0] * 7)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        v = np.zeros(8)
        v[3] = bad
        with pytest.raises(bloch.ValidationError):
            bloch.as_bloch_vector(v)


class TestDot:
    def test_unit_basis(self):
        assert bloch.dot(basis_vec(3), basis_vec(3)) == 1.0

    def test_orthogonal_vertices(self):
        assert abs(bloch.dot(N_R, N_B) + 0.5) <= 1e-14
        assert abs(bloch.dot(N_R, N_G) + 0.5) <= 1e-14
        assert abs(bloch.dot(N_B, N_G) + 0.5) <= 1e-14

    @given(vec8, vec8)
    def test_symmetry(self, a, b):
        assert bloch.dot(a, b) == bloch.dot(b, a)


class TestWedge:
    def test_self_wedge_vanishes(self):
        v = np.arange(1.0, 9.0)
        np.testing.assert_array_equal(bloch.wedge(v, v), np.zeros(8))

    def test_e1_wedge_e2(self):
        # oracle: contraction against the trace-defined tensor
        expected = SQRT3 * np.array(
            [f_oracle(j, 1, 2) for j in range(1, 9)]
        )
        np.testing.assert_allclose(expected, SQRT3 * basis_vec(3), atol=1e-15)
        np.testing.assert_allclose(bloch.wedge(basis_vec(1), basis_vec(2)), expected, atol=1e-15)

    @given(vec8, vec8)
    def test_antisymmetry(self, a, b):
        np.testing.assert_array_equal(bloch.wedge(a, b), -bloch.wedge(b, a))

    @given(vec8, vec8, vec8)
    @settings(deadline=None)
    def test_bilinearity(self, a, b, c):
        lhs = bloch.wedge(a + b, c)
        rhs = bloch.wedge(a, c) + bloch.wedge(b, c)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_matches_commutator_oracle(self):
        # sqrt(3) f-contraction is the vector form of the matrix commutator:
        # [n.lambda, m.lambda] = 2i sum_l (sum_jk f_jkl n_j m_k) lambda_l
        rng = np.random.default_rng(5)
        for _ in range(25):
            a, b = rng.uniform(-1, 1, 8), rng.uniform(-1, 1, 8)
            fab = np.array(
                [
                    sum(
                        f_oracle(j, k, l) * a[j - 1] * b[k - 1]
                        for j in range(1, 9)
                        for k in range(1, 9)
                    )
                    for l in range(1, 9)
                ]
            )
            np.testing.assert_allclose(bloch.wedge(a, b), SQRT3 * fab, atol=1e-12)


class TestStar:
    def test_vertex_idempotent(self):
        np.testing.assert_allclose(bloch.star(N_R, N_R), N_R, atol=1e-15)

    def test_e3_star_e8(self):
        # oracle: brute-force contraction gives back e3
        expected = SQRT3 * np.array([d_oracle(j, 3, 8) for j in range(1, 9)])
        np.testing.assert_allclose(expected, basis_vec(3), atol=1e-15)
        np.testing.assert_allclose(bloch.star(basis_vec(3), basis_vec(8)), expected, atol=1e-15)

    def test_e8_star_e8_flips_sign(self):
        np.testing.assert_allclose(bloch.star(basis_vec(8), basis_vec(8)), -basis_vec(8), atol=1e-15)

    @given(vec8, vec8)
    def test_symmetry(self, a, b):
        np.testing.assert_array_equal(bloch.star(a, b), bloch.star(b, a))

    @given(vec8, vec8, vec8)
    @settings(deadline=None)
    def test_bilinearity(self, a, b, c):
        lhs = bloch.star(a + b, c)
        rhs = bloch.star(a, c) + bloch.star(b, c)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    @given(vec8)
    @settings(deadline=None)
    def test_cubic_contraction_order_invariant(self, n):
        from qutrit_bloch.gellmann import d_tensor

        t1 = bloch.dot(n, bloch.star(n, n))
        t2 = SQRT3 * float(np.einsum("jkl,j,k,l->", d_tensor(), n, n, n))
        assert abs(t1 - t2) <= 1e-12


class TestPurity:
    def test_vertex_is_pure(self):
        assert bloch.is_pure(N_R)

    def test_origin_is_not_pure(self):
        assert not bloch.is_pure(np.zeros(8))

    def test_e8_is_not_pure(self):
        # |e8| = 1 but star(e8, e8) = -e8
        assert not bloch.is_pure(basis_vec(8))

    def test_zero_tol_is_allowed(self):
        assert isinstance(bloch.is_pure(N_R, tol=0.0), bool)

    def test_matches_projector_oracle(self):
        rng = np.random.default_rng(11)
        samples = np.concatenate(
            [
                sample_box_bloch(rng, 1500),
                sample_pure_bloch(rng, 1000),
                sample_valid_bloch(rng, 500),
            ]
        )
        rhos = rho_from_bloch_oracle(samples)
        residual = np.abs(np.einsum("nab,nbc->nac", rhos, rhos) - rhos).max(axis=(1, 2))
        for n, res in zip(samples, residual):
            assert bloch.is_pure(n) == (res <= 1e-10)


class TestExactBoundaries:
    """Inputs that sit exactly on a bound of a gate, tested at tol = 0."""

    def test_vertex_g_is_pure_and_a_state(self):
        assert bloch.state_constraints(N_G) == (1.0, 1.0)
        assert bloch.is_pure(N_G, tol=0.0)
        assert bloch.is_mixed_state(N_G, tol=0.0)

    def test_origin_is_a_state(self):
        assert bloch.state_constraints(np.zeros(8)) == (0.0, 0.0)
        assert bloch.is_mixed_state(np.zeros(8), tol=0.0)

    def test_vertex_r_rounds_below_pure(self):
        # sqrt(3)/2 is inexact, so R's |n|^2 reads 1 - 1 ulp and its q2 1 - 2 ulp:
        # at tol = 0 the vertex is a state but not pure.
        below_one = np.nextafter(1.0, 0.0)
        assert bloch.state_constraints(N_R) == (below_one, np.nextafter(below_one, 0.0))
        assert bloch.is_mixed_state(N_R, tol=0.0)
        assert not bloch.is_pure(N_R, tol=0.0)


class TestMixedState:
    def test_origin_valid(self):
        assert bloch.is_mixed_state(np.zeros(8))

    def test_pure_vertex_valid(self):
        assert bloch.is_mixed_state(N_R)

    def test_overscaled_vertex_invalid(self):
        assert not bloch.is_mixed_state(1.2 * N_R)

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError):
            bloch.is_mixed_state(np.zeros(8), tol=-1.0)

    @pytest.mark.parametrize("tol", [-1e-12, float("nan")])
    def test_every_interval_gate_rejects_a_bad_tol(self, tol):
        from qutrit_bloch import density, triangle

        gates = [
            lambda: bloch.is_mixed_state(np.zeros(8), tol),
            lambda: density.from_bloch(np.zeros(8), tol),
            lambda: triangle.in_triangle((0.0, 0.0), tol),
            lambda: triangle.entropy_grid(3, tol),
            lambda: bloch.is_pure(np.zeros(8), tol),
        ]
        for gate in gates:
            with pytest.raises(ValueError, match="tol must be nonnegative"):
                gate()

    def test_constraints_at_vertices(self):
        for n in (N_R, N_B, N_G):
            q1, q2 = bloch.state_constraints(n)
            assert abs(q1 - 1.0) <= 1e-14
            assert abs(q2 - 1.0) <= 1e-14

    def test_matches_eigenvalue_oracle_bidirectionally(self):
        rng = np.random.default_rng(23)
        samples = np.concatenate(
            [
                sample_radial_bloch(rng, 6000),
                sample_box_bloch(rng, 3000),
                sample_valid_bloch(rng, 1000),
            ]
        )
        rhos = rho_from_bloch_oracle(samples)
        min_eigs = np.linalg.eigvalsh(rhos)[:, 0]
        norms = np.einsum("ni,ni->n", samples, samples)
        for n, lo, q1 in zip(samples, min_eigs, norms):
            if bloch.is_mixed_state(n):
                assert lo >= -1e-10
            else:
                assert lo < -1e-9 or q1 > 1.0


class TestGeodesicDistance:
    def test_orthogonal_vertices(self):
        assert abs(bloch.geodesic_distance(N_R, N_B) - 2 * math.pi / 3) <= 1e-12
        assert abs(bloch.geodesic_distance(N_R, N_G) - 2 * math.pi / 3) <= 1e-12

    def test_identical_states(self):
        # arccos loses half the digits near parallel states: the angle is
        # zero at sqrt(eps) resolution, not exactly
        assert abs(bloch.geodesic_distance(N_R, N_R)) <= 2e-8

    def test_rejects_non_pure_first_argument(self):
        with pytest.raises(bloch.ValidationError, match="first"):
            bloch.geodesic_distance(np.zeros(8), N_R)

    def test_rejects_non_pure_second_argument(self):
        with pytest.raises(bloch.ValidationError, match="second"):
            bloch.geodesic_distance(N_R, 0.5 * N_B)

    def test_clamps_rounding_on_parallel_states(self):
        rng = np.random.default_rng(3)
        n = sample_pure_bloch(rng, 1)[0]
        assert bloch.geodesic_distance(n, n) >= 0.0


def reference_constraints(n):
    """The one-vector formula of (q1, q2): symmetrized outer product, d
    contracted with einsum, np.dot.  state_constraints must keep its bits."""
    from qutrit_bloch.gellmann import d_tensor

    n = np.asarray(n, dtype=float)
    outer = np.outer(n, n)
    nn = SQRT3 * np.einsum("jkl,kl->j", d_tensor(), 0.5 * (outer + outer.T))
    q1 = float(np.dot(n, n))
    return q1, 3.0 * q1 - 2.0 * float(np.dot(n, nn))


wide_vec8 = st.lists(
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False), min_size=8, max_size=8
).map(np.array)


def mixed_stack(shape):
    """Pure, mixed and invalid vectors, shaped (*shape, 8)."""
    rng = np.random.default_rng(61)
    rows = np.concatenate(
        [sample_pure_bloch(rng, 2), sample_valid_bloch(rng, 2), sample_box_bloch(rng, 2)]
    )
    return rows[: math.prod(shape)].reshape(*shape, 8)


class TestBatchKernels:
    @given(st.one_of(vec8, wide_vec8))
    @settings(deadline=None)
    def test_constraints_keep_the_one_vector_bits(self, n):
        q = bloch.state_constraints(n)
        assert all(type(v) is float for v in q)
        assert same_bits(q, reference_constraints(n))

    @pytest.mark.parametrize("shape", [(5,), (2, 3)])
    def test_stack_rows_match_single_calls(self, shape):
        stack = mixed_stack(shape)
        q1, q2 = bloch.state_constraints(stack)
        mixed = bloch.is_mixed_state(stack)
        pure = bloch.is_pure(stack)
        assert q1.shape == q2.shape == mixed.shape == pure.shape == shape
        assert mixed.any() and not mixed.all() and pure.any()
        for idx in np.ndindex(*shape):
            n = stack[idx]
            assert same_bits((q1[idx], q2[idx]), bloch.state_constraints(n))
            assert mixed[idx] == bloch.is_mixed_state(n)
            assert pure[idx] == bloch.is_pure(n)
            assert same_bits(bloch.star(stack, stack)[idx], bloch.star(n, n))
            assert same_bits(bloch.wedge(stack, stack[::-1])[idx], bloch.wedge(n, stack[::-1][idx]))
            assert same_bits(bloch.dot(stack, stack[::-1])[idx], bloch.dot(n, stack[::-1][idx]))

    def test_single_vector_types(self):
        assert type(bloch.is_mixed_state(N_R)) is bool
        assert type(bloch.is_pure(N_R)) is bool
        assert type(bloch.dot(N_R, N_B)) is float

    def test_geodesic_distance_rejects_a_stack(self):
        with pytest.raises(bloch.ValidationError, match="first"):
            bloch.geodesic_distance(np.stack([N_R, N_B]), N_G)


class TestHugeComponents:
    """A finite vector too large for q1 or q2 in doubles: the gates say no, without a warning."""

    @pytest.mark.parametrize(
        "index, value, expected",
        [(0, 1e200, (math.inf, math.inf)), (7, 1e103, (1e206, math.inf)), (7, -1e103, (1e206, -math.inf)),
         (2, 1.7e308, (math.inf, math.inf))],
    )
    def test_state_gates(self, index, value, expected):
        n = value * basis_vec(index + 1)
        q = bloch.state_constraints(n)
        assert q == pytest.approx(expected, rel=1e-15)
        assert bloch.is_mixed_state(n) is False
        assert bloch.is_pure(n) is False
        with pytest.raises(bloch.ValidationError, match=r"not a state: \|n\|\^2 = ") as exc:
            from_bloch(n)
        assert str(exc.value).split(" = ")[1].startswith(f"{q[0]:.17g} ")

    def test_products_overflow_without_a_warning(self):
        # d_118 = 1/sqrt(3) and f_123 = 1; the suite turns every warning into an error
        n, m = 1e200 * basis_vec(1), 1e200 * basis_vec(2)
        assert bloch.dot(n, n) == math.inf and bloch.dot(n, -n) == -math.inf
        assert bloch.star(n, n)[7] == math.inf and bloch.star(n, -n)[7] == -math.inf
        assert bloch.wedge(n, m)[2] == math.inf and bloch.wedge(m, n)[2] == -math.inf
        stack = np.stack([N_R, n])
        assert same_bits(bloch.dot(stack, stack)[0], bloch.dot(N_R, N_R))
        assert same_bits(bloch.star(stack, stack)[0], bloch.star(N_R, N_R))
        assert same_bits(bloch.wedge(stack, stack[::-1])[0], bloch.wedge(N_R, n))

    def test_vanishing_components_read_zero(self):
        # star(e1, e1) = e8, wedge(e1, e2) = sqrt(3) e3 and (e1 + e2).(e1 - e2) = 0 exactly
        n, m = 1e200 * basis_vec(1), 1e200 * basis_vec(2)
        assert bloch.star(n, n).tolist() == [0.0] * 7 + [math.inf]
        assert bloch.wedge(n, m).tolist() == [0.0, 0.0, math.inf] + [0.0] * 5
        assert bloch.dot(n + m, n - m) == 0.0
        # a huge and a tiny factor: the product is finite and keeps its digits
        tiny = 1e-200 * basis_vec(1)
        assert bloch.star(n, tiny) == pytest.approx(bloch.star(basis_vec(1), basis_vec(1)), rel=1e-15)
        assert bloch.dot(n, tiny) == pytest.approx(1.0, rel=1e-15)

    def test_past_the_bound_products_are_scaled_and_keep_their_symmetry(self):
        rng = np.random.default_rng(61)
        a = rng.normal(size=(40, 8)) * 1e150
        b = rng.normal(size=(40, 8)) * 10.0 ** rng.uniform(-50.0, 140.0, size=(40, 1))
        assert same_bits(bloch.star(a, b), bloch.star(b, a))
        assert same_bits(bloch.wedge(a, b), -bloch.wedge(b, a))
        assert same_bits(bloch.dot(a, b), bloch.dot(b, a))
        scale = 1e150 * np.max(np.abs(b), axis=1)
        unit = b / (scale[:, None] / 1e150)
        for fn in (bloch.star, bloch.wedge, bloch.dot):
            ref = fn(a / 1e150, unit)
            ref = ref * (scale[:, None] if ref.ndim == 2 else scale)
            got = fn(a, b)
            assert np.isfinite(got).all()
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())

    def test_other_rows_of_a_stack_keep_their_bits(self):
        stack = mixed_stack((6,))
        stack[3] = 1e200 * basis_vec(1)
        q1, q2 = bloch.state_constraints(stack)
        assert q1[3] == q2[3] == math.inf
        pure = bloch.is_pure(stack)
        for i in (0, 1, 2, 4, 5):
            assert same_bits((q1[i], q2[i]), bloch.state_constraints(stack[i]))
            assert pure[i] == bloch.is_pure(stack[i])
        assert not pure[3]
