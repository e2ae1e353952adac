import contextlib
import inspect
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qutrit_bloch import bloch, density
from qutrit_bloch.adjoint import haar_random_su3
from qutrit_bloch.bloch import ValidationError, is_mixed_state, state_constraints
from qutrit_bloch.cli import main
from qutrit_bloch.gellmann import SQRT3
from qutrit_bloch.triangle import VERTICES, bloch_from_diag

from conftest import (
    bloch_from_rho_oracle,
    haar_unitary_oracle,
    rho_from_bloch_oracle,
    sample_box_bloch,
    sample_pure_bloch,
    sample_valid_bloch,
    same_bits,
)

N_R = bloch_from_diag(VERTICES["R"])

# vectors in the |n| <= 1/2 ball are always valid states
small_vec8 = st.lists(
    st.floats(-0.17, 0.17, allow_nan=False, allow_infinity=False), min_size=8, max_size=8
).map(np.array)


class TestFromBloch:
    def test_origin_gives_maximally_mixed(self):
        np.testing.assert_allclose(density.from_bloch(np.zeros(8)), np.eye(3) / 3, atol=0)

    def test_vertex_projector(self):
        np.testing.assert_allclose(density.from_bloch(N_R), np.diag([1.0, 0, 0]), atol=1e-14)

    def test_edge_midpoint(self):
        n = np.zeros(8)
        n[7] = 0.5
        np.testing.assert_allclose(density.from_bloch(n), np.diag([0.5, 0.5, 0]), atol=1e-14)

    def test_rejects_norm_violation_with_value(self):
        with pytest.raises(ValidationError, match=r"\|n\|\^2"):
            density.from_bloch(1.2 * N_R)

    def test_rejects_cubic_violation_with_value(self):
        n = np.zeros(8)
        n[7] = 0.9  # inside the unit ball but beyond the triangle edge
        with pytest.raises(ValidationError, match="star"):
            density.from_bloch(n)

    def test_unchecked_map_reaches_invalid_matrices(self):
        rho = density.bloch_matrix(2.0 * N_R)
        assert np.linalg.eigvalsh(rho)[0] < -1e-3


class TestToBloch:
    def test_maximally_mixed_maps_to_origin(self):
        np.testing.assert_array_equal(density.to_bloch(np.eye(3) / 3), np.zeros(8))

    def test_vertex_projector(self):
        np.testing.assert_allclose(density.to_bloch(np.diag([1.0, 0, 0])), N_R, atol=1e-14)

    def test_rank_two_diagonal_point(self):
        n = density.to_bloch(np.diag([0.5, 0.0, 0.5]))
        assert abs(n[2] - SQRT3 / 4) <= 1e-15
        assert abs(n[7] + 0.25) <= 1e-15
        np.testing.assert_array_equal(n[[0, 1, 3, 4, 5, 6]], np.zeros(6))

    def test_rejects_non_hermitian(self):
        m = np.eye(3, dtype=complex) / 3
        m[0, 1] = 0.1
        with pytest.raises(ValidationError, match="Hermitian"):
            density.to_bloch(m)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValidationError, match="race"):
            density.to_bloch(np.eye(3))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValidationError, match="positive"):
            density.to_bloch(np.diag([1.2, -0.1, -0.1]))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValidationError):
            density.to_bloch(np.eye(2))

    def test_transposed_view_reads_like_its_copy(self):
        rho = density.from_bloch(np.array([0.1, 0.2, 0.0, 0.0, 0.1, 0.0, 0.0, 0.3]))
        view = rho.T  # a complex array whose last axis is not contiguous
        for fn in (density.to_bloch, density.eigvals_hermitian_3x3):
            np.testing.assert_array_equal(fn(view), fn(view.copy()))


class TestRoundTrips:
    @given(small_vec8)
    @settings(deadline=None)
    def test_bloch_density_bloch(self, n):
        np.testing.assert_allclose(density.to_bloch(density.from_bloch(n)), n, atol=1e-12)

    def test_density_bloch_density_on_random_states(self):
        rng = np.random.default_rng(7)
        for n in sample_valid_bloch(rng, 300):
            rho = rho_from_bloch_oracle(n)
            np.testing.assert_allclose(
                density.from_bloch(density.to_bloch(rho)), rho, atol=1e-12
            )

    def test_matches_oracle_maps(self):
        rng = np.random.default_rng(8)
        for n in sample_valid_bloch(rng, 100):
            np.testing.assert_allclose(density.from_bloch(n), rho_from_bloch_oracle(n), atol=1e-14)
            np.testing.assert_allclose(
                density.to_bloch(rho_from_bloch_oracle(n)), bloch_from_rho_oracle(rho_from_bloch_oracle(n)), atol=1e-14
            )


class TestSpectrum:
    def test_maximally_mixed(self):
        np.testing.assert_allclose(density.spectrum(np.eye(3) / 3), np.full(3, 1 / 3), atol=0)

    def test_projector(self):
        np.testing.assert_allclose(density.spectrum(np.diag([1.0, 0, 0])), [1, 0, 0], atol=1e-14)

    def test_diagonal_formula(self):
        n3, n8 = 0.31, -0.12
        n = np.zeros(8)
        n[2], n[7] = n3, n8
        expected = np.sort(
            [
                (1 + SQRT3 * n3 + n8) / 3,
                (1 - SQRT3 * n3 + n8) / 3,
                (1 - 2 * n8) / 3,
            ]
        )[::-1]
        np.testing.assert_allclose(density.spectrum(density.from_bloch(n)), expected, atol=1e-14)

    def test_descending_and_normalized(self):
        rng = np.random.default_rng(17)
        for n in sample_valid_bloch(rng, 200):
            xs = density.spectrum(rho_from_bloch_oracle(n))
            assert xs[0] >= xs[1] >= xs[2]
            assert abs(xs.sum() - 1.0) <= 1e-10
            assert xs[2] >= -1e-10


class TestEigenvalues:
    def test_against_eigvals_on_random_hermitian(self):
        # np.linalg.eigvals runs LAPACK's general (geev) driver, not eigvalsh's.
        rng = np.random.default_rng(19)
        for _ in range(500):
            m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            a = (m + m.conj().T) / 2
            mine = density.eigvals_hermitian_3x3(a)
            ref = np.sort(np.linalg.eigvals(a).real)[::-1]
            np.testing.assert_allclose(mine, ref, atol=1e-12)

    def test_against_constructed_spectra(self):
        rng = np.random.default_rng(20)
        spectra = [
            (xs, 1e-12) for xs in ([1.0, 0, 0], [0.5, 0.5, 0], [0.4, 0.4, 0.2], [1 / 3] * 3)
        ]
        # Near-degenerate: the lower, then the upper pair split by 1e-16 .. 1e-2.
        for gap in 10.0 ** -np.arange(2, 17):
            for x in (rng.uniform(0.0, 1 / 3), rng.uniform(1 / 3, 0.49)):
                spectra.append(([x + gap, x, 1 - 2 * x - gap], 1e-14))
        for xs, atol in spectra:
            expected = np.sort(xs)[::-1]
            for _ in range(100):
                u = haar_unitary_oracle(rng)
                a = (u * np.array(xs)) @ u.conj().T
                mine = density.eigvals_hermitian_3x3(a)
                np.testing.assert_allclose(mine, expected, rtol=0, atol=atol)

    def test_scalar_matrix_short_circuit(self):
        np.testing.assert_array_equal(density.eigvals_hermitian_3x3(2.5 * np.eye(3)), [2.5] * 3)

    def test_uses_hermitian_part_only(self):
        rng = np.random.default_rng(21)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        herm = (m + m.conj().T) / 2
        np.testing.assert_array_equal(
            density.eigvals_hermitian_3x3(m), density.eigvals_hermitian_3x3(herm)
        )

    def test_rejects_wrong_shape(self):
        for mat in (np.eye(4), np.full((3, 3), np.nan)):
            with pytest.raises(ValidationError):
                density.eigvals_hermitian_3x3(mat)


class TestCharPoly:
    def test_maximally_mixed(self):
        c1, c2, c3 = density.char_poly_coeffs(np.eye(3) / 3)
        assert abs(c1 - 1.0) <= 1e-15
        assert abs(c2 - 1 / 3) <= 1e-15
        assert abs(c3 - 1 / 27) <= 1e-15

    def test_projector(self):
        _, c2, c3 = density.char_poly_coeffs(np.diag([1.0, 0, 0]))
        assert abs(c2) <= 1e-15
        assert abs(c3) <= 1e-15

    def test_cayley_hamilton_residual_and_ranges(self):
        rng = np.random.default_rng(29)
        for n in sample_valid_bloch(rng, 300):
            rho = rho_from_bloch_oracle(n)
            c1, c2, c3 = density.char_poly_coeffs(rho)
            residual = rho @ rho @ rho - c1 * (rho @ rho) + c2 * rho - c3 * np.eye(3)
            assert np.max(np.abs(residual)) <= 1e-10
            assert -1e-12 <= c2 <= 1 / 3 + 1e-12
            assert -1e-12 <= c3 <= 1 / 27 + 1e-12

    def test_coefficients_from_state_functionals(self):
        # c2 = (1 - |n|^2)/3 and c3 = (1 - q2)/27 link the matrix invariants
        # to the polynomial state constraints.
        rng = np.random.default_rng(31)
        for n in sample_valid_bloch(rng, 200):
            q1, q2 = state_constraints(n)
            _, c2, c3 = density.char_poly_coeffs(rho_from_bloch_oracle(n))
            assert abs(c2 - (1 - q1) / 3) <= 1e-12
            assert abs(c3 - (1 - q2) / 27) <= 1e-12

    def test_determinant_sign_tracks_cubic_constraint(self):
        rng = np.random.default_rng(37)
        samples = sample_box_bloch(rng, 4000, half_width=0.8)
        for n in samples:
            _, q2 = state_constraints(n)
            det = np.linalg.det(rho_from_bloch_oracle(n)).real
            if abs(q2 - 1.0) > 1e-9:
                assert (det >= 0) == (q2 <= 1.0)


class TestSingleEigensolve:
    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []
        solve = np.linalg.eigvalsh

        def counting(mat):
            calls.append(mat)
            return solve(mat)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        return calls

    @staticmethod
    def rho():
        return density.from_bloch(sample_valid_bloch(np.random.default_rng(47), 1)[0])

    @pytest.mark.parametrize("fn", [density.spectrum, density.entropy_of_mixing])
    def test_solves_the_eigenproblem_once(self, fn, solves):
        fn(self.rho())
        assert len(solves) == 1

    @pytest.mark.parametrize(
        "fn", [density.to_bloch, density.validate_density, density.char_poly_coeffs]
    )
    def test_gates_solve_no_eigenproblem(self, fn, solves):
        fn(self.rho())
        assert solves == []


def _verdict(fn, *args) -> bool:
    try:
        fn(*args)
    except ValidationError:
        return False
    return True


def _cli_check_exit(n) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return main(["check", "--", *map(repr, n.tolist())])


class TestBoundaryAgreement:
    """Every gate gives one verdict on states whose smallest eigenvalue is near 0.

    rho = U diag(t (1 - e), (1 - t)(1 - e), e) U^dag with e in [-2e-9, 2e-9]
    straddles the edge of the default slack: for e < 0, q1 and q2 exceed 1
    by at most 3|e| and 6.75|e|.
    """

    @given(
        t=st.floats(0.0, 1.0),
        e=st.floats(-2e-9, 2e-9),
        seed=st.none() | st.integers(0, 2**32 - 1),
    )
    @example(t=0.5, e=-1.4e-10, seed=None)  # U = I
    @example(t=0.5, e=-1.2e-10, seed=20051111)
    @settings(deadline=None, max_examples=60)
    def test_gates_agree_near_the_boundary(self, t, e, seed):
        u = np.eye(3) if seed is None else haar_random_su3(seed)
        x = np.array([t * (1 - e), (1 - t) * (1 - e), e])
        n = bloch_from_rho_oracle((u * x) @ u.conj().T)
        rho = density.bloch_matrix(n)
        verdicts = [
            is_mixed_state(n),
            _verdict(density.from_bloch, n),
            _verdict(density.to_bloch, rho),
            _verdict(density.spectrum, rho),
            _verdict(density.char_poly_coeffs, rho),
            _cli_check_exit(n) == 0,
        ]
        assert len(set(verdicts)) == 1, verdicts
        if verdicts[0]:
            back = density.to_bloch(density.from_bloch(n))
            assert np.max(np.abs(back - n)) <= 1e-13

    def test_slightly_negative_spectra_stay_accepted(self):
        # Smallest eigenvalue in [-1e-10, 0]: excess on q1, q2 of at most
        # 6.75e-10, inside the default slack.
        rng = np.random.default_rng(53)
        for _ in range(200):
            e = -rng.uniform(0.0, 1e-10)
            t = rng.uniform(0.0, 1.0)
            u = haar_unitary_oracle(rng)
            x = np.array([t * (1 - e), (1 - t) * (1 - e), e])
            density.to_bloch((u * x) @ u.conj().T)

    def test_clearly_invalid_matrix_is_rejected_everywhere(self):
        rho = np.diag([1.2, -0.1, -0.1]).astype(complex)
        n = bloch_from_rho_oracle(rho)
        assert not is_mixed_state(n)
        for fn, arg in (
            (density.from_bloch, n),
            (density.to_bloch, rho),
            (density.validate_density, rho),
            (density.spectrum, rho),
            (density.entropy_of_mixing, rho),
            (density.char_poly_coeffs, rho),
        ):
            assert not _verdict(fn, arg)
        assert _cli_check_exit(n) == 2


class TestEntropy:
    def test_maximally_mixed_is_one(self):
        assert abs(density.entropy_of_mixing(np.eye(3) / 3) - 1.0) <= 1e-12

    def test_pure_state_is_zero(self):
        assert abs(density.entropy_of_mixing(np.diag([1.0, 0, 0]))) <= 1e-12

    def test_rank_two_equal_mixture(self):
        expected = math.log(2) / math.log(3)
        assert abs(density.entropy_of_mixing(np.diag([0.5, 0.5, 0])) - expected) <= 1e-12

    def test_zero_times_log_zero_convention(self):
        assert density.mixing_entropy([1.0, 0.0, 0.0]) == 0.0
        assert density.mixing_entropy([0.5, 0.5, -1e-14]) == pytest.approx(
            math.log(2) / math.log(3), abs=1e-12
        )

    def test_triples_run_along_the_first_axis(self):
        xs = np.array([[1.0, 0.5, 1 / 3], [0.0, 0.5, 1 / 3], [0.0, 0.0, 1 / 3]])
        batch = density.mixing_entropy(xs.reshape(3, 3, 1))
        assert batch.shape == (3, 1)
        for column, e in zip(xs.T, batch[:, 0]):
            assert e == density.mixing_entropy(column)
        assert not np.signbit(batch[0, 0])

    def test_range_on_random_states(self):
        rng = np.random.default_rng(41)
        for n in sample_valid_bloch(rng, 200):
            e = density.entropy_of_mixing(rho_from_bloch_oracle(n))
            assert 0.0 <= e <= 1.0 + 1e-12

    def test_unitary_invariance(self):
        rng = np.random.default_rng(43)
        rho = rho_from_bloch_oracle(sample_valid_bloch(rng, 1)[0])
        e0 = density.entropy_of_mixing(rho)
        for _ in range(100):
            u = haar_unitary_oracle(rng)
            assert abs(density.entropy_of_mixing(u @ rho @ u.conj().T) - e0) <= 1e-10


class TestStacks:
    @pytest.mark.parametrize("shape", [(5,), (2, 3)])
    def test_rows_match_single_calls(self, shape):
        rng = np.random.default_rng(67)
        vectors = sample_valid_bloch(rng, math.prod(shape)).reshape(*shape, 8)
        rhos = density.from_bloch(vectors)
        back = density.to_bloch(rhos)
        spectra = density.spectrum(rhos)
        entropies = density.entropy_of_mixing(rhos)
        coeffs = density.char_poly_coeffs(rhos)
        assert rhos.shape == (*shape, 3, 3) and back.shape == (*shape, 8)
        assert spectra.shape == (*shape, 3) and entropies.shape == shape
        for idx in np.ndindex(*shape):
            rho = density.from_bloch(vectors[idx])
            assert same_bits(rhos[idx], rho)
            assert same_bits(density.bloch_matrix(vectors)[idx], rho)
            assert same_bits(back[idx], density.to_bloch(rho))
            assert same_bits(spectra[idx], density.spectrum(rho))
            assert same_bits(entropies[idx], density.entropy_of_mixing(rho))
            assert same_bits([c[idx] for c in coeffs], density.char_poly_coeffs(rho))

    @pytest.mark.parametrize(
        "bad",
        [
            1.2 * N_R,  # |n|^2 > 1
            np.array([0.0] * 7 + [0.9]),  # q2 > 1
            np.array([0.0, 0.0, 0.9] + [0.0] * 5),  # q2 > 1
        ],
    )
    def test_one_bad_vector_raises_its_own_message(self, bad):
        stack = np.concatenate([sample_valid_bloch(np.random.default_rng(71), 6), [bad]])[[0, 1, 2, 6, 3, 4, 5]]
        with pytest.raises(ValidationError) as single:
            density.from_bloch(bad)
        with pytest.raises(ValidationError) as batch:
            density.from_bloch(stack.reshape(7, 8))
        assert str(batch.value) == str(single.value)
        with pytest.raises(ValidationError) as single:
            density.to_bloch(density.bloch_matrix(bad))
        with pytest.raises(ValidationError) as batch:
            density.to_bloch(density.bloch_matrix(stack))
        assert str(batch.value) == str(single.value)

    @pytest.mark.parametrize(
        "bad",
        [
            np.eye(3) / 3 + np.diag([0.0, 0.1], 1),  # not Hermitian
            np.eye(3) / 2,  # trace 3/2
            np.diag([1.2, -0.1, -0.1]),  # not positive
            np.full((3, 3), np.nan),  # not finite
        ],
    )
    def test_one_bad_matrix_raises_its_own_message(self, bad):
        rhos = rho_from_bloch_oracle(sample_valid_bloch(np.random.default_rng(73), 6))
        stack = np.concatenate([rhos[:4], [bad], rhos[4:]]).reshape(7, 3, 3)
        with pytest.raises(ValidationError) as single:
            density.to_bloch(bad)
        for fn in (density.to_bloch, density.spectrum, density.char_poly_coeffs):
            with pytest.raises(ValidationError) as batch:
                fn(stack)
            assert str(batch.value) == str(single.value)

    def test_huge_entries_fail_the_state_gate_without_a_warning(self):
        with pytest.raises(ValidationError, match=r"not a state: \|n\|\^2 = inf"):
            density.to_bloch(np.diag([1e200, -1e200, 1.0]))

    @pytest.mark.parametrize("kind", ["vectors", "matrices"])
    def test_every_public_function_broadcasts_a_stack_or_rejects_it(self, kind):
        # Pure states, for geodesic_distance; real matrices, which every
        # vector function can read as an array of floats.
        vectors = sample_pure_bloch(np.random.default_rng(79), 2)
        vectors[1] = bloch_from_diag(VERTICES["G"])
        stack = vectors if kind == "vectors" else density.from_bloch(np.stack([N_R, vectors[1]])).real
        checked = 0
        for module in (bloch, density):
            for name, fn in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                params = inspect.signature(fn).parameters.values()
                arity = sum(p.default is inspect.Parameter.empty for p in params)
                try:
                    out = fn(*[stack] * arity)
                except ValidationError:
                    continue
                rows = [fn(*[stack[i]] * arity) for i in range(2)]
                if isinstance(out, tuple):
                    out = np.stack(out, axis=-1)
                assert np.shape(out)[:1] == (2,), name
                for i in range(2):
                    np.testing.assert_array_equal(out[i], np.asarray(rows[i]), err_msg=name)
                checked += 1
        assert checked == (9 if kind == "vectors" else 6)

    def test_mixing_entropy_rejects_triples_off_the_first_axis(self):
        with pytest.raises(ValidationError, match="first axis"):
            density.mixing_entropy(np.full((2, 3), 0.5))
