import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qutrit_bloch import adjoint, density
from qutrit_bloch.bloch import ValidationError, is_pure, star
from qutrit_bloch.triangle import VERTICES, bloch_from_diag

from conftest import LAMBDA_REF, PAULI_REF, sample_valid_bloch

N_R = bloch_from_diag(VERTICES["R"])


class TestAdjointSU3:
    def test_identity(self):
        np.testing.assert_allclose(adjoint.adjoint_su3(np.eye(3)), np.eye(8), atol=1e-15)

    def test_diagonal_unitary_fixes_components_3_and_8(self):
        theta, phi = 0.7, -1.3
        u = np.diag(np.exp(1j * np.array([theta, phi, -theta - phi])))
        ad = adjoint.adjoint_su3(u)
        e3, e8 = np.zeros(8), np.zeros(8)
        e3[2] = 1.0
        e8[7] = 1.0
        np.testing.assert_allclose(ad @ e3, e3, atol=1e-14)
        np.testing.assert_allclose(ad @ e8, e8, atol=1e-14)

    def test_matches_trace_formula_oracle(self):
        u = adjoint.haar_random_su3(99)
        expected = np.empty((8, 8))
        for i in range(8):
            for j in range(8):
                expected[i, j] = 0.5 * np.trace(
                    LAMBDA_REF[i] @ u @ LAMBDA_REF[j] @ u.conj().T
                ).real
        np.testing.assert_allclose(adjoint.adjoint_su3(u), expected, atol=1e-13)

    def test_orthogonal_with_unit_determinant(self):
        for seed in range(20):
            ad = adjoint.adjoint_su3(adjoint.haar_random_su3(seed))
            np.testing.assert_allclose(ad.T @ ad, np.eye(8), atol=1e-10)
            assert abs(np.linalg.det(ad) - 1.0) <= 1e-10

    def test_homomorphism(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            u = adjoint._haar_special_unitary(3, rng)
            v = adjoint._haar_special_unitary(3, rng)
            lhs = adjoint.adjoint_su3(u @ v)
            rhs = adjoint.adjoint_su3(u) @ adjoint.adjoint_su3(v)
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_equivariance_with_conjugation(self):
        rng = np.random.default_rng(53)
        for n in sample_valid_bloch(rng, 20):
            u = adjoint._haar_special_unitary(3, rng)
            rho = density.from_bloch(n)
            lhs = density.to_bloch(u @ rho @ u.conj().T)
            rhs = adjoint.adjoint_su3(u) @ n
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_star_product_covariance(self):
        rng = np.random.default_rng(57)
        for _ in range(20):
            u = adjoint._haar_special_unitary(3, rng)
            ad = adjoint.adjoint_su3(u)
            a, b = rng.uniform(-1, 1, 8), rng.uniform(-1, 1, 8)
            np.testing.assert_allclose(ad @ star(a, b), star(ad @ a, ad @ b), atol=1e-9)

    def test_spectrum_preserved(self):
        rng = np.random.default_rng(59)
        for n in sample_valid_bloch(rng, 10):
            u = adjoint._haar_special_unitary(3, rng)
            xs0 = density.spectrum(density.from_bloch(n))
            xs1 = density.spectrum(density.from_bloch(adjoint.adjoint_su3(u) @ n))
            np.testing.assert_allclose(xs0, xs1, atol=1e-10)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValidationError, match="unitary"):
            adjoint.adjoint_su3(np.ones((3, 3)))
        with pytest.raises(ValidationError, match="3x3"):  # a 2x2 unitary is not in U(3)
            adjoint.adjoint_su3(np.eye(2))

    def test_rejects_unitary_with_wrong_determinant(self):
        u = adjoint.haar_random_su3(1) * np.exp(1j * 0.3)
        with pytest.raises(ValidationError, match="special"):
            adjoint.adjoint_su3(u)

    def test_stack_matches_single_matrices(self):
        us = np.array([adjoint.haar_random_su3(seed) for seed in range(4)])
        ads = adjoint.adjoint_su3(us.reshape(2, 2, 3, 3))
        assert ads.shape == (2, 2, 8, 8)
        for u, ad in zip(us, ads.reshape(4, 8, 8)):
            np.testing.assert_array_equal(ad, adjoint.adjoint_su3(u))

    @pytest.mark.parametrize(
        ("dim", "generators", "ad"),
        [(3, LAMBDA_REF, adjoint.adjoint_su3), (2, PAULI_REF, adjoint.adjoint_su2)],
    )
    def test_stack_matches_four_operand_trace_formula(self, dim, generators, ad):
        us = adjoint._haar_special_unitary(dim, np.random.default_rng(89), (3, 5))
        expected = 0.5 * np.real(
            np.einsum("iab,...bc,jcd,...ad->...ij", generators, us, generators, us.conj())
        )
        assert np.max(np.abs(ad(us) - expected)) <= 1e-15

    @pytest.mark.parametrize("ad", [adjoint.adjoint_su3, adjoint.adjoint_su2], ids=["su3", "su2"])
    @pytest.mark.parametrize("fill", ["all-nan", "all-inf", "one-nan"])
    def test_non_finite_matrix_is_rejected_without_a_warning(self, ad, fill):
        dim = 3 if ad is adjoint.adjoint_su3 else 2
        u = np.eye(dim, dtype=complex)
        if fill == "one-nan":
            u[0, 1] = np.nan
        else:
            u[:] = np.nan if fill == "all-nan" else np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="matrix entries must be finite"):
                ad(u)

    @pytest.mark.parametrize("ad", [adjoint.adjoint_su3, adjoint.adjoint_su2], ids=["su3", "su2"])
    @pytest.mark.parametrize("re, im", [(1, 0), (1, 1), (0, -1)], ids=["real", "diagonal-phase", "imaginary"])
    def test_overflowing_matrix_fails_unitarity_with_inf(self, ad, re, im):
        # U^dag U overflows, and in part to NaN; the deviation reads inf, with no warning.
        dim = 3 if ad is adjoint.adjoint_su3 else 2
        signs = np.random.default_rng(dim).choice([-1e308, 1e308], (dim, dim))
        u = np.empty((dim, dim), dtype=complex)
        u.real, u.imag = re * signs, im * signs
        with pytest.raises(ValidationError, match=r"^not unitary: max \|U\^dag U - I\| = inf$"):
            ad(u)

    @pytest.mark.parametrize(
        "bad",
        [np.ones((3, 3)), adjoint.haar_random_su3(1) * np.exp(1j * 0.3)],
        ids=["non-unitary", "wrong-determinant"],
    )
    def test_stack_raises_the_message_of_its_bad_matrix(self, bad):
        us = np.array([adjoint.haar_random_su3(seed) for seed in range(4)])
        us[2] = bad
        with pytest.raises(ValidationError) as single:
            adjoint.adjoint_su3(bad)
        with pytest.raises(ValidationError) as batch:
            adjoint.adjoint_su3(us.reshape(2, 2, 3, 3))
        assert str(batch.value) == str(single.value)

    def test_stack_raises_for_its_first_bad_matrix_in_c_order(self):
        us = np.array([adjoint.haar_random_su3(seed) for seed in range(4)])
        us[1] *= np.exp(1j * 0.3)  # unitary, wrong determinant
        us[3] = np.ones((3, 3))  # not unitary
        with pytest.raises(ValidationError) as single:
            adjoint.adjoint_su3(us[1])
        with pytest.raises(ValidationError) as batch:
            adjoint.adjoint_su3(us.reshape(2, 2, 3, 3))
        assert str(batch.value) == str(single.value)

    def test_stack_with_one_non_special_member_is_rejected(self):
        us = np.array([adjoint.haar_random_su3(seed) for seed in range(3)])
        us[1] *= np.exp(1j * 0.3)
        with pytest.raises(ValidationError, match="special"):
            adjoint.adjoint_su3(us)


class TestAdjointSU2:
    def test_identity(self):
        np.testing.assert_allclose(adjoint.adjoint_su2(np.eye(2)), np.eye(3), atol=1e-15)

    def test_quarter_turn_about_x(self):
        u = (np.eye(2) - 1j * PAULI_REF[0]) / np.sqrt(2)  # exp(-i pi sigma_1 / 4)
        expected = np.empty((3, 3))
        for i in range(3):
            for j in range(3):
                expected[i, j] = 0.5 * np.trace(PAULI_REF[i] @ u @ PAULI_REF[j] @ u.conj().T).real
        ad = adjoint.adjoint_su2(u)
        np.testing.assert_allclose(ad, expected, atol=1e-14)
        np.testing.assert_allclose(ad @ [0, 0, 1], [0, -1, 0], atol=1e-14)

    def test_rotation_invariants(self):
        rng = np.random.default_rng(61)
        for seed in range(20):
            ad = adjoint.adjoint_su2(adjoint.haar_random_su2(seed))
            np.testing.assert_allclose(ad.T @ ad, np.eye(3), atol=1e-10)
            assert abs(np.linalg.det(ad) - 1.0) <= 1e-10
            v = rng.standard_normal(3)
            assert abs(np.linalg.norm(ad @ v) - np.linalg.norm(v)) <= 1e-10

    def test_rejects_non_special(self):
        with pytest.raises(ValidationError):
            adjoint.adjoint_su2(np.diag([1j, 1j]))


class TestHaarSampling:
    @given(st.integers(min_value=0, max_value=2**63 - 1))
    @settings(deadline=None, max_examples=25)
    def test_deterministic_for_fixed_seed(self, seed):
        np.testing.assert_array_equal(
            adjoint.haar_random_su3(seed), adjoint.haar_random_su3(seed)
        )

    def test_samples_are_special_unitary(self):
        for seed in range(50):
            u = adjoint.haar_random_su3(seed)
            np.testing.assert_allclose(u.conj().T @ u, np.eye(3), atol=1e-12)
            assert abs(np.linalg.det(u) - 1.0) <= 1e-12
        # orbit_sample does not check its draws, so a batch draw must be special unitary by construction
        u = adjoint._haar_special_unitary(3, np.random.default_rng(0), (20000,))
        assert np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(3)).max() <= 1e-12
        assert np.abs(np.linalg.det(u) - 1.0).max() <= 1e-12

    def test_fixed_seed_draw_is_pinned(self):
        # Part of the public contract: seed 7 gives these exact doubles.
        pinned = np.array(
            [
                [
                    0.25114094507696777 - 0.4081572327792005j,
                    0.06930395873251573 + 0.1383857596734689j,
                    -0.8247603786081478 + 0.2572013991750756j,
                ],
                [
                    -0.629085776410536 - 0.28988217890692514j,
                    -0.15256611676247828 - 0.5599277371361041j,
                    -0.26080899346012426 - 0.33970956183496387j,
                ],
                [
                    -0.24090881558909327 + 0.4822014619196627j,
                    0.7975578569494768 - 0.05614549708940407j,
                    -0.26337158535251043 - 0.02879667858707588j,
                ],
            ]
        )
        np.testing.assert_array_equal(adjoint.haar_random_su3(7), pinned)

    def test_batch_draw_matches_single_draws_in_stream_order(self):
        batch = adjoint._haar_special_unitary(3, np.random.default_rng(8), (5,))
        rng = np.random.default_rng(8)
        for u in batch:
            np.testing.assert_array_equal(u, adjoint._haar_special_unitary(3, rng))

    def test_first_moment_matches_haar(self):
        rng = np.random.default_rng(2024)
        total = 0.0
        count = 10_000
        for _ in range(count):
            u = adjoint._haar_special_unitary(3, rng)
            total += abs(u[0, 0]) ** 2
        assert abs(total / count - 1 / 3) <= 0.02


class TestOrbitSample:
    def test_maximally_mixed_is_fixed_point(self):
        samples = adjoint.orbit_sample(np.zeros(8), 10, seed=3)
        np.testing.assert_allclose(samples, np.zeros((10, 8)), atol=1e-14)

    def test_pure_orbit_stays_pure(self):
        for v in adjoint.orbit_sample(N_R, 100, seed=5):
            assert is_pure(v)
            assert abs(np.dot(v, v) - 1.0) <= 1e-10

    def test_entropy_invariant_on_edge_midpoint_orbit(self):
        n = np.zeros(8)
        n[7] = 0.5
        expected = np.log(2) / np.log(3)
        for v in adjoint.orbit_sample(n, 50, seed=7):
            assert abs(density.entropy_of_mixing(density.from_bloch(v)) - expected) <= 1e-9

    def test_spectrum_invariant(self):
        rng = np.random.default_rng(71)
        n = sample_valid_bloch(rng, 1)[0]
        xs0 = density.spectrum(density.from_bloch(n))
        for v in adjoint.orbit_sample(n, 25, seed=11):
            np.testing.assert_allclose(density.spectrum(density.from_bloch(v)), xs0, atol=1e-10)

    def test_matches_per_sample_reference_loop(self):
        # The batched sampler draws each unitary's Gaussians in the same
        # stream order as this one-at-a-time loop, so only the last bits of
        # the contraction may differ.
        for n, seed in ((N_R, 5), (sample_valid_bloch(np.random.default_rng(73), 1)[0], 6)):
            rng = np.random.default_rng(seed)
            expected = np.array(
                [adjoint.adjoint_su3(adjoint._haar_special_unitary(3, rng)) @ n for _ in range(64)]
            )
            got = adjoint.orbit_sample(n, 64, seed=seed)
            assert np.max(np.abs(got - expected)) <= 1e-15

    def test_matches_conjugation_of_the_density_matrix(self):
        # The paper's definition of the action: rho -> U rho U^dag, read back
        # as a Bloch vector, with the Haar draws orbit_sample makes.
        states = [N_R, *sample_valid_bloch(np.random.default_rng(83), 4)]
        for seed, n in enumerate(states, start=5):
            rng = np.random.default_rng(seed)
            rho = density.from_bloch(n)
            expected = []
            for _ in range(64):
                u = adjoint._haar_special_unitary(3, rng)
                expected.append(density.to_bloch(u @ rho @ u.conj().T))
            got = adjoint.orbit_sample(n, 64, seed=seed)
            assert np.max(np.abs(got - np.array(expected))) <= 1e-15

    def test_chunked_draws_equal_one_batch(self):
        # The count crosses a chunk boundary; the generator stream continues
        # from one chunk to the next, so the rows equal one batch bit for bit.
        n = sample_valid_bloch(np.random.default_rng(79), 1)[0]
        count = adjoint._ORBIT_CHUNK + 3
        unitaries = adjoint._haar_special_unitary(3, np.random.default_rng(8), (count,))
        n_lambda = np.einsum("j,jab->ab", n, LAMBDA_REF)
        rotated = unitaries @ n_lambda @ unitaries.conj().swapaxes(-1, -2)
        expected = adjoint._project(rotated, LAMBDA_REF)
        assert adjoint.orbit_sample(n, count, seed=8).tobytes() == expected.tobytes()

    def test_peak_memory_is_bounded_by_the_chunk(self):
        # One batch of 20000 held every 8x8 adjoint at once (about 34 MB
        # traced); in chunks of projected 3x3 conjugates the peak is about
        # 5.2 MB, of which 1.3 MB is output.
        tracemalloc.start()
        try:
            adjoint.orbit_sample(N_R, 20000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16e6

    def test_reproducible(self):
        a = adjoint.orbit_sample(N_R, 7, seed=42)
        b = adjoint.orbit_sample(N_R, 7, seed=42)
        np.testing.assert_array_equal(a, b)
        c = adjoint.orbit_sample(N_R, 7, seed=43)
        assert np.max(np.abs(a - c)) > 1e-3

    def test_rejects_invalid_state(self):
        with pytest.raises(ValidationError):
            adjoint.orbit_sample(2.0 * N_R, 5, seed=0)

    @pytest.mark.parametrize(
        "stack, tol",
        [(np.stack([N_R, N_R]), 1e-9), (np.stack([N_R, N_R]), -1.0), (np.stack([N_R, 2.0 * N_R]), 1e-9)],
        ids=["states", "bad-tol", "not-a-state"],
    )
    def test_rejects_a_stack_of_states(self, stack, tol):
        with pytest.raises(ValidationError, match=r"^orbit_sample takes one Bloch vector, got shape \(2, 8\)$"):
            adjoint.orbit_sample(stack, 5, seed=0, tol=tol)

    def test_rejects_non_positive_count(self):
        with pytest.raises(ValueError, match="^count must be at least 1$"):
            adjoint.orbit_sample(N_R, 0, seed=0)

    @pytest.mark.parametrize(
        "count, shown", [(2.5, "2.5"), (1.0, "1.0"), ("3", "'3'"), (None, "None"), (True, "True"), (np.True_, "np.True_")]
    )
    def test_rejects_a_count_that_is_not_an_integer(self, count, shown):
        with pytest.raises(ValueError, match=f"^count must be an integer, got {shown}$"):
            adjoint.orbit_sample(N_R, count, seed=0)

    def test_takes_any_integer_count(self):
        expected = adjoint.orbit_sample(N_R, 3, seed=4)
        assert adjoint.orbit_sample(N_R, np.int64(3), seed=4).tobytes() == expected.tobytes()
