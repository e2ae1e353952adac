import itertools

import numpy as np
import pytest

from qutrit_bloch import gellmann as gm

from conftest import LAMBDA_REF, d_oracle, f_oracle

SQRT3 = np.sqrt(3.0)


def test_matrices_match_reference_displays():
    for i in range(1, 9):
        np.testing.assert_array_equal(gm.gell_mann(i), LAMBDA_REF[i - 1])


def test_lambda1_and_lambda8_entries():
    np.testing.assert_array_equal(gm.gell_mann(1), np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]]))
    np.testing.assert_allclose(gm.gell_mann(8), np.diag([1, 1, -2]) / SQRT3, atol=0)


def test_hermitian_traceless():
    for i in range(1, 9):
        lam = gm.gell_mann(i)
        assert np.array_equal(lam, lam.conj().T)
        assert lam.trace() == 0


def test_trace_orthonormality():
    for i in range(1, 9):
        for j in range(1, 9):
            tr = np.trace(gm.gell_mann(i) @ gm.gell_mann(j))
            assert abs(tr - (2.0 if i == j else 0.0)) <= 1e-15


def test_imaginary_parts_only_in_2_5_7():
    for i in range(1, 9):
        has_imag = np.any(gm.gell_mann(i).imag != 0)
        assert has_imag == (i in (2, 5, 7))


@pytest.mark.parametrize("bad", [0, 9, -1, 17, 1.5, True, "2", np.float64(2.0)])
def test_index_out_of_range(bad):
    with pytest.raises(ValueError):
        gm.gell_mann(bad)
    with pytest.raises(ValueError):
        gm.f_symbol(bad, 1, 2)
    with pytest.raises(ValueError):
        gm.d_symbol(1, bad, 2)


def test_f_symbol_examples():
    assert gm.f_symbol(1, 2, 3) == 1.0
    assert gm.f_symbol(np.int64(1), 2, np.int64(3)) == 1.0  # a numpy integer is an index
    assert gm.f_symbol(2, 1, 3) == -1.0
    assert gm.f_symbol(1, 1, 5) == 0.0
    assert gm.f_symbol(4, 5, 8) == SQRT3 / 2
    assert gm.f_symbol(5, 1, 6) == 0.5
    assert gm.f_symbol(6, 3, 7) == 0.5


def test_d_symbol_examples():
    assert gm.d_symbol(8, 8, 8) == -1 / SQRT3
    assert gm.d_symbol(4, 8, 4) == -1 / (2 * SQRT3)
    # oracle first: direct anticommutator trace says this entry vanishes
    assert d_oracle(1, 2, 3) == 0.0
    assert gm.d_symbol(1, 2, 3) == 0.0


def test_f_matches_trace_oracle_all_triples():
    for j, k, l in itertools.product(range(1, 9), repeat=3):
        assert abs(gm.f_symbol(j, k, l) - f_oracle(j, k, l)) <= 1e-14


def test_d_matches_trace_oracle_all_triples():
    for j, k, l in itertools.product(range(1, 9), repeat=3):
        assert abs(gm.d_symbol(j, k, l) - d_oracle(j, k, l)) <= 1e-14


def test_f_totally_antisymmetric():
    sign = {p: (1 if p in [(0, 1, 2), (1, 2, 0), (2, 0, 1)] else -1)
            for p in itertools.permutations(range(3))}
    for j, k, l in itertools.product(range(1, 9), repeat=3):
        base = gm.f_symbol(j, k, l)
        idx = (j, k, l)
        for p, s in sign.items():
            assert gm.f_symbol(idx[p[0]], idx[p[1]], idx[p[2]]) == s * base


def test_d_totally_symmetric():
    for j, k, l in itertools.product(range(1, 9), repeat=3):
        base = gm.d_symbol(j, k, l)
        for p in itertools.permutations((j, k, l)):
            assert gm.d_symbol(*p) == base


def test_dense_tensors_match_symbols():
    f, d = gm.f_tensor(), gm.d_tensor()
    for j, k, l in itertools.product(range(1, 9), repeat=3):
        assert f[j - 1, k - 1, l - 1] == gm.f_symbol(j, k, l)
        assert d[j - 1, k - 1, l - 1] == gm.d_symbol(j, k, l)


def test_product_expansion_reconstructs_all_64_products():
    for j in range(1, 9):
        for k in range(1, 9):
            direct = gm.gell_mann(j) @ gm.gell_mann(k)
            dev = np.max(np.abs(gm.product_expansion(j, k) - direct))
            assert dev <= 1e-14, (j, k, dev)


def test_product_expansion_1_1():
    expected = (2.0 / 3.0) * np.eye(3) + (1 / SQRT3) * gm.gell_mann(8)
    np.testing.assert_allclose(gm.product_expansion(1, 1), expected, atol=1e-15)


def test_product_expansion_1_2():
    # oracle: direct multiplication gives i lambda_3 (all d_12l vanish)
    direct = LAMBDA_REF[0] @ LAMBDA_REF[1]
    np.testing.assert_allclose(direct, 1j * LAMBDA_REF[2], atol=0)
    np.testing.assert_allclose(gm.product_expansion(1, 2), 1j * gm.gell_mann(3), atol=1e-15)


def test_basis_stack_and_immutability():
    stack = gm.basis()
    assert stack.shape == (8, 3, 3)
    assert not stack.flags.writeable
    assert not gm.gell_mann(3).flags.writeable
