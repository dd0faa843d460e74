import itertools

import numpy as np
import pytest

from zitterkit.minkowski import (
    METRIC,
    AntisymTensor4,
    FourVector,
    boost_vector,
    dot,
    inner,
    lower,
    pauli_lubanski,
    pauli_lubanski_dual,
    spin_tensor_from_va,
    spin_vector,
    wedge,
)


def test_dot_examples():
    assert dot(FourVector(1, 0, 0, 0), FourVector(1, 0, 0, 0)) == 1.0
    assert dot(FourVector(0, 1, 0, 0), FourVector(0, 1, 0, 0)) == -1.0
    assert dot(FourVector(2, 1, 1, 0), FourVector(1, 1, 0, 0)) == 1.0


def test_row_forms_match_the_four_vector_forms():
    rows = np.random.default_rng(3).uniform(-2, 2, size=(2, 5, 2, 4))
    a, b = rows[..., 0, :], rows[..., 1, :]
    products, tensors = inner(a, b), wedge(a, b)
    spins = spin_vector(tensors)
    assert (products.shape, tensors.shape, spins.shape) == ((2, 5), (2, 5, 4, 4), (2, 5, 3))
    for idx in np.ndindex(2, 5):
        u, v = FourVector.from_array(a[idx]), FourVector.from_array(b[idx])
        s = spin_tensor_from_va(u, v, 1.0)
        assert products[idx] == dot(u, v)
        assert np.array_equal(tensors[idx], s.as_matrix())
        assert np.array_equal(spins[idx], spin_vector(s))


def test_four_vector_rejects_non_finite():
    with pytest.raises(ValueError):
        FourVector(1.0, np.nan, 0.0, 0.0)
    with pytest.raises(ValueError):
        FourVector(np.inf, 0.0, 0.0, 0.0)


def test_four_vector_arithmetic():
    u = FourVector(1, 2, 3, 4)
    v = FourVector(0.5, -1, 0, 2)
    np.testing.assert_allclose((u + v).components, [1.5, 1, 3, 6])
    np.testing.assert_allclose((u - v).components, [0.5, 3, 3, 2])
    np.testing.assert_allclose((2 * u).components, [2, 4, 6, 8])
    np.testing.assert_allclose((u / 2).components, [0.5, 1, 1.5, 2])
    np.testing.assert_allclose(lower(u), [1, -2, -3, -4])


def test_spin_tensor_hand_expansion():
    v = FourVector(1, 0.1, 0, 0)
    a = FourVector(0, 0, 0.2, 0)
    s = spin_tensor_from_va(v, a, -0.25)
    assert s.component(1, 2) == pytest.approx(-0.005, abs=1e-15)
    assert s.component(0, 2) == pytest.approx(-0.05, abs=1e-15)
    for mu, nu in ((0, 1), (0, 3), (1, 3), (2, 3)):
        assert s.component(mu, nu) == 0.0


def test_spin_tensor_degenerate_cases():
    v = FourVector(1, 0.3, -0.2, 0.5)
    # parallel vectors cancel up to the rounding of the scalar multiple
    parallel = spin_tensor_from_va(v, 2.5 * v, -0.25)
    assert np.abs(parallel.as_matrix()).max() <= 1e-15
    zero_k = spin_tensor_from_va(v, FourVector(0.4, 1, 2, 3), 0.0)
    assert np.all(zero_k.as_matrix() == 0.0)


def test_antisymmetry_exact():
    rng = np.random.default_rng(42)
    for _ in range(50):
        s = AntisymTensor4(*rng.uniform(-5, 5, size=6))
        for mu in range(4):
            for nu in range(4):
                assert s.component(mu, nu) + s.component(nu, mu) == 0.0
            assert s.component(mu, mu) == 0.0


def test_spin_and_boost_vectors():
    only_s12 = AntisymTensor4(s12=0.7)
    np.testing.assert_array_equal(spin_vector(only_s12), [0, 0, 0.7])
    np.testing.assert_array_equal(boost_vector(only_s12), [0, 0, 0])

    v = FourVector(1, 0.1, 0, 0)
    a = FourVector(0, 0, 0.2, 0)
    s = spin_tensor_from_va(v, a, -0.25)
    np.testing.assert_allclose(spin_vector(s), [0, 0, -0.005], atol=1e-15)
    np.testing.assert_allclose(boost_vector(s), [0, -0.05, 0], atol=1e-15)

    zero = AntisymTensor4()
    np.testing.assert_array_equal(spin_vector(zero), [0, 0, 0])
    np.testing.assert_array_equal(boost_vector(zero), [0, 0, 0])


def test_dual_cmf_reduces_to_minus_boost_vector():
    rng = np.random.default_rng(3)
    m = 1.7
    p = FourVector(m, 0, 0, 0)
    s = AntisymTensor4(*rng.uniform(-1, 1, size=6))
    w = pauli_lubanski_dual(s, p, m)
    assert w[0] == 0.0
    np.testing.assert_allclose(w.components[1:], -boost_vector(s), atol=1e-15)


def test_dual_hand_contraction():
    v = FourVector(1, 0.1, 0, 0)
    a = FourVector(0, 0, 0.2, 0)
    s = spin_tensor_from_va(v, a, -0.25)
    w = pauli_lubanski_dual(s, FourVector(1, 0, 0, 0), 1.0)
    np.testing.assert_allclose(w.components, [0, 0, 0.05, 0], atol=1e-15)
    zero = pauli_lubanski_dual(AntisymTensor4(), FourVector(1, 0, 0, 0), 1.0)
    assert np.all(zero.components == 0.0)


def test_dual_rejects_bad_mass():
    with pytest.raises(ValueError):
        pauli_lubanski_dual(AntisymTensor4(), FourVector(1, 0, 0, 0), 0.0)
    with pytest.raises(ValueError):
        pauli_lubanski(AntisymTensor4(), FourVector(1, 0, 0, 0), -1.0)


def test_pauli_lubanski_cmf_pins_epsilon_convention():
    # A single spatial spin-plane component must come out as the spin vector.
    w = pauli_lubanski(AntisymTensor4(s12=0.7), FourVector(2, 0, 0, 0), 2.0)
    np.testing.assert_allclose(w.components, [0, 0, 0, 0.7], atol=1e-15)
    zero = pauli_lubanski(AntisymTensor4(), FourVector(1, 0, 0, 0), 1.0)
    assert np.all(zero.components == 0.0)


def _perm_sign(perm):
    sign = 1
    perm = list(perm)
    for i in range(4):
        for j in range(i + 1, 4):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def _pauli_lubanski_bruteforce(s, p, m):
    # Independent evaluation: explicit permutation sum with longhand index
    # lowering, eps_{0123} = +1 so eps^{0123} = -1.
    sm = s.as_matrix()
    s_low = np.array([[METRIC[i] * METRIC[j] * sm[i, j] for j in range(4)] for i in range(4)])
    p_low = METRIC * p.components
    w = np.zeros(4)
    for perm in itertools.permutations(range(4)):
        mu, nu, rho, sig = perm
        w[mu] += -_perm_sign(perm) * s_low[nu, rho] * p_low[sig]
    return w / (2.0 * m)


def test_pauli_lubanski_matches_bruteforce():
    rng = np.random.default_rng(7)
    for _ in range(25):
        s = AntisymTensor4(*rng.uniform(-2, 2, size=6))
        p = FourVector(*rng.uniform(-2, 2, size=4))
        w = pauli_lubanski(s, p, 1.3)
        np.testing.assert_allclose(w.components, _pauli_lubanski_bruteforce(s, p, 1.3),
                                   atol=1e-13)


def test_pauli_lubanski_orthogonal_to_momentum():
    rng = np.random.default_rng(11)
    for _ in range(100):
        s = AntisymTensor4(*rng.uniform(-3, 3, size=6))
        p = FourVector(*rng.uniform(-3, 3, size=4))
        w = pauli_lubanski(s, p, 0.8)
        assert abs(dot(w, p)) <= 1e-12


def test_cmf_reductions():
    rng = np.random.default_rng(13)
    m = 2.4
    p = FourVector(m, 0, 0, 0)
    for _ in range(20):
        s = AntisymTensor4(*rng.uniform(-1, 1, size=6))
        w = pauli_lubanski(s, p, m)
        assert abs(w[0]) <= 1e-12
        np.testing.assert_allclose(w.components[1:], spin_vector(s), atol=1e-12)
        wt = pauli_lubanski_dual(s, p, m)
        assert abs(wt[0]) <= 1e-12


def test_dual_bilinearity():
    rng = np.random.default_rng(17)
    p = FourVector(1.2, 0.3, -0.1, 0.5)
    for _ in range(20):
        s1 = AntisymTensor4(*rng.uniform(-1, 1, size=6))
        s2 = AntisymTensor4(*rng.uniform(-1, 1, size=6))
        alpha, beta = rng.uniform(-2, 2, size=2)
        combined = pauli_lubanski_dual(alpha * s1 + beta * s2, p, 0.9)
        split = (alpha * pauli_lubanski_dual(s1, p, 0.9).components
                 + beta * pauli_lubanski_dual(s2, p, 0.9).components)
        np.testing.assert_allclose(combined.components, split, rtol=1e-12, atol=1e-14)
