import numpy as np
import pytest
from constraint_oracle import functional_row

from conecert.errors import HermiticityError, ShapeError
from conecert.linalg import (
    TolerancePolicy,
    conj_vector,
    fix_phase,
    herm_to_params,
    hermitize,
    is_psd,
    normalized,
    null_space,
    params_to_herm,
    transpose,
)


def test_conj_vector_examples():
    assert np.array_equal(conj_vector([1, 1j]), np.array([1, -1j]))
    assert np.array_equal(conj_vector([0, 0]), np.array([0, 0]))
    v = np.array([1.5, -2.0, 3.25])
    assert np.array_equal(conj_vector(v), v.astype(np.complex128))


def test_conj_vector_involution():
    rng = np.random.default_rng(0)
    v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    assert np.array_equal(conj_vector(conj_vector(v)), v)


def test_transpose_examples():
    e12 = np.zeros((2, 2)); e12[0, 1] = 1.0
    e21 = np.zeros((2, 2)); e21[1, 0] = 1.0
    assert np.abs(transpose(e12) - e21).max() < 1e-15
    assert np.abs(transpose(np.eye(3)) - np.eye(3)).max() == 0.0
    rng = np.random.default_rng(1)
    h = hermitize(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    assert np.abs(transpose(h) - h.conj()).max() < 1e-15


def test_transpose_involution_and_trace():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert np.array_equal(transpose(transpose(x)), x)
    assert abs(np.trace(transpose(x)) - np.trace(x)) < 1e-14


def test_null_space_zero_matrix():
    basis, s = null_space(np.zeros((2, 3)))
    assert basis.shape == (3, 3)
    assert s.shape == (2,)


def test_null_space_full_rank():
    basis, _ = null_space(np.eye(3))
    assert basis.shape == (3, 0)


def test_null_space_rank_one():
    """kernel of u v^H is everything orthogonal to v"""
    rng = np.random.default_rng(3)
    u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    m = np.outer(u, v.conj())
    basis, _ = null_space(m)
    assert basis.shape == (5, 4)
    assert np.abs(m @ basis).max() < 1e-12
    # orthonormal to 1e-12
    gram = basis.conj().T @ basis
    assert np.abs(gram - np.eye(4)).max() < 1e-12


def test_null_space_rank_plus_dim():
    rng = np.random.default_rng(4)
    for _ in range(20):
        rows, cols = rng.integers(1, 7, size=2)
        r = int(rng.integers(0, min(rows, cols) + 1))
        g = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        u, s, vh = np.linalg.svd(g, full_matrices=False)
        s[r:] = 0.0
        m = (u * s) @ vh
        basis, svals = null_space(m)
        assert basis.shape[1] + r == cols
        assert svals.shape[0] == min(rows, cols)


def test_null_space_rejects_empty():
    with pytest.raises(ShapeError):
        null_space(np.zeros((0, 3)))


def test_null_space_basis_owns_its_memory():
    """the basis is a copy, not a view that keeps the whole SVD factor alive"""
    m = np.arange(12.0).reshape(3, 4)
    for a in (m, m + 1j * m[::-1]):
        basis, _ = null_space(a)
        assert basis.shape == (4, 2)
        assert basis.flags.owndata


def test_tolerance_policy_cutoff():
    pol = TolerancePolicy()
    assert pol.cutoff((3, 5), 2.0) == 5 * 2.0 * 1e-12
    assert pol.cutoff((3, 5), 0.0) == 1e-14


@pytest.mark.parametrize("field", ["rel_eps", "abs_floor"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), -1.0, -1e-300])
def test_tolerance_policy_rejects_bad_values(field, value):
    with pytest.raises(ShapeError):
        TolerancePolicy(**{field: value})


def test_tolerance_policy_accepts_zero():
    pol = TolerancePolicy(rel_eps=0.0, abs_floor=0.0)
    assert pol.cutoff((3, 4), 2.0) == 0.0


def test_is_psd_examples():
    ok, low = is_psd(np.eye(2))
    assert ok and abs(low - 1.0) < 1e-14
    ok, low = is_psd(np.diag([1.0, -1.0]))
    assert not ok and abs(low + 1.0) < 1e-14
    rng = np.random.default_rng(5)
    xi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    ok, low = is_psd(np.outer(xi, xi.conj()))
    assert ok and abs(low) < 1e-10


def test_is_psd_agrees_with_eigenvalue_sign():
    rng = np.random.default_rng(6)
    for dim in (2, 3):
        for _ in range(50):
            h = hermitize(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
            ok, low = is_psd(h)
            w = np.linalg.eigvalsh(h)
            assert ok == (w.min() >= -1e-10)
            assert abs(low - w.min()) < 1e-12


def test_is_psd_rejects_bad_input():
    with pytest.raises(ShapeError):
        is_psd(np.zeros((2, 3)))
    with pytest.raises(HermiticityError):
        is_psd(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_fix_phase():
    v = np.array([0.3 - 0.1j, -1.2 + 0.4j, 0.05])
    out = fix_phase(v)
    k = np.argmax(np.abs(out))
    assert out[k].imag < 1e-15 and out[k].real > 0
    assert np.abs(np.abs(out) - np.abs(v)).max() < 1e-15
    assert np.array_equal(fix_phase(np.zeros(3)), np.zeros(3))


def test_normalized_rejects_zero():
    with pytest.raises(ShapeError):
        normalized(np.zeros(2))


def test_herm_params_round_trip():
    rng = np.random.default_rng(7)
    for dim in (1, 2, 4, 6):
        c = hermitize(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        p = herm_to_params(c)
        assert p.shape == (dim * dim,)
        assert np.abs(params_to_herm(p, dim) - c).max() < 1e-14


def test_herm_params_isometry():
    rng = np.random.default_rng(8)
    for _ in range(20):
        c1 = hermitize(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        c2 = hermitize(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        inner = np.trace(c1.conj().T @ c2).real
        assert abs(inner - herm_to_params(c1) @ herm_to_params(c2)) < 1e-12


def test_functional_row_matches_direct_sum():
    rng = np.random.default_rng(9)
    for _ in range(20):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        c = hermitize(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        want = np.sum(c * m)
        got = functional_row(m) @ herm_to_params(c)
        assert abs(want - got) < 1e-12
