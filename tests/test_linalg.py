import math
import sys
import warnings

import numpy as np
import pytest
from constraint_oracle import functional_row, hermitian_params, params_to_herm, partial_transpose_slots

from conecert import linalg
from conecert.errors import HermiticityError, ShapeError
from conecert.exposedness import Verdict, certify_exposed, classify
from conecert.faces import double_prime_nullspace, membership_residual
from conecert.functionals import functional_from_operator, functional_norm
from conecert.linalg import (
    POSITIVITY_RTOL,
    SQRT2,
    UNIT_ROUNDOFF,
    _partial_transpose,
    as_complex_vector,
    conj_vector,
    fix_phase,
    frobenius_norm,
    gap_rank,
    hermitian_within,
    hermitize,
    is_psd,
    normalized,
    null_space,
    transpose,
)
from conecert.maps import (
    MapRep,
    choi_from_ad,
    choi_from_omega_q,
    is_completely_positive,
    is_hermitian_preserving,
    is_positive,
    partial_transpose_in,
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


def test_gap_rank_empty_and_zero_spectra():
    assert gap_rank(np.zeros(0), 0.0) == 0
    assert gap_rank(np.zeros(0), 1e-15) == 0
    with np.errstate(all="raise"):
        assert gap_rank(np.zeros(3), 0.0) == 0
        assert gap_rank(np.zeros(3), 1e-15) == 0


def test_gap_rank_single_value():
    assert gap_rank(np.array([2.0]), 1e-15) == 1
    assert gap_rank(np.array([2.0]), 0.0) == 1
    assert isinstance(gap_rank(np.array([2.0]), 1e-15), int)


def test_gap_rank_clear_gap():
    assert gap_rank(np.array([3.0, 2.0, 1e-9, 1e-10]), 1e-15) == 2
    # full rank: the last value stands far above the floor
    assert gap_rank(np.array([3.0, 2.0, 1.0]), 1e-15) == 3
    # ties go to the first gap
    assert gap_rank(np.array([1.0, 2.0**-20, 2.0**-40]), 2.0**-60) == 1
    with np.errstate(all="raise"):
        assert gap_rank(np.array([1.0, 0.5, 0.0, 0.0]), 0.0) == 2


def test_gap_rank_reads_values_below_the_floor_at_the_floor():
    # without the floor the gap 1e-16 -> 1e-40 would win
    assert gap_rank(np.array([1.0, 1e-16, 1e-40]), 1e-15) == 1
    assert gap_rank(np.array([1.0, 0.5, 1e-20, 1e-30]), 1e-15) == 2
    # a top value that is not above the floor has rank 0
    assert gap_rank(np.array([1e-16, 1e-17]), 1e-15) == 0
    assert gap_rank(np.array([1e-15]), 1e-15) == 0


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
            assert ok == (w.min() >= -(POSITIVITY_RTOL + dim * UNIT_ROUNDOFF) * np.linalg.norm(h))
            assert abs(low - w.min()) < 1e-12


def test_is_psd_is_scale_free():
    """both rules are relative to |P|_F: a tiny indefinite matrix is refused,
    and s * P gets the verdict of P at every scale, Hermiticity check included"""
    ok, low = is_psd(1e-12 * np.diag([1.0, -1.0]))
    assert not ok and low == -1e-12
    rng = np.random.default_rng(8)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    psd = g @ g.conj().T
    cases = [
        (psd, True),
        (np.outer(g[0], g[0].conj()), True),
        (np.zeros((2, 2)), True),
        (hermitize(g), False),
        (np.diag([1.0, -1e-6]), False),
    ]
    for p, verdict in cases:
        for s in (1e-12, 1.0, 1e12):
            assert is_psd(s * p)[0] is verdict, (p, s)
    for s in (1e-12, 1.0, 1e12):
        with pytest.raises(HermiticityError):
            is_psd(s * np.array([[1.0, 1e-6], [0.0, 1.0]]))


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


def test_array_checks_refuse_bad_shapes_and_entries():
    """a matrix is nonempty 2-D, a vector nonempty 1-D, and neither holds inf or nan"""
    for bad in (np.ones(3), np.ones((2, 0)), np.ones((1, 2, 2))):
        with pytest.raises(ShapeError):
            transpose(bad)
    for bad in (np.ones((2, 2)), np.ones(0)):
        with pytest.raises(ShapeError):
            as_complex_vector(bad)
    for bad in (np.inf, np.nan):
        with pytest.raises(ShapeError):
            certify_exposed(np.array([[1.0, bad], [0.0, 1.0]]))
        with pytest.raises(ShapeError):
            conj_vector(np.array([1.0, bad]))
    with pytest.raises(ShapeError):
        params_to_herm(np.ones(5), 2)


def test_normalized_rejects_zero():
    with pytest.raises(ShapeError):
        normalized(np.zeros(2))


def test_herm_params_round_trip():
    rng = np.random.default_rng(7)
    for dim in (1, 2, 4, 6):
        c = hermitize(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        p = hermitian_params(c)
        assert p.shape == (dim * dim,)
        assert np.abs(params_to_herm(p, dim) - c).max() < 1e-14


def test_herm_params_isometry():
    rng = np.random.default_rng(8)
    for _ in range(20):
        c1 = hermitize(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        c2 = hermitize(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        inner = np.trace(c1.conj().T @ c2).real
        assert abs(inner - hermitian_params(c1) @ hermitian_params(c2)) < 1e-12


def test_functional_row_matches_direct_sum():
    rng = np.random.default_rng(9)
    for _ in range(20):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        c = hermitize(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        want = np.sum(c * m)
        got = functional_row(m) @ hermitian_params(c)
        assert abs(want - got) < 1e-12


def _params_reference(c):
    """`hermitian_params` written out as three index reads and a concatenation: the oracle."""
    iu, ju = np.triu_indices(c.shape[-1], 1)
    upper = c[..., iu, ju]
    diag = np.diagonal(c, axis1=-2, axis2=-1).real
    return np.concatenate([diag, SQRT2 * upper.real, SQRT2 * upper.imag], axis=-1)


@pytest.mark.parametrize("n", range(1, 9))
def test_cached_param_maps_are_bitwise_the_reference(n):
    """the oracle's `hermitian_params`, read at offsets in the float64 view, gives the
    written-out formula's bytes, signed zeros included, on Hermitian matrices from
    `params_to_herm` (itself written out as the formula) and on any matrix"""
    gen = np.random.default_rng(n)
    for shape in ((), (3,), (2, 4)):
        p = gen.standard_normal(shape + (n * n,))
        p[..., ::3] = 0.0
        p[..., 1::5] = -0.0
        x = gen.standard_normal(shape + (n, n)) + 1j * gen.standard_normal(shape + (n, n))
        x[..., ::2, :] = -0.0
        for c in (params_to_herm(p, n), x, x.swapaxes(-1, -2)):
            got, want_p = hermitian_params(c), _params_reference(c)
            assert got.shape == want_p.shape and got.tobytes() == want_p.tobytes(), (n, shape)


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("m", range(1, 6))
def test_partial_transpose_is_a_signed_permutation_of_the_params(n, m):
    """params(PT(X)) = sign * params(X)[index], bitwise, for Hermitian nm x nm X, and the batched
    `_partial_transpose` is the partial transpose of each matrix, bitwise"""
    index, sign = partial_transpose_slots(n, m)
    assert np.array_equal(np.sort(index), np.arange((n * m) ** 2))
    assert set(np.unique(sign)) <= {-1.0, 1.0}
    gen = np.random.default_rng(10 * n + m)
    p = gen.standard_normal((3, (n * m) ** 2))
    p[:, ::4] = 0.0
    x = params_to_herm(p, n * m)
    want = np.array([partial_transpose_in(c, n, m) for c in x])
    assert _partial_transpose(x, n, m).tobytes() == want.tobytes(), (n, m)
    got = sign * hermitian_params(x)[:, index]
    assert got.tobytes() == hermitian_params(want).tobytes(), (n, m)


def test_frobenius_norm_neither_underflows_nor_overflows():
    """in range it is np.linalg.norm, bitwise; outside it 2^k X reads 2^k |X|_F exactly, and
    only X = 0 reads 0"""
    gen = np.random.default_rng(71)
    for x in (gen.standard_normal((3, 4)) + 1j * gen.standard_normal((3, 4)), gen.standard_normal(5)):
        norm = float(np.linalg.norm(x))
        assert frobenius_norm(x) == norm
        for k in (-900, -600, 600, 1000):
            assert frobenius_norm(x * 2.0**k) == math.ldexp(norm, k), k
    assert frobenius_norm(np.zeros((2, 2), dtype=complex)) == 0.0
    assert frobenius_norm(np.array([0.0, 5e-324])) == 5e-324
    assert frobenius_norm(np.full(4, 1e300)) == pytest.approx(2e300, rel=1e-15)


@pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
def test_every_norm_read_as_a_scale_holds_at_any_scale(scale):
    """each entry point that reads |X|_F as a scale gives at scale 10^+-200 the verdict it
    gives at scale 1, with no under- or overflow warning

    certify_exposed and double_prime_nullspace normalise A by one norm, so
    they return one null space, bitwise; classify, membership_residual,
    is_psd, hermitian_within, is_hermitian_preserving, is_positive,
    is_completely_positive and functional_norm read the map's or the
    matrix's own norm.
    """
    gen = np.random.default_rng(73)

    def crandn(*shape):
        return gen.standard_normal(shape) + 1j * gen.standard_normal(shape)

    inputs = [crandn(3, 3), crandn(4, 3), crandn(4, 2) @ crandn(2, 4), np.outer(crandn(3), crandn(4))]
    for a in inputs:
        base, got = certify_exposed(a), certify_exposed(scale * a)
        assert base.verdict is not Verdict.NOT_CERTIFIED, a.shape
        assert (got.verdict, got.nullspace.dim) == (base.verdict, base.nullspace.dim), a.shape
        ns = double_prime_nullspace(scale * a)
        assert ns.basis.tobytes() == got.nullspace.basis.tobytes(), a.shape
        assert ns.condition == got.nullspace.condition, a.shape
        phi = choi_from_ad(a / np.linalg.norm(a))
        resid = membership_residual(ns, MapRep(phi.n, phi.m, scale * phi.choi))[1]
        assert resid == pytest.approx(membership_residual(ns, phi)[1], abs=1e-14), a.shape
        norm = functional_norm(functional_from_operator(scale * a))
        assert norm == pytest.approx(scale * np.linalg.norm(a), rel=1e-15), a.shape

    a, b, r, z = crandn(3, 3), crandn(3, 3), crandn(3, 3), crandn(3)
    ad, ad_t = choi_from_ad(a), choi_from_ad(a, transposed=True)
    maps = [ad, ad_t, choi_from_omega_q(r @ r.conj().T, z), MapRep(3, 3, ad.choi - choi_from_ad(b).choi)]
    for phi in maps[:3]:
        want = classify(phi).case
        assert classify(MapRep(3, 3, scale * phi.choi)).case is want
    for phi in [*maps, MapRep(3, 3, crandn(9, 9))]:
        c = scale * phi.choi
        big = MapRep(3, 3, c)
        assert hermitian_within(c, frobenius_norm(c)) is is_hermitian_preserving(phi)
        assert is_hermitian_preserving(big) is is_hermitian_preserving(phi)
        if is_hermitian_preserving(phi):
            assert is_positive(big).verdict == is_positive(phi).verdict
            assert is_completely_positive(big)[0] is is_completely_positive(phi)[0]
            assert is_psd(c)[0] is is_psd(phi.choi)[0]
    verdicts = [is_positive(phi).verdict for phi in maps]
    assert verdicts == ["POSITIVE_EVIDENCE"] * 3 + ["NOT_POSITIVE"]


# each LAPACK entry point of `linalg` and the np.linalg function whose gufunc it calls
NUMPY_COUNTERPARTS = {
    "_eigh": np.linalg.eigh,
    "eigh": np.linalg.eigh,
    "eigvalsh": np.linalg.eigvalsh,
    "svd": np.linalg.svd,
    "svdvals": np.linalg.svdvals,
}


def swap_lapack(monkeypatch, replace=lambda name, entry: NUMPY_COUNTERPARTS[name]):
    """Rebind each LAPACK entry point, in every conecert module where it is looked up, to
    replace(name, entry); returns the (module, name) pairs rebound."""
    entries = {name: getattr(linalg, name) for name in NUMPY_COUNTERPARTS}
    swapped = []
    for key, module in list(sys.modules.items()):
        if key.split(".")[0] != "conecert":
            continue
        for name, entry in entries.items():
            if vars(module).get(name) is entry:
                monkeypatch.setattr(module, name, replace(name, entry))
                swapped.append((key.split(".")[-1], name))
    return sorted(swapped)


def test_swap_reaches_every_lapack_call_site(monkeypatch):
    """the swap the bitwise tests use rebinds the entry points in each module that imports one,
    and in `linalg`, where `maps` looks them up"""
    assert swap_lapack(monkeypatch) == [
        ("_kernels", "_eigh"),
        ("exposedness", "eigh"), ("exposedness", "eigvalsh"),
        ("exposedness", "svd"), ("exposedness", "svdvals"),
        ("faces", "svd"), ("faces", "svdvals"),
        ("linalg", "_eigh"), ("linalg", "eigh"), ("linalg", "eigvalsh"),
        ("linalg", "svd"), ("linalg", "svdvals"),
        ("sampling", "svd"),
    ]


def same_bits(got, want):
    """equal dtypes, shapes and bytes, array by array (one array or a tuple of them)"""
    got, want = (tuple(x) if isinstance(x, tuple) else (x,) for x in (got, want))
    return len(got) == len(want) and all(
        g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()
        for g, w in zip(got, want)
    )


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_lapack_entry_points_are_numpy_bitwise(dtype):
    """each entry point gives the bits of its np.linalg counterpart, real or complex, on single
    matrices, stacks, wide, tall and empty ones, with no warning"""
    gen = np.random.default_rng(90)

    def draw(*shape):
        x = gen.standard_normal(shape)
        return (x + 1j * gen.standard_normal(shape) if dtype is np.complex128 else x).astype(dtype)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for shape in [(1, 1), (3, 3), (6, 6), (5, 4, 4), (2, 3, 12, 12)]:
            h = draw(*shape)
            h += h.conj().swapaxes(-1, -2)
            assert same_bits(linalg._lapack_errors(linalg._eigh)(h), np.linalg.eigh(h)), shape
            assert same_bits(linalg.eigh(h), np.linalg.eigh(h)), shape
            assert same_bits(linalg.eigvalsh(h), np.linalg.eigvalsh(h)), shape
        for shape in [(1, 1), (3, 5), (5, 3), (4, 4), (7, 2, 6), (0, 0), (0, 4), (3, 0)]:
            a = draw(*shape)
            for full in (True, False):
                assert same_bits(linalg.svd(a, full), np.linalg.svd(a, full)), (shape, full)
            assert same_bits(linalg.svdvals(a), np.linalg.svdvals(a)), shape


def test_lapack_entry_points_raise_on_nonconvergence():
    """a NaN stack makes each entry point raise LinAlgError, as np.linalg does, with no warning,
    and `null_space` turns that into ShapeError"""
    nan = np.full((2, 3, 3), np.nan, dtype=complex)
    calls = [linalg.eigh, linalg.eigvalsh, linalg.svd, linalg.svdvals,
             lambda a: linalg.svd(a, full_matrices=False), linalg._lapack_errors(linalg._eigh)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            for a in (nan, nan[0], nan[0].real):
                with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
                    call(a)
        with pytest.raises(ShapeError, match="SVD failed"):
            null_space(nan[0])


def test_frobenius_norm_is_numpy_norm_bitwise():
    """in range |X|_F has the bits of np.linalg.norm for every layout and dtype it is read of"""
    gen = np.random.default_rng(91)
    for shape in [(1,), (7,), (3, 4), (12, 12), (2, 3, 4, 3)]:
        x = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
        for y in (x, x.real, x.imag, x.T, x[..., ::2], np.asfortranarray(x), x.real.T.copy()):
            assert frobenius_norm(y) == float(np.linalg.norm(y)), (shape, y.dtype)
