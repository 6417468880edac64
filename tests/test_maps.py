import numpy as np
import pytest

from conecert import maps as maps_module
from conecert._kernels import block_minimize
from conecert.errors import HermiticityError, InputRejected, SearchError, ShapeError
from conecert.linalg import POSITIVITY_RTOL, hermitize, is_psd, psd_threshold
from conecert.maps import (
    MapRep,
    SearchParams,
    SeparableElement,
    apply,
    choi_from_ad,
    choi_from_omega_q,
    is_completely_positive,
    is_hermitian_preserving,
    is_positive,
    pairing,
    partial_transpose_in,
)
from conecert.sampling import crandn as sample_crandn
from conecert.sampling import random_operator, rng_from
from constraint_oracle import map_floor
from test_kernels import reference_scan
from test_linalg import swap_lapack

rng = np.random.default_rng(7)


def crandn(*shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def rand_herm(d):
    g = crandn(d, d)
    return (g + g.conj().T) / 2


def test_choi_from_ad_identity():
    phi = choi_from_ad(np.eye(2))
    w = np.array([1, 0, 0, 1], dtype=complex)
    assert np.abs(phi.choi - np.outer(w, w)).max() < 1e-15


def test_choi_from_ad_transposed_identity_is_swap():
    phi = choi_from_ad(np.eye(2), transposed=True)
    swap = np.zeros((4, 4), dtype=complex)
    swap[0, 0] = swap[1, 2] = swap[2, 1] = swap[3, 3] = 1
    assert np.abs(phi.choi - swap).max() < 1e-15


def test_choi_scaling_covariance():
    a = crandn(3, 2)
    for c in (2.0, 1j, -3.0, 0.5 - 0.25j):
        phi = choi_from_ad(a)
        phic = choi_from_ad(c * a)
        assert np.abs(phic.choi - abs(c) ** 2 * phi.choi).max() < 1e-10


def test_choi_from_ad_rejects_zero():
    with pytest.raises(InputRejected):
        choi_from_ad(np.zeros((2, 2)))


def test_apply_matches_sandwich():
    for n, m in [(2, 2), (3, 2), (2, 4), (4, 3)]:
        a = crandn(n, m)
        phi = choi_from_ad(a)
        phit = choi_from_ad(a, transposed=True)
        for _ in range(5):
            y = rand_herm(m)
            assert np.abs(apply(phi, y) - a @ y @ a.conj().T).max() < 1e-12
            assert np.abs(apply(phit, y) - a @ y.T @ a.conj().T).max() < 1e-12


def test_apply_omega_q():
    r = crandn(3, 2)
    r = r @ r.conj().T
    zeta = crandn(4)
    phi = choi_from_omega_q(r, zeta)
    q = np.outer(zeta, zeta.conj()) / np.vdot(zeta, zeta).real
    for _ in range(5):
        y = rand_herm(3)
        expect = np.trace(r @ y) * q
        assert np.abs(apply(phi, y) - expect).max() < 1e-12


def test_apply_linearity():
    phi = choi_from_ad(crandn(3, 3))
    y1, y2 = crandn(3, 3), crandn(3, 3)
    c = 0.3 - 1.7j
    lhs = apply(phi, y1 + c * y2)
    rhs = apply(phi, y1) + c * apply(phi, y2)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_apply_rejects_wrong_shape():
    phi = choi_from_ad(np.eye(2))
    with pytest.raises(ShapeError):
        apply(phi, np.eye(3))


def test_pairing_identity_pinned():
    phi = choi_from_ad(np.eye(2))
    x = np.array([[1, 0], [0, 0]], dtype=complex)
    val = pairing(phi, SeparableElement(x, x))
    assert abs(val - 1.0) < 1e-14
    val2 = pairing(phi, SeparableElement(x, np.eye(2) - x))
    assert abs(val2) < 1e-14


def test_pairing_paths_agree_on_products():
    for n, m in [(2, 2), (3, 2), (2, 3)]:
        phi = choi_from_ad(crandn(n, m))
        for _ in range(10):
            gx, gy = crandn(n, n), crandn(m, m)
            el = SeparableElement(gx @ gx.conj().T, gy @ gy.conj().T)
            full = pairing(phi, el.tensor())
            prod = pairing(phi, el)
            assert abs(full - prod) < 1e-10 * max(1.0, abs(full))


def test_pairing_block_form_identity():
    """<phi, (xi xi*) (x) (eta eta*)> equals <conj(xi), phi(eta eta*) conj(xi)>"""
    phi = choi_from_ad(crandn(3, 2), transposed=True)
    for _ in range(10):
        xi, eta = crandn(3), crandn(2)
        el = SeparableElement(np.outer(xi, xi.conj()), np.outer(eta, eta.conj()))
        lhs = pairing(phi, el)
        out = apply(phi, np.outer(eta, eta.conj()))
        rhs = np.vdot(xi.conj(), out @ xi.conj())
        assert abs(lhs - rhs) < 1e-10


def test_pairing_rejects_mismatched_operators():
    phi = choi_from_ad(crandn(2, 3))
    with pytest.raises(ShapeError):
        pairing(phi, SeparableElement(np.eye(3), np.eye(3)))
    with pytest.raises(ShapeError):
        pairing(phi, np.eye(5))


def test_is_positive_rejects_a_non_hermitian_choi():
    with pytest.raises(HermiticityError):
        is_positive(MapRep(n=2, m=2, choi=np.triu(np.ones((4, 4)))))


def test_random_operator_rejects_a_rank_below_one():
    with pytest.raises(ValueError):
        random_operator(rng_from(0), 3, 3, 0)


def test_partial_transpose_involution():
    c = crandn(6, 6)
    assert np.abs(partial_transpose_in(partial_transpose_in(c, 2, 3), 2, 3) - c).max() < 1e-15


def test_is_hermitian_preserving():
    assert is_hermitian_preserving(choi_from_ad(crandn(3, 2)))
    assert is_hermitian_preserving(choi_from_omega_q(np.eye(2), np.ones(2)))
    e12 = np.zeros((2, 2), dtype=complex)
    e12[0, 1] = 1
    e11 = np.zeros((2, 2), dtype=complex)
    e11[0, 0] = 1
    bad = MapRep(n=2, m=2, choi=np.kron(e12, e11))
    assert not is_hermitian_preserving(bad)


def test_is_completely_positive():
    a = crandn(3, 3)
    phi = choi_from_ad(a)
    ok, low = is_completely_positive(phi)
    assert ok
    assert low > -1e-12
    # rank-1 Choi: the single nonzero eigenvalue is the squared Frobenius norm
    assert abs(np.linalg.eigvalsh(phi.choi)[-1] - np.linalg.norm(a) ** 2) < 1e-9
    ok_t, low_t = is_completely_positive(choi_from_ad(np.eye(2), transposed=True))
    assert not ok_t
    assert abs(low_t + 1.0) < 1e-12


def test_is_completely_positive_rejects_non_hermitian():
    e12 = np.zeros((4, 4), dtype=complex)
    e12[0, 1] = 1
    with pytest.raises(HermiticityError):
        is_completely_positive(MapRep(n=2, m=2, choi=e12))


def test_is_positive_ad():
    res = is_positive(choi_from_ad(crandn(3, 2)), SearchParams(restarts=16, seed=11))
    assert res.positive
    assert res.verdict == "POSITIVE_EVIDENCE"
    assert res.min_value > -1e-9


def test_is_positive_transposed_swap():
    res = is_positive(choi_from_ad(np.eye(2), transposed=True), SearchParams(seed=12))
    assert res.positive


def test_is_positive_negative_witness():
    c = np.diag([1.0, 0.0, 0.0, -1.0])
    res = is_positive(MapRep(n=2, m=2, choi=c), SearchParams(seed=13))
    assert not res.positive
    assert res.verdict == "NOT_POSITIVE"
    assert abs(res.min_value + 1.0) < 1e-9
    u = np.kron(res.xi, res.eta)
    assert abs(np.vdot(u, c @ u).real - res.min_value) < 1e-9


def _positivity_maps(n, m):
    """CP, ad, ad o T, omega_q and a planted map, normalised as the benchmark does"""
    d = n * m
    g = crandn(d, d)
    cp = g @ g.conj().T
    cp /= np.linalg.norm(cp)
    a = crandn(n, m) / 2
    r, z = crandn(m, m), crandn(n)
    v = np.kron(crandn(n), crandn(m))
    v /= np.linalg.norm(v)
    planted = cp - (np.vdot(v, cp @ v).real + 0.05) * np.outer(v, v.conj())
    return [
        MapRep(n=n, m=m, choi=cp),
        choi_from_ad(a),
        choi_from_ad(a, transposed=True),
        choi_from_omega_q(r @ r.conj().T, z),
        MapRep(n=n, m=m, choi=0.5 * (planted + planted.conj().T)),
    ]


def cho_kye_lee(a, b, c):
    """Phi[a,b,c](X) = diag(a x11 + b x22 + c x33, c x11 + a x22 + b x33,
    b x11 + c x22 + a x33) - X on 3x3; Phi[2,0,1] is Choi's map"""
    c4 = np.zeros((3, 3, 3, 3), dtype=complex)
    for k in range(3):
        for i in range(3):
            c4[i, k, i, k] += (a, b, c)[(k - i) % 3]
        for l in range(3):
            c4[k, k, l, l] -= 1.0
    return MapRep(n=3, m=3, choi=c4.reshape(9, 9))


def _informed_starts(map_rep):
    """`product_start` of the bottom eigenvector of the Hermitized Choi matrix,
    then `_compression_starts` of that matrix"""
    n, m = map_rep.n, map_rep.m
    h = hermitize(map_rep.choi)
    bottom = np.linalg.eigh(h)[1][:, 0]
    return np.concatenate([
        maps_module.product_start(bottom.reshape(n, m)),
        maps_module._compression_starts(h.reshape(n, m, n, m)),
    ])


def _scan_starts(map_rep, search):
    """every informed start, then search.restarts random ones"""
    return np.vstack([
        _informed_starts(map_rep),
        sample_crandn(rng_from(search.seed), search.restarts, map_rep.m),
    ])


def _threshold(map_rep):
    """the map's PSD level, `psd_threshold(n * m, |Choi|_F)`"""
    return psd_threshold(map_rep.n * map_rep.m, float(np.linalg.norm(map_rep.choi)))


def _full_scan(map_rep, search):
    """the best value of the restart scan with no spectrum certificate"""
    return reference_scan(
        map_rep.choi4, _scan_starts(map_rep, search), search.max_iters,
        _threshold(map_rep),
    )[0]


def _certified(map_rep):
    """the Choi matrix or its partial transpose is PSD within `_threshold`"""
    low = np.linalg.eigvalsh(map_rep.choi)[0]
    low_pt = np.linalg.eigvalsh(partial_transpose_in(map_rep.choi, map_rep.n, map_rep.m))[0]
    return max(low, low_pt) >= _threshold(map_rep)


def _reference(map_rep, search):
    """`reference_scan` of what is_positive promises: one iteration from the
    first informed start for a map proved CP, the full first descent for one
    proved co-CP only, and the whole scan for any other map"""
    threshold = _threshold(map_rep)
    if np.linalg.eigvalsh(map_rep.choi)[0] >= threshold:
        starts, iters = _informed_starts(map_rep)[:1], 1
    elif _certified(map_rep):
        starts, iters = _informed_starts(map_rep)[:1], search.max_iters
    else:
        starts, iters = _scan_starts(map_rep, search), search.max_iters
    return reference_scan(map_rep.choi4, starts, iters, threshold)


def test_cho_kye_lee_pinned():
    x = crandn(3, 3)
    d = np.diag(x)
    expect = np.diag([2 * d[0] + d[2], d[0] + 2 * d[1], d[1] + 2 * d[2]]) - x
    assert np.abs(apply(cho_kye_lee(2, 0, 1), x) - expect).max() < 1e-12


@pytest.mark.parametrize("n, m", [(2, 2), (3, 3), (2, 4), (4, 2)])
def test_is_positive_matches_reference_scan(n, m):
    """is_positive = the sequential scan of its informed and random starts,
    or of the first informed start alone when the Choi spectrum settles the
    map, for one iteration if that spectrum is the map's own"""
    maps = _positivity_maps(n, m)
    if (n, m) == (3, 3):
        maps.append(cho_kye_lee(2, 0, 1))
    certified, results = [], []
    for k, map_rep in enumerate(maps):
        search = SearchParams(seed=100 * n + 10 * m + k)
        res = is_positive(map_rep, search)
        certified.append(_certified(map_rep))
        val, _, _, used = _reference(map_rep, search)
        assert res.positive == (certified[-1] or val >= _threshold(map_rep))
        assert res.restarts_used == used
        assert abs(res.min_value - val) <= 1e-12
        u = np.kron(res.xi, res.eta)
        assert abs(np.vdot(u, map_rep.choi @ u).real - res.min_value) <= 1e-12
        results.append(res)
    # cp, ad, ad o T and omega_q are settled; the planted and Choi maps are scanned
    assert certified[:5] == [True, True, True, True, False]
    assert not any(certified[5:])
    # the planted map has a product vector at -0.05: it must be found
    assert not results[4].positive
    # Choi's map is positive but neither CP nor co-CP: every start is scanned
    if (n, m) == (3, 3):
        assert results[5].positive
        assert results[5].restarts_used == 5 + SearchParams().restarts


@pytest.mark.parametrize("n, m", [(1, 1), (1, 3), (3, 1), (2, 2), (3, 3), (2, 4), (4, 2)])
def test_certificate_verdict_matches_full_scan(n, m):
    """cp, ad, ad o T and omega_q: one certified descent, the full scan's verdict"""
    for k, map_rep in enumerate(_positivity_maps(n, m)[:4]):
        search = SearchParams(seed=100 * n + 10 * m + k)
        res = is_positive(map_rep, search)
        assert res.restarts_used == 1
        assert res.positive == (_full_scan(map_rep, search) >= _threshold(map_rep))
        assert res.positive
        u = np.kron(res.xi, res.eta)
        assert abs(np.vdot(u, map_rep.choi @ u).real - res.min_value) <= 1e-12


@pytest.mark.parametrize("n, m", [(1, 1), (1, 3), (3, 1), (2, 2), (3, 3), (2, 4), (4, 2)])
def test_cp_witness_ignores_max_iters(n, m):
    """a map proved CP takes one iteration at any budget, and its value stays
    at least lambda_min(C); ad o T and planted maps still descend on the budget"""
    cp, ad, ad_t, omega, planted = _positivity_maps(n, m)
    budgets = [SearchParams(max_iters=1), SearchParams(), SearchParams(max_iters=500)]
    for map_rep in (cp, ad, omega):
        first = is_positive(map_rep, budgets[0])
        low = np.linalg.eigvalsh(map_rep.choi)[0]
        for search in budgets:
            res = is_positive(map_rep, search)
            assert res.positive and res.restarts_used == 1
            assert res.min_value == first.min_value
            assert np.array_equal(res.xi, first.xi) and np.array_equal(res.eta, first.eta)
            assert res.min_value >= low - map_floor(map_rep)
    for map_rep in (ad_t, planted):
        for search in budgets:
            res = is_positive(map_rep, search)
            val, _, _, used = _reference(map_rep, search)
            assert res.restarts_used == used
            assert abs(res.min_value - val) <= 1e-12
            u = np.kron(res.xi, res.eta)
            assert abs(np.vdot(u, map_rep.choi @ u).real - res.min_value) <= 1e-12


def test_certificate_edges_match_full_scan():
    """shifted CP maps at the tolerance, and the Cho-Kye-Lee maps"""
    search = SearchParams(seed=5)
    g = sample_crandn(np.random.default_rng(3), 9, 9)
    cp = g @ g.conj().T
    cp /= np.linalg.norm(cp)
    shifted = [
        MapRep(n=3, m=3, choi=cp - (np.linalg.eigvalsh(cp)[0] + s * POSITIVITY_RTOL) * np.eye(9))
        for s in (0.5, 2.0)
    ]
    inside, outside = (is_positive(phi, search) for phi in shifted)
    # lambda_min(C) = -rtol/2 is proved; at -2 rtol (and an NPT partial
    # transpose) the scan decides, and the product minimum is still positive
    assert _certified(shifted[0]) and not _certified(shifted[1])
    assert inside.positive and inside.restarts_used == 1
    assert outside.positive and outside.restarts_used == 5 + search.restarts
    assert outside.min_value > 0
    # Phi[1,1,1](X) = Tr(X) I - X: lambda_min(C) = -2, lambda_min(C^G) = 0
    reduction = cho_kye_lee(1, 1, 1)
    assert abs(np.linalg.eigvalsh(reduction.choi)[0] + 2.0) < 1e-12
    res = is_positive(reduction, search)
    assert res.positive and res.restarts_used == 1
    # Phi[2,0,0.9] is not positive: a+b+c < 3
    not_positive = cho_kye_lee(2, 0, 0.9)
    res = is_positive(not_positive, search)
    assert not res.positive
    assert abs(res.min_value + 1 / 30) < 1e-6
    u = np.kron(res.xi, res.eta)
    assert abs(np.vdot(u, not_positive.choi @ u).real - res.min_value) <= 1e-12
    for phi in shifted + [reduction, not_positive]:
        full = _full_scan(phi, search)
        assert is_positive(phi, search).positive == (full >= _threshold(phi))


def test_co_cp_edges_match_full_scan():
    """maps whose partial transpose is a PSD matrix shifted to the tolerance:
    the co-CP spectrum is taken only after the first descent, and the verdict
    is still the full scan's; Choi's map is still the sequential scan of
    every start"""
    search = SearchParams(seed=6)
    g = sample_crandn(np.random.default_rng(4), 9, 9)
    psd = g @ g.conj().T
    psd /= np.linalg.norm(psd)
    shifted = [
        MapRep(n=3, m=3, choi=partial_transpose_in(
            psd - (np.linalg.eigvalsh(psd)[0] + s * POSITIVITY_RTOL) * np.eye(9), 3, 3))
        for s in (0.5, 2.0)
    ]
    # neither map is CP, so only the partial transpose can prove it
    assert all(np.linalg.eigvalsh(phi.choi)[0] < _threshold(phi) for phi in shifted)
    inside, outside = (is_positive(phi, search) for phi in shifted)
    assert _certified(shifted[0]) and not _certified(shifted[1])
    assert inside.positive and inside.restarts_used == 1
    assert outside.positive and outside.restarts_used == 5 + search.restarts
    for phi, res in zip(shifted, (inside, outside)):
        assert res.positive == (_full_scan(phi, search) >= _threshold(phi))
    choi_map = cho_kye_lee(2, 0, 1)
    res = is_positive(choi_map, search)
    val, _, _, used = reference_scan(
        choi_map.choi4, _scan_starts(choi_map, search), search.max_iters,
        _threshold(choi_map),
    )
    assert used == res.restarts_used == 5 + search.restarts
    assert res.positive and abs(res.min_value - val) <= 1e-12


def _result_bits(res):
    return (res.positive, np.float64(res.min_value).tobytes(), res.xi.tobytes(),
            res.eta.tobytes(), res.restarts_used)


@pytest.mark.parametrize("n, m", [(1, 3), (2, 2), (3, 3), (2, 4), (4, 2), (4, 6)])
def test_is_positive_bitwise_with_numpy_eigh(n, m, monkeypatch):
    """every LAPACK entry point of `linalg` gives the bits of its np.linalg counterpart: every
    result, the Cho-Kye-Lee restart scans included, is unchanged with each one swapped for it
    where it is looked up, the kernel's half-steps, the Choi spectra and the starts included"""
    maps = _positivity_maps(n, m)
    if (n, m) == (3, 3):
        maps += [cho_kye_lee(2, 0, 1), cho_kye_lee(2, 0.2, 1), cho_kye_lee(2, 0, 0.9)]
    searches = [SearchParams(seed=100 * n + 10 * m + k) for k in range(len(maps))]
    results = [is_positive(phi, search) for phi, search in zip(maps, searches)]
    assert all(res.restarts_used > 1 for res in results[5:])
    swap_lapack(monkeypatch)
    for phi, search, res in zip(maps, searches, results):
        assert _result_bits(is_positive(phi, search)) == _result_bits(res)


class _RandomDrawn(Exception):
    pass


def test_certified_maps_draw_no_random_number(monkeypatch):
    """a certified map, or a planted one whose first descent exits, ignores
    restarts and seed; Choi's map, which the first descent leaves undecided,
    still draws"""
    def no_draw(*args):
        raise _RandomDrawn

    monkeypatch.setattr(maps_module, "crandn", no_draw)
    cp, _, ad_t, _, planted = _positivity_maps(3, 2)
    for map_rep, positive in ((cp, True), (ad_t, True), (planted, False)):
        results = [
            is_positive(map_rep, SearchParams(restarts=r, seed=s))
            for r, s in ((64, 0), (0, 0), (7, 12345))
        ]
        for res in results:
            assert res.positive is positive
            assert res.restarts_used == 1
            assert res.min_value == results[0].min_value
            assert np.array_equal(res.xi, results[0].xi)
            assert np.array_equal(res.eta, results[0].eta)
    with pytest.raises(_RandomDrawn):
        is_positive(cho_kye_lee(2, 0, 1))


def test_is_positive_rejects_negative_restarts():
    with pytest.raises(SearchError):
        is_positive(choi_from_ad(np.eye(2)), SearchParams(restarts=-1))


def test_search_params_reject_bad_budget():
    """a budget that is not an integer, or is a bool, is refused up front: it
    would otherwise raise a raw TypeError on the first map that reads it"""
    for bad in (-1, 1.5, 2.5, True, False, np.float64(3.0), "3", None):
        with pytest.raises(SearchError):
            SearchParams(restarts=bad)
    for bad in (0, 1.5, True, np.float64(3.0), np.True_, "3", None):
        with pytest.raises(SearchError):
            SearchParams(max_iters=bad)
    assert SearchParams(restarts=0, max_iters=1).restarts == 0
    assert SearchParams(restarts=np.int64(3), max_iters=np.int32(5)).max_iters == 5


def test_search_params_reject_bad_seed():
    """a bad seed is refused up front: with lazy draws it would otherwise fail
    only on the maps that reach the random starts"""
    for bad in (-1, -4, 1.5, "3", None, True, False, np.float64(7.0)):
        with pytest.raises(SearchError):
            SearchParams(seed=bad)
    assert SearchParams(seed=np.int64(7)).seed == 7


def test_separable_element_rejects_non_psd():
    with pytest.raises(InputRejected):
        SeparableElement(np.diag([1.0, -1.0]), np.eye(2))
    with pytest.raises(HermiticityError):
        SeparableElement(np.eye(2), np.array([[0, 1], [0, 0]], dtype=complex))


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
def test_psd_factor_checks_are_relative(scale):
    """a factor is checked relative to its own norm, at any scale: non-Hermitian by
    its whole scale or indefinite is refused, PSD is kept, and a zero factor is PSD"""
    skew, indefinite = np.array([[1.0, 1.0], [0.0, 1.0]]), np.diag([1.0, -1e-4])
    psd = np.array([[2.0, 1.0j], [-1.0j, 1.0]])
    for make in (lambda f: SeparableElement(f, np.eye(2)), lambda f: choi_from_omega_q(f, np.ones(2))):
        with pytest.raises(HermiticityError):
            make(scale * skew)
        with pytest.raises(InputRejected):
            make(scale * indefinite)
        make(scale * psd)
    SeparableElement(np.zeros((2, 2)), scale * psd)


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
@pytest.mark.parametrize("depth, accepted", [(5e-10, True), (5e-9, False)])
def test_one_psd_rule(scale, depth, accepted):
    """a PSD 4 x 4 matrix shifted to lambda_min = -depth * |X|_F gets one verdict
    from `is_psd`, `is_completely_positive` and both factor checks, at any
    scale: all of them read `linalg.psd_threshold`"""
    local = np.random.default_rng(41)
    # a near-diagonal unitary keeps |X|_max near |X|_F: the old factor check,
    # relative to |X|_max at 1e-8, accepted both depths
    u, _ = np.linalg.qr(np.eye(4) + 0.1 * sample_crandn(local, 4, 4))
    top = np.array([1.0, 2.0, 3.0])
    w = np.append(-depth * np.sqrt(top @ top / (1 - depth**2)), top)
    x = hermitize(scale * (u * w) @ u.conj().T)
    assert abs(np.linalg.eigvalsh(x)[0] / np.linalg.norm(x) + depth) < 1e-3 * depth
    verdicts = [is_psd(x)[0], is_completely_positive(MapRep(2, 2, x))[0]]
    for make in (lambda f: SeparableElement(f, np.eye(2)), lambda f: choi_from_omega_q(f, np.ones(2))):
        try:
            make(x)
        except InputRejected:
            verdicts.append(False)
        else:
            verdicts.append(True)
    assert verdicts == [accepted] * 4


def test_omega_q_rejections():
    with pytest.raises(InputRejected):
        choi_from_omega_q(np.zeros((2, 2)), np.ones(2))
    with pytest.raises(InputRejected):
        choi_from_omega_q(np.eye(2), np.zeros(2))
    with pytest.raises(InputRejected):
        choi_from_omega_q(np.diag([1.0, -0.5]), np.ones(2))
    with pytest.raises(ShapeError):
        choi_from_omega_q(np.ones((2, 3)), np.ones(2))


def test_map_rep_validation():
    with pytest.raises(ShapeError):
        MapRep(n=2, m=2, choi=np.eye(3))
    with pytest.raises(ShapeError):
        MapRep(n=0, m=2, choi=np.eye(0))
    # a size is an integer, and a bool is not one: is_positive would raise a bare TypeError
    for n, m in ((2.0, 2.0), (2.0, 2), (True, 1), (1, True)):
        with pytest.raises(ShapeError):
            MapRep(n=n, m=m, choi=np.eye(4 if n == 2 else 1))
    assert MapRep(n=np.int64(2), m=2, choi=np.eye(4)).n == 2


def test_informed_starts_shape():
    starts = _informed_starts(choi_from_ad(crandn(3, 4)))
    assert starts.shape == (5, 4)
    norms = np.linalg.norm(starts, axis=1)
    assert np.abs(norms - 1.0).max() < 1e-10


def _count_choi_decompositions(monkeypatch, d):
    """Spy on `linalg.eigh` and `eigvalsh` where they are looked up: the calls on d x d
    matrices, by name."""
    counts = {"eigh": 0, "eigvalsh": 0}

    def spy(name, entry):
        if name not in counts:
            return entry

        def call(a, *args, **kwargs):
            if np.shape(a)[-2:] == (d, d):
                counts[name] += 1
            return entry(a, *args, **kwargs)

        return call

    assert ("linalg", "eigh") in swap_lapack(monkeypatch, spy)
    return counts


def test_proved_map_builds_only_the_product_start(monkeypatch):
    """a CP or co-CP map, or a planted map whose first descent exits, descends
    from `product_start`, the first informed start, and never builds the
    others; every map decomposes its Choi matrix once, and only a map that is
    neither CP nor settled by that descent takes the `eigvalsh` of its partial
    transpose"""
    local = np.random.default_rng(3)
    a = local.standard_normal((3, 4)) + 1j * local.standard_normal((3, 4))
    maps = [choi_from_ad(a), choi_from_ad(a, transposed=True)]
    cp = sample_crandn(local, 12, 12)
    cp = cp @ cp.conj().T
    v = np.kron(sample_crandn(local, 3), sample_crandn(local, 4))
    v /= np.linalg.norm(v)
    planted = MapRep(3, 4, cp - (np.vdot(v, cp @ v).real + 0.05) * np.outer(v, v.conj()))
    counts = _count_choi_decompositions(monkeypatch, 12)

    def refuse(c4):
        raise AssertionError("informed starts built for a settled map")

    monkeypatch.setattr(maps_module, "_compression_starts", refuse)
    result = is_positive(planted)
    assert not result.positive and result.restarts_used == 1
    assert counts == {"eigh": 1, "eigvalsh": 0}
    for map_rep, pt_tests in zip(maps, (0, 1)):
        counts.update(eigh=0, eigvalsh=0)
        result = is_positive(map_rep)
        assert result.positive and result.restarts_used == 1
        assert counts == {"eigh": 1, "eigvalsh": pt_tests}


def _planted(local, n, m):
    """a normalised CP map minus a product projector, 0.05 below zero on it"""
    g = sample_crandn(local, n * m, n * m)
    cp = g @ g.conj().T
    cp /= np.linalg.norm(cp)
    v = np.kron(sample_crandn(local, n), sample_crandn(local, m))
    v /= np.linalg.norm(v)
    planted = cp - (np.vdot(v, cp @ v).real + 0.05) * np.outer(v, v.conj())
    return 0.5 * (planted + planted.conj().T)


@pytest.mark.parametrize("scale", [1e6, 1e8, 1e10])
def test_is_positive_verdict_at_any_scale(scale):
    """the threshold is relative to |Choi|_F, so a scaled-up positive ad or ad o T
    map is not refused on the rounding of its Choi spectrum or of its descent,
    nor a scaled-up ad map by `is_completely_positive`, and a planted map is
    still found, with its witness"""
    local = np.random.default_rng(29)
    for n, m in [(2, 2), (3, 3), (4, 4), (2, 4), (4, 2), (4, 6)]:
        for _ in range(3):
            a = sample_crandn(local, n, m) / 2
            for transposed in (False, True):
                choi = scale * choi_from_ad(a, transposed).choi
                assert is_positive(MapRep(n, m, choi)).verdict == "POSITIVE_EVIDENCE"
            assert is_completely_positive(MapRep(n, m, scale * choi_from_ad(a).choi))[0]
            choi = scale * _planted(local, n, m)
            res = is_positive(MapRep(n, m, choi))
            assert res.verdict == "NOT_POSITIVE"
            assert res.min_value < -0.04 * scale
            u = np.kron(res.xi, res.eta)
            assert abs(np.vdot(u, choi @ u).real - res.min_value) <= 1e-12 * np.linalg.norm(choi)


@pytest.mark.parametrize("n, m", [(2, 2), (3, 3), (2, 4)])
def test_verdicts_are_scale_free(n, m):
    """phi and s * phi get one positivity verdict and one `restarts_used`, and one
    CP verdict, from 1e-12 to 1e6: the threshold is relative to |Choi|_F"""
    local = np.random.default_rng(31 + 10 * n + m)
    a = sample_crandn(local, n, m) / 2
    r, z = sample_crandn(local, m, m), sample_crandn(local, n)
    g = sample_crandn(local, n * m, n * m)
    maps = [
        MapRep(n, m, g @ g.conj().T / np.linalg.norm(g @ g.conj().T)),
        choi_from_ad(a),
        choi_from_ad(a, transposed=True),
        choi_from_omega_q(r @ r.conj().T, z),
        MapRep(n, m, _planted(local, n, m)),
    ]
    if (n, m) == (3, 3):
        maps.append(cho_kye_lee(2, 0, 1))
    verdicts = []
    for map_rep in maps:
        res, cp = is_positive(map_rep), is_completely_positive(map_rep)[0]
        verdicts.append((res.positive, cp))
        for s in (1e-12, 1e-6, 1.0, 1e6):
            scaled = MapRep(n, m, s * map_rep.choi)
            got = is_positive(scaled)
            assert (got.positive, got.restarts_used) == (res.positive, res.restarts_used), s
            assert is_completely_positive(scaled)[0] == cp, s
    # (positive, CP): ad o T and Choi's map are positive but not CP, the
    # planted map is neither
    expected = [(True, True), (True, True), (True, False), (True, True), (False, False)]
    assert verdicts == expected + [(True, False)] * (n == 3)


def test_threshold_covers_eigh_rounding_of_psd_maps():
    """unit-norm 2 x 2 ad and omega_q maps are exactly CP, and every one is
    proved so on its first step, although `eigh` puts the bottom Choi
    eigenvalue of some below -map_floor: the threshold's relative part is what
    keeps them off the long path"""
    local = np.random.default_rng(0)
    below_floor = 0
    for _ in range(1000):
        a = sample_crandn(local, 2, 2)
        r = sample_crandn(local, 2, 2)
        r = r @ r.conj().T
        for phi in (
            choi_from_ad(a / np.linalg.norm(a)),
            choi_from_omega_q(r / np.linalg.norm(r), sample_crandn(local, 2)),
        ):
            assert is_completely_positive(phi)[0]
            res = is_positive(phi)
            assert res.positive and res.restarts_used == 1
            below_floor += np.linalg.eigh(hermitize(phi.choi))[0][0] < -map_floor(phi)
    assert below_floor >= 1


def test_is_positive_hermitizes_a_nearly_hermitian_choi():
    """an anti-Hermitian part of 1e-11 of the norm passes the Hermiticity rule,
    and `is_positive` then reads only the Hermitized Choi matrix: every map,
    settled or scanned, gets that matrix's result bitwise"""
    local = np.random.default_rng(23)
    maps = _positivity_maps(3, 3) + [cho_kye_lee(2, 0, 1), cho_kye_lee(2, 0, 0.9)]
    for phi in maps:
        skew = sample_crandn(local, 9, 9)
        skew -= skew.conj().T
        c = phi.choi + 1e-11 * np.linalg.norm(phi.choi) / np.linalg.norm(skew) * skew
        assert is_hermitian_preserving(MapRep(3, 3, c))
        assert np.linalg.norm(c - hermitize(c)) > 1e-12 * np.linalg.norm(c)
        got = is_positive(MapRep(3, 3, c), SearchParams(restarts=8))
        want = is_positive(MapRep(3, 3, hermitize(c)), SearchParams(restarts=8))
        assert (got.positive, got.min_value, got.restarts_used) == (
            want.positive, want.min_value, want.restarts_used)
        assert got.xi.tobytes() == want.xi.tobytes() and got.eta.tobytes() == want.eta.tobytes()


@pytest.mark.parametrize("abc", [(2, 0, 0.9), (2, 0.2, 1)])
def test_descent_stop_is_scale_free(abc):
    """a descent stops at a change relative to |Choi|_F, so min_value / s of
    s * Phi[a,b,c] does not move with s: on a small map an absolute stop
    cuts every descent short"""
    phi = cho_kye_lee(*abc)
    values = [
        is_positive(MapRep(3, 3, s * phi.choi)).min_value / s for s in (1e-12, 1e-6, 1.0, 1e6)
    ]
    assert max(values) - min(values) <= 1e-6, values


def test_is_positive_keeps_the_first_descent_at_a_tie(monkeypatch):
    """where the restart scan ties the first descent's value bitwise, with another witness,
    the first descent's witness is kept and the scan's restarts still count.  Choi's map
    Phi[2, 0, 1] is neither CP nor co-CP, so it reaches the scan; the scan's value is set
    to the first descent's"""
    calls = []

    def tied(*args):
        result = block_minimize(*args)
        if calls:
            result = (calls[0][0],) + result[1:]
        calls.append(result)
        return result

    monkeypatch.setattr(maps_module, "block_minimize", tied)
    res = is_positive(cho_kye_lee(2, 0, 1), SearchParams(restarts=4, seed=0))
    (val, xi, eta, used), rest = calls
    assert not np.array_equal(rest[1], xi)
    assert res.positive and res.min_value == val
    assert np.array_equal(res.xi, xi) and np.array_equal(res.eta, eta)
    assert res.restarts_used == used + rest[3]
