import numpy as np
import pytest

import constraint_oracle
from constraint_oracle import (
    PairStrategy,
    assemble_constraints,
    built_class_solve,
    built_rank_one_hull,
    class_system,
    curve_frame,
    hermitian_params,
    kernel_probes,
    map_floor,
    oracle_nullspace,
    param_basis,
    params_to_herm,
    probe_outputs,
    rebuilt_face,
    star_frame,
    zero_pairs,
)
from conecert import Verdict, certify_exposed, exposedness, faces, maps
from conecert.errors import InputRejected, ShapeError
from conecert.exposedness import FACE_SAFETY, _face_bound
from conecert.faces import double_prime_nullspace, membership_residual, system_floor
from conecert.linalg import UNIT_ROUNDOFF, gap_rank
from conecert.maps import MapRep, apply, choi_from_ad
from conecert.serialization import dumps_canonical, report_to_dict
from structured_inputs import haar_unitary, structured_inputs
from test_linalg import swap_lapack

rng = np.random.default_rng(31)


def crandn(*shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def rand_rank(n, m, r):
    return crandn(n, r) @ crandn(r, m)


def test_zero_pairs_identity_map():
    phi = choi_from_ad(np.eye(2))
    pairs = zero_pairs(phi)
    assert len(pairs) > 0
    for p in pairs:
        assert p.residual <= 1e-10
        # conj(xi) must kill eta eta*, i.e. sum_i eta_i xi_i = 0
        assert abs(np.vdot(p.eta.conj(), p.xi)) < 1e-8


def test_zero_pairs_rank_one():
    phi = choi_from_ad(np.diag([1.0, 0.0]))
    pairs = zero_pairs(phi)
    # the kernel probe eta = e2 makes phi(eta eta*) = 0, freeing xi entirely
    full_kernel = [p for p in pairs if abs(abs(p.eta[1]) - 1.0) < 1e-8]
    assert len(full_kernel) >= 2


def test_zero_pairs_satisfy_defining_equation():
    for a in [crandn(2, 3), rand_rank(3, 3, 1), crandn(3, 2)]:
        for transposed in (False, True):
            phi = choi_from_ad(a, transposed=transposed)
            pairs = zero_pairs(phi, PairStrategy(random_count=4, seed=5))
            assert pairs
            for p in pairs:
                out = apply(phi, np.outer(p.eta, p.eta.conj()))
                assert np.abs(out @ p.xi.conj()).max() < 1e-9
                assert abs(np.linalg.norm(p.xi) - 1.0) < 1e-10
                assert abs(np.linalg.norm(p.eta) - 1.0) < 1e-10


def test_kernel_probes_annihilate():
    for a in (np.diag([1.0, 1.0, 0.0]), np.array([[1, 1j, 0, 2], [0, 1, -1j, 1]])):
        for transposed in (False, True):
            phi = choi_from_ad(a, transposed=transposed)
            probes = kernel_probes(a, transposed)
            assert probes
            if transposed:
                # X -> A X^T A* sends eta eta* to the output of X -> A X A* at conj(eta)
                assert np.array_equal(probes, np.conj(kernel_probes(a)))
            for eta in probes:
                out = apply(phi, np.outer(eta, eta.conj()))
                assert np.abs(out).max() < 1e-12


def test_kernel_probes_full_rank_empty():
    a = crandn(3, 3)
    assert kernel_probes(a) == kernel_probes(a, transposed=True) == []


@pytest.mark.parametrize("s2", np.logspace(-14, -1, 53))
def test_kernel_probes_of_the_band_are_its_exact_kernel(s2):
    """3x3 U diag(1, s2, 0) V*: one probe, V e_2 (conjugated if transposed), up to phase and rounding

    The rounding of the probe is the cut's level max(n, m) u s_0 over the
    gap s2 that separates ker A from the rest of the spectrum (Wedin).  The
    Choi oracle cannot read this band: `eigh` of the input compression of
    Choi(phi) meets s2^2 below its own rounding for most of it.
    """
    g = np.random.default_rng(7)
    haar_unitary(g, 3)  # U, drawn first by _band
    v = haar_unitary(g, 3)[:, 2]
    for transposed in (False, True):
        probes = kernel_probes(_band(s2), transposed)
        assert len(probes) == 1, transposed
        want = v.conj() if transposed else v
        phase = np.vdot(want, probes[0])
        err = np.linalg.norm(probes[0] - phase / abs(phase) * want)
        assert err <= 3 * UNIT_ROUNDOFF / s2, (transposed, err)


def test_zero_operator_rejected():
    """A = 0 gives the apex map, which has no face to solve"""
    for fn in (double_prime_nullspace, kernel_probes):
        for transposed in (False, True):
            with pytest.raises(InputRejected):
                fn(np.zeros((2, 3)), transposed)


def test_assemble_constraints_shape():
    phi = choi_from_ad(np.eye(2))
    pairs = zero_pairs(phi)
    sys = assemble_constraints(pairs[:2], 2, 2)
    assert sys.rows.shape == (8, 16)
    assert sys.provenance == [0, 0, 0, 0, 1, 1, 1, 1]


def test_assemble_constraints_empty():
    sys = assemble_constraints([], 2, 3)
    assert sys.rows.shape == (0, 36)
    assert sys.row_count == 0


def test_constraint_rows_evaluate_apply():
    """row @ params(C) reproduces component i of psi(eta eta*) conj(xi)"""
    for n, m in [(2, 2), (2, 3), (3, 2)]:
        phi = choi_from_ad(crandn(n, m))
        pairs = zero_pairs(phi, PairStrategy(random_count=2, seed=9))[:3]
        assert len(pairs) == 3
        sys = assemble_constraints(pairs, n, m)
        assert sys.rows.shape == (2 * n * 3, (n * m) ** 2)
        for _ in range(5):
            g = crandn(n * m, n * m)
            c = (g + g.conj().T) / 2
            psi = MapRep(n=n, m=m, choi=c)
            p = hermitian_params(c)
            vals = sys.rows @ p
            k = 0
            for pair in pairs:
                out = apply(psi, np.outer(pair.eta, pair.eta.conj())) @ pair.xi.conj()
                for i in range(n):
                    assert abs(vals[k] - out[i].real) < 1e-12
                    assert abs(vals[k + 1] - out[i].imag) < 1e-12
                    k += 2


def test_map_satisfies_own_constraints():
    for a in [crandn(2, 2), rand_rank(3, 3, 2)]:
        phi = choi_from_ad(a)
        pairs = zero_pairs(phi)
        sys = assemble_constraints(pairs, phi.n, phi.m)
        p = hermitian_params(phi.choi)
        assert np.abs(sys.rows @ p).max() < 1e-8


def test_nullspace_full_rank_dim_one():
    for a in [crandn(2, 2), crandn(3, 3)]:
        for transposed in (False, True):
            phi = choi_from_ad(a, transposed=transposed)
            res = double_prime_nullspace(a, transposed)
            assert res.dim == 1
            _, residual = membership_residual(res, phi)
            assert residual < 1e-8


def test_nullspace_rank_one_dim():
    """rank-1 A on a 2-dim input space leaves a 3-dim null space"""
    res = double_prime_nullspace(np.diag([1.0, 0.0]))
    assert res.dim == 3
    # every basis element is Hermitian and satisfies psi(E22) = 0
    e22 = np.zeros((2, 2), dtype=complex)
    e22[1, 1] = 1
    for b in res.basis:
        assert np.abs(b - b.conj().T).max() < 1e-10
        psi = MapRep(n=2, m=2, choi=b)
        assert np.abs(apply(psi, e22)).max() < 1e-8
        # outputs on E11 stay in the 1-dim range of A
        out = apply(psi, np.eye(2) - e22)
        assert np.abs(out[1:, :]).max() < 1e-8
        assert np.abs(out[:, 1:]).max() < 1e-8


def test_nullspace_rectangular_rank_one():
    res = double_prime_nullspace(rand_rank(3, 4, 1))
    assert res.dim == 2 * 4 - 1


def test_nullspace_random_full_rank_three():
    a = crandn(3, 3)
    phi = choi_from_ad(a, transposed=True)
    res = double_prime_nullspace(a, transposed=True)
    assert res.dim == 1
    coeffs, residual = membership_residual(res, phi)
    assert residual < 1e-8
    assert abs(np.linalg.norm(coeffs) - 1.0) < 1e-8


def test_nullspace_basis_orthonormal():
    res = double_prime_nullspace(np.diag([1.0, 0.0]))
    g = np.tensordot(res.basis.conj(), res.basis, ((1, 2), (1, 2))).real
    assert np.abs(g - np.eye(res.dim)).max() < 1e-10


def test_nullspace_deterministic():
    """two solves of one input agree bitwise"""
    a = crandn(2, 3)
    r1 = double_prime_nullspace(a)
    r2 = double_prime_nullspace(a)
    assert r1.dim == r2.dim
    assert np.abs(r1.basis - r2.basis).max() == 0.0
    assert r1.pairs_used == r2.pairs_used


def test_membership_rejects_zero():
    res = double_prime_nullspace(np.eye(2))
    zero = MapRep(n=2, m=2, choi=np.zeros((4, 4)))
    with pytest.raises(ShapeError):
        membership_residual(res, zero)


def test_assemble_rejects_mismatched_pairs():
    phi = choi_from_ad(np.eye(2))
    pairs = zero_pairs(phi)
    with pytest.raises(ShapeError):
        assemble_constraints(pairs, 3, 3)


def test_nullspace_matches_constraint_oracle():
    """the probe-coordinate face equals the null space of random zero-pair rows, the paper's
    definition read literally, within the face bound"""
    classes = [(n, m, r) for n in (2, 3, 4) for m in (2, 3, 4) for r in range(1, min(n, m) + 1)]
    for n, m, r in classes + [(1, 3, 1), (3, 1, 1), (1, 1, 1)]:
        a = rand_rank(n, m, r)
        for transposed in (False, True):
            a = a / np.linalg.norm(a)
            phi = choi_from_ad(a, transposed=transposed)
            res = double_prime_nullspace(a, transposed)
            oracle = oracle_nullspace(phi, random_count=4 * m * m, seed=n + m)
            label = (n, m, r, transposed)
            assert res.dim == oracle.shape[1], label
            # sine of the largest principal angle between the two spans
            got = param_basis(res)
            sin = np.linalg.norm(got - oracle @ (oracle.T @ got), 2)
            assert sin <= _face_bound(res), label


def _spy_class_systems(monkeypatch):
    """Record every class system the oracle builds.

    The system is `constraint_oracle.class_system`'s, over the kept unknowns'
    columns, pairs eliminated at f = m.  The class cache is bypassed for the
    oracle's `built_class_solve`, which builds the system at f = 1 and f = m
    too, so every `double_prime_nullspace` call builds and records its own
    system.
    """
    seen, build = [], constraint_oracle.class_system
    monkeypatch.setattr(faces, "class_solve", built_class_solve)

    def spy(m, f):
        built = build(m, f)
        seen.append(built[2])
        return built

    monkeypatch.setattr(constraint_oracle, "class_system", spy)
    return seen


def _singular_probes(a, transposed=False):
    """The probes of the face of A, as rows, and the rank f of its class.

    V eta for the curve probes and, where 2 <= f < m, the star probes, with V
    the right singular vectors of A and f the count of singular values above
    max(n, m) * u * s_0; conjugated for X -> A X^T A*, which sends eta eta*
    to the output of X -> A X A* at conj(eta).
    """
    n, m = a.shape
    _, s, vh = np.linalg.svd(a)
    f = int(np.count_nonzero(s > max(n, m) * UNIT_ROUNDOFF * s[0]))
    etas = np.concatenate([curve_frame(m)[0], star_frame(m, f)[0]]) @ vh.conj()
    return (etas.conj() if transposed else etas), f


def test_cached_class_solves_grow_slower_than_m4():
    """at m = 16 the class solves of every f hold at most 0.2 MB together

    A class solve keeps its spectrum and, at f = 1, the hull's condition: no
    hull, lift, null vector, output column or row of its literal system.
    """
    m = 16
    solves = [faces.class_solve(m, f) for f in range(1, m + 1)]
    # the spectrum, three counts and, at f = 1 only, the hull's condition
    assert all(isinstance(x, int) for solve in solves for x in solve[1:4])
    assert all(solve[4] is None for solve in solves[1:]) and isinstance(solves[0][4], float)
    total = sum(solve[0].nbytes for solve in solves)
    assert total <= 0.2e6, total


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("m", [3, 4, 5])
def test_face_system_is_tall(n, m):
    """from m = 3 on, the system has at least as many rows as unknowns, at every rank"""
    for r in range(1, min(n, m) + 1):
        res = double_prime_nullspace(rand_rank(n, m, r))
        assert len(res.singular_values) == res.unknowns, (n, m, r)


def test_cached_class_spectra_are_read_only():
    """the cached per-class spectra refuse writes, so no caller can change the next
    certificate"""
    for f in range(1, 4):
        a = faces.class_solve(3, f)[0]
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0


def test_class_null_dimensions():
    """every class (m, f) with m <= 16 has one null vector at f >= 2 and 2m - 1 at f = 1

    So at f >= 2 the face is one ray, which `_plain_face` writes in closed
    form, and only f = 1 has a larger hull: 2m - 1 orthonormal Hermitian
    m x m matrices R_k, each compressed to e_0-perp = 0, read through
    `rank_one_hull` at v = e_0, which writes conj(R_k).
    """
    for m in range(1, 17):
        for f in range(1, m + 1):
            svals, unknowns, _, dim, condition = faces.class_solve(m, f)
            assert dim == (2 * m - 1 if f == 1 else 1), (m, f)
            assert dim == unknowns - gap_rank(svals, system_floor(svals, unknowns)), (m, f)
            assert (condition is None) == (f > 1), (m, f)
        r = faces.rank_one_hull(np.eye(m)[:, :1]).conj()
        assert r.shape == (2 * m - 1, m, m), m
        assert np.abs(r - r.conj().swapaxes(1, 2)).max() <= 1e-15, m
        gram = np.einsum("kij,lij->kl", r.conj(), r).real
        assert np.abs(gram - np.eye(2 * m - 1)).max() <= 1e-14, m
        assert np.abs(r[:, 1:, 1:]).max(initial=0.0) <= 1e-15, m


@pytest.mark.parametrize("m", range(1, 9))
def test_rank_one_class_matches_the_built_solve(m):
    """the closed-form class solve at f = 1 against the system built and solved by the oracle
    (`built_class_solve`): the spectrum, unknowns and probe count bitwise, the built system
    exactly 0.0, the span of the R_k within 1e-14 and condition within 2e-15 relative.  The
    R_k are read through `rank_one_hull` at v = e_0, which writes conj(R_k)"""
    svals, unknowns, pairs_used, dim, condition = faces.class_solve(m, 1)
    built, *counts, built_condition = built_class_solve(m, 1)
    assert svals.shape == built.shape and svals.tobytes() == built.tobytes()
    assert [unknowns, pairs_used, dim] == counts
    assert np.all(class_system(m, 1)[2] == 0.0)
    hull, built_hull = faces.rank_one_hull(np.eye(m)[:, :1]).conj(), built_rank_one_hull(m)[0]
    p, q = (hermitian_params(r).T for r in (hull, built_hull))
    assert np.abs(p @ p.T - q @ q.T).max() <= 1e-14
    assert abs(condition - built_condition) <= 2e-15 * built_condition


@pytest.mark.parametrize("m", range(1, 13))
def test_full_rank_class_matches_the_built_solve(m):
    """the closed-form class solve at f = m against the system built, pairs eliminated, and
    solved by the oracle: the spectrum within 1e-14, unknowns, probe count and null dimension
    equal, and the built system's Gram matrix m I - J, the Laplacian of K_m, within 1e-14"""
    svals, *counts = faces.class_solve(m, m)
    built, *built_counts = built_class_solve(m, m)
    assert svals.shape == built.shape and np.abs(svals - built).max(initial=0.0) <= 1e-14
    assert counts[:3] == built_counts[:3] == [m, 2 * m * m - m, 1]
    system = class_system(m, m)[2]
    assert np.abs(system.T @ system - (m * np.eye(m) - 1.0)).max() <= 1e-14


@pytest.mark.parametrize(
    "m, f", [(m, f) for m in range(3, 11) for f in range(2, m)] + [(12, 5), (16, 3), (16, 8), (16, 14)]
)
def test_class_system_matches_the_built_solve(m, f):
    """the literal class system at 2 <= f < m (`faces._class_rows`) against the system the oracle
    builds from probe vectors and solves (`built_class_solve`): unknowns, probe count and null
    dimension equal, the spectrum within 4 system_floor, and the class ray exactly in its
    kernel

    In the unknowns of the unit output columns the class map X -> Pi X Pi*
    has the coordinates x_b = |eta_b[:f]|^2: 1 on e_j, j < f, and on the pair
    probes inside f, and 1/2 on the pair probes (j, c), c >= f.  Every row
    is a multiple of sqrt2/6, 1/6 or 1/2 with entries summing to 0 against
    those coordinates, so the product is exactly 0.0, not 0 up to rounding.
    """
    svals, unknowns, pairs_used, dim, condition = faces.class_solve(m, f)
    built, *counts, _ = built_class_solve(m, f)
    assert [unknowns, pairs_used, dim] == counts and condition is None
    assert (unknowns, pairs_used, dim) == (f * f + 2 * f * (m - f), 2 * m * m - m + 4 * (f - 1) * (m - f), 1)
    assert svals.shape == built.shape
    assert np.abs(svals - built).max() <= 4 * system_floor(built, unknowns)
    rows = faces._class_rows(m, f)
    assert rows.shape == (2 * f * (f - 1) + 8 * (f - 1) * (m - f), unknowns)
    # the columns: P_j, j < f, then P_{+1}, P_{+i} of every pair (j, k) j < f of
    # np.triu_indices(m, 1)
    iu, ju = np.triu_indices(m, 1)
    ray = np.concatenate([np.ones(f), np.repeat(np.where(ju[iu < f] < f, 1.0, 0.5), 2)])
    u = curve_frame(m)[0][: m * m, :f]
    c = np.einsum("pi,pi->p", u, u.conj()).real
    assert np.abs(c[c > 0] - ray).max() <= 2 * UNIT_ROUNDOFF
    assert np.all(rows @ ray == 0.0)


def test_full_rank_certificate_builds_no_class_system(monkeypatch):
    """a cold full-rank certificate, square or tall, under both flags, lays no class system
    (`_class_rows`): its class evidence is written"""
    calls, rows = [], faces._class_rows
    monkeypatch.setattr(faces, "_class_rows", lambda m, f: calls.append((m, f)) or rows(m, f))
    g = np.random.default_rng(73)
    for n, m in ((4, 4), (6, 4), (7, 7)):
        faces.class_solve.cache_clear()
        exposedness._plain_certificate.cache_clear()
        a = g.standard_normal((n, m)) + 1j * g.standard_normal((n, m))
        for transposed in (False, True):
            assert certify_exposed(a, transposed).verdict is Verdict.EXPOSED_LINEAR, (n, m)
    assert calls == []


def test_class_is_solved_once(monkeypatch):
    """A, U A V* (Haar), another draw of its class and both flags build the class system once;
    a new (m, f) builds its own"""
    seen = []
    rows = faces._class_rows

    def spy(m, f):
        seen.append((m, f))
        return rows(m, f)

    monkeypatch.setattr(faces, "_class_rows", spy)
    faces.class_solve.cache_clear()
    # its own generator, leaving the module stream to the later tests
    g = np.random.default_rng(61)

    def draw(n, m, r):
        return (g.standard_normal((n, r)) + 1j * g.standard_normal((n, r))) @ (
            g.standard_normal((r, m)) + 1j * g.standard_normal((r, m))
        )

    a = draw(4, 5, 3)
    for b in (a, haar_unitary(g, 4) @ a @ haar_unitary(g, 5).conj().T, draw(4, 5, 3)):
        for transposed in (False, True):
            double_prime_nullspace(b, transposed)
    assert seen == [(5, 3)]
    assert faces.class_solve.cache_info().currsize == 1
    double_prime_nullspace(draw(3, 5, 2))
    double_prime_nullspace(draw(5, 4, 3))
    assert seen == [(5, 3), (5, 2), (4, 3)]
    assert faces.class_solve.cache_info().currsize == 3


def test_face_at_rank_two_and_up_is_written_not_rebuilt(monkeypatch):
    """with its class solved, a face at f >= 2 runs no eigvalsh and lays no class rows: at
    f = min(n, m) it is the unit ray of Choi(phi) itself, bitwise, and below that the ray of
    the class cut A_f = U_f S_f V_f*, with condition 1.0.  A certificate at any f, under
    either flag, builds no Choi matrix: it calls none of maps._ad_map, membership_residual,
    exposedness._face_frame and NullSpaceResult.basis, which builds the Choi matrices, nor
    eigvalsh, at f = 1 either"""
    g = np.random.default_rng(71)
    shapes = ((4, 4, 4), (3, 5, 3), (5, 3, 3), (6, 6, 3), (4, 5, 2))
    inputs = [(g.standard_normal((n, r)) + 1j) @ g.standard_normal((r, m)) for n, m, r in shapes]
    for a in inputs:
        double_prime_nullspace(a)
    calls = []
    call = faces._class_rows
    monkeypatch.setattr(faces, "_class_rows", lambda *args: calls.append("_class_rows") or call(*args))

    def spy(name, entry):
        if name != "eigvalsh":
            return entry
        return lambda *args, **kwargs: calls.append(name) or entry(*args, **kwargs)

    swap_lapack(monkeypatch, spy)
    for (n, m, r), a in zip(shapes, inputs):
        res = double_prime_nullspace(a)
        a = a / np.linalg.norm(a)
        want = choi_from_ad(a).choi
        want = want / np.linalg.norm(want.reshape(-1).view(np.float64))
        assert res.dim == 1 and res.condition == 1.0, (n, m, r)
        if r == min(n, m):
            assert res.basis[0].tobytes() == want.tobytes(), (n, m, r)
        else:
            assert np.linalg.norm(res.basis[0] - want) <= 1e-14, (n, m, r)
    assert calls == []
    built, spied = [], ((maps, "_ad_map"), (faces, "membership_residual"), (exposedness, "_face_frame"))
    calls.clear()
    for owner, name in spied:
        call = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, _c=call, _n=name: built.append(_n) or _c(*args))
    basis = faces.NullSpaceResult.basis.fget
    monkeypatch.setattr(faces.NullSpaceResult, "basis", property(lambda ns: built.append("basis") or basis(ns)))
    rank_one = [np.outer(g.standard_normal(n) + 1j, g.standard_normal(m)) for n, m in ((4, 5), (5, 1), (1, 4))]
    for a in [*inputs, *rank_one]:
        exposedness._plain_certificate.cache_clear()
        reports = [certify_exposed(a, transposed) for transposed in (False, True)]
        assert reports[0].verdict.value.startswith("EXPOSED_"), a.shape
    assert built == [] and calls == []


def test_cold_and_warm_class_solves_match():
    """on every grid class a call that solves the class and one that reads the cached solve
    return the same null space, bitwise, and the cached class solve is a fresh solve's:
    spectrum, counts and, at f = 1, the hull's condition"""
    g = np.random.default_rng(67)
    for n in (2, 3, 4):
        for m in (2, 3, 4):
            for r in range(1, min(n, m) + 1):
                a = g.standard_normal((n, r)) @ g.standard_normal((r, m))
                faces.class_solve.cache_clear()
                cold = double_prime_nullspace(a)
                warm = double_prime_nullspace(a)
                assert faces.class_solve.cache_info().hits == 1
                for field in ("singular_values", "basis"):
                    got, want = getattr(warm, field), getattr(cold, field)
                    assert got.shape == want.shape and got.tobytes() == want.tobytes(), (n, m, r)
                want = (cold.unknowns, cold.pairs_used, cold.condition)
                assert (warm.unknowns, warm.pairs_used, warm.condition) == want, (n, m, r)
                svals, *counts, condition = faces.class_solve(m, r)
                fresh, *fresh_counts, fresh_condition = faces.class_solve.__wrapped__(m, r)
                assert svals.tobytes() == fresh.tobytes() and counts == fresh_counts, (n, m, r)
                if r == 1:
                    assert condition == fresh_condition, (n, m)
                else:
                    assert condition is fresh_condition is None, (n, m, r)


def test_recomputed_certificate_matches_the_kept_one():
    """a certificate solved afresh gives the report that the kept one gave"""
    a = crandn(3, 3)
    before = certify_exposed(a, transposed=True)
    # certify afresh, not from the kept certificate of a
    exposedness._plain_certificate.cache_clear()
    after = certify_exposed(a, transposed=True)
    assert after.verdict is before.verdict
    assert np.array_equal(after.nullspace.basis, before.nullspace.basis)
    assert np.array_equal(after.nullspace.singular_values, before.nullspace.singular_values)


def test_face_system_reads_only_the_probes():
    """two draws of one class, and a rotation U A V* of the first, get one system, bitwise

    The relations are solved for the class outputs eta[:f] eta[:f]*, so the
    spectrum, the unknowns and the probe count depend on A only through
    (m, f); only the Choi rebuild and `condition` read A.
    """
    g = np.random.default_rng(59)

    def draw(n, m, r):
        return (g.standard_normal((n, r)) + 1j * g.standard_normal((n, r))) @ (
            g.standard_normal((r, m)) + 1j * g.standard_normal((r, m))
        )

    for n, m, r in ((4, 4, 4), (3, 5, 2), (5, 3, 3), (6, 6, 3), (4, 4, 1), (2, 4, 2)):
        first = draw(n, m, r)
        rotated = haar_unitary(g, n) @ first @ haar_unitary(g, m).conj().T
        want = double_prime_nullspace(first)
        for a in (draw(n, m, r), rotated):
            res = double_prime_nullspace(a)
            assert res.singular_values.tobytes() == want.singular_values.tobytes(), (n, m, r)
            assert (res.unknowns, res.pairs_used) == (want.unknowns, want.pairs_used), (n, m, r)


def _band(s2):
    g = np.random.default_rng(7)
    return haar_unitary(g, 3) @ np.diag([1.0, s2, 0.0]) @ haar_unitary(g, 3).conj().T


@pytest.mark.parametrize(
    "case",
    [*np.logspace(-4, 0, 9)]
    + [pytest.param((m, f), id=f"class-{m}-{f}") for m in range(2, 9) for f in range(2, m + 1)],
)
def test_system_floor_covers_the_maps_coordinates(case, monkeypatch):
    """phi's coordinates, the class norms c_b, meet the class system within its bound's floor:
    on 2x2 U diag(1, s2) V*, s2 = case, both flags, and on every class (m, f) = case, m <= 8,
    f >= 2

    phi itself has x_b = 1, psi(V P_b V*) = w_b w_b*, so its coordinates on
    the unit class output columns are c_b = |eta_b[:f]|^2, over the kept
    unknowns: the m diagonal probes' where f = m, every live basis probe's
    otherwise.  The projection of the own and pair outputs cancels rows of
    order 1; the floor, times the safety factor of `_face_bound`, must stay
    at the rounding of those rows.  At f >= 2 this is the class's evidence
    that its face is the ray `_plain_face` writes in closed form.
    """
    seen = _spy_class_systems(monkeypatch)
    solves = []
    if isinstance(case, tuple):
        m, f = case
        solves.append((m, f, *faces.class_solve(m, f)[:2]))
    else:
        g = np.random.default_rng(5)
        for transposed in (False, True):
            a = haar_unitary(g, 2) @ np.diag([1.0, case]) @ haar_unitary(g, 2).conj().T
            a = a / np.linalg.norm(a)
            res = double_prime_nullspace(a, transposed)
            # both singular values are above the frame cut, so the pairs are eliminated
            f = _singular_probes(a)[1]
            assert f == res.unknowns == 2
            solves.append((2, f, res.singular_values, res.unknowns))
    for (m, f, svals, unknowns), system in zip(solves, seen, strict=True):
        u = curve_frame(m)[0][: m * m, :f]
        c = np.einsum("ui,ui->u", u, u.conj()).real
        c = c[:m] if f == m else c[c > 0]
        assert c.shape == (unknowns,), (m, f)
        leak = np.linalg.norm(system @ c) / np.linalg.norm(c)
        assert leak <= FACE_SAFETY * system_floor(svals, unknowns), (m, f)


def test_eliminated_probes_hold_on_grid():
    """every hull element maps each eliminated probe into the range of phi's output there

    The eliminated probes are the solver's own, V eta for the reflected and
    star probes; the -1, -i probes of the standard basis and the kernel
    probes, which the solver does not read, are zero-pairs of phi too.
    """
    for n in (2, 3, 4):
        for m in (2, 3, 4):
            for r in range(1, min(n, m) + 1):
                a = rand_rank(n, m, r)
                for transposed in (False, True):
                    a = a / np.linalg.norm(a)
                    phi = choi_from_ad(a, transposed=transposed)
                    res = double_prime_nullspace(a, transposed)
                    own = _singular_probes(a, transposed)[0][m * m :]
                    kernel = np.array(kernel_probes(a, transposed)).reshape(-1, m)
                    etas = np.concatenate([own, curve_frame(m)[0][m * m :], kernel])
                    _, vecs, ranks = probe_outputs(phi, etas)
                    bound = _face_bound(res)
                    for b in res.basis:
                        psi = MapRep(n=n, m=m, choi=b)
                        for eta, v, rank in zip(etas, vecs, ranks):
                            out = apply(psi, np.outer(eta, eta.conj()))
                            leak = np.linalg.norm(v[:, rank:].conj().T @ out)
                            assert leak <= bound * np.linalg.norm(b), (n, m, r, transposed)


def test_rebuilt_face_matches_the_closed_form():
    """the class solve rebuilt numerically through the dual basis spans the face that
    `_plain_face` writes, within its bound, under both flags

    At f >= 2 the face is the closed-form ray of A_f, the class cut of A, and
    the rebuild (`constraint_oracle.rebuilt_face`) reads A's own outputs, so
    the two differ by the tail of A's spectrum below the cut, which the
    bound admits; at f = 1 both carry the class hull to A.  On every grid
    class, the band of `test_nullspace_matches_dense_solve_on_band` and every
    structured input.
    """
    grid = [rand_rank(n, m, r) for n in (2, 3, 4) for m in (2, 3, 4) for r in range(1, min(n, m) + 1)]
    inputs = [*grid, *(_band(s2) for s2 in np.logspace(-12, -2, 11))]
    inputs += [a for _, a in structured_inputs()]
    for a in inputs:
        a = np.ascontiguousarray(a / np.linalg.norm(a), dtype=complex)
        plain, svd = faces._plain_face(a)
        tail = faces._membership(plain, a, svd)[2]
        for transposed in (False, True):
            res = double_prime_nullspace(a, transposed)
            rebuilt = rebuilt_face(a, transposed)
            label = (a.shape, res.dim, transposed)
            got = param_basis(res)
            assert rebuilt.shape == got.shape, label
            sin = np.linalg.norm(rebuilt - got @ (got.T @ rebuilt), 2)
            assert sin <= _face_bound(res, tail) < 1.0, label


@pytest.mark.parametrize("s2", np.logspace(-12, -2, 11))
def test_nullspace_matches_dense_solve_on_band(s2):
    """3x3 U diag(1, s2, 0) V*: the face of the class, read off exact references, across the
    near-rank-1 band

    The references are exact at every s2: the zero-pair null space of the
    partial isometry U_f V_f*, whose singular values are 1 and 0 with a
    clean gap, and, where f >= 2, the ray of Choi(phi).  The zero-pair
    oracle for A itself reads its kernel off `eigh` of Choi(phi), which
    cannot resolve s2^2 where s2 is small.
    """
    for transposed in (False, True):
        a = _band(s2)
        a = a / np.linalg.norm(a)
        label = (s2, transposed)
        phi = choi_from_ad(a, transposed=transposed)
        f = _singular_probes(a)[1]
        u, _, vh = np.linalg.svd(a)
        isometry = choi_from_ad(u[:, :f] @ vh[:f], transposed=transposed)
        res = double_prime_nullspace(a, transposed)
        assert res.dim == oracle_nullspace(isometry, random_count=36, seed=6).shape[1], label
        if f >= 2:
            assert res.dim == 1, label
            assert membership_residual(res, phi)[1] <= _face_bound(res), label


def _curve_outputs(a, etas):
    """Unit columns params(w w*) / |w|^2 of the outputs w = A eta (0 at the floor), |w|^2."""
    w = etas @ a.T
    c = np.einsum("pi,pi->p", w, w.conj()).real
    live = c > map_floor(choi_from_ad(a))
    outs = np.zeros((etas.shape[0], a.shape[0] ** 2))
    outs[live] = hermitian_params(np.einsum("pi,pj->pij", w[live], w[live].conj())) / c[live, None]
    return outs, c


def _scaled_unitaries(seed):
    """Unit-norm U diag(1, ..., 1, s) V* over n = 2..5 and s in logspace(-7, 0)."""
    g = np.random.default_rng(seed)
    for n in range(2, 6):
        for s in np.logspace(-7, 0, 8):
            a = haar_unitary(g, n) @ np.diag([1.0] * (n - 1) + [s]) @ haar_unitary(g, n).conj().T
            yield a / np.linalg.norm(a)


@pytest.mark.parametrize("transposed", [False, True])
def test_back_substitution_recovers_phi(transposed):
    """at full column rank the m^2 basis coordinates of the face, pairs included, are |A eta_b|^2

    Only the m diagonal probes are solved for; the pair coordinates come
    from back-substitution.  Each coordinate is read off the returned Choi
    matrix, psi(P_b) = z_b w_b w_b* / |w_b|^2, and z must lie on the line
    through phi's, within the face bound.  The transposed flag solves the
    same system and returns its face partially transposed, so its face is
    probed here at the conjugate outputs of A X^T A*.
    """
    inputs = [crandn(n, n) for n in range(2, 7)]
    inputs = [a / np.linalg.norm(a) for a in inputs]
    inputs += [*_scaled_unitaries(43), *_scaled_unitaries(44)]
    checked = 0
    for a in inputs:
        if kernel_probes(a, transposed):
            continue  # A has a kernel (f < m), so no pair is eliminated
        n, m = a.shape
        res = double_prime_nullspace(a, transposed)
        assert (res.dim, res.unknowns) == (1, m), a
        etas = curve_frame(m)[0]
        outs, c = _curve_outputs(a, etas.conj() if transposed else etas)
        etas = etas[: m * m]
        psi = MapRep(n=n, m=m, choi=res.basis[0])
        got = hermitian_params(np.array([apply(psi, np.outer(eta, eta.conj())) for eta in etas]))
        z, c = np.einsum("bi,bi->b", got, outs[: m * m]), c[: m * m]
        sin = np.linalg.norm(z - c * (c @ z) / (c @ c)) / np.linalg.norm(z)
        assert sin <= _face_bound(res), (n, transposed)
        checked += 1
    assert checked >= 5 + 2 * 4 * 4


def _coordinate_map(a):
    """Matrix of the map from the solved coordinates to Choi parameters, one column per unknown,
    for A of rank f = 1 with m >= 2.

    The probes are V eta, in the right singular basis of A, and the
    coordinates are the class ones: z_b = c_b x_b on the output w_b w_b* of
    A, with the class norm c_b = |eta_b[0]|^2, so column b is A's output
    params(w_b w_b*) / |w_b|^2 scaled by |w_b|^2 / c_b.  Every basis probe
    with a nonzero class output is an unknown, and no pair coordinate is
    back-substituted, as f < m.  The Choi matrix
    sum_kl psi(E_kl) (x) E_kl takes psi(E_kl) from a dense solve for the
    coordinates of E_kl on the V P_b V*.
    """
    n, m = a.shape
    size = m * m
    etas, f = _singular_probes(a)
    assert f == 1 < m
    etas = etas[:size]
    u = curve_frame(m)[0][:size, :f]
    norms = np.einsum("pi,pi->p", u, u.conj()).real
    solved = np.flatnonzero(norms > 0)
    w = etas[solved] @ a.T
    outs = hermitian_params(np.einsum("pi,pj->pij", w, w.conj())) / norms[solved, None]
    proj = np.einsum("pi,pj->pij", etas, etas.conj()).reshape(size, size)
    on_basis = np.linalg.solve(proj.T, np.eye(size)).reshape(size, m, m)
    y = params_to_herm(outs, n)
    choi = np.einsum("bkl,bij->bikjl", on_basis[solved], y).reshape(-1, n * m, n * m)
    return hermitian_params(choi).T


def test_condition_bounds_the_whole_map():
    """at f = 1 condition is sigma_max of the coordinate-to-Choi map over its least stretch on
    the face; at f >= 2 nothing is lifted and condition is 1.0

    The map is built here per probe on every rank-1 grid class and on 5x5
    rank 1.  An error of the null vectors outside the face is stretched by
    the whole map, so the face bound needs this ratio, not the one on the
    null space alone.  Every other input, the grid at rank >= 2, 2x2 and
    3x3 Haar unitaries, the star classes 6x6 rank 3 and 8x8 rank 4 and the
    rotated bands U diag(1, 0.1, 0, ...) V* at 3x3 and 4x4, reads the
    closed-form ray of its class cut, with condition 1.0.  The transposed
    flag shares this face, and its condition is checked against the plain
    one in `test_transposed_face_is_the_partial_transpose`.
    """
    g = np.random.default_rng(47)
    shapes = [(n, m) for n in (2, 3, 4) for m in (2, 3, 4)]
    inputs = [rand_rank(n, m, r) for n, m in shapes for r in range(1, min(n, m) + 1)]
    inputs += [haar_unitary(g, d) for d in (2, 3) for _ in range(10)]

    def draw(n, m, r):
        return (g.standard_normal((n, r)) + 1j * g.standard_normal((n, r))) @ (
            g.standard_normal((r, m)) + 1j * g.standard_normal((r, m))
        )

    inputs += [draw(6, 6, 3), draw(8, 8, 4), draw(5, 5, 1)]
    for d in (3, 4):
        band = np.zeros(d)
        band[:2] = 1.0, 0.1
        inputs.append(haar_unitary(g, d) @ np.diag(band) @ haar_unitary(g, d).conj().T)
    rank_one = 0
    for a in inputs:
        a = a / np.linalg.norm(a)
        res = double_prime_nullspace(a)
        label = (a.shape, res.dim)
        if _singular_probes(a)[1] > 1:
            assert res.dim == 1 and res.condition == 1.0, label
            continue
        stretch = _coordinate_map(a)
        assert stretch.shape[1] == res.unknowns, label
        got = param_basis(res)
        x = np.linalg.lstsq(stretch, got, rcond=None)[0]
        assert np.linalg.norm(stretch @ x - got) <= 1e-10, label
        s = np.linalg.svd(stretch, compute_uv=False)
        least = np.linalg.svd(stretch @ np.linalg.qr(x)[0], compute_uv=False)[-1]
        assert s[0] / least == pytest.approx(res.condition, rel=1e-12), label
        rank_one += 1
    assert rank_one == len(shapes) + 1


@pytest.mark.parametrize("m", [2, 3])
def test_axis_aligned_rank_one_certifies(m):
    """A = 1_3 e_j^T: every output is an exact multiple of uu*, so every relation cancels to 0"""
    for j in range(m):
        a = np.outer(np.ones(3), np.eye(m)[j])
        for transposed in (False, True):
            report = certify_exposed(a, transposed=transposed)
            phi = choi_from_ad(a / np.linalg.norm(a), transposed=transposed)
            assert report.verdict is Verdict.EXPOSED_FACE, (m, j, transposed)
            assert report.nullspace.dim == oracle_nullspace(phi, 40).shape[1] == 2 * m - 1


def test_transposed_face_is_the_partial_transpose():
    """the face of X -> A X^T A* is the input-side partial transpose of the face of X -> A X A*

    (xi, eta) is a zero-pair of phi o T exactly when (xi, conj(eta)) is one
    of phi, and psi -> psi o T is a linear automorphism of the cone of
    positive maps, so it carries the one face onto the other.  Both flags
    read the same solve: on every structured input they must give the same
    verdict, counts, spectrum and condition, bitwise, a transposed basis
    that is the input-side partial transpose of the plain one, bitwise, and
    the same face defect to 1e-15.
    """
    for label, a in structured_inputs():
        plain, flipped = certify_exposed(a), certify_exposed(a, transposed=True)
        p, t = plain.nullspace, flipped.nullspace
        assert flipped.verdict is plain.verdict, label
        assert (t.dim, t.unknowns, t.pairs_used) == (p.dim, p.unknowns, p.pairs_used), label
        assert np.array_equal(t.singular_values, p.singular_values), label
        assert t.condition == p.condition, label
        if p.dim:
            n, m = a.shape
            # (i, k, j, l) -> (i, l, j, k), written out here, not read from linalg
            want = np.array([b.reshape(n, m, n, m).transpose(0, 3, 2, 1).reshape(n * m, n * m)
                             for b in p.basis])
            assert t.basis.tobytes() == want.tobytes(), label
        assert (flipped.face is None) == (plain.face is None), label
        if plain.face is not None:
            assert abs(flipped.face.defect - plain.face.defect) <= 1e-15, label
            assert flipped.face.bound == plain.face.bound, label


def test_flag_pair_builds_one_system(monkeypatch):
    """both flags on one A certify once; a different A, or the same A after another, certifies
    again, and double_prime_nullspace, past the class cache, solves on every call"""
    seen = _spy_class_systems(monkeypatch)
    exposedness._plain_certificate.cache_clear()
    a, b = rand_rank(3, 4, 2), rand_rank(3, 4, 2)
    certify_exposed(a)
    certify_exposed(a, True)
    assert len(seen) == 1
    certify_exposed(b, True)
    certify_exposed(b)
    assert len(seen) == 2
    certify_exposed(a, True)
    assert len(seen) == 3
    # the key is the checked, normalized matrix: a copy, the same entries as a list, or
    # a power-of-two multiple (normalized to the same bits), hits
    certify_exposed(a.copy())
    certify_exposed(a.tolist(), True)
    certify_exposed(2.0 * a)
    assert len(seen) == 3
    assert exposedness._plain_certificate.cache_info().maxsize == 1
    double_prime_nullspace(a)
    double_prime_nullspace(a, True)
    assert len(seen) == 5


def test_cold_and_warm_transposed_reports_match():
    """a transposed report is the same, byte for byte, whether its certificate was kept or not"""
    for a in (crandn(3, 3), rand_rank(4, 4, 2), rand_rank(3, 4, 1), np.diag([1.0, 1.0, 0.0])):
        exposedness._plain_certificate.cache_clear()
        cold = certify_exposed(a, transposed=True)
        certify_exposed(a)
        warm = certify_exposed(a, transposed=True)
        assert exposedness._plain_certificate.cache_info().hits >= 1
        reports = (dumps_canonical(report_to_dict(r, include_timing=False)) for r in (cold, warm))
        assert len(set(reports)) == 1, a
        assert cold.nullspace.basis.tobytes() == warm.nullspace.basis.tobytes()


def test_cached_face_is_shared_read_only():
    """the kept certificate's arrays, its spectrum and the face's factors, refuse writes, and a
    field reassigned on one report's null space leaves the next report alone"""
    a = rand_rank(3, 3, 1)
    exposedness._plain_certificate.cache_clear()
    first = certify_exposed(a)
    for transposed in (False, True):
        res = certify_exposed(a, transposed).nullspace
        assert res is not first.nullspace
        for array in (res.singular_values, *res.factors):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[...] = 0.0
    assert exposedness._plain_certificate.cache_info().hits == 2
    want = first.nullspace.basis
    first.nullspace.factors = ()
    first.nullspace.condition, first.nullspace.unknowns = -1.0, -1
    again = certify_exposed(a).nullspace
    assert np.array_equal(again.basis, want) and again.condition > 0 and again.unknowns > 0
    report = certify_exposed(a, True)
    report.nullspace.singular_values = np.zeros(0)
    assert certify_exposed(a).nullspace.singular_values.shape[0] > 0
    assert exposedness._plain_certificate.cache_info().hits == 5
