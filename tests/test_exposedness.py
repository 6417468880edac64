import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import conecert
from cone_oracle import cone_evidence
from conecert import exposedness
from conecert.errors import ClassificationError
from conecert.exposedness import (
    MapCase,
    Verdict,
    _face_bound,
    certify_exposed,
    classify,
    conjugate_obstruction_space,
    face_certificate,
)
from conecert.faces import NullSpaceResult, double_prime_nullspace, membership_residual
from conecert.linalg import UNIT_ROUNDOFF, gap_rank, herm_to_params
from conecert.maps import MapRep, SearchParams, choi_from_ad, choi_from_omega_q
from conecert.serialization import report_to_dict
from structured_inputs import haar_unitary

rng = np.random.default_rng(41)


def crandn(*shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _crandn_from(gen, *shape):
    """crandn from its own generator, leaving the module stream to the older tests"""
    return gen.standard_normal(shape) + 1j * gen.standard_normal(shape)


def rand_unitary(d):
    q, r = np.linalg.qr(crandn(d, d))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_certify_identity_linear():
    for transposed in (False, True):
        report = certify_exposed(np.eye(2), transposed=transposed)
        assert report.verdict is Verdict.EXPOSED_LINEAR
        assert report.nullspace.dim == 1
        assert report.overlap_with_phi >= 1.0 - 1e-8
        assert report.face is None


def test_certify_full_rank_random():
    report = certify_exposed(crandn(3, 3))
    assert report.verdict is Verdict.EXPOSED_LINEAR
    assert report.nullspace.dim == 1


def _unit_phi(a, transposed=False):
    return choi_from_ad(a / np.linalg.norm(a), transposed=transposed)


def test_certify_rank_one_cone_evidence():
    """the exact face verdict, and the sampled cone search on its hull agrees"""
    a = np.diag([1.0, 0.0])
    report = certify_exposed(a)
    assert report.verdict is Verdict.EXPOSED_FACE
    assert report.nullspace.dim == 3
    assert report.face.defect <= report.face.bound < 1e-12
    ev = cone_evidence(
        report.nullspace, _unit_phi(a), directions_per_dim=6, max_directions=16,
        search=SearchParams(restarts=24),
    )
    assert ev.directions == 12
    assert ev.control_positive
    assert ev.misses == []
    assert ev.values.shape == (ev.directions, len(ev.epsilons))
    assert np.all(ev.values < -1e-9)


def test_certify_rank_one_transposed():
    report = certify_exposed(np.diag([1.0, 0.0]), transposed=True)
    assert report.verdict is Verdict.EXPOSED_FACE
    assert report.face.defect <= report.face.bound


@pytest.mark.parametrize("shape", [(2, 2), (3, 4), (4, 4), (1, 3), (1, 4)])
@pytest.mark.parametrize("transposed", [False, True])
def test_face_certificate_agrees_with_cone_fallback(shape, transposed):
    """rank-1 inputs get EXPOSED_FACE, and the sampled cone search violates every direction"""
    n, m = shape
    a = crandn(n, 1) @ crandn(1, m)
    report = certify_exposed(a, transposed=transposed)
    assert report.verdict is Verdict.EXPOSED_FACE
    assert report.nullspace.dim == 2 * m - 1
    assert report.face.defect <= report.face.bound
    ev = cone_evidence(report.nullspace, _unit_phi(a, transposed))
    assert ev.misses == [] and ev.control_positive


@pytest.mark.parametrize("s2", np.logspace(-12, -9, 4))
@pytest.mark.parametrize("transposed", [False, True])
def test_face_certificate_near_rank_one(s2, transposed):
    """3x3 U diag(1, s2, 0) V*: the rank-1-like hull is not refused by a bound set too tight"""
    u, v = rand_unitary(3), rand_unitary(3)
    report = certify_exposed(u @ np.diag([1.0, s2, 0.0]) @ v.conj().T, transposed=transposed)
    assert report.nullspace.dim == 5
    assert report.verdict is Verdict.EXPOSED_FACE
    assert report.face.defect <= report.face.bound


@pytest.mark.parametrize("transposed", [False, True])
def test_face_certificate_of_diag_near_rank_one(transposed):
    """diag(1, 1e-14, 0): the exact stretch of the coordinate-to-Choi map keeps the bound below 1"""
    report = certify_exposed(np.diag([1.0, 1e-14, 0.0]), transposed=transposed)
    assert report.nullspace.dim == 3
    assert report.verdict is Verdict.EXPOSED_FACE
    assert report.face.defect <= report.face.bound


def _hull_plus(ns, extra_choi):
    """ns with one more orthonormal element, the part of extra_choi outside its span.

    The spectrum keeps the first (unknowns - dim) values of ns's own and reads
    zero for the rest, so it shows a clean gap at the new dimension.
    """
    p = herm_to_params(extra_choi)
    p = p - ns.param_basis @ (ns.param_basis.T @ p)
    param_basis = np.hstack([ns.param_basis, (p / np.linalg.norm(p))[:, None]])
    dim = param_basis.shape[1]
    unknowns = ns.unknowns
    svals = np.concatenate([ns.singular_values[: unknowns - dim], np.zeros(dim)])
    return NullSpaceResult(
        singular_values=svals,
        pairs_used=ns.pairs_used,
        param_basis=param_basis,
        unknowns=unknowns,
        condition=ns.condition,
    )


def _rank_one_controls(transposed):
    """The rank-1 hull of A = u v* (2 x 3) and two larger spans that contain it.

    hull + Q (x) I has product form with the same Q, but its positive part holds
    Q (x) I as well as the ray; the other span adds an element of the hull of
    u' v*, a different Q.
    """
    u, v, u2 = crandn(2), crandn(3), crandn(2)
    a = np.outer(u, v.conj())
    phi = _unit_phi(a, transposed)
    ns = double_prime_nullspace(a / np.linalg.norm(a), transposed)
    assert ns.dim == 5
    q = np.outer(u, u.conj()) / np.vdot(u, u).real
    a2 = np.outer(u2, v.conj())
    other = double_prime_nullspace(a2 / np.linalg.norm(a2), transposed)
    return a, phi, ns, {
        "plus_q_identity": _hull_plus(ns, np.kron(q, np.eye(3))),
        "two_q": _hull_plus(ns, other.basis[0]),
    }


def test_certify_imports_no_masked_arrays():
    """certificates of every class leave numpy.ma unimported, which costs a first call 15 ms"""
    code = """
import sys
import numpy as np
import conecert
g = np.random.default_rng(0)
a = g.standard_normal((3, 3)) + 1j * g.standard_normal((3, 3))
for x in (a, a[:, :2] @ a[:2], np.outer(a[0], a[1])):
    conecert.certify_exposed(x)
assert "numpy.ma" not in sys.modules, "numpy.ma was imported"
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(conecert.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize("transposed", [False, True])
def test_face_certificate_rejects_larger_hulls(transposed, monkeypatch):
    a, phi, ns, controls = _rank_one_controls(transposed)
    exact = face_certificate(ns, phi)
    assert exact.holds
    for name, hull in controls.items():
        assert membership_residual(hull, phi)[1] < 1e-12, name
        cert = face_certificate(hull, phi)
        assert cert.defect > 0.5 and cert.defect > cert.bound, name
        assert not cert.holds
        # the same hull handed to the pipeline: refused, with the same margins
        monkeypatch.setattr(exposedness, "double_prime_nullspace", lambda *args, **kw: hull)
        report = certify_exposed(a, transposed=transposed)
        assert report.verdict is Verdict.NOT_CERTIFIED, name
        assert report.face == cert


@pytest.mark.parametrize("shape", [(1, 3), (2, 2), (2, 3), (3, 2), (3, 4)])
@pytest.mark.parametrize("transposed", [False, True])
def test_face_defect_is_the_sine_of_a_tilt(shape, transposed):
    """one rank-1 hull element tilted by theta off the face gives defect sin(theta)"""
    n, m = shape
    gen = np.random.default_rng(10 * n + m)
    u, v = _crandn_from(gen, n), _crandn_from(gen, m)
    a = np.outer(u, v.conj())
    phi = _unit_phi(a, transposed)
    ns = double_prime_nullspace(a / np.linalg.norm(a), transposed)
    face = _exact_rank_one_hull(u, v, transposed)
    # a unit element orthogonal to the face
    x = _crandn_from(gen, n * m, n * m)
    off = herm_to_params(x + x.conj().T)
    off -= face @ (face.T @ off)
    off /= np.linalg.norm(off)
    for theta in (1e-6, 1e-3, 0.3):
        basis = face.copy()
        basis[:, 0] = np.cos(theta) * face[:, 0] + np.sin(theta) * off
        tilted = NullSpaceResult(
            singular_values=ns.singular_values, pairs_used=ns.pairs_used,
            param_basis=basis, unknowns=ns.unknowns, condition=ns.condition,
        )
        defect = face_certificate(tilted, phi).defect
        assert abs(defect - np.sin(theta)) <= 1e-9 * np.sin(theta), (theta, defect)


def test_dim_one_hull_without_phi_refused(monkeypatch):
    """a 1-D hull that misses Choi(phi) fails membership: NOT_CERTIFIED, no face check"""
    gen = np.random.default_rng(11)
    a = _crandn_from(gen, 3, 3)
    phi = _unit_phi(a)
    b = _crandn_from(gen, 3, 3)
    other = double_prime_nullspace(b / np.linalg.norm(b))
    assert other.dim == 1
    resid = membership_residual(other, phi)[1]
    assert resid > _face_bound(other)
    monkeypatch.setattr(exposedness, "double_prime_nullspace", lambda *args, **kw: other)
    report = certify_exposed(a)
    assert report.verdict is Verdict.NOT_CERTIFIED
    assert report.face is None
    assert abs(report.overlap_with_phi**2 + resid**2 - 1.0) <= 1e-12


def test_overlap_and_residual_are_complementary():
    """over the grid shapes, overlap^2 + residual^2 = 1: membership alone decides the overlap"""
    gen = np.random.default_rng(12)
    for n in (2, 3, 4):
        for m in (2, 3, 4):
            for rank in range(1, min(n, m) + 1):
                a = _crandn_from(gen, n, rank) @ _crandn_from(gen, rank, m)
                for transposed in (False, True):
                    report = certify_exposed(a, transposed=transposed)
                    resid = membership_residual(report.nullspace, _unit_phi(a, transposed))[1]
                    assert abs(report.overlap_with_phi**2 + resid**2 - 1.0) <= 1e-12


def test_face_bound_needs_a_gap():
    """a spectrum with no kept value gives a bound of 1 or more, which certifies nothing"""
    a = crandn(2, 2)
    phi = _unit_phi(a)
    ns = double_prime_nullspace(a / np.linalg.norm(a))
    # the system keeps a rank, so the zeroed spectrum has no gap to read
    assert ns.unknowns > ns.dim
    flat = NullSpaceResult(
        singular_values=np.zeros(ns.singular_values.shape), pairs_used=ns.pairs_used,
        param_basis=ns.param_basis, unknowns=ns.unknowns, condition=ns.condition,
    )
    cert = face_certificate(flat, phi)
    assert cert.bound >= 1.0
    assert not cert.holds


def test_certify_scale_invariance():
    a = crandn(2, 2)
    base = certify_exposed(a)
    for c in (2.0, 1j, -3.0):
        rep = certify_exposed(c * a)
        assert rep.verdict is base.verdict
        assert rep.nullspace.dim == base.nullspace.dim
        assert abs(rep.overlap_with_phi - base.overlap_with_phi) < 1e-10


def test_certify_unitary_covariance():
    a = crandn(2, 2)
    base = certify_exposed(a)
    rep = certify_exposed(rand_unitary(2) @ a @ rand_unitary(2))
    assert rep.verdict is base.verdict
    assert rep.nullspace.dim == base.nullspace.dim


def test_certify_rejects_zero():
    report = certify_exposed(np.zeros((2, 3)))
    assert report.verdict is Verdict.INPUT_REJECTED
    assert report.nullspace.dim == 0
    assert report.overlap_with_phi == 0.0


def test_certify_deterministic_reports():
    a = np.diag([1.0, 0.0])
    d1 = report_to_dict(certify_exposed(a), include_timing=False)
    d2 = report_to_dict(certify_exposed(a), include_timing=False)
    assert d1 == d2


def test_certify_one_by_one_without_constraints():
    """1 x 1 A has one probe and no relations: the null space is the whole (1-dim) space"""
    report = certify_exposed([[2.0]])
    assert report.verdict is Verdict.EXPOSED_LINEAR
    assert report.nullspace.dim == 1
    assert report.nullspace.singular_values.shape == (0,)
    assert report.nullspace.pairs_used == 1


@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("transposed", [False, True])
def test_certify_one_dimensional_input(n, transposed):
    """m = 1: one probe, no relations, an empty spectrum read at the rounding floor"""
    a = crandn(n, 1)
    report = certify_exposed(a, transposed=transposed)
    assert report.verdict is Verdict.EXPOSED_LINEAR
    ns = report.nullspace
    assert (ns.dim, ns.unknowns, ns.pairs_used) == (1, 1, 1)
    assert ns.singular_values.shape == (0,)
    assert _face_bound(ns) < 1e-14
    assert membership_residual(ns, _unit_phi(a, transposed))[1] <= _face_bound(ns)


def _exact_rank_one_hull(u, v, transposed):
    """Orthonormal Choi-parameter basis of the face of A = u v*: Q (x) S, S vanishing on s-perp.

    Q = uu* / |u|^2, and s is conj(v) (v for the transposed map) normalised:
    S = ss*, (s w* + w s*)/sqrt2 and i(s w* - w s*)/sqrt2 for w in an
    orthonormal basis of s-perp.
    """
    q = np.outer(u, u.conj()) / np.vdot(u, u).real
    s = (v if transposed else v.conj()) / np.linalg.norm(v)
    # the Q factor's first column is s up to a phase, so the others span s-perp
    w = np.linalg.qr(np.column_stack([s, np.eye(len(s))[:, : len(s) - 1]]))[0][:, 1:]
    mats = [np.outer(s, s.conj())]
    for j in range(w.shape[1]):
        sw = np.outer(s, w[:, j].conj())
        mats += [(sw + sw.conj().T) / np.sqrt(2), 1j * (sw - sw.conj().T) / np.sqrt(2)]
    return np.array([herm_to_params(np.kron(q, mat)) for mat in mats]).T


@pytest.mark.parametrize("shape", [(1, 2), (1, 3), (1, 4), (2, 2), (3, 4)])
@pytest.mark.parametrize("transposed", [False, True])
def test_rank_one_hull_within_face_bound(shape, transposed):
    """the returned hull sits within face.bound of the closed-form hull, wide systems too"""
    n, m = shape
    u, v = crandn(n), crandn(m)
    report = certify_exposed(np.outer(u, v.conj()), transposed=transposed)
    assert report.verdict is Verdict.EXPOSED_FACE
    exact = _exact_rank_one_hull(u, v, transposed)
    assert np.abs(exact.T @ exact - np.eye(2 * m - 1)).max() < 1e-12
    got = report.nullspace.param_basis
    assert got.shape == exact.shape
    # sine of the largest principal angle between the two spans
    assert np.linalg.norm(got - exact @ (exact.T @ got), 2) <= report.face.bound


@pytest.mark.parametrize("d", [2, 3])
def test_unitary_inputs_certify(d):
    """Haar unitary A, both flags: each map is an automorphism and spans an exposed ray"""
    rng = np.random.default_rng([17, d])
    for _ in range(150):
        u = haar_unitary(rng, d)
        for transposed in (False, True):
            assert certify_exposed(u, transposed=transposed).verdict is Verdict.EXPOSED_LINEAR


def _with_smallest_singular_value(rng, n, m, rank, s2):
    """U diag(1, ..., 1, s2, 0, ...) V*: rank `rank`, its smallest singular value s2."""
    sv = np.zeros((n, m))
    sv[np.arange(rank - 1), np.arange(rank - 1)] = 1.0
    sv[rank - 1, rank - 1] = s2
    return haar_unitary(rng, n) @ sv @ haar_unitary(rng, m).conj().T


@pytest.mark.parametrize("s2", np.logspace(-12, -2, 11))
@pytest.mark.parametrize("transposed", [False, True])
def test_band_certifies(s2, transposed):
    """3x3 U diag(1, s2, 0) V*: near rank 1 at one end, rank 2 at the other, exposed throughout"""
    a = _with_smallest_singular_value(np.random.default_rng(7), 3, 3, 2, s2)
    report = certify_exposed(a, transposed=transposed)
    assert report.verdict in (Verdict.EXPOSED_LINEAR, Verdict.EXPOSED_FACE)


@pytest.mark.parametrize(
    "shape", [(3, 3, 3), (2, 2, 2), (3, 4, 3), (4, 3, 3), (4, 4, 4), (4, 4, 2), (2, 3, 2)]
)
def test_smallest_singular_value_sweep_certifies(shape):
    """s2 in logspace(-12, -2, 21), two draws, both flags: never NOT_CERTIFIED"""
    n, m, rank = shape
    rng = np.random.default_rng([7, n, m, rank])
    refused = []
    for draw in range(2):
        for s2 in np.logspace(-12, -2, 21):
            a = _with_smallest_singular_value(rng, n, m, rank, s2)
            for transposed in (False, True):
                verdict = certify_exposed(a, transposed=transposed).verdict
                if verdict not in (Verdict.EXPOSED_LINEAR, Verdict.EXPOSED_FACE):
                    refused.append((draw, s2, transposed, verdict.value))
    assert refused == []


def test_certify_draws_no_random_number(monkeypatch):
    """one input per rank class at 4 x 4, both flags, with every numpy random source disabled

    Generator methods cannot be patched (immutable type), so every way to make a
    generator or reach the global one is refused instead.
    """

    def refuse(*args, **kwargs):
        raise AssertionError("certify_exposed drew a random number")

    gen = np.random.default_rng(13)
    inputs = [_crandn_from(gen, 4, rank) @ _crandn_from(gen, rank, 4) for rank in range(1, 5)]
    for name in ("default_rng", "Generator", "SeedSequence", "RandomState",
                 "random", "rand", "randn", "standard_normal", "normal", "uniform"):
        monkeypatch.setattr(np.random, name, refuse)
    for rank, a in enumerate(inputs, start=1):
        for transposed in (False, True):
            verdict = certify_exposed(a, transposed=transposed).verdict
            assert verdict is (Verdict.EXPOSED_FACE if rank == 1 else Verdict.EXPOSED_LINEAR)


def test_obstruction_trichotomy():
    assert conjugate_obstruction_space(crandn(3, 3)).dim == 0
    assert conjugate_obstruction_space(crandn(2, 4)).dim == 0
    assert conjugate_obstruction_space(np.zeros((2, 2))).dim == 0
    assert conjugate_obstruction_space(np.diag([1.0, 0.0])).dim == 1


def test_obstruction_rank_one_basis_form():
    """for A = zeta rho* the solution line is spanned by zeta rho^T"""
    for n, m in [(2, 2), (3, 2), (2, 4)]:
        zeta, rho = crandn(n), crandn(m)
        a = np.outer(zeta, rho.conj())
        result = conjugate_obstruction_space(a)
        assert result.dim == 1
        b = result.basis[0]
        expect = np.outer(zeta, rho)
        corr = abs(np.vdot(expect, b)) / (np.linalg.norm(expect) * np.linalg.norm(b))
        assert abs(corr - 1.0) < 1e-8


def test_obstruction_probe_premise():
    """the curve rows hold <zeta_z, P rho_z> = 0, and (zeta_z, G^-1 rho_z) is the matching zero-pair of A"""
    a = crandn(3, 3)
    u, s, vh = np.linalg.svd(a)
    p = u @ vh
    g = (vh.conj().T * s) @ vh
    assert np.abs(p @ g - a).max() < 1e-12 * s[0]
    for j in range(3):
        for k in range(j + 1, 3):
            for z in (1, -1, 1j, 2):
                rho = vh[j].conj() + z * vh[k].conj()
                zeta = -np.conj(z) * u[:, j] + u[:, k]
                assert abs(np.vdot(zeta, p @ rho)) < 1e-14
                assert abs(np.vdot(zeta, a @ np.linalg.solve(g, rho))) < 1e-12


def _obstruction_rows_per_row(a, z_samples=(1, -1, 1j, 2)):
    """Reference: the obstruction system's rows, one np.outer per row, in row order."""
    n, m = a.shape
    u, s, vh = np.linalg.svd(a, full_matrices=True)
    rank = gap_rank(s, max(n, m) * UNIT_ROUNDOFF * s[0])
    rows = []
    for j in range(rank, m):
        v = vh[j].conj()
        rows += [np.outer(np.eye(n, dtype=complex)[i], v.conj()).ravel() for i in range(n)]
    for col in range(rank, n):
        rows += [np.outer(u[:, col].conj(), e).ravel() for e in np.eye(m, dtype=complex)]
    for j in range(rank):
        for k in range(j + 1, rank):
            vj, vk = vh[j].conj(), vh[k].conj()
            for z in z_samples:
                rho = vj + z * vk
                zeta = -np.conj(z) * u[:, j] + u[:, k]
                rows.append(np.outer(zeta.conj(), rho.conj()).ravel())
    return np.array(rows)


@pytest.mark.parametrize("case", ["full", "rank2", "rank1", "wide", "tall", "near_rank1"])
def test_obstruction_rows_match_per_row_reference(case, monkeypatch):
    """the broadcast row families are bit-identical to one outer product per row"""
    a = {
        "full": crandn(3, 3),
        "rank2": crandn(4, 2) @ crandn(2, 3),
        "rank1": crandn(3, 1) @ crandn(1, 4),
        "wide": crandn(2, 4),
        "tall": np.diag([1.0, 0.0, 2.0])[:, :2] @ crandn(2, 2),
        "near_rank1": np.diag([1.0, 1e-9]),
    }[case]
    seen = []

    def capture(rows):
        seen.append(rows)
        return np.zeros((rows.shape[1], 0), dtype=complex), np.zeros(0)

    monkeypatch.setattr(exposedness, "null_space", capture)
    conjugate_obstruction_space(a)
    want = _obstruction_rows_per_row(np.asarray(a, dtype=complex))
    assert len(seen) == 1 and seen[0].shape == want.shape
    assert seen[0].tobytes() == want.tobytes()


def test_obstruction_basis_solves_for_a():
    """the basis is mapped back as B = B' conj(G): on a rank-1 A with G != I, the one
    element meets the conclusion on A's own zero-pairs (xi, eta), <conj(xi), A eta> = 0"""
    gen = np.random.default_rng(12)
    a = 3.0 * np.outer(_crandn_from(gen, 3), _crandn_from(gen, 4).conj())
    # G = s_0 v v* + (I - v v*) is I only at s_0 = 1
    assert abs(np.linalg.norm(a, 2) - 1.0) > 1.0
    result = conjugate_obstruction_space(a)
    assert result.dim == 1
    b = result.basis[0]
    for _ in range(8):
        eta, xi = _crandn_from(gen, 4), _crandn_from(gen, 3)
        # xi with conj(xi) orthogonal to A eta
        out = a @ eta
        xi -= np.conj(np.vdot(out, xi.conj()) / np.vdot(out, out) * out)
        assert abs(xi @ a @ eta) < 1e-12 * np.linalg.norm(xi) * np.linalg.norm(out)
        assert abs(xi @ b @ eta.conj()) < 1e-12 * np.linalg.norm(xi) * np.linalg.norm(eta)


@pytest.mark.parametrize("shape", [None, (2, 2), (3, 3), (2, 4), (4, 2), (3, 4), (4, 4)])
def test_obstruction_dimension_follows_the_gap_rank(shape):
    """over s2 in logspace(-14, -1, 53): diag(1, s2) (shape None) or three rank-2
    draws with second singular value s2; dim is 1 exactly at gap rank 1, else 0"""
    s2s = np.logspace(-14, -1, 53)
    if shape is None:
        inputs = [np.diag([1.0, s2]) for s2 in s2s]
    else:
        gen = np.random.default_rng([11, *shape])
        inputs = [_with_smallest_singular_value(gen, *shape, 2, s2) for _ in range(3) for s2 in s2s]
    wrong = []
    for a in inputs:
        s = np.linalg.svd(a, compute_uv=False)
        rank = gap_rank(s, max(a.shape) * UNIT_ROUNDOFF * s[0])
        dim = conjugate_obstruction_space(a).dim
        if dim != (rank == 1):
            wrong.append((s[1], rank, dim))
    assert wrong == []


def test_classify_ad_round_trip():
    b = crandn(3, 2)
    phi = choi_from_ad(b)
    cl = classify(phi)
    assert cl.case is MapCase.AD
    corr = abs(np.vdot(cl.b, b)) / (np.linalg.norm(cl.b) * np.linalg.norm(b))
    assert abs(corr - 1.0) < 1e-10
    rec = cl.reconstruct()
    assert np.abs(rec.choi - phi.choi).max() < 1e-8 * np.linalg.norm(phi.choi)


def test_classify_swap_as_transposed_identity():
    phi = choi_from_ad(np.eye(2), transposed=True)
    cl = classify(phi)
    assert cl.case is MapCase.AD_TRANSPOSE
    assert np.abs(cl.b - np.eye(2)).max() < 1e-10


def test_classify_ad_transpose_round_trip():
    b = crandn(2, 3)
    phi = choi_from_ad(b, transposed=True)
    cl = classify(phi)
    assert cl.case is MapCase.AD_TRANSPOSE
    rec = cl.reconstruct()
    assert np.abs(rec.choi - phi.choi).max() < 1e-8 * np.linalg.norm(phi.choi)


def test_classify_omega_q_round_trip():
    g = crandn(3, 2)
    r = g @ g.conj().T
    zeta = crandn(4)
    phi = choi_from_omega_q(r, zeta)
    cl = classify(phi)
    assert cl.case is MapCase.OMEGA_Q
    corr = abs(np.vdot(cl.zeta, zeta)) / (np.linalg.norm(cl.zeta) * np.linalg.norm(zeta))
    assert abs(corr - 1.0) < 1e-8
    rec = cl.reconstruct()
    assert np.abs(rec.choi - phi.choi).max() < 1e-8 * np.linalg.norm(phi.choi)


def test_classify_rejects_trace_map():
    trace_map = MapRep(n=2, m=2, choi=np.kron(np.eye(2), np.eye(2)))
    with pytest.raises(ClassificationError):
        classify(trace_map)


def test_classify_omega_q_one_dimensional_output():
    """n = 1: Q = [[1]] has one eigenvalue; R has rank 2, else the map is AD"""
    r = np.array([[2.0, 0.5j], [-0.5j, 1.0]])
    phi = choi_from_omega_q(r, np.array([3j]))
    cl = classify(phi)
    assert cl.case is MapCase.OMEGA_Q
    assert np.abs(cl.zeta - 1.0).max() < 1e-12
    rec = cl.reconstruct()
    assert np.abs(rec.choi - phi.choi).max() < 1e-8 * np.linalg.norm(phi.choi)


def _classify_inputs():
    """(case, map) for AD, AD o T and OMEGA_Q at n = 1 and n = 3; at n = 1 the
    transposed map X -> a X^T a* is X -> conj(a) X conj(a)*, an AD map"""
    gen = np.random.default_rng(17)
    inputs = []
    for n, m in ((1, 3), (3, 2)):
        b = _crandn_from(gen, n, m)
        g = _crandn_from(gen, m, 2)
        inputs += [
            (MapCase.AD, choi_from_ad(b)),
            (MapCase.AD if n == 1 else MapCase.AD_TRANSPOSE, choi_from_ad(b, transposed=True)),
            (MapCase.OMEGA_Q, choi_from_omega_q(g @ g.conj().T, _crandn_from(gen, n))),
        ]
    return inputs


@pytest.mark.parametrize("scale", [1e-100, 1e-12, 1.0, 1e12, 1e100])
def test_classify_at_any_scale(scale):
    """every rank is read over the rounding floor of its own spectrum, so a scaled map
    keeps its case and reconstructs"""
    for case, phi in _classify_inputs():
        scaled = MapRep(phi.n, phi.m, scale * phi.choi)
        cl = classify(scaled)
        assert cl.case is case, (case, phi.n)
        rec = cl.reconstruct()
        assert np.abs(rec.choi - scaled.choi).max() <= 1e-8 * np.linalg.norm(scaled.choi)


def test_classify_under_hermitian_noise():
    """Hermitian noise of 1e-12 relative keeps the case; 1e-4 is a rank, not rounding,
    so no normal form fits (checked at n = 3: at n = 1 any PSD map is OMEGA_Q)"""
    gen = np.random.default_rng(18)
    for case, phi in _classify_inputs():
        x = _crandn_from(gen, phi.n * phi.m, phi.n * phi.m)
        noise = (x + x.conj().T) * (np.linalg.norm(phi.choi) / np.linalg.norm(x + x.conj().T))
        assert classify(MapRep(phi.n, phi.m, phi.choi + 1e-12 * noise)).case is case
        if phi.n > 1:
            with pytest.raises(ClassificationError):
                classify(MapRep(phi.n, phi.m, phi.choi + 1e-4 * noise))


@pytest.mark.parametrize("transposed", [False, True])
def test_face_defect_does_not_depend_on_the_basis(transposed):
    """the defect is the largest principal angle from the hull to the face, so every
    orthonormal basis of a hull reads the same: here the refused 5-dimensional hull of
    a 0/1 input under 20 random rotations"""
    a = np.array([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    report = certify_exposed(a, transposed=transposed)
    ns = report.nullspace
    assert report.verdict is Verdict.NOT_CERTIFIED and ns.dim == 5
    phi = _unit_phi(a, transposed)
    gen = np.random.default_rng(19)
    for _ in range(20):
        q = np.linalg.qr(gen.standard_normal((5, 5)))[0]
        defect = face_certificate(replace(ns, param_basis=ns.param_basis @ q), phi).defect
        assert abs(defect - report.face.defect) <= 1e-12
