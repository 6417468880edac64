import itertools
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import conecert
import constraint_oracle
from cone_oracle import cone_evidence
from constraint_oracle import (
    dense_obstruction_space,
    hermitian_params,
    kernel_probes,
    param_basis,
    params_to_herm,
)
from conecert import exposedness, faces, linalg
from conecert.errors import ClassificationError, HermiticityError
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
from conecert.linalg import UNIT_ROUNDOFF
from conecert.maps import MapRep, SearchParams, choi_from_ad, choi_from_omega_q, partial_transpose_in
from conecert.serialization import dumps_canonical, report_to_dict
from structured_inputs import digest_lines, haar_unitary, structured_inputs
from test_linalg import swap_lapack

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
    """3x3 U diag(1, s2, 0) V*: above the frame cut 3 u s_0 the class has rank 2, so rotated
    and unrotated inputs certify the ray, as diag(1, s2, 0) itself does"""
    u, v = rand_unitary(3), rand_unitary(3)
    report = certify_exposed(u @ np.diag([1.0, s2, 0.0]) @ v.conj().T, transposed=transposed)
    unrotated = certify_exposed(np.diag([1.0, s2, 0.0]), transposed=transposed)
    for r in (report, unrotated):
        assert r.nullspace.dim == 1
        assert r.verdict is Verdict.EXPOSED_LINEAR


@pytest.mark.parametrize("transposed", [False, True])
def test_face_certificate_of_diag_near_rank_one(transposed):
    """diag(1, 1e-14, 0): 1e-14 is above the frame cut, so the face is the ray"""
    report = certify_exposed(np.diag([1.0, 1e-14, 0.0]), transposed=transposed)
    assert report.nullspace.dim == 1
    assert report.verdict is Verdict.EXPOSED_LINEAR


@pytest.mark.parametrize("s2", [1e-17, 1e-16])
@pytest.mark.parametrize("transposed", [False, True])
def test_face_certificate_below_the_frame_cut(s2, transposed):
    """3x3 U diag(1, s2, 0) V* with s2 below the SVD floor 3 u s_0: the class has rank 1, and
    the hull of dimension 2m - 1 = 5 is not refused by a bound set too tight, rotated or not"""
    gen = np.random.default_rng(int(-np.log10(s2)))
    u, v = haar_unitary(gen, 3), haar_unitary(gen, 3)
    for a in (u @ np.diag([1.0, s2, 0.0]) @ v.conj().T, np.diag([1.0, s2, 0.0])):
        report = certify_exposed(a, transposed=transposed)
        assert report.nullspace.dim == 5
        assert report.verdict is Verdict.EXPOSED_FACE
        assert report.face.defect <= report.face.bound


@pytest.mark.parametrize("shape", [(2, 2), (3, 3), (4, 4), (6, 6), (8, 8), (2, 6), (6, 2), (4, 8)])
def test_band_certifies_on_both_sides_of_the_frame_cut(shape):
    """U diag(1, s, 0, ...) V* and diag(1, s, 0, ...) certify at every s in logspace(-17, -6)

    The face reads A's spectrum once, at the frame cut max(n, m) * u * s_0:
    above twice the cut the class has rank 2 and the face is the ray
    (dimension 1), below half of it the class has rank 1 (dimension
    2m - 1).  Within that factor 2 either reading certifies.
    """
    n, m = shape
    gen = np.random.default_rng([n, m])
    cut = max(n, m) * UNIT_ROUNDOFF
    for s in np.logspace(-17, -6, 45):
        d = np.zeros(shape)
        d[0, 0], d[1, 1] = 1.0, s
        want = 1 if s > 2 * cut else 2 * m - 1 if s < cut / 2 else None
        for a in (d, haar_unitary(gen, n) @ d @ haar_unitary(gen, m).conj().T):
            for transposed in (False, True):
                report = certify_exposed(a, transposed=transposed)
                assert report.verdict is not Verdict.NOT_CERTIFIED, (shape, s, transposed)
                assert want in (None, report.nullspace.dim), (shape, s, transposed)


def _explicit(ns, basis, **fields):
    """ns's class evidence with the face given as an orthonormal stack (dim, nm, nm) of Choi
    matrices: the hull as `face_certificate`, `membership_residual` and `_face_bound` read it"""
    evidence = {k: getattr(ns, k) for k in ("singular_values", "pairs_used", "unknowns", "condition")}
    return SimpleNamespace(**{**evidence, **fields}, basis=basis, dim=len(basis))


def _hull_plus(ns, extra_choi):
    """ns with one more orthonormal element, the part of extra_choi outside its span.

    The spectrum keeps the first (unknowns - dim) values of ns's own and reads
    zero for the rest, so it shows a clean gap at the new dimension.  Where
    ns is the whole null space of its system (a rank-1 system is exactly 0),
    the larger hull gets one more unknown, so its spectrum is 0 and its
    bound is the rounding level, as for ns.
    """
    basis = ns.basis
    # Re<B, X>_F per element: the elements and extra_choi are Hermitian
    x = extra_choi - np.tensordot(np.tensordot(basis.conj(), extra_choi, 2).real, basis, 1)
    basis = np.concatenate([basis, (x / np.linalg.norm(x))[None]])
    dim = basis.shape[0]
    unknowns = max(ns.unknowns, dim)
    svals = np.concatenate([ns.singular_values[: unknowns - dim], np.zeros(dim)])
    return _explicit(ns, basis, singular_values=svals, unknowns=unknowns)


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


def _fresh_peak_kib(setup: str, verdict: str, dim: int | None = None) -> int:
    """Peak RSS in KiB of a fresh process that certifies every A of `inputs`, which the code
    `setup` builds from g = default_rng(29), under both flags, each verdict starting `verdict`
    and, unless `dim` is None, each face of dimension `dim`"""
    code = f"""
import numpy as np
import conecert
g = np.random.default_rng(29)
{setup}
for a in inputs:
    for transposed in (False, True):
        report = conecert.certify_exposed(a, transposed=transposed)
        verdict = report.verdict.value
        assert verdict.startswith({verdict!r}), verdict
        assert {dim!r} is None or report.nullspace.dim == {dim!r}, report.nullspace.dim
"""
    return _fresh_rss_kib(code)


def _fresh_obstruction_peak_kib(shapes) -> int:
    """Peak RSS in KiB of a fresh process that solves the obstruction space of a draw of rank r
    at each (n, m, r) of `shapes`, from g = default_rng(29), and checks its dimension and
    spectrum length"""
    code = f"""
import numpy as np
import conecert
g = np.random.default_rng(29)
for n, m, r in {shapes!r}:
    a = (g.standard_normal((n, r)) + 1j * g.standard_normal((n, r))) @ g.standard_normal((r, m))
    result = conecert.conjugate_obstruction_space(a)
    assert result.dim == int(r == 1), (n, m, r, result.dim)
    assert result.singular_values.shape == (n * m - int(r == 1),), (n, m, r)
"""
    return _fresh_rss_kib(code)


def _fresh_rss_kib(code: str) -> int:
    """Peak RSS in KiB of a fresh python process that runs `code` with conecert importable

    The child prints VmHWM from its own /proc/self/status, its own peak
    resident set.  ru_maxrss would not do: Linux seeds it with the spawning
    process's high-water mark across exec, and after the tests of this
    module that build (nm)^2 references the pytest process peaks near
    800 MB, so the reading would depend on the order of the tests.
    """
    code += """
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(conecert.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    # VmHWM is in kB, that is KiB
    return int(run.stdout)


def test_tall_certificates_stay_small():
    """a fresh process certifies a 1024 x 3 input, a Haar isometry times a diagonal, and a rank-1
    1024 x 3 under both flags within 200 MB peak RSS: one (nm)^2 Choi matrix would take 151 MB,
    and the certificate builds nothing of that size"""
    setup = """
q = np.linalg.qr(g.standard_normal((1024, 3)) + 1j * g.standard_normal((1024, 3)))[0]
inputs = (q * [1.0, 0.5, 0.25], np.outer(q[:, 0], g.standard_normal(3)))
"""
    assert _fresh_peak_kib(setup, "EXPOSED_") < 200 * 1024


def test_wide_rank_one_certificates_stay_small():
    """a fresh process certifies rank-1 1 x 1024 and 2 x 1024 inputs EXPOSED_FACE under both
    flags within 200 MB peak RSS: the class (1024, 1) keeps no (2m - 1, m, m) hull, 32 GiB"""
    setup = """
v = g.standard_normal(1024) + 1j * g.standard_normal(1024)
inputs = [np.outer(g.standard_normal(n) + 1j * g.standard_normal(n), v) for n in (1, 2)]
"""
    assert _fresh_peak_kib(setup, "EXPOSED_FACE") < 200 * 1024


def test_full_rank_certificates_stay_small():
    """a fresh process certifies a full-rank 64 x 64 and a full-column-rank 96 x 64 input
    EXPOSED_LINEAR under both flags within 200 MB peak RSS: the class (64, 64) is written in
    closed form, so no curve frame or class system of m^2 = 4096 columns is built"""
    setup = """
inputs = [g.standard_normal((n, 64)) + 1j * g.standard_normal((n, 64)) for n in (64, 96)]
"""
    assert _fresh_peak_kib(setup, "EXPOSED_LINEAR") < 200 * 1024


def test_wide_certificates_stay_small():
    """a fresh process certifies a 3 x 64 rank-3 and a 2 x 128 rank-2 input EXPOSED_LINEAR, with
    a face of dimension 1, under both flags within 200 MB peak RSS: the classes (64, 3) and
    (128, 2) lay 988 x 375 and 1,012 x 508 literal rows (`faces._class_rows`), where relations
    built from probes and laid on all m^2 columns took 1.6 GB at (64, 3), and 6.4 GB for the
    curve array alone at (128, 2)"""
    setup = """
inputs = [g.standard_normal((n, m)) + 1j * g.standard_normal((n, m)) for n, m in ((3, 64), (2, 128))]
"""
    assert _fresh_peak_kib(setup, "EXPOSED_LINEAR", dim=1) < 200 * 1024


def test_obstruction_of_large_inputs_stays_small():
    """a fresh process solves 3 x 1024 rank 1, 1024 x 3 rank 1 and 64 x 64 rank 8 within 200 MB
    peak RSS: the dense stack would be a 3,071 x 3,072 complex matrix (151 MB) before its SVD
    at 3 x 1024, and 4,144 x 4,096 (270 MB) at 64 x 64 rank 8"""
    shapes = ((3, 1024, 1), (1024, 3, 1), (64, 64, 8))
    assert _fresh_obstruction_peak_kib(shapes) < 200 * 1024


def test_tall_certificate_builds_no_square_u():
    """a 1024 x 3 certificate pair, full rank and rank 1, allocates less than one real
    1024 x 1024 array: `faces._class_svd` reads the economy U of a tall input"""
    g = np.random.default_rng(29)
    q = np.linalg.qr(_crandn_from(g, 1024, 3))[0]
    for a in (q * [1.0, 0.5, 0.25], np.outer(q[:, 0], g.standard_normal(3))):
        exposedness._plain_certificate.cache_clear()
        tracemalloc.start()
        try:
            for transposed in (False, True):
                assert certify_exposed(a, transposed).verdict.value.startswith("EXPOSED_")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 1024 * 8, peak


def test_wide_certificate_builds_no_square_v():
    """a rank-1 3 x 1024 certificate pair and the rank-1 obstruction spaces of 3 x 1024 and
    1 x 1024, and a full-rank 3 x 128 pair, each allocate less than one real m x m array:
    `faces._class_svd` reads the economy V of a wide input, and the rank-1 hull holds v_0 alone,
    where a full V is a complex m x m array, 16 MB at m = 1024

    The full-rank pair is taken at m = 128 with its class warmed first: the
    class solve is cached per (m, f), and a cold (1024, 3) lays a
    16,348 x 6,135 system, 800 MB, whatever the certificate holds.
    """
    g = np.random.default_rng(31)
    v = _crandn_from(g, 1024)
    certify_exposed(_crandn_from(g, 3, 128))
    full, rank_one = _crandn_from(g, 3, 128), np.outer(_crandn_from(g, 3), v)
    cases = [(certify_exposed, full), (certify_exposed, rank_one)]
    cases += [(conjugate_obstruction_space, np.outer(_crandn_from(g, n), v)) for n in (3, 1)]
    for call, a in cases:
        exposedness._plain_certificate.cache_clear()
        tracemalloc.start()
        try:
            if call is certify_exposed:
                for transposed in (False, True):
                    assert call(a, transposed).verdict.value.startswith("EXPOSED_")
            else:
                assert call(a).dim == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < a.shape[1] ** 2 * 8, (call.__name__, a.shape, peak)


def _partial_transpose_hull(ns, shape):
    """ns carried through the input-side partial transpose, an involution, with an explicit basis:
    the transposed hull of a plain one, or the plain hull of a transposed one"""
    return _explicit(ns, np.array([partial_transpose_in(b, *shape) for b in ns.basis]))


def _certify_with_hull(monkeypatch, a, transposed, hull):
    """certify_exposed(a, transposed) with the factored `hull` handed to it as the plain null space.

    The certificate reads it with the svd of the normalised a, as
    `faces._plain_face` returns them.  The certificate cache is cleared
    before the run, so the hull is read, and after it, so no later call is
    handed the hull's certificate.
    """
    monkeypatch.setattr(exposedness, "_plain_face", lambda b: (hull, faces._class_svd(b)))
    exposedness._plain_certificate.cache_clear()
    try:
        return certify_exposed(a, transposed=transposed)
    finally:
        exposedness._plain_certificate.cache_clear()


@pytest.mark.parametrize("transposed", [False, True])
def test_face_certificate_rejects_larger_hulls(transposed, monkeypatch):
    """face_certificate refuses both larger spans.  The factors (u_0, v_0) hold no larger hull,
    so the pipeline is handed the rank-1 hull turned off phi's: v_0 rotated toward a unit vector
    orthogonal to it, and u_0 rotated off U[:, 0].  Each is refused under either flag;
    membership on those factors reads the reference's overlap and residual, and the face check
    at least face_certificate's defect of the same hull, to rounding"""
    a, phi, ns, controls = _rank_one_controls(transposed)
    exact = face_certificate(ns, phi)
    assert exact.holds
    for name, hull in controls.items():
        assert membership_residual(hull, phi)[1] < 1e-12, name
        cert = face_certificate(hull, phi)
        assert cert.defect > 0.5 and cert.defect > cert.bound, name
        assert not cert.holds
    unit = a / np.linalg.norm(a)
    plain, svd = faces._plain_face(unit)
    u, v = plain.factors
    assert v.shape == (3, 1)
    # a complex turn, so the reference's coefficients conj(beta_0) beta_j have both a real and
    # an imaginary part
    ortho = np.array([[1.0], [0.0], [0.0]]) - v * v[0].conj()
    turn = np.cos(0.3) * v - 1j * np.sin(0.3) * ortho / np.linalg.norm(ortho)
    off = np.array([-u[1].conj(), u[0].conj()])
    for factors in ((u, turn), (np.cos(0.3) * u + np.sin(0.3) * off, v)):
        turned = replace(plain, factors=factors)
        report = _certify_with_hull(monkeypatch, a, transposed, turned)
        assert report.verdict is Verdict.NOT_CERTIFIED
        flipped = _partial_transpose_hull(turned, a.shape) if transposed else turned
        assert report.nullspace.basis.tobytes() == flipped.basis.tobytes()
        overlap, resid, _ = faces._membership(turned, unit, svd)
        want_coeffs, want = membership_residual(turned, _unit_phi(a))
        assert abs(overlap - np.linalg.norm(want_coeffs)) <= 1e-14 and abs(resid - want) <= 1e-14
        assert resid > 0.05
        got = exposedness._factor_face_certificate(turned, unit, svd)
        want = face_certificate(turned, _unit_phi(a))
        assert want.defect > 0.1 and got.defect >= want.defect - 1e-12 and not got.holds
        assert got.bound == want.bound


@pytest.mark.parametrize("shape", [(n, m) for n in (2, 3, 4) for m in (2, 3, 4)] + [(1, 3), (3, 1)])
@pytest.mark.parametrize("transposed", [False, True])
def test_factor_face_check_agrees_with_face_certificate(shape, transposed):
    """the face check on the factors of a rank-1 hull gives face_certificate's defect and
    bound, under either flag: the plain check stands for the transposed one, as the pipeline
    reads it.  At m = 1 the hull is the ray, which the pipeline does not check, so the check
    is called directly.  A hull whose output factor is tilted off phi's agrees too"""
    n, m = shape
    gen = np.random.default_rng([n, m, 5])
    a = np.outer(_crandn_from(gen, n), _crandn_from(gen, m).conj())
    ns, svd = faces._plain_face(a / np.linalg.norm(a))
    u, v = ns.factors
    assert ns.dim == 2 * m - 1 and v.shape == (m, 1)
    got = exposedness._factor_face_certificate(ns, a / np.linalg.norm(a), svd)
    hull = _partial_transpose_hull(ns, shape) if transposed else ns
    want = face_certificate(hull, _unit_phi(a, transposed))
    assert abs(got.defect - want.defect) <= 1e-12
    assert got.bound == want.bound and got.holds
    if m > 1:
        assert certify_exposed(a, transposed=transposed).face == got
    if n > 1:
        # u tilted off phi's output factor puts weight on rho, which a rank-1 input leaves at 0
        off = _crandn_from(gen, n)
        off -= u * np.vdot(u, off)
        tilt = np.cos(0.3) * u + np.sin(0.3) * off / np.linalg.norm(off)
        tilted = replace(ns, factors=(tilt, v))
        got = exposedness._factor_face_certificate(tilted, a / np.linalg.norm(a), svd)
        want = face_certificate(_partial_transpose_hull(tilted, shape) if transposed else tilted,
                                _unit_phi(a, transposed))
        assert got.defect > 0.3 and abs(got.defect - want.defect) <= 1e-12


@pytest.mark.parametrize("shape", [(12, 12), (16, 16)])
@pytest.mark.parametrize("transposed", [False, True])
def test_large_rank_one_certificates(shape, transposed):
    """rank-1 12 x 12 and 16 x 16 certify EXPOSED_FACE with an orthonormal hull of dimension
    2m - 1 that sits within face.bound of the closed-form hull"""
    n, m = shape
    gen = np.random.default_rng([n, m, 6])
    u, v = _crandn_from(gen, n), _crandn_from(gen, m)
    report = certify_exposed(np.outer(u, v.conj()), transposed=transposed)
    assert report.verdict is Verdict.EXPOSED_FACE
    got = param_basis(report.nullspace)
    assert got.shape == ((n * m) ** 2, 2 * m - 1)
    assert np.abs(got.T @ got - np.eye(2 * m - 1)).max() < 1e-12
    assert report.face.defect <= report.face.bound < 1e-9
    exact = _exact_rank_one_hull(u, v, transposed)
    assert np.linalg.norm(got - exact @ (exact.T @ got), 2) <= report.face.bound


@pytest.mark.parametrize("transposed", [False, True])
def test_inputs_straddling_the_class_cut(transposed):
    """U diag(1, s) V* with s / s_0 just above and just below the class cut max(n, m) u = 2u
    certify under either flag: above it the class has rank 2 and the hull is the ray,
    below it rank 1 and the hull has dimension 2m - 1 = 3.  The side is read off the same
    svd of the normalised input as the class, as rounding moves a rotated s by about u"""
    gen = np.random.default_rng(18)
    cut = 2 * UNIT_ROUNDOFF
    sides = set()
    for ratio in (0.5, 0.8, 0.95, 1.05, 1.25, 2.0):
        for rotated in (False, True, True, True):
            a = np.diag([1.0, ratio * cut]).astype(complex)
            if rotated:
                a = haar_unitary(gen, 2) @ a @ haar_unitary(gen, 2).conj().T
            s = np.linalg.svd(a / np.linalg.norm(a))[1]
            above = bool(s[1] > cut * s[0])
            sides.add(above)
            report = certify_exposed(a, transposed=transposed)
            label = (ratio, rotated, s[1] / s[0])
            want = Verdict.EXPOSED_LINEAR if above else Verdict.EXPOSED_FACE
            assert report.verdict is want, label
            assert report.nullspace.dim == (1 if above else 3), label
            assert report.face is None if above else report.face.holds, label
    assert sides == {False, True}


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
    off = hermitian_params(x + x.conj().T)
    off -= face @ (face.T @ off)
    off /= np.linalg.norm(off)
    for theta in (1e-6, 1e-3, 0.3):
        basis = face.copy()
        basis[:, 0] = np.cos(theta) * face[:, 0] + np.sin(theta) * off
        defect = face_certificate(_explicit(ns, params_to_herm(basis.T, n * m)), phi).defect
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
    report = _certify_with_hull(monkeypatch, a, False, other)
    assert report.verdict is Verdict.NOT_CERTIFIED
    assert report.face is None
    assert abs(report.overlap_with_phi**2 + resid**2 - 1.0) <= 1e-12


def test_ray_of_a_cut_below_the_rank_refused(monkeypatch):
    """a 1-D face that misses Choi(phi), the ray of a class cut below the rank of a full-rank
    3 x 3 A, fails membership: NOT_CERTIFIED, no face check, and the overlap is the one the
    reference projection reads"""
    gen = np.random.default_rng(11)
    a = _crandn_from(gen, 3, 3)
    phi = _unit_phi(a)
    svd = faces._class_svd
    monkeypatch.setattr(faces, "_class_svd", lambda b: (*svd(b)[:3], 2))
    exposedness._plain_certificate.cache_clear()
    try:
        report = certify_exposed(a)
    finally:
        exposedness._plain_certificate.cache_clear()
    other = report.nullspace
    assert other.dim == 1
    resid = membership_residual(other, phi)[1]
    assert resid > _face_bound(other) and resid > 0.1
    assert report.verdict is Verdict.NOT_CERTIFIED
    assert report.face is None
    assert abs(report.overlap_with_phi**2 + resid**2 - 1.0) <= 1e-12


@pytest.mark.parametrize("transposed", [False, True])
def test_empty_hull_is_not_certified(transposed, monkeypatch):
    """a face system with no null vector certifies nothing: NOT_CERTIFIED, overlap 0"""
    a = _crandn_from(np.random.default_rng(12), 2, 3)
    empty = NullSpaceResult(singular_values=np.ones(3), pairs_used=3, unknowns=3, condition=1.0)
    report = _certify_with_hull(monkeypatch, a, transposed, empty)
    assert report.verdict is Verdict.NOT_CERTIFIED
    assert report.nullspace.dim == 0 and report.face is None
    assert report.overlap_with_phi == 0.0


@pytest.mark.parametrize("transposed", [False, True])
def test_membership_of_an_empty_face(transposed, monkeypatch):
    """an empty face, as `_plain_face` writes it where the class reads no ray or as the public
    constructor builds it, has no column of Choi parameters: `membership_residual` reads no
    coefficient and the whole residual, and `face_certificate` a defect of 1 that does not
    hold"""
    a = _crandn_from(np.random.default_rng(13), 2, 3)
    a = np.ascontiguousarray(a / np.linalg.norm(a))
    solve = faces.class_solve
    # the class (3, 2) read with null dimension 0
    monkeypatch.setattr(faces, "class_solve", lambda m, f: (*solve(m, f)[:3], 0, None))
    written = replace(faces._plain_face(a)[0], transposed=transposed)
    assert written.dim == 0 and param_basis(written).shape == (36, 0)
    bare = NullSpaceResult(np.ones(3), 3, 3, 1.0, transposed=transposed)
    for ns in (written, bare):
        coeffs, resid = membership_residual(ns, _unit_phi(a, transposed))
        assert coeffs.shape == (0,) and abs(resid - 1.0) <= 1e-15
        cert = face_certificate(ns, _unit_phi(a, transposed))
        assert cert.defect == 1.0 and not cert.holds


@pytest.mark.parametrize("dim", [0, 2])
def test_class_without_one_ray_is_not_certified(dim, monkeypatch):
    """at f >= 2 a class system whose gap reads a null dimension other than 1 gives an empty
    face, whatever the closed-form ray: NOT_CERTIFIED, overlap 0, under both flags"""
    a = _crandn_from(np.random.default_rng(13), 3, 3)
    solve = faces.class_solve
    monkeypatch.setattr(faces, "class_solve", lambda m, f: (*solve(m, f)[:3], dim, None))
    exposedness._plain_certificate.cache_clear()
    try:
        for transposed in (False, True):
            report = certify_exposed(a, transposed=transposed)
            assert report.verdict is Verdict.NOT_CERTIFIED
            assert report.nullspace.dim == 0 and report.overlap_with_phi == 0.0
    finally:
        exposedness._plain_certificate.cache_clear()


@pytest.mark.parametrize("order", [(False, True), (True, False)])
@pytest.mark.parametrize("n, m, rank", [(3, 4, 1), (3, 4, 2), (3, 4, 3), (4, 4, 4)])
def test_flag_pair_certifies_once(n, m, rank, order, monkeypatch):
    """a flag pair, in either order, solves, projects and checks the face (on its factors) once,
    and the transposed report is the plain certificate relabelled: the same verdict, face check
    and overlap, and the plain basis under the input-side partial transpose, bitwise"""
    calls = {}

    def spy(module, name):
        call = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return call(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    spy(exposedness, "_plain_face")
    spy(exposedness, "_membership")
    spy(exposedness, "face_certificate")
    spy(exposedness, "_factor_face_certificate")
    gen = np.random.default_rng(17 + 10 * rank + m)
    a = _crandn_from(gen, n, rank) @ _crandn_from(gen, rank, m)
    exposedness._plain_certificate.cache_clear()
    reports = {transposed: certify_exposed(a, transposed=transposed) for transposed in order}
    # the pipeline checks a rank-1 hull on its factors; the general face_certificate is not run
    checked = {"_factor_face_certificate": 1} if rank == 1 else {}
    assert calls == {"_plain_face": 1, "_membership": 1, **checked}
    plain, flipped = reports[False], reports[True]
    assert plain.verdict is (Verdict.EXPOSED_FACE if rank == 1 else Verdict.EXPOSED_LINEAR)
    assert flipped.verdict is plain.verdict
    assert flipped.face == plain.face
    assert flipped.overlap_with_phi == plain.overlap_with_phi
    want = np.array([partial_transpose_in(b, n, m) for b in plain.nullspace.basis])
    assert flipped.nullspace.basis.tobytes() == want.tobytes()
    for report in (plain, flipped):
        for array in (report.nullspace.singular_values, *report.nullspace.factors):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[...] = 0.0


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
    flat = replace(ns, singular_values=np.zeros(ns.singular_values.shape))
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
    return np.array([hermitian_params(np.kron(q, mat)) for mat in mats]).T


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
    got = param_basis(report.nullspace)
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


def _tall_tail(n):
    """Haar-rotated n x 3 with singular values (1, 0.5, 0.99 n u), just under the class cut"""
    gen = np.random.default_rng([23, n])
    q, r = np.linalg.qr(_crandn_from(gen, n, 3))
    # an n x 3 Haar isometry, and a 3 x 3 Haar unitary
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return q @ np.diag([1.0, 0.5, 0.99 * n * UNIT_ROUNDOFF]) @ haar_unitary(gen, 3).conj().T


@pytest.mark.parametrize("n", [64, 256, 1024])
def test_tall_tail_below_the_cut_certifies(n):
    """Haar-rotated n x 3 with singular values (1, 0.5, 0.99 n u), just under the class cut
    max(n, m) u s_0: both flags EXPOSED_LINEAR, and the membership residual is the tail's
    distance |s_t| sqrt(|s_t|^2 + 2 |s_f|^2) within 1%

    The face is the ray of A_f, the rank-2 cut of A, so the residual grows
    with n; the bound admits the largest tail the cut allows, where the
    class's Wedin ratio alone refuses n = 256 and 1024.
    """
    a = _tall_tail(n)
    plain, flipped = (certify_exposed(a, transposed=transposed) for transposed in (False, True))
    assert plain.verdict is flipped.verdict is Verdict.EXPOSED_LINEAR
    a = a / np.linalg.norm(a)
    _, s, _, f = faces._class_svd(a)
    assert f == 2
    tail = float(np.sum(s[f:] ** 2))
    want = np.sqrt(tail * (tail + 2 * float(np.sum(s[:f] ** 2))))
    resid = membership_residual(plain.nullspace, _unit_phi(a))[1]
    assert abs(resid - want) <= 0.01 * want, (resid, want)


def test_column_inputs_keep_half_their_membership_bound():
    """on n x 1 inputs, whose membership bound is the rounding level 16 u times the class's
    condition, the certificate's residual stays below half its bound: u_0 = A v_0 / s_0 leaves
    the part off the hull at the rounding of one division"""
    gen = np.random.default_rng(53)
    worst = 0.0
    for n in (1, 2, 3, 5, 8, 16, 64, 256, 1024):
        for _ in range(8):
            a = _crandn_from(gen, n, 1)
            unit = np.ascontiguousarray(a / np.linalg.norm(a))
            ns, svd = faces._plain_face(unit)
            _, resid, tail = faces._membership(ns, unit, svd)
            assert certify_exposed(a).verdict is Verdict.EXPOSED_LINEAR, n
            worst = max(worst, resid / _face_bound(ns, tail))
    assert worst < 0.5, worst


def _reference_inputs(kind):
    """The inputs the certificate is checked on against the (nm)^2 references"""
    if kind == "grid":
        gen = np.random.default_rng(37)
        shapes = [(n, m, r) for n in (2, 3, 4) for m in (2, 3, 4) for r in range(1, min(n, m) + 1)]
        return [_crandn_from(gen, n, r) @ _crandn_from(gen, r, m) for n, m, r in shapes]
    if kind == "band":
        gen = np.random.default_rng(7)
        return [_with_smallest_singular_value(gen, 3, 3, 2, s2) for s2 in np.logspace(-12, -2, 11)]
    if kind == "structured":
        return [a for _, a in structured_inputs()]
    return [_tall_tail(n) for n in (64, 256)]


@pytest.mark.parametrize("kind", ["grid", "band", "structured", "tall"])
def test_certificate_agrees_with_the_references(kind):
    """the certificate, read off A's svd and the face's factors, against the references that
    build Choi(phi) and the basis, under both flags: the overlap and the membership residual
    within 1e-14 of `membership_residual`'s, the residual under its bound, the face defect
    within 1e-12 of `face_certificate`'s, and the transposed basis within 1e-15 of the
    input-side partial transpose of the plain one"""
    for a in _reference_inputs(kind):
        n, m = a.shape
        unit = np.ascontiguousarray(a / np.linalg.norm(a), dtype=complex)
        plain, svd = faces._plain_face(unit)
        overlap, resid, tail = faces._membership(plain, unit, svd)
        want_coeffs, want = membership_residual(plain, _unit_phi(a))
        label = (kind, a.shape, plain.dim)
        assert abs(overlap - np.linalg.norm(want_coeffs)) <= 1e-14, label
        assert abs(resid - want) <= 1e-14 and resid <= _face_bound(plain, tail), label
        flipped = np.array([partial_transpose_in(b, n, m) for b in plain.basis])
        for transposed in (False, True):
            report = certify_exposed(a, transposed=transposed)
            ns, phi = report.nullspace, _unit_phi(a, transposed)
            assert report.verdict.value.startswith("EXPOSED_"), label
            want_coeffs, want = membership_residual(ns, phi)
            assert abs(report.overlap_with_phi - np.linalg.norm(want_coeffs)) <= 1e-14, label
            assert abs(resid - want) <= 1e-14, label
            if report.face is not None:
                assert abs(report.face.defect - face_certificate(ns, phi).defect) <= 1e-12, label
        assert np.abs(report.nullspace.basis - flipped).max() <= 1e-15, label


def _lapack_outputs(inputs):
    """The --no-timing reports of both flags and the obstruction space of each input, computed
    afresh: no certificate, class solve or obstruction core is read from a cache"""
    for cached in (exposedness._plain_certificate, faces.class_solve, exposedness._obstruction_core):
        cached.cache_clear()
    outputs = []
    for a in inputs:
        for transposed in (False, True):
            outputs.append(dumps_canonical(report_to_dict(certify_exposed(a, transposed), include_timing=False)))
        obs = conjugate_obstruction_space(a)
        outputs.append((obs.dim, obs.singular_values.tobytes(), [b.tobytes() for b in obs.basis]))
    return outputs


@pytest.mark.parametrize("kind", ["grid", "structured"])
def test_certificates_bitwise_with_numpy_linalg(kind, monkeypatch):
    """with every LAPACK entry point of `linalg` swapped for its np.linalg counterpart where it
    is looked up, every report of both flags and every obstruction space keeps its bits"""
    inputs = _reference_inputs(kind)
    want = _lapack_outputs(inputs)
    swap_lapack(monkeypatch)
    assert _lapack_outputs(inputs) == want


def test_certificates_add_no_table_per_choi_size():
    """256 x 3 inputs, at full rank and rank 1, certify under both flags, and the rank-1 hull's
    `basis` holds its 5 elements as 768 x 768 Choi matrices; `linalg` holds no table cached per
    size"""
    gen = np.random.default_rng(43)
    for r in (3, 1):
        a = _crandn_from(gen, 256, r) @ _crandn_from(gen, r, 3)
        for transposed in (False, True):
            report = certify_exposed(a, transposed=transposed)
            assert report.verdict.value.startswith("EXPOSED_"), (r, transposed)
    assert report.nullspace.basis.shape == (5, 768, 768)
    assert not [name for name, x in vars(linalg).items() if hasattr(x, "cache_info")]


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


def test_obstruction_stacks_each_kernel_row_once():
    """the unit rows are counted once per entry e_i (x) e_j outside the r x r core: an entry
    with i, j >= r is not counted as a kernel row and again as a left-null row

    Each of the orthonormal unit rows then has singular value 1, not sqrt 2.
    """
    for a, rows in ((np.diag([1.0, 0.0]), 3), (np.zeros((4, 4)), 16)):
        s = conjugate_obstruction_space(a).singular_values
        assert s.shape == (rows,) and np.abs(s - 1.0).max() <= 1e-15, a.shape


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


def _obstruction_rows_per_row(n, m, r, z_samples=(1, -1, 1j, 2)):
    """Reference: the class-frame obstruction rows of rank r, one np.outer per row, in order."""
    eye_n, eye_m = np.eye(n, dtype=complex), np.eye(m, dtype=complex)
    rows = []
    for j in range(r, m):
        rows += [np.outer(e, eye_m[j]).ravel() for e in eye_n]
    for i in range(r, n):
        rows += [np.outer(eye_n[i], e).ravel() for e in eye_m[:r]]
    for j in range(r):
        for k in range(j + 1, r):
            for z in z_samples:
                rho = eye_m[j] + z * eye_m[k]
                zeta = -np.conj(z) * eye_n[j] + eye_n[k]
                rows.append(np.outer(zeta.conj(), rho.conj()).ravel())
    return np.array(rows)


@pytest.mark.parametrize("case", ["full", "rank2", "rank1", "wide", "tall", "near_rank1"])
def test_obstruction_rows_match_per_row_reference(case, monkeypatch):
    """the broadcast row families of the dense oracle (`dense_obstruction_space`) are
    bit-identical to one outer product per row, built from the e_j of the class frame, and A
    and U A V* (Haar) get the same rows"""
    a, r = {
        "full": (crandn(3, 3), 3),
        "rank2": (crandn(4, 2) @ crandn(2, 3), 2),
        "rank1": (crandn(3, 1) @ crandn(1, 4), 1),
        "wide": (crandn(2, 4), 2),
        "tall": (np.diag([1.0, 0.0, 2.0])[:, :2] @ crandn(2, 2), 1),
        "near_rank1": (np.diag([1.0, 1e-9]), 2),
    }[case]
    seen = []

    def capture(rows):
        seen.append(rows)
        return np.zeros((rows.shape[1], 0), dtype=complex), np.zeros(0)

    monkeypatch.setattr(constraint_oracle, "null_space", capture)
    n, m = a.shape
    gen = np.random.default_rng([17, n, m])
    dense_obstruction_space(a)
    dense_obstruction_space(haar_unitary(gen, n) @ a @ haar_unitary(gen, m).conj().T)
    want = _obstruction_rows_per_row(n, m, r)
    assert len(seen) == 2 and seen[0].shape == want.shape
    assert seen[0].tobytes() == seen[1].tobytes() == want.tobytes()


def test_obstruction_basis_solves_for_a():
    """the basis u_0 v_0^T is A's solution, not the partial isometry's: on a rank-1 A with
    G != I, the one element meets the conclusion on A's own zero-pairs (xi, eta),
    <conj(xi), A eta> = 0"""
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


# (n, m, r): r = 0, 1 x 1, 1 x 4, 4 x 1, square, wide and tall at several ranks, and the
# sizes whose dense stack grows: 16 x 16 full rank, 24 x 24 rank 12 and 256 x 3 rank 1
_DENSE_SHAPES = [
    (3, 3, 0), (1, 1, 1), (1, 4, 1), (4, 1, 1), (2, 2, 1), (2, 2, 2), (3, 3, 3), (4, 3, 2),
    (3, 5, 3), (5, 2, 1), (2, 6, 1), (16, 16, 16), (24, 24, 12), (256, 3, 1), (3, 7, 2), (2, 4, 2),
]


@pytest.mark.parametrize("n, m, r", _DENSE_SHAPES)
def test_obstruction_matches_the_dense_solve(n, m, r):
    """the class-frame solve (unit rows counted, the r x r core cached) meets the dense stack of
    every row on all nm columns (`dense_obstruction_space`): the same dimension and spectrum
    length, the spectra within the dense stack's own floor max(rows, cols) * u * s_0, and at
    r = 1 the same line, |<dense, new>| = 1 within 1e-12"""
    gen = np.random.default_rng([23, n, m, r])
    a = _crandn_from(gen, n, r) @ _crandn_from(gen, r, m)
    dense, new = dense_obstruction_space(a), conjugate_obstruction_space(a)
    assert new.dim == dense.dim == int(r == 1)
    assert new.singular_values.shape == dense.singular_values.shape
    assert np.all(np.diff(new.singular_values) <= 0)
    if dense.singular_values.shape[0]:
        rows = n * m - r * r + 2 * r * (r - 1)
        floor = max(rows, n * m) * UNIT_ROUNDOFF * dense.singular_values[0]
        assert np.abs(new.singular_values - dense.singular_values).max() <= floor
    if r == 1:
        assert abs(abs(np.vdot(dense.basis[0], new.basis[0])) - 1.0) <= 1e-12


def _gaussian_det(rows):
    """Determinant of a square matrix of Gaussian integers (re, im), exactly, by the Leibniz sum"""
    total = (0, 0)
    for perm in itertools.permutations(range(len(rows))):
        sign = (-1) ** sum(perm[i] > perm[j] for i in range(len(perm)) for j in range(i + 1, len(perm)))
        term = (sign, 0)
        for i, j in enumerate(perm):
            (a, b), (c, d) = term, rows[i][j]
            term = (a * c - b * d, a * d + b * c)
        total = (total[0] + term[0], total[1] + term[1])
    return total


def test_obstruction_core_is_invertible():
    """each pair's 4 x 4 block, (-z, -|z|^2, 1, conj(z)) per z in `_OBSTRUCTION_Z`, has
    determinant exactly -12i over the Gaussian integers, so the core forces B' = 0 at r >= 2;
    the cached core spectrum has r^2 nonzero values at 2 <= r <= 12, and none at r <= 1"""
    block = []
    for z in exposedness._OBSTRUCTION_Z:
        re, im = int(complex(z).real), int(complex(z).imag)
        assert complex(re, im) == z
        block.append([(-re, -im), (-(re * re + im * im), 0), (1, 0), (re, -im)])
    assert _gaussian_det(block) == (0, -12)
    for r in range(13):
        s = exposedness._obstruction_core(r)
        assert not s.flags.writeable
        if r < 2:
            assert s.shape == (0,)
        else:
            assert s.shape == (r * r,) and linalg.gap_rank(s, r * r * UNIT_ROUNDOFF * s[0]) == r * r


def test_obstruction_spectrum_is_frame_invariant():
    """A and U A V* (Haar) report bitwise-equal singular_values: the rows are constants of
    (n, m, r), as `ObstructionResult` says"""
    gen = np.random.default_rng(31)
    for n, m, r in ((3, 3, 3), (4, 3, 2), (3, 5, 1), (2, 6, 2), (5, 5, 0)):
        a = _crandn_from(gen, n, r) @ _crandn_from(gen, r, m)
        rotated = haar_unitary(gen, n) @ a @ haar_unitary(gen, m).conj().T
        s, t = (conjugate_obstruction_space(x).singular_values for x in (a, rotated))
        assert s.tobytes() == t.tobytes(), (n, m, r)


@pytest.mark.parametrize("shape", [None, (2, 2), (3, 3), (2, 4), (4, 2), (3, 4), (4, 4)])
def test_obstruction_dimension_follows_the_gap_rank(shape):
    """over s2 in logspace(-14, -1, 53): diag(1, s2) (shape None) or three rank-2
    draws with second singular value s2; every input has rank 2, so dim is 0

    s2 stays far above the class cut max(n, m) * u * s_0, so the rank that
    the obstruction reads is the exact one.
    """
    s2s = np.logspace(-14, -1, 53)
    if shape is None:
        inputs = [np.diag([1.0, s2]) for s2 in s2s]
    else:
        gen = np.random.default_rng([11, *shape])
        inputs = [_with_smallest_singular_value(gen, *shape, 2, s2) for _ in range(3) for s2 in s2s]
    dims = [conjugate_obstruction_space(a).dim for a in inputs]
    assert dims == [0] * len(inputs)


@pytest.mark.parametrize("shape", [(2, 2), (3, 3), (2, 4), (4, 3), (4, 4)])
def test_face_obstruction_and_kernel_probes_read_one_class(shape):
    """U diag(1, s, 0, ...) V* and diag(1, s, 0, ...) over s in logspace(-17, -1, 33): the face,
    the obstruction space and kernel_probes read A's one class rank f

    The obstruction has dimension 1 exactly when the face hull has
    dimension 2m - 1, and kernel_probes returns the k = m - f kernel
    vectors and their k (k - 1) combinations.  Near the cut
    max(n, m) * u * s_0 the computed f of a rotated input may be either
    value, but all three read the same one.
    """
    n, m = shape
    gen = np.random.default_rng([29, n, m])
    wrong = []
    for s in np.logspace(-17, -1, 33):
        d = np.zeros(shape)
        d[0, 0], d[1, 1] = 1.0, s
        for a in (d, haar_unitary(gen, n) @ d @ haar_unitary(gen, m).conj().T):
            k = m - faces._class_svd(a)[3]
            face = double_prime_nullspace(a).dim
            obstruction = conjugate_obstruction_space(a).dim
            probes = len(kernel_probes(a))
            if (obstruction == 1) != (face == 2 * m - 1) or probes != k + k * (k - 1):
                wrong.append((s, face, obstruction, probes))
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


def test_classify_rejects_a_non_hermitian_map():
    with pytest.raises(HermiticityError):
        classify(MapRep(n=2, m=2, choi=np.triu(np.ones((4, 4)))))


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
    orthonormal basis of a hull reads the same: here the certified 5-dimensional hull of
    a rank-1 2 x 3 input and that hull plus Q (x) I, each under 20 random rotations"""
    gen = np.random.default_rng(19)
    u, v = _crandn_from(gen, 2), _crandn_from(gen, 3)
    a = np.outer(u, v.conj())
    report = certify_exposed(a, transposed=transposed)
    ns = report.nullspace
    assert report.verdict is Verdict.EXPOSED_FACE and ns.dim == 5
    phi = _unit_phi(a, transposed)
    q = np.outer(u, u.conj()) / np.vdot(u, u).real
    plus = _hull_plus(ns, np.kron(q, np.eye(3)))
    for hull, want in ((ns, report.face.defect), (plus, face_certificate(plus, phi).defect)):
        dim = hull.dim
        for _ in range(20):
            rot = np.linalg.qr(gen.standard_normal((dim, dim)))[0]
            rotated = np.tensordot(rot, hull.basis, (0, 0))
            defect = face_certificate(_explicit(hull, rotated), phi).defect
            assert abs(defect - want) <= 1e-12, dim
    assert face_certificate(plus, phi).defect > 0.5


def test_structured_digest_is_unchanged():
    """every structured input keeps the verdict and face dimension recorded in structured_digest.txt

    A change that moves one must regenerate the file on purpose, from the
    repository root: `python tests/structured_inputs.py > tests/structured_digest.txt`.
    Every structured input certifies, so the committed digest holds no
    NOT_CERTIFIED line, and a regeneration cannot pin a refusal silently.
    """
    want = (Path(__file__).parent / "structured_digest.txt").read_text().splitlines()
    refused = [line for line in want if "\tNOT_CERTIFIED\t" in line]
    assert not refused, f"{len(refused)} refusals pinned, the first: {refused[0]!r}"
    got = list(digest_lines())
    first = [f"{w!r} -> {g!r}" for w, g in zip(want, got) if w != g][:5]
    assert got == want, f"{len(got)} lines for {len(want)}; first differing: {first}"


def _sparse_kernel_inputs():
    """(label, A, rank A) of the classes whose kernel is spanned by standard basis vectors.

    P_r = [[I_r, 0], [0, 0]] and diag(d_1, ..., d_r, 0, ...) (d_j uniform in
    [0.1, 2]) for n, m <= 6 and every rank, and complex Gaussians with
    n = 2..6, m = 3..6 and 1 to m - 2 zero columns, two draws each.
    """
    gen = np.random.default_rng(23)
    for n in range(1, 7):
        for m in range(1, 7):
            for r in range(1, min(n, m) + 1):
                p, d = np.zeros((n, m)), np.zeros((n, m))
                p[range(r), range(r)] = 1.0
                d[range(r), range(r)] = gen.uniform(0.1, 2.0, r)
                yield f"P_r {n}x{m} r={r}", p, r
                yield f"diag {n}x{m} r={r}", d, r
    for n in range(2, 7):
        for m in range(3, 7):
            for zeros in range(1, m - 1):
                for _ in range(2):
                    a = _crandn_from(gen, n, m)
                    a[:, gen.choice(m, zeros, replace=False)] = 0.0
                    yield f"zero columns {n}x{m} zeros={zeros}", a, min(n, m - zeros)


def test_sparse_kernel_classes_certify_with_their_dimension():
    """P_r, diag(d_1, ..., d_r, 0, ...) and zero-column inputs certify under both flags, with
    the face dimension of their class: 1 at rank >= 2, 2m - 1 at rank 1

    Invertible E, F send the map of A to that of E A F and faces to faces of
    the same dimension, so the dimension depends only on (n, m, rank A).  In
    the standard basis the curve probes alone add no relation on a kernel
    spanned by basis vectors; in the singular basis the star probes do.
    """
    runs = 0
    for label, a, rank in _sparse_kernel_inputs():
        want = 1 if rank >= 2 else 2 * a.shape[1] - 1
        verdict = Verdict.EXPOSED_LINEAR if want == 1 else Verdict.EXPOSED_FACE
        for transposed in (False, True):
            report = certify_exposed(a, transposed=transposed)
            assert (report.verdict, report.nullspace.dim) == (verdict, want), (label, transposed)
            runs += 1
    assert runs == 564


def _frame_inputs(gen):
    """(label, A): P_r and complex Gaussians of every rank with n, m <= 5, and diag(1, s, 0)
    over s in logspace(-14, -1, 27)."""
    for n in range(1, 6):
        for m in range(1, 6):
            for r in range(1, min(n, m) + 1):
                p = np.zeros((n, m))
                p[range(r), range(r)] = 1.0
                yield f"P_r {n}x{m} r={r}", p
                yield f"gaussian {n}x{m} r={r}", _crandn_from(gen, n, r) @ _crandn_from(gen, r, m)
    for s in np.logspace(-14, -1, 27):
        yield f"diag(1,s,0) s={s!r}", np.diag([1.0, s, 0.0])


def test_verdict_does_not_depend_on_the_frame():
    """A and U A V* (Haar U, V) give the same verdict and face dimension under both flags

    Ad_U and Ad_V* carry faces onto faces, so the face of A's map is that
    of its singular values', and the solver probes in A's singular basis.
    """
    gen = np.random.default_rng(29)
    runs = 0
    for label, a in _frame_inputs(gen):
        n, m = a.shape
        rotated = haar_unitary(gen, n) @ a @ haar_unitary(gen, m).conj().T
        for transposed in (False, True):
            want, got = certify_exposed(a, transposed), certify_exposed(rotated, transposed)
            assert got.verdict is want.verdict, (label, transposed)
            assert got.nullspace.dim == want.nullspace.dim, (label, transposed)
            runs += 1
    assert runs == 274
