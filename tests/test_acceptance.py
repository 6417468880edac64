"""Acceptance gate: one test per criterion, run with pytest -v for the
per-criterion pass/fail lines.  Derived quantities are checked against
independent in-test oracles built from plain numpy."""

import json
import time

import numpy as np

from cone_oracle import cone_evidence
from conecert.cli import main
from conecert.exposedness import (
    MapCase,
    Verdict,
    certify_exposed,
    classify,
    conjugate_obstruction_space,
)
from conecert.functionals import functional_from_operator, functional_norm, norm_maximizer
from conecert.maps import SeparableElement, choi_from_ad, choi_from_omega_q, pairing


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def rand_rank(rng, n, m, r):
    return crandn(rng, n, r) @ crandn(rng, r, m)


def test_criterion_1_certification_grid():
    """Every (n, m, rank) class certifies; full-rank square is EXPOSED_LINEAR.

    The 60 s gate holds with the pure-numpy kernel, the only one there is.
    """
    rng = np.random.default_rng(100)
    t0 = time.perf_counter()
    runs = 0
    for n in (2, 3, 4):
        for m in (2, 3, 4):
            for rank in range(1, min(n, m) + 1):
                for i in range(10):
                    a = rand_rank(rng, n, m, rank)
                    for transposed in (False, True):
                        report = certify_exposed(a, transposed=transposed)
                        runs += 1
                        assert report.verdict is not Verdict.NOT_CERTIFIED, (
                            f"(n={n}, m={m}, rank={rank}, i={i}, T={transposed})"
                        )
                        assert report.verdict is not Verdict.INPUT_REJECTED
                        if n == m and rank == n:
                            assert report.verdict is Verdict.EXPOSED_LINEAR
                            assert report.nullspace.dim == 1
                            assert report.overlap_with_phi >= 1.0 - 1e-8
    elapsed = time.perf_counter() - t0
    print(f"\ncriterion 1: {runs} runs in {elapsed:.1f} s")
    assert runs == 460
    assert elapsed < 60.0, f"{runs} runs took {elapsed:.1f} s"


def _oracle_herm_basis(d):
    basis = []
    for a in range(d):
        e = np.zeros((d, d), dtype=complex)
        e[a, a] = 1
        basis.append(e)
    for a in range(d):
        for b in range(a + 1, d):
            e = np.zeros((d, d), dtype=complex)
            e[a, b] = e[b, a] = 1 / np.sqrt(2)
            basis.append(e)
            e = np.zeros((d, d), dtype=complex)
            e[a, b] = 1j / np.sqrt(2)
            e[b, a] = -1j / np.sqrt(2)
            basis.append(e)
    return basis


def _oracle_nullspace_e11(rng):
    """Independent constraint assembly for phi = ad(e1 e1*) on 2x2.

    The zero-pairs of phi are (xi, e2) for arbitrary xi and (e2, eta) for
    arbitrary eta; each pair constrains psi(eta eta*) conj(xi) = 0, assembled
    here directly with einsum over an explicit 16-element Hermitian basis.
    """
    basis = _oracle_herm_basis(4)
    e2 = np.array([0.0, 1.0], dtype=complex)
    pairs = [(crandn(rng, 2), e2) for _ in range(6)]
    pairs += [(e2, crandn(rng, 2)) for _ in range(6)]
    rows = []
    for xi, eta in pairs:
        for i in range(2):
            vals = np.array([
                np.einsum("kjl,k,l,j->", h.reshape(2, 2, 2, 2)[i], eta, eta.conj(), xi.conj())
                for h in basis
            ])
            rows.append(vals.real)
            rows.append(vals.imag)
    r = np.array(rows)
    _, s, vh = np.linalg.svd(r)
    keep = int(np.sum(s > 1e-10 * s[0]))
    coeffs = vh[keep:]
    mats = [sum(c[k] * basis[k] for k in range(16)) for c in coeffs]
    return mats


def _real_vec(x):
    return np.concatenate([x.real.ravel(), x.imag.ravel()])


def test_criterion_2_rank_one_hull_oracle():
    """e1 e1* has a 3-dim hull matching an independent oracle and certifies
    by the exact face check; the sampled cone search, run on the same hull,
    violates every sampled direction."""
    rng = np.random.default_rng(200)
    a = np.diag([1.0, 0.0])
    report = certify_exposed(a)
    assert report.nullspace.dim == 3

    oracle = _oracle_nullspace_e11(rng)
    assert len(oracle) == 3
    q, _ = np.linalg.qr(np.stack([_real_vec(m) for m in oracle]).T)
    for b in report.nullspace.basis:
        v = _real_vec(b)
        assert np.linalg.norm(v - q @ (q.T @ v)) < 1e-8 * np.linalg.norm(v)

    assert report.verdict is Verdict.EXPOSED_FACE
    assert report.face.defect <= report.face.bound
    ev = cone_evidence(report.nullspace, choi_from_ad(a))
    assert ev.directions >= 64
    assert ev.control_positive
    assert ev.misses == []
    assert ev.values.shape == (ev.directions, len(ev.epsilons))
    assert np.all(ev.values < -1e-9)


def test_criterion_3_functional_norms():
    """functional_norm equals the vector 2-norm of vec(A); the maximizer
    attains it."""
    rng = np.random.default_rng(300)
    for n in range(1, 5):
        for m in range(1, 5):
            for _ in range(500):
                a = crandn(rng, n, m)
                f = functional_from_operator(a)
                oracle = float(np.sqrt(np.sum(np.abs(a.reshape(-1)) ** 2)))
                assert abs(functional_norm(f) - oracle) <= 1e-12 * max(1.0, oracle)
                u = norm_maximizer(f)
                assert abs(np.linalg.norm(u) - 1.0) <= 1e-12
                assert abs(abs(f.evaluate(u)) - oracle) <= 1e-10 * max(1.0, oracle)


def test_criterion_4_obstruction_trichotomy():
    """Solution dim is 0 for rank >= 2, 1 for rank 1 (with the expected
    rank-one basis), 0 for A = 0."""
    rng = np.random.default_rng(400)
    for _ in range(90):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 5))
        r = int(rng.integers(2, min(n, m) + 1))
        assert conjugate_obstruction_space(rand_rank(rng, n, m, r)).dim == 0
    for _ in range(90):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        a = rand_rank(rng, n, m, 1)
        result = conjugate_obstruction_space(a)
        assert result.dim == 1
        u, _, vh = np.linalg.svd(a)
        expect = np.outer(u[:, 0], vh[0].conj())
        b = result.basis[0]
        corr = abs(np.vdot(expect, b)) / (np.linalg.norm(expect) * np.linalg.norm(b))
        assert abs(corr - 1.0) < 1e-8
    for _ in range(20):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        assert conjugate_obstruction_space(np.zeros((n, m))).dim == 0


def test_criterion_5_classification():
    """200 instances per normal form classify correctly and reconstruct to
    1e-8 relative accuracy; zero misclassifications."""
    rng = np.random.default_rng(500)
    bad = 0
    for _ in range(200):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        phi = choi_from_ad(crandn(rng, n, m))
        cl = classify(phi)
        if cl.case is not MapCase.AD:
            bad += 1
            continue
        err = np.linalg.norm(cl.reconstruct().choi - phi.choi)
        assert err <= 1e-8 * np.linalg.norm(phi.choi)
    for _ in range(200):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 5))
        phi = choi_from_ad(crandn(rng, n, m), transposed=True)
        cl = classify(phi)
        if cl.case is not MapCase.AD_TRANSPOSE:
            bad += 1
            continue
        err = np.linalg.norm(cl.reconstruct().choi - phi.choi)
        assert err <= 1e-8 * np.linalg.norm(phi.choi)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(2, 5))
        r = int(rng.integers(2, m + 1))
        g = crandn(rng, m, r)
        phi = choi_from_omega_q(g @ g.conj().T, crandn(rng, n))
        cl = classify(phi)
        if cl.case is not MapCase.OMEGA_Q:
            bad += 1
            continue
        err = np.linalg.norm(cl.reconstruct().choi - phi.choi)
        assert err <= 1e-8 * np.linalg.norm(phi.choi)
    assert bad == 0


def test_criterion_6_duality_nonnegative():
    """Positive maps pair nonnegatively with separable PSD elements."""
    rng = np.random.default_rng(600)
    for _ in range(10_000):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        kind = int(rng.integers(3))
        if kind == 2:
            g = crandn(rng, m, int(rng.integers(1, m + 1)))
            phi = choi_from_omega_q(g @ g.conj().T, crandn(rng, n))
        else:
            a = crandn(rng, n, m)
            phi = choi_from_ad(a / np.linalg.norm(a), transposed=kind == 1)
        gx = crandn(rng, n, n)
        gy = crandn(rng, m, m)
        x = gx @ gx.conj().T
        y = gy @ gy.conj().T
        el = SeparableElement(x / np.trace(x).real, y / np.trace(y).real)
        val = pairing(phi, el)
        assert val.real >= -1e-10
        assert abs(val.imag) <= 1e-10


def test_criterion_7_pairing_paths():
    """Product and full evaluation of the pairing agree to 1e-12 at unit
    scale."""
    rng = np.random.default_rng(700)
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        a = crandn(rng, n, m)
        phi = choi_from_ad(a / np.linalg.norm(a), transposed=bool(rng.integers(2)))
        gx = crandn(rng, n, n)
        gy = crandn(rng, m, m)
        x = gx @ gx.conj().T
        y = gy @ gy.conj().T
        el = SeparableElement(x / np.linalg.norm(x), y / np.linalg.norm(y))
        assert abs(pairing(phi, el) - pairing(phi, el.tensor())) <= 1e-12


def test_criterion_8_sweep_reproducibility(tmp_path):
    """Two sweeps with the same seed into different directories produce
    byte-identical report files."""
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        code = main(["sweep", "--n", "2", "--m", "2", "--count", "2",
                     "--seed", "7", "--report", str(d), "--no-timing"])
        assert code == 0
    names = sorted(p.name for p in dirs[0].iterdir())
    assert names == sorted(p.name for p in dirs[1].iterdir())
    assert "summary.json" in names
    assert len(names) == 9
    for name in names:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
    summary = json.loads((dirs[0] / "summary.json").read_text())
    assert summary["not_certified"] == 0
