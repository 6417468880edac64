"""Seeded inputs and independent oracles for the certification benchmark.

Every input is built here in plain numpy; conecert only ever receives the
matrices.  Every oracle is computed here from the generated input (Choi
matrices, eigenvalues, the known rank of A), not from conecert's verdict
logic, so a wrong answer cannot vouch for itself.

Each workload is a list of "passes".  One pass covers the workload's whole
class mix once, with fresh random instances drawn from (seed, pass index).
"""

from dataclasses import dataclass

import numpy as np

GRID_SHAPES = tuple((n, m) for n in (2, 3, 4) for m in (2, 3, 4))
POSITIVITY_SHAPES = ((2, 2), (3, 3), (4, 4), (2, 4), (4, 2), (4, 6))
POSITIVITY_KINDS = ("cp", "ad", "ad_t", "omega_q", "planted")

OVERLAP_TOL = 1e-8  # same threshold the certificate itself must meet
PSD_TOL = 1e-12  # relative floor for the eigvalsh positivity proofs
PLANT_DELTA = 0.05  # depth of the planted negative value, Choi normalised to 1
SEARCH_TOL = 1e-9  # default SearchParams.tol: below -tol means NOT_POSITIVE
VALUE_TOL = 1e-10  # agreement of a recomputed witness value with min_value

# Fixed, seed-independent rank-2 family: 3x3 A = U diag(1, s2, 0) V*.
BAND_S2 = tuple(float(s) for s in np.logspace(-12, -2, 11))
BAND_SEED = 1103_3497

# stream tags so that workloads drawing from the same --seed stay independent
_TAGS = {"grid": 1, "scale": 2, "positivity": 3}


@dataclass(frozen=True)
class CertifyCase:
    a: np.ndarray
    transposed: bool
    rank: int
    label: str


@dataclass(frozen=True)
class PositivityCase:
    n: int
    m: int
    choi: np.ndarray
    kind: str
    label: str


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def pass_rng(workload: str, seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), _TAGS[workload], int(k)])


def grid_pass(rng) -> list[CertifyCase]:
    """One generic operator per (n, m, rank) class, certified with both flags."""
    cases = []
    for n, m in GRID_SHAPES:
        for rank in range(1, min(n, m) + 1):
            a = crandn(rng, n, rank) @ crandn(rng, rank, m)
            for transposed in (False, True):
                cases.append(CertifyCase(a, transposed, rank, f"{n}x{m}r{rank}"))
    return cases


def scale_pass(rng, k: int) -> list[CertifyCase]:
    """Full-rank square A: one 4x4 and two 5x5 per flag; a 6x6 every other pass.

    A 6x6 certificate costs about 7 times a 5x5 one.  Taking it on even
    passes only, with the flag alternating, keeps enough samples for a tail
    percentile in a short run while every size gets both flags, and the 5x5
    majority puts the median and the tail inside one size class.
    """
    cases = []
    for n, per_flag in ((4, 1), (5, 2)):
        for transposed in (False, True):
            for _ in range(per_flag):
                cases.append(CertifyCase(crandn(rng, n, n), transposed, n, f"n{n}"))
    if k % 2 == 0:
        cases.append(CertifyCase(crandn(rng, 6, 6), bool(k // 2 % 2), 6, "n6"))
    return cases


def partial_transpose(choi: np.ndarray, n: int, m: int) -> np.ndarray:
    """Partial transpose on the input (K) factor, H-major composite basis."""
    return choi.reshape(n, m, n, m).transpose(0, 3, 2, 1).reshape(n * m, n * m)


def ad_choi(a: np.ndarray, transposed: bool) -> np.ndarray:
    """Choi matrix of X -> A X A* (or A X^T A*), Frobenius normalised."""
    n, m = a.shape
    w = a.reshape(-1) / np.linalg.norm(a)
    choi = np.outer(w, w.conj())
    return partial_transpose(choi, n, m) if transposed else choi


def _unit(c: np.ndarray) -> np.ndarray:
    return c / np.linalg.norm(c)


def _herm(c: np.ndarray) -> np.ndarray:
    return 0.5 * (c + c.conj().T)


def positivity_pass(rng) -> list[PositivityCase]:
    """Per shape: a generic CP map, ad, ad o T, omega_q and a planted map."""
    cases = []
    for n, m in POSITIVITY_SHAPES:
        d = n * m
        g = crandn(rng, d, d)
        cp = _unit(_herm(g @ g.conj().T))
        a = crandn(rng, n, m)
        r = crandn(rng, m, m)
        z = crandn(rng, n)
        omega = _unit(np.kron(np.outer(z, z.conj()), (r @ r.conj().T).T))
        v = np.kron(_unit(crandn(rng, n)), _unit(crandn(rng, m)))
        depth = float(np.vdot(v, cp @ v).real) + PLANT_DELTA
        planted = _herm(cp - depth * np.outer(v, v.conj()))
        chois = (cp, ad_choi(a, False), ad_choi(a, True), omega, planted)
        for kind, choi in zip(POSITIVITY_KINDS, chois):
            cases.append(PositivityCase(n, m, choi, kind, f"{n}x{m}:{kind}"))
    return cases


def band_cases() -> list[CertifyCase]:
    """The fixed 3x3 near-rank-deficient set behind band_not_certified."""
    rng = np.random.default_rng(BAND_SEED)

    def unitary(dim):
        q, r = np.linalg.qr(crandn(rng, dim, dim))
        return q * (np.diag(r) / np.abs(np.diag(r)))

    u, v = unitary(3), unitary(3)
    cases = []
    for s2 in BAND_S2:
        a = u @ np.diag([1.0, s2, 0.0]) @ v.conj().T
        for transposed in (False, True):
            cases.append(CertifyCase(a, transposed, 2, f"s2={s2:.0e}"))
    return cases


def check_certificate(case: CertifyCase, report) -> str | None:
    """None when the report passes every oracle, else the first failure.

    The null space of a rank >= 2 map is the ray (dimension 1); for rank 1,
    A = u v*, the hull {X -> Tr(R X) uu* : R compressed to v-perp is 0} has
    dimension 2m - 1.  Choi(phi) is rebuilt here and projected onto the
    returned basis, which must be orthonormal.
    """
    verdict = report.verdict.value
    if not verdict.startswith("EXPOSED_"):
        return f"verdict {verdict}"
    if not report.overlap_with_phi >= 1.0 - OVERLAP_TOL:
        return f"reported overlap {report.overlap_with_phi!r}"
    m = case.a.shape[1]
    want = 1 if case.rank >= 2 else 2 * m - 1
    basis = report.nullspace.basis
    if report.nullspace.dim != want or len(basis) != want:
        return f"null-space dimension {report.nullspace.dim}, expected {want}"
    flat = np.array([b.reshape(-1) for b in basis])
    gram = (flat.conj() @ flat.T).real
    if not np.allclose(gram, np.eye(want), atol=1e-9):
        return "null-space basis is not orthonormal"
    choi = ad_choi(case.a, case.transposed).reshape(-1)
    overlap = float(np.linalg.norm((flat.conj() @ choi).real))
    if not abs(overlap - 1.0) <= OVERLAP_TOL:
        return f"recomputed overlap {overlap!r}"
    return None


def _is_psd(c: np.ndarray) -> bool:
    w = np.linalg.eigvalsh(_herm(c))
    return w[0] >= -PSD_TOL * max(1.0, abs(w[-1]))


def check_positivity(case: PositivityCase, result) -> str | None:
    """None when the search result passes its oracle, else the failure.

    Positive inputs are proved positive here: a PSD Choi matrix (cp, ad,
    omega_q) or a PSD partial transpose (ad o T).  A planted map must come
    back NOT_POSITIVE with a witness whose product form, recomputed in
    plain numpy, reproduces min_value.
    """
    if case.kind != "planted":
        proof = case.choi if case.kind != "ad_t" else partial_transpose(case.choi, case.n, case.m)
        if not _is_psd(proof):
            return "generator error: positivity proof failed"
        if result.verdict != "POSITIVE_EVIDENCE":
            return f"{result.verdict} on a positive map (min {result.min_value!r})"
        return None
    if result.verdict != "NOT_POSITIVE":
        return f"{result.verdict} on a planted map (min {result.min_value!r})"
    xi = np.asarray(result.xi)
    eta = np.asarray(result.eta)
    v = np.kron(xi, eta) / (np.linalg.norm(xi) * np.linalg.norm(eta))
    value = float(np.vdot(v, case.choi @ v).real)
    if not abs(value - result.min_value) <= VALUE_TOL * (1.0 + abs(value)):
        return f"witness gives {value!r}, search reported {result.min_value!r}"
    if not value < -SEARCH_TOL:
        return f"witness value {value!r} is not negative"
    return None
