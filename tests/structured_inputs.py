"""Structured inputs of the face certificate, and a digest of their verdicts.

Most sets are inputs whose exact zeros, repeated singular values or tiny
singular values put the face system on its decision boundaries; the Haar
unitaries are a generic control:

- every nonzero 0/1 matrix with n, m <= 3;
- P_r = [[I_r, 0], [0, 0]] for n, m <= 4 and every 1 <= r <= min(n, m);
- diag(1, 1, s) and diag(1, s, 0) over s in logspace(-17, -1, 33);
- u e_j* for n, m in 1..5, 10 draws each from one default_rng(0), with
  j = rng.integers(m) drawn first and then a complex Gaussian u;
- Haar unitaries of size d = 1..4, 10 each from default_rng(3).

Run from the repository root,

    python tests/structured_inputs.py > digest.txt

to print one line per input and flag: label, flag (N for X -> A X A*, T for
X -> A X^T A*), verdict and nullspace_dim, then the dimension of
`conjugate_obstruction_space(A)` and the count of
`constraint_oracle.kernel_probes(A)` for the flag, tab-separated.  The script
imports the `conecert` of the checkout it sits in, so the digests of two
checkouts can be compared with `diff`.  `tests/structured_digest.txt` is
that output, committed: `test_structured_digest_is_unchanged` compares the
checkout's digest with it, so a change that moves a verdict, a face
dimension, an obstruction dimension or a kernel-probe count must regenerate
the file on purpose.
"""

import numpy as np


def zero_one_matrices():
    """Every nonzero 0/1 matrix with n, m <= 3, as (label, A)."""
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            for bits in range(1, 2 ** (n * m)):
                a = np.array([(bits >> k) & 1 for k in range(n * m)], float).reshape(n, m)
                yield f"zero_one {n}x{m} bits={bits}", a


def projections():
    """P_r = [[I_r, 0], [0, 0]] (n x m) for n, m <= 4 and 1 <= r <= min(n, m)."""
    for n in range(1, 5):
        for m in range(1, 5):
            for r in range(1, min(n, m) + 1):
                a = np.zeros((n, m))
                a[range(r), range(r)] = 1.0
                yield f"P_r {n}x{m} r={r}", a


def diag_families():
    """diag(1, 1, s) and diag(1, s, 0) over s in logspace(-17, -1, 33)."""
    values = np.logspace(-17, -1, 33)
    for s in values:
        yield f"diag(1,1,s) s={s!r}", np.diag([1.0, 1.0, s])
    for s in values:
        yield f"diag(1,s,0) s={s!r}", np.diag([1.0, s, 0.0])


def rank_one_columns():
    """u e_j* for n, m in 1..5, 10 draws each from one default_rng(0)."""
    rng = np.random.default_rng(0)
    for n in range(1, 6):
        for m in range(1, 6):
            for draw in range(10):
                j = int(rng.integers(m))
                u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                yield f"u_ej {n}x{m} draw={draw} j={j}", np.outer(u, np.eye(m)[j])


def haar_unitary(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def haar_unitaries():
    """10 Haar unitaries of each size d = 1..4, from default_rng(3)."""
    rng = np.random.default_rng(3)
    for d in range(1, 5):
        for draw in range(10):
            yield f"haar d={d} draw={draw}", haar_unitary(rng, d)


def structured_inputs():
    """Every set above, in a fixed order, as (label, A)."""
    yield from zero_one_matrices()
    yield from projections()
    yield from diag_families()
    yield from rank_one_columns()
    yield from haar_unitaries()


def digest_lines():
    """One line per input and flag: label, N or T, verdict, nullspace_dim, obstruction, probes."""
    # imported here, so that the script can first put its own checkout's src/ on the path
    from conecert import certify_exposed, conjugate_obstruction_space
    from constraint_oracle import kernel_probes

    for label, a in structured_inputs():
        obstruction = conjugate_obstruction_space(a).dim
        for transposed in (False, True):
            report = certify_exposed(a, transposed=transposed)
            flag = "T" if transposed else "N"
            probes = len(kernel_probes(a, transposed))
            yield (
                f"{label}\t{flag}\t{report.verdict.value}\t{report.nullspace.dim}"
                f"\t{obstruction}\t{probes}"
            )


if __name__ == "__main__":
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    for line in digest_lines():
        print(line)
