"""The block-positivity kernel, in pure numpy.

The only kernel is the alternating minimization of the block form
<xi (x) eta, C (xi (x) eta)> over unit vectors of one map.  It is the
search of a map that is not CP; a map proved CP by its Choi spectrum runs it
for a single iteration, only to give a witness pair.

The caller hands over C already Hermitized and checked (`maps.is_positive`
does both once per map), with its norm |C|_F.  Each call lays C out as the
tensor g[i, j, k, l] = C[(i, k), (j, l)].  A half-step is then one matrix
product of the stacked outer products conj(eta) eta^T (or conj(xi) xi^T)
with g read as (kl, ij) (or as (ij, kl)), and one stacked `linalg._eigh`,
which reads one triangle, so no half-step Hermitizes its matrix.  A descent
stops once its value moves by at most CONV_TOL * (|C|_F + |value|), a
change relative to the map, so s * C takes the iterations of C at every
scale s > 0 (up to rounding).  The descents are dominated by numpy call
overhead, not by arithmetic, so each enters `linalg._lapack_errors` once,
not per half-step, and `_eigh` skips `np.linalg.eigh`'s wrapper.

`block_minimize` scans the map's restarts in order and stops at the first one
whose value dips below `stop_below`.  To spend call overhead on many
descents at once, the restarts are descended in waves: wave k takes the
next WAVE_GROWTH**k starts (1, 8, 64, ...), capped at MAX_ROWS, all in one
stacked descent.  Each wave's values are scanned in restart order, as one
Python list, so a start after the exit start of its wave counts neither in
the restarts used nor in the best value.  The result is deterministic for a
fixed start array, and that of a sequential scan up to rounding: a stacked
matrix product can round a row differently in a stack of another height,
so other waves can move the best value in its last bits (about 6e-16 on
the Cho-Kye-Lee map Phi[2, 0.2, 1]).
"""

import numpy as np

from .linalg import _eigh, _lapack_errors

# rows descended per stacked call; bounds the stacked arrays and the work a
# wave can spend past the exit start
MAX_ROWS = 256
# width ratio of successive waves; the first wave is one start, so a map that
# exits on its first start costs a single descent
WAVE_GROWTH = 8
# a descent stops once its value moves by at most CONV_TOL * (|C|_F + |value|)
CONV_TOL = 1e-13


@_lapack_errors
def _descend_batch(g, eta, max_iters, scale):
    """Alternating descent of one map from a stack of starts, one per row.

    g is the Hermitized Choi tensor with indices (i, j, k, l), and scale is
    |C|_F.  Rows whose value has converged are written out and dropped, so
    each row stops after exactly the iterations its own descent would take.
    The convergence test runs on Python floats, one per live row: for the
    usual single row that costs less than ufuncs on a length-1 array, and
    it is the same IEEE double arithmetic.
    """
    n, m = g.shape[1:3]
    g_ij_kl = g.reshape(n * n, m * m)
    g_kl_ij = g_ij_kl.T
    # np.linalg.norm(eta, axis=1, keepdims=True) without its wrapper
    eta = eta / np.sqrt(np.add.reduce((eta.conj() * eta).real, axis=1, keepdims=True))
    count = eta.shape[0]
    val = np.empty(count)
    xi_out = np.empty((count, n), dtype=np.complex128)
    eta_out = np.empty((count, m), dtype=np.complex128)
    prev = [np.inf] * count
    rows = list(range(count))
    for _ in range(max_iters):
        b = len(rows)
        outer = (eta.conj()[:, :, None] * eta[:, None, :]).reshape(b, m * m)
        xi = _eigh((outer @ g_kl_ij).reshape(b, n, n))[1][:, :, 0]
        outer = (xi.conj()[:, :, None] * xi[:, None, :]).reshape(b, n * n)
        w, v = _eigh((outer @ g_ij_kl).reshape(b, m, m))
        eta, cur = v[:, :, 0], w[:, 0].tolist()
        moving = [abs(p - c) > CONV_TOL * (scale + abs(c)) for p, c in zip(prev, cur)]
        if not all(moving):
            for r, row in enumerate(rows):
                if not moving[r]:
                    val[row], xi_out[row], eta_out[row] = cur[r], xi[r], eta[r]
            keep = [r for r in range(b) if moving[r]]
            if not keep:
                return val, xi_out, eta_out
            rows, cur = [rows[r] for r in keep], [cur[r] for r in keep]
            xi, eta = xi[keep], eta[keep]
        prev = cur
    val[rows], xi_out[rows], eta_out[rows] = cur, xi, eta
    return val, xi_out, eta_out


def block_minimize(
    c4: np.ndarray,
    starts: np.ndarray,
    max_iters: int,
    stop_below: float,
    scale: float,
) -> tuple[float, np.ndarray, np.ndarray, int]:
    """Minimize the block form of a Hermitian Choi tensor.

    c4 is the Hermitian, complex Choi matrix C reshaped to (n, m, n, m), and
    scale is |C|_F; starts holds one eta seed per restart, shape
    (restarts >= 1, m), and max_iters >= 1.  The caller has checked all of
    this.  Each descent alternates exact minimization in xi (bottom
    eigenvector with eta fixed) and in eta (with xi fixed).  The restarts are
    scanned in order until one dips below stop_below (module docstring).

    Returns (best value, best xi, best eta, restarts used).
    """
    n, m = c4.shape[:2]
    total = starts.shape[0]
    g = np.ascontiguousarray(c4.transpose(0, 2, 1, 3))
    best = np.inf
    best_xi = np.zeros(n, dtype=np.complex128)
    best_eta = np.zeros(m, dtype=np.complex128)
    done, grow = 0, 1
    while done < total:
        width = min(grow, total - done, MAX_ROWS)
        vals, xis, etas = _descend_batch(g, starts[done:done + width], max_iters, scale)
        # scan the wave in restart order, up to and including its exit, keeping the first
        # strict minimum
        for k, val in enumerate(vals.tolist()):
            if val < best:
                best, best_xi, best_eta = val, xis[k], etas[k]
            if val < stop_below:
                return best, best_xi, best_eta, done + k + 1
        done += width
        grow *= WAVE_GROWTH
    return best, best_xi, best_eta, done
