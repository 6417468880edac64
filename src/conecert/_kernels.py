"""The block-positivity kernel, in pure numpy.

The only kernel is the alternating minimization of the block form
<xi (x) eta, C (xi (x) eta)> over unit vectors of one map, which dominates
the runtime of positivity searches.

`block_minimize` scans the map's restarts in order and stops at the first one
whose value dips below `stop_below`.  To spend Python and LAPACK call
overhead on many descents at once, the restarts are descended in waves: wave
k takes the next WAVE_GROWTH**k starts (1, 8, 64, ...), capped at MAX_ROWS,
all in one stacked descent.  Results are then scanned in restart order, so a
start after the exit start of its wave counts neither in `used` nor in
`best`: the result is that of a sequential scan, and it is deterministic for
a fixed start array.
"""

import numpy as np

from .errors import SearchError

# rows descended per stacked call; bounds the stacked arrays and the work a
# wave can spend past the exit start
MAX_ROWS = 256
# width ratio of successive waves; the first wave is one start, so a map that
# exits on its first start costs a single descent
WAVE_GROWTH = 8


def _descend_batch(c4, eta, max_iters, conv_tol):
    """Alternating descent of one map from a stack of starts, one per row.

    Rows whose value has converged are dropped, so each row stops after
    exactly the iterations its own descent would take.
    """
    eta = eta / np.linalg.norm(eta, axis=1, keepdims=True)
    count, n = eta.shape[0], c4.shape[0]
    val = np.full(count, np.inf)
    xi_out = np.zeros((count, n), dtype=np.complex128)
    eta_out = eta.copy()
    prev = np.full(count, np.inf)
    rows = np.arange(count)
    for _ in range(max_iters):
        nmat = np.einsum("ikjl,bk,bl->bij", c4, eta.conj(), eta)
        _, v = np.linalg.eigh(0.5 * (nmat + nmat.conj().swapaxes(1, 2)))
        xi = v[:, :, 0]
        mmat = np.einsum("ikjl,bi,bj->bkl", c4, xi.conj(), xi)
        w, v = np.linalg.eigh(0.5 * (mmat + mmat.conj().swapaxes(1, 2)))
        eta = v[:, :, 0]
        cur = w[:, 0]
        val[rows], xi_out[rows], eta_out[rows] = cur, xi, eta
        live = ~(np.abs(prev - cur) <= conv_tol * (1.0 + np.abs(cur)))
        if not live.all():
            rows, eta, cur = rows[live], eta[live], cur[live]
            if rows.size == 0:
                break
        prev = cur
    return val, xi_out, eta_out


def block_minimize(
    c4: np.ndarray,
    starts: np.ndarray,
    max_iters: int,
    conv_tol: float,
    stop_below: float,
) -> tuple[float, np.ndarray, np.ndarray, int]:
    """Minimize the block form of a Hermitian Choi tensor.

    c4 is the Choi matrix reshaped to (n, m, n, m); starts holds one eta seed
    per restart, shape (restarts, m).  Each descent alternates exact
    minimization in xi (bottom eigenvector with eta fixed) and in eta (with
    xi fixed) until the value moves by less than conv_tol relatively.  The
    restarts are scanned in order until one dips below stop_below or the
    budget runs out.

    Returns (best value, best xi, best eta, restarts used).
    """
    c4 = np.ascontiguousarray(c4, dtype=np.complex128)
    starts = np.ascontiguousarray(starts, dtype=np.complex128)
    if c4.ndim != 4 or c4.shape[2:] != c4.shape[:2]:
        raise SearchError(f"c4 must be (n, m, n, m), got {c4.shape}")
    n, m = c4.shape[:2]
    if starts.ndim != 2 or starts.shape[1] != m:
        raise SearchError(f"starts must be (restarts, {m}), got {starts.shape}")
    total = starts.shape[0]
    if total < 1 or max_iters < 1:
        raise SearchError("need at least one restart and one iteration")
    best = np.inf
    best_xi = np.zeros(n, dtype=np.complex128)
    best_eta = np.zeros(m, dtype=np.complex128)
    used, done, grow = 0, 0, 1
    while done < total:
        width = min(grow, total - done, MAX_ROWS)
        vals, xis, etas = _descend_batch(c4, starts[done:done + width], max_iters, conv_tol)
        # scan the wave in restart order, up to and including its exit
        below = vals < stop_below
        exits = bool(below.any())
        scanned = int(below.argmax()) + 1 if exits else width
        used += scanned
        k = int(vals[:scanned].argmin())
        if vals[k] < best:
            best, best_xi, best_eta = float(vals[k]), xis[k], etas[k]
        if exits:
            break
        done += width
        grow *= WAVE_GROWTH
    return best, best_xi, best_eta, used
