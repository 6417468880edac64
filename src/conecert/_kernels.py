"""The block-positivity kernel, in pure numpy.

The only kernel is the alternating minimization of the block form
<xi (x) eta, C (xi (x) eta)> over unit vectors, which dominates the runtime
of positivity searches.  `block_minimize_batch` minimises a stack of maps;
`block_minimize` is the same kernel on one map.

Each map scans its restarts in order and stops at the first one whose value
dips below `stop_below`.  To spend Python and LAPACK call overhead on many
descents at once, the restarts are descended in waves: wave k takes the next
WAVE_GROWTH**k starts of every map still live (1, 8, 64, ...), all in one
stacked descent of at most MAX_ROWS rows.  Results are then scanned in
restart order, so a start after the exit start of its wave counts neither in
`used` nor in `best`: per map the result is that of a sequential scan, and it
is deterministic for a fixed start array.
"""

import numpy as np

from .errors import SearchError

# rows descended per stacked call; bounds the stacked arrays and the work a
# wave can spend past a map's exit start
MAX_ROWS = 256
# width ratio of successive waves; the first wave is one start per map, so a
# map that exits on its first start costs a single descent
WAVE_GROWTH = 8


def _descend_batch(c4s, eta, max_iters, conv_tol):
    """Alternating descent of a stack of maps, one start per map.

    Rows whose value has converged are dropped, so each row stops after
    exactly the iterations its own descent would take.
    """
    eta = eta / np.linalg.norm(eta, axis=1, keepdims=True)
    count, n = c4s.shape[0], c4s.shape[1]
    val = np.full(count, np.inf)
    xi_out = np.zeros((count, n), dtype=np.complex128)
    eta_out = eta.copy()
    prev = np.full(count, np.inf)
    rows = np.arange(count)
    for _ in range(max_iters):
        nmat = np.einsum("bikjl,bk,bl->bij", c4s, eta.conj(), eta)
        _, v = np.linalg.eigh(0.5 * (nmat + nmat.conj().swapaxes(1, 2)))
        xi = v[:, :, 0]
        mmat = np.einsum("bikjl,bi,bj->bkl", c4s, xi.conj(), xi)
        w, v = np.linalg.eigh(0.5 * (mmat + mmat.conj().swapaxes(1, 2)))
        eta = v[:, :, 0]
        cur = w[:, 0]
        val[rows], xi_out[rows], eta_out[rows] = cur, xi, eta
        live = ~(np.abs(prev - cur) <= conv_tol * (1.0 + np.abs(cur)))
        if not live.all():
            rows, c4s, eta, cur = rows[live], c4s[live], eta[live], cur[live]
            if rows.size == 0:
                break
        prev = cur
    return val, xi_out, eta_out


def block_minimize_batch(
    c4s: np.ndarray,
    starts: np.ndarray,
    max_iters: int,
    conv_tol: float,
    stop_below: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Minimize the block form of a stack of Hermitian Choi tensors.

    c4s has shape (B, n, m, n, m) and starts (B, restarts, m), one eta seed
    per restart.  Each descent alternates exact minimization in xi (bottom
    eigenvector with eta fixed) and in eta (with xi fixed) until the value
    moves by less than conv_tol relatively.  Each map scans its restarts in
    order until one dips below stop_below or the budget runs out.

    Returns per-map arrays (best values (B,), best xi (B, n), best eta
    (B, m), restarts used (B,)).
    """
    c4s = np.ascontiguousarray(c4s, dtype=np.complex128)
    starts = np.ascontiguousarray(starts, dtype=np.complex128)
    if c4s.ndim != 5 or c4s.shape[3:] != c4s.shape[1:3]:
        raise SearchError(f"c4s must be (maps, n, m, n, m), got {c4s.shape}")
    count, n, m = c4s.shape[:3]
    if starts.ndim != 3 or starts.shape[0] != count or starts.shape[2] != m:
        raise SearchError(f"starts must be ({count}, restarts, {m}), got {starts.shape}")
    total = starts.shape[1]
    if total < 1 or max_iters < 1:
        raise SearchError("need at least one restart and one iteration")
    best = np.full(count, np.inf)
    best_xi = np.zeros((count, n), dtype=np.complex128)
    best_eta = np.zeros((count, m), dtype=np.complex128)
    used = np.zeros(count, dtype=np.int64)
    live = np.arange(count)
    done, grow = 0, 1
    while live.size and done < total:
        width = min(grow, total - done, max(1, MAX_ROWS // live.size))
        owner = np.repeat(live, width)
        seeds = starts[live, done:done + width].reshape(-1, m)
        vals = np.empty(owner.size)
        xis = np.empty((owner.size, n), dtype=np.complex128)
        etas = np.empty((owner.size, m), dtype=np.complex128)
        for lo in range(0, owner.size, MAX_ROWS):
            part = slice(lo, lo + MAX_ROWS)
            vals[part], xis[part], etas[part] = _descend_batch(
                c4s[owner[part]], seeds[part], max_iters, conv_tol
            )
        # scan each map's wave in restart order, up to and including its exit
        vals = vals.reshape(-1, width)
        below = vals < stop_below
        exits = below.any(axis=1)
        scanned = np.where(exits, below.argmax(axis=1) + 1, width)
        used[live] += scanned
        vals = np.where(np.arange(width) < scanned[:, None], vals, np.inf)
        rows = np.arange(live.size) * width + vals.argmin(axis=1)
        low = vals.ravel()[rows]
        better = low < best[live]
        won, rows = live[better], rows[better]
        best[won], best_xi[won], best_eta[won] = low[better], xis[rows], etas[rows]
        live = live[~exits]
        done += width
        grow *= WAVE_GROWTH
    return best, best_xi, best_eta, used


def block_minimize(
    c4: np.ndarray,
    starts: np.ndarray,
    max_iters: int,
    conv_tol: float,
    stop_below: float,
) -> tuple[float, np.ndarray, np.ndarray, int]:
    """`block_minimize_batch` on one map.

    c4 is the Choi matrix reshaped to (n, m, n, m); starts holds one eta seed
    per restart, shape (restarts, m).

    Returns (best value, best xi, best eta, restarts used).
    """
    c4, starts = np.asarray(c4), np.asarray(starts)
    if starts.ndim != 2 or starts.shape[1] != c4.shape[1]:
        raise SearchError(f"starts must be (restarts, {c4.shape[1]}), got {starts.shape}")
    best, xi, eta, used = block_minimize_batch(
        c4[None], starts[None], max_iters, conv_tol, stop_below
    )
    return float(best[0]), xi[0], eta[0], int(used[0])
