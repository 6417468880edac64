import warnings

import numpy as np
import pytest

from conecert import _kernels
from conecert._kernels import CONV_TOL, MAX_ROWS, WAVE_GROWTH, block_minimize
from conecert.linalg import hermitize
from test_linalg import same_bits


def _crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def reference_scan(c4, starts, max_iters, stop_below):
    """Sequential oracle: one map, one start at a time, in restart order; a
    descent stops once its value moves by at most CONV_TOL * (|C|_F + |value|)"""
    scale = np.linalg.norm(c4)
    best, best_xi, best_eta, used = np.inf, None, None, 0
    for start in starts:
        used += 1
        eta, prev = start / np.linalg.norm(start), np.inf
        for _ in range(max_iters):
            nmat = np.einsum("ikjl,k,l->ij", c4, eta.conj(), eta)
            xi = np.linalg.eigh(hermitize(nmat))[1][:, 0]
            mmat = np.einsum("ikjl,i,j->kl", c4, xi.conj(), xi)
            w, v = np.linalg.eigh(hermitize(mmat))
            eta, val = v[:, 0], float(w[0])
            if abs(prev - val) <= CONV_TOL * (scale + abs(val)):
                break
            prev = val
        if val < best:
            best, best_xi, best_eta = val, xi, eta
        if best < stop_below:
            break
    return best, best_xi, best_eta, used


def test_block_minimize_hand_case():
    """diag(1, 0, 0, -1) as a Choi matrix has block minimum -1 at e2 (x) e2"""
    c4 = np.diag([1.0, 0.0, 0.0, -1.0]).astype(complex).reshape(2, 2, 2, 2)
    rng = np.random.default_rng(0)
    val, xi, eta, _ = block_minimize(c4, _crandn(rng, 16, 2), 100, -1e-9, np.linalg.norm(c4))
    assert abs(val + 1.0) < 1e-9
    assert abs(abs(xi[1]) - 1.0) < 1e-6
    assert abs(abs(eta[1]) - 1.0) < 1e-6


def test_block_minimize_positive_case():
    rng = np.random.default_rng(1)
    a = _crandn(rng, 3, 3)
    w = a.reshape(-1)
    c4 = np.outer(w, w.conj()).reshape(3, 3, 3, 3)
    val, _, _, used = block_minimize(c4, _crandn(rng, 8, 3), 200, -1e-9, np.linalg.norm(c4))
    assert val >= -1e-10
    assert used == 8


def test_block_minimize_early_exit():
    c4 = np.diag([1.0, 0.0, 0.0, -1.0]).astype(complex).reshape(2, 2, 2, 2)
    rng = np.random.default_rng(2)
    _, _, _, used = block_minimize(c4, _crandn(rng, 32, 2), 100, -1e-9, np.linalg.norm(c4))
    assert used < 32


def test_block_minimize_never_above_product_points():
    """the reported minimum is at most the block value on random product pairs"""
    rng = np.random.default_rng(4)
    c = hermitize(_crandn(rng, 6, 6))
    c4 = c.reshape(2, 3, 2, 3)
    val, _, _, _ = block_minimize(c4, _crandn(rng, 32, 3), 200, -np.inf, np.linalg.norm(c4))
    for _ in range(200):
        xi = _crandn(rng, 2)
        eta = _crandn(rng, 3)
        u = np.kron(xi / np.linalg.norm(xi), eta / np.linalg.norm(eta))
        assert val <= np.vdot(u, c @ u).real + 1e-9


def test_block_minimize_witness_value_consistent():
    rng = np.random.default_rng(5)
    c = hermitize(_crandn(rng, 8, 8))
    c4 = c.reshape(2, 4, 2, 4)
    val, xi, eta, _ = block_minimize(c4, _crandn(rng, 16, 4), 200, -np.inf, np.linalg.norm(c4))
    u = np.kron(xi, eta)
    assert abs(np.vdot(u, c @ u).real - val) < 1e-9


def _random_maps(rng, count, n, m):
    """Hermitian Choi tensors: even indices indefinite, odd ones PSD (positive maps)."""
    maps = []
    for b in range(count):
        if b % 2:
            w = _crandn(rng, n * m, 2)
            c = w @ w.conj().T
        else:
            c = hermitize(_crandn(rng, n * m, n * m))
        maps.append(c.reshape(n, m, n, m))
    return np.array(maps)


def _assert_batch_matches_single(c4s, starts, stop_below, max_iters=200):
    """block_minimize on each map equals the sequential reference scan."""
    c = c4s.reshape(c4s.shape[0], *2 * (c4s.shape[1] * c4s.shape[2],))
    vals, used = np.empty(c4s.shape[0]), np.empty(c4s.shape[0], dtype=int)
    for b in range(c4s.shape[0]):
        vals[b], xi_b, eta_b, used[b] = block_minimize(
            c4s[b], starts[b], max_iters, stop_below, np.linalg.norm(c4s[b])
        )
        val, xi, eta, n_used = reference_scan(c4s[b], starts[b], max_iters, stop_below)
        assert abs(vals[b] - val) <= 1e-12 * max(1.0, abs(val))
        assert used[b] == n_used
        # witnesses may differ by a phase, so compare the block value each attains
        u_got, u_ref = np.kron(xi_b, eta_b), np.kron(xi, eta)
        witness = np.vdot(u_got, c[b] @ u_got).real
        assert abs(witness - np.vdot(u_ref, c[b] @ u_ref).real) < 1e-10
        assert abs(witness - vals[b]) < 1e-10
    return vals, used


@pytest.mark.parametrize("n, m", [(2, 2), (3, 3), (2, 4), (4, 2), (1, 3), (3, 1)])
def test_block_minimize_batch_matches_per_map(n, m):
    rng = np.random.default_rng(10 + 5 * n + m)
    c4s = _random_maps(rng, 6, n, m)
    starts = _crandn(rng, 6, 12, m)
    vals, used = _assert_batch_matches_single(c4s, starts, -1e-9)
    # PSD Choi matrices give positive maps: no early exit, every start runs
    assert np.all(vals[1::2] >= -1e-10)
    assert np.all(used[1::2] == 12)


def test_block_minimize_batch_runs_every_start_without_threshold():
    rng = np.random.default_rng(20)
    c4s = _random_maps(rng, 5, 3, 2)
    starts = _crandn(rng, 5, 9, 2)
    _, used = _assert_batch_matches_single(c4s, starts, -np.inf)
    assert np.all(used == 9)


def test_block_minimize_batch_early_exit():
    """maps stop on their own restart: one exits at once, the positive one scans all"""
    rng = np.random.default_rng(21)
    deep = np.diag([1.0, 0.0, 0.0, -1.0]).astype(complex).reshape(2, 2, 2, 2)
    w = _crandn(rng, 4)
    positive = np.outer(w, w.conj()).reshape(2, 2, 2, 2)
    c4s = np.array([deep, positive, deep])
    starts = _crandn(rng, 3, 16, 2)
    vals, used = _assert_batch_matches_single(c4s, starts, -1e-9)
    assert used[0] < 16 and used[2] < 16
    assert used[1] == 16
    assert abs(vals[0] + 1.0) < 1e-9


@pytest.mark.parametrize("stop_below", [-np.inf, -1e-9])
def test_block_minimize_cut_off_by_max_iters(stop_below):
    """no generic descent converges in 3 iterations (a fourth one still moves its
    value), so every row is still live when the loop ends and is written only
    after it"""
    rng = np.random.default_rng(22)
    c4s = hermitize(_crandn(rng, 4, 9, 9)).reshape(4, 3, 3, 3, 3)
    starts = _crandn(rng, 4, 12, 3)
    for b in range(4):
        for start in starts[b]:
            assert reference_scan(c4s[b], start[None], 3, -np.inf)[0] != (
                reference_scan(c4s[b], start[None], 4, -np.inf)[0]
            )
    _assert_batch_matches_single(c4s, starts, stop_below, max_iters=3)


def _record_rows(monkeypatch):
    """Spy on the stacked descents: the number of rows of each call, in order."""
    rows, descend = [], _kernels._descend_batch

    def spy(c4, eta, *args):
        rows.append(eta.shape[0])
        return descend(c4, eta, *args)

    monkeypatch.setattr(_kernels, "_descend_batch", spy)
    return rows


# diagonal block values v[i, k]: a basis start e_k descends to a fixed value,
# e_0 -> -1 (exits below -0.5), e_1 -> -2 (deeper), e_2 -> 1 (no exit)
_WAVE_MAP = np.diag([-1.0, 5, 5, 5, -2, 5, 5, 5, 1]).astype(complex).reshape(3, 3, 3, 3)


@pytest.mark.parametrize("exit_at", [0, 1, 8, 9, 72])
def test_block_minimize_batch_wave_boundaries(exit_at, monkeypatch):
    """exit at the first or last start of a wave; deeper starts after it are ignored

    Waves of one map cover starts 0 | 1-8 | 9-72 | 73-...: every start after
    the exit, in the same wave where there is one, descends to -2 and must
    count neither in `used` nor in `best`.
    """
    total = 80
    eye = np.eye(3, dtype=complex)
    starts = np.array([eye[2]] * exit_at + [eye[0]] + [eye[1]] * (total - exit_at - 1))
    rows = _record_rows(monkeypatch)
    val, xi, eta, used = block_minimize(_WAVE_MAP, starts, 50, -0.5, np.linalg.norm(_WAVE_MAP))
    assert used == exit_at + 1
    assert abs(val + 1.0) < 1e-12
    assert abs(abs(xi[0]) - 1.0) < 1e-12 and abs(abs(eta[0]) - 1.0) < 1e-12
    assert rows == [1, 8, 64][: 1 + (exit_at >= 1) + (exit_at >= 9)]
    ref_val, _, _, ref_used = reference_scan(_WAVE_MAP, starts, 50, -0.5)
    assert (ref_val, ref_used) == (val, used)


def test_block_minimize_batch_caps_rows(monkeypatch):
    """no start exits, so the waves grow 1, 8, 64 and then stay at MAX_ROWS"""
    assert MAX_ROWS == 256 and WAVE_GROWTH == 8
    rng = np.random.default_rng(62)
    c4s = _random_maps(rng, 1, 2, 2)
    starts = _crandn(rng, 1, 600, 2)
    descended = _record_rows(monkeypatch)
    _, used = _assert_batch_matches_single(c4s, starts, -np.inf)
    assert used[0] == 600
    assert descended == [1, 8, 64, 256, 256, 15]


@pytest.mark.parametrize("rows", [1, 8, 256])
def test_eigh_is_numpy_eigh_bitwise(rows):
    """the half-steps' `_eigh` calls numpy's private gufunc: it must stay the
    bits of `np.linalg.eigh`, eigenvalues and vectors, and raise no warning"""
    rng = np.random.default_rng(70 + rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for size in range(1, 7):
            a = _crandn(rng, rows, size, size)
            a += a.conj().transpose(0, 2, 1)
            # the half-steps hand over products that are Hermitian only up
            # to rounding, and both read the lower triangle alone
            a += np.triu(np.full((size, size), 1e-3), 1)
            assert same_bits(_kernels._eigh(a), np.linalg.eigh(a))
        # a stack with NaN entries that `np.linalg.eigh` answers with NaN
        nan = np.stack([np.eye(2, dtype=complex)] * rows)
        nan[0, 1, 0] = np.nan
        assert same_bits(_kernels._eigh(nan), np.linalg.eigh(nan))


@pytest.mark.parametrize("rows", [1, 8])
@pytest.mark.parametrize("eigh", ["kernel", "numpy"])
def test_descent_raises_on_nonconvergence(rows, eigh, monkeypatch):
    """a NaN in the Choi tensor stops the descent with LinAlgError, as the
    public `np.linalg.eigh` does, and no warning escapes the error state"""
    if eigh == "numpy":
        monkeypatch.setattr(_kernels, "_eigh", np.linalg.eigh)
    rng = np.random.default_rng(80 + rows)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.eigh(np.full((rows, 3, 3), np.nan, dtype=complex))
    for poison in (np.s_[:], np.s_[1, 0, 2, 1]):
        g = np.ascontiguousarray(_random_maps(rng, 1, 2, 3)[0].transpose(0, 2, 1, 3))
        g[poison] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
                _kernels._descend_batch(g, _crandn(rng, rows, 3), 50, 1.0)
