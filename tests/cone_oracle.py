"""Test oracle: sampled evidence that a hull's positive part is the ray of phi.

Samples unit directions u in the hull orthogonal to Choi(phi) and runs the
positivity search on phi + eps * u for every eps in the grid, one
`block_minimize` per test point.  The evidence holds when every test point
dips below its `linalg.psd_threshold` (it is not a positive map) while phi
itself passes the same search.  The certificate proper is exact
(`face_certificate`); this is the tests' independent cross-check of its
verdict.
"""

from dataclasses import dataclass

import numpy as np
from constraint_oracle import hermitian_params, param_basis, params_to_herm

from conecert._kernels import block_minimize
from conecert.faces import membership_residual
from conecert.linalg import hermitize, psd_threshold
from conecert.maps import SearchParams, _compression_starts, product_start
from conecert.sampling import crandn, rng_from

EPSILONS = (0.01, 0.1, 1.0, 10.0)


@dataclass
class ConeEvidence:
    directions: int
    epsilons: tuple[float, ...]
    values: np.ndarray  # (directions, epsilons) block minima of the test points
    thresholds: np.ndarray  # (directions, epsilons) their `psd_threshold`s
    control_value: float
    control_threshold: float

    @property
    def control_positive(self) -> bool:
        return self.control_value >= self.control_threshold

    @property
    def misses(self) -> list[tuple[int, float]]:
        """Test points the search did not push below their threshold."""
        return [
            (t, eps)
            for t, (row, lows) in enumerate(zip(self.values, self.thresholds))
            for eps, value, low in zip(self.epsilons, row, lows)
            if value >= low
        ]


def cone_evidence(
    ns,
    phi,
    directions_per_dim: int = 64,
    max_directions: int = 512,
    epsilons: tuple[float, ...] = EPSILONS,
    search: SearchParams = SearchParams(),
) -> ConeEvidence:
    """Search phi and every test point phi + eps * u; u unit, in the hull, orthogonal to phi.

    Draws one seeded random stream in a fixed order: the control restarts,
    then per direction its Gaussian coefficients and per epsilon its
    restarts.  Each search descends from the informed starts
    (`product_start`, then `_compression_starts`) and then `search.restarts`
    random ones, and returns (block minimum, threshold).
    """
    d = ns.dim
    assert d >= 2, "a one-dimensional hull has no direction off the ray"
    coeffs, _ = membership_residual(ns, phi)
    n, m = phi.n, phi.m
    scale = float(np.linalg.norm(phi.choi))
    p_phi = hermitian_params(phi.choi / scale)
    # orthonormal completion of the phi direction inside the hull
    q, _ = np.linalg.qr(np.reshape(coeffs / np.linalg.norm(coeffs), (d, 1)), mode="complete")
    perp = param_basis(ns) @ q[:, 1:]
    rng = rng_from(search.seed)

    def search_from(choi):
        norm = float(np.linalg.norm(choi))
        threshold = psd_threshold(n * m, norm)
        h = hermitize(choi)
        h4 = h.reshape(n, m, n, m)
        bottom = np.linalg.eigh(h)[1][:, 0].reshape(n, m)
        starts = np.vstack([
            product_start(bottom),
            _compression_starts(h4),
            crandn(rng, search.restarts, m),
        ])
        return block_minimize(h4, starts, search.max_iters, threshold, norm)[0], threshold

    control, control_threshold = search_from(phi.choi / scale)
    count = min(directions_per_dim * (d - 1), max_directions)
    values, thresholds = np.empty((2, count, len(epsilons)))
    for t in range(count):
        g = rng.standard_normal(d - 1)
        u = perp @ (g / np.linalg.norm(g))
        for k, eps in enumerate(epsilons):
            choi = params_to_herm(p_phi + eps * u, n * m)
            values[t, k], thresholds[t, k] = search_from(choi)
    return ConeEvidence(count, tuple(epsilons), values, thresholds, control, control_threshold)
