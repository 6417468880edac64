"""Reference clock: express measured times at a fixed machine speed.

The benchmark was built on a shared 2-core virtual machine whose speed
swings by up to a factor of two over seconds to tens of seconds, presumably
because other tenants share the host's cores and caches.  Steal time stays
near zero, so CPU time swings as much as wall time, and medians over a
whole run do not remove swings that long.

So every run interleaves short slices of fixed reference work, built from
the same kinds of numpy calls conecert makes (small complex einsum + eigh
pairs, as in the positivity kernel, and one SVD of a tall real matrix, as in
the null-space stage).  A call that took t seconds between slices that took
s1 and s2 seconds is reported as t * REF_SLICE_S / ((s1 + s2) / 2): its
duration on a machine where one slice takes REF_SLICE_S.  The reference work
does not touch conecert, so a change to conecert moves the reported times
exactly as it moves the measured ones.
"""

import time

import numpy as np

# Slice time on the reference machine (2-core Xeon VM at 2.0 GHz, one BLAS
# thread) while its neighbours are idle; busy neighbours stretch it to 4.5 ms.
REF_SLICE_S = 0.0030
CADENCE_S = 0.25  # at most this long between the ends of two slices


class ReferenceClock:
    def __init__(self):
        rng = np.random.default_rng(0)
        c = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        self._c4 = (c + c.conj().T).reshape(4, 4, 4, 4)
        self._eta = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        self._tall = rng.standard_normal((200, 64))
        self.slices = []
        self._last = -np.inf

    def tick(self) -> None:
        """Run one slice of reference work and record its duration."""
        t0 = time.perf_counter()
        for _ in range(80):
            nmat = np.einsum("ikjl,k,l->ij", self._c4, self._eta.conj(), self._eta)
            np.linalg.eigh(nmat)
        np.linalg.svd(self._tall, full_matrices=False)
        self._last = time.perf_counter()
        self.slices.append(self._last - t0)

    def maybe_tick(self) -> None:
        if time.perf_counter() - self._last >= CADENCE_S:
            self.tick()

    def scale(self, seconds: float, before: int) -> float:
        """Reference-speed duration of a call that ran after slice `before`.

        The slice after the call is the next one recorded, so the caller must
        tick once more after its last call.
        """
        mean = 0.5 * (self.slices[before] + self.slices[before + 1])
        return seconds * REF_SLICE_S / mean

    def speed(self) -> float:
        """Median machine speed over the run, relative to the reference."""
        return REF_SLICE_S / float(np.median(self.slices))
