"""Host speed reference: fixed kernels timed between the timed calls.

The host's cores change speed by a third or more over seconds to minutes
(see README, "Noise"), so two runs of the same code a minute apart can read
25% apart in plain wall time. The reference measures that speed where the
program runs, right before and after each timed call: three fixed kernels
shaped like labelsim's own work (a vectorised Newton fit, an adaptive
quadrature with a Python integrand, a pure-Python loop), each timed against
the seconds it took on the box the benchmark was built on. Nothing here
imports labelsim, so a change to the program leaves the reference alone and
moves a normalised time one for one.
"""

from __future__ import annotations

import time

import numpy as np
from scipy import integrate, special

# Median seconds of one repetition of each kernel on the box in README
# "Baseline" (Intel Xeon at 2.0 GHz, one BLAS thread). They only fix the
# unit: a factor of 1 means a host as fast as that box was then.
NOMINAL_S = {"newton": 0.117, "quad": 0.097, "python": 0.124}


class SpeedReference:
    """Times the kernels; ``sample()`` gives the current slowdown factor."""

    def __init__(self):
        rng = np.random.default_rng(20220624)  # fixed: not the workload seed
        self._x = rng.standard_normal((20_000, 5))
        self._y = (rng.random(20_000) < 0.5).astype(float)
        self._scales = np.linspace(0.5, 3.0, 200)

    def _newton(self):
        x, y = self._x, self._y
        theta = np.zeros(x.shape[1])
        for _ in range(120):
            p = special.expit(x @ theta)
            grad = x.T @ (p - y)
            hess = (x * (p * (1.0 - p))[:, None]).T @ x
            theta -= 0.1 * np.linalg.solve(hess + np.eye(x.shape[1]), grad)
        return theta

    def _quad(self):
        total = 0.0
        for c in self._scales:
            total += integrate.quad(
                lambda z: special.expit(c * z) * np.exp(-0.5 * z * z) * z * z,
                -np.inf, np.inf, epsrel=1e-10, limit=200)[0]
        return total

    @staticmethod
    def _python():
        s = 0
        for i in range(1_200_000):
            s += i * i
        return s

    def sample(self) -> float:
        """Mean over the kernels of measured/nominal seconds: 1.0 at the
        nominal speed, 1.2 on a host running 20% slower."""
        ratios = []
        for name, kernel in (("newton", self._newton), ("quad", self._quad),
                             ("python", self._python)):
            t0 = time.perf_counter()
            kernel()
            ratios.append((time.perf_counter() - t0) / NOMINAL_S[name])
        return float(np.mean(ratios))
