"""Closed-form throughput and survival curves, threshold search, resource counts.

Throughput efficiency R is the average number of successfully delivered
classical bits per transmitted qubit (maximum 2) for uniformly distributed
two-bit messages, with theta_N = pi/(2N) and phi_N = pi/N:

    R_dqz(N) = 2 (1 - sin^2(theta_N)/2)^N
    R_ifm(N) = (cos^{2N}(theta_N) + 1) (1 - sin^2(theta_N)/2)^N
    R_qz(N)  = 2 (1 - 3 sin^2(phi_N)/4)^N

that is, in Zeno laws Z_{c,k} = (1 - c sin^2(k theta_N))^N (`optics.zeno_law`),
R_dqz = 2 Z_{1/2,1}, R_ifm = (Z_{1,1} + 1) Z_{1/2,1} and R_qz = 2 Z_{3/4,2}, where
Z_{1,1} is still taken as cos^{2N}(theta_N) (`ifm.blocked_survival`).

All three increase toward 2; the dual-Zeno analyzer dominates the other two
for every N >= 2. The QZ point N = 1 is a degenerate artifact of sin(pi) = 0
and is excluded from monotone scans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analyzers import ANALYZERS, AnalyzerKind, survival_law
from .optics import cycle_counts

# Best laboratory throughput to date (hyperentanglement-assisted analysis),
# used purely as a numeric benchmark threshold.
EXPERIMENTAL_BENCHMARK_R = 1.665

MAX_CURVE_CYCLES = 10**6


def _r_array(analyzer: AnalyzerKind, n_cycles) -> np.ndarray:
    return 2.0 * survival_law(analyzer, None, n_cycles)


def p_survival(analyzer: AnalyzerKind, n_cycles: int) -> float:
    """Probability that a run delivers clicks, averaged over a uniform
    Bell mixture (the IFM value is the two-family average)."""
    return float(survival_law(analyzer, None, n_cycles))


def r_analytic(analyzer: AnalyzerKind, n_cycles: int) -> float:
    """Closed-form throughput efficiency in bits per qubit."""
    return float(_r_array(analyzer, n_cycles))


@dataclass(frozen=True)
class EfficiencyCurve:
    analyzer: AnalyzerKind
    n_values: np.ndarray
    r_values: np.ndarray

    def __post_init__(self):
        n = np.asarray(self.n_values, dtype=np.int64).copy()
        r = np.asarray(self.r_values, dtype=float).copy()
        if n.shape != r.shape or n.ndim != 1:
            raise ValueError("n_values and r_values must be matching 1-d arrays")
        if np.any(np.diff(n) <= 0):
            raise ValueError("cycle counts must be strictly increasing")
        if not np.all((r >= 0.0) & (r <= 2.0)):
            raise ValueError("throughput values must lie in [0, 2]")
        n.setflags(write=False)
        r.setflags(write=False)
        object.__setattr__(self, "n_values", n)
        object.__setattr__(self, "r_values", r)

    @property
    def points(self) -> list[tuple[int, float]]:
        return [(int(n), float(r)) for n, r in zip(self.n_values, self.r_values)]


def efficiency_curve(analyzer: AnalyzerKind, n_min: int, n_max: int) -> EfficiencyCurve:
    """Throughput at every integer cycle count in [n_min, n_max]."""
    analyzer = AnalyzerKind(analyzer)
    if not 1 <= n_min <= n_max <= MAX_CURVE_CYCLES:
        raise ValueError(f"need 1 <= n_min <= n_max <= {MAX_CURVE_CYCLES}")
    low, high = math.ceil(n_min), math.floor(n_max)
    if low > high:
        raise ValueError(f"no integer cycle count in [{n_min}, {n_max}]")
    n = np.arange(low, high + 1, dtype=np.int64)
    return EfficiencyCurve(analyzer, n, _r_array(analyzer, n))


def min_n_for_target(analyzer: AnalyzerKind, target_r: float) -> int:
    """Smallest N >= 2 with r_analytic(analyzer, N) >= target_r.

    The scan starts at N = 2 (the QZ formula is non-monotone at N = 1) and
    exploits monotonicity for N >= 2: double an upper bracket until the
    target is met, then bisect. Targets arbitrarily close to 2 stay cheap.
    """
    analyzer = AnalyzerKind(analyzer)
    target = float(target_r)
    if not 0.0 < target < 2.0:
        raise ValueError(f"target_r must lie strictly between 0 and 2, got {target!r}")
    lo = 2
    if _r_array(analyzer, lo) >= target:
        return lo
    hi = 4
    while _r_array(analyzer, hi) < target:
        lo = hi
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _r_array(analyzer, mid) >= target:
            hi = mid
        else:
            lo = mid
    return hi


def resource_counts(analyzer: AnalyzerKind, n_cycles: int) -> tuple[int, bool]:
    """(beam splitters required, needs an ancillary particle) at N cycles."""
    spec = ANALYZERS[AnalyzerKind(analyzer)]
    cycle_counts(n_cycles)
    return spec.splitters_per_cycle * n_cycles, spec.ancilla
