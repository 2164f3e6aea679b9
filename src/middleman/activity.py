"""Activity-level specialisation: the multiplicative-income exploitation
condition, its normalised (gamma, sigma) benchmark, the boundary curve, and
the region sampler behind the contestation map.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ambiguity import BeliefSystem, _require_threshold_domain, loyalty_fees
from .game import _count, _number, _prefix_len
from .hedonic import HedonicGame, MultiplicativeIncome, full_extraction_fees


class PessimisticIncomeZeroError(ZeroDivisionError):
    """The ratio form of the exploitation condition divides by a zero
    pessimistic income; the difference form decides (full exploitation holds
    trivially because the retained income is zero)."""


def activity_full_exploitation_condition(game: HedonicGame, beliefs: BeliefSystem) -> bool:
    """Ratio form of the exploitation threshold for multiplicative income.

    Compares the relative usage drop, scaled by the activity ratio, against
    gamma / (1 - gamma). Raises :class:`PessimisticIncomeZeroError` when the
    loyalty-point fees or activity vanish, where the ratio form is undefined.
    """
    if not isinstance(game.income, MultiplicativeIncome):
        raise TypeError("ratio condition requires the multiplicative income family")
    _require_threshold_domain(beliefs)

    f_hat = sum(full_extraction_fees(game))
    phi = loyalty_fees(game, beliefs)
    phi_hat = phi[0] + phi[1]
    g = game.income.activity
    g_full = float(g(1.0, 1.0))
    g_loyal = float(g(beliefs.loyalty1, beliefs.loyalty2))
    if phi_hat == 0.0 or g_loyal == 0.0:
        raise PessimisticIncomeZeroError(
            "pessimistic income is zero; full exploitation holds trivially"
        )
    lhs = (f_hat / phi_hat - 1.0) * (g_full / g_loyal)
    return bool(lhs >= beliefs.gamma / (1.0 - beliefs.gamma))


@dataclass(frozen=True)
class BenchmarkPoint:
    """A (gamma, sigma) pair: degree of pessimism and residual activity level."""

    gamma: float
    sigma: float

    def __post_init__(self):
        for name in ("gamma", "sigma"):
            if not 0.0 <= _number(getattr(self, name), name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")


@dataclass(frozen=True)
class RegionSample:
    point: BenchmarkPoint
    full_exploitation: bool


def _benchmark_inequality(g, s):  # in the float operations of every verdict
    return (1.0 - g) * (1.0 - s) >= g * s * s


def benchmark_full_exploitation_condition(point: BenchmarkPoint) -> bool:
    """Normalised benchmark inequality: (1 - gamma)(1 - sigma) >= gamma * sigma**2."""
    return bool(_benchmark_inequality(point.gamma, point.sigma))


def boundary_curve(sigma):
    """The pessimism threshold gamma*(sigma) where the benchmark inequality binds.

    Full exploitation holds iff gamma <= gamma*(sigma). The closed form
    (1 - sigma) / (1 - sigma + sigma**2) follows from solving the equality
    case; the denominator stays >= 3/4 on [0, 1].

    A float ``sigma`` gives a float; a numpy array gives the array of
    thresholds, entry by entry, each bit-identical to the float call. Every
    entry must lie in [0, 1] (a NaN does not), else ``ValueError``.
    """
    if not np.all((sigma >= 0.0) & (sigma <= 1.0)):
        raise ValueError("sigma must lie in [0, 1]")
    return (1.0 - sigma) / ((1.0 - sigma) + sigma * sigma)


class RegionMap(Sequence):
    """Benchmark verdicts on the (n+1)^2 lattice over [0, 1]^2.

    ``axis`` holds the n+1 lattice coordinates shared by gamma and sigma;
    ``full_exploitation[i, j]`` is the verdict at gamma = axis[i],
    sigma = axis[j]. Without a ``full_exploitation`` lattice the map holds
    the benchmark inequality's, evaluated on its first read, so a map that
    draws only the analytic boundary from ``axis`` (the SVG) costs no
    lattice; ``axis`` must then ascend within [0, 1]. As a sequence it
    yields :class:`RegionSample` records in row-major order (gamma outer,
    sigma inner), built on demand.
    """

    def __init__(self, axis: np.ndarray, full_exploitation: np.ndarray | None = None):
        if full_exploitation is None and not (
                np.all(axis[1:] >= axis[:-1]) and np.all((axis >= 0.0) & (axis <= 1.0))):
            raise ValueError("axis must ascend within [0, 1]")
        axis.setflags(write=False)
        self.axis = axis
        if full_exploitation is not None:
            full_exploitation.setflags(write=False)
            self.__dict__["full_exploitation"] = full_exploitation  # the cached value

    @cached_property
    def full_exploitation(self) -> np.ndarray:
        verdicts = _region_verdicts(self.axis)
        verdicts.setflags(write=False)
        return verdicts

    def __len__(self) -> int:
        return self.axis.size ** 2

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[k] for k in range(*index.indices(len(self)))]
        k = operator.index(index)
        if k < 0:
            k += len(self)
        if not 0 <= k < len(self):
            raise IndexError("region sample index out of range")
        i, j = divmod(k, self.axis.size)
        point = BenchmarkPoint(float(self.axis[i]), float(self.axis[j]))
        return RegionSample(point, bool(self.full_exploitation[i, j]))


def _region_verdicts(axis: np.ndarray) -> np.ndarray:
    """The benchmark inequality at every (gamma, sigma) of ``axis`` x ``axis``,
    for an ``axis`` ascending within [0, 1].

    Each gamma row's verdicts are true on a prefix of sigma: as sigma grows,
    ``(1 - gamma)(1 - sigma)`` never rises and ``gamma sigma sigma`` never
    falls, in floats too, because rounding is monotone. So each row's count
    of true verdicts is the prefix search the Pareto fee axes use, and every
    verdict is bit-identical to the per-point test.
    """
    n = np.full(axis.size, axis.size)
    count = _prefix_len(lambda k: _benchmark_inequality(axis, axis[k]), n)
    return np.arange(axis.size) < count[:, None]


def region_sample(resolution: int) -> RegionMap:
    """Benchmark verdicts on the (resolution+1)^2 lattice over [0, 1]^2.

    The resolution is checked here; the verdicts are evaluated when the
    map's ``full_exploitation`` is first read. Endpoints gamma = 1 and
    sigma = 1 are included, though they fall outside the threshold test's
    hypotheses; their verdicts read the benchmark inequality formally.
    """
    _count(resolution, "resolution")
    return RegionMap(np.arange(resolution + 1) / resolution)
