"""Strategy profiles, evaluation grids, and generic three-player payoff bundles.

The game has two users choosing participation levels in [0, 1] and one
middleman choosing a nonnegative fee pair. Profile fields may hold numpy
arrays (broadcast together), which lets payoff functions be evaluated over
whole deviation grids in a single call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Union

import numpy as np

Value = Union[float, np.ndarray]


@dataclass(frozen=True)
class StrategyProfile:
    """A joint strategy: participation levels (s1, s2) and fee pair (rho1, rho2)."""

    s1: Value
    s2: Value
    rho1: Value
    rho2: Value

    def __post_init__(self):
        for name in ("s1", "s2"):
            v = np.asarray(getattr(self, name))
            if not ((v >= 0.0) & (v <= 1.0)).all():
                raise ValueError(f"{name} must lie in [0, 1]")
        for name in ("rho1", "rho2"):
            if not (np.asarray(getattr(self, name)) >= 0.0).all():
                raise ValueError(f"{name} must be nonnegative")

    @property
    def rho(self) -> tuple[Value, Value]:
        return (self.rho1, self.rho2)


def _axis(lo: float, hi: float, steps: int) -> np.ndarray:
    # arange/steps keeps representable fractions (e.g. 10/20 = 0.5) exact,
    # and the endpoint is forced so caps evaluated at `hi` hold with equality.
    pts = lo + (hi - lo) * (np.arange(steps + 1) / steps)
    pts[-1] = hi
    pts.flags.writeable = False
    return pts


def _float_array(values) -> np.ndarray:
    """``values`` as a float64 array. Every entry must be an int or a float;
    a boolean, a string, a ragged row or a mapping raises TypeError. An
    integer beyond the float range makes every entry infinite: it is the
    non-finite number it would round to, and callers only reject such an
    array."""
    items = values if isinstance(values, np.ndarray) else np.asarray(values, dtype=object)
    if items.dtype.kind not in "iuf" and not all(
        isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)
        for x in items.flat
    ):
        raise TypeError("expected numbers")
    try:
        return items.astype(np.float64)
    except OverflowError:
        return np.full(items.shape, np.inf)


def _float_pair(values) -> tuple[float, float] | None:
    """``values`` as a pair of floats, or None unless it is a sequence of two
    numbers (a string or a mapping is not)."""
    try:
        pair = _float_array(values)
    except (TypeError, ValueError):
        return None
    return (float(pair[0]), float(pair[1])) if pair.shape == (2,) else None


@dataclass(frozen=True)
class Grid:
    """Deviation lattice with ``steps`` subdivisions per axis.

    Participation axes span [s_lo, 1] (s_lo defaults to 0, recovering the
    plain {k/steps} lattice); the fee axis of player i spans
    [0, fee_bounds[i-1]]. A nonzero ``s_lo`` restricts the working box, which
    is how families that are only strictly monotone away from the zero
    boundary (e.g. Cobb-Douglas) are handled.

    The three axes are built together on the first call of
    :meth:`participation_axis` or :meth:`fee_axis`, so a grid too large to
    evaluate can still be constructed and rejected. Every later call returns
    the same read-only arrays; a grid made by ``dataclasses.replace`` builds
    its own.
    """

    steps: int
    fee_bounds: tuple[float, float] = (1.0, 1.0)
    s_lo: float = 0.0

    def __post_init__(self):
        if isinstance(self.steps, bool) or not isinstance(self.steps, (int, np.integer)):
            raise TypeError("steps must be an integer")
        if self.steps < 2:
            raise ValueError("steps must be at least 2")
        bounds = _float_pair(self.fee_bounds)
        if bounds is None:
            raise ValueError("fee_bounds must be a pair of numbers")
        if not all(0.0 <= b < np.inf for b in bounds):
            raise ValueError("fee_bounds must be finite and nonnegative")
        object.__setattr__(self, "fee_bounds", bounds)
        if not 0.0 <= self.s_lo < 1.0:
            raise ValueError("s_lo must lie in [0, 1)")

    @cached_property
    def _axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The participation axis, then the fee axes of players 1 and 2."""
        return (_axis(self.s_lo, 1.0, self.steps),
                *(_axis(0.0, bound, self.steps) for bound in self.fee_bounds))

    def participation_axis(self) -> np.ndarray:
        return self._axes[0]

    def fee_axis(self, player: int) -> np.ndarray:
        if player not in (1, 2):
            raise ValueError("player must be 1 or 2")
        return self._axes[player]


@dataclass(frozen=True)
class GamePayoffs:
    """Payoff functions of the two users and the middleman.

    Each callable maps a :class:`StrategyProfile` to a real value and must
    broadcast over array-valued profile fields.
    """

    payoff_user1: Callable[[StrategyProfile], Value]
    payoff_user2: Callable[[StrategyProfile], Value]
    payoff_middleman: Callable[[StrategyProfile], Value]

    def payoffs(self, profile: StrategyProfile) -> tuple[float, float, float]:
        """All three payoffs at a scalar profile."""
        return (
            float(self.payoff_user1(profile)),
            float(self.payoff_user2(profile)),
            float(self.payoff_middleman(profile)),
        )
