"""Strategy profiles, evaluation grids, and generic three-player payoff bundles.

Two users choose participation levels in [0, 1] and a middleman a
nonnegative fee pair. Profile fields may hold numpy arrays (broadcast
together), so payoff functions evaluate whole deviation grids in one call.
:func:`_numbers`, :func:`_integer`, :func:`_count` and :func:`_player` are the number,
integer, lattice-count and player-index rules; :func:`_prefix_len` counts or
bisects a true prefix along a sorted lattice axis.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Union

import numpy as np

Value = Union[float, np.ndarray]


class FieldError(ValueError):
    """``field`` names the rejected value (None for a rule over several
    fields) and ``problem`` the text after it."""

    def __init__(self, field: str | None, problem: str):
        super().__init__(f"{field} {problem}" if field else problem)
        self.field = field
        self.problem = problem


def _number(value, name: str) -> float:
    """One number as a float (see :func:`_numbers`)."""
    if type(value) is float:
        return value
    values = _numbers(value, name)
    if values.ndim:
        raise FieldError(name, "must be a number")
    return float(values)


def _numbers(value, name: str) -> np.ndarray:
    """``value`` as float64, or a ``FieldError`` naming ``name`` unless each
    entry is an int or a float (Python or numpy, not bool). Lists are read
    entry by entry: numpy reads ``[0.5, True]`` as floats. An int beyond the
    float range is the infinity of its sign."""
    if isinstance(value, float):
        return np.float64(value)
    items = np.asarray(value, object) if isinstance(value, (list, tuple)) else np.asarray(value)
    if items.dtype.kind not in "iuf" and not all(
            isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)
            for x in items.flat):
        raise FieldError(name, "must be a number")
    try:
        return items.astype(np.float64)
    except OverflowError:
        top = sys.float_info.max  # exact against an int
        entries = [x if not isinstance(x, int) or abs(x) <= top else np.inf * np.sign(x)
                   for x in items.flat]
        return np.array(entries, np.float64).reshape(items.shape)


def _integer(value) -> bool:
    """True for an int or a numpy integer, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _count(value, name: str):
    """A lattice's subdivisions: an integer of at least 2."""
    if not _integer(value):
        raise TypeError(f"{name} must be an integer")
    if value < 2:
        raise FieldError(name, "must be at least 2")


def _player(value, name: str):
    """A player's index: an integer equal to 1 or 2."""
    if not _integer(value) or value not in (1, 2):
        raise FieldError(name, "must be 1 or 2")


def _prefix_len(holds, stop):
    """For each entry of the integer array ``stop``, the length of the true
    prefix of ``range(stop)`` of a predicate that is true and then false
    along it. One point (``stop`` of shape ``(1,)``) is counted: ``holds`` is
    called once, on ``arange(stop)``. Many are bisected: ``holds(k)`` is
    called with ``k`` shaped like ``stop``, every entry below ``max(stop)``,
    once in each of ``max(stop).bit_length()`` rounds, each extending every
    point's prefix by the next smaller power of two.
    """
    if stop.shape == (1,):
        return np.array([np.count_nonzero(holds(np.arange(stop[0])))])
    top = int(stop.max(initial=0))
    length = np.zeros_like(stop)
    step = (1 << top.bit_length()) >> 1  # the largest power of two <= top
    while step:
        longer = length + step
        length = np.where((longer <= stop) & holds(np.minimum(longer, top) - 1), longer, length)
        step >>= 1
    return length


@dataclass(frozen=True)
class StrategyProfile:
    """A joint strategy: participation levels (s1, s2) and fee pair (rho1, rho2).

    Each field, checked in that order, is a number or an array of numbers.
    A number that is not a float (an int, a float32, a 0-d array) is stored
    as one, so no payoff or oracle meets another scalar type."""

    s1: Value
    s2: Value
    rho1: Value
    rho2: Value

    def __post_init__(self):
        for name in ("s1", "s2", "rho1", "rho2"):
            value = getattr(self, name)
            v = _numbers(value, name)
            if name[0] == "s":
                if not ((v >= 0.0) & (v <= 1.0)).all():
                    raise ValueError(f"{name} must lie in [0, 1]")
            elif not (v >= 0.0).all():
                raise ValueError(f"{name} must be nonnegative")
            if not isinstance(value, float) and not v.ndim:
                object.__setattr__(self, name, float(v))


def _axis(lo: float, hi: float, steps: int) -> np.ndarray:
    # arange/steps keeps representable fractions (e.g. 10/20 = 0.5) exact,
    # and the endpoint is forced so caps evaluated at `hi` hold with equality.
    pts = lo + (hi - lo) * (np.arange(steps + 1) / steps)
    pts[-1] = hi
    pts.flags.writeable = False
    return pts


def _float_pair(values, name: str) -> tuple[float, float]:
    """``values`` as two floats, or a :class:`FieldError` naming ``name``."""
    try:
        pair = _numbers(values, name)
        if pair.shape == (2,):
            return tuple(pair.tolist())
    except ValueError:
        pass
    raise FieldError(name, "must be a pair of numbers")


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
        _count(self.steps, "steps")
        bounds = _float_pair(self.fee_bounds, "fee_bounds")
        if not all(0.0 <= b < np.inf for b in bounds):
            raise FieldError("fee_bounds", "must be finite and nonnegative")
        object.__setattr__(self, "fee_bounds", bounds)
        if not 0.0 <= _number(self.s_lo, "s_lo") < 1.0:
            raise FieldError("s_lo", "must lie in [0, 1)")

    @cached_property
    def _axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The participation axis, then the fee axes of players 1 and 2."""
        return (_axis(self.s_lo, 1.0, self.steps),
                *(_axis(0.0, bound, self.steps) for bound in self.fee_bounds))

    def participation_axis(self) -> np.ndarray:
        return self._axes[0]

    def fee_axis(self, player: int) -> np.ndarray:
        _player(player, "player")
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
