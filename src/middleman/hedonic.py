"""Concrete payoff construction: benefit families, fee-capped user payoffs,
participation-gated middleman income, and monotonicity checkers.

Users receive their gross benefit minus the access fee while the fee stays
affordable, and nothing once overcharged. The middleman earns her net income
only while neither user is overcharged. Each rule has one implementation:
:func:`capped_surplus` and :func:`gated_income`; both tabulated families
interpolate through one multilinear routine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .game import FieldError, GamePayoffs, Grid, StrategyProfile, Value
from .game import _float_pair, _number, _numbers, _player

# Strictness margin for monotonicity checks: adjacent lattice values closer
# than this are treated as ties.
STRICT_TOL = 1e-12


def _require_fields(spec, names, ok, rule: str):
    """Raise a :class:`FieldError` for the first of ``names`` on ``spec``
    that is not one number, not finite, or fails ``ok`` (text ``rule``)."""
    for name in names:
        v = _number(getattr(spec, name), name)
        if not math.isfinite(v):
            raise FieldError(name, "must be finite")
        if not ok(v):
            raise FieldError(name, rule)


def _as_scalar(out):
    return float(out) if np.ndim(out) == 0 else out


class BenefitSpec:
    """Base for benefit/activity functions on the unit participation square.
    A call hands ``evaluate`` numpy arrays and returns a 0-d result as a float."""

    def evaluate(self, s1: np.ndarray, s2: np.ndarray) -> Value:
        raise NotImplementedError

    def __call__(self, s1: Value, s2: Value) -> Value:
        return _as_scalar(self.evaluate(np.asarray(s1), np.asarray(s2)))


@dataclass(frozen=True)
class CobbDouglas(BenefitSpec):
    """s1**alpha * s2**beta with positive exponents."""

    alpha: float
    beta: float

    def __post_init__(self):
        _require_fields(self, ("alpha", "beta"), lambda v: v > 0, "must be > 0")

    def evaluate(self, s1, s2):
        return s1**self.alpha * s2**self.beta


@dataclass(frozen=True)
class Linear(BenefitSpec):
    """w1*s1 + w2*s2 with nonnegative weights."""

    w1: float
    w2: float

    def __post_init__(self):
        _require_fields(self, ("w1", "w2"), lambda v: v >= 0, "must be >= 0")

    def evaluate(self, s1, s2):
        return self.w1 * s1 + self.w2 * s2


def _node_table(values, ndim: int) -> np.ndarray:
    """``values`` as a read-only float table of ``ndim`` axes, each with at
    least 2 nodes, every entry finite and nonnegative. The table is a copy,
    so the caller's array stays writable."""
    try:
        v = _numbers(values, "values")
    except ValueError:
        raise FieldError("values", "must be a rectangular table of numbers") from None
    if v.ndim != ndim or any(n < 2 for n in v.shape):
        raise FieldError("values", f"must be a {ndim}-D table, at least 2 nodes per axis")
    if not np.all((v >= 0) & (v < np.inf)):
        raise FieldError("values", "must be finite and nonnegative")
    v.setflags(write=False)
    return v


def _node_coords(x, size):
    """Lower node index and fractional offset for interpolation on [0, 1]."""
    t = x * (size - 1)
    i = np.clip(np.floor(t).astype(np.intp), 0, size - 2)
    return i, t - i


def _multilinear(values: np.ndarray, coords) -> Value:
    """Multilinear interpolation of a node table's last ``len(coords)`` axes
    at one position in [0, 1] per axis: the weighted sum over the corners of
    each point's cell. Leading axes are kept, ahead of the points' axes."""
    nodes = [_node_coords(x, n) for x, n in zip(coords, values.shape[values.ndim - len(coords):])]
    out = 0.0
    for corner in product((0, 1), repeat=len(coords)):
        w = 1.0
        for (_, f), bit in zip(nodes, corner):
            w = w * (f if bit else 1 - f)
        out = out + values[(..., *(i + bit for (i, _), bit in zip(nodes, corner)))] * w
    return out


@dataclass(frozen=True, eq=False)
class TabulatedBenefit(BenefitSpec):
    """Bilinear interpolation of a nonnegative node table on [0, 1]^2."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _node_table(self.values, 2))

    def __eq__(self, other):
        return isinstance(other, TabulatedBenefit) and np.array_equal(
            self.values, other.values
        )

    def evaluate(self, s1, s2):
        return _multilinear(self.values, (s1, s2))


class IncomeSpec:
    """Base for middleman net-income functions of (rho1, rho2, s1, s2).
    A call hands ``evaluate`` numpy arrays and returns a 0-d result as a float."""

    def evaluate(self, rho1: np.ndarray, rho2: np.ndarray, s1: np.ndarray, s2: np.ndarray):
        raise NotImplementedError

    def __call__(self, rho1, rho2, s1, s2):
        return _as_scalar(self.evaluate(*map(np.asarray, (rho1, rho2, s1, s2))))


@dataclass(frozen=True)
class MultiplicativeIncome(IncomeSpec):
    """(rho1 + rho2) times a perceived activity level."""

    activity: BenefitSpec

    def evaluate(self, rho1, rho2, s1, s2):
        return (rho1 + rho2) * self.activity(s1, s2)


@dataclass(frozen=True)
class AdditiveFeesIncome(IncomeSpec):
    """Fee revenue rho1 + rho2, independent of participation."""

    def evaluate(self, rho1, rho2, s1, s2):
        return rho1 + rho2


@dataclass(frozen=True, eq=False)
class TabulatedIncome(IncomeSpec):
    """Multilinear interpolation of a 4-D node table.

    Axes are (rho1, rho2, s1, s2); fee axes span [0, fee_bounds[i]] and
    evaluations beyond a bound clamp to the table edge.
    """

    values: np.ndarray
    fee_bounds: tuple[float, float]

    def __post_init__(self):
        object.__setattr__(self, "values", _node_table(self.values, 4))
        bounds = _float_pair(self.fee_bounds, "fee_bounds")
        if not all(0 < b < np.inf for b in bounds):
            raise FieldError("fee_bounds", "must be > 0 and finite")
        object.__setattr__(self, "fee_bounds", bounds)

    def __eq__(self, other):
        return (
            isinstance(other, TabulatedIncome)
            and self.fee_bounds == other.fee_bounds
            and np.array_equal(self.values, other.values)
        )

    def evaluate(self, rho1, rho2, s1, s2):
        r1, r2 = (np.clip(r / b, 0.0, 1.0) for r, b in zip((rho1, rho2), self.fee_bounds))
        return _multilinear(self.values, (r1, r2, s1, s2))


def _fee_falls(income: TabulatedIncome, fees, s) -> tuple[np.ndarray, np.ndarray]:
    """Where ``income`` may fall as a fee rises on the box ``[0, fees]`` at
    participation ``s``, for each point of the 1-D arrays in the pairs
    ``fees`` and ``s``: the index of the first node difference below 0 of
    the table interpolated at ``s``, on the cells that meet the box, and its
    value. Differences run along ``rho1`` (``(n1 - 1) x n2`` of them), then
    along ``rho2`` (``n1 x (n2 - 1)``), each in C order; the index is -1
    where none falls (see :func:`_fee_fall_text`).

    At fixed ``s`` the income is bilinear in the fees on each cell, so it
    rises in a fee on the cell iff the cell's two node differences along that
    fee are >= 0: exact on whole cells, and safe where the box cuts one. The
    box's fees are scaled and clamped as :meth:`TabulatedIncome.evaluate`
    scales them."""
    n1, n2 = income.values.shape[:2]
    table = _multilinear(income.values, s)  # (n1, n2, points)
    # the nodes of the cells the box meets: 0..top along each axis
    top1, top2 = (np.ceil(np.clip(f / b, 0.0, 1.0) * (n - 1))
                  for f, b, n in zip(fees, income.fee_bounds, (n1, n2)))
    i, j = np.arange(n1)[:, None, None], np.arange(n2)[None, :, None]
    steps = np.concatenate([np.diff(table, axis=0).reshape(-1, table.shape[-1]),
                            np.diff(table, axis=1).reshape(-1, table.shape[-1])])
    inside = np.concatenate([((i[1:] <= top1) & (j <= top2)).reshape(-1, top1.size),
                             ((i <= top1) & (j[:, 1:] <= top2)).reshape(-1, top1.size)])
    falls = (steps < 0) & inside
    first = np.where(falls.any(axis=0), np.argmax(falls, axis=0), -1)
    return first, steps[first, np.arange(first.size)]


def _fee_fall_text(income: TabulatedIncome, first: int, step: float, s) -> str:
    """Names the difference :func:`_fee_falls` found: its two fee nodes."""
    n1, n2 = income.values.shape[:2]
    if first < (n1 - 1) * n2:
        (i, j), (di, dj) = divmod(first, n2), (1, 0)
    else:
        (i, j), (di, dj) = divmod(first - (n1 - 1) * n2, n2 - 1), (0, 1)
    b1, b2 = income.fee_bounds
    lo, hi = (f"({a * b1 / (n1 - 1):g}, {b * b2 / (n2 - 1):g})"
              for a, b in ((i, j), (i + di, j + dj)))
    return (f"threshold test requires income weakly increasing in the fees, but at "
            f"s = ({s[0]:g}, {s[1]:g}) it changes by {step:g} from fees {lo} to {hi}")


@dataclass(frozen=True)
class HedonicGame:
    """Two benefit functions plus one middleman income function.

    ``tag`` is "benchmark" for games whose benefits are strictly increasing on
    the working grid, "externality" for multiplicative-externality games whose
    benefits vanish whenever one user opts out.
    """

    f1: BenefitSpec
    f2: BenefitSpec
    income: IncomeSpec
    tag: str = "benchmark"

    def __post_init__(self):
        if self.tag not in ("benchmark", "externality"):
            raise FieldError("tag", f"must be 'benchmark' or 'externality', got {self.tag!r}")


def capped_surplus(benefit: Value, rho: Value) -> np.ndarray:
    """Benefit minus fee while affordable (the cap binds at equality), 0 once overcharged."""
    return np.where(np.asarray(rho) <= benefit, benefit - rho, 0.0)


def user_payoff(game: HedonicGame, i: int, profile: StrategyProfile) -> Value:
    """User i's :func:`capped_surplus` at the profile's participation and fee."""
    _player(i, "user index")
    f, rho = (game.f1, profile.rho1) if i == 1 else (game.f2, profile.rho2)
    return _as_scalar(capped_surplus(f(profile.s1, profile.s2), rho))


def gated_income(game: HedonicGame, rho1: Value, rho2: Value, s1: Value, s2: Value) -> Value:
    """Net income at participation (s1, s2) while both fees stay affordable
    there (the cap binds at equality), 0 otherwise."""
    affordable = (np.asarray(rho1) <= game.f1(s1, s2)) & (np.asarray(rho2) <= game.f2(s1, s2))
    return _as_scalar(np.where(affordable, game.income(rho1, rho2, s1, s2), 0.0))


def middleman_payoff(game: HedonicGame, profile: StrategyProfile) -> Value:
    """Net income while neither user is overcharged, 0 otherwise."""
    return gated_income(game, profile.rho1, profile.rho2, profile.s1, profile.s2)


# Benefit families that are nonnegative on the participation box (so a zero
# fee is always affordable), and income families that never fall as a fee
# rises when such a family is their activity (sums and products of
# nonnegative floats round monotonically; tabulated income's interpolation
# can break fee monotonicity at the ulp level).
_NONNEGATIVE_BENEFITS = (CobbDouglas, Linear, TabulatedBenefit)
_FEE_MONOTONE_INCOMES = (MultiplicativeIncome, AdditiveFeesIncome)


@dataclass(frozen=True)
class HedonicPayoffs(GamePayoffs):
    """The payoff bundle of a :class:`HedonicGame`, carrying the game so an
    oracle can use its structure. Users earn :func:`user_payoff` and the
    middleman the game's :func:`gated_income`, unless a subclass says otherwise."""

    game: HedonicGame

    def middleman(self, rho1: Value, rho2: Value, s1: Value, s2: Value) -> Value:
        """``payoff_middleman`` at these profile fields, without a profile."""
        return gated_income(self.game, rho1, rho2, s1, s2)

    def gates(self, s1: float, s2: float) -> tuple | None:
        """The participation levels ``(u1, u2)`` whose :func:`gated_income`
        terms, with nonnegative weights, make up the middleman's payoff at
        participation ``(s1, s2)`` as the fees vary, each term never falling as
        a fee rises while its gate stays open, in floating point too. None
        where that is not known, and the oracles scan the fee lattice. Here
        ``(s1, s2)`` alone, for the families named above."""
        income = self.game.income
        specs = [self.game.f1, self.game.f2]
        if type(income) is MultiplicativeIncome:
            specs.append(income.activity)
        if type(income) in _FEE_MONOTONE_INCOMES and all(
                type(f) in _NONNEGATIVE_BENEFITS for f in specs):
            return ((s1, s2),)
        return None


def game_payoffs(game: HedonicGame) -> HedonicPayoffs:
    """Bundle the three payoff functions for the generic oracles."""
    return HedonicPayoffs(
        payoff_user1=lambda p: user_payoff(game, 1, p),
        payoff_user2=lambda p: user_payoff(game, 2, p),
        payoff_middleman=lambda p: middleman_payoff(game, p),
        game=game,
    )


def fee_monotone(payoffs: GamePayoffs) -> bool:
    """True iff ``payoffs`` is a :class:`HedonicPayoffs` whose ``gates`` name
    its own level and nothing else: the bundles ``oracles.pareto_check``
    decides on its corner path (the modified game's name three levels)."""
    return isinstance(payoffs, HedonicPayoffs) and payoffs.gates(1.0, 1.0) == ((1.0, 1.0),)


def full_extraction_fees(game: HedonicGame) -> tuple[float, float]:
    """Fee pair ``F`` extracting the entire benefit at maximal participation.
    A :class:`FieldError` names the benefit whose value there is not finite
    (a linear benefit's weights may each be finite while their sum
    overflows), or else the income, if ``income(F1, F2, 1, 1)`` is not."""
    with np.errstate(over="ignore", invalid="ignore"):
        fees = (float(game.f1(1.0, 1.0)), float(game.f2(1.0, 1.0)))
        for name, fee in zip(("f1", "f2"), fees):
            if not math.isfinite(fee):
                raise FieldError(name, f"{name}(1, 1) must be finite, got {fee:g}")
        income = float(game.income(*fees, 1.0, 1.0))
    if not math.isfinite(income):
        raise FieldError("income", f"income(F1, F2, 1, 1) must be finite, got {income:g}")
    return fees


def benefit_strictly_increasing(f: BenefitSpec, grid: Grid) -> bool:
    """True iff f strictly increases along every grid line in each coordinate.

    A lattice sample, not the threshold's hypothesis: the verdict checks
    ``f_i(l) <= f_i(1, 1)`` itself (``ambiguity._threshold_fees``)."""
    ax = grid.participation_axis()
    vals = np.asarray(f(ax[:, None], ax[None, :]))
    return all(bool((np.diff(vals, axis=a) > STRICT_TOL).all()) for a in (0, 1))


def income_weakly_increasing(income: IncomeSpec, grid: Grid) -> bool:
    """True iff income is nondecreasing in each of its four arguments on the lattice.

    A lattice sample, not the threshold's hypothesis: the verdict checks the
    income's fee monotonicity on its own boxes (``ambiguity._threshold_fees``).

    Evaluation streams one rho1 hyperplane, a (rho2, s1, s2) block, at a
    time, so large grids never materialise the full 4-D tensor. Each block is
    compared along its own three axes and with the block before it, so every
    adjacent pair of lattice values is compared once.
    """
    r2 = grid.fee_axis(2)[:, None, None]
    s = grid.participation_axis()
    shape = (r2.size, s.size, s.size)
    prev = None
    for rho1 in grid.fee_axis(1):
        cur = np.broadcast_to(income(rho1, r2, s[:, None], s), shape)
        pairs = [(cur[1:], cur[:-1]), (cur[:, 1:], cur[:, :-1]), (cur[:, :, 1:], cur[:, :, :-1])]
        if prev is not None:
            pairs.append((cur, prev))
        if any(np.any(later < earlier - STRICT_TOL) for later, earlier in pairs):
            return False
        prev = cur
    return True

