"""Concrete payoff construction: benefit families, fee-capped user payoffs,
participation-gated middleman income, and monotonicity checkers.

Users receive their gross benefit minus the access fee while the fee stays
affordable, and nothing once overcharged. The middleman earns her net income
only while neither user is overcharged.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import product

import numpy as np

from .game import GamePayoffs, Grid, StrategyProfile, Value

# Strictness margin for monotonicity checks: adjacent lattice values closer
# than this are treated as ties.
STRICT_TOL = 1e-12


class FieldError(ValueError):
    """A constructor rejected a value. ``field`` names the offending
    constructor field, or is None for a rule over several fields;
    ``problem`` is the text after that name."""

    def __init__(self, field: str | None, problem: str):
        super().__init__(f"{field} {problem}" if field else problem)
        self.field = field
        self.problem = problem


def _as_scalar(out):
    return float(out) if np.ndim(out) == 0 else out


class BenefitSpec:
    """Base for benefit/activity functions on the unit participation square."""

    def evaluate(self, s1: Value, s2: Value) -> Value:
        raise NotImplementedError

    def __call__(self, s1: Value, s2: Value) -> Value:
        return self.evaluate(s1, s2)


@dataclass(frozen=True)
class CobbDouglas(BenefitSpec):
    """s1**alpha * s2**beta with positive exponents."""

    alpha: float
    beta: float

    def __post_init__(self):
        for name in ("alpha", "beta"):
            if not getattr(self, name) > 0:
                raise FieldError(name, "must be > 0")

    def evaluate(self, s1, s2):
        return _as_scalar(np.asarray(s1) ** self.alpha * np.asarray(s2) ** self.beta)


@dataclass(frozen=True)
class Linear(BenefitSpec):
    """w1*s1 + w2*s2 with nonnegative weights."""

    w1: float
    w2: float

    def __post_init__(self):
        for name in ("w1", "w2"):
            if not getattr(self, name) >= 0:
                raise FieldError(name, "must be >= 0")

    def evaluate(self, s1, s2):
        return _as_scalar(self.w1 * np.asarray(s1) + self.w2 * np.asarray(s2))


def _node_table(values, ndim: int) -> np.ndarray:
    """``values`` as a float table of ``ndim`` axes, each with at least 2
    nodes, every entry finite and nonnegative."""
    try:
        v = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError):
        raise FieldError("values", "must be a rectangular table of numbers") from None
    if v.ndim != ndim or any(n < 2 for n in v.shape):
        raise FieldError("values", f"must be a {ndim}-D table, at least 2 nodes per axis")
    if not np.all((v >= 0) & (v < np.inf)):
        raise FieldError("values", "must be finite and nonnegative")
    return v


def _node_coords(x, size):
    """Lower node index and fractional offset for interpolation on [0, 1]."""
    t = np.asarray(x) * (size - 1)
    i = np.clip(np.floor(t).astype(np.intp), 0, size - 2)
    return i, t - i


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
        v = self.values
        i, fx = _node_coords(s1, v.shape[0])
        j, fy = _node_coords(s2, v.shape[1])
        out = (
            v[i, j] * (1 - fx) * (1 - fy)
            + v[i + 1, j] * fx * (1 - fy)
            + v[i, j + 1] * (1 - fx) * fy
            + v[i + 1, j + 1] * fx * fy
        )
        return _as_scalar(out)


class IncomeSpec:
    """Base for middleman net-income functions of (rho1, rho2, s1, s2)."""

    def evaluate(self, rho1: Value, rho2: Value, s1: Value, s2: Value) -> Value:
        raise NotImplementedError

    def __call__(self, rho1, rho2, s1, s2):
        return self.evaluate(rho1, rho2, s1, s2)


@dataclass(frozen=True)
class MultiplicativeIncome(IncomeSpec):
    """(rho1 + rho2) times a perceived activity level."""

    activity: BenefitSpec

    def evaluate(self, rho1, rho2, s1, s2):
        return _as_scalar(
            (np.asarray(rho1) + np.asarray(rho2)) * self.activity(s1, s2)
        )


@dataclass(frozen=True)
class AdditiveFeesIncome(IncomeSpec):
    """Fee revenue rho1 + rho2, independent of participation."""

    def evaluate(self, rho1, rho2, s1, s2):
        return _as_scalar(np.asarray(rho1) + np.asarray(rho2))


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
        bounds = tuple(float(b) for b in self.fee_bounds)
        if len(bounds) != 2:
            raise FieldError("fee_bounds", "must be a pair")
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
        v = self.values
        coords = (
            np.clip(np.asarray(rho1) / self.fee_bounds[0], 0.0, 1.0),
            np.clip(np.asarray(rho2) / self.fee_bounds[1], 0.0, 1.0),
            np.asarray(s1),
            np.asarray(s2),
        )
        nodes = [_node_coords(x, n) for x, n in zip(coords, v.shape)]
        out = 0.0
        for corner in product((0, 1), repeat=4):
            w = 1.0
            sel = []
            for (i, f), bit in zip(nodes, corner):
                sel.append(i + bit)
                w = w * (f if bit else 1 - f)
            out = out + v[tuple(sel)] * w
        return _as_scalar(out)


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
    if i not in (1, 2):
        raise ValueError("user index must be 1 or 2")
    f = game.f1 if i == 1 else game.f2
    rho = profile.rho1 if i == 1 else profile.rho2
    return _as_scalar(capped_surplus(f(profile.s1, profile.s2), rho))


def gated_income(game: HedonicGame, rho1: Value, rho2: Value, s1: Value, s2: Value) -> Value:
    """Net income at participation (s1, s2) while both fees stay affordable
    there (the cap binds at equality), 0 otherwise."""
    # Income before the mask, then gated in place when only this frame holds
    # it (numpy's own test for reusing a temporary): with np.where's second
    # full-size array a pareto_check slice outgrows glibc's heap trim
    # threshold, and re-faulting the trimmed pages made it up to 3x slower.
    b1 = game.f1(s1, s2)
    b2 = game.f2(s1, s2)
    income = game.income(rho1, rho2, s1, s2)
    affordable = (np.asarray(rho1) <= b1) & (np.asarray(rho2) <= b2)
    if (
        type(income) is np.ndarray
        and income.flags.owndata
        and income.flags.writeable
        and income.dtype == np.float64
        and income.shape == affordable.shape
        and sys.getrefcount(income) == 2
    ):
        np.copyto(income, 0.0, where=~affordable)
        return income
    return _as_scalar(np.where(affordable, income, 0.0))


def middleman_payoff(game: HedonicGame, profile: StrategyProfile) -> Value:
    """Net income while neither user is overcharged, 0 otherwise."""
    return gated_income(game, profile.rho1, profile.rho2, profile.s1, profile.s2)


@dataclass(frozen=True)
class HedonicPayoffs(GamePayoffs):
    """The payoff bundle of a :class:`HedonicGame`, carrying the game so an
    oracle can use its structure (see ``oracles.pareto_check``)."""

    game: HedonicGame


def game_payoffs(game: HedonicGame) -> HedonicPayoffs:
    """Bundle the three payoff functions for the generic oracles."""
    return HedonicPayoffs(
        payoff_user1=lambda p: user_payoff(game, 1, p),
        payoff_user2=lambda p: user_payoff(game, 2, p),
        payoff_middleman=lambda p: middleman_payoff(game, p),
        game=game,
    )


def full_extraction_fees(game: HedonicGame) -> tuple[float, float]:
    """Fee pair extracting the entire benefit at maximal participation."""
    return (float(game.f1(1.0, 1.0)), float(game.f2(1.0, 1.0)))


def _lattice_steps(f: BenefitSpec, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Differences of f between adjacent lattice nodes along s1 and along s2."""
    ax = grid.participation_axis()
    vals = np.asarray(f(ax[:, None], ax[None, :]))
    return np.diff(vals, axis=0), np.diff(vals, axis=1)


def benefit_strictly_increasing(f: BenefitSpec, grid: Grid) -> bool:
    """True iff f strictly increases along every grid line in each coordinate."""
    return all(bool((d > STRICT_TOL).all()) for d in _lattice_steps(f, grid))


def benefit_weakly_increasing(f: BenefitSpec, grid: Grid) -> bool:
    """True iff f is nondecreasing along every grid line in each coordinate."""
    return all(bool((d >= -STRICT_TOL).all()) for d in _lattice_steps(f, grid))


def income_weakly_increasing(income: IncomeSpec, grid: Grid) -> bool:
    """True iff income is nondecreasing in each of its four arguments on the lattice.

    Evaluation streams one hyperplane at a time, so large grids never
    materialise the full 4-D tensor.
    """
    r1 = grid.fee_axis(1)
    r2 = grid.fee_axis(2)
    s = grid.participation_axis()
    axes = (r1, r2, s, s)

    for k, axis in enumerate(axes):
        shapes = []
        for pos, other in enumerate(axes):
            if pos == k:
                continue
            shape = [1, 1, 1]
            shape[len(shapes)] = other.size
            shapes.append(other.reshape(shape))
        prev = None
        for value in axis:
            args = shapes[:k] + [value] + shapes[k:]
            cur = np.asarray(income(*args))
            if prev is not None and np.any(cur < prev - STRICT_TOL):
                return False
            prev = cur
    return True

