"""Brute-force grid oracles: Nash, weak dominance, Pareto efficiency, and the
zero-participation equilibrium family.

All oracles discretise deviations on a :class:`~middleman.game.Grid` and
treat improvements of at most ``eps`` as ties, so verdicts are monotone in
``eps``. Scans stream one participation slice at a time, keeping memory flat
even at high resolutions, and reduce each slice with the numpy comparisons
in ``_scan``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import _scan
from .game import GamePayoffs, Grid, StrategyProfile


def _validate_eps(eps):
    eps = float(eps)
    if not 0.0 <= eps < np.inf:
        raise ValueError(f"eps must be finite and nonnegative, got {eps:g}")
    return eps


def _require_in_box(profile: StrategyProfile, grid: Grid):
    for name in ("s1", "s2"):
        if np.any(np.asarray(getattr(profile, name)) < grid.s_lo):
            raise ValueError(f"profile outside the strategy box: {name} < s_lo")
    for player, rho in ((1, profile.rho1), (2, profile.rho2)):
        if np.any(np.asarray(rho) > grid.fee_bounds[player - 1]):
            raise ValueError(
                f"profile outside the strategy box: rho{player} exceeds its fee bound"
            )


def epsilon_nash_check(
    game: GamePayoffs, profile: StrategyProfile, grid: Grid, eps: float = 1e-9
) -> bool:
    """True iff no player gains more than ``eps`` by a unilateral grid deviation.

    Users deviate in their own participation level only; the middleman
    deviates in the fee pair jointly over the full fee-pair lattice.
    """
    eps = _validate_eps(eps)
    _require_in_box(profile, grid)
    s_axis = grid.participation_axis()

    base = game.payoff_user1(profile)
    alts = game.payoff_user1(
        StrategyProfile(s_axis, profile.s2, profile.rho1, profile.rho2)
    )
    if _scan.any_improvement(alts, base, eps):
        return False

    base = game.payoff_user2(profile)
    alts = game.payoff_user2(
        StrategyProfile(profile.s1, s_axis, profile.rho1, profile.rho2)
    )
    if _scan.any_improvement(alts, base, eps):
        return False

    r1 = grid.fee_axis(1)
    r2 = grid.fee_axis(2)
    base = game.payoff_middleman(profile)
    alts = game.payoff_middleman(
        StrategyProfile(profile.s1, profile.s2, r1[:, None], r2[None, :])
    )
    return not _scan.any_improvement(alts, base, eps)


def weak_dominance_check(
    game: GamePayoffs, player: int, candidate: float, grid: Grid, eps: float = 1e-9
) -> bool:
    """True iff ``candidate`` weakly dominates every grid strategy of user ``player``.

    For every grid profile of the other two players, the candidate's payoff
    must be at least every alternative's payoff minus ``eps``.
    """
    if player not in (1, 2):
        raise ValueError("player must be user 1 or user 2")
    eps = _validate_eps(eps)
    if not grid.s_lo <= candidate <= 1.0:
        raise ValueError("candidate must lie in the participation box")

    pay = game.payoff_user1 if player == 1 else game.payoff_user2
    s_axis = grid.participation_axis()
    r1 = grid.fee_axis(1)[:, None]
    r2 = grid.fee_axis(2)[None, :]

    own = s_axis[:, None, None]
    for s_other in s_axis:
        if player == 1:
            alts = pay(StrategyProfile(own, s_other, r1, r2))
            cand = pay(StrategyProfile(candidate, s_other, r1, r2))
        else:
            alts = pay(StrategyProfile(s_other, own, r1, r2))
            cand = pay(StrategyProfile(s_other, candidate, r1, r2))
        if _scan.any_dominance_gap(alts, cand, eps):
            return False
    return True


def pareto_check(
    game: GamePayoffs, profile: StrategyProfile, grid: Grid, eps: float = 1e-9
) -> bool:
    """True iff no grid profile weakly improves all three payoffs while
    strictly improving at least one by more than ``eps``."""
    eps = _validate_eps(eps)
    _require_in_box(profile, grid)
    t1, t2, t3 = (
        game.payoff_user1(profile),
        game.payoff_user2(profile),
        game.payoff_middleman(profile),
    )

    s_axis = grid.participation_axis()
    s2 = s_axis[:, None, None]
    r1 = grid.fee_axis(1)[None, :, None]
    r2 = grid.fee_axis(2)[None, None, :]
    for s1 in s_axis:
        slice_profile = StrategyProfile(s1, s2, r1, r2)
        # No slice array outlives its scan, so each slice reuses the same heap
        # blocks (see the note in hedonic.gated_income).
        if _scan.any_strict_dominator(
            game.payoff_user1(slice_profile),
            game.payoff_user2(slice_profile),
            game.payoff_middleman(slice_profile),
            t1, t2, t3, eps,
        ):
            return False
    return True


def trivial_equilibria_check(
    game: GamePayoffs,
    rho_samples: Sequence[tuple[float, float]],
    grid: Grid,
    eps: float = 1e-9,
) -> bool:
    """True iff (0, 0, rho) is an epsilon-Nash profile for every sampled fee pair.

    Only meaningful for multiplicative-externality benefits, where opting out
    kills all gains; the precondition f(0, .) = f(., 0) = 0 is probed through
    the zero-fee user payoffs and a violation raises. Fee samples may exceed
    the grid's fee bounds; the bound is raised per sample so the profile stays
    inside the strategy box.
    """
    eps = _validate_eps(eps)
    probes = (
        (game.payoff_user1, StrategyProfile(0.0, 1.0, 0.0, 0.0), "f1(0, 1)"),
        (game.payoff_user1, StrategyProfile(1.0, 0.0, 0.0, 0.0), "f1(1, 0)"),
        (game.payoff_user2, StrategyProfile(0.0, 1.0, 0.0, 0.0), "f2(0, 1)"),
        (game.payoff_user2, StrategyProfile(1.0, 0.0, 0.0, 0.0), "f2(1, 0)"),
    )
    for pay, probe, label in probes:
        if abs(float(pay(probe))) > 1e-12:
            raise ValueError(
                f"benefits do not vanish on the opt-out boundary: {label} != 0"
            )
    if grid.s_lo != 0.0:
        raise ValueError("zero-participation check needs a grid reaching s = 0")

    for rho1, rho2 in rho_samples:
        bounds = (
            max(grid.fee_bounds[0], float(rho1)),
            max(grid.fee_bounds[1], float(rho2)),
        )
        profile = StrategyProfile(0.0, 0.0, float(rho1), float(rho2))
        if not epsilon_nash_check(game, profile, grid.with_fee_bounds(bounds), eps):
            return False
    return True
