"""Grid oracles: Nash, weak dominance, Pareto efficiency, and the
zero-participation equilibrium family.

All oracles discretise deviations on a :class:`~middleman.game.Grid` and
treat improvements of at most ``eps`` as ties, so verdicts are monotone in
``eps``, a rule ``_scan`` alone applies. The brute-force scans are the
reference. Dominance and Pareto each run one loop over blocks of an outer
participation axis, choosing by bundle kind what a block's payoffs are, how
many elements one level of them holds, and which ``_scan`` rule judges them;
the Nash scan of the middleman's fee lattice loops over blocks of ``r1``
rows the same way. Every block, the first included, holds as many levels as
keep that count within ``_BLOCK_ELEMENTS`` elements, so memory stays flat at
any resolution and a small grid is one block. ``epsilon_nash_check`` checks
its three deviation sets in order (user 1, user 2, the middleman), and
``weak_dominance_check`` evaluates the candidate as the last row of a block.

``weak_dominance_check`` decides every ``hedonic.HedonicPayoffs`` bundle
(``modified_game``'s too) in O(n^2) instead of O(n^3), from the largest
benefit over the own levels, and compares fees only in the contexts where
that benefit is not at most the candidate's. ``pareto_check`` decides the
``game_payoffs`` bundles whose income is multiplicative or additive over
nonnegative benefit families in O(n^2) instead of O(n^4). No payoff at a
participation level exceeds its value at the top level (1, 1) when neither
benefit nor the activity does, so the top is decided first, and then only
the levels that rise above it: none for Cobb-Douglas or linear families.
Each point is decided at one corner of its affordable fee box, whose indices
end prefixes of the sorted fee axes (``game._prefix_len``, which also
bisects the region map's rows): the top's single point is counted along
whole fee axes, O(n) in a fixed number of numpy calls, and many raised
points are bisected, O(log n) fees each.
``epsilon_nash_check`` evaluates each user's deviations of a hedonic
bundle, ``modified_game``'s included, in one benefit call, and for a
fee-monotone game only the middleman's fees at the corners of the
affordable fee boxes, at most 3 x 3 instead of (n + 1)^2.
All these paths evaluate the scan's own payoff expressions on the same
floats, so each verdict is the scan's; their docstrings give the arguments.
Every other game keeps the scan: tabulated income, for one, because its
interpolation can break fee monotonicity at the ulp level.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

import numpy as np

from . import _scan
from .game import FieldError, GamePayoffs, Grid, StrategyProfile, _number, _player, _prefix_len
from .hedonic import HedonicPayoffs, capped_surplus, fee_monotone

# Elements one block's payoffs may hold; measured in BENCH_oracle_blocks.json.
_BLOCK_ELEMENTS = 2**14


def _blocks(levels, payoffs, per_level):
    """Yield ``(block, payoffs(block))`` over consecutive runs of ``levels``'
    first axis, from the first level on: each run holds as many levels as keep
    ``per_level`` elements a level within ``_BLOCK_ELEMENTS`` (at least one),
    where ``per_level`` is what one level of the caller's payoffs holds."""
    size = max(1, _BLOCK_ELEMENTS // per_level)
    for start in range(0, len(levels), size):
        block = levels[start:start + size]
        yield block, payoffs(block)


def _validate_eps(eps):
    eps = _number(eps, "eps")
    if not 0.0 <= eps < np.inf:
        raise FieldError("eps", f"must be finite and nonnegative, got {eps:g}")
    return eps


def _require_in_box(profile: StrategyProfile, grid: Grid):
    """An oracle's profile is one strategy: each field one number in the box.
    ``StrategyProfile`` itself accepts arrays, which payoff calls broadcast."""
    for i, name in enumerate(("s1", "s2", "rho1", "rho2")):
        value = np.asarray(getattr(profile, name))
        if value.ndim:
            raise ValueError(f"profile field {name} must be a scalar")
        if i < 2 and value < grid.s_lo:
            raise ValueError(f"profile outside the strategy box: {name} < s_lo")
        if i >= 2 and value > grid.fee_bounds[i - 2]:
            raise ValueError(f"profile outside the strategy box: {name} exceeds its fee bound")


def epsilon_nash_check(
    game: GamePayoffs, profile: StrategyProfile, grid: Grid, eps: float = 1e-9
) -> bool:
    """True iff no player gains more than ``eps`` by a unilateral grid deviation.

    The three deviation sets are checked in order, stopping at the first
    gain: user 1 and then user 2 over their own participation axis, then the
    middleman jointly over the fee-pair lattice.

    A ``hedonic.HedonicPayoffs`` bundle (``game_payoffs`` and
    ``ambiguity.modified_game`` build them) evaluates each user's deviations
    in one ``capped_surplus(f_i(...), rho_i)`` call with the profile's own
    level, a float (see ``StrategyProfile``), as the last entry; elementwise
    ufuncs give that entry the bits of the profile's own payoff. Where the
    bundle names the levels whose gated incomes make up the middleman's
    payoff (``gates``), the middleman's fee deviations shrink to the corners
    of the affordable boxes ``r_i <= f_i(level)``, see :func:`_fee_corners`.
    Every other bundle, and every case the corners refuse, scans the
    lattice, one block of ``r1`` rows at a time.
    """
    eps = _validate_eps(eps)
    _require_in_box(profile, grid)
    return not any(_scan.any_improvement(values, base, eps)
                   for values, base in _nash_deviations(game, profile, grid))


def _nash_deviations(game, profile, grid):
    """Yield each deviation set's payoffs and the profile's own payoff, in
    the order :func:`epsilon_nash_check` checks them; a middleman scan one
    block of ``r1`` rows at a time, against one own payoff."""
    s_axis = grid.participation_axis()
    r1, r2 = grid.fee_axis(1), grid.fee_axis(2)
    fields = s1, s2, rho1, rho2 = profile.s1, profile.s2, profile.rho1, profile.rho2
    corners = None
    if isinstance(game, HedonicPayoffs):
        for f, i, rho in ((game.game.f1, 0, rho1), (game.game.f2, 1, rho2)):
            at = [s1, s2]
            at[i] = own = np.concatenate((s_axis, (fields[i],)))
            b = f(*at)
            if np.shape(b) != own.shape:  # a benefit that ignores the own level
                b = np.broadcast_to(b, own.shape)
            pays = capped_surplus(b, rho)
            yield pays[:-1], pays[-1]
        corners = _fee_corners(game, fields, r1, r2)
    else:
        for pay, at in ((game.payoff_user1, (s_axis, s2, rho1, rho2)),
                        (game.payoff_user2, (s1, s_axis, rho1, rho2))):
            yield pay(StrategyProfile(*at)), pay(profile)
    if corners is not None:
        yield corners
        return
    pay, own = game.payoff_middleman, game.payoff_middleman(profile)
    for _, pays in _blocks(r1[:, None], lambda r: pay(StrategyProfile(s1, s2, r, r2)), r2.size):
        yield pays, own


def _fee_corners(game, fields, r1, r2):
    """The middleman's payoffs at the corners of the affordable fee boxes,
    and the profile's own payoff; None where the scan must decide.

    Each level of ``game.gates`` opens a box ``r_i <= f_i(level)``, and each
    fee axis keeps its last node inside each box. While the set of open
    gates is fixed, the payoff, a nonnegative-weighted sum of gated incomes,
    never falls as a fee rises, in floating point too, so its lattice
    maximum over that set lies at the corner of the boxes' intersection. A
    corner where more gates open only adds nonnegative terms, and fees
    outside every box earn 0, which beats no payoff of these games (each is
    0 or more, or NaN). So the lattice maximum lies on the product of the
    kept nodes, at most 3 x 3. One call of ``game.middleman``, the payoff's
    own expression, evaluates that product with the profile's own fee
    appended to each axis: the last row and column, which mix the two, are
    not compared, and every value that is, is the scan's to the bit.

    A level whose benefit is not finite takes the scan, and so does a
    corner whose payoff is not: an infinite activity earns NaN at zero fees,
    an overflowing income inf, and a zero weight times inf is NaN. Each
    open gate's income at its own box's corner, the largest in the box,
    is a term of the payoff there.
    """
    s1, s2, rho1, rho2 = fields
    levels = game.gates(s1, s2)
    if levels is None:
        return None
    u1, u2 = np.array(levels).T
    fees = []
    for f, r, rho in ((game.game.f1, r1, rho1), (game.game.f2, r2, rho2)):
        b = f(u1, u2)
        if not np.isfinite(b).all():
            return None
        fees.append(np.concatenate((r[r.searchsorted(b, side="right") - 1], (rho,))))
    pays = game.middleman(fees[0][:, None], fees[1], s1, s2)
    if not np.isfinite(pays[:-1, :-1]).all():
        return None
    return pays[:-1, :-1], pays[-1, -1]


def weak_dominance_check(
    game: GamePayoffs, player: int, candidate: float, grid: Grid, eps: float = 1e-9
) -> bool:
    """True iff ``candidate`` weakly dominates every grid strategy of user ``player``.

    For every grid profile of the other two players, the candidate's payoff
    must be at least every alternative's payoff minus ``eps``: one payoff call
    per block of the other user's levels, with the candidate as the last row.

    A ``hedonic.HedonicPayoffs`` bundle (``modified_game``'s too) is decided
    in O(n^2) from the game's benefits. Its user payoff
    ``capped_surplus(b, r_i)``, with ``b = f_i(s_own, s_other)``, ignores the
    other fee and is weakly increasing in ``b`` in floating point too: it is 0
    while ``r_i > b`` and ``b - r_i >= 0`` rounds monotonically. So in each
    context ``(s_other, r_i)`` the best alternative pays exactly
    ``capped_surplus(max b, r_i)``, and a block is that surplus and the
    candidate's, each by the block's other levels and ``r_i``. ``np.fmax``
    takes the maximum over the benefit table's own levels: a NaN benefit pays
    0, and ``fmax`` skips it or, over a column of NaNs, gives NaN, which pays
    0 too. A block keeps only the contexts ``~(max b <= b_candidate)``:
    where the best alternative's benefit is at most the candidate's, its
    surplus is at most the candidate's at every fee, whatever the benefits'
    signs, so no alternative gains there. A NaN benefit on either side keeps
    its context.
    """
    _player(player, "player")
    eps = _validate_eps(eps)
    if not grid.s_lo <= _number(candidate, "candidate") <= 1.0:
        raise ValueError("candidate must lie in the participation box")

    s_axis = grid.participation_axis()
    own = np.append(s_axis, candidate)
    if isinstance(game, HedonicPayoffs):
        f = game.game.f1 if player == 1 else game.game.f2
        r = grid.fee_axis(player)
        levels, per_level = s_axis, own.size  # the benefit table's rows

        def payoffs(other):  # axes: a block of other levels, r_i
            b = f(own[:, None], other) if player == 1 else f(other, own[:, None])
            b = np.broadcast_to(b, (own.size, other.size))
            best = np.fmax.reduce(b[:-1], axis=0)
            kept = ~(best <= b[-1])  # the contexts the candidate does not already win
            return capped_surplus(best[kept, None], r), capped_surplus(b[-1, kept, None], r)
    else:
        pay = game.payoff_user1 if player == 1 else game.payoff_user2
        r1 = grid.fee_axis(1)[:, None]
        r2 = grid.fee_axis(2)[None, :]
        own = own[:, None, None, None]
        levels, per_level = s_axis[:, None, None], own.size * r1.size * r2.size

        def payoffs(other):  # axes: own levels then the candidate, other levels, r1, r2
            s = (own, other) if player == 1 else (other, own)
            pays = pay(StrategyProfile(*s, r1, r2))
            if np.ndim(pays) < own.ndim:  # a payoff that ignores the own level
                pays = np.broadcast_to(pays, np.broadcast_shapes(np.shape(pays), own.shape))
            return pays[:-1], pays[-1]

    return not any(_scan.any_dominance_gap(alts, cand, eps)
                   for _, (alts, cand) in _blocks(levels, payoffs, per_level))


def pareto_check(
    game: GamePayoffs, profile: StrategyProfile, grid: Grid, eps: float = 1e-9
) -> bool:
    """True iff no grid profile weakly improves all three payoffs while
    strictly improving at least one by more than ``eps``.

    A bundle ``hedonic.fee_monotone`` accepts takes the corner path. It
    decides the top level s = (1, 1) first, and then only the levels some
    table puts above the top's, one block of ``s1`` levels by every ``s2``
    level at a time. A level's tables are f1(s), f2(s) and income(1, 1, s).
    Where all three are at most the top's, every payoff at (s, r1, r2) is at
    most its value at the top with the same fees, in floating point too:
    ``capped_surplus`` and the affordability gate never fall as a benefit
    rises, and (r1 + r2) * a never falls as a rises when both factors are
    nonnegative (income(1, 1, s) is 2a, exact, or a constant for additive
    income). So a weak dominator there makes the same fees one at the top,
    with gains at least as large, and the top has decided it. A level is
    kept where ``~(table <= top)`` for some table, so NaN stays in, and an
    infinite top table keeps every level, since (r1 + r2) * inf is NaN at
    zero fees. Nondecreasing families (Cobb-Douglas, linear) keep no level,
    so their cost is the O(n^2) table comparisons; a tabulated benefit or
    activity keeps the levels where it rises above its top value.

    At fixed (s1, s2), user i's payoff ignores the other fee and never
    rises with its own, so p_i >= t_i holds on a prefix [0, A_i] of its fee
    axis. Gated income never falls as a fee rises inside the affordable box
    [0, aff_1] x [0, aff_2] and is 0 outside it; an infinite activity earns
    NaN at zero fees, which reaches no t3. At the corner
    C = (min(A_1, aff_1), min(A_2, aff_2)) a weak dominator exists iff
    p3(C) >= t3; the middleman's best among them is p3(C), user 1's is at the
    smallest r1 with p3(r1, C_2) >= t3, and user 2's is symmetric.

    Each of these indices ends a prefix of a sorted fee axis: the affordable
    fees r_i <= b_i, a ``searchsorted`` count, the user's prefix inside them,
    and, only where C is a weak dominator, the prefix of each edge [0, C_i)
    whose income does not reach t3. ``_prefix_len`` finds each length for
    all points at once, so the top and the raised levels run the same code:
    at the top's single point it counts the predicate's true entries over
    the whole prefix range, O(n) work in a fixed number of numpy calls, and
    at many points it bisects, O(log n) fees each. Either way every payoff
    compared is the expression the scan evaluates, on the same floats, so
    the verdict is exact; a level of a block holds one value per s2 level
    and table.
    """
    eps = _validate_eps(eps)
    _require_in_box(profile, grid)
    t1, t2, t3 = (
        game.payoff_user1(profile),
        game.payoff_user2(profile),
        game.payoff_middleman(profile),
    )
    s_axis = grid.participation_axis()
    if fee_monotone(game):
        g = game.game
        r1, r2 = grid.fee_axis(1), grid.fee_axis(2)

        def tables(u1, u2):  # no payoff at a level rises while none of these does
            return g.f1(u1, u2), g.f2(u1, u2), g.income(1.0, 1.0, u1, u2)

        def corner(b, r, t):
            """C_i per point: the last affordable fee keeping t_i, or -1."""
            stop = np.searchsorted(r, b, side="right")
            return _prefix_len(lambda k: capped_surplus(b, r[k]) >= t, stop) - 1

        def dominated_at(u1, u2, b1, b2):  # one entry per point (u1, u2)
            c1, c2 = corner(b1, r1, t1), corner(b2, r2, t2)
            # Fees up to C_i are affordable, so the gated income at C and on
            # its edges (r1, C_2) and (C_1, r2) is the income.
            p3 = g.income(r1[np.maximum(c1, 0)], r2[np.maximum(c2, 0)], u1, u2)
            weak = (c1 >= 0) & (c2 >= 0) & (p3 >= t3)
            if _scan.any_improvement(p3[weak], t3, eps):
                return True
            # At the weak corners the first fee reaching t3 on each edge is
            # C_i or ends the prefix not reaching t3 in [0, C_i).
            b1, b2, c1, c2, u1, u2 = (x[weak] for x in (b1, b2, c1, c2, u1, u2))
            first1 = _prefix_len(lambda k: ~(g.income(r1[k], r2[c2], u1, u2) >= t3), c1)
            first2 = _prefix_len(lambda k: ~(g.income(r1[c1], r2[k], u1, u2) >= t3), c2)
            return (_scan.any_improvement(capped_surplus(b1, r1[first1]), t1, eps)
                    or _scan.any_improvement(capped_surplus(b2, r2[first2]), t2, eps))

        one = s_axis[-1:]  # the top level (1, 1)
        top = tables(one, one)
        if dominated_at(one, one, top[0], top[1]):
            return False
        # (r1 + r2) * inf is NaN at zero fees, so an infinite top keeps every level.
        top = [np.where(x < np.inf, x, np.nan) for x in top]
        levels, per_level = s_axis[:, None], s_axis.size

        def payoffs(s1):  # axes: a block of s1 levels, s2
            return tables(s1, s_axis)

        def dominated(s1, b1, b2, income):  # only the levels some table puts above the top
            kept = ~((b1 <= top[0]) & (b2 <= top[1]) & (income <= top[2]))
            if not kept.any():
                return False
            at = np.nonzero(kept)
            return dominated_at(s1[at[0], 0], s_axis[at[1]], b1[at], b2[at])
    else:
        s2 = s_axis[:, None, None]
        r1 = grid.fee_axis(1)[None, :, None]
        r2 = grid.fee_axis(2)[None, None, :]
        levels, per_level = s_axis[:, None, None, None], s_axis.size**3

        def payoffs(s1):  # axes: a block of s1 levels, s2, r1, r2
            block = StrategyProfile(s1, s2, r1, r2)
            return game.payoff_user1(block), game.payoff_user2(block), game.payoff_middleman(block)

        def dominated(s1, p1, p2, p3):
            return _scan.any_strict_dominator(p1, p2, p3, t1, t2, t3, eps)

    return not any(dominated(block, *out)
                   for block, out in _blocks(levels, payoffs, per_level))


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
        rho1, rho2 = (_number(rho, "rho_samples") for rho in (rho1, rho2))
        if not (0.0 <= rho1 < np.inf and 0.0 <= rho2 < np.inf):
            raise FieldError("rho_samples", "must be finite and nonnegative")
        bounds = (max(grid.fee_bounds[0], rho1), max(grid.fee_bounds[1], rho2))
        profile = StrategyProfile(0.0, 0.0, rho1, rho2)
        if not epsilon_nash_check(game, profile, replace(grid, fee_bounds=bounds), eps):
            return False
    return True
