"""Neo-additive belief systems and the contested middleman's modified payoff.

The middleman mixes an optimistic payoff (full participation, weight
``lambda_``), a pessimistic payoff (participation reduced to the loyalty
levels, weight ``gamma``), and the standard payoff (residual weight
``1 - lambda_ - gamma``). Users are never subject to ambiguity: their
payoffs stay the plain fee-capped benefits, so an ambiguity equilibrium is
an ordinary Nash profile of the transformed game.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game import FieldError, Grid, StrategyProfile, Value, _numbers
from .hedonic import (
    HedonicGame,
    HedonicPayoffs,
    full_extraction_fees,
    game_payoffs,
    gated_income,
)
from .oracles import _blocks, epsilon_nash_check


class BeliefError(FieldError):
    """A belief-system check failed; ``row`` is the flat C-order index of the
    first offending entry of the (broadcast) fields, 0 for scalar fields."""

    def __init__(self, field: str | None, problem: str, row: int):
        super().__init__(field, problem)
        self.row = row


def _raise_first(shape: tuple, checks: list) -> None:
    """Raise the error a row-by-row loop over ``shape`` (C order) meets first.

    ``checks`` lists ``(bad, field, problem)`` in the order one row is
    checked: ``bad`` is a boolean array broadcastable to ``shape``, ``field``
    the :class:`FieldError` field and ``problem`` its text, or a function of
    the flat row index giving it.
    """
    if not any(np.count_nonzero(bad) for bad, _, _ in checks):
        return
    bad = np.stack([np.broadcast_to(b, shape) for b, _, _ in checks]).reshape(len(checks), -1)
    row = int(np.argmax(bad.any(axis=0)))
    _, field, problem = checks[int(np.argmax(bad[:, row]))]
    raise BeliefError(field, problem if isinstance(problem, str) else problem(row), row)


def _require_threshold_domain(beliefs: BeliefSystem) -> None:
    """The threshold test's hypotheses on the beliefs: gamma < 1 and loyalty
    levels < 1, checked entry by entry in C order."""
    l1, l2 = beliefs.loyalty
    _raise_first(beliefs.shape, [
        (beliefs.gamma >= 1.0, None, "threshold test requires gamma < 1"),
        ((l1 >= 1.0) | (l2 >= 1.0), None, "threshold test requires loyalty levels < 1"),
    ])


@dataclass(frozen=True)
class BeliefSystem:
    """Degrees of optimism/pessimism plus the expected loyalty participation.

    Proper belief systems satisfy lambda_ + gamma <= 1; the remainder is the
    weight on the undisturbed game. Fields may hold numpy arrays that
    broadcast together, one belief system per entry; validation then raises
    the error of the first offending entry in C order, exactly as checking
    the entries one at a time would. A field that is not a number fails first.
    Each is checked in the type it was given, then stored as a float or a
    float64 array, so no payoff or oracle meets another number type.
    """

    lambda_: Value
    gamma: Value
    loyalty1: Value
    loyalty2: Value

    def __post_init__(self):
        shape = self.shape
        checks, values = [], {}
        for name in ("lambda_", "gamma", "loyalty1", "loyalty2"):
            try:
                v = _numbers(getattr(self, name), name)
            except FieldError as exc:
                raise BeliefError(name, exc.problem, 0) from None
            values[name] = v if v.ndim else float(v)
            checks.append((~((v >= 0.0) & (v <= 1.0)), name, "must lie in [0, 1]"))
        try:  # in the fields' dtype
            total = np.add(self.lambda_, self.gamma)
        except OverflowError:  # an int beyond the float range
            total = values["lambda_"] + values["gamma"]
        checks.append((
            total > 1.0,
            None,
            lambda row: "properness violated: lambda_ + gamma = "
            f"{float(np.broadcast_to(total, shape).flat[row]):g} exceeds 1",
        ))
        _raise_first(shape, checks)
        for name, v in values.items():
            object.__setattr__(self, name, v)

    @property
    def shape(self) -> tuple:
        """Broadcast shape of the fields; () for a single belief system."""
        return np.broadcast(self.lambda_, self.gamma, self.loyalty1, self.loyalty2).shape

    @property
    def loyalty(self) -> tuple[Value, Value]:
        return (self.loyalty1, self.loyalty2)


@dataclass(frozen=True)
class ContestationVerdict:
    """Outcome of the full-exploitation threshold test.

    ``delta`` is the income differential between charging the full-extraction
    fees and the loyalty fees at full participation; ``rhs`` is the
    pessimism-weighted income retained under contestation. Full exploitation
    holds exactly when delta >= rhs. Fields are arrays of the belief
    system's shape when its fields are arrays.
    """

    delta: Value
    rhs: Value
    full_exploitation: bool | np.ndarray

    def __post_init__(self):
        if not np.array_equal(self.full_exploitation, np.greater_equal(self.delta, self.rhs)):
            raise ValueError("inconsistent verdict: full_exploitation must equal delta >= rhs")


def loyalty_fees(game: HedonicGame, beliefs: BeliefSystem) -> tuple[Value, Value]:
    """Fee pair extracting the entire benefit at the loyalty participation levels."""
    l1, l2 = beliefs.loyalty
    return (game.f1(l1, l2), game.f2(l1, l2))


def optimistic_payoff(game: HedonicGame, rho: tuple[Value, Value]) -> Value:
    """Income at full participation, provided both fees stay affordable there."""
    return gated_income(game, *rho, 1.0, 1.0)


def pessimistic_payoff(
    game: HedonicGame, beliefs: BeliefSystem, rho: tuple[Value, Value]
) -> Value:
    """Income at the loyalty participation levels, gated by the reduced fee caps."""
    return gated_income(game, *rho, *beliefs.loyalty)


def modified_payoff(
    game: HedonicGame, beliefs: BeliefSystem, profile: StrategyProfile
) -> Value:
    """Belief-weighted middleman payoff; reduces to the standard payoff at zero ambiguity.

    At full participation, where both participation fields are 0-d and equal
    to 1, the plain term is the optimistic one and is not evaluated again;
    the weighted sum keeps its operands and their order, so the value is the
    same to the bit. Participation given as an array of ones takes the
    three-term path and its broadcast shape.
    """
    return _weighted_income(game, beliefs, profile.rho1, profile.rho2, profile.s1, profile.s2)


def _weighted_income(game, beliefs, rho1, rho2, s1, s2) -> Value:
    """:func:`modified_payoff` at these profile fields, without a profile."""
    best = optimistic_payoff(game, (rho1, rho2))
    worst = pessimistic_payoff(game, beliefs, (rho1, rho2))
    if np.ndim(s1) == 0 and np.ndim(s2) == 0 and s1 == 1 and s2 == 1:
        plain = best
    else:
        plain = gated_income(game, rho1, rho2, s1, s2)
    lam, gam = beliefs.lambda_, beliefs.gamma
    return lam * best + gam * worst + (1.0 - lam - gam) * plain


@dataclass(frozen=True)
class ModifiedPayoffs(HedonicPayoffs):
    """The bundle :func:`modified_game` builds: the users of ``game`` and the
    middleman's :func:`modified_payoff` under ``beliefs``. Its gates name
    three levels, so ``hedonic.fee_monotone`` refuses it and the Pareto
    check scans it."""

    beliefs: BeliefSystem

    def middleman(self, rho1, rho2, s1, s2):
        return _weighted_income(self.game, self.beliefs, rho1, rho2, s1, s2)

    def gates(self, s1, s2):
        """Full participation, the loyalty levels and ``(s1, s2)`` (at full
        participation the first again), where the plain game has its gate,
        for one belief system (array fields hold many) whose plain weight is
        not negative. Properness only asks ``lambda_ + gamma`` to round to at
        most 1, while the weight :func:`modified_payoff` computes,
        ``1.0 - lambda_ - gamma``, may still round below 0."""
        b = self.beliefs
        if not (super().gates(s1, s2) and not b.shape and 1.0 - b.lambda_ - b.gamma >= 0.0):
            return None
        return ((1.0, 1.0), b.loyalty, (s1, s2))


def modified_game(game: HedonicGame, beliefs: BeliefSystem) -> ModifiedPayoffs:
    """Transformed game: users keep their plain payoffs, the middleman is modified."""
    plain = game_payoffs(game)
    return ModifiedPayoffs(
        payoff_user1=plain.payoff_user1,
        payoff_user2=plain.payoff_user2,
        payoff_middleman=lambda p: modified_payoff(game, beliefs, p),
        game=game,
        beliefs=beliefs,
    )


def _require_one(beliefs: BeliefSystem) -> None:
    """A check that returns one answer takes one belief system."""
    if beliefs.shape:
        raise FieldError("beliefs", f"must be one belief system, got fields of shape {beliefs.shape}")


def ambiguity_equilibrium_check(
    game: HedonicGame,
    beliefs: BeliefSystem,
    profile: StrategyProfile,
    grid: Grid,
    eps: float = 1e-9,
) -> bool:
    """Nash check of the transformed game (see ``oracles.epsilon_nash_check``)."""
    _require_one(beliefs)
    return epsilon_nash_check(modified_game(game, beliefs), profile, grid, eps)


def best_fee_response(game: HedonicGame, beliefs: BeliefSystem, grid: Grid) -> tuple[float, float]:
    """Grid argmax of the modified payoff at full participation.

    The threshold test only ever compares the full-extraction and loyalty fee
    pairs; this scan surfaces any third fee pair beating both. It keeps
    ``np.argmax``'s rule over the lattice in row-major fee order (the first
    NaN if there is one, else the first maximum) while evaluating one block
    of ``r1`` rows at a time: the rule again over the blocks' picks finds
    the block, and within it the pick.
    """
    _require_one(beliefs)
    r1, r2 = grid.fee_axis(1), grid.fee_axis(2)
    picks, tops = [], []
    for rows, vals in _blocks(
            r1, lambda r: _weighted_income(game, beliefs, r[:, None], r2, 1.0, 1.0), r2.size):
        i, j = divmod(int(np.argmax(vals)), r2.size)
        picks.append((float(rows[i]), float(r2[j])))
        tops.append(vals[i, j])
    return picks[int(np.argmax(tops))]


def _threshold_terms(game: HedonicGame, beliefs: BeliefSystem) -> tuple[np.ndarray, np.ndarray]:
    """``delta``, the income gained at full participation by charging the
    full-extraction fees ``F`` instead of the loyalty fees ``phi``, and
    ``I_L``, the income at ``phi`` and the loyalty levels."""
    F = full_extraction_fees(game)
    phi = loyalty_fees(game, beliefs)
    delta = np.asarray(game.income(F[0], F[1], 1.0, 1.0)) - game.income(phi[0], phi[1], 1.0, 1.0)
    return delta, np.asarray(game.income(phi[0], phi[1], *beliefs.loyalty))


def critical_gamma(game: HedonicGame, beliefs: BeliefSystem) -> Value:
    """The pessimism up to which the middleman fully exploits:
    ``delta / (delta + I_L)``, and 1 where both terms are 0.

    For gamma < 1, ``delta >= gamma / (1 - gamma) * I_L`` holds iff
    ``gamma <= critical_gamma`` in real numbers, so this explains the
    verdict of :func:`full_exploitation_verdict`, which still decides it:
    at a tie the two forms may round apart. The beliefs' gamma is not read.
    On the sigma benchmark this is :func:`activity.boundary_curve`.
    Broadcasts over array-valued belief fields; scalar beliefs give a float.
    """
    delta, loyal = _threshold_terms(game, beliefs)
    with np.errstate(divide="ignore", invalid="ignore"):
        share = np.where((delta == 0) & (loyal == 0), 1.0, delta / (delta + loyal))
    share = np.broadcast_to(share, beliefs.shape)
    return float(share) if not beliefs.shape else share


def full_exploitation_verdict(game: HedonicGame, beliefs: BeliefSystem) -> ContestationVerdict:
    """Decide whether the contested middleman still charges the full-extraction fees.

    Compares the income differential ``delta`` against the pessimism-weighted
    income at the loyalty point; equality counts as full exploitation. Valid
    for gamma < 1 and loyalty levels < 1, with benefits strictly increasing
    and income weakly increasing on the working grid (the caller's
    responsibility, checkable via the monotonicity helpers).

    Two candidates suffice. At full participation ``s = (1, 1)`` the
    optimistic and the plain payoff coincide, so the modified payoff is
    ``M(rho) = (1 - gamma) G(rho; 1, 1) + gamma G(rho; l)``, with ``G`` the
    :func:`gated_income` and ``l`` the loyalty levels. Under the hypotheses
    above, ``G(rho; l)`` vanishes unless ``rho <= phi`` (the loyalty fees),
    where both terms increase in ``rho``; elsewhere ``M`` is at most
    ``(1 - gamma) G(F; 1, 1)``, its value at the full-extraction fees ``F``.
    So ``M`` peaks at ``phi`` or at ``F``, and ``M(F) >= M(phi)`` is
    ``delta >= rhs`` after dividing by ``1 - gamma > 0``.

    Broadcasts over array-valued belief fields: the verdict's fields then
    have the belief system's shape, and a domain error names the first
    offending entry in C order. Scalar beliefs give float/bool fields.
    """
    _require_threshold_domain(beliefs)
    shape, gamma = beliefs.shape, beliefs.gamma
    delta, loyal = _threshold_terms(game, beliefs)
    rhs = gamma / (1.0 - gamma) * loyal
    delta, rhs = (np.broadcast_to(v, shape) for v in (delta, rhs))
    full = delta >= rhs
    if not shape:
        return ContestationVerdict(delta=float(delta), rhs=float(rhs), full_exploitation=bool(full))
    return ContestationVerdict(delta=delta, rhs=rhs, full_exploitation=full)
