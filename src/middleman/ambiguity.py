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

from .game import GamePayoffs, Grid, StrategyProfile, Value
from .hedonic import (
    FieldError,
    HedonicGame,
    _as_scalar,
    full_extraction_fees,
    game_payoffs,
    gated_income,
    middleman_payoff,
)
from .oracles import epsilon_nash_check


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
    gamma = np.asarray(beliefs.gamma)
    l1, l2 = (np.asarray(v) for v in beliefs.loyalty)
    _raise_first(
        beliefs.shape,
        [
            (gamma >= 1.0, None, "threshold test requires gamma < 1"),
            ((l1 >= 1.0) | (l2 >= 1.0), None, "threshold test requires loyalty levels < 1"),
        ],
    )


@dataclass(frozen=True)
class BeliefSystem:
    """Degrees of optimism/pessimism plus the expected loyalty participation.

    Proper belief systems satisfy lambda_ + gamma <= 1; the remainder is the
    weight on the undisturbed game. Fields may hold numpy arrays that
    broadcast together, one belief system per entry; validation then raises
    the error of the first offending entry in C order, exactly as checking
    the entries one at a time would. A field that is not a number (a boolean
    is not) fails before any range check.
    """

    lambda_: Value
    gamma: Value
    loyalty1: Value
    loyalty2: Value

    def __post_init__(self):
        shape = self.shape
        checks = []
        for name in ("lambda_", "gamma", "loyalty1", "loyalty2"):
            v = np.asarray(getattr(self, name))
            if v.dtype.kind not in "iuf":  # a bool, a string, an object, ...
                raise BeliefError(name, "must be a number", 0)
            checks.append((~((v >= 0.0) & (v <= 1.0)), name, "must lie in [0, 1]"))
        total = np.add(self.lambda_, self.gamma)
        checks.append((
            total > 1.0,
            None,
            lambda row: "properness violated: lambda_ + gamma = "
            f"{float(np.broadcast_to(total, shape).flat[row]):g} exceeds 1",
        ))
        _raise_first(shape, checks)

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
    best = optimistic_payoff(game, profile.rho)
    worst = pessimistic_payoff(game, beliefs, profile.rho)
    s1, s2 = profile.s1, profile.s2
    if np.ndim(s1) == 0 and np.ndim(s2) == 0 and s1 == 1 and s2 == 1:
        plain = best
    else:
        plain = middleman_payoff(game, profile)
    lam, gam = beliefs.lambda_, beliefs.gamma
    out = lam * np.asarray(best) + gam * np.asarray(worst) + (1.0 - lam - gam) * np.asarray(plain)
    return _as_scalar(out)


def modified_game(game: HedonicGame, beliefs: BeliefSystem) -> GamePayoffs:
    """Transformed game: users keep their plain payoffs, the middleman is modified."""
    plain = game_payoffs(game)
    return GamePayoffs(
        payoff_user1=plain.payoff_user1,
        payoff_user2=plain.payoff_user2,
        payoff_middleman=lambda p: modified_payoff(game, beliefs, p),
    )


def ambiguity_equilibrium_check(
    game: HedonicGame,
    beliefs: BeliefSystem,
    profile: StrategyProfile,
    grid: Grid,
    eps: float = 1e-9,
) -> bool:
    """Nash check of the transformed game over the full deviation grid."""
    return epsilon_nash_check(modified_game(game, beliefs), profile, grid, eps)


def best_fee_response(game: HedonicGame, beliefs: BeliefSystem, grid: Grid) -> tuple[float, float]:
    """Grid argmax of the modified payoff at full participation.

    The threshold test only ever compares the full-extraction and loyalty fee
    pairs; this scan surfaces any third fee pair beating both (ties resolve to
    the first maximiser in row-major fee order).
    """
    r1 = grid.fee_axis(1)
    r2 = grid.fee_axis(2)
    vals = np.asarray(
        modified_payoff(game, beliefs, StrategyProfile(1.0, 1.0, r1[:, None], r2[None, :]))
    )
    i, j = divmod(int(np.argmax(vals)), r2.size)
    return (float(r1[i]), float(r2[j]))


def _threshold_terms(game: HedonicGame, beliefs: BeliefSystem) -> tuple[np.ndarray, np.ndarray]:
    """``delta``, the income gained at full participation by charging the
    full-extraction fees ``F`` instead of the loyalty fees ``phi``, and
    ``I_L``, the income at ``phi`` and the loyalty levels."""
    l1, l2 = (np.asarray(v) for v in beliefs.loyalty)
    F = full_extraction_fees(game)
    phi = loyalty_fees(game, beliefs)
    delta = np.asarray(game.income(F[0], F[1], 1.0, 1.0)) - game.income(phi[0], phi[1], 1.0, 1.0)
    return delta, np.asarray(game.income(phi[0], phi[1], l1, l2))


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
    shape = beliefs.shape
    gamma = np.asarray(beliefs.gamma)
    delta, loyal = _threshold_terms(game, beliefs)
    rhs = gamma / (1.0 - gamma) * loyal
    delta, rhs = (np.broadcast_to(v, shape) for v in (delta, rhs))
    full = delta >= rhs
    if not shape:
        return ContestationVerdict(delta=float(delta), rhs=float(rhs), full_exploitation=bool(full))
    return ContestationVerdict(delta=delta, rhs=rhs, full_exploitation=full)
