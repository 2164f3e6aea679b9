"""Belief systems, the modified payoff, and the full-exploitation threshold."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from middleman import (
    AdditiveFeesIncome,
    BeliefSystem,
    CobbDouglas,
    ContestationVerdict,
    Grid,
    HedonicGame,
    Linear,
    MultiplicativeIncome,
    StrategyProfile,
    TabulatedBenefit,
    TabulatedIncome,
    ambiguity_equilibrium_check,
    best_fee_response,
    critical_gamma,
    epsilon_nash_check,
    full_exploitation_verdict,
    full_extraction_fees,
    game_payoffs,
    loyalty_fees,
    middleman_payoff,
    modified_game,
    modified_payoff,
    optimistic_payoff,
    parse_scenario,
    pessimistic_payoff,
)
from middleman import ambiguity
from middleman.ambiguity import BeliefError
from _support import random_benchmark_game, random_proper_beliefs, sigma_benchmark_game

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def beliefs_at(gamma, lam=0.0, loyalty=(0.5, 0.5)):
    return BeliefSystem(lambda_=lam, gamma=gamma, loyalty1=loyalty[0], loyalty2=loyalty[1])


# ---------------------------------------------------------------------------
# belief systems
# ---------------------------------------------------------------------------


def test_properness_enforced():
    with pytest.raises(ValueError, match="properness"):
        BeliefSystem(lambda_=0.8, gamma=0.5, loyalty1=0.5, loyalty2=0.5)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(lambda_=-0.1, gamma=0.0, loyalty1=0.0, loyalty2=0.0),
        dict(lambda_=0.0, gamma=1.5, loyalty1=0.0, loyalty2=0.0),
        dict(lambda_=0.0, gamma=0.0, loyalty1=1.2, loyalty2=0.0),
    ],
)
def test_belief_fields_bounded(kwargs):
    with pytest.raises(ValueError):
        BeliefSystem(**kwargs)


@pytest.mark.parametrize(
    "field,value",
    [
        ("lambda_", False),
        ("gamma", True),
        ("gamma", np.bool_(False)),
        ("loyalty1", np.array([True, False])),
        ("loyalty2", "0.5"),
        ("loyalty2", np.array([0.5, None])),
    ],
    ids=["false", "true", "numpy-bool", "bool-array", "string", "object-array"],
)
def test_belief_fields_must_be_numbers(field, value):
    # checked before every range check: lambda_ = 2 is out of range too
    fields = dict(lambda_=2.0, gamma=0.5, loyalty1=0.5, loyalty2=0.5)
    fields[field] = value
    with pytest.raises(BeliefError, match=f"^{field} must be a number$") as info:
        BeliefSystem(**fields)
    assert (info.value.field, info.value.row) == (field, 0)


def test_verdict_consistency_enforced():
    with pytest.raises(ValueError):
        ContestationVerdict(delta=1.0, rhs=0.5, full_exploitation=False)


# ---------------------------------------------------------------------------
# optimistic / pessimistic payoffs
# ---------------------------------------------------------------------------


def test_optimistic_payoff_full_usage_income():
    game = sigma_benchmark_game()
    assert optimistic_payoff(game, (1.0, 1.0)) == 2.0


def test_optimistic_payoff_gated_by_full_usage_caps():
    game = sigma_benchmark_game()
    assert optimistic_payoff(game, (1.1, 1.0)) == 0.0


def test_optimistic_payoff_additive_zero_fees():
    game = sigma_benchmark_game()
    assert optimistic_payoff(game, (0.0, 0.0)) == 0.0


def test_pessimistic_payoff_at_loyalty_point():
    game = sigma_benchmark_game()
    b = beliefs_at(0.5)
    assert pessimistic_payoff(game, b, (0.5, 0.5)) == pytest.approx(0.5)


def test_pessimistic_payoff_gated_by_loyalty_caps():
    game = sigma_benchmark_game()
    b = beliefs_at(0.5)
    assert pessimistic_payoff(game, b, (1.0, 1.0)) == 0.0


def test_no_loyalty_means_no_pessimistic_income():
    cd = CobbDouglas(1.0, 1.0)
    game = HedonicGame(cd, cd, MultiplicativeIncome(cd))
    b = beliefs_at(0.5, loyalty=(0.0, 0.0))
    for rho in ((0.1, 0.1), (1.0, 1.0)):
        assert pessimistic_payoff(game, b, rho) == 0.0


# ---------------------------------------------------------------------------
# modified payoff
# ---------------------------------------------------------------------------


def test_zero_ambiguity_reduces_to_standard_payoff():
    game = sigma_benchmark_game()
    b = beliefs_at(0.0, lam=0.0)
    rng = np.random.default_rng(12)
    for _ in range(200):
        profile = StrategyProfile(*rng.uniform(0, 1, 2), *rng.uniform(0, 1.5, 2))
        assert modified_payoff(game, b, profile) == middleman_payoff(game, profile)


def test_pure_optimism_ignores_actual_participation():
    game = sigma_benchmark_game()
    b = beliefs_at(0.0, lam=1.0)
    low = modified_payoff(game, b, StrategyProfile(0.3, 0.7, 0.5, 0.5))
    high = modified_payoff(game, b, StrategyProfile(1.0, 1.0, 0.5, 0.5))
    assert low == high == optimistic_payoff(game, (0.5, 0.5))


def test_modified_payoff_worked_value():
    """The neo-additive mix of Chateauneuf, Eichberger & Grant (2007),
    "Choice under uncertainty with the best and worst in mind: neo-additive
    capacities", Journal of Economic Theory 137: weight lambda on the best
    outcome, gamma on the worst, and the rest on the plain payoff."""
    # hand evaluation, independent of the library routines: with every
    # component (s1+s2)/2 and loyalty (0.5, 0.5), fees (0.5, 0.5) at full
    # participation give best = 1, worst = 0.5, plain = 1, so the mix at
    # (lambda, gamma) = (0.2, 0.3) is 0.2*1 + 0.3*0.5 + 0.5*1 = 0.85
    game = sigma_benchmark_game()
    b = BeliefSystem(lambda_=0.2, gamma=0.3, loyalty1=0.5, loyalty2=0.5)
    value = modified_payoff(game, b, StrategyProfile(1.0, 1.0, 0.5, 0.5))
    assert value == pytest.approx(0.85, abs=1e-12)

    best = (0.5 + 0.5) * 1.0
    worst = (0.5 + 0.5) * 0.5
    plain = (0.5 + 0.5) * 1.0
    assert value == pytest.approx(0.2 * best + 0.3 * worst + 0.5 * plain, abs=1e-12)


def test_modified_payoff_affine_in_belief_weights():
    """A neo-additive payoff (Chateauneuf, Eichberger & Grant 2007, Journal of
    Economic Theory 137) is affine in its optimism and pessimism weights."""
    game = sigma_benchmark_game()
    rng = np.random.default_rng(77)
    profile = StrategyProfile(1.0, 0.8, 0.4, 0.6)
    for _ in range(25):
        a = rng.uniform(0, 0.5, 2)
        c = rng.uniform(0, 0.5, 2)
        mid = (a + c) / 2
        vals = [
            modified_payoff(
                game,
                BeliefSystem(lambda_=w[0], gamma=w[1], loyalty1=0.5, loyalty2=0.5),
                profile,
            )
            for w in (a, mid, c)
        ]
        assert vals[1] == pytest.approx((vals[0] + vals[2]) / 2, abs=1e-12)


# ---------------------------------------------------------------------------
# loyalty fees
# ---------------------------------------------------------------------------


FULL_PARTICIPATION_GAMES = {
    "linear/multiplicative-linear": lambda: HedonicGame(
        Linear(0.6, 0.4), Linear(0.3, 0.7), MultiplicativeIncome(Linear(0.5, 0.5))),
    "cobb-douglas/multiplicative-cobb-douglas": lambda: HedonicGame(
        CobbDouglas(0.7, 1.3), CobbDouglas(1.6, 0.4), MultiplicativeIncome(CobbDouglas(0.5, 2.5))),
    "tabulated/multiplicative-tabulated": lambda: HedonicGame(
        TabulatedBenefit([[0.0, 0.3], [0.2, 0.9]]),
        TabulatedBenefit([[0.1, 0.4, 0.5], [0.2, 0.6, 0.8]]),
        MultiplicativeIncome(TabulatedBenefit([[0.0, 0.5], [0.5, 1.0]]))),
    "linear/additive": lambda: HedonicGame(
        Linear(0.6, 0.4), Linear(0.3, 0.7), AdditiveFeesIncome()),
    "linear/tabulated": lambda: _tabulated_income_game(),
}


@pytest.mark.parametrize("name", sorted(FULL_PARTICIPATION_GAMES))
@pytest.mark.parametrize("one", [1.0, 1, np.float64(1.0), np.array(1.0)], ids=type)
def test_modified_payoff_at_full_participation_is_the_three_term_sum(name, one):
    # the optimistic term stands in for the plain one, to the bit, over the
    # fee lattice and at one fee pair, for scalar and array beliefs
    game = FULL_PARTICIPATION_GAMES[name]()
    fees = np.linspace(0.0, 1.2, 13)
    belief_sets = (beliefs_at(0.3, lam=0.25, loyalty=(0.4, 0.6)),
                   BeliefSystem(np.array([0.0, 0.2, 0.5])[:, None, None], 0.3, 0.4, 0.6))
    for beliefs in belief_sets:
        for rho in ((fees[:, None], fees[None, :]), (0.45, 0.3)):
            profile = StrategyProfile(one, one, *rho)
            lam, gam = beliefs.lambda_, beliefs.gamma
            want = (lam * np.asarray(optimistic_payoff(game, rho))
                    + gam * np.asarray(pessimistic_payoff(game, beliefs, rho))
                    + (1.0 - lam - gam) * np.asarray(middleman_payoff(game, profile)))
            got = np.asarray(modified_payoff(game, beliefs, profile))
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_modified_payoff_at_full_participation_skips_the_plain_income(monkeypatch):
    game = FULL_PARTICIPATION_GAMES["linear/multiplicative-linear"]()
    beliefs = beliefs_at(0.3, lam=0.25)
    want = modified_payoff(game, beliefs, StrategyProfile(1.0, 1.0, 0.5, 0.5))

    def plain(*args):
        raise AssertionError("the plain income is evaluated")

    monkeypatch.setattr(ambiguity, "middleman_payoff", plain)
    assert modified_payoff(game, beliefs, StrategyProfile(1.0, 1.0, 0.5, 0.5)) == want
    # participation as an array of ones keeps the three terms and their shape
    monkeypatch.undo()
    ones = StrategyProfile(np.ones(2), np.ones(2), 0.5, 0.5)
    got = modified_payoff(game, beliefs, ones)
    assert got.shape == (2,) and got.tolist() == [want, want]


def test_loyalty_fees_product_benefits():
    cd = CobbDouglas(1.0, 1.0)
    game = HedonicGame(cd, cd, MultiplicativeIncome(cd))
    assert loyalty_fees(game, beliefs_at(0.5)) == (0.25, 0.25)


def test_loyalty_fees_at_full_loyalty_equal_full_extraction():
    game, _ = random_benchmark_game(np.random.default_rng(8))
    b = BeliefSystem(lambda_=0.0, gamma=0.0, loyalty1=1.0, loyalty2=1.0)
    assert loyalty_fees(game, b) == full_extraction_fees(game)


def test_loyalty_fees_vanish_without_loyalty():
    cd = CobbDouglas(1.0, 1.0)
    game = HedonicGame(cd, cd, MultiplicativeIncome(cd))
    assert loyalty_fees(game, beliefs_at(0.3, loyalty=(0.0, 0.0))) == (0.0, 0.0)


# ---------------------------------------------------------------------------
# threshold verdict
# ---------------------------------------------------------------------------


def test_threshold_verdict_moderate_pessimism():
    verdict = full_exploitation_verdict(sigma_benchmark_game(), beliefs_at(0.5))
    assert verdict.delta == pytest.approx(1.0)
    assert verdict.rhs == pytest.approx(0.5)
    assert verdict.full_exploitation


def test_threshold_verdict_high_pessimism():
    verdict = full_exploitation_verdict(sigma_benchmark_game(), beliefs_at(0.8))
    assert verdict.rhs == pytest.approx(2.0)
    assert not verdict.full_exploitation


def test_threshold_trivial_at_zero_pessimism():
    verdict = full_exploitation_verdict(sigma_benchmark_game(), beliefs_at(0.0))
    assert verdict.rhs == 0.0
    assert verdict.full_exploitation == (verdict.delta >= 0.0)


def test_threshold_preconditions():
    game = sigma_benchmark_game()
    with pytest.raises(ValueError):
        full_exploitation_verdict(game, beliefs_at(1.0))
    with pytest.raises(ValueError):
        full_exploitation_verdict(game, beliefs_at(0.5, loyalty=(1.0, 0.5)))


def test_threshold_ignores_optimism_weight():
    game, _ = random_benchmark_game(np.random.default_rng(21))
    for gamma in (0.2, 0.6, 0.9):
        verdicts = {
            full_exploitation_verdict(
                game,
                BeliefSystem(lambda_=lam, gamma=gamma, loyalty1=0.4, loyalty2=0.7),
            ).full_exploitation
            for lam in (0.0, 0.1, 1.0 - gamma)
        }
        assert len(verdicts) == 1


def test_threshold_failure_monotone_in_pessimism():
    rng = np.random.default_rng(1234)
    for _ in range(20):
        game, _ = random_benchmark_game(rng)
        loyalty = (rng.uniform(0.2, 0.95), rng.uniform(0.2, 0.95))
        gammas = np.linspace(0.0, 0.98, 40)
        results = [
            full_exploitation_verdict(
                game, BeliefSystem(0.0, float(g), *loyalty)
            ).full_exploitation
            for g in gammas
        ]
        first_false = next((i for i, r in enumerate(results) if not r), None)
        if first_false is not None:
            assert not any(results[first_false:])


def test_threshold_matches_modified_payoff_comparison():
    rng = np.random.default_rng(2718)
    for _ in range(200):
        game, _ = random_benchmark_game(rng)
        beliefs = random_proper_beliefs(rng)
        F = full_extraction_fees(game)
        phi = loyalty_fees(game, beliefs)
        diff = modified_payoff(game, beliefs, StrategyProfile(1.0, 1.0, *F)) - modified_payoff(
            game, beliefs, StrategyProfile(1.0, 1.0, *phi)
        )
        if abs(diff) > 1e-9:
            verdict = full_exploitation_verdict(game, beliefs)
            assert verdict.full_exploitation == (diff > 0)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_grid_argmax_lands_on_the_verdicts_candidate(seed):
    """The two-candidate argument of ``full_exploitation_verdict`` against
    the grid: the best fee response is within one fee step of the
    full-extraction fees F when full exploitation holds, of the loyalty fees
    phi otherwise, and full exploitation makes (1, 1, F) an equilibrium.

    The grid holds phi only as the fee pair below it, whose payoff may fall
    short of F's although phi's does not; such draws are skipped."""
    rng = np.random.default_rng(seed)
    game, s_lo = random_benchmark_game(rng)
    beliefs = random_proper_beliefs(rng, gamma_hi=0.95)
    verdict = full_exploitation_verdict(game, beliefs)
    assume(abs(verdict.delta - verdict.rhs) > 1e-9)
    F = full_extraction_fees(game)
    phi = loyalty_fees(game, beliefs)
    grid = Grid(40, F, s_lo)
    below_phi = [float(axis[axis <= p][-1]) for axis, p in zip(map(grid.fee_axis, (1, 2)), phi)]
    payoff = [modified_payoff(game, beliefs, StrategyProfile(1.0, 1.0, *rho))
              for rho in (F, below_phi)]
    assume((payoff[0] >= payoff[1]) == verdict.full_exploitation)
    candidate = F if verdict.full_exploitation else phi
    best = best_fee_response(game, beliefs, grid)
    for got, want, bound in zip(best, candidate, F):
        assert abs(got - want) <= bound / 40 * (1 + 1e-9)
    if verdict.full_exploitation:
        assert ambiguity_equilibrium_check(game, beliefs, StrategyProfile(1.0, 1.0, *F), grid)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_critical_gamma_explains_the_verdict(seed):
    """Away from ties, full exploitation holds iff gamma <= critical_gamma."""
    rng = np.random.default_rng(seed)
    game, _ = random_benchmark_game(rng)
    beliefs = random_proper_beliefs(rng)
    verdict = full_exploitation_verdict(game, beliefs)
    assume(abs(verdict.delta - verdict.rhs) > 1e-9)
    cut = critical_gamma(game, beliefs)
    assert isinstance(cut, float) and 0.0 <= cut <= 1.0
    assert (beliefs.gamma <= cut) == verdict.full_exploitation


def test_critical_gamma_is_one_without_income():
    # delta = I_L = 0: delta >= rhs holds at every gamma
    game = HedonicGame(Linear(0.5, 0.5), Linear(0.5, 0.5),
                       TabulatedIncome(np.zeros((2, 2, 2, 2)), (1.0, 1.0)))
    assert critical_gamma(game, beliefs_at(0.9)) == 1.0
    assert full_exploitation_verdict(game, beliefs_at(0.9)).full_exploitation


def test_critical_gamma_broadcasts_over_array_beliefs():
    game = _shipped_game("cobb_douglas_loyalty")
    loyalty = np.linspace(0.0, 0.99, 12).reshape(3, 4)
    beliefs = BeliefSystem(0.0, np.full((3, 1), 0.4), loyalty, 0.5)
    cut = critical_gamma(game, beliefs)
    assert cut.shape == (3, 4)
    for index in np.ndindex(cut.shape):
        assert cut[index] == critical_gamma(game, beliefs_at(0.4, loyalty=(loyalty[index], 0.5)))


# ---------------------------------------------------------------------------
# array-valued beliefs: the broadcast verdict against a per-row scalar loop
# ---------------------------------------------------------------------------


def _shipped_game(name):
    return parse_scenario((SCENARIOS / f"{name}.yaml").read_text()).game


def _tabulated_income_game():
    # cumulative sums of positive increments: nondecreasing in every argument
    values = np.random.default_rng(5).uniform(0.1, 1.0, (3, 3, 4, 4))
    for axis in range(4):
        values = np.cumsum(values, axis=axis)
    return HedonicGame(Linear(0.6, 0.4), Linear(0.3, 0.7), TabulatedIncome(values, (1.0, 1.0)))


THRESHOLD_GAMES = {
    "benchmark_sigma05": lambda: _shipped_game("benchmark_sigma05"),
    "cobb_douglas_loyalty": lambda: _shipped_game("cobb_douglas_loyalty"),
    "cobb_douglas_exponents": lambda: HedonicGame(
        CobbDouglas(0.7, 1.3), CobbDouglas(1.6, 0.4), MultiplicativeIncome(CobbDouglas(0.5, 2.5))
    ),
    "tabulated_income": _tabulated_income_game,
}


@pytest.mark.parametrize("name", sorted(THRESHOLD_GAMES))
def test_array_verdict_equals_scalar_loop(name):
    game = THRESHOLD_GAMES[name]()
    lam, gamma, l1, l2 = np.meshgrid(
        [0.0, 0.005],
        np.linspace(0.0, 0.99, 7),
        np.linspace(0.0, 0.99, 6),
        np.linspace(0.03, 0.97, 5),
        indexing="ij",
    )
    verdict = full_exploitation_verdict(game, BeliefSystem(lam, gamma, l1, l2))
    assert verdict.delta.shape == verdict.rhs.shape == verdict.full_exploitation.shape == lam.shape
    for idx in np.ndindex(lam.shape):
        row = full_exploitation_verdict(
            game, BeliefSystem(float(lam[idx]), float(gamma[idx]), float(l1[idx]), float(l2[idx]))
        )
        assert type(row.delta) is float and type(row.full_exploitation) is bool
        assert verdict.delta[idx] == row.delta
        assert verdict.rhs[idx] == row.rhs
        assert verdict.full_exploitation[idx] == row.full_exploitation


def test_array_verdict_takes_the_belief_shape():
    # neither delta nor rhs depends on lambda_, yet there is one verdict per entry
    beliefs = BeliefSystem(np.array([0.0, 0.1, 0.2]), 0.5, 0.5, 0.5)
    verdict = full_exploitation_verdict(sigma_benchmark_game(), beliefs)
    assert verdict.delta.shape == verdict.full_exploitation.shape == (3,)
    assert verdict.full_exploitation.all()


def _first_error(check, rows):
    for row in rows:
        try:
            check(*row)
        except ValueError as exc:
            return str(exc)
    return None


@pytest.mark.parametrize(
    "fields",
    [
        # improper first row, gamma out of range later
        ([0.9, 0.9, 0.0], [0.5, 1.5, 0.2], [0.5, 0.5, 0.5], [0.5, 0.5, 0.5]),
        # range errors in several fields of one row: the first field wins
        ([0.0, 0.0, 0.0], [0.2, 1.5, 0.2], [0.5, -0.1, 1.2], [0.5, 0.5, 2.0]),
        ([0.0, 0.0, 0.7], [0.2, 0.3, 0.4], [0.5, 0.5, 0.5], [0.5, 0.5, np.nan]),
    ],
)
def test_array_belief_errors_match_row_loop(fields):
    expected = _first_error(BeliefSystem, zip(*fields))
    with pytest.raises(ValueError) as info:
        BeliefSystem(*(np.array(f) for f in fields))
    assert str(info.value) == expected


@pytest.mark.parametrize(
    "loyalty1,gamma",
    [
        ([0.5, 1.0, 0.5], [0.2, 0.3, 1.0]),
        ([0.5, 0.5, 1.0], [0.2, 1.0, 0.3]),
        ([1.0, 0.5], [1.0, 0.5]),
    ],
)
def test_array_threshold_domain_errors_match_row_loop(loyalty1, gamma):
    game = sigma_benchmark_game()
    rows = [(0.0, g, l, 0.5) for l, g in zip(loyalty1, gamma)]
    expected = _first_error(lambda *row: full_exploitation_verdict(game, BeliefSystem(*row)), rows)
    with pytest.raises(ValueError) as info:
        full_exploitation_verdict(game, BeliefSystem(0.0, np.array(gamma), np.array(loyalty1), 0.5))
    assert str(info.value) == expected

# ---------------------------------------------------------------------------
# ambiguity equilibrium
# ---------------------------------------------------------------------------


def test_full_fees_supported_at_moderate_pessimism():
    game = sigma_benchmark_game()
    grid = Grid(20, full_extraction_fees(game))
    profile = StrategyProfile(1.0, 1.0, 1.0, 1.0)
    assert ambiguity_equilibrium_check(game, beliefs_at(0.5), profile, grid, 1e-9)


def test_high_pessimism_moves_equilibrium_to_loyalty_fees():
    game = sigma_benchmark_game()
    grid = Grid(20, full_extraction_fees(game))
    b = beliefs_at(0.8)
    assert not ambiguity_equilibrium_check(game, b, StrategyProfile(1.0, 1.0, 1.0, 1.0), grid)
    assert ambiguity_equilibrium_check(game, b, StrategyProfile(1.0, 1.0, 0.5, 0.5), grid)


def test_zero_ambiguity_equilibrium_matches_plain_nash():
    game = sigma_benchmark_game()
    b = beliefs_at(0.0)
    pay = game_payoffs(game)
    grid = Grid(20, full_extraction_fees(game))
    for profile in (
        StrategyProfile(1.0, 1.0, 1.0, 1.0),
        StrategyProfile(1.0, 1.0, 0.5, 0.5),
        StrategyProfile(0.7, 1.0, 0.2, 0.1),
    ):
        assert ambiguity_equilibrium_check(game, b, profile, grid) == epsilon_nash_check(
            pay, profile, grid
        )


def test_modified_game_leaves_user_payoffs_untouched():
    game = sigma_benchmark_game()
    transformed = modified_game(game, beliefs_at(0.6))
    plain = game_payoffs(game)
    profile = StrategyProfile(0.8, 0.9, 0.3, 0.4)
    assert transformed.payoff_user1(profile) == plain.payoff_user1(profile)
    assert transformed.payoff_user2(profile) == plain.payoff_user2(profile)


def test_best_fee_response_lands_on_a_threshold_candidate():
    game = sigma_benchmark_game()
    grid = Grid(20, full_extraction_fees(game))
    assert best_fee_response(game, beliefs_at(0.5), grid) == (1.0, 1.0)
    assert best_fee_response(game, beliefs_at(0.8), grid) == (0.5, 0.5)
