"""Belief systems, the modified payoff, and the full-exploitation threshold."""

import re
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
    IncomeSpec,
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
from middleman import ambiguity, oracles
from middleman.ambiguity import BeliefError
from middleman.game import FieldError
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
    "field,value,problem",
    [
        ("lambda_", False, "must be a number"),
        ("gamma", True, "must be a number"),
        ("gamma", np.bool_(False), "must be a number"),
        ("loyalty1", np.array([True, False]), "must be a number"),
        ("loyalty2", "0.5", "must be a number"),
        ("loyalty2", np.array([0.5, None]), "must be a number"),
        ("gamma", [0.5, True], "must be a number"),
        # a number, read as infinite, so its range check fails
        ("lambda_", 10**400, "must lie in [0, 1]"),
    ],
    ids=["false", "true", "numpy-bool", "bool-array", "string", "object-array", "true-in-list",
         "huge-int"],
)
def test_belief_fields_must_be_numbers(field, value, problem):
    # checked before every range check: lambda_ = 2 is out of range too
    fields = dict(lambda_=2.0, gamma=0.5, loyalty1=0.5, loyalty2=0.5)
    fields[field] = value
    with pytest.raises(BeliefError) as info:
        BeliefSystem(**fields)
    assert (str(info.value), info.value.field, info.value.row) == (f"{field} {problem}", field, 0)


def test_belief_properness_sums_in_the_fields_own_precision():
    # 0.6 + 0.4 rounds to 1 in float32, but exceeds 1 in float64
    BeliefSystem(np.float32(0.6), np.float32(0.4), 0.5, 0.5)
    with pytest.raises(BeliefError, match="^properness violated"):
        BeliefSystem(0.6, float(np.float32(0.4)), 0.5, 0.5)
    # an int beyond the float range fails its own row's range check
    with pytest.raises(BeliefError, match=r"^lambda_ must lie in \[0, 1\]$") as info:
        BeliefSystem([0.5, 10**400], 0.2, 0.5, 0.5)
    assert info.value.row == 1


def test_beliefs_store_each_number_as_a_float_and_arrays_as_float64():
    # each field is checked in the type it was given, then stored as the
    # float or float64 array the payoffs and oracles see
    beliefs = BeliefSystem(0, np.float32(0.5), np.array(0.25), np.int64(1))
    assert [(type(v), v) for v in (beliefs.lambda_, beliefs.gamma, *beliefs.loyalty)] == [
        (float, 0.0), (float, 0.5), (float, 0.25), (float, 1.0)]
    beliefs = BeliefSystem([0, 0.5], np.array([0.25], np.float32), 0.5, np.array([[0.5]]))
    for field, want in ((beliefs.lambda_, [0.0, 0.5]), (beliefs.gamma, [0.25]),
                        (beliefs.loyalty2, [[0.5]])):
        assert type(field) is np.ndarray and field.dtype == np.float64
        assert field.tolist() == want
    assert beliefs.shape == (1, 2)


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

    incomes = []
    gated = ambiguity.gated_income
    monkeypatch.setattr(ambiguity, "gated_income", lambda *a: incomes.append(a) or gated(*a))
    assert modified_payoff(game, beliefs, StrategyProfile(1.0, 1.0, 0.5, 0.5)) == want
    # the optimistic and the pessimistic income only: the plain one is not evaluated
    assert [a[3:] for a in incomes] == [(1.0, 1.0), beliefs.loyalty]
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


@pytest.mark.parametrize("field", ["f1", "f2", "income"])
def test_threshold_refuses_an_infinite_full_extraction_fee(field):
    # each weight is finite, but f_i(1, 1) = 1e308 + 1e308 overflows, or the
    # activity's does and so the income at the full-extraction fees: the
    # library names the field, without numpy's overflow warning (an error
    # under this suite's warning filter)
    half, huge = Linear(0.5, 0.5), Linear(1e308, 1e308)
    parts = {"f1": half, "f2": half, "income": MultiplicativeIncome(half)}
    parts[field] = MultiplicativeIncome(huge) if field == "income" else huge
    value = "income(F1, F2, 1, 1)" if field == "income" else f"{field}(1, 1)"
    game = HedonicGame(**parts)
    for call in (full_extraction_fees, lambda g: full_exploitation_verdict(g, beliefs_at(0.5)),
                 lambda g: critical_gamma(g, beliefs_at(0.5))):
        with pytest.raises(FieldError) as exc:
            call(game)
        assert exc.value.field == field
        assert exc.value.problem == f"{value} must be finite, got inf"


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


def test_best_fee_response_takes_the_first_maximiser_in_row_major_order():
    # a zero activity ties every fee pair at 0, so the answer is the first
    # lattice point, (0, 0), not the full-extraction fees; every answer is
    # the argmax of modified_payoff over the lattice profile
    sigma = sigma_benchmark_game()
    idle = HedonicGame(sigma.f1, sigma.f2, MultiplicativeIncome(Linear(0.0, 0.0)))
    grid = Grid(60, full_extraction_fees(sigma))
    assert best_fee_response(idle, beliefs_at(0.5), grid) == (0.0, 0.0)
    r1, r2 = grid.fee_axis(1), grid.fee_axis(2)
    lattice = StrategyProfile(1.0, 1.0, r1[:, None], r2[None, :])
    for game in (idle, sigma):
        for beliefs in (beliefs_at(0.0), beliefs_at(0.5, lam=0.2), beliefs_at(0.8)):
            i, j = np.unravel_index(np.argmax(modified_payoff(game, beliefs, lattice)),
                                    (r1.size, r2.size))
            assert best_fee_response(game, beliefs, grid) == (r1[i], r2[j])


class Planted(IncomeSpec):
    """Income read from a table indexed by the fees on the eighths lattice,
    whatever the participation."""

    def __init__(self, table):
        self.table = table

    def evaluate(self, rho1, rho2, s1, s2):
        return self.table[np.rint(rho1 * 8).astype(int), np.rint(rho2 * 8).astype(int)]


def planted(cells, fill=0.0):
    table = np.full((9, 9), fill)
    for (i, j), value in cells.items():
        table[i, j] = value
    return table


@pytest.mark.parametrize("budget", [9, 27, 36, 2**14], ids=["rows-1", "rows-3", "rows-4", "one"])
def test_best_fee_response_keeps_the_lattice_argmax_across_blocks(monkeypatch, budget):
    # on Grid(8) a block holds budget // 9 rows of r1: its edges fall after
    # rows 2, 5 (three a block) or 3, 7 (four a block). The answer is always
    # np.argmax over the whole lattice: the first NaN in row-major order if
    # there is one, else the first maximum, whichever block holds it.
    monkeypatch.setattr(oracles, "_BLOCK_ELEMENTS", budget)
    grid = Grid(8, (1.0, 1.0))
    r1, r2 = grid.fee_axis(1), grid.fee_axis(2)
    lattice = StrategyProfile(1.0, 1.0, r1[:, None], r2[None, :])
    beliefs = beliefs_at(0.25, lam=0.25)
    one = Linear(1.0, 1.0)  # every fee affordable at every level the payoff reads

    def reference(game):
        i, j = np.unravel_index(np.argmax(modified_payoff(game, beliefs, lattice)),
                                (r1.size, r2.size))
        return (float(r1[i]), float(r2[j]))

    nan = np.nan
    cases = [
        # a tie lattice and a NaN lattice: a zero activity, and an activity
        # overflowing at (1, 1), whose income is NaN at zero fees and inf after
        ((0, 0), HedonicGame(one, one, MultiplicativeIncome(Linear(0.0, 0.0)))),
        ((0, 0), HedonicGame(one, one, MultiplicativeIncome(Linear(1e308, 1e308)))),
        # ties across block edges keep the first
        ((2, 8), planted({(2, 8): 1.0, (3, 0): 1.0, (5, 8): 1.0, (6, 0): 1.0})),
        ((3, 0), planted({(2, 8): 0.5, (3, 0): 1.0, (7, 8): 1.0, (8, 0): 1.0})),
        ((8, 8), planted({(8, 8): 2.0}, fill=1.0)),
        # a NaN beats any maximum, earlier or later
        ((4, 0), planted({(0, 0): 2.0, (4, 0): nan, (8, 8): nan, (6, 3): 3.0})),
        ((3, 8), planted({(3, 8): nan, (5, 0): nan, (8, 8): nan})),
    ]
    for (i, j), game in cases:
        if isinstance(game, np.ndarray):
            game = HedonicGame(one, one, Planted(game))
        with np.errstate(invalid="ignore", over="ignore"):
            want = reference(game)
            assert best_fee_response(game, beliefs, grid) == want == (r1[i], r2[j])
    rng = np.random.default_rng(0)
    for _ in range(40):  # small integers tie often; a few NaNs
        table = rng.integers(0, 4, (9, 9)).astype(float)
        table[rng.random((9, 9)) < 0.02] = nan
        game = HedonicGame(one, one, Planted(table))
        assert best_fee_response(game, beliefs, grid) == reference(game)


@pytest.mark.parametrize("size", [61, 2, 1])
def test_checks_with_one_answer_reject_array_beliefs(size):
    # broadcast, a gamma array would give one best fee pair that no entry
    # gives (61 entries), one verdict for many systems, or numpy's broadcast
    # error (2 entries)
    game = sigma_benchmark_game()
    beliefs = BeliefSystem(0.0, np.linspace(0.0, 0.9, size), 0.5, 0.5)
    profile = StrategyProfile(1.0, 1.0, 1.0, 1.0)
    text = f"beliefs must be one belief system, got fields of shape ({size},)"
    for call in (lambda grid: best_fee_response(game, beliefs, grid),
                 lambda grid: ambiguity_equilibrium_check(game, beliefs, profile, grid)):
        grid = Grid(60, full_extraction_fees(game))
        with pytest.raises(FieldError, match=f"^{re.escape(text)}$") as info:
            call(grid)
        assert info.value.field == "beliefs"
        assert "_axes" not in vars(grid)  # refused before any grid work
