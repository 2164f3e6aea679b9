"""Payoff construction and monotonicity-checker tests."""

import numpy as np
import pytest

from middleman import (
    AdditiveFeesIncome,
    CobbDouglas,
    Grid,
    HedonicGame,
    Linear,
    MultiplicativeIncome,
    StrategyProfile,
    TabulatedBenefit,
    TabulatedIncome,
    benefit_strictly_increasing,
    IncomeSpec,
    full_extraction_fees,
    gated_income,
    income_weakly_increasing,
    middleman_payoff,
    user_payoff,
)


def product_game(income=None):
    cd = CobbDouglas(1.0, 1.0)
    return HedonicGame(cd, cd, income or MultiplicativeIncome(cd))


# ---------------------------------------------------------------------------
# user payoff
# ---------------------------------------------------------------------------


def test_user_payoff_subtracts_fee():
    game = product_game()
    assert user_payoff(game, 1, StrategyProfile(1.0, 1.0, 0.4, 0.0)) == pytest.approx(0.6)


def test_user_payoff_zero_when_overcharged():
    game = product_game()
    assert user_payoff(game, 1, StrategyProfile(0.5, 1.0, 0.6, 0.0)) == 0.0


def test_user_payoff_cap_binds_at_equality():
    # the affordable branch applies at rho = f, so the payoff is exactly 0
    # and right-continuous in the fee at the cap
    game = product_game()
    at_cap = user_payoff(game, 1, StrategyProfile(0.5, 1.0, 0.5, 0.0))
    assert at_cap == 0.0
    assert user_payoff(game, 1, StrategyProfile(0.5, 1.0, 0.5 + 1e-9, 0.0)) == 0.0
    assert user_payoff(game, 1, StrategyProfile(0.5, 1.0, 0.4, 0.0)) == pytest.approx(0.1)


def test_user_payoff_rejects_bad_index():
    with pytest.raises(ValueError):
        user_payoff(product_game(), 0, StrategyProfile(1.0, 1.0, 0.0, 0.0))


# ---------------------------------------------------------------------------
# middleman payoff
# ---------------------------------------------------------------------------


SLICE = (  # one pareto_check slice: s1 fixed, (s2, rho1, rho2) on a 9-step grid
    np.linspace(0.0, 1.0, 9)[None, :, None],
    np.linspace(0.0, 1.0, 9)[None, None, :],
    0.5,
    np.linspace(0.0, 1.0, 9)[:, None, None],
)


def where_reference(game, rho1, rho2, s1, s2):
    affordable = (rho1 <= game.f1(s1, s2)) & (rho2 <= game.f2(s1, s2))
    return np.where(affordable, game.income(rho1, rho2, s1, s2), 0.0)


@pytest.mark.parametrize(
    "income",
    [
        MultiplicativeIncome(Linear(0.5, 0.5)),
        AdditiveFeesIncome(),
        TabulatedIncome(np.arange(16.0).reshape(2, 2, 2, 2), (1.0, 1.0)),
    ],
)
def test_gated_income_equals_where_reference(income):
    game = product_game(income)
    out = gated_income(game, *SLICE)
    want = where_reference(game, *SLICE)
    assert out.shape == want.shape
    assert out.dtype == want.dtype
    assert np.array_equal(out, want)
    assert 0 < np.count_nonzero(out) < out.size


class CachedIncome(IncomeSpec):
    """Returns the same array object on every call."""

    def __init__(self):
        self.table = MultiplicativeIncome(Linear(0.5, 0.5))(*SLICE)

    def evaluate(self, rho1, rho2, s1, s2):
        return self.table


def test_gated_income_leaves_a_shared_income_array_alone():
    income = CachedIncome()
    before = income.table.copy()
    game = product_game(income)
    out = gated_income(game, *SLICE)
    assert np.array_equal(income.table, before)
    assert out is not income.table
    assert np.array_equal(out, where_reference(game, *SLICE))


def test_middleman_payoff_full_extraction():
    game = product_game()
    assert middleman_payoff(game, StrategyProfile(1.0, 1.0, 1.0, 1.0)) == 2.0


def test_middleman_payoff_zero_when_any_user_overcharged():
    game = product_game()
    assert middleman_payoff(game, StrategyProfile(0.5, 1.0, 0.6, 0.0)) == 0.0


def test_additive_fee_income_zero_at_zero_fees():
    game = product_game(income=AdditiveFeesIncome())
    assert middleman_payoff(game, StrategyProfile(1.0, 1.0, 0.0, 0.0)) == 0.0


# ---------------------------------------------------------------------------
# monotonicity checkers
# ---------------------------------------------------------------------------


def test_linear_benefits_are_strictly_increasing():
    assert benefit_strictly_increasing(Linear(0.5, 0.5), Grid(10))


def test_product_benefit_fails_strictness_on_zero_boundary():
    assert not benefit_strictly_increasing(CobbDouglas(1.0, 1.0), Grid(10))


def test_product_benefit_strict_away_from_boundary():
    assert benefit_strictly_increasing(CobbDouglas(1.0, 1.0), Grid(10, s_lo=0.1))


def test_multiplicative_income_weakly_increasing():
    income = MultiplicativeIncome(CobbDouglas(1.0, 1.0))
    assert income_weakly_increasing(income, Grid(8))


def test_constant_income_weakly_increasing():
    income = TabulatedIncome(np.ones((2, 2, 2, 2)), (1.0, 1.0))
    assert income_weakly_increasing(income, Grid(8))


def test_decreasing_income_cell_detected():
    values = np.ones((2, 2, 2, 2))
    values[1, 0, 0, 0] = 0.5  # drops as rho1 rises
    income = TabulatedIncome(values, (1.0, 1.0))
    assert not income_weakly_increasing(income, Grid(8))


# ---------------------------------------------------------------------------
# full-extraction fees
# ---------------------------------------------------------------------------


def test_full_extraction_fees_product_benefits():
    assert full_extraction_fees(product_game()) == (1.0, 1.0)


def test_full_extraction_fees_zero_benefits():
    zero = TabulatedBenefit(np.zeros((2, 2)))
    game = HedonicGame(zero, zero, AdditiveFeesIncome())
    assert full_extraction_fees(game) == (0.0, 0.0)


def test_full_extraction_fees_asymmetric_exponents():
    game = HedonicGame(CobbDouglas(2.0, 1.0), CobbDouglas(1.0, 3.0), AdditiveFeesIncome())
    assert full_extraction_fees(game) == (1.0, 1.0)


@pytest.mark.parametrize("c", [2.0, 0.5, 4.0])
def test_full_extraction_fees_scale_with_parametric_benefits(c):
    base = HedonicGame(Linear(0.3, 0.7), Linear(0.2, 0.45), AdditiveFeesIncome())
    scaled = HedonicGame(
        Linear(0.3 * c, 0.7 * c), Linear(0.2 * c, 0.45 * c), AdditiveFeesIncome()
    )
    f1, f2 = full_extraction_fees(base)
    assert full_extraction_fees(scaled) == (c * f1, c * f2)


def test_full_extraction_fees_scale_with_tabulated_benefits():
    rng = np.random.default_rng(99)
    values = rng.uniform(0.0, 2.0, size=(4, 5))
    c = 1.7
    base = HedonicGame(TabulatedBenefit(values), TabulatedBenefit(values), AdditiveFeesIncome())
    scaled = HedonicGame(
        TabulatedBenefit(c * values), TabulatedBenefit(c * values), AdditiveFeesIncome()
    )
    f1, f2 = full_extraction_fees(base)
    assert full_extraction_fees(scaled) == (c * f1, c * f2)


# ---------------------------------------------------------------------------
# tabulated families
# ---------------------------------------------------------------------------


def test_tabulated_benefit_validation():
    with pytest.raises(ValueError):
        TabulatedBenefit(np.ones(3))
    with pytest.raises(ValueError):
        TabulatedBenefit([[1.0, -0.2], [0.5, 1.0]])


def test_tabulated_benefit_interpolates_bilinear_exactly():
    # nodes of w1*s1 + w2*s2 reproduce the function everywhere
    nodes = np.linspace(0, 1, 5)
    values = 0.3 * nodes[:, None] + 0.7 * nodes[None, :]
    tab = TabulatedBenefit(values)
    rng = np.random.default_rng(3)
    for _ in range(50):
        s1, s2 = rng.uniform(0, 1, 2)
        assert tab(s1, s2) == pytest.approx(0.3 * s1 + 0.7 * s2, abs=1e-12)


def test_tabulated_income_interpolates_multilinear_exactly():
    r = np.linspace(0, 2, 3)
    s = np.linspace(0, 1, 4)
    values = (r[:, None, None, None] + r[None, :, None, None]) * (
        s[None, None, :, None] + s[None, None, None, :]
    )
    income = TabulatedIncome(values, (2.0, 2.0))
    rng = np.random.default_rng(4)
    for _ in range(50):
        rho1, rho2 = rng.uniform(0, 2, 2)
        s1, s2 = rng.uniform(0, 1, 2)
        assert income(rho1, rho2, s1, s2) == pytest.approx(
            (rho1 + rho2) * (s1 + s2), abs=1e-12
        )


def test_game_tag_validated():
    cd = CobbDouglas(1.0, 1.0)
    with pytest.raises(ValueError):
        HedonicGame(cd, cd, AdditiveFeesIncome(), tag="nonsense")

