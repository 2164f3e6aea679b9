"""Payoff construction and monotonicity-checker tests."""

import numpy as np
import pytest

from middleman import (
    AdditiveFeesIncome,
    BeliefSystem,
    BenefitSpec,
    CobbDouglas,
    GamePayoffs,
    Grid,
    HedonicGame,
    Linear,
    MultiplicativeIncome,
    StrategyProfile,
    TabulatedBenefit,
    TabulatedIncome,
    benefit_strictly_increasing,
    IncomeSpec,
    fee_monotone,
    full_extraction_fees,
    game_payoffs,
    gated_income,
    income_weakly_increasing,
    middleman_payoff,
    modified_game,
    user_payoff,
)
from middleman.hedonic import STRICT_TOL, FieldError


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


@pytest.mark.parametrize("value", [float("inf"), -float("inf"), float("nan"), 10**400],
                         ids=["inf", "-inf", "nan", "overflow"])
@pytest.mark.parametrize("family,field", [(Linear, "w1"), (Linear, "w2"),
                                          (CobbDouglas, "alpha"), (CobbDouglas, "beta")])
def test_parametric_benefits_reject_nonfinite_fields(family, field, value):
    # Linear(inf, 1) is NaN at s1 = 0, which affordability masks and sorted
    # fee searches read differently
    fields = dict(zip(family.__dataclass_fields__, (1.0, 1.0)), **{field: value})
    with pytest.raises(FieldError, match=f"^{field} must be finite$") as info:
        family(**fields)
    assert info.value.field == field


@pytest.mark.parametrize("value", [np.array([1.0]), np.ones((1, 1)), "1", None, 1j, [1.0]],
                         ids=["1-d-array", "2-d-array", "str", "none", "complex", "list"])
@pytest.mark.parametrize("family,field", [(Linear, "w1"), (Linear, "w2"),
                                          (CobbDouglas, "alpha"), (CobbDouglas, "beta")])
def test_parametric_benefits_reject_fields_that_are_not_numbers(family, field, value):
    fields = dict(zip(family.__dataclass_fields__, (1.0, 1.0)), **{field: value})
    with pytest.raises(FieldError, match=f"^{field} must be a number$") as info:
        family(**fields)
    assert info.value.field == field


@pytest.mark.parametrize("value", [np.float64(0.5), np.float32(0.5), np.int64(2), np.array(0.5)],
                         ids=["float64", "float32", "int64", "0-d-array"])
@pytest.mark.parametrize("family", [Linear, CobbDouglas])
def test_parametric_benefits_take_numpy_scalars(family, value):
    assert family(value, value)(1.0, 0.5) == family(float(value), float(value))(1.0, 0.5)


@pytest.mark.parametrize("value", [True, False, np.bool_(True)],
                         ids=["true", "false", "numpy-bool"])
@pytest.mark.parametrize("family,field", [(Linear, "w1"), (Linear, "w2"),
                                          (CobbDouglas, "alpha"), (CobbDouglas, "beta")])
def test_parametric_benefits_reject_booleans(family, field, value):
    # a scenario dump would write the field as true/false, which no parser reads back
    fields = dict(zip(family.__dataclass_fields__, (1.0, 1.0)), **{field: value})
    with pytest.raises(FieldError, match=f"^{field} must be a number$") as info:
        family(**fields)
    assert info.value.field == field


@pytest.mark.parametrize("family,field,rule",
                         [(Linear, "w2", ">= 0"), (CobbDouglas, "beta", "> 0")])
def test_parametric_benefits_keep_their_range_errors(family, field, rule):
    with pytest.raises(FieldError, match=f"^{field} must be {rule}$"):
        family(1.0, -1.0)


# ---------------------------------------------------------------------------
# spec calls: arrays in, a float back at scalar inputs
# ---------------------------------------------------------------------------


BUILT_IN_BENEFITS = [
    CobbDouglas(0.7, 1.3),
    Linear(0.6, 0.4),
    TabulatedBenefit(np.arange(6.0).reshape(2, 3)),
]
BUILT_IN_INCOMES = [
    MultiplicativeIncome(CobbDouglas(0.7, 1.3)),
    MultiplicativeIncome(TabulatedBenefit(np.arange(6.0).reshape(2, 3))),
    AdditiveFeesIncome(),
    TabulatedIncome(np.arange(24.0).reshape(2, 3, 2, 2), (1.0, 2.0)),
]


@pytest.mark.parametrize("spec", BUILT_IN_BENEFITS, ids=lambda spec: type(spec).__name__)
def test_benefit_families_return_a_float_or_the_broadcast_array(spec):
    assert type(spec(0.5, 1.0)) is float
    assert type(spec(np.float64(0.5), 1)) is float
    out = spec(np.linspace(0.0, 1.0, 3)[:, None], np.linspace(0.0, 1.0, 4))
    assert type(out) is np.ndarray and out.shape == (3, 4)


@pytest.mark.parametrize("spec", BUILT_IN_INCOMES, ids=lambda spec: type(spec).__name__)
def test_income_families_return_a_float_or_the_broadcast_array(spec):
    assert type(spec(0.5, 0.25, 0.5, 1.0)) is float
    assert type(spec(np.float64(0.5), 0, 1, np.float64(0.5))) is float
    # the fees alone span the broadcast shape: additive income reads only them
    out = spec(np.linspace(0.0, 1.0, 3)[:, None], np.linspace(0.0, 2.0, 4), 0.5,
               np.linspace(0.0, 1.0, 4))
    assert type(out) is np.ndarray and out.shape == (3, 4)


class RecordingBenefit(BenefitSpec):
    """Records the argument types ``evaluate`` receives; returns ``s1 + s2``
    as an array, 0-d at scalar inputs."""

    def evaluate(self, s1, s2):
        self.seen = (type(s1), type(s2))
        return np.asarray(s1 + s2)


class RecordingIncome(IncomeSpec):
    """The income counterpart of :class:`RecordingBenefit`."""

    def evaluate(self, rho1, rho2, s1, s2):
        self.seen = tuple(type(v) for v in (rho1, rho2, s1, s2))
        return np.asarray(rho1 + rho2 + s1 + s2)


def test_user_specs_receive_arrays_and_return_a_float_at_scalar_inputs():
    benefit, income = RecordingBenefit(), RecordingIncome()
    out = benefit(0.5, 1)
    assert type(out) is float and out == 1.5
    assert benefit.seen == (np.ndarray, np.ndarray)
    out = income(0.25, np.float64(0.5), 1.0, 0)
    assert type(out) is float and out == 1.75
    assert income.seen == (np.ndarray,) * 4
    out = benefit([0.0, 0.5], 1.0)
    assert type(out) is np.ndarray and out.tolist() == [1.0, 1.5]


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


@pytest.mark.parametrize("axis", range(4), ids=["rho1", "rho2", "s1", "s2"])
def test_decreasing_income_cell_detected(axis):
    values = np.ones((2, 2, 2, 2))
    node = [0, 0, 0, 0]
    node[axis] = 1
    values[tuple(node)] = 0.5  # drops as this argument rises
    income = TabulatedIncome(values, (1.0, 1.0))
    assert not income_weakly_increasing(income, Grid(8))


def lattice_weakly_increasing(income, grid):
    """Reference: every np.diff of the full 4-D lattice tensor, at once."""
    r1, r2, s = grid.fee_axis(1), grid.fee_axis(2), grid.participation_axis()
    full = income(r1[:, None, None, None], r2[:, None, None], s[:, None], s)
    return all(bool((np.diff(full, axis=k) >= -STRICT_TOL).all()) for k in range(4))


@pytest.mark.parametrize("seed", range(8))
def test_income_weakly_increasing_matches_full_tensor_reference(seed):
    # node counts whose nodes all lie on the Grid(6) lattice, so a drop
    # planted at a node is a drop between adjacent lattice points
    rng = np.random.default_rng(seed)
    shape = tuple(rng.choice([2, 3, 4, 7], size=4))
    values = rng.uniform(0.1, 1.0, shape)
    for axis in range(4):
        values = np.cumsum(values, axis=axis)
    bounds = tuple(rng.uniform(0.5, 2.0, 2))
    grid = Grid(6, bounds)
    monotone = TabulatedIncome(values, bounds)
    assert income_weakly_increasing(monotone, grid)
    assert lattice_weakly_increasing(monotone, grid)

    for axis in range(4):
        # raising the nodes at index k - 1 on one axis by more than any step
        # plants a drop at k along that axis alone
        k = int(rng.integers(1, shape[axis]))
        ridge = (np.arange(shape[axis]) == k - 1).reshape([-1 if a == axis else 1 for a in range(4)])
        dropped = TabulatedIncome(values + values.max() * ridge, bounds)
        assert not income_weakly_increasing(dropped, grid)
        assert not lattice_weakly_increasing(dropped, grid)


def test_fee_monotone_accepts_the_parametric_incomes_over_nonnegative_families():
    lin, cd, tab = Linear(0.5, 0.5), CobbDouglas(1.0, 2.0), TabulatedBenefit([[0, 1], [1, 2]])

    class Shifted(Linear):
        def evaluate(self, s1, s2):
            return super().evaluate(s1, s2) - 0.25

    for f1, f2, activity in ((lin, cd, tab), (tab, lin, cd), (cd, cd, lin)):
        assert fee_monotone(game_payoffs(HedonicGame(f1, f2, MultiplicativeIncome(activity))))
        assert fee_monotone(game_payoffs(HedonicGame(f1, f2, AdditiveFeesIncome())))
    rejected = (
        game_payoffs(HedonicGame(lin, lin, TabulatedIncome(np.ones((2, 2, 2, 2)), (1.0, 1.0)))),
        game_payoffs(HedonicGame(Shifted(0.5, 0.5), lin, AdditiveFeesIncome())),
        game_payoffs(HedonicGame(lin, lin, MultiplicativeIncome(Shifted(0.5, 0.5)))),
        modified_game(HedonicGame(lin, lin, AdditiveFeesIncome()),
                      BeliefSystem(0.0, 0.2, 0.5, 0.5)),
        GamePayoffs(lambda p: 0.0, lambda p: 0.0, lambda p: 0.0),
    )
    assert not any(fee_monotone(pay) for pay in rejected)


BUILT_IN_BENEFITS = {"cd": CobbDouglas(1.0, 2.0), "lin": Linear(0.5, 0.5),
                     "tab": TabulatedBenefit([[0, 1], [1, 2]])}
# the family table: every built-in benefit family is nonnegative, and the
# income families that never fall as a fee rises are the parametric ones
BUILT_IN_INCOMES = {
    **{f"mult-{name}": (MultiplicativeIncome(f), True) for name, f in BUILT_IN_BENEFITS.items()},
    "additive": (AdditiveFeesIncome(), True),
    "tabulated": (TabulatedIncome(np.ones((2, 2, 2, 2)), (1.0, 1.0)), False),
}


@pytest.mark.parametrize("income", list(BUILT_IN_INCOMES))
@pytest.mark.parametrize("f2", list(BUILT_IN_BENEFITS))
@pytest.mark.parametrize("f1", list(BUILT_IN_BENEFITS))
def test_gates_and_fee_monotone_follow_the_family_table(f1, f2, income):
    income, monotone = BUILT_IN_INCOMES[income]
    game = HedonicGame(BUILT_IN_BENEFITS[f1], BUILT_IN_BENEFITS[f2], income)
    pay = game_payoffs(game)
    assert fee_monotone(pay) is monotone
    beliefs = BeliefSystem(0.25, 0.5, 0.75, 0.5)
    modified = modified_game(game, beliefs)
    # the modified bundle is a HedonicPayoffs whose gates name three levels
    assert not fee_monotone(modified)
    for s in ((1.0, 1.0), (0.5, 0.25), (0.0, 1.0)):
        assert pay.gates(*s) == ((s,) if monotone else None)
        assert modified.gates(*s) == (((1.0, 1.0), (0.75, 0.5), s) if monotone else None)


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
    assert np.array_equal(tab(nodes[:, None], nodes[None, :]), values)
    for (i, j), v in np.ndenumerate(values):
        assert tab(nodes[i], nodes[j]) == v
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


@pytest.mark.parametrize(
    "bounds",
    ["12", {1: 2, 3: 4}, (1.0,), (1.0, 2.0, 3.0), ("1", 1.0), (True, 1.0), np.array([True, True])],
    ids=["string", "mapping", "single", "triple", "string-entry", "boolean-entry", "boolean-array"],
)
def test_tabulated_income_fee_bounds_must_be_a_pair(bounds):
    with pytest.raises(FieldError, match="^fee_bounds must be a pair of numbers$") as info:
        TabulatedIncome(np.ones((2, 2, 2, 2)), bounds)
    assert info.value.field == "fee_bounds"


def test_game_tag_validated():
    cd = CobbDouglas(1.0, 1.0)
    with pytest.raises(ValueError):
        HedonicGame(cd, cd, AdditiveFeesIncome(), tag="nonsense")

