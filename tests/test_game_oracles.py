"""Grid-oracle tests: Nash deviations, weak dominance, Pareto efficiency, and
the zero-participation equilibrium family."""

import tracemalloc
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from middleman import (
    AdditiveFeesIncome,
    BeliefSystem,
    BenchmarkPoint,
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
    ambiguity_equilibrium_check,
    best_fee_response,
    epsilon_nash_check,
    full_extraction_fees,
    game_payoffs,
    modified_game,
    pareto_check,
    trivial_equilibria_check,
    weak_dominance_check,
)
from middleman import _scan, game, hedonic, oracles
from middleman.hedonic import FieldError, user_payoff
from _support import random_benchmark_game


def externality_game():
    cd = CobbDouglas(1.0, 1.0)
    return HedonicGame(cd, cd, MultiplicativeIncome(cd), tag="externality")


def linear_activity_game():
    half = Linear(0.5, 0.5)
    return HedonicGame(half, half, MultiplicativeIncome(half))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_grid_rejects_single_point():
    with pytest.raises(ValueError):
        Grid(1)


@pytest.mark.parametrize("steps", [0, -3])
def test_grid_rejects_degenerate_steps(steps):
    with pytest.raises(ValueError):
        Grid(steps)


def test_grid_rejects_non_integer_steps():
    with pytest.raises(TypeError):
        Grid(2.5)


def test_grid_rejects_negative_fee_bound():
    with pytest.raises(ValueError):
        Grid(10, (-0.1, 1.0))


@pytest.mark.parametrize(
    "bounds,problem",
    [
        ((float("nan"), 1.0), "must be finite"),
        ((float("inf"), 1.0), "must be finite"),
        ((10**400, 1.0), "must be finite"),
        # two characters or two keys are not two numbers
        ("12", "must be a pair of numbers"),
        ({1: 2, 3: 4}, "must be a pair of numbers"),
        # a string or a boolean entry is not a number either
        (("1", 1.0), "must be a pair of numbers"),
        ((True, 1.0), "must be a pair of numbers"),
    ],
    ids=["nan", "inf", "overflow", "string", "mapping", "string-entry", "boolean-entry"],
)
def test_grid_rejects_nonfinite_fee_bound(bounds, problem):
    with pytest.raises(ValueError, match=f"^fee_bounds {problem}"):
        Grid(10, bounds)


def test_profile_validates_ranges():
    with pytest.raises(ValueError):
        StrategyProfile(1.2, 0.5, 0.0, 0.0)
    with pytest.raises(ValueError):
        StrategyProfile(0.5, 0.5, -0.1, 0.0)


def test_negative_eps_rejected():
    pay = game_payoffs(externality_game())
    profile = StrategyProfile(1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        epsilon_nash_check(pay, profile, Grid(10), -1e-9)


@pytest.mark.parametrize("eps", [float("nan"), float("inf")])
def test_nonfinite_eps_rejected(eps):
    pay = game_payoffs(linear_activity_game())
    grid = Grid(10, (1.0, 1.0))
    refuted = StrategyProfile(0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="eps"):
        epsilon_nash_check(pay, refuted, grid, eps)
    with pytest.raises(ValueError, match="eps"):
        pareto_check(pay, refuted, grid, eps)
    with pytest.raises(ValueError, match="eps"):
        weak_dominance_check(pay, 1, 1.0, grid, eps)


def test_profile_outside_fee_box_rejected():
    pay = game_payoffs(externality_game())
    profile = StrategyProfile(1.0, 1.0, 1.5, 0.0)
    with pytest.raises(ValueError):
        epsilon_nash_check(pay, profile, Grid(10, (1.0, 1.0)))


def test_dominance_rejects_bad_player():
    pay = game_payoffs(externality_game())
    with pytest.raises(ValueError):
        weak_dominance_check(pay, 3, 1.0, Grid(10))


def test_grid_rejects_s_lo_at_one():
    with pytest.raises(ValueError, match=r"^s_lo must lie in \[0, 1\)$"):
        Grid(10, s_lo=1.0)


def test_fee_axis_rejects_bad_player():
    with pytest.raises(ValueError, match="^player must be 1 or 2$"):
        Grid(10).fee_axis(3)


def test_profile_below_s_lo_rejected():
    pay = game_payoffs(linear_activity_game())
    with pytest.raises(ValueError, match="^profile outside the strategy box: s1 < s_lo$"):
        epsilon_nash_check(pay, StrategyProfile(0.0, 1.0, 0.0, 0.0), Grid(10, s_lo=0.1))


def test_dominance_rejects_candidate_outside_the_box():
    pay = game_payoffs(linear_activity_game())
    with pytest.raises(ValueError, match="^candidate must lie in the participation box$"):
        weak_dominance_check(pay, 1, 0.05, Grid(10, s_lo=0.1))


_RANGE = ("ValueError", "{} must lie in [0, 1]")
_NEGATIVE = ("ValueError", "{} must be nonnegative")
_BELOW = ("ValueError", "profile outside the strategy box: {} < s_lo")
_ABOVE = ("ValueError", "profile outside the strategy box: {} exceeds its fee bound")
_SCALAR = ("ValueError", "profile field {} must be a scalar")
_NUMBER = ("FieldError", "{} must be a number")
# (value, outcome as s1 or s2, outcome as rho1 or rho2), None where accepted;
# the box is s >= 0.1 and rho <= 0.6
PROFILE_FIELD_CASES = {
    "one": (1.0, None, _ABOVE),
    "negative-zero": (-0.0, _BELOW, None),
    "int-zero": (0, _BELOW, None),
    "int-one": (1, None, _ABOVE),
    "float64": (np.float64(0.5), None, None),
    "nan": (float("nan"), _RANGE, _NEGATIVE),
    "inf": (float("inf"), _RANGE, _ABOVE),
    "-inf": (float("-inf"), _RANGE, _NEGATIVE),
    "above-one": (np.nextafter(1.0, 2.0), _RANGE, _ABOVE),
    "tiny-negative": (-1e-300, _RANGE, _NEGATIVE),
    "list": ([0.2, 0.5], _SCALAR, _SCALAR),
    "list-one-bad": ([0.5, -0.5, 0.5], _RANGE, _NEGATIVE),
    "0-d": (np.array(0.5), None, None),
    "0-d-bad": (np.array(-0.5), _RANGE, _NEGATIVE),
    "array-one-bad": (np.array([0.5, -0.5, 0.5]), _RANGE, _NEGATIVE),
    "array-one-below-box": (np.array([0.5, 0.05]), _SCALAR, _SCALAR),
    "array-one-above-box": (np.array([0.3, 0.9]), _SCALAR, _SCALAR),
    "string": ("a", _NUMBER, _NUMBER),
    "none": (None, _NUMBER, _NUMBER),
    "true": (True, _NUMBER, _NUMBER),
    "true-in-list": ([True, 0.5], _NUMBER, _NUMBER),
    "empty": (np.array([]), _SCALAR, _SCALAR),
    "huge-int": (10**400, _RANGE, _ABOVE),
    "huge-negative-int": (-(10**400), _RANGE, _NEGATIVE),
}


@pytest.mark.parametrize("field", ["s1", "s2", "rho1", "rho2"])
@pytest.mark.parametrize("label", list(PROFILE_FIELD_CASES))
def test_profile_and_box_validation_table(field, label):
    # each value in each field, the others valid: the profile's own checks,
    # then the oracles' box check, raise these types and texts or accept it
    value, as_s, as_rho = PROFILE_FIELD_CASES[label]
    want = as_s if field.startswith("s") else as_rho
    fields = dict({"s1": 0.5, "s2": 0.5, "rho1": 0.3, "rho2": 0.3}, **{field: value})
    try:
        oracles._require_in_box(StrategyProfile(**fields), Grid(10, (0.6, 0.6), 0.1))
    except (TypeError, ValueError) as exc:
        assert want is not None, exc
        assert (type(exc).__name__, str(exc)) == (want[0], want[1].format(field))
    else:
        assert want is None


# each argument that takes one number, called with that number; a fee sample
# holds it as its first fee, and its error names the samples
NUMBER_ARGUMENTS = {
    "eps": lambda v: epsilon_nash_check(
        game_payoffs(linear_activity_game()), StrategyProfile(1.0, 1.0, 0.5, 0.5), Grid(4), v),
    "candidate": lambda v: weak_dominance_check(
        game_payoffs(linear_activity_game()), 1, v, Grid(4)),
    "s_lo": lambda v: Grid(4, s_lo=v),
    "rho_samples": lambda v: trivial_equilibria_check(
        game_payoffs(externality_game()), [(v, 0.0)], Grid(4)),
    "gamma": lambda v: BenchmarkPoint(v, 0.5),
    "sigma": lambda v: BenchmarkPoint(0.5, v),
}
NOT_NUMBERS = {
    "true": True,
    "string": "0.5",
    "none": None,
    "complex": 1j,
    "true-in-list": [0.5, True],
    "array": np.array([0.5, 0.5]),
}


@pytest.mark.parametrize("label", list(NOT_NUMBERS))
@pytest.mark.parametrize("name", list(NUMBER_ARGUMENTS))
def test_number_arguments_reject_what_is_not_one_number(name, label):
    with pytest.raises(FieldError, match=f"^{name} must be a number$") as info:
        NUMBER_ARGUMENTS[name](NOT_NUMBERS[label])
    assert info.value.field == name


@pytest.mark.parametrize("value", [np.float32(0.5), np.int64(0), np.array(0.5)],
                         ids=["float32", "int64", "0-d-array"])
@pytest.mark.parametrize("name", list(NUMBER_ARGUMENTS))
def test_number_arguments_take_numpy_numbers(name, value):
    call = NUMBER_ARGUMENTS[name]
    assert call(value) == call(float(value))


def test_profile_stores_each_number_as_a_float_and_keeps_arrays():
    profile = StrategyProfile(1, np.float32(0.5), np.array(0.25), np.int64(1))
    assert [(type(v), v) for v in (profile.s1, profile.s2, profile.rho1, profile.rho2)] == [
        (float, 1.0), (float, 0.5), (float, 0.25), (float, 1.0)]
    axis = np.array([0.5, 1.0], np.float32)
    assert StrategyProfile(axis, 1.0, 0.0, 0.0).s1 is axis


def test_an_int_beyond_the_float_range_is_the_infinity_of_its_sign():
    values = game._numbers([10**400, -(10**400), 2, np.float32(0.5)], "values")
    assert values.tolist() == [np.inf, -np.inf, 2.0, 0.5]
    assert game._number(-(10**400), "x") == -np.inf
    for sign, text in ((1, "inf"), (-1, "-inf")):
        with pytest.raises(ValueError, match=f"^eps must be finite and nonnegative, got {text}$"):
            NUMBER_ARGUMENTS["eps"](sign * 10**400)


@pytest.mark.parametrize("sample", [float("inf"), 10**400, -1.0, float("nan")],
                         ids=["inf", "10**400", "-1.0", "nan"])
def test_fee_samples_are_checked_before_any_grid(sample):
    game = game_payoffs(externality_game())
    with pytest.raises(FieldError, match="^rho_samples must be finite and nonnegative$") as info:
        trivial_equilibria_check(game, [(sample, 0.0)], Grid(4))
    assert info.value.field == "rho_samples"


# each index argument, called with that index, and its error text
INDEX_ARGUMENTS = {
    "user_payoff": (lambda i: user_payoff(linear_activity_game(), i, StrategyProfile(1, 1, 0, 0)),
                    "user index must be 1 or 2"),
    "weak_dominance_check": (
        lambda i: weak_dominance_check(game_payoffs(linear_activity_game()), i, 1.0, Grid(4)),
        "player must be 1 or 2"),
    "fee_axis": (lambda i: Grid(4).fee_axis(i), "player must be 1 or 2"),
}


@pytest.mark.parametrize("index", [True, np.True_, 1.0, 2.0, np.float64(2.0), np.array([1, 2])],
                         ids=["true", "numpy-true", "one", "two", "numpy-two", "array"])
@pytest.mark.parametrize("site", list(INDEX_ARGUMENTS))
def test_index_arguments_reject_non_integers(site, index):
    # True and 1.0 equal 1 and an array fails inside ``in``, so a membership
    # test alone would not give the rule's error
    call, text = INDEX_ARGUMENTS[site]
    call(1)
    call(np.int64(2))
    with pytest.raises(ValueError, match=f"^{text}$"):
        call(index)


@pytest.mark.parametrize("s1", [np.array([]), np.array([0.5, 1.0])], ids=["empty", "pair"])
def test_oracles_reject_an_array_profile(s1):
    # payoff calls broadcast an array profile; an oracle checks one strategy,
    # so it names the field instead of failing inside numpy
    pay = game_payoffs(linear_activity_game())
    beliefs = BeliefSystem(lambda_=0.0, gamma=0.2, loyalty1=0.5, loyalty2=0.5)
    profile, grid = StrategyProfile(s1, 1.0, 0.5, 0.5), Grid(10)
    calls = (lambda: epsilon_nash_check(pay, profile, grid),
             lambda: pareto_check(pay, profile, grid),
             lambda: ambiguity_equilibrium_check(pay.game, beliefs, profile, grid))
    for call in calls:
        with pytest.raises(ValueError, match=r"^profile field s1 must be a scalar$"):
            call()


def test_scans_reduce_python_float_payoffs():
    # a plain bundle may return a Python float for an array profile
    profile, grid = StrategyProfile(0.5, 0.5, 0.1, 0.1), Grid(4)
    flat = GamePayoffs(lambda p: 0.5, lambda p: 0.5, lambda p: 0.25)
    assert epsilon_nash_check(flat, profile, grid)
    assert weak_dominance_check(flat, 1, 0.5, grid)
    assert pareto_check(flat, profile, grid)
    rising = GamePayoffs(lambda p: float(np.max(p.s1)), lambda p: 0.5, lambda p: 0.25)
    assert not epsilon_nash_check(rising, profile, grid)
    assert not pareto_check(rising, profile, grid)


def test_grid_axes_are_built_once_and_read_only():
    grid = Grid(10, (0.5, 2.0), 0.1)
    axes = (grid.participation_axis(), grid.fee_axis(1), grid.fee_axis(2))
    again = (grid.participation_axis(), grid.fee_axis(1), grid.fee_axis(2))
    assert all(a is b for a, b in zip(axes, again))
    assert [a[-1] for a in axes] == [1.0, 0.5, 2.0] and axes[0][0] == 0.1
    for axis in axes:
        with pytest.raises(ValueError, match="read-only"):
            axis[0] = 0.0
    # a replaced grid builds its own axes, from its own bounds
    wider = replace(grid, fee_bounds=(1.5, 3.0))
    assert wider.fee_axis(1) is not grid.fee_axis(1)
    assert np.array_equal(wider.fee_axis(1), Grid(10, (1.5, 3.0), 0.1).fee_axis(1))
    assert np.array_equal(wider.fee_axis(2), 3.0 * (np.arange(11) / 10))
    assert grid.fee_axis(2)[-1] == 2.0


def test_grid_builds_its_axes_only_when_read():
    tracemalloc.start()
    try:
        grid = Grid(10**12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid.steps == 10**12 and peak < 2**16, peak


def test_reused_grid_calls_allocate_no_axes():
    # at steps 1000, a check on a grid whose axes exist peaks below the same
    # check on a fresh grid by at least the three axes; a call that built
    # the axes it reads, as each call once did, peaks at least that high
    pay = game_payoffs(linear_activity_game())
    F = full_extraction_fees(pay.game)
    profile = StrategyProfile(1.0, 1.0, *F)
    checks = (lambda grid: pareto_check(pay, profile, grid),
              lambda grid: weak_dominance_check(pay, 1, 1.0, grid),
              lambda grid: weak_dominance_check(pay, 2, 1.0, grid))
    for check in checks:
        assert check(Grid(1000, F))  # first-call set-up outside the trace
        peaks = []
        for reused in (False, True):
            grid = Grid(1000, F)
            if reused:
                check(grid)
            tracemalloc.start()
            try:
                assert check(grid)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] + 3 * 1001 * 8 <= peaks[0], peaks


# ---------------------------------------------------------------------------
# Nash oracle
# ---------------------------------------------------------------------------


def test_full_extraction_profile_is_nash():
    game = externality_game()
    pay = game_payoffs(game)
    grid = Grid(20, full_extraction_fees(game))
    assert epsilon_nash_check(pay, StrategyProfile(1.0, 1.0, 1.0, 1.0), grid, 1e-9)


def test_underpriced_fees_are_not_nash():
    # the middleman improves by raising both fees toward full extraction
    game = externality_game()
    pay = game_payoffs(game)
    grid = Grid(20, full_extraction_fees(game))
    assert not epsilon_nash_check(pay, StrategyProfile(1.0, 1.0, 0.5, 0.5), grid, 1e-9)


def test_partial_participation_is_not_nash():
    game = externality_game()
    pay = game_payoffs(game)
    grid = Grid(20, full_extraction_fees(game))
    assert not epsilon_nash_check(pay, StrategyProfile(0.5, 1.0, 0.0, 0.0), grid, 1e-9)


def test_nash_verdict_monotone_in_eps():
    # best fee deviation from (0.5, 0.5) improves income by exactly 1, so the
    # verdict flips at eps = 1 (a tie at eps counts as non-improving)
    game = externality_game()
    pay = game_payoffs(game)
    grid = Grid(20, full_extraction_fees(game))
    profile = StrategyProfile(1.0, 1.0, 0.5, 0.5)
    assert not epsilon_nash_check(pay, profile, grid, 1e-9)
    assert not epsilon_nash_check(pay, profile, grid, 0.999999)
    assert epsilon_nash_check(pay, profile, grid, 1.0)
    assert epsilon_nash_check(pay, profile, grid, 2.0)


def test_refining_grid_keeps_false_verdicts_false():
    game = externality_game()
    pay = game_payoffs(game)
    for profile in (
        StrategyProfile(1.0, 1.0, 0.5, 0.5),
        StrategyProfile(0.5, 1.0, 0.0, 0.0),
    ):
        for steps in (20, 40, 80):
            assert not epsilon_nash_check(
                pay, profile, Grid(steps, full_extraction_fees(game)), 1e-9
            )


def test_exact_equilibria_pass_at_every_resolution():
    rng = np.random.default_rng(5150)
    for _ in range(6):
        game, s_lo = random_benchmark_game(rng)
        F = full_extraction_fees(game)
        pay = game_payoffs(game)
        profile = StrategyProfile(1.0, 1.0, *F)
        for steps in (7, 20, 33):
            assert epsilon_nash_check(pay, profile, Grid(steps, F, s_lo), 1e-9)


# ---------------------------------------------------------------------------
# weak dominance
# ---------------------------------------------------------------------------


def test_full_participation_dominates_linear():
    half = Linear(0.5, 0.5)
    game = HedonicGame(half, half, MultiplicativeIncome(half))
    pay = game_payoffs(game)
    grid = Grid(20, full_extraction_fees(game))
    assert weak_dominance_check(pay, 1, 1.0, grid, 1e-9)
    assert weak_dominance_check(pay, 2, 1.0, grid, 1e-9)


def test_full_participation_dominates_on_degenerate_boundary():
    # multiplicative benefits are flat where the other user opts out, but the
    # candidate still ties there, so dominance holds on the full grid
    game = externality_game()
    pay = game_payoffs(game)
    grid = Grid(10, full_extraction_fees(game))
    assert weak_dominance_check(pay, 1, 1.0, grid, 1e-9)


def test_zero_participation_is_dominated():
    half = Linear(0.5, 0.5)
    game = HedonicGame(half, half, MultiplicativeIncome(half))
    pay = game_payoffs(game)
    grid = Grid(20, full_extraction_fees(game))
    assert not weak_dominance_check(pay, 1, 0.0, grid, 1e-9)


# ---------------------------------------------------------------------------
# Pareto efficiency
# ---------------------------------------------------------------------------


def test_full_extraction_profile_is_pareto_efficient():
    game = linear_activity_game()
    pay = game_payoffs(game)
    grid = Grid(10, full_extraction_fees(game))
    assert pareto_check(pay, StrategyProfile(1.0, 1.0, 1.0, 1.0), grid, 1e-9)


def test_opt_out_profile_is_dominated():
    # (1, 1, (0.5, 0.5)) improves every payoff over total opt-out
    game = linear_activity_game()
    pay = game_payoffs(game)
    grid = Grid(10, full_extraction_fees(game))
    assert not pareto_check(pay, StrategyProfile(0.0, 0.0, 0.0, 0.0), grid, 1e-9)


def test_random_search_dominators_refute_pareto():
    rng = np.random.default_rng(31)
    found = 0
    for _ in range(40):
        game, s_lo = random_benchmark_game(rng)
        pay = game_payoffs(game)
        F = full_extraction_fees(game)
        grid = Grid(12, F, s_lo)
        s_ax = grid.participation_axis()
        r1, r2 = grid.fee_axis(1), grid.fee_axis(2)

        def pick():
            return StrategyProfile(
                float(rng.choice(s_ax)),
                float(rng.choice(s_ax)),
                float(rng.choice(r1)),
                float(rng.choice(r2)),
            )

        profile = pick()
        base = pay.payoffs(profile)
        dominator = None
        for _ in range(300):
            cand = pick()
            vals = pay.payoffs(cand)
            if all(v >= b for v, b in zip(vals, base)) and any(
                v > b + 1e-9 for v, b in zip(vals, base)
            ):
                dominator = cand
                break
        if dominator is not None:
            found += 1
            assert not pareto_check(pay, profile, grid, 1e-9)
    assert found >= 10  # the search must actually exercise the property


def test_constant_income_pareto_verdict_recorded():
    # With income constant in every argument the full-extraction profile is
    # dominated by a fee cut (users gain, the middleman is indifferent); this
    # pins the oracle's behaviour for the weakly-increasing edge case.
    half = Linear(0.5, 0.5)
    constant = TabulatedIncome(np.ones((2, 2, 2, 2)), (1.0, 1.0))
    game = HedonicGame(half, half, constant)
    pay = game_payoffs(game)
    grid = Grid(10, full_extraction_fees(game))
    assert not pareto_check(pay, StrategyProfile(1.0, 1.0, 1.0, 1.0), grid, 1e-9)


# ---------------------------------------------------------------------------
# the fee-monotone Pareto path against the scan
# ---------------------------------------------------------------------------

benefits = st.one_of(
    st.builds(Linear, st.floats(0.05, 1.0), st.floats(0.05, 1.0)),
    st.builds(CobbDouglas, st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
)
tables = st.lists(st.lists(st.floats(0.0, 2.0), min_size=3, max_size=3), min_size=3,
                  max_size=3).map(TabulatedBenefit)
EPS = (0.0, 1e-9, 1e-3, 0.05, 0.3)


@st.composite
def pareto_cases(draw, benefits=benefits, steps=st.integers(2, 10)):
    """A game over ``benefits`` (fee-monotone by default), a grid whose fee
    bounds reach full extraction or beyond, and a profile at full extraction,
    on the grid, or anywhere in the strategy box."""
    incomes = st.one_of(st.builds(MultiplicativeIncome, benefits), st.just(AdditiveFeesIncome()))
    game = HedonicGame(draw(benefits), draw(benefits), draw(incomes))
    F = full_extraction_fees(game)
    scale = draw(st.sampled_from((1.0, 1.5)))
    grid = Grid(draw(steps), (F[0] * scale, F[1] * scale), draw(st.sampled_from((0.0, 0.1))))
    s = grid.participation_axis()
    axes = (s, s, grid.fee_axis(1), grid.fee_axis(2))
    kind = draw(st.sampled_from(("full", "grid", "grid", "off")))
    if kind == "full":
        point = (1.0, 1.0, *F)
    elif kind == "grid":
        point = [draw(st.sampled_from(ax.tolist())) for ax in axes]
    else:
        point = [draw(st.floats(ax[0], ax[-1])) for ax in axes]
    return game, grid, StrategyProfile(*point)


def bare(pay):
    return GamePayoffs(pay.payoff_user1, pay.payoff_user2, pay.payoff_middleman)


def weak_maxima(pay, profile, grid):
    """The payoffs at ``profile``, and each player's largest payoff over the
    grid profiles that weakly improve all three (-inf where there are none),
    one s1 level at a time. The scan finds a dominator at ``eps`` iff some
    player's maximum beats its payoff by more than ``eps``: ``p > t + eps``
    holds at the maximum if it holds anywhere."""
    s = grid.participation_axis()
    shape = (s.size,) * 3
    t = pay.payoffs(profile)
    top = np.full(3, -np.inf)
    for s1 in s:
        level = StrategyProfile(s1, s[:, None, None], grid.fee_axis(1)[:, None], grid.fee_axis(2))
        p = [f(level) for f in (pay.payoff_user1, pay.payoff_user2, pay.payoff_middleman)]
        weak = (p[0] >= t[0]) & (p[1] >= t[1]) & (p[2] >= t[2])
        top = np.maximum(top, [np.broadcast_to(q, shape).max(where=weak, initial=-np.inf)
                               for q in p])
    return np.array(t), top


def boundary_eps(pay, profile, grid, maxima=None):
    """Each player's largest gain over the grid profiles that weakly improve
    all three payoffs, and the float neighbours of each: the eps where a
    player's gain turns from strict to a tie. ``maxima`` is what
    ``weak_maxima`` returns for these arguments, if already known."""
    t, top = maxima or weak_maxima(pay, profile, grid)
    out = []
    for gain in np.maximum(top - t, 0.0).tolist():
        out += [gain, max(float(np.nextafter(gain, 0.0)), 0.0), float(np.nextafter(gain, np.inf))]
    return out


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=pareto_cases(), eps=st.one_of(st.sampled_from(EPS), st.integers(0, 8)))
def test_fee_monotone_pareto_path_matches_the_scan(case, eps):
    # an integer eps picks one of the boundary_eps values
    game, grid, profile = case
    pay = game_payoffs(game)
    if isinstance(eps, int):
        eps = boundary_eps(pay, profile, grid)[eps]
    assert pareto_check(pay, profile, grid, eps) == pareto_check(bare(pay), profile, grid, eps)


def nash_boundary_eps(pay, profile, grid):
    """Each deviation set's largest gain over the profile's own payoff, from
    one call on the whole set, and the float neighbours of each: the eps
    where the set's verdict turns. Gains that are not finite are left out."""
    s, r1, r2 = grid.participation_axis(), grid.fee_axis(1), grid.fee_axis(2)
    sets = ((pay.payoff_user1, (s, profile.s2, profile.rho1, profile.rho2)),
            (pay.payoff_user2, (profile.s1, s, profile.rho1, profile.rho2)),
            (pay.payoff_middleman, (profile.s1, profile.s2, r1[:, None], r2)))
    out = []
    for f, fields in sets:
        gain = max(0.0, float(np.max(np.asarray(f(StrategyProfile(*fields))) - f(profile))))
        if gain < np.inf:
            out += [gain, float(np.nextafter(gain, 0.0)), float(np.nextafter(gain, np.inf))]
    return out


@st.composite
def belief_systems(draw):
    """One proper belief system of floats. Its plain weight
    ``1.0 - lambda_ - gamma`` may round below 0, as it does for
    ``NEGATIVE_PLAIN_WEIGHT``, whose ``lambda_ + gamma`` rounds to 1."""
    gamma = draw(st.floats(0.0, 1.0))
    lam = draw(st.floats(0.0, 1.0 - gamma))
    return BeliefSystem(lam, gamma, draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0)))


NEGATIVE_PLAIN_WEIGHT = BeliefSystem(0.5188076320551221, 0.4811923679448779, 0.5, 0.25)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=pareto_cases(st.one_of(benefits, tables)),
       beliefs=st.one_of(belief_systems(), st.just(NEGATIVE_PLAIN_WEIGHT)))
def test_hedonic_nash_path_matches_the_scan(case, beliefs):
    # eps at EPS and at each deviation set's largest gain and its float
    # neighbours, where one ulp of a payoff flips the verdict
    game, grid, profile = case
    pay, modified = game_payoffs(game), modified_game(game, beliefs)
    for eps in (*EPS, *nash_boundary_eps(pay, profile, grid)):
        assert epsilon_nash_check(pay, profile, grid, eps) == epsilon_nash_check(
            bare(pay), profile, grid, eps), eps
    for eps in (*EPS, *nash_boundary_eps(modified, profile, grid)):
        assert ambiguity_equilibrium_check(game, beliefs, profile, grid, eps) == (
            epsilon_nash_check(bare(modified), profile, grid, eps)), eps


def outcome(call):
    """What ``call`` returns, or the type and text of what it raises."""
    try:
        return call()
    except ValueError as exc:
        return type(exc), str(exc)


def test_hedonic_nash_path_matches_the_scan_where_the_corners_refuse():
    # a plain weight below 0, array beliefs (one and two entries) and a
    # benefit or income that is not finite: the corners take the scan
    assert 1.0 - NEGATIVE_PLAIN_WEIGHT.lambda_ - NEGATIVE_PLAIN_WEIGHT.gamma == -2.0**-54
    sigma = linear_activity_game()
    grid = Grid(8, full_extraction_fees(sigma))
    cases = []
    for beliefs in (NEGATIVE_PLAIN_WEIGHT, BeliefSystem(0.1, np.array([0.3]), 0.5, 0.5),
                    BeliefSystem(0.1, np.array([0.3, 0.6]), 0.5, 0.5)):
        for point in ((1.0, 1.0, 1.0, 1.0), (0.75, 1.0, 0.5, 0.25), (0.5, 0.5, 0.125, 0.5)):
            cases.append((modified_game(sigma, beliefs), grid, StrategyProfile(*point)))
    # test_an_infinite_top_level_keeps_every_level's game: the activity
    # 9e307 (s1 + s2) overflows at (1, 1) and earns NaN there at zero fees
    game = HedonicGame(sigma.f1, sigma.f2, MultiplicativeIncome(Linear(9e307, 9e307)))
    wide = Grid(20, (20.0, 20.0))
    for point in ((0.9, 1.0, 0.0, 0.0), (1.0, 1.0, 0.0, 0.0), (1.0, 1.0, 1.0, 1.0),
                  (0.5, 0.5, 0.25, 0.5)):
        # no weight on the optimistic income: an infinite one weighs in as 0 * inf
        for pay in (game_payoffs(game), modified_game(game, BeliefSystem(0.0, 0.5, 0.5, 0.5))):
            cases.append((pay, wide, StrategyProfile(*point)))
    verdicts = set()
    with np.errstate(over="ignore", invalid="ignore"):
        for pay, grid, profile in cases:
            boundary = outcome(lambda: nash_boundary_eps(pay, profile, grid))
            for eps in (*EPS, *(boundary if isinstance(boundary, list) else ())):
                got = outcome(lambda: epsilon_nash_check(pay, profile, grid, eps))
                assert got == outcome(lambda: epsilon_nash_check(bare(pay), profile, grid, eps))
                verdicts.add(got if isinstance(got, bool) else "raises")
    assert verdicts == {True, False, "raises"}


def benchmark_resolution_cases():
    """The eight Cobb-Douglas/linear (f1, f2, activity) kinds with
    multiplicative income and the sigma game, at steps 37 and 60, each at
    (1, 1, F) and at a planted dominated profile: at (s_k, 1, rho) with
    affordable fees, (s_(k+1), 1, rho) improves every player."""
    specs = {"cd": (CobbDouglas(1.2, 0.7), CobbDouglas(0.9, 1.5), CobbDouglas(1.0, 1.0)),
             "lin": (Linear(0.7, 0.2), Linear(0.25, 0.8), Linear(0.5, 0.5))}
    games = []
    for kind in range(8):
        families = ["cd" if kind >> bit & 1 else "lin" for bit in (2, 1, 0)]
        f1, f2, g = (specs[f][i] for i, f in enumerate(families))
        games.append(("/".join(families), HedonicGame(f1, f2, MultiplicativeIncome(g)),
                      0.1 if "cd" in families[:2] else 0.0))
    games.append(("sigma", linear_activity_game(), 0.0))
    cases = []
    for steps in (37, 60):
        for label, game, s_lo in games:
            F = full_extraction_fees(game)
            grid = Grid(steps, F, s_lo)
            s = grid.participation_axis()
            a = s[steps // 2]
            rho = [grid.fee_axis(i)[int(0.5 * f(a, 1.0) / F[i - 1] * steps)]
                   for i, f in ((1, game.f1), (2, game.f2))]
            for where, profile in (("full", StrategyProfile(1.0, 1.0, *F)),
                                   ("planted", StrategyProfile(a, 1.0, *rho))):
                cases.append(pytest.param(game, grid, profile, id=f"{label}-{steps}-{where}"))
    return cases


@pytest.mark.parametrize("game,grid,profile", benchmark_resolution_cases())
def test_fee_monotone_pareto_path_matches_the_scan_at_benchmark_resolution(game, grid, profile):
    # steps 37 and 60 make the corner path bisect in six rounds; the scan's
    # verdict at each eps comes from one pass over the lattice (weak_maxima)
    pay = game_payoffs(game)
    t, top = maxima = weak_maxima(pay, profile, grid)
    for eps in (*EPS, *boundary_eps(pay, profile, grid, maxima)):
        assert pareto_check(pay, profile, grid, eps) == (not np.any(top > t + eps)), eps
    if grid.steps < 60:  # the reference against the scan itself, where that is cheap
        assert pareto_check(bare(pay), profile, grid, 1e-9) == (not np.any(top > t + 1e-9))


@contextmanager
def prefix_searches():
    """Run the oracles with ``_prefix_len`` recorded; yields the list of each
    call's ``(stop.size, holds calls)``, in order: the number of points it
    searches and how many times it evaluated the predicate."""
    searches = []
    prefix_len = oracles._prefix_len

    def recorded(holds, stop):
        calls = []

        def counted(k):
            calls.append(k)
            return holds(k)

        out = prefix_len(counted, stop)
        searches.append((stop.size, len(calls)))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracles, "_prefix_len", recorded)
        yield searches


@pytest.mark.parametrize("game,grid,profile", benchmark_resolution_cases())
def test_parametric_games_count_the_top_level_alone(game, grid, profile):
    # nondecreasing benefits and activity put no level above (1, 1), so every
    # prefix is the top's single point, counted in one predicate call
    with prefix_searches() as searches:
        pareto_check(game_payoffs(game), profile, grid)
    assert len(searches) in (2, 4)  # two corners, then two edges if weak
    assert all(search == (1, 1) for search in searches)


def test_the_prefix_search_runs_on_the_raised_levels_alone():
    # benefits of 0.5, 1 at (1, 1) and 2 at three other nodes of a grid that
    # hits every node: after the top's four counts (two corners, two edges),
    # the search runs on those three levels, in one block. At eps 0 the
    # middleman gains at the first raised corner (two searches, one per
    # user's corner); at eps 10 no one gains and both edges are searched too
    # (four), on every raised level, since all are weak corners
    grid = Grid(8, (2.0, 2.0))
    values = np.full((9, 9), 0.5)
    values[-1, -1] = 1.0
    values[2, 0] = values[3, 5] = values[8, 1] = 2.0
    peak = TabulatedBenefit(values)
    pay = game_payoffs(HedonicGame(peak, peak, AdditiveFeesIncome()))
    profile = StrategyProfile(1.0, 1.0, 0.0, 0.0)
    for eps, raised in ((0.0, 2), (10.0, 4)):
        with prefix_searches() as searches:
            verdict = pareto_check(pay, profile, grid, eps)
        assert searches[:4] == [(1, 1)] * 4
        assert [size for size, _ in searches[4:]] == [3] * raised
        assert verdict == pareto_check(bare(pay), profile, grid, eps) == (eps > 0)


def top_level_cases():
    """Profiles that the top level (1, 1) alone decides or leaves open on
    the corner path, each with a reason: a zero user payoff at full
    extraction, where every fee above F also leaves the user at least 0 but
    is not affordable; a corner below the middleman's payoff; an infinite
    benefit at the top; and an infinite activity there, which earns NaN at
    zero fees, so the first fee reaching t3 on an edge is not the count of
    incomes below it."""
    sigma = linear_activity_game()
    parametric = (sigma, externality_game(),
                  HedonicGame(CobbDouglas(1.2, 0.7), Linear(0.25, 0.8), AdditiveFeesIncome()))
    cases = []
    for game in parametric:
        F = full_extraction_fees(game)
        cases.append(("zero-payoff", game, Grid(10, (1.5 * F[0], 1.5 * F[1]), 0.1),
                      StrategyProfile(1.0, 1.0, *F)))
    # users keep their payoffs only up to fees (0.9, 0), which earn 0.9 < 0.95
    cases.append(("corner-below-t3", sigma, Grid(20, (1.0, 1.0)),
                  StrategyProfile(1.0, 1.0, 0.91, 0.04)))
    huge = Linear(1e308, 1e308)  # 2e308 overflows to inf at (1, 1) only
    for income in (AdditiveFeesIncome(), MultiplicativeIncome(sigma.f1)):
        for point in ((1.0, 1.0, 1.0, 1.0), (0.5, 0.5, 0.25, 2.0), (1.0, 0.5, 2.0, 0.0)):
            cases.append(("infinite-benefit", HedonicGame(huge, huge, income),
                          Grid(8, (2.0, 2.0)), StrategyProfile(*point)))
    for point in ((1.0, 1.0, 0.3, 0.0), (1.0, 1.0, 0.0, 0.3), (1.0, 1.0, 0.25, 0.25)):
        cases.append(("infinite-activity", HedonicGame(sigma.f1, sigma.f2,
                                                       MultiplicativeIncome(huge)),
                      Grid(4, (1.0, 1.0)), StrategyProfile(*point)))
    return [pytest.param(*case[1:], id=f"{case[0]}-{i}") for i, case in enumerate(cases)]


@pytest.mark.parametrize("game,grid,profile", top_level_cases())
def test_top_level_cases_match_the_scan(game, grid, profile):
    pay = game_payoffs(game)
    with np.errstate(over="ignore", invalid="ignore"):
        for eps in (*EPS, 0.04, 0.06, 1.0):
            assert pareto_check(pay, profile, grid, eps) == (
                pareto_check(bare(pay), profile, grid, eps)), eps


def test_an_infinite_top_level_keeps_every_level():
    # activity 9e307 (s1 + s2) overflows only at (1, 1), where zero fees earn
    # 0 * inf = NaN; at (0.95, 1) zero fees pay the users more than the
    # profile (0.9, 1, 0, 0) and the middleman its 0, and every positive fee
    # (the axis steps by 1) costs a user more than it gains, at the top too
    half = Linear(0.5, 0.5)
    pay = game_payoffs(HedonicGame(half, half, MultiplicativeIncome(Linear(9e307, 9e307))))
    grid = Grid(20, (20.0, 20.0))
    profile = StrategyProfile(0.9, 1.0, 0.0, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        assert not pareto_check(bare(pay), profile, grid)
        assert not pareto_check(pay, profile, grid)


def test_tabulated_income_and_other_bundles_take_the_scan(monkeypatch):
    scans, compared = [], []
    scan = _scan.any_strict_dominator
    improvement = _scan.any_improvement
    monkeypatch.setattr(_scan, "any_strict_dominator", lambda *a: scans.append(1) or scan(*a))
    monkeypatch.setattr(_scan, "any_improvement",
                        lambda v, *a: compared.append(np.size(v)) or improvement(v, *a))
    half = Linear(0.5, 0.5)
    grid = Grid(6, (1.0, 1.0))
    profile = StrategyProfile(1.0, 1.0, 1.0, 1.0)

    def slices_scanned(pay):
        scans.clear()
        pareto_check(pay, profile, grid)
        return len(scans)

    def fee_pairs_compared(pay, at=profile):
        # no user gains at these profiles, so the third comparison is the middleman's
        compared.clear()
        with np.errstate(over="ignore", invalid="ignore"):
            epsilon_nash_check(pay, at, grid)
        return compared[2]

    linear = game_payoffs(HedonicGame(half, half, MultiplicativeIncome(half)))
    tabulated = HedonicGame(half, half, TabulatedIncome(np.ones((2, 2, 2, 2)), (1.0, 1.0)))

    class Shifted(Linear):
        def evaluate(self, s1, s2):
            return super().evaluate(s1, s2) - 0.25

    beliefs = BeliefSystem(lambda_=0.0, gamma=0.2, loyalty1=0.5, loyalty2=0.5)
    shifted = Shifted(0.5, 0.5)
    modified = modified_game(linear.game, beliefs)
    others = (
        game_payoffs(tabulated),
        # a benefit family the corner argument knows nothing about, as a
        # user's benefit or as the activity
        game_payoffs(HedonicGame(shifted, half, AdditiveFeesIncome())),
        game_payoffs(HedonicGame(half, half, MultiplicativeIncome(shifted))),
    )
    assert slices_scanned(linear) == 0
    # the modified bundle's gates name three levels: its middleman is not the game's
    for pay in (bare(linear), modified, *others):
        assert slices_scanned(pay) > 0

    lattice = grid.fee_axis(1).size * grid.fee_axis(2).size
    # one box corner for the plain game; for the modified one a node per
    # axis for each of its three gate levels (the plain one is the top's here)
    assert fee_pairs_compared(linear) == 1 and fee_pairs_compared(modified) == 9
    overflowing = game_payoffs(HedonicGame(half, half, MultiplicativeIncome(Linear(9e307, 9e307))))
    for pay in (
        bare(linear),
        bare(modified),
        *others,
        modified_game(linear.game, NEGATIVE_PLAIN_WEIGHT),
        modified_game(linear.game, BeliefSystem(0.0, np.array([0.2]), 0.5, 0.5)),
        overflowing,
    ):
        assert fee_pairs_compared(pay) == lattice
    # a profile stores an int field as a float, so it takes its float twin's path
    assert fee_pairs_compared(linear, StrategyProfile(1, 1.0, 1.0, 1.0)) == 1


def number_twins(point):
    """The profile of ``point`` as float32s, as 0-d arrays and, where every
    entry is whole, as ints."""
    twins = [StrategyProfile(*map(np.float32, point)), StrategyProfile(*map(np.array, point))]
    if all(float(x).is_integer() for x in point):
        twins.append(StrategyProfile(*map(int, point)))
    return twins


@pytest.mark.parametrize("income", ["multiplicative", "tabulated"])
def test_profiles_of_other_number_types_take_the_float_profiles_verdict(monkeypatch, income):
    # the fee-monotone game takes every exact path, the tabulated one the
    # scans; each point is exact in float32. A twin compares as many payoffs
    # as its float profile does, so it takes the same path.
    compared = []
    improvement = _scan.any_improvement
    monkeypatch.setattr(_scan, "any_improvement",
                        lambda v, *a: compared.append(np.size(v)) or improvement(v, *a))

    def run(check, profile):
        compared.clear()
        return check(profile), list(compared)

    half = Linear(0.5, 0.5)
    incomes = {"multiplicative": MultiplicativeIncome(half),
               "tabulated": TabulatedIncome(np.ones((2, 2, 2, 2)), (1.0, 1.0))}
    game = HedonicGame(half, half, incomes[income])
    grid = Grid(8, full_extraction_fees(game))
    fields = (0.0, 0.25, 0.5, 0.5)
    beliefs = BeliefSystem(*fields)
    bundles = (game_payoffs(game), bare(game_payoffs(game)), modified_game(game, beliefs))
    checks = [lambda p, pay=pay, check=check: check(pay, p, grid)
              for pay in bundles for check in (epsilon_nash_check, pareto_check)]
    checks.append(lambda p: ambiguity_equilibrium_check(game, beliefs, p, grid))
    # beliefs store their numbers as floats too: an int lambda_, float32s
    # and 0-d arrays take the float beliefs' path, the corners for the
    # fee-monotone game (at most 4 x 4 middleman payoffs)
    belief_twins = (BeliefSystem(0, 0.25, 0.5, 0.5), BeliefSystem(*map(np.float32, fields)),
                    BeliefSystem(*map(np.array, fields)))
    verdicts = set()
    for point in ((1.0, 1.0, 1.0, 1.0), (1.0, 1.0, 0.0, 0.0), (0.5, 1.0, 0.25, 0.75),
                  (0.75, 0.5, 0.375, 0.25)):
        for check in checks:
            want = run(check, StrategyProfile(*point))
            verdicts.add(want[0])
            for twin in number_twins(point):
                assert run(check, twin) == want, (point, twin)
        at = StrategyProfile(*point)
        want = run(lambda p: ambiguity_equilibrium_check(game, beliefs, p, grid), at)
        assert income == "tabulated" or all(n <= 16 for n in want[1][2:])
        for twin in belief_twins:
            assert run(lambda p: ambiguity_equilibrium_check(game, twin, p, grid), at) == want
    assert verdicts == {True, False}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=pareto_cases(), extra=st.lists(st.floats(0.0, 1.0), max_size=3))
def test_verdicts_monotone_in_eps(case, extra):
    game, grid, profile = case
    pay = game_payoffs(game)
    eps = sorted(set(EPS) | set(extra) | set(boundary_eps(pay, profile, grid)))
    checks = (
        lambda e: epsilon_nash_check(pay, profile, grid, e),
        lambda e: weak_dominance_check(pay, 1, profile.s1, grid, e),
        lambda e: weak_dominance_check(pay, 2, profile.s2, grid, e),
        lambda e: pareto_check(pay, profile, grid, e),
        lambda e: pareto_check(bare(pay), profile, grid, e),
    )
    for check in checks:
        verdicts = [check(e) for e in eps]
        assert verdicts == sorted(verdicts)  # once true, true at every larger eps


def nash_pairs(pay, p, grid):
    """(deviation payoff, payoff at p) for every unilateral grid deviation,
    each deviation evaluated on its own as a scalar profile."""
    s = grid.participation_axis().tolist()
    r1, r2 = grid.fee_axis(1).tolist(), grid.fee_axis(2).tolist()
    deviations = (
        (pay.payoff_user1, [(x, p.s2, p.rho1, p.rho2) for x in s]),
        (pay.payoff_user2, [(p.s1, x, p.rho1, p.rho2) for x in s]),
        (pay.payoff_middleman, [(p.s1, p.s2, a, b) for a in r1 for b in r2]),
    )
    return [(f(StrategyProfile(*d)), f(p)) for f, devs in deviations for d in devs]


def dominance_pairs(pay, player, candidate, grid):
    """(alternative's payoff, candidate's payoff) for every grid strategy of
    user ``player`` in every grid context, one scalar profile each."""
    s = grid.participation_axis().tolist()
    r1, r2 = grid.fee_axis(1).tolist(), grid.fee_axis(2).tolist()
    f = pay.payoff_user1 if player == 1 else pay.payoff_user2

    def at(own, other, a, b):
        return f(StrategyProfile(own, other, a, b) if player == 1 else
                 StrategyProfile(other, own, a, b))

    pairs = []
    for other in s:
        for a in r1:
            for b in r2:
                cand = at(candidate, other, a, b)
                pairs += [(at(x, other, a, b), cand) for x in s]
    return pairs


def holds(pairs, eps):
    """The oracles' comparison on reference pairs: no alternative beats its
    reference by more than ``eps``."""
    return not any(alt > ref + eps for alt, ref in pairs)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(case=pareto_cases(st.one_of(benefits, tables), st.integers(2, 4)), data=st.data())
def test_brute_force_oracles_match_a_per_profile_reference(case, data):
    # the reference makes the oracles' comparison one deviation at a time; eps
    # also sits at each check's largest gain and its float neighbours, where
    # a single ulp of a payoff flips the verdict
    game, grid, profile = case
    pay = game_payoffs(game)
    s = grid.participation_axis()
    candidate = st.one_of(st.sampled_from(s.tolist()), st.floats(s[0], 1.0))
    checks = [
        (lambda e: epsilon_nash_check(pay, profile, grid, e), nash_pairs(pay, profile, grid)),
    ]
    for player in (1, 2):
        c = data.draw(candidate, label=f"candidate{player}")
        checks.append((lambda e, i=player, c=c: weak_dominance_check(pay, i, c, grid, e),
                       dominance_pairs(pay, player, c, grid)))
    for check, pairs in checks:
        top = max(0.0, max(alt - ref for alt, ref in pairs))
        for eps in (*EPS, top, float(np.nextafter(top, 0.0)), float(np.nextafter(top, np.inf))):
            assert check(eps) == holds(pairs, eps), eps


@pytest.mark.parametrize(
    "payoff",
    [lambda p: 1.0, lambda p: 2.0 - p.rho1 - p.rho2,
     lambda p: np.where(p.s1 < 0.5, 1.0 - p.rho1, 0.0)],
    ids=["constant", "fees-only", "user-1-level"],
)
def test_dominance_of_payoffs_that_ignore_the_own_level(payoff):
    # such a payoff comes back without the own-participation axis, so the
    # candidate is not its last row until the check broadcasts it
    pay = GamePayoffs(payoff, payoff, lambda p: 0.0)
    grid = Grid(4)
    for player in (1, 2):
        for candidate in (0.25, 1.0):
            want = holds(dominance_pairs(pay, player, candidate, grid), 1e-9)
            assert weak_dominance_check(pay, player, candidate, grid) == want


@pytest.mark.parametrize("budget", [1, 64, 300, 2**20])
@pytest.mark.parametrize(
    "payoff",
    [lambda p: 1.0, lambda p: 2.0 - p.rho1 - p.rho2,
     lambda p: np.where(p.s1 < 0.5, 1.0 - p.rho1, 0.0),
     lambda p: p.s1 * (1.0 - p.rho1) + p.s2 * p.rho2 - p.s1 * p.s2 * p.rho1],
    ids=["constant", "fees-only", "user-1-level", "full"],
)
def test_dominance_blocks_broadcast_every_payoff_shape(payoff, budget):
    # "full" uses both levels and both fees: a (6, block, 5, 5) result on
    # Grid(4); the others come back without some axes, so blocks of 1, 2 or
    # several levels of each are broadcast against the candidate rows
    pay = GamePayoffs(payoff, payoff, lambda p: 0.0)
    grid = Grid(4)
    for player in (1, 2):
        for candidate in (0.25, 0.6, 1.0):
            want = holds(dominance_pairs(pay, player, candidate, grid), 1e-9)
            with small_blocks(budget):
                assert weak_dominance_check(pay, player, candidate, grid) == want


# ---------------------------------------------------------------------------
# blocks: several participation levels per payoff call
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 5, 37, 61, 100])
def test_prefix_len_matches_the_first_false_index(n):
    # a row of n true-then-false flags per prefix length (all-false and
    # all-true rows included) plus 40 random ones, each searched over
    # range(stop) for stop 0, 1, n and three random stops, and over the
    # random stops alone; holds is asked only about indices below max(stop),
    # once in each of max(stop).bit_length() bisection rounds, and never
    # when every stop is 0
    rng = np.random.default_rng(n)
    cuts = np.concatenate([np.arange(n + 1), rng.integers(0, n + 1, 40)])
    flags = np.arange(n) < cuts[:, None]
    rows = np.arange(cuts.size)[:, None]
    all_stops = np.column_stack([np.zeros_like(cuts), np.ones_like(cuts), np.full_like(cuts, n),
                                 rng.integers(0, n + 1, (cuts.size, 3))])
    for stops in (all_stops, all_stops[:, 3:]):
        asked = []

        def holds(k):
            asked.append(k)
            return flags[rows, k]

        want = [[next((k for k in range(stop) if not flags[r, k]), stop) for stop in row]
                for r, row in enumerate(stops.tolist())]
        assert game._prefix_len(holds, stops).tolist() == want
        top = int(stops.max())
        assert len(asked) == top.bit_length()
        assert all(k.shape == stops.shape and 0 <= k.min() and k.max() < top for k in asked)
    zeros = np.zeros_like(all_stops)
    assert game._prefix_len(None, zeros).tolist() == zeros.tolist()


@pytest.mark.parametrize("n", [1, 2, 7, 64])
def test_prefix_len_counts_a_single_point(n):
    # one point is counted: holds is asked once, about every index below its
    # stop, and a stop of 0 asks about no index
    rng = np.random.default_rng(n)
    for cut in range(n + 1):
        flags = np.arange(n) < cut
        for stop in {0, 1, n, int(rng.integers(0, n + 1))}:
            asked = []

            def holds(k):
                asked.append(k)
                return flags[k]

            assert game._prefix_len(holds, np.array([stop])).tolist() == [min(cut, stop)]
            assert len(asked) == 1 and asked[0].tolist() == list(range(stop))


def test_pareto_corner_where_one_minus_t_rounds_to_the_top_fee():
    # at s = (1, 1) user 1's benefit is 1.0 and the top fee F = nextafter(1, 0),
    # and the profile leaves user 1 t = 5 * 2^-55: 1.0 - t rounds to F, so
    # searchsorted counts F, but 1.0 - F = 2^-53 < t, so user 1 keeps t only
    # below F. A corner read off b - t would hold F, where the middleman
    # would gain 2F - t3, more than any eps below; the scan's best weak gain
    # is about 1.25.
    F = float(np.nextafter(1.0, 0.0))
    half = Linear(0.5, 0.5)
    pay = game_payoffs(HedonicGame(half, half, AdditiveFeesIncome()))
    grid = Grid(4, (F, F))
    profile = StrategyProfile(0.25, 0.25, 0.25 - 5 * 2.0**-55, 0.25)
    assert pay.payoff_user1(profile) == 5 * 2.0**-55
    assert np.searchsorted(grid.fee_axis(1), 1.0 - 5 * 2.0**-55, side="right") == grid.steps + 1
    for eps in (*EPS, 1.3, 1.4, 1.45):
        assert pareto_check(pay, profile, grid, eps) == pareto_check(bare(pay), profile, grid, eps)
    assert pareto_check(pay, profile, grid, 1.4)


@contextmanager
def small_blocks(budget):
    """Run the oracles with ``_BLOCK_ELEMENTS`` set to ``budget``; yields the
    list of block lengths they go on to visit, in order."""
    sizes = []
    blocks = oracles._blocks

    def recorded(levels, payoffs, per_level):
        for block, out in blocks(levels, payoffs, per_level):
            sizes.append(len(block))
            yield block, out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracles, "_BLOCK_ELEMENTS", budget)
        mp.setattr(oracles, "_blocks", recorded)
        yield sizes


def layout(n, k):
    """Block lengths over ``n`` levels: runs of ``k`` from the first level."""
    return [k] * (n // k) + ([n % k] if n % k else [])


@pytest.mark.parametrize(
    "shape,budget,want",
    [((3,), 12, [4, 4, 2]), ((5,), 12, [2] * 5), ((3, 3), 12, [1] * 10),
     ((3, 3), 5, [1] * 10), ((3,), 2**20, [10])],
)
def test_blocks_cover_the_levels_in_order(shape, budget, want):
    # a level of the payoffs holds prod(shape) elements, and a block as many
    # levels as keep them within the budget, at least one
    levels = np.arange(10.0)[:, None]
    with small_blocks(budget) as sizes:
        blocks = [b for b, _ in oracles._blocks(
            levels, lambda b: np.zeros((len(b), *shape)), int(np.prod(shape)))]
    assert sizes == want
    assert np.array_equal(np.concatenate(blocks), levels)


def test_blocks_size_by_the_declared_per_level_count():
    # the block size comes from the per-level count alone, not from what the
    # payoffs return: here an array without the block axis
    for per_level, want in ((4, [3, 3, 3, 1]), (1, [10]), (13, [1] * 10)):
        with small_blocks(12) as sizes:
            out = list(oracles._blocks(np.arange(10.0), lambda b: np.zeros(4), per_level))
        assert sizes == want
        assert all(a.shape == (4,) for _, a in out)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=pareto_cases(steps=st.integers(4, 10)), k=st.integers(2, 3),
       eps=st.one_of(st.sampled_from(EPS), st.integers(0, 8)))
def test_fee_monotone_pareto_path_matches_the_scan_across_blocks(case, k, eps):
    # k levels a block: with n = steps + 1, a level of the corner path's
    # payoffs (the two benefits) holds n elements, and one of the scan's n^3
    game, grid, profile = case
    pay = game_payoffs(game)
    n = grid.steps + 1
    if isinstance(eps, int):
        eps = boundary_eps(pay, profile, grid)[eps]
    with small_blocks(k * n) as corner_sizes:
        corner = pareto_check(pay, profile, grid, eps)
    with small_blocks(k * n**3) as scan_sizes:
        scan = pareto_check(bare(pay), profile, grid, eps)
    assert corner == scan
    if corner:  # no dominator: every block was visited
        assert corner_sizes == scan_sizes == layout(n, k)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(case=pareto_cases(st.one_of(benefits, tables), st.integers(4, 10)), k=st.integers(1, 3),
       eps=st.one_of(st.sampled_from(EPS), st.integers(0, 8)))
def test_fee_monotone_pareto_path_matches_the_scan_above_the_top_level(case, k, eps):
    # a tabulated benefit or activity can rise above its value at (1, 1), so
    # the corner search runs on the levels where it does, k levels a block
    game, grid, profile = case
    pay = game_payoffs(game)
    n = grid.steps + 1
    if isinstance(eps, int):
        eps = boundary_eps(pay, profile, grid)[eps]
    with small_blocks(k * n):
        corner = pareto_check(pay, profile, grid, eps)
    with small_blocks(k * n**3):
        assert corner == pareto_check(bare(pay), profile, grid, eps)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(case=pareto_cases(st.one_of(benefits, tables), st.integers(4, 6)),
       k=st.integers(2, 3), data=st.data())
def test_dominance_matches_a_per_profile_reference_across_blocks(case, k, data):
    # a hedonic bundle's block is its benefit table: s.size + 1 elements per
    # level of the other user, the candidate's row included, so k levels a block
    game, grid, _ = case
    pay = game_payoffs(game)
    s = grid.participation_axis()
    for player in (1, 2):
        c = data.draw(st.one_of(st.sampled_from(s.tolist()), st.floats(s[0], 1.0)),
                      label=f"candidate{player}")
        pairs = dominance_pairs(pay, player, c, grid)
        top = max(0.0, max(alt - ref for alt, ref in pairs))
        for eps in (*EPS, top, float(np.nextafter(top, 0.0)), float(np.nextafter(top, np.inf))):
            with small_blocks(k * (s.size + 1)) as sizes:
                verdict = weak_dominance_check(pay, player, c, grid, eps)
            assert verdict == holds(pairs, eps), eps
            if verdict:
                assert sizes == layout(s.size, k)


class Holes(BenefitSpec):
    """``base`` with NaN wherever s1 or s2 is one of the listed levels: a NaN
    own level pays 0, and a NaN level of the other user makes every own
    level NaN in that context."""

    def __init__(self, base, s1_holes, s2_holes):
        self.base, self.holes = base, (s1_holes, s2_holes)

    def evaluate(self, s1, s2):
        hole = np.isin(s1, self.holes[0]) | np.isin(s2, self.holes[1])
        return np.where(hole, np.nan, self.base(s1, s2))


class Flat(BenefitSpec):
    """One float, whatever the participation levels."""

    def __init__(self, value):
        self.value = value

    def evaluate(self, s1, s2):
        return self.value


class Shifted(BenefitSpec):
    """``base`` minus a constant: negative at the levels where ``base`` is
    below it."""

    def __init__(self, base, shift):
        self.base, self.shift = base, shift

    def evaluate(self, s1, s2):
        return self.base(s1, s2) - self.shift


@st.composite
def dominance_cases(draw):
    """A game whose benefits may be NaN or negative at some levels or a bare
    scalar, a grid whose fee bounds lie below or above the benefits, and a
    candidate per user, on the grid or off it."""
    steps, s_lo = draw(st.integers(3, 8)), draw(st.sampled_from((0.0, 0.1)))
    s = Grid(steps, s_lo=s_lo).participation_axis().tolist()
    levels = st.lists(st.sampled_from(s), max_size=2)
    family = st.one_of(benefits, tables, st.builds(Holes, st.one_of(benefits, tables), levels,
                                                   levels), st.builds(Flat, st.floats(0.0, 1.5)),
                       st.builds(Shifted, benefits, st.floats(0.0, 1.0)))
    game = HedonicGame(draw(family), draw(family), AdditiveFeesIncome())
    grid = Grid(steps, (draw(st.floats(0.1, 2.0)), draw(st.floats(0.1, 2.0))), s_lo)
    candidates = [draw(st.one_of(st.sampled_from(s), st.floats(s_lo, 1.0))) for _ in (1, 2)]
    return game, grid, candidates


def dominance_gap(pay, player, candidate, grid):
    """The largest amount by which an alternative's payoff beats the
    candidate's in any grid context, or 0, from one call on the lattice."""
    s = grid.participation_axis()
    own, other = np.append(s, candidate)[:, None, None, None], s[:, None, None]
    r1, r2 = grid.fee_axis(1)[:, None], grid.fee_axis(2)
    f = pay.payoff_user1 if player == 1 else pay.payoff_user2
    pays = f(StrategyProfile(own, other, r1, r2) if player == 1 else
             StrategyProfile(other, own, r1, r2))
    pays = np.broadcast_to(pays, (s.size + 1, s.size, s.size, s.size))
    return max(0.0, float(np.max(pays[:-1] - pays[-1])))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=dominance_cases(), k=st.integers(1, 3),
       beliefs=st.one_of(st.none(), belief_systems()))
def test_hedonic_dominance_path_matches_the_scan_across_blocks(case, k, beliefs):
    # k levels a block on both paths: a level holds the benefit table's n + 1
    # rows on the hedonic path and (n + 1) n^2 payoffs on the scan; eps also
    # sits at the largest gap and its float neighbours, where one ulp flips
    # the verdict. With beliefs the bundle is modified_game's, whose users
    # are the plain game's.
    game, grid, candidates = case
    pay = game_payoffs(game) if beliefs is None else modified_game(game, beliefs)
    n = grid.steps + 1
    for player, c in zip((1, 2), candidates):
        top = dominance_gap(pay, player, c, grid)
        for eps in (*EPS, top, float(np.nextafter(top, 0.0)), float(np.nextafter(top, np.inf))):
            with small_blocks(k * (n + 1)) as sizes:
                verdict = weak_dominance_check(pay, player, c, grid, eps)
            with small_blocks(k * (n + 1) * n**2):
                assert verdict == weak_dominance_check(bare(pay), player, c, grid, eps), eps
            if verdict:  # no witness: every block was visited
                assert sizes == layout(n, k)


def test_hedonic_bundles_never_call_the_user_payoffs(monkeypatch):
    games = (HedonicGame(Linear(0.7, 0.2), CobbDouglas(0.9, 1.5), AdditiveFeesIncome()),
             HedonicGame(Holes(Linear(0.5, 0.5), [0.1], [1.0]), Flat(0.3), AdditiveFeesIncome()))
    grid = Grid(6, (1.0, 1.0), 0.1)
    cases = [(game, player, c) for game in games for player in (1, 2) for c in (0.1, 0.55, 1.0)]
    want = [weak_dominance_check(bare(game_payoffs(game)), *rest, grid) for game, *rest in cases]
    assert True in want and False in want
    # the Nash check: each user's deviations, the profile's own level last
    profiles = [StrategyProfile(*p) for p in ((1.0, 1.0, 0.0, 0.0), (0.55, 1.0, 0.25, 0.5),
                                               (1.0, 0.1, 0.9, 0.3))]
    nash = [(game, p) for game in games for p in profiles]
    want_nash = [epsilon_nash_check(bare(game_payoffs(game)), p, grid) for game, p in nash]
    assert True in want_nash and False in want_nash

    def raises(*args):
        raise AssertionError("user payoff evaluated")

    monkeypatch.setattr(hedonic, "user_payoff", raises)
    beliefs = BeliefSystem(0.1, 0.3, 0.5, 0.25)
    for (game, player, c), verdict in zip(cases, want):
        assert weak_dominance_check(game_payoffs(game), player, c, grid) == verdict
        assert weak_dominance_check(modified_game(game, beliefs), player, c, grid) == verdict
        with pytest.raises(AssertionError, match="user payoff evaluated"):
            weak_dominance_check(bare(game_payoffs(game)), player, c, grid)
    for (game, profile), verdict in zip(nash, want_nash):
        assert epsilon_nash_check(game_payoffs(game), profile, grid) == verdict
        with pytest.raises(AssertionError, match="user payoff evaluated"):
            epsilon_nash_check(bare(game_payoffs(game)), profile, grid)


def test_witnesses_planted_at_block_edges():
    # steps 8 at three levels a block: [0, 1, 2], [3, 4, 5], [6, 7, 8]. A
    # witness at level 2 closes the first block, one at level 3 opens the
    # second, and one at level 8 closes the last.
    grid = Grid(8, (1.0, 1.0))
    s = grid.participation_axis()
    n = s.size
    half = Linear(0.5, 0.5)
    hedonic = game_payoffs(HedonicGame(half, half, MultiplicativeIncome(half)))
    for level, visited in ((2, [3]), (3, [3, 3]), (8, [3, 3, 3])):
        # an alternative to full participation gains only against s[level]
        def gap(own, other):
            return np.where((other == s[level]) & (own < 1.0), 1.0, 0.0)

        pay = GamePayoffs(lambda p: gap(p.s1, p.s2), lambda p: gap(p.s2, p.s1), lambda p: 0.0)
        for player in (1, 2):
            with small_blocks(3 * (n + 1) * n**2) as sizes:  # (n+1) own levels by n^2 fees
                assert not weak_dominance_check(pay, player, 1.0, grid)
            assert sizes == visited
        # the scan: only the middleman gains, and only at s1 = s[level]
        pay = GamePayoffs(lambda p: 0.0, lambda p: 0.0,
                          lambda p: np.where(p.s1 == s[level], 1.0, 0.0))
        with small_blocks(3 * n**3) as sizes:  # n^3 profiles a level
            assert not pareto_check(pay, StrategyProfile(0.0, 0.0, 0.0, 0.0), grid)
        assert sizes == visited
        # the corner path on a linear game: every player gains by raising s1
        # at fixed fees, so (1, 1) dominates too and no block is visited
        profile = StrategyProfile(s[level - 1], 1.0, 0.25, 0.25)
        with small_blocks(3 * n) as sizes:  # n benefits a level
            assert not pareto_check(hedonic, profile, grid)
        assert sizes == []
        assert not pareto_check(bare(hedonic), profile, grid)
        # the corner path on benefits of 0.5, 1 at (1, 1) and 2 at (s[level], 0):
        # only fees of 0 keep both users' 1 at (1, 1, 0, 0), and they earn 0,
        # so the first dominator is (s[level], 0, 0.25, 0.25) on a fee axis
        # of 0.25 steps, in the block the level ends, opens or closes
        values = np.full((n, n), 0.5)
        values[-1, -1], values[level, 0] = 1.0, 2.0
        peak = TabulatedBenefit(values)
        tabulated = game_payoffs(HedonicGame(peak, peak, AdditiveFeesIncome()))
        profile = StrategyProfile(1.0, 1.0, 0.0, 0.0)
        fees = Grid(8, (2.0, 2.0))
        with small_blocks(3 * n) as sizes:
            assert not pareto_check(tabulated, profile, fees)
        assert sizes == visited
        assert not pareto_check(bare(tabulated), profile, fees)


def test_nash_scan_witnesses_planted_at_block_edges():
    # the middleman's scan runs over blocks of r1 rows: on Grid(8) at three
    # rows a block, a gain at row 2 closes the first block, one at row 3
    # opens the second, and one at row 8 closes the last; with no gain every
    # block is visited, each against the one own payoff
    grid = Grid(8, (1.0, 1.0))
    r1 = grid.fee_axis(1)
    profile = StrategyProfile(1.0, 1.0, 0.0, 0.0)
    for row, visited in ((2, [3]), (3, [3, 3]), (8, [3, 3, 3]), (None, [3, 3, 3])):
        gain_at = np.nan if row is None else r1[row]  # NaN: no gain anywhere
        own = []  # True for each call on the profile itself

        def middleman(p, gain_at=gain_at, own=own):
            own.append(np.ndim(p.rho1) == 0)
            return np.where((p.rho1 == gain_at) & (p.rho2 == 1.0), 1.0, 0.0)

        pay = GamePayoffs(lambda p: 0.0, lambda p: 0.0, middleman)
        with small_blocks(3 * r1.size) as sizes:
            assert epsilon_nash_check(pay, profile, grid) == (row is None)
        assert sizes == visited
        assert own.count(True) == 1


def test_exact_paths_keep_memory_flat_as_the_grid_grows():
    # from steps 200 on, a block of the corner path, of hedonic dominance, of
    # the Nash scan or of the fee response holds fewer levels than the grid,
    # so the traced peak stays put while the lattice grows; blocks sized by
    # the table instead of the budget, or the fee lattice in one call, would
    # make the peak at steps 400 about four times that at steps 200
    pay = game_payoffs(linear_activity_game())
    F = full_extraction_fees(pay.game)
    profile = StrategyProfile(1.0, 1.0, *F)
    beliefs = BeliefSystem(0.0, 0.25, 0.5, 0.5)
    checks = (lambda grid: pareto_check(pay, profile, grid),
              lambda grid: weak_dominance_check(pay, 1, 1.0, grid),
              lambda grid: weak_dominance_check(pay, 2, 1.0, grid),
              lambda grid: epsilon_nash_check(bare(pay), profile, grid),
              lambda grid: best_fee_response(pay.game, beliefs, grid))
    for check in checks:
        peaks = []
        for steps in (200, 400):
            grid = Grid(steps, F)
            assert check(grid)
            tracemalloc.start()
            try:
                assert check(grid)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0], peaks


# ---------------------------------------------------------------------------
# zero-participation equilibria
# ---------------------------------------------------------------------------


def test_trivial_equilibria_hold_for_arbitrary_fees():
    pay = game_payoffs(externality_game())
    grid = Grid(20, (1.0, 1.0))
    assert trivial_equilibria_check(pay, [(0.0, 0.0), (0.3, 0.9), (1.0, 1.0)], grid)


def test_trivial_equilibria_precondition_rejects_linear_benefits():
    half = Linear(0.5, 0.5)
    game = HedonicGame(half, half, MultiplicativeIncome(half))
    with pytest.raises(ValueError, match="opt-out boundary"):
        trivial_equilibria_check(game_payoffs(game), [(0.0, 0.0)], Grid(10))


def test_trivial_equilibria_vacuous_on_empty_samples():
    assert trivial_equilibria_check(game_payoffs(externality_game()), [], Grid(10))


def test_trivial_equilibria_refuted_at_a_sampled_fee_pair():
    # income 1 only at zero fees and zero participation: at fees (0.5, 0.5)
    # the middleman gains by dropping both fees to 0
    cd = CobbDouglas(1.0, 1.0)
    values = np.zeros((2, 2, 2, 2))
    values[0, 0, 0, 0] = 1.0
    pay = game_payoffs(HedonicGame(cd, cd, TabulatedIncome(values, (1.0, 1.0))))
    grid = Grid(10, (1.0, 1.0))
    assert trivial_equilibria_check(pay, [(0.0, 0.0)], grid)
    assert not trivial_equilibria_check(pay, [(0.0, 0.0), (0.5, 0.5)], grid)


def test_trivial_equilibria_need_a_grid_reaching_zero():
    pay = game_payoffs(externality_game())
    with pytest.raises(ValueError, match="^zero-participation check needs a grid reaching s = 0$"):
        trivial_equilibria_check(pay, [(0.0, 0.0)], Grid(10, s_lo=0.1))


def test_trivial_equilibria_admit_fees_beyond_grid_bounds():
    pay = game_payoffs(externality_game())
    assert trivial_equilibria_check(pay, [(2.5, 7.0)], Grid(10, (1.0, 1.0)))


# ---------------------------------------------------------------------------
# scan reductions
# ---------------------------------------------------------------------------


def test_primitive_tie_semantics():
    # an improvement of exactly eps is a tie
    assert not _scan.any_improvement(np.array([1.0]), 0.5, 0.5)
    assert _scan.any_improvement(np.array([1.0 + 1e-12]), 0.5, 0.5)
    assert not _scan.any_strict_dominator(
        np.array([1.0]), np.array([1.0]), np.array([1.0]), 1.0, 1.0, 1.0, 0.0
    )
