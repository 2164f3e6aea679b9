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
    epsilon_nash_check,
    full_extraction_fees,
    game_payoffs,
    modified_game,
    pareto_check,
    trivial_equilibria_check,
    weak_dominance_check,
)
from middleman import _scan, hedonic, oracles
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
_NUMBER = ("ValueError", "{} must be a number")
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


def test_tabulated_income_and_other_bundles_take_the_scan(monkeypatch):
    scans = []
    scan = _scan.any_strict_dominator
    monkeypatch.setattr(_scan, "any_strict_dominator", lambda *a: scans.append(1) or scan(*a))
    half = Linear(0.5, 0.5)
    grid = Grid(6, (1.0, 1.0))
    profile = StrategyProfile(1.0, 1.0, 1.0, 1.0)

    def slices_scanned(pay):
        scans.clear()
        pareto_check(pay, profile, grid)
        return len(scans)

    linear = game_payoffs(HedonicGame(half, half, MultiplicativeIncome(half)))
    tabulated = HedonicGame(half, half, TabulatedIncome(np.ones((2, 2, 2, 2)), (1.0, 1.0)))

    class Shifted(Linear):
        def evaluate(self, s1, s2):
            return super().evaluate(s1, s2) - 0.25

    beliefs = BeliefSystem(lambda_=0.0, gamma=0.2, loyalty1=0.5, loyalty2=0.5)
    shifted = Shifted(0.5, 0.5)
    assert slices_scanned(linear) == 0
    for pay in (
        bare(linear),
        game_payoffs(tabulated),
        modified_game(linear.game, beliefs),
        # a benefit family the corner argument knows nothing about, as a
        # user's benefit or as the activity
        game_payoffs(HedonicGame(shifted, half, AdditiveFeesIncome())),
        game_payoffs(HedonicGame(half, half, MultiplicativeIncome(shifted))),
    ):
        assert slices_scanned(pay) > 0


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
    # range(stop) for stop 0, 1, n and three random stops, from guesses that
    # are exact, one off either way, 0, the stop, or random (out of range
    # ones are clipped); holds is asked only about indices below max(stop),
    # and never when every stop is 0
    rng = np.random.default_rng(n)
    cuts = np.concatenate([np.arange(n + 1), rng.integers(0, n + 1, 40)])
    flags = np.arange(n) < cuts[:, None]
    rows = np.arange(cuts.size)[:, None]
    stops = np.column_stack([np.zeros_like(cuts), np.ones_like(cuts), np.full_like(cuts, n),
                             rng.integers(0, n + 1, (cuts.size, 3))])
    asked = []

    def holds(k):
        asked.append(k)
        return flags[rows, k]

    want = np.array([[next((k for k in range(stop) if not flags[r, k]), stop) for stop in row]
                     for r, row in enumerate(stops.tolist())])
    guesses = [want, want - 1, want + 1, np.zeros_like(stops), stops,
               *rng.integers(-3, n + 4, (4, *stops.shape))]
    for guess in guesses:
        assert oracles._prefix_len(holds, stops, guess).tolist() == want.tolist()
    assert all(k.shape == stops.shape and 0 <= k.min() and k.max() < n for k in asked)
    zeros = np.zeros_like(stops)
    for guess in guesses:
        assert oracles._prefix_len(None, zeros, guess).tolist() == zeros.tolist()


def test_pareto_corner_guess_is_confirmed():
    # at s = (1, 1) user 1's benefit is 1.0 and the top fee F = nextafter(1, 0),
    # and the profile leaves user 1 t = 5 * 2^-55: 1.0 - t rounds to F, so
    # searchsorted counts F, but 1.0 - F = 2^-53 < t, so user 1 keeps t only
    # below F. With F in user 1's corner the middleman would gain 2F - t3,
    # more than any eps below; the scan's best weak gain is about 1.25.
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


@st.composite
def dominance_cases(draw):
    """A game whose benefits may be NaN at some levels or a bare scalar, a
    grid whose fee bounds lie below or above the benefits, and a candidate
    per user, on the grid or off it."""
    steps, s_lo = draw(st.integers(3, 8)), draw(st.sampled_from((0.0, 0.1)))
    s = Grid(steps, s_lo=s_lo).participation_axis().tolist()
    levels = st.lists(st.sampled_from(s), max_size=2)
    family = st.one_of(benefits, tables, st.builds(Holes, st.one_of(benefits, tables), levels,
                                                   levels), st.builds(Flat, st.floats(0.0, 1.5)))
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
@given(case=dominance_cases(), k=st.integers(1, 3))
def test_hedonic_dominance_path_matches_the_scan_across_blocks(case, k):
    # k levels a block on both paths: a level holds the benefit table's n + 1
    # rows on the hedonic path and (n + 1) n^2 payoffs on the scan; eps also
    # sits at the largest gap and its float neighbours, where one ulp flips
    # the verdict
    game, grid, candidates = case
    pay = game_payoffs(game)
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

    def raises(*args):
        raise AssertionError("user payoff evaluated")

    monkeypatch.setattr(hedonic, "user_payoff", raises)
    for (game, player, c), verdict in zip(cases, want):
        assert weak_dominance_check(game_payoffs(game), player, c, grid) == verdict
        with pytest.raises(AssertionError, match="user payoff evaluated"):
            weak_dominance_check(bare(game_payoffs(game)), player, c, grid)


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
        # the corner path: every player gains by raising s1 at fixed fees and
        # nobody can gain from a lower s1, so the first dominator is at s[level]
        profile = StrategyProfile(s[level - 1], 1.0, 0.25, 0.25)
        with small_blocks(3 * n) as sizes:  # n benefits a level
            assert not pareto_check(hedonic, profile, grid)
        assert sizes == visited
        assert not pareto_check(bare(hedonic), profile, grid)


def test_exact_paths_keep_memory_flat_as_the_grid_grows():
    # from steps 200 on, a block of the corner path or of hedonic dominance
    # holds fewer levels than the grid, so the traced peak stays put while
    # the lattice grows; blocks sized by the table instead of the budget
    # would make the peak at steps 400 about four times that at steps 200
    pay = game_payoffs(linear_activity_game())
    F = full_extraction_fees(pay.game)
    profile = StrategyProfile(1.0, 1.0, *F)
    checks = (lambda grid: pareto_check(pay, profile, grid),
              lambda grid: weak_dominance_check(pay, 1, 1.0, grid),
              lambda grid: weak_dominance_check(pay, 2, 1.0, grid))
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
