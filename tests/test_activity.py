"""Activity-level specialisation: exploitation conditions, the boundary
curve, and the region sampler."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from middleman import (
    AdditiveFeesIncome,
    BeliefSystem,
    BenchmarkPoint,
    CobbDouglas,
    HedonicGame,
    Linear,
    MultiplicativeIncome,
    PessimisticIncomeZeroError,
    RegionMap,
    TabulatedBenefit,
    activity_full_exploitation_condition,
    benchmark_full_exploitation_condition,
    boundary_curve,
    full_exploitation_verdict,
    region_sample,
)
from _support import random_benchmark_game, random_proper_beliefs, sigma_benchmark_game


def beliefs_at(gamma, loyalty=(0.5, 0.5)):
    return BeliefSystem(lambda_=0.0, gamma=gamma, loyalty1=loyalty[0], loyalty2=loyalty[1])


# ---------------------------------------------------------------------------
# ratio form of the exploitation condition
# ---------------------------------------------------------------------------


def test_ratio_condition_moderate_pessimism():
    # usage-drop ratio (2/1 - 1) * (1/0.5) = 2 against gamma/(1-gamma) = 1
    assert activity_full_exploitation_condition(sigma_benchmark_game(), beliefs_at(0.5))


def test_ratio_condition_high_pessimism():
    assert not activity_full_exploitation_condition(sigma_benchmark_game(), beliefs_at(0.8))


def test_ratio_condition_without_usage_drop():
    ones = TabulatedBenefit(np.ones((2, 2)))
    game = HedonicGame(ones, ones, MultiplicativeIncome(ones))
    assert activity_full_exploitation_condition(game, beliefs_at(0.0))
    assert not activity_full_exploitation_condition(game, beliefs_at(0.3))


def test_ratio_condition_zero_pessimistic_income_raises():
    cd = CobbDouglas(1.0, 1.0)
    game = HedonicGame(cd, cd, MultiplicativeIncome(cd))
    beliefs = beliefs_at(0.5, loyalty=(0.0, 0.5))
    with pytest.raises(PessimisticIncomeZeroError):
        activity_full_exploitation_condition(game, beliefs)
    # the difference form stays total and decides trivially
    assert full_exploitation_verdict(game, beliefs).full_exploitation


def test_ratio_condition_zero_activity_raises():
    half = Linear(0.5, 0.5)
    game = HedonicGame(half, half, MultiplicativeIncome(CobbDouglas(1.0, 1.0)))
    beliefs = beliefs_at(0.5, loyalty=(0.0, 0.5))
    with pytest.raises(PessimisticIncomeZeroError):
        activity_full_exploitation_condition(game, beliefs)
    assert full_exploitation_verdict(game, beliefs).full_exploitation


def test_ratio_condition_requires_multiplicative_income():
    half = Linear(0.5, 0.5)
    game = HedonicGame(half, half, AdditiveFeesIncome())
    with pytest.raises(TypeError):
        activity_full_exploitation_condition(game, beliefs_at(0.5))


@pytest.mark.parametrize("gamma,loyalty", [(1.0, (0.5, 0.5)), (0.5, (0.5, 1.0))])
def test_ratio_condition_shares_the_threshold_domain(gamma, loyalty):
    game, beliefs = sigma_benchmark_game(), beliefs_at(gamma, loyalty)
    with pytest.raises(ValueError) as ratio:
        activity_full_exploitation_condition(game, beliefs)
    with pytest.raises(ValueError) as difference:
        full_exploitation_verdict(game, beliefs)
    assert str(ratio.value) == str(difference.value)
    assert str(ratio.value).startswith("threshold test requires")


def test_ratio_condition_matches_difference_form():
    rng = np.random.default_rng(424242)
    compared = 0
    for _ in range(300):
        game, _ = random_benchmark_game(rng)
        beliefs = random_proper_beliefs(rng)
        verdict = full_exploitation_verdict(game, beliefs)
        if abs(verdict.delta - verdict.rhs) <= 1e-9:
            continue
        assert activity_full_exploitation_condition(game, beliefs) == verdict.full_exploitation
        compared += 1
    assert compared >= 250


# ---------------------------------------------------------------------------
# benchmark condition and boundary curve
# ---------------------------------------------------------------------------


def test_benchmark_condition_no_residual_activity():
    for gamma in (0.0, 0.4, 0.99):
        assert benchmark_full_exploitation_condition(BenchmarkPoint(gamma, 0.0))


def test_benchmark_condition_full_pessimism():
    assert not benchmark_full_exploitation_condition(BenchmarkPoint(1.0, 0.5))


def test_benchmark_condition_binding_point():
    # (1/3)(1/2) equals (2/3)(1/4); the inequality is weak, so it holds
    assert benchmark_full_exploitation_condition(BenchmarkPoint(2.0 / 3.0, 0.5))


def test_benchmark_point_validated():
    with pytest.raises(ValueError):
        BenchmarkPoint(1.1, 0.0)
    with pytest.raises(ValueError):
        BenchmarkPoint(0.0, -0.2)


def test_boundary_curve_spot_values():
    assert boundary_curve(0.0) == 1.0
    assert boundary_curve(1.0) == 0.0
    assert boundary_curve(0.5) == pytest.approx(2.0 / 3.0, abs=1e-15)


@pytest.mark.parametrize("sigma", [1.5, -0.1])
def test_boundary_curve_rejects_sigma_outside_the_unit_interval(sigma):
    with pytest.raises(ValueError, match=r"^sigma must lie in \[0, 1\]$"):
        boundary_curve(sigma)


def test_boundary_curve_of_an_array_is_the_float_call_entry_by_entry():
    sigmas = np.concatenate([np.linspace(0.0, 1.0, 1001), [1e-300, 0.1, 1 - 2**-53]])
    values = boundary_curve(sigmas)
    assert values.tolist() == [boundary_curve(s) for s in sigmas.tolist()]
    for bad in ([0.5, 1.5], [-0.1, 0.5], [0.5, np.nan]):
        with pytest.raises(ValueError, match=r"^sigma must lie in \[0, 1\]$"):
            boundary_curve(np.array(bad))


def test_boundary_curve_strictly_decreasing_into_unit_interval():
    sigmas = np.linspace(0.0, 1.0, 201)
    values = np.array([boundary_curve(s) for s in sigmas])
    assert np.all(np.diff(values) < 0)
    assert np.all((values >= 0.0) & (values <= 1.0))


def test_boundary_curve_matches_direct_inequality_bisection():
    # independent of the closed form: bisect the benchmark inequality itself
    for sigma in np.linspace(0.0, 1.0, 21):
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if (1.0 - mid) * (1.0 - sigma) >= mid * sigma * sigma:
                lo = mid
            else:
                hi = mid
        assert boundary_curve(float(sigma)) == pytest.approx(lo, abs=1e-12)


def test_benchmark_condition_equivalent_to_curve_threshold():
    axis = np.linspace(0.0, 1.0, 41)
    for gamma in axis:
        for sigma in axis:
            expected = gamma <= boundary_curve(float(sigma)) + 1e-12
            point = BenchmarkPoint(float(gamma), float(sigma))
            assert benchmark_full_exploitation_condition(point) == expected


# ---------------------------------------------------------------------------
# region sampling
# ---------------------------------------------------------------------------


def test_region_sample_lattice_shape_and_order():
    samples = region_sample(2)
    assert len(samples) == 9
    # row-major: gamma outer, sigma inner
    assert [(s.point.gamma, s.point.sigma) for s in samples[:4]] == [
        (0.0, 0.0),
        (0.0, 0.5),
        (0.0, 1.0),
        (0.5, 0.0),
    ]
    verdicts = {(s.point.gamma, s.point.sigma): s.full_exploitation for s in samples}
    assert verdicts[(0.0, 0.0)] and verdicts[(0.0, 0.5)] and verdicts[(0.5, 0.0)]
    assert not verdicts[(1.0, 0.5)] and not verdicts[(1.0, 1.0)]


def test_region_sample_rejects_degenerate_resolution():
    with pytest.raises(ValueError, match="^resolution must be at least 2$"):
        region_sample(1)
    with pytest.raises(TypeError, match="^resolution must be an integer$"):
        region_sample(2.5)


def test_region_no_residual_activity_column_all_true():
    for s in region_sample(10):
        if s.point.sigma == 0.0 and s.point.gamma < 1.0:
            assert s.full_exploitation


def test_region_monotone_toward_the_origin():
    res = 20
    samples = region_sample(res)
    grid = np.array([s.full_exploitation for s in samples]).reshape(res + 1, res + 1)
    # shrinking either coordinate never loses full exploitation
    assert np.all(grid[1:, :] <= grid[:-1, :])
    assert np.all(grid[:, 1:] <= grid[:, :-1])


def test_region_sample_matches_pointwise_condition_and_boundary():
    samples = region_sample(50)
    assert len(samples) == 51 * 51
    for s in samples:
        assert s.full_exploitation == benchmark_full_exploitation_condition(s.point)
        if s.point.gamma < 1.0 and s.point.sigma < 1.0:  # the threshold test's domain
            assert s.full_exploitation == (s.point.gamma <= boundary_curve(s.point.sigma))


@pytest.mark.parametrize("n", [7, 100, 300, 1000, 3161])
def test_region_verdicts_match_the_integer_certificate(n):
    # at gamma = i/n, sigma = j/n the region test (1 - gamma)(1 - sigma) >=
    # gamma sigma^2 is (n - i)(n - j) n >= i j^2, exact in integers. n = 300
    # holds the exact tie (i, j) = (200, 150); n = 3161 is the largest
    # resolution the point budget accepts. The certificate is made a block
    # of 64 gamma rows at a time, so its int64 products stay near 1.6 MB.
    verdicts = region_sample(n).full_exploitation
    j = np.arange(n + 1, dtype=np.int64)
    for lo in range(0, n + 1, 64):
        i = np.arange(lo, min(lo + 64, n + 1), dtype=np.int64)[:, None]
        exact = (n - i) * (n - j) * n >= i * j * j
        assert np.array_equal(verdicts[lo:lo + 64], exact)


@pytest.mark.parametrize("n", [*range(2, 65), 1000])
def test_bisected_verdicts_equal_the_broadcast_inequality(n):
    # each row's true count is a prefix search; the lattice is the one broadcast
    # of the inequality, bit for bit
    axis = np.arange(n + 1) / n
    g, s = axis[:, None], axis[None, :]
    assert np.array_equal(region_sample(n).full_exploitation, (1.0 - g) * (1.0 - s) >= g * s * s)


# the endpoints, the smallest subnormal and a larger one, drawn often so
# that axes repeat them
UNIT_FLOATS = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 5e-324, 1e-310, 0.5, 1.0]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(values=st.lists(UNIT_FLOATS, max_size=40))
@example([])
@example([0.5])
@example([0.0, 1.0])
@example([0.0, 0.0, 5e-324, 5e-324, 1e-310, 1.0, 1.0])
def test_region_verdicts_equal_the_broadcast_inequality_on_any_ascending_axis(values):
    # the prefix search over each gamma row needs only an ascending unit axis
    axis = np.sort(np.array(values, dtype=float))
    g, s = axis[:, None], axis[None, :]
    want = (1.0 - g) * (1.0 - s) >= g * s * s
    assert np.array_equal(RegionMap(axis).full_exploitation, want)


@pytest.mark.parametrize("axis", [[0.0, 1.0, 0.5], [0.0, 0.5, 1.5], [-0.1, 0.5], [0.0, np.nan]],
                         ids=["descending", "above-one", "negative", "nan"])
def test_region_map_needs_an_ascending_unit_axis_for_its_own_lattice(axis):
    # the bisection rests on the axis ascending within [0, 1]; a caller's
    # own lattice may come with any axis
    with pytest.raises(ValueError, match=r"^axis must ascend within \[0, 1\]$"):
        RegionMap(np.array(axis))
    verdicts = np.zeros((len(axis), len(axis)), bool)
    assert RegionMap(np.array(axis), verdicts).full_exploitation is verdicts


def test_region_sample_sequence_access():
    samples = region_sample(4)
    listed = list(samples)
    assert len(listed) == 25
    assert samples[-1] == listed[-1] == samples[24]
    assert samples[3:12:4] == listed[3:12:4]
    assert samples.full_exploitation.shape == (5, 5)
    assert samples.full_exploitation[2, 3] == samples[13].full_exploitation
    with pytest.raises(IndexError):
        samples[25]
    with pytest.raises(ValueError):
        samples.full_exploitation[0, 0] = False
