"""The abstract's claims about the contested middleman as checked properties.

- Only a low enough probability of devastating loss keeps the middleman
  extracting maximal gains: ``full_exploitation_verdict`` never turns from
  false to true as the pessimism ``gamma`` rises at fixed loyalty. In floats
  too, ``gamma / (1 - gamma)`` never falls as ``gamma`` rises (each rounded
  step is monotone), and the loyalty income ``I_L`` is at least 0, so the
  right-hand side never falls while ``delta`` stays put.
- More loyalty leaves less room to exploit: at fixed ``gamma`` the verdict
  never turns from false to true as either loyalty level rises. The loyalty
  fees ``phi`` never fall as a level rises (each benefit is a monotone
  rounded expression of it), so ``delta = I(F) - I(phi)`` never rises and
  the retained income ``I_L``, with it the right-hand side, never falls.
  On every parametric game the threshold ``critical_gamma`` is
  ``(1 - p) / (1 - p + p q)`` in the fee ratio ``p`` and the activity ratio
  ``q`` (``1 - p`` for additive income), which ``test_closed_forms`` proves
  falls in both.
- Optimism never moves the verdict: at full participation the optimistic and
  the plain payoff coincide, so ``lambda_`` enters neither ``delta`` nor the
  right-hand side, and a ``sweep`` over it writes identical verdict columns.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from middleman import (
    AdditiveFeesIncome,
    BeliefSystem,
    CobbDouglas,
    HedonicGame,
    Linear,
    MultiplicativeIncome,
    cli,
    critical_gamma,
    full_exploitation_verdict,
    full_extraction_fees,
    loyalty_fees,
    parse_scenario,
)

SCENARIOS = sorted((Path(__file__).resolve().parents[1] / "scenarios").glob("*.yaml"))
WITH_BELIEFS = [p for p in SCENARIOS if parse_scenario(p.read_text()).beliefs is not None]

benefits = st.one_of(
    st.builds(Linear, st.floats(0.05, 1.0), st.floats(0.05, 1.0)),
    st.builds(CobbDouglas, st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
)
games = st.builds(lambda f1, f2, g: HedonicGame(f1, f2, MultiplicativeIncome(g)),
                  benefits, benefits, benefits)
loyalty_levels = st.floats(0.0, 0.99)


def gamma_sweep(game, loyalty1, loyalty2, extra=()):
    """An ascending gamma axis in [0, 1): a uniform lattice, ``extra``, and
    each loyalty pair's ``critical_gamma`` with its float neighbours, where
    the verdict turns."""
    at = BeliefSystem(0.0, 0.0, loyalty1, loyalty2)
    critical = np.ravel(critical_gamma(game, at))
    edges = [critical, np.nextafter(critical, 0.0), np.nextafter(critical, 1.0)]
    axis = np.concatenate([np.linspace(0.0, 1.0, 201)[:-1], *edges, np.asarray(extra, float)])
    return np.unique(axis[(axis >= 0.0) & (axis < 1.0)])


def assert_never_turns_true(game, loyalty1, loyalty2, extra=()):
    """Sweep gamma (first axis) against every loyalty pair (second axis) in
    one array call: along gamma no verdict goes from false to true."""
    loyalty1, loyalty2 = np.broadcast_arrays(np.ravel(loyalty1), np.ravel(loyalty2))
    gamma = gamma_sweep(game, loyalty1, loyalty2, extra)
    beliefs = BeliefSystem(0.0, gamma[:, None], loyalty1[None, :], loyalty2[None, :])
    full = full_exploitation_verdict(game, beliefs).full_exploitation
    assert full.shape == (gamma.size, loyalty1.size)
    assert not np.any(~full[:-1] & full[1:])
    return full


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_full_exploitation_never_turns_true_as_gamma_rises_on_shipped_games(path):
    config = parse_scenario(path.read_text())
    levels = np.linspace(0.0, 0.95, 20)
    loyalty1, loyalty2 = (g.ravel() for g in np.meshgrid(levels, levels, indexing="ij"))
    if config.beliefs is not None:
        loyalty1 = np.append(loyalty1, config.beliefs.loyalty1)
        loyalty2 = np.append(loyalty2, config.beliefs.loyalty2)
    full = assert_never_turns_true(config.game, loyalty1, loyalty2)
    # the sweep does reach both verdicts, so the property is not vacuous
    assert full[0].all() and not full[-1].all()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(game=games, loyalty=st.lists(st.tuples(loyalty_levels, loyalty_levels), min_size=1,
                                    max_size=4),
       extra=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=8))
def test_full_exploitation_never_turns_true_as_gamma_rises(game, loyalty, extra):
    assert_never_turns_true(game, *zip(*loyalty), extra)


def assert_loyalty_never_turns_true(game, gamma, levels):
    """Decide every point of a ``gamma x loyalty1 x loyalty2`` open mesh in
    one verdict call: at fixed gamma, no verdict goes from false to true as
    either loyalty level rises."""
    mesh = np.meshgrid(gamma, levels, levels, indexing="ij", sparse=True)
    full = full_exploitation_verdict(game, BeliefSystem(0.0, *mesh)).full_exploitation
    assert full.shape == (gamma.size, levels.size, levels.size)
    assert not np.any(~full[:, :-1] & full[:, 1:])
    assert not np.any(~full[:, :, :-1] & full[:, :, 1:])
    return full


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_full_exploitation_never_turns_true_as_loyalty_rises_on_shipped_games(path):
    config = parse_scenario(path.read_text())
    gamma = levels = np.linspace(0.0, 0.99, 60)
    if config.beliefs is not None:  # the scenario's own point among them
        gamma = np.append(gamma, config.beliefs.gamma)
        levels = np.append(levels, config.beliefs.loyalty)
    full = assert_loyalty_never_turns_true(config.game, np.unique(gamma), np.unique(levels))
    # some gamma turns the verdict along a loyalty axis, so the property is not vacuous
    assert np.any(full[:, :-1] & ~full[:, 1:])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(game=games, gamma=st.lists(st.floats(0.0, 0.99), min_size=1, max_size=6),
       levels=st.lists(loyalty_levels, max_size=8))
def test_full_exploitation_never_turns_true_as_loyalty_rises(game, gamma, levels):
    gamma = np.unique(np.append(np.linspace(0.0, 0.99, 12), gamma))
    levels = np.unique(np.append(np.linspace(0.0, 0.99, 25), levels))
    assert_loyalty_never_turns_true(game, gamma, levels)


def sweep_rows(path, tmp_path, *sweeps):
    """The rows of ``middleman sweep`` on ``path`` as CSV text, header first."""
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--scenario", str(path), "--out", str(out)]
    for spec in sweeps:
        argv += ["--sweep", spec]
    assert cli.main(argv) == 0
    return [line.split(",") for line in out.read_text().splitlines()]


@pytest.mark.parametrize("path", WITH_BELIEFS, ids=lambda p: p.stem)
def test_a_lambda_sweep_writes_identical_verdict_columns(path, tmp_path):
    # lambda from 0 to 1 - gamma at the scenario's gamma, and then at each of
    # twelve gammas up to 0.99 with lambda up to 0.005, so lambda + gamma <= 1
    gamma = parse_scenario(path.read_text()).beliefs.gamma
    header, *rows = sweep_rows(path, tmp_path, f"lambda=0:{1.0 - gamma!r}:51")
    assert header == ["lambda", "delta", "rhs", "full_exploitation"]
    assert len({tuple(row[1:]) for row in rows}) == 1
    header, *rows = sweep_rows(path, tmp_path, "gamma=0:0.99:12", "lambda=0:0.005:6")
    assert header == ["gamma", "lambda", "delta", "rhs", "full_exploitation"]
    by_gamma = {}
    for row in rows:
        by_gamma.setdefault(row[0], set()).add(tuple(row[2:]))
    assert len(by_gamma) == 12 and all(len(v) == 1 for v in by_gamma.values())
    assert len({v.pop()[-1] for v in by_gamma.values()}) == 2  # both verdicts occur


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(game=games, gamma=st.floats(0.0, 0.99), loyalty=st.tuples(loyalty_levels, loyalty_levels),
       shares=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
def test_optimism_never_moves_the_verdict(game, gamma, loyalty, shares):
    # every lambda within 1 - gamma gives the bits lambda = 0 gives
    plain = BeliefSystem(0.0, gamma, *loyalty)
    lam = np.clip(np.array(shares) * (1.0 - gamma), 0.0, 1.0 - gamma)
    lam = lam[lam + gamma <= 1.0]
    want = full_exploitation_verdict(game, plain)
    got = full_exploitation_verdict(game, replace(plain, lambda_=lam))
    for field in ("delta", "rhs", "full_exploitation"):
        column = getattr(got, field)
        assert np.array_equal(column, np.full(lam.shape, getattr(want, field)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(game=st.one_of(games, st.builds(lambda f1, f2: HedonicGame(f1, f2, AdditiveFeesIncome()),
                                       benefits, benefits)),
       loyalty=st.lists(st.tuples(loyalty_levels, loyalty_levels), min_size=1, max_size=8))
def test_critical_gamma_is_the_ratio_form(game, loyalty):
    # p = phi_hat / F_hat and q = g(l) / g(1, 1), in floats, one loyalty pair per entry
    l1, l2 = (np.array(levels) for levels in zip(*loyalty))
    beliefs = BeliefSystem(0.0, 0.0, l1, l2)
    F, phi = full_extraction_fees(game), loyalty_fees(game, beliefs)
    p = (phi[0] + phi[1]) / (F[0] + F[1])
    if isinstance(game.income, MultiplicativeIncome):
        g = game.income.activity
        q = g(l1, l2) / g(1.0, 1.0)
        form = (1.0 - p) / (1.0 - p + p * q)
    else:
        form = 1.0 - p
    assert np.abs(critical_gamma(game, beliefs) - form).max() <= 1e-15
