"""The paper's closed forms, proved with sympy and checked against the code.

On the sigma game every component is ``(s1 + s2) / 2`` and the loyalty
levels are ``(sigma, sigma)``. Its threshold test reads ``delta = 2 - 2 sigma``
against ``rhs = gamma / (1 - gamma) * I_L`` with loyalty income
``I_L = 2 sigma^2``, and full exploitation holds exactly below the boundary
``gamma*(sigma) = (1 - sigma) / (1 - sigma + sigma^2)``.
"""

import pytest
import sympy as sp

from middleman import (
    BeliefSystem,
    activity_full_exploitation_condition,
    boundary_curve,
    critical_gamma,
    full_exploitation_verdict,
)
from _support import sigma_benchmark_game

gamma, sigma = sp.symbols("gamma sigma", real=True)
BOUNDARY = (1 - sigma) / (1 - sigma + sigma**2)
LATTICE = 16


def sigma_game_terms():
    """``delta`` and ``I_L`` of the sigma game from the threshold test's
    definitions: ``F`` and ``phi`` extract each user's benefit at full and at
    loyalty participation, and the income is ``(rho1 + rho2) g(s1, s2)``."""
    s1, s2 = sp.symbols("s1 s2")
    component = sp.Lambda((s1, s2), (s1 + s2) / 2)  # every benefit and g

    def income(rho, s):
        return (rho[0] + rho[1]) * component(*s)

    full, loyal = (1, 1), (sigma, sigma)
    F = (component(*full),) * 2
    phi = (component(*loyal),) * 2
    return income(F, full) - income(phi, full), income(phi, loyal)


def test_sigma_game_delta_and_loyalty_income():
    delta, loyalty_income = sigma_game_terms()
    assert sp.expand(delta - (2 - 2 * sigma)) == 0
    assert sp.expand(loyalty_income - 2 * sigma**2) == 0


def test_threshold_is_the_boundary():
    """For gamma < 1, ``delta >= rhs`` iff ``gamma <= gamma*(sigma)``."""
    delta, loyalty_income = sigma_game_terms()
    rhs = gamma / (1 - gamma) * loyalty_income
    # (1 - gamma)(delta - rhs) = 2 q (gamma* - gamma), q = 1 - sigma + sigma^2;
    # 1 - gamma > 0 on the domain and q = (sigma - 1/2)^2 + 3/4 > 0, so the
    # two differences have the same sign
    q = 1 - sigma + sigma**2
    assert sp.simplify((1 - gamma) * (delta - rhs) - 2 * q * (BOUNDARY - gamma)) == 0
    completed = (sigma - sp.Rational(1, 2)) ** 2 + sp.Rational(3, 4)
    assert sp.expand(q - completed) == 0 and completed.is_positive
    # the boundary is the income share delta / (delta + I_L)
    assert sp.simplify(delta / (delta + loyalty_income) - BOUNDARY) == 0
    # and sympy's own solution of the inequality agrees at rational sigma
    domain = sp.Interval.Ropen(0, 1)
    for k in range(0, 10):
        at = {sigma: sp.Rational(k, 10)}
        solved = sp.solveset(sp.Ge(delta.subs(at), rhs.subs(at)), gamma, domain)
        assert solved == sp.Interval(0, BOUNDARY.subs(at)).intersect(domain)


def test_boundary_falls_in_sigma():
    """The loyalty claim on the benchmark: ``d gamma*/d sigma =
    sigma (sigma - 2) / (sigma^2 - sigma + 1)^2``, negative on (0, 1), since
    there ``sigma > 0``, ``sigma - 2 < 0`` and the denominator is positive."""
    derivative = sp.diff(BOUNDARY, sigma)
    assert sp.simplify(derivative - sigma * (sigma - 2) / (sigma**2 - sigma + 1) ** 2) == 0
    assert sp.solveset(sp.Ge(derivative, 0), sigma, sp.Interval.open(0, 1)) == sp.S.EmptySet
    assert sp.solveset(sp.Lt(derivative, 0), sigma, sp.S.Reals).is_superset(
        sp.Interval.open(0, 1))


def test_ratio_and_difference_forms_agree_where_the_ratio_is_defined():
    """For multiplicative income ``(rho1 + rho2) g``, ``delta - rhs`` is the
    ratio form's margin times the pessimistic income ``phi_hat g(l)``, which
    is positive wherever the ratio form is defined (``phi_hat, g(l) != 0``;
    fees and activity are nonnegative)."""
    F1, F2, phi1, phi2, g_full, g_loyal = sp.symbols(
        "F1 F2 phi1 phi2 g_full g_loyal", positive=True
    )
    delta = (F1 + F2) * g_full - (phi1 + phi2) * g_full
    rhs = gamma / (1 - gamma) * (phi1 + phi2) * g_loyal
    phi_hat = phi1 + phi2
    ratio_margin = ((F1 + F2) / phi_hat - 1) * (g_full / g_loyal) - gamma / (1 - gamma)
    assert sp.simplify(delta - rhs - phi_hat * g_loyal * ratio_margin) == 0
    assert (phi_hat * g_loyal).is_positive


# The fee ratio p = phi_hat / F_hat (loyalty over full-extraction fee sums)
# and the activity ratio q = g(l) / g(1, 1); every parametric game's
# critical_gamma is the ratio form below, and the benchmark is its diagonal.
P, Q = sp.symbols("p q", positive=True)
D = 1 - P + P * Q
RATIO_FORM = (1 - P) / D


def test_critical_gamma_is_the_ratio_form():
    """``critical_gamma = delta / (delta + I_L)``, with ``delta = I(F; 1, 1)
    - I(phi; 1, 1)`` and ``I_L = I(phi; l)``, is ``(1 - p) / (1 - p + p q)``
    for multiplicative income ``(rho1 + rho2) g`` and ``1 - p`` for additive
    income ``rho1 + rho2``."""
    F1, F2, phi1, phi2, g_full, g_loyal = sp.symbols(
        "F1 F2 phi1 phi2 g_full g_loyal", positive=True
    )
    ratios = {P: (phi1 + phi2) / (F1 + F2), Q: g_loyal / g_full}
    for g_at_full, g_at_loyalty, form in ((g_full, g_loyal, RATIO_FORM), (1, 1, 1 - P)):
        delta = (F1 + F2) * g_at_full - (phi1 + phi2) * g_at_full
        loyalty_income = (phi1 + phi2) * g_at_loyalty
        share = delta / (delta + loyalty_income)
        assert sp.simplify(share - form.subs(ratios)) == 0


def test_critical_gamma_falls_in_both_ratios():
    """``d gamma*/dp = -q / D^2`` and ``d gamma*/dq = -p (1 - p) / D^2``,
    with ``D = 1 - p + p q``: both negative for p in (0, 1) and q > 0,
    where ``D = (1 - p) + p q > 0``. For nondecreasing families p and q never
    fall as a loyalty level rises, so neither does the verdict turn true."""
    d_p, d_q = sp.diff(RATIO_FORM, P), sp.diff(RATIO_FORM, Q)
    assert sp.simplify(d_p + Q / D**2) == 0
    assert sp.simplify(d_q + P * (1 - P) / D**2) == 0
    a = sp.symbols("a", positive=True)
    inside = {P: 1 / (1 + a)}  # every p in (0, 1)
    assert sp.factor(D.subs(inside)).is_positive
    assert sp.factor(d_p.subs(inside)).is_negative
    assert sp.factor(d_q.subs(inside)).is_negative


def test_the_benchmark_is_the_diagonal_p_equals_q_equals_sigma():
    """The sigma game's fee and activity ratios are both sigma, and the ratio
    form there is the boundary ``gamma*(sigma)``."""
    s1, s2 = sp.symbols("s1 s2")
    component = sp.Lambda((s1, s2), (s1 + s2) / 2)  # every benefit and g
    F_hat = 2 * component(1, 1)
    phi_hat = 2 * component(sigma, sigma)
    assert sp.simplify(phi_hat / F_hat - sigma) == 0
    assert sp.simplify(component(sigma, sigma) / component(1, 1) - sigma) == 0
    assert sp.simplify(RATIO_FORM.subs({P: sigma, Q: sigma}) - BOUNDARY) == 0


@pytest.mark.parametrize("k", range(LATTICE + 1))
def test_boundary_curve_matches_the_closed_form(k):
    s = k / LATTICE
    exact = BOUNDARY.subs(sigma, sp.Rational(s))  # at the float's exact value
    assert boundary_curve(s) == pytest.approx(float(exact), rel=1e-15, abs=0)


def test_sigma_game_verdicts_match_the_closed_form():
    game = sigma_benchmark_game()
    for i in range(LATTICE):
        for j in range(1, LATTICE):
            g, s = i / LATTICE, j / LATTICE
            verdict = full_exploitation_verdict(game, BeliefSystem(0.0, g, s, s))
            assert verdict.delta == pytest.approx(2 - 2 * s, abs=1e-15)
            assert verdict.rhs == pytest.approx(g / (1 - g) * 2 * s * s, rel=1e-14)
            margin = BOUNDARY.subs(sigma, sp.Rational(s)) - sp.Rational(g)
            if abs(margin) > 1e-12:  # away from ties, where rounding decides
                assert verdict.full_exploitation == bool(margin > 0)
                ratio = activity_full_exploitation_condition(game, BeliefSystem(0.0, g, s, s))
                assert ratio == verdict.full_exploitation


@pytest.mark.parametrize("k", range(LATTICE + 1))
def test_critical_gamma_is_the_boundary_curve(k):
    """``critical_gamma`` is ``delta / (delta + I_L)``, which
    :func:`test_threshold_is_the_boundary` proves equal to ``gamma*(sigma)``;
    on the lattice it and ``boundary_curve`` agree with the closed form at
    the float's exact value, ends included (I_L = 0 at sigma = 0, delta = 0
    at sigma = 1)."""
    s = k / LATTICE
    exact = float(BOUNDARY.subs(sigma, sp.Rational(s)))
    got = critical_gamma(sigma_benchmark_game(), BeliefSystem(0.0, 0.5, s, s))
    assert got == pytest.approx(exact, rel=1e-15, abs=0)
    assert got == pytest.approx(boundary_curve(s), rel=1e-15, abs=0)
