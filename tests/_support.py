"""Shared generators for the randomised tests, and per-value references of
the map writers."""

import json

import numpy as np

from middleman import BeliefSystem, CobbDouglas, HedonicGame, Linear, MultiplicativeIncome


def random_benefit(rng):
    """A random strictly-increasing benefit; returns (spec, s_lo) where s_lo
    bounds the grid away from the zero boundary when strictness needs it."""
    if rng.random() < 0.5:
        return CobbDouglas(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)), 0.1
    return Linear(rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.0)), 0.0


def random_benchmark_game(rng):
    """Random multiplicative-income game plus the s_lo its benefits require."""
    f1, lo1 = random_benefit(rng)
    f2, lo2 = random_benefit(rng)
    g, _ = random_benefit(rng)
    return HedonicGame(f1, f2, MultiplicativeIncome(g)), max(lo1, lo2)


def random_proper_beliefs(rng, gamma_hi=0.99, loyalty_lo=0.05, loyalty_hi=0.95):
    gamma = rng.uniform(0.0, gamma_hi)
    lam = rng.uniform(0.0, 1.0 - gamma)
    return BeliefSystem(
        lambda_=lam,
        gamma=gamma,
        loyalty1=rng.uniform(loyalty_lo, loyalty_hi),
        loyalty2=rng.uniform(loyalty_lo, loyalty_hi),
    )


def sigma_benchmark_game():
    """The symmetric normalised game: every component is (s1 + s2) / 2, so
    loyalty (t, t) puts the residual activity level at t."""
    half = Linear(0.5, 0.5)
    return HedonicGame(half, half, MultiplicativeIncome(half))


def _rows(columns):
    return zip(*(np.asarray(c).tolist() for c in columns.values()))


def reference_sweep_csv(columns):
    """``sweep_csv`` spelled a value at a time: ``f"{v:.6f}"`` per float."""
    def cell(v):
        return ("true" if v else "false") if isinstance(v, bool) else f"{v:.6f}"

    lines = (",".join(map(cell, row)) + "\n" for row in _rows(columns))
    return ",".join(columns) + "\n" + "".join(lines)


def reference_sweep_machine(columns):
    """``sweep_machine`` spelled a row at a time: ``json.dumps(round(v, 6))``
    per float, keys sorted."""
    rows = (
        json.dumps(
            {k: v if isinstance(v, bool) else round(v, 6) for k, v in zip(columns, row)},
            sort_keys=True,
        )
        for row in _rows(columns)
    )
    return "[" + ", ".join(rows) + "]\n"


def first_difference(text, reference):
    """``None`` when the texts are equal, else the offset of the first
    difference and the text around it in each. A failing ``==`` on large
    texts would make pytest diff megabytes."""
    if text == reference:
        return None
    pairs = enumerate(zip(text, reference))
    i = next((i for i, (a, b) in pairs if a != b), min(len(text), len(reference)))
    lo = max(i - 30, 0)
    return i, text[lo:i + 30], reference[lo:i + 30]
