"""Deviation-scan reductions behind the grid oracles.

Each reduction answers whether any entry of a block of payoffs (one payoff
call of an oracle, covering one or more participation levels) beats its
reference by more than ``eps``; a gain of exactly ``eps`` is a tie. All
functions accept arbitrary broadcast-compatible array arguments.
"""

import numpy as np


def any_improvement(values, base, eps):
    return bool(np.asarray(values > base + eps).any())


def any_dominance_gap(alts, cand, eps):
    return bool(np.asarray(alts > cand + eps).any())


def any_strict_dominator(p1, p2, p3, t1, t2, t3, eps):
    weak = (p1 >= t1) & (p2 >= t2) & (p3 >= t3)
    strict = (p1 > t1 + eps) | (p2 > t2 + eps) | (p3 > t3 + eps)
    return bool(np.asarray(weak & strict).any())
