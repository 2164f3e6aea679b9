"""Inputs, operations and correctness checks of the four workloads.

Every workload is a fixed mix of operation kinds that runs in whole rounds,
so each run measures the same mix:

* ``oracles_equilibrium`` / ``oracles_refuted``: a round is one game and its
  four checks (``nash``, ``dominance``, ``pareto``, ``ambiguity``), each
  mirroring one CLI subcommand. Games come in cycles of 27: the eight
  Cobb-Douglas/linear combinations of (f1, f2, activity) plus the
  sigma-benchmark game, each at three witness depths. Parameters, beliefs,
  profiles and witnesses are drawn from the seed; the kinds and depths are
  fixed, so runs with different seeds measure the same work.
* ``maps``: a round is five in-process ``middleman.cli.main`` calls writing
  region maps and belief sweeps.
* ``cli_shipped``: a round is nine ``python -m middleman`` child processes,
  the README command lines plus ``pareto`` at the shipped steps of 100.

Expected verdicts come from how the inputs were built, never from the code
under test; map outputs and CLI results are also compared with SHA-256
digests captured at the seed commit (``expected.json``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

STEPS = 60
EPS = 1e-9
ORACLE_KINDS = ("nash", "dominance", "pareto", "ambiguity")
GAME_KINDS = 9  # (f1, f2, activity) in {cobb_douglas, linear}^3, plus the sigma game
DEPTHS = ("first", "middle", "late")
CYCLE = GAME_KINDS * len(DEPTHS)
POOL_CYCLES = 10  # generated games; longer runs reuse them in order
MIN_GAMES = 4 * CYCLE  # >= 100 samples per check, so a p90 has 10 beyond it
EXPECTED_FILE = Path(__file__).with_name("expected.json")


def gamma_star(sigma):
    """Boundary of the normalised benchmark: (1 - sigma) / (1 - sigma + sigma^2)."""
    return (1.0 - sigma) / (1.0 - sigma + sigma * sigma)


def _value(spec, s1, s2):
    family, a, b = spec
    return s1**a * s2**b if family == "cd" else a * s1 + b * s2


def _draw_spec(rng, family):
    if family == "cd":
        return ("cd", rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
    return ("lin", rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.0))


def _build(spec):
    from middleman import CobbDouglas, Linear

    family, a, b = spec
    return CobbDouglas(a, b) if family == "cd" else Linear(a, b)


@dataclass
class OracleCase:
    """One game with the inputs and expected outputs of its four checks."""

    label: str
    depth: str
    ops: dict  # kind -> zero-argument callable
    expected: dict  # kind -> expected return value


def _oracle_case(rng, index, refuted):
    import middleman as mm
    from middleman import (
        BeliefSystem,
        Grid,
        HedonicGame,
        MultiplicativeIncome,
        StrategyProfile,
        full_extraction_fees,
        game_payoffs,
    )

    kind = index % GAME_KINDS
    depth = DEPTHS[(kind + index // GAME_KINDS) % len(DEPTHS)]
    sigma_game = kind == GAME_KINDS - 1
    if sigma_game:
        specs = [("lin", 0.5, 0.5)] * 3
        label = "sigma"
    else:
        families = ["cd" if kind >> bit & 1 else "lin" for bit in (2, 1, 0)]
        specs = [_draw_spec(rng, f) for f in families]
        label = "/".join(families)
    f1, f2, g = specs
    s_lo = 0.1 if "cd" in (f1[0], f2[0]) else 0.0
    game = HedonicGame(_build(f1), _build(f2), MultiplicativeIncome(_build(g)))
    F = full_extraction_fees(game)
    grid = Grid(STEPS, F, s_lo)
    pay = game_payoffs(game)
    s_axis = grid.participation_axis()
    fee_axes = (grid.fee_axis(1), grid.fee_axis(2))
    n = STEPS + 1

    # The modified payoff at full participation peaks at F or at the loyalty
    # fees, and F wins while gamma <= gamma_max: gamma is drawn well below
    # that, except for the contested sigma game (late witness of the refuted
    # workload), where gamma lies above gamma*(sigma) and (sigma, sigma) wins.
    contested = refuted and sigma_game and depth == "late"
    if sigma_game:
        k = int(rng.integers(20, 55)) if contested else int(rng.integers(6, 55))
        sigma = k / STEPS  # on the fee grid, so the loyalty fee pair is a grid point
        bound = gamma_star(sigma)
        gamma = rng.uniform(bound + 0.05, 0.95) if contested else rng.uniform(0.0, bound - 0.05)
        loyalty = (sigma, sigma)
    else:
        loyalty = (rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
        f_hat = _value(f1, 1.0, 1.0) + _value(f2, 1.0, 1.0)
        phi_hat = _value(f1, *loyalty) + _value(f2, *loyalty)
        drop = (f_hat - phi_hat) * _value(g, 1.0, 1.0)
        gamma = rng.uniform(0.0, 0.8) * drop / (drop + phi_hat * _value(g, *loyalty))
    beliefs = BeliefSystem(rng.uniform(0.0, 1.0 - gamma), gamma, *loyalty)
    best = (sigma, sigma) if contested else F

    full = StrategyProfile(1.0, 1.0, *F)
    if not refuted:
        nash_p = amb_p = pareto_p = full
        cand = (1.0, 1.0)
        expected = {"nash": True, "dominance": (True, True), "pareto": True,
                    "ambiguity": (True, best)}
    else:
        # nash / ambiguity: the first profitable deviation is user 1's (first
        # scan), user 2's (second) or the middleman's fee pair (last scan).
        low = [fee_axes[i][int(rng.integers(0, STEPS // 2 + 1))] for i in (0, 1)]
        below_f = [fee_axes[i][int(rng.integers(0, STEPS))] for i in (0, 1)]
        s_dev = s_axis[int(rng.integers(0, n - 1))]
        nash_p = {
            "first": StrategyProfile(s_dev, 1.0, *low),
            "middle": StrategyProfile(1.0, s_dev, *low),
            "late": StrategyProfile(1.0, 1.0, *below_f),
        }[depth]
        amb_p = full if contested else nash_p
        # dominance: candidates below 1 lose to full participation in the
        # first context slice; a candidate of 1 forces user 1's full scan.
        c1 = s_axis[int(rng.integers(0, n - 1))] if depth == "first" else 1.0
        cand = (c1, s_axis[int(rng.integers(0, n - 1))])
        # pareto: at (s_k, 1, rho) with affordable grid fees, the first strict
        # dominator is (s_{k+1}, 1, rho): the scan exits at slice k + 1.
        witness = {"first": 1, "middle": n // 2, "late": n - 1}[depth]
        a = s_axis[witness - 1]
        rho = []
        for i, spec in enumerate((f1, f2)):
            cap = _value(spec, a, 1.0)
            rho.append(fee_axes[i][int(rng.uniform(0.2, 0.8) * cap / F[i] * STEPS)])
        pareto_p = StrategyProfile(a, 1.0, *rho)
        expected = {"nash": False, "dominance": (c1 == 1.0, False), "pareto": False,
                    "ambiguity": (False, best)}

    # The checks are looked up on the package at call time, so that span
    # wrappers installed after set-up see these calls.
    ops = {
        "nash": lambda: mm.epsilon_nash_check(pay, nash_p, grid, EPS),
        "dominance": lambda: (
            mm.weak_dominance_check(pay, 1, cand[0], grid, EPS),
            mm.weak_dominance_check(pay, 2, cand[1], grid, EPS),
        ),
        "pareto": lambda: mm.pareto_check(pay, pareto_p, grid, EPS),
        "ambiguity": lambda: (
            mm.ambiguity_equilibrium_check(game, beliefs, amb_p, grid, EPS),
            mm.best_fee_response(game, beliefs, grid),
        ),
    }
    return OracleCase(label, depth, ops, expected)


def oracle_cases(seed, refuted, cycles=POOL_CYCLES):
    rng = np.random.default_rng(seed)
    return [_oracle_case(rng, i, refuted) for i in range(cycles * CYCLE)]


# ---------------------------------------------------------------- maps

SIGMA05 = "scenarios/benchmark_sigma05.yaml"
CD_LOYALTY = "scenarios/cobb_douglas_loyalty.yaml"
REGION_RES = 1000
SWEEP_N = 316  # 316 x 316 = 99,856 rows
LAMBDA_N = 100

# kind -> (argv without --out, rows emitted)
MAP_OPS = {
    "region_csv": (["region", "--resolution", str(REGION_RES)], (REGION_RES + 1) ** 2),
    "region_svg": (["region", "--resolution", str(REGION_RES), "--format", "svg"],
                   (REGION_RES + 1) ** 2),
    "sweep_csv": (["sweep", "--scenario", SIGMA05, "--sweep", f"gamma=0:0.99:{SWEEP_N}",
                   "--sweep", f"loyalty1=0:0.99:{SWEEP_N}"], SWEEP_N**2),
    "sweep_machine": (["sweep", "--scenario", SIGMA05, "--sweep", f"gamma=0:0.99:{SWEEP_N}",
                       "--sweep", f"loyalty1=0:0.99:{SWEEP_N}", "--format", "machine"],
                      SWEEP_N**2),
    "sweep_lambda": (["sweep", "--scenario", CD_LOYALTY, "--sweep", f"lambda=0:0.5:{LAMBDA_N}",
                      "--sweep", f"loyalty2=0:0.99:{LAMBDA_N}"], LAMBDA_N**2),
}


def map_argv(kind, out_dir):
    argv, _ = MAP_OPS[kind]
    return argv + ["--out", str(Path(out_dir) / f"{kind}.out")]


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def _check_region_csv(data):
    lines = data.split(b"\n")
    if lines[0] != b"gamma,sigma,full_exploitation" or lines[-1] != b"":
        return "region csv: bad header or trailer"
    got = np.array([line.endswith(b",true") for line in lines[1:-1]])
    axis = np.arange(REGION_RES + 1) / REGION_RES
    g, s = axis[:, None], axis[None, :]
    want = ((1.0 - g) * (1.0 - s) >= g * s * s).ravel()
    if got.shape != want.shape or not np.array_equal(got, want):
        return "region csv: verdicts differ from (1 - g)(1 - s) >= g s^2"
    return None


def _sweep_closed_form(x, y, kind):
    """delta and rhs of the threshold test at every (x, y) of the sweep."""
    # Both scenarios have unit full-extraction fees and activity 1 at full
    # participation, and activity equal to each loyalty fee phi, so
    # delta = 2 - 2 phi and rhs = gamma / (1 - gamma) * 2 phi^2.
    if kind == "sweep_lambda":
        # cobb_douglas_loyalty: f = activity = s1 s2, gamma = loyalty1 = 0.5
        gamma, phi = 0.5, 0.5 * y
    else:
        # benchmark_sigma05: f = activity = (s1 + s2) / 2, loyalty2 = 0.5
        gamma, phi = x, 0.5 * y + 0.25
    return 2.0 - 2.0 * phi, gamma / (1.0 - gamma) * 2.0 * phi * phi


def _check_sweep(data, kind):
    args, rows = MAP_OPS[kind]
    names, axes = [], []
    for spec in (a for a in args if "=" in a):  # the two --sweep FIELD=START:STOP:COUNT
        name, ranges = spec.split("=")
        start, stop, count = ranges.split(":")
        names.append(name)
        axes.append(np.linspace(float(start), float(stop), int(count)))
    x = np.repeat(axes[0], axes[1].size)  # rows follow the declared Cartesian order
    y = np.tile(axes[1], axes[0].size)
    xname, yname = names
    names += ["delta", "rhs", "full_exploitation"]
    if kind == "sweep_machine":
        records = json.loads(data)
        if len(records) != rows or sorted(records[0]) != sorted(names):
            return f"{kind}: wrong rows or fields"
        cols = [[r[n] for r in records] for n in names]
    else:
        lines = data.decode().split("\n")
        if lines[0] != ",".join(names) or lines[-1] != "" or len(lines) != rows + 2:
            return f"{kind}: wrong header or row count"
        cols = list(zip(*(line.split(",") for line in lines[1:-1])))
    gx, gy, delta, rhs = (np.asarray(c, dtype=float) for c in cols[:4])
    verdict = np.array([v in (True, "true") for v in cols[4]])
    want_delta, want_rhs = _sweep_closed_form(x, y, kind)
    for got, want, what in ((gx, x, xname), (gy, y, yname), (delta, want_delta, "delta"),
                            (rhs, want_rhs, "rhs")):
        if not np.allclose(got, want, rtol=0.0, atol=1e-6):
            return f"{kind}: {what} differs from the closed form by more than 1e-6"
    decided = np.abs(want_delta - want_rhs) > 1e-9
    if not np.array_equal(verdict[decided], (want_delta >= want_rhs)[decided]):
        return f"{kind}: verdicts differ from delta >= rhs"
    return None


def check_map_output(kind, data, expected_digest):
    """None when the output is right, else the reason."""
    if sha256(data) != expected_digest:
        return f"{kind}: SHA-256 differs from the seed commit"
    if kind == "region_csv":
        return _check_region_csv(data)
    if kind.startswith("sweep"):
        return _check_sweep(data, kind)
    return None


# ---------------------------------------------------------------- cli_shipped

# kind -> argv after `python -m middleman`; "{out}" is a file in the run's
# temporary directory. The README command lines, plus pareto at steps 100.
CLI_CALLS = {
    "threshold": ["threshold", "--scenario", SIGMA05],
    "verify_nash": ["verify-nash", "--scenario", "scenarios/externality.yaml",
                    "--profile", "1,1,1,1", "--assert"],
    "dominance": ["dominance", "--scenario", SIGMA05, "--profile", "1,1,0,0"],
    "pareto": ["pareto", "--scenario", SIGMA05, "--profile", "1,1,1,1"],
    "ambiguity_eq": ["ambiguity-eq", "--scenario", SIGMA05, "--profile", "1,1,0.5,0.5"],
    "region_csv": ["region", "--resolution", "100", "--out", "{out}"],
    "region_svg": ["region", "--resolution", "100", "--format", "svg", "--out", "{out}"],
    "sweep": ["sweep", "--scenario", SIGMA05, "--sweep", "gamma=0:0.99:100"],
    "pareto_steps100": ["pareto", "--scenario", CD_LOYALTY, "--profile", "1,1,1,1"],
}


def cli_argv(kind, out_path):
    return [str(out_path) if a == "{out}" else a for a in CLI_CALLS[kind]]


def cli_result(exit_code, stdout, out_file):
    """The fields compared against the seed commit for one CLI call."""
    out = Path(out_file)
    return {
        "exit": exit_code,
        "stdout_sha256": sha256(stdout),
        "out_sha256": sha256(out.read_bytes()) if out.exists() else None,
    }


def load_expected():
    return json.loads(EXPECTED_FILE.read_text())
