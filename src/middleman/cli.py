"""Command-line front end: equilibrium checks, threshold verdicts, region
maps, and belief-parameter sweeps over scenario files.

Each subcommand offers only the ``--format`` values it can emit: ``text``
(the default) and ``machine`` for the five verdict reports, ``csv`` (the
default) and ``svg`` for ``region``, ``csv`` (the default) and ``machine``
for ``sweep``. Only the verdict reports take ``--assert``.

Exit codes: 0 on success, 1 when ``--assert`` is given and the analysis
verdict is false, 2 on usage or validation errors, including lattices and
grid checks over :data:`MAX_POINTS` points, 3 on any other error, a
``TypeError`` included, whose traceback goes to stderr, and 141 (as shells
report a SIGPIPE, with nothing on stderr) when the reader closes the output
pipe. A grid check counts the points of the lattice it decides:
``(steps + 1)^2`` for ``verify-nash`` and ``ambiguity-eq``,
``(steps + 1)^3`` for ``dominance`` and for ``pareto`` on the exact corner
path, and ``(steps + 1)^4`` for ``pareto`` on a game the corner path cannot
decide, which it scans. These counts are lattice points, not payoff calls,
so they do not change with how many levels an oracle evaluates per call.
``dominance`` and the corner path keep their ``(steps + 1)^3`` budgets
although they now evaluate O(n^2) points, so ``dominance --steps 300`` and
``pareto --steps 300`` are still refused. Likewise ``verify-nash`` keeps its
``(steps + 1)^2`` budget although a hedonic game's Nash check evaluates O(n)
of those points; ``ambiguity-eq``'s ``best_fee_response`` evaluates them all.

Every check that can exit 2 is made before the first byte is written. A
sweep decides its Cartesian product on an open mesh, one axis per swept
field, so only the columns that depend on several axes have a row each. Map
output (the ``region`` CSV and both ``sweep`` formats) is then written one
block of rows at a time, as each is made, so peak memory holds about one
block whatever the lattice size; ``region --format svg`` draws the analytic
boundary and evaluates no verdict lattice. After a crash mid-write (exit 3)
an ``--out`` file may therefore be partial. All output is written as bytes,
to stdout's binary stream (after any text already written to stdout) or to
the ``--out`` file opened in binary mode.

:func:`main` builds its argument parser once per process, on its first
call, and reuses it for every later call: parsing leaves the parser as it
was, so no ``--sweep`` list or ``--steps`` override carries over. The parser
names each subcommand's ``_cmd_*`` and ``_build_*`` function, and ``main``
looks the name up in this module when the command runs, so a handler
replaced after the first call is the one called.

Likewise a process that calls :func:`main` again on one scenario parses it
once: the file is read on every call, and its text keys the parsed
scenarios of the last :data:`_SCENARIOS_KEPT` distinct texts, so an edited
file is parsed again. A parse error is not kept; it is raised, and exits 2
with the same text, on every call. ``--steps`` and ``--eps`` make a new
config with :func:`dataclasses.replace` and never alter the kept one, whose
game and beliefs are immutable down to their tables. A fresh process parses
each file once either way and gains nothing.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import traceback
from dataclasses import replace
from math import prod
from pathlib import Path

import numpy as np

from .activity import region_sample
from .ambiguity import (
    BeliefError,
    ambiguity_equilibrium_check,
    best_fee_response,
    full_exploitation_verdict,
    loyalty_fees,
)
from .game import FieldError, Grid, StrategyProfile, _count
from .hedonic import fee_monotone, full_extraction_fees, game_payoffs
from .oracles import epsilon_nash_check, pareto_check, weak_dominance_check
from .scenario import ScenarioError, emit_blocks, emit_results, parse_scenario, sweep_blocks

SWEEPABLE_FIELDS = {"gamma": "gamma", "lambda": "lambda_", "loyalty1": "loyalty1",
                    "loyalty2": "loyalty2"}  # --sweep name -> BeliefSystem field
# Larger lattices and grid checks are refused before any allocation rather
# than risking memory exhaustion or a run of minutes.
MAX_POINTS = 10_000_000


def _profile_arg(text):
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("profile must be s1,s2,rho1,rho2")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"profile has a non-numeric entry: {text!r}")


def _sweep_arg(text):
    name, sep, spec = text.partition("=")
    if not sep or name not in SWEEPABLE_FIELDS:
        raise argparse.ArgumentTypeError(
            f"sweep field must be one of {', '.join(SWEEPABLE_FIELDS)}"
        )
    parts = spec.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("sweep range must be start:stop:count")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad sweep range {spec!r}")
    if count < 1:
        raise argparse.ArgumentTypeError("sweep count must be >= 1")
    return name, start, stop, count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="middleman",
        description="Equilibrium analysis for the two-sided middleman platform game.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # handlers go by name, looked up in this module when the command runs
    def add(name, help_text, handler, formats, *, scenario=True, profile=False):
        p = sub.add_parser(name, help=help_text)
        if scenario:
            p.add_argument("--scenario", required=True, help="scenario YAML file")
        if profile:
            p.add_argument(
                "--profile",
                type=_profile_arg,
                required=True,
                help="strategy profile s1,s2,rho1,rho2",
            )
            p.add_argument("--steps", type=int, help="override grid subdivisions")
            p.add_argument("--eps", type=float, help="override improvement tolerance")
        p.add_argument("--out", help="write output to a file instead of stdout")
        p.add_argument(
            "--format",
            choices=formats,
            default=formats[0],
            help="output format (default: %(default)s)",
        )
        p.set_defaults(handler=handler)
        return p

    for name, help_text, build, profile in (
        ("verify-nash", "check a profile for unilateral grid deviations",
         "_build_verify_nash", True),
        ("dominance", "check the profile's participation levels for weak dominance",
         "_build_dominance", True),
        ("pareto", "check a profile for grid Pareto efficiency", "_build_pareto", True),
        ("ambiguity-eq", "Nash check of the belief-modified game", "_build_ambiguity_eq", True),
        ("threshold", "full-exploitation threshold verdict", "_build_threshold", False),
    ):
        report = add(name, help_text, "_cmd_report", ("text", "machine"), profile=profile)
        report.set_defaults(build=build)
        report.add_argument(
            "--assert",
            dest="assert_",
            action="store_true",
            help="exit 1 when the verdict is false",
        )

    region = add("region", "benchmark (gamma, sigma) region map", "_cmd_region",
                 ("csv", "svg"), scenario=False)
    region.add_argument("--resolution", type=int, default=100, help="lattice subdivisions")

    sweep = add("sweep", "threshold verdicts over belief-parameter ranges", "_cmd_sweep",
                ("csv", "machine"))
    sweep.add_argument(
        "--sweep",
        dest="sweeps",
        type=_sweep_arg,
        action="append",
        required=True,
        metavar="FIELD=START:STOP:COUNT",
        help="belief field range; repeatable (Cartesian product)",
    )
    return parser


def _reported(prefix, call, *args, **kwargs):
    """``call(*args, **kwargs)``, a field error reported at ``<prefix><field>``;
    an error of a rule over several fields (no field) as it is."""
    try:
        return call(*args, **kwargs)
    except FieldError as exc:
        if exc.field is None:
            raise
        raise ScenarioError(f"{prefix}{exc.field}: {exc.problem}") from None


def _grid_and_eps(config, args, dims):
    """Grid and tolerance of a check that counts ``(steps + 1)^dims`` points
    against :data:`MAX_POINTS`, with ``--steps`` and ``--eps`` applied."""
    flags = {key: getattr(args, key) for key in ("steps", "eps") if getattr(args, key) is not None}
    config = _reported("--", replace, config, **flags)
    grid = Grid(config.steps, _reported("game.", full_extraction_fees, config.game), config.s_lo)
    _check_points((config.steps + 1) ** dims, "--steps" if "steps" in flags else "grid.steps")
    return grid, config.eps


def _require_beliefs(config):
    if config.beliefs is None:
        raise ScenarioError("beliefs: section required by this command")
    return config.beliefs


def _check_points(points, source):
    if points > MAX_POINTS:
        raise ScenarioError(f"{source}: {points} points exceed the limit of {MAX_POINTS}")


def _deliver(blocks, args):
    """Write each bytes-like block as it comes, to ``--out`` (opened once, in
    binary mode) or to stdout's binary stream, after any text already written
    to stdout. Every check that exits 2 is made before this."""
    if args.out:
        with open(args.out, "wb") as out:
            out.writelines(blocks)
    else:
        sys.stdout.flush()
        sys.stdout.buffer.writelines(blocks)
        sys.stdout.buffer.flush()  # a closed pipe raises here, not at exit


# A long-lived process that reads many large tabulated files keeps the
# parsed configs of at most this many scenario texts.
_SCENARIOS_KEPT = 8


@functools.lru_cache(maxsize=_SCENARIOS_KEPT)
def _parsed(text):
    # by its module-global name, so a wrapper on cli.parse_scenario sees
    # every parse; lru_cache keeps no call that raised
    return parse_scenario(text)


def _cmd_report(args):
    """Run a verdict report. The subcommand's ``_build_*`` function, named by
    ``args.build``, takes the parsed scenario and returns the verdict and the
    report entries; a false verdict under ``--assert`` exits 1."""
    config = _parsed(Path(args.scenario).read_text())
    verdict, entries = globals()[args.build](config, args)
    # one block, through emit_results, so traces still count report emission
    _deliver([emit_results(entries, args.format).encode()], args)
    return 1 if args.assert_ and not verdict else 0


def _build_verify_nash(config, args):
    # points budgeted: (steps + 1)^2, of which a hedonic game evaluates O(n)
    grid, eps = _grid_and_eps(config, args, 2)
    profile = StrategyProfile(*args.profile)
    verdict = epsilon_nash_check(game_payoffs(config.game), profile, grid, eps)
    return verdict, {"check": "verify-nash", "verdict": verdict, "profile": args.profile}


def _build_dominance(config, args):
    # points budgeted: (steps + 1)^3, of which a hedonic game evaluates O(n^2)
    grid, eps = _grid_and_eps(config, args, 3)
    payoffs = game_payoffs(config.game)
    s1, s2 = args.profile[0], args.profile[1]
    v1 = weak_dominance_check(payoffs, 1, s1, grid, eps)
    v2 = weak_dominance_check(payoffs, 2, s2, grid, eps)
    verdict = v1 and v2
    return verdict, {
        "check": "dominance",
        "verdict": verdict,
        "verdict_user1": v1,
        "verdict_user2": v2,
        "candidates": (s1, s2),
    }


def _build_pareto(config, args):
    payoffs = game_payoffs(config.game)
    # points budgeted: (steps + 1)^3 on the corner path (which evaluates
    # O(n^2) of them, the tables at each level), (steps + 1)^4 on the scan
    grid, eps = _grid_and_eps(config, args, 3 if fee_monotone(payoffs) else 4)
    verdict = pareto_check(payoffs, StrategyProfile(*args.profile), grid, eps)
    return verdict, {"check": "pareto", "verdict": verdict, "profile": args.profile}


def _build_ambiguity_eq(config, args):
    beliefs = _require_beliefs(config)
    # points budgeted: (steps + 1)^2, all evaluated by best_fee_response
    grid, eps = _grid_and_eps(config, args, 2)
    profile = StrategyProfile(*args.profile)
    verdict = ambiguity_equilibrium_check(config.game, beliefs, profile, grid, eps)
    return verdict, {
        "check": "ambiguity-eq",
        "verdict": verdict,
        "profile": args.profile,
        "best_fee_response": best_fee_response(config.game, beliefs, grid),
    }


def _build_threshold(config, args):
    beliefs = _require_beliefs(config)
    fees = _reported("game.", full_extraction_fees, config.game)
    verdict = _reported("game.", full_exploitation_verdict, config.game, beliefs)
    return verdict.full_exploitation, {
        "full_exploitation": verdict.full_exploitation,
        "delta": verdict.delta,
        "rhs": verdict.rhs,
        "gamma": beliefs.gamma,
        "lambda": beliefs.lambda_,
        "loyalty_fees": loyalty_fees(config.game, beliefs),
        "full_extraction_fees": fees,
    }


def _cmd_region(args):
    # first: -5000 gets this text, not the budget's
    _reported("--", _count, args.resolution, "resolution")
    _check_points((args.resolution + 1) ** 2, "--resolution")
    _deliver(emit_blocks(region_sample(args.resolution), args.format), args)
    return 0


def _cmd_sweep(args):
    config = _parsed(Path(args.scenario).read_text())
    beliefs = _require_beliefs(config)
    _reported("game.", full_extraction_fees, config.game)
    names = [name for name, *_ in args.sweeps]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ScenarioError(f"--sweep: duplicate field {name}")
    points = prod(count for *_, count in args.sweeps)
    _check_points(points, "--sweep")

    # a non-finite range gives NaN or infinite rows, which BeliefSystem rejects
    with np.errstate(invalid="ignore", over="ignore"):
        axes = [np.linspace(start, stop, count) for _, start, stop, count in args.sweeps]
    # an open mesh: one axis per swept field, each row a point in C order
    swept = {SWEEPABLE_FIELDS[name]: grid
             for name, grid in zip(names, np.meshgrid(*axes, indexing="ij", sparse=True))}
    try:
        sweep_beliefs = replace(beliefs, **swept)
    except BeliefError as exc:
        # rows before the offending one are valid belief systems, and a row
        # failing the threshold test's domain, or the game's hypotheses at
        # its loyalty levels, there is met first in row order
        shape = tuple(axis.size for axis in axes)
        prefix = replace(beliefs, **{field: np.broadcast_to(grid, shape).flat[:exc.row]
                                     for field, grid in swept.items()})
        _reported("game.", full_exploitation_verdict, config.game, prefix)
        raise
    verdict = _reported("game.", full_exploitation_verdict, config.game, sweep_beliefs)
    columns = dict(zip(names, swept.values()))
    columns.update(
        delta=verdict.delta, rhs=verdict.rhs, full_exploitation=verdict.full_exploitation
    )
    _deliver(sweep_blocks(columns, args.format), args)
    return 0


_parser = functools.cache(build_parser)  # main's parser, built on its first call


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return globals()[args.handler](args)
    except BrokenPipeError:
        if not args.out:
            # stdout's reader is gone: point stdout at the null device, so
            # that the flush at exit does not report the pipe again
            devnull = os.open(os.devnull, os.O_WRONLY)
            try:
                os.dup2(devnull, sys.stdout.fileno())
            except (OSError, ValueError):  # a stdout with no descriptor
                pass
            os.close(devnull)
        return 141
    except (ValueError, OSError) as exc:  # ScenarioError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
