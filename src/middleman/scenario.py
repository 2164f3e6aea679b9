"""Scenario configuration parsing and result serialisation.

Scenarios are YAML documents (schema_version 1)::

    schema_version: 1
    game:
      f1: {family: cobb_douglas, alpha: 1.0, beta: 1.0}
      f2: {family: linear, w1: 0.5, w2: 0.5}
      income:
        family: multiplicative          # or additive_fees / tabulated
        activity: {family: cobb_douglas, alpha: 1.0, beta: 1.0}
      tag: benchmark                    # optional; or externality
    beliefs:                            # optional section
      lambda: 0.0                       # optional, defaults to 0
      gamma: 0.5
      loyalty: [0.5, 0.5]
    grid:                               # optional section
      steps: 100                        # default 100
      eps: 1.0e-9                       # default 1e-9
      s_lo: 0.0                         # default 0

Unknown fields are rejected, every validation error names the offending
field, and emission is byte-stable: identical inputs give identical output
documents. Numeric results are fixed at six decimals.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
import yaml

from .activity import RegionMap, boundary_curve
from .ambiguity import BeliefSystem
from .hedonic import (
    AdditiveFeesIncome,
    BenefitSpec,
    CobbDouglas,
    HedonicGame,
    IncomeSpec,
    Linear,
    MultiplicativeIncome,
    TabulatedBenefit,
    TabulatedIncome,
)

SCHEMA_VERSION = 1


class ScenarioError(ValueError):
    """Parse or validation failure; the message carries the location or field."""


@dataclass(frozen=True)
class ScenarioConfig:
    game: HedonicGame
    beliefs: BeliefSystem | None = None
    steps: int = 100
    eps: float = 1e-9
    s_lo: float = 0.0


def _fail(path, problem):
    raise ScenarioError(f"{path}: {problem}")


def _mapping(value, path):
    if not isinstance(value, dict):
        _fail(path, "expected a mapping")
    return value


def _reject_unknown(mapping, allowed, path):
    for key in mapping:
        if key not in allowed:
            _fail(f"{path}.{key}" if path else str(key), "unknown field")


def _number(mapping, key, path, *, lo=None, hi=None, lo_open=False, default=None):
    if key not in mapping:
        if default is not None:
            return default
        _fail(f"{path}.{key}", "missing required field")
    v = mapping[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        _fail(f"{path}.{key}", "expected a number")
    try:
        v = float(v)
    except OverflowError:
        v = math.inf
    if not math.isfinite(v):
        _fail(f"{path}.{key}", "must be finite")
    if lo is not None and (v <= lo if lo_open else v < lo):
        _fail(f"{path}.{key}", f"must be {'>' if lo_open else '>='} {lo:g}")
    if hi is not None and v > hi:
        _fail(f"{path}.{key}", f"must be <= {hi:g}")
    return v


def _benefit(spec, path) -> BenefitSpec:
    spec = _mapping(spec, path)
    family = spec.get("family")
    if family == "cobb_douglas":
        _reject_unknown(spec, {"family", "alpha", "beta"}, path)
        return CobbDouglas(
            alpha=_number(spec, "alpha", path, lo=0.0, lo_open=True),
            beta=_number(spec, "beta", path, lo=0.0, lo_open=True),
        )
    if family == "linear":
        _reject_unknown(spec, {"family", "w1", "w2"}, path)
        return Linear(
            w1=_number(spec, "w1", path, lo=0.0),
            w2=_number(spec, "w2", path, lo=0.0),
        )
    if family == "tabulated":
        _reject_unknown(spec, {"family", "values"}, path)
        if "values" not in spec:
            _fail(f"{path}.values", "missing required field")
        try:
            return TabulatedBenefit(spec["values"])
        except ValueError as exc:
            _fail(f"{path}.values", str(exc))
    _fail(f"{path}.family", f"unknown family {family!r}")


def _income(spec, path) -> IncomeSpec:
    spec = _mapping(spec, path)
    family = spec.get("family")
    if family == "multiplicative":
        _reject_unknown(spec, {"family", "activity"}, path)
        if "activity" not in spec:
            _fail(f"{path}.activity", "missing required field")
        return MultiplicativeIncome(_benefit(spec["activity"], f"{path}.activity"))
    if family == "additive_fees":
        _reject_unknown(spec, {"family"}, path)
        return AdditiveFeesIncome()
    if family == "tabulated":
        _reject_unknown(spec, {"family", "values", "fee_bounds"}, path)
        for key in ("values", "fee_bounds"):
            if key not in spec:
                _fail(f"{path}.{key}", "missing required field")
        bounds = spec["fee_bounds"]
        if not isinstance(bounds, (list, tuple)) or len(bounds) != 2:
            _fail(f"{path}.fee_bounds", "expected a pair [bound1, bound2]")
        bounds = tuple(
            _number({"fee_bounds": b}, "fee_bounds", path, lo=0.0, lo_open=True) for b in bounds
        )
        try:
            return TabulatedIncome(spec["values"], bounds)
        except (TypeError, ValueError) as exc:
            _fail(f"{path}.values", str(exc))
    _fail(f"{path}.family", f"unknown family {family!r}")


def _beliefs(section) -> BeliefSystem:
    section = _mapping(section, "beliefs")
    _reject_unknown(section, {"lambda", "gamma", "loyalty"}, "beliefs")
    gamma = _number(section, "gamma", "beliefs", lo=0.0, hi=1.0)
    lam = _number(section, "lambda", "beliefs", lo=0.0, hi=1.0, default=0.0)
    if lam + gamma > 1.0:
        _fail("beliefs", f"properness violated: lambda + gamma = {lam + gamma:g} exceeds 1")
    loyalty = section.get("loyalty")
    if loyalty is None:
        _fail("beliefs.loyalty", "missing required field")
    if not isinstance(loyalty, (list, tuple)) or len(loyalty) != 2:
        _fail("beliefs.loyalty", "expected a pair [loyalty1, loyalty2]")
    for v in loyalty:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            _fail("beliefs.loyalty", "expected a pair of numbers")
        if not 0.0 <= v <= 1.0:
            _fail("beliefs.loyalty", "levels must lie in [0, 1]")
    return BeliefSystem(
        lambda_=lam, gamma=gamma, loyalty1=float(loyalty[0]), loyalty2=float(loyalty[1])
    )


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse and fully validate a scenario document."""
    try:
        doc = yaml.safe_load(text)
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ScenarioError(f"parse error{where}: {exc.problem}") from exc
    except yaml.YAMLError as exc:
        raise ScenarioError(f"parse error: {exc}") from exc

    if doc is None:
        doc = {}
    doc = _mapping(doc, "document")
    _reject_unknown(doc, {"schema_version", "game", "beliefs", "grid"}, "")

    if "game" not in doc:
        raise ScenarioError("missing game section")

    version = doc.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        _fail("schema_version", f"unsupported value {version!r} (expected {SCHEMA_VERSION})")

    game_sec = _mapping(doc["game"], "game")
    _reject_unknown(game_sec, {"f1", "f2", "income", "tag"}, "game")
    for key in ("f1", "f2", "income"):
        if key not in game_sec:
            _fail(f"game.{key}", "missing required field")
    tag = game_sec.get("tag", "benchmark")
    if tag not in ("benchmark", "externality"):
        _fail("game.tag", f"must be 'benchmark' or 'externality', got {tag!r}")
    game = HedonicGame(
        f1=_benefit(game_sec["f1"], "game.f1"),
        f2=_benefit(game_sec["f2"], "game.f2"),
        income=_income(game_sec["income"], "game.income"),
        tag=tag,
    )

    beliefs = _beliefs(doc["beliefs"]) if "beliefs" in doc else None

    steps, eps, s_lo = 100, 1e-9, 0.0
    if "grid" in doc:
        grid_sec = _mapping(doc["grid"], "grid")
        _reject_unknown(grid_sec, {"steps", "eps", "s_lo"}, "grid")
        if "steps" in grid_sec:
            raw = grid_sec["steps"]
            if isinstance(raw, bool) or not isinstance(raw, int):
                _fail("grid.steps", "expected an integer")
            if raw < 2:
                _fail("grid.steps", "must be >= 2")
            steps = raw
        eps = _number(grid_sec, "eps", "grid", lo=0.0, default=1e-9)
        s_lo = _number(grid_sec, "s_lo", "grid", lo=0.0, default=0.0)
        if s_lo >= 1.0:
            _fail("grid.s_lo", "must be < 1")

    return ScenarioConfig(game=game, beliefs=beliefs, steps=steps, eps=eps, s_lo=s_lo)


def _benefit_doc(spec: BenefitSpec) -> dict:
    if isinstance(spec, CobbDouglas):
        return {"family": "cobb_douglas", "alpha": spec.alpha, "beta": spec.beta}
    if isinstance(spec, Linear):
        return {"family": "linear", "w1": spec.w1, "w2": spec.w2}
    if isinstance(spec, TabulatedBenefit):
        return {"family": "tabulated", "values": spec.values.tolist()}
    raise TypeError(f"unsupported benefit spec {type(spec).__name__}")


def _income_doc(spec: IncomeSpec) -> dict:
    if isinstance(spec, MultiplicativeIncome):
        return {"family": "multiplicative", "activity": _benefit_doc(spec.activity)}
    if isinstance(spec, AdditiveFeesIncome):
        return {"family": "additive_fees"}
    if isinstance(spec, TabulatedIncome):
        return {
            "family": "tabulated",
            "values": spec.values.tolist(),
            "fee_bounds": list(spec.fee_bounds),
        }
    raise TypeError(f"unsupported income spec {type(spec).__name__}")


def dump_scenario(config: ScenarioConfig) -> str:
    """Serialise a config back to YAML; parse_scenario round-trips it."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "game": {
            "f1": _benefit_doc(config.game.f1),
            "f2": _benefit_doc(config.game.f2),
            "income": _income_doc(config.game.income),
            "tag": config.game.tag,
        },
    }
    if config.beliefs is not None:
        doc["beliefs"] = {
            "lambda": config.beliefs.lambda_,
            "gamma": config.beliefs.gamma,
            "loyalty": [config.beliefs.loyalty1, config.beliefs.loyalty2],
        }
    doc["grid"] = {"steps": config.steps, "eps": config.eps, "s_lo": config.s_lo}
    return yaml.safe_dump(doc, sort_keys=False)


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.6f}"
    if isinstance(v, (tuple, list)):
        return ",".join(_format_value(x) for x in v)
    return str(v)


def _jsonable(v):
    if isinstance(v, bool):
        return v
    if isinstance(v, float):
        return round(v, 6)
    if isinstance(v, (tuple, list)):
        return [_jsonable(x) for x in v]
    return v


def report_text(entries: dict) -> str:
    return "".join(f"{k}={_format_value(v)}\n" for k, v in entries.items())


def report_machine(entries: dict) -> str:
    return json.dumps({k: _jsonable(v) for k, v in entries.items()}, sort_keys=True) + "\n"


def region_csv(region: RegionMap) -> str:
    labels = [f"{x:.6f}" for x in region.axis.tolist()]
    cells = {True: [f"{x},true" for x in labels], False: [f"{x},false" for x in labels]}
    lines = ["gamma,sigma,full_exploitation"]
    for gamma, row in zip(labels, region.full_exploitation.tolist()):
        prefix = gamma + ","
        lines.append("\n".join(prefix + cells[v][j] for j, v in enumerate(row)))
    return "\n".join(lines) + "\n"


def region_svg(region: RegionMap) -> str:
    """Shaded full-exploitation region with the boundary polyline.

    Gamma runs along the x-axis, sigma up the y-axis, on a 500-unit square.
    The shaded polygon and the curve are drawn from the analytic boundary at
    the sample resolution.
    """
    size = 500
    curve = [(boundary_curve(sig), sig) for sig in region.axis.tolist()]

    def pt(gamma, sigma):
        return f"{gamma * size:.2f},{(1.0 - sigma) * size:.2f}"

    shade = " ".join([pt(0.0, 0.0)] + [pt(g, s) for g, s in curve] + [pt(0.0, 1.0)])
    line = " ".join(pt(g, s) for g, s in curve)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {size} {size}">\n'
        f'  <rect width="{size}" height="{size}" fill="white" stroke="black"/>\n'
        f'  <polygon points="{shade}" fill="#9ecae1" stroke="none"/>\n'
        f'  <polyline points="{line}" fill="none" stroke="#08519c" stroke-width="2"/>\n'
        "</svg>\n"
    )


# Sweep columns hold floats or bools; these are the per-value rules of
# _format_value and _jsonable, applied a column at a time and returning text.
def _csv_column(column) -> list[str]:
    if column.dtype == bool:
        return ["true" if v else "false" for v in column.tolist()]
    return [f"{v:.6f}" for v in column.tolist()]


def _json_column(column) -> list[str]:
    values = column.tolist() if column.dtype == bool else [round(v, 6) for v in column.tolist()]
    # one encoder call spells each value as json.dumps would on its own
    return json.dumps(values)[1:-1].split(", ") if values else []


# Rows are converted a block at a time, so the per-value Python objects of a
# large sweep never exist all at once; only the output text grows with it.
_SWEEP_BLOCK_ROWS = 1 << 16


def _row_blocks(columns: dict, convert):
    arrays = [np.asarray(c) for c in columns.values()]
    for lo in range(0, len(arrays[0]), _SWEEP_BLOCK_ROWS):
        yield zip(*(convert(a[lo:lo + _SWEEP_BLOCK_ROWS]) for a in arrays))


def sweep_csv(columns: dict) -> str:
    """CSV of equal-length result columns, one row per index, in mapping order."""
    blocks = ("".join(f"{','.join(row)}\n" for row in rows)
              for rows in _row_blocks(columns, _csv_column))
    return ",".join(columns) + "\n" + "".join(blocks)


def sweep_machine(columns: dict) -> str:
    """JSON list of one object per row of equal-length result columns."""
    names = sorted(columns)
    # json.dumps(..., sort_keys=True) of each row's dict, as a template
    row = "{" + ", ".join(json.dumps(n).replace("%", "%%") + ": %s" for n in names) + "}"
    blocks = (", ".join(map(row.__mod__, rows))
              for rows in _row_blocks({n: columns[n] for n in names}, _json_column))
    return "[" + ", ".join(blocks) + "]\n"


def emit_results(result, fmt: str = "text") -> str:
    """Serialise a verdict mapping or a region map.

    Mappings accept ``text`` and ``machine``; a :class:`RegionMap` (as
    returned by ``region_sample``) accepts ``csv`` and ``svg``. Output is
    deterministic for identical inputs.
    """
    if isinstance(result, dict):
        if fmt == "text":
            return report_text(result)
        if fmt == "machine":
            return report_machine(result)
        raise ValueError(f"unsupported format {fmt!r} for a verdict report")
    if isinstance(result, RegionMap):
        if fmt == "csv":
            return region_csv(result)
        if fmt == "svg":
            return region_svg(result)
        raise ValueError(f"unsupported format {fmt!r} for a region map")
    raise TypeError(f"cannot emit result of type {type(result).__name__}")
