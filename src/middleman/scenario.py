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

A component (``f1``, ``f2``, ``income``, ``activity``) is a ``family`` plus
its constructor's fields, read and written from one table per kind.
The parser checks the document (mappings, unknown and missing fields,
finite numbers) and the grid, for which no object exists at parse time.
Value ranges are checked by the game and belief constructors alone, and
their field errors are reported at the scenario path, so every validation
error names the offending field. Emission is byte-stable: identical inputs
give identical output documents. CSV and text output spell each number fixed
at six decimals (``f"{v:.6f}"``); ``machine`` output spells it as
``json.dumps(round(v, 6))``, the shortest form of the rounded value
(``0.5``, ``5e-06``, ``-0.0``, ``NaN``, ``Infinity``). Each map writer
(``region_csv``, ``sweep_csv``, ``sweep_machine``) joins the text blocks of
one private generator; :func:`emit_blocks` and :func:`sweep_blocks` hand out
those blocks instead, for the CLI to write one at a time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np
import yaml

from .activity import RegionMap, boundary_curve
from .ambiguity import BeliefSystem
from .hedonic import (
    AdditiveFeesIncome,
    CobbDouglas,
    FieldError,
    HedonicGame,
    Linear,
    MultiplicativeIncome,
    TabulatedBenefit,
    TabulatedIncome,
)

SCHEMA_VERSION = 1


class ScenarioError(ValueError):
    """Parse or validation failure; the message carries the location or field."""


class _Loader(yaml.SafeLoader):
    """Safe YAML loading that rejects a key given twice in one mapping."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if key_node.tag == "tag:yaml.org,2002:merge":
                continue
            key = self.construct_object(key_node, deep=deep)
            try:
                duplicate = key in seen
            except TypeError:  # an unhashable key, which the base class reports
                break
            if duplicate:
                raise yaml.constructor.ConstructorError(
                    "while constructing a mapping", node.start_mark,
                    f"found duplicate key {key!r}", key_node.start_mark)
            seen.add(key)
        return super().construct_mapping(node, deep)


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


def _number(mapping, key, path, *, lo=None, default=None):
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
    if lo is not None and v < lo:
        _fail(f"{path}.{key}", f"must be >= {lo:g}")
    return v


def _pair(mapping, key, path, names):
    """A two-number field, each entry checked as one value at ``path.key``."""
    if key not in mapping:
        _fail(f"{path}.{key}", "missing required field")
    pair = mapping[key]
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        _fail(f"{path}.{key}", f"expected a pair [{names}]")
    return tuple(_number({key: v}, key, path) for v in pair)


# Constructor fields whose scenario key differs; a rule over several fields
# (field None) is reported at the section itself.
_FIELD_KEYS = {"lambda_": "lambda", "loyalty1": "loyalty", "loyalty2": "loyalty"}


def _build(cls, path, *args, **kwargs):
    """``cls(*args, **kwargs)``, with a constructor's field error reported at
    the field's scenario path; the ranges live in the constructors alone."""
    try:
        return cls(*args, **kwargs)
    except FieldError as exc:
        key = _FIELD_KEYS.get(exc.field, exc.field)
        _fail(f"{path}.{key}" if key else path, exc.problem)


# A scenario component is ``family`` plus its constructor's fields, so a new
# family is one more table entry.
_BENEFITS = {"cobb_douglas": CobbDouglas, "linear": Linear, "tabulated": TabulatedBenefit}
_INCOMES = {"multiplicative": MultiplicativeIncome, "additive_fees": AdditiveFeesIncome,
            "tabulated": TabulatedIncome}


def _component(spec, path, families):
    """Read the fields in declaration order: ``activity`` as a nested benefit,
    ``fee_bounds`` as a pair, ``values`` raw, any other as a number."""
    spec = _mapping(spec, path)
    family = spec.get("family")
    cls = families.get(family) if isinstance(family, str) else None
    if cls is None:
        _fail(f"{path}.family", f"unknown family {family!r}")
    names = [f.name for f in fields(cls)]
    _reject_unknown(spec, {"family", *names}, path)
    kwargs = {}
    for name in names:
        if name not in spec:
            _fail(f"{path}.{name}", "missing required field")
        if name == "activity":
            kwargs[name] = _component(spec[name], f"{path}.{name}", _BENEFITS)
        elif name == "fee_bounds":
            kwargs[name] = _pair(spec, name, path, "bound1, bound2")
        elif name == "values":
            kwargs[name] = spec[name]
        else:
            kwargs[name] = _number(spec, name, path)
    return _build(cls, path, **kwargs)


def _beliefs(section) -> BeliefSystem:
    section = _mapping(section, "beliefs")
    _reject_unknown(section, {"lambda", "gamma", "loyalty"}, "beliefs")
    gamma = _number(section, "gamma", "beliefs")
    lam = _number(section, "lambda", "beliefs", default=0.0)
    loyalty = _pair(section, "loyalty", "beliefs", "loyalty1, loyalty2")
    return _build(BeliefSystem, "beliefs", lam, gamma, *loyalty)


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse and fully validate a scenario document."""
    try:
        doc = yaml.load(text, Loader=_Loader)
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
    # type first: True and 1.0 both compare equal to 1
    if type(version) is not int or version != SCHEMA_VERSION:
        _fail("schema_version", f"unsupported value {version!r} (expected {SCHEMA_VERSION})")

    game_sec = _mapping(doc["game"], "game")
    _reject_unknown(game_sec, {"f1", "f2", "income", "tag"}, "game")
    for key in ("f1", "f2", "income"):
        if key not in game_sec:
            _fail(f"game.{key}", "missing required field")
    game = _build(
        HedonicGame,
        "game",
        f1=_component(game_sec["f1"], "game.f1", _BENEFITS),
        f2=_component(game_sec["f2"], "game.f2", _BENEFITS),
        income=_component(game_sec["income"], "game.income", _INCOMES),
        tag=game_sec.get("tag", "benchmark"),
    )

    beliefs = _beliefs(doc["beliefs"]) if "beliefs" in doc else None

    # only the grid fields the document sets; ScenarioConfig holds the defaults
    grid = {}
    if "grid" in doc:
        grid_sec = _mapping(doc["grid"], "grid")
        _reject_unknown(grid_sec, {"steps", "eps", "s_lo"}, "grid")
        if "steps" in grid_sec:
            steps = grid_sec["steps"]
            if isinstance(steps, bool) or not isinstance(steps, int):
                _fail("grid.steps", "expected an integer")
            if steps < 2:
                _fail("grid.steps", "must be >= 2")
            grid["steps"] = steps
        for key in ("eps", "s_lo"):
            if key in grid_sec:
                grid[key] = _number(grid_sec, key, "grid", lo=0.0)
        if "s_lo" in grid and grid["s_lo"] >= 1.0:
            _fail("grid.s_lo", "must be < 1")

    return ScenarioConfig(game=game, beliefs=beliefs, **grid)


def _component_doc(spec, families, kind) -> dict:
    """``spec`` as its family and its class's fields, each a plain Python
    value YAML can write (numpy scalars and arrays included)."""
    family = next((name for name, cls in families.items() if isinstance(spec, cls)), None)
    if family is None:
        raise TypeError(f"unsupported {kind} spec {type(spec).__name__}")
    doc = {"family": family}
    for f in fields(families[family]):
        value = getattr(spec, f.name)
        doc[f.name] = (_component_doc(value, _BENEFITS, "benefit") if f.name == "activity"
                       else np.asarray(value).tolist())
    return doc


def dump_scenario(config: ScenarioConfig) -> str:
    """Serialise a config back to YAML; parse_scenario round-trips it."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "game": {
            "f1": _component_doc(config.game.f1, _BENEFITS, "benefit"),
            "f2": _component_doc(config.game.f2, _BENEFITS, "benefit"),
            "income": _component_doc(config.game.income, _INCOMES, "income"),
            "tag": config.game.tag,
        },
    }
    # each number as the Python value it holds: YAML cannot write numpy scalars
    if config.beliefs is not None:
        lam, gamma, l1, l2 = (np.asarray(getattr(config.beliefs, f.name)).item()
                              for f in fields(BeliefSystem))
        doc["beliefs"] = {"lambda": lam, "gamma": gamma, "loyalty": [l1, l2]}
    doc["grid"] = {k: np.asarray(getattr(config, k)).item() for k in ("steps", "eps", "s_lo")}
    return yaml.safe_dump(doc, sort_keys=False)


def _format_value(v) -> str:
    v = v.item() if isinstance(v, np.generic) else v
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.6f}"
    if isinstance(v, (tuple, list)):
        return ",".join(_format_value(x) for x in v)
    return str(v)


def _jsonable(v):
    v = v.item() if isinstance(v, np.generic) else v
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


def _region_csv_blocks(region: RegionMap):
    """The region CSV as text blocks: the header, then groups of gamma rows
    of about one sweep block's cells each."""
    yield "gamma,sigma,full_exploitation\n"
    labels = _spell(region.axis, machine=False).tolist()
    cells = np.array([[f"{x},false" for x in labels], [f"{x},true" for x in labels]], dtype=object)
    sigma = np.arange(len(labels))
    step = max(1, _SWEEP_BLOCK_ROWS // len(labels))
    for lo in range(0, len(labels), step):
        # row i holds the cell of sigma j for its verdict, each line led by gamma
        grid = cells[region.full_exploitation[lo:lo + step].astype(np.intp), sigma]
        yield "".join(f"{g}," + f"\n{g},".join(row) + "\n"
                      for g, row in zip(labels[lo:lo + step], grid.tolist()))


def region_csv(region: RegionMap) -> str:
    return "".join(_region_csv_blocks(region))


def region_svg(region: RegionMap) -> str:
    """Shaded full-exploitation region with the boundary polyline.

    Gamma runs along the x-axis, sigma up the y-axis, on a 500-unit square.
    The shaded polygon and the curve are drawn from the analytic boundary at
    the sample resolution: only ``region.axis`` is read, so the map's verdict
    lattice is never evaluated.
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


# Map text is spelled a block of rows and a column at a time. Each distinct
# float bit pattern is spelled once (np.unique over the int64 view keeps -0.0
# apart from 0.0), given its column's separators, and gathered back through
# an object array; each block of rows is one object grid of cells, joined once.
_SWEEP_BLOCK_ROWS = 1 << 16
# code points of "000" .. "999", and the powers 10 .. 10**7
_TRIPLES = (np.arange(1000)[:, None] // [100, 10, 1] % 10 + ord("0")).astype(np.uint32)
_POW10 = 10 ** np.arange(1, 8)
_BOOL_TEXT = np.array(["false", "true"], dtype=object)


def _spell(values: np.ndarray, machine: bool) -> np.ndarray:
    """Object array of the text of each float: ``_format_value(v)``, or with
    ``machine`` ``json.dumps(_jsonable(v))``.

    For finite ``|v| < 1e7`` the product ``x = |v| * 1e6`` is off the exact
    one by at most ``x * 2**-53``. Where ``x`` lies more than ``x * 2**-50``
    from a rounding tie, ``rint(x)`` is therefore the rounding that ``%.6f``
    prints, and the digits are made here. JSON drops the trailing fraction
    zeros, which is ``repr(round(v, 6))`` for 0 and for rounded magnitudes
    of at least 1e-4. Every other value goes through the per-value rule.
    """
    mag = np.abs(values)
    fast = mag < 1e7  # False for NaN and infinities
    scaled = np.where(fast, mag, 0.0) * 1e6
    fast &= np.abs(scaled - np.floor(scaled) - 0.5) > scaled * 2.0**-50
    units = np.rint(scaled).astype(np.int64)
    if machine:
        fast &= (units == 0) | (units >= 100)
    whole, frac = np.divmod(units, 10**6)
    # nine integer digits, ".", six decimals, with "-" over the zero before
    # the first integer digit and blanks over the zeros before that
    parts = np.stack([whole // 10**6, whole // 1000 % 1000, whole % 1000,
                      frac // 1000, frac % 1000], axis=1)
    layout = np.insert(_TRIPLES[parts].reshape(len(values), 15), 9, ord("."), axis=1)
    width = 1 + np.searchsorted(_POW10, whole, side="right")  # integer digits
    negative = np.signbit(values)
    rows = np.flatnonzero(negative)
    layout[rows, 8 - width[rows]] = ord("-")
    column = np.arange(16)
    layout[column < (9 - width - negative)[:, None]] = ord(" ")
    if machine:
        # one fraction digit, and one more per nonzero remainder mod 10 ..
        # 10**5; the NULs after them end the string
        kept = 1 + (frac[:, None] % _POW10[:5] != 0).sum(axis=1)
        layout[column > 9 + kept[:, None]] = 0
    text = np.char.lstrip(layout.view("U16")[:, 0]).astype(object)
    slow = np.flatnonzero(~fast)
    rule = (lambda v: json.dumps(_jsonable(v))) if machine else _format_value
    text[slow] = [rule(v) for v in values[slow].tolist()]
    return text


def _column_text(column: np.ndarray, machine: bool, head: str, tail: str) -> np.ndarray:
    """Object array of each value's text between ``head`` and ``tail``."""
    if column.dtype == bool:
        text, index = _BOOL_TEXT, column.astype(np.intp)
    else:
        bits, index = np.unique(column.view(np.int64), return_inverse=True)
        text = _spell(bits.view(np.float64), machine)
    return (head + text + tail)[index]


def _row_text(columns: dict, machine: bool, heads: list, tails: list, row_sep: str):
    """Text of the rows, a block at a time: each cell between its column's
    head and tail, and rows after the first led by ``row_sep``."""
    arrays = [np.asarray(c) for c in columns.values()]
    arrays = [a if a.dtype == bool else a.astype(np.float64, copy=False) for a in arrays]
    heads = [row_sep + heads[0], *heads[1:]]
    for lo in range(0, len(arrays[0]), _SWEEP_BLOCK_ROWS):
        grid = np.stack([_column_text(a[lo:lo + _SWEEP_BLOCK_ROWS], machine, head, tail)
                         for a, head, tail in zip(arrays, heads, tails)], axis=1)
        if lo == 0:
            grid[0, 0] = grid[0, 0][len(row_sep):]
        yield "".join(grid.ravel().tolist())


def _sweep_csv_blocks(columns: dict):
    heads = [""] * len(columns)
    tails = [","] * (len(columns) - 1) + ["\n"]
    yield ",".join(columns) + "\n"
    yield from _row_text(columns, False, heads, tails, "")


def sweep_csv(columns: dict) -> str:
    """CSV of equal-length float or bool columns, one row per index, in
    mapping order."""
    return "".join(_sweep_csv_blocks(columns))


def _sweep_machine_blocks(columns: dict):
    names = sorted(columns)
    # json.dumps(..., sort_keys=True) of each row's dict
    keys = [json.dumps(n) + ": " for n in names]
    heads = ["{" + keys[0]] + [", " + k for k in keys[1:]]
    tails = [""] * (len(names) - 1) + ["}"]
    yield "["
    yield from _row_text({n: columns[n] for n in names}, True, heads, tails, ", ")
    yield "]\n"


def sweep_machine(columns: dict) -> str:
    """JSON list of one object per row of equal-length float or bool columns."""
    return "".join(_sweep_machine_blocks(columns))


def sweep_blocks(columns: dict, fmt: str = "csv"):
    """The text of :func:`sweep_csv` (``csv``) or :func:`sweep_machine`
    (``machine``) as an iterable of blocks, made one at a time as it is
    read. The format is checked here, before any block is made."""
    if fmt == "csv":
        return _sweep_csv_blocks(columns)
    if fmt == "machine":
        return _sweep_machine_blocks(columns)
    raise ValueError(f"unsupported format {fmt!r} for a sweep")


def emit_blocks(result, fmt: str = "text"):
    """The text of :func:`emit_results` as an iterable of blocks.

    A region map's CSV is made one group of gamma rows at a time, as it is
    read; every other output is one block. The result type and format are
    checked here, before any block is made.
    """
    if isinstance(result, dict):
        if fmt == "text":
            return [report_text(result)]
        if fmt == "machine":
            return [report_machine(result)]
        raise ValueError(f"unsupported format {fmt!r} for a verdict report")
    if isinstance(result, RegionMap):
        if fmt == "csv":
            return _region_csv_blocks(result)
        if fmt == "svg":
            return [region_svg(result)]
        raise ValueError(f"unsupported format {fmt!r} for a region map")
    raise TypeError(f"cannot emit result of type {type(result).__name__}")


def emit_results(result, fmt: str = "text") -> str:
    """Serialise a verdict mapping or a region map.

    Mappings accept ``text`` and ``machine``; a :class:`RegionMap` (as
    returned by ``region_sample``) accepts ``csv`` and ``svg``. Output is
    deterministic for identical inputs.
    """
    return "".join(emit_blocks(result, fmt))
