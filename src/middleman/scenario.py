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
(``0.5``, ``5e-06``, ``-0.0``, ``NaN``, ``Infinity``). Output is made as
bytes. Sweep text is made a block of byte rows at a time, a uint8 matrix of
NUL-padded slots filled from digit tables; the region CSV is cut, a group
of gamma rows at a time, from runs of equal verdicts in two line templates.
:func:`emit_blocks` and :func:`sweep_blocks` hand out a map's bytes-like
blocks for the CLI to write one at a time, none sharing memory with a later
one; the string writers decode the joined blocks.
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
    """Safe YAML loading that rejects a key given twice in one mapping. Not on
    libyaml's ``CSafeLoader``: ten times faster, it words and marks parse errors
    differently, drops an undefined alias's name and accepts a tab as a space."""

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
    """The region CSV as byte blocks: the header, then groups of gamma rows
    of about one sweep block's lines each.

    A line is ``gamma,sigma,`` and its verdict. Each row is cut at its
    verdict changes (one on a benchmark row) into runs of equal verdicts, a
    group is one concatenation of its runs, each cut from one of two line
    templates (every sigma, all false or all true), and each run's gamma
    labels are then written as one strided array of fixed-width items.
    Labels narrower than the widest leave NULs, dropped last.
    """
    yield b"gamma,sigma,full_exploitation\n"
    labels = _slots(region.axis.astype(np.float64, copy=False), False)
    n, w = labels.shape
    label = np.dtype((np.void, w))
    heads = labels.view(label)[:, 0]
    templates, widths = [], []
    for verdict in (b",false\n", b",true\n"):
        lines = np.empty((n, 2 * w + 1 + len(verdict)), np.uint8)  # gamma written per run
        lines[:, w] = ord(",")
        lines[:, w + 1:2 * w + 1] = labels
        lines[:, 2 * w + 1:] = np.frombuffer(verdict, np.uint8)
        templates.append(lines.reshape(-1))
        widths.append(lines.shape[1])
    narrow = not labels.all()
    step = max(1, _SWEEP_BLOCK_ROWS // max(n, 1))
    for lo in range(0, n, step):
        verdicts = region.full_exploitation[lo:lo + step]
        change = np.ones(verdicts.shape, bool)  # each row starts a run
        np.not_equal(verdicts[:, 1:], verdicts[:, :-1], out=change[:, 1:])
        starts = np.flatnonzero(change)
        rows, columns = np.divmod(starts, n)
        runs = list(zip(verdicts[rows, columns].astype(np.intp).tolist(), (rows + lo).tolist(),
                        columns.tolist(), np.diff(starts, append=verdicts.size).tolist()))
        block = np.concatenate([templates[k][j * widths[k]:(j + m) * widths[k]]
                                for k, _, j, m in runs])
        at = 0
        for k, i, _, m in runs:
            np.ndarray((m,), label, block, at, (widths[k],))[...] = heads[i]
            at += m * widths[k]
        yield block[block != 0] if narrow else block


def region_csv(region: RegionMap) -> str:
    return b"".join(_region_csv_blocks(region)).decode()


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


# Map text is made a block of rows at a time as one uint8 matrix. A row holds
# each column's byte slot between the texts around it; a slot is as wide as
# the column's longest text in the block and NUL where a text is shorter. One
# compress drops the NULs and gives the block's bytes.
_SWEEP_BLOCK_ROWS = 1 << 16
# A float's slot is four uint32 words (a sign place, eight integer digits,
# ".", six decimals): digits of 0 .. 9999 and, from 10000, of 0.00 .. 9.99.
# One XOR row per (integer digits, sign, decimals kept) turns the zeros before
# the number and, in JSON, after the decimals kept into NULs, and the zero
# before the first digit into "-". Decimals kept, less one, go by the last four
# decimals or, for 0000, the word of the first two. Built by copies and bytes
# ("\x1d" is "0" ^ "-"), as numpy arithmetic raised import peak RSS by 0.5 MB.
_DIGITS = np.stack(np.meshgrid(*[np.frombuffer(b"0123456789", np.uint8)] * 4, indexing="ij"), -1)
_DIGITS = _DIGITS.reshape(-1, 4)
_WORDS = np.concatenate([_DIGITS, np.insert(_DIGITS[:1000, 1:], 1, ord("."), 1)]).view(np.uint32)
_MASKS = np.frombuffer(b"".join(
    b"0" * (8 - w) + b"0\x1d"[neg:neg + 1] + bytes(w + 1 + k) + b"0" * (6 - k)
    for w in range(1, 9) for neg in (0, 1) for k in range(1, 7)), np.uint32).reshape(-1, 4)
_KEPT = np.ones(1, np.intp)
for _n in range(2, 6):  # one more digit: 0 leaves the count, others set it
    _KEPT = np.hstack([_KEPT[:, None], np.full((len(_KEPT), 9), _n)]).ravel()
_KEPT = np.concatenate([_KEPT, np.tile([0] + [1] * 9, 100)])
_BOOL_BYTES = np.frombuffer(b"falsetrue\0", np.uint8).reshape(2, 5)
del _DIGITS, _n


def _slots(values: np.ndarray, machine: bool) -> np.ndarray:
    """uint8 matrix of each float's text, NUL-padded: ``_format_value(v)``,
    or with ``machine`` ``json.dumps(_jsonable(v))``. Each distinct bit
    pattern is spelled once (the int64 view keeps -0.0 apart from 0.0).

    For finite ``|v| < 1e7`` the product ``x = |v| * 1e6`` is off the exact
    one by at most ``x * 2**-53``. Where ``x`` lies more than ``x * 2**-50``
    from a rounding tie, ``rint(x)`` is therefore the rounding that ``%.6f``
    prints, and the digits are made here. JSON drops the trailing fraction
    zeros, which is ``repr(round(v, 6))`` for 0 and for rounded magnitudes
    of at least 1e-4. Every other value goes through the per-value rule."""
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    values = bits.view(np.float64)
    mag = np.abs(values)
    fast = mag < 1e7  # False for NaN and infinities
    scaled = np.where(fast, mag, 0.0) * 1e6
    fast &= np.abs(scaled - np.floor(scaled) - 0.5) > scaled * 2.0**-50
    units = np.rint(scaled)
    if machine:
        fast &= (units == 0) | (units >= 100)
    # word indices, from exact quotients of integers below 2**53: integer digits
    # 1-3 and 4-7 of eight, the eighth with decimals 1-2, and decimals 3-6
    hundredths = np.floor(units / 1e4)
    tens = np.floor(hundredths / 1e3)
    top = np.floor(tens / 1e4)
    index = np.empty((len(values), 4), np.intp)
    index[:, 0], index[:, 1] = top, tens - top * 1e4
    index[:, 2], index[:, 3] = hundredths - tens * 1e3 + 1e4, units - hundredths * 1e4
    width = (tens >= 10.0 ** np.arange(7)[:, None]).sum(axis=0)  # integer digits, less one
    negative = np.signbit(values)
    code = 12 * width + 6 * negative
    code += _KEPT.take(np.where(index[:, 3], index[:, 3], index[:, 2])) if machine else 5
    words = _WORDS.take(index) ^ _MASKS.take(code, axis=0)
    slots = words.view(np.uint8)[:, 8 - (width + negative).max(initial=0):]
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = [json.dumps(_jsonable(v)) if machine else _format_value(v)
                for v in values[slow].tolist()]
        text = np.array(text, dtype=bytes).view(np.uint8).reshape(slow.size, -1)
        slots = np.pad(slots, ((0, 0), (max(text.shape[1] - slots.shape[1], 0), 0)))
        slots[slow] = 0
        slots[slow, :text.shape[1]] = text
    return slots.take(inverse, axis=0)


def _row_blocks(columns: dict, machine: bool, seps: list, row_sep="", head="", tail=""):
    """``head``, rows a block at a time, then ``tail``, as bytes: each row's
    float or bool cells between ``seps`` (one before each, one after), led by
    ``row_sep``."""
    yield head.encode()
    arrays = [np.asarray(c) for c in columns.values()]
    seps = [np.frombuffer(s.encode(), np.uint8) for s in [row_sep + seps[0], *seps[1:]]]
    for lo in range(0, len(arrays[0]), _SWEEP_BLOCK_ROWS):
        cells = [a[lo:lo + _SWEEP_BLOCK_ROWS] for a in arrays]
        slots = [_BOOL_BYTES.take(c.astype(np.intp), axis=0) if c.dtype == bool
                 else _slots(c.astype(np.float64, copy=False), machine) for c in cells]
        parts = [p for pair in zip(seps, slots) for p in pair] + seps[-1:]
        block = np.hstack([np.broadcast_to(p, (len(cells[0]), p.shape[-1])) for p in parts])
        if lo == 0:
            block[0, :len(row_sep)] = 0
        yield block[block != 0]
    yield tail.encode()


def sweep_blocks(columns: dict, fmt: str = "csv"):
    """The text of :func:`sweep_csv` (``csv``) or :func:`sweep_machine`
    (``machine``) as an iterable of bytes-like blocks, made one at a time as
    it is read. The format is checked here, before any block is made."""
    if fmt == "csv":
        seps = ["", *[","] * (len(columns) - 1), "\n"]
        return _row_blocks(columns, False, seps, "", ",".join(columns) + "\n")
    if fmt == "machine":
        # json.dumps(..., sort_keys=True) of each row's dict
        keys = [json.dumps(n) + ": " for n in sorted(columns)]
        seps = ["{" + keys[0], *(", " + k for k in keys[1:]), "}"]
        return _row_blocks({n: columns[n] for n in sorted(columns)}, True, seps, ", ", "[", "]\n")
    raise ValueError(f"unsupported format {fmt!r} for a sweep")


def sweep_csv(columns: dict) -> str:
    """CSV of equal-length float or bool columns, one row per index, in
    mapping order."""
    return b"".join(sweep_blocks(columns, "csv")).decode()


def sweep_machine(columns: dict) -> str:
    """JSON list of one object per row of equal-length float or bool columns."""
    return b"".join(sweep_blocks(columns, "machine")).decode()


def emit_blocks(result, fmt: str = "text"):
    """The text of :func:`emit_results` as an iterable of bytes-like blocks.

    A region map's CSV is made one group of gamma rows at a time, as it is
    read; every other output is one block. The result type and format are
    checked here, before any block is made.
    """
    if isinstance(result, dict):
        if fmt == "text":
            return [report_text(result).encode()]
        if fmt == "machine":
            return [report_machine(result).encode()]
        raise ValueError(f"unsupported format {fmt!r} for a verdict report")
    if isinstance(result, RegionMap):
        if fmt == "csv":
            return _region_csv_blocks(result)
        if fmt == "svg":
            return [region_svg(result).encode()]
        raise ValueError(f"unsupported format {fmt!r} for a region map")
    raise TypeError(f"cannot emit result of type {type(result).__name__}")


def emit_results(result, fmt: str = "text") -> str:
    """Serialise a verdict mapping or a region map.

    Mappings accept ``text`` and ``machine``; a :class:`RegionMap` (as
    returned by ``region_sample``) accepts ``csv`` and ``svg``. Output is
    deterministic for identical inputs.
    """
    return b"".join(emit_blocks(result, fmt)).decode()
