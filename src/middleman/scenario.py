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

Each section and each component (``f1``, ``f2``, ``income``, ``activity``)
is read by one reader and written by one writer from one table of its keys,
each with the constructor fields it fills. A component is a ``family`` plus
its class's fields, the families one table per kind. The parser checks the
document (mappings, unknown and missing fields, finite numbers). Value
ranges are checked by the constructors alone, the grid's (and the types of
``game`` and ``beliefs``, one number per belief field) by
:class:`ScenarioConfig`, and their field errors are reported at the scenario
key, so every validation error names the offending field. Emission is
byte-stable: identical inputs give identical output documents. CSV and text
output spell each number fixed at six decimals (``f"{v:.6f}"``); ``machine``
output spells it as ``json.dumps(round(v, 6))``, the shortest form of the
rounded value (``0.5``, ``5e-06``, ``-0.0``, ``NaN``, ``Infinity``). Output
is made as bytes. Sweep text is made a block of byte rows at a time, a uint8
matrix of NUL-padded slots filled from digit tables, from columns that
broadcast to one shape, each spelled in a block only along the axes it is
not broadcast along; the region CSV is cut, a group of gamma rows at a
time, from runs of equal verdicts in two line templates. :func:`emit_blocks` and :func:`sweep_blocks` hand out a map's
bytes-like blocks for the CLI to write one at a time, none sharing memory
with a later one; the string writers decode the joined blocks.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields

import numpy as np
import yaml

from . import game, oracles
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

    def __post_init__(self):  # the sections by type, each grid setting by its owner's rule
        if not isinstance(self.game, HedonicGame):
            raise FieldError("game", "must be a HedonicGame")
        if not isinstance(self.beliefs, (BeliefSystem, type(None))):
            raise FieldError("beliefs", "must be a BeliefSystem or None")
        if self.beliefs is not None and self.beliefs.shape:
            raise FieldError("beliefs", "must hold one number per field")
        game.Grid(self.steps, s_lo=self.s_lo)
        oracles._validate_eps(self.eps)


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


def _number(value, where):
    try:
        v = game._number(value, where)
    except FieldError:
        _fail(where, "expected a number")
    if not math.isfinite(v):
        _fail(where, "must be finite")
    return v


def _pair(pair, where, names):
    """A two-number field, each entry checked as one number at ``where``."""
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        _fail(where, f"expected a pair [{names}]")
    return tuple(_number(v, where) for v in pair)


# Each section's scenario keys, in document order, with the owner fields each
# fills. A rule over several fields (field None) is reported at the section.
_GAME = {"f1": ("f1",), "f2": ("f2",), "income": ("income",), "tag": ("tag",)}
_BELIEFS = {"lambda": ("lambda_",), "gamma": ("gamma",), "loyalty": ("loyalty1", "loyalty2")}
_GRID = {"steps": ("steps",), "eps": ("eps",), "s_lo": ("s_lo",)}

# A scenario component is ``family`` plus its constructor's fields, so a new
# family is one more table entry.
_BENEFITS = {"cobb_douglas": CobbDouglas, "linear": Linear, "tabulated": TabulatedBenefit}
_INCOMES = {"multiplicative": MultiplicativeIncome, "additive_fees": AdditiveFeesIncome,
            "tabulated": TabulatedIncome}
# The fields that hold a component, each with its kind's families
_COMPONENTS = {"f1": _BENEFITS, "f2": _BENEFITS, "activity": _BENEFITS, "income": _INCOMES}


def _keys(cls):
    """A component's scenario keys: its class's fields, each filling itself."""
    return {f.name: (f.name,) for f in fields(cls)}


def _value(value, name, where):
    """One field's scenario value by the field's name: ``f1``, ``f2``,
    ``activity`` and ``income`` are components, ``fee_bounds`` a pair,
    ``values`` and ``tag`` taken as they are, ``steps`` an integer and any
    other field a number."""
    families = _COMPONENTS.get(name)
    if families is not None:
        spec = dict(_mapping(value, where))
        family = spec.pop("family", None)
        cls = families.get(family) if isinstance(family, str) else None
        if cls is None:
            _fail(f"{where}.family", f"unknown family {family!r}")
        return _read(spec, where, cls, _keys(cls))
    if name == "fee_bounds":
        return _pair(value, where, "bound1, bound2")
    if name == "steps" and not game._integer(value):
        _fail(where, "expected an integer")
    return value if name in ("values", "tag", "steps") else _number(value, where)


def _read(section, path, cls, keys, **given):
    """``cls`` from ``given`` and the mapping at ``path``, whose ``keys`` fill
    their fields in order, a two-field key as a pair; a key may be left out
    where its fields are given or have defaults. The ranges live in the
    constructors alone, and a field error is reported at the field's key."""
    section = _mapping(section, path)
    _reject_unknown(section, keys, path)
    optional = {f.name for f in fields(cls) if f.default is not MISSING}.union(given)
    for key, names in keys.items():
        where = f"{path}.{key}"
        if key not in section:
            if not optional.issuperset(names):
                _fail(where, "missing required field")
        elif len(names) == 2:
            given.update(zip(names, _pair(section[key], where, ", ".join(names))))
        else:
            given[names[0]] = _value(section[key], names[0], where)
    try:
        return cls(**given)
    except FieldError as exc:
        key = next((key for key, names in keys.items() if exc.field in names), exc.field)
        _fail(f"{path}.{key}" if key else path, exc.problem)


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

    hedonic = _read(doc["game"], "game", HedonicGame, _GAME)
    beliefs = (_read(doc["beliefs"], "beliefs", BeliefSystem, _BELIEFS, lambda_=0.0)
               if "beliefs" in doc else None)
    # only the grid fields the document sets; ScenarioConfig holds the defaults
    return _read(doc.get("grid", {}), "grid", ScenarioConfig, _GRID, game=hedonic, beliefs=beliefs)


def _plain(value, name):
    """One field as a plain Python value YAML can write (numpy scalars and
    arrays included), a component as its family and its class's fields."""
    families = _COMPONENTS.get(name)
    if families is None:
        return np.asarray(value).tolist()
    family = next((f for f, cls in families.items() if isinstance(value, cls)), None)
    if family is None:
        kind = "income" if name == "income" else "benefit"
        raise TypeError(f"unsupported {kind} spec {type(value).__name__}")
    return {"family": family, **_write(value, _keys(families[family]))}


def _write(owner, keys) -> dict:
    """The mapping of ``owner``'s fields under ``keys``, a two-field key as a list."""
    doc = {}
    for key, names in keys.items():
        values = [_plain(getattr(owner, name), name) for name in names]
        doc[key] = values if len(names) == 2 else values[0]
    return doc


def dump_scenario(config: ScenarioConfig) -> str:
    """Serialise a config back to YAML; parse_scenario round-trips it."""
    doc = {"schema_version": SCHEMA_VERSION, "game": _write(config.game, _GAME)}
    if config.beliefs is not None:
        doc["beliefs"] = _write(config.beliefs, _BELIEFS)
    doc["grid"] = _write(config, _GRID)
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
    point = "{:.2f},{:.2f}".format  # (gamma * size, (1 - sigma) * size)
    sigma = region.axis
    curve = list(map(point, (boundary_curve(sigma) * size).tolist(),
                     ((1.0 - sigma) * size).tolist()))
    shade = " ".join([point(0.0, size), *curve, point(0.0, 0.0)])
    line = " ".join(curve)
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
_BOOL_TEXT = np.frombuffer(b"falsetrue\0", (np.void, 5))
del _DIGITS, _n


def _slots(values: np.ndarray, machine: bool) -> np.ndarray:
    """uint8 matrix of each float's text, NUL-padded: ``_format_value(v)``,
    or with ``machine`` ``json.dumps(_jsonable(v))``, one row per value.

    For finite ``|v| < 1e7`` the product ``x = |v| * 1e6`` is off the exact
    one by at most ``x * 2**-53``. Where ``x`` lies more than ``x * 2**-50``
    from a rounding tie, ``rint(x)`` is therefore the rounding that ``%.6f``
    prints, and the digits are made here. JSON drops the trailing fraction
    zeros, which is ``repr(round(v, 6))`` for 0 and for rounded magnitudes
    of at least 1e-4. Every other value goes through the per-value rule."""
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
    return slots


def _row_blocks(columns: dict, machine: bool, seps: list, row_sep="", head="", tail=""):
    """``head``, the C-order rows of ``columns`` (broadcast to one shape) a block
    at a time, then ``tail``, as bytes: each row's float or bool cells between
    ``seps`` (one before each, one after), led by ``row_sep``. A block runs
    along the first axis whose trailing rows fit in ``_SWEEP_BLOCK_ROWS``, cut
    into as few near-equal blocks as that allows. In it a column is spelled
    only along its axes of nonzero stride, and its texts go into the rows, a
    line of the separators, as one strided copy."""
    yield head.encode()
    arrays = np.broadcast_arrays(*map(np.atleast_1d, columns.values()))
    shape = arrays[0].shape
    axis = next(a for a in range(len(shape)) if math.prod(shape[a + 1:]) <= _SWEEP_BLOCK_ROWS)
    step = _SWEEP_BLOCK_ROWS // max(math.prod(shape[axis + 1:]), 1)
    count = max(-(-shape[axis] // step), 1)  # blocks of near-equal rows, the larger first
    bounds = [-(-k * shape[axis] // count) for k in range(count + 1)]
    seps = [s.encode() for s in [row_sep + seps[0], *seps[1:]]]
    cuts = [lead + (slice(lo, hi),) for lead in np.ndindex(shape[:axis])
            for lo, hi in zip(bounds, bounds[1:])] if arrays[0].size else []
    for n, cut in enumerate(cuts):
        cells = [a[cut] for a in arrays]
        texts = []
        for c in cells:
            c = c[tuple(slice(None) if stride else slice(1) for stride in c.strides)]
            if c.dtype == bool:
                texts.append(_BOOL_TEXT[c.view(np.uint8)])
            else:
                slots = _slots(np.ravel(c.astype(np.float64, copy=False)), machine)
                texts.append(slots.view((np.void, slots.shape[1])).reshape(c.shape))
        # the separators, NUL where the texts go
        line = b"".join(s + bytes(t.itemsize) for s, t in zip(seps, texts)) + seps[-1]
        rows = cells[0].shape
        block = np.empty((math.prod(rows), len(line)), np.uint8)
        block[...] = np.frombuffer(line, np.uint8)
        strides = [len(line) * math.prod(rows[i + 1:]) for i in range(len(rows))]
        at = 0
        for s, t in zip(seps, texts):
            at += len(s)
            np.ndarray(rows, t.dtype, block, at, strides)[...] = t
            at += t.itemsize
        if n == 0:
            block[0, :len(row_sep)] = 0
        yield block[block != 0]
    yield tail.encode()


def sweep_blocks(columns: dict, fmt: str = "csv"):
    """The text of :func:`sweep_csv` (``csv``) or :func:`sweep_machine`
    (``machine``) as an iterable of bytes-like blocks, made one at a time as
    it is read. That the columns broadcast together and the format are
    checked here, before any block is made."""
    np.broadcast_shapes(*map(np.shape, columns.values()))
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
    """CSV of float or bool columns that broadcast to one shape, one row per
    entry in C order, columns in mapping order."""
    return b"".join(sweep_blocks(columns, "csv")).decode()


def sweep_machine(columns: dict) -> str:
    """JSON list of one object per row of float or bool columns that
    broadcast to one shape, rows in C order."""
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
