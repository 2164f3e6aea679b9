"""Scenario parsing, validation, and result emission."""

import hashlib
import itertools
import json
import re
import textwrap
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from middleman import (
    AdditiveFeesIncome,
    BeliefSystem,
    CobbDouglas,
    HedonicGame,
    Linear,
    MultiplicativeIncome,
    RegionMap,
    ScenarioConfig,
    ScenarioError,
    TabulatedBenefit,
    TabulatedIncome,
    boundary_curve,
    dump_scenario,
    emit_results,
    full_exploitation_verdict,
    parse_scenario,
    region_sample,
)
from middleman import cli
from middleman import scenario as scenario_module
from middleman.game import FieldError
from middleman.scenario import region_csv, region_svg, report_machine, sweep_csv, sweep_machine
from _support import first_difference, reference_sweep_csv, reference_sweep_machine

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"

COBB_DOUGLAS_DOC = """
schema_version: 1
game:
  f1: {family: cobb_douglas, alpha: 1.0, beta: 1.0}
  f2: {family: cobb_douglas, alpha: 1.0, beta: 1.0}
  income:
    family: multiplicative
    activity: {family: cobb_douglas, alpha: 1.0, beta: 1.0}
beliefs:
  gamma: 0.5
  loyalty: [0.5, 0.5]
"""


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_product_benefit_scenario():
    config = parse_scenario(COBB_DOUGLAS_DOC)
    assert config.game.f1 == CobbDouglas(1.0, 1.0)
    assert config.beliefs == BeliefSystem(0.0, 0.5, 0.5, 0.5)
    assert full_exploitation_verdict(config.game, config.beliefs).full_exploitation


def test_parse_applies_documented_defaults():
    config = parse_scenario(COBB_DOUGLAS_DOC)
    assert config.steps == 100
    assert config.eps == 1e-9
    assert config.beliefs.lambda_ == 0.0


def test_improper_beliefs_rejected():
    doc = COBB_DOUGLAS_DOC.replace("gamma: 0.5", "gamma: 0.5\n  lambda: 0.8")
    with pytest.raises(ScenarioError, match="properness violated"):
        parse_scenario(doc)


def test_empty_document_rejected():
    with pytest.raises(ScenarioError, match="missing game"):
        parse_scenario("")


def test_unknown_top_level_field_rejected():
    with pytest.raises(ScenarioError, match="unknown field"):
        parse_scenario(COBB_DOUGLAS_DOC + "\nextra: 1\n")


def test_unknown_family_rejected():
    doc = COBB_DOUGLAS_DOC.replace("cobb_douglas, alpha: 1.0, beta: 1.0}", "quadratic}", 1)
    with pytest.raises(ScenarioError, match="game.f1.family"):
        parse_scenario(doc)


def test_nonpositive_exponent_names_the_field():
    doc = COBB_DOUGLAS_DOC.replace("alpha: 1.0", "alpha: 0.0", 1)
    with pytest.raises(ScenarioError, match="game.f1.alpha"):
        parse_scenario(doc)


TABLE_4D = "[[[[0, 0], [0, 1]], [[0, 1], [1, 1]]], [[[0, 1], [1, 1]], [[1, 1], [1, {x}]]]]"
TABULATED_INCOME = (
    "    family: multiplicative\n"
    "    activity: {family: cobb_douglas, alpha: 1.0, beta: 1.0}\n"
)


@pytest.mark.parametrize(
    "old,new,field",
    [
        ("{family: cobb_douglas, alpha: 1.0, beta: 1.0}",
         "{family: linear, w1: .nan, w2: 0.5}", "game.f1.w1"),
        ("{family: cobb_douglas, alpha: 1.0, beta: 1.0}",
         "{family: linear, w1: 1" + "0" * 400 + ", w2: 0.5}", "game.f1.w1"),
        ("{family: cobb_douglas, alpha: 1.0, beta: 1.0}",
         "{family: tabulated, values: [[0.0, 0.5], [0.5, 1" + "0" * 400 + "]]}",
         "game.f1.values"),
        (TABULATED_INCOME,
         "    family: tabulated\n"
         f"    values: {TABLE_4D.format(x='1' + '0' * 400)}\n"
         "    fee_bounds: [1.0, 1.0]\n", "game.income.values"),
        ("alpha: 1.0", "alpha: .nan", "game.f1.alpha"),
        ("beta: 1.0", "beta: .inf", "game.f1.beta"),
        ("gamma: 0.5", "gamma: .nan", "beliefs.gamma"),
        ("schema_version: 1", "schema_version: 1\ngrid: {eps: .nan}", "grid.eps"),
        ("schema_version: 1", "schema_version: 1\ngrid: {s_lo: -.inf}", "grid.s_lo"),
        ("{family: cobb_douglas, alpha: 1.0, beta: 1.0}",
         "{family: tabulated, values: [[0.0, 0.5], [0.5, .nan]]}", "game.f1.values"),
        (TABULATED_INCOME,
         "    family: tabulated\n"
         f"    values: {TABLE_4D.format(x='.nan')}\n"
         "    fee_bounds: [1.0, 1.0]\n", "game.income.values"),
        (TABULATED_INCOME,
         "    family: tabulated\n"
         f"    values: {TABLE_4D.format(x='1')}\n"
         "    fee_bounds: [.inf, 1.0]\n", "game.income.fee_bounds"),
        ("loyalty: [0.5, 0.5]", "loyalty: [.nan, 0.5]", "beliefs.loyalty"),
        ("loyalty: [0.5, 0.5]", "loyalty: [0.5, -.inf]", "beliefs.loyalty"),
    ],
    ids=["linear-nan", "linear-overflow", "benefit-table-overflow", "income-table-overflow",
         "alpha-nan", "beta-inf", "gamma-nan", "eps-nan", "s_lo-inf", "benefit-table-nan",
         "income-table-nan", "fee-bound-inf", "loyalty-nan", "loyalty-inf"],
)
def test_nonfinite_number_names_the_field(old, new, field):
    doc = COBB_DOUGLAS_DOC.replace(old, new, 1)
    assert doc != COBB_DOUGLAS_DOC
    with pytest.raises(ScenarioError, match=rf"{field}\b.*finite"):
        parse_scenario(doc)


@pytest.mark.parametrize(
    "bounds,problem",
    [("1.0", "expected a pair"), ("[1.0]", "expected a pair"), ("[0.0, 1.0]", "must be > 0"),
     ("[yes, 1.0]", "expected a number")],
)
def test_tabulated_fee_bounds_errors_name_the_field(bounds, problem):
    doc = COBB_DOUGLAS_DOC.replace(
        TABULATED_INCOME,
        "    family: tabulated\n"
        f"    values: {TABLE_4D.format(x='1')}\n"
        f"    fee_bounds: {bounds}\n",
        1,
    )
    with pytest.raises(ScenarioError, match=f"^game.income.fee_bounds: {problem}"):
        parse_scenario(doc)


@pytest.mark.parametrize(
    "values",
    ["[[1, 2], [3]]", "abc", "{a: 1}", "[['0', '0.5'], ['1', '1e0']]", "[[0, 0.5], [true, 1]]",
     "[['0', '0.5'], [true, '1e0']]"],
    # strings and booleans are not numbers, even where float() would read them
    ids=["ragged", "non-numeric", "mapping", "strings", "booleans", "strings-and-booleans"],
)
@pytest.mark.parametrize("section", ["benefit", "income"])
def test_unconvertible_table_names_the_field(section, values):
    if section == "benefit":
        old = "{family: cobb_douglas, alpha: 1.0, beta: 1.0}"
        new, field = f"{{family: tabulated, values: {values}}}", "game.f1.values"
    else:
        old = TABULATED_INCOME
        new = f"    family: tabulated\n    values: {values}\n    fee_bounds: [1.0, 1.0]\n"
        field = "game.income.values"
    doc = COBB_DOUGLAS_DOC.replace(old, new, 1)
    assert doc != COBB_DOUGLAS_DOC
    with pytest.raises(ScenarioError, match=f"^{field}: must be a rectangular table of numbers$"):
        parse_scenario(doc)


@pytest.mark.parametrize("doc,text", [
    ("game: {f1: {family: nope}}", "game.f1.family: unknown family 'nope'"),
    (COBB_DOUGLAS_DOC.replace("  gamma: 0.5\n", "  lambda: x\n  gamma: y\n"),
     "beliefs.lambda: expected a number"),
], ids=["game", "beliefs"])
def test_first_of_two_errors_in_key_order(doc, text):
    # each key is read, a component through all of its own keys, before the next
    with pytest.raises(ScenarioError, match=f"^{re.escape(text)}$"):
        parse_scenario(doc)


def test_missing_loyalty_names_the_field():
    doc = COBB_DOUGLAS_DOC.replace("  loyalty: [0.5, 0.5]\n", "")
    with pytest.raises(ScenarioError, match="beliefs.loyalty"):
        parse_scenario(doc)


def test_bad_schema_version_rejected():
    # true and 1.0 compare equal to 1 but are not the integer 1
    for version in ("2", "true", "1.0", "'1'"):
        doc = COBB_DOUGLAS_DOC.replace("schema_version: 1", f"schema_version: {version}")
        with pytest.raises(ScenarioError, match="^schema_version: unsupported value"):
            parse_scenario(doc)


def test_malformed_yaml_reports_location():
    with pytest.raises(ScenarioError, match=r"line \d+"):
        parse_scenario("game: [unclosed\nbeliefs: {")


def test_merge_keys_are_not_duplicate_keys():
    # a key merged in from an anchor may be overridden, and only a key given
    # twice in the mapping itself is an error
    doc = COBB_DOUGLAS_DOC.replace(
        "  f2: {family: cobb_douglas, alpha: 1.0, beta: 1.0}",
        "  f2: {<<: *f1, beta: 1.0}",
    ).replace("  f1: {", "  f1: &f1 {")
    assert parse_scenario(doc) == parse_scenario(COBB_DOUGLAS_DOC)
    with pytest.raises(ScenarioError, match="found duplicate key 'beta'"):
        parse_scenario(doc.replace("*f1, beta: 1.0}", "*f1, beta: 1.0, beta: 2.0}"))


def test_grid_section_validated():
    # the ranges are ScenarioConfig's, reported at grid.<field>
    for grid, problem in (
        ("{steps: 1}", "grid.steps: must be at least 2"),
        ("{s_lo: 1.0}", "grid.s_lo: must lie in [0, 1)"),
        ("{s_lo: -0.5}", "grid.s_lo: must lie in [0, 1)"),
        ("{eps: -1}", "grid.eps: must be finite and nonnegative, got -1"),
        ("{steps: true}", "grid.steps: expected an integer"),
        ("{eps: '0.1'}", "grid.eps: expected a number"),
        ("{eps: .nan}", "grid.eps: must be finite"),
    ):
        with pytest.raises(ScenarioError, match=f"^{re.escape(problem)}$"):
            parse_scenario(COBB_DOUGLAS_DOC + f"\ngrid: {grid}\n")


# each grid setting the parser rejects, and the error ScenarioConfig gives
BAD_GRID_SETTINGS = [
    ("steps", True, TypeError, "steps must be an integer"),
    ("steps", 2.5, TypeError, "steps must be an integer"),
    ("steps", 1, FieldError, "steps must be at least 2"),
    ("steps", -3, FieldError, "steps must be at least 2"),
    ("eps", -1.0, FieldError, "eps must be finite and nonnegative, got -1"),
    ("eps", float("nan"), FieldError, "eps must be finite and nonnegative, got nan"),
    ("eps", float("inf"), FieldError, "eps must be finite and nonnegative, got inf"),
    ("eps", "0.1", FieldError, "eps must be a number"),
    ("s_lo", -0.5, FieldError, "s_lo must lie in [0, 1)"),
    ("s_lo", 1.0, FieldError, "s_lo must lie in [0, 1)"),
    ("s_lo", float("nan"), FieldError, "s_lo must lie in [0, 1)"),
]


@pytest.mark.parametrize("field,value,error,text", BAD_GRID_SETTINGS,
                         ids=[f"{f}={v!r}" for f, v, _, _ in BAD_GRID_SETTINGS])
def test_config_rejects_each_grid_setting_the_parser_rejects(field, value, error, text):
    game = parse_scenario(COBB_DOUGLAS_DOC).game
    with pytest.raises(error, match=f"^{re.escape(text)}$") as info:
        ScenarioConfig(game, **{field: value})
    if error is FieldError:
        assert info.value.field == field
    with pytest.raises(ScenarioError, match=f"^grid\\.{field}: "):
        parse_scenario(COBB_DOUGLAS_DOC + yaml.safe_dump({"grid": {field: value}}))


@pytest.mark.parametrize("field,value,text", [
    ("game", "x", "game must be a HedonicGame"),
    ("game", None, "game must be a HedonicGame"),
    ("beliefs", "nope", "beliefs must be a BeliefSystem or None"),
    ("beliefs", {"gamma": 0.5}, "beliefs must be a BeliefSystem or None"),
    ("beliefs", BeliefSystem(0.0, np.array([0.1, 0.2]), 0.5, 0.5),
     "beliefs must hold one number per field"),
], ids=repr)
def test_config_rejects_sections_of_the_wrong_type(field, value, text):
    # each would construct and then fail in dump_scenario, which writes one
    # number per field
    sections = {"game": parse_scenario(COBB_DOUGLAS_DOC).game, field: value}
    with pytest.raises(FieldError, match=f"^{re.escape(text)}$") as info:
        ScenarioConfig(**sections)
    assert info.value.field == field


def test_unknown_output_rejected():
    # no command reads an output list, so schema 1 has none
    doc = COBB_DOUGLAS_DOC + "\noutputs: [verdict]\n"
    with pytest.raises(ScenarioError, match="^outputs: unknown field$"):
        parse_scenario(doc)


# ---------------------------------------------------------------------------
# round trip
# ---------------------------------------------------------------------------


def round_trip(config):
    return parse_scenario(dump_scenario(config))


def test_round_trip_parametric_config():
    config = parse_scenario(COBB_DOUGLAS_DOC)
    assert round_trip(config) == config


def test_round_trip_without_beliefs():
    half = Linear(0.5, 0.5)
    config = ScenarioConfig(game=HedonicGame(half, half, MultiplicativeIncome(half)))
    assert round_trip(config) == config


@pytest.mark.parametrize("field,value", [
    ("steps", 2), ("steps", np.int64(7)), ("eps", 0), ("eps", 1e-12), ("s_lo", 0.0),
    ("s_lo", 0.5),
], ids=repr)
def test_round_trip_grid_settings(field, value):
    config = ScenarioConfig(parse_scenario(COBB_DOUGLAS_DOC).game, **{field: value})
    assert round_trip(config) == config


def test_round_trip_tabulated_benefit():
    values = np.array([[0.0, 0.5], [0.5, 1.25]])
    game = HedonicGame(
        TabulatedBenefit(values), Linear(0.2, 0.8), MultiplicativeIncome(Linear(1.0, 1.0))
    )
    config = ScenarioConfig(game=game, steps=40, eps=1e-6)
    assert round_trip(config) == config


# Finite numbers on and around the edges of every range, in and out of it.
NUMBERS = st.one_of(
    st.sampled_from([0.0, -0.0, 0.25, 0.5, 0.75, 1.0, -1.0, 5e-324, 1.0000000000000002]),
    st.floats(-2.0, 2.0),
    st.floats(allow_nan=False, allow_infinity=False),
)
# Values inside each field's own range; lambda + gamma may still exceed 1.
IN_RANGE = {
    "alpha": st.floats(0.1, 3.0), "beta": st.floats(0.1, 3.0),
    "w1": st.floats(0.0, 2.0), "w2": st.floats(0.0, 2.0),
    "tag": st.sampled_from(["benchmark", "externality"]),
    "lambda": st.floats(0.0, 1.0), "gamma": st.floats(0.0, 1.0),
    "loyalty1": st.floats(0.0, 1.0), "loyalty2": st.floats(0.0, 1.0),
}
BELIEF_PATHS = {"lambda_": "beliefs.lambda", "gamma": "beliefs.gamma",
                "loyalty1": "beliefs.loyalty", "loyalty2": "beliefs.loyalty", None: "beliefs"}


@st.composite
def scenario_values(draw):
    """In-range values, except that each field takes, about one time in
    eight, any number (any string for ``tag``)."""
    return {
        name: draw((st.text(max_size=12) if name == "tag" else NUMBERS)
                   if draw(st.integers(0, 7)) == 0 else in_range)
        for name, in_range in IN_RANGE.items()
    }


def build_directly(v, income, with_beliefs, grid):
    """The config the constructors build, in the parser's order, or the
    scenario path of the first field they reject."""
    try:
        f1 = CobbDouglas(v["alpha"], v["beta"])
    except ValueError as exc:
        return None, f"game.f1.{exc.field}"
    try:
        f2 = Linear(v["w1"], v["w2"])
    except ValueError as exc:
        return None, f"game.f2.{exc.field}"
    try:
        game = HedonicGame(f1, f2, income, v["tag"])
    except ValueError:
        return None, "game.tag"
    beliefs = None
    if with_beliefs:
        try:
            beliefs = BeliefSystem(v["lambda"], v["gamma"], v["loyalty1"], v["loyalty2"])
        except ValueError as exc:
            return None, BELIEF_PATHS[exc.field]
    try:
        return ScenarioConfig(game, beliefs, *grid), None
    except ValueError as exc:
        return None, f"grid.{exc.field}"


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    v=scenario_values(),
    multiplicative=st.booleans(),
    with_beliefs=st.booleans(),
    # steps, eps and s_lo, each in range about three times in four
    grid=st.tuples(
        st.one_of(*[st.integers(2, 10**6)] * 3, st.integers(-3, 1)),
        st.one_of(*[st.floats(0.0, 1.0)] * 3, NUMBERS),
        st.one_of(*[st.floats(0.0, 1.0, exclude_max=True)] * 3, NUMBERS),
    ),
)
def test_parser_accepts_exactly_what_the_constructors_accept(v, multiplicative, with_beliefs, grid):
    income = MultiplicativeIncome(Linear(0.5, 0.5)) if multiplicative else AdditiveFeesIncome()
    doc = {
        "game": {
            "f1": {"family": "cobb_douglas", "alpha": v["alpha"], "beta": v["beta"]},
            "f2": {"family": "linear", "w1": v["w1"], "w2": v["w2"]},
            "income": ({"family": "multiplicative",
                        "activity": {"family": "linear", "w1": 0.5, "w2": 0.5}}
                       if multiplicative else {"family": "additive_fees"}),
            "tag": v["tag"],
        },
        "grid": dict(zip(("steps", "eps", "s_lo"), grid)),
    }
    if with_beliefs:
        doc["beliefs"] = {"lambda": v["lambda"], "gamma": v["gamma"],
                          "loyalty": [v["loyalty1"], v["loyalty2"]]}
    expected, path = build_directly(v, income, with_beliefs, grid)
    if path is not None:
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario(yaml.safe_dump(doc))
        assert str(excinfo.value).startswith(f"{path}: ")
        return
    config = parse_scenario(yaml.safe_dump(doc))
    assert config == expected
    assert round_trip(config) == config


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def worked_report():
    return {
        "full_exploitation": True,
        "delta": 1.0,
        "rhs": 0.5,
        "gamma": 0.5,
        "lambda": 0.0,
        "loyalty_fees": (0.5, 0.5),
        "full_extraction_fees": (1.0, 1.0),
    }


def test_verdict_report_six_decimal_text():
    text = emit_results(worked_report(), "text")
    assert "delta=1.000000\n" in text
    assert "rhs=0.500000\n" in text
    assert "full_exploitation=true\n" in text
    assert "loyalty_fees=0.500000,0.500000\n" in text


def test_reports_spell_numpy_scalars_as_the_python_values_they_hold():
    # 0.0027385 rounds to 0.002739 by Python's round, to 0.002738 by numpy's
    plain = {"check": "x", "verdict": True, "delta": 0.0027385, "rhs": 0.5, "steps": 3,
             "fees": (0.25, 1.0)}
    numpy = {"check": "x", "verdict": np.bool_(True), "delta": np.float64(0.0027385),
             "rhs": np.float32(0.5), "steps": np.int64(3),
             "fees": (np.float64(0.25), np.float32(1.0))}
    for fmt in ("text", "machine"):
        assert emit_results(numpy, fmt) == emit_results(plain, fmt)


def test_verdict_report_machine_round_trips_json():
    payload = json.loads(emit_results(worked_report(), "machine"))
    assert payload["full_exploitation"] is True
    assert payload["delta"] == 1.0
    assert payload["loyalty_fees"] == [0.5, 0.5]


def test_region_csv_shape():
    text = emit_results(region_sample(2), "csv")
    lines = text.strip().split("\n")
    assert lines[0] == "gamma,sigma,full_exploitation"
    assert len(lines) == 10
    assert lines[1] == "0.000000,0.000000,true"


def test_emission_deterministic():
    samples = region_sample(5)
    assert emit_results(samples, "csv") == emit_results(samples, "csv")
    assert emit_results(worked_report(), "text") == emit_results(worked_report(), "text")
    assert region_svg(samples) == region_svg(samples)


def test_region_svg_contains_shade_and_boundary():
    text = emit_results(region_sample(4), "svg")
    assert text.startswith("<svg")
    assert "<polygon" in text and "<polyline" in text


def reference_region_svg_points(axis):
    """The region SVG's polygon points, spelled a point at a time from the
    scalar boundary curve."""
    def pt(gamma, sigma):
        return f"{gamma * 500:.2f},{(1.0 - sigma) * 500:.2f}"

    curve = [pt(boundary_curve(s), s) for s in axis.tolist()]
    return " ".join([pt(0.0, 0.0), *curve, pt(0.0, 1.0)])


@pytest.mark.parametrize("axis", [region_sample(n).axis for n in (2, 7, 333, 1000)]
                         + [np.sort(np.random.default_rng(3).random(500)),
                            np.array([0.0, 1e-300, 0.5 - 2**-54, 0.5, 1 - 2**-53, 1.0])],
                         ids=["2", "7", "333", "1000", "random", "edges"])
def test_region_svg_matches_the_per_point_reference(axis):
    points = re.search(r'<polygon points="([^"]*)"', region_svg(RegionMap(axis))).group(1)
    assert points == reference_region_svg_points(axis)


def test_sweep_csv_layout():
    columns = {
        "gamma": [0.0, 0.99],
        "delta": [1.0, 1.0],
        "rhs": [0.0, 49.5],
        "full_exploitation": [True, False],
    }
    text = sweep_csv(columns)
    lines = text.strip().split("\n")
    assert lines[0] == "gamma,delta,rhs,full_exploitation"
    assert lines[1] == "0.000000,1.000000,0.000000,true"
    assert lines[2].endswith(",false")


def test_sweep_float_spellings():
    # the spellings any faster formatting of the map writers must keep: an
    # exact tie (0.0078125) rounds half to even, 999999.9999996 carries, and
    # -9999999.9999996 carries to eight integer digits
    values = [5e-06, -1e-07, 1e-07, 0.5, 123456.7654321, float("nan"), float("inf"),
              0.0078125, 1e-4, 9.9e-05, 999999.9999996, 1e7, -9999999.9999996]
    csv_rows = sweep_csv({"x": values}).split("\n")[1:-1]
    assert csv_rows == [
        "0.000005", "-0.000000", "0.000000", "0.500000", "123456.765432", "nan", "inf",
        "0.007812", "0.000100", "0.000099", "1000000.000000", "10000000.000000",
        "-10000000.000000",
    ]
    machine = sweep_machine({"x": values})
    assert machine == (
        '[{"x": 5e-06}, {"x": -0.0}, {"x": 0.0}, {"x": 0.5}, {"x": 123456.765432}, '
        '{"x": NaN}, {"x": Infinity}, {"x": 0.007812}, {"x": 0.0001}, {"x": 9.9e-05}, '
        '{"x": 1000000.0}, {"x": 10000000.0}, {"x": -10000000.0}]\n'
    )


def _near_tie(k, sign):
    # k + 0.5 millionths, as close to a six-decimal rounding tie as a float gets
    return sign * (k + 0.5) / 1e6


_SPELLED_FLOATS = st.one_of(
    st.floats(),  # NaN, infinities, signed zeros, subnormals, huge values
    st.floats(-1e8, 1e8),
    st.builds(_near_tie, st.integers(0, 10**13), st.sampled_from([1, -1])),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(_SPELLED_FLOATS, min_size=1, max_size=40))
def test_sweep_writers_match_per_value_reference(values):
    columns = {"x": values, "positive": [v > 0 for v in values], "neg": [-v for v in values]}
    assert sweep_csv(columns) == reference_sweep_csv(columns)
    assert sweep_machine(columns) == reference_sweep_machine(columns)


# One value per reachable XOR row of the digit kernel: every integer width
# with both signs and 1 to 6 JSON decimals kept (width 8 only by the carry of
# 9999999.9999996 to 10000000), zero of both signs, and the JSON cut-off at
# 99 and 100 units of 1e-6 (``5e-06`` style below it, fixed digits from it).
_BOUNDARY_VALUES = [
    float(f"{sign}{'9876543'[:width]}.{'123456'[:kept]}")
    for width in range(1, 8) for sign in ("", "-") for kept in range(1, 7)
] + [9999999.9999996, -9999999.9999996, 0.0, -0.0, 99e-6, 100e-6, -99e-6, -100e-6]


@pytest.mark.parametrize("value", _BOUNDARY_VALUES, ids=repr)
def test_sweep_spelling_boundaries(value):
    # alone, and in one block with every other width, sign and decimal count
    for columns in ({"x": [value]}, {"x": [value, *_BOUNDARY_VALUES]}):
        assert sweep_csv(columns) == reference_sweep_csv(columns)
        assert sweep_machine(columns) == reference_sweep_machine(columns)


@pytest.mark.parametrize(
    "value", [1e7, 1e300, -1e22, float("nan"), float("inf"), -0.0, 5e-06, _near_tie(123, -1)],
    ids=repr,
)
def test_slow_path_values_where_blocks_meet(monkeypatch, value):
    # the per-value rule's text in the first and last row of a 7-row block and
    # of the next one, widening only the blocks that hold it
    monkeypatch.setattr(scenario_module, "_SWEEP_BLOCK_ROWS", 7)
    x = np.linspace(-150.0, 150.0, 20) + 1e-3
    x[[0, 6, 7, 13]] = value
    columns = {"x": x, "up": x > 0, "y": x[::-1].copy()}
    for fmt, writer, reference in (("csv", sweep_csv, reference_sweep_csv),
                                   ("machine", sweep_machine, reference_sweep_machine)):
        text = reference(columns)
        assert writer(columns) == text
        assert b"".join(scenario_module.sweep_blocks(columns, fmt)).decode() == text


# Awkward floats for a column: repeats, both zeros, NaN, infinities and
# six-decimal near-ties of both signs, which the blocks spell entry by entry.
_HARD_FLOATS = np.array([0.5, 0.5, -0.0, 0.0, -0.0, np.nan, np.inf, -np.inf, 1e7, 5e-06,
                         _near_tie(123, 1), _near_tie(123, -1), _near_tie(10**9, 1), 0.1, 0.1])


def _mesh_columns(*sizes):
    """Columns on an open mesh of ``sizes``: each axis (hard floats first),
    one full-shape float column, a float column broadcast from the last
    axis, a bool column broadcast from the first, and a full bool column."""
    rng = np.random.default_rng(len(sizes) * 100 + sum(sizes))
    axes = [np.resize(_HARD_FLOATS, n) * (i + 1) for i, n in enumerate(sizes)]
    mesh = np.meshgrid(*axes, indexing="ij", sparse=True)
    shape = tuple(sizes)
    scale = 10.0 ** rng.integers(0, 9, shape)  # a random count of decimals
    full = np.rint(rng.normal(0.0, 100.0, shape) * scale) / scale
    full.flat[:len(_HARD_FLOATS)] = _HARD_FLOATS[:full.size]
    columns = {f"x{i}": m for i, m in enumerate(mesh)}
    columns.update(full=full, last=np.broadcast_to(np.sqrt(mesh[-1] ** 2 + 1e-3), shape),
                   first=np.broadcast_to(mesh[0] > 0.25, shape), up=full > 0)
    return columns


def _raveled(columns):
    shape = np.broadcast_shapes(*(np.shape(c) for c in columns.values()))
    return {name: np.broadcast_to(c, shape).ravel() for name, c in columns.items()}


@pytest.mark.parametrize("block_rows", [7, scenario_module._SWEEP_BLOCK_ROWS])
@pytest.mark.parametrize("sizes", [(30,), (3, 20), (2, 7), (5, 2, 3), (4, 3, 5), (2, 9, 4)],
                         ids=str)
def test_sweep_writers_on_broadcast_columns_match_the_raveled_reference(monkeypatch, sizes,
                                                                        block_rows):
    # at 7 rows a block is cut inside a leading row, (3, 20), or ends at its
    # edge, (2, 7) and (5, 2, 3); broadcast axes are spelled once a block
    monkeypatch.setattr(scenario_module, "_SWEEP_BLOCK_ROWS", block_rows)
    columns = _mesh_columns(*sizes)
    flat = _raveled(columns)
    for fmt, writer, reference in (("csv", sweep_csv, reference_sweep_csv),
                                   ("machine", sweep_machine, reference_sweep_machine)):
        text = reference(flat)
        assert first_difference(writer(columns), text) is None
        assert first_difference(writer(flat), text) is None
        assert b"".join(scenario_module.sweep_blocks(columns, fmt)).decode() == text


@pytest.mark.parametrize("fmt", ["csv", "machine"])
def test_sweep_blocks_are_near_equal(monkeypatch, fmt):
    # trailing rows just over a block cut each leading row into two blocks
    # of 26 and 25 rows, not one of 50 and one of a single row
    monkeypatch.setattr(scenario_module, "_SWEEP_BLOCK_ROWS", 50)
    columns = _mesh_columns(2, 51)
    head, *blocks, tail = map(bytes, scenario_module.sweep_blocks(columns, fmt))
    assert [b.count(b"\n" if fmt == "csv" else b"{") for b in blocks] == [26, 25, 26, 25]
    reference = reference_sweep_csv if fmt == "csv" else reference_sweep_machine
    text = b"".join([head, *blocks, tail]).decode()
    assert first_difference(text, reference(_raveled(columns))) is None


@pytest.mark.parametrize("block_rows", [1, 7])
def test_sweep_writers_on_flat_columns_with_repeats(monkeypatch, block_rows):
    # no value is shared between rows: each is spelled where it stands
    monkeypatch.setattr(scenario_module, "_SWEEP_BLOCK_ROWS", block_rows)
    x = np.tile(_HARD_FLOATS, 3)
    columns = {"x": x, "neg": -x, "nan": x != x, "y": x[::-1]}
    assert sweep_csv(columns) == reference_sweep_csv(columns)
    assert sweep_machine(columns) == reference_sweep_machine(columns)


@pytest.mark.parametrize("fmt", ["csv", "machine"])
def test_sweep_columns_that_do_not_broadcast_are_refused_before_any_block(fmt):
    for columns in ({"a": np.zeros(3), "b": np.zeros(4)},
                    {"a": np.zeros((2, 1)), "b": np.zeros((3, 1))}):
        with pytest.raises(ValueError):
            scenario_module.sweep_blocks(columns, fmt)


def reference_region_csv(region):
    """``region_csv`` spelled a cell at a time."""
    axis = region.axis.tolist()
    cells = (
        f"{g:.6f},{s:.6f},{'true' if v else 'false'}\n"
        for g, row in zip(axis, region.full_exploitation.tolist())
        for s, v in zip(axis, row)
    )
    return "gamma,sigma,full_exploitation\n" + "".join(cells)


@pytest.mark.parametrize("resolution", [2, 7, 100, 333])
def test_region_csv_matches_per_cell_reference(resolution):
    region = region_sample(resolution)
    assert first_difference(region_csv(region), reference_region_csv(region)) is None


_CALLER_LATTICES = {
    "eye": lambda n, rng: np.eye(n, dtype=bool),
    "checkerboard": lambda n, rng: np.indices((n, n)).sum(axis=0) % 2 == 1,
    "random": lambda n, rng: rng.random((n, n)) < 0.5,
    "all-true": lambda n, rng: np.ones((n, n), bool),
    "all-false": lambda n, rng: np.zeros((n, n), bool),
}


@pytest.mark.parametrize("block_rows", [1, 20, 64])
@pytest.mark.parametrize("axis", [np.linspace(0.0, 1.0, 9), np.array([-2.5, 0.0, 1e-7, 31.0, 1e7])],
                         ids=["unit", "mixed-widths"])
@pytest.mark.parametrize("lattice", list(_CALLER_LATTICES))
def test_region_csv_of_a_caller_lattice(monkeypatch, lattice, axis, block_rows):
    # rows whose verdicts change anywhere, in groups of one line up to
    # several rows; labels of several widths, one spelled by the per-value
    # rule, leave NULs to drop
    monkeypatch.setattr(scenario_module, "_SWEEP_BLOCK_ROWS", block_rows)
    verdicts = _CALLER_LATTICES[lattice](len(axis), np.random.default_rng(7))
    region = RegionMap(axis, verdicts)
    assert first_difference(region_csv(region), reference_region_csv(region)) is None


def test_region_csv_of_an_empty_axis_is_its_header():
    assert region_csv(RegionMap(np.array([]))) == "gamma,sigma,full_exploitation\n"


def test_emit_rejects_mismatched_formats():
    with pytest.raises(ValueError):
        emit_results(worked_report(), "csv")
    with pytest.raises(ValueError):
        emit_results(region_sample(2), "text")
    with pytest.raises(TypeError):
        emit_results(42, "text")


def test_block_emitters_check_before_any_block():
    # the format is refused on the call, not on the first block read
    with pytest.raises(ValueError):
        scenario_module.emit_blocks(region_sample(2), "machine")
    with pytest.raises(ValueError):
        scenario_module.sweep_blocks({"gamma": np.zeros(2)}, "svg")
    with pytest.raises(TypeError):
        scenario_module.emit_blocks(42, "text")


def test_region_map_holds_a_caller_lattice():
    axis = np.array([0.0, 0.5, 1.0])
    verdicts = np.eye(3, dtype=bool)
    region = RegionMap(axis, verdicts)
    assert region.full_exploitation is verdicts
    assert not verdicts.flags.writeable
    lines = region_csv(region).splitlines()[1:]
    assert [line.endswith(",true") for line in lines] == verdicts.ravel().tolist()
    # without one, the map holds the benchmark inequality's
    assert np.array_equal(RegionMap(axis.copy()).full_exploitation,
                          region_sample(2).full_exploitation)


def test_report_machine_sorted_and_stable():
    a = report_machine({"b": 1.0, "a": 2.0})
    b = report_machine({"a": 2.0, "b": 1.0})
    assert a == b


# ---------------------------------------------------------------------------
# component families
# ---------------------------------------------------------------------------

# One valid spec per family of each component kind, fields in constructor
# declaration order; each kind sits at every scenario path that reads it.
BENEFIT_SPECS = {
    "cobb_douglas": {"alpha": 1.0, "beta": 2.0},
    "linear": {"w1": 0.5, "w2": 0.25},
    "tabulated": {"values": [[0.0, 0.5], [0.5, 1.25]]},
}
INCOME_SPECS = {
    "multiplicative": {"activity": {"family": "linear", "w1": 0.5, "w2": 0.5}},
    "additive_fees": {},
    "tabulated": {"values": json.loads(TABLE_4D.format(x="2")), "fee_bounds": [1.0, 2.5]},
}
COMPONENT_PATHS = {"game.f1": BENEFIT_SPECS, "game.f2": BENEFIT_SPECS,
                   "game.income": INCOME_SPECS, "game.income.activity": BENEFIT_SPECS}
COMPONENTS = [(path, family, fields) for path, specs in COMPONENT_PATHS.items()
              for family, fields in specs.items()]
COMPONENT_IDS = [f"{path}-{family}" for path, family, _ in COMPONENTS]


def component_doc(path, spec):
    """A scenario document whose component at ``path`` is ``spec``."""
    half = {"family": "linear", "w1": 0.5, "w2": 0.5}
    doc = {"game": {"f1": dict(half), "f2": dict(half),
                    "income": {"family": "multiplicative", "activity": dict(half)}}}
    *parents, key = path.split(".")
    section = doc
    for name in parents:
        section = section[name]
    section[key] = spec
    return yaml.safe_dump(doc, sort_keys=False)


def component_at(doc, path):
    for name in path.split("."):
        doc = doc[name]
    return doc


@pytest.mark.parametrize(
    "path,family,field",
    [(path, family, field) for path, family, fields in COMPONENTS for field in fields],
)
def test_component_missing_field_names_it(path, family, field):
    fields = {k: v for k, v in COMPONENT_PATHS[path][family].items() if k != field}
    with pytest.raises(ScenarioError, match=rf"^{path}\.{field}: missing required field$"):
        parse_scenario(component_doc(path, {"family": family, **fields}))


@pytest.mark.parametrize("path,family,fields", COMPONENTS, ids=COMPONENT_IDS)
def test_component_extra_key_is_unknown(path, family, fields):
    doc = component_doc(path, {"family": family, **fields, "extra": 1.0})
    with pytest.raises(ScenarioError, match=rf"^{path}\.extra: unknown field$"):
        parse_scenario(doc)


@pytest.mark.parametrize("path", COMPONENT_PATHS)
def test_unhashable_family_exits_2(tmp_path, capsys, path):
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(component_doc(path, {"family": [1]}))
    assert cli.main(["threshold", "--scenario", str(scenario)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {path}.family: unknown family [1]\n"
    assert captured.out == ""


@pytest.mark.parametrize("path,family,fields", COMPONENTS, ids=COMPONENT_IDS)
def test_round_trip_every_family(path, family, fields):
    config = parse_scenario(component_doc(path, {"family": family, **fields}))
    dumped = dump_scenario(config)
    # the family, then its fields in declaration order
    assert list(component_at(yaml.safe_load(dumped), path).items()) == [
        ("family", family), *fields.items()
    ]
    assert parse_scenario(dumped) == config


@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIOS.glob("*.yaml")))
def test_round_trip_shipped_scenario(name):
    config = parse_scenario((SCENARIOS / name).read_text())
    assert round_trip(config) == config


def test_round_trip_numpy_fields():
    # YAML cannot write numpy scalars; the dump holds the numbers they hold
    game = HedonicGame(Linear(np.float64(1), 1), CobbDouglas(np.float32(0.5), np.int64(2)),
                       MultiplicativeIncome(Linear(0.5, np.float64(0.5))))
    beliefs = BeliefSystem(np.float64(0.125), np.float64(0.5), 0.5, np.float64(0.25))
    config = ScenarioConfig(game, beliefs, steps=np.int64(40), eps=np.float64(1e-6),
                            s_lo=np.float64(0.1))
    assert round_trip(config) == config
    plain = ScenarioConfig(
        HedonicGame(Linear(1.0, 1), CobbDouglas(0.5, 2), MultiplicativeIncome(Linear(0.5, 0.5))),
        BeliefSystem(0.125, 0.5, 0.5, 0.25), steps=40, eps=1e-6, s_lo=0.1,
    )
    assert dump_scenario(config) == dump_scenario(plain)


# SHA-256 of dump_scenario output, captured from the hand-written section
# writers: the shipped scenarios, and numpy scalar fields with both tabulated
# families, the externality tag and every grid setting.
DUMP_SHA256 = {
    "benchmark_sigma05.yaml": "d5f6c5e233355462963ae83206e9b076bdf9e03e59f591b5bedb8b70df948f3d",
    "cobb_douglas_loyalty.yaml": "7c2b23c3b9b3012a924c82c9d90046d7c1ebf9d73e1476a9fafaf88893c53067",
    "externality.yaml": "627469c5b6be0e9f1045046f2cbf97db68d2bc8e7d7b315c84c5e67ac658fa33",
    "numpy": "8a3cf6729b19aca40abd62105b990836d04f8e8da1946b7e3a0c8650f33d1071",
}


@pytest.mark.parametrize("name", DUMP_SHA256)
def test_dump_golden_bytes(name):
    if name == "numpy":
        game = HedonicGame(TabulatedBenefit(np.array([[0.0, 0.5], [0.5, 1.25]])),
                           CobbDouglas(np.float32(0.5), np.int64(2)),
                           TabulatedIncome(np.array(json.loads(TABLE_4D.format(x="2")), float),
                                           (np.float64(1.0), 2.5)),
                           tag="externality")
        config = ScenarioConfig(
            game, BeliefSystem(np.float64(0.125), np.float64(0.5), 0.5, np.float64(0.25)),
            steps=np.int64(40), eps=np.float64(1e-6), s_lo=np.float64(0.1))
    else:
        config = parse_scenario((SCENARIOS / name).read_text())
    assert hashlib.sha256(dump_scenario(config).encode()).hexdigest() == DUMP_SHA256[name]


def _docstring_example():
    """The indented YAML block after ``::`` in the scenario module docstring."""
    block = scenario_module.__doc__.split("::\n\n", 1)[1]
    lines = itertools.takewhile(lambda line: not line or line.startswith(" "),
                                block.splitlines())
    return textwrap.dedent("\n".join(lines))


@pytest.mark.parametrize("text", [
    *(pytest.param(text, id=f"README-{i}") for i, text in
      enumerate(re.findall(r"```yaml\n(.*?)```", (ROOT / "README.md").read_text(), re.S))),
    pytest.param(_docstring_example(), id="scenario-docstring"),
])
def test_documented_examples_parse(text):
    config = parse_scenario(text)
    assert config.beliefs is not None
    assert round_trip(config) == config


def test_readme_library_surface_example_runs():
    # the block ends with an expression and, under it, the repr it prints
    (block,) = re.findall(r"## Library surface\n\n```python\n(.*?)```",
                          (ROOT / "README.md").read_text(), re.S)
    *body, last, shown = block.strip().splitlines()
    namespace = {}
    exec("\n".join(body), namespace)
    assert shown == f"# {eval(last, namespace)!r}"
