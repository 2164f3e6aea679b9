"""Scenario parsing, validation, and result emission."""

import json

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
    ScenarioConfig,
    ScenarioError,
    TabulatedBenefit,
    dump_scenario,
    emit_results,
    full_exploitation_verdict,
    parse_scenario,
    region_sample,
)
from middleman.scenario import region_svg, report_machine, sweep_csv

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
    ids=["linear-nan", "linear-overflow", "alpha-nan", "beta-inf", "gamma-nan",
         "eps-nan", "s_lo-inf", "benefit-table-nan", "income-table-nan",
         "fee-bound-inf", "loyalty-nan", "loyalty-inf"],
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
    "values", ["[[1, 2], [3]]", "abc", "{a: 1}"], ids=["ragged", "non-numeric", "mapping"]
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
    with pytest.raises(ScenarioError, match=f"^{field}: "):
        parse_scenario(doc)


def test_missing_loyalty_names_the_field():
    doc = COBB_DOUGLAS_DOC.replace("  loyalty: [0.5, 0.5]\n", "")
    with pytest.raises(ScenarioError, match="beliefs.loyalty"):
        parse_scenario(doc)


def test_bad_schema_version_rejected():
    doc = COBB_DOUGLAS_DOC.replace("schema_version: 1", "schema_version: 2")
    with pytest.raises(ScenarioError, match="schema_version"):
        parse_scenario(doc)


def test_malformed_yaml_reports_location():
    with pytest.raises(ScenarioError, match=r"line \d+"):
        parse_scenario("game: [unclosed\nbeliefs: {")


def test_grid_section_validated():
    doc = COBB_DOUGLAS_DOC + "\ngrid: {steps: 1}\n"
    with pytest.raises(ScenarioError, match="grid.steps"):
        parse_scenario(doc)


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
    return ScenarioConfig(game, beliefs, *grid), None


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    v=scenario_values(),
    multiplicative=st.booleans(),
    with_beliefs=st.booleans(),
    grid=st.tuples(
        st.integers(2, 10**6), st.floats(0.0, 1.0), st.floats(0.0, 1.0, exclude_max=True)
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


def test_emit_rejects_mismatched_formats():
    with pytest.raises(ValueError):
        emit_results(worked_report(), "csv")
    with pytest.raises(ValueError):
        emit_results(region_sample(2), "text")
    with pytest.raises(TypeError):
        emit_results(42, "text")


def test_report_machine_sorted_and_stable():
    a = report_machine({"b": 1.0, "a": 2.0})
    b = report_machine({"a": 2.0, "b": 1.0})
    assert a == b
