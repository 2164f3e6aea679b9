"""End-to-end CLI tests (subprocess, installed entry point semantics)."""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from middleman import activity, cli, full_exploitation_verdict, parse_scenario, region_sample
from middleman import scenario as writers
from middleman.scenario import (
    _SWEEP_BLOCK_ROWS,
    emit_results,
    region_csv,
    region_svg,
    sweep_csv,
    sweep_machine,
)
from _support import first_difference, reference_sweep_csv, reference_sweep_machine

ROOT = Path(__file__).resolve().parents[1]

BENCHMARK_DOC = """
schema_version: 1
game:
  f1: {family: linear, w1: 0.5, w2: 0.5}
  f2: {family: linear, w1: 0.5, w2: 0.5}
  income:
    family: multiplicative
    activity: {family: linear, w1: 0.5, w2: 0.5}
beliefs:
  gamma: 0.5
  loyalty: [0.5, 0.5]
grid:
  steps: 20
"""

IMPROPER_DOC = BENCHMARK_DOC.replace("gamma: 0.5", "gamma: 0.5\n  lambda: 0.8")

# Tabulated income, which no exact path covers: pareto and ambiguity-eq scan
# the payoff lattice and gate the income on slice-size arrays.
TABULATED_DOC = """
schema_version: 1
game:
  f1: {family: linear, w1: 0.5, w2: 0.5}
  f2: {family: linear, w1: 0.5, w2: 0.5}
  income:
    family: tabulated
    values: [[[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.3], [0.3, 1.0]]],
             [[[0.0, 0.3], [0.3, 1.0]], [[0.0, 0.6], [0.6, 2.0]]]]
    fee_bounds: [1.0, 1.0]
beliefs:
  gamma: 0.8
  loyalty: [0.5, 0.5]
"""


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "middleman", *argv],
        capture_output=True,
        text=True,
    )


@pytest.fixture
def scenario(tmp_path):
    path = tmp_path / "benchmark.yaml"
    path.write_text(BENCHMARK_DOC)
    return str(path)


@pytest.fixture
def tabulated_scenario(tmp_path):
    path = tmp_path / "tabulated.yaml"
    path.write_text(TABULATED_DOC)
    return str(path)


@pytest.fixture
def pessimistic_scenario(tmp_path):
    path = tmp_path / "pessimistic.yaml"
    path.write_text(BENCHMARK_DOC.replace("gamma: 0.5", "gamma: 0.8"))
    return str(path)


def test_threshold_verdict_and_exit_code(scenario):
    result = run_cli("threshold", "--scenario", scenario)
    assert result.returncode == 0
    assert "full_exploitation=true" in result.stdout
    assert "delta=1.000000" in result.stdout
    assert "rhs=0.500000" in result.stdout


def test_threshold_output_byte_stable(scenario):
    first = run_cli("threshold", "--scenario", scenario)
    second = run_cli("threshold", "--scenario", scenario)
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


def test_threshold_machine_format(scenario):
    result = run_cli("threshold", "--scenario", scenario, "--format", "machine")
    payload = json.loads(result.stdout)
    assert payload["full_exploitation"] is True
    assert payload["delta"] == 1.0


def test_threshold_assert_flag(pessimistic_scenario):
    plain = run_cli("threshold", "--scenario", pessimistic_scenario)
    assert plain.returncode == 0
    assert "full_exploitation=false" in plain.stdout
    asserted = run_cli("threshold", "--scenario", pessimistic_scenario, "--assert")
    assert asserted.returncode == 1


def test_verify_nash_full_extraction(scenario):
    result = run_cli(
        "verify-nash", "--scenario", scenario, "--profile", "1,1,1,1", "--assert"
    )
    assert result.returncode == 0
    assert "verdict=true" in result.stdout


def test_verify_nash_rejects_underpricing(scenario):
    result = run_cli(
        "verify-nash", "--scenario", scenario, "--profile", "1,1,0.5,0.5", "--assert"
    )
    assert result.returncode == 1
    assert "verdict=false" in result.stdout


def test_dominance_subcommand(scenario):
    result = run_cli("dominance", "--scenario", scenario, "--profile", "1,1,0,0", "--assert")
    assert result.returncode == 0
    assert "verdict_user1=true" in result.stdout
    assert "verdict_user2=true" in result.stdout


def test_pareto_subcommand(scenario):
    result = run_cli("pareto", "--scenario", scenario, "--profile", "1,1,1,1", "--assert")
    assert result.returncode == 0


def test_ambiguity_eq_reports_best_fee_response(pessimistic_scenario):
    beaten = run_cli(
        "ambiguity-eq", "--scenario", pessimistic_scenario, "--profile", "1,1,1,1"
    )
    assert beaten.returncode == 0
    assert "verdict=false" in beaten.stdout
    assert "best_fee_response=0.500000,0.500000" in beaten.stdout

    supported = run_cli(
        "ambiguity-eq", "--scenario", pessimistic_scenario, "--profile", "1,1,0.5,0.5"
    )
    assert "verdict=true" in supported.stdout


def test_region_row_count(tmp_path):
    out = tmp_path / "region.csv"
    result = run_cli("region", "--resolution", "100", "--out", str(out))
    assert result.returncode == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 101 * 101 + 1  # header plus the full lattice


def test_region_svg_output(tmp_path):
    out = tmp_path / "region.svg"
    result = run_cli("region", "--resolution", "10", "--format", "svg", "--out", str(out))
    assert result.returncode == 0
    assert out.read_text().startswith("<svg")


def test_sweep_crosses_once_and_brackets_the_threshold(scenario):
    result = run_cli("sweep", "--scenario", scenario, "--sweep", "gamma=0:0.99:100")
    assert result.returncode == 0
    lines = result.stdout.strip().split("\n")
    assert lines[0] == "gamma,delta,rhs,full_exploitation"
    rows = [line.split(",") for line in lines[1:]]
    verdicts = [row[3] == "true" for row in rows]
    flips = sum(1 for a, b in zip(verdicts, verdicts[1:]) if a != b)
    assert flips == 1
    last_true = max(i for i, v in enumerate(verdicts) if v)
    lo, hi = float(rows[last_true][0]), float(rows[last_true + 1][0])
    assert lo <= 2.0 / 3.0 <= hi


def test_sweep_cartesian_product_order(scenario):
    result = run_cli(
        "sweep",
        "--scenario",
        scenario,
        "--sweep",
        "gamma=0.2:0.4:2",
        "--sweep",
        "loyalty1=0.1:0.3:2",
    )
    lines = result.stdout.strip().split("\n")
    assert lines[0] == "gamma,loyalty1,delta,rhs,full_exploitation"
    leading = [tuple(line.split(",")[:2]) for line in lines[1:]]
    assert leading == [
        ("0.200000", "0.100000"),
        ("0.200000", "0.300000"),
        ("0.400000", "0.100000"),
        ("0.400000", "0.300000"),
    ]


def test_unknown_flag_exits_2(scenario):
    result = run_cli("threshold", "--scenario", scenario, "--bogus")
    assert result.returncode == 2


def test_invalid_scenario_exits_2(tmp_path):
    path = tmp_path / "improper.yaml"
    path.write_text(IMPROPER_DOC)
    result = run_cli("threshold", "--scenario", str(path))
    assert result.returncode == 2
    assert "properness" in result.stderr


def test_missing_beliefs_exits_2(tmp_path):
    doc = "\n".join(
        line for line in BENCHMARK_DOC.splitlines()
        if not line.startswith(("beliefs", "  gamma", "  loyalty"))
    )
    path = tmp_path / "no_beliefs.yaml"
    path.write_text(doc)
    result = run_cli("threshold", "--scenario", str(path))
    assert result.returncode == 2
    assert "beliefs" in result.stderr


def test_bad_profile_exits_2(scenario):
    result = run_cli("verify-nash", "--scenario", scenario, "--profile", "1,1,1")
    assert result.returncode == 2


def test_grid_overrides_change_the_verdict(scenario):
    # a coarse tolerance turns the underpriced profile into an eps-equilibrium
    strict = run_cli("verify-nash", "--scenario", scenario, "--profile", "1,1,0.5,0.5")
    assert "verdict=false" in strict.stdout
    loose = run_cli(
        "verify-nash", "--scenario", scenario, "--profile", "1,1,0.5,0.5",
        "--steps", "10", "--eps", "2.0",
    )
    assert loose.returncode == 0
    assert "verdict=true" in loose.stdout


@pytest.mark.parametrize("eps", ["nan", "inf"])
def test_nonfinite_eps_exits_2(eps):
    # without the check, every comparison against NaN is false and this
    # refuted profile passes
    result = run_cli(
        "verify-nash", "--scenario", str(ROOT / "scenarios/benchmark_sigma05.yaml"),
        "--profile", "0,0,0,0", "--eps", eps,
    )
    assert result.returncode == 2
    assert result.stderr == f"error: --eps: must be finite and nonnegative, got {eps}\n"
    assert result.stdout == ""


@pytest.mark.parametrize(
    "old,new,field",
    [
        ("w1: 0.5, w2", "w1: .nan, w2", "game.f1.w1"),
        ("{family: linear, w1: 0.5, w2: 0.5}",
         "{family: tabulated, values: [[0.0, 0.5], [0.5, .nan]]}", "game.f1.values"),
    ],
)
def test_nonfinite_scenario_number_exits_2(tmp_path, old, new, field):
    path = tmp_path / "nonfinite.yaml"
    path.write_text(BENCHMARK_DOC.replace(old, new, 1))
    result = run_cli("threshold", "--scenario", str(path))
    assert result.returncode == 2
    assert result.stderr.startswith(f"error: {field}: ")
    assert "finite" in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("field", ["f1", "f2", "income"])
@pytest.mark.parametrize(
    "command",
    [["threshold"], ["sweep", "--sweep", "gamma=0:1:3"],
     *([name, "--profile", "1,1,1,1"]
       for name in ("verify-nash", "dominance", "pareto", "ambiguity-eq"))],
    ids=lambda command: command[0],
)
def test_infinite_full_extraction_fee_exits_2(tmp_path, command, field):
    # each weight is finite, but f_i(1, 1) = 1e308 + 1e308 overflows, or the
    # activity's does and so the income at the full-extraction fees; the
    # error names the field, and numpy's overflow warning is not printed
    spec = "activity" if field == "income" else field
    value = "income(F1, F2, 1, 1)" if field == "income" else f"{field}(1, 1)"
    path = tmp_path / "huge.yaml"
    path.write_text(BENCHMARK_DOC.replace(
        f"{spec}: {{family: linear, w1: 0.5, w2: 0.5}}",
        f"{spec}: {{family: linear, w1: 1.0e+308, w2: 1.0e+308}}"))
    result = run_cli(command[0], "--scenario", str(path), *command[1:])
    assert result.returncode == 2
    assert result.stderr == f"error: game.{field}: {value} must be finite, got inf\n"
    assert result.stdout == ""


@pytest.mark.parametrize(
    "beliefs,message",
    [
        # a repeated key used to keep its last value silently
        ("{gamma: 0.5, gamma: 0.9, loyalty: [0.5, 0.5]}",
         "parse error at line 9, column 23: found duplicate key 'gamma'"),
        ("{[1, 2]: 0.5, gamma: 0.5}", "parse error at line 9, column 11: found unhashable key"),
    ],
    ids=["duplicate", "unhashable"],
)
def test_bad_scenario_key_exits_2(tmp_path, capsys, beliefs, message):
    block = "beliefs:\n  gamma: 0.5\n  loyalty: [0.5, 0.5]\n"
    assert block in BENCHMARK_DOC
    path = tmp_path / "bad_key.yaml"
    path.write_text(BENCHMARK_DOC.replace(block, f"beliefs: {beliefs}\n"))
    assert cli.main(["threshold", "--scenario", str(path)]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "doc,message",
    [
        ("game: [1, 2", "line 1, column 12: expected ',' or ']', but got '<stream end>'"),
        ("game: \t1", "line 1, column 7: found character '\\t' that cannot start any token"),
        ("game: *y", "line 1, column 7: found undefined alias 'y'"),
    ],
    ids=["unclosed-flow", "tab", "undefined-alias"],
)
def test_yaml_parse_errors_exit_2(tmp_path, capsys, doc, message):
    # the texts and marks of yaml.SafeLoader, which scenario._Loader extends;
    # libyaml's CSafeLoader reports others and accepts the tab
    path = tmp_path / "broken.yaml"
    path.write_text(doc)
    assert cli.main(["threshold", "--scenario", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: parse error at {message}\n")


@pytest.mark.parametrize("error", [RuntimeError, TypeError])
def test_unexpected_error_exits_3(scenario, monkeypatch, capsys, error):
    def crash(config, args):
        raise error("boom")

    monkeypatch.setattr(cli, "_build_threshold", crash)
    assert cli.main(["threshold", "--scenario", scenario]) == 3
    err = capsys.readouterr().err
    assert err.startswith("Traceback")
    assert f"{error.__name__}: boom" in err


def test_main_runs_a_handler_replaced_after_its_first_call(scenario, monkeypatch, capsys):
    # the parser is built once per process; handlers are found by name when
    # the command runs, so a replacement made after the build is called
    assert cli.main(["threshold", "--scenario", scenario]) == 0
    capsys.readouterr()
    parser, calls = cli._parser(), []

    def build(config, args):
        calls.append(args.scenario)
        return False, {"check": "replaced", "verdict": False}

    monkeypatch.setattr(cli, "_build_threshold", build)
    assert cli.main(["threshold", "--scenario", scenario, "--assert"]) == 1
    assert calls == [scenario]
    assert capsys.readouterr() == (emit_results({"check": "replaced", "verdict": False}), "")
    assert cli._parser() is parser


# Calls whose flags differ from the call before: --sweep counts, --steps and
# --eps overrides, --format values, --assert, and errors of both kinds
_REUSE_CALLS = [
    ["sweep", "--scenario", "{scenario}", "--sweep", "gamma=0:0.8:3", "--sweep",
     "loyalty1=0:0.5:2"],
    ["sweep", "--scenario", "{scenario}", "--sweep", "lambda=0:0.1:2", "--format", "machine"],
    ["sweep", "--scenario", "{scenario}", "--sweep", "loyalty2=0:0.5:3"],
    ["sweep", "--scenario", "{scenario}", "--sweep", "gamma=0:0.5:2", "--sweep", "gamma=0:1:2"],
    ["sweep", "--scenario", "{scenario}"],
    ["verify-nash", "--scenario", "{scenario}", "--profile", "1,1,0.5,0.5", "--steps", "4",
     "--eps", "0.5", "--format", "machine"],
    ["verify-nash", "--scenario", "{scenario}", "--profile", "1,1,0.5,0.5"],
    ["dominance", "--scenario", "{scenario}", "--profile", "1,1,0.5,0.5", "--eps", "0.25"],
    ["dominance", "--scenario", "{scenario}", "--profile", "1,1,0.5,0.5", "--steps", "5"],
    ["threshold", "--scenario", "{scenario}", "--format", "machine", "--assert"],
    ["threshold", "--scenario", "{scenario}"],
    ["region", "--resolution", "3", "--format", "svg"],
    ["region", "--resolution", "3"],
]


def _main_result(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # an argparse error
        code = exc.code
    return code, *capsys.readouterr()


def test_reused_parser_answers_each_call_as_a_fresh_one(scenario, capsys):
    calls = [[a.format(scenario=scenario) for a in argv] for argv in _REUSE_CALLS]
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(_main_result(argv, capsys))
    cli._parser.cache_clear()
    parser = cli._parser()
    for _ in range(2):
        assert [_main_result(argv, capsys) for argv in calls] == fresh
    assert cli._parser() is parser
    assert [code for code, *_ in fresh] == [0, 0, 0, 2, 2, 0, 0, 0, 0, 0, 0, 0, 0]
    # and no list or override carries over in the parsed arguments
    two = parser.parse_args(calls[0])
    one = parser.parse_args(calls[2])
    assert [name for name, *_ in two.sweeps] == ["gamma", "loyalty1"]
    assert [name for name, *_ in one.sweeps] == ["loyalty2"]
    assert (parser.parse_args(calls[6]).steps, parser.parse_args(calls[6]).eps) == (None, None)


def test_in_process_calls_parse_each_scenario_text_once(tmp_path, capsys, monkeypatch):
    # one process runs the sequence; each call answers as a fresh process
    # does, while parse_scenario runs once per new text of the file. The
    # texts carry a comment of their own, so no earlier test has kept them.
    parses, parse = [], cli.parse_scenario
    monkeypatch.setattr(cli, "parse_scenario", lambda text: parses.append(text) or parse(text))
    first = BENCHMARK_DOC + "# kept once: first text\n"
    second = BENCHMARK_DOC.replace("gamma: 0.5", "gamma: 0.8") + "# kept once: second text\n"
    broken = first + "game: [\n"
    loose = ["--steps", "10", "--eps", "2.0"]  # turns the verdict below true
    sequence = [  # file text, subcommand and flags, parses so far
        (first, ["threshold"], 1),
        (first, ["threshold", "--format", "machine"], 1),
        (first, ["sweep", "--sweep", "gamma=0:0.8:3"], 1),
        (first, ["verify-nash", "--profile", "1,1,0.5,0.5", *loose], 1),
        (first, ["verify-nash", "--profile", "1,1,0.5,0.5"], 1),
        (second, ["threshold"], 2),
        (broken, ["threshold"], 3),
        (broken, ["threshold"], 4),
        (first, ["threshold"], 4),
    ]
    path, results = tmp_path / "scenario.yaml", []
    for text, (command, *flags), parsed in sequence:
        path.write_text(text)
        argv = [command, "--scenario", str(path), *flags]
        results.append(_main_result(argv, capsys))
        fresh = run_cli(*argv)
        assert results[-1] == (fresh.returncode, fresh.stdout, fresh.stderr)
        assert len(parses) == parsed
    assert "verdict=true" in results[3][1] and "verdict=false" in results[4][1]
    assert results[0] == results[-1] and results[0] != results[5]
    assert results[6] == results[7] and results[6][0] == 2 and results[6][2].startswith("error: ")


# SHA-256 of stdout, captured from the per-point implementation of the
# region map and the sweep and from the three-copy gated-income payoffs;
# every later implementation must reproduce them.
GOLDEN_SHA256 = [
    (("region", "--resolution", "7"),
     "531296e8b26e8826da86d96ad95d33c7fed990ab11d67f99cbc274ba87f59be0"),
    (("region", "--resolution", "7", "--format", "svg"),
     "c989a0c98892cf70ccb1a6633aacdba73b91d1131a3c0d176eead5ad5a01c112"),
    (("sweep", "--scenario", "{scenario}", "--sweep", "gamma=0:0.8:5",
      "--sweep", "loyalty1=0:0.75:4"),
     "0b2584ea8b9e840fb681435022fac7aadd7d09715b55b6f350a4a956111ae75b"),
    (("sweep", "--scenario", "{scenario}", "--sweep", "gamma=0:0.8:5",
      "--sweep", "loyalty1=0:0.75:4", "--format", "machine"),
     "d8c722db8372d8df4818752c23a621c2d334f332082f0dc54562f177912dfbde"),
    (("verify-nash", "--scenario", "{scenario}", "--profile", "1,1,0.5,0.5"),
     "95dbc9e9954132b3286365b6954fd290c66300aa346987e1125e104f6a8815fd"),
    (("dominance", "--scenario", "{scenario}", "--profile", "1,1,0,0"),
     "67b110eadd6e8f0897c2daf2a1dbbf530bb5ac12059ac1ce8700853df23d33d7"),
    (("pareto", "--scenario", "{scenario}", "--profile", "1,1,1,1"),
     "cdf2ea51c9a2d1ae478c039b1792b1ff2e3a47ff0bce5454587b57d5a0af786d"),
    (("pareto", "--scenario", "{scenario}", "--profile", "1,1,0.5,0.5"),
     "b4965e6a87d13a9adf31ba989ab8efde1f566f5a0248be9a5c4c4cee5061bce9"),
    (("ambiguity-eq", "--scenario", "{scenario}", "--profile", "1,1,1,1"),
     "655df27676c347d2e3730170c68f4d36b2a47aa3fbf8e0c60c411378bf1fb29b"),
    (("ambiguity-eq", "--scenario", "{scenario}", "--profile", "1,1,1,1",
      "--format", "machine"),
     "3ce7a5e2dc21d0ec7a2dd4f2b8bc84bf8f0f6703afd4d4d61f1dea22e5413fee"),
    (("threshold", "--scenario", "{root}/scenarios/cobb_douglas_loyalty.yaml",
      "--format", "machine"),
     "23445ed90b87031651c9bd46b29c8db71c8357b862dee2f57e1ae91fb306a166"),
    # pareto at the shipped steps 100 and s_lo 0.1: an efficient profile and
    # two that a move to higher participation dominates
    (("pareto", "--scenario", "{root}/scenarios/cobb_douglas_loyalty.yaml",
      "--profile", "1,1,1,1"),
     "cdf2ea51c9a2d1ae478c039b1792b1ff2e3a47ff0bce5454587b57d5a0af786d"),
    (("pareto", "--scenario", "{root}/scenarios/cobb_douglas_loyalty.yaml",
      "--profile", "0.5,0.5,0.1,0.1"),
     "88fbae6e02a57c457ad9964b4741a00abd256fb4da96c8755626c9ad0256ea15"),
    (("pareto", "--scenario", "{root}/scenarios/cobb_douglas_loyalty.yaml",
      "--profile", "1,0.5,0.1,0.3", "--format", "machine"),
     "4ed8c0f782ba1230ed273f565c43b3a7e6f232d5e602b277c8095b0f7e917c9f"),
    # tabulated income: an efficient profile, one that higher participation
    # dominates, and the belief-modified Nash check with its best fee pair
    (("pareto", "--scenario", "{tabulated}", "--profile", "1,1,1,1", "--steps", "12"),
     "cdf2ea51c9a2d1ae478c039b1792b1ff2e3a47ff0bce5454587b57d5a0af786d"),
    (("pareto", "--scenario", "{tabulated}", "--profile", "0.5,0.5,0.5,0.5",
      "--steps", "12"),
     "17c0390207479ad07571d681d06c4cf6d8fd3036e7aea6a0dc2112ab11e2c230"),
    (("ambiguity-eq", "--scenario", "{tabulated}", "--profile", "1,1,0.5,0.5",
      "--steps", "12"),
     "af6b62204188edb63195718a8f0b7f5268b03546d8d686cbc0253329cd12053f"),
    # a three-axis sweep, in CSV and machine format
    (("sweep", "--scenario", "{scenario}", "--sweep", "gamma=0:0.6:3",
      "--sweep", "lambda=0:0.3:2", "--sweep", "loyalty1=0.1:0.7:4"),
     "41d30601312ccfb5ba2d05f2e7aeef18108685608076022de6e00b5afdbcbfcc"),
    (("sweep", "--scenario", "{scenario}", "--sweep", "gamma=0:0.6:3",
      "--sweep", "lambda=0:0.3:2", "--sweep", "loyalty1=0.1:0.7:4", "--format", "machine"),
     "1f3e98bc672b6fa3c5c6e6083475fba07b1384d00c16b04e749865c4f1d23627"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN_SHA256)
def test_map_output_golden_bytes(scenario, tabulated_scenario, argv, digest):
    result = run_cli(
        *(a.format(scenario=scenario, tabulated=tabulated_scenario, root=ROOT) for a in argv)
    )
    assert result.returncode == 0
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest


def test_steps_zero_rejected(scenario):
    result = run_cli("pareto", "--scenario", scenario, "--profile", "1,1,1,1", "--steps", "0")
    assert result.returncode == 2
    assert "steps" in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("steps", ["1", "-3"])
def test_steps_below_two_names_the_flag(scenario, steps):
    # the text the parser gives grid.steps, at the flag
    result = run_cli("verify-nash", "--scenario", scenario, "--profile", "1,1,1,1",
                     "--steps", steps)
    assert result.returncode == 2
    assert result.stderr == "error: --steps: must be at least 2\n"
    assert result.stdout == ""


@pytest.mark.parametrize("argv,line", [
    (("--eps", "-1"), "error: --eps: must be finite and nonnegative, got -1\n"),
    (("--eps", "nan"), "error: --eps: must be finite and nonnegative, got nan\n"),
    (("--steps", "1"), "error: --steps: must be at least 2\n"),
], ids=["eps=-1", "eps=nan", "steps=1"])
def test_grid_flag_errors_name_the_flag(scenario, capsys, argv, line):
    # each flag is checked by the rule of the config field it sets
    for command in ("verify-nash", "dominance", "pareto", "ambiguity-eq"):
        assert cli.main([command, "--scenario", scenario, "--profile", "1,1,1,1", *argv]) == 2
        assert capsys.readouterr() == ("", line)


@pytest.mark.parametrize(
    "argv,flag",
    [
        (("region", "--resolution", "100000"), "--resolution"),
        (("sweep", "--scenario", "{scenario}", "--sweep", "gamma=0:0.9:4000",
          "--sweep", "loyalty1=0:0.9:4000"), "--sweep"),
        (("sweep", "--scenario", "{scenario}", "--sweep", "gamma=0:0.9:100000000000"),
         "--sweep"),
        # the fee lattice has (steps + 1)^2 points, a dominance or Pareto
        # slice (steps + 1)^3
        (("verify-nash", "--scenario", "{scenario}", "--profile", "1,1,1,1",
          "--steps", "1000000"), "--steps"),
        # the grid exists before this limit check, and builds no axis
        (("verify-nash", "--scenario", "{scenario}", "--profile", "1,1,1,1",
          "--steps", "1000000000"), "--steps"),
        (("ambiguity-eq", "--scenario", "{scenario}", "--profile", "1,1,1,1",
          "--steps", "4000"), "--steps"),
        (("dominance", "--scenario", "{scenario}", "--profile", "1,1,0,0",
          "--steps", "300"), "--steps"),
        (("pareto", "--scenario", "{scenario}", "--profile", "1,1,1,1",
          "--steps", "300"), "--steps"),
        (("pareto", "--scenario", "{large_grid}", "--profile", "1,1,1,1"), "grid.steps"),
        # a game the corner path cannot decide is scanned: (steps + 1)^4 points
        (("pareto", "--scenario", "{tabulated}", "--profile", "1,1,1,1"), "grid.steps"),
        (("pareto", "--scenario", "{tabulated}", "--profile", "1,1,1,1",
          "--steps", "56"), "--steps"),
    ],
)
def test_over_budget_lattice_rejected(scenario, tabulated_scenario, tmp_path, argv, flag):
    large_grid = tmp_path / "large_grid.yaml"
    large_grid.write_text(BENCHMARK_DOC.replace("steps: 20", "steps: 300"))
    result = run_cli(*(
        a.format(scenario=scenario, tabulated=tabulated_scenario, large_grid=large_grid)
        for a in argv
    ))
    assert result.returncode == 2
    assert result.stderr.startswith(f"error: {flag}: ")
    assert "limit" in result.stderr
    assert result.stdout == ""


def test_sweep_reports_first_failing_row(scenario):
    # row 1 is improper, row 2 has gamma out of range: row 1's error wins
    improper_first = run_cli(
        "sweep", "--scenario", scenario, "--sweep", "lambda=0.9:0:2", "--sweep", "gamma=0.5:1.5:2"
    )
    assert improper_first.returncode == 2
    assert improper_first.stderr == "error: properness violated: lambda_ + gamma = 1.4 exceeds 1\n"
    # row 3 is a valid belief system outside the threshold domain, row 4 is
    # improper: the threshold-domain error of row 3 wins
    domain_first = run_cli(
        "sweep", "--scenario", scenario, "--sweep", "gamma=0:1:2", "--sweep", "lambda=0:0.5:2"
    )
    assert domain_first.returncode == 2
    assert domain_first.stderr == "error: threshold test requires gamma < 1\n"
    # three axes: row 4 (gamma 1) fails only the threshold domain, row 10
    # (lambda 0.5, gamma 1) is the first improper one
    later_line = run_cli(
        "sweep", "--scenario", scenario, "--sweep", "lambda=0:0.5:2", "--sweep", "gamma=0:1:2",
        "--sweep", "loyalty1=0:0.5:3",
    )
    assert later_line.returncode == 2
    assert later_line.stderr == "error: threshold test requires gamma < 1\n"


# Tabulated income with values[i, j] = i + j at fee nodes (i, j) on [0, 1]^2,
# except 10 at the middle node: the income falls as a fee rises, so the
# two-candidate threshold argument fails (ambiguity-eq's best fee response
# is (0.5, 0.5), neither F nor phi).
FALLING_DOC = """
schema_version: 1
game:
  f1: {family: linear, w1: 0.5, w2: 0.5}
  f2: {family: linear, w1: 0.5, w2: 0.5}
  income:
    family: tabulated
    values: [[[[0, 0], [0, 0]], [[1, 1], [1, 1]], [[2, 2], [2, 2]]],
             [[[1, 1], [1, 1]], [[10, 10], [10, 10]], [[3, 3], [3, 3]]],
             [[[2, 2], [2, 2]], [[3, 3], [3, 3]], [[4, 4], [4, 4]]]]
    fee_bounds: [1, 1]
beliefs:
  gamma: 0.5
  loyalty: [0.25, 0.25]
grid:
  steps: 20
"""

FALLING_ERROR = ("error: game.income: threshold test requires income weakly increasing in "
                 "the fees, but at s = (1, 1) it changes by -7 from fees (0.5, 0.5) to (1, 0.5)\n")


@pytest.mark.parametrize("command", [["threshold"], ["sweep", "--sweep", "gamma=0:0.5:3"]],
                         ids=lambda command: command[0])
def test_threshold_refuses_a_falling_income_table(tmp_path, command):
    path = tmp_path / "falling.yaml"
    path.write_text(FALLING_DOC)
    result = run_cli(command[0], "--scenario", str(path), *command[1:])
    assert (result.returncode, result.stdout, result.stderr) == (2, "", FALLING_ERROR)
    # the check it fails is the one a wrong verdict would have hidden
    best = run_cli("ambiguity-eq", "--scenario", str(path), "--profile", "1,1,0.25,0.25")
    assert best.returncode == 0
    assert "best_fee_response=0.500000,0.500000\n" in best.stdout


# The same table, rising at full participation (2 at the middle node), but
# 5 at the zero fees where s1 = 0: interpolated at the loyalty levels it
# falls from fees (0, 0) to (0.5, 0) wherever loyalty1 < 0.8.
LOW_FALL_DOC = FALLING_DOC.replace("[[10, 10], [10, 10]]", "[[2, 2], [2, 2]]").replace(
    "[[[[0, 0], [0, 0]]", "[[[[5, 5], [0, 0]]").replace(
    "gamma: 0.5\n  loyalty: [0.25, 0.25]", "gamma: 0.3\n  lambda: 0.5\n  loyalty: [0.9, 0.9]")


@pytest.mark.parametrize("sweeps,message", [
    # row 1 (loyalty1 0.1) fails the game; rows 2 and 3 are improper, so the
    # check runs on the rows before the first improper one
    (["gamma=0.3:0.9:2", "loyalty1=0.9:0.1:2"],
     "game.income: threshold test requires income weakly increasing in the fees, but at "
     "s = (0.1, 0.9) it changes by -3.5 from fees (0, 0) to (0.5, 0)"),
    # row 0 is improper before any row fails the game
    (["gamma=0.9:0.3:2", "loyalty1=0.9:0.1:2"],
     "properness violated: lambda_ + gamma = 1.4 exceeds 1"),
    # every row is a valid belief system; rows 0 and 1 (loyalty1 0.9, 0.8)
    # meet the game's hypotheses, row 2 (0.7) is the first that does not
    (["loyalty1=0.9:0.6:4"],
     "game.income: threshold test requires income weakly increasing in the fees, but at "
     "s = (0.7, 0.9) it changes by -0.5 from fees (0, 0) to (0.5, 0)"),
])
def test_sweep_reports_the_first_row_failing_the_game(tmp_path, sweeps, message):
    path = tmp_path / "low_fall.yaml"
    path.write_text(LOW_FALL_DOC)
    argv = ["sweep", "--scenario", str(path)]
    for sweep in sweeps:
        argv += ["--sweep", sweep]
    result = run_cli(*argv)
    assert (result.returncode, result.stdout, result.stderr) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("spec", ["gamma=0:inf:3", "gamma=-inf:0:1", "gamma=-1e308:1e308:3"])
def test_sweep_nonfinite_range_rejected(scenario, capsys, spec):
    # in process, so a numpy warning would fail the test
    assert cli.main(["sweep", "--scenario", scenario, "--sweep", spec]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: gamma must lie in [0, 1]\n"


def test_sweep_duplicate_field_rejected(scenario, capsys):
    argv = ["sweep", "--scenario", scenario, "--sweep", "gamma=0:0.5:2",
            "--sweep", "loyalty1=0:0.5:2", "--sweep", "gamma=0:0.9:3"]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --sweep: duplicate field gamma\n"


@pytest.mark.parametrize("fmt", ["csv", "machine"])
def test_sweep_across_row_blocks_matches_reference(scenario, tmp_path, fmt):
    # 270 x 270 rows fill more than one block of the writers, so the text
    # where two blocks meet and the last line are checked too
    axis = np.linspace(0, 0.99, 270)
    gamma, loyalty1 = (g.ravel() for g in np.meshgrid(axis, axis, indexing="ij"))
    assert gamma.size > _SWEEP_BLOCK_ROWS
    config = parse_scenario(Path(scenario).read_text())
    beliefs = replace(config.beliefs, gamma=gamma, loyalty1=loyalty1)
    verdict = full_exploitation_verdict(config.game, beliefs)
    columns = {"gamma": gamma, "loyalty1": loyalty1, "delta": verdict.delta,
               "rhs": verdict.rhs, "full_exploitation": verdict.full_exploitation}
    out = tmp_path / "sweep.txt"
    assert cli.main(["sweep", "--scenario", scenario, "--sweep", "gamma=0:0.99:270",
                     "--sweep", "loyalty1=0:0.99:270", "--format", fmt, "--out", str(out)]) == 0
    reference = reference_sweep_csv if fmt == "csv" else reference_sweep_machine
    assert first_difference(out.read_text(), reference(columns)) is None


@pytest.mark.parametrize(
    "sweeps,calls",
    [
        # 12 x 10 rows in three blocks of 4 gamma rows: gamma, loyalty1,
        # delta (a function of loyalty1) and rhs, in column order
        (["gamma=0:0.9:12", "loyalty1=0:0.9:10"],
         [[4, 10, 10, 40], [4, 10, 10, 40], [4, 10, 10, 40]]),
        # lambda x gamma x loyalty1 in blocks of two lambdas: rhs does not
        # depend on lambda, so it is spelled at gamma x loyalty1 entries
        (["lambda=0:0.01:3", "gamma=0:0.9:4", "loyalty1=0:0.9:5"],
         [[2, 4, 5, 5, 20], [1, 4, 5, 5, 20]]),
        # one axis of 120 rows: three blocks of 40, delta is one number
        (["gamma=0:0.9:120"], [[40, 1, 40], [40, 1, 40], [40, 1, 40]]),
    ],
    ids=["gamma-loyalty1", "lambda-gamma-loyalty1", "gamma"],
)
def test_sweep_spells_each_column_at_its_block_entries(scenario, tmp_path, monkeypatch, sweeps,
                                                       calls):
    # no spelling call sees more than one block's rows, and an axis a column
    # is broadcast along is spelled once a block, not once a row
    sizes, spell = [], writers._slots

    def slots(values, machine):
        sizes.append(values.size)
        return spell(values, machine)

    monkeypatch.setattr(writers, "_SWEEP_BLOCK_ROWS", 50)
    monkeypatch.setattr(writers, "_slots", slots)
    argv = ["sweep", "--scenario", scenario, "--out", str(tmp_path / "sweep.csv")]
    for spec in sweeps:
        argv += ["--sweep", spec]
    assert cli.main(argv) == 0
    assert max(sizes) <= 50
    assert sizes == [n for block in calls for n in block]


def _sweep_columns(scenario, **axes):
    """The columns the sweep subcommand writes for ``axes``, in their order."""
    grids = np.meshgrid(*axes.values(), indexing="ij")
    swept = dict(zip(axes, (g.ravel() for g in grids)))
    config = parse_scenario(Path(scenario).read_text())
    verdict = full_exploitation_verdict(config.game, replace(config.beliefs, **swept))
    return {**swept, "delta": verdict.delta, "rhs": verdict.rhs,
            "full_exploitation": verdict.full_exploitation}


@pytest.mark.parametrize("block_rows", [7, _SWEEP_BLOCK_ROWS])
@pytest.mark.parametrize(
    "argv,writer",
    [
        (("region", "--resolution", "2"), lambda s: region_csv(region_sample(2))),
        (("region", "--resolution", "7"), lambda s: region_csv(region_sample(7))),
        (("region", "--resolution", "7", "--format", "svg"),
         lambda s: region_svg(region_sample(7))),
        # 5 x 4 rows: at 7 rows a block, five blocks of one gamma row each
        (("sweep", "--scenario", "{scenario}", "--sweep", "gamma=0:0.8:5",
          "--sweep", "loyalty1=0:0.75:4"),
         lambda s: sweep_csv(_sweep_columns(s, gamma=np.linspace(0, 0.8, 5),
                                            loyalty1=np.linspace(0, 0.75, 4)))),
        (("sweep", "--scenario", "{scenario}", "--sweep", "gamma=0:0.8:5",
          "--sweep", "loyalty1=0:0.75:4", "--format", "machine"),
         lambda s: sweep_machine(_sweep_columns(s, gamma=np.linspace(0, 0.8, 5),
                                                loyalty1=np.linspace(0, 0.75, 4)))),
        (("sweep", "--scenario", "{scenario}", "--sweep", "gamma=0.3:0.3:1"),
         lambda s: sweep_csv(_sweep_columns(s, gamma=np.array([0.3])))),
        (("sweep", "--scenario", "{scenario}", "--sweep", "gamma=0.3:0.3:1",
          "--format", "machine"),
         lambda s: sweep_machine(_sweep_columns(s, gamma=np.array([0.3])))),
    ],
    ids=["region-2", "region-7", "region-7-svg", "sweep-csv", "sweep-machine",
         "one-row-csv", "one-row-machine"],
)
def test_streamed_map_equals_the_string_writer(scenario, tmp_path, capsys, monkeypatch,
                                               argv, writer, block_rows):
    # the CLI writes each block as it is made; the bytes on stdout and in
    # --out are the str writer's at the shipped block size, also where
    # several smaller blocks meet
    argv = [a.format(scenario=scenario) for a in argv]
    expected = writer(scenario)
    monkeypatch.setattr(writers, "_SWEEP_BLOCK_ROWS", block_rows)
    assert cli.main(argv) == 0
    assert capsys.readouterr() == (expected, "")
    out = tmp_path / "map.out"
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == expected.encode()
    assert capsys.readouterr() == ("", "")


# SHA-256 of the region CSV at resolution 1000, captured from the
# broadcast lattice and the per-cell writer
REGION_1000_SHA256 = "104733ec0c1a1a884baea159e07e6654297c07a32594f5aa98a624e6489004d5"


def test_region_1000_bytes_on_stdout_and_in_out(tmp_path):
    # the binary stream under stdout and the --out file get the same bytes
    out = tmp_path / "region.csv"
    to_file = run_cli("region", "--resolution", "1000", "--out", str(out))
    to_stdout = subprocess.run([sys.executable, "-m", "middleman", "region", "--resolution",
                                "1000"], capture_output=True)
    assert (to_file.returncode, to_file.stdout, to_file.stderr) == (0, "", "")
    assert (to_stdout.returncode, to_stdout.stderr) == (0, b"")
    assert to_stdout.stdout == out.read_bytes()
    assert hashlib.sha256(to_stdout.stdout).hexdigest() == REGION_1000_SHA256


def test_text_written_before_a_map_keeps_its_place():
    # text still pending on sys.stdout goes out before the map's bytes; without
    # PYTHONUNBUFFERED the text layer holds it until flushed
    code = ("import sys; from middleman import cli; print('before', end='|'); "
            "sys.exit(cli.main(['region', '--resolution', '2']))")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == "before|" + region_csv(region_sample(2))


@pytest.mark.parametrize(
    "argv,head",
    [
        # the reader takes the first 40 bytes of a map and closes the pipe
        (("region", "--resolution", "1000"), b"gamma,sigma,full_exploitation\n0.000000,0"),
        # the reader is gone before a report is written, which stays buffered
        (("threshold", "--scenario", str(ROOT / "scenarios" / "benchmark_sigma05.yaml")), b""),
    ],
    ids=["map", "report"],
)
def test_closed_pipe_exits_141_quietly(argv, head):
    # no error line, no message from the flush at exit (without PYTHONUNBUFFERED
    # stdout still holds bytes then), and not the usage code 2
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    child = subprocess.Popen([sys.executable, "-m", "middleman", *argv],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert child.stdout.read(len(head)) == head
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert (child.wait(), err) == (141, b"")


def test_region_svg_evaluates_no_verdict_lattice(monkeypatch, capsys):
    def no_lattice(axis):
        raise AssertionError("verdict lattice evaluated")

    monkeypatch.setattr(activity, "_region_counts", no_lattice)
    argv = ("region", "--resolution", "7", "--format", "svg")
    assert cli.main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == dict(GOLDEN_SHA256)[argv]
    # the resolution is still checked: too small, and over the point limit
    assert cli.main(["region", "--resolution", "1", "--format", "svg"]) == 2
    assert capsys.readouterr() == ("", "error: --resolution: must be at least 2\n")
    # below 2, the rule comes before the point budget
    assert cli.main(["region", "--resolution", "-5000", "--format", "svg"]) == 2
    assert capsys.readouterr() == ("", "error: --resolution: must be at least 2\n")
    assert cli.main(["region", "--resolution", "4000", "--format", "svg"]) == 2
    assert capsys.readouterr() == (
        "", "error: --resolution: 16008001 points exceed the limit of 10000000\n")


def test_sweep_format_checked_before_the_sweep(scenario):
    result = run_cli(
        "sweep", "--scenario", scenario, "--sweep", "gamma=0.5:1.5:3", "--format", "svg"
    )
    assert result.returncode == 2
    assert "format" in result.stderr


@pytest.mark.parametrize(
    "argv,message",
    [
        (("threshold", "--scenario", "{scenario}", "--format", "csv"),
         "argument --format: invalid choice: 'csv'"),
        (("region", "--resolution", "7", "--format", "machine"),
         "argument --format: invalid choice: 'machine'"),
        (("region", "--resolution", "7", "--assert"), "unrecognized arguments: --assert"),
        (("sweep", "--scenario", "{scenario}", "--sweep", "gamma=0:0.9:3", "--assert"),
         "unrecognized arguments: --assert"),
        (("threshold", "--scenario", "{with_outputs}"), "error: outputs: unknown field"),
    ],
)
def test_settings_that_change_nothing_exit_2(scenario, tmp_path, argv, message):
    with_outputs = tmp_path / "with_outputs.yaml"
    with_outputs.write_text(BENCHMARK_DOC + "outputs: [verdict]\n")
    result = run_cli(*(a.format(scenario=scenario, with_outputs=with_outputs) for a in argv))
    assert result.returncode == 2
    assert message in result.stderr
    assert result.stdout == ""
