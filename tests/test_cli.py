import json
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import mixed_quiver, perturb_block_counts
from quiver_dt import cli, oracle
from quiver_dt.invariants import (InvariantRow, InvariantTable,
                                  NoPoleViolation, build_table)
from quiver_dt.oracle import CalibrationError, calibrate_signs
from quiver_dt.quiver import Slope, point_quiver
from quiver_dt.ratfunc import RatFunc, q_minus_qinv

FIXTURES = Path(cli.__file__).parent / "fixtures"

ALL_FIXTURES = [
    "point_plus.json", "point_minus.json",
    "kronecker_pp_plus.json", "kronecker_pm_plus.json",
    "kronecker_mm_plus.json", "kronecker_pp_minus.json",
    "kronecker_pm_minus.json", "kronecker_mm_minus.json",
]


def fixture(name):
    return str(FIXTURES / name)


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_validate_bundled_fixtures(name, capsys):
    assert cli.main(["validate", fixture(name)]) == 0
    assert "structure: ok" in capsys.readouterr().out


def test_validate_broken_involution(tmp_path, capsys):
    data = json.loads((FIXTURES / "kronecker_pp_plus.json").read_text())
    data["involution"]["vertices"] = {"i": "j", "j": "i", }
    data["involution"]["edges"] = {"a1": "a2", "a2": "a1"}
    data["signs"]["edges"] = {"a1": 1, "a2": -1}
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    code = cli.main(["validate", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "sign" in err or "involution" in err


@pytest.mark.parametrize("keys, value, message", [
    (("vertices",), "ij", "vertices must be a list"),
    (("signs", "vertices", "i"), "plus", "sign of i must be +1 or -1"),
    (("signs", "edges", "a1"), 1.5, "sign of a1 must be +1 or -1"),
    (("vertices",), [1, [2]], "vertex name must be a string, not 1"),
    (("edges", 0, "to"), ["j"], "edge field must be a string, not ['j']"),
], ids=["vertices_string", "sign_word", "sign_fraction", "vertex_number",
        "edge_target_list"])
def test_validate_rejects_malformed_fields(keys, value, message, tmp_path,
                                           capsys):
    data = json.loads((FIXTURES / "kronecker_pm_plus.json").read_text())
    node = data
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert cli.main(["validate", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and message in captured.err


@pytest.mark.parametrize("command", ["dt", "wallcross", "series",
                                     "explain-calibration"])
def test_bound_below_one_is_a_validation_error(command, capsys):
    assert cli.main([command, fixture("kronecker_pm_plus.json"),
                     "--bound", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --bound must be at least 1, not 0\n"


@pytest.mark.parametrize("command", ["dt", "wallcross", "series",
                                     "explain-calibration"])
@pytest.mark.parametrize("bound", [sys.maxsize, 10 ** 20])
def test_oversized_bound_is_a_validation_error(command, bound, capsys):
    assert cli.main([command, fixture("kronecker_pm_plus.json"),
                     "--bound", str(bound)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: --bound must be below {sys.maxsize}, "
                            f"not {bound}\n")


def test_validate_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{ this is not json")
    assert cli.main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert "line 1" in err


COMMANDS = {
    "validate": [],
    "dt": ["--bound", "2", "--slope", "i=1,j=-1"],
    "wallcross": ["--bound", "2", "--slope", "i=1,j=-1", "--slope2",
                  "i=-1,j=1"],
    "series": ["--bound", "2"],
    "explain-calibration": [],
}


@pytest.mark.parametrize("command", COMMANDS)
def test_validate_unknown_path(command, capsys):
    assert cli.main([command, "/nonexistent/q.json",
                     *COMMANDS[command]]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot read"), err


@pytest.mark.parametrize("command", COMMANDS)
def test_main_loads_the_quiver_once(command, monkeypatch, capsys):
    paths = []
    load = cli.load_quiver
    monkeypatch.setattr(cli, "load_quiver",
                        lambda path: paths.append(path) or load(path))
    path = fixture("kronecker_pm_plus.json")
    assert cli.main([command, path, *COMMANDS[command]]) == 0
    assert paths == [path]


def test_dt_json_round_trip(tmp_path):
    out = tmp_path / "table.json"
    code = cli.main(["dt", fixture("kronecker_pp_plus.json"), "--bound", "3",
                     "--slope", "i=1,j=-1", "--output", str(out)])
    assert code == 0
    parsed = InvariantTable.from_data(json.loads(out.read_text()))
    from quiver_dt.quiver import SelfDualQuiver, kronecker_variant
    q = kronecker_variant((1, 1), 1)
    calibrate_signs(q)
    want = build_table(q, Slope.from_dict(q, {"i": 1, "j": -1}), 3)
    assert parsed.rows == want.rows
    assert parsed.sd_rows == want.sd_rows
    assert parsed.bound == want.bound and parsed.slope_data == want.slope_data


def test_dt_byte_determinism(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        assert cli.main(["dt", fixture("kronecker_pm_plus.json"),
                         "--bound", "3", "--slope", "i=1,j=-1",
                         "--output", str(p)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


POINT_CSV = """side,class,J,eps,DTmot,DTnum
linear,0,1,0,0,0
linear,1,q*(1)/(q^2 - 1),q*(1)/(q^2 - 1),1,1
linear,2,q^2*(1)/(q^6 - q^4 - q^2 + 1),q^2*(-1/2)/(q^4 - 1),q*(-1/2)/(q^2 + 1),1/4
linear,3,q^3*(1)/(q^12 - q^10 - q^8 + q^4 + q^2 - 1),q^3*(1/3)/(q^6 - 1),q^2*(1/3)/(q^4 + q^2 + 1),1/9
self-dual,0,1,1,1,1
self-dual,1,1,1,1,1
self-dual,2,q^3*(1)/(q^4 - 1),q*(1/2)/(q^2 + 1),q*(1/2)/(q^2 + 1),-1/4
self-dual,3,q*(1)/(q^4 - 1),q*(-1/2)/(q^2 + 1),q*(-1/2)/(q^2 + 1),1/4"""


def test_dt_csv_frozen_point_table(capsys):
    assert cli.main(["dt", fixture("point_plus.json"), "--bound", "3",
                     "--format", "csv"]) == 0
    assert capsys.readouterr().out.strip() == POINT_CSV


def test_dt_bad_slope_string(capsys):
    assert cli.main(["dt", fixture("point_plus.json"), "--slope", "x"]) == 1
    assert cli.main(["dt", fixture("point_plus.json"),
                     "--slope", "y=1"]) == 1


def doctor_last_row(monkeypatch, side, eps, dtm):
    """Make the CLI's build_table give the last row of one side these
    epsilon and motivic values."""
    def doctored(quiver, slope, bound):
        table = build_table(quiver, slope, bound)
        rows = {"linear": list(table.rows), "self-dual": list(table.sd_rows)}
        last = rows[side][-1]
        rows[side][-1] = InvariantRow(last.dim_vector, last.semistable,
                                      eps, dtm, None)
        return InvariantTable(table.quiver_data, table.slope_data,
                              table.bound, table.sd_included,
                              rows["linear"], rows["self-dual"])

    monkeypatch.setattr(cli, "build_table", doctored)


def test_dt_no_pole_exit(monkeypatch, capsys):
    bad = RatFunc(1) / (RatFunc.q_power(1) + RatFunc(1))  # pole at q = -1
    doctor_last_row(monkeypatch, "self-dual", bad, bad)
    code = cli.main(["dt", fixture("point_plus.json"), "--bound", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert "regularity violation" in captured.err
    assert "self-dual" in captured.err


def test_dt_no_pole_exit_on_a_linear_row(monkeypatch, capsys):
    # a double pole at q = -1, so that DTmot = (q - 1/q) eps keeps one
    eps = RatFunc(1) / (RatFunc.q_power(1) + RatFunc(1)) ** 2
    doctor_last_row(monkeypatch, "linear", eps, q_minus_qinv() * eps)
    code = cli.main(["dt", fixture("point_plus.json"), "--bound", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == ("error: regularity violation for linear class (2,): "
                   "pole orders -1 at q=1, 1 at q=-1\n")


def test_wallcross_command(capsys):
    code = cli.main(["wallcross", fixture("kronecker_pm_plus.json"),
                     "--bound", "3", "--slope", "i=1,j=-1",
                     "--slope2", "i=-1,j=1"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["all_match"] is True
    assert payload["transformed"]["slope"] == {"i": "-1", "j": "1"}
    assert {d["side"] for d in payload["diff"]} == {"linear", "self-dual"}


def test_wallcross_transformed_table_is_byte_identical_to_direct(capsys):
    assert cli.main(["wallcross", fixture("kronecker_pm_plus.json"),
                     "--bound", "4", "--slope", "i=1,j=-1",
                     "--slope2", "i=-1,j=1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["transformed"] == payload["direct"]


SERIES_MM = "(1) + (0)*t^(1/2) + (-1/2)*t + (0)*t^(3/2)"


def test_series_frozen_lines(capsys):
    assert cli.main(["series", fixture("kronecker_mm_plus.json"),
                     "--bound", "6", "--slope", "i=1,j=-1"]) == 0
    assert capsys.readouterr().out.strip() == SERIES_MM

    assert cli.main(["series", fixture("point_plus.json"), "--bound", "4",
                     "--ray", "x=2"]) == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("(1) + (q*(1/2)/(q^2 + 1))*t + ")
    assert "t^2" in out

    # even-class default ray: integer exponents
    assert cli.main(["series", fixture("point_minus.json"),
                     "--bound", "4"]) == 0
    out = capsys.readouterr().out.strip()
    assert "(1) + (q*(-1/2)/(q^2 + 1))*t" in out


def test_series_multi_ray_requires_choice(tmp_path, capsys):
    q = mixed_quiver()
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(q.to_data()))
    assert cli.main(["series", str(path), "--bound", "4"]) == 1
    assert "--ray" in capsys.readouterr().err
    assert cli.main(["series", str(path), "--bound", "4",
                     "--ray", "i=1,k=1"]) == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("(1) + ")


def test_series_rejects_non_sd_ray(tmp_path, capsys):
    q = mixed_quiver()
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(q.to_data()))
    assert cli.main(["series", str(path), "--ray", "i=1"]) == 1
    assert "self-dual" in capsys.readouterr().err


def test_explain_calibration_command(capsys):
    assert cli.main(["explain-calibration",
                     fixture("kronecker_mm_minus.json")]) == 0
    out = capsys.readouterr().out
    assert "orientation=-1 placement=+1" in out
    assert "[ok]" in out and "[!!]" not in out


def test_explain_calibration_verifies_the_quiver_once(monkeypatch, capsys):
    """The loaded quiver is verified once at --bound, not once to calibrate
    it and again for the report; the reference quivers of the pipeline
    values (bound 2) are verified once each as well."""
    calls = []
    verify = oracle.verify_calibration

    def counting(quiver, bound=2):
        calls.append((quiver, bound))
        return verify(quiver, bound)

    monkeypatch.setattr(oracle, "verify_calibration", counting)
    assert cli.main(["explain-calibration", fixture("kronecker_pm_plus.json"),
                     "--bound", "3"]) == 0
    assert "identity checks up to bound 3" in capsys.readouterr().out
    assert [bound for _, bound in calls].count(3) == 1
    assert len({id(quiver) for quiver, _ in calls}) == len(calls)


def test_explain_calibration_failure_exit(monkeypatch, capsys):
    def broken(quiver, bound=2):
        return "calibration checks failed", False

    monkeypatch.setattr(cli, "explain_calibration", broken)
    assert cli.main(["explain-calibration",
                     fixture("point_plus.json")]) == 3


def test_explain_calibration_of_a_quiver_failing_its_check(monkeypatch,
                                                          capsys):
    """The report ends at the failed check, exits 3, and leaves no
    calibration attached."""
    perturb_block_counts(monkeypatch)
    quivers = []
    load = cli.load_quiver

    def loading(path):
        quivers.append(load(path))
        return quivers[-1]

    monkeypatch.setattr(cli, "load_quiver", loading)
    assert cli.main(["explain-calibration",
                     fixture("kronecker_pm_plus.json")]) == 3
    twists = [("(1, 1), vertex sign +1", -2), ("(1, -1), vertex sign +1", -1),
              ("(-1, -1), vertex sign +1", 0), ("(1, 1), vertex sign -1", 0),
              ("(1, -1), vertex sign -1", -1),
              ("(-1, -1), vertex sign -1", -2)]
    assert capsys.readouterr().out == "\n".join(
        ["global sign resolution",
         "  euler-form family:  orientation=-1 placement=+1",
         "  block-count family: orientation=-1 placement=+1",
         "  reference twist table"]
        + [f"    edge signs {key}: twist {t} (expected {t})"
           for key, t in twists]
        + ["calibration failed: commutation exponent mismatch at (0, 1), "
           "(0, 2)", ""])
    assert quivers[0].calibration is None


@pytest.mark.parametrize("command, callee, error, code", [
    ("dt", "build_table", CalibrationError, 3),
    ("wallcross", "epsilon_table", CalibrationError, 3),
    ("series", "sd_dt_mot", CalibrationError, 3),
    ("series", "sd_dt_mot", NoPoleViolation, 2),
], ids=["dt-calibration", "wallcross-calibration", "series-calibration",
        "series-no-pole"])
def test_library_failures_exit_with_their_documented_code(
        command, callee, error, code, monkeypatch, capsys):
    def failing(*args, **kwargs):
        raise error("identity broke at (1, 0)")

    monkeypatch.setattr(cli, callee, failing)
    assert cli.main([command, fixture("kronecker_pm_plus.json"),
                     "--slope", "i=1,j=-1", "--bound", "2"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: identity broke at (1, 0)\n"


def test_output_flag_writes_file(tmp_path):
    out = tmp_path / "report.txt"
    assert cli.main(["validate", fixture("point_plus.json"),
                     "--output", str(out)]) == 0
    assert "structure: ok" in out.read_text()


def assert_one_error_line(capsys, fragment):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1 and fragment in captured.err


@pytest.mark.parametrize("target", ["missing/out.json", "."],
                         ids=["missing-directory", "directory"])
def test_unwritable_output_is_a_validation_error(target, tmp_path, capsys):
    out = tmp_path / target
    assert cli.main(["dt", fixture("point_plus.json"), "--bound", "2",
                     "--output", str(out)]) == 1
    assert_one_error_line(capsys, f"cannot write {out}")


def test_quiver_file_not_in_utf8_is_a_validation_error(tmp_path, capsys):
    path = tmp_path / "q.json"
    path.write_bytes(b"\xff\xfe{}")
    assert cli.main(["validate", str(path)]) == 1
    assert_one_error_line(capsys, "not UTF-8")


@pytest.mark.parametrize("command, flag", [("dt", "--slope"),
                                           ("series", "--ray")])
def test_vertex_named_twice_is_a_validation_error(command, flag, capsys):
    assert cli.main([command, fixture("kronecker_pm_plus.json"),
                     flag, "i=1,i=2"]) == 1
    assert_one_error_line(capsys, "names vertex i twice")


@pytest.mark.parametrize("command, flag", [("dt", "--slope"),
                                           ("wallcross", "--slope"),
                                           ("wallcross", "--slope2"),
                                           ("series", "--slope")])
def test_slope_weight_too_long_to_print_is_a_validation_error(command, flag,
                                                              capsys):
    # 10^5000 has more digits than str() converts by default.
    assert cli.main([command, fixture("kronecker_pm_plus.json"), flag,
                     "i=1e5000,j=-1e5000", "--bound", "2"]) == 1
    assert_one_error_line(capsys, "slope entry 'i=1e5000': weight has too "
                                  "many digits to print")


def test_slope_weight_with_a_long_exponent_is_read_without_expanding_it(
        monkeypatch, capsys):
    real = cli.Fraction

    def fraction(*args):
        # Fraction multiplies out 10**exponent, slowly for such exponents.
        assert not (isinstance(args[0], str)
                    and re.search(r"[eE][-+]?\d{7}", args[0])), args
        return real(*args)

    monkeypatch.setattr(cli, "Fraction", fraction)
    path = fixture("kronecker_pm_plus.json")
    for weight in ("1e2000000", "-2.5e-2000000"):
        assert cli.main(["dt", path, "--slope", f"i={weight},j=-1"]) == 1
        assert_one_error_line(capsys, f"slope entry 'i={weight}': weight has "
                                      "too many digits to print")
    outs = []
    for weight in ("0e999999999", "0"):
        assert cli.main(["dt", path, "--slope", f"i={weight},j=-1",
                         "--bound", "3"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and outs[0].startswith("{")


@pytest.mark.parametrize("argv", [
    ["dt", fixture("point_plus.json"), "--bound", "abc"],
    ["dt", fixture("point_plus.json"), "--format", "xml"],
    ["frobnicate", fixture("point_plus.json")],
    ["dt", "--bound", "3"],
], ids=["bound-not-an-integer", "unknown-format", "unknown-subcommand",
        "missing-quiver-path"])
def test_malformed_arguments_exit_with_the_validation_code(argv, capsys):
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv)
    assert exit_.value.code == cli.EXIT_VALIDATION == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: quiver-dt")
    assert captured.err.count(" error: ") == 1


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exit_:
        cli.main(["dt", "--help"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith("usage: quiver-dt dt")


def test_main_builds_the_parser_once(capsys):
    cli.build_parser.cache_clear()
    argv = ["dt", fixture("kronecker_pm_plus.json"), "--slope", "i=1,j=-1",
            "--bound", "3"]
    outs = []
    for _ in range(2):
        assert cli.main(argv) == 0
        outs.append(capsys.readouterr().out)
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert outs[0] == outs[1] and outs[0].startswith("{")
