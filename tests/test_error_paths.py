"""Each refusal the other tests do not reach, reached the way a user reaches
it: through the command line where a quiver file or an argument carries the
bad input, and through the library otherwise.  A command-line refusal is
one "error:" line on stderr and exit code 1."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from quiver_dt import cli
from quiver_dt.invariants import sd_semistable_integral
from quiver_dt.motives import motive_gl, motive_o
from quiver_dt.oracle import CalibrationError, verify_calibration
from quiver_dt.quiver import (Slope, ValidationError, kronecker_variant,
                              make_calibration, point_quiver)
from quiver_dt.ratfunc import RatFunc
from quiver_dt.wallcross import SlopePair, epsilon_table, wallcross_epsilon

FIXTURES = Path(cli.__file__).parent / "fixtures"
KRONECKER = str(FIXTURES / "kronecker_pm_plus.json")


def one_error_line(capsys, message):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["dt", KRONECKER, "--slope", "i=abc"],
     "slope entry 'i=abc': Invalid literal for Fraction: 'abc'"),
    (["dt", KRONECKER, "--slope", "i=1/0"],
     "slope entry 'i=1/0': Fraction(1, 0)"),
    # 10^4300 is read, and has one digit more than str() writes by default.
    (["dt", KRONECKER, "--slope", "i=1e4300"],
     "slope entry 'i=1e4300': weight has too many digits to print"),
    (["series", KRONECKER, "--ray", "k=1"], "ray names unknown vertex k"),
    (["series", KRONECKER, "--ray", "i=x"],
     "ray entry 'i=x': invalid literal for int() with base 10: 'x'"),
    (["series", KRONECKER, "--ray", "i=0"], "ray must be a nonzero class"),
    (["series", str(FIXTURES / "point_minus.json"), "--bound", "1"],
     "no nonzero self-dual classes up to the bound"),
], ids=["weight-not-a-fraction", "weight-zero-denominator",
        "weight-too-long-to-print", "ray-unknown-vertex", "ray-not-an-integer",
        "ray-zero", "series-no-self-dual-class"])
def test_bad_arguments_are_refused(argv, message, capsys):
    assert cli.main(argv) == 1
    one_error_line(capsys, message)


def edit(change):
    data = json.loads(Path(KRONECKER).read_text())
    change(data)
    return data


@pytest.mark.parametrize("data, message", [
    (edit(lambda d: d.update(vertices=[])), "quiver needs at least one vertex"),
    (edit(lambda d: d["edges"][1].update(name="a1")), "duplicate edge names"),
    (edit(lambda d: d["involution"]["edges"].update(z="a1")),
     "involution names unknown edge z"),
    (edit(lambda d: d["involution"]["vertices"].update(i="k")),
     "involution sends i to unknown vertex k"),
    (edit(lambda d: d["involution"]["edges"].update(a1="z")),
     "involution sends a1 to unknown edge z"),
    (edit(lambda d: d["involution"]["edges"].update(a1="a2")),
     "edge involution not involutive at a1"),
    (edit(lambda d: d["signs"]["vertices"].update(k=1)),
     "sign table names unknown vertex k"),
    (edit(lambda d: d["signs"]["edges"].update(z=1)),
     "sign table names unknown edge z"),
    (edit(lambda d: d.pop("vertices")), "malformed quiver data: 'vertices'"),
    (["i", "j"], "malformed quiver data: list indices must be integers or "
                 "slices, not str"),
    (edit(lambda d: d["edges"].append({"name": "a3"})),
     "malformed edge row {'name': 'a3'}"),
    (edit(lambda d: d.update(involution=["i", "j"])),
     "involution must be an object, not ['i', 'j']"),
    (edit(lambda d: d.update(signs=1)), "signs must be an object, not 1"),
], ids=["no-vertices", "duplicate-edge", "involution-unknown-edge",
        "involution-to-unknown-vertex", "involution-to-unknown-edge",
        "edge-involution-not-involutive", "sign-unknown-vertex",
        "sign-unknown-edge", "no-vertices-key", "not-an-object",
        "edge-row-without-endpoints", "involution-not-an-object",
        "signs-not-an-object"])
def test_bad_quiver_files_are_refused(data, message, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert cli.main(["validate", str(path)]) == 1
    one_error_line(capsys, message)


def test_library_refusals():
    kron = kronecker_variant((1, 1), 1)
    with pytest.raises(ValueError, match=r"^calibration signs must be \+1 "
                                         r"or -1$"):
        make_calibration(kron, 0, 1)
    with pytest.raises(CalibrationError,
                       match="^quiver has no calibration attached$"):
        verify_calibration(kron)

    slope = Slope.trivial(kron)
    with pytest.raises(ValueError,
                       match=r"^\(1, 0\) is not a self-dual class$"):
        sd_semistable_integral(kron, slope, (1, 0))

    pt = point_quiver(1)
    with pytest.raises(ValidationError, match="^slope weight length does not "
                                              "match quiver$"):
        SlopePair(kron, Slope.trivial(pt), slope)
    table = epsilon_table(kron, slope, 2)
    twin = kronecker_variant((1, 1), 1)
    with pytest.raises(ValidationError, match="^table and slope pair use "
                                              "different quivers$"):
        wallcross_epsilon(table, SlopePair(twin, slope, slope))

    for motive in (motive_gl, motive_o):
        with pytest.raises(ValueError, match="^negative rank$"):
            motive(-1)

    one = {0: Fraction(1)}
    with pytest.raises(ZeroDivisionError, match="^zero denominator$"):
        RatFunc.from_frac_polys(0, one, {0: Fraction(0)})
    with pytest.raises(ZeroDivisionError, match="^reciprocal of zero$"):
        RatFunc(0).reciprocal()
    with pytest.raises(ZeroDivisionError, match="^reciprocal of zero$"):
        RatFunc(1) / RatFunc(0)
    pole = RatFunc.from_frac_polys(0, one, {2: Fraction(1), 0: Fraction(-1)})
    with pytest.raises(ZeroDivisionError,
                       match="^denominator vanishes at substitution$"):
        pole.subs_square(1)
