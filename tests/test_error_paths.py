"""Each refusal the other tests do not reach, reached the way a user reaches
it: through the command line where a quiver file or an argument carries the
bad input, and through the library otherwise.  A command-line refusal is
one "error:" line on stderr and exit code 1."""

import contextlib
import io
import json
import re
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from helpers import forbid_long_exponents
from test_properties import BUDGET
from quiver_dt import cli
from quiver_dt.invariants import (_engine, _seeded_engine, build_table,
                                  dt_num, epsilon_element, sd_dt_mot,
                                  sd_epsilon_element, sd_semistable_integral,
                                  slope_values)
from quiver_dt.oracle import CalibrationError, verify_calibration
from quiver_dt.quiver import (Slope, ValidationError, kronecker_variant,
                              make_calibration, point_quiver)
from quiver_dt.ratfunc import Laurent, RatFunc
from quiver_dt.wallcross import (SlopePair, diff_tables, epsilon_table,
                                 wallcross_epsilon)

FIXTURES = Path(cli.__file__).parent / "fixtures"
KRONECKER = str(FIXTURES / "kronecker_pm_plus.json")
TWO_PAIRS = str(Path(__file__).parent / "fixtures" / "two_pairs.json")


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


def edit(change, path=KRONECKER):
    data = json.loads(Path(path).read_text())
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
    (edit(lambda d: d["signs"].update(edges=False)),
     "edges must be an object, not False"),
    (edit(lambda d: d.update(involution=[])),
     "involution must be an object, not []"),
    (edit(lambda d: d.update(vertices=["i", "i"])), "duplicate vertex names"),
    (edit(lambda d: d["edges"][0].update({"from": "k"})),
     "edge a1 references unknown vertex"),
    (edit(lambda d: d["involution"]["vertices"].update(k="i")),
     "involution names unknown vertex k"),
    (edit(lambda d: d["involution"]["vertices"].update(j="j")),
     "vertex involution not involutive at i"),
    (edit(lambda d: d["involution"].update(vertices={})),
     "edge involution of a1 is not contravariant"),
    (edit(lambda d: d["signs"]["vertices"].update(i=2)),
     "vertex sign of i must be +1 or -1, not 2"),
    (edit(lambda d: d["signs"]["edges"].update(a1=0)),
     "edge sign of a1 must be +1 or -1, not 0"),
    (edit(lambda d: d["signs"]["vertices"].update(i=-1)),
     "vertex sign not involution-invariant at i"),
    (edit(lambda d: (d["involution"]["edges"].update(z="a1"),
                     d["involution"]["vertices"].update(j="j"))),
     "involution names unknown edge z"),
    (edit(lambda d: (d["signs"]["vertices"].update(k=1),
                     d["signs"]["edges"].update(a1=0))),
     "sign table names unknown vertex k"),
    (edit(lambda d: d["signs"]["edges"].update(f=-1), TWO_PAIRS),
     "edge sign pair of e violates the sign compatibility constraint"),
    (edit(lambda d: (d.update(signs=5),
                     d["involution"]["vertices"].update(i=2))),
     "signs must be an object, not 5"),
    (edit(lambda d: (d.update(vertices=["i", 3]),
                     d["involution"]["vertices"].update(i=2))),
     "vertex name must be a string, not 3"),
    (edit(lambda d: (d["involution"]["edges"].update(a1=1),
                     d.update(signs={"vertices": 5}))),
     "involution target must be a string, not 1"),
    (edit(lambda d: d.update(edges="")),
     "edges must be a list of rows, not ''"),
    (edit(lambda d: d.update(edges={})),
     "edges must be a list of rows, not {}"),
    (edit(lambda d: d.update(edges="ab")),
     "edges must be a list of rows, not 'ab'"),
    (edit(lambda d: d.update(edges={"a1": 1})),
     "edges must be a list of rows, not {'a1': 1}"),
    # null is no edges, so the involution names an edge that is not there.
    (edit(lambda d: d.update(edges=None)), "involution names unknown edge a1"),
    ({"vertices": 5, "edges": 5}, "vertices must be a list of names, not 5"),
], ids=["no-vertices", "duplicate-edge", "involution-unknown-edge",
        "involution-to-unknown-vertex", "involution-to-unknown-edge",
        "edge-involution-not-involutive", "sign-unknown-vertex",
        "sign-unknown-edge", "no-vertices-key", "not-an-object",
        "edge-row-without-endpoints", "involution-not-an-object",
        "signs-not-an-object", "false-edge-signs-not-an-object",
        "empty-list-involution-not-an-object", "duplicate-vertex",
        "edge-unknown-vertex", "involution-unknown-vertex", "vertex-involution-not-involutive",
        "edge-involution-not-contravariant", "vertex-sign-not-a-sign",
        "edge-sign-not-a-sign", "vertex-sign-not-invariant",
        "unknown-edge-before-vertex-involution",
        "unknown-sign-key-before-sign-value", "edge-sign-pair-incompatible",
        "signs-object-before-involution-target",
        "vertex-name-before-involution-target",
        "involution-target-before-sign-table", "empty-string-edges",
        "empty-object-edges", "string-edges", "object-edges", "null-edges",
        "vertices-before-edges"])
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

    # A pair whose weight count is not the quiver's vertex count is refused
    # first, by the engine's rule, before the table's slope is compared or
    # any engine is read.
    pt = point_quiver(1)
    table = epsilon_table(kron, slope, 2)
    engines = dict(kron.engine_cache)
    for pair in (SlopePair(kron, slope, Slope.trivial(pt)),
                 SlopePair(kron, Slope.trivial(pt), slope)):
        with pytest.raises(ValidationError,
                           match="^slope has 1 weights for 2 vertices$"):
            wallcross_epsilon(table, pair)
    assert kron.engine_cache == engines
    twin = kronecker_variant((1, 1), 1)
    with pytest.raises(ValidationError, match="^table and slope pair use "
                                              "different quivers$"):
        wallcross_epsilon(table, SlopePair(twin, slope, slope))
    with pytest.raises(ValidationError, match="^cannot compare tables on "
                                              "different quivers$"):
        diff_tables(table, epsilon_table(pt, Slope.trivial(pt), 2))

    one = {0: Fraction(1)}
    with pytest.raises(ZeroDivisionError, match="^zero denominator$"):
        RatFunc.from_frac_polys(0, one, {0: Fraction(0)})
    with pytest.raises(ZeroDivisionError, match="^reciprocal of zero$"):
        RatFunc(0).reciprocal()
    with pytest.raises(ZeroDivisionError, match="^reciprocal of zero$"):
        RatFunc(1) / RatFunc(0)

    # A weight Slope(...) would be refused for (see _engine) is refused by
    # name too, as is one that Fraction cannot read.
    for val, message in [
            (0.1, " is a float, not an int, a Fraction or a str"),
            (True, " is a bool, not an int, a Fraction or a str"),
            ("1/0", ": Fraction(1, 0)"),
            (None, ": argument should be a string or a Rational instance"),
            ("x", ": Invalid literal for Fraction: 'x'"),
            ("1e4300", ": weight has too many digits to print"),
            (10 ** 4300, ": weight has too many digits to print")]:
        pattern = "^slope weight of vertex i" + re.escape(message) + "$"
        with pytest.raises(ValidationError, match=pattern):
            Slope.from_dict(kron, {"i": val})
    assert Slope.from_dict(kron, {"i": "-3/2", "j": Fraction(3, 2)}) == \
        Slope((Fraction(-3, 2), Fraction(3, 2)))

    # A bound whose type is not int, a bool's included, is refused before
    # anything is calibrated or enumerated, the class lists' caches too, and
    # so is a slope whose weight count is not the vertex count.
    fresh = kronecker_variant((1, 1), 1)
    hn = Slope.from_dict(fresh, {"i": 1, "j": -1})
    short = Slope((Fraction(1),))
    for call in [lambda: dt_num(fresh, short, (1, 1)),
                 lambda: build_table(fresh, short, 2),
                 lambda: epsilon_table(fresh, short, 2),
                 lambda: slope_values(fresh, short, 2),
                 lambda: epsilon_element(fresh, short, Fraction(0), 2),
                 lambda: sd_epsilon_element(fresh, short, 2)]:
        with pytest.raises(ValidationError,
                           match="^slope has 1 weights for 2 vertices$"):
            call()
    assert fresh.sd_classes_up_to(1) == [(0, 0)]
    for call, shown in [
            (lambda: build_table(fresh, slope, 2.5), "2.5"),
            (lambda: build_table(fresh, slope, None), "None"),
            (lambda: build_table(fresh, slope, True), "True"),
            (lambda: epsilon_table(fresh, slope, "3"), "'3'"),
            (lambda: verify_calibration(fresh, 2.5), "2.5"),
            (lambda: dt_num(fresh, slope, (1, 1), bound="2"), "'2'"),
            (lambda: dt_num(fresh, slope, (1, 1), bound=0.5), "0.5"),
            (lambda: slope_values(fresh, hn, 2.5), "2.5"),
            (lambda: slope_values(fresh, hn, True), "True"),
            (lambda: epsilon_element(fresh, hn, Fraction(0), 2.5), "2.5"),
            (lambda: sd_epsilon_element(fresh, hn, "3"), "'3'"),
            (lambda: fresh.dim_vectors_up_to(True), "True"),
            (lambda: fresh.sd_classes_up_to(True), "True")]:
        pattern = "^bound must be an int, not " + re.escape(shown) + "$"
        with pytest.raises(ValidationError, match=pattern):
            call()
    assert fresh.calibration is None and not fresh.engine_cache


def test_library_refuses_a_long_exponent_without_expanding_it(monkeypatch):
    """Slope.from_dict reads a weight by the command line's rule: a nonzero
    weight whose decimal exponent exceeds the digit limit is refused before
    Fraction multiplies out its power of ten."""
    kron = kronecker_variant((1, 1), 1)
    forbid_long_exponents(monkeypatch)
    with pytest.raises(ValidationError, match="^slope weight of vertex i: "
                                              "weight has too many digits to "
                                              "print$"):
        Slope.from_dict(kron, {"i": "1e2000000"})
    assert Slope.from_dict(kron, {"i": "0e999999999"}) == Slope.trivial(kron)


def test_a_class_the_query_gate_refuses_is_a_validation_error():
    """A class beyond the bound, and a class that is not self-dual asked for
    a self-dual value, are refused at the query gate as a malformed class
    is: a ValidationError, which cli.main maps to exit 1.  A seeded engine's
    refusal of a class beyond its seed is no caller's input, and stays a
    plain ValueError."""
    kron = kronecker_variant((1, 1), 1)
    slope = Slope.from_dict(kron, {"i": 1, "j": -1})
    with pytest.raises(ValidationError,
                       match=r"^class \(2, 2\) lies beyond the bound 3$"):
        dt_num(kron, slope, (2, 2), bound=3)
    for query in (sd_semistable_integral, sd_dt_mot):
        with pytest.raises(ValidationError,
                           match=r"^\(2, 1\) is not a self-dual class$"):
            query(kron, slope, (2, 1))
    eng = _seeded_engine(_engine(kron, slope), {(1, 0): Laurent({5: 1}),
                                                (0, 1): Laurent({0: 1})}, None)
    with pytest.raises(ValueError, match=r"^\(1, 1\) lies beyond the seeded "
                                         r"bound 1$") as err:
        eng.epsilon((1, 1))
    assert type(err.value) is ValueError


# -- the command line on mutated quiver files ---------------------------------

FUZZ_FILES = [FIXTURES / "kronecker_pm_plus.json",
              FIXTURES / "point_minus.json",
              *(Path(__file__).parent / "fixtures" / f"{name}.json"
                for name in ("cycle", "mixed", "two_pairs"))]
NAMES = ["i", "j", "k", "l", "a", "a1", "b", "c", "name", "from", "to",
         "vertices", "edges", "\u00e9", "\u4e2d"]
JUNK = st.one_of(
    st.none(), st.booleans(), st.floats(), st.sampled_from(NAMES),
    st.integers(-2, 2), st.sampled_from([2 ** 63, -10 ** 40, 10 ** 40]),
    st.lists(st.integers(-1, 1), max_size=2),
    st.dictionaries(st.sampled_from(NAMES), st.integers(-1, 1), max_size=2),
    st.text(alphabet="ij\u00e9\u00df\u4e2d\u2212", max_size=3))
# The options each command declares that take text, beside --bound and
# --output.
COMMANDS = {"validate": (), "dt": ("slope",), "wallcross": ("slope", "slope2"),
            "series": ("slope", "ray"), "explain-calibration": ()}
OPTION_TEXT = st.one_of(
    st.text(alphabet="ijkx=,-+/.0123456789e_ \u00e9", max_size=10),
    st.lists(st.tuples(st.sampled_from(["i", "j", "k", "l", "x", "\u00e9"]),
                       st.sampled_from(["1", "-1", "0", "2", "1/2", "-3/2",
                                        "x", "", "1/0", "1e4300", "0.5"])),
             max_size=3).map(lambda es: ",".join(f"{k}={v}" for k, v in es)))


@st.composite
def mutated_json(draw):
    """The JSON data of one of FUZZ_FILES with up to three changes, each at
    a place reached by walking down from the top: the value there replaced
    by junk, or an entry of it deleted or added."""
    data = json.loads(draw(st.sampled_from(FUZZ_FILES)).read_text())
    for _ in range(draw(st.integers(0, 3))):
        parent, key, node = None, None, data
        while isinstance(node, (dict, list)) and node and draw(st.booleans()):
            parent = node
            key = draw(st.sampled_from(
                sorted(node) if isinstance(node, dict) else range(len(node))))
            node = node[key]
        how = draw(st.sampled_from(["replace", "delete", "add"]))
        if how == "replace" or not isinstance(node, (dict, list)):
            if parent is None:
                data = draw(JUNK)
            else:
                parent[key] = draw(JUNK)
        elif how == "delete" and node:
            del node[draw(st.sampled_from(
                sorted(node) if isinstance(node, dict) else range(len(node))))]
        elif isinstance(node, dict):
            node[draw(st.sampled_from(NAMES))] = draw(JUNK)
        else:
            node.insert(draw(st.integers(0, len(node))), draw(JUNK))
    return data


@settings(BUDGET, max_examples=200)
@given(mutated_json(), st.sampled_from(sorted(COMMANDS)), st.integers(1, 3),
       st.fixed_dictionaries({}, optional={
           option: OPTION_TEXT for option in ("slope", "slope2", "ray")}))
def test_the_command_line_refuses_mutated_input_cleanly(data, command, bound,
                                                        texts):
    """On a mutated quiver file and drawn option text, each command returns
    a documented exit code and raises nothing, and exit 1 is one "error:"
    line on stderr.  Each option is given in --option=TEXT form, and only
    to a command that declares it, so argparse takes every line."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "quiver.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        argv = [command, str(path), f"--output={Path(tmp) / 'out.txt'}"]
        if command != "validate":
            argv.append(f"--bound={bound}")
        argv += [f"--{option}={text}" for option, text in texts.items()
                 if option in COMMANDS[command]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert code in (0, 1, 2, 3), argv
    assert out.getvalue() == ""
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), (argv, lines)
