"""CLI output pinned byte for byte by sha256 digests.

tests/golden_outputs.json holds, for each command line below, the exit code
and the sha256 of what the command prints to stdout.  tests/golden_fields.json
holds, for each dt command line, the sha256 of the canonical fields of every
J, eps and DTmot of its table, which pins what the printed forms may not show
(the content of num, say).  A change that is meant to keep every output and
canonical form the same must leave both files as they are.  To record them
again, after a change that is meant to alter them, run from the repo root:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from quiver_dt import cli

GOLDEN = Path(__file__).parent / "golden_outputs.json"
FIELDS = Path(__file__).parent / "golden_fields.json"
FIXTURES = Path(cli.__file__).parent / "fixtures"
# Quivers with a nonzero commutation form, written from tests/helpers.py
# (calibrated_cycle, calibrated_mixed, two_pairs_quiver) by to_data().
TWISTED = Path(__file__).parent / "fixtures"

POINTS = ["point_plus", "point_minus"]
KRONECKERS = [f"kronecker_{e}_{v}" for v in ("plus", "minus")
              for e in ("pp", "pm", "mm")]
TWO_SLOPES = ("i=1,j=-1", "i=-1,j=1")


def golden_commands():
    """Each pinned command line, keyed by a readable name."""
    commands = {}
    for name in POINTS + KRONECKERS:
        path = str(FIXTURES / f"{name}.json")
        slopes = [None] + ([TWO_SLOPES[0]] if name in KRONECKERS else [])
        for slope in slopes:
            for fmt in ("json", "csv"):
                argv = ["dt", path, "--bound", "6", "--format", fmt]
                if slope:
                    argv += ["--slope", slope]
                commands[f"dt {name} {slope or 'trivial'} {fmt}"] = argv
        commands[f"series {name}"] = ["series", path, "--bound", "4"]
        commands[f"explain-calibration {name}"] = [
            "explain-calibration", path]
    for name in KRONECKERS:
        path = str(FIXTURES / f"{name}.json")
        for src, dst in (TWO_SLOPES, TWO_SLOPES[::-1]):
            commands[f"wallcross {name} {src} to {dst}"] = [
                "wallcross", path, "--bound", "4",
                "--slope", src, "--slope2", dst]
    # Classes whose decompositions have twists, where a series can choose
    # between Miller's recurrence and the star powers.
    for name, slopes in (("cycle", [None, "i=1,k=-1"]),
                         ("mixed", [None, "i=1,k=-1"]),
                         ("two_pairs", [None])):
        path = str(TWISTED / f"{name}.json")
        for slope in slopes:
            for fmt in ("json", "csv"):
                argv = ["dt", path, "--bound", "4", "--format", fmt]
                if slope:
                    argv += ["--slope", slope]
                commands[f"dt {name} {slope or 'trivial'} {fmt}"] = argv
    for name, src, dst in (("cycle", None, "i=1,k=-1"),
                           ("mixed", "i=1,k=-1", "i=-1,k=1"),
                           ("two_pairs", None, "a=1,d=-1")):
        argv = ["wallcross", str(TWISTED / f"{name}.json"), "--bound", "3",
                "--slope2", dst]
        if src:
            argv += ["--slope", src]
        commands[f"wallcross {name} {src or 'trivial'} to {dst}"] = argv
    return commands


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    return {"exit": code, "sha256": digest}


def current_outputs():
    return {key: run(argv) for key, argv in golden_commands().items()}


def table_fields(argv):
    """The sha256 of (str(_scale), _shift, sorted(_num.items()),
    sorted(_den.items())) of every J, eps and DTmot of the table that the
    dt command line argv prints, row by row."""
    args = cli.build_parser().parse_args(argv)
    quiver = cli.load_quiver(args.quiver)
    table = cli.build_table(quiver, cli.parse_slope(quiver, args.slope),
                            args.bound)
    fields = [(str(f._scale), f._shift, sorted(f._num.items()),
               sorted(f._den.items()))
              for r in table.rows + table.sd_rows
              for f in (r.semistable, r.epsilon, r.dt_motivic)]
    return hashlib.sha256(repr(fields).encode("utf-8")).hexdigest()


def field_commands():
    """The json dt command lines of golden_commands (a csv line prints the
    same table), and the bound-8 table of kronecker_pm_plus at i=1,j=-1,
    the smallest fixture table where a numerator has a content other than
    1: at class (4, 4), eps = DTmot = 3/8."""
    commands = {key: argv for key, argv in golden_commands().items()
                if argv[0] == "dt" and "csv" not in argv}
    commands[f"dt kronecker_pm_plus {TWO_SLOPES[0]} bound 8"] = [
        "dt", str(FIXTURES / "kronecker_pm_plus.json"), "--bound", "8",
        "--slope", TWO_SLOPES[0]]
    return commands


def current_fields():
    return {key: table_fields(argv) for key, argv in field_commands().items()}


def test_cli_outputs_match_golden_digests():
    want = json.loads(GOLDEN.read_text())
    got = current_outputs()
    assert sorted(got) == sorted(want)
    changed = [key for key in want if got[key] != want[key]]
    assert not changed, changed


def test_canonical_fields_match_golden_digests():
    want = json.loads(FIELDS.read_text())
    got = current_fields()
    assert sorted(got) == sorted(want)
    changed = [key for key in want if got[key] != want[key]]
    assert not changed, changed


if __name__ == "__main__":
    for path, record in ((GOLDEN, current_outputs), (FIELDS, current_fields)):
        path.write_text(json.dumps(record(), indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}", file=sys.stderr)
