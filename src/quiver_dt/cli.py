"""Command-line front end.

Subcommands:
  validate             check a quiver file for structural consistency
  dt                   invariant table for a quiver, slope, and bound
  wallcross            transform a table between two slopes and diff it
                       against the direct computation
  series               generating series of self-dual motivic invariants
                       along a ray of classes
  explain-calibration  show how the sign conventions are fixed and checked

Exit codes: 0 success, 1 validation failure (malformed arguments included),
2 regularity (no-pole) violation, 3 calibration failure.  main alone loads
the quiver file a command works on, and alone maps each error the load or
the command raises to its code, printed as one "error:" line.
"""

import argparse
import json
import re
import sys
from fractions import Fraction
from functools import cache
from math import gcd

from .invariants import (NoPoleViolation, build_table, json_text,
                         no_pole_report, sd_dt_mot)
from .oracle import CalibrationError, explain_calibration
from .quiver import (SelfDualQuiver, Slope, UncalibratedError,
                     ValidationError, graded_lex_key, vtotal)
from .wallcross import (SlopePair, diff_tables, epsilon_table,
                        wallcross_epsilon)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NO_POLE = 2
EXIT_CALIBRATION = 3


def load_quiver(path: str) -> SelfDualQuiver:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    return SelfDualQuiver.from_data(data)


def _entries(text: str, what: str, form: str):
    """(item, vertex, value text) for each comma-separated entry
    vertex=value of text, refusing an entry of another form and a vertex
    named twice."""
    seen = set()
    for item in text.split(","):
        key, sep, val = item.partition("=")
        if not sep:
            raise ValidationError(
                f"{what} entry {item!r} is not of the form vertex={form}")
        key = key.strip()
        if key in seen:
            raise ValidationError(f"{what} names vertex {key} twice")
        seen.add(key)
        yield item, key, val.strip()


# A decimal in exponent form as Fraction reads it: (mantissa, exponent).
_EXPONENT_FORM = re.compile(r"\s*([-+]?(?=\.?\d)(?:\d+(?:_\d+)*)?"
                            r"(?:\.(?:\d+(?:_\d+)*)?)?)"
                            r"[eE]([-+]?\d+(?:_\d+)*)\s*")


def _weight(item: str, val: str) -> Fraction:
    """The slope weight written val in the entry item.  Tables print the
    weights in full (Slope.to_dict), and str() refuses an integer longer
    than the interpreter's digit limit, so such a weight is refused.  So is
    a nonzero weight whose decimal exponent alone exceeds that limit, before
    Fraction multiplies out the power of ten in time superlinear in the
    exponent; with a zero mantissa the weight is zero."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    form = _EXPONENT_FORM.fullmatch(val)
    try:
        huge = bool(form and limit and abs(int(form[2])) > limit)
        weight = Fraction(form[1] if huge else val)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"slope entry {item!r}: {exc}") from exc
    too_long = ValidationError(
        f"slope entry {item!r}: weight has too many digits to print")
    if huge and weight:
        raise too_long
    try:
        str(weight)
    except ValueError:
        raise too_long from None
    return weight


def parse_slope(quiver: SelfDualQuiver, text: "str | None") -> Slope:
    if not text:
        return Slope.trivial(quiver)
    return Slope.from_dict(quiver, {
        key: _weight(item, val)
        for item, key, val in _entries(text, "slope", "value")})


def parse_ray(quiver: SelfDualQuiver, text: str):
    mapping = {}
    for item, key, val in _entries(text, "ray", "integer"):
        if key not in quiver.vertex_index:
            raise ValidationError(f"ray names unknown vertex {key}")
        try:
            mapping[key] = int(val)
        except ValueError as exc:
            raise ValidationError(f"ray entry {item!r}: {exc}") from exc
    ray = tuple(mapping.get(x, 0) for x in quiver.vertices)
    if vtotal(ray) == 0 or min(ray) < 0:
        raise ValidationError("ray must be a nonzero class")
    if not quiver.is_sd_class(ray):
        raise ValidationError("ray is not a self-dual class")
    return ray


def _emit(text: str, output: "str | None") -> None:
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
                if not text.endswith("\n"):
                    fh.write("\n")
        except OSError as exc:
            raise ValidationError(f"cannot write {output}: {exc}") from exc
    else:
        print(text)


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def cmd_validate(args, quiver: SelfDualQuiver) -> int:
    report = [
        f"quiver file: {args.quiver}",
        f"vertices: {len(quiver.vertices)} "
        f"({len(quiver.fixed_vertices)} fixed, "
        f"{len(quiver.vertex_pairs)} swapped pairs)",
        f"edges: {len(quiver.edges)} "
        f"({len(quiver.fixed_edges)} fixed, "
        f"{len(quiver.edge_pairs)} swapped pairs)",
        "structure: ok",
    ]
    _emit("\n".join(report), args.output)
    return EXIT_OK


def cmd_dt(args, quiver: SelfDualQuiver) -> int:
    slope = parse_slope(quiver, args.slope)
    table = build_table(quiver, slope, args.bound)
    text = (table.to_json() if args.format == "json" else
            "\n".join(",".join(row) for row in table.csv_rows()))
    _emit(text, args.output)
    bad = [r for r in no_pole_report(table) if not r["ok"]]
    if bad:
        for row in bad:
            print(f"error: regularity violation for {row['side']} class "
                  f"{row['class']}: pole orders {row['order_at_1']} at q=1, "
                  f"{row['order_at_-1']} at q=-1", file=sys.stderr)
        return EXIT_NO_POLE
    return EXIT_OK


def _class_rows(values: dict) -> list:
    return [{"class": list(a), "value": str(values[a])}
            for a in sorted(values, key=graded_lex_key)]


def _eps_table_data(table) -> dict:
    data = {
        "slope": table.slope.to_dict(table.quiver),
        "bound": table.bound,
        "eps": _class_rows(table.eps),
    }
    if table.sd_eps is not None:
        data["sd_eps"] = _class_rows(table.sd_eps)
    return data


def cmd_wallcross(args, quiver: SelfDualQuiver) -> int:
    plus = parse_slope(quiver, args.slope)
    minus = parse_slope(quiver, args.slope2)
    pair = SlopePair(quiver, plus, minus)
    source = epsilon_table(quiver, plus, args.bound)
    crossed = wallcross_epsilon(source, pair)
    direct = epsilon_table(quiver, minus, args.bound)
    diff = diff_tables(crossed, direct)
    payload = {
        "transformed": _eps_table_data(crossed),
        "direct": _eps_table_data(direct),
        "diff": [{"side": d["side"], "class": list(d["class"]),
                  "match": d["match"]} for d in diff],
        "all_match": all(d["match"] for d in diff),
    }
    _emit(json_text(payload), args.output)
    return EXIT_OK if payload["all_match"] else EXIT_VALIDATION


def _ray_for_series(quiver: SelfDualQuiver, bound: int,
                    ray_text: "str | None"):
    if ray_text:
        return parse_ray(quiver, ray_text)
    classes = [t for t in quiver.sd_classes_up_to(bound) if vtotal(t) > 0]
    if not classes:
        raise ValidationError("no nonzero self-dual classes up to the bound")
    smallest = classes[0]
    g = gcd(*smallest)
    primitive = tuple(x // g for x in smallest)
    for t in classes:
        k, rem = divmod(vtotal(t), vtotal(primitive))
        if rem or tuple(x * k for x in primitive) != t:
            raise ValidationError(
                "self-dual classes span more than one ray; pick one with --ray")
    return smallest


def _term(coeff, expo: Fraction) -> str:
    if expo == 0:
        return f"({coeff})"
    if expo == 1:
        return f"({coeff})*t"
    if expo.denominator == 1:
        return f"({coeff})*t^{expo.numerator}"
    return f"({coeff})*t^({expo})"


def cmd_series(args, quiver: SelfDualQuiver) -> int:
    slope = parse_slope(quiver, args.slope)
    slope.validate_self_dual(quiver)
    ray = _ray_for_series(quiver, args.bound, args.ray)
    g = gcd(*ray)
    terms = []
    for n in range(args.bound // vtotal(ray) + 1):
        theta = tuple(n * x for x in ray)
        coeff = sd_dt_mot(quiver, slope, theta, bound=args.bound)
        terms.append(_term(coeff, Fraction(n * g, 2)))
    _emit(" + ".join(terms), args.output)
    return EXIT_OK


def cmd_explain_calibration(args, quiver: SelfDualQuiver) -> int:
    text, ok = explain_calibration(quiver, bound=args.bound)
    _emit(text, args.output)
    return EXIT_OK if ok else EXIT_CALIBRATION


class _Parser(argparse.ArgumentParser):
    """An argument parser, its subparsers included, that exits with the
    validation code on a malformed command line: argparse's own 2 is the
    regularity-violation code here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every
    later main call in the process."""
    parser = _Parser(
        prog="quiver-dt",
        description="Exact motivic and numerical invariants of self-dual "
                    "quivers under slope stability.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, bound_default=4):
        p.add_argument("quiver", help="path to a quiver JSON file")
        p.add_argument("--bound", type=int, default=bound_default,
                       help="total dimension bound (default %(default)s)")
        p.add_argument("--output", help="write output to this file")

    p = sub.add_parser("validate", help="structural checks on a quiver file")
    p.add_argument("quiver", help="path to a quiver JSON file")
    p.add_argument("--output", help="write output to this file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("dt", help="full invariant table")
    add_common(p)
    p.add_argument("--slope", help='slope weights, e.g. "i=1,j=-1"')
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_dt)

    p = sub.add_parser("wallcross",
                       help="cross between two slopes and verify")
    add_common(p)
    p.add_argument("--slope", help="source slope weights")
    p.add_argument("--slope2", help="target slope weights")
    p.set_defaults(func=cmd_wallcross)

    p = sub.add_parser("series",
                       help="self-dual invariant series along a ray")
    add_common(p)
    p.add_argument("--slope", help="slope weights (self-dual)")
    p.add_argument("--ray", help='ray class, e.g. "i=1,j=1"')
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("explain-calibration",
                       help="derivation and checks of the sign conventions")
    add_common(p, bound_default=2)
    p.set_defaults(func=cmd_explain_calibration)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    bound = getattr(args, "bound", 1)
    if bound < 1:
        return _fail(f"--bound must be at least 1, not {bound}",
                     EXIT_VALIDATION)
    if bound >= sys.maxsize:
        return _fail(f"--bound must be below {sys.maxsize}, not {bound}",
                     EXIT_VALIDATION)
    try:
        return args.func(args, load_quiver(args.quiver))
    except (CalibrationError, UncalibratedError) as exc:
        return _fail(str(exc), EXIT_CALIBRATION)
    except NoPoleViolation as exc:
        return _fail(str(exc), EXIT_NO_POLE)
    except ValidationError as exc:
        return _fail(str(exc), EXIT_VALIDATION)


if __name__ == "__main__":
    sys.exit(main())
