"""The package's record types compare, hash and stay fixed by their fields,
and importing the package loads none of the modules it does not use."""

import ast
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import quiver_dt
from helpers import calibrated_kron
from quiver_dt.invariants import InvariantTable, build_table
from quiver_dt.quiver import Calibration, Edge, Slope
from quiver_dt.wallcross import epsilon_table

F = Fraction

# Pairs of records built from equal fields, and one with a field changed.
RECORDS = [
    (lambda: Slope((F(1), F(-1))), lambda: Slope((F(1), F(1, 2)))),
    (lambda: Calibration(-1, 1, (F(1, 2), F(-1, 2))),
     lambda: Calibration(-1, -1, (F(1, 2), F(-1, 2)))),
    (lambda: Edge("a", "i", "j"), lambda: Edge("a", "j", "i")),
]


@pytest.mark.parametrize("make, other", RECORDS,
                         ids=["Slope", "Calibration", "Edge"])
def test_records_are_equal_and_hash_equal_exactly_when_fields_are(make,
                                                                  other):
    a, b, c = make(), make(), other()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a != c and hash(a) != hash(c)
    assert len({a, b, c}) == 2


@pytest.mark.parametrize("make, other", RECORDS,
                         ids=["Slope", "Calibration", "Edge"])
def test_record_fields_cannot_be_assigned(make, other):
    rec = make()
    with pytest.raises(AttributeError):
        setattr(rec, rec._fields[0], other()[0])
    assert rec == make()


def test_invariant_table_round_trips_through_its_data():
    q = calibrated_kron()
    table = build_table(q, Slope.from_dict(q, {"i": 1, "j": -1}), 4)
    back = InvariantTable.from_data(table.to_data())
    assert back.rows == table.rows and back.sd_rows == table.sd_rows
    assert back == table
    with pytest.raises(AttributeError):
        table.bound = 5


def test_epsilon_tables_on_different_quiver_objects_are_unequal():
    q1, q2 = calibrated_kron(), calibrated_kron()
    slope = Slope.from_dict(q1, {"i": 1, "j": -1})
    t1, t2 = epsilon_table(q1, slope, 3), epsilon_table(q2, slope, 3)
    assert t1.eps == t2.eps and t1.sd_eps == t2.sd_eps
    assert not t1 == t2 and t1 != t2
    assert t1 == epsilon_table(q1, slope, 3)


@pytest.mark.parametrize("change", [
    lambda t: t._replace(bound=2),
    lambda t: t._replace(slope=Slope((F(1), F(-1, 2)))),
    lambda t: t._replace(eps={**t.eps, (1, 0): t.eps[(1, 0)] + 1}),
    lambda t: t._replace(sd_eps={**t.sd_eps, (1, 1): t.sd_eps[(1, 1)] + 1}),
    lambda t: t._replace(sd_eps=None),
], ids=["bound", "slope", "eps", "sd_eps", "no_sd_eps"])
def test_epsilon_tables_differing_in_one_field_are_unequal(change):
    q = calibrated_kron()
    slope = Slope.from_dict(q, {"i": 1, "j": -1})
    table = epsilon_table(q, slope, 3)
    assert table == epsilon_table(q, Slope((F(1), F(-1))), 3)
    other = change(table)
    assert not table == other and table != other


COLD_IMPORT = """
import importlib.util, sys
import quiver_dt, quiver_dt.cli, quiver_dt.oracle, quiver_dt.wallcross
print(" ".join(m for m in ("dataclasses", "inspect", "quiver_dt.torus")
               if m in sys.modules))
print(importlib.util.find_spec("quiver_dt.torus") is None)
"""


def test_importing_the_package_loads_no_unused_modules():
    """The package loads neither dataclasses nor inspect, has no torus
    module (the twisted algebra is test code, tests/torus.py), and no module
    of it imports a module of tests/."""
    # -S keeps site hooks from importing modules of their own.
    package = Path(quiver_dt.__file__).parent
    env = dict(os.environ, PYTHONPATH=str(package.parent))
    out = subprocess.run([sys.executable, "-S", "-c", COLD_IMPORT], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split("\n") == ["", "True", ""]
    tests = {"tests"} | {p.stem for p in Path(__file__).parent.glob("*.py")}
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module]
            else:
                continue
            assert not {n.split(".")[0] for n in names} & tests, path.name
