"""Exact motivic and numerical Donaldson-Thomas invariants of self-dual
quivers with zero potential, for arbitrary self-dual slope stability.

The engine works on integer numerators over the motive denominators
(quiver_dt.motives).  The twisted algebra, its bracket coefficients and the
stack classes as rational functions are the reference the tests check the
engine against, and live with the tests (tests/torus.py,
tests/reference.py)."""

from .invariants import (InvariantRow, InvariantTable, NoPoleViolation,
                         build_table, dt_mot, dt_num, epsilon_integral,
                         no_pole_report, sd_dt_mot, sd_dt_num,
                         sd_epsilon_integral, sd_semistable_integral,
                         semistable_integral, table_all_regular)
from .oracle import (CalibrationError, calibrate_signs, explain_calibration,
                     verify_calibration)
from .quiver import (Calibration, DimVector, SelfDualQuiver, Slope,
                     ValidationError)
from .ratfunc import PoleError, RatFunc
from .wallcross import (EpsilonTable, SlopePair, diff_tables, epsilon_table,
                        wallcross_epsilon)

__all__ = [
    "Calibration",
    "CalibrationError",
    "DimVector",
    "EpsilonTable",
    "InvariantRow",
    "InvariantTable",
    "NoPoleViolation",
    "PoleError",
    "RatFunc",
    "SelfDualQuiver",
    "Slope",
    "SlopePair",
    "ValidationError",
    "build_table",
    "calibrate_signs",
    "diff_tables",
    "dt_mot",
    "dt_num",
    "epsilon_integral",
    "epsilon_table",
    "explain_calibration",
    "no_pole_report",
    "sd_dt_mot",
    "sd_dt_num",
    "sd_epsilon_integral",
    "sd_semistable_integral",
    "semistable_integral",
    "table_all_regular",
    "verify_calibration",
    "wallcross_epsilon",
]
