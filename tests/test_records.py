"""The record contract: every record type the program returns is immutable,
equal (and hashing equal) to a copy rebuilt from its field values, and shown
by its class name.  Each instance comes from real program output."""

import functools
from fractions import Fraction

import pytest

from minkact.algebra import lift_constraints, standard_generator
from minkact.catalog import catalog, entry_by_id, match_catalog, nonproperness_witness
from minkact.group import translation
from minkact.linalg import causal_type, solve_linear, vec4
from minkact.orbits import ExpInvariant, cohomogeneity
from minkact.properness import (check_witness, clock_certificate,
                                fixed_point_nonproper_certificate)
from minkact.subalgebra import Subalgebra, closure_check, require_closed

SCREW = entry_by_id("T3:nilpotent-pair")
SCREW_PARAMS = {"lam": Fraction(1), "mu": Fraction(3)}  # a fixed point in Q(sqrt 13)^4


@functools.cache
def screw():
    """The screw subalgebra, its fixed-point certificate and its witness."""
    h = require_closed(SCREW.build(SCREW_PARAMS))
    cert = fixed_point_nonproper_certificate(h, SCREW.stratum_points(SCREW_PARAMS))
    return h, cert, nonproperness_witness(SCREW, SCREW_PARAMS, h)[0]


@functools.cache
def orbit_spaces():
    """The derived orbit space of every proper table record at its first default."""
    return [spaces(entry.defaults[0]) for entry in catalog()
            if (spaces := entry.orbit_space) is not None]


def proper_subalgebra():
    entry = entry_by_id("T2:SO2xR11")
    return require_closed(entry.build(entry.defaults[0]))


# record type -> a builder of one instance, from the shared seed-42 replay
RECORDS = {
    "LinearSolution": lambda _r: solve_linear([[1, 2], [3, 4]], [5, 6]),
    "CausalClass": lambda _r: causal_type([vec4(0, 0, 1, -1)]),
    "AlgebraElement": lambda _r: standard_generator("Ya"),
    "LiftFamily": lambda _r: lift_constraints([standard_generator("Ya").linear]),
    "Isometry": lambda _r: translation((1, 2, 3, 5)),
    "NotClosed": lambda _r: closure_check(map(standard_generator, ("Yk1", "Yk2"))),
    "Subalgebra": lambda _r: screw()[0],
    "SubalgebraInvariants": lambda _r: screw()[0].profile,
    "ExpInvariant": lambda _r: next(spec.invariant for spec in orbit_spaces()
                                    if isinstance(spec.invariant, ExpInvariant)),
    "QuadraticPoint": lambda _r: SCREW.stratum_points(SCREW_PARAMS)[0],
    "CohomReport": lambda _r: cohomogeneity(screw()[0]),
    "OrbitSpaceSpec": lambda _r: orbit_spaces()[0],
    "FixedPointCert": lambda _r: screw()[1],
    "ClockCertificate": lambda _r: clock_certificate(proper_subalgebra()),
    "WitnessSequence": lambda _r: screw()[2],
    "WitnessReport": lambda _r: check_witness(screw()[2]),
    "CatalogEntry": lambda _r: catalog()[0],
    "MatchResult": lambda _r: match_catalog(screw()[0])[0],
    "CheckResult": lambda r: r.reports[0].checks[0],
    "VerificationReport": lambda r: r.reports[0],
    "CatalogReport": lambda r: r,
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_immutable_values(name, seed42_report):
    record = RECORDS[name](seed42_report)
    cls = type(record)
    assert cls.__name__ == name
    values = {field: getattr(record, field) for field in cls.__annotations__}
    assert values
    for field, value in values.items():
        with pytest.raises(AttributeError):
            setattr(record, field, value)
    rebuilt = cls(**values)
    if cls is Subalgebra:  # equal only to itself
        assert rebuilt != record and record == record
    else:
        assert rebuilt == record
        try:
            expected = hash(record)
        except TypeError:  # a dict or Poly field
            pass
        else:
            assert hash(rebuilt) == expected
    assert repr(record).startswith(name + "(")
