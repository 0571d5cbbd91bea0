"""Mutants: deliberate, named faults, each with a row it must flip.

A row that no fault can flip certifies nothing.  Each test here applies one
fault by monkeypatching and runs the suite that carries the row; the row
must then fail.  The rows are those of the fixed configuration below.
"""

import dataclasses

from twistorcheck import fibermap
from twistorcheck.report import SuiteConfig, run_suite

CONFIG = {"metric": "flat", "suite": "fibermap", "seed": 2024}
DEGENERATE_ROW = "fibermap.cylinder_flat_branch_degenerate"


def rows():
    """The rows of a ``suite=fibermap`` run, keyed by id."""
    return {r["check_id"]: r for r in run_suite(SuiteConfig.from_dict(CONFIG))["checks"]}


def test_non_constant_flat_branch_flips_the_degenerate_row(monkeypatch):
    # the cylinder's flat-meridian closed form is the quadrature map, which
    # is conformal and not constant
    solve_phi = fibermap.solve_phi

    def mutant(profile, c=0.0, sign=+1, branch="quadrature"):
        if profile.name == "cylinder" and branch == "flat_meridian_closed_form":
            branch = "quadrature"
        return solve_phi(profile, c=c, sign=sign, branch=branch)

    monkeypatch.setattr(fibermap, "solve_phi", mutant)
    got = rows()
    assert not got[DEGENERATE_ROW]["pass"]
    assert not got[DEGENERATE_ROW]["detail"]["flagged_degenerate"]
    assert all(r["pass"] for k, r in got.items() if k != DEGENERATE_ROW)


def test_blind_degeneracy_detector_flips_the_degenerate_row(monkeypatch):
    # the verifier never flags a constant map
    report = fibermap.conformality_report

    def mutant(samples):
        return dataclasses.replace(report(samples), degenerate=False)

    monkeypatch.setattr(fibermap, "conformality_report", mutant)
    got = rows()
    assert not got[DEGENERATE_ROW]["pass"]
    assert all(r["pass"] for k, r in got.items() if k != DEGENERATE_ROW)
