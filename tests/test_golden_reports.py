"""``suite=all`` reports against golden files at seed 2024.

The files under tests/golden/ are whole reports written by
``report.report_to_json``.  Check ids, modes and verdicts must match
exactly; residuals may move by at most 1e-14 * max(1, |r|).  A change that
moves a row on purpose regenerates the file and says so.
"""

import json
from pathlib import Path

import pytest

from twistorcheck import report

GOLDEN = Path(__file__).parent / "golden"
REL_TOL = 1e-14


def _rows(rep):
    return [(c["check_id"], c["mode"], c["pass"]) for c in rep["checks"]]


@pytest.mark.parametrize("metric", ("flat", "eguchi_hanson", "burns", "fubini_study",
                                    "conformal_hermitian"))
def test_suite_all_matches_golden(metric):
    golden = json.loads((GOLDEN / f"suite_all_{metric}_2024.json").read_text())
    rep = json.loads(report.report_to_json(
        report.run_suite(report.SuiteConfig(metric=metric, suite="all", seed=2024))))
    assert _rows(rep) == _rows(golden)
    assert rep["overall_pass"] == golden["overall_pass"]
    for new, old in zip(rep["checks"], golden["checks"]):
        r_new, r_old = new["max_residual"], old["max_residual"]
        if isinstance(r_old, str):  # "inf" / "nan"
            assert r_new == r_old, new["check_id"]
        else:
            assert abs(r_new - r_old) <= REL_TOL * max(1.0, abs(r_old)), new["check_id"]
