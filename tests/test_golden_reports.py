"""``suite=all`` reports against golden files at seed 2024.

The files under tests/golden/ are whole reports written by
``report.report_to_json``.  Every field of every check record must match:
check id, anchor, points tested, mode, verdict and every entry of the
detail exactly, and each float (residual, threshold, float detail entries)
to within 1e-14 * max(1, |x|).  A change that moves a row on purpose
regenerates the file and says so.
"""

import json
from pathlib import Path

import pytest

from twistorcheck import report

GOLDEN = Path(__file__).parent / "golden"
REL_TOL = 1e-14


def _rows(rep):
    return [(c["check_id"], c["mode"], c["pass"]) for c in rep["checks"]]


def _assert_matches(new, old, where):
    """``new`` equals ``old``, except that floats may move by REL_TOL."""
    if isinstance(old, dict):
        assert isinstance(new, dict) and sorted(new) == sorted(old), where
        for key in old:
            _assert_matches(new[key], old[key], f"{where}.{key}")
    elif isinstance(old, float):
        assert isinstance(new, float), where
        assert abs(new - old) <= REL_TOL * max(1.0, abs(old)), where
    else:  # str ("inf" / "nan" included), int, bool, None
        assert type(new) is type(old) and new == old, where


@pytest.mark.parametrize("metric", ("flat", "eguchi_hanson", "burns", "fubini_study",
                                    "conformal_hermitian"))
def test_suite_all_matches_golden(metric):
    golden = json.loads((GOLDEN / f"suite_all_{metric}_2024.json").read_text())
    rep = json.loads(report.report_to_json(
        report.run_suite(report.SuiteConfig(metric=metric, suite="all", seed=2024))))
    assert _rows(rep) == _rows(golden)
    assert rep["overall_pass"] == golden["overall_pass"]
    for new, old in zip(rep["checks"], golden["checks"]):
        _assert_matches(new, old, new["check_id"])
