import json
import math
import re
from pathlib import Path

import pytest

import metrics

BENCH = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _per_layer():
    return metrics.per_layer({}, metrics.Tally(), 2.0, 1.0, 0.5)


def _end_to_end():
    return metrics.end_to_end(1.5, 10, [0.5], [80.0])


def test_printed_names_match_benchmark_json():
    for values, key in ((_end_to_end(), "end_to_end"), (_per_layer(), "per_layer")):
        declared = [d["name"] for d in BENCH[key]]
        assert sorted(values) == sorted(declared)
        assert len(set(declared)) == len(declared)
        assert all(NAME.match(n) for n in declared)
        out = metrics.with_units(values, BENCH[key])
        assert all(set(v) == {"value", "unit"} for v in out.values())


def test_with_units_rejects_a_missing_metric():
    values = _end_to_end()
    del values["wall_s"]
    with pytest.raises(KeyError):
        metrics.with_units(values, BENCH["end_to_end"])


def test_compare_checks_counts_mismatches_verdicts_and_drift():
    pinned = [["a", "below", True, 1e-15], ["b", "exceeds", True, 5.0],
              ["c", "below", False, 3.0], ["d", "skipped", True, "nan"]]
    same = [list(r) for r in pinned]
    same[0][3] = 3e-15
    mism, fails, drift = metrics.compare_checks(same, pinned)
    assert (mism, fails) == (0, 1) and drift == pytest.approx(2e-15)
    flipped = [list(r) for r in pinned]
    flipped[1][2] = False
    assert metrics.compare_checks(flipped, pinned)[0] == 1
    assert metrics.compare_checks(pinned[:3], pinned)[0] == 1


def test_tally_ratio_counts_failed_verdicts_over_attempts():
    t = metrics.Tally()
    pinned = [["a", "below", True, 0.0], ["b", "below", False, 1.0]]
    t.add_checks(pinned, pinned)
    t.fail()  # e.g. traced output unequal to untraced
    assert (t.attempted, t.failed, t.verdict_failures) == (3, 1, 1)
    assert t.check_fail_ratio == pytest.approx(1 / 3)
    assert not math.isnan(t.drift)
