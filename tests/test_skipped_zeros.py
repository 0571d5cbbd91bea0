"""No report reads the bytes that the skipped zero terms can move.

``jets.JetSpace.sum_terms`` leaves out every term that reads a component
which is +0.0 or -0.0 in every coefficient at every point, and
``kahler._self_dual`` forms only the products of two live frame components.
That keeps every value, but can turn a zero from +0.0 to -0.0.  These tests
run the suites once as built and once with every term formed (the one mask,
``jets.nonzero_components``, patched to call every component live) and ask
for byte-identical reports: ``suite=all`` on every fixture at seed 2024, at
the default point count, at 7 and at one point, and the benchmark's dense
balanced run (Eguchi-Hanson, 400 points).
"""

import math

import pytest

import scalar_reference as ref
from twistorcheck import kahler, report


def _report(**config) -> str:
    return report.report_to_json(report.run_suite(report.SuiteConfig(**config)))


def _assert_same_report(**config):
    built = _report(**config)
    with ref.whole_grids():
        whole = _report(**config)
    assert built == whole


@pytest.mark.parametrize("points", (None, 7, 1))
@pytest.mark.parametrize("metric", sorted(kahler.FIXTURES))
def test_suite_all_reads_no_skipped_zero(metric, points):
    _assert_same_report(metric=metric, suite="all", seed=2024, sample_count=points)


def test_dense_balanced_reads_no_skipped_zero():
    _assert_same_report(metric="eguchi_hanson", suite="balanced", seed=2024, sample_count=400)


def test_whole_grids_form_every_term(multiply_calls):
    # the patched mask reaches the sums: on flat, whose connection and
    # Christoffel symbols are zero, whole grids form nine times the products
    def products():
        multiply_calls.clear()
        _report(metric="flat", suite="balanced", seed=2024, sample_count=7)
        return sum(math.prod(shape) for shape in multiply_calls)

    built = products()
    with ref.whole_grids():
        assert products() > 4 * built
