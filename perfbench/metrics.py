"""Metric arithmetic on worker outputs: correctness against pins,
end-to-end metrics and per-layer metrics.  No I/O, no package import."""

from __future__ import annotations

import math
import statistics

import workloads

SUITES = ("curvature", "integrability", "structure_identities", "balanced",
          "cone", "fibermap", "completeness")


def _residual(value):
    return float(value) if isinstance(value, (int, float)) else math.nan


def compare_checks(rows, pinned):
    """Compare a report's check rows with the pinned seed-commit rows.

    Returns (mismatches, verdict_failures, residual_drift_max).  A row
    matches when its check id, mode and verdict equal the pin's; drift is
    the largest |residual - pinned residual| over affirmative checks.
    """
    mismatches = abs(len(rows) - len(pinned))
    drift = 0.0
    for row, pin in zip(rows, pinned):
        if row[:3] != pin[:3]:
            mismatches += 1
            continue
        if row[1] == "below":
            d = abs(_residual(row[3]) - _residual(pin[3]))
            if math.isfinite(d):
                drift = max(drift, d)
    verdict_failures = sum(1 for r in rows if not r[2])
    return mismatches, verdict_failures, drift


class Tally:
    """Attempted and failed operations of a run, and their verdicts."""

    def __init__(self):
        self.attempted = 0   # check records compared
        self.failed = 0      # records that disagree with the pins, unequal traced output
        self.verdict_failures = 0  # failed check records (an aborted suite records failures)
        self.drift = 0.0

    def add_checks(self, rows, pinned):
        mismatches, verdict_failures, drift = compare_checks(rows, pinned)
        self.attempted += max(len(rows), len(pinned))
        self.failed += mismatches
        self.verdict_failures += verdict_failures
        self.drift = max(self.drift, drift)

    def fail(self, n=1):
        self.attempted += n
        self.failed += n

    @property
    def check_fail_ratio(self):
        return self.verdict_failures / self.attempted if self.attempted else 0.0


# -- end to end -----------------------------------------------------------------

def end_to_end(pass_wall, points, setups, rss):
    """The end-to-end metrics of BENCHMARK.json from one run's samples.

    ``pass_wall``: mean seconds per pass over the run.  The passes repeat
    identical work, and on a shared host whose speed switches between levels
    within a run the mean moves smoothly where the median jumps between
    levels.  ``points``: points tested per pass; ``setups``: set-up samples
    (median); ``rss``: peak RSS samples in MB (max).
    """
    return {
        "wall_s": pass_wall,
        "points_per_s": points / pass_wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(rss),
    }


# -- per layer ------------------------------------------------------------------

def sum_traces(traces):
    out = {}
    for t in traces:
        for k, v in t.items():
            out[k] = out.get(k, 0) + v
    return out


def per_layer(t, tally, traced_wall, untraced_wall, import_s):
    """Per-layer metrics from summed span/kernel sums ``t`` (spans.summarize
    of every traced process of the run)."""
    g = lambda key: t.get(key, 0)
    m = {
        "jets.multiply.calls": g("jets.multiply.calls"),
        "jets.multiply.self_s": g("jets.multiply.self_s"),
        "jets.multiply.mb_computed": g("jets.multiply.bytes") / 1e6,
        "jets.elementary.calls": g("jets.elementary.calls"),
        "jets.elementary.self_s": g("jets.elementary.self_s"),
        # nested builds (a space builds its lower orders) add up to the total
        "jets.get_space.build_s": g("jets.get_space.self_s"),
        "kahler.metric_jets.calls": g("kahler.metric_jets.calls"),
        "kahler.adapted_frame.calls": g("kahler.adapted_frame.calls"),
        "kahler.adapted_frame.self_s": g("kahler.adapted_frame.self_s"),
        "kahler.beta_form.calls": g("kahler.beta_form.calls"),
        "kahler.beta_form.self_s": g("kahler.beta_form.self_s"),
        "geometry.christoffel_jets.dim4.calls": g("geometry.christoffel_jets.dim4.calls"),
        "geometry.christoffel_jets.dim4.self_s": g("geometry.christoffel_jets.dim4.self_s"),
        "geometry.christoffel_jets.dim6.calls": g("geometry.christoffel_jets.dim6.calls"),
        "geometry.christoffel_jets.dim6.self_s": g("geometry.christoffel_jets.dim6.self_s"),
        "geometry.curvature_data.self_s": g("geometry.curvature_data.self_s"),
        "twistor.calibrate_epsilon.s": g("twistor.calibrate_epsilon.total_s"),
        "twistor.chart_eval.calls": g("twistor.chart_eval.calls"),
        "twistor.chart_eval.points": g("twistor.chart_eval.points"),
        "twistor.chart_eval.self_s": g("twistor.chart_eval.self_s"),
        "twistor.chart_eval.total_s": g("twistor.chart_eval.total_s"),
        "twistor.chart_eval.ms_per_point": (
            1000.0 * g("twistor.chart_eval.total_s") / g("twistor.chart_eval.points")
            if g("twistor.chart_eval.points") else 0.0),
        "twistor.nijenhuis.self_s": g("twistor.nijenhuis.self_s"),
        "twistor.covariant_domega.self_s": g("twistor.covariant_domega.self_s"),
        "twistor.forms.self_s": g("twistor.forms.self_s"),
        "fibermap.quad.calls": g("fibermap.quad.calls"),
        "fibermap.quad.self_s": g("fibermap.quad.self_s"),
        "fibermap.conformality_check.self_s": g("fibermap.conformality_check.self_s"),
        "report.serialize.s": g("report.serialize.total_s"),
        "report.residual_drift_max": tally.drift,
        "report.check_fail_ratio": tally.check_fail_ratio,
        "cli.import_s": import_s,
        "trace.overhead_ratio": traced_wall / untraced_wall,
    }
    for suite in SUITES:
        m[f"report.suite.{suite}.s"] = g(f"report.suite.{suite}.total_s")
    for fx in workloads.FIXTURES:
        m[f"report.fixture_s.{fx}"] = g(f"report.fixture.total_s.{fx}")
        m[f"kahler.metric_jets.calls.{fx}"] = g(f"kahler.metric_jets.calls.{fx}")
        m[f"jets.multiply.calls.{fx}"] = g(f"jets.multiply.calls.{fx}")
    return m


def with_units(values, declared):
    """{name: {"value", "unit"}} for exactly the ``declared`` metrics
    (BENCHMARK.json entries); a missing or extra name is an error."""
    names = [d["name"] for d in declared]
    if set(values) != set(names):
        raise KeyError(f"metrics differ from BENCHMARK.json: "
                       f"missing {sorted(set(names) - set(values))}, "
                       f"extra {sorted(set(values) - set(names))}")
    return {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in declared}
