"""One fresh interpreter of the benchmark.

run.py starts this script from the checkout root with a JSON spec as its
only argument, e.g.

    python3 perfbench/worker.py '{"mode": "suite", "fixture": "burns", ...}'

It imports twistorcheck from the checkout's ``src/``, sets up, records the
moment set-up ends (``t_ready``, on the system-wide monotonic clock that
``time.perf_counter`` reads on Linux), does the timed work and prints one
JSON line: timings, the outputs run.py checks, peak RSS, the host speed
probes around each pass when the spec asks for them (see hostspeed.py)
and, for a traced run, the span and kernel sums of spans.summarize.

Set-up is the import and the suite configuration.  Jet spaces are built
lazily inside the timed work, where the CLI builds them, and the traced run
reports their cost as ``jets.get_space.build_s``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import hostspeed
import spans
import workloads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def import_package():
    """Import twistorcheck from this checkout; returns (package, seconds)."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import twistorcheck
    from twistorcheck import cli, fibermap, geometry, jets, kahler, report, twistor  # noqa: F401
    import_s = time.perf_counter() - t0
    if Path(twistorcheck.__file__).resolve().parent != SRC / "twistorcheck":
        raise SystemExit(f"twistorcheck imported from {twistorcheck.__file__}, not {SRC}")
    return twistorcheck, import_s


def rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- suite runs (verify_all, dense_balanced) ---------------------------------

def check_rows(report_dict):
    return [[c["check_id"], c["mode"], bool(c["pass"]), c["max_residual"]]
            for c in report_dict["checks"]]


def run_suite_mode(pkg, spec, tracer):
    report = pkg.report
    cfg = report.SuiteConfig.from_dict({
        "metric": spec["fixture"], "suite": spec["suite"],
        "sample_count": spec["points"], "seed": spec["seed"]})
    if tracer is not None:
        tracer.context = spec["fixture"]
    t_ready = time.perf_counter()
    passes, rows = [], None
    probes = [hostspeed.probe()] if spec["probe"] else []  # brackets every pass
    span = tracer.span if tracer else lambda name: contextlib.nullcontext()
    while True:
        t0 = time.perf_counter()
        with span("report.fixture"):
            rep = report.run_suite(cfg)
        with span("report.serialize"):
            text = report.report_to_json(rep)
        t2 = time.perf_counter()
        if rows is None:
            rows = check_rows(rep)
        passes.append({"wall_s": t2 - t0,
                       "sha": hashlib.sha256(text.encode()).hexdigest(),
                       "points": sum(int(c["points_tested"]) for c in rep["checks"])})
        if spec["probe"]:
            probes.append(hostspeed.probe())
        if time.perf_counter() - t_ready >= spec["seconds"]:
            break
    return {"t_ready": t_ready, "passes": passes, "checks": rows, "probes": probes}


def run_setup_only(pkg, spec, tracer):
    """Set up as dense_balanced would, then stop (a set-up time sample)."""
    pkg.report.SuiteConfig.from_dict({"metric": workloads.DENSE_FIXTURE,
                                      "suite": "balanced"})
    return {"t_ready": time.perf_counter()}


MODES = {"suite": run_suite_mode, "setup": run_setup_only}


def main(argv):
    spec = json.loads(argv[1])
    pkg, import_s = import_package()
    tracer = None
    if spec.get("trace"):
        tracer = spans.Tracer()
        spans.install(tracer, pkg)
    result = MODES[spec["mode"]](pkg, spec, tracer)
    result["import_s"] = import_s
    result["rss_mb"] = rss_mb()
    if tracer is not None:
        result["trace"] = spans.summarize(tracer)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
