"""Per-layer sweep: the warm time per point of the jet kernel and the base layers at three batch sizes.

    python tools/sweep.py --out sweep.json [--root ROOT]

With ROOT's own ``src`` (default: the checkout this script is in), it times
at n in {1, 50, 1000} points:

* ``multiply(n_vars,order)``: one ``JetSpace.multiply`` of two jets with
  random coefficients, ``(ncoef, n)``, on each space the pipeline
  multiplies in: (1, 3) of the fiber maps, (4, 2) and (4, 3) of the base,
  (4, 4) of a potential under base order 2, (6, 1) and (6, 2) of the chart
  (rows with ``fixture`` null);
* ``isothermal_coordinate(cosh)``: ``fibermap.isothermal_coordinate`` on
  the cosh profile at n fiber coordinates from its midpoint, the quadrature
  of a modified chart's fiber map (``fixture`` null too);

and for every fixture at the base points of n sampled points of its plain
twistor chart:

* ``jets_at``: the metric jets at base order 2, the order a ChartEval reads;
* ``adapted_frame`` of those jets;
* ``christoffel_jets`` of those jets;
* ``beta_form``, which forms nabla s2 too, from the frame's s2 and s3;
* ``curvature``: ``BaseEval.curvature()`` of a base built beforehand;

and at those chart points, at working order 1:

* ``chart_eval``: a ``ChartEval`` assembled on a ``BaseEval`` whose
  connection is built, as the suites share one, with its J and h;
* ``christoffel_h``: ``christoffel_jets`` of that ChartEval's h;
* ``nijenhuis``: ``twistor._nijenhuis_values`` of that ChartEval;
* ``wedge_d``: d(Omega ^ Omega) of its Omega = tau + omega_FS, the
  balanced condition, by ``d_wedge``, which forms only the partials d
  reads.

Each time is the best of 5 warm runs (one untimed run first), each run
repeating the call until it takes 20 ms or more, divided by n;
``minflt_per_call`` is the minor page faults of those 5 runs over the calls
they made.  The sweep first sets ROOT's malloc policy (``report.keep_heap``)
where ROOT has one, as a suite run does.  Every
(fixture, n) block, and the kernel's block at each n, is bracketed by the
host speed probe of ROOT's ``perfbench/hostspeed.py`` and scaled as the
benchmark scales its end-to-end times: ``s_per_point`` reads in seconds at
the reference host speed, ``raw_s_per_point`` as measured.  The JSON
written to ``--out`` holds one row per fixture, n and layer.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import pathlib
import platform
import resource
import sys
import time

BATCHES = (1, 50, 1000)
KERNEL_SPACES = ((1, 3), (4, 2), (4, 3), (4, 4), (6, 1), (6, 2))
REPEATS = 5
MIN_RUN_S = 0.02
SEED = 2024


def _hostspeed(root: pathlib.Path):
    spec = importlib.util.spec_from_file_location("hostspeed", root / "perfbench" / "hostspeed.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _best(call):
    """Best seconds per call over REPEATS warm runs, and their minor page
    faults per call."""
    call()
    loops, t0 = 1, time.perf_counter()
    call()
    while time.perf_counter() - t0 < MIN_RUN_S:  # calls per run, from one timed call
        loops *= 2
        t0 = time.perf_counter()
        for _ in range(loops):
            call()
    best, faults = float("inf"), _minflt()
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(loops):
            call()
        best = min(best, (time.perf_counter() - t0) / loops)
    return best, (_minflt() - faults) / (REPEATS * loops)


def _kernel(n):
    """The JetSpace.multiply calls at ``n`` points, by layer name."""
    import numpy as np
    from twistorcheck import jets

    rng = np.random.default_rng(SEED)
    calls = {}
    for n_vars, order in KERNEL_SPACES:
        space = jets.get_space(n_vars, order)
        a, b = rng.normal(size=(2, space.ncoef, n))
        calls[f"multiply({n_vars},{order})"] = lambda space=space, a=a, b=b: space.multiply(a, b)
    return calls


def _fiber_map(n):
    """The fiber-map quadrature at ``n`` fiber coordinates, by layer name."""
    import numpy as np
    from twistorcheck import fibermap

    profile = fibermap.get_profile("cosh")
    z = np.random.default_rng(SEED).uniform(-0.9, 0.9, n)
    return {"isothermal_coordinate(cosh)": lambda: fibermap.isothermal_coordinate(profile, z, 0.0)}


def _layers(metric, x6):
    """The calls of one (fixture, chart points) block, by layer name."""
    from twistorcheck import geometry, kahler, twistor

    x = x6[:, :4]

    gjets = metric.jets_at(x, 2)
    frame = kahler.adapted_frame(gjets)
    gamma = geometry.christoffel_jets(gjets)
    s2 = kahler._self_dual(frame, (1,))[0]
    s3 = kahler._self_dual(frame.truncate(1))[2]
    chart = twistor.TwistorChart(metric)
    base = kahler.BaseEval(metric, x)
    base.connection  # built once and shared, as in a suite run

    def chart_eval():
        ctx = twistor.ChartEval(chart, x6, base=base)
        return ctx.J, ctx.h

    ctx = twistor.ChartEval(chart, x6, base=base)
    omega = twistor.omega_ab_field(ctx, None)
    return {
        "jets_at": lambda: metric.jets_at(x, 2),
        "adapted_frame": lambda: kahler.adapted_frame(gjets),
        "christoffel_jets": lambda: geometry.christoffel_jets(gjets),
        "beta_form": lambda: kahler.beta_form(gjets, s2, s3, gamma),
        "curvature": base.curvature,
        "chart_eval": chart_eval,
        "christoffel_h": lambda: geometry.christoffel_jets(ctx.h),
        "nijenhuis": lambda: twistor._nijenhuis_values(ctx),
        "wedge_d": lambda: twistor.d_wedge(omega, omega),
    }


def sweep(root: pathlib.Path) -> dict:
    sys.path.insert(0, str(root / "src"))
    from twistorcheck import kahler, report, twistor

    if hasattr(report, "keep_heap"):
        report.keep_heap()
    hostspeed = _hostspeed(root)

    def block(fixture, n, calls):
        before = hostspeed.probe()
        times = {layer: _best(call) for layer, call in calls.items()}
        scale = hostspeed.scale(before, hostspeed.probe())
        return [{"fixture": fixture, "n": n, "layer": layer, "s_per_point": t * scale / n,
                 "raw_s_per_point": t / n, "scale": scale, "minflt_per_call": faults}
                for layer, (t, faults) in times.items()]

    rows = [row for n in BATCHES for row in block(None, n, {**_kernel(n), **_fiber_map(n)})]
    for fixture in sorted(kahler.FIXTURES):
        metric = kahler.get_fixture(fixture)
        chart = twistor.TwistorChart(metric)
        for n in BATCHES:
            rows += block(fixture, n, _layers(metric, chart.sample(n, SEED)))
    return {"root": str(root), "python": platform.python_version(),
            "reference_s": hostspeed.REFERENCE_S, "repeats": REPEATS, "seed": SEED, "rows": rows}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--root", default=str(pathlib.Path(__file__).resolve().parents[1]),
                    help="checkout whose src is timed (default: this one)")
    args = ap.parse_args(argv)
    result = sweep(pathlib.Path(args.root).resolve())
    pathlib.Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    for row in result["rows"]:
        print(f"{row['fixture'] or '-':<20} {row['n']:>5} {row['layer']:<27} "
              f"{row['s_per_point'] * 1e6:10.3f} us/point {row['minflt_per_call']:9.1f} faults/call")
    return 0


if __name__ == "__main__":
    sys.exit(main())
