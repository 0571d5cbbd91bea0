"""twistorcheck benchmark: time to certificate on two workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify_all --seed 1 --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json with
tracing off, every time scaled to a reference host speed by the probes
of hostspeed.py that bracket each unit of work.  ``--trace 1`` runs each unit of work twice, untraced and
traced, checks that both give byte-identical output, and reports the
per-layer metrics.  Every unit of work runs in a fresh interpreter
(perfbench/worker.py) that imports the package from ``src/``; this process
only starts them one after another, probes the host speed between them,
checks their outputs and prints.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
give the environment and every metric in words, including the verdict
ratio ``check_fail_ratio``, the residual drift, the unscaled pass time and
the mean host speed scale.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import metrics
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
CHILD_TIMEOUT_S = 170
SETUP_SAMPLES = 3  # set-ups timed per run of dense_balanced


class WorkerFailed(RuntimeError):
    pass


def spawn(spec):
    """Run one worker to completion; its JSON result plus wall and set-up time."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(WORKER), json.dumps(spec)], cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise WorkerFailed(f"worker {spec} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["process_wall_s"] = wall
    out["setup_s"] = out["t_ready"] - t0
    return out


def load_pins(name):
    with open(HERE / "pins" / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


# -- workloads ------------------------------------------------------------------

def traced_pair(spec, tally, pinned):
    """Run one unit of work untraced, then traced; check both reports against
    the pins and count a failure unless their JSON is byte-identical."""
    plain, traced = spawn(dict(spec, trace=False)), spawn(dict(spec, trace=True))
    for out in (plain, traced):
        tally.add_checks(out["checks"], pinned)
    if plain["passes"][0]["sha"] != traced["passes"][0]["sha"]:
        tally.fail()
    return plain, traced


def first_wall(out):
    return out["passes"][0]["wall_s"]


def run_verify_all(seed, seconds, trace):
    """Cycle through the fixtures, one fresh process each, until ``seconds``
    have passed and every fixture has run; a pass is the sum over fixtures
    of their mean process wall, so the run may stop between fixtures."""
    pins = load_pins("verify_all")[str(workloads.config_seed(seed))]
    tally = metrics.Tally()
    specs = workloads.verify_all_specs(seed, trace=bool(trace))
    if trace:
        pairs = [traced_pair(spec, tally, pins[spec["fixture"]]) for spec in specs]
        return tally, layer_metrics(tally, pairs, first_wall), {}
    walls = {spec["fixture"]: [] for spec in specs}
    raw = {spec["fixture"]: [] for spec in specs}
    points, setups, rss, scales = {}, [], [], []
    t_start = time.perf_counter()
    before = hostspeed.probe()
    for spec in itertools.cycle(specs):
        if all(walls.values()) and time.perf_counter() - t_start >= seconds:
            break
        out = spawn(spec)
        after = hostspeed.probe()
        k = hostspeed.scale(before, after)
        before = after
        tally.add_checks(out["checks"], pins[spec["fixture"]])
        walls[spec["fixture"]].append(out["process_wall_s"] * k)
        raw[spec["fixture"]].append(out["process_wall_s"])
        points[spec["fixture"]] = out["passes"][0]["points"]
        setups.append(out["setup_s"] * k)
        rss.append(out["rss_mb"])
        scales.append(k)
    pass_wall = sum(statistics.fmean(w) for w in walls.values())
    raw_wall = sum(statistics.fmean(w) for w in raw.values())
    return (tally, metrics.end_to_end(pass_wall, sum(points.values()), setups, rss),
            {"wall_s_raw": raw_wall, "host_scale": statistics.fmean(scales)})


def setup_samples():
    """Set-up times of SETUP_SAMPLES fresh processes, each scaled by the
    probes around it."""
    samples, before = [], hostspeed.probe()
    for _ in range(SETUP_SAMPLES):
        setup_s = spawn({"mode": "setup"})["setup_s"]
        after = hostspeed.probe()
        samples.append(setup_s * hostspeed.scale(before, after))
        before = after
    return samples


def run_dense_balanced(seed, seconds, trace):
    pin = load_pins("dense_balanced")[str(workloads.config_seed(seed))]
    tally = metrics.Tally()
    spec = workloads.dense_spec(seed, seconds, trace)
    if trace:
        pair = traced_pair(spec, tally, pin)
        return tally, layer_metrics(tally, [pair], first_wall), {}
    out = spawn(spec)
    tally.add_checks(out["checks"], pin)
    passes, probes = out["passes"], out["probes"]
    if len({p["sha"] for p in passes}) != 1:  # repeated passes must agree byte for byte
        tally.fail()
    scales = [hostspeed.scale(b, a) for b, a in zip(probes, probes[1:])]
    pass_wall = statistics.fmean(p["wall_s"] * k for p, k in zip(passes, scales))
    return (tally, metrics.end_to_end(pass_wall, passes[0]["points"], setup_samples(),
                                      [out["rss_mb"]]),
            {"wall_s_raw": statistics.fmean(p["wall_s"] for p in passes),
             "host_scale": statistics.fmean(scales)})


def layer_metrics(tally, pairs, wall_of):
    return metrics.per_layer(
        metrics.sum_traces(t["trace"] for _, t in pairs), tally,
        sum(wall_of(t) for _, t in pairs), sum(wall_of(p) for p, _ in pairs),
        statistics.median(p["import_s"] for p, _ in pairs))


WORKLOADS = {
    "verify_all": run_verify_all,
    "dense_balanced": run_dense_balanced,
}


# -- environment ----------------------------------------------------------------

def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def version(dist):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "unknown"


def environment(args):
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "traced": bool(args.trace), "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "git_commit": git_commit(),
    }


# -- main -----------------------------------------------------------------------

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "twistorcheck" / "__init__.py").is_file():
        print(f"error: no twistorcheck package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = bench["per_layer" if args.trace else "end_to_end"]
    print("environment " + json.dumps(environment(args), sort_keys=True))
    try:
        tally, values, raw = WORKLOADS[args.workload](args.seed, args.seconds, args.trace)
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = metrics.with_units(values, declared)
    for name, m in result.items():
        print(f"{name:44s} {m['value']:.6g} {m['unit']}")
    if not args.trace:  # the traced run lists both among its per-layer metrics
        print(f"{'check_fail_ratio':44s} {tally.check_fail_ratio:.6g} ratio "
              f"({tally.verdict_failures}/{tally.attempted})")
        print(f"{'report.residual_drift_max':44s} {tally.drift:.3g} abs (informational)")
        print(f"{'wall_s unscaled':44s} {raw['wall_s_raw']:.6g} s (informational)")
        print(f"{'host speed scale':44s} {raw['host_scale']:.4g} (reference / probe, mean)")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
