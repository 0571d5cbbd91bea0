"""Every span the benchmark traces is reached by a run: a span that reads 0
calls measures nothing, so a layer whose code path moved would go unseen.
The benchmark's own worker runs once, unmodified, in a fresh interpreter."""

import importlib.util
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

# span -> why no run reaches it
UNREACHED = {
    "twistor.calibrate_epsilon": "the epsilon reference, which only tests call;"
                                 " runs read the constant twistor.EPS",
}


def _perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _reached(trace, module, path, name) -> bool:
    if callable(name):  # a name per call under the target's own, e.g. geometry.christoffel_jets.dim4
        prefix = f"{module}.{path}."
        return any(key.startswith(prefix) and key.endswith(".calls") and calls > 0
                   for key, calls in trace.items())
    return trace.get(f"{name}.calls", 0) > 0


def test_every_benchmark_span_is_reached_by_a_traced_burns_run():
    workloads = _perfbench("workloads")
    spec = next(s for s in workloads.verify_all_specs(0, trace=True) if s["fixture"] == "burns")
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "worker.py"), json.dumps(spec)],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(proc.stdout.splitlines()[-1])["trace"]
    targets = _perfbench("spans").SPAN_TARGETS
    unreached = sorted({name if isinstance(name, str) else f"{module}.{path}"
                        for module, path, name, *_ in targets
                        if not _reached(trace, module, path, name)})
    assert unreached == sorted(UNREACHED)
