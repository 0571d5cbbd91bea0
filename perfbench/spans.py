"""In-memory tracing of twistorcheck's layer boundaries for traced runs.

The benchmark never edits the package's files: a traced worker wraps the
functions that form each layer boundary, from these files, once after
import.  Two kinds of boundary exist:

* spans, for coarse calls (a suite, a ChartEval, a beta_form).  Each span
  keeps its name, start, end and parent in memory; self time is computed
  when the run ends.
* kernels, for the jets boundary, which is crossed hundreds of thousands of
  times per run.  A kernel keeps only a call count, summed time, summed
  self time and (for ``JetSpace.multiply``) the bytes of its operands and
  result, computed from array sizes.

A span's self time excludes only its child spans, so the time spent in the
jets kernel stays with the span that called it.  A target missing from the
package (renamed or removed by a refactor) is an error, so that a layer
never reads as zero for want of a name: update the target lists with the
package.
"""

from __future__ import annotations

import contextlib
import functools
import time

# (module, attribute path, span name[, points]); a callable name, and the
# optional points counter, receive the call's (args, kwargs).
SPAN_TARGETS = (
    ("kahler", "KahlerPotentialMetric.jets_at", "kahler.metric_jets"),
    ("geometry", "MetricField.jets_at", "kahler.metric_jets"),
    ("kahler", "adapted_frame", "kahler.adapted_frame"),
    ("kahler", "beta_form", "kahler.beta_form"),
    ("geometry", "christoffel_jets",
     lambda a, kw: f"geometry.christoffel_jets.dim{_leading_dim(a[0] if a else kw.get('gjets'))}"),
    ("geometry", "curvature_data", "geometry.curvature_data"),
    ("twistor", "calibrate_epsilon", "twistor.calibrate_epsilon"),
    ("twistor", "ChartEval.__init__", "twistor.chart_eval",
     lambda a, kw: _batch_size(a[2] if len(a) > 2 else kw.get("points"))),
    ("twistor", "_nijenhuis_values", "twistor.nijenhuis"),
    ("twistor", "_covariant_domega", "twistor.covariant_domega"),
    ("twistor", "wedge_dicts", "twistor.forms"),
    ("twistor", "d_dict", "twistor.forms"),
    ("fibermap", "conformality_check", "fibermap.conformality_check"),
)

KERNEL_TARGETS = (
    ("jets", "JetSpace.multiply", "jets.multiply"),
    ("jets", "JetSpace.__init__", "jets.get_space"),
    ("jets", "Jet._reciprocal", "jets.elementary"),
    ("jets", "exp", "jets.elementary"),
    ("jets", "log", "jets.elementary"),
    ("jets", "sqrt", "jets.elementary"),
    ("jets", "sin", "jets.elementary"),
    ("jets", "cos", "jets.elementary"),
    ("jets", "atan", "jets.elementary"),
    ("jets", "tanh", "jets.elementary"),
    ("fibermap", "quad", "fibermap.quad"),
)

MODULES = ("jets", "geometry", "kahler", "fibermap", "twistor", "report", "cli")


def _leading_dim(arr):
    shape = getattr(arr, "shape", None)
    return shape[0] if shape else 0


def _batch_size(points):
    shape = getattr(points, "shape", None)
    return shape[0] if shape is not None and len(shape) >= 2 else 1


def _nbytes(x):
    return getattr(x, "nbytes", 0)


class Tracer:
    """Spans and kernel aggregates of one process, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # finished and open spans:
        # [name, start, end, parent index, context, points]
        self.spans = []
        self._open = []
        # kernel name -> [calls, total_s, self_s, bytes]
        self.kernels = {}
        # (kernel name, context) -> calls
        self.kernel_calls_by_context = {}
        self._kernel_stack = []
        # label (e.g. the fixture) attached to spans and kernel calls
        self.context = None

    # -- spans ------------------------------------------------------------
    def begin(self, name, points=0):
        parent = self._open[-1] if self._open else None
        self.spans.append([name, self.clock(), None, parent, self.context, points])
        idx = len(self.spans) - 1
        self._open.append(idx)
        return idx

    def end(self, idx):
        if not self._open or self._open[-1] != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")
        self._open.pop()
        self.spans[idx][2] = self.clock()

    @contextlib.contextmanager
    def span(self, name):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def innermost(self):
        return self.spans[self._open[-1]][0] if self._open else None

    # -- kernels ----------------------------------------------------------
    def kernel_enter(self):
        self._kernel_stack.append(0.0)
        return self.clock()

    def kernel_exit(self, name, t0, nbytes=0):
        dt = self.clock() - t0
        child = self._kernel_stack.pop()
        if self._kernel_stack:
            self._kernel_stack[-1] += dt
        agg = self.kernels.get(name)
        if agg is None:
            agg = self.kernels[name] = [0, 0.0, 0.0, 0]
        agg[0] += 1
        agg[1] += dt
        agg[2] += dt - child
        agg[3] += nbytes
        key = (name, self.context)
        self.kernel_calls_by_context[key] = self.kernel_calls_by_context.get(key, 0) + 1


def self_times(spans):
    """Self time of each span: its duration minus its child spans' durations
    (Tracer.end closes spans in LIFO order, so children never overlap)."""
    out = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def _span_wrapper(tracer, fn, name, points=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        label = name(args, kwargs) if callable(name) else name
        if tracer.innermost() == label:  # an override calling its base
            return fn(*args, **kwargs)
        idx = tracer.begin(label, points(args, kwargs) if points else 0)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(idx)
    return wrapper


def _kernel_wrapper(tracer, fn, name):
    if name == "jets.multiply":
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = tracer.kernel_enter()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:  # args are (space, a, b)
                tracer.kernel_exit(name, t0, sum(map(_nbytes, args[1:])) + _nbytes(out))
        return wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = tracer.kernel_enter()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.kernel_exit(name, t0)
    return wrapper


def _resolve(module, path):
    """(owner, attribute, value) of ``path`` in ``module``, or None."""
    owner, attr = module, path
    if "." in path:
        cls_name, attr = path.split(".", 1)
        owner = getattr(module, cls_name, None)
    if owner is None or attr not in vars(owner):
        return None
    return owner, attr, vars(owner)[attr]


def install(tracer, package):
    """Wrap every boundary of ``package`` (the imported twistorcheck module
    object) for ``tracer``.  Raises LookupError naming every module, target
    or suite table it cannot find."""
    mods = {m: getattr(package, m, None) for m in MODULES}
    missing = [f"module {m}" for m, mod in mods.items() if mod is None]
    if mods["report"] is not None and not isinstance(
            getattr(mods["report"], "_SUITE_RUNNERS", None), dict):
        missing.append("report._SUITE_RUNNERS")
    found = []
    for targets, make in ((SPAN_TARGETS, _span_wrapper), (KERNEL_TARGETS, _kernel_wrapper)):
        for mod_name, path, *spec in targets:
            hit = _resolve(mods[mod_name], path) if mods[mod_name] is not None else None
            if hit is None:
                missing.append(f"{mod_name}.{path}")
            else:
                found.append((mods[mod_name], hit, make, spec))
    if missing:
        raise LookupError("trace targets not found in the package: " + ", ".join(missing))

    for mod, (owner, attr, orig), make, spec in found:
        new = make(tracer, orig, *spec)
        setattr(owner, attr, new)
        if owner is mod:
            # names imported into other modules (from .kahler import beta_form)
            for other in mods.values():
                if other is not mod and vars(other).get(attr) is orig:
                    setattr(other, attr, new)
    runners = mods["report"]._SUITE_RUNNERS
    for suite, fn in list(runners.items()):
        runners[suite] = _span_wrapper(tracer, fn, f"report.suite.{suite}")


def summarize(tracer):
    """Counts, total and self times and bytes of one traced process, keyed
    by boundary name; sums over processes are meaningful."""
    out = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    selfs = self_times(tracer.spans)
    for (name, start, end, _, context, points), self_s in zip(tracer.spans, selfs):
        add(f"{name}.calls", 1)
        add(f"{name}.points", points)
        add(f"{name}.self_s", self_s)
        add(f"{name}.total_s", end - start)
        if context is not None:
            add(f"{name}.calls.{context}", 1)
            add(f"{name}.total_s.{context}", end - start)
    for name, (calls, total, self_s, nbytes) in tracer.kernels.items():
        add(f"{name}.calls", calls)
        add(f"{name}.total_s", total)
        add(f"{name}.self_s", self_s)
        add(f"{name}.bytes", nbytes)
    for (name, context), calls in tracer.kernel_calls_by_context.items():
        if context is not None:
            add(f"{name}.calls.{context}", calls)
    return out
