"""Digests of a checkout's outputs, for byte-identity checks between commits.

    python tools/digests.py ROOT > digests.txt

prints ``sha256  name`` lines, sorted by name, for the outputs of the checkout at
ROOT, each produced by ROOT's own ``src``:

* the ``suite=all`` report of every fixture at every suite seed, and the
  reports of the suites that build their own evaluations when they run
  alone (``curvature``, ``integrability``, ``structure_identities`` and
  ``cone``, each reading the base of its seed), and the ``suite=all``
  reports at 7 points and at one point (where products run in their
  smallest blocks);
* the ``dense_balanced`` report at every suite seed;
* the raw coefficients, signs of zero included, for every fixture at 1,
  7, 50 and 400 points: of the self-dual basis s below the base order and
  of beta (``BaseEval(...).connection``), of the stacked values-level
  self-dual basis ``BaseEval(...).basis``, of ``_two_vector_nabla`` of
  s2 (from ``_self_dual`` of the whole frame), of the Christoffel jets
  ``BaseEval(...).gamma_jets``, of the metric jets ``metric.jets_at`` and
  of ``adapted_frame`` at base orders 1-3,
  of s, beta and nabla s2 at base order 3 too, and on the plain chart of
  ``ChartEval.gamma_h``, of ``geometry._inverse`` of ``ChartEval.h`` and of
  the values of d(Omega^2) (``twistor.d_wedge``) for the balanced suite's
  three fiber weights and its base-dependent control weight;
* the raw values, signs of zero included, for every fixture at 1, 7, 20
  and 50 points: of ``ChartEval.nijenhuis`` on the plain chart and on its
  ``flipped()`` evaluation, of the per-point ``nijenhuis_route_agreement``,
  of the six ``StructureResiduals`` fields and of the horizontal Nijenhuis
  residual (at the suite's draw counts), and of
  ``curvature_operator(...).matrix`` on the base points;
* the raw coefficients, signs of zero included, of ``exp``, ``log``,
  ``sqrt``, ``sin``, ``cos``, ``atan``, ``tanh``, ``Jet._reciprocal`` and
  ``compose_univariate`` on seeded jets of 1 variable at orders 1-6, of 4 at
  orders 1-4 and of 6 at orders 1-2, at 1 and 400 points, a quarter of
  their coefficients +0.0 or -0.0;
* the raw coefficients, signs of zero included, of |x|^2 (``kahler._u_of``)
  on the seed jets of orders 1-5 at one unbatched point and at 1, 7, 50 and
  400 points, a quarter of their coordinates +0.0 or -0.0;
* the stdout of every demo;
* ``solve-map`` output (stdout and stderr) and CSV for every profile,
  branch and sign.

Each ``raw/...`` line has a twin ``raw/...+0.0`` that hashes the same
array plus 0.0, which makes every zero +0.0 and keeps every other bit, NaN
and inf.  Fixtures, suite seeds and the ``dense_balanced`` input are read
from ROOT's ``perfbench/workloads.py``.  ``diff`` of the lines of two
checkouts lists every output that differs between them.

A change that keeps every value must leave byte-identical every report,
demo and ``solve-map`` line, every value-level ``identities/...`` line, the
``compose/...`` and ``u_of/...`` lines and every ``+0.0`` twin.  A plain
``raw/...`` line may differ where only signs of zero moved: the sums of
``jets.JetSpace.sum_terms`` leave out the terms that read a component
which is zero everywhere, which can turn a zero sum from +0.0 to -0.0.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import os
import pathlib
import subprocess
import sys
import tempfile
from dataclasses import astuple


def _sha(data) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def _raw(array) -> bytes:
    return str(array.shape).encode() + array.tobytes()


def _workloads(root: pathlib.Path):
    spec = importlib.util.spec_from_file_location("workloads", root / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _reports(wl):
    from twistorcheck.report import SuiteConfig, report_to_json, run_suite

    def report(**raw):
        return report_to_json(run_suite(SuiteConfig.from_dict(raw)))

    for seed in wl.CONFIG_SEEDS:
        for fixture in wl.FIXTURES:
            for suite in ("all", "curvature", "integrability", "structure_identities", "cone"):
                yield f"{suite}/{fixture}/{seed}.json", report(metric=fixture, suite=suite, seed=seed)
            for n in (7, 1):
                yield f"all_{n}/{fixture}/{seed}.json", report(metric=fixture, suite="all",
                                                               seed=seed, sample_count=n)
        yield f"dense_balanced/{seed}.json", report(metric=wl.DENSE_FIXTURE, suite="balanced",
                                                    seed=seed, sample_count=wl.DENSE_POINTS)


def _raw_arrays(wl):
    """The ``raw/...`` coefficients, each with its ``+0.0`` twin, and the
    value-level ``identities/...`` arrays."""
    for name, data in _coefficient_arrays(wl):
        if name.startswith("raw/"):
            yield name, _raw(data)
            yield f"{name}+0.0", _raw(data + 0.0)
        else:
            yield name, _raw(data)


def _coefficient_arrays(wl):
    import numpy as np

    from twistorcheck import fibermap, geometry, kahler, twistor

    # the fiber weights of the balanced suite, and its base-dependent control
    weights = (("zero", None, "fiber"), ("log_pole", fibermap.power_pole_h(1.0), "fiber"),
               ("log_pole_2", fibermap.power_pole_h(2.0), "fiber"), ("x_weight", None, "x_dependent"))

    for fixture in wl.FIXTURES:
        metric = kahler.get_fixture(fixture)
        chart = twistor.TwistorChart(metric)
        for n in (1, 7, 50, 400):
            pts = metric.chart.sample(n, wl.CONFIG_SEEDS[0])
            base = kahler.BaseEval(metric, pts)
            sd, beta = base.connection
            s2 = kahler._self_dual(kahler.adapted_frame(base.gjets))[1]
            nabla = kahler._two_vector_nabla(base.gamma_jets, s2)
            for name, jet in (("s", sd.truncate(base.gjets.order - 1)), ("beta", beta),
                              ("nabla_s2", nabla)):
                yield f"raw/{fixture}/{n}/{name}", jet.coeffs
            # a checkout whose basis is a tuple of TwoVector objects stacks their comps
            yield f"raw/{fixture}/{n}/basis", np.stack([getattr(b, "comps", b) for b in base.basis])
            for order in (1, 2, 3):
                base = kahler.BaseEval(metric, pts, order)
                yield f"raw/{fixture}/{n}/metric_{order}", base.gjets.coeffs
                yield f"raw/{fixture}/{n}/gamma_{order}", base.gamma_jets.coeffs
                frame = kahler.adapted_frame(base.gjets)
                yield f"raw/{fixture}/{n}/frame_{order}", frame.coeffs
                if order == 3:  # rounding leaves residues of about 1e-17 where s2 and s3 are zero at order 2
                    sd, beta = base.connection
                    nabla = kahler._two_vector_nabla(base.gamma_jets, kahler._self_dual(frame)[1])
                    for name, jet in (("s_3", sd), ("beta_3", beta), ("nabla_s2_3", nabla)):
                        yield f"raw/{fixture}/{n}/{name}", jet.coeffs
            ctx = twistor.ChartEval(chart, chart.sample(n, wl.CONFIG_SEEDS[0]))
            yield f"raw/{fixture}/{n}/gamma_h_1", ctx.gamma_h
            yield f"raw/{fixture}/{n}/h_inverse", geometry._inverse(ctx.h).coeffs
            for name, h_func, mode in weights:
                omega = twistor.omega_ab_field(ctx, h_func, weight_mode=mode)
                yield f"raw/{fixture}/{n}/d_omega2_{name}", twistor.d_wedge(omega, omega).jet.coeffs
        for n in (1, 7, 20, 50):
            seed = wl.CONFIG_SEEDS[0]
            ctx = twistor.ChartEval(chart, chart.sample(n, seed))
            yield f"identities/{fixture}/{n}/nijenhuis", ctx.nijenhuis
            yield f"identities/{fixture}/{n}/nijenhuis_flipped", ctx.flipped().nijenhuis
            yield f"identities/{fixture}/{n}/routes", twistor.nijenhuis_route_agreement(
                ctx, n_triples=20, seed=seed)
            res = twistor.verify_structure_identities(ctx, n_random=6, seed=seed)
            yield f"identities/{fixture}/{n}/structure", np.array(astuple(res))
            yield f"identities/{fixture}/{n}/horizontal_nijenhuis", np.array(
                twistor.horizontal_nijenhuis_residual(ctx, n_random=6, seed=seed))
            base = kahler.BaseEval(metric, metric.chart.sample(n, seed))
            op = geometry.curvature_operator(base.curvature(), base.basis)
            yield f"identities/{fixture}/{n}/curvature_operator", op.matrix


def _compositions():
    import numpy as np

    from twistorcheck import jets

    fns = {"exp": jets.exp, "log": jets.log, "sqrt": jets.sqrt, "sin": jets.sin,
           "cos": jets.cos, "atan": jets.atan, "tanh": jets.tanh,
           "reciprocal": jets.Jet._reciprocal}
    positive = ("log", "sqrt", "reciprocal")  # their argument's constant term is |c0| + 0.5
    for n_vars, orders in ((1, range(1, 7)), (4, range(1, 5)), (6, range(1, 3))):
        for order in orders:
            space = jets.get_space(n_vars, order)
            for n in (1, 400):
                rng = np.random.default_rng([n_vars, order, n])
                coeffs = rng.uniform(-2.0, 2.0, (space.ncoef, n))
                zero = rng.random(coeffs.shape)
                coeffs[zero < 0.125] = 0.0
                coeffs[(0.125 <= zero) & (zero < 0.25)] = -0.0
                u = jets.Jet(space, coeffs)
                shifted = coeffs.copy()
                shifted[0] = np.abs(shifted[0]) + 0.5
                name = f"compose/{n_vars}_{order}/{n}"
                for fn, f in fns.items():
                    yield f"{name}/{fn}", _raw(f(jets.Jet(space, shifted) if fn in positive else u).coeffs)
                outer = jets.Jet(jets.get_space(1, order), coeffs[:order + 1, ::-1].copy())
                yield f"{name}/compose_univariate", _raw(jets.compose_univariate(outer, u).coeffs)


def _squared_norms():
    import numpy as np

    from twistorcheck import jets, kahler

    for n in (1, 7, 50, 400):
        rng = np.random.default_rng([4, n])
        x = rng.uniform(-2.0, 2.0, (n, 4))
        zero = rng.random(x.shape)
        x[zero < 0.125] = 0.0
        x[(0.125 <= zero) & (zero < 0.25)] = -0.0
        for order in range(1, 6):
            yield f"u_of/{n}/{order}", _raw(kahler._u_of(jets.seed_raw(x, order)).coeffs)
            if n == 7:  # its first point, unbatched
                yield f"u_of/point/{order}", _raw(kahler._u_of(jets.seed_raw(x[0], order)).coeffs)


def _solve_maps(workdir: str):
    from twistorcheck import cli, fibermap

    for profile in sorted(fibermap.PROFILES):
        for branch in fibermap.BRANCHES:
            for sign in ("1", "-1"):
                name = f"solve-map/{profile}_{branch}_{sign}"
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                    code = cli.main(["solve-map", "--profile", profile, "--branch", branch,
                                     "--sign", sign])
                yield f"{name}.stdout", f"exit {code}\n{out.getvalue()}"
                csv = pathlib.Path(workdir, f"fiber_map_{profile}_{branch}.csv")
                if csv.exists():
                    yield f"{name}.csv", csv.read_bytes()
                    csv.unlink()


def _demos(root: pathlib.Path, workdir: str):
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for demo in sorted((root / "demos").glob("*.py")):
        proc = subprocess.run([sys.executable, str(demo)], cwd=workdir, env=env,
                              capture_output=True, timeout=600)
        yield f"demo/{demo.name}.stdout", f"exit {proc.returncode}\n".encode() + proc.stdout


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    root = pathlib.Path(argv[0]).resolve()
    sys.path.insert(0, str(root / "src"))
    with tempfile.TemporaryDirectory() as workdir:
        cwd = os.getcwd()
        os.chdir(workdir)  # solve-map writes its CSV to the working directory
        try:
            wl = _workloads(root)
            outputs = [*_reports(wl), *_raw_arrays(wl), *_compositions(), *_squared_norms(),
                       *_solve_maps(workdir), *_demos(root, workdir)]
        finally:
            os.chdir(cwd)
    print("\n".join(f"{_sha(data)}  {name}" for name, data in sorted(outputs)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
