"""Verification suites, configuration, and report assembly.

A suite is a named list of checks; each check samples chart points
deterministically, computes a residual, and compares it with a threshold.
Affirmative checks pass when the residual stays below the threshold;
negative controls pass when the residual exceeds it (mode "exceeds"),
certifying that the machinery can detect the failure it is supposed to
detect.  Reports are plain dictionaries serializable to byte-stable JSON.

A suite asserts a claim only where the metric declares its hypotheses
(:class:`geometry.Hypotheses`), and the curvature and Kahler rows certify
the declarations.  The suites on the plain twistor chart share its one
evaluation per (point count, seed) in a run.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, field, fields
from typing import Optional

import numpy as np

from . import __version__, fibermap, geometry, kahler, twistor
from .errors import ConfigurationError, GeometryError, TwistorCheckError

SUITES = ("curvature", "integrability", "structure_identities", "balanced",
          "cone", "fibermap", "completeness", "all")

TOL_TIERS = {"strict": 1.0, "loose": 100.0}

_FIBER_KEYS = {
    "profile": "cylinder",
    "branch": "quadrature",
    "c": 0.0,
    "sign": 1,
    "h_family": "power_pole",
    "p": 1.0,
    "a": 1.0,
    "b": 1.0,
}


@dataclass
class SuiteConfig:
    metric: str = kahler.DEFAULT_FIXTURE
    params: dict = field(default_factory=dict)
    suite: str = "all"
    sample_count: Optional[int] = None
    seed: int = 2024
    tol_tier: str = "strict"
    tolerances: dict = field(default_factory=dict)
    fiber: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, raw: dict) -> "SuiteConfig":
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**raw)
        cfg.validate()
        return cfg

    def validate(self):
        if not isinstance(self.suite, str) or self.suite not in SUITES:
            raise ConfigurationError(f"unknown suite {self.suite!r} (have {SUITES})")
        if not isinstance(self.metric, str):
            raise ConfigurationError(f"metric must be a fixture name, got {self.metric!r}")
        for key in ("params", "tolerances", "fiber"):
            if not isinstance(getattr(self, key), dict):
                raise ConfigurationError(f"{key} must be a mapping")
        for key, value in self.params.items():
            _check_real(f"params.{key}", value)
        try:
            kahler.get_fixture(self.metric, **self.params)
        except GeometryError as exc:
            raise ConfigurationError(str(exc)) from exc
        if self.sample_count is not None and not (_is_int(self.sample_count)
                                                  and self.sample_count >= 1):
            raise ConfigurationError(f"sample_count must be an integer >= 1, got {self.sample_count!r}")
        if not (_is_int(self.seed) and self.seed >= 0):
            raise ConfigurationError(f"seed must be an integer >= 0, got {self.seed!r}")
        if not isinstance(self.tol_tier, str) or self.tol_tier not in TOL_TIERS:
            raise ConfigurationError(f"tol_tier must be one of {sorted(TOL_TIERS)}")
        for key, value in self.tolerances.items():
            _check_real(f"tolerances.{key}", value)
        fib_unknown = set(self.fiber) - set(_FIBER_KEYS)
        if fib_unknown:
            raise ConfigurationError(f"unknown fiber keys: {sorted(fib_unknown)}")
        self.fiber = fib = dict(_FIBER_KEYS, **self.fiber)
        for key in ("c", "p", "a", "b"):
            _check_real(f"fiber.{key}", fib[key])
        for key in ("a", "b"):
            if fib[key] <= 0:
                raise ConfigurationError(f"fiber.{key} (cone parameter) must be positive, got {fib[key]!r}")
        a, b = float(fib["a"]), float(fib["b"])
        if not np.isfinite(2 * a * a) or not np.isfinite(4 * a * b):
            raise ConfigurationError(f"fiber.a = {a!r} and fiber.b = {b!r} (cone parameters) are too"
                                     " large: the cone constants 2 a^2 and 4 a b overflow")
        for key, allowed in (("profile", sorted(fibermap.PROFILES)),
                             ("branch", list(fibermap.BRANCHES)), ("h_family", ["power_pole"])):
            if not isinstance(fib[key], str) or fib[key] not in allowed:
                raise ConfigurationError(f"fiber.{key} must be one of {allowed}, got {fib[key]!r}")
        if isinstance(fib["sign"], bool) or fib["sign"] not in (1, -1):
            raise ConfigurationError(f"fiber.sign must be 1 or -1, got {fib['sign']!r}")

    def points(self, default: int) -> int:
        return self.sample_count if self.sample_count is not None else default


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_real(where: str, value):
    """Raise ConfigurationError unless ``value`` is a finite real (not a bool)."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):  # NaN, inf, ints beyond float
        raise ConfigurationError(f"{where} must be a finite number, got {value!r}")


@dataclass
class CheckRecord:
    check_id: str
    anchor: str
    points_tested: int
    max_residual: float
    threshold: float
    mode: str  # "below" (affirmative) or "exceeds" (negative control)
    passed: bool
    detail: dict = field(default_factory=dict)


class _Recorder:
    def __init__(self, config: SuiteConfig):
        self.config = config
        self.records = []
        self.scale = TOL_TIERS[config.tol_tier]
        self.plain_evals = {}  # (n, seed) -> ChartEval; see _plain_eval

    def add(self, check_id, anchor, points, residual, threshold, mode="below", detail=None):
        thr = float(self.config.tolerances.get(check_id, threshold * (self.scale if mode == "below" else 1.0)))
        residual = float(residual)
        passed = residual < thr if mode == "below" else residual > thr
        self.records.append(CheckRecord(check_id, anchor, int(points), residual,
                                        thr, mode, bool(passed), detail or {}))

    def skip(self, check_id, anchor, reason):
        self.records.append(CheckRecord(check_id, anchor, 0, float("nan"), float("nan"),
                                        "skipped", True, {"reason": reason}))


def _run_curvature(rec: _Recorder, metric, config: SuiteConfig):
    n = config.points(50)
    rng = np.random.default_rng(config.seed)
    # the base part of the plain chart's sample at this seed; drawn here too,
    # as the rho duality spot check continues this generator
    pts = metric.chart.sample(n, rng)
    ctx = _plain_eval(rec, metric, n, config.seed)
    data = ctx.data4
    rl = data.rlow
    sym = max(
        float(np.max(np.abs(rl + np.einsum("...jikl->...ijkl", rl)))),
        float(np.max(np.abs(rl + np.einsum("...ijlk->...ijkl", rl)))),
        float(np.max(np.abs(rl - np.einsum("...klij->...ijkl", rl)))),
        float(np.max(np.abs(rl + np.einsum("...jkil->...ijkl", rl)
                            + np.einsum("...kijl->...ijkl", rl)))),
    )
    rec.add("curvature.riemann_symmetries", "Riemann tensor pair/antisymmetry and first Bianchi",
            n, sym, 1e-10)
    frame = kahler.adapted_frame(data.gjets.truncate(0))  # only frame values are read
    basis = geometry.sd_basis(frame.matrix, data.gvals)
    op = geometry.curvature_operator(data, basis)
    rec.add("curvature.block_symmetry", "curvature operator is self-adjoint on the 2-vector basis",
            n, np.max(np.abs(op.matrix - np.swapaxes(op.matrix, -1, -2))), 1e-9)
    rec.add("curvature.traceless_weyl", "diagonal blocks split as W(+/-) traceless + Scal/12",
            n, max(np.max(np.abs(np.trace(op.wplus, axis1=-2, axis2=-1))),
                   np.max(np.abs(np.trace(op.wminus, axis1=-2, axis2=-1)))), 1e-9)
    rec.add("curvature.plus_trace_scal", "trace of the self-dual block equals Scal/4",
            n, np.max(np.abs(np.trace(op.plus_block, axis1=-2, axis2=-1) - data.scal / 4.0)), 1e-8)

    # the strongest declared curvature condition, then the Kahler rows
    hyp = metric.hypotheses
    if hyp.flat:
        rec.add("curvature.flat_vanishing", "flat chart has zero curvature",
                n, np.max(np.abs(rl)), 1e-12)
    elif hyp.scalar_flat:
        rec.add("curvature.scalar_flat", "scalar curvature vanishes on the scalar-flat fixtures",
                n, np.max(np.abs(data.scal)), 1e-7)
        if hyp.kahler:  # scalar-flat Kahler is anti-self-dual
            rec.add("curvature.wplus_vanishing", "self-dual Weyl part vanishes (anti-self-duality)",
                    n, np.max(np.abs(op.wplus)), 1e-7)
    elif hyp.scal is not None:
        rec.add("curvature.scal_oracle", f"reference chart has constant scalar curvature {hyp.scal:g}",
                n, np.max(np.abs(data.scal - hyp.scal)), 1e-6)
        if hyp.kahler:  # W+ = diag(Scal/6, -Scal/12, -Scal/12) on a Kahler surface
            rec.add("curvature.wplus_nonzero", "positive-scalar control has nonvanishing W+",
                    n, np.max(np.abs(op.wplus)), 0.1, mode="exceeds")
    if hyp.kahler:
        r2, r3, ray = kahler.curvature_s_residuals(data, basis)
        rec.add("kahler.curvature_kills_s2_s3", "curvature annihilates the non-parallel self-dual frame",
                n, max(np.max(r2), np.max(r3)), 1e-8)
        rec.add("kahler.s1_rayleigh_half_scal",
                "curvature pairing of the parallel 2-vector equals -Scal/2",
                n, np.max(np.abs(ray + data.scal / 2.0)), 1e-8)
        rec.add("kahler.nabla_omega", "fundamental 2-form is parallel",
                n, kahler.nabla_omega_residual(data), 1e-8)
    # the run keeps this evaluation for later suites, which read no curvature
    # from it at default point counts: drop the curvature
    del ctx.data4
    # rho duality spot check, at pts[0] evaluated alone: a slice of data
    # differs from it in the last bits
    data1 = geometry.curvature_data(metric, pts[0])
    fr1 = kahler.adapted_frame(data1.gjets.truncate(0))
    b1 = geometry.sd_basis(fr1.matrix, data1.gvals)
    worst = 0.0
    for _ in range(20):
        cv, cw2 = rng.normal(size=(2, 3))
        v = _combine(cv, b1[:3])
        w = _combine(cw2, b1[:3])
        vxw = _combine(np.cross(cv, cw2), b1[:3])
        M = rng.normal(size=(4, 4))
        xi = geometry.TwoVector(M - M.T)
        lhs = geometry._inner_kernel(data1.gvals,
                                     geometry.curvature_two_vector_action(data1, vxw.comps),
                                     xi.comps)
        rhs = geometry._inner_kernel(data1.gvals,
                                     geometry.rho_apply(data1, xi, v).comps, w.comps)
        worst = max(worst, abs(float(lhs - rhs)))
    rec.add("curvature.rho_duality", "derivation action is dual to the curvature operator"
            " under the self-dual cross product", 20, worst, 1e-9)


def _combine(coefs, basis):
    acc = coefs[0] * basis[0]
    for c, b in zip(coefs[1:], basis[1:]):
        acc = acc + c * b
    return acc


def _plain_eval(rec: _Recorder, metric, n: int, seed: int) -> twistor.ChartEval:
    """The ChartEval of the plain twistor chart on its ``n``-point sample at
    ``seed``, built once per run: every plain-chart suite reads it, so suites
    with the same point count share one evaluation."""
    key = (n, seed)
    if key not in rec.plain_evals:
        chart = twistor.TwistorChart.twistor(metric)
        rec.plain_evals[key] = twistor.ChartEval(chart, chart.sample(n, seed))
    return rec.plain_evals[key]


def _modified_charts(metric, config: SuiteConfig):
    fib = config.fiber
    profile = fibermap.get_profile(fib["profile"])
    emap = fibermap.solve_phi(profile, c=fib["c"], sign=fib["sign"], branch=fib["branch"])
    chart = twistor.TwistorChart.modified(metric, profile, emap)
    perturbed = twistor.TwistorChart.modified(metric, profile, emap.perturbed(0.1))
    return chart, perturbed


def _run_integrability(rec: _Recorder, metric, config: SuiteConfig):
    n = config.points(50)
    ctx = _plain_eval(rec, metric, n, config.seed)
    nmax = np.max(twistor.nijenhuis_max(ctx))
    hyp = metric.hypotheses
    if hyp.kahler and hyp.scalar_flat:  # anti-self-dual, so the twistor space is integrable
        rec.add("integrability.twistor_vanishing",
                "Nijenhuis tensor vanishes over the anti-self-dual base",
                n, nmax, 1e-6)
        chart_s, chart_p = _modified_charts(metric, config)
        pts_s = chart_s.sample(n, config.seed + 1)
        rec.add("integrability.modified_holomorphic",
                "isothermal fiber map keeps the modified chart integrable",
                n, np.max(twistor.nijenhuis_max(twistor.ChartEval(chart_s, pts_s))), 1e-6)
        pts_p = chart_p.sample(n, config.seed + 2)
        rec.add("integrability.modified_perturbed",
                "perturbing the fiber map breaks integrability (negative control)",
                n, np.max(twistor.nijenhuis_max(twistor.ChartEval(chart_p, pts_p))), 1e-3,
                mode="exceeds")
    else:
        rec.add("integrability.twistor_obstruction",
                "nonvanishing W+ obstructs integrability (negative control)",
                n, nmax, 1e-3, mode="exceeds")
    # any sign works where beta vanishes, as in calibrate_epsilon
    if np.max(np.abs(ctx.beta_vals)) >= 1e-10:
        rec.add("integrability.connection_sign",
                "flipping the connection-correction sign breaks integrability",
                n, np.max(twistor.nijenhuis_max(ctx.flipped())), 1e-3, mode="exceeds")
    else:
        rec.skip("integrability.connection_sign",
                 "flipping the connection-correction sign breaks integrability",
                 "connection form negligible on this fixture")


def _run_structure_identities(rec: _Recorder, metric, config: SuiteConfig):
    n = config.points(20)
    ctx = _plain_eval(rec, metric, n, config.seed)  # every check of the suite shares it
    res = twistor.verify_structure_identities(ctx, n_random=6, seed=config.seed)
    for cid, anchor, val in (
        ("identities.cross_k_pairing", "pairing of the vertical cross action with the K wedge", res.cross_k_pairing),
        ("identities.vertical_second_fund", "vertical part of horizontal covariant derivatives is half the curvature rotation", res.vertical_second_fund),
        ("identities.mixed_connection", "derivative of a lift along the fiber is half a curvature lift", res.mixed_connection),
        ("identities.gauss_curvature_duality", "Gauss-map cross of the curvature rotation pairs with the operator", res.gauss_curvature_duality),
        ("identities.mixed_nijenhuis", "mixed Nijenhuis component equals the fiber-map holomorphicity defect", res.mixed_nijenhuis),
        ("identities.horizontal_domega", "covariant derivative of the fundamental form kills horizontal triples", res.horizontal_domega),
    ):
        rec.add(cid, anchor, n, val, 1e-6)
    agree = np.max(twistor.nijenhuis_route_agreement(ctx, n_triples=20, seed=config.seed)[:5])
    rec.add("identities.nijenhuis_routes", "bracket and connection routes to the Nijenhuis tensor agree",
            20, agree, 1e-6)
    hn = twistor.horizontal_nijenhuis_residual(ctx, n_random=6, seed=config.seed)
    rec.add("identities.horizontal_nijenhuis",
            "vertical component of N on lifts equals its curvature expression",
            n, hn, 1e-6)


_H_FUNCS = {
    "zero": (None, "h = 0"),
    "log_pole": (fibermap.power_pole_h(1.0), "h = -log(1-z^2)"),
    "log_pole_2": (fibermap.power_pole_h(2.0), "h = -2 log(1-z^2)"),
}


def _run_balanced(rec: _Recorder, metric, config: SuiteConfig):
    n = config.points(30)
    ctx = _plain_eval(rec, metric, n, config.seed)
    for key, (hf, label) in _H_FUNCS.items():
        rep = twistor.balanced_check(ctx, hf, h_label=label)
        rec.add(f"balanced.{key}", f"square of the Hermitian form is closed ({label})",
                n, rep.max_residual, 1e-7,
                detail={"proof_step_residual": float(rep.proof_step_residual)})
    rep = twistor.balanced_check(ctx, None, weight_mode="x_dependent", h_label="e^{x0}")
    rec.add("balanced.x_weight_control",
            "a base-dependent fiber weight breaks the balanced condition (negative control)",
            n, rep.max_residual, 1e-3, mode="exceeds")


def _run_cone(rec: _Recorder, metric, config: SuiteConfig):
    n = config.points(50)
    fib = config.fiber
    a0, b0 = float(fib["a"]), float(fib["b"])
    base = twistor.cone_wedge_constants(_plain_eval(rec, metric, n, config.seed), a0, b0)
    constancy = "wedge ratios of the 2-form family are constant over the chart"
    if n >= 2:
        rec.add("cone.constancy", constancy, n, max(base.c1_rel_variation, base.c2_rel_variation),
                1e-6, detail={"c1": base.c1, "c2": base.c2})
    else:
        rec.skip("cone.constancy", constancy, "constancy needs at least two sample points")
    rec.add("cone.values", "ratios are 2 a^2 and 4 a b in this volume normalization",
            n, max(abs(base.c1 - 2 * a0**2), abs(base.c2 - 4 * a0 * b0)), 1e-6)
    grid = _plain_eval(rec, metric, 10, config.seed)
    worst = 0.0
    for a in (1.0, 2.0):
        for b in (1.0, 2.0):
            r = twistor.cone_wedge_constants(grid, a, b)
            worst = max(worst, abs(r.c1 / (2 * a * a) - 1.0), abs(r.c2 / (4 * a * b) - 1.0))
    rec.add("cone.scaling", "ratios scale as a^2 and a b over the parameter grid",
            40, worst, 1e-6)


def _run_fibermap(rec: _Recorder, metric, config: SuiteConfig):
    n = config.points(100)
    for pname in ("sphere", "cylinder", "cosh"):
        prof = fibermap.get_profile(pname)
        emap = fibermap.solve_phi(prof, c=float(config.fiber["c"]), branch="quadrature")
        rep = fibermap.conformality_check(prof, emap, sample_count=n)
        rec.add(f"fibermap.quadrature_conformal_{pname}",
                "isothermal-coordinate fiber maps are conformal and orientation-preserving",
                rep.samples_used, rep.max_anisotropy, 1e-6,
                detail={"orientation": rep.orientation, "skipped": rep.samples_skipped})
    sph = fibermap.get_profile("sphere")
    alt = fibermap.solve_phi(sph, c=0.0, branch="alternate_closed_form")
    zs = np.linspace(alt.domain[0] + 1e-3, alt.domain[1] - 1e-3, 50)
    rec.add("fibermap.sphere_alternate_identity",
            "alternate closed form at c = 0 reproduces the identity on the sphere",
            50, float(np.max(np.abs(alt.phi_values(zs) - zs))), 1e-9)
    cyl = fibermap.get_profile("cylinder")
    flatm = fibermap.solve_phi(cyl, c=-0.5, branch="flat_meridian_closed_form")
    rep = fibermap.conformality_check(cyl, flatm, sample_count=n)
    rec.add("fibermap.cylinder_flat_branch_degenerate",
            "flat-meridian closed form degenerates to a constant on the cylinder",
            n, 1.0 if (flatm.degenerate and rep.degenerate) else 0.0, 0.5, mode="exceeds",
            detail={"flagged_degenerate": flatm.degenerate})


def _run_completeness(rec: _Recorder, metric, config: SuiteConfig):
    oracle = {0.0: "incomplete", 0.5: "incomplete", 1.0: "complete",
              1.1: "complete", 2.0: "complete"}
    wrong = 0
    verdicts = {}
    for p, expected in oracle.items():
        v = fibermap.completeness_classify("power_pole", p=p)
        verdicts[str(p)] = v.verdict
        if v.verdict != expected:
            wrong += 1
    rec.add("completeness.power_family",
            "fiber-weight completeness classification matches the antiderivative oracle",
            len(oracle), float(wrong), 0.5, detail={"verdicts": verdicts})
    p = float(config.fiber["p"])
    v = fibermap.completeness_classify(config.fiber["h_family"], p=p)
    rec.add("completeness.configured", f"classification of the configured family (p={p})",
            1, 0.0 if v.verdict in ("complete", "incomplete") else 1.0, 0.5,
            detail={"verdict": v.verdict})


_SUITE_RUNNERS = {
    "curvature": _run_curvature,
    "integrability": _run_integrability,
    "structure_identities": _run_structure_identities,
    "balanced": _run_balanced,
    "cone": _run_cone,
    "fibermap": _run_fibermap,
    "completeness": _run_completeness,
}


def run_suite(config: SuiteConfig) -> dict:
    """Execute the configured suite and assemble the verification report."""
    config.validate()
    metric = kahler.get_fixture(config.metric, **config.params)
    rec = _Recorder(config)
    names = [s for s in SUITES if s != "all"] if config.suite == "all" else [config.suite]
    for name in names:
        try:
            _SUITE_RUNNERS[name](rec, metric, config)
        except TwistorCheckError as exc:
            rec.records.append(CheckRecord(
                f"{name}.numeric_failure", "suite aborted by a numerical error",
                0, float("inf"), 0.0, "below", False,
                {"error": str(exc), "type": type(exc).__name__}))
    checks = [asdict(r) for r in rec.records]
    for c in checks:
        c["max_residual"] = _json_float(c["max_residual"])
        c["threshold"] = _json_float(c["threshold"])
        c["detail"] = _json_clean(c["detail"])
        c["pass"] = c.pop("passed")
    report = {
        "environment": {
            "package": "twistorcheck",
            "version": __version__,
            "seed": int(config.seed),
        },
        "config": {
            "metric": config.metric,
            "params": _json_clean(config.params),
            "suite": config.suite,
            "sample_count": config.sample_count,
            "tol_tier": config.tol_tier,
            "fiber": _json_clean(config.fiber),
        },
        "checks": checks,
        "overall_pass": bool(all(r.passed for r in rec.records)),
    }
    return report


def _json_float(x):
    x = float(x)
    if np.isnan(x):
        return "nan"
    if np.isinf(x):
        return "inf"
    return x


def _json_clean(obj):
    if isinstance(obj, dict):
        return {str(k): _json_clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_clean(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return _json_float(obj)
    if isinstance(obj, (np.bool_, bool)):  # before int: bool is a subclass of int
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def report_to_json(report: dict) -> str:
    """Byte-stable serialization: sorted keys, fixed separators."""
    return json.dumps(report, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"
