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
evaluation per point count in a run, and every chart, plain or modified,
at any point count, reads one base evaluation of the run's seed.
"""

from __future__ import annotations

import ctypes
import json
import os
import sys
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from . import __version__, fibermap, geometry, kahler, twistor
from .errors import ConfigurationError, GeometryError, TwistorCheckError

TOL_TIERS = {"strict": 1.0, "loose": 100.0}

# Peak RSS grows by about 50 kB a point (Burns, suite=all through the CLI:
# 59 MB at 400 points, 139 MB at 2000, 292 MB at 5000), so 50 000 points
# need about 2.5 GB, under a third of an 8 GB host; a larger count is
# refused before anything is allocated.
MAX_SAMPLE_COUNT = 50_000

# The run's malloc policy on glibc (mallopt parameters from <malloc.h>): from
# the start, the thresholds glibc's own dynamic policy reaches once a process
# frees a 32 MiB mapped block.  Blocks below 32 MiB (its largest mmap threshold
# on 64-bit) come from the heap, not from fresh mmaps, and a freed heap top of
# up to 64 MiB (twice that, as glibc sets it) is kept, so a repeated pass
# reuses the pages the previous one faulted in; a larger run still returns its
# heap top to the kernel.  Setting the trim threshold alone freezes the mmap
# threshold where it stands.  A run that leaves more than the trim threshold
# free anywhere in the heap (a large one frees blocks below live ones, where
# trimming the top cannot reach) returns its free pages after it (malloc_trim).
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRIM_THRESHOLD = 64 << 20
_MMAP_THRESHOLD = 32 << 20

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
                                                  and 1 <= self.sample_count <= MAX_SAMPLE_COUNT):
            raise ConfigurationError(f"sample_count must be an integer in 1..{MAX_SAMPLE_COUNT}, got {self.sample_count!r}")
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


def _row(check_id, anchor, points, residual, threshold, mode, passed, detail) -> dict:
    """One check of a report, as its JSON holds it; ``mode`` is "below"
    (affirmative), "exceeds" (negative control) or "skipped"."""
    return {"check_id": check_id, "anchor": anchor, "points_tested": int(points),
            "max_residual": _json_float(residual), "threshold": _json_float(threshold),
            "mode": mode, "pass": bool(passed), "detail": _json_clean(detail)}


class _Recorder:
    """The report rows of one run, and the evaluations its suites share: the
    widest :class:`kahler.BaseEval` built at the run's seed (:func:`_base`)
    and the plain chart's ChartEval at each point count
    (:func:`_plain_eval`), kept until the run ends."""

    def __init__(self, config: SuiteConfig):
        self.config = config
        self.rows = []
        self.scale = TOL_TIERS[config.tol_tier]
        self.base = None  # the widest BaseEval; see _base
        self.plain_evals = {}  # n -> ChartEval; see _plain_eval

    def add(self, check_id, anchor, points, residual, threshold, mode="below", detail=None):
        thr = float(self.config.tolerances.get(check_id, threshold * (self.scale if mode == "below" else 1.0)))
        residual = float(residual)
        passed = residual < thr if mode == "below" else residual > thr
        self.rows.append(_row(check_id, anchor, points, residual, thr, mode, passed, detail or {}))

    def skip(self, check_id, anchor, reason):
        self.rows.append(_row(check_id, anchor, 0, float("nan"), float("nan"),
                              "skipped", True, {"reason": reason}))


def _run_curvature(rec: _Recorder, metric, config: SuiteConfig):
    n = config.points(50)
    rng = np.random.default_rng(config.seed)
    # the base part of the plain chart's sample at this seed; drawn here too,
    # as the rho duality spot check continues this generator
    pts = metric.chart.sample(n, rng)
    base = _base(rec, metric, n).head(n)
    data, basis = base.curvature(), base.basis
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
    # rho duality spot check, at pts[0] evaluated alone: a slice of data
    # differs from it in the last bits
    base1 = kahler.BaseEval(metric, pts[0])
    worst = _rho_duality(base1.curvature(), base1.basis[:3], rng)
    rec.add("curvature.rho_duality", "derivation action is dual to the curvature operator"
            " under the self-dual cross product", 20, worst, 1e-9)


def _rho_duality(data, s, rng) -> float:
    """max |<Rhat(v x w), xi> - <rho(xi) v, w>| at one point over 20 random
    draws of v, w in Lambda2+ (coefficients on the components ``s`` of s1,
    s2, s3) and of xi, all draws at once; ``rng`` yields them in the order
    of the loop over draws."""
    rounds = [(rng.normal(size=(2, 3)), rng.normal(size=(4, 4))) for _ in range(20)]
    cvw = np.array([c for c, _ in rounds])
    M = np.array([m for _, m in rounds])

    def combine(c):  # c0 s1 + c1 s2 + c2 s3, a draw a row of c
        return c[:, 0, None, None] * s[0] + c[:, 1, None, None] * s[1] + c[:, 2, None, None] * s[2]

    cv, cw = cvw[:, 0], cvw[:, 1]
    v, w, vxw = combine(cv), combine(cw), combine(np.cross(cv, cw))
    xi = M - np.swapaxes(M, -1, -2)
    lhs = geometry._inner_kernel(data.gvals, geometry.curvature_two_vector_action(data, vxw), xi)
    rhs = geometry._inner_kernel(data.gvals, geometry.rho_apply(data, xi, v), w)
    return max([0.0, *(abs(d) for d in (lhs - rhs).tolist())])


def _base(rec: _Recorder, metric, n: int) -> kahler.BaseEval:
    """The base of the charts sampled at the run's seed, on at least ``n``
    base points: the widest built in this run, or a new one on the ``n``
    base points of the seed's sample.  A chart's sample draws its base
    points first and in order (:meth:`geometry.ChartDomain.sample`), so the
    base points of every chart's ``n``-point sample at the seed are the
    first ``n`` of this base's."""
    if rec.base is None or len(rec.base.x) < n:
        rec.base = kahler.BaseEval(metric, metric.chart.sample(n, rec.config.seed))
    return rec.base


def _plain_eval(rec: _Recorder, metric, n: int) -> twistor.ChartEval:
    """The ChartEval of the plain twistor chart on its ``n``-point sample at
    the run's seed, built once per run on the run's base (:func:`_base`):
    every plain-chart suite reads it, so suites with the same point count
    share one evaluation, and suites with fewer points read the head of the
    base."""
    if n not in rec.plain_evals:
        chart = twistor.TwistorChart(metric)
        rec.plain_evals[n] = twistor.ChartEval(chart, chart.sample(n, rec.config.seed),
                                               base=_base(rec, metric, n))
    return rec.plain_evals[n]


def _modified_charts(metric, config: SuiteConfig):
    fib = config.fiber
    emap = fibermap.solve_phi(fibermap.get_profile(fib["profile"]), c=fib["c"], sign=fib["sign"],
                              branch=fib["branch"])
    return twistor.TwistorChart(metric, emap), twistor.TwistorChart(metric, emap.perturbed(0.1))


def _run_integrability(rec: _Recorder, metric, config: SuiteConfig):
    n = config.points(50)
    ctx = _plain_eval(rec, metric, n)
    nmax = np.max(twistor.nijenhuis_max(ctx))
    hyp = metric.hypotheses
    if hyp.kahler and hyp.scalar_flat:  # anti-self-dual, so the twistor space is integrable
        rec.add("integrability.twistor_vanishing",
                "Nijenhuis tensor vanishes over the anti-self-dual base",
                n, nmax, 1e-6)
        # the modified and perturbed charts sampled at the same seed: the same
        # base points as the plain chart, so all three read one base
        base = _base(rec, metric, n)
        chart_s, chart_p = _modified_charts(metric, config)
        ctx_s = twistor.ChartEval(chart_s, chart_s.sample(n, config.seed), base=base)
        rec.add("integrability.modified_holomorphic",
                "isothermal fiber map keeps the modified chart integrable"
                " over the plain chart's base points",
                n, np.max(twistor.nijenhuis_max(ctx_s)), 1e-6)
        ctx_p = twistor.ChartEval(chart_p, chart_p.sample(n, config.seed), base=base)
        rec.add("integrability.modified_perturbed",
                "perturbing the fiber map breaks integrability over the same base points"
                " (negative control)",
                n, np.max(twistor.nijenhuis_max(ctx_p)), 1e-3, mode="exceeds")
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
    ctx = _plain_eval(rec, metric, n)  # every check of the suite shares it
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
    agree = np.max(twistor.nijenhuis_route_agreement(ctx, n_triples=20, seed=config.seed))
    rec.add("identities.nijenhuis_routes", "bracket and connection routes to the Nijenhuis tensor agree",
            n, agree, 1e-6)
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
    ctx = _plain_eval(rec, metric, n)
    for key, (hf, label) in _H_FUNCS.items():
        rep = twistor.balanced_check(ctx, hf)
        rec.add(f"balanced.{key}", f"square of the Hermitian form is closed ({label})",
                n, rep.max_residual, 1e-7,
                detail={"proof_step_residual": float(rep.proof_step_residual)})
    rep = twistor.balanced_check(ctx, None, weight_mode="x_dependent")
    rec.add("balanced.x_weight_control",
            "a base-dependent fiber weight breaks the balanced condition (negative control)",
            n, rep.max_residual, 1e-3, mode="exceeds")


def _run_cone(rec: _Recorder, metric, config: SuiteConfig):
    n = config.points(50)
    fib = config.fiber
    a0, b0 = float(fib["a"]), float(fib["b"])
    base = twistor.cone_wedge_constants(_plain_eval(rec, metric, n), a0, b0)
    constancy = "wedge ratios of the 2-form family are constant over the chart"
    if n >= 2:
        rec.add("cone.constancy", constancy, n, max(base.c1_rel_variation, base.c2_rel_variation),
                1e-6, detail={"c1": base.c1, "c2": base.c2})
    else:
        rec.skip("cone.constancy", constancy, "constancy needs at least two sample points")
    rec.add("cone.values", "ratios are 2 a^2 and 4 a b in this volume normalization",
            n, max(abs(base.c1 - 2 * a0**2), abs(base.c2 - 4 * a0 * b0)), 1e-6)
    grid = _plain_eval(rec, metric, 10)
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
        emap = fibermap.solve_phi(fibermap.get_profile(pname), c=float(config.fiber["c"]),
                                  branch="quadrature")
        rep = fibermap.conformality_check(emap, sample_count=n)
        rec.add(f"fibermap.quadrature_conformal_{pname}",
                "isothermal-coordinate fiber maps are conformal and orientation-preserving",
                rep.samples_used, rep.max_anisotropy, 1e-6,
                detail={"orientation": rep.orientation, "skipped": rep.samples_skipped})
    alt = fibermap.solve_phi(fibermap.get_profile("sphere"), c=0.0, branch="alternate_closed_form")
    zs = np.linspace(alt.domain[0] + 1e-3, alt.domain[1] - 1e-3, 50)
    rec.add("fibermap.sphere_alternate_identity",
            "alternate closed form at c = 0 reproduces the identity on the sphere",
            50, float(np.max(np.abs(alt.phi_values(zs) - zs))), 1e-9)
    flatm = fibermap.solve_phi(fibermap.get_profile("cylinder"), c=-0.5,
                               branch="flat_meridian_closed_form")
    rep = fibermap.conformality_check(flatm, sample_count=n)
    rec.add("fibermap.cylinder_flat_branch_degenerate",
            "flat-meridian closed form degenerates to a constant on the cylinder",
            n, 1.0 if rep.degenerate else 0.0, 0.5, mode="exceeds",
            detail={"flagged_degenerate": rep.degenerate})


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
SUITES = (*_SUITE_RUNNERS, "all")


def _glibc() -> bool:
    """Whether the C library is glibc, whose mallopt numbers keep_heap uses."""
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        return False


def keep_heap():
    """Set the run's malloc policy (above) if the C library is glibc; on any
    other, whose mallopt numbers may mean something else, do nothing.  The
    policy is process-wide: it replaces both thresholds, whatever set them
    before, and stays set for the rest of the process.  It changes no
    arithmetic, only which pages a pass faults in, and setting it again
    changes nothing."""
    if _glibc():
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)


class _Mallinfo2(ctypes.Structure):
    """glibc's ``struct mallinfo2`` (<malloc.h>): every field a size_t."""
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
        "uordblks", "fordblks", "keepcost")]


def release_heap():
    """Return the heap's free pages to the kernel (malloc_trim) if more than
    the trim threshold of it is free; after a run that fits the threshold do
    nothing, so the next run reuses those pages.  A glibc older than 2.33
    has no mallinfo2 to measure the free heap with, so there it trims after
    every run; on any other C library it does nothing."""
    if _glibc():
        libc = ctypes.CDLL(None)
        mallinfo2 = getattr(libc, "mallinfo2", None)
        if mallinfo2 is not None:
            mallinfo2.argtypes, mallinfo2.restype = (), _Mallinfo2
        if mallinfo2 is None or mallinfo2().fordblks > _TRIM_THRESHOLD:
            trim = libc.malloc_trim
            trim.argtypes, trim.restype = (ctypes.c_size_t,), ctypes.c_int
            trim(0)


def run_suite(config: SuiteConfig) -> dict:
    """Execute the configured suite and assemble the verification report.

    It first sets the process's malloc policy (:func:`keep_heap`; glibc
    only), which stays set after it returns: the process keeps up to 64 MiB
    of freed heap, so a later run in it faults in no fresh pages.  A run
    that leaves more free returns it (:func:`release_heap`)."""
    keep_heap()
    config.validate()
    metric = kahler.get_fixture(config.metric, **config.params)
    rec = _Recorder(config)
    names = list(_SUITE_RUNNERS) if config.suite == "all" else [config.suite]
    for name in names:
        start = len(rec.rows)
        try:
            _SUITE_RUNNERS[name](rec, metric, config)
        except TwistorCheckError as exc:
            after = rec.rows[-1]["check_id"] if len(rec.rows) > start else None
            rec.rows.append(_row(
                f"{name}.numeric_failure", "suite aborted by a numerical error",
                0, float("inf"), 0.0, "below", False,
                {"error": str(exc), "type": type(exc).__name__, "after": after}))
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
        "checks": rec.rows,
        "overall_pass": all(r["pass"] for r in rec.rows),
    }
    del metric, rec  # free what the run built before the heap is measured
    release_heap()
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
