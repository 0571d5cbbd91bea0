"""Rotational fiber surfaces and equivariant maps to the unit sphere.

A profile rho(z) > 0 on (z-, z+) describes the surface of revolution
(rho cos(theta), rho sin(theta), z) in R^3 (third axis = rotation axis).
An equivariant map to the unit sphere has the form (theta, z) -> (theta,
phi(z)); it is holomorphic for the complex structures induced by the
embedding metrics exactly when, in the isothermal coordinate
l(z) = integral sqrt(rho'^2 + 1) / rho dz, it is a translation:
phi = tanh(l(z) + c); its reflection -phi is anti-holomorphic.  An
:class:`EquivariantMap` carries its profile, so it alone fixes the fiber of
a modified twistor chart.

The isothermal coordinate is computed by :func:`quad`, composite
Gauss-Legendre whose fixed panels are summed once, cumulatively, for all
upper limits, each limit adding one partial panel; its error estimate is
the gap to the same rule on half as many panels.  The derivatives of phi
come from the integrand's own jet, so a quadrature error in l(z) only
shifts which conformal map phi is at z.

Three solution branches are implemented side by side; the first-principles
conformality verifier (singular values of the differential in the embedding
metrics) adjudicates between them.  Closed forms derived from the flat
meridian normalization |rho'| instead of sqrt(rho'^2 + 1) agree with the
isothermal solution only asymptotically; the cylinder discriminates (the
closed form degenerates to a constant there) and the verifier reports it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import jets
from .errors import DomainError, InputError, NumericError

POLE_MARGIN = 1e-3  # exclusion margin in |phi| for fiber-map evaluations
SAMPLE_MARGIN = 1e-3  # z samples keep this fraction of the map's domain clear
QUAD_NODES = 30     # Gauss-Legendre nodes per panel
QUAD_PANELS = 64    # panels on [a, farthest b]; the error estimate uses half as many
# numpy.polynomial.legendre.leggauss(QUAD_NODES), whose nodes are odd and
# weights even bit for bit: the positive half, as literals (the tests check
# them), so that importing the package does not import numpy.polynomial
_GL_HALF = np.array([
    (0.0514718425553177, 0.10285265289355859), (0.15386991360858354, 0.10176238974840528),
    (0.25463692616788985, 0.09959342058679493), (0.3527047255308781, 0.09636873717464392),
    (0.44703376953808915, 0.09212252223778594), (0.5366241481420199, 0.08689978720108285),
    (0.6205261829892429, 0.08075589522941996), (0.6978504947933158, 0.0737559747377049),
    (0.7677774321048262, 0.06597422988218044), (0.8295657623827684, 0.05749315621761923),
    (0.8825605357920527, 0.04840267283059379), (0.9262000474292743, 0.03879919256962683),
    (0.9600218649683075, 0.02878470788332254), (0.9836681232797472, 0.01846646831109169),
    (0.9968934840746495, 0.007968192496169034)])
_GL_NODES = np.concatenate([-_GL_HALF[::-1, 0], _GL_HALF[:, 0]])
_GL_WEIGHTS = np.concatenate([_GL_HALF[::-1, 1], _GL_HALF[:, 1]])


class SurfaceProfile:
    """Positive profile z -> rho(z) with jets, on an open interval."""

    def __init__(self, rho: Callable, interval, name: str = "custom"):
        self.rho = rho
        self.z_minus, self.z_plus = float(interval[0]), float(interval[1])
        if not self.z_minus < self.z_plus:
            raise InputError("profile interval is empty")
        self.name = name

    def rho_jet(self, z, order: int):
        return self.rho(jets.seed_univariate(z, order))

    def rho_values(self, z):
        z = np.asarray(z, dtype=float)
        return np.asarray(self.rho_jet(z, 0).value)


def sphere_profile() -> SurfaceProfile:
    return SurfaceProfile(lambda zj: jets.sqrt(1.0 - zj * zj), (-1.0, 1.0), name="sphere")


def cylinder_profile() -> SurfaceProfile:
    return SurfaceProfile(lambda zj: zj * 0.0 + 1.0, (-2.0, 2.0), name="cylinder")


def cosh_profile() -> SurfaceProfile:
    def rho(zj):
        e = jets.exp(zj)
        return (e + 1.0 / e) * 0.5

    return SurfaceProfile(rho, (-1.0, 1.0), name="cosh")


PROFILES = {
    "sphere": sphere_profile,
    "cylinder": cylinder_profile,
    "cosh": cosh_profile,
}


def get_profile(name: str) -> SurfaceProfile:
    if name not in PROFILES:
        raise InputError(f"unknown profile '{name}' (have {sorted(PROFILES)})")
    return PROFILES[name]()


# ---------------------------------------------------------------------------
# equivariant maps
# ---------------------------------------------------------------------------

BRANCHES = ("flat_meridian_closed_form", "alternate_closed_form", "quadrature")


@dataclass
class EquivariantMap:
    """Fiber map (theta, z) -> (theta, phi(z)) from the surface of ``profile``,
    phi defined on ``domain`` inside the profile's open interval;
    equivariance is structural."""

    profile: SurfaceProfile
    phi: Callable  # univariate jet (or float array) -> jet
    domain: tuple

    def phi_jet(self, z, order: int):
        return self.phi(jets.seed_univariate(z, order))

    def phi_values(self, z):
        return np.asarray(self.phi_jet(z, 0).value)

    def phi_prime(self, z):
        return np.asarray(self.phi_jet(z, 1).deriv(0).value)

    @cached_property
    def degenerate(self) -> bool:
        """Whether phi is constant: |phi'| < 1e-12 at 64 evenly spaced z,
        SAMPLE_MARGIN of the domain clear of either end.  Computed on first
        read: most maps are never asked, and on a quadrature map the scan is
        a phi evaluation of its own."""
        lo, hi = self.domain
        pad = SAMPLE_MARGIN * (hi - lo)
        zs = np.linspace(lo + pad, hi - pad, 64)
        return bool(np.max(np.abs(self.phi_prime(zs))) < 1e-12)

    def perturbed(self, amount: float) -> "EquivariantMap":
        """phi -> tanh((1 + amount) atanh phi), with atanh p = log((1 + p) /
        (1 - p)) / 2: scales the isothermal coordinate by 1 + amount, so it
        breaks conformality by that factor everywhere, toward the poles too,
        and keeps |phi| < 1."""
        base = self.phi

        def phi(zj):
            p = base(zj)
            return jets.tanh(jets.log((1.0 + p) / (1.0 - p)) * (0.5 * (1.0 + amount)))

        return EquivariantMap(self.profile, phi, self.domain)


def identity_sphere_map() -> EquivariantMap:
    """The identity S^2 -> S^2 (the plain twistor chart's fiber map)."""
    return EquivariantMap(sphere_profile(), lambda zj: zj, (-1.0, 1.0))


def quad(f, a: float, b):
    """Integral of a vectorised ``f`` over [a, b] for an array of upper
    limits ``b``, by composite Gauss-Legendre (Golub & Welsch 1969) with
    QUAD_NODES nodes per panel, each node evaluated once for all limits.

    The limits above ``a`` and those below it are two sides.  Each side lays
    QUAD_PANELS equal panels on [a, its farthest limit] and sums them
    cumulatively; a limit in panel k is the sum of panels 0..k-1 plus one
    partial panel of QUAD_NODES nodes on [left edge of panel k, limit].  The
    error estimate is the gap to the same rule on QUAD_PANELS / 2 panels.
    ``f`` is called once per side and rule, on all of its nodes.
    Returns ``(value, err)``, shaped like ``b``; a limit equal to ``a``
    gives exactly 0 for both, a NaN limit NaN.
    """
    b = np.asarray(b, dtype=float)
    value = np.where(b == a, 0.0, np.nan)
    err = value.copy()
    for side, farthest in ((b > a, np.max), (b < a, np.min)):
        if not np.any(side):
            continue
        lims = b[side]
        sums = []
        for panels in (QUAD_PANELS, QUAD_PANELS // 2):
            half = (farthest(lims) - a) / (2 * panels)
            k = np.clip((lims - a) // (2 * half), 0, panels - 1).astype(int)
            edge = a + 2 * half * k
            part = (lims - edge) / 2  # half-width of each limit's partial panel
            # the full panels but the last, which only ever enters partially
            full = a + half * (2 * np.arange(panels - 1)[:, None] + 1) + half * _GL_NODES
            x = np.concatenate([full, edge[:, None] + part[:, None] * (1 + _GL_NODES)])
            fx = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape) @ _GL_WEIGHTS
            cum = np.concatenate(([0.0], half * np.cumsum(fx[:panels - 1])))
            sums.append(cum[k] + part * fx[panels - 1:])
        fine, coarse = sums
        value[side] = fine
        err[side] = np.abs(fine - coarse)
    return value, err


def isothermal_coordinate(profile: SurfaceProfile, z, z0: float):
    """l(z) = integral_{z0}^{z} sqrt(rho'^2+1)/rho dt, for scalar or array z.

    The rule is :func:`quad`: panel sums on [z0, farthest z] on each side of
    z0, taken cumulatively, plus one partial panel per z, so each node of
    the integrand is evaluated once for all z.  Where the error estimate
    (the gap to the rule on half as many panels) exceeds 1e-6, or the value
    is not finite (a profile that vanishes inside [z0, z], say),
    NumericError is raised naming the worst z.
    """

    def integrand(t):
        j = profile.rho_jet(t, 1)
        rp = np.asarray(j.deriv(0).value)
        return np.sqrt(rp * rp + 1.0) / np.asarray(j.value)

    zs = np.asarray(z, dtype=float)
    val, err = quad(integrand, z0, zs)
    finite = np.isfinite(val) & np.isfinite(err)
    if not np.all(finite):
        raise NumericError(f"quadrature for the isothermal coordinate from z0={z0} is "
                           f"not finite at z={zs[~finite].flat[0]}")
    worst = np.argmax(err)
    if err.flat[worst] > 1e-6:
        raise NumericError(f"quadrature for the isothermal coordinate from z0={z0} failed at "
                           f"z={zs.flat[worst]}: error estimate {err.flat[worst]:.3g} exceeds "
                           f"the bound 1e-6")
    return val if np.ndim(z) else float(val)


def _scan_domain(profile, valid, n=512):
    """Largest subinterval of the profile where ``valid(z)`` holds."""
    zs = np.linspace(profile.z_minus, profile.z_plus, n + 2)[1:-1]
    ok = np.broadcast_to(np.asarray(valid(zs), dtype=bool), zs.shape)
    best, cur_start = None, None
    for i, flag in enumerate(np.append(ok, False)):
        if flag and cur_start is None:
            cur_start = i
        elif not flag and cur_start is not None:
            length = zs[i - 1] - zs[cur_start]
            cand = (zs[cur_start], zs[i - 1])
            if best is None or length > best[1] - best[0] or (
                length == best[1] - best[0] and cand[0] > best[0]
            ):
                best = cand
            cur_start = None
    return best


def solve_phi(profile: SurfaceProfile, c: float = 0.0, sign: int = +1,
              branch: str = "quadrature") -> EquivariantMap:
    """Solve for the equivariant fiber map phi on the given profile.

    branches:

    * ``flat_meridian_closed_form``      phi = sign * sqrt(1 - e^c rho^-2)
    * ``alternate_closed_form``  phi = sign * sqrt(1 - e^c rho^2)
    * ``quadrature``             phi = sign * tanh(l(z) + c) with the
      isothermal l measured from the midpoint of the profile interval

    ``sign = -1`` reflects phi through the equator on every branch.

    Only the quadrature branch is guaranteed conformal in the embedding
    metrics; run :func:`conformality_check` to adjudicate.
    """
    if branch not in BRANCHES:
        raise InputError(f"unknown branch '{branch}' (have {BRANCHES})")
    if sign not in (+1, -1):
        raise InputError("sign must be +1 or -1")

    if branch == "quadrature":
        z0 = 0.5 * (profile.z_minus + profile.z_plus)

        def phi(zj):
            # build phi's Taylor series at the evaluation value, then compose
            # with the incoming jet (so perturbed/derived maps stay exact)
            if not isinstance(zj, jets.Jet):
                zj = jets.seed_univariate(zj, 1)
            order = zj.space.order
            hi = profile.rho(jets.seed_univariate(zj.value, order + 1))
            rho_p = hi.deriv(0)
            rho = hi.truncate(order)
            integrand = jets.sqrt(rho_p * rho_p + 1.0) / rho
            l0 = isothermal_coordinate(profile, np.asarray(zj.value), z0)
            ell = jets.antiderivative(integrand, l0)
            phi_series = jets.tanh(ell + c)
            return sign * jets.compose_univariate(phi_series, zj)

        return EquivariantMap(profile, phi, (profile.z_minus, profile.z_plus))

    with np.errstate(over="ignore"):  # e^c is inf from c ~ 709.8 on: an empty domain
        ec = float(np.exp(c))
    if branch == "flat_meridian_closed_form":
        radicand = lambda rho: 1.0 - ec / (rho * rho)
    else:
        radicand = lambda rho: 1.0 - ec * rho * rho

    # threshold large enough that a touching zero of the radicand splits the
    # domain (e.g. the sphere's alternate branch at c = 0 is odd across z = 0)
    dom = _scan_domain(profile, lambda z: radicand(profile.rho_values(z)) > 1e-4)
    if dom is None:
        raise DomainError(f"branch '{branch}' with c={c} has empty domain on profile '{profile.name}'")

    def phi(zj):
        return sign * jets.sqrt(radicand(profile.rho(zj)))

    return EquivariantMap(profile, phi, dom)


# ---------------------------------------------------------------------------
# conformality verifier (first principles, embedding metrics)
# ---------------------------------------------------------------------------

@dataclass
class ConformalityReport:
    max_anisotropy: float
    orientation: int  # sign of the Jacobian determinant (+1 preserving)
    samples_used: int
    samples_skipped: int
    degenerate: bool


class AnisotropySamples(NamedTuple):
    z: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray
    anisotropy: np.ndarray


def anisotropy_samples(emap: EquivariantMap, sample_count: int) -> AnisotropySamples:
    """phi, phi' and the anisotropy |sigma_meridian / sigma_parallel - 1| of
    df at ``sample_count`` evenly spaced z, SAMPLE_MARGIN of the map's
    domain clear of either end.

    Meridian norms: sqrt(rho'^2 + 1) on the surface, 1/sqrt(1 - zeta^2) on
    the sphere; parallel norms rho and sqrt(1 - zeta^2).  Where |phi| = 1
    the anisotropy is not finite.
    """
    lo, hi = emap.domain
    pad = SAMPLE_MARGIN * (hi - lo)
    zs = np.linspace(lo + pad, hi - pad, sample_count)
    j = emap.phi_jet(zs, 1)
    phi = np.asarray(j.value)
    dphi = np.asarray(j.deriv(0).value)
    rj = emap.profile.rho_jet(zs, 1)
    rho = np.asarray(rj.value)
    rp = np.asarray(rj.deriv(0).value)
    with np.errstate(divide="ignore", invalid="ignore"):
        sigma_parallel = np.sqrt(1.0 - phi * phi) / rho
        sigma_meridian = np.abs(dphi) / np.sqrt(1.0 - phi * phi) / np.sqrt(rp * rp + 1.0)
        aniso = np.abs(sigma_meridian / sigma_parallel - 1.0)
    return AnisotropySamples(zs, phi, dphi, aniso)


def conformality_report(samples: AnisotropySamples) -> ConformalityReport:
    """Verdict on :func:`anisotropy_samples`.  A pole-proximate sample (|phi|
    within POLE_MARGIN of 1) is skipped and counted."""
    keep = np.abs(samples.phi) < 1.0 - POLE_MARGIN
    skipped = int(np.sum(~keep))
    dphi, aniso = samples.dphi[keep], samples.anisotropy[keep]
    if dphi.size == 0:
        raise DomainError("all samples are pole-proximate; nothing to check")
    if np.max(np.abs(dphi)) < 1e-12:
        return ConformalityReport(np.nan, 0, int(dphi.size), skipped, True)
    if np.all(dphi > 0):
        orientation = +1
    elif np.all(dphi < 0):
        orientation = -1
    else:
        orientation = 0
    return ConformalityReport(float(np.max(aniso)), orientation, int(dphi.size), skipped, False)


def conformality_check(emap: EquivariantMap, sample_count: int = 100) -> ConformalityReport:
    """Compare the two singular values of df in the embedding metrics."""
    return conformality_report(anisotropy_samples(emap, sample_count))


# ---------------------------------------------------------------------------
# completeness of the conformally rescaled fiber metric
# ---------------------------------------------------------------------------

@dataclass
class CompletenessVerdict:
    verdict: str  # complete | incomplete | inconclusive
    fitted_exponent: float
    method: str
    detail: dict = field(default_factory=dict)


def power_pole_h(p: float):
    """h_p(zeta) = -p log(1 - zeta^2); p >= 1 makes the fiber metric complete."""

    def h(z):
        return -p * jets.log(1.0 - z * z)

    return h


def completeness_classify(h_family: str = "power_pole", p: Optional[float] = None,
                          h_expr: Optional[Callable] = None) -> CompletenessVerdict:
    """Classify completeness of the fiber metric weighted by e^h.

    The criterion is divergence of integral e^{h(sin(lat))/2} d(lat) toward
    both poles.  The built-in ``power_pole`` family h_p = -p log(1-zeta^2)
    has integrand cos(lat)^{-p}: complete exactly when p >= 1.  General
    expressions are classified by fitting the power-law growth of the
    integrand toward each pole; a fitted exponent within 0.05 of the
    critical value 1 is reported inconclusive.
    """
    if h_family == "power_pole":
        if p is None:
            raise InputError("power_pole family needs the exponent p")
        verdict = "complete" if p >= 1.0 else "incomplete"
        return CompletenessVerdict(verdict, float(p), "closed_form",
                                   {"family": "power_pole", "p": float(p)})
    if h_family != "expression" or h_expr is None:
        raise InputError("h_family must be 'power_pole' or 'expression' (with h_expr)")

    def integrand(lat):
        zeta = np.sin(lat)
        val = h_expr(np.asarray(zeta))
        val = val.value if isinstance(val, jets.Jet) else val
        return np.exp(0.5 * np.asarray(val, dtype=float))

    exps = []
    details = {}
    for pole, direction in (("north", +1.0), ("south", -1.0)):
        # closest approach keeps 1 - sin^2(lat) well above float64 rounding
        eps = np.logspace(-2, -6, 13)
        lats = direction * (np.pi / 2 - eps)
        try:
            vals = integrand(lats)
        except Exception as exc:  # non-integrable interior singularities etc.
            raise InputError(f"weight expression not evaluable near the {pole} pole: {exc}")
        if np.any(~np.isfinite(vals)) or np.any(vals <= 0):
            raise InputError("weight must be positive and finite on the open fiber")
        # integrand ~ C * eps^{-q}: q from the log-log slope
        q = -np.polyfit(np.log(eps), np.log(vals), 1)[0]
        exps.append(q)
        # diagnostic only; truncated away from the pole so quad stays tame
        lo, hi = (0.0, np.pi / 2 - 1e-3) if direction > 0 else (-np.pi / 2 + 1e-3, 0.0)
        with np.errstate(all="ignore"):
            part = quad(integrand, lo, hi)[0]
        details[pole] = {"exponent": float(q), "partial_integral": float(part)}
    q_min = float(min(exps))
    if abs(q_min - 1.0) < 0.05:
        verdict = "inconclusive"
    elif q_min >= 1.0:
        verdict = "complete"
    else:
        verdict = "incomplete"
    return CompletenessVerdict(verdict, q_min, "exponent_fit", details)
