"""Rotational fiber surfaces and equivariant maps to the unit sphere.

A profile rho(z) > 0 on (z-, z+) describes the surface of revolution
(rho cos(theta), rho sin(theta), z) in R^3 (third axis = rotation axis).
An equivariant map to the unit sphere has the form (theta, z) -> (theta,
phi(z)); it is holomorphic for the complex structures induced by the
embedding metrics exactly when, in the isothermal coordinate
l(z) = integral sqrt(rho'^2 + 1) / rho dz, it is a translation:
phi = tanh(l(z) + c).

The isothermal coordinate is computed by :func:`quad`, composite
Gauss-Legendre on fixed panels with the integrand evaluated on the nodes of
all points at once; its error estimate is the gap to the sum on half as many
panels.  The derivatives of phi come from the integrand's own jet, so a
quadrature error in l(z) only shifts which conformal map phi is at z.

Three solution branches are implemented side by side; the first-principles
conformality verifier (singular values of the differential in the embedding
metrics) adjudicates between them.  Closed forms derived from the flat
meridian normalization |rho'| instead of sqrt(rho'^2 + 1) agree with the
isothermal solution only asymptotically; the cylinder discriminates (the
closed form degenerates to a constant there) and the verifier reports it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import jets
from .errors import DomainError, InputError, NumericError

POLE_MARGIN = 1e-3  # exclusion margin in |phi| for fiber-map evaluations
SAMPLE_MARGIN = 1e-3  # z samples keep this fraction of the map's domain clear
QUAD_NODES = 30     # Gauss-Legendre nodes per panel
QUAD_PANELS = 64    # panels on [a, b]; the error estimate uses half as many
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(QUAD_NODES)


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

    def rho_prime(self, z):
        z = np.asarray(z, dtype=float)
        j = self.rho_jet(z, 1)
        return np.asarray(j.deriv(0).value)


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
    """Fiber map (theta, z) -> (theta, phi(z)); equivariance is structural."""

    profile: SurfaceProfile
    phi: Callable  # univariate jet (or float array) -> jet
    c: float
    branch: str
    sign: int = +1
    domain: tuple = None
    degenerate: bool = False

    def phi_jet(self, z, order: int):
        return self.phi(jets.seed_univariate(z, order))

    def phi_values(self, z):
        return np.asarray(self.phi_jet(z, 0).value)

    def phi_prime(self, z):
        return np.asarray(self.phi_jet(z, 1).deriv(0).value)

    def perturbed(self, amount: float) -> "EquivariantMap":
        """phi -> phi + amount * (1 - phi^2): breaks conformality, keeps |phi|<1."""
        base = self.phi

        def phi(zj):
            p = base(zj)
            return p + amount * (1.0 - p * p)

        return EquivariantMap(self.profile, phi, self.c, self.branch + "+perturbed",
                              self.sign, self.domain, False)


def identity_sphere_map() -> EquivariantMap:
    """The identity S^2 -> S^2 (the plain twistor chart's fiber map)."""
    prof = sphere_profile()
    return EquivariantMap(prof, lambda zj: zj, 0.0, "identity", +1, (-1.0, 1.0))


def quad(f, a: float, b):
    """Integral of a vectorised ``f`` over [a, b] for an array of upper
    limits ``b``, by composite Gauss-Legendre (Golub & Welsch 1969):
    QUAD_PANELS equal panels of QUAD_NODES nodes each.

    ``f`` is called twice, each time on the nodes of every limit: once for
    QUAD_PANELS panels and once for QUAD_PANELS / 2 (one call for both
    would double the peak memory).  Returns ``(value, err)``, shaped like
    ``b``: the QUAD_PANELS-panel sum and its gap to the coarser sum.
    """
    b = np.asarray(b, dtype=float)
    sums = []
    for panels in (QUAD_PANELS, QUAD_PANELS // 2):
        half = (b - a) / (2 * panels)
        h = half[..., None, None]
        x = a + h * (2 * np.arange(panels)[:, None] + 1) + h * _GL_NODES  # b.shape + (panels, QUAD_NODES)
        fx = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
        sums.append(half * (fx @ _GL_WEIGHTS).sum(axis=-1))
    fine, coarse = sums
    return fine, np.abs(fine - coarse)


def isothermal_coordinate(profile: SurfaceProfile, z, z0: float):
    """l(z) = integral_{z0}^{z} sqrt(rho'^2+1)/rho dt, for scalar or array z.

    The rule is :func:`quad`: composite Gauss-Legendre with QUAD_PANELS
    panels of QUAD_NODES nodes, the integrand evaluated on the nodes of all
    z at once.  The error estimate is the gap to the QUAD_PANELS / 2 panel
    sum; where it exceeds 1e-6, or the value is not finite (a profile that
    vanishes inside [z0, z], say), NumericError is raised.
    """

    def integrand(t):
        j = profile.rho_jet(t, 1)
        rp = np.asarray(j.deriv(0).value)
        return np.sqrt(rp * rp + 1.0) / np.asarray(j.value)

    zs = np.asarray(z, dtype=float)
    val, err = quad(integrand, z0, zs)
    bad = ~(np.isfinite(val) & (err <= 1e-6))
    if np.any(bad):
        raise NumericError(f"quadrature for the isothermal coordinate failed at z={zs[bad][0]}")
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
    * ``quadrature``             phi = tanh(l(z) + c) with the isothermal l
      measured from the midpoint of the profile interval

    Only the quadrature branch is guaranteed conformal in the embedding
    metrics; run :func:`conformality_check` to adjudicate.
    """
    if branch not in BRANCHES:
        raise InputError(f"unknown branch '{branch}' (have {BRANCHES})")
    if sign not in (+1, -1):
        raise InputError("sign must be +1 or -1")
    ec = float(np.exp(c))

    if branch == "quadrature":
        z0 = 0.5 * (profile.z_minus + profile.z_plus)

        def phi(zj):
            # build phi's Taylor series at the evaluation value, then compose
            # with the incoming jet (so perturbed/derived maps stay exact)
            if not isinstance(zj, jets.Jet):
                zj = jets.seed_univariate(zj, 1)
            order = zj.space.order
            hi = profile.rho(_reseed(zj, order + 1))
            rho_p = hi.deriv(0)
            rho = hi.truncate(order)
            integrand = jets.sqrt(rho_p * rho_p + 1.0) / rho
            l0 = isothermal_coordinate(profile, np.asarray(zj.value), z0)
            ell = jets.antiderivative(integrand, l0)
            phi_series = jets.tanh(ell + c)
            return jets.compose_univariate(phi_series, zj)

        m = EquivariantMap(profile, phi, c, branch, sign, (profile.z_minus, profile.z_plus))
        _flag_degenerate(m)
        return m

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

    m = EquivariantMap(profile, phi, c, branch, sign, dom)
    _flag_degenerate(m)
    return m


def _reseed(zj, order):
    return jets.seed_univariate(zj.value, order)


def _flag_degenerate(m: EquivariantMap, n: int = 64, tol: float = 1e-12):
    lo, hi = m.domain
    pad = 1e-3 * (hi - lo)
    zs = np.linspace(lo + pad, hi - pad, n)
    m.degenerate = bool(np.max(np.abs(m.phi_prime(zs))) < tol)


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

    @property
    def conformal(self):
        return (not self.degenerate) and self.max_anisotropy < 1e-6 and self.orientation > 0


class AnisotropySamples(NamedTuple):
    z: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray
    anisotropy: np.ndarray


def anisotropy_samples(profile: SurfaceProfile, emap: EquivariantMap,
                       sample_count: int) -> AnisotropySamples:
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
    rho = profile.rho_values(zs)
    rp = profile.rho_prime(zs)
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


def conformality_check(profile: SurfaceProfile, emap: EquivariantMap,
                       sample_count: int = 100) -> ConformalityReport:
    """Compare the two singular values of df in the embedding metrics."""
    return conformality_report(anisotropy_samples(profile, emap, sample_count))


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
