"""The 6-dimensional total space: tautological almost-complex structure,
horizontal lifts, Nijenhuis tensor (two routes), Hermitian 2-form family,
and the balancedness / wedge-cone verifications.

Chart coordinates are u = (x0..x3, v, w): x on the base, v the fiber height
coordinate (zeta on the plain twistor chart, z on a modified chart with a
rotational-surface fiber), w the fiber angle.  The fiber sits in the rank-3
bundle of self-dual 2-vectors, identified with R^3 through the orthonormal
frame (s1, s2, s3); the rotation axis is s1 and the surface point is

    p(v, w) = v s1 + rho(v) (cos w s2 + sin w s3).

Conventions fixed here and exercised by the tests:

* horizontal lift X^h = X^k (d_k - eps beta_k d_w) with eps = EPS = +1
  for the beta convention nabla s2 = beta s3 of the kahler module;
  :func:`calibrate_epsilon` derives the same sign from numeric parallel
  transport, and the tests check that the two agree.
* the fiber R^3 carries the cyclic cross product s1 x s2 = s3; the Gauss
  map is the outward normal, and the vertical action of J is eps(p) x .
* J X^h = (K_{F(p)} X)^h with F(p) = phi(v) s1 + sqrt(1-phi^2)(cos w s2 +
  sin w s3) the equivariant fiber-map image (identity on plain charts).
* the fundamental 2-form convention is Omega(X, Y) = h(J X, Y), making
  Omega(X, JX) = |JX|^2 > 0 and the four-term Nijenhuis/D-Omega identity
  hold with the signs used in :func:`nijenhuis_route_agreement`.
* orientation: base complex orientation times the outward fiber
  orientation (d_w, d_v); the coordinate frame (x, v, w) is negatively
  oriented, so the volume component on dx^0123 ^ dv ^ dw is -sqrt(det h).

Field operations take a :class:`ChartEval` as their first argument, never
a (chart, point) pair: build one ``ChartEval(chart, points)`` per point
set and pass it to every check on that set, so J, h, beta and the lazily
derived fields (Christoffel symbols, Nijenhuis tensor, fundamental form)
are computed once.  Results keep the batch axis, also for a single point.
Every tensor field of a ChartEval (g, the self-dual basis S, beta, J, h,
Omega, tau) is one stacked jet in the 6-variable space, assembled with
:func:`jets.contract` in the products and summation order of the scalar
loops it replaced, so the coefficients are those of the loops bit for bit.
A form is the dict of jet components (sorted index tuple -> jet) that a
builder such as :func:`omega_ab_field` returns from a ``ChartEval``; the
components are views of those stacked jets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import jets
from .errors import DomainError, InputError, NumericError, UsageError
from .fibermap import EquivariantMap, SurfaceProfile, identity_sphere_map, sphere_profile
from .geometry import (
    MetricField,
    TwoVector,
    check_spd,
    christoffel_jets,
    curvature_endomorphism,
    curvature_two_vector_action,
    rho_apply,
    sd_basis,
    tensor_partials,
    tensor_values,
    _curvature_from_jets,
    _inner_kernel,
)
from .kahler import adapted_frame, beta_form

TOTAL_DIM = 6
IDX_V, IDX_W = 4, 5

# sign of the connection correction in the vertical coframe {dv, dw + EPS beta}
EPS = +1
FIBER_MARGIN = 1e-2  # fiber sampling keeps this fraction of the interval clear


# ---------------------------------------------------------------------------
# charts
# ---------------------------------------------------------------------------

class TwistorChart:
    """A 6-coordinate chart on the (modified) twistor space over a fixture.

    Plain twistor charts use the sphere profile with the identity fiber map;
    modified charts carry an arbitrary rotational profile and an equivariant
    fiber map phi.  ``eps`` is the sign of the connection correction in the
    vertical coframe {dv, dw + eps beta}: :data:`EPS`, or its negative for
    the negative control built by :meth:`with_eps`.
    """

    def __init__(self, base: MetricField, profile: SurfaceProfile,
                 fmap: Optional[EquivariantMap] = None, eps: int = EPS):
        self.base = base
        self.profile = profile
        self.fmap = fmap if fmap is not None else identity_sphere_map()
        self.eps = eps

    @classmethod
    def twistor(cls, base: MetricField) -> "TwistorChart":
        return cls(base, sphere_profile(), None)

    @classmethod
    def modified(cls, base: MetricField, profile: SurfaceProfile,
                 fmap: EquivariantMap) -> "TwistorChart":
        return cls(base, profile, fmap)

    def with_eps(self, eps: int) -> "TwistorChart":
        return TwistorChart(self.base, self.profile, self.fmap, eps)

    def fiber_interval(self):
        lo, hi = self.fmap.domain if self.fmap.domain else (self.profile.z_minus, self.profile.z_plus)
        lo = max(lo, self.profile.z_minus)
        hi = min(hi, self.profile.z_plus)
        pad = FIBER_MARGIN * (hi - lo)
        return lo + pad, hi - pad

    def sample(self, n: int, rng) -> np.ndarray:
        """n admissible 6-points: base sample x fiber sample (pole-safe)."""
        if isinstance(rng, (int, np.integer)):
            rng = np.random.default_rng(rng)
        xs = self.base.chart.sample(n, rng)
        lo, hi = self.fiber_interval()
        out = np.empty((n, TOTAL_DIM))
        out[:, :4] = xs
        # (v, w) candidates, one row per point; rows whose v lands near a
        # pole of phi are drawn again until all are pole-safe
        todo = np.arange(n)
        for _ in range(1000):
            u = rng.uniform(size=(todo.size, 2))
            out[todo, IDX_V] = lo + (hi - lo) * u[:, 0]
            out[todo, IDX_W] = 2.0 * np.pi * u[:, 1]
            todo = todo[~(np.abs(self.fmap.phi_values(out[todo, IDX_V])) < 1.0 - 1e-3)]
            if not todo.size:
                return out
        raise DomainError("could not sample a pole-safe fiber point")


def calibrate_epsilon(metric: MetricField, seed: int = 2024, steps: int = 24,
                      t_max: float = 0.02):
    """Sign of the connection correction, from numeric parallel transport.

    Transports s2 along a short coordinate segment with an RK4 integrator
    and compares the induced rotation angle in the (s2, s3) plane with the
    integral of beta.  The sign is determined independently at the two
    strongest-connection probe points and must agree.  Returns
    (eps, diagnostics); when beta is negligible on the probe points any
    sign works and +1 is returned.  This is the reference that the fixed
    :data:`EPS` is tested against; verification runs do not call it.
    """
    rng = np.random.default_rng(seed)
    probes = metric.chart.sample(4, rng)
    ranked = []
    for x in probes:
        gjets = metric.jets_at(x, 2)
        b = beta_form(gjets, adapted_frame(gjets), christoffel_jets(gjets)).values
        k = int(np.argmax(np.abs(b)))
        ranked.append((abs(b[k]), k, x))
    ranked.sort(key=lambda t: -t[0])
    if ranked[0][0] < 1e-10:
        return +1, {"beta_negligible": True, "mismatch_ratio": 0.0}
    results = [_transport_sign(metric, x, k, steps, t_max)
               for strength, k, x in ranked[:2] if strength > 1e-10]
    signs = {r[0] for r in results}
    if len(signs) != 1:
        raise NumericError("connection-sign calibration disagrees between probe points")
    return results[0]


def _transport_sign(metric: MetricField, x0, k, steps, t_max):
    # step toward the box interior
    box = metric.chart.box
    direction = 1.0 if x0[k] + t_max <= box[k, 1] else -1.0
    h = t_max / steps

    def probe(x):
        """Metric values, Christoffel values, adapted frame and beta_k at x,
        from one evaluation of the metric."""
        gjets = metric.jets_at(x, 2)
        fr = adapted_frame(gjets)
        gamma = christoffel_jets(gjets)
        return (tensor_values(gjets, 2), tensor_values(gamma, 3), fr,
                beta_form(gjets, fr, gamma).values[k])

    def gamma_action(G, S):
        return -direction * (np.einsum("im,mj->ij", G[:, k, :], S)
                             + np.einsum("jm,im->ij", G[:, k, :], S))

    g, G, fr, b_here = probe(x0)
    S = sd_basis(fr.matrix, g)[1].comps.copy()
    x = x0.copy()
    beta_int = 0.0
    for _ in range(steps):
        xm = x.copy(); xm[k] += direction * h / 2
        xe = x.copy(); xe[k] += direction * h
        Gm = tensor_values(christoffel_jets(metric.jets_at(xm, 1)), 3)
        g, Ge, fr, b_next = probe(xe)
        k1 = gamma_action(G, S)
        k2 = gamma_action(Gm, S + h / 2 * k1)
        k3 = gamma_action(Gm, S + h / 2 * k2)
        k4 = gamma_action(Ge, S + h * k3)
        S = S + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        beta_int += direction * h * 0.5 * (b_here + b_next)
        x, G, b_here = xe, Ge, b_next
    basis1 = sd_basis(fr.matrix, g)
    c2 = _inner_kernel(g, S, basis1[1].comps)
    c3 = _inner_kernel(g, S, basis1[2].comps)
    psi = float(np.arctan2(c3, c2))
    plus_resid = abs(psi + beta_int)   # eps = +1 predicts psi = -int beta
    minus_resid = abs(psi - beta_int)
    eps = +1 if plus_resid < minus_resid else -1
    return eps, {
        "beta_negligible": False,
        "psi": psi,
        "beta_integral": float(beta_int),
        "mismatch_ratio": float(max(plus_resid, minus_resid) / max(abs(beta_int), 1e-30)),
        "match_residual": float(min(plus_resid, minus_resid)),
    }


# ---------------------------------------------------------------------------
# per-point evaluation context
# ---------------------------------------------------------------------------

class ChartEval:
    """All jet fields of a chart at a batch of 6-points, at working order
    ``order``.  Order 1 (values and first derivatives) is all that the
    Nijenhuis tensor, the Christoffel symbols of h and d of a form consume;
    a caller that takes d of a form that was itself built with one d (as
    in checking d d = 0) builds its ChartEval at order 2.  The base metric
    jets are taken one order higher, because the connection form beta
    consumes one order; the frame, beta and :attr:`data4` all come from
    that one evaluation, beta and :attr:`data4` from its one set of
    Christoffel jets, and beta and :attr:`S` share the frame's one
    self-dual basis (:attr:`AdaptedFrame.sd`).

    This is the only place a chart is evaluated at points: every field
    operation of this module takes a ChartEval (and reads the chart from
    :attr:`chart` when it needs it), so one ChartEval per point set serves
    every check on that set.  Derived fields (:attr:`gamma_h`,
    :attr:`nijenhuis`, :attr:`tau`, :attr:`omega_jets`, :attr:`data4`) are
    computed on first use and kept."""

    def __init__(self, chart: TwistorChart, points, order: int = 1):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        self.chart = chart
        self.points = pts
        self.x4 = pts[:, :4]
        self.v = pts[:, IDX_V]
        self.w = pts[:, IDX_W]
        self.W = order
        self.space = jets.get_space(TOTAL_DIM, order)
        self.eps = chart.eps
        self._build_base(order + 1)
        self._build_fiber()
        self._build_J_h()
        self._gamma_h = None
        self._nijenhuis = None
        self._tau = None
        self._omega_jets = None
        self._data4 = None

    # -- base fields ------------------------------------------------------
    def _build_base(self, order):
        self.gjets4 = gj4 = self.chart.base.jets_at(self.x4, order)
        self.gvals = tensor_values(gj4, 2)
        check_spd(self.gvals, self.x4)
        frame = adapted_frame(gj4)
        self._gamma4 = christoffel_jets(gj4)
        beta = beta_form(gj4, frame, self._gamma4)
        self.beta_vals = beta.values
        self.svals = [tensor_values(frame.sd[q], 2) for q in range(3)]

        emb = lambda j: j.truncate(self.W).embed(self.space, (0, 1, 2, 3))
        self.g = emb(gj4)
        self.S = emb(frame.sd)
        self.beta = emb(beta.jets_)
        self.zero = self.g[0, 0] * 0.0
        self.one = self.zero + 1.0

    # -- fiber fields -------------------------------------------------------
    def _build_fiber(self):
        W = self.W
        chart = self.chart
        prof = chart.profile
        if np.any(self.v <= prof.z_minus) or np.any(self.v >= prof.z_plus):
            raise DomainError(
                f"fiber coordinate outside the open profile interval "
                f"({prof.z_minus}, {prof.z_plus})")
        vj_hi = jets.seed_univariate(self.v, W + 1)
        rho_hi = chart.profile.rho(vj_hi)
        phi_hi = chart.fmap.phi(vj_hi)
        emb_v = lambda j: j.embed(self.space, (IDX_V,))
        self.rho = emb_v(rho_hi.truncate(W))
        self.rho_p = emb_v(rho_hi.deriv(0))
        self.phi = emb_v(phi_hi.truncate(W))
        self.phi_p = emb_v(phi_hi.deriv(0))
        wj = jets.seed_univariate(self.w, W)
        self.cw = jets.cos(wj).embed(self.space, (IDX_W,))
        self.sw = jets.sin(wj).embed(self.space, (IDX_W,))
        vj = vj_hi.truncate(W).embed(self.space, (IDX_V,))
        self.vjet = vj
        phi_sq = self.phi * self.phi
        if np.any(phi_sq.value >= 1.0):
            raise DomainError("fiber-map image touches a pole at a sampled point")
        self.r_img = jets.sqrt(1.0 - phi_sq)

    # -- assembled structures ---------------------------------------------
    def _zeros(self, *shape) -> jets.Jet:
        """A stacked jet of tensor shape ``shape`` with every component ``zero``."""
        z = self.zero.coeffs
        return jets.Jet(self.space, np.broadcast_to(
            z[(slice(None),) + (None,) * len(shape)], z.shape[:1] + shape + z.shape[1:]).copy())

    def _build_J_h(self):
        eps = self.eps
        cw, sw = self.cw, self.sw
        # P = a1 s1 + a2 s2 + a3 s3 for the image point F(p)
        coef = jets.stack([self.phi, self.r_img * cw, self.r_img * sw])
        self.P_img = jets.contract("q,qij->ij", coef, self.S)
        # K = -P g (as an endomorphism K^m_j)
        self.K = K = -1.0 * jets.contract("mi,ij->mj", self.P_img, self.g)
        m_len = jets.sqrt(self.rho_p * self.rho_p + 1.0)  # meridian speed
        c_vw = -1.0 * m_len / self.rho   # J d_v = c_vw d_w
        c_wv = self.rho / m_len          # J d_w = c_wv d_v
        J = self._zeros(TOTAL_DIM, TOTAL_DIM)
        J.coeffs[:, :4, :4] = K.coeffs
        J.coeffs[:, IDX_V, :4] = jets.contract(",k->k", eps * c_wv, self.beta).coeffs
        J.coeffs[:, IDX_W, :4] = ((-eps) * jets.contract("mk,m->k", K, self.beta)).coeffs
        J.coeffs[:, IDX_W, IDX_V] = c_vw.coeffs
        J.coeffs[:, IDX_V, IDX_W] = c_wv.coeffs
        self.J = J

        rho_sq = self.rho * self.rho
        h = self._zeros(TOTAL_DIM, TOTAL_DIM)
        h.coeffs[:, :4, :4] = (self.g + jets.contract("i,j,->ij", self.beta, self.beta, rho_sq)).coeffs
        h.coeffs[:, :4, IDX_W] = h.coeffs[:, IDX_W, :4] = jets.contract(
            "i,->i", (eps * 1.0) * self.beta, rho_sq).coeffs
        h.coeffs[:, IDX_V, IDX_V] = (m_len * m_len).coeffs
        h.coeffs[:, IDX_W, IDX_W] = rho_sq.coeffs
        self.h = h

    # -- values and lazy derived fields ------------------------------------
    @property
    def J_values(self):
        return tensor_values(self.J, 2)

    @property
    def h_values(self):
        return tensor_values(self.h, 2)

    @property
    def gamma_h(self):
        """Christoffel values of h in chart coordinates, Gamma^m_{ab}."""
        if self._gamma_h is None:
            self._gamma_h = tensor_values(christoffel_jets(self.h), 3)
        return self._gamma_h

    @property
    def nijenhuis(self):
        """Nijenhuis values N^m_{ab} on coordinate fields (batch leading)."""
        if self._nijenhuis is None:
            self._nijenhuis = _nijenhuis_values(self)
        return self._nijenhuis

    @property
    def tau(self):
        """Tautological 2-form components tau_{ij} (i < j) as jets (views
        of one stacked jet)."""
        if self._tau is None:
            self._tau = _tau_comps(self)
        return self._tau

    @property
    def omega_jets(self):
        """Fundamental form Omega_{ab} = sum_m J^m_a h_{mb} = h(J d_a, d_b)
        as a stacked (6, 6) jet."""
        if self._omega_jets is None:
            self._omega_jets = jets.contract("ma,mb->ab", self.J, self.h)
        return self._omega_jets

    @property
    def data4(self):
        """Base curvature at the points, from the base metric jets above."""
        if self._data4 is None:
            self._data4 = _curvature_from_jets(self.gjets4, self.gvals, self._gamma4)
        return self._data4

    def horizontal_lift_values(self, X):
        X = np.asarray(X, dtype=float)
        out = np.zeros(self.beta_vals.shape[:-1] + (TOTAL_DIM,))
        out[..., :4] = X
        out[..., IDX_W] = -self.eps * np.einsum("...k,...k->...", self.beta_vals, X)
        return out

    def vertical_coframe_pairing(self, Wvec):
        """(dv(W), (dw + eps beta)(W)) for a 6-vector field value."""
        Wvec = np.asarray(Wvec)
        pv = Wvec[..., IDX_V]
        pw = Wvec[..., IDX_W] + self.eps * np.einsum("...k,...k->...", self.beta_vals, Wvec[..., :4])
        return pv, pw

    def fiber_tangents(self):
        """t_v, t_w, outward normal eps3 as (s1,s2,s3)-coordinate triples."""
        rho = self.rho.value
        rp = self.rho_p.value
        cw, sw = np.cos(self.w), np.sin(self.w)
        t_v = np.stack([np.ones_like(rho), rp * cw, rp * sw], axis=-1)
        t_w = np.stack([np.zeros_like(rho), -rho * sw, rho * cw], axis=-1)
        n = np.cross(t_w, t_v)
        eps3 = n / np.linalg.norm(n, axis=-1, keepdims=True)
        return t_v, t_w, eps3

    def fiber_point(self):
        """The fiber point p = (v, rho cos w, rho sin w) as an (s1,s2,s3)-triple."""
        return np.stack([self.vjet.value, (self.rho * self.cw).value,
                         (self.rho * self.sw).value], axis=-1)

    def triple_to_two_vector(self, a3):
        """(s1,s2,s3)-triple -> Lambda2 components, at values level."""
        a3 = np.asarray(a3)
        return (
            a3[..., 0:1, None] * self.svals[0]
            + a3[..., 1:2, None] * self.svals[1]
            + a3[..., 2:3, None] * self.svals[2]
        )

    def two_vector_to_triple(self, comps):
        return np.stack(
            [_inner_kernel(self.gvals, comps, s) for s in self.svals], axis=-1
        )


# ---------------------------------------------------------------------------
# Nijenhuis tensor, two routes
# ---------------------------------------------------------------------------

def _nijenhuis_values(ctx: ChartEval) -> np.ndarray:
    """N^m_{ab} on coordinate fields (batch leading); read it through
    :attr:`ChartEval.nijenhuis`, which computes it once per ChartEval."""
    Jv = ctx.J_values
    dJ = tensor_partials(ctx.J, 2)  # [..., k, m, a] = d_k J^m_a
    t1 = np.einsum("...ka,...kmb->...mab", Jv, dJ)
    t2 = np.einsum("...kb,...kma->...mab", Jv, dJ)
    t3 = np.einsum("...mk,...bka->...mab", Jv, dJ)
    t4 = np.einsum("...mk,...akb->...mab", Jv, dJ)
    return t1 - t2 + t3 - t4


def nijenhuis_max(ctx: ChartEval) -> np.ndarray:
    """Per-point sup-norm of the Nijenhuis coordinate components."""
    return np.max(np.abs(ctx.nijenhuis), axis=(-3, -2, -1))


def _covariant_domega(ctx: ChartEval) -> np.ndarray:
    """(D_k Omega)_{ab} values from the Levi-Civita connection of h."""
    omv = tensor_values(ctx.omega_jets, 2)
    dom = tensor_partials(ctx.omega_jets, 2)  # [..., k, a, b] = d_k Omega_ab
    gh = ctx.gamma_h
    return (
        dom
        - np.einsum("...mka,...mb->...kab", gh, omv)
        - np.einsum("...mkb,...am->...kab", gh, omv)
    )


def _nijenhuis_from_domega(covd, A, JA, B, JB, C) -> np.ndarray:
    """h(N(A,B),C) = (D_A Om)(JB,C) - (D_JB Om)(A,C) - (D_B Om)(JA,C)
    + (D_JA Om)(B,C), from the values ``covd`` of D Omega."""

    def term(X, Y, Z):
        return np.einsum("...kab,...k,...a,...b->...", covd, X, Y, Z)

    return term(A, JB, C) - term(JB, A, C) - term(B, JA, C) + term(JA, B, C)


def nijenhuis_route_agreement(ctx: ChartEval, n_triples: int = 20, seed: int = 0) -> float:
    """max |bracket route - D-Omega route| over random vector triples."""
    N = ctx.nijenhuis
    hv = ctx.h_values
    covd = _covariant_domega(ctx)
    Jv = ctx.J_values
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_triples):
        A, B, C = rng.normal(size=(3, TOTAL_DIM))
        r1 = np.einsum("...mab,a,b,...mc,c->...", N, A, B, hv, C)
        JA = np.einsum("...ma,a->...m", Jv, A)
        JB = np.einsum("...ma,a->...m", Jv, B)
        Ab = np.broadcast_to(A, JA.shape)
        Bb = np.broadcast_to(B, JB.shape)
        Cb = np.broadcast_to(C, JB.shape)
        r2 = _nijenhuis_from_domega(covd, Ab, JA, Bb, JB, Cb)
        worst = max(worst, float(np.max(np.abs(r1 - r2))))
    return worst


# ---------------------------------------------------------------------------
# structure identities
# ---------------------------------------------------------------------------

@dataclass
class StructureResiduals:
    """Max residuals of the five structural identities (+ the horizontal
    D-Omega vanishing) over the sampled random vectors."""

    cross_k_pairing: float      # g(p x V, K_p X ^ Y) = g(V, X ^ Y)
    vertical_second_fund: float  # V(D_{X^h} Y^h) = 1/2 rho(X^Y) p
    mixed_connection: float     # D_V X^h = 1/2 (R(p x V) X)^h
    gauss_curvature_duality: float  # g(eps x rho(X^Y)p, U) = -g(Rhat(p x (eps x U)), X^Y)
    mixed_nijenhuis: float      # h(N(X^h,U),Z^h) = 2 g(J f_* U - f_* J U, X ^ Z)
    horizontal_domega: float    # (D_{X^h} Omega)(Y^h, Z^h) = 2 g(V f_*(X^h), Y^Z) = 0

    @property
    def max_residual(self):
        return max(self.cross_k_pairing, self.vertical_second_fund, self.mixed_connection,
                   self.gauss_curvature_duality, self.mixed_nijenhuis, self.horizontal_domega)


def verify_structure_identities(ctx: ChartEval, n_random: int = 6,
                                seed: int = 0) -> StructureResiduals:
    """Pointwise verification of the connection/curvature identities.

    Identities involving the second fundamental form of the fiber assume the
    round sphere fiber, so this requires a plain twistor chart; the mixed
    Nijenhuis identity itself is exposed separately for modified charts
    (:func:`mixed_nijenhuis_residual`).
    """
    if ctx.chart.profile.name != "sphere":
        raise UsageError("structure identities are verified on sphere-fiber charts")
    rng = np.random.default_rng(seed)
    data = ctx.data4
    t_v, t_w, eps3 = ctx.fiber_tangents()
    p3 = ctx.fiber_point()
    p2v = ctx.triple_to_two_vector(p3)
    Kp = -np.einsum("...mi,...ij->...mj", p2v, ctx.gvals)

    gamma_h = ctx.gamma_h
    Hj = ctx._zeros(TOTAL_DIM, 4)  # [m, j]: components of the field H_j
    Hj.coeffs[:, range(4), range(4)] = ctx.one.coeffs[:, None]
    Hj.coeffs[:, IDX_W] = ((-ctx.eps) * ctx.beta).coeffs
    Hv = tensor_values(Hj, 2)
    dH = tensor_partials(Hj, 2)  # [..., a, m, j] = d_a H_j^m
    # covDH[..., a, m, j] = (D_a H_j)^m
    covDH = dH + np.einsum("...man,...nj->...amj", gamma_h, Hv)

    r1 = r2 = r3 = r4 = r5 = r6 = 0.0
    covd = _covariant_domega(ctx)

    for _ in range(n_random):
        X = rng.normal(size=4)
        Y = rng.normal(size=4)
        cV = rng.normal(size=2)
        V3 = cV[0] * t_v + cV[1] * t_w
        V2 = ctx.triple_to_two_vector(V3)
        XY = np.einsum("i,j->ij", X, Y) - np.einsum("j,i->ij", X, Y)

        # (1) g(p x V, K_p X ^ Y) = g(V, X ^ Y)   [and with X <-> K_p Y]
        pxV = ctx.triple_to_two_vector(np.cross(p3, V3))
        KX = np.einsum("...mj,j->...m", Kp, X)
        KY = np.einsum("...mj,j->...m", Kp, Y)
        KXwY = np.einsum("...i,j->...ij", KX, Y) - np.einsum("j,...i->...ji", Y, KX)
        XwKY = np.einsum("i,...j->...ij", X, KY) - np.einsum("...j,i->...ji", KY, X)
        lhs_a = _inner_kernel(ctx.gvals, pxV, KXwY)
        lhs_b = _inner_kernel(ctx.gvals, pxV, XwKY)
        rhs = _inner_kernel(ctx.gvals, V2, np.broadcast_to(XY, V2.shape))
        r1 = max(r1, float(np.max(np.abs(lhs_a - rhs))), float(np.max(np.abs(lhs_b - rhs))))

        # (2) vertical part of D_{X^h} Y^h equals -1/2 rho(X ^ Y) p.  With
        # R = [nabla,nabla] - nabla_[,] this sign makes the identity hold;
        # the opposite R convention flips it (see the conventions note).
        DXY = np.einsum("...amj,...a,j->...m",
                        covDH, np.einsum("...mj,j->...m", Hv, X), Y)
        pv, pw = ctx.vertical_coframe_pairing(DXY)
        vert3 = pv[..., None] * t_v + pw[..., None] * t_w
        vert2 = ctx.triple_to_two_vector(vert3)
        rho_p2 = rho_apply(data, TwoVector(np.broadcast_to(XY, ctx.gvals.shape[:-2] + (4, 4))), TwoVector(p2v))
        resid = vert2 + 0.5 * rho_p2.comps
        r2 = max(r2, float(np.max(np.abs(_inner_kernel(ctx.gvals, resid, resid)))) ** 0.5)

        # (3) D_V X^h = 1/2 (R(p x V) X)^h with V a vertical coordinate field
        for vidx, t3c in ((IDX_V, t_v), (IDX_W, t_w)):
            DVX = np.einsum("...mj,j->...m", covDH[..., vidx, :, :], X)
            pxt = ctx.triple_to_two_vector(np.cross(p3, t3c))
            RX = np.einsum("...lk,k->...l", curvature_endomorphism(data, pxt), X)
            rhs6 = ctx.horizontal_lift_values(RX) * 0.5
            r3 = max(r3, float(np.max(np.abs(DVX - rhs6))))

        # (4) g(eps x rho(X^Y)p, U) = -g(Rhat(p x (eps x U)), X^Y)
        cU = rng.normal(size=2)
        U3 = cU[0] * t_v + cU[1] * t_w
        rho_p3 = ctx.two_vector_to_triple(rho_p2.comps)
        lhs4 = np.einsum("...i,...i->...", np.cross(eps3, rho_p3), U3)
        arg = ctx.triple_to_two_vector(np.cross(p3, np.cross(eps3, U3)))
        rhs4 = -_inner_kernel(ctx.gvals, curvature_two_vector_action(data, arg),
                              np.broadcast_to(XY, arg.shape))
        r4 = max(r4, float(np.max(np.abs(lhs4 - rhs4))))

        # (5) mixed Nijenhuis against the fiber-map holomorphicity defect
        Z = rng.normal(size=4)
        r5 = max(r5, mixed_nijenhuis_residual(ctx, X, (cU[0], cU[1]), Z))

        # (6) (D_{X^h} Omega)(Y^h, Z^h) = 2 g(V f_*(X^h), Y ^ Z); both sides 0
        Xh = ctx.horizontal_lift_values(X)
        Yh = ctx.horizontal_lift_values(Y)
        Zh = ctx.horizontal_lift_values(Z)
        lhs6 = np.einsum("...kab,...k,...a,...b->...", covd, Xh, Yh, Zh)
        r6 = max(r6, float(np.max(np.abs(lhs6))))

    return StructureResiduals(r1, r2, r3, r4, r5, r6)


def horizontal_nijenhuis_residual(ctx: ChartEval, n_random: int = 6,
                                  seed: int = 0) -> float:
    """Vertical component of N on horizontal lifts against its curvature form.

    Checks h(N(X^h, Y^h), U) = -[ g(p x U, Rhat(JX^JY - X^Y))
                                 + g(p x JU, Rhat(X^JY + JX^Y)) ]
    on sphere-fiber charts (J = K_{F(p)} on the base side).  The overall
    sign is tied to the package's curvature convention, like the vertical
    second-fundamental-form identity.
    """
    if ctx.chart.profile.name != "sphere":
        raise UsageError("the horizontal Nijenhuis identity is verified on sphere-fiber charts")
    N = ctx.nijenhuis
    hv = ctx.h_values
    data = ctx.data4
    t_v, t_w, eps3 = ctx.fiber_tangents()
    p3 = ctx.fiber_point()
    Kv = tensor_values(ctx.K, 2)
    rng = np.random.default_rng(seed)

    def wedge(A, B):
        return np.einsum("...i,...j->...ij", A, B) - np.einsum("...j,...i->...ij", A, B)

    worst = 0.0
    for _ in range(n_random):
        X, Y = rng.normal(size=(2, 4))
        cU = rng.normal(size=2)
        U3 = cU[0] * t_v + cU[1] * t_w
        Xh = ctx.horizontal_lift_values(X)
        Yh = ctx.horizontal_lift_values(Y)
        Uvec = np.zeros(Xh.shape)
        Uvec[..., IDX_V] = cU[0]
        Uvec[..., IDX_W] = cU[1]
        lhs = np.einsum("...mab,...a,...b,...mc,...c->...", N, Xh, Yh, hv, Uvec)
        JX = np.einsum("...mj,j->...m", Kv, X)
        JY = np.einsum("...mj,j->...m", Kv, Y)
        XYb = np.broadcast_to(np.einsum("i,j->ij", X, Y) - np.einsum("j,i->ij", X, Y),
                              ctx.gvals.shape)
        arg1 = wedge(JX, JY) - XYb
        arg2 = wedge(np.broadcast_to(X, JX.shape), JY) + wedge(JX, np.broadcast_to(Y, JY.shape))
        pxU = ctx.triple_to_two_vector(np.cross(p3, U3))
        pxJU = ctx.triple_to_two_vector(np.cross(p3, np.cross(eps3, U3)))
        rhs = -(_inner_kernel(ctx.gvals, pxU, curvature_two_vector_action(data, arg1))
                + _inner_kernel(ctx.gvals, pxJU, curvature_two_vector_action(data, arg2)))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def mixed_nijenhuis_residual(ctx: ChartEval, X, U_fiber, Z) -> float:
    """max over the points of ``ctx`` of
    |h(N(X^h,U),Z^h) - 2 g(J f_* U - f_* J U, X ^ Z)|.

    This is the identity itself (valid whether or not f is holomorphic);
    its right side vanishes exactly when the fiber map is holomorphic.
    """
    N = ctx.nijenhuis
    hv = ctx.h_values
    X = np.asarray(X, float)
    Z = np.asarray(Z, float)
    u4, u5 = U_fiber
    t_v, t_w, eps3 = ctx.fiber_tangents()

    Xh = ctx.horizontal_lift_values(X)
    Zh = ctx.horizontal_lift_values(Z)
    U = np.zeros(Xh.shape)
    U[..., IDX_V] = u4
    U[..., IDX_W] = u5
    lhs = np.einsum("...mab,...a,...b,...mc,...c->...", N, Xh, U, hv, Zh)

    phi = ctx.phi.value
    phi_p = ctx.phi_p.value
    rF = np.sqrt(1.0 - phi * phi)
    cw, sw = np.cos(ctx.w), np.sin(ctx.w)
    tS2_v = np.stack([np.ones_like(phi), -phi * cw / rF, -phi * sw / rF], axis=-1)
    tS2_w = np.stack([np.zeros_like(phi), -rF * sw, rF * cw], axis=-1)
    F3 = np.stack([phi, rF * cw, rF * sw], axis=-1)

    fstar_U = (phi_p * u4)[..., None] * tS2_v + u5 * tS2_w
    J_fstar_U = np.cross(F3, fstar_U)
    U3 = u4 * t_v + u5 * t_w
    JU3 = np.cross(eps3, U3)
    c_v = np.einsum("...i,...i->...", JU3, t_v) / np.einsum("...i,...i->...", t_v, t_v)
    c_w = np.einsum("...i,...i->...", JU3, t_w) / np.einsum("...i,...i->...", t_w, t_w)
    fstar_JU = (phi_p * c_v)[..., None] * tS2_v + c_w[..., None] * tS2_w

    diff2 = ctx.triple_to_two_vector(J_fstar_U - fstar_JU)
    XZ = np.einsum("i,j->ij", X, Z) - np.einsum("j,i->ij", X, Z)
    rhs = 2.0 * _inner_kernel(ctx.gvals, diff2, np.broadcast_to(XZ, diff2.shape))
    return float(np.max(np.abs(lhs - rhs)))


# ---------------------------------------------------------------------------
# differential forms on the chart
# ---------------------------------------------------------------------------

@dataclass
class FormValue:
    """Antisymmetric coordinate components of a k-form at chart point(s)."""

    degree: int
    comps: dict  # sorted index tuple -> coefficient (scalar or batch array)

    def __call__(self, *vectors):
        """Evaluate on ``degree`` many 6-vectors (full antisymmetrization)."""
        if len(vectors) != self.degree:
            raise UsageError(f"form of degree {self.degree} takes {self.degree} vectors")
        vs = [np.asarray(v, float) for v in vectors]
        total = 0.0
        for perm in itertools.permutations(range(self.degree)):
            sign = _perm_sign(perm)
            for idx, c in self.comps.items():
                term = c
                for slot, i in enumerate(idx):
                    term = term * vs[perm[slot]][..., i]
                total = total + sign * term
        return total


def _perm_sign(seq) -> int:
    sign = 1
    seq = list(seq)
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def _merge_keys(a, b):
    if set(a) & set(b):
        return None, 0
    combined = a + b
    return tuple(sorted(combined)), _perm_sign(combined)


def wedge_dicts(c1: dict, c2: dict) -> dict:
    out = {}
    for ka, va in c1.items():
        for kb, vb in c2.items():
            key, sign = _merge_keys(ka, kb)
            if key is None:
                continue
            term = (sign * 1.0) * (va * vb)
            out[key] = out.get(key, 0.0) + term
    return {k: v for k, v in out.items()}


def d_dict(comps: dict, to_values: bool = True) -> dict:
    """Exterior derivative of jet-valued components, as values at the points
    of the ChartEval the components were built on, or as jets one order
    lower (``to_values=False``).  Taking d of a form that was itself built
    with one d needs a ChartEval at order 2."""
    out = {}
    for key, cj in comps.items():
        for k in range(TOTAL_DIM):
            if k in key:
                continue
            dkc = cj.deriv(k) if isinstance(cj, jets.Jet) else None
            if dkc is None:
                raise UsageError("exterior derivative needs jet-valued components")
            new, sign = _merge_keys((k,), key)
            val = dkc.value if to_values else dkc
            out[new] = out.get(new, 0.0) + sign * val
    return out


def _form_values(comps: dict) -> dict:
    """Values of jet components, at the ChartEval's points."""
    return {k: np.asarray(v.value) for k, v in comps.items()}


# ---------------------------------------------------------------------------
# the Hermitian family Omega_h / Omega_{a,b}
# ---------------------------------------------------------------------------

def _tau_comps(ctx: ChartEval) -> dict:
    """Tautological 2-form tau(A,B) = 2 g(F(p), dpi A ^ dpi B) as jets:
    (g P g)_{ij} for the index pairs p = (i, j), i < j."""
    i, j = np.triu_indices(4, 1)  # the pairs i < j, in row order
    gPg = jets.contract("pm,mn,np->p", ctx.g[i], ctx.P_img, ctx.g[:, j])
    return {(a, b): gPg[p] for p, (a, b) in enumerate(zip(i.tolist(), j.tolist()))}


def _fiber_area_comps(ctx: ChartEval, weight) -> dict:
    """weight * f^*((dw + eps beta) ^ dv) with the outward orientation."""
    wphi = weight * ctx.phi_p
    out = {(IDX_V, IDX_W): -1.0 * wphi}
    beta_w = jets.contract("k,->k", (ctx.eps * 1.0) * ctx.beta, wphi)
    for k in range(4):
        out[(k, IDX_V)] = beta_w[k]
    return out


def omega_ab_field(ctx: ChartEval, h_func: Optional[Callable], a: float = 1.0,
                   b: float = 1.0, weight_mode: str = "fiber") -> dict:
    """Omega = a tau + b e^{h} omega_FS as jet components at ``ctx``.

    ``h_func`` takes the fiber height jet (the sphere coordinate through the
    fiber map) and returns a jet; None means h = 0.  ``weight_mode``
    'x_dependent' replaces e^{h} by e^{x0} (negative control: the
    balancedness proof needs a rotation-invariant fiber weight).
    """
    if a <= 0 or b <= 0:
        raise InputError("cone parameters a, b must be positive")
    comps = {k: (a * 1.0) * v for k, v in ctx.tau.items()}
    if weight_mode == "fiber":
        hval = h_func(ctx.phi) if h_func is not None else None
        weight = jets.exp(hval) * b if hval is not None else ctx.one * b
    elif weight_mode == "x_dependent":
        xj = jets.Jet.variable(ctx.space, 0, ctx.points[:, 0])
        weight = jets.exp(xj) * b
    else:
        raise InputError(f"unknown weight_mode '{weight_mode}'")
    for k, v in _fiber_area_comps(ctx, weight).items():
        comps[k] = comps.get(k, ctx.zero) + v
    return comps


def hermitian_positivity(ctx: ChartEval, h_func=None, a=1.0, b=1.0,
                         n_vectors: int = 50, seed: int = 0) -> float:
    """min over random v != 0 of Omega(v, Jv); positive for a Hermitian form."""
    fv = FormValue(2, _form_values(omega_ab_field(ctx, h_func, a, b)))
    Jv = ctx.J_values
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(n_vectors):
        vec = rng.normal(size=TOTAL_DIM)
        vec /= np.linalg.norm(vec)
        jvec = np.einsum("...ma,a->...m", Jv, vec)
        vals = fv(np.broadcast_to(vec, jvec.shape), jvec)
        worst = min(worst, float(np.min(vals)))
    return worst


@dataclass
class BalancedReport:
    max_residual: float          # sup |d(Omega_h^2)| components
    proof_step_residual: float   # sup |d(e^h omega_FS) ^ tau| (diagnostic)
    points_tested: int
    h_label: str


def balanced_check(ctx: ChartEval, h_func: Optional[Callable], a: float = 1.0,
                   b: float = 1.0, weight_mode: str = "fiber",
                   h_label: str = "h") -> BalancedReport:
    """Verify d(Omega_h^2) = 0 at the points of ``ctx`` (the balanced
    condition).

    Also reports the non-closedness of the weighted fiber form wedged with
    tau, the quantity whose cancellation structure carries the proof.
    """
    comps = omega_ab_field(ctx, h_func, a, b, weight_mode)
    omega2 = wedge_dicts(comps, comps)
    d_omega2 = d_dict(omega2)
    max_resid = max(float(np.max(np.abs(v))) for v in d_omega2.values()) if d_omega2 else 0.0

    fo_comps = {k: v for k, v in comps.items() if IDX_V in k or IDX_W in k}
    d_fo = d_dict(fo_comps)  # 3-form values
    proof = wedge_dicts(d_fo, _form_values(ctx.tau))
    proof_resid = max(float(np.max(np.abs(v))) for v in proof.values()) if proof else 0.0
    return BalancedReport(max_resid, proof_resid, len(ctx.points), h_label)


@dataclass
class ConeReport:
    c1: float
    c2: float
    c1_rel_variation: float
    c2_rel_variation: float
    points_tested: int


def cone_wedge_constants(ctx: ChartEval, a: float, b: float) -> ConeReport:
    """c1 = (Omega^2 ^ omega_FS)/vol_h and c2 = (Omega^2 ^ tau)/vol_h at the
    points of ``ctx``.

    Both are constant over the chart; with the conventions here (omega^2 =
    2 vol_g on the base, unit-sphere fiber area) c1 = 2 a^2 and c2 = 4 a b.
    """
    vals = _form_values(omega_ab_field(ctx, None, a, b))
    omega2 = wedge_dicts(vals, vals)
    tau_vals = _form_values(ctx.tau)
    fs_vals = _form_values(_fiber_area_comps(ctx, ctx.one))
    top = tuple(range(TOTAL_DIM))
    hv = ctx.h_values
    vol = -np.sqrt(np.linalg.det(hv))  # see module docstring on orientation
    w1 = wedge_dicts(omega2, fs_vals).get(top, 0.0)
    w2 = wedge_dicts(omega2, tau_vals).get(top, 0.0)
    c1 = w1 / vol
    c2 = w2 / vol

    def relvar(c):
        return float((np.max(c) - np.min(c)) / max(abs(np.mean(c)), 1e-300))

    return ConeReport(float(np.mean(c1)), float(np.mean(c2)),
                      relvar(c1), relvar(c2), len(ctx.points))
