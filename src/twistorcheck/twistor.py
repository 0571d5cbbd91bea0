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
set and pass it to every check on that set, so each field is computed at
most once per point set, and only when a check reads it; its base fields
come from one :class:`kahler.BaseEval`, which the charts over the same base
points can share (a narrower one reads the head of a wider).  The sign eps
lives on the evaluation: :meth:`ChartEval.flipped` gives the negative
control on the same points without evaluating the base again.  Results
keep the batch axis, also for a single point.
Every tensor field of a ChartEval (g, the self-dual basis S, beta, J, h,
Omega, tau) is one stacked jet of order 1 in the 6-variable space,
assembled with :func:`jets.contract` in the products and summation order
of the scalar loops it replaced, so the coefficients are those of the
loops bit for bit but for signs of zero: the sums leave out the terms
that read a component which is zero everywhere (the diagonal of P, the
zero blocks of J and h; see ``jets``).  A k-form is a :class:`Form`, one
stacked jet over its sorted index tuples.  :func:`wedge_dicts` and
:func:`d_dict` run a :class:`jets.Terms` grid built once per key
pattern, in the loop order of the dict code they replaced, so the
coefficients are those of that code bit for bit; :func:`d_wedge`, which
the balanced check calls, forms only the partials of a wedge that d
reads, each product pair of a ^ a once, with the bytes of d of the wedge.

The value-level identity checks (the structure identities, the two
Nijenhuis routes, the horizontal and mixed Nijenhuis identities) evaluate
all their random draws at once: the draws come from the generator in the
order of a loop over them, stacked on a leading axis, in blocks whose
(draws, points, 6, 6, 6) arrays stay within jets.CHUNK_DOUBLES (one draw
a block from 76 points).  They keep the bits of one evaluation a draw by
np.einsum's order.  Without ``optimize``, np.einsum multiplies the factors
of a term left to right, and adds the terms of each output in an order it
takes from the operands' strides: runs along the innermost axis, each
summed from zero, then added one by one.  So a leading draw axis (largest
strides, or none) leaves each draw's order unchanged; a product of the
leading factors formed beforehand gives the same terms; and slicing out
the components that are structurally zero (the v component of a
horizontal lift, the base components of a vertical vector) drops only
terms that are zeros for finite fields.  A reduction keeps three or more
operands: with two, numpy sums a contiguous run in SIMD lanes, in another
order.  tests/scalar_reference.py keeps the loops over the draws.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Optional

import numpy as np

from . import jets
from .errors import DomainError, InputError, NumericError, UsageError
from .fibermap import POLE_MARGIN, EquivariantMap, identity_sphere_map
from .geometry import (
    MetricField,
    TwoVector,
    christoffel_jets,
    covariant_derivative,
    curvature_endomorphism,
    curvature_two_vector_action,
    rho_apply,
    tensor_partials,
    tensor_values,
    wedge,
    _inner_kernel,
)
from .kahler import BaseEval

TOTAL_DIM = 6
IDX_V, IDX_W = 4, 5

# sign of the connection correction in the vertical coframe {dv, dw + EPS beta}
EPS = +1
FIBER_MARGIN = 1e-2  # fiber sampling keeps this fraction of the interval clear


# ---------------------------------------------------------------------------
# charts
# ---------------------------------------------------------------------------

class TwistorChart:
    """A 6-coordinate chart on the (modified) twistor space over a fixture:
    its base metric and one equivariant fiber map ``fmap``, which carries the
    fiber's profile; without one, the identity of the sphere, the plain
    twistor chart.  The sign eps of the connection correction is not part
    of the chart; it lives on :class:`ChartEval`.
    """

    def __init__(self, base: MetricField, fmap: Optional[EquivariantMap] = None):
        self.base = base
        self.fmap = fmap if fmap is not None else identity_sphere_map()

    def fiber_interval(self):
        """The map's domain, FIBER_MARGIN of it clear of either end."""
        lo, hi = self.fmap.domain
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
            todo = todo[~(np.abs(self.fmap.phi_values(out[todo, IDX_V])) < 1.0 - POLE_MARGIN)]
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
    probes = metric.chart.sample(4, np.random.default_rng(seed))
    beta = np.abs(tensor_values(BaseEval(metric, probes, order=1).connection[1], 1))  # [probe, k]
    ks, strength = np.argmax(beta, axis=1), np.max(beta, axis=1)
    ranked = np.argsort(-strength, kind="stable")
    if strength[ranked[0]] < 1e-10:
        return +1, {"beta_negligible": True, "mismatch_ratio": 0.0}
    results = [_transport_sign(metric, probes[i], int(ks[i]), steps, t_max)
               for i in ranked[:2] if strength[i] > 1e-10]
    signs = {r[0] for r in results}
    if len(signs) != 1:
        raise NumericError("connection-sign calibration disagrees between probe points")
    return results[0]


def _transport_sign(metric: MetricField, x0, k, steps, t_max):
    # step toward the box interior
    box = metric.chart.box
    direction = 1.0 if x0[k] + t_max <= box[k, 1] else -1.0
    h = t_max / steps
    # the path's RK4 stage points, evaluated at once (values only, which the
    # base gives bit for bit at order 1): x0, then the midpoint and the end
    # of each step; the ends summed step by step, as x[k] += direction * h
    ends = np.cumsum(np.concatenate([[x0[k]], np.full(steps, direction * h)]))
    path = np.repeat(np.asarray(x0, dtype=float)[None], 2 * steps + 1, axis=0)
    path[0::2, k] = ends
    path[1::2, k] = ends[:-1] + direction * h / 2
    base = BaseEval(metric, path, order=1)
    G = tensor_values(base.gamma_jets, 3)
    sd, beta = base.connection
    s = tensor_values(sd, 3)  # [point, q, i, j]: s1, s2, s3
    b = tensor_values(beta, 1)[:, k]

    def gamma_action(G, S):
        return -direction * (np.einsum("im,mj->ij", G[:, k, :], S)
                             + np.einsum("jm,im->ij", G[:, k, :], S))

    S = s[0, 1].copy()
    beta_int = 0.0
    for j in range(0, 2 * steps, 2):
        k1 = gamma_action(G[j], S)
        k2 = gamma_action(G[j + 1], S + h / 2 * k1)
        k3 = gamma_action(G[j + 1], S + h / 2 * k2)
        k4 = gamma_action(G[j + 2], S + h * k3)
        S = S + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        beta_int += direction * h * 0.5 * (b[j] + b[j + 2])
    g = base.gvals[-1]
    c2 = _inner_kernel(g, S, s[-1, 1])
    c3 = _inner_kernel(g, S, s[-1, 2])
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
    """All jet fields of a chart at a batch of 6-points, at order 1: values
    and first derivatives, all that the Nijenhuis tensor, the Christoffel
    symbols of h and d of a form consume.  The base fields come from a
    :class:`kahler.BaseEval` of order 2, as beta consumes one order:
    ``base`` when given, which may be wider than the points (it must be of
    the chart's metric, and its first points must be the base points of
    ``points``), else one built here.  The plain and the modified charts
    over the same base points differ only in their fibers, so they can
    share one base; its connection is built once, on the whole base, and a
    chart on its first n points reads the heads of its fields, sliced
    rather than evaluated again.  :attr:`base` is that evaluation at the
    points, and :attr:`data4` is the curvature of that.

    This is the only place a chart is evaluated at points: every field
    operation of this module takes a ChartEval (and reads the chart from
    :attr:`chart` when it needs it), so one ChartEval per point set serves
    every check on that set.  The base and fiber fields built on
    construction do not depend on the sign ``eps`` (:data:`EPS`); every
    other field (P, K, J, h and the meridian speed they share, the
    Christoffel symbols of h, the Nijenhuis tensor, tau, Omega, D Omega and
    :attr:`data4`) is computed on first read and kept."""

    def __init__(self, chart: TwistorChart, points, base: Optional[BaseEval] = None):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        self.chart = chart
        self.points = pts
        self.x4 = pts[:, :4]
        self.v = pts[:, IDX_V]
        self.w = pts[:, IDX_W]
        self.space = jets.get_space(TOTAL_DIM, 1)
        self.eps = EPS
        self._build_base(BaseEval(chart.base, self.x4) if base is None else base)
        self._build_fiber()

    def flipped(self) -> "ChartEval":
        """The same points with eps negated (the connection-sign negative
        control): shares the fields built on construction, recomputes the
        rest on first read."""
        out = copy.copy(self)
        for name, attr in vars(ChartEval).items():
            if isinstance(attr, cached_property):
                out.__dict__.pop(name, None)
        out.eps = -self.eps
        return out

    # -- base fields ------------------------------------------------------
    def _build_base(self, base: BaseEval):
        n = len(self.points)
        if (base.metric is not self.chart.base or base.gjets.order != 2
                or not np.array_equal(base.x[:n], self.x4)):
            raise UsageError("a ChartEval reads a base of its own metric at order 2, whose"
                             " first points are its base points")
        base.connection  # built on the whole base, whose heads the narrower charts read
        self.base = base.head(n)
        sd, beta = self.base.connection
        emb = lambda j: j.embed(self.space, (0, 1, 2, 3))
        self.gvals = self.base.gvals
        self.g, self.S, self.beta = emb(self.base.gjets.truncate(1)), emb(sd), emb(beta)
        self.beta_vals = tensor_values(beta, 1)
        self.svals = [tensor_values(sd[q], 2) for q in range(3)]
        self.zero = self.g[0, 0] * 0.0
        self.one = self.zero + 1.0

    # -- fiber fields -------------------------------------------------------
    def _build_fiber(self):
        chart = self.chart
        prof = chart.fmap.profile
        if np.any(self.v <= prof.z_minus) or np.any(self.v >= prof.z_plus):
            raise DomainError(
                f"fiber coordinate outside the open profile interval "
                f"({prof.z_minus}, {prof.z_plus})")
        vj_hi = jets.seed_univariate(self.v, 2)  # rho' and phi' at order 1
        rho_hi = prof.rho(vj_hi)
        phi_hi = chart.fmap.phi(vj_hi)
        emb_v = lambda j: j.embed(self.space, (IDX_V,))
        self.rho = emb_v(rho_hi.truncate(1))
        self.rho_p = emb_v(rho_hi.deriv(0))
        self.phi = emb_v(phi_hi.truncate(1))
        self.phi_p = emb_v(phi_hi.deriv(0))
        wj = jets.seed_univariate(self.w, 1)
        self.cw = jets.cos(wj).embed(self.space, (IDX_W,))
        self.sw = jets.sin(wj).embed(self.space, (IDX_W,))
        vj = vj_hi.truncate(1).embed(self.space, (IDX_V,))
        self.vjet = vj
        phi_sq = self.phi * self.phi
        if np.any(phi_sq.value >= 1.0):
            raise DomainError("fiber-map image touches a pole at a sampled point")
        self.r_img = jets.sqrt(1.0 - phi_sq)

    # -- assembled structures, computed on first read ----------------------
    def _zeros(self, *shape) -> jets.Jet:
        """A stacked jet of tensor shape ``shape`` with every component ``zero``."""
        z = self.zero.coeffs
        return jets.Jet(self.space, np.broadcast_to(
            z[(slice(None),) + (None,) * len(shape)], z.shape[:1] + shape + z.shape[1:]).copy())

    @cached_property
    def m_len(self):
        """Meridian speed sqrt(rho'^2 + 1) of the fiber surface."""
        return jets.sqrt(self.rho_p * self.rho_p + 1.0)

    @cached_property
    def P_img(self):
        """The image point F(p) = a1 s1 + a2 s2 + a3 s3 as a 2-vector."""
        coef = jets.stack([self.phi, self.r_img * self.cw, self.r_img * self.sw])
        return jets.contract("q,qij->ij", coef, self.S)

    @cached_property
    def K(self):
        """K = -P g, the action of J on the base, as an endomorphism K^m_j."""
        return -1.0 * jets.contract("mi,ij->mj", self.P_img, self.g)

    @cached_property
    def J(self):
        """The almost-complex structure J^m_a as a stacked (6, 6) jet."""
        eps, K = self.eps, self.K
        c_vw = -1.0 * self.m_len / self.rho   # J d_v = c_vw d_w
        c_wv = self.rho / self.m_len          # J d_w = c_wv d_v
        J = self._zeros(TOTAL_DIM, TOTAL_DIM)
        J.coeffs[:, :4, :4] = K.coeffs
        J.coeffs[:, IDX_V, :4] = jets.contract(",k->k", eps * c_wv, self.beta).coeffs
        J.coeffs[:, IDX_W, :4] = ((-eps) * jets.contract("mk,m->k", K, self.beta)).coeffs
        J.coeffs[:, IDX_W, IDX_V] = c_vw.coeffs
        J.coeffs[:, IDX_V, IDX_W] = c_wv.coeffs
        return J

    @cached_property
    def h(self):
        """The total-space metric h_{ab} as a stacked (6, 6) jet, its base
        block formed on the pairs i <= j and mirrored (g is stored symmetric;
        at order 1 beta_i beta_j has the bits of beta_j beta_i)."""
        rho_sq = self.rho * self.rho
        h = self._zeros(TOTAL_DIM, TOTAL_DIM)
        i, j = np.triu_indices(4)
        h.coeffs[:, i, j] = h.coeffs[:, j, i] = (
            self.g[i, j] + jets.contract("p,p,->p", self.beta[i], self.beta[j], rho_sq)).coeffs
        h.coeffs[:, :4, IDX_W] = h.coeffs[:, IDX_W, :4] = jets.contract(
            "i,->i", (self.eps * 1.0) * self.beta, rho_sq).coeffs
        h.coeffs[:, IDX_V, IDX_V] = (self.m_len * self.m_len).coeffs
        h.coeffs[:, IDX_W, IDX_W] = rho_sq.coeffs
        return h

    @cached_property
    def J_values(self):
        return tensor_values(self.J, 2)

    @cached_property
    def h_values(self):
        return tensor_values(self.h, 2)

    @cached_property
    def gamma_h(self):
        """Christoffel values of h in chart coordinates, Gamma^m_{ab}."""
        return tensor_values(christoffel_jets(self.h), 3)

    @cached_property
    def nijenhuis(self):
        """Nijenhuis values N^m_{ab} on coordinate fields (batch leading)."""
        return _nijenhuis_values(self)

    @cached_property
    def tau(self):
        """Tautological 2-form tau as a :class:`Form` on the pairs i < j."""
        return _tau_form(self)

    @cached_property
    def omega_jets(self):
        """Fundamental form Omega_{ab} = sum_m J^m_a h_{mb} = h(J d_a, d_b)
        as a stacked (6, 6) jet."""
        return jets.contract("ma,mb->ab", self.J, self.h)

    @cached_property
    def domega(self):
        """Values [..., k, a, b] = (D_k Omega)_{ab}, Levi-Civita of h."""
        return _covariant_domega(self)

    @cached_property
    def data4(self):
        """Base curvature at the points (:meth:`kahler.BaseEval.curvature`)."""
        return self.base.curvature()

    def horizontal_lift_values(self, X):
        """X^h = X^k (d_k - eps beta_k d_w) of base vectors ``X`` (..., 4),
        whose leading axes broadcast against the points: one lift a point
        for X of shape (4,) or (n, 4), and (draws, n, 6) for X (draws, 1, 4)."""
        X = np.asarray(X, dtype=float)
        w = -self.eps * np.einsum("...k,...k->...", self.beta_vals, X)
        out = np.zeros(w.shape + (TOTAL_DIM,))
        out[..., :4] = X
        out[..., IDX_W] = w
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
        cw, sw = self.cw.value, self.sw.value
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
    :attr:`ChartEval.nijenhuis`, which computes it once per ChartEval.
    N = t1 - t2 + t3 - t4, where t2 and t4 are t1 and t3 with a and b
    swapped (each a sum over k in the same order), so two einsums give it."""
    Jv = ctx.J_values
    dJ = tensor_partials(ctx.J, 2)  # [..., k, m, a] = d_k J^m_a
    t1 = np.einsum("...ka,...kmb->...mab", Jv, dJ)
    t3 = np.einsum("...mk,...bka->...mab", Jv, dJ)
    return t1 - np.swapaxes(t1, -1, -2) + t3 - np.swapaxes(t3, -1, -2)


def nijenhuis_max(ctx: ChartEval) -> np.ndarray:
    """Per-point sup-norm of the Nijenhuis coordinate components."""
    return np.max(np.abs(ctx.nijenhuis), axis=(-3, -2, -1))


def _covariant_domega(ctx: ChartEval) -> np.ndarray:
    """Read it through :attr:`ChartEval.domega`, which computes it once."""
    return covariant_derivative(ctx.omega_jets, ctx.gamma_h)


# ---------------------------------------------------------------------------
# random draws of the value-level checks
# ---------------------------------------------------------------------------

def _draws(ctx: ChartEval, rng, n_draws: int, *sizes) -> list:
    """``n_draws`` rounds of ``rng.normal(size=s)``, one call for each s of
    ``sizes`` in turn, stacked per size (draws leading) and cut into blocks
    whose (draws, points, 6, 6, 6) partial products stay within
    jets.CHUNK_DOUBLES: a list of tuples of arrays, a tuple a block."""
    rounds = [[rng.normal(size=s) for s in sizes] for _ in range(n_draws)]
    stacked = [np.array([r[i] for r in rounds]).reshape(n_draws, *np.atleast_1d(s))
               for i, s in enumerate(sizes)]
    return [tuple(a[b] for a in stacked)
            for b in jets.blocks(n_draws, len(ctx.points) * TOTAL_DIM ** 3)]


def _maxima(a: np.ndarray) -> list:
    """The maximum of each draw of ``a`` (over all axes but the first), as
    floats; ``max([worst, *_maxima(a)])`` is the loop's running maximum
    ``max(worst, float(np.max(a_draw)))``, which passes over a NaN."""
    return np.max(a.reshape(len(a), -1), axis=1).tolist()


# the components of a horizontal lift (all but the v one), of a vertical vector
_HOR = np.array([0, 1, 2, 3, IDX_W])
_VERT = np.array([IDX_V, IDX_W])
_ALL = np.arange(TOTAL_DIM)


def _components(a: np.ndarray, *index) -> np.ndarray:
    """The components of ``a`` at the index lists ``index`` of its last
    axes, as a C-contiguous copy."""
    return np.ascontiguousarray(a[(Ellipsis,) + np.ix_(*index)])


def _lifts(ctx: ChartEval, X: np.ndarray) -> np.ndarray:
    """The horizontal lifts of the draws ``X`` (draws, 4) at the points,
    without their zero v component: (draws, n, 5), C-contiguous."""
    return _components(ctx.horizontal_lift_values(X[:, None, :]), _HOR)


def _domega_terms(covd, X, Y, Z) -> np.ndarray:
    """(D_X Omega)(Y, Z) from the values ``covd`` of D Omega: the einsum
    "...kab,...k,...a,...b->..." with its first product formed beforehand
    (see the module docstring)."""
    return np.einsum("...kab,...a,...b->...", covd * X[..., :, None, None], Y, Z)


def _nijenhuis_from_domega(covd, A, JA, B, JB, C) -> np.ndarray:
    """h(N(A,B),C) = (D_A Om)(JB,C) - (D_JB Om)(A,C) - (D_B Om)(JA,C)
    + (D_JA Om)(B,C), from the values ``covd`` of D Omega."""
    return (_domega_terms(covd, A, JB, C) - _domega_terms(covd, JB, A, C)
            - _domega_terms(covd, B, JA, C) + _domega_terms(covd, JA, B, C))


def _h_nijenhuis(N, X, Y, hv, Z) -> np.ndarray:
    """h(N(X, Y), Z) from the Nijenhuis values ``N`` and the metric values
    ``hv``: the einsum "...mab,...a,...b,...mc,...c->..." with its first two
    products formed beforehand (see the module docstring)."""
    return np.einsum("...mab,...mc,...c->...", (N * X[..., None, :, None]) * Y[..., None, None, :],
                     hv, Z)


def nijenhuis_route_agreement(ctx: ChartEval, n_triples: int = 20, seed: int = 0) -> np.ndarray:
    """Per-point max |bracket route - D-Omega route| over random vector triples."""
    N = ctx.nijenhuis
    hv = ctx.h_values
    covd = ctx.domega
    Jv = ctx.J_values
    worst = np.zeros(len(ctx.points))
    for (ABC,) in _draws(ctx, np.random.default_rng(seed), n_triples, (3, TOTAL_DIM)):
        A, B, C = (ABC[:, None, i] for i in range(3))  # (draws, 1, 6)
        r1 = _h_nijenhuis(N, A, B, hv, C)
        JA = np.einsum("...ma,...a->...m", Jv, A)
        JB = np.einsum("...ma,...a->...m", Jv, B)
        r2 = _nijenhuis_from_domega(covd, A, JA, B, JB, C)
        worst = np.maximum(worst, np.max(np.abs(r1 - r2), axis=0))
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


def _vertical(c: np.ndarray, t_v, t_w) -> np.ndarray:
    """c0 t_v + c1 t_w for the draws ``c`` (draws, 2): the vertical vectors
    as (s1,s2,s3)-triples, (draws, points, 3)."""
    return c[:, 0, None, None] * t_v + c[:, 1, None, None] * t_w


def verify_structure_identities(ctx: ChartEval, n_random: int = 6,
                                seed: int = 0) -> StructureResiduals:
    """Pointwise verification of the connection/curvature identities.

    Identities involving the second fundamental form of the fiber assume the
    round sphere fiber, so this requires a plain twistor chart; the mixed
    Nijenhuis identity itself is exposed separately for modified charts
    (:func:`mixed_nijenhuis_residual`).
    """
    if ctx.chart.fmap.profile.name != "sphere":
        raise UsageError("structure identities are verified on sphere-fiber charts")
    rng = np.random.default_rng(seed)
    data = ctx.data4
    g = ctx.gvals
    t_v, t_w, eps3 = ctx.fiber_tangents()
    p3 = ctx.fiber_point()
    p2v = ctx.triple_to_two_vector(p3)
    p2 = TwoVector(p2v)
    Kp = -np.einsum("...mi,...ij->...mj", p2v, g)

    gamma_h = ctx.gamma_h
    Hj = ctx._zeros(TOTAL_DIM, 4)  # [m, j]: components of the field H_j
    Hj.coeffs[:, range(4), range(4)] = ctx.one.coeffs[:, None]
    Hj.coeffs[:, IDX_W] = ((-ctx.eps) * ctx.beta).coeffs
    Hv = tensor_values(Hj, 2)
    dH = tensor_partials(Hj, 2)  # [..., a, m, j] = d_a H_j^m
    # covDH[..., a, m, j] = (D_a H_j)^m
    covDH = dH + np.einsum("...man,...nj->...amj", gamma_h, Hv)
    # (3) along the vertical coordinate fields: D_V H_j and R(p x V)
    vertical = [(covDH[..., vidx, :, :],
                 curvature_endomorphism(data, ctx.triple_to_two_vector(np.cross(p3, t3c))))
                for vidx, t3c in ((IDX_V, t_v), (IDX_W, t_w))]
    covd = _components(ctx.domega, _HOR, _HOR, _HOR)  # the horizontal block of D Omega

    r1 = r2 = r3 = r4 = r5 = r6 = 0.0
    for X, Y, cV, cU, Z in _draws(ctx, rng, n_random, 4, 4, 2, 2, 4):
        Xb, Yb = X[:, None, :], Y[:, None, :]  # (draws, 1, 4): broadcast over the points
        XY = wedge(X, Y)[:, None]
        V3 = _vertical(cV, t_v, t_w)
        V2 = ctx.triple_to_two_vector(V3)

        # (1) g(p x V, K_p X ^ Y) = g(V, X ^ Y)   [and with X <-> K_p Y]
        pxV = ctx.triple_to_two_vector(np.cross(p3, V3))
        KX = np.einsum("...mj,...j->...m", Kp, Xb)
        KY = np.einsum("...mj,...j->...m", Kp, Yb)
        lhs_a = _inner_kernel(g, pxV, wedge(KX, Yb))
        lhs_b = _inner_kernel(g, pxV, wedge(Xb, KY))
        rhs = _inner_kernel(g, V2, XY)
        r1 = max([r1, *_maxima(np.abs(lhs_a - rhs)), *_maxima(np.abs(lhs_b - rhs))])

        # (2) vertical part of D_{X^h} Y^h equals -1/2 rho(X ^ Y) p.  With
        # R = [nabla,nabla] - nabla_[,] this sign makes the identity hold;
        # the opposite R convention flips it (see the conventions note).
        DXY = np.einsum("...amj,...a,...j->...m",
                        covDH, np.einsum("...mj,...j->...m", Hv, Xb), Yb)
        pv, pw = ctx.vertical_coframe_pairing(DXY)
        vert3 = pv[..., None] * t_v + pw[..., None] * t_w
        vert2 = ctx.triple_to_two_vector(vert3)
        rho_p2 = rho_apply(data, TwoVector(XY), p2)
        resid = vert2 + 0.5 * rho_p2.comps
        r2 = max([r2, *(m ** 0.5 for m in _maxima(np.abs(_inner_kernel(g, resid, resid))))])

        # (3) D_V X^h = 1/2 (R(p x V) X)^h with V a vertical coordinate field
        for DVH, RpV in vertical:
            DVX = np.einsum("...mj,...j->...m", DVH, Xb)
            RX = np.einsum("...lk,...k->...l", RpV, Xb)
            rhs6 = ctx.horizontal_lift_values(RX) * 0.5
            r3 = max([r3, *_maxima(np.abs(DVX - rhs6))])

        # (4) g(eps x rho(X^Y)p, U) = -g(Rhat(p x (eps x U)), X^Y)
        U3 = _vertical(cU, t_v, t_w)
        rho_p3 = ctx.two_vector_to_triple(rho_p2.comps)
        lhs4 = np.einsum("...i,...i->...", np.cross(eps3, rho_p3), U3)
        arg = ctx.triple_to_two_vector(np.cross(p3, np.cross(eps3, U3)))
        rhs4 = -_inner_kernel(g, curvature_two_vector_action(data, arg), XY)
        r4 = max([r4, *_maxima(np.abs(lhs4 - rhs4))])

        # (5) mixed Nijenhuis against the fiber-map holomorphicity defect
        r5 = max([r5, *_maxima(_mixed_nijenhuis_gaps(ctx, X, cU, Z))])

        # (6) (D_{X^h} Omega)(Y^h, Z^h) = 2 g(V f_*(X^h), Y ^ Z); both sides 0
        lhs6 = _domega_terms(covd, _lifts(ctx, X), _lifts(ctx, Y), _lifts(ctx, Z))
        r6 = max([r6, *_maxima(np.abs(lhs6))])

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
    if ctx.chart.fmap.profile.name != "sphere":
        raise UsageError("the horizontal Nijenhuis identity is verified on sphere-fiber charts")
    N = _components(ctx.nijenhuis, _ALL, _HOR, _HOR)
    hv = _components(ctx.h_values, _ALL, _VERT)
    data = ctx.data4
    g = ctx.gvals
    t_v, t_w, eps3 = ctx.fiber_tangents()
    p3 = ctx.fiber_point()
    Kv = tensor_values(ctx.K, 2)
    worst = 0.0
    for XY, cU in _draws(ctx, np.random.default_rng(seed), n_random, (2, 4), 2):
        X, Y = XY[:, 0], XY[:, 1]
        Xb, Yb = X[:, None, :], Y[:, None, :]
        U3 = _vertical(cU, t_v, t_w)
        lhs = _h_nijenhuis(N, _lifts(ctx, X), _lifts(ctx, Y), hv, cU[:, None, :])
        JX = np.einsum("...mj,...j->...m", Kv, Xb)
        JY = np.einsum("...mj,...j->...m", Kv, Yb)
        arg1 = wedge(JX, JY) - wedge(X, Y)[:, None]
        arg2 = wedge(Xb, JY) + wedge(JX, Yb)
        pxU = ctx.triple_to_two_vector(np.cross(p3, U3))
        pxJU = ctx.triple_to_two_vector(np.cross(p3, np.cross(eps3, U3)))
        rhs = -(_inner_kernel(g, pxU, curvature_two_vector_action(data, arg1))
                + _inner_kernel(g, pxJU, curvature_two_vector_action(data, arg2)))
        worst = max([worst, *_maxima(np.abs(lhs - rhs))])
    return worst


def mixed_nijenhuis_residual(ctx: ChartEval, X, U_fiber, Z) -> float:
    """max over the points of ``ctx`` of
    |h(N(X^h,U),Z^h) - 2 g(J f_* U - f_* J U, X ^ Z)|,
    for base vectors ``X``, ``Z`` (4,) and a vertical vector ``U_fiber`` =
    (U^v, U^w), or for draws of them stacked on a leading axis ((draws, 4)
    and (draws, 2)), the max over the draws too.

    This is the identity itself (valid whether or not f is holomorphic);
    its right side vanishes exactly when the fiber map is holomorphic.
    """
    X, U, Z = (np.asarray(a, float).reshape(-1, k) for a, k in ((X, 4), (U_fiber, 2), (Z, 4)))
    return float(np.max(_mixed_nijenhuis_gaps(ctx, X, U, Z)))


def _mixed_nijenhuis_gaps(ctx: ChartEval, X, U, Z) -> np.ndarray:
    """The gaps of :func:`mixed_nijenhuis_residual`, (draws, points), for
    the draws ``X``, ``Z`` (draws, 4) and ``U`` (draws, 2)."""
    lhs = _h_nijenhuis(_components(ctx.nijenhuis, _ALL, _HOR, _VERT), _lifts(ctx, X), U[:, None, :],
                       _components(ctx.h_values, _ALL, _HOR), _lifts(ctx, Z))

    t_v, t_w, eps3 = ctx.fiber_tangents()
    phi, phi_p, rF, cw, sw = (j.value for j in (ctx.phi, ctx.phi_p, ctx.r_img, ctx.cw, ctx.sw))
    tS2_v = np.stack([np.ones_like(phi), -phi * cw / rF, -phi * sw / rF], axis=-1)
    tS2_w = np.stack([np.zeros_like(phi), -rF * sw, rF * cw], axis=-1)
    F3 = np.stack([phi, rF * cw, rF * sw], axis=-1)

    u4, u5 = U[:, 0, None], U[:, 1, None]  # (draws, 1): broadcast over the points
    fstar_U = (phi_p * u4)[..., None] * tS2_v + u5[..., None] * tS2_w
    J_fstar_U = np.cross(F3, fstar_U)
    U3 = _vertical(U, t_v, t_w)
    JU3 = np.cross(eps3, U3)
    c_v = np.einsum("...i,...i->...", JU3, t_v) / np.einsum("...i,...i->...", t_v, t_v)
    c_w = np.einsum("...i,...i->...", JU3, t_w) / np.einsum("...i,...i->...", t_w, t_w)
    fstar_JU = (phi_p * c_v)[..., None] * tS2_v + c_w[..., None] * tS2_w

    diff2 = ctx.triple_to_two_vector(J_fstar_U - fstar_JU)
    rhs = 2.0 * _inner_kernel(ctx.gvals, diff2, wedge(X, Z)[:, None])
    return np.abs(lhs - rhs)


# ---------------------------------------------------------------------------
# differential forms on the chart
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Form:
    """A k-form: its components on the sorted index tuples ``keys`` are the
    stacked jet ``jet``, coefficients ``(ncoef, len(keys), *batch)``; all
    other components vanish.  Its values are the form truncated to order 0."""

    keys: tuple
    jet: jets.Jet

    def __getitem__(self, key) -> jets.Jet:
        """The component on ``key``, as a view."""
        return self.jet[self.keys.index(key)]

    def truncate(self, order: int) -> "Form":
        return Form(self.keys, self.jet.truncate(order))


def _perm_sign(seq) -> int:
    return (-1) ** sum(a > b for a, b in itertools.combinations(seq, 2))


def _wedge_list(keys_a: tuple, keys_b: tuple) -> list:
    """The terms of a ^ b in loop order: (output key, component of a, of b, sign)."""
    return [(tuple(sorted(ka + kb)), ia, ib, _perm_sign(ka + kb))
            for ia, ka in enumerate(keys_a) for ib, kb in enumerate(keys_b) if not set(ka) & set(kb)]


@lru_cache(maxsize=None)
def _wedge_terms(keys_a: tuple, keys_b: tuple) -> tuple:
    """The output keys of a ^ b, in order of first appearance, and its :class:`jets.Terms`."""
    keys, ia, ib, sign = tuple(zip(*_wedge_list(keys_a, keys_b))) or ((),) * 4
    return tuple(dict.fromkeys(keys)), jets.Terms.of(keys, [[ia], [ib]], sign)


@lru_cache(maxsize=None)
def _d_terms(keys: tuple) -> tuple:
    """The output keys of d, the (variable, component) each term differentiates, and its Terms."""
    out, var, comp, sign = tuple(zip(*[(tuple(sorted((k,) + key)), k, c, _perm_sign((k,) + key))
                                       for c, key in enumerate(keys) for k in range(TOTAL_DIM)
                                       if k not in key])) or ((),) * 4
    src = np.array([var, comp], dtype=int).reshape(2, -1)
    return tuple(dict.fromkeys(out)), src, jets.Terms.of(out, [[np.arange(len(out))]], sign,
                                                          by_count=False)


# named after the dict code it replaced: a perfbench span target
def wedge_dicts(a: Form, b: Form) -> Form:
    """a ^ b at the jet order of the two forms (at order 0, of their values),
    in blocks of terms (see :meth:`jets.JetSpace.sum_terms`)."""
    keys, terms = _wedge_terms(a.keys, b.keys)
    space = a.jet.space
    return Form(keys, jets.Jet(space, space.sum_terms([a.jet.coeffs, b.jet.coeffs], terms)))


# named after the dict code it replaced: a perfbench span target
def d_dict(form: Form) -> Form:
    """Exterior derivative, one jet order lower (so d of an order-0 form
    raises UsageError): one gather of the derivative of every term."""
    keys, src, terms = _d_terms(form.keys)
    d = form.jet.deriv(*src)
    return Form(keys, jets.Jet(d.space, d.space.sum_terms([d.coeffs], terms)))


@lru_cache(maxsize=None)
def _d_wedge_terms(keys_a: tuple, keys_b: tuple, same: bool) -> tuple:
    """The output keys of d(a ^ b), the cells (var, component of a, of b)
    of the partials it reads, the :class:`jets.Terms` adding them into d's
    terms (d_var of a component of a ^ b: its terms' cells with their signs,
    in their order) and that of d; where ``same``, (I, J) and (J, I) are one."""
    wedge, (wedge_keys, _), ids = _wedge_list(keys_a, keys_b), _wedge_terms(keys_a, keys_b), {}
    keys, src, terms = _d_terms(wedge_keys)
    t, cell, sign = tuple(zip(*[(out, ids.setdefault((var, *(sorted((ia, ib)) if same else (ia, ib))), len(ids)), s)
                                for out, (var, comp) in enumerate(src.T.tolist())
                                for key, ia, ib, s in wedge if key == wedge_keys[comp]])) or ((),) * 3
    cells = np.array(list(ids), dtype=np.intp).reshape(-1, 3).T
    return keys, cells, jets.Terms.of(t, [[cell]], sign, by_count=False), terms


def d_wedge(a: Form, b: Form) -> Form:
    """The values of d(a ^ b), an order-0 form, from the order-1 parts of
    the forms ``a`` and ``b``: ``d_dict(wedge_dicts(a.truncate(1),
    b.truncate(1)))``, forming only the partials d reads, d_k (a ^ b)_K for
    k not in K.  A cell d_k (a_I b_J) is a_I0 b_Jk + a_Ik b_J0, the kernel's
    coefficient k; products and two-term sums commute, so for b = a the
    cells (I, J) and (J, I) are one.  Added with their signs in the oracle's
    order, the bytes are the oracle's but where a cell is zero at every
    point and its components are not: the oracle adds that zero term, which
    may move the sign of a zero."""
    if a.jet.order == 0 or b.jet.order == 0:
        raise UsageError("d of a wedge needs forms of jet order 1 or more")
    keys, (var, ia, ib), partials, terms = _d_wedge_terms(a.keys, b.keys, b is a)
    (a0, a1), (b0, b1) = ((f.jet.coeffs[0], f.jet.coeffs[1:TOTAL_DIM + 1]) for f in (a, b))
    space = jets.get_space(TOTAL_DIM, 0)
    d = space.sum_terms([(a0[ia] * b1[var, ib] + a1[var, ia] * b0[ib])[None]], partials)
    return Form(keys, jets.Jet(space, space.sum_terms([d], terms)))


# ---------------------------------------------------------------------------
# the Hermitian family Omega_h / Omega_{a,b}
# ---------------------------------------------------------------------------

def _tau_form(ctx: ChartEval) -> Form:
    """Tautological 2-form tau(A,B) = 2 g(F(p), dpi A ^ dpi B): (g P g)_{ij}
    on the index pairs i < j, in row order."""
    i, j = np.triu_indices(4, 1)
    gPg = ctx.space.sum_terms([ctx.g.coeffs, ctx.P_img.coeffs, ctx.g.coeffs], _tau_terms())
    return Form(tuple(zip(i.tolist(), j.tolist())), jets.Jet(ctx.space, gPg))


@lru_cache(maxsize=None)
def _tau_terms() -> jets.Terms:
    """The :class:`jets.Terms` of :func:`_tau_form`: the contraction
    (g_im P^{mn}) g_nj in (m, n) order, on the outputs i < j only.  The
    terms m = n read the zero diagonal of P and are left out (see ``jets``)."""
    i, j = np.triu_indices(4, 1)
    m, n = (x.reshape(-1, 1) for x in np.indices((4, 4)))
    return jets.Terms(((i[None], m), (m, n), (n, j[None])), None, np.zeros((m.size, i.size), dtype=bool))


def _fiber_area_form(ctx: ChartEval, weight) -> Form:
    """weight * f^*((dw + eps beta) ^ dv) with the outward orientation."""
    wphi = weight * ctx.phi_p
    beta_w = jets.contract("k,->k", (ctx.eps * 1.0) * ctx.beta, wphi)
    return Form(((IDX_V, IDX_W),) + tuple((k, IDX_V) for k in range(4)),
                jets.stack([-1.0 * wphi] + [beta_w[k] for k in range(4)]))


def omega_ab_field(ctx: ChartEval, h_func: Optional[Callable], a: float = 1.0,
                   b: float = 1.0, weight_mode: str = "fiber") -> Form:
    """Omega = a tau + b e^{h} omega_FS at ``ctx``: the components of tau,
    then those of the fiber form.

    ``h_func`` takes the fiber height jet (the sphere coordinate through the
    fiber map) and returns a jet; None means h = 0.  ``weight_mode``
    'x_dependent' replaces e^{h} by e^{x0} (negative control: the
    balancedness proof needs a rotation-invariant fiber weight).
    """
    if a <= 0 or b <= 0:
        raise InputError("cone parameters a, b must be positive")
    if weight_mode == "fiber":
        weight = jets.exp(h_func(ctx.phi)) * b if h_func is not None else ctx.one * b
    elif weight_mode == "x_dependent":
        weight = jets.exp(jets.Jet.variable(ctx.space, 0, ctx.points[:, 0])) * b
    else:
        raise InputError(f"unknown weight_mode '{weight_mode}'")
    tau, fiber = ctx.tau, _fiber_area_form(ctx, weight)
    coeffs = np.concatenate([(a * 1.0) * tau.jet.coeffs, fiber.jet.coeffs], axis=1)
    return Form(tau.keys + fiber.keys, jets.Jet(ctx.space, coeffs))


def hermitian_positivity(ctx: ChartEval, h_func=None) -> float:
    """Smallest eigenvalue, over the points of ``ctx``, of the symmetric
    part of the matrix of Omega_h(., J .): the minimum of Omega_h(v, Jv)
    over unit vectors v, positive for a Hermitian form."""
    omega = omega_ab_field(ctx, h_func)
    i, j = np.array(omega.keys).T
    A = np.zeros(ctx.J_values.shape)
    A[..., i, j] = np.moveaxis(omega.jet.value, 0, -1)
    M = (A - np.swapaxes(A, -1, -2)) @ ctx.J_values  # Omega(v, Jv) = v^T M v
    return float(np.min(np.linalg.eigvalsh(0.5 * (M + np.swapaxes(M, -1, -2)))))


@dataclass
class BalancedReport:
    max_residual: float          # sup |d(Omega_h^2)| components
    proof_step_residual: float   # sup |d(e^h omega_FS) ^ tau| (diagnostic)


def balanced_check(ctx: ChartEval, h_func: Optional[Callable],
                   weight_mode: str = "fiber") -> BalancedReport:
    """Verify d(Omega_h^2) = 0 at the points of ``ctx`` (the balanced
    condition).

    Also reports the non-closedness of the weighted fiber form wedged with
    tau, the quantity whose cancellation structure carries the proof.
    """
    omega = omega_ab_field(ctx, h_func, weight_mode=weight_mode)
    d_omega2 = d_wedge(omega, omega)
    fiber = [n for n, k in enumerate(omega.keys) if IDX_V in k or IDX_W in k]
    d_fiber = d_dict(Form(tuple(omega.keys[n] for n in fiber), omega.jet[fiber]))
    proof = wedge_dicts(d_fiber.truncate(0), ctx.tau.truncate(0))
    return BalancedReport(float(np.max(np.abs(d_omega2.jet.value))),
                          float(np.max(np.abs(proof.jet.value))))


@dataclass
class ConeReport:
    c1: float
    c2: float
    c1_rel_variation: float
    c2_rel_variation: float


def cone_wedge_constants(ctx: ChartEval, a: float, b: float) -> ConeReport:
    """c1 = (Omega^2 ^ omega_FS)/vol_h and c2 = (Omega^2 ^ tau)/vol_h at the
    points of ``ctx``.

    Both are constant over the chart; with the conventions here (omega^2 =
    2 vol_g on the base, unit-sphere fiber area) c1 = 2 a^2 and c2 = 4 a b.
    """
    omega = omega_ab_field(ctx, None, a, b).truncate(0)
    omega2 = wedge_dicts(omega, omega)
    top = tuple(range(TOTAL_DIM))
    vol = -np.sqrt(np.linalg.det(ctx.h_values))  # see module docstring on orientation
    c1 = wedge_dicts(omega2, _fiber_area_form(ctx, ctx.one).truncate(0))[top].value / vol
    c2 = wedge_dicts(omega2, ctx.tau.truncate(0))[top].value / vol

    def relvar(c):
        return float((np.max(c) - np.min(c)) / max(abs(np.mean(c)), 1e-300))

    return ConeReport(float(np.mean(c1)), float(np.mean(c2)), relvar(c1), relvar(c2))
