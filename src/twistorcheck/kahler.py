"""Kahler metrics from potentials, adapted frames, and the U(1) connection.

A potential Phi on a 2-complex-dimensional chart (z^1, z^2), with
z^k = x^{2k} + i x^{2k+1} (0-based reals), determines

* the Riemannian metric g from the complex Hessian d^2 Phi / dz dzbar,
* the constant complex structure I of the chart (:data:`I_MATRIX`, shared
  by every fixture),
* the Kahler form omega(X, Y) = g(I X, Y).

The orthonormal frame construction keeps e2 = I e1 and e4 = I e3 exactly,
so s1 = e1^e2 + e3^e4 is the metric dual of omega and the self-dual frame
(s1, s2, s3) diagonalizes the U(1) holonomy: nabla s2 = beta s3,
nabla s3 = -beta s2 for a 1-form beta computed here from frame jets.

A :class:`BaseEval` evaluates a metric once at a batch of base points; the
self-dual basis of the frame, beta, the curvature and so the Kahler
residuals all come from that one evaluation, each at the lowest order
its readers use (bit for bit, lower coefficients ignore higher ones).  Frame,
self-dual basis, beta and omega are stacked jets too, built with the
products and the summation order of the scalar loops they replaced
(``tests/scalar_reference.py``), so their coefficients are those of the
loops, bit for bit, but for signs of zero: their sums, in
:meth:`jets.JetSpace.sum_terms`, leave out the terms that read a component
which is +0.0 or -0.0 at every coefficient and point, found in the data at
each call, and :func:`_self_dual` forms only the products of two frame
components that are not.  Such terms change no nonzero sum.
"""

from __future__ import annotations

import copy
import functools
import inspect

import numpy as np

from . import jets
from .errors import FrameError, GeometryError, UndefinedError
from .geometry import (
    DIM,
    ChartDomain,
    CurvatureData,
    Hypotheses,
    MetricField,
    check_finite,
    check_spd,
    christoffel_jets,
    covariant_derivative,
    curvature_data,
    curvature_two_vector_action,
    sd_basis,
    tensor_values,
    _at,
    _inner_kernel,
)

# constant complex structure of a potential chart: I d_{2a} = d_{2a+1}
I_MATRIX = np.zeros((DIM, DIM))
for _a in (0, 1):
    I_MATRIX[2 * _a + 1, 2 * _a] = 1.0
    I_MATRIX[2 * _a, 2 * _a + 1] = -1.0

# I has one nonzero per row and per column, both at the swapped index:
# I[i, _I_SWAP[i]] = _I_ROW[i] and I[_I_SWAP[j], j] = _I_COL[j]
_I_SWAP = np.array([1, 0, 3, 2])
_I_ROW = I_MATRIX[range(DIM), _I_SWAP]
_I_COL = I_MATRIX[_I_SWAP, range(DIM)]


class KahlerPotentialMetric(MetricField):
    """Metric derived from a Kahler potential, with omega attached."""

    def __init__(self, chart: ChartDomain, potential, name="potential"):
        super().__init__(chart, None, name=name)
        self.potential = potential

    def jets_at(self, x, order: int) -> jets.Jet:
        """Stacked (4, 4) g_{ij} jets of order ``order``, from potential jets
        two orders higher; GeometryError, naming the first point, where the
        potential is undefined (the log or sqrt of a nonpositive value)."""
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                phi = self.potential(jets.seed_raw(x, order + 2))
            except UndefinedError as exc:
                where = self._undefined_at(x, order + 2)
                if where is None:
                    raise
                raise GeometryError(f"potential is undefined: {exc}{where}") from None
            # second partials of Phi as jets of the requested order, d_a then d_b
            # for a <= b (one combined factor would round differently)
            d1 = [phi.deriv(a) for a in range(DIM)]
            d2 = jets.stack([[d1[min(a, b)].deriv(max(a, b)) for b in range(DIM)]
                             for a in range(DIM)])
            g = np.empty(d2.coeffs.shape)
            for a in range(2):
                for b in range(2):
                    xa, ya, xb, yb = 2 * a, 2 * a + 1, 2 * b, 2 * b + 1
                    re = ((d2[xa, xb] + d2[ya, yb]) * 0.25).coeffs
                    im = ((d2[xa, yb] - d2[ya, xb]) * 0.25).coeffs
                    g[:, xa, xb] = g[:, ya, yb] = re
                    g[:, xa, yb] = g[:, yb, xa] = im
                    g[:, ya, xb] = g[:, xb, ya] = -1.0 * im
        return check_finite(jets.Jet(d2.space, g), x)

    def _undefined_at(self, x, order: int):
        """`` at x=...``, the first point of ``x`` where the potential is
        undefined, found one point at a time (on the error path only); None
        if it is defined at each point on its own."""
        points = x.reshape(-1, DIM)
        for i, xi in enumerate(points):
            try:
                self.potential(jets.seed_raw(xi[None], order))
            except UndefinedError:
                return _at(points, [[i]])
        return None


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

def _u_of(xj):
    """u = x0 x0 + x1 x1 + x2 x2 + x3 x3 of the seed jets ``xj``, formed at
    degree 2 and padded with +0.0: the full-order sum bit for bit, as its
    coefficients of degree <= 2 take the same products in the same order,
    and each above sums terms x (+0.0), 1 (+0.0) and (+0.0)(+0.0), at least
    one of them +0.0, so it is +0.0 (``tests/scalar_reference.u_of``)."""
    space = xj[0].space
    x = [c.truncate(min(space.order, 2)) for c in xj]
    u = x[0] * x[0] + x[1] * x[1] + x[2] * x[2] + x[3] * x[3]
    coeffs = space.zero_coeffs(u.shape)
    coeffs[:u.space.ncoef] = u.coeffs
    return jets.Jet(space, coeffs)


def _flat():
    chart = ChartDomain([[-1, 1]] * 4)
    return KahlerPotentialMetric(chart, _u_of, name="flat")


def _fubini_study():
    chart = ChartDomain([[-0.7, 0.7]] * 4)
    return KahlerPotentialMetric(chart, lambda xj: jets.log(1.0 + _u_of(xj)), name="fubini_study")


def _eguchi_hanson(a=1.0):
    a = float(a)
    if a <= 0:
        raise GeometryError("eguchi_hanson parameter a must be positive")
    try:
        a2, a4 = a * a, a**4
    except OverflowError:
        raise GeometryError(f"eguchi_hanson parameter a = {a!r} is too large (a^4 overflows)") from None

    def phi(xj):
        u = _u_of(xj)
        r = jets.sqrt(u * u + a4)
        return r - a2 * jets.log(a2 + r) + a2 * jets.log(u)

    chart = ChartDomain([[0.25, 1.05]] * 4)
    return KahlerPotentialMetric(chart, phi, name="eguchi_hanson")


def _burns(m=1.0):
    m = float(m)
    if m <= 0:
        raise GeometryError("burns parameter m must be positive")

    def phi(xj):
        u = _u_of(xj)
        return u + m * jets.log(u)

    chart = ChartDomain([[0.25, 1.05]] * 4)
    return KahlerPotentialMetric(chart, phi, name="burns")


def _conformal_hermitian():
    """I-compatible but non-Kahler control metric e^{2 x0} * delta."""
    chart = ChartDomain([[-0.5, 0.5]] * 4)

    def fn(xj):
        c = jets.exp(2.0 * xj[0])
        zero = c * 0.0
        return [[c if i == j else zero for j in range(DIM)] for i in range(DIM)]

    return MetricField(chart, fn, name="conformal_hermitian")


# name -> (builder, the hypotheses its metrics declare); a new fixture needs
# only an entry here, since the suites gate on the declarations
FIXTURES = {
    "flat": (_flat, Hypotheses(kahler=True, scalar_flat=True, flat=True)),
    "fubini_study": (_fubini_study, Hypotheses(kahler=True, scal=24.0)),
    "eguchi_hanson": (_eguchi_hanson, Hypotheses(kahler=True, scalar_flat=True)),
    "burns": (_burns, Hypotheses(kahler=True, scalar_flat=True)),
    "conformal_hermitian": (_conformal_hermitian, Hypotheses()),
}
DEFAULT_FIXTURE = "eguchi_hanson"


def get_fixture(name: str, **params) -> MetricField:
    """Build a fixture, carrying its declared hypotheses; ``params`` are its
    builder's keyword parameters."""
    if name not in FIXTURES:
        raise GeometryError(f"unknown metric fixture '{name}' (have {sorted(FIXTURES)})")
    builder, hypotheses = FIXTURES[name]
    unknown = set(params) - set(inspect.signature(builder).parameters)
    if unknown:
        raise GeometryError(f"unknown params {sorted(unknown)} for fixture '{name}'")
    metric = builder(**params)
    metric.hypotheses = hypotheses
    return metric


# ---------------------------------------------------------------------------
# adapted frames
# ---------------------------------------------------------------------------

# frame rows (a, b) of the two wedges e_a ^ e_b that sum to each of s1, s2, s3
_SD_WEDGES = np.array([[(0, 1), (2, 3)], [(0, 2), (3, 1)], [(0, 3), (1, 2)]])


def _self_dual(e: jets.Jet, qs=(0, 1, 2)) -> jets.Jet:
    """Stacked s_q^{ij} = sum over the wedges of s_q of e_a^i e_b^j - e_a^j e_b^i
    for q in ``qs`` (tensor axis 0, in that order), from the stacked frame
    ``e`` (tensor axes [a, i]), at its order.  Entry (j, i) subtracts the
    products of (i, j) the other way round; the diagonal is +0.0, as x - x
    is for a frame built from metric jets that passed check_finite.  Only
    the products of two live frame components (:func:`jets.nonzero_components`)
    are formed, the others are +0.0: x - (+0.0) and (+0.0) - x are exact,
    so only the sign of an entry that is zero can differ from forming them
    all."""
    space, E = e.space, e.coeffs
    batch = E.shape[3:]
    live = jets.nonzero_components(E, 2)
    wedges = _SD_WEDGES[list(qs)]
    q, i, j = np.nonzero(np.triu(np.ones((len(qs), DIM, DIM), dtype=bool), 1))  # i < j, in loop order
    out = np.zeros((space.ncoef, len(qs), DIM, DIM) + batch)
    for c in space.chunks(q.size, 4 * int(np.prod(batch))):
        a, b = wedges[q[c], :, 0].T, wedges[q[c], :, 1].T  # [wedge, entry]
        # e_a^i e_b^j and e_a^j e_b^i of both wedges: [product, entry]
        rows = np.stack([a[0], a[0], a[1], a[1]]), np.stack([b[0], b[0], b[1], b[1]])
        cols = np.stack([i[c], j[c]] * 2), np.stack([j[c], i[c]] * 2)
        formed = live[rows[0], cols[0]] & live[rows[1], cols[1]]
        p = np.zeros((space.ncoef,) + formed.shape + batch)
        p[:, formed] = space.multiply(E[:, rows[0][formed], cols[0][formed]],
                                      E[:, rows[1][formed], cols[1][formed]])
        out[:, q[c], i[c], j[c]] = (p[:, 0] - p[:, 1]) + (p[:, 2] - p[:, 3])
        out[:, q[c], j[c], i[c]] = (p[:, 1] - p[:, 0]) + (p[:, 3] - p[:, 2])
    return jets.Jet(space, out)


def _dot(g: jets.Jet, u: jets.Jet, v: jets.Jet) -> jets.Jet:
    """g(u, v) = sum_ij (g_ij u^i) v^j, summed in (i, j) order."""
    return jets.contract("ij,i,j->", g, u, v)


def _apply_I(u: jets.Jet, zero: jets.Jet) -> jets.Jet:
    """(I u)^i = zero + u^k I[i, k] for the one k with I[i, k] != 0."""
    return zero[None] + u[_I_SWAP] * _I_ROW.reshape((DIM,) + (1,) * (u.coeffs.ndim - 2))


def adapted_frame(gjets: jets.Jet) -> jets.Jet:
    """Gram-Schmidt frame seeded on (d_1, I d_1, d_3, I d_3), as a stacked
    (4, 4) jet of the order of the stacked metric jets ``gjets`` (row a holds
    the components of e_a); smooth in x.  e1 lies along d_1 and e2 along
    d_2, and v gains a component at each step, so the sums of its four
    inner products :func:`_dot` leave out all but 1 + 1 + 2 + 9 = 13 of
    their 64 terms (4 where g is diagonal)."""
    zero = gjets[0, 0] * 0.0
    zeros = jets.stack([zero] * DIM)

    def unit(i):  # zero + 1.0 in component i, zero + 0.0 in the others
        return zeros + np.eye(DIM)[i].reshape((DIM,) + (1,) * zero.value.ndim)

    e1 = unit(0)
    e1 = e1 * (1.0 / jets.sqrt(_dot(gjets, e1, e1)))[None]
    e2 = _apply_I(e1, zero)
    v = unit(2)
    for e in (e1, e2):
        v = v - _dot(gjets, v, e)[None] * e
    nv_sq = _dot(gjets, v, v)
    if np.any(nv_sq.value < 1e-20):
        raise FrameError(f"frame seed degenerate (|v|^2 = {np.min(nv_sq.value):.3e})")
    e3 = v * (1.0 / jets.sqrt(nv_sq))[None]
    e4 = _apply_I(e3, zero)
    return jets.stack([e1, e2, e3, e4])


# ---------------------------------------------------------------------------
# the connection 1-form on Lambda2+
# ---------------------------------------------------------------------------

# the outputs (k, i, j) of _two_vector_nabla with i != j; for s from _self_dual
# the others are +0.0: d_k s^{ii} = +0.0, then pairs x + (-x) as s^{im} = -s^{mi}
_NABLA_OUT = np.nonzero(np.broadcast_to(~np.eye(DIM, dtype=bool), (DIM, DIM, DIM)))


def _two_vector_nabla(gamma: jets.Jet, s: jets.Jet) -> jets.Jet:
    """Stacked (nabla_k s)^{ij}, tensor axes [k, i, j], of a stacked 2-vector
    jet field ``s`` ([i, j]) for the stacked Christoffel jets ``gamma``
    ([a, b, c] = Gamma^a_{bc}, one order below ``s``): d_k s^{ij} followed
    by Gamma^i_{km} s^{mj} and Gamma^j_{km} s^{im} for m = 0..3, summed in
    that order (the derivation action).  The sum leaves out the terms of
    the components that are +0.0 or -0.0 everywhere (see ``jets``): for s2
    of an adapted frame at base order 2, s is zero below its order but at
    (0, 2), (1, 3) and their transposes, so it forms at most 96 of the 384
    products; at base order 3 rounding leaves residues of about 1e-17 in
    some of them, which stay."""
    low, batch = gamma.space, s.shape[2:]
    k, i, j = _NABLA_OUT
    s_flat = jets.Jet(s.space, s.coeffs.reshape((s.space.ncoef, DIM * DIM) + batch))
    sums = low.sum_terms([gamma.coeffs, s.coeffs[:low.ncoef]], _nabla_terms(),
                         init=s_flat.deriv(k, i * DIM + j).coeffs)
    out = np.zeros((low.ncoef, DIM, DIM, DIM) + batch)
    out[:, k, i, j] = sums
    return jets.Jet(low, out)


@functools.lru_cache(maxsize=None)
def _nabla_terms() -> jets.Terms:
    """The :class:`jets.Terms` of :func:`_two_vector_nabla`, outputs
    :data:`_NABLA_OUT`: rank 2m is Gamma^i_{km} s^{mj}, rank 2m + 1 is
    Gamma^j_{km} s^{im}."""
    k, i, j = _NABLA_OUT
    m, t = np.divmod(np.arange(2 * DIM)[:, None], 2)  # rank 2m + t
    a, b, c = np.where(t, j, i), np.where(t, i, m), np.where(t, m, j)
    return jets.Terms(((a, k[None], m), (b, c)), None, np.zeros(a.shape, dtype=bool))


def beta_form(gjets: jets.Jet, s2: jets.Jet, s3: jets.Jet, gamma: jets.Jet) -> jets.Jet:
    """beta_k = < nabla_k s2, s3 >, with nabla s2 = beta s3 and nabla s3 =
    -beta s2, as a stacked (4,) jet one order below the stacked metric jets
    ``gjets``; ``s2`` (at their order) and ``s3`` (at least one order below)
    are the self-dual 2-vectors of their adapted frame and ``gamma`` their
    Christoffel jets (:func:`geometry.christoffel_jets`): the sum over
    (i, j, k, l) of (nabla_m s2^{ij} s3^{kl}) g_ik g_jl.  It leaves out the
    terms of the components that are +0.0 or -0.0 everywhere (see
    ``jets``), the diagonals of nabla s2 and s3 among them: s3 below the
    base order is nonzero only on the anti-diagonal, so each output forms
    at most 48 of its 256 terms."""
    low = gamma.space
    g_low = gjets.truncate(low.order)
    return jets.contract("mij,kl,ik,jl->m", _two_vector_nabla(gamma, s2),
                         s3.truncate(low.order), g_low, g_low) * 0.25


# ---------------------------------------------------------------------------
# one evaluation of the base
# ---------------------------------------------------------------------------

class BaseEval:
    """A metric evaluated once at a batch of base points ``x``: its stacked
    (4, 4) jets ``gjets`` of order ``order``, their SPD-checked values
    ``gvals`` and their Christoffel jets ``gamma_jets``; the only place a
    metric is evaluated at base points.  :attr:`connection` is built on
    first read and kept; :attr:`basis` and :meth:`curvature` are built anew
    on every read and not kept, so the caller decides how long they live."""

    def __init__(self, metric: MetricField, x, order: int = 2):
        self.metric = metric
        self.x = np.asarray(x, dtype=float)
        self.gjets = metric.jets_at(self.x, order)
        self.gvals = tensor_values(self.gjets, 2)
        check_spd(self.gvals, self.x)
        self.gamma_jets = christoffel_jets(self.gjets)

    def head(self, n: int) -> "BaseEval":
        """This evaluation at its first ``n`` points (of one batch axis),
        sliced from its fields, the connection too once it is built, rather
        than evaluated again.  Each field of a point depends on that point
        alone, so the slices are the fields of an evaluation at those
        points, bit for bit; this evaluation itself at its full width."""
        if n == len(self.gvals):
            return self
        out = copy.copy(self)
        out.x = self.x[:n].copy()
        out.gjets, out.gamma_jets = self.gjets.head(n), self.gamma_jets.head(n)
        out.gvals = self.gvals[:n].copy()
        if "connection" in vars(self):
            out.connection = tuple(field.head(n) for field in self.connection)
        return out

    @functools.cached_property
    def connection(self) -> tuple:
        """(sd, beta): the self-dual basis (s1, s2, s3) of the adapted frame,
        stacked [q, i, j], and beta (:func:`beta_form`), stacked (4,), both
        one order below :attr:`gjets`.  Only s2, which beta differentiates,
        is built at the order of :attr:`gjets`."""
        frame = adapted_frame(self.gjets)
        s2 = _self_dual(frame, (1,))[0]
        sd = _self_dual(frame.truncate(frame.order - 1))
        del frame  # frame jets freed before beta
        return sd, beta_form(self.gjets, s2, sd[2], self.gamma_jets)

    @property
    def basis(self):
        """The stacked :func:`geometry.sd_basis` of the adapted frame's values."""
        return sd_basis(tensor_values(adapted_frame(self.gjets.truncate(0)), 2), self.gvals)

    def curvature(self) -> CurvatureData:
        """The curvature at the points (needs ``order`` >= 2)."""
        return curvature_data(self.gjets, self.gvals, self.gamma_jets)


# ---------------------------------------------------------------------------
# Kahler certification helpers
# ---------------------------------------------------------------------------

def _omega_jets(gjets: jets.Jet) -> jets.Jet:
    """Stacked Kahler form omega_{ij} = g(I d_i, d_j) = g_kj I[k, i] for the
    one k with I[k, i] != 0, of the order of ``gjets``."""
    col = _I_COL.reshape((DIM,) + (1,) * (gjets.coeffs.ndim - 2))
    return jets.Jet(gjets.space, gjets.coeffs[:, _I_SWAP] * col)


def nabla_omega_residual(data: CurvatureData) -> float:
    """sup |(nabla_k omega)_{ij}|: zero iff the structure is Kahler."""
    return float(np.max(np.abs(covariant_derivative(_omega_jets(data.gjets), data.gamma))))


def curvature_s_residuals(data: CurvatureData, basis):
    """(|Rhat(s2)|, |Rhat(s3)|, <Rhat(s1), s1>) for the curvature ``data`` and
    an :func:`sd_basis` of the adapted frame; Kahler kills the first two."""
    s1, s2, s3 = basis[0], basis[1], basis[2]
    out = []
    for s in (s2, s3):
        img = curvature_two_vector_action(data, s)
        out.append(np.sqrt(np.abs(_inner_kernel(data.gvals, img, img))))
    r1 = curvature_two_vector_action(data, s1)
    out.append(_inner_kernel(data.gvals, r1, s1))
    return out[0], out[1], out[2]
