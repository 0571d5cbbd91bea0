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

The frame, beta and the Kahler residuals take the stacked (4, 4) metric
jet of :meth:`MetricField.jets_at` (or a :class:`CurvatureData`), so one
evaluation of the potential serves them all; their order follows from the
order of the jets passed in.  Frame, self-dual basis, beta and omega are
stacked jets too, built with the products and the summation order of the
scalar loops they replaced (``tests/scalar_reference.py``), so their
coefficients are those of the loops, bit for bit.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass

import numpy as np

from . import jets
from .errors import FrameError, GeometryError
from .geometry import (
    DIM,
    ChartDomain,
    CurvatureData,
    Hypotheses,
    MetricField,
    curvature_two_vector_action,
    tensor_partials,
    tensor_values,
    _inner_kernel,
    check_finite,
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
        two orders higher."""
        with np.errstate(over="ignore", invalid="ignore"):
            phi = self.potential(jets.seed_raw(np.asarray(x, dtype=float), order + 2))
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


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

def _u_of(xj):
    return xj[0] * xj[0] + xj[1] * xj[1] + xj[2] * xj[2] + xj[3] * xj[3]


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

    chart = ChartDomain([[0.25, 1.05]] * 4, exclusion=lambda x: np.sum(x * x) < 0.1)
    return KahlerPotentialMetric(chart, phi, name="eguchi_hanson")


def _burns(m=1.0):
    m = float(m)
    if m <= 0:
        raise GeometryError("burns parameter m must be positive")

    def phi(xj):
        u = _u_of(xj)
        return u + m * jets.log(u)

    chart = ChartDomain([[0.25, 1.05]] * 4, exclusion=lambda x: np.sum(x * x) < 0.1)
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

@dataclass
class AdaptedFrame:
    """Orthonormal frame with e2 = I e1, e4 = I e3, as jets and values.

    ``jets_`` is a stacked (4, 4) jet: row a holds the components of e_a.
    """

    jets_: jets.Jet
    matrix: np.ndarray

    @functools.cached_property
    def sd(self) -> jets.Jet:
        """(s1, s2, s3) self-dual basis as one stacked jet, tensor axes
        [q, i, j]; built on first use and shared by every consumer."""
        return _self_dual(self.jets_)


def _flat_indices(*shape):
    """Index arrays of every entry of ``shape``, in C (loop) order."""
    return tuple(ix.ravel() for ix in np.indices(shape))


# frame rows (a, b) of the two wedges e_a ^ e_b that sum to each of s1, s2, s3
_SD_WEDGES = np.array([[(0, 1), (2, 3)], [(0, 2), (3, 1)], [(0, 3), (1, 2)]])


def _self_dual(e: jets.Jet) -> jets.Jet:
    """Stacked s_q^{ij} = sum over the wedges of s_q of e_a^i e_b^j - e_a^j e_b^i,
    from the stacked frame ``e`` (tensor axes [a, i])."""
    space, E = e.space, e.coeffs
    batch = E.shape[3:]
    q, i, j = _flat_indices(3, DIM, DIM)
    out = np.empty((space.ncoef, q.size) + batch)
    for c in space.chunks(q.size, int(np.prod(batch))):
        wedges = []
        for w in range(2):
            a, b = _SD_WEDGES[q[c], w, 0], _SD_WEDGES[q[c], w, 1]
            wedges.append(space.multiply(E[:, a, i[c]], E[:, b, j[c]])
                          - space.multiply(E[:, a, j[c]], E[:, b, i[c]]))
        out[:, c] = wedges[0] + wedges[1]
    return jets.Jet(space, out.reshape((space.ncoef, 3, DIM, DIM) + batch))


def _dot(g: jets.Jet, u: jets.Jet, v: jets.Jet) -> jets.Jet:
    """g(u, v) = sum_ij (g_ij u^i) v^j, summed in (i, j) order."""
    return jets.contract("ij,i,j->", g, u, v)


def _apply_I(u: jets.Jet, zero: jets.Jet) -> jets.Jet:
    """(I u)^i = zero + u^k I[i, k] for the one k with I[i, k] != 0."""
    return zero[None] + u[_I_SWAP] * _I_ROW.reshape((DIM,) + (1,) * (u.coeffs.ndim - 2))


def adapted_frame(gjets: jets.Jet) -> AdaptedFrame:
    """Gram-Schmidt frame seeded on (d_1, I d_1, d_3, I d_3), as jets of the
    order of the stacked metric jets ``gjets``; smooth in x."""
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
    fj = jets.stack([e1, e2, e3, e4])
    return AdaptedFrame(fj, tensor_values(fj, 2))


# ---------------------------------------------------------------------------
# the connection 1-form on Lambda2+
# ---------------------------------------------------------------------------

@dataclass
class ConnectionOneForm:
    """beta with nabla s2 = beta s3, nabla s3 = -beta s2; jets + values."""

    jets_: jets.Jet  # stacked (4,), component beta_k
    values: np.ndarray


def _two_vector_nabla(gamma: jets.Jet, s: jets.Jet) -> jets.Jet:
    """Stacked (nabla_k s)^{ij}, tensor axes [k, i, j], of a stacked 2-vector
    jet field ``s`` ([i, j]) for the stacked Christoffel jets ``gamma``
    ([a, b, c] = Gamma^a_{bc}, one order below ``s``): d_k s^{ij} followed
    by Gamma^i_{km} s^{mj} and Gamma^j_{km} s^{im} for m = 0..3, summed in
    that order (the derivation action)."""
    low, G = gamma.space, gamma.coeffs
    s_low = s.coeffs[:low.ncoef]
    batch = s_low.shape[3:]
    out = np.empty((low.ncoef, DIM, DIM, DIM) + batch)
    for k in range(DIM):
        out[:, k] = s.deriv(k).coeffs
    k, i, j = _flat_indices(DIM, DIM, DIM)
    acc_all = out.reshape((low.ncoef, k.size) + batch)
    for c in low.chunks(k.size, int(np.prod(batch))):
        acc = acc_all[:, c]  # a view: the sums land in ``out``
        for m in range(DIM):
            acc += low.multiply(G[:, i[c], k[c], m], s_low[:, m, j[c]])
            acc += low.multiply(G[:, j[c], k[c], m], s_low[:, i[c], m])
    return jets.Jet(low, out)


def beta_form(gjets: jets.Jet, frame: AdaptedFrame, gamma: jets.Jet) -> ConnectionOneForm:
    """beta_k = < nabla_k s2, s3 > as jets one order below the stacked metric
    jets ``gjets``; ``frame`` is the adapted frame and ``gamma`` the
    Christoffel jets (:func:`geometry.christoffel_jets`) of the same jets."""
    ns2 = _two_vector_nabla(gamma, frame.sd[1])
    low = gamma.space
    # sum_{ijkl} ((nabla_k s2^{ij} s3^{kl}) g_ik) g_jl, in (i, j, k, l) order
    g_low = gjets.truncate(low.order)
    comps = jets.contract("mij,kl,ik,jl->m", ns2, frame.sd[2].truncate(low.order),
                          g_low, g_low) * 0.25
    return ConnectionOneForm(comps, tensor_values(comps, 1))


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
    omega = _omega_jets(data.gjets)
    om = tensor_values(omega, 2)
    nab = (
        tensor_partials(omega, 2)
        - np.einsum("...mki,...mj->...kij", data.gamma, om)
        - np.einsum("...mkj,...im->...kij", data.gamma, om)
    )
    return float(np.max(np.abs(nab)))


def curvature_s_residuals(data: CurvatureData, basis):
    """(|Rhat(s2)|, |Rhat(s3)|, <Rhat(s1), s1>) for the curvature ``data`` and
    an :func:`sd_basis` of the adapted frame; Kahler kills the first two."""
    s1, s2, s3 = basis[0], basis[1], basis[2]
    out = []
    for s in (s2, s3):
        img = curvature_two_vector_action(data, s.comps)
        out.append(np.sqrt(np.abs(_inner_kernel(data.gvals, img, img))))
    r1 = curvature_two_vector_action(data, s1.comps)
    out.append(_inner_kernel(data.gvals, r1, s1.comps))
    return out[0], out[1], out[2]
