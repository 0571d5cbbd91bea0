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

The frame, beta and the Kahler residuals take the metric jets of
:meth:`MetricField.jets_at` (or a :class:`CurvatureData`), so one
evaluation of the potential serves them all; their order follows from the
order of the jets passed in.
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
    MetricField,
    christoffel_jets,
    curvature_two_vector_action,
    tensor_values,
    values_of,
    _flat_indices,
    _inner_kernel,
)

# constant complex structure of a potential chart: I d_{2a} = d_{2a+1}
I_MATRIX = np.zeros((DIM, DIM))
for _a in (0, 1):
    I_MATRIX[2 * _a + 1, 2 * _a] = 1.0
    I_MATRIX[2 * _a, 2 * _a + 1] = -1.0


class KahlerPotentialMetric(MetricField):
    """Metric derived from a Kahler potential, with omega attached."""

    def __init__(self, chart: ChartDomain, potential, name="potential", params=None):
        super().__init__(chart, None, name=name, params=params)
        self.potential = potential

    def jets_at(self, x, order: int):
        """g_{ij} jets of order ``order``, from potential jets two orders higher."""
        phi = self.potential(jets.seed_raw(np.asarray(x, dtype=float), order + 2))
        # second partials of Phi as jets of the requested order
        d2 = np.empty((DIM, DIM), dtype=object)
        for a in range(DIM):
            da = phi.deriv(a)
            for b in range(a, DIM):
                d2[a, b] = da.deriv(b)
                d2[b, a] = d2[a, b]
        g = np.empty((DIM, DIM), dtype=object)
        for a in range(2):
            for b in range(2):
                xa, ya, xb, yb = 2 * a, 2 * a + 1, 2 * b, 2 * b + 1
                re = (d2[xa, xb] + d2[ya, yb]) * 0.25
                im = (d2[xa, yb] - d2[ya, xb]) * 0.25
                g[xa, xb] = re
                g[ya, yb] = re
                g[xa, yb] = im
                g[yb, xa] = im
                g[ya, xb] = -1.0 * im
                g[xb, ya] = -1.0 * im
        return g

    def omega_values(self, x):
        g = self.values_at(x)
        return np.einsum("ki,...kj->...ij", I_MATRIX, g)


def metric_from_potential(potential, chart: ChartDomain, name="potential", params=None,
                          validate_points=None) -> KahlerPotentialMetric:
    """Build a potential metric; optionally validate SPD at given points."""
    m = KahlerPotentialMetric(chart, potential, name=name, params=params)
    if validate_points is not None:
        for x in np.atleast_2d(validate_points):
            g = m.values_at(x)
            ev = np.linalg.eigvalsh(g)
            if np.any(ev <= 0):
                raise GeometryError(f"potential Hessian is degenerate at x={x} (eigenvalues {ev})")
    return m


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

def _u_of(xj):
    return xj[0] * xj[0] + xj[1] * xj[1] + xj[2] * xj[2] + xj[3] * xj[3]


def _flat():
    chart = ChartDomain([[-1, 1]] * 4)
    return metric_from_potential(_u_of, chart, name="flat")


def _fubini_study():
    chart = ChartDomain([[-0.7, 0.7]] * 4)
    return metric_from_potential(lambda xj: jets.log(1.0 + _u_of(xj)), chart, name="fubini_study")


def _eguchi_hanson(a=1.0):
    a = float(a)
    a2, a4 = a * a, a**4

    def phi(xj):
        u = _u_of(xj)
        r = jets.sqrt(u * u + a4)
        return r - a2 * jets.log(a2 + r) + a2 * jets.log(u)

    chart = ChartDomain([[0.25, 1.05]] * 4, exclusion=lambda x: np.sum(x * x) < 0.1)
    return metric_from_potential(phi, chart, name="eguchi_hanson", params={"a": a})


def _burns(m=1.0):
    m = float(m)
    if m <= 0:
        raise GeometryError("burns parameter m must be positive")

    def phi(xj):
        u = _u_of(xj)
        return u + m * jets.log(u)

    chart = ChartDomain([[0.25, 1.05]] * 4, exclusion=lambda x: np.sum(x * x) < 0.1)
    return metric_from_potential(phi, chart, name="burns", params={"m": m})


def _conformal_hermitian():
    """I-compatible but non-Kahler control metric e^{2 x0} * delta."""
    chart = ChartDomain([[-0.5, 0.5]] * 4)

    def fn(xj):
        c = jets.exp(2.0 * xj[0])
        zero = c * 0.0
        return [[c if i == j else zero for j in range(DIM)] for i in range(DIM)]

    m = MetricField(chart, fn, name="conformal_hermitian")
    m.omega_values = lambda x: np.einsum("ki,...kj->...ij", I_MATRIX, m.values_at(x))
    return m


FIXTURES = {
    "flat": _flat,
    "fubini_study": _fubini_study,
    "eguchi_hanson": _eguchi_hanson,
    "burns": _burns,
    "conformal_hermitian": _conformal_hermitian,
}


def get_fixture(name: str, **params) -> MetricField:
    """Build a fixture; ``params`` are its builder's keyword parameters."""
    if name not in FIXTURES:
        raise GeometryError(f"unknown metric fixture '{name}' (have {sorted(FIXTURES)})")
    builder = FIXTURES[name]
    unknown = set(params) - set(inspect.signature(builder).parameters)
    if unknown:
        raise GeometryError(f"unknown params {sorted(unknown)} for fixture '{name}'")
    return builder(**params)


# ---------------------------------------------------------------------------
# adapted frames
# ---------------------------------------------------------------------------

@dataclass
class AdaptedFrame:
    """Orthonormal frame with e2 = I e1, e4 = I e3, as jets and values.

    ``jets_`` is a (4, 4) object array: row a holds the components of e_a.
    """

    jets_: np.ndarray
    matrix: np.ndarray

    @functools.cached_property
    def sd(self) -> jets.Jet:
        """(s1, s2, s3) self-dual basis as one stacked jet, tensor axes
        [q, i, j]; built on first use and shared by every consumer."""
        return _self_dual(jets.stack(self.jets_))

    def sd_jets(self):
        """(s1, s2, s3) self-dual basis as (4,4) object arrays of jets."""
        return tuple(jets.unstack(s, 2) for s in jets.unstack(self.sd, 1))


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


def _jet_dot(gjets, u, v):
    acc = None
    for i in range(DIM):
        for j in range(DIM):
            term = gjets[i, j] * u[i] * v[j]
            acc = term if acc is None else acc + term
    return acc


def adapted_frame(gjets: np.ndarray) -> AdaptedFrame:
    """Gram-Schmidt frame seeded on (d_1, I d_1, d_3, I d_3), as jets of the
    order of the metric jets ``gjets``; smooth in x."""
    zero = gjets[0, 0] * 0.0

    def apply_I(u):
        return [sum((u[k] * I_MATRIX[i, k] for k in range(DIM) if I_MATRIX[i, k] != 0.0), zero)
                for i in range(DIM)]

    e1 = [zero + (1.0 if i == 0 else 0.0) for i in range(DIM)]
    n1 = jets.sqrt(_jet_dot(gjets, e1, e1))
    e1 = [c / n1 for c in e1]
    e2 = apply_I(e1)
    v = [zero + (1.0 if i == 2 else 0.0) for i in range(DIM)]
    for e in (e1, e2):
        c = _jet_dot(gjets, v, e)
        v = [vi - c * ei for vi, ei in zip(v, e)]
    nv_sq = _jet_dot(gjets, v, v)
    if np.any(nv_sq.value < 1e-20):
        raise FrameError(f"frame seed degenerate (|v|^2 = {np.min(nv_sq.value):.3e})")
    nv = jets.sqrt(nv_sq)
    e3 = [c / nv for c in v]
    e4 = apply_I(e3)
    fj = np.empty((DIM, DIM), dtype=object)
    for i, row in enumerate((e1, e2, e3, e4)):
        for j in range(DIM):
            fj[i, j] = row[j]
    return AdaptedFrame(fj, values_of(fj))


# ---------------------------------------------------------------------------
# the connection 1-form on Lambda2+
# ---------------------------------------------------------------------------

@dataclass
class ConnectionOneForm:
    """beta with nabla s2 = beta s3, nabla s3 = -beta s2; jets + values."""

    jets_: np.ndarray  # shape (4,) object array, component beta_k
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


def _inner_jets(g: jets.Jet, a: jets.Jet, b: jets.Jet) -> jets.Jet:
    """Stacked sum_{ijkl} ((a^{ij} b^{kl}) g_ik) g_jl over the last two
    tensor axes of ``a`` ([m, i, j]), terms summed in (i, j, k, l) order;
    ``b`` and ``g`` are stacked (4, 4) jets.  Tensor axis [m]."""
    space, A, B, G = a.space, a.coeffs, b.coeffs, g.coeffs
    batch = B.shape[3:]
    i, j, k, l = _flat_indices(DIM, DIM, DIM, DIM)
    acc = None
    for c in space.chunks(i.size, A.shape[1] * int(np.prod(batch))):
        p = space.multiply(A[:, :, i[c], j[c]], B[:, None, k[c], l[c]])
        p = space.multiply(p, G[:, None, i[c], k[c]])
        p = space.multiply(p, G[:, None, j[c], l[c]])
        acc = jets.fold(p, 2, acc)
    return jets.Jet(space, acc)


def beta_form(gjets: np.ndarray, frame: AdaptedFrame) -> ConnectionOneForm:
    """beta_k = < nabla_k s2, s3 > as jets one order below the metric jets
    ``gjets``; ``frame`` is the adapted frame built from the same jets."""
    gamma = jets.stack(christoffel_jets(gjets))
    _, s2, s3 = jets.unstack(frame.sd, 1)
    ns2 = _two_vector_nabla(gamma, s2)
    low = gamma.space
    del gamma  # lowers the peak memory of large batches
    g_low = jets.stack(gjets).truncate(low.order)
    comps = _inner_jets(g_low, ns2, s3.truncate(low.order)) * 0.25
    return ConnectionOneForm(jets.unstack(comps, 1), tensor_values(comps, 1))


# ---------------------------------------------------------------------------
# Kahler certification helpers
# ---------------------------------------------------------------------------

def _omega_jets(gjets):
    """Kahler form omega_{ij} = g(I d_i, d_j) as jets of the order of ``gjets``."""
    omega = np.empty((DIM, DIM), dtype=object)
    for i in range(DIM):
        for j in range(DIM):
            acc = None
            for k in range(DIM):
                if I_MATRIX[k, i] != 0.0:
                    t = gjets[k, j] * I_MATRIX[k, i]
                    acc = t if acc is None else acc + t
            omega[i, j] = acc
    return omega


def nabla_omega_residual(gjets: np.ndarray) -> float:
    """sup |(nabla_k omega)_{ij}|: zero iff the structure is Kahler."""
    gamma = values_of(christoffel_jets(gjets))
    omega = _omega_jets(gjets)
    om = values_of(omega)
    dom = np.empty(om.shape[:-2] + (DIM, DIM, DIM))
    for k in range(DIM):
        for i in range(DIM):
            for j in range(DIM):
                dom[..., k, i, j] = omega[i, j].deriv(k).value
    nab = (
        dom
        - np.einsum("...mki,...mj->...kij", gamma, om)
        - np.einsum("...mkj,...im->...kij", gamma, om)
    )
    return float(np.max(np.abs(nab)))


def d_omega_residual(gjets: np.ndarray) -> float:
    """sup |(d omega)_{kij}| over antisymmetrized index triples."""
    omega = _omega_jets(gjets)
    worst = 0.0
    for k in range(DIM):
        for i in range(DIM):
            for j in range(DIM):
                val = omega[i, j].deriv(k).value + omega[j, k].deriv(i).value + omega[k, i].deriv(j).value
                worst = max(worst, float(np.max(np.abs(val))))
    return worst


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
