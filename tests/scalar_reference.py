"""Scalar-loop reference for the stacked jet code of geometry, kahler and
twistor.

Each function walks object arrays of scalar ``Jet``s one product at a time,
in the association and summation order that the stacked code keeps, so
the tests can demand bit-identical coefficients.  It covers the whole
pipeline: potential -> metric jets, the adapted frame, the self-dual basis,
the inverse and Christoffel symbols, beta, and the ChartEval fields P, K,
J, h, Omega and tau.  Nothing in ``src/`` uses this module.
"""

import numpy as np

from twistorcheck import jets
from twistorcheck.kahler import I_MATRIX, KahlerPotentialMetric

DIM = 4
TOTAL_DIM = 6
IDX_V, IDX_W = 4, 5


def to_objects(stacked, ndim):
    """Object array of the component jets (views) of the first ``ndim``
    tensor axes of a stacked jet."""
    shape = stacked.coeffs.shape[1:1 + ndim]
    out = np.empty(shape, dtype=object)
    for idx in np.ndindex(*shape):
        out[idx] = jets.Jet(stacked.space, stacked.coeffs[(slice(None),) + idx])
    return out


def metric_jets(metric, x, order):
    """(4, 4) object array of the g_{ij} jets of ``metric`` at ``x``."""
    g = np.empty((DIM, DIM), dtype=object)
    if not isinstance(metric, KahlerPotentialMetric):
        raw = metric._fn(jets.seed_raw(np.asarray(x, dtype=float), order))
        for i in range(DIM):
            for j in range(DIM):
                g[i, j] = raw[i][j]
        return g
    phi = metric.potential(jets.seed_raw(np.asarray(x, dtype=float), order + 2))
    d2 = np.empty((DIM, DIM), dtype=object)
    for a in range(DIM):
        da = phi.deriv(a)
        for b in range(a, DIM):
            d2[a, b] = da.deriv(b)
            d2[b, a] = d2[a, b]
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


def _jet_dot(gjets, u, v):
    acc = None
    for i in range(DIM):
        for j in range(DIM):
            term = gjets[i, j] * u[i] * v[j]
            acc = term if acc is None else acc + term
    return acc


def adapted_frame(gjets):
    """(4, 4) object array of the Gram-Schmidt frame jets (row a = e_a)."""
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
    nv = jets.sqrt(_jet_dot(gjets, v, v))
    e3 = [c / nv for c in v]
    e4 = apply_I(e3)
    fj = np.empty((DIM, DIM), dtype=object)
    for i, row in enumerate((e1, e2, e3, e4)):
        for j in range(DIM):
            fj[i, j] = row[j]
    return fj


def jet_matrix_inverse(m):
    """Gauss-Jordan inverse (no pivoting) of a square object matrix of jets."""
    n = m.shape[0]
    a = np.empty((n, 2 * n), dtype=object)
    one = m[0, 0] * 0 + 1.0
    for i in range(n):
        for j in range(n):
            a[i, j] = m[i, j]
            a[i, n + j] = one if i == j else one * 0.0
    for col in range(n):
        piv = 1.0 / a[col, col]
        for j in range(col, 2 * n):
            a[col, j] = a[col, j] * piv
        for row in range(n):
            if row == col:
                continue
            f = a[row, col]
            for j in range(col, 2 * n):
                a[row, j] = a[row, j] - f * a[col, j]
    return a[:, n:].copy()


def christoffel_jets(gjets):
    """Gamma^k_{ij} as jets one order below the metric jets, any dimension."""
    n = gjets.shape[0]
    order = gjets[0, 0].space.order
    ginv = jet_matrix_inverse(gjets)
    dg = np.empty((n, n, n), dtype=object)  # dg[i][j][l] = d_i g_{jl}
    for i in range(n):
        for j in range(n):
            for l in range(n):
                dg[i, j, l] = gjets[j, l].deriv(i)
    ginv_low = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            ginv_low[i, j] = ginv[i, j].truncate(order - 1)
    gamma = np.empty((n, n, n), dtype=object)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                acc = None
                for l in range(n):
                    term = ginv_low[k, l] * (dg[i, j, l] + dg[j, i, l] - dg[l, i, j])
                    acc = term if acc is None else acc + term
                gamma[k, i, j] = acc * 0.5
    return gamma


def sd_jets(frame_jets):
    """(s1, s2, s3) from the (4, 4) object array of frame jets (row a = e_a)."""
    e = frame_jets

    def wedge(a, b):
        out = np.empty((DIM, DIM), dtype=object)
        for i in range(DIM):
            for j in range(DIM):
                out[i, j] = e[a, i] * e[b, j] - e[a, j] * e[b, i]
        return out

    def add(p, q):
        out = np.empty((DIM, DIM), dtype=object)
        for i in range(DIM):
            for j in range(DIM):
                out[i, j] = p[i, j] + q[i, j]
        return out

    s1 = add(wedge(0, 1), wedge(2, 3))
    s2 = add(wedge(0, 2), wedge(3, 1))
    s3 = add(wedge(0, 3), wedge(1, 2))
    return s1, s2, s3


def two_vector_nabla(gamma, s, k):
    """(nabla_k s)^{ij} for a 2-vector jet field s (derivation action)."""
    order = s[0, 1].space.order - 1
    out = np.empty((DIM, DIM), dtype=object)
    for i in range(DIM):
        for j in range(DIM):
            acc = s[i, j].deriv(k)
            for m in range(DIM):
                acc = acc + gamma[i, k, m] * s[m, j].truncate(order) + gamma[j, k, m] * s[i, m].truncate(order)
            out[i, j] = acc
    return out


def inner_jets(gjets, a, b):
    acc = None
    for i in range(DIM):
        for j in range(DIM):
            for k in range(DIM):
                for l in range(DIM):
                    t = a[i, j] * b[k, l] * gjets[i, k] * gjets[j, l]
                    acc = t if acc is None else acc + t
    return acc * 0.25


def beta_jets(gjets, frame_jets):
    """beta_k = < nabla_k s2, s3 > as a (4,) object array of jets."""
    gamma = christoffel_jets(gjets)
    _, s2, s3 = sd_jets(frame_jets)
    lower = gjets[0, 0].space.order - 1
    g_low = np.empty((DIM, DIM), dtype=object)
    s3_low = np.empty((DIM, DIM), dtype=object)
    for i in range(DIM):
        for j in range(DIM):
            g_low[i, j] = gjets[i, j].truncate(lower)
            s3_low[i, j] = s3[i, j].truncate(lower)
    comps = np.empty(DIM, dtype=object)
    for k in range(DIM):
        comps[k] = inner_jets(g_low, two_vector_nabla(gamma, s2, k), s3_low)
    return comps


def chart_fields(ctx):
    """P_img, K, J, h, Omega and tau of a ChartEval, from its
    embedded base fields (g, S, beta) and fiber jets, one scalar product at
    a time; tau is the (4, 4) g P g whose i < j entries form the 2-form."""
    g = to_objects(ctx.g, 2)
    S = [to_objects(ctx.S[q], 2) for q in range(3)]
    beta = to_objects(ctx.beta, 1)
    zero, eps = ctx.zero, ctx.eps

    def two_vector_field(a1, a2, a3):
        out = np.empty((DIM, DIM), dtype=object)
        for i in range(DIM):
            for j in range(DIM):
                out[i, j] = a1 * S[0][i, j] + a2 * S[1][i, j] + a3 * S[2][i, j]
        return out

    cw, sw = ctx.cw, ctx.sw
    P_img = two_vector_field(ctx.phi, ctx.r_img * cw, ctx.r_img * sw)
    K = np.empty((DIM, DIM), dtype=object)
    for m in range(DIM):
        for j in range(DIM):
            acc = None
            for i in range(DIM):
                t = P_img[m, i] * g[i, j]
                acc = t if acc is None else acc + t
            K[m, j] = -1.0 * acc
    m_len = jets.sqrt(ctx.rho_p * ctx.rho_p + 1.0)
    c_vw = -1.0 * m_len / ctx.rho
    c_wv = ctx.rho / m_len
    J = np.empty((TOTAL_DIM, TOTAL_DIM), dtype=object)
    for m in range(TOTAL_DIM):
        for a in range(TOTAL_DIM):
            J[m, a] = zero
    for k in range(DIM):
        for m in range(DIM):
            J[m, k] = K[m, k]
        J[IDX_V, k] = (eps * c_wv) * beta[k]
        acc = None
        for m in range(DIM):
            t = K[m, k] * beta[m]
            acc = t if acc is None else acc + t
        J[IDX_W, k] = (-eps) * acc
    J[IDX_W, IDX_V] = c_vw
    J[IDX_V, IDX_W] = c_wv

    h = np.empty((TOTAL_DIM, TOTAL_DIM), dtype=object)
    rho_sq = ctx.rho * ctx.rho
    for i in range(DIM):
        for j in range(DIM):
            h[i, j] = g[i, j] + beta[i] * beta[j] * rho_sq
        h[i, IDX_V] = zero
        h[IDX_V, i] = zero
        h[i, IDX_W] = (eps * 1.0) * beta[i] * rho_sq
        h[IDX_W, i] = h[i, IDX_W]
    h[IDX_V, IDX_V] = m_len * m_len
    h[IDX_W, IDX_W] = rho_sq
    h[IDX_V, IDX_W] = zero
    h[IDX_W, IDX_V] = zero

    omega = np.empty((TOTAL_DIM, TOTAL_DIM), dtype=object)
    for a in range(TOTAL_DIM):
        for b in range(TOTAL_DIM):
            acc = None
            for m in range(TOTAL_DIM):
                t = J[m, a] * h[m, b]
                acc = t if acc is None else acc + t
            omega[a, b] = acc

    tau = np.empty((DIM, DIM), dtype=object)
    for i in range(DIM):
        for j in range(DIM):
            acc = None
            for m in range(DIM):
                for n in range(DIM):
                    t = g[i, m] * P_img[m, n] * g[n, j]
                    acc = t if acc is None else acc + t
            tau[i, j] = acc
    return {"P_img": P_img, "K": K, "J": J, "h": h,
            "omega": omega, "tau": tau}
