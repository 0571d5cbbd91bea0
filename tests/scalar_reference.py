"""Scalar-loop reference for the stacked jet code of geometry, kahler and
twistor.

Each function walks object arrays of scalar ``Jet``s one product at a time,
in the association and summation order that the stacked code keeps, so
the tests can demand bit-identical coefficients.  It covers the whole
pipeline: potential -> metric jets, the adapted frame, the self-dual basis,
the inverse and Christoffel symbols, beta, and the ChartEval fields P, K,
J, h, Omega and tau; and forms as dicts of components, with the wedge and
d that loop over them.  It also keeps the per-limit quadrature rule that
``fibermap.quad`` refines, the point-by-point sampling loop that
``ChartDomain.sample`` batches, and the loop over pairs of multi-indices
that ``JetSpace`` builds its product table with in one gather, and the
full-order Horner scheme that ``jets._apply_series`` runs at rising order,
and |x|^2 at the seeds' own order, which ``kahler._u_of`` forms at degree 2.
:func:`whole_grids` runs the package with every term of its sums formed,
where ``jets.JetSpace.sum_terms`` leaves out the terms that read a
component that is +0.0 or -0.0 everywhere.
And it keeps the value-level identity checks as loops over their random
draws, one draw at a time (and the Nijenhuis tensor from four einsums),
which the checks of ``twistor``, ``geometry.curvature_operator`` and the
curvature suite's rho duality spot check evaluate over all their draws at
once.  Nothing in ``src/`` uses this module.
"""

import contextlib

import numpy as np
import pytest

from twistorcheck import fibermap, jets
from twistorcheck.geometry import (SAMPLE_MARGIN, TwoVector, _inner_kernel,
                                   curvature_endomorphism, curvature_two_vector_action,
                                   rho_apply, tensor_partials, tensor_values, wedge)
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


def u_of(xj):
    """|x|^2 = x0 x0 + x1 x1 + x2 x2 + x3 x3 of the seed jets ``xj``, every
    product at their order."""
    return xj[0] * xj[0] + xj[1] * xj[1] + xj[2] * xj[2] + xj[3] * xj[3]


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


# -- forms as dicts of components --------------------------------------------
# A form is a dict {sorted index tuple: component}, the components jets or
# value arrays; wedge and d walk the component pairs one product at a time.

def perm_sign(seq) -> int:
    sign = 1
    seq = list(seq)
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def merge_keys(a, b):
    if set(a) & set(b):
        return None, 0
    combined = a + b
    return tuple(sorted(combined)), perm_sign(combined)


def wedge_dicts(c1: dict, c2: dict) -> dict:
    out = {}
    for ka, va in c1.items():
        for kb, vb in c2.items():
            key, sign = merge_keys(ka, kb)
            if key is None:
                continue
            term = (sign * 1.0) * (va * vb)
            out[key] = out.get(key, 0.0) + term
    return out


def d_dict(comps: dict) -> dict:
    """Exterior derivative of jet components, as values."""
    out = {}
    for key, cj in comps.items():
        for k in range(TOTAL_DIM):
            if k in key:
                continue
            new, sign = merge_keys((k,), key)
            out[new] = out.get(new, 0.0) + sign * cj.deriv(k).value
    return out


def form_dict(form) -> dict:
    """The components of a ``twistor.Form`` as a dict of jets (views)."""
    return {key: form[key] for key in form.keys}


def values(comps: dict) -> dict:
    return {k: np.asarray(v.value) for k, v in comps.items()}


def omega_dict(ctx, weight, a=1.0):
    """a tau + weight omega_FS of a ChartEval as a dict of jets, built one
    component at a time: tau from ``ctx.tau``, the fiber form from the
    scalar products of its weight, phi' and beta."""
    comps = {k: (a * 1.0) * ctx.tau[k] for k in ctx.tau.keys}
    wphi = weight * ctx.phi_p
    comps[(IDX_V, IDX_W)] = -1.0 * wphi
    for k in range(DIM):
        comps[(k, IDX_V)] = ((ctx.eps * 1.0) * ctx.beta[k]) * wphi
    return comps


def quad_per_limit(f, a, b):
    """Integral of ``f`` over [a, b] for each upper limit ``b`` on its own:
    fibermap.QUAD_PANELS equal Gauss-Legendre panels on [a, b], and the gap
    to the sum on half as many as the error estimate.  ``(value, err)``,
    shaped like ``b``."""
    b = np.asarray(b, dtype=float)
    sums = []
    for panels in (fibermap.QUAD_PANELS, fibermap.QUAD_PANELS // 2):
        half = (b - a) / (2 * panels)
        h = half[..., None, None]
        x = a + h * (2 * np.arange(panels)[:, None] + 1) + h * fibermap._GL_NODES
        fx = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
        sums.append(half * (fx @ fibermap._GL_WEIGHTS).sum(axis=-1))
    fine, coarse = sums
    return fine, np.abs(fine - coarse)


def chart_sample(domain, n, rng):
    """``n`` points of the ChartDomain ``domain``, one at a time: one
    ``rng.uniform(size=4)`` draw per point."""
    lo = domain.box[:, 0] + SAMPLE_MARGIN * (domain.box[:, 1] - domain.box[:, 0])
    hi = domain.box[:, 1] - SAMPLE_MARGIN * (domain.box[:, 1] - domain.box[:, 0])
    out = np.empty((n, DIM))
    for i in range(n):
        out[i] = lo + (hi - lo) * rng.uniform(size=DIM)
    return out


def mul_table(space):
    """``(_mul_i, _mul_j, _mul_starts)`` of the JetSpace ``space`` by the loop
    over every pair of its multi-indices (a, b) with |a| + |b| <= order,
    then stably sorted by the index of a + b."""
    pairs_i, pairs_j, pairs_k = [], [], []
    for i, a in enumerate(space.multi_indices):
        for j, b in enumerate(space.multi_indices):
            if sum(a) + sum(b) > space.order:
                continue
            pairs_i.append(i)
            pairs_j.append(j)
            pairs_k.append(space.index[tuple(x + y for x, y in zip(a, b))])
    k = np.array(pairs_k)
    perm = np.argsort(k, kind="stable")
    return (np.array(pairs_i)[perm], np.array(pairs_j)[perm],
            np.searchsorted(k[perm], np.arange(space.ncoef)))


def reduceat_multiply(space, a, b):
    """The coefficients of ``JetSpace.multiply(a, b)`` by ``np.add.reduceat``:
    every product of the table formed at once, then each coefficient's
    terms summed in numpy's order, the order the layered kernel follows."""
    prod = a[space._mul_i] * b[space._mul_j]
    return np.add.reduceat(prod, space._mul_starts, axis=0)


def apply_series(u, series):
    """F(u) from the Taylor coefficients ``series`` of F at u.value (axis
    0) by Horner's scheme ``r <- r w + c_k``, w = u - u.value, every step a
    product in the space of ``u``, at its full order."""
    w = jets.Jet(u.space, u.coeffs.copy())
    w.coeffs[0] = np.zeros_like(w.coeffs[0])
    order = u.space.order
    coeffs = u.space.zero_coeffs(u.coeffs.shape[1:])
    coeffs[0] = series[order]
    result = jets.Jet(u.space, coeffs)
    for k in range(order - 1, -1, -1):
        result = result * w
        result.coeffs[0] = result.coeffs[0] + series[k]
    return result


# -- whole term grids ------------------------------------------------------------

@contextlib.contextmanager
def whole_grids():
    """Within it, every sum of ``jets.JetSpace.sum_terms`` forms every cell
    of its grid, and ``kahler._self_dual`` every frame product: the mask
    ``jets.nonzero_components`` that both read calls every component live."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jets, "nonzero_components",
                   lambda coeffs, ndim: np.ones(coeffs.shape[1:1 + ndim], dtype=bool))
        yield


def assert_same_but_zero_signs(new, old):
    """``new`` and ``old`` have the same shape and the same bytes once each
    zero is made +0.0 (``x + 0.0``): every nonzero bit and every NaN and inf
    position is compared.  Only the sign of a zero may differ, as where a
    sum leaves out a term that reads a component which is zero everywhere
    and the sum is zero."""
    new, old = np.asarray(new), np.asarray(old)
    assert new.shape == old.shape
    assert (new + 0.0).tobytes() == (old + 0.0).tobytes()


# -- value-level identity checks, one random draw at a time -------------------

def nijenhuis_values(ctx):
    """N^m_{ab} of a ChartEval from its four einsums t1 - t2 + t3 - t4."""
    Jv = ctx.J_values
    dJ = tensor_partials(ctx.J, 2)
    t1 = np.einsum("...ka,...kmb->...mab", Jv, dJ)
    t2 = np.einsum("...kb,...kma->...mab", Jv, dJ)
    t3 = np.einsum("...mk,...bka->...mab", Jv, dJ)
    t4 = np.einsum("...mk,...akb->...mab", Jv, dJ)
    return t1 - t2 + t3 - t4


def horizontal_lift(ctx, X):
    """X^h of one base vector ``X`` (4,) at every point of ``ctx``."""
    out = np.zeros(ctx.beta_vals.shape[:-1] + (TOTAL_DIM,))
    out[..., :4] = X
    out[..., IDX_W] = -ctx.eps * np.einsum("...k,...k->...", ctx.beta_vals, X)
    return out


def nijenhuis_from_domega(covd, A, JA, B, JB, C):
    def term(X, Y, Z):
        return np.einsum("...kab,...k,...a,...b->...", covd, X, Y, Z)

    return term(A, JB, C) - term(JB, A, C) - term(B, JA, C) + term(JA, B, C)


def route_agreement(ctx, n_triples=20, seed=0):
    """Per-point max |bracket route - D-Omega route| over ``n_triples``
    random triples, one triple at a time."""
    N, hv, covd, Jv = ctx.nijenhuis, ctx.h_values, ctx.domega, ctx.J_values
    rng = np.random.default_rng(seed)
    worst = np.zeros(len(ctx.points))
    for _ in range(n_triples):
        A, B, C = rng.normal(size=(3, TOTAL_DIM))
        r1 = np.einsum("...mab,a,b,...mc,c->...", N, A, B, hv, C)
        JA = np.einsum("...ma,a->...m", Jv, A)
        JB = np.einsum("...ma,a->...m", Jv, B)
        Ab = np.broadcast_to(A, JA.shape)
        Bb = np.broadcast_to(B, JB.shape)
        Cb = np.broadcast_to(C, JB.shape)
        r2 = nijenhuis_from_domega(covd, Ab, JA, Bb, JB, Cb)
        worst = np.maximum(worst, np.abs(r1 - r2))
    return worst


def mixed_nijenhuis(ctx, X, U_fiber, Z):
    """max over the points of |h(N(X^h,U),Z^h) - 2 g(J f_* U - f_* J U, X ^ Z)|
    for one draw (X, U, Z)."""
    N, hv = ctx.nijenhuis, ctx.h_values
    X = np.asarray(X, float)
    Z = np.asarray(Z, float)
    u4, u5 = U_fiber
    t_v, t_w, eps3 = ctx.fiber_tangents()
    Xh = horizontal_lift(ctx, X)
    Zh = horizontal_lift(ctx, Z)
    U = np.zeros(Xh.shape)
    U[..., IDX_V] = u4
    U[..., IDX_W] = u5
    lhs = np.einsum("...mab,...a,...b,...mc,...c->...", N, Xh, U, hv, Zh)
    phi, phi_p, rF, cw, sw = (j.value for j in (ctx.phi, ctx.phi_p, ctx.r_img, ctx.cw, ctx.sw))
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
    rhs = 2.0 * _inner_kernel(ctx.gvals, diff2, np.broadcast_to(wedge(X, Z), diff2.shape))
    return float(np.max(np.abs(lhs - rhs)))


def structure_identities(ctx, n_random=6, seed=0):
    """The six StructureResiduals fields, as a tuple, one draw at a time."""
    rng = np.random.default_rng(seed)
    data = ctx.data4
    t_v, t_w, eps3 = ctx.fiber_tangents()
    p3 = ctx.fiber_point()
    p2v = ctx.triple_to_two_vector(p3)
    Kp = -np.einsum("...mi,...ij->...mj", p2v, ctx.gvals)
    gamma_h = ctx.gamma_h
    Hj = ctx._zeros(TOTAL_DIM, 4)
    Hj.coeffs[:, range(4), range(4)] = ctx.one.coeffs[:, None]
    Hj.coeffs[:, IDX_W] = ((-ctx.eps) * ctx.beta).coeffs
    Hv = tensor_values(Hj, 2)
    dH = tensor_partials(Hj, 2)
    covDH = dH + np.einsum("...man,...nj->...amj", gamma_h, Hv)
    r1 = r2 = r3 = r4 = r5 = r6 = 0.0
    covd = ctx.domega
    for _ in range(n_random):
        X = rng.normal(size=4)
        Y = rng.normal(size=4)
        cV = rng.normal(size=2)
        V3 = cV[0] * t_v + cV[1] * t_w
        V2 = ctx.triple_to_two_vector(V3)
        XY = wedge(X, Y)
        pxV = ctx.triple_to_two_vector(np.cross(p3, V3))
        KX = np.einsum("...mj,j->...m", Kp, X)
        KY = np.einsum("...mj,j->...m", Kp, Y)
        lhs_a = _inner_kernel(ctx.gvals, pxV, wedge(KX, Y))
        lhs_b = _inner_kernel(ctx.gvals, pxV, wedge(X, KY))
        rhs = _inner_kernel(ctx.gvals, V2, np.broadcast_to(XY, V2.shape))
        r1 = max(r1, float(np.max(np.abs(lhs_a - rhs))), float(np.max(np.abs(lhs_b - rhs))))
        DXY = np.einsum("...amj,...a,j->...m",
                        covDH, np.einsum("...mj,j->...m", Hv, X), Y)
        pv = DXY[..., IDX_V]
        pw = DXY[..., IDX_W] + ctx.eps * np.einsum("...k,...k->...", ctx.beta_vals, DXY[..., :4])
        vert3 = pv[..., None] * t_v + pw[..., None] * t_w
        vert2 = ctx.triple_to_two_vector(vert3)
        rho_p2 = rho_apply(data, TwoVector(np.broadcast_to(XY, ctx.gvals.shape[:-2] + (4, 4))),
                           TwoVector(p2v))
        resid = vert2 + 0.5 * rho_p2.comps
        r2 = max(r2, float(np.max(np.abs(_inner_kernel(ctx.gvals, resid, resid)))) ** 0.5)
        for vidx, t3c in ((IDX_V, t_v), (IDX_W, t_w)):
            DVX = np.einsum("...mj,j->...m", covDH[..., vidx, :, :], X)
            pxt = ctx.triple_to_two_vector(np.cross(p3, t3c))
            RX = np.einsum("...lk,k->...l", curvature_endomorphism(data, pxt), X)
            rhs6 = horizontal_lift(ctx, RX) * 0.5
            r3 = max(r3, float(np.max(np.abs(DVX - rhs6))))
        cU = rng.normal(size=2)
        U3 = cU[0] * t_v + cU[1] * t_w
        rho_p3 = ctx.two_vector_to_triple(rho_p2.comps)
        lhs4 = np.einsum("...i,...i->...", np.cross(eps3, rho_p3), U3)
        arg = ctx.triple_to_two_vector(np.cross(p3, np.cross(eps3, U3)))
        rhs4 = -_inner_kernel(ctx.gvals, curvature_two_vector_action(data, arg),
                              np.broadcast_to(XY, arg.shape))
        r4 = max(r4, float(np.max(np.abs(lhs4 - rhs4))))
        Z = rng.normal(size=4)
        r5 = max(r5, mixed_nijenhuis(ctx, X, (cU[0], cU[1]), Z))
        Xh = horizontal_lift(ctx, X)
        Yh = horizontal_lift(ctx, Y)
        Zh = horizontal_lift(ctx, Z)
        lhs6 = np.einsum("...kab,...k,...a,...b->...", covd, Xh, Yh, Zh)
        r6 = max(r6, float(np.max(np.abs(lhs6))))
    return r1, r2, r3, r4, r5, r6


def horizontal_nijenhuis(ctx, n_random=6, seed=0):
    """The horizontal Nijenhuis residual, one draw at a time."""
    N, hv, data = ctx.nijenhuis, ctx.h_values, ctx.data4
    t_v, t_w, eps3 = ctx.fiber_tangents()
    p3 = ctx.fiber_point()
    Kv = tensor_values(ctx.K, 2)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_random):
        X, Y = rng.normal(size=(2, 4))
        cU = rng.normal(size=2)
        U3 = cU[0] * t_v + cU[1] * t_w
        Xh = horizontal_lift(ctx, X)
        Yh = horizontal_lift(ctx, Y)
        Uvec = np.zeros(Xh.shape)
        Uvec[..., IDX_V] = cU[0]
        Uvec[..., IDX_W] = cU[1]
        lhs = np.einsum("...mab,...a,...b,...mc,...c->...", N, Xh, Yh, hv, Uvec)
        JX = np.einsum("...mj,j->...m", Kv, X)
        JY = np.einsum("...mj,j->...m", Kv, Y)
        arg1 = wedge(JX, JY) - np.broadcast_to(wedge(X, Y), ctx.gvals.shape)
        arg2 = wedge(X, JY) + wedge(JX, Y)
        pxU = ctx.triple_to_two_vector(np.cross(p3, U3))
        pxJU = ctx.triple_to_two_vector(np.cross(p3, np.cross(eps3, U3)))
        rhs = -(_inner_kernel(ctx.gvals, pxU, curvature_two_vector_action(data, arg1))
                + _inner_kernel(ctx.gvals, pxJU, curvature_two_vector_action(data, arg2)))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def curvature_operator_matrix(data, basis):
    """The curvature operator matrix, one pair of basis elements at a time."""
    comps = [b.comps for b in basis]
    n = len(comps)
    M = np.empty(data.scal.shape + (n, n))
    for a in range(n):
        va = curvature_two_vector_action(data, comps[a])
        for b in range(n):
            M[..., a, b] = -0.5 * _inner_kernel(data.gvals, va, comps[b])
    return M


def rho_duality(data, s, rng, n_draws=20):
    """The curvature suite's rho duality residual at one point: ``data`` its
    CurvatureData, ``s`` the components of s1, s2, s3; one draw at a time."""
    def combine(c):
        return TwoVector(c[0] * s[0] + c[1] * s[1] + c[2] * s[2])

    worst = 0.0
    for _ in range(n_draws):
        cv, cw2 = rng.normal(size=(2, 3))
        v, w, vxw = combine(cv), combine(cw2), combine(np.cross(cv, cw2))
        M = rng.normal(size=(4, 4))
        xi = TwoVector(M - M.T)
        lhs = _inner_kernel(data.gvals, curvature_two_vector_action(data, vxw.comps), xi.comps)
        rhs = _inner_kernel(data.gvals, rho_apply(data, xi, v).comps, w.comps)
        worst = max(worst, abs(float(lhs - rhs)))
    return worst
