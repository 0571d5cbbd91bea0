"""Scalar-loop reference for the stacked jet code of geometry and kahler.

Each function walks object arrays of scalar ``Jet``s one product at a time,
in the association and summation order that the stacked code keeps, so
the tests can demand bit-identical coefficients.  Nothing in ``src/`` uses
this module.
"""

import numpy as np

DIM = 4


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
