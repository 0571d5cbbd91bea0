"""Exact curvature from sympy: an oracle that shares no code with the jets.

The fixture's Kahler potential is differentiated symbolically up to fourth
order and its partials are evaluated exactly at a rational point.  The
metric and its first two derivatives follow from the complex Hessian, and
the Christoffel symbols, their derivatives and the Riemann tensor from the
textbook formulas, all in exact rational arithmetic.  The package's route
(potential jets, stacked Christoffel jets, curvature from their values and
first partials) must give the same Rlow to within BOUND.

Measured gaps: 1.2e-15 on Burns (max |R| 1.74) and 3.3e-16 on
Fubini-Study.
"""

import itertools

import numpy as np
import pytest

from twistorcheck import kahler

sp = pytest.importorskip("sympy")

# (1/2, 1/3, 2/3, 1/4); the oracle takes the exact values of these doubles,
# so both routes evaluate at the same point
POINT = np.array([1 / 2, 1 / 3, 2 / 3, 1 / 4])
BOUND = 1e-13
X = sp.symbols("x0:4", real=True)
U = sum(x * x for x in X)

# the fixtures' potentials and their declared constant scalar curvature
POTENTIALS = {
    "burns": (U + sp.log(U), 0),  # m = 1
    "fubini_study": (sp.log(1 + U), 24),
}


def potential_partials(phi, point):
    """Exact partials of ``phi`` of orders 2 to 4 at ``point``, keyed by
    their sorted index tuples."""
    exprs = {(): phi}
    keys = (k for n in range(1, 5) for k in itertools.combinations_with_replacement(range(4), n))
    for key in keys:  # sorted tuples, shorter first: key[:-1] is known
        exprs[key] = sp.diff(exprs[key[:-1]], X[key[-1]])
    at = dict(zip(X, point))
    return {key: e.subs(at) for key, e in exprs.items() if len(key) >= 2}


def metric_from_hessian(partial, extra=()):
    """d_extra g_ij: g is 4 Re of the complex Hessian d^2 Phi / dz_a dzbar_b
    with z_a = x_{2a} + i x_{2a+1}, so that Phi = |z|^2 gives the Euclidean
    metric; ``partial`` maps sorted index tuples to potential partials."""
    def d(i, j):
        return partial[tuple(sorted((i, j) + extra))]

    g = sp.zeros(4, 4)
    for a, b in itertools.product(range(2), repeat=2):
        xa, ya, xb, yb = 2 * a, 2 * a + 1, 2 * b, 2 * b + 1
        re = (d(xa, xb) + d(ya, yb)) / 4
        im = (d(xa, yb) - d(ya, xb)) / 4
        g[xa, xb] = g[ya, yb] = re
        g[xa, yb] = g[yb, xa] = im
        g[ya, xb] = g[xb, ya] = -im
    return g


def exact_curvature(phi, point):
    """(Rlow[i, j, k, l] = g(R(d_i, d_j) d_k, d_l), Scal) exactly at
    ``point``, with R(X, Y) = nabla_X nabla_Y - nabla_Y nabla_X -
    nabla_[X,Y]."""
    partial = potential_partials(phi, point)
    r4 = range(4)
    g = metric_from_hessian(partial)
    ginv = g.inv()
    dg = [metric_from_hessian(partial, (m,)) for m in r4]
    ddg = [[metric_from_hessian(partial, (m, n)) for n in r4] for m in r4]
    dginv = [-ginv * dg[m] * ginv for m in r4]
    # first kind: Gamma_{l,ij} = (d_i g_jl + d_j g_il - d_l g_ij) / 2, and its d_m
    first = [[[(dg[i][j, l] + dg[j][i, l] - dg[l][i, j]) / 2 for j in r4] for i in r4] for l in r4]
    dfirst = [[[[(ddg[m][i][j, l] + ddg[m][j][i, l] - ddg[m][l][i, j]) / 2 for j in r4]
                for i in r4] for l in r4] for m in r4]
    gam = [[[sum(ginv[k, l] * first[l][i][j] for l in r4) for j in r4] for i in r4] for k in r4]
    dgam = [[[[sum(dginv[m][k, l] * first[l][i][j] + ginv[k, l] * dfirst[m][l][i][j] for l in r4)
               for j in r4] for i in r4] for k in r4] for m in r4]
    # R(d_i, d_j) d_k = rup[l][k][i][j] d_l
    rup = [[[[dgam[i][l][j][k] - dgam[j][l][i][k]
              + sum(gam[l][i][m] * gam[m][j][k] - gam[l][j][m] * gam[m][i][k] for m in r4)
              for j in r4] for i in r4] for k in r4] for l in r4]
    rlow = [[[[sum(g[l, m] * rup[m][k][i][j] for m in r4) for l in r4] for k in r4]
             for j in r4] for i in r4]
    # Ric(Y, Z) = trace of X -> R(X, Y) Z
    scal = sum(ginv[i, j] * rup[k][j][k][i] for i, j, k in itertools.product(r4, repeat=3))
    return np.array(rlow, dtype=float), scal


@pytest.mark.parametrize("name", sorted(POTENTIALS))
def test_riemann_tensor_matches_exact_oracle(name):
    phi, scal = POTENTIALS[name]
    exact, exact_scal = exact_curvature(phi, [sp.Rational(v) for v in POINT])
    assert exact_scal == scal  # the oracle's own conventions
    rlow = kahler.BaseEval(kahler.get_fixture(name), POINT).curvature().rlow
    assert np.max(np.abs(exact)) > 0.1
    assert np.max(np.abs(rlow - exact)) < BOUND
