"""Exact curvature from sympy: an oracle that shares no code with the jets.

A Kahler fixture's potential is differentiated symbolically up to fourth
order and its partials are evaluated exactly at a rational point; the
metric and its first two derivatives follow from the complex Hessian.  A
fixture given by metric components (conformal-Hermitian) has them
differentiated directly.  The Christoffel symbols, their derivatives, the
Riemann and Ricci tensors and the scalar curvature follow from the textbook
formulas, all in exact arithmetic.  The package's route (metric jets,
stacked Christoffel jets, curvature from their values and first partials)
must give the same Rlow, Ric and Scal to within BOUND, and so must the two
layers under them: the metric jets (value, first and second partials) and
the Christoffel jets (values and first partials).

Measured gaps in Rlow: 1.2e-15 on Burns (max |R| 1.74, max |Ric| 0.87)
and 3.3e-16 on Fubini-Study, and at most 1.1e-14 in Ric and Scal; the
flat chart gives R = 0 and conformal-Hermitian its Scal = -6/e exactly.
In the layers below, at most 1.8e-15 in the second partials of g on Burns
(max 4.58) and 6.7e-16 in the first partials of Gamma; none on flat and
conformal-Hermitian.
Eguchi-Hanson is left out: its exact route takes several seconds.
"""

import functools
import itertools

import numpy as np
import pytest

from twistorcheck import geometry, kahler

sp = pytest.importorskip("sympy")

# (1/2, 1/3, 2/3, 1/4); the oracle takes the exact values of these doubles,
# so both routes evaluate at the same point
POINT = np.array([1 / 2, 1 / 3, 2 / 3, 1 / 4])
BOUND = 1e-13
X = sp.symbols("x0:4", real=True)
U = sum(x * x for x in X)


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


def potential_metric(phi):
    """d_extra g at a point, for the Kahler potential ``phi``."""
    def at(point):
        partial = potential_partials(phi, point)
        return lambda extra: metric_from_hessian(partial, extra)
    return at


def component_metric(g):
    """d_extra g at a point, for the metric components ``g``."""
    def at(point):
        subs = dict(zip(X, point))
        return lambda extra: (g.diff(*(X[m] for m in extra)) if extra else g).subs(subs)
    return at


def exact_layers(metric, point):
    """The layers of the package's route exactly at ``point``: g and its
    partials dg[m] = d_m g and ddg[m][n] = d_m d_n g; the Christoffel symbols
    gam[k][i][j] = Gamma^k_{ij} and their partials dgam[m][k][i][j]; and
    Rlow[i, j, k, l] = g(R(d_i, d_j) d_k, d_l), Ric and Scal, with R(X, Y) =
    nabla_X nabla_Y - nabla_Y nabla_X - nabla_[X,Y].  All but Scal as float
    arrays."""
    d = metric(point)
    r4 = range(4)
    g = d(())
    ginv = g.inv()
    dg = [d((m,)) for m in r4]
    ddg = [[d((m, n)) for n in r4] for m in r4]
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
    ric = [[sum(rup[k][j][k][i] for k in r4) for j in r4] for i in r4]
    scal = sum(ginv[i, j] * ric[i][j] for i, j in itertools.product(r4, repeat=2))
    floats = {"g": g.tolist(), "dg": [m.tolist() for m in dg], "ddg": [[n.tolist() for n in m] for m in ddg],
              "gam": gam, "dgam": dgam, "rlow": rlow, "ric": ric}
    return {**{key: np.array(v, dtype=float) for key, v in floats.items()}, "scal": scal}


# the fixtures' metrics and their exact scalar curvature at POINT
METRICS = {
    "flat": (potential_metric(U), 0),
    "burns": (potential_metric(U + sp.log(U)), 0),  # m = 1
    "fubini_study": (potential_metric(sp.log(1 + U)), 24),
    "conformal_hermitian": (component_metric(sp.exp(2 * X[0]) * sp.eye(4)), -6 / sp.E),
}


@functools.lru_cache(maxsize=None)
def exact(name):
    """:func:`exact_layers` of the fixture ``name`` at POINT."""
    return exact_layers(METRICS[name][0], [sp.Rational(v) for v in POINT])


@pytest.mark.parametrize("name", sorted(METRICS))
def test_riemann_tensor_matches_exact_oracle(name):
    layers = exact(name)
    rlow, ric = layers["rlow"], layers["ric"]
    assert sp.simplify(layers["scal"] - METRICS[name][1]) == 0  # the oracle's own conventions
    if name == "flat":
        assert not np.any(rlow)
    else:
        assert np.max(np.abs(rlow)) > 0.1 and np.max(np.abs(ric)) > 0.1
    data = kahler.BaseEval(kahler.get_fixture(name), POINT).curvature()
    assert np.max(np.abs(data.rlow - rlow)) < BOUND
    assert np.max(np.abs(data.ric - ric)) < BOUND
    assert abs(data.scal - float(layers["scal"])) < BOUND


@pytest.mark.parametrize("name", sorted(METRICS))
def test_metric_and_christoffel_match_exact_oracle(name):
    # the two layers under the curvature: the metric jets (value, first and
    # second partials) and the Christoffel jets (values and first partials)
    layers = exact(name)
    base = kahler.BaseEval(kahler.get_fixture(name), POINT)
    unit, second = np.eye(4, dtype=int), np.empty((4, 4, 4, 4))
    for m, n in itertools.product(range(4), repeat=2):
        second[m, n] = base.gjets.extract(unit[m] + unit[n])
    pairs = [(base.gjets.value, layers["g"]), (geometry.tensor_partials(base.gjets, 2), layers["dg"]),
             (second, layers["ddg"]), (base.gamma_jets.value, layers["gam"]),
             (geometry.tensor_partials(base.gamma_jets, 3), layers["dgam"])]
    for got, want in pairs:
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < BOUND
    if name != "flat":  # where Gamma is not zero
        assert np.max(np.abs(layers["gam"])) > 0.1
