"""Stacked jets against the scalar-loop reference, bit for bit.

The Christoffel symbols, the Gauss-Jordan inverse, the self-dual basis,
the covariant derivative of 2-vectors and beta multiply stacked coefficient
arrays; tests/scalar_reference.py multiplies one scalar jet at a time in
the same association and summation order.  Their coefficients must be
equal, not close, at every batch size, including one point and an
unbatched point (where a contiguous numpy sum would go pairwise).
"""

import numpy as np
import pytest

import scalar_reference as ref
from twistorcheck import fibermap, geometry as geo, jets, kahler, twistor

FIXTURES = ("burns", "fubini_study", "conformal_hermitian")
BATCHES = (None, 1, 5, 50, 400)  # None: one unbatched (4,) point

# JetSpace.multiply calls of one plain-chart ChartEval with scalar-loop
# beta, Christoffel symbols and self-dual basis (the same at any batch size)
SCALAR_CHART_EVAL_MULTIPLIES = 4752


def assert_same_jets(new, old):
    assert new.shape == old.shape
    for idx in np.ndindex(old.shape):
        assert new[idx].space is old[idx].space
        assert np.array_equal(new[idx].coeffs, old[idx].coeffs), idx


def _points(metric, n, seed=5):
    pts = metric.chart.sample(1 if n is None else n, seed)
    return pts[0] if n is None else pts


@pytest.fixture(scope="module", params=FIXTURES)
def metric(request):
    return kahler.get_fixture(request.param)


# order 2 is what a ChartEval takes; order 3 (an order-2 ChartEval) puts
# three or more terms in a coefficient, where argument order shows
CASES = [(2, n) for n in BATCHES] + [(3, n) for n in (None, 1, 5)]


@pytest.mark.parametrize("order,n", CASES)
class TestBaseJets:
    def test_inverse_and_christoffel(self, metric, order, n):
        gjets = metric.jets_at(_points(metric, n), order)
        assert_same_jets(geo.jet_matrix_inverse(gjets), ref.jet_matrix_inverse(gjets))
        assert_same_jets(geo.christoffel_jets(gjets), ref.christoffel_jets(gjets))

    def test_self_dual_nabla_and_beta(self, metric, order, n):
        gjets = metric.jets_at(_points(metric, n), order)
        frame = kahler.adapted_frame(gjets)
        ref_sd = ref.sd_jets(frame.jets_)
        for new, old in zip(frame.sd_jets(), ref_sd):
            assert_same_jets(new, old)
        gamma = geo.christoffel_jets(gjets)
        stacked_gamma = jets.stack(gamma)
        for s, s_ref in zip(jets.unstack(frame.sd, 1), ref_sd):
            nabla = jets.unstack(kahler._two_vector_nabla(stacked_gamma, s), 3)
            for k in range(4):
                assert_same_jets(nabla[k], ref.two_vector_nabla(gamma, s_ref, k))
        beta = kahler.beta_form(gjets, frame)
        assert_same_jets(beta.jets_, ref.beta_jets(gjets, frame.jets_))
        assert np.array_equal(beta.values, geo.values_of(beta.jets_))


@pytest.mark.parametrize("n", (1, 5, 50, 400))
def test_christoffel_of_h(metric, n):
    chart = twistor.TwistorChart.twistor(metric)
    ctx = twistor.ChartEval(chart, chart.sample(n, 3))
    assert_same_jets(geo.christoffel_jets(ctx.h), ref.christoffel_jets(ctx.h))


def test_unstack_views_and_stack_copies(burns):
    gjets = burns.jets_at(_points(burns, 5), 1)
    stacked = jets.stack(gjets)
    assert stacked.coeffs.shape == (5, 4, 4, 5)
    parts = jets.unstack(stacked, 2)
    assert_same_jets(parts, gjets)
    assert np.shares_memory(parts[1, 2].coeffs, stacked.coeffs)
    assert not np.shares_memory(stacked.coeffs, gjets[1, 2].coeffs)


def test_fold_sums_in_index_order():
    # pairwise summation of a contiguous axis would give 2.0 here
    terms = np.array([1e16, 1.0, 1.0, -1e16])
    assert jets.fold(terms, 0) == 0.0
    assert jets.fold(terms[1:], 0, acc=np.array(1e16)) == 0.0


def test_chart_eval_halves_jet_products(eguchi_hanson, multiply_calls):
    chart = twistor.TwistorChart.twistor(eguchi_hanson)
    pts = chart.sample(20, 2024)
    multiply_calls.clear()
    twistor.ChartEval(chart, pts)
    assert len(multiply_calls) < SCALAR_CHART_EVAL_MULTIPLIES / 2


def test_chart_sample_runs_one_quadrature(flat, monkeypatch):
    prof = fibermap.get_profile("cylinder")
    chart = twistor.TwistorChart.modified(flat, prof, fibermap.solve_phi(prof, branch="quadrature"))
    sizes = []
    orig = fibermap.quad

    def counted(f, a, b):
        sizes.append(np.size(b))
        return orig(f, a, b)

    monkeypatch.setattr(fibermap, "quad", counted)
    pts = chart.sample(20, 3)
    assert sizes == [20]
    assert np.all(np.abs(chart.fmap.phi_values(pts[:, twistor.IDX_V])) < 1.0 - 1e-3)
