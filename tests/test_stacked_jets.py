"""Stacked jets against the scalar-loop reference, bit for bit.

Every tensor of jets in the package is one stacked jet: the metric jets of
a potential, the adapted frame, the Gauss-Jordan inverse, the Christoffel
symbols, the self-dual basis, the covariant derivative of 2-vectors, beta,
and the ChartEval fields P, K, J, h, Omega and tau.  tests/scalar_reference.py
multiplies one scalar jet at a time in the same association and summation
order.  Their coefficients must be equal, not close, at every batch size,
including one point and an unbatched point (where a contiguous numpy sum
would go pairwise).  The property tests at the end check the kernel
behaviour all of this rests on.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scalar_reference as ref
from twistorcheck import fibermap, geometry as geo, jets, kahler, twistor

FIXTURES = ("burns", "fubini_study", "conformal_hermitian")
BATCHES = (None, 1, 5, 50, 400)  # None: one unbatched (4,) point

# JetSpace.multiply calls of one plain-chart ChartEval on Eguchi-Hanson at
# 20 points with scalar-loop beta, Christoffel symbols and self-dual basis.
# With those stacked but the frame, P, K, J and h still scalar loops it made
# 470, and ctx.tau plus ctx.omega_jets as scalar loops made 728 more.
SCALAR_CHART_EVAL_MULTIPLIES = 4752


def assert_same_jets(new, old):
    """The stacked jet ``new`` has the components of the object array
    ``old``: same space, equal coefficients with equal signs of zero."""
    assert new.coeffs.shape[1:1 + old.ndim] == old.shape
    for idx in np.ndindex(old.shape):
        assert new[idx].space is old[idx].space
        a, b = new[idx].coeffs, old[idx].coeffs
        assert np.array_equal(a, b), idx
        assert np.array_equal(np.signbit(a), np.signbit(b)), idx


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
        x = _points(metric, n)
        gjets = metric.jets_at(x, order)
        ref_g = ref.metric_jets(metric, x, order)
        assert_same_jets(gjets, ref_g)
        assert_same_jets(geo._inverse(gjets), ref.jet_matrix_inverse(ref_g))
        assert_same_jets(geo.christoffel_jets(gjets), ref.christoffel_jets(ref_g))

    def test_self_dual_nabla_and_beta(self, metric, order, n):
        x = _points(metric, n)
        gjets = metric.jets_at(x, order)
        ref_g = ref.metric_jets(metric, x, order)
        frame = kahler.adapted_frame(gjets)
        ref_frame = ref.adapted_frame(ref_g)
        assert_same_jets(frame.jets_, ref_frame)
        assert np.array_equal(frame.matrix, geo.tensor_values(frame.jets_, 2))
        ref_sd = ref.sd_jets(ref_frame)
        gamma = geo.christoffel_jets(gjets)
        ref_gamma = ref.christoffel_jets(ref_g)
        for q in range(3):
            assert_same_jets(frame.sd[q], ref_sd[q])
            nabla = kahler._two_vector_nabla(gamma, frame.sd[q])
            for k in range(4):
                assert_same_jets(nabla[k], ref.two_vector_nabla(ref_gamma, ref_sd[q], k))
        beta = kahler.beta_form(gjets, frame, gamma)
        assert_same_jets(beta.jets_, ref.beta_jets(ref_g, ref_frame))
        assert np.array_equal(beta.values, geo.tensor_values(beta.jets_, 1))

    def test_chart_eval_fields(self, metric, order, n):
        chart = twistor.TwistorChart.twistor(metric)
        pts = chart.sample(1 if n is None else n, 3)
        ctx = twistor.ChartEval(chart, pts[0] if n is None else pts, order=order - 1)
        old = ref.chart_fields(ctx)
        for name in ("P_img", "K", "J", "h"):
            assert_same_jets(getattr(ctx, name), old[name])
        assert_same_jets(ctx.omega_jets, old["omega"])
        assert list(ctx.tau) == [(i, j) for i in range(4) for j in range(i + 1, 4)]
        for (i, j), comp in ctx.tau.items():
            assert_same_jets(comp[None], old["tau"][i, j:j + 1])


@pytest.mark.parametrize("n", (1, 5, 50, 400))
def test_christoffel_of_h(metric, n):
    chart = twistor.TwistorChart.twistor(metric)
    ctx = twistor.ChartEval(chart, chart.sample(n, 3))
    assert_same_jets(geo.christoffel_jets(ctx.h), ref.christoffel_jets(ref.to_objects(ctx.h, 2)))


def test_component_views_and_stack_copies(burns):
    gjets = burns.jets_at(_points(burns, 5), 1)
    assert gjets.coeffs.shape == (5, 4, 4, 5)
    assert gjets.shape == (4, 4, 5)
    assert np.shares_memory(gjets[1, 2].coeffs, gjets.coeffs)
    assert np.array_equal(gjets[1, 2].coeffs, gjets.coeffs[:, 1, 2])
    rows = [gjets[i] for i in range(4)]
    stacked = jets.stack(rows)
    assert np.array_equal(stacked.coeffs, gjets.coeffs)
    assert not np.shares_memory(stacked.coeffs, gjets.coeffs)


def test_partials_gather_every_deriv(burns):
    gjets = burns.jets_at(_points(burns, 5), 2)
    d = gjets.partials()
    for k in range(4):
        assert np.array_equal(d[k], gjets.deriv(k).value)


def test_fold_sums_in_index_order():
    # pairwise summation of a contiguous axis would give 2.0 here
    terms = np.array([1e16, 1.0, 1.0, -1e16])
    assert jets.fold(terms, 0) == 0.0
    assert jets.fold(terms[1:], 0, acc=np.array(1e16)) == 0.0


def test_contract_chunks_terms_of_large_entries(monkeypatch):
    # one output entry larger than a chunk: its terms are folded across chunks
    rng = np.random.default_rng(0)
    space = jets.get_space(4, 1)
    a = jets.Jet(space, rng.normal(size=(space.ncoef, 3, 40, 7)))
    b = jets.Jet(space, rng.normal(size=(space.ncoef, 40, 7)))
    whole = jets.contract("ir,r->i", a, b)
    monkeypatch.setattr(jets, "CHUNK_DOUBLES", space.npairs * 7 * 5)
    chunked = jets.contract("ir,r->i", a, b)
    assert np.array_equal(whole.coeffs, chunked.coeffs)
    for i in range(3):
        acc = a[i, 0] * b[0]
        for r in range(1, 40):
            acc = acc + a[i, r] * b[r]
        assert np.array_equal(whole[i].coeffs, acc.coeffs)


def test_chart_eval_halves_jet_products(eguchi_hanson, multiply_calls):
    chart = twistor.TwistorChart.twistor(eguchi_hanson)
    pts = chart.sample(20, 2024)
    multiply_calls.clear()
    ctx = twistor.ChartEval(chart, pts)
    assert len(multiply_calls) < SCALAR_CHART_EVAL_MULTIPLIES / 2
    assert len(multiply_calls) <= 120
    multiply_calls.clear()
    ctx.tau, ctx.omega_jets
    assert len(multiply_calls) <= 24


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


# -- properties of the kernel ------------------------------------------------

def _coefficients(rng, shape):
    """Random coefficients over many magnitudes, with zeros of both signs."""
    vals = np.asarray(rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape))
    kind = rng.integers(0, 8, size=shape)
    vals[kind == 0] = 0.0
    vals[kind == 1] = -0.0
    return vals


@settings(max_examples=150, deadline=None)
@given(n_vars=st.integers(1, 6), order=st.integers(0, 3),
       tensor=st.lists(st.integers(1, 3), min_size=0, max_size=3),
       batch=st.sampled_from(["none", "one", "many"]), k=st.integers(2, 6),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_multiply_equals_scalar_products(n_vars, order, tensor, batch, k, seed):
    space = jets.get_space(n_vars, order)
    rng = np.random.default_rng(seed)
    bshape = {"none": (), "one": (1,), "many": (k,)}[batch]
    shape = (space.ncoef,) + tuple(tensor) + bshape
    a, b = _coefficients(rng, shape), _coefficients(rng, shape)
    stacked = space.multiply(a, b)
    for idx in np.ndindex(*tensor):
        sl = (slice(None),) + idx
        scalar = space.multiply(a[sl], b[sl])  # one component, batch kept
        assert np.array_equal(stacked[sl], scalar)
        assert np.array_equal(np.signbit(stacked[sl]), np.signbit(scalar))
        for bidx in np.ndindex(*bshape):  # one component at one point
            single = space.multiply(a[sl + bidx], b[sl + bidx])
            assert np.array_equal(stacked[sl + bidx], single)
            assert np.array_equal(np.signbit(stacked[sl + bidx]), np.signbit(single))


@settings(max_examples=100, deadline=None)
@given(shape=st.lists(st.integers(1, 5), min_size=1, max_size=4), data=st.data(),
       seed=st.integers(0, 2**32 - 1), with_acc=st.booleans())
def test_fold_equals_python_left_fold(shape, data, seed, with_acc):
    axis = data.draw(st.integers(0, len(shape) - 1))
    rng = np.random.default_rng(seed)
    terms = _coefficients(rng, tuple(shape))
    slices = list(np.moveaxis(terms, axis, 0))
    acc = _coefficients(rng, slices[0].shape) if with_acc else None
    expect = functools.reduce(lambda x, y: x + y, slices if acc is None else [acc] + slices)
    got = jets.fold(terms, axis, None if acc is None else acc.copy())
    assert np.array_equal(got, expect)
    assert np.array_equal(np.signbit(got), np.signbit(expect))
