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
        assert ctx.tau.keys == tuple((i, j) for i in range(4) for j in range(i + 1, 4))
        assert_same_jets(ctx.tau.jet, old["tau"][np.triu_indices(4, 1)])


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
    ctx.J, ctx.h  # computed on first read
    assert len(multiply_calls) < SCALAR_CHART_EVAL_MULTIPLIES / 2
    assert len(multiply_calls) <= 120
    multiply_calls.clear()
    ctx.tau, ctx.omega_jets
    assert len(multiply_calls) <= 24


def test_chart_sample_runs_one_quadrature(flat, quad_calls):
    prof = fibermap.get_profile("cylinder")
    chart = twistor.TwistorChart.modified(flat, prof, fibermap.solve_phi(prof, branch="quadrature"))
    pts = chart.sample(20, 3)
    assert quad_calls == [20]
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


# every space has a layered table; JetSpace.multiply runs it from
# LAYERED_MIN_TRAILING values per coefficient
LAYERED_SPACES = [(n, o) for n in range(1, 7) for o in range(jets.MAX_ORDER + 1)]


def _operand_pairs(ncoef, rng):
    """Broadcast operand pairs as callers pass them: tensor against batch
    axes, unbatched, size-1 views as in contract, plain batches on both
    sides of LAYERED_MIN_TRAILING, and zeros of both signs only, where the
    sign of a zero sum shows how the sum starts."""
    x = _coefficients(rng, (ncoef, 30))
    y = _coefficients(rng, (ncoef, 4, 7, 30))
    pairs = [
        ((ncoef, 3, 1), (ncoef, 1, 400)),
        ((ncoef,), (ncoef,)),
        ((ncoef, 1), (ncoef, 5)),
        ((ncoef, 1), (ncoef, jets.LAYERED_MIN_TRAILING - 1)),
        ((ncoef, jets.LAYERED_MIN_TRAILING), (ncoef, jets.LAYERED_MIN_TRAILING)),
        ((ncoef, 2 * jets.LAYERED_MIN_TRAILING + 3), (ncoef, 1)),
    ]
    yield from ((_coefficients(rng, sa), _coefficients(rng, sb)) for sa, sb in pairs)
    yield x[:, None, None], y[:, 1:2]  # a scalar factor against one row of terms
    yield y[:, :, 2:3], y[:, 1:2]
    yield 0.0 * x, _coefficients(rng, x.shape)
    yield 0.0 * x, 0.0 * _coefficients(rng, x.shape)


@pytest.mark.parametrize("n_vars,order", LAYERED_SPACES)
def test_layered_kernel_equals_reduceat(n_vars, order):
    space = jets.get_space(n_vars, order)
    rng = np.random.default_rng(97 * n_vars + order)
    for a, b in _operand_pairs(space.ncoef, rng):
        summed = space._multiply_reduceat(a, b)
        layered = space._multiply_layered(a, b)
        assert layered.shape == summed.shape
        assert np.array_equal(layered, summed)
        assert np.array_equal(np.signbit(layered), np.signbit(summed))


@pytest.mark.parametrize("n_vars,order", [(4, 2), (1, 3), (4, 4)])
@pytest.mark.parametrize("batch", [5, jets.LAYERED_MIN_TRAILING + 3])
def test_unbatched_times_batched_needs_a_size_one_axis(n_vars, order, batch):
    # axes past the first broadcast from the right, as in numpy: the bare
    # (ncoef,) operand does not line up with (ncoef, batch), the padded
    # (ncoef, 1) one gives the product at every point
    space = jets.get_space(n_vars, order)
    rng = np.random.default_rng(31 * n_vars + order + batch)
    a = _coefficients(rng, (space.ncoef,))
    b = _coefficients(rng, (space.ncoef, batch))
    with pytest.raises(ValueError):
        space.multiply(a, b)
    with pytest.raises(ValueError):  # not even against one point
        space.multiply(a, b[:, :1])
    padded = space.multiply(a[:, None], b)
    assert padded.shape == b.shape
    for t in range(batch):
        single = space.multiply(a, b[:, t])
        assert np.array_equal(padded[:, t], single)
        assert np.array_equal(np.signbit(padded[:, t]), np.signbit(single))
    two = jets.Jet.constant(space, 2.0, (1,))
    assert np.array_equal((two * jets.Jet(space, b)).coeffs, 2.0 * b)


def test_every_space_has_a_layered_table():
    # a coefficient's first term is (0, k); numpy sums the other m terms one
    # by one below 8, and from 8 on in eight accumulators over blocks of 8,
    # then the m mod 8 left one by one
    for n_vars, order in LAYERED_SPACES:
        space = jets.get_space(n_vars, order)
        firsts = space._mul_starts
        assert np.all(space._mul_i[firsts] == 0) and np.all(space._mul_j[firsts] == np.arange(space.ncoef))
        (_, short), (_, blocks, _) = space._layers
        # the coefficient of x^alpha has one term per multi-index below alpha
        longest = max(int(np.prod(np.add(alpha, 1))) for alpha in space.multi_indices) - 1
        assert len(short) == min(longest, 7) and len(blocks) == longest // 8
    # order 1: x_k has the terms (0, k) and (k, 0), so the table is slices
    (rows, [(_, _, i, j)]), _ = jets.get_space(4, 1)._layers
    assert all(isinstance(idx, slice) for idx in (rows, i, j))
    # x0 x1 x2 has 8 terms, a tail of 7: no block
    assert not jets.get_space(3, 3)._layers[1][1]
    # x0^2 x1^2 has 3 * 3 terms, a tail of one block and no remainder
    (_, [(n, _, _)], ranks) = jets.get_space(2, 4)._layers[1]
    assert n == 1 and not ranks
    # x0 x1 x2 x3 has 16 terms, a tail of one block and 7 more
    (_, [(n, _, _)], ranks) = jets.get_space(4, 4)._layers[1]
    assert n == 19 and len(ranks) == 7
    # tails of 63 (x0 ... x5) and 35 (x0^2 x1^2 x2 x3) take more blocks
    assert len(jets.get_space(6, 6)._layers[1][1]) == 7
    assert len(jets.get_space(4, 6)._layers[1][1]) == 4


def test_multiply_picks_kernel_by_space_and_trailing_size(monkeypatch):
    picked = []

    def recording(name):
        kernel = getattr(jets.JetSpace, name)

        def run(self, a, b):
            picked.append(name)
            return kernel(self, a, b)
        return run

    for name in ("_multiply_reduceat", "_multiply_layered"):
        monkeypatch.setattr(jets.JetSpace, name, recording(name))
    cut = jets.LAYERED_MIN_TRAILING
    cases = [
        ((4, 2), (cut,), (cut,), "_multiply_layered"),
        ((4, 2), (1,), (cut,), "_multiply_layered"),
        ((6, 3), (2, cut // 2), (2, 1), "_multiply_layered"),
        ((4, 2), (cut - 1,), (cut - 1,), "_multiply_reduceat"),
        ((4, 2), (), (), "_multiply_reduceat"),
        ((4, 4), (4 * cut,), (4 * cut,), "_multiply_layered"),
        ((4, 4), (cut - 1,), (cut - 1,), "_multiply_reduceat"),
    ]
    for (n_vars, order), ta, tb, kernel in cases:
        space = jets.get_space(n_vars, order)
        picked.clear()
        space.multiply(np.ones((space.ncoef,) + ta), np.ones((space.ncoef,) + tb))
        assert picked == [kernel], (n_vars, order, ta, tb)
