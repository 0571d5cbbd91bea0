"""Stacked jets against the scalar-loop reference, bit for bit.

Every tensor of jets in the package is one stacked jet: the metric jets of
a potential, the adapted frame, the Gauss-Jordan inverse, the Christoffel
symbols, the self-dual basis, the covariant derivative of 2-vectors, beta,
and the ChartEval fields P, K, J, h, Omega and tau.  tests/scalar_reference.py
multiplies one scalar jet at a time in the same association and summation
order.  Their coefficients must be equal, not close, at every batch size,
including one point and an unbatched point (where a contiguous numpy sum
would go pairwise).  The reference forms every term of every sum, where
the package leaves out the terms that read a component which is +0.0 or
-0.0 everywhere, so a field built from such a sum is compared with
``ref.assert_same_but_zero_signs``: every nonzero bit, and only the sign
of a zero may differ.  The property tests at the end check the kernel
behaviour all of this rests on.
"""

import copy

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


def assert_same_jets(new, old, zero_signs=True):
    """The stacked jet ``new`` has the components of the object array
    ``old``: same space, equal coefficients with equal signs of zero, or
    with ``zero_signs`` False equal but for the signs of zeros."""
    assert new.coeffs.shape[1:1 + old.ndim] == old.shape
    for idx in np.ndindex(old.shape):
        assert new[idx].space is old[idx].space
        a, b = new[idx].coeffs, old[idx].coeffs
        if zero_signs:
            assert np.array_equal(a, b), idx
            assert np.array_equal(np.signbit(a), np.signbit(b)), idx
        else:
            ref.assert_same_but_zero_signs(a, b)


def _truncated(old, order):
    """The object array ``old`` of jets, each truncated to ``order``."""
    out = np.empty(old.shape, dtype=object)
    for idx in np.ndindex(old.shape):
        out[idx] = old[idx].truncate(order)
    return out


def _points(metric, n, seed=5):
    pts = metric.chart.sample(1 if n is None else n, seed)
    return pts[0] if n is None else pts


@pytest.fixture(scope="module", params=FIXTURES)
def metric(request):
    return kahler.get_fixture(request.param)


# the Christoffel symbols are formed on the pairs i <= j and copied to (j, i):
# flat adds the constant metric, whose zero derivatives decide by their
# signs, and Eguchi-Hanson the dense one
@pytest.fixture(scope="module", params=FIXTURES + ("flat", "eguchi_hanson"))
def christoffel_metric(request):
    return kahler.get_fixture(request.param)


def _reference_metric_jets(metric, x, order):
    """ref.metric_jets of ``metric``'s fixture rebuilt with the full-order
    |x|^2 of the reference, so that the comparison checks kahler._u_of too."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kahler, "_u_of", ref.u_of)
        return ref.metric_jets(kahler.get_fixture(metric.name), x, order)


# order 2 is what a ChartEval takes; order 3 puts three or more terms in a
# coefficient, where argument order shows
CHART_CASES = [(2, n) for n in BATCHES]
CASES = CHART_CASES + [(3, n) for n in (None, 1, 5)]


class TestBaseJets:
    @pytest.mark.parametrize("order,n", CASES)
    def test_inverse_and_christoffel(self, christoffel_metric, order, n):
        x = _points(christoffel_metric, n)
        gjets = christoffel_metric.jets_at(x, order)
        ref_g = _reference_metric_jets(christoffel_metric, x, order)
        assert_same_jets(gjets, ref_g)
        assert_same_jets(geo._inverse(gjets), ref.jet_matrix_inverse(ref_g))
        assert_same_jets(geo.christoffel_jets(gjets), ref.christoffel_jets(ref_g), False)

    @pytest.mark.parametrize("order,n", CASES)
    def test_self_dual_nabla_and_beta(self, metric, order, n):
        x = _points(metric, n)
        gjets = metric.jets_at(x, order)
        ref_g = _reference_metric_jets(metric, x, order)
        frame = kahler.adapted_frame(gjets)
        ref_frame = ref.adapted_frame(ref_g)
        assert_same_jets(frame, ref_frame, False)
        sd = kahler._self_dual(frame)
        ref_sd = ref.sd_jets(ref_frame)
        gamma = geo.christoffel_jets(gjets)
        ref_gamma = ref.christoffel_jets(ref_g)
        for q in range(3):
            assert_same_jets(sd[q], ref_sd[q], False)
            nabla = kahler._two_vector_nabla(gamma, sd[q])
            for k in range(4):
                assert_same_jets(nabla[k], ref.two_vector_nabla(ref_gamma, ref_sd[q], k), False)
        assert_same_jets(kahler._self_dual(frame, (1,))[0], ref_sd[1], False)
        ref_beta = ref.beta_jets(ref_g, ref_frame)
        assert_same_jets(kahler.beta_form(gjets, sd[1], sd[2], gamma), ref_beta, False)
        # the base evaluation builds the basis one order lower: the truncated
        # reference, bit for bit, and the same beta
        base_sd, base_beta = kahler.BaseEval(metric, x, order).connection
        assert base_sd.space is gamma.space
        for q in range(3):
            assert_same_jets(base_sd[q], _truncated(ref_sd[q], order - 1), False)
        assert_same_jets(base_beta, ref_beta, False)

    @pytest.mark.parametrize("order,n", CHART_CASES)
    def test_chart_eval_fields(self, metric, order, n):
        chart = twistor.TwistorChart(metric)
        pts = chart.sample(1 if n is None else n, 3)
        ctx = twistor.ChartEval(chart, pts[0] if n is None else pts)
        assert ctx.base.gjets.order == order
        old = ref.chart_fields(ctx)
        for name in ("P_img", "K", "J", "h"):
            assert_same_jets(getattr(ctx, name), old[name], False)
        assert_same_jets(ctx.omega_jets, old["omega"], False)
        assert ctx.tau.keys == tuple((i, j) for i in range(4) for j in range(i + 1, 4))
        assert_same_jets(ctx.tau.jet, old["tau"][np.triu_indices(4, 1)], False)


@pytest.mark.parametrize("name", sorted(kahler.FIXTURES))
def test_tau_leaves_out_only_exact_zeros(name):
    # tau, on the pairs i < j and without the terms that read a zero
    # component (the diagonal of P, and the off-diagonal g of flat and
    # conformal-Hermitian), equals the whole (g P g)_{ij} contraction
    # but for signs of zero: those terms are products with a signed zero
    metric = kahler.get_fixture(name)
    chart = twistor.TwistorChart(metric)
    i, j = np.triu_indices(4, 1)
    for n in (1, 7, 50, 400):
        ctx = twistor.ChartEval(chart, chart.sample(n, 3))
        with ref.whole_grids():
            full = jets.contract("im,mn,nj->ij", ctx.g, ctx.P_img, ctx.g)
        ref.assert_same_but_zero_signs(ctx.tau.jet.coeffs, full.coeffs[:, i, j])


@pytest.mark.parametrize("n", (1, 5, 50, 400))
def test_christoffel_of_h(christoffel_metric, n):
    # h is formed on its upper triangle and mirrored, equal to its transpose;
    # its 6x6 inverse leaves out the pivot column, which nothing reads again
    chart = twistor.TwistorChart(christoffel_metric)
    ctx = twistor.ChartEval(chart, chart.sample(n, 3))
    assert ctx.h.coeffs.tobytes() == np.ascontiguousarray(ctx.h.coeffs.swapaxes(1, 2)).tobytes()
    assert_same_jets(geo._inverse(ctx.h), ref.jet_matrix_inverse(ref.to_objects(ctx.h, 2)))
    assert_same_jets(geo.christoffel_jets(ctx.h), ref.christoffel_jets(ref.to_objects(ctx.h, 2)), False)


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


def test_sum_terms_adds_in_loop_order():
    # pairwise summation of a contiguous axis would give 2.0 here
    space = jets.get_space(1, 0)
    values = np.array([[1e16, 1.0, 1.0, -1e16]])
    terms = jets.Terms.of([0] * 4, [[np.arange(4)]])
    assert space.sum_terms([values], terms)[0, 0] == 0.0
    tail = jets.Terms.of([0] * 3, [[np.arange(1, 4)]])
    assert space.sum_terms([values], tail, init=np.array([[1e16]]))[0, 0] == 0.0


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


def test_contract_gathers_each_factor_once_per_block():
    # an output index varies along the outputs only and a summed one along
    # the ranks only, so a factor that lacks either axis is broadcast
    g = jets.get_space(4, 1)
    shapes = ((4, 4, 4), (4, 4), (4, 4), (4, 4))
    out_shape, terms = jets._contract_terms("mij,kl,ik,jl->m", shapes)
    assert out_shape == (4,) and terms.pad.shape == (256, 4) and not terms.pad.any()
    assert [[a.shape for a in ix] for ix in terms.index] == [
        [(1, 4), (256, 1), (256, 1)], [(256, 1)] * 2, [(256, 1)] * 2, [(256, 1)] * 2]
    assert g.sum_terms([np.zeros((g.ncoef,) + s + (3,)) for s in shapes], terms).shape == (g.ncoef, 4, 3)


def test_beta_grid_leaves_out_structural_zeros():
    # beta's contraction runs (i, j, k, l) in loop order, one rank a term;
    # the diagonals of nabla s2 and s3 are zero components, so its sums
    # keep the 144 terms with i != j and k != l, in that order
    space = jets.get_space(4, 1)
    shapes = ((4, 4, 4), (4, 4), (4, 4), (4, 4))
    _, terms = jets._contract_terms("mij,kl,ik,jl->m", shapes)
    rng = np.random.default_rng(0)
    nabla, s3, g = (rng.normal(size=(space.ncoef,) + s + (3,)) for s in shapes[:3])
    d = np.arange(4)
    nabla[:, :, d, d] = 0.0
    s3[:, d, d] = -0.0
    kept = terms.skip_zeros([nabla, s3, g, g])
    # whole ranks left out: the index arrays keep their shapes, and the
    # grid needs no signs, padding or column order
    assert kept.pad.shape == (144, 4) and not kept.pad.any()
    assert kept.sign is None and kept.cols is None and kept.reach is None
    (m, i, j), (k, l), (i2, k2), (j2, l2) = kept.index
    assert m.shape == (1, 4) and i.shape == j.shape == (144, 1)
    assert [a.shape for a in (k, l, i2, k2, j2, l2)] == [(144, 1)] * 6
    assert np.array_equal(m, np.arange(4)[None])
    assert np.array_equal(i, i2) and np.array_equal(j, j2)
    assert np.array_equal(k, k2) and np.array_equal(l, l2)
    loop = [(a, b, c, e) for a in range(4) for b in range(4) if a != b
            for c in range(4) for e in range(4) if c != e]
    assert np.array_equal(np.hstack([i, j, k, l]), loop)


@pytest.mark.parametrize("name", ("flat", "burns"))
@pytest.mark.parametrize("n", (None, 1, 5))
def test_self_dual_and_beta_in_small_blocks(request, monkeypatch, name, n):
    # blocks of a few entries and ranks give the bits of the scalar loops
    # but for signs of zero: on flat beta is zero in every coefficient
    metric = request.getfixturevalue(name)
    x = _points(metric, n)
    gjets = metric.jets_at(x, 2)
    low, nbatch = jets.get_space(4, 1), 1 if n is None else n
    monkeypatch.setattr(jets, "CHUNK_DOUBLES", low.npairs * nbatch * 3)
    assert len(gjets.space.chunks(6, nbatch)) > 1 and len(low.chunks(144, 4 * nbatch)) > 1
    ref_g = ref.metric_jets(metric, x, 2)
    ref_frame = ref.adapted_frame(ref_g)
    frame = kahler.adapted_frame(gjets)
    sd = kahler._self_dual(frame)
    ref_sd = ref.sd_jets(ref_frame)
    for q, ref_s in enumerate(ref_sd):
        assert_same_jets(sd[q], ref_s, False)
    assert_same_jets(kahler._self_dual(frame, (1,))[0], ref_sd[1], False)
    low_sd = kahler._self_dual(frame.truncate(1))
    for q, ref_s in enumerate(ref_sd):
        assert_same_jets(low_sd[q], _truncated(ref_s, 1), False)
    beta = kahler.beta_form(gjets, sd[1], low_sd[2], geo.christoffel_jets(gjets))
    assert_same_jets(beta, ref.beta_jets(ref_g, ref_frame), False)
    if name == "flat":
        assert not np.any(beta.coeffs)


def test_self_dual_diagonal_and_antisymmetry(burns):
    # the diagonals of s and of nabla s2 are +0.0, and s^{ji} = -s^{ij} (as
    # numbers: a zero difference is +0.0 either way round), on which the
    # zero diagonal of nabla s2 rests
    gjets = burns.jets_at(_points(burns, 5), 2)
    sd = kahler._self_dual(kahler.adapted_frame(gjets))
    nabla = kahler._two_vector_nabla(geo.christoffel_jets(gjets), sd[1])
    d = np.arange(4)
    for diag in (sd.coeffs[:, :, d, d], nabla.coeffs[:, :, d, d]):
        assert not np.any(diag) and not np.any(np.signbit(diag))
    i, j = np.triu_indices(4, 1)
    upper, lower = sd.coeffs[:, :, i, j], sd.coeffs[:, :, j, i]
    assert np.any(upper) and np.array_equal(lower, -upper)


def test_chart_eval_halves_jet_products(eguchi_hanson, multiply_calls):
    chart = twistor.TwistorChart(eguchi_hanson)
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
    chart = twistor.TwistorChart(flat, fibermap.solve_phi(prof, branch="quadrature"))
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


@st.composite
def term_grids(draw):
    """A ragged list of terms in loop order on random factors: outputs
    numbered by first appearance, factors of 0 to 2 tensor axes, signs +1
    and -1 or none, and an ``init`` or none."""
    space = jets.get_space(draw(st.integers(1, 4)), draw(st.integers(0, 3)))
    batch = draw(st.sampled_from([(), (1,), (3,)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shapes = draw(st.lists(st.lists(st.integers(1, 3), max_size=2), min_size=1, max_size=3))
    scale = 0.0 if draw(st.booleans()) else 1.0  # zeros of both signs only
    factors = [scale * _coefficients(rng, (space.ncoef, *shape, *batch)) for shape in shapes]
    labels = draw(st.lists(st.integers(0, 5), max_size=24))
    outs = [list(dict.fromkeys(labels)).index(x) for x in labels]
    index = [[rng.integers(0, n, size=len(outs)) for n in shape] for shape in shapes]
    sign = rng.choice([-1.0, 1.0], size=len(outs)) if draw(st.booleans()) else None
    n_out = len(set(outs))
    init = _coefficients(rng, (space.ncoef, n_out, *batch)) if draw(st.booleans()) else None
    return space, factors, outs, index, sign, init


@settings(max_examples=200, deadline=None)
@given(grid=term_grids(), chunk=st.sampled_from([None, 1, 2, 3, 5, 8]))
def test_sum_terms_equals_python_left_fold(grid, chunk):
    space, factors, outs, index, sign, init = grid
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:  # blocks of a few cells: split across ranks and outputs
            nbatch = int(np.prod(factors[0].shape[1 + len(index[0]):]))
            mp.setattr(jets, "CHUNK_DOUBLES", chunk * space.npairs * nbatch)
        with ref.whole_grids():  # the left fold forms every term
            got = space.sum_terms(factors, jets.Terms.of(outs, index, sign),
                                  None if init is None else init.copy())
    n_out = len(set(outs))
    assert got.shape[:2] == (space.ncoef, n_out)
    for o in range(n_out):
        acc = None if init is None else jets.Jet(space, init[:, o])
        for t in (t for t, out in enumerate(outs) if out == o):
            prod = None
            for f, ix in zip(factors, index):
                jet = jets.Jet(space, f[(slice(None),) + tuple(a[t] for a in ix)])
                prod = jet if prod is None else prod * jet
            term = prod if sign is None else prod * sign[t]
            acc = term if acc is None else acc + term
        expect = np.broadcast_to(acc.coeffs, got[:, o].shape)
        assert np.array_equal(got[:, o], expect), o
        assert np.array_equal(np.signbit(got[:, o]), np.signbit(expect)), o


def _assert_same_bits(a, b):
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


# seed coordinates of either sign, zeros of both signs among them, and
# magnitudes whose squares overflow
COORDINATES = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=100, deadline=None)
@given(order=st.integers(1, 5), n=st.sampled_from([None, 1, 5, 400]),
       point=st.lists(COORDINATES, min_size=4, max_size=4), seed=st.integers(0, 2**32 - 1))
def test_u_of_at_degree_two_equals_the_full_order_sum(order, n, point, seed):
    # |x|^2 formed at degree 2 and padded with +0.0 has the bits of the sum
    # of products at the seeds' order, signs of zero included; the first
    # point is drawn, the others are uniform with a quarter zeros of each sign
    x = np.array(point)
    if n is not None:
        rng = np.random.default_rng(seed)
        x = np.vstack([x, rng.uniform(-2.0, 2.0, (n - 1, 4))])
        kind = rng.integers(0, 8, size=x.shape)
        x[1:][kind[1:] == 0] = 0.0
        x[1:][kind[1:] == 1] = -0.0
    xj = jets.seed_raw(x, order)
    with np.errstate(over="ignore"):
        got, full = kahler._u_of(xj), ref.u_of(xj)
    assert got.space is full.space
    _assert_same_bits(got.coeffs, full.coeffs)


@settings(max_examples=120, deadline=None)
@given(n_vars=st.sampled_from([4, 6]), order=st.integers(1, 3),
       trailing=st.sampled_from([1, 5, 127, 128, 130]),
       zero_tail=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_products_and_inverse_commute_with_truncate(n_vars, order, trailing, zero_tail, seed):
    # the coefficients of a product, and of a Gauss-Jordan inverse, up to
    # order - 1 do not depend on those of order ``order``: a field read only
    # one order lower can be built there, with the same bits, at one point
    # and at many; a zero tail (of zeros of both signs) is a constant metric,
    # as on flat
    space = jets.get_space(n_vars, order)
    rng = np.random.default_rng(seed)

    def operand(shape):
        c = _coefficients(rng, (space.ncoef,) + shape)
        if zero_tail:
            c[1:] *= 0.0
        return c

    a, b = operand((trailing,)), operand((trailing,))
    low = jets.get_space(n_vars, order - 1)
    _assert_same_bits(space.multiply(a, b)[:low.ncoef], low.multiply(a[:low.ncoef], b[:low.ncoef]))
    # the inverse at batches of one to 32 points
    batch = max(1, trailing // n_vars)
    m = operand((n_vars, n_vars, batch))
    root = rng.normal(size=(n_vars, n_vars, batch))
    m[0] = np.einsum("ik...,jk...->ij...", root, root) + n_vars * np.eye(n_vars)[..., None]  # SPD
    m = jets.Jet(space, m)
    _assert_same_bits(geo._inverse(m).truncate(order - 1).coeffs,
                      geo._inverse(m.truncate(order - 1)).coeffs)


# every space has a layered table, which JetSpace.multiply runs at every size
LAYERED_SPACES = [(n, o) for n in range(1, 7) for o in range(jets.MAX_ORDER + 1)]


def _operand_pairs(ncoef, rng):
    """Broadcast operand pairs as callers pass them: tensor against batch
    axes, unbatched, size-1 views as in contract, plain batches of one,
    a few and many points, and zeros of both signs only, where the
    sign of a zero sum shows how the sum starts."""
    x = _coefficients(rng, (ncoef, 30))
    y = _coefficients(rng, (ncoef, 4, 7, 30))
    pairs = [
        ((ncoef, 3, 1), (ncoef, 1, 400)),
        ((ncoef,), (ncoef,)),
        ((ncoef, 1), (ncoef, 5)),
        ((ncoef, 1), (ncoef, 127)),
        ((ncoef, 128), (ncoef, 128)),
        ((ncoef, 259), (ncoef, 1)),
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
        summed = ref.reduceat_multiply(space, a, b)
        layered = space.multiply(a, b)
        assert layered.shape == summed.shape
        assert np.array_equal(layered, summed)
        assert np.array_equal(np.signbit(layered), np.signbit(summed))


@pytest.mark.parametrize("n_vars,order", [(4, 2), (1, 3), (4, 4)])
@pytest.mark.parametrize("batch", [5, 131])
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


def _same_table(a, b):
    """Two nested product tables (tuples, lists, slices, arrays) are equal."""
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same_table, a, b))
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b)
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("n_vars", range(1, 7))
def test_product_table_matches_the_pair_loop(n_vars):
    # looking up the sums of all pairs at once lists the pairs of the loop
    # over (i, j), in its order, and so builds the same layered table
    for order in range(5 if n_vars == 6 else 7):
        space = jets.get_space(n_vars, order)
        mul_i, mul_j, starts = ref.mul_table(space)
        assert _same_table([space._mul_i, space._mul_j, space._mul_starts], [mul_i, mul_j, starts])
        assert space.npairs == len(mul_i)
        oracle = copy.copy(space)
        oracle._mul_i, oracle._mul_j, oracle._mul_starts = mul_i, mul_j, starts
        assert _same_table(oracle._build_layers(), space._layers), (n_vars, order)


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


@pytest.mark.parametrize("name", sorted(kahler.FIXTURES))
@pytest.mark.parametrize("order", (2, 3))
def test_connection_matches_its_whole_grids(name, order):
    # the frame, nabla s2 and the connection leave out the terms that read a
    # component which is +0.0 or -0.0 everywhere; the whole grids give the
    # same bytes but for signs of zero.  At base order 3 rounding leaves
    # residues of about 1e-17 where s2 and s3 are zero at order 2, so the
    # zeros differ with the order
    metric = kahler.get_fixture(name)
    for n in (1, 7, 50, 400):
        base = kahler.BaseEval(metric, metric.chart.sample(n, 2024), order)
        with ref.whole_grids():
            frame = kahler.adapted_frame(base.gjets)
            s2 = kahler._self_dual(frame, (1,))[0]
            # a copy, so that base keeps its connection unbuilt
            whole = [frame, kahler._two_vector_nabla(base.gamma_jets, s2),
                     *copy.copy(base).connection]
        built = [kahler.adapted_frame(base.gjets), kahler._two_vector_nabla(base.gamma_jets, s2),
                 *base.connection]
        for new, old in zip(built, whole):
            assert new.space is old.space, n
            ref.assert_same_but_zero_signs(new.coeffs, old.coeffs)
        if order == 2:  # s2 is nonzero at (0, 2), (1, 3) and their transposes, s3 on the anti-diagonal
            low = base.gamma_jets.space.ncoef
            s3 = kahler._self_dual(frame)[2].coeffs[:low]
            pattern = np.zeros((4, 4), dtype=bool)
            pattern[[0, 2, 1, 3], [2, 0, 3, 1]] = True
            assert np.array_equal(jets.nonzero_components(s2.coeffs[:low], 2), pattern)
            assert np.array_equal(jets.nonzero_components(s3, 2), np.eye(4, dtype=bool)[::-1])
            # with every other component live, nabla forms 96 of its 384
            # products and beta 48 of the 256 terms of each output
            gamma = np.ones_like(base.gamma_jets.coeffs)
            assert np.count_nonzero(~kahler._nabla_terms().skip_zeros([gamma, s2.coeffs[:low]]).pad) == 96
            _, terms = jets._contract_terms("mij,kl,ik,jl->m", ((4, 4, 4), (4, 4), (4, 4), (4, 4)))
            nabla = np.ones((low, 4, 4, 4, n))
            nabla[:, :, range(4), range(4)] = 0.0
            g = np.ones((low, 4, 4, n))
            assert np.count_nonzero(~terms.skip_zeros([nabla, s3, g, g]).pad) == 4 * 48
