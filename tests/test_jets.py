import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scalar_reference as ref
from twistorcheck import jets
from twistorcheck.errors import ConfigurationError, UsageError


def test_seed_rejects_bad_order():
    with pytest.raises(ConfigurationError):
        jets.seed((0.0, 0.0), 0)
    with pytest.raises(ConfigurationError):
        jets.seed((0.0, 0.0), 4)
    with pytest.raises(ConfigurationError):
        jets.seed((np.inf, 0.0), 2)


def test_product_coefficients_exact():
    x = jets.seed((0.0, 0.0), 2)
    f = x[0] * x[1]
    assert f.coeffs[f.space.index[(1, 1)]] == 1.0
    assert f.extract((2, 0)) == 0.0
    assert f.extract((0, 2)) == 0.0


def test_log_derivatives_at_one():
    (x,) = jets.seed((1.0,), 3)
    g = jets.log(x)
    assert [g.extract((k,)) for k in (1, 2, 3)] == [1.0, -1.0, 2.0]


def test_tanh_derivatives_at_zero():
    (x,) = jets.seed((0.0,), 3)
    t = jets.tanh(x)
    assert [t.extract((k,)) for k in (1, 2, 3)] == [1.0, 0.0, -2.0]


def test_exp_mixed_partial():
    x = jets.seed((0.0, 0.0), 3)
    h = jets.exp(x[0] + x[1])
    assert h.extract((1, 1)) == 1.0


def test_extract_examples_and_errors():
    x = jets.seed((0.0, 0.0), 2)
    assert (x[0] ** 2).extract((2, 0)) == 2.0
    const = x[0] * 0 + 5.0
    assert const.extract((1, 0)) == 0.0
    with pytest.raises(UsageError):
        (x[0] * x[1]).extract((2, 1))
    with pytest.raises(UsageError):
        (x[0] * x[1]).extract((1, -1))


def test_polynomial_derivatives_exact(rng):
    # derivatives of polynomial inputs carry zero error, not merely small
    coeffs = rng.integers(-3, 4, size=(3, 3)).astype(float)
    x = jets.seed((0.5, -0.25), 3)
    f = x[0] * 0.0
    for i in range(3):
        for j in range(3):
            if i + j <= 3:
                f = f + coeffs[i, j] * x[0] ** i * x[1] ** j
    for (a, b) in ((1, 0), (0, 1), (1, 1), (2, 0), (2, 1), (3, 0)):
        exact = 0.0
        for i in range(a, 3):
            for j in range(b, 3):
                if i + j <= 3:
                    exact += (coeffs[i, j]
                              * math.factorial(i) / math.factorial(i - a) * 0.5 ** (i - a)
                              * math.factorial(j) / math.factorial(j - b) * (-0.25) ** (j - b))
        assert f.extract((a, b)) == pytest.approx(exact, abs=1e-13)


def test_ring_axioms_random(rng):
    space = jets.get_space(3, 3)
    def rand_jet():
        return jets.Jet(space, rng.normal(size=space.ncoef))
    for _ in range(20):
        a, b, c = rand_jet(), rand_jet(), rand_jet()
        assoc = ((a * b) * c - a * (b * c)).coeffs
        dist = (a * (b + c) - (a * b + a * c)).coeffs
        comm = (a * b - b * a).coeffs
        assert np.max(np.abs(assoc)) < 1e-13
        assert np.max(np.abs(dist)) < 1e-13
        assert np.max(np.abs(comm)) < 1e-13


HAND_CASES = [
    # (function on a jet, plain function, evaluation point)
    (lambda u: jets.exp(jets.sin(u)), lambda t: math.exp(math.sin(t)), 0.4),
    (lambda u: jets.log(1.0 + u * u), lambda t: math.log(1 + t * t), 0.7),
    (lambda u: jets.sqrt(1.0 + jets.exp(u)), lambda t: math.sqrt(1 + math.exp(t)), -0.2),
    (lambda u: jets.tanh(u * u), lambda t: math.tanh(t * t), 0.6),
    (lambda u: jets.atan(u * u * u - u), lambda t: math.atan(t**3 - t), 0.3),
    (lambda u: jets.sin(jets.cos(u)), lambda t: math.sin(math.cos(t)), 1.1),
    (lambda u: 1.0 / (1.0 + u * u), lambda t: 1 / (1 + t * t), 0.5),
    (lambda u: jets.cos(u) / (2.0 + jets.sin(u)), lambda t: math.cos(t) / (2 + math.sin(t)), 0.9),
    (lambda u: jets.exp(u) * jets.log(2.0 + u), lambda t: math.exp(t) * math.log(2 + t), 0.1),
    (lambda u: jets.sqrt(2.0 + jets.tanh(u)), lambda t: math.sqrt(2 + math.tanh(t)), -0.8),
]


@pytest.mark.parametrize("jet_fn,plain_fn,at", HAND_CASES)
def test_chain_rule_against_finite_differences(jet_fn, plain_fn, at):
    (u,) = jets.seed((at,), 3)
    f = jet_fn(u)
    h = 1e-5
    d1 = (plain_fn(at + h) - plain_fn(at - h)) / (2 * h)
    d2 = (plain_fn(at + h) - 2 * plain_fn(at) + plain_fn(at - h)) / h**2
    assert f.value == pytest.approx(plain_fn(at), rel=1e-14)
    assert f.extract((1,)) == pytest.approx(d1, rel=1e-6, abs=1e-9)
    assert f.extract((2,)) == pytest.approx(d2, rel=1e-4, abs=1e-6)


def test_hand_oracle_second_derivatives():
    # exp(sin t): f'' = exp(sin t)(cos^2 t - sin t)
    (u,) = jets.seed((0.4,), 2)
    f = jets.exp(jets.sin(u))
    expect = math.exp(math.sin(0.4)) * (math.cos(0.4) ** 2 - math.sin(0.4))
    assert f.extract((2,)) == pytest.approx(expect, rel=1e-13)
    # log(1 + t^2): f'' = 2(1 - t^2)/(1 + t^2)^2
    (u,) = jets.seed((0.7,), 2)
    g = jets.log(1.0 + u * u)
    expect = 2 * (1 - 0.49) / (1 + 0.49) ** 2
    assert g.extract((2,)) == pytest.approx(expect, rel=1e-13)


def test_division_by_zero_constant_rejected():
    (u,) = jets.seed((0.0,), 2)
    with pytest.raises(UsageError):
        _ = 1.0 / u
    with pytest.raises(UsageError):
        jets.log(u)
    with pytest.raises(UsageError):
        jets.sqrt(u - 1.0)


def test_batched_matches_pointwise(rng):
    pts = rng.uniform(-0.8, 0.8, size=(7, 2))
    xb = jets.seed(pts, 3)
    fb = jets.exp(xb[0]) * jets.atan(xb[1] + xb[0] * xb[1])
    for i, p in enumerate(pts):
        x = jets.seed(p, 3)
        f = jets.exp(x[0]) * jets.atan(x[1] + x[0] * x[1])
        assert np.allclose(fb.coeffs[:, i], f.coeffs, atol=1e-15)


def test_deriv_and_truncate():
    x = jets.seed((0.3, 0.2), 3)
    f = jets.sin(x[0]) * jets.cos(x[1])
    df = f.deriv(0)
    assert df.order == 2
    assert df.value == pytest.approx(math.cos(0.3) * math.cos(0.2), rel=1e-14)
    assert f.truncate(1).order == 1
    with pytest.raises(UsageError):
        f.truncate(5)


def test_embed_preserves_values():
    x = jets.seed((0.3, 0.2), 2)
    f = x[0] * x[1] + jets.exp(x[0])
    big = jets.get_space(6, 2)
    g = f.embed(big, (2, 4))
    assert g.value == f.value
    assert g.extract((0, 0, 1, 0, 1, 0)) == f.extract((1, 1))


def test_antiderivative_and_compose():
    z = jets.seed_univariate(0.5, 3)
    integrand = 1.0 / (1.0 + z * z)
    ell = jets.antiderivative(integrand, math.atan(0.5))
    direct = jets.atan(z)
    assert np.allclose(ell.coeffs, direct.coeffs, atol=1e-15)
    outer = jets.tanh(jets.seed_univariate(math.atan(0.5), 3) * 2.0)
    composed = jets.compose_univariate(outer, direct * 1.0)
    plain = jets.tanh(2.0 * jets.atan(z))
    assert np.allclose(composed.coeffs, plain.coeffs, atol=1e-14)


# -- ring properties -----------------------------------------------------------
# Batches of one point, a few and many; from order 4 a coefficient of two or
# more variables has a tail of 8 or more terms, which JetSpace.multiply sums
# in blocks.

BATCH = st.sampled_from([1, 7, 133])


def _random_jet(space, batch, rng, value=None):
    coeffs = rng.uniform(-1.0, 1.0, size=(space.ncoef, batch))
    if value is not None:
        coeffs[0] = value
    return jets.Jet(space, coeffs)


def assert_close(got, expect):
    """Equal to 1e-12 relative to the largest coefficient expected."""
    got, expect = got.coeffs, expect.coeffs
    assert got.shape == expect.shape
    assert np.max(np.abs(got - expect)) <= 1e-12 * max(1.0, np.max(np.abs(expect)))


@settings(max_examples=40, deadline=None)
@given(n_vars=st.integers(1, 6), order=st.integers(1, 4), batch=BATCH,
       data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_deriv_obeys_leibniz(n_vars, order, batch, data, seed):
    rng = np.random.default_rng(seed)
    space = jets.get_space(n_vars, order)
    u, v = _random_jet(space, batch, rng), _random_jet(space, batch, rng)
    k = data.draw(st.integers(0, n_vars - 1))
    low = order - 1
    assert_close((u * v).deriv(k), u.deriv(k) * v.truncate(low) + u.truncate(low) * v.deriv(k))


@settings(max_examples=40, deadline=None)
@given(n_vars=st.integers(1, 4), order=st.integers(1, 3), batch=BATCH,
       data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_compose_univariate_obeys_chain_rule(n_vars, order, batch, data, seed):
    rng = np.random.default_rng(seed)
    u = _random_jet(jets.get_space(n_vars, order), batch, rng)
    outer = _random_jet(jets.get_space(1, order + data.draw(st.integers(0, 2))), batch, rng)
    k = data.draw(st.integers(0, n_vars - 1))
    chained = jets.compose_univariate(outer.deriv(0), u.truncate(order - 1)) * u.deriv(k)
    assert_close(jets.compose_univariate(outer, u).deriv(k), chained)


@settings(max_examples=40, deadline=None)
@given(order=st.integers(1, jets.MAX_ORDER), batch=BATCH, seed=st.integers(0, 2**32 - 1))
def test_deriv_undoes_antiderivative(order, batch, seed):
    rng = np.random.default_rng(seed)
    u = _random_jet(jets.get_space(1, order), batch, rng)
    anti = jets.antiderivative(u, rng.uniform(-1.0, 1.0, size=batch))
    assert_close(anti.deriv(0), u.truncate(order - 1))


@settings(max_examples=40, deadline=None)
@given(n_vars=st.integers(1, 6), order=st.integers(0, 3), batch=BATCH,
       seed=st.integers(0, 2**32 - 1))
def test_exp_inverts_log(n_vars, order, batch, seed):
    rng = np.random.default_rng(seed)
    space = jets.get_space(n_vars, order)
    u = _random_jet(space, batch, rng, value=rng.uniform(0.5, 2.0, size=batch))
    assert_close(jets.exp(jets.log(u)), u)


# -- composition at rising order -----------------------------------------------
# jets._apply_series runs step j of Horner's scheme in the space of order j;
# scalar_reference.apply_series runs every step at full order.

COMPOSED = {
    "exp": jets.exp, "log": jets.log, "sqrt": jets.sqrt, "sin": jets.sin, "cos": jets.cos,
    "atan": jets.atan, "tanh": jets.tanh, "reciprocal": jets.Jet._reciprocal,
}
# each function's argument, its constant term moved into the function's domain
IN_DOMAIN = {
    "log": lambda v: np.abs(v) + 0.5,
    "sqrt": lambda v: np.abs(v) + 0.5,
    "reciprocal": lambda v: v + np.copysign(0.5, v),
}


def _argument(name, u):
    if name not in IN_DOMAIN:
        return u
    coeffs = u.coeffs.copy()
    coeffs[0] = IN_DOMAIN[name](coeffs[0])
    return jets.Jet(u.space, coeffs)


def _full_order(fn, *args):
    """The coefficients of ``fn(*args)`` with every step of its composition
    at full order, and the Taylor coefficients it composed."""
    series = []

    def oracle(u, s):
        series.append(s)
        return ref.apply_series(u, s)

    with mock.patch.object(jets, "_apply_series", oracle):
        return fn(*args).coeffs, series[0]


def assert_matches_full_order(new, old, series):
    """``new`` equals ``old`` coefficient for coefficient, and has its bytes,
    signs of zero included, at every point where no Taylor coefficient
    c_1 ... c_N of the series vanishes (see
    test_vanishing_series_coefficient_may_flip_a_zero)."""
    assert new.shape == old.shape
    assert np.array_equal(new, old)
    keep = np.broadcast_to(np.all(series[1:] != 0, axis=0), new.shape[1:])
    assert new[:, keep].tobytes() == old[:, keep].tobytes()


def _mixed(rng, shape, zeros, integral):
    """Coefficients uniform in [-4, 4], or integers there, with a share
    ``zeros`` of them +0.0 or -0.0."""
    c = rng.uniform(-4.0, 4.0, size=shape)
    if integral:
        c = np.round(c)
    at = rng.random(shape) < zeros
    c[at] = np.where(rng.random(shape) < 0.5, 0.0, -0.0)[at]
    return c


SPACES = st.one_of(st.tuples(st.integers(1, 6), st.integers(0, 4)),
                   st.tuples(st.just(1), st.integers(5, 6)))
# (argument, outer jet) shapes: unbatched, batched (a few points and many),
# and an outer jet that broadcasts against its argument
SHAPES = st.sampled_from([((), ()), ((1,), (1,)), ((7,), (7,)), ((133,), (133,)),
                          ((2, 3), (2, 3)), ((2, 3), (1, 3)), ((2, 3), (3,))])


@settings(max_examples=60, deadline=None)
@given(space=SPACES, shapes=SHAPES, extra=st.integers(0, 2),
       zeros=st.sampled_from([0.0, 0.25, 0.5, 0.9]), integral=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_composition_matches_full_order(space, shapes, extra, zeros, integral, seed):
    rng = np.random.default_rng(seed)
    (n_vars, order), (shape, outer_shape) = space, shapes
    sp = jets.get_space(n_vars, order)
    u = jets.Jet(sp, _mixed(rng, (sp.ncoef,) + shape, zeros, integral))
    for name, fn in COMPOSED.items():
        arg = _argument(name, u)
        old, series = _full_order(fn, arg)
        assert_matches_full_order(fn(arg).coeffs, old, series)
    outer_order = min(order + extra, jets.MAX_ORDER)
    outer = jets.Jet(jets.get_space(1, outer_order),
                     _mixed(rng, (outer_order + 1,) + outer_shape, zeros, integral))
    old, series = _full_order(jets.compose_univariate, outer, u)
    assert_matches_full_order(jets.compose_univariate(outer, u).coeffs, old, series)


def test_vanishing_series_coefficient_may_flip_a_zero():
    """Where a Taylor coefficient c_k, k >= 1, of F vanishes, a coefficient
    of F(u) that is zero at both orders may differ in its sign: at full
    order it takes the sign of an unsettled top-degree coefficient times
    w0 = +0.0, a term that rising order forms as (+0.0)(+0.0).  Here u =
    0.5 - 0.0 t + t^2 and F has c = (1, -0.0, -1); tanh and atan at
    u = 0 - t - t^3 - 0.0 t^4, whose c_2 and c_4 vanish, do the same."""
    u = jets.Jet(jets.get_space(1, 2), np.array([0.5, -0.0, 1.0]))
    outer = jets.Jet(jets.get_space(1, 2), np.array([1.0, -0.0, -1.0]))
    old, _ = _full_order(jets.compose_univariate, outer, u)
    new = jets.compose_univariate(outer, u).coeffs
    assert np.array_equal(new, old)
    assert np.signbit(old).tolist() == [False, False, True]
    assert np.signbit(new).tolist() == [False, False, False]
    u = jets.Jet(jets.get_space(1, 4), np.array([0.0, -1.0, 0.0, -1.0, -0.0]))
    for fn in (jets.tanh, jets.atan):
        old, _ = _full_order(fn, u)
        new = fn(u).coeffs
        assert np.array_equal(new, old)
        assert np.signbit(old[4]) and not np.signbit(new[4])


def test_composition_overflow_only_turns_nans_finite():
    """Where an intermediate above a step's degree overflows, full order
    multiplies inf by w0 = +0.0 and carries the NaN on; rising order never
    forms that product.  Every coefficient that full order leaves finite
    keeps its bytes, and rising order is non-finite only where full order
    is."""
    rng = np.random.default_rng(23)
    turned_finite = 0
    for n_vars, order in ((1, 4), (1, 6), (2, 4), (4, 3), (4, 4), (6, 2)):
        sp = jets.get_space(n_vars, order)
        for _ in range(4):
            c = rng.uniform(-1.0, 1.0, (sp.ncoef, 80)) * 10.0 ** rng.uniform(0.0, 160.0, (sp.ncoef, 80))
            c[0] = rng.uniform(0.5, 2.0, 80)  # in every function's domain
            u = jets.Jet(sp, c)
            with np.errstate(over="ignore", invalid="ignore"):
                for fn in COMPOSED.values():
                    old, _ = _full_order(fn, u)
                    new = fn(u).coeffs
                    finite = np.isfinite(old)
                    assert new[finite].tobytes() == old[finite].tobytes()
                    assert np.all(np.isfinite(new) | ~finite)
                    turned_finite += np.count_nonzero(np.isfinite(new) & ~finite)
    assert turned_finite > 0


# -- grids without the terms of zero components ----------------------------------
# jets.JetSpace.sum_terms leaves out every cell that reads a component which
# is +0.0 or -0.0 in every coefficient at every point (jets.Terms.skip_zeros);
# sum_terms on the whole grid (scalar_reference.whole_grids) is the oracle.

def _zero_grid(rng, shapes, n_out, n_terms, rect, signed, by_count):
    """A grid over factors of tensor ``shapes``: ``n_terms`` random terms
    over at most ``n_out`` outputs by :meth:`jets.Terms.of`, or with
    ``rect`` a grid of ``n_terms`` ranks by ``n_out`` columns with no
    padding and no signs, each index array constant along its ranks or its
    columns or neither."""
    if not rect:
        index = [[rng.integers(0, n, n_terms) for n in shape] for shape in shapes]
        sign = rng.choice([-1.0, 1.0], n_terms) if signed else None
        return jets.Terms.of(rng.integers(0, n_out, n_terms).tolist(), index, sign, by_count)
    cells = [(n_terms, 1), (1, n_out), (n_terms, n_out)]
    index = tuple(tuple(rng.integers(0, n, cells[rng.integers(3)]) for n in shape) for shape in shapes)
    return jets.Terms(index, None, np.zeros((n_terms, n_out), dtype=bool))


def _zero_factor(rng, space, shape, batch, share, integral):
    """Coefficients uniform in [-4, 4], or integers there, with a share
    ``share`` of the components +0.0 or -0.0 (each entry's sign at random)
    in every coefficient at every point."""
    c = _mixed(rng, (space.ncoef,) + shape + batch, 0.1, integral)
    dead = rng.random(shape) < share
    c[:, dead] = np.where(rng.random(c[:, dead].shape) < 0.5, 0.0, -0.0)
    return c


@settings(max_examples=80, deadline=None)
@given(space=st.tuples(st.integers(1, 3), st.integers(0, 3)),
       batch=st.sampled_from([(), (1,), (6,), (133,)]),
       shapes=st.lists(st.lists(st.integers(1, 4), min_size=1, max_size=2).map(tuple),
                       min_size=1, max_size=3),
       n_out=st.integers(1, 5), n_terms=st.integers(1, 12), rect=st.booleans(),
       signed=st.booleans(), by_count=st.booleans(), with_init=st.booleans(),
       share=st.sampled_from([0.25, 0.5, 0.9]), integral=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_skipping_zero_components_keeps_every_value(space, batch, shapes, n_out, n_terms, rect,
                                                    signed, by_count, with_init, share, integral,
                                                    seed):
    rng = np.random.default_rng(seed)
    sp = jets.get_space(*space)
    factors = [_zero_factor(rng, sp, shape, batch, share, integral) for shape in shapes]
    terms = _zero_grid(rng, shapes, n_out, n_terms, rect, signed, by_count)
    init = _mixed(rng, (sp.ncoef, terms.pad.shape[1]) + batch, 0.5, integral) if with_init else None
    with ref.whole_grids():
        full = sp.sum_terms(factors, terms, None if init is None else init.copy())
    new = sp.sum_terms(factors, terms, None if init is None else init.copy())
    assert np.array_equal(new, full)
    nonzero = full != 0
    assert new[nonzero].tobytes() == full[nonzero].tobytes()
    # the cells left out are exactly those that read a zero component
    live = ~terms.pad
    for f, ix in zip(factors, terms.index):
        live = live & np.any(f, axis=(0,) + tuple(range(1 + len(ix), f.ndim)))[ix]
    assert np.count_nonzero(~terms.skip_zeros(factors).pad) == np.count_nonzero(live)


def test_skipping_zero_components_may_flip_a_zero_sum():
    """Left out, a term that reads a zero component can change only the
    sign of a sum that is zero: an output whose every term reads one is
    -0.0 (or its ``init``), where the whole grid adds those terms onto -0.0
    and gives +0.0 if one of them is +0.0.  The smallest case the search of
    test_skipping_zero_components_keeps_every_value finds: the one term
    (0.094573 * -1.50534838) * -0.0 = +0.0."""
    sp = jets.get_space(1, 0)
    factors = [np.array([[0.094573]]), np.array([[-1.50534838]]), np.array([[-0.0]])]
    terms = jets.Terms.of([0], [[np.array([0])]] * 3)
    assert terms.skip_zeros(factors).pad.shape == (0, 1)
    with ref.whole_grids():
        full = sp.sum_terms(factors, terms)
    new = sp.sum_terms(factors, terms)
    assert full.tolist() == new.tolist() == [[0.0]]
    assert not np.signbit(full[0, 0]) and np.signbit(new[0, 0])
