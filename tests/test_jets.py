import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
# Batches below and above jets.LAYERED_MIN_TRAILING, so that JetSpace.multiply
# runs both of its kernels; from order 4 a coefficient of two or more
# variables has a tail of 8 or more terms, which the layered kernel sums in
# blocks.

BATCH = st.sampled_from([1, 7, jets.LAYERED_MIN_TRAILING + 5])


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
