"""Forms as stacked jets against the dict-of-components oracle.

``twistor.Form`` keeps a k-form as one stacked jet over its sorted index
tuples; ``wedge_dicts`` and ``d_dict`` are one gather, at most one multiply
and one fold each, and ``d_wedge`` forms only the partials of a wedge that
d reads, as their degree-1 coefficients, each pair of a ^ a once.
tests/scalar_reference.py keeps the dict code they replaced, which loops
over the component pairs.  Results must be equal, not close: the
Hermitian family, Omega ^ Omega, d(Omega^2), the proof wedge and the cone's
top components, on every fixture, at the chart's jet order 1.  Random
polynomial forms, at jet order 2, then check the algebra itself.
"""

import copy
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scalar_reference as ref
from twistorcheck import fibermap, jets, kahler, report, twistor as tw
from twistorcheck.errors import UsageError

FIXTURES = ("flat", "eguchi_hanson", "burns", "fubini_study", "conformal_hermitian")
H_FUNCS = (("zero", None), ("log_pole", fibermap.power_pole_h(1.0)),
           ("log_pole_2", fibermap.power_pole_h(2.0)))
TOP = tuple(range(tw.TOTAL_DIM))


def assert_same(new, old):
    """The Form ``new`` has the keys, in order, and the components of the
    dict ``old`` (jets, or values when ``new`` is at order 0) exactly."""
    assert new.keys == tuple(old)
    for key, comp in old.items():
        got = new[key].value if new.jet.order == 0 else new[key].coeffs
        assert np.array_equal(got, getattr(comp, "coeffs", comp)), key


def max_abs(comps):
    return max(float(np.max(np.abs(v))) for v in comps.values())


@pytest.fixture(scope="module", params=FIXTURES)
def chart(request):
    return tw.TwistorChart(kahler.get_fixture(request.param))


@pytest.mark.parametrize("h_func", [h for _, h in H_FUNCS], ids=[n for n, _ in H_FUNCS])
def test_balanced_forms_match_the_dict_code(chart, h_func):
    ctx = tw.ChartEval(chart, chart.sample(6, 3))
    omega = tw.omega_ab_field(ctx, h_func)
    weight = jets.exp(h_func(ctx.phi)) * 1.0 if h_func is not None else ctx.one * 1.0
    old = ref.omega_dict(ctx, weight)
    assert_same(omega, old)

    omega2 = tw.wedge_dicts(omega, omega)
    old2 = ref.wedge_dicts(old, old)
    assert_same(omega2, old2)
    d_omega2 = tw.d_dict(omega2)
    old_d = ref.d_dict(old2)
    assert_same(d_omega2, old_d)
    # the partials d reads, alone: the values of d(Omega ^ Omega), bit for bit
    d_wedge = tw.d_wedge(omega, omega)
    assert d_wedge.keys == d_omega2.keys and d_wedge.jet.order == 0
    assert d_wedge.jet.coeffs.tobytes() == d_omega2.jet.coeffs.tobytes()

    fiber = {k: v for k, v in old.items() if tw.IDX_V in k or tw.IDX_W in k}
    d_fiber = tw.d_dict(tw.Form(tuple(fiber), jets.stack([omega[k] for k in fiber])))
    old_proof = ref.wedge_dicts(ref.d_dict(fiber), ref.values(ref.form_dict(ctx.tau)))
    assert_same(tw.wedge_dicts(d_fiber.truncate(0), ctx.tau.truncate(0)), old_proof)

    rep = tw.balanced_check(ctx, h_func)
    assert rep.max_residual == max_abs(old_d)
    assert rep.proof_step_residual == max_abs(old_proof)


@pytest.mark.parametrize("n", (1, 6))
@pytest.mark.parametrize("name", FIXTURES)
def test_d_wedge_of_two_forms_is_d_of_their_wedge(name, n):
    # b is not a: one cell a_I0 b_Jk + a_Ik b_J0 for every ordered pair (I, J),
    # with the bytes of the oracle, signs of zero included, on the plain
    # chart and on the modified chart a suite configures; a copy of Omega
    # takes that path, and gives d(Omega ^ Omega) bit for bit
    metric = kahler.get_fixture(name)
    modified, _ = report._modified_charts(metric, report.SuiteConfig.from_dict({"metric": name}))
    for chart in (tw.TwistorChart(metric), modified):
        ctx = tw.ChartEval(chart, chart.sample(n, 2024))
        omegas = [tw.omega_ab_field(ctx, h) for _, h in H_FUNCS]
        omegas.append(tw.omega_ab_field(ctx, None, weight_mode="x_dependent"))
        fiber = tw._fiber_area_form(ctx, ctx.one)
        for a, b in [*zip(omegas, omegas[1:] + omegas[:1]), (ctx.tau, fiber), (fiber, omegas[1]),
                     (ctx.tau, omegas[2])]:
            new, old = tw.d_wedge(a, b), tw.d_dict(tw.wedge_dicts(a, b))
            assert new.keys == old.keys and new.jet.coeffs.shape == old.jet.coeffs.shape
            assert new.jet.coeffs.tobytes() == old.jet.coeffs.tobytes()
        for omega in omegas:
            twin = copy.deepcopy(omega)
            assert tw.d_wedge(omega, twin).jet.coeffs.tobytes() == tw.d_wedge(omega, omega).jet.coeffs.tobytes()


def test_cone_top_components_match_the_dict_code(chart):
    ctx = tw.ChartEval(chart, chart.sample(6, 4))
    a, b = 2.0, 3.0
    omega = tw.omega_ab_field(ctx, None, a, b).truncate(0)
    omega2 = tw.wedge_dicts(omega, omega)
    old = ref.values(ref.omega_dict(ctx, ctx.one * b, a))
    old2 = ref.wedge_dicts(old, old)
    assert_same(omega2, old2)
    fs = tw._fiber_area_form(ctx, ctx.one).truncate(0)
    vol = -np.sqrt(np.linalg.det(ctx.h_values))
    tops = []
    for other in (fs, ctx.tau.truncate(0)):
        new = tw.wedge_dicts(omega2, other)
        old_top = ref.wedge_dicts(old2, ref.values(ref.form_dict(other)))
        assert_same(new, old_top)
        tops.append(old_top[TOP] / vol)
    rep = tw.cone_wedge_constants(ctx, a, b)
    assert (rep.c1, rep.c2) == (float(np.mean(tops[0])), float(np.mean(tops[1])))


def test_balanced_check_wedges_in_at_most_three_multiplies(monkeypatch, multiply_calls):
    # the dict code made one jet product per pair of components: 42; d_wedge
    # forms the degree-1 coefficients of its cells itself, in no multiply
    chart = tw.TwistorChart(kahler.get_fixture("eguchi_hanson"))
    ctx = tw.ChartEval(chart, chart.sample(30, 2024))
    inside = []

    def counted(orig):
        def call(a, b):
            before = len(multiply_calls)
            out = orig(a, b)
            inside.append((orig.__name__, len(multiply_calls) - before))
            return out
        return call

    for name in ("wedge_dicts", "d_wedge"):
        monkeypatch.setattr(tw, name, counted(getattr(tw, name)))
    tw.balanced_check(ctx, fibermap.power_pole_h(1.0))
    # the partials of Omega ^ Omega that d reads, and the proof wedge
    assert inside == [("d_wedge", 0), ("wedge_dicts", 1)]


def test_ragged_wedge_skips_its_padding(monkeypatch):
    # Omega ^ Omega is 42 terms in a grid of 6 ranks x 11 outputs; its
    # columns hold the outputs by term count, so a block of one rank stops
    # at the last output that has that rank, and the outputs keep their order
    chart = tw.TwistorChart(kahler.get_fixture("burns"))
    ctx = tw.ChartEval(chart, chart.sample(5, 2024))
    omega = tw.omega_ab_field(ctx, None)
    keys, terms = tw._wedge_terms(omega.keys, omega.keys)
    counts = np.count_nonzero(~terms.pad, axis=0)
    assert terms.pad.shape == (6, 11) and counts.sum() == 42
    assert np.all(np.diff(counts) <= 0) and sorted(terms.cols) == list(range(11))
    cells, orig = [], jets.JetSpace._products

    def counted(self, factors, terms, r, o):
        prod = orig(self, factors, terms, r, o)
        cells.append(prod.shape[1] * prod.shape[2])
        return prod

    monkeypatch.setattr(jets.JetSpace, "_products", counted)
    whole = tw.wedge_dicts(omega, omega)
    assert whole.keys == keys and cells == [66]  # one block: its padding is -0.0
    cells.clear()
    monkeypatch.setattr(jets, "CHUNK_DOUBLES", ctx.space.npairs * 5 * 11)  # one rank a block
    by_rank = tw.wedge_dicts(omega, omega)
    assert len(cells) == 6 and sum(cells) == 42
    assert np.array_equal(by_rank.jet.coeffs, whole.jet.coeffs)
    assert np.array_equal(np.signbit(by_rank.jet.coeffs), np.signbit(whole.jet.coeffs))


def test_d_is_a_gather(flat, multiply_calls):
    chart = tw.TwistorChart(flat)
    omega = tw.omega_ab_field(tw.ChartEval(chart, chart.sample(3, 1)), None)
    multiply_calls.clear()
    assert tw.d_dict(omega).jet.order == 0
    assert multiply_calls == []


def test_d_runs_its_grid_in_output_order(flat):
    # d forms no products, so its grid skips no padding and needs no
    # column permutation: the same sums as the grid ordered by term count
    chart = tw.TwistorChart(flat)
    omega = tw.omega_ab_field(tw.ChartEval(chart, chart.sample(3, 1)), None)
    keys, src, terms = tw._d_terms(omega.keys)
    assert terms.cols is None and terms.reach is None and terms.pad.any()
    outs, signs = zip(*[(tuple(sorted((k,) + key)), tw._perm_sign((k,) + key))
                        for key in omega.keys for k in range(tw.TOTAL_DIM) if k not in key])
    by_count = jets.Terms.of(outs, [[np.arange(len(outs))]], signs)
    assert by_count.cols is not None
    d = omega.jet.deriv(*src)
    ordered = d.space.sum_terms([d.coeffs], terms)
    assert ordered.tobytes() == d.space.sum_terms([d.coeffs], by_count).tobytes()
    assert ordered.tobytes() == tw.d_dict(omega).jet.coeffs.tobytes()


# -- the algebra, on random polynomial forms ----------------------------------

SPACE = jets.get_space(tw.TOTAL_DIM, 2)
BATCH = 3


@st.composite
def forms(draw):
    """A form of random degree on a random set of keys, in random order,
    with random degree-2 polynomial components at BATCH points."""
    p = draw(st.integers(0, 3))
    pool = list(itertools.combinations(range(tw.TOTAL_DIM), p))
    keys = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=len(pool), unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return tw.Form(tuple(keys), jets.Jet(SPACE, rng.normal(size=(SPACE.ncoef, len(keys), BATCH))))


def degree(f):
    return len(f.keys[0])


def values(*terms):
    """{key: value} of the sum of (sign, form) terms; missing keys are 0."""
    out = {}
    for sign, f in terms:
        for key in f.keys:
            out[key] = out.get(key, 0.0) + sign * f[key].value
    return out


def assert_close(x, y):
    for key in set(x) | set(y):
        assert np.max(np.abs(x.get(key, 0.0) - y.get(key, 0.0))) < 1e-12, key


@settings(max_examples=60, deadline=None)
@given(a=forms(), b=forms())
def test_wedge_is_graded_commutative(a, b):
    sign = (-1) ** (degree(a) * degree(b))
    assert_close(values((1, tw.wedge_dicts(a, b))), values((sign, tw.wedge_dicts(b, a))))


@settings(max_examples=60, deadline=None)
@given(a=forms(), b=forms(), c=forms())
def test_wedge_is_associative(a, b, c):
    left = tw.wedge_dicts(tw.wedge_dicts(a, b), c)
    right = tw.wedge_dicts(a, tw.wedge_dicts(b, c))
    assert_close(values((1, left)), values((1, right)))


@settings(max_examples=60, deadline=None)
@given(a=forms(), b=forms())
def test_d_obeys_the_graded_leibniz_rule(a, b):
    lhs = tw.d_dict(tw.wedge_dicts(a, b))
    rhs = values((1, tw.wedge_dicts(tw.d_dict(a), b.truncate(1))),
                 ((-1) ** degree(a), tw.wedge_dicts(a.truncate(1), tw.d_dict(b))))
    assert_close(values((1, lhs)), rhs)


@settings(max_examples=60, deadline=None)
@given(a=forms(), b=forms(), order=st.sampled_from([1, 2]), seed=st.integers(0, 2**32 - 1))
def test_d_wedge_equals_d_of_the_wedge(a, b, order, seed):
    # d_wedge forms only the partials d reads; the oracle, d_dict of
    # wedge_dicts of the order-1 parts, the whole order-1 wedge.  Components
    # zero in every coefficient (of both signs) are left out by both, bit for
    # bit.  At order 2 d of the whole wedge has the same values: its sums
    # may read as live a partial whose value is zero everywhere (as in a ^ a),
    # so only signs of zero may differ
    rng = np.random.default_rng(seed)
    a, b = (tw.Form(f.keys, f.jet.truncate(order)) for f in (a, b))
    for f in (a, b):
        dead = rng.random(len(f.keys)) < 0.25
        f.jet.coeffs[:, dead] *= np.where(rng.random(dead.sum()) < 0.5, 0.0, -0.0)[:, None]
    new = tw.d_wedge(a, b)
    old = tw.d_dict(tw.wedge_dicts(a.truncate(1), b.truncate(1)))
    assert new.keys == old.keys and new.jet.space is old.jet.space
    assert new.jet.coeffs.tobytes() == old.jet.coeffs.tobytes()
    ref.assert_same_but_zero_signs(new.jet.coeffs, tw.d_dict(tw.wedge_dicts(a, b)).jet.value[None])


def test_d_wedge_needs_a_first_order():
    omega = tw.Form(((0, 1),), jets.Jet(jets.get_space(tw.TOTAL_DIM, 0), np.ones((1, 1, 3))))
    with pytest.raises(UsageError):
        tw.d_wedge(omega, omega)


@settings(max_examples=60, deadline=None)
@given(a=forms())
def test_d_squared_is_zero(a):
    assert_close(values((1, tw.d_dict(tw.d_dict(a)))), {})
