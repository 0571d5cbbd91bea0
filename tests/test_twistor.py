from functools import cached_property

import numpy as np
import pytest

from twistorcheck import fibermap as fm, geometry as geo, jets, kahler, report, twistor as tw
from twistorcheck.errors import DomainError, InputError, UsageError


@pytest.fixture(scope="module")
def charts(request):
    out = {}
    for name in ("flat", "fubini_study", "eguchi_hanson", "burns"):
        out[name] = tw.TwistorChart(kahler.get_fixture(name))
    return out


def ctx_at(chart, n, seed):
    """The ChartEval of ``chart`` at ``n`` points sampled with ``seed``."""
    return tw.ChartEval(chart, chart.sample(n, seed))


def form(comps):
    """The Form of a dict {sorted index tuple: jet}."""
    return tw.Form(tuple(comps), jets.stack(list(comps.values())))


def max_abs(f):
    """sup of the absolute values of a form's values (0 for none)."""
    return float(np.max(np.abs(f.jet.value), initial=0.0))


def nijenhuis_domega(ctx, A, B, C):
    """h(N(A,B),C) per point through the four-term D-Omega formula, the
    route through the Levi-Civita connection of h, not brackets."""
    JA = np.einsum("...ma,...a->...m", ctx.J_values, A)
    JB = np.einsum("...ma,...a->...m", ctx.J_values, B)
    return tw._nijenhuis_from_domega(tw._covariant_domega(ctx), A, JA, B, JB, C)


def modified_chart(metric, perturb=0.0, profile_name="cylinder", c=0.0):
    prof = fm.get_profile(profile_name)
    emap = fm.solve_phi(prof, c=c, branch="quadrature")
    if perturb:
        emap = emap.perturbed(perturb)
    return tw.TwistorChart(metric, emap)


class TestKOperator:
    # K_a = -a g is the structure with g(K_a X, Y) = 2 g(a, X ^ Y); J acts on
    # the base by K_{F(p)}, stored as ChartEval.K
    def test_s1_is_I(self, flat):
        gjets = flat.jets_at(np.zeros(4), 1)
        g = geo.tensor_values(gjets, 2)
        s1 = geo.tensor_values(kahler._self_dual(kahler.adapted_frame(gjets))[0], 2)
        K = -np.einsum("...mi,...ij->...mj", s1, g)
        assert np.allclose(K, kahler.I_MATRIX, atol=1e-14)
        Km = -np.einsum("...mi,...ij->...mj", -1.0 * s1, g)
        assert np.allclose(Km, -kahler.I_MATRIX, atol=1e-14)

    def test_square_and_isometry(self, charts, rng):
        chart = charts["eguchi_hanson"]
        ctx = tw.ChartEval(chart, chart.sample(5, rng))
        K, g = geo.tensor_values(ctx.K, 2), ctx.gvals
        assert np.max(np.abs(K @ K + np.eye(4))) < 1e-12
        assert np.max(np.abs(np.swapaxes(K, -1, -2) @ g @ K - g)) < 1e-12
        # K_{F(p)} = -P g for the image point P = F(p) of the fiber map
        P = ctx.triple_to_two_vector(np.stack(
            [ctx.phi.value, ctx.r_img.value * np.cos(ctx.w), ctx.r_img.value * np.sin(ctx.w)], -1))
        assert np.max(np.abs(K + P @ g)) < 1e-12


class TestHorizontalLift:
    def test_flat_lift_trivial(self, charts, rng):
        pt = charts["flat"].sample(1, rng)[0]
        X = np.array([1.0, -2.0, 0.5, 0.0])
        lift = tw.ChartEval(charts["flat"], pt).horizontal_lift_values(X)[0]
        assert np.allclose(lift[:4], X) and np.allclose(lift[4:], 0.0)

    def test_coframe_annihilation_and_projection(self, charts, rng):
        chart = charts["burns"]
        pts = chart.sample(5, rng)
        ctx = tw.ChartEval(chart, pts)
        for _ in range(20):
            X = rng.normal(size=4)
            lift = ctx.horizontal_lift_values(X)
            pv, pw = ctx.vertical_coframe_pairing(lift)
            assert np.max(np.abs(pv)) < 1e-10
            assert np.max(np.abs(pw)) < 1e-10
            assert np.allclose(lift[..., :4], X)  # d pi (X^h) = X

    def test_epsilon_calibration(self):
        # the fixed sign EPS agrees with RK4 parallel transport on every
        # fixture whose connection form is not negligible, at three seeds
        for seed in (2024, 7, 11):
            for name in ("burns", "fubini_study", "conformal_hermitian"):
                eps, diag = tw.calibrate_epsilon(kahler.get_fixture(name), seed=seed)
                assert eps == +1 and eps == tw.EPS, (name, seed)
                assert not diag["beta_negligible"]
                # the matched sign reproduces transport; the flipped one misses badly
                assert diag["match_residual"] < 1e-3 * abs(diag["beta_integral"]) + 1e-8
                assert diag["mismatch_ratio"] > 1.0
            for name in ("flat", "eguchi_hanson"):
                eps, diag = tw.calibrate_epsilon(kahler.get_fixture(name), seed=seed)
                assert eps == +1 and diag["beta_negligible"], (name, seed)

    @pytest.mark.parametrize("name", sorted(kahler.FIXTURES))
    def test_transport_probes_read_the_same_values_at_order_one(self, name):
        # the transport reads the self-dual basis and beta of the connection
        # and the Christoffel values of a base at order 1: the values of the
        # base at order 2, bit for bit, as is its values-level basis
        metric = kahler.get_fixture(name)
        for x in metric.chart.sample(4, 9):
            low, high = kahler.BaseEval(metric, x, order=1), kahler.BaseEval(metric, x)
            pairs = [(low.connection[0].value, high.connection[0].value),
                     (low.connection[1].value, high.connection[1].value),
                     (low.gamma_jets.value, high.gamma_jets.value), (low.gvals, high.gvals)]
            pairs.append((low.basis, high.basis))
            for a, b in pairs:
                assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


class TestJField:
    def test_square_minus_identity(self, charts, rng):
        for name in ("flat", "eguchi_hanson", "fubini_study"):
            pts = charts[name].sample(50, rng)
            Jv = tw.ChartEval(charts[name], pts).J_values
            JJ = np.einsum("...mk,...ka->...ma", Jv, Jv)
            assert np.max(np.abs(JJ + np.eye(6))) < 1e-12, name

    def test_metric_compatibility(self, charts, rng):
        pts = charts["burns"].sample(50, rng)
        ctx = tw.ChartEval(charts["burns"], pts)
        Jv, hv = ctx.J_values, ctx.h_values
        resid = np.einsum("...am,...ab,...bn->...mn", Jv, hv, Jv) - hv
        assert np.max(np.abs(resid)) < 1e-9

    def test_preserves_splitting(self, charts, rng):
        chart = charts["fubini_study"]
        pts = chart.sample(5, rng)
        ctx = tw.ChartEval(chart, pts)
        Jv = ctx.J_values
        X = rng.normal(size=4)
        JXh = np.einsum("...ma,...a->...m", Jv, ctx.horizontal_lift_values(X))
        pv, pw = ctx.vertical_coframe_pairing(JXh)
        assert np.max(np.abs(pv)) < 1e-12 and np.max(np.abs(pw)) < 1e-12
        vert = np.zeros(6)
        vert[4] = 0.7
        vert[5] = -0.4
        Jvert = np.einsum("...ma,a->...m", Jv, vert)
        assert np.max(np.abs(Jvert[..., :4])) < 1e-14

    def test_vertical_action_example(self, charts):
        # J d_v = -(1 - v^2)^{-1} d_w on the sphere fiber (outward normal,
        # cyclic cross product); exercised away from the equator too
        chart = charts["eguchi_hanson"]
        for v in (0.0, 0.3, -0.55):
            pt = np.array([0.5, 0.5, 0.5, 0.5, v, 0.0])
            J = tw.ChartEval(chart, pt).J_values[0]
            expect = np.zeros(6)
            expect[5] = -1.0 / (1.0 - v * v)
            assert np.allclose(J[:, 4], expect, atol=1e-12)

    def test_pole_proximity_rejected(self, charts):
        pt = np.array([0.5, 0.5, 0.5, 0.5, 1.0, 0.0])
        with pytest.raises(DomainError):
            tw.ChartEval(charts["eguchi_hanson"], pt)


class TestNijenhuis:
    def test_flat_vanishes(self, charts, rng):
        pts = charts["flat"].sample(20, rng)
        assert np.max(tw.nijenhuis_max(tw.ChartEval(charts["flat"], pts))) < 1e-9

    def test_scalar_flat_twistor_vanishes(self, charts, rng):
        for name in ("eguchi_hanson", "burns"):
            pts = charts[name].sample(20, rng)
            assert np.max(tw.nijenhuis_max(tw.ChartEval(charts[name], pts))) < 1e-6, name

    def test_fubini_study_obstructed(self, charts, rng):
        pts = charts["fubini_study"].sample(20, rng)
        assert np.max(tw.nijenhuis_max(tw.ChartEval(charts["fubini_study"], pts))) > 1e-2

    def test_modified_chart_dichotomy(self, eguchi_hanson, rng):
        good = modified_chart(eguchi_hanson)
        pts = good.sample(10, rng)
        assert np.max(tw.nijenhuis_max(tw.ChartEval(good, pts))) < 1e-6
        bad = modified_chart(eguchi_hanson, perturb=0.1)
        pts_b = bad.sample(10, rng)
        assert np.max(tw.nijenhuis_max(tw.ChartEval(bad, pts_b))) > 1e-3

    def test_wrong_epsilon_breaks_integrability(self, charts, rng):
        chart = charts["burns"]
        ctx = tw.ChartEval(chart, chart.sample(10, rng))
        assert ctx.flipped().eps == -tw.EPS
        assert np.max(tw.nijenhuis_max(ctx.flipped())) > 1e-3

    def test_antisymmetry(self, charts, rng):
        pts = charts["fubini_study"].sample(3, rng)
        N = tw.ChartEval(charts["fubini_study"], pts).nijenhuis
        assert np.max(np.abs(N + np.swapaxes(N, -1, -2))) < 1e-12


class TestNijenhuisRoutes:
    def test_flat_both_zero(self, charts, rng):
        pt = charts["flat"].sample(1, rng)[0]
        A, B, C = rng.normal(size=(3, 6))
        ctx = tw.ChartEval(charts["flat"], pt)
        assert abs(nijenhuis_domega(ctx, A, B, C)[0]) < 1e-10

    def test_cross_validation(self, charts, rng):
        for name in ("eguchi_hanson", "fubini_study"):
            pts = charts[name].sample(3, rng)
            agree = tw.nijenhuis_route_agreement(tw.ChartEval(charts[name], pts),
                                                 n_triples=20, seed=11)
            assert agree.shape == (3,)
            assert np.max(agree) < 1e-6, name

    def test_per_point_agreement_matches_a_fresh_evaluation(self, charts):
        # the structure suite reads the first 5 points of its 20-point
        # ChartEval; a 5-point ChartEval of those points is the oracle
        for name in ("eguchi_hanson", "burns", "fubini_study"):
            pts = charts[name].sample(20, 2024)
            full = tw.nijenhuis_route_agreement(tw.ChartEval(charts[name], pts), seed=3)
            five = tw.nijenhuis_route_agreement(tw.ChartEval(charts[name], pts[:5]), seed=3)
            assert np.array_equal(full[:5], five), name

    def test_fubini_study_routes_nonzero(self, charts, rng):
        pt = charts["fubini_study"].sample(1, rng)[0]
        ctx = tw.ChartEval(charts["fubini_study"], pt)
        N = ctx.nijenhuis[0]
        hv = ctx.h_values[0]
        found = False
        for _ in range(10):
            A, B, C = rng.normal(size=(3, 6))
            r1 = float(np.einsum("mab,a,b,mc,c->", N, A, B, hv, C))
            r2 = nijenhuis_domega(ctx, A, B, C)[0]
            assert abs(r1 - r2) < 1e-6
            found = found or abs(r1) > 1e-2
        assert found


class TestStructureIdentities:
    def test_flat_trivial(self, charts, rng):
        pts = charts["flat"].sample(3, rng)
        res = tw.verify_structure_identities(tw.ChartEval(charts["flat"], pts),
                                             n_random=4, seed=1)
        assert res.max_residual < 1e-12

    def test_all_fixtures(self, charts, rng):
        for name, chart in charts.items():
            pts = chart.sample(5, rng)
            res = tw.verify_structure_identities(tw.ChartEval(chart, pts), n_random=5, seed=2)
            assert res.max_residual < 1e-6, (name, res)

    def test_cross_pairing_algebraic(self, charts, rng):
        # identity (cross/K pairing) holds independently of curvature
        pts = charts["fubini_study"].sample(10, rng)
        res = tw.verify_structure_identities(tw.ChartEval(charts["fubini_study"], pts),
                                             n_random=8, seed=3)
        assert res.cross_k_pairing < 1e-9

    def test_requires_sphere_chart(self, eguchi_hanson, rng):
        chart = modified_chart(eguchi_hanson)
        ctx = tw.ChartEval(chart, chart.sample(1, rng))
        with pytest.raises(UsageError):
            tw.verify_structure_identities(ctx)

    def test_horizontal_nijenhuis_curvature_form(self, charts, rng):
        # both sides nonzero on the positive-scalar base, yet equal
        for name in ("flat", "eguchi_hanson", "burns", "fubini_study"):
            pts = charts[name].sample(5, rng)
            resid = tw.horizontal_nijenhuis_residual(tw.ChartEval(charts[name], pts),
                                                     n_random=5, seed=9)
            assert resid < 1e-6, name

    def test_mixed_identity_holds_even_when_nonholomorphic(self, eguchi_hanson, rng):
        # the identity relates both sides whether or not f is holomorphic;
        # with the perturbed map both sides are nonzero and still agree
        chart = modified_chart(eguchi_hanson, perturb=0.1)
        pts = chart.sample(5, rng)
        ctx = tw.ChartEval(chart, pts)
        N = ctx.nijenhuis
        hv = ctx.h_values
        nonzero = False
        for _ in range(10):
            X, Z = rng.normal(size=(2, 4))
            U = rng.normal(size=2)
            resid = tw.mixed_nijenhuis_residual(ctx, X, U, Z)
            assert resid < 1e-6
            Xh = ctx.horizontal_lift_values(X)
            Zh = ctx.horizontal_lift_values(Z)
            Uv = np.zeros(Xh.shape)
            Uv[..., 4] = U[0]
            Uv[..., 5] = U[1]
            lhs = np.einsum("...mab,...a,...b,...mc,...c->...", N, Xh, Uv, hv, Zh)
            nonzero = nonzero or np.max(np.abs(lhs)) > 1e-3
        assert nonzero


class TestForms:
    def test_exterior_derivative_examples(self, charts, rng):
        chart = charts["flat"]
        ctx = tw.ChartEval(chart, chart.sample(3, rng))
        d1 = tw.d_dict(form({(1,): jets.Jet.variable(ctx.space, 0, ctx.points[:, 0])}))
        assert np.allclose(d1[(0, 1)].value, 1.0)
        assert all(np.allclose(d1[k].value, 0.0) for k in d1.keys if k != (0, 1))
        assert max_abs(tw.d_dict(form({(4, 5): ctx.one}))) == 0.0
        # d differentiates jets, so an order-0 form (values only) is rejected
        with pytest.raises(UsageError):
            tw.d_dict(form({(1,): ctx.one.truncate(0)}))

    def test_d_squared_zero(self, charts, rng):
        pts = charts["eguchi_hanson"].sample(3, rng)
        space = jets.get_space(tw.TOTAL_DIM, 2)  # d of a d
        x = [jets.Jet.variable(space, i, pts[:, i]) for i in range(6)]
        ddf = tw.d_dict(form({(0,): x[1] * x[4] * x[2], (3,): x[0] * x[0] * x[5],
                              (4,): x[2] * x[3]}))
        assert max_abs(ddf) > 0.1
        assert max_abs(tw.d_dict(ddf)) < 1e-10

    def test_d_polynomial_two_form_oracle(self, charts, rng):
        # d(x0 x4 dx1^dx2) = x4 dx0^dx1^dx2 + x0 dx4^dx1^dx2
        chart = charts["flat"]
        pts = chart.sample(4, rng)

        def two_form(ctx):
            x = [jets.Jet.variable(ctx.space, i, ctx.points[:, i]) for i in range(6)]
            return form({(1, 2): x[0] * x[4]})

        dv = tw.d_dict(two_form(tw.ChartEval(chart, pts)))
        assert np.allclose(dv[(0, 1, 2)].value, pts[:, 4])
        assert np.allclose(dv[(1, 2, 4)].value, pts[:, 0])

    def test_omega_h_vertical_coefficient(self, charts, rng):
        chart = charts["eguchi_hanson"]
        pts = chart.sample(5, rng)
        h = lambda z: -1.0 * jets.log(1.0 - z * z)
        comps = tw.omega_ab_field(tw.ChartEval(chart, pts), h, 1.0, 1.0)
        expect = -1.0 / (1.0 - pts[:, 4] ** 2)
        assert np.allclose(comps[(4, 5)].value, expect, atol=1e-12)

    def test_positivity(self, charts, rng):
        for name in charts:
            pts = charts[name].sample(5, rng)
            worst = tw.hermitian_positivity(tw.ChartEval(charts[name], pts))
            assert worst > 0.0, name

    def test_positivity_is_the_minimum_over_unit_vectors(self, charts, rng):
        # Omega(v, Jv) from the components, sum over i < j of
        # Omega_ij (v^i (Jv)^j - (Jv)^i v^j), at one point at a time
        h = lambda z: -1.0 * jets.log(1.0 - z * z)
        for name in ("flat", "fubini_study"):
            ctx = tw.ChartEval(charts[name], charts[name].sample(3, rng))
            omega = tw.omega_ab_field(ctx, h)
            Jv = ctx.J_values
            worst = np.inf
            for p in range(3):
                def omega_v_jv(v):
                    jv = Jv[p] @ v
                    return sum(omega[(i, j)].value[p] * (v[i] * jv[j] - jv[i] * v[j])
                               for i, j in omega.keys)

                M = np.zeros((6, 6))
                for i, j in omega.keys:
                    M[i, j], M[j, i] = omega[(i, j)].value[p], -omega[(i, j)].value[p]
                M = M @ Jv[p]
                lam, vecs = np.linalg.eigh(0.5 * (M + M.T))
                assert omega_v_jv(vecs[:, 0]) == pytest.approx(lam[0], abs=1e-12)
                for v in rng.normal(size=(200, 6)):
                    assert omega_v_jv(v / np.linalg.norm(v)) >= lam[0] - 1e-12
                worst = min(worst, lam[0])
            assert tw.hermitian_positivity(ctx, h) == pytest.approx(worst, abs=1e-14)

    def test_positivity_rejects_bad_parameters(self, charts, rng):
        ctx = tw.ChartEval(charts["flat"], charts["flat"].sample(1, rng))
        with pytest.raises(InputError):
            tw.omega_ab_field(ctx, None, a=-1.0, b=1.0)
        with pytest.raises(InputError):
            tw.omega_ab_field(ctx, None, a=1.0, b=0.0)


class TestBalanced:
    H_FUNCS = (
        ("zero", None),
        ("log_pole", lambda z: -1.0 * jets.log(1.0 - z * z)),
        ("log_pole_2", lambda z: -2.0 * jets.log(1.0 - z * z)),
    )

    @pytest.mark.parametrize("label,h", H_FUNCS, ids=[h[0] for h in H_FUNCS])
    def test_scalar_flat_balanced(self, charts, label, h):
        for name in ("eguchi_hanson", "burns"):
            rep = tw.balanced_check(ctx_at(charts[name], 10, 6), h)
            assert rep.max_residual < 1e-7, (name, label)

    def test_flat_square_closed_but_form_not(self, charts, rng):
        pts = charts["flat"].sample(4, rng)
        rep = tw.balanced_check(ctx_at(charts["flat"], 6, 6), None)
        assert rep.max_residual < 1e-10
        # the tautological Hermitian 2-form itself is not closed, even flat
        d1 = tw.d_dict(tw.omega_ab_field(tw.ChartEval(charts["flat"], pts), None, 1.0, 1.0))
        assert max_abs(d1) > 0.1

    def test_x_weight_negative_control(self, charts):
        rep = tw.balanced_check(ctx_at(charts["eguchi_hanson"], 8, 6), None,
                                weight_mode="x_dependent")
        assert rep.max_residual > 1e-3

    def test_positive_scalar_not_balanced(self, charts):
        rep = tw.balanced_check(ctx_at(charts["fubini_study"], 6, 6), None)
        assert rep.max_residual > 1e-3


class TestCone:
    def test_flat_values_and_scaling(self, charts):
        ctx = ctx_at(charts["flat"], 8, 8)
        r = tw.cone_wedge_constants(ctx, 1.0, 1.0)
        assert r.c1 == pytest.approx(2.0, abs=1e-12)
        assert r.c2 == pytest.approx(4.0, abs=1e-12)
        r2 = tw.cone_wedge_constants(ctx, 2.0, 1.0)
        assert r2.c1 == pytest.approx(8.0, abs=1e-12)
        assert r2.c2 == pytest.approx(8.0, abs=1e-12)

    def test_constancy_on_curved_chart(self, charts):
        r = tw.cone_wedge_constants(ctx_at(charts["eguchi_hanson"], 20, 8), 1.0, 1.0)
        assert r.c1_rel_variation < 1e-6
        assert r.c2_rel_variation < 1e-6
        assert r.c1 == pytest.approx(2.0, abs=1e-9)
        assert r.c2 == pytest.approx(4.0, abs=1e-9)

    def test_rejects_nonpositive_parameters(self, charts):
        with pytest.raises(InputError):
            tw.cone_wedge_constants(ctx_at(charts["flat"], 1, 0), 0.0, 1.0)


class TestTotalSpaceMetric:
    def test_splitting_structure(self, charts, rng):
        chart = charts["burns"]
        pts = chart.sample(4, rng)
        ctx = tw.ChartEval(chart, pts)
        hv = ctx.h_values
        g = ctx.gvals
        for _ in range(10):
            X, Y = rng.normal(size=(2, 4))
            Xh = ctx.horizontal_lift_values(X)
            Yh = ctx.horizontal_lift_values(Y)
            # h on lifts is the base metric
            hXY = np.einsum("...a,...ab,...b->...", Xh, hv, Yh)
            gXY = np.einsum("i,...ij,j->...", X, g, Y)
            assert np.max(np.abs(hXY - gXY)) < 1e-12
            # horizontal and vertical are h-orthogonal
            vert = np.zeros(6)
            vert[4:] = rng.normal(size=2)
            hXv = np.einsum("...a,...ab,b->...", Xh, hv, vert)
            assert np.max(np.abs(hXv)) < 1e-12
        # vertical block is the embedding metric of the fiber
        rho = ctx.rho.value
        rp = ctx.rho_p.value
        assert np.allclose(hv[..., 4, 4], rp * rp + 1.0)
        assert np.allclose(hv[..., 5, 5], rho * rho)


class TestOneMetricEvaluation:
    def test_chart_eval_evaluates_base_once(self, charts, jets_at_calls):
        # frame, beta and the base curvature reuse the ChartEval's own jets
        chart = charts["burns"]
        ctx = tw.ChartEval(chart, chart.sample(3, 5))
        ctx.data4
        assert jets_at_calls == [2]

    def test_base_christoffel_computed_once_per_chart_eval(self, charts, monkeypatch):
        # beta and the base curvature read by the structure identities share
        # one set of base Christoffel jets; h has its own
        dims = []
        orig = geo.christoffel_jets

        def counted(gjets):
            dims.append(gjets.coeffs.shape[1])
            return orig(gjets)

        for mod in (geo, kahler, tw):
            monkeypatch.setattr(mod, "christoffel_jets", counted, raising=False)
        ctx = ctx_at(charts["eguchi_hanson"], 20, 2024)
        tw.verify_structure_identities(ctx, n_random=2, seed=1)
        tw.horizontal_nijenhuis_residual(ctx, n_random=2, seed=1)
        assert sorted(dims) == [4, 6]

    def test_nijenhuis_computed_once_per_chart_eval(self, charts, monkeypatch):
        # the identities and the horizontal Nijenhuis check share one ChartEval
        # and so one Nijenhuis tensor
        calls = []
        orig = tw._nijenhuis_values
        monkeypatch.setattr(tw, "_nijenhuis_values", lambda ctx: calls.append(1) or orig(ctx))
        ctx = ctx_at(charts["eguchi_hanson"], 3, 5)
        tw.verify_structure_identities(ctx, n_random=2, seed=1)
        tw.horizontal_nijenhuis_residual(ctx, n_random=2, seed=1)
        assert np.max(tw.nijenhuis_max(ctx)) < 1e-6
        assert calls == [1]

    def test_tau_computed_once_per_chart_eval(self, charts, monkeypatch):
        # the Omega family, its balanced and cone checks and positivity
        # share one ChartEval and so one tau
        calls = []
        orig = tw._tau_form
        monkeypatch.setattr(tw, "_tau_form", lambda ctx: calls.append(1) or orig(ctx))
        ctx = ctx_at(charts["eguchi_hanson"], 3, 5)
        assert tw.balanced_check(ctx, None).max_residual < 1e-7
        tw.balanced_check(ctx, fm.power_pole_h(1.0))
        tw.cone_wedge_constants(ctx, 1.0, 2.0)
        assert tw.hermitian_positivity(ctx) > 0
        assert calls == [1]


def _axis_order(a):
    """The axes of ``a`` longer than 1, from the largest stride to the
    smallest: the order ``np.einsum`` sums them in follows it."""
    axes = [k for k in range(a.ndim) if a.shape[k] > 1]
    return sorted(axes, key=lambda k: -abs(a.strides[k]))


def _same_fields(a, b, where):
    """``a`` and ``b`` hold equal fields: jets and arrays bit for bit, signs
    of zero included, arrays with their axes in the same memory order, and
    the rest equal or the same object."""
    if isinstance(a, jets.Jet):
        assert a.space is b.space, where
        _same_fields(a.coeffs, b.coeffs, where)
    elif isinstance(a, np.ndarray):
        assert a.shape == b.shape and np.array_equal(a, b), where
        assert np.array_equal(np.signbit(a), np.signbit(b)), where
        assert _axis_order(a) == _axis_order(b), where
    elif isinstance(a, (list, tuple)):
        assert type(a) is type(b) and len(a) == len(b), where
        for n, (x, y) in enumerate(zip(a, b)):
            _same_fields(x, y, f"{where}[{n}]")
    elif isinstance(a, (kahler.BaseEval, geo.CurvatureData, tw.Form)):
        assert type(a) is type(b) and vars(a).keys() == vars(b).keys(), where
        for key in vars(a):
            _same_fields(getattr(a, key), getattr(b, key), f"{where}.{key}")
    else:
        assert a is b or a == b, where


class TestSharedBase:
    # every chart sampled at one seed reads one base: a chart on the head of
    # a wider base is, field for field, the chart that builds its own
    CACHED = [name for name, attr in vars(tw.ChartEval).items()
              if isinstance(attr, cached_property)]

    @pytest.mark.parametrize("name", sorted(kahler.FIXTURES))
    def test_chart_on_a_shared_base_equals_a_fresh_one(self, name):
        metric = kahler.get_fixture(name)
        wide = kahler.BaseEval(metric, metric.chart.sample(50, 2024))
        charts = [tw.TwistorChart(metric)]
        if name != "conformal_hermitian":
            charts.append(modified_chart(metric))
        for chart in charts:
            for n in (1, 7, 20, 30, 50):
                pts = chart.sample(n, 2024)
                assert np.array_equal(pts[:, :4], wide.x[:n])
                shared, fresh = tw.ChartEval(chart, pts, base=wide), tw.ChartEval(chart, pts)
                names = list(vars(fresh)) + self.CACHED
                assert list(vars(shared)) == list(vars(fresh))
                for field in names:
                    _same_fields(getattr(shared, field), getattr(fresh, field),
                                 f"{chart.fmap.profile.name} {n} {field}")

    def test_narrower_charts_read_the_wide_connection(self, charts, monkeypatch):
        calls = []
        beta_form = kahler.beta_form
        monkeypatch.setattr(kahler, "beta_form", lambda *a: calls.append(1) or beta_form(*a))
        chart = charts["burns"]
        wide = kahler.BaseEval(chart.base, chart.base.chart.sample(20, 3))
        wide.head(5).curvature()
        assert calls == []  # the curvature alone needs no connection
        for n in (5, 20, 1):
            tw.ChartEval(chart, chart.sample(n, 3), base=wide)
        assert calls == [1]
        report.run_suite(report.SuiteConfig(metric="burns", suite="curvature", sample_count=5))
        assert calls == [1]  # the curvature suite alone builds none

    def test_base_must_match_the_chart(self, charts):
        chart = charts["burns"]
        wide = kahler.BaseEval(chart.base, chart.base.chart.sample(5, 3))
        own = chart.sample(5, 3)
        for other, pts, base in ((chart, chart.sample(5, 4), wide),
                                 (chart, chart.sample(6, 3), wide),
                                 (chart, own, kahler.BaseEval(chart.base, own[:, :4], 1)),
                                 (chart, own, kahler.BaseEval(chart.base, own[:, :4], 3)),
                                 (charts["eguchi_hanson"], charts["eguchi_hanson"].sample(5, 3), wide)):
            with pytest.raises(UsageError, match="first points are its base points"):
                tw.ChartEval(other, pts, base=base)


def _bits(x):
    """Coefficients of a jet, or the array itself, with the signs of zero."""
    arr = np.asarray(getattr(x, "coeffs", x))
    return arr, np.signbit(arr)


class TestFlipped:
    # the eps = -1 control reuses the evaluation's eps-free fields
    def test_flipping_twice_reproduces_the_fields(self, charts):
        ctx = ctx_at(charts["burns"], 4, 5)
        flip = ctx.flipped()
        for name in ("base", "gvals", "g", "S", "beta", "beta_vals", "rho", "phi", "r_img"):
            assert getattr(flip, name) is getattr(ctx, name), name
        twice = flip.flipped()
        assert (flip.eps, twice.eps) == (-tw.EPS, tw.EPS)
        for name in ("J", "h", "nijenhuis"):
            for a, b in zip(_bits(getattr(ctx, name)), _bits(getattr(twice, name))):
                assert np.array_equal(a, b), name

    def test_flipping_after_a_read_matches_a_fresh_flip(self, charts, chart_evals):
        chart = charts["burns"]
        pts = chart.sample(4, 5)
        used = tw.ChartEval(chart, pts)
        before = used.nijenhuis
        from_used = used.flipped().nijenhuis
        from_fresh = tw.ChartEval(chart, pts).flipped().nijenhuis
        assert chart_evals == [4, 4]
        assert np.array_equal(from_used, from_fresh)
        assert np.max(np.abs(from_used)) > 1e-3
        assert used.nijenhuis is before and used.eps == tw.EPS
