import itertools

import numpy as np
import pytest

import scalar_reference as ref
from twistorcheck import geometry as geo, jets, kahler
from twistorcheck.errors import ConfigurationError, FrameError, GeometryError

# permutation symbol on 4 indices
EPS4 = np.zeros((4, 4, 4, 4))
for _p in itertools.permutations(range(4)):
    EPS4[_p] = np.linalg.det(np.eye(4)[list(_p)])


def values_at(metric, x):
    """Metric values g_{ij} at x (batch axes leading), from order-0 jets."""
    return geo.tensor_values(metric.jets_at(x, 0), 2)


def christoffel(metric, x):
    """Gamma^k_{ij} values at x (batch axes leading), from order-1 metric jets."""
    return geo.tensor_values(geo.christoffel_jets(metric.jets_at(x, 1)), 3)


def two_vector_inner(metric, x, b1, b2):
    """Half-determinant metric on 2-vectors at x, extended bilinearly."""
    return geo._inner_kernel(values_at(metric, x), b1, b2)


def hodge_star(gvals, B):
    """Hodge star of 2-vector components B^{ij} in the metric values ``gvals``
    for the chart's complex orientation; an involutive isometry in
    dimension 4.  The oracle for self-duality of the s-basis."""
    low = np.einsum("...ik,...kl,...lj->...ij", gvals, B, gvals)
    det = np.linalg.det(gvals)
    return np.einsum("ijkl,...kl->...ij", EPS4, low) / (2.0 * np.sqrt(det)[..., None, None])


def conformal_metric():
    chart = geo.ChartDomain([[-1, 1]] * 4)

    def fn(xj):
        c = jets.exp(2.0 * xj[0])
        zero = c * 0.0
        return [[c if i == j else zero for j in range(4)] for i in range(4)]

    return geo.MetricField(chart, fn, name="conformal")


class TestChartDomain:
    def test_bad_box_rejected(self):
        with pytest.raises(ConfigurationError):
            geo.ChartDomain([[0, 0]] * 4)

    def test_sampling_respects_margin(self, rng):
        dom = geo.ChartDomain([[0, 1]] * 4)
        pts = dom.sample(40, rng)
        m = geo.SAMPLE_MARGIN
        assert np.all(pts >= m) and np.all(pts <= 1.0 - m)

    def test_sampling_deterministic(self):
        dom = geo.ChartDomain([[0, 1]] * 4)
        assert np.array_equal(dom.sample(5, 42), dom.sample(5, 42))

    @pytest.mark.parametrize("n", (1, 5, 400))
    @pytest.mark.parametrize("seed", (2024, 7, 11))
    def test_batch_sampling_draws_as_the_point_loop(self, n, seed):
        # the same points, and the generator left where the loop leaves it
        # (TwistorChart.sample draws the fiber points from it next)
        dom = geo.ChartDomain([[0, 1]] * 4)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert np.array_equal(dom.sample(n, rng), ref.chart_sample(dom, n, ref_rng))
        assert rng.uniform() == ref_rng.uniform()

    @pytest.mark.parametrize("seed", (2024, 7, 11))
    def test_a_sample_is_the_head_of_every_wider_sample(self, seed):
        # one draw of n rows: the n points of a seed are the first n of any
        # wider sample at that seed
        dom = geo.ChartDomain([[0, 1]] * 4)
        wide = dom.sample(50, seed)
        for n in (1, 7, 20, 30, 49):
            assert np.array_equal(dom.sample(n, seed), wide[:n]), n


class TestChristoffel:
    def test_flat_is_zero(self, flat):
        G = christoffel(flat, np.array([0.2, -0.1, 0.4, 0.0]))
        assert np.max(np.abs(G)) < 1e-14

    def test_conformal_oracle(self):
        # g = e^{2 x0} delta: Gamma^k_ij = d_i(x0) dkj + d_j(x0) dki - d^k(x0) dij
        m = conformal_metric()
        G = christoffel(m, np.array([0.2, 0.1, 0.0, 0.3]))
        assert G[0, 0, 0] == pytest.approx(1.0, abs=1e-12)
        assert G[0, 1, 1] == pytest.approx(-1.0, abs=1e-12)
        assert G[1, 0, 1] == pytest.approx(1.0, abs=1e-12)
        assert G[2, 2, 0] == pytest.approx(1.0, abs=1e-12)

    def test_fubini_study_origin(self, fubini_study):
        G = christoffel(fubini_study, np.zeros(4))
        assert np.max(np.abs(G)) < 1e-14

    def test_metric_compatibility(self, burns, rng):
        x = burns.chart.sample(3, rng)
        gjets = burns.jets_at(x, 1)
        gvals = geo.tensor_values(gjets, 2)
        gamma = geo.tensor_values(geo.christoffel_jets(gjets), 3)
        dg = np.empty(gvals.shape[:-2] + (4, 4, 4))
        for k in range(4):
            for i in range(4):
                for j in range(4):
                    dg[..., k, i, j] = gjets[i, j].deriv(k).value
        nabla_g = (dg - np.einsum("...lki,...lj->...kij", gamma, gvals)
                   - np.einsum("...lkj,...il->...kij", gamma, gvals))
        assert np.max(np.abs(nabla_g)) < 1e-12

    def test_non_spd_metric_raises(self):
        chart = geo.ChartDomain([[-1, 1]] * 4)

        def fn(xj):
            zero = xj[0] * 0.0
            one = zero + 1.0
            return [[-(one) if i == j == 0 else (one if i == j else zero)
                     for j in range(4)] for i in range(4)]

        bad = geo.MetricField(chart, fn, name="bad")
        with pytest.raises(GeometryError):
            kahler.BaseEval(bad, np.zeros(4)).curvature()

    def test_non_finite_metric_raises_naming_the_point(self):
        gvals = np.broadcast_to(np.eye(4), (3, 4, 4)).copy()
        gvals[1, 2, 3] = np.inf
        pts = np.arange(12.0).reshape(3, 4)
        with pytest.raises(GeometryError, match=r"not finite at x=\[4\. 5\. 6\. 7\.\]"):
            geo.check_spd(gvals, pts)
        with pytest.raises(GeometryError, match="not finite"):
            geo.check_spd(np.full((4, 4), np.nan), np.zeros(4))

    def test_non_finite_jet_coefficient_raises_naming_the_point(self):
        # finite values, but a first-order coefficient overflowed at point 1
        space = jets.get_space(4, 1)
        coeffs = np.zeros((space.ncoef, 4, 4, 3))
        coeffs[0] = np.eye(4)[..., None]
        coeffs[2, 0, 1, 1] = np.inf
        pts = np.arange(12.0).reshape(3, 4)
        with pytest.raises(GeometryError, match=r"jets are not finite at x=\[4\. 5\. 6\. 7\.\]"):
            geo.check_finite(jets.Jet(space, coeffs), pts)
        coeffs[2, 0, 1, 1] = 0.0
        assert geo.check_finite(jets.Jet(space, coeffs), pts).coeffs is coeffs


class TestRiemann:
    def test_flat_zero(self, flat):
        data = kahler.BaseEval(flat, np.array([0.1, 0.2, 0.3, 0.4])).curvature()
        assert np.max(np.abs(data.rlow)) == 0.0
        assert np.max(np.abs(data.ric)) == 0.0
        assert data.scal == 0.0

    def test_fubini_study_scal_24(self, fubini_study, rng):
        pts = fubini_study.chart.sample(50, rng)
        scal = kahler.BaseEval(fubini_study, pts).curvature().scal
        assert np.max(np.abs(scal - 24.0)) < 1e-8

    def test_eguchi_hanson_ricci_flat(self, eguchi_hanson, rng):
        pts = eguchi_hanson.chart.sample(20, rng)
        data = kahler.BaseEval(eguchi_hanson, pts).curvature()
        ric, scal = data.ric, data.scal
        assert np.max(np.abs(scal)) < 1e-8
        assert np.max(np.abs(ric)) < 1e-8

    def test_symmetries_and_bianchi(self, burns, rng):
        pts = burns.chart.sample(10, rng)
        rl = kahler.BaseEval(burns, pts).curvature().rlow
        assert np.max(np.abs(rl + np.einsum("...jikl->...ijkl", rl))) < 1e-10
        assert np.max(np.abs(rl + np.einsum("...ijlk->...ijkl", rl))) < 1e-10
        assert np.max(np.abs(rl - np.einsum("...klij->...ijkl", rl))) < 1e-10
        bianchi = rl + np.einsum("...jkil->...ijkl", rl) + np.einsum("...kijl->...ijkl", rl)
        assert np.max(np.abs(bianchi)) < 1e-10


def antisymmetric(B) -> bool:
    """max|B + B^T| <= 1e-12 max(1, max|B|) over all of B's batch axes."""
    return np.max(np.abs(B + np.swapaxes(B, -1, -2))) <= 1e-12 * max(1.0, np.max(np.abs(B)))


class TestTwoVectors:
    def test_half_det_examples(self, flat):
        e = np.eye(4)
        x0 = np.zeros(4)
        w12 = geo.wedge(e[0], e[1])
        w34 = geo.wedge(e[2], e[3])
        assert two_vector_inner(flat, x0, w12, w12) == pytest.approx(0.5)
        assert two_vector_inner(flat, x0, w12, w34) == pytest.approx(0.0)
        s1 = w12 + w34
        assert two_vector_inner(flat, x0, s1, s1) == pytest.approx(1.0)

    def test_bilinear_symmetric(self, burns, rng):
        x = burns.chart.sample(1, rng)[0]
        g = values_at(burns, x)
        a, b, c = [m - m.T for m in rng.normal(size=(3, 4, 4))]
        lhs = geo._inner_kernel(g, a + b, c)
        rhs = geo._inner_kernel(g, a, c) + geo._inner_kernel(g, b, c)
        assert lhs == pytest.approx(rhs, rel=1e-12)
        assert geo._inner_kernel(g, a, b) == pytest.approx(geo._inner_kernel(g, b, a), rel=1e-12)

    @pytest.mark.parametrize("n", (1, 20))
    @pytest.mark.parametrize("name", sorted(kahler.FIXTURES))
    def test_basis_and_rho_apply_antisymmetric(self, name, n):
        # a 2-vector is a plain array, checked nowhere at run time: the basis
        # and rho's images are antisymmetric by their formulas
        metric = kahler.get_fixture(name)
        base = kahler.BaseEval(metric, metric.chart.sample(n, 2024))
        basis, data = base.basis, base.curvature()
        assert basis.shape == (6, n, 4, 4)
        m = np.random.default_rng([n, 33]).normal(size=(n, 4, 4))
        for xi in (m - np.swapaxes(m, -1, -2), *basis):
            for v in basis:
                assert antisymmetric(v)
                assert antisymmetric(geo.rho_apply(data, xi, v))


class TestHodge:
    def test_orthonormal_frame_examples(self, flat):
        e = np.eye(4)
        x0 = np.zeros(4)
        w12 = geo.wedge(e[0], e[1])
        w34 = geo.wedge(e[2], e[3])
        g = values_at(flat, x0)
        star = hodge_star(g, w12)
        assert np.allclose(star, w34, atol=1e-14)
        s1 = w12 + w34
        assert np.allclose(hodge_star(g, s1), s1, atol=1e-14)
        t1 = w12 - w34
        assert np.allclose(hodge_star(g, t1), -t1, atol=1e-14)

    def test_involution_and_isometry_curved(self, eguchi_hanson, rng):
        x = eguchi_hanson.chart.sample(1, rng)[0]
        g = values_at(eguchi_hanson, x)
        m = rng.normal(size=(4, 4))
        b = m - m.T
        ss = hodge_star(g, hodge_star(g, b))
        assert np.max(np.abs(ss - b)) < 1e-12
        n1 = geo._inner_kernel(g, b, b)
        sb = hodge_star(g, b)
        n2 = geo._inner_kernel(g, sb, sb)
        assert n1 == pytest.approx(n2, rel=1e-12)


class TestSdBasis:
    def test_flat_components(self, flat):
        basis = geo.sd_basis(np.eye(4), values_at(flat, np.zeros(4)))
        s1 = basis[0]
        assert s1[0, 1] == 1.0 and s1[2, 3] == 1.0

    def test_orthonormality_and_duality(self, burns, rng):
        x = burns.chart.sample(1, rng)[0]
        g = values_at(burns, x)
        fr = geo.tensor_values(kahler.adapted_frame(burns.jets_at(x, 2)), 2)
        basis = geo.sd_basis(fr, g)
        gram = np.array([[geo._inner_kernel(g, a, b) for b in basis] for a in basis])
        assert np.max(np.abs(gram - np.eye(6))) < 1e-12
        for i in range(3):
            assert np.max(np.abs(hodge_star(g, basis[i]) - basis[i])) < 1e-10
            assert np.max(np.abs(hodge_star(g, basis[3 + i]) + basis[3 + i])) < 1e-10

    def test_non_orthonormal_frame_rejected(self, flat):
        with pytest.raises(FrameError):
            geo.sd_basis(2.0 * np.eye(4), values_at(flat, np.zeros(4)))


class TestCurvatureOperator:
    def test_flat_zero(self, flat):
        x = np.zeros(4)
        basis = geo.sd_basis(np.eye(4), values_at(flat, x))
        op = geo.curvature_operator(kahler.BaseEval(flat, x).curvature(), basis)
        assert np.max(np.abs(op.matrix)) == 0.0

    def test_fubini_study_blocks(self, fubini_study, rng):
        x = fubini_study.chart.sample(1, rng)[0]
        base = kahler.BaseEval(fubini_study, x)
        data, basis = base.curvature(), base.basis
        op = geo.curvature_operator(data, basis)
        assert np.trace(op.plus_block) == pytest.approx(data.scal / 4.0, abs=1e-10)
        assert np.trace(op.minus_block) == pytest.approx(data.scal / 4.0, abs=1e-10)
        # Kahler surface: W+ spectrum (s/6, -s/12, -s/12)
        eigs = np.sort(np.linalg.eigvalsh(op.wplus))
        assert np.allclose(eigs, [-2.0, -2.0, 4.0], atol=1e-9)
        assert np.max(np.abs(op.wplus)) > 0.1  # positive-scalar control
        # self-adjointness and the s1 pairing in the block normalization
        assert np.max(np.abs(op.matrix - op.matrix.T)) < 1e-10
        assert op.matrix[0, 0] == pytest.approx(6.0, abs=1e-9)

    def test_eguchi_hanson_plus_block_vanishes(self, eguchi_hanson, rng):
        x = eguchi_hanson.chart.sample(1, rng)[0]
        base = kahler.BaseEval(eguchi_hanson, x)
        data, basis = base.curvature(), base.basis
        op = geo.curvature_operator(data, basis)
        assert np.max(np.abs(op.plus_block)) < 1e-8
        assert np.max(np.abs(op.ric0)) < 1e-8  # Ricci-flat
        assert np.max(np.abs(op.minus_block)) > 0.01  # W- survives

    def test_burns_ric0_nonzero(self, burns, rng):
        x = burns.chart.sample(1, rng)[0]
        base = kahler.BaseEval(burns, x)
        data = base.curvature()
        op = geo.curvature_operator(data, base.basis)
        assert np.max(np.abs(op.plus_block)) < 1e-8
        assert np.max(np.abs(op.ric0)) > 1e-3
        assert np.max(np.abs(op.matrix - op.matrix.T)) < 1e-10


class TestRho:
    def test_flat_zero(self, flat, rng):
        m = rng.normal(size=(4, 4))
        xi = m - m.T
        v = geo.wedge(np.eye(4)[0], np.eye(4)[1])
        out = geo.rho_apply(kahler.BaseEval(flat, np.zeros(4)).curvature(), xi, v)
        assert np.max(np.abs(out)) == 0.0

    def test_duality_random(self, eguchi_hanson, rng):
        x = eguchi_hanson.chart.sample(1, rng)[0]
        base = kahler.BaseEval(eguchi_hanson, x)
        data, basis = base.curvature(), base.basis
        s = basis[:3]
        worst = 0.0
        for _ in range(20):
            cv, cw = rng.normal(size=(2, 3))
            v = np.einsum("q,qij->ij", cv, s)
            w = np.einsum("q,qij->ij", cw, s)
            vxw = np.einsum("q,qij->ij", np.cross(cv, cw), s)
            m = rng.normal(size=(4, 4))
            xi = m - m.T
            lhs = geo._inner_kernel(data.gvals, geo.curvature_two_vector_action(data, vxw), xi)
            rhs = geo._inner_kernel(data.gvals, geo.rho_apply(data, xi, v), w)
            worst = max(worst, abs(float(lhs - rhs)))
        assert worst < 1e-9

    def test_linearity_exact(self, burns, rng):
        x = burns.chart.sample(1, rng)[0]
        data = kahler.BaseEval(burns, x).curvature()
        m1, m2 = rng.normal(size=(2, 4, 4))
        xi1, xi2 = m1 - m1.T, m2 - m2.T
        v = geo.wedge(np.eye(4)[0], np.eye(4)[2])
        lhs = geo.rho_apply(data, xi1 + xi2, v)
        rhs = geo.rho_apply(data, xi1, v) + geo.rho_apply(data, xi2, v)
        assert np.max(np.abs(lhs - rhs)) < 1e-12
