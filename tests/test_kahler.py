import numpy as np
import pytest

from twistorcheck import geometry as geo, jets, kahler
from twistorcheck.errors import GeometryError, UsageError


def values_at(metric, x):
    """Metric values g_{ij} at x (batch axes leading), from order-0 jets."""
    return geo.tensor_values(metric.jets_at(x, 0), 2)


def omega_values(metric, x):
    """Kahler form omega_{ij} = g(I d_i, d_j) at x, from the package's jets."""
    return geo.tensor_values(kahler._omega_jets(metric.jets_at(x, 0)), 2)


def frame_values(metric, x):
    """Adapted frame values (rows e_a, batch axes leading) at x."""
    return geo.tensor_values(kahler.adapted_frame(metric.jets_at(x, 2)), 2)


def d_omega_residual(gjets):
    """sup |(d omega)_{kij}| over the cyclic index triples, from the first
    partials of the Kahler form of the metric jets ``gjets``."""
    dom = kahler._omega_jets(gjets).partials()  # [k, i, j] = d_k omega_ij
    val = dom + np.einsum("ijk...->kij...", dom) + np.einsum("jki...->kij...", dom)
    return float(np.max(np.abs(val)))


class TestPotentialMetrics:
    def test_flat_potential_gives_delta(self, flat):
        x = np.array([0.3, -0.2, 0.5, 0.1])
        assert np.allclose(values_at(flat, x), np.eye(4), atol=1e-14)
        omega = omega_values(flat, x)
        expect = np.zeros((4, 4))
        expect[0, 1] = expect[2, 3] = 1.0
        expect -= expect.T
        assert np.allclose(omega, expect, atol=1e-14)

    def test_fubini_study_origin_identity(self, fubini_study):
        g0 = values_at(fubini_study, np.zeros(4))
        assert np.allclose(g0, np.eye(4), atol=1e-14)

    def test_burns_scalar_flat(self, burns, rng):
        pts = burns.chart.sample(50, rng)
        scal = kahler.BaseEval(burns, pts).curvature().scal
        assert np.max(np.abs(scal)) < 1e-7

    def test_metric_positive_definite_on_samples(self, all_fixtures, rng):
        for m in all_fixtures.values():
            pts = m.chart.sample(10, rng)
            ev = np.linalg.eigvalsh(values_at(m, pts))
            assert np.all(ev > 0)

    def test_degenerate_potential_rejected(self):
        chart = geo.ChartDomain([[0.5, 1.0]] * 4)

        def phi(xj):
            u = xj[0] * xj[0] + xj[1] * xj[1] + xj[2] * xj[2] + xj[3] * xj[3]
            return u - 0.5 * u * u

        m = kahler.KahlerPotentialMetric(chart, phi)
        with pytest.raises(GeometryError):
            kahler.BaseEval(m, np.array([[0.9, 0.9, 0.9, 0.9]])).curvature()

    def test_kahler_two_form_closed_and_parallel(self, all_fixtures, rng):
        for name, m in all_fixtures.items():
            pts = m.chart.sample(8, rng)
            assert d_omega_residual(m.jets_at(pts, 1)) < 1e-9, name
            assert kahler.nabla_omega_residual(kahler.BaseEval(m, pts).curvature()) < 1e-8, name

    def test_non_kahler_control_detected(self, rng):
        m = kahler.get_fixture("conformal_hermitian")
        pts = m.chart.sample(8, rng)
        assert kahler.nabla_omega_residual(kahler.BaseEval(m, pts).curvature()) > 1e-3


class TestAdaptedFrame:
    def test_flat_standard_basis(self, flat):
        fr = frame_values(flat, np.array([0.1, 0.2, 0.3, 0.4]))
        assert np.allclose(fr, np.eye(4), atol=1e-14)

    def test_gram_residual(self, all_fixtures, rng):
        for m in all_fixtures.values():
            pts = m.chart.sample(5, rng)
            fr = frame_values(m, pts)
            g = values_at(m, pts)
            gram = np.einsum("...ai,...ij,...bj->...ab", fr, g, fr)
            assert np.max(np.abs(gram - np.eye(4))) < 1e-12

    def test_frame_is_I_adapted_and_oriented(self, burns, rng):
        pts = burns.chart.sample(4, rng)
        E = frame_values(burns, pts)
        I = kahler.I_MATRIX
        assert np.max(np.abs(np.einsum("ij,...j->...i", I, E[..., 0, :]) - E[..., 1, :])) < 1e-13
        assert np.max(np.abs(np.einsum("ij,...j->...i", I, E[..., 2, :]) - E[..., 3, :])) < 1e-13
        assert np.all(np.linalg.det(E) > 0)

    def test_s1_is_metric_dual_of_omega(self, eguchi_hanson, rng):
        x = eguchi_hanson.chart.sample(1, rng)[0]
        g = values_at(eguchi_hanson, x)
        ginv = np.linalg.inv(g)
        omega = omega_values(eguchi_hanson, x)
        omega_sharp = np.einsum("ik,jl,kl->ij", ginv, ginv, omega)
        s1 = geo.sd_basis(frame_values(eguchi_hanson, x), g)[0]
        diff = s1 - omega_sharp
        assert geo._inner_kernel(g, diff, diff) < 1e-10


class TestBetaForm:
    def test_flat_beta_zero(self, flat):
        x = np.array([0.2, 0.0, -0.3, 0.5])
        _, beta = kahler.BaseEval(flat, x).connection
        assert np.max(np.abs(geo.tensor_values(beta, 1))) < 1e-14

    def test_connection_relations(self, burns, rng):
        # nabla_k s2 = beta_k s3, nabla_k s3 = -beta_k s2, nabla s1 = 0
        pts = burns.chart.sample(20, rng)
        base = kahler.BaseEval(burns, pts)
        sd, beta = base.connection  # one order below the metric jets
        full = kahler._self_dual(kahler.adapted_frame(base.gjets))  # at their order
        gamma = base.gamma_jets
        s2v, s3v = geo.tensor_values(sd[1], 2), geo.tensor_values(sd[2], 2)
        assert np.array_equal(s2v, geo.tensor_values(full[1], 2))
        nabla = [geo.tensor_values(kahler._two_vector_nabla(gamma, full[q]), 3) for q in range(3)]
        for k in range(4):
            ns1, ns2, ns3 = (n[..., k, :, :] for n in nabla)
            bk = geo.tensor_values(beta, 1)[..., k, None, None]
            assert np.max(np.abs(ns1)) < 1e-8
            assert np.max(np.abs(ns2 - bk * s3v)) < 1e-8
            assert np.max(np.abs(ns3 + bk * s2v)) < 1e-8

    def test_skew_symmetry(self, fubini_study, rng):
        # metric compatibility: g(nabla_k s2, s2) = 0
        pts = fubini_study.chart.sample(5, rng)
        base = kahler.BaseEval(fubini_study, pts)
        s2 = kahler._self_dual(kahler.adapted_frame(base.gjets), (1,))[0]
        g = base.gvals
        s2v = geo.tensor_values(s2, 2)
        nabla = geo.tensor_values(kahler._two_vector_nabla(base.gamma_jets, s2), 3)
        for k in range(4):
            ns2 = nabla[..., k, :, :]
            assert np.max(np.abs(geo._inner_kernel(g, ns2, s2v))) < 1e-10

    def test_beta_nontrivial_on_burns(self, burns, rng):
        pts = burns.chart.sample(5, rng)
        _, beta = kahler.BaseEval(burns, pts).connection
        assert np.max(np.abs(geo.tensor_values(beta, 1))) > 1e-3


class TestCurvatureResiduals:
    def test_kahler_kills_s2_s3(self, all_fixtures, rng):
        for name, m in all_fixtures.items():
            pts = m.chart.sample(8, rng)
            base = kahler.BaseEval(m, pts)
            data, basis = base.curvature(), base.basis
            r2, r3, _ = kahler.curvature_s_residuals(data, basis)
            assert np.max(r2) < 1e-8, name
            assert np.max(r3) < 1e-8, name

    def test_s1_rayleigh_is_minus_half_scal(self, all_fixtures, rng):
        # the rho-dual pairing <Rhat(s1), s1> equals -Scal/2 in this package's
        # conventions (R = [nabla,nabla] - nabla_[,], cyclic s-cross product)
        for name, m in all_fixtures.items():
            pts = m.chart.sample(8, rng)
            base = kahler.BaseEval(m, pts)
            data, basis = base.curvature(), base.basis
            _, _, ray = kahler.curvature_s_residuals(data, basis)
            scal = data.scal
            assert np.max(np.abs(ray + scal / 2.0)) < 1e-8, name


@pytest.mark.parametrize("name", ("eguchi_hanson", "burns"))
def test_puncture_guard(name):
    # the metric is singular at the puncture x = 0, and nothing is rejected
    # when sampling: the sampling box keeps clear of it, |x|^2 >= 0.1
    dom = kahler.get_fixture(name).chart
    lo = dom.box[:, 0] + geo.SAMPLE_MARGIN * (dom.box[:, 1] - dom.box[:, 0])
    assert np.all(lo > 0) and np.sum(lo * lo) >= 0.1


@pytest.mark.parametrize("name", ["burns", "eguchi_hanson"])
def test_undefined_potential_names_the_point(name):
    # the potential's log is undefined at the puncture x = 0: the error names
    # that point, not the good point before it
    x = np.array([[0.5, 0.5, 0.5, 0.5], [0.0, 0.0, 0.0, 0.0]])
    with pytest.raises(GeometryError, match=r"potential is undefined: log .* at x=\[0\. 0\. 0\. 0\.\]$"):
        kahler.BaseEval(kahler.get_fixture(name), x)


def test_undefined_potential_names_the_point_of_a_2d_batch():
    # the point is named by its place in the batch, whatever the batch's shape
    x = np.full((2, 3, 4), 0.5)
    x[1, 0] = [0.0, 0.0, 0.0, 0.0]
    x[1, 1] = [-1.0, 0.0, 0.0, 0.0]
    with pytest.raises(GeometryError, match=r"at x=\[0\. 0\. 0\. 0\.\]$"):
        kahler.get_fixture("burns").jets_at(x, 0)


def test_misused_jets_in_a_potential_stay_a_usage_error():
    # a potential that combines jets of different spaces is a programming
    # error at every point, not a point where the potential is undefined
    other = jets.seed_raw(np.zeros(2), 2)[0]
    metric = kahler.KahlerPotentialMetric(kahler.get_fixture("flat").chart,
                                          lambda z: z[0] * z[0] + other)
    with pytest.raises(UsageError, match="different spaces"):
        metric.jets_at(np.full((2, 4), 0.5), 0)
