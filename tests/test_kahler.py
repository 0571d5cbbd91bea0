import numpy as np
import pytest

from twistorcheck import geometry as geo, kahler
from twistorcheck.errors import GeometryError


def values_at(metric, x):
    """Metric values g_{ij} at x (batch axes leading), from order-0 jets."""
    return geo.tensor_values(metric.jets_at(x, 0), 2)


def omega_values(metric, x):
    """Kahler form omega_{ij} = g(I d_i, d_j) at x, from the package's jets."""
    return geo.tensor_values(kahler._omega_jets(metric.jets_at(x, 0)), 2)


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
        scal = geo.curvature_data(burns, pts).scal
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
            geo.curvature_data(m, np.array([[0.9, 0.9, 0.9, 0.9]]))

    def test_kahler_two_form_closed_and_parallel(self, all_fixtures, rng):
        for name, m in all_fixtures.items():
            pts = m.chart.sample(8, rng)
            assert d_omega_residual(m.jets_at(pts, 1)) < 1e-9, name
            assert kahler.nabla_omega_residual(geo.curvature_data(m, pts)) < 1e-8, name

    def test_non_kahler_control_detected(self, rng):
        m = kahler.get_fixture("conformal_hermitian")
        pts = m.chart.sample(8, rng)
        assert kahler.nabla_omega_residual(geo.curvature_data(m, pts)) > 1e-3


class TestAdaptedFrame:
    def test_flat_standard_basis(self, flat):
        fr = kahler.adapted_frame(flat.jets_at(np.array([0.1, 0.2, 0.3, 0.4]), 2))
        assert np.allclose(fr.matrix, np.eye(4), atol=1e-14)

    def test_gram_residual(self, all_fixtures, rng):
        for m in all_fixtures.values():
            pts = m.chart.sample(5, rng)
            fr = kahler.adapted_frame(m.jets_at(pts, 2))
            g = values_at(m, pts)
            gram = np.einsum("...ai,...ij,...bj->...ab", fr.matrix, g, fr.matrix)
            assert np.max(np.abs(gram - np.eye(4))) < 1e-12

    def test_frame_is_I_adapted_and_oriented(self, burns, rng):
        pts = burns.chart.sample(4, rng)
        fr = kahler.adapted_frame(burns.jets_at(pts, 2))
        E = fr.matrix
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
        fr = kahler.adapted_frame(eguchi_hanson.jets_at(x, 2))
        s1 = geo.sd_basis(fr.matrix, g)[0]
        diff = s1.comps - omega_sharp
        assert geo._inner_kernel(g, diff, diff) < 1e-10


class TestBetaForm:
    def test_flat_beta_zero(self, flat):
        x = np.array([0.2, 0.0, -0.3, 0.5])
        gjets = flat.jets_at(x, 2)
        beta = kahler.beta_form(gjets, kahler.adapted_frame(gjets), geo.christoffel_jets(gjets))
        assert np.max(np.abs(beta.values)) < 1e-14

    def test_connection_relations(self, burns, rng):
        # nabla_k s2 = beta_k s3, nabla_k s3 = -beta_k s2, nabla s1 = 0
        pts = burns.chart.sample(20, rng)
        gjets = burns.jets_at(pts, 2)
        fr = kahler.adapted_frame(gjets)
        gamma = geo.christoffel_jets(gjets)
        beta = kahler.beta_form(gjets, fr, gamma)
        s2v, s3v = geo.tensor_values(fr.sd[1], 2), geo.tensor_values(fr.sd[2], 2)
        nabla = [geo.tensor_values(kahler._two_vector_nabla(gamma, fr.sd[q]), 3) for q in range(3)]
        for k in range(4):
            ns1, ns2, ns3 = (n[..., k, :, :] for n in nabla)
            bk = beta.values[..., k, None, None]
            assert np.max(np.abs(ns1)) < 1e-8
            assert np.max(np.abs(ns2 - bk * s3v)) < 1e-8
            assert np.max(np.abs(ns3 + bk * s2v)) < 1e-8

    def test_skew_symmetry(self, fubini_study, rng):
        # metric compatibility: g(nabla_k s2, s2) = 0
        pts = fubini_study.chart.sample(5, rng)
        gjets = fubini_study.jets_at(pts, 2)
        fr = kahler.adapted_frame(gjets)
        gamma = geo.christoffel_jets(gjets)
        g = geo.tensor_values(gjets, 2)
        s2v = geo.tensor_values(fr.sd[1], 2)
        nabla = geo.tensor_values(kahler._two_vector_nabla(gamma, fr.sd[1]), 3)
        for k in range(4):
            ns2 = nabla[..., k, :, :]
            assert np.max(np.abs(geo._inner_kernel(g, ns2, s2v))) < 1e-10

    def test_beta_nontrivial_on_burns(self, burns, rng):
        pts = burns.chart.sample(5, rng)
        gjets = burns.jets_at(pts, 2)
        beta = kahler.beta_form(gjets, kahler.adapted_frame(gjets), geo.christoffel_jets(gjets))
        assert np.max(np.abs(beta.values)) > 1e-3


class TestCurvatureResiduals:
    def test_kahler_kills_s2_s3(self, all_fixtures, rng):
        for name, m in all_fixtures.items():
            pts = m.chart.sample(8, rng)
            data = geo.curvature_data(m, pts)
            basis = geo.sd_basis(kahler.adapted_frame(data.gjets).matrix, data.gvals)
            r2, r3, _ = kahler.curvature_s_residuals(data, basis)
            assert np.max(r2) < 1e-8, name
            assert np.max(r3) < 1e-8, name

    def test_s1_rayleigh_is_minus_half_scal(self, all_fixtures, rng):
        # the rho-dual pairing <Rhat(s1), s1> equals -Scal/2 in this package's
        # conventions (R = [nabla,nabla] - nabla_[,], cyclic s-cross product)
        for name, m in all_fixtures.items():
            pts = m.chart.sample(8, rng)
            data = geo.curvature_data(m, pts)
            basis = geo.sd_basis(kahler.adapted_frame(data.gjets).matrix, data.gvals)
            _, _, ray = kahler.curvature_s_residuals(data, basis)
            scal = data.scal
            assert np.max(np.abs(ray + scal / 2.0)) < 1e-8, name
