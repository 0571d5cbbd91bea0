import numpy as np
import pytest

from twistorcheck import fibermap as fm, kahler, twistor as tw
from twistorcheck.errors import DomainError, InputError, NumericError


def fiber_eval(profile_name, v, w):
    """The ChartEval of a twistor chart with the named fiber profile (its
    quadrature fiber map; the plain chart for the sphere) over the flat base,
    at fiber coordinates (v, w) above one base point."""
    base = kahler.get_fixture("flat")
    prof = fm.get_profile(profile_name)
    chart = (tw.TwistorChart.twistor(base) if profile_name == "sphere" else
             tw.TwistorChart.modified(base, prof, fm.solve_phi(prof, branch="quadrature")))
    v, w = np.broadcast_arrays(np.asarray(v, float), np.asarray(w, float))
    pts = np.zeros((v.size, 6))
    pts[:, :4] = 0.1
    pts[:, 4], pts[:, 5] = v.ravel(), w.ravel()
    return tw.ChartEval(chart, pts)


class TestProfilesAndGauss:
    # the Gauss map is the outward normal eps3 of ChartEval.fiber_tangents,
    # in (s1, s2, s3) coordinates with the rotation axis s1 first
    def test_sphere_normal_is_point(self):
        ctx = fiber_eval("sphere", [0.3, -0.5, 0.0], [0.7, 2.0, 4.5])
        assert np.allclose(ctx.fiber_tangents()[2], ctx.fiber_point(), atol=1e-13)

    def test_cylinder_normal_is_radial(self):
        n = fiber_eval("cylinder", 0.2, 0.7).fiber_tangents()[2][0]
        assert np.allclose(n, [0.0, np.cos(0.7), np.sin(0.7)], atol=1e-14)

    def test_normal_orthogonal_to_tangents(self, rng):
        for name in ("sphere", "cosh", "cylinder"):
            prof = fm.get_profile(name)
            lo, hi = prof.z_minus, prof.z_plus
            z = rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), size=10)
            th = rng.uniform(0, 2 * np.pi, size=10)
            t_v, t_w, n = fiber_eval(name, z, th).fiber_tangents()
            assert np.max(np.abs(np.einsum("...i,...i->...", n, t_v))) < 1e-12
            assert np.max(np.abs(np.einsum("...i,...i->...", n, t_w))) < 1e-12
            assert np.max(np.abs(np.linalg.norm(n, axis=-1) - 1.0)) < 1e-12

    def test_outward_orientation_where_rho_prime_zero(self):
        # at the cosh waist's critical point the normal points radially out
        n = fiber_eval("cosh", 0.0, 0.0).fiber_tangents()[2][0]
        assert n[1] > 0.9

    def test_boundary_rejected(self):
        with pytest.raises(DomainError):
            fiber_eval("sphere", 1.0, 0.0)

    def test_bad_profile_rejected(self):
        with pytest.raises(InputError):
            fm.SurfaceProfile(lambda z: z, (1.0, 1.0))
        with pytest.raises(InputError):
            fm.get_profile("nope")


class TestSolvePhi:
    def test_sphere_alternate_identity(self):
        sp = fm.sphere_profile()
        m = fm.solve_phi(sp, c=0.0, branch="alternate_closed_form")
        zs = np.linspace(m.domain[0] + 1e-3, m.domain[1] - 1e-3, 40)
        assert np.max(np.abs(m.phi_values(zs) - zs)) < 1e-12

    def test_cylinder_quadrature_matches_tanh(self):
        cy = fm.cylinder_profile()
        m = fm.solve_phi(cy, c=0.0, branch="quadrature")  # l(0) = 0
        zs = np.linspace(-1.8, 1.8, 25)
        assert np.max(np.abs(m.phi_values(zs) - np.tanh(zs))) < 1e-10
        assert np.max(np.abs(m.phi_prime(zs) - 1.0 / np.cosh(zs) ** 2)) < 1e-10

    def test_sphere_quadrature_is_identity(self):
        sp = fm.sphere_profile()
        m = fm.solve_phi(sp, c=0.0, branch="quadrature")
        zs = np.linspace(-0.9, 0.9, 19)
        assert np.max(np.abs(m.phi_values(zs) - zs)) < 1e-10

    def test_constant_profile_flat_branch_degenerate(self):
        cp = fm.SurfaceProfile(lambda zj: zj * 0.0 + np.sqrt(2.0), (-1.0, 1.0))
        m = fm.solve_phi(cp, c=0.0, branch="flat_meridian_closed_form")
        assert m.degenerate
        assert np.allclose(m.phi_values(np.array([0.0, 0.3])), 1 / np.sqrt(2), atol=1e-14)

    def test_domain_scan_evaluates_predicate_once(self):
        sp = fm.sphere_profile()
        shapes = []

        def valid(z):
            shapes.append(np.shape(z))
            return sp.rho_values(z) > 0.5

        lo, hi = fm._scan_domain(sp, valid)
        assert shapes == [(512,)]
        assert lo == pytest.approx(-np.sqrt(0.75), abs=1e-2)
        assert hi == pytest.approx(np.sqrt(0.75), abs=1e-2)

    def test_empty_domain_rejected(self):
        cy = fm.cylinder_profile()
        with pytest.raises(DomainError):
            fm.solve_phi(cy, c=1.0, branch="flat_meridian_closed_form")  # 1 - e > 0 nowhere

    def test_unknown_branch_rejected(self):
        with pytest.raises(InputError):
            fm.solve_phi(fm.sphere_profile(), branch="nope")
        with pytest.raises(InputError):
            fm.solve_phi(fm.sphere_profile(), sign=2)

    def test_phi_jets_match_finite_differences(self):
        cy = fm.cylinder_profile()
        m = fm.solve_phi(cy, c=0.3, branch="quadrature")
        z0, h = 0.4, 1e-5
        j = m.phi_jet(np.array([z0]), 3)
        fd1 = (m.phi_values(z0 + h) - m.phi_values(z0 - h)) / (2 * h)
        fd2 = (m.phi_values(z0 + h) - 2 * m.phi_values(z0) + m.phi_values(z0 - h)) / h**2
        assert j.extract((1,))[0] == pytest.approx(float(fd1), rel=1e-8)
        assert j.extract((2,))[0] == pytest.approx(float(fd2), rel=1e-4)


class TestIsothermalCoordinate:
    # closed forms of l(z) = integral_0^z sqrt(rho'^2 + 1)/rho, written out
    # independently of the package's quadrature
    CLOSED_FORMS = {"sphere": np.arctanh, "cylinder": lambda z: z, "cosh": lambda z: z}

    @pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
    def test_matches_closed_form(self, name):
        prof = fm.get_profile(name)
        # up to the fiber sampling margin, 1e-3 of the interval length
        pad = 1e-3 * (prof.z_plus - prof.z_minus)
        zs = np.linspace(prof.z_minus + pad, prof.z_plus - pad, 200)
        ell = fm.isothermal_coordinate(prof, zs, 0.0)
        assert ell.shape == zs.shape
        assert np.max(np.abs(ell - self.CLOSED_FORMS[name](zs))) < 1e-13
        scalar = fm.isothermal_coordinate(prof, 0.3, 0.0)
        assert isinstance(scalar, float)
        assert abs(scalar - self.CLOSED_FORMS[name](0.3)) < 1e-13

    def test_vanishing_profile_rejected(self):
        # rho = z^2 vanishes at z0 = 0, so l diverges on [0, z]; a finite
        # value here would be silently wrong
        prof = fm.SurfaceProfile(lambda zj: zj * zj, (-1.0, 1.0))
        for z in (0.5, np.array([0.25, 0.5]), np.array([-0.5])):
            with pytest.raises(NumericError):
                fm.isothermal_coordinate(prof, z, 0.0)


class TestConformality:
    def test_identity_on_sphere(self):
        rep = fm.conformality_check(fm.sphere_profile(), fm.identity_sphere_map(), 100)
        assert rep.max_anisotropy < 1e-12
        assert rep.orientation == +1

    def test_quadrature_solutions_conformal(self):
        for prof in (fm.sphere_profile(), fm.cylinder_profile(), fm.cosh_profile()):
            m = fm.solve_phi(prof, c=0.25, branch="quadrature")
            rep = fm.conformality_check(prof, m, sample_count=100)
            assert rep.max_anisotropy < 1e-6, prof.name
            assert rep.orientation == +1

    def test_flat_branch_on_cylinder_reported_degenerate(self):
        cy = fm.cylinder_profile()
        m = fm.solve_phi(cy, c=-0.5, branch="flat_meridian_closed_form")
        rep = fm.conformality_check(cy, m, sample_count=50)
        assert rep.degenerate
        assert not rep.conformal

    def test_perturbation_detected(self):
        cy = fm.cylinder_profile()
        m = fm.solve_phi(cy, c=0.0, branch="quadrature").perturbed(0.1)
        rep = fm.conformality_check(cy, m, sample_count=100)
        assert rep.max_anisotropy > 1e-3

    def test_degenerate_detector_threshold(self):
        # fires exactly when dphi/dz vanishes on the sampled set
        cy = fm.cylinder_profile()
        good = fm.solve_phi(cy, c=0.0, branch="quadrature")
        assert not good.degenerate


class TestMobius:
    def test_composition_law(self):
        sp = fm.sphere_profile()
        c1, c2 = 0.4, 0.7
        m1 = fm.solve_phi(sp, c=c1, branch="quadrature")
        m12 = fm.solve_phi(sp, c=c1 + c2, branch="quadrature")
        zs = np.linspace(-0.85, 0.85, 21)
        p1 = m1.phi_values(zs)
        t2 = np.tanh(c2)
        assert np.max(np.abs(m12.phi_values(zs) - (p1 + t2) / (1 + p1 * t2))) < 1e-9

    def test_equivariance_structural(self):
        # rotating theta commutes with the map: phi ignores theta entirely
        sp = fm.sphere_profile()
        m = fm.solve_phi(sp, c=0.1, branch="quadrature")
        assert m.phi_values(0.3) == m.phi_values(0.3)


class TestCompleteness:
    ORACLE = {0.0: "incomplete", 0.5: "incomplete", 1.0: "complete",
              1.1: "complete", 2.0: "complete"}

    @pytest.mark.parametrize("p,expected", sorted(ORACLE.items()))
    def test_power_family(self, p, expected):
        v = fm.completeness_classify("power_pole", p=p)
        assert v.verdict == expected

    def test_expression_route_matches_closed_form(self):
        # e^{h/2} = sec(lat)^p; the partial integral runs to 1e-3 short of
        # each pole, where it has a closed form for p = 1 and p = 2
        x = np.pi / 2 - 1e-3
        partial = {1.0: np.log(1 / np.cos(x) + np.tan(x)), 2.0: np.tan(x)}
        for p in (0.0, 0.5, 1.0, 1.5, 2.0):
            v = fm.completeness_classify(
                "expression", h_expr=lambda z, p=p: -p * np.log(1 - z * z))
            assert v.verdict == ("complete" if p >= 1.05 else
                                 "incomplete" if p <= 0.95 else "inconclusive")
            assert v.fitted_exponent == pytest.approx(p, abs=0.02)
            if p in partial:
                for pole in ("north", "south"):
                    assert v.detail[pole]["partial_integral"] == pytest.approx(partial[p], rel=1e-7)

    def test_inconclusive_near_critical(self):
        v = fm.completeness_classify("expression", h_expr=lambda z: -1.02 * np.log(1 - z * z))
        assert v.verdict == "inconclusive"

    def test_input_validation(self):
        with pytest.raises(InputError):
            fm.completeness_classify("power_pole")
        with pytest.raises(InputError):
            fm.completeness_classify("nope", p=1.0)
