import itertools
import os
import subprocess
import sys

import numpy as np
import pytest

import scalar_reference as ref
from twistorcheck import fibermap as fm, kahler, twistor as tw
from twistorcheck.errors import DomainError, InputError, NumericError


def fiber_eval(profile_name, v, w):
    """The ChartEval of a twistor chart with the named fiber profile (its
    quadrature fiber map; the plain chart for the sphere) over the flat base,
    at fiber coordinates (v, w) above one base point."""
    base = kahler.get_fixture("flat")
    prof = fm.get_profile(profile_name)
    chart = (tw.TwistorChart(base) if profile_name == "sphere" else
             tw.TwistorChart(base, fm.solve_phi(prof, branch="quadrature")))
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


class TestGaussLegendreRule:
    def test_literals_are_leggauss_bit_for_bit(self):
        nodes, weights = np.polynomial.legendre.leggauss(fm.QUAD_NODES)
        assert fm._GL_NODES.tobytes() == nodes.tobytes()
        assert fm._GL_WEIGHTS.tobytes() == weights.tobytes()

    def test_import_leaves_numpy_polynomial_out(self):
        code = ("import sys, twistorcheck.cli, twistorcheck.report;"
                " print('numpy.polynomial' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
        assert out.stdout.strip() == "False", out.stderr


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

    def test_quadrature_map_scans_for_degeneracy_on_first_read(self, quad_calls):
        m = fm.solve_phi(fm.cosh_profile(), c=0.0, branch="quadrature")
        assert quad_calls == []
        assert not m.degenerate and not m.degenerate
        assert quad_calls == [64]

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

    def test_overflowing_e_c_warns_nowhere(self):
        # e^800 overflows: the quadrature branch never reads it, and a closed
        # form keeps its empty domain, without a numpy RuntimeWarning
        cy = fm.cylinder_profile()
        m = fm.solve_phi(cy, c=800.0, branch="quadrature")
        assert m.domain == (cy.z_minus, cy.z_plus)
        assert np.all(m.phi_values(np.linspace(-1.9, 1.9, 5)) == 1.0)  # tanh(l + 800)
        with pytest.raises(DomainError, match="empty domain"):
            fm.solve_phi(cy, c=800.0, branch="flat_meridian_closed_form")

    def test_every_domain_lies_in_the_profile_interval(self):
        # TwistorChart.fiber_interval pads the map's domain alone
        maps = 0
        for name, branch, c, sign in itertools.product(
                fm.PROFILES, fm.BRANCHES, (-2.0, -1.0, -0.5, -0.1, 0.0, 0.1, 0.5, 1.0), (1, -1)):
            prof = fm.get_profile(name)
            try:
                lo, hi = fm.solve_phi(prof, c=c, sign=sign, branch=branch).domain
            except DomainError:
                continue
            assert prof.z_minus <= lo < hi <= prof.z_plus, (name, branch, c, sign)
            maps += 1
        assert maps == 110  # the other 34 of the 96 closed forms have an empty domain

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
        # value here would be silently wrong.  The error names the worst
        # limit, its error estimate and the bound
        prof = fm.SurfaceProfile(lambda zj: zj * zj, (-1.0, 1.0))
        for z, worst in ((0.5, 0.5), (np.array([0.25, 0.5]), 0.25), (np.array([-0.5]), -0.5)):
            with pytest.raises(NumericError, match=rf"at z={worst}: error estimate "
                                                   r"\S+ exceeds the bound 1e-6"):
                fm.isothermal_coordinate(prof, z, 0.0)

    def test_non_finite_integrand_rejected(self):
        prof = fm.SurfaceProfile(lambda zj: zj * np.nan, (-1.0, 1.0))
        with pytest.raises(NumericError, match=r"not finite at z=0.5"):
            fm.isothermal_coordinate(prof, np.array([0.0, 0.5]), 0.0)


def isothermal_integrand(prof):
    def integrand(t):
        j = prof.rho_jet(t, 1)
        rp = np.asarray(j.deriv(0).value)
        return np.sqrt(rp * rp + 1.0) / np.asarray(j.value)
    return integrand


class TestCumulativeQuadrature:
    # the cumulative rule of fibermap.quad against the per-limit rule it
    # refines (tests/scalar_reference.py), on limits as callers pass them

    @pytest.mark.parametrize("name", ["sphere", "cylinder", "cosh"])
    @pytest.mark.parametrize("z0", [0.0, 0.37])
    def test_matches_per_limit_rule(self, name, z0, rng):
        prof = fm.get_profile(name)
        pad = 1e-3 * (prof.z_plus - prof.z_minus)
        grid = np.linspace(prof.z_minus + pad, prof.z_plus - pad, 60)
        # unsorted, on both sides of z0, with repeats and z0 itself
        zs = rng.permutation(np.concatenate([grid, grid[[3, 3, 40]], [z0, z0]]))
        ell = fm.isothermal_coordinate(prof, zs, z0)
        expect = ref.quad_per_limit(isothermal_integrand(prof), z0, zs)[0]
        assert ell.shape == zs.shape
        assert np.all(np.abs(ell - expect) <= 1e-14 * np.maximum(1.0, np.abs(expect)))
        assert np.all(ell[zs == z0] == 0.0)
        for z in grid[[3, 40]]:
            assert np.all(ell[zs == z] == ell[zs == z][0])
        scalar = fm.isothermal_coordinate(prof, float(zs[0]), z0)
        assert isinstance(scalar, float)
        assert abs(scalar - expect[0]) <= 1e-14 * max(1.0, abs(expect[0]))
        assert fm.isothermal_coordinate(prof, z0, z0) == 0.0

    def test_limit_at_a_gives_zero_and_nan_stays_nan(self):
        value, err = fm.quad(np.exp, 0.5, np.array([0.5, 0.5]))
        assert np.array_equal(value, [0.0, 0.0]) and np.array_equal(err, [0.0, 0.0])
        value, err = fm.quad(np.exp, 0.5, np.array([np.nan, 1.5]))
        assert np.isnan(value[0]) and abs(value[1] - (np.exp(1.5) - np.exp(0.5))) < 1e-13

    def test_completeness_partial_integral_matches_per_limit_rule(self):
        for p in (0.5, 1.0, 2.0):
            h = lambda z, p=p: -p * np.log(1 - z * z)
            v = fm.completeness_classify("expression", h_expr=h)
            integrand = lambda lat: np.exp(0.5 * h(np.sin(lat)))
            for pole, (lo, hi) in (("north", (0.0, np.pi / 2 - 1e-3)),
                                   ("south", (-np.pi / 2 + 1e-3, 0.0))):
                expect = float(ref.quad_per_limit(integrand, lo, hi)[0])
                got = v.detail[pole]["partial_integral"]
                assert abs(got - expect) <= 1e-14 * max(1.0, abs(expect))

    def test_each_node_is_evaluated_once(self):
        # 100 limits used to cost 100 x (64 + 32) panels x 30 nodes = 288k
        prof = fm.sphere_profile()
        rho, nodes = prof.rho, []
        prof.rho = lambda zj: (nodes.append(np.size(zj.value)), rho(zj))[1]
        zs = np.linspace(-0.99, 0.99, 100)
        fm.isothermal_coordinate(prof, zs, 0.0)
        assert sum(nodes) < 15_000


class TestConformality:
    def test_identity_on_sphere(self):
        rep = fm.conformality_check(fm.identity_sphere_map(), 100)
        assert rep.max_anisotropy < 1e-12
        assert rep.orientation == +1

    def test_quadrature_solutions_conformal(self):
        for prof in (fm.sphere_profile(), fm.cylinder_profile(), fm.cosh_profile()):
            m = fm.solve_phi(prof, c=0.25, branch="quadrature")
            rep = fm.conformality_check(m, sample_count=100)
            assert rep.max_anisotropy < 1e-6, prof.name
            assert rep.orientation == +1

    def test_flat_branch_on_cylinder_reported_degenerate(self):
        cy = fm.cylinder_profile()
        m = fm.solve_phi(cy, c=-0.5, branch="flat_meridian_closed_form")
        rep = fm.conformality_check(m, sample_count=50)
        assert rep.degenerate

    def test_perturbation_detected(self):
        cy = fm.cylinder_profile()
        m = fm.solve_phi(cy, c=0.0, branch="quadrature").perturbed(0.1)
        rep = fm.conformality_check(m, sample_count=100)
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
