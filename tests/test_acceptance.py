"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a one-line verdict; a terminal summary hook in conftest.py
repeats the pass/fail table after the run.

Criterion 2b pins Scal/3 to the self-dual Weyl pairing of the parallel
self-dual 2-vector s1 in the Gram-determinant 2-vector metric
(g(X^Y, Z^W) = det Gram, |s1|^2 = 2): on a Kahler surface
W+ = diag(Scal/6, -Scal/12, -Scal/12) in the orthonormal (s1, s2, s3)
basis, so <W+(s1), s1> = |s1|^2 Scal/6 = Scal/3.  The full curvature
operator cannot carry that constant: <R(s1), s1> = |s1|^2 Scal/4 for any
choice of the 2-vector norm, which would need |s1|^2 = 4/3.
"""

import json

import numpy as np

from twistorcheck import fibermap as fm, geometry as geo, jets, kahler, twistor as tw
from twistorcheck.cli import main
from twistorcheck.report import SuiteConfig, report_to_json, run_suite

SEED = 20240817
FIXTURE_NAMES = ("flat", "fubini_study", "eguchi_hanson", "burns")


def _metric(name):
    return kahler.get_fixture(name)


def _report(name, ok, detail=""):
    print(f"[criterion {name}] {'PASS' if ok else 'FAIL'} {detail}")


# -- criterion 1: curvature block structure --------------------------------

def test_criterion_1_curvature_block_structure():
    worst_sym = worst_tr = worst_quarter = 0.0
    for name in FIXTURE_NAMES:
        m = _metric(name)
        pts = m.chart.sample(50, np.random.default_rng(SEED))
        data = geo.curvature_data(m, pts)
        frame = kahler.adapted_frame(data.gjets)
        basis = geo.sd_basis(frame.matrix, data.gvals)
        op = geo.curvature_operator(data, basis)
        worst_sym = max(worst_sym, float(np.max(np.abs(op.matrix - np.swapaxes(op.matrix, -1, -2)))))
        worst_tr = max(worst_tr, float(np.max(np.abs(np.trace(op.wplus, axis1=-2, axis2=-1)))),
                       float(np.max(np.abs(np.trace(op.wminus, axis1=-2, axis2=-1)))))
        worst_quarter = max(worst_quarter, float(np.max(np.abs(
            np.trace(op.plus_block, axis1=-2, axis2=-1) - data.scal / 4.0))))
    ok = worst_sym < 1e-9 and worst_tr < 1e-9 and worst_quarter < 1e-8
    _report("1", ok, f"symmetry={worst_sym:.2e} traceless={worst_tr:.2e} trace-quarter={worst_quarter:.2e}")
    assert worst_sym < 1e-9
    assert worst_tr < 1e-9
    assert worst_quarter < 1e-8


# -- criterion 2: Kahler / scalar-flat certification ------------------------

def test_criterion_2a_scalar_flat_certification():
    worst = {}
    for name in ("eguchi_hanson", "burns"):
        m = _metric(name)
        pts = m.chart.sample(50, np.random.default_rng(SEED))
        data = geo.curvature_data(m, pts)
        frame = kahler.adapted_frame(data.gjets)
        basis = geo.sd_basis(frame.matrix, data.gvals)
        op = geo.curvature_operator(data, basis)
        r2, r3, _ = kahler.curvature_s_residuals(data, basis)
        worst[name] = {
            "scal": float(np.max(np.abs(data.scal))),
            "wplus": float(np.max(np.abs(op.wplus))),
            "nabla_omega": kahler.nabla_omega_residual(data),
            "r_s2_s3": float(max(np.max(r2), np.max(r3))),
        }
    ok = all(v["scal"] < 1e-7 and v["wplus"] < 1e-7 and v["nabla_omega"] < 1e-8
             and v["r_s2_s3"] < 1e-8 for v in worst.values())
    _report("2a", ok, str(worst))
    for name, v in worst.items():
        assert v["scal"] < 1e-7, name
        assert v["wplus"] < 1e-7, name
        assert v["nabla_omega"] < 1e-8, name
        assert v["r_s2_s3"] < 1e-8, name


def test_criterion_2b_fubini_study_rayleigh_literal():
    """Criterion: Scal = 24 and <W+(s1), s1> = Scal/3 within 1e-8.

    The pairing is taken in the Gram-determinant 2-vector metric, in which
    |s1|^2 = 2 (twice the package's half-determinant metric).  On a Kahler
    surface W+ = diag(Scal/6, -Scal/12, -Scal/12) in the orthonormal
    (s1, s2, s3) basis, hence <W+(s1), s1> = |s1|^2 Scal/6 = Scal/3.  The
    constant belongs to W+, not to R: <R(s1), s1> = |s1|^2 Scal/4 in every
    2-vector norm, i.e. Scal/2 here, and Scal/3 would need |s1|^2 = 4/3.
    W+ is reached by two routes: from the rho-dual pairing <Rhat(s1), s1>
    (the block operator is -1/2 Rhat, and W+ is that minus Scal/12), and
    from the W+ block of :func:`geometry.curvature_operator` directly.
    """
    m = _metric("fubini_study")
    pts = m.chart.sample(50, np.random.default_rng(SEED))
    data = geo.curvature_data(m, pts)
    scal = data.scal
    assert np.max(np.abs(scal - 24.0)) < 1e-6
    scal = np.asarray(scal)
    frame = kahler.adapted_frame(data.gjets)
    basis = geo.sd_basis(frame.matrix, data.gvals)
    _, _, ray = kahler.curvature_s_residuals(data, basis)
    op = geo.curvature_operator(data, basis)
    # |s1|^2 in the Gram-determinant metric: twice the half-determinant one
    s1_sq = 2.0 * geo._inner_kernel(data.gvals, basis[0].comps, basis[0].comps)
    wplus_ray = s1_sq * (-0.5 * np.asarray(ray) - scal / 12.0)
    wplus_op = s1_sq * op.wplus[..., 0, 0]
    r_op = s1_sq * op.matrix[..., 0, 0]
    resid_ray = float(np.max(np.abs(wplus_ray - scal / 3.0)))
    resid_op = float(np.max(np.abs(wplus_op - scal / 3.0)))
    resid_r = float(np.max(np.abs(r_op - scal / 2.0)))
    ok = resid_ray < 1e-8 and resid_op < 1e-8 and resid_r < 1e-8
    _report("2b", ok,
            f"<W+(s1),s1> = Scal/3: via rho-dual residual={resid_ray:.3e}, "
            f"via block W+ residual={resid_op:.3e}; <R(s1),s1> = Scal/2 residual={resid_r:.3e}")
    assert resid_ray < 1e-8 and resid_op < 1e-8, (
        "<W+(s1), s1> = Scal/3 = 8 in the Gram-determinant metric fails: "
        f"via the rho-dual pairing {float(np.mean(wplus_ray)):+.6f}, "
        f"via the block W+ {float(np.mean(wplus_op)):+.6f}.  On a Kahler surface "
        "W+ = diag(Scal/6, -Scal/12, -Scal/12), so this pairing is |s1|^2 Scal/6; "
        "the full operator gives <R(s1), s1> = |s1|^2 Scal/4 instead."
    )
    assert resid_r < 1e-8, (
        f"<R(s1), s1> = {float(np.mean(r_op)):+.6f}, not |s1|^2 Scal/4 = Scal/2 = 12"
    )


def test_criterion_2c_fubini_study_rayleigh_verified():
    """The s1 pairing in the package's normalizations: rho-dual -Scal/2, block +Scal/4."""
    m = _metric("fubini_study")
    pts = m.chart.sample(50, np.random.default_rng(SEED))
    data = geo.curvature_data(m, pts)
    scal = data.scal
    frame = kahler.adapted_frame(data.gjets)
    basis = geo.sd_basis(frame.matrix, data.gvals)
    _, _, ray = kahler.curvature_s_residuals(data, basis)
    resid = float(np.max(np.abs(np.asarray(ray) + np.asarray(scal) / 2.0)))
    op = geo.curvature_operator(data, basis)
    resid_block = float(np.max(np.abs(op.matrix[..., 0, 0] - data.scal / 4.0)))
    ok = resid < 1e-8 and resid_block < 1e-8
    _report("2c", ok, f"rho-dual +Scal/2 residual={resid:.2e}, block Scal/4 residual={resid_block:.2e}")
    assert resid < 1e-8
    assert resid_block < 1e-8


# -- criterion 3: integrability dichotomy -----------------------------------

def test_criterion_3_integrability_dichotomy():
    results = {}
    for name in ("flat", "eguchi_hanson", "burns"):
        m = _metric(name)
        chart = tw.TwistorChart.twistor(m)
        pts = chart.sample(50, SEED)
        results[f"{name}:twistor"] = float(np.max(tw.nijenhuis_max(tw.ChartEval(chart, pts))))
        prof = fm.cylinder_profile()
        emap = fm.solve_phi(prof, c=0.0, branch="quadrature")
        mod = tw.TwistorChart.modified(m, prof, emap)
        pts_m = mod.sample(50, SEED + 1)
        results[f"{name}:modified"] = float(np.max(tw.nijenhuis_max(tw.ChartEval(mod, pts_m))))
    fs_chart = tw.TwistorChart.twistor(_metric("fubini_study"))
    fs_pts = fs_chart.sample(50, SEED)
    fs_max = float(np.max(tw.nijenhuis_max(tw.ChartEval(fs_chart, fs_pts))))
    eh = _metric("eguchi_hanson")
    prof = fm.cylinder_profile()
    pert = fm.solve_phi(prof, c=0.0, branch="quadrature").perturbed(0.1)
    pert_chart = tw.TwistorChart.modified(eh, prof, pert)
    pert_pts = pert_chart.sample(50, SEED + 2)
    pert_max = float(np.max(tw.nijenhuis_max(tw.ChartEval(pert_chart, pert_pts))))
    ok = all(v < 1e-6 for v in results.values()) and fs_max > 1e-3 and pert_max > 1e-3
    _report("3", ok, f"integrable={ {k: f'{v:.1e}' for k, v in results.items()} } "
                     f"fs={fs_max:.2e} perturbed={pert_max:.2e}")
    for key, val in results.items():
        assert val < 1e-6, key
    assert fs_max > 1e-3
    assert pert_max > 1e-3


# -- criterion 4: structure identities ---------------------------------------

def test_criterion_4_structure_identities():
    chart = tw.TwistorChart.twistor(_metric("eguchi_hanson"))
    pts = chart.sample(20, SEED)
    res = tw.verify_structure_identities(tw.ChartEval(chart, pts), n_random=6, seed=SEED)
    agree = tw.nijenhuis_route_agreement(tw.ChartEval(chart, pts[:5]), n_triples=20, seed=SEED)
    five = (res.cross_k_pairing, res.vertical_second_fund, res.mixed_connection,
            res.gauss_curvature_duality, res.mixed_nijenhuis)
    ok = all(r < 1e-6 for r in five) and agree < 1e-6
    _report("4", ok, f"identities={[f'{r:.1e}' for r in five]} routes={agree:.2e}")
    for r in five:
        assert r < 1e-6
    assert agree < 1e-6


# -- criterion 5: balancedness ------------------------------------------------

H_FAMILY = (
    ("h=0", None),
    ("h=-log(1-z^2)", lambda z: -1.0 * jets.log(1.0 - z * z)),
    ("h=-2log(1-z^2)", lambda z: -2.0 * jets.log(1.0 - z * z)),
)


def test_criterion_5_balancedness():
    worst = {}
    for name in ("eguchi_hanson", "burns"):
        chart = tw.TwistorChart.twistor(_metric(name))
        ctx = tw.ChartEval(chart, chart.sample(30, SEED))
        for label, h in H_FAMILY:
            rep = tw.balanced_check(ctx, h, h_label=label)
            worst[f"{name}:{label}"] = rep.max_residual
    eh_chart = tw.TwistorChart.twistor(_metric("eguchi_hanson"))
    ctrl = tw.balanced_check(tw.ChartEval(eh_chart, eh_chart.sample(30, SEED)), None,
                             weight_mode="x_dependent")
    ok = all(v < 1e-7 for v in worst.values()) and ctrl.max_residual > 1e-3
    _report("5", ok, f"max={max(worst.values()):.2e} control={ctrl.max_residual:.2e}")
    for key, val in worst.items():
        assert val < 1e-7, key
    assert ctrl.max_residual > 1e-3


# -- criterion 6: wedge-cone identities ---------------------------------------

def test_criterion_6_cone_identities():
    chart = tw.TwistorChart.twistor(_metric("eguchi_hanson"))
    base = tw.cone_wedge_constants(tw.ChartEval(chart, chart.sample(50, SEED)), 1.0, 1.0)
    grid = tw.ChartEval(chart, chart.sample(10, SEED))
    ok = base.c1_rel_variation < 1e-6 and base.c2_rel_variation < 1e-6
    scale_resid = 0.0
    for a in (1.0, 2.0):
        for b in (1.0, 2.0):
            r = tw.cone_wedge_constants(grid, a, b)
            scale_resid = max(scale_resid,
                              abs(r.c1 / base.c1 - a * a),
                              abs(r.c2 / base.c2 - a * b))
    ok = ok and scale_resid < 1e-6
    _report("6", ok, f"c1={base.c1:.6f} c2={base.c2:.6f} "
                     f"relvar=({base.c1_rel_variation:.1e},{base.c2_rel_variation:.1e}) "
                     f"scaling={scale_resid:.2e}")
    assert base.c1_rel_variation < 1e-6
    assert base.c2_rel_variation < 1e-6
    assert scale_resid < 1e-6


# -- criterion 7: fiber maps ----------------------------------------------------

def test_criterion_7_fiber_maps():
    aniso = {}
    for pname in ("sphere", "cylinder", "cosh"):
        prof = fm.get_profile(pname)
        emap = fm.solve_phi(prof, c=0.2, branch="quadrature")
        rep = fm.conformality_check(prof, emap, sample_count=100)
        aniso[pname] = rep.max_anisotropy
        assert rep.orientation == +1, pname
    sph = fm.get_profile("sphere")
    alt = fm.solve_phi(sph, c=0.0, branch="alternate_closed_form")
    zs = np.linspace(alt.domain[0] + 1e-3, alt.domain[1] - 1e-3, 50)
    ident_resid = float(np.max(np.abs(alt.phi_values(zs) - zs)))
    cyl = fm.get_profile("cylinder")
    flatm = fm.solve_phi(cyl, c=-0.5, branch="flat_meridian_closed_form")
    rep_deg = fm.conformality_check(cyl, flatm, sample_count=100)
    ok = (max(aniso.values()) < 1e-6 and ident_resid < 1e-9
          and flatm.degenerate and rep_deg.degenerate)
    _report("7", ok, f"anisotropy={ {k: f'{v:.1e}' for k, v in aniso.items()} } "
                     f"identity={ident_resid:.1e} degenerate-detected={flatm.degenerate}")
    assert max(aniso.values()) < 1e-6
    assert ident_resid < 1e-9
    assert flatm.degenerate and rep_deg.degenerate


# -- criterion 8: completeness criterion ----------------------------------------

def test_criterion_8_completeness():
    oracle = {0.0: "incomplete", 0.5: "incomplete",
              1.0: "complete", 1.1: "complete", 2.0: "complete"}
    verdicts = {p: fm.completeness_classify("power_pole", p=p).verdict for p in oracle}
    ok = verdicts == oracle
    _report("8", ok, str(verdicts))
    assert verdicts == oracle


# -- criterion 9: determinism -----------------------------------------------------

def test_criterion_9_determinism(tmp_path):
    raw = {"metric": "burns", "suite": "integrability", "sample_count": 8, "seed": 77}
    r1 = report_to_json(run_suite(SuiteConfig.from_dict(raw)))
    r2 = report_to_json(run_suite(SuiteConfig.from_dict(raw)))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    files = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(["verify", "--config", str(cfg), "--report", str(out)]) == 0
        files.append(out.read_bytes())
    ok = (r1 == r2) and (files[0] == files[1])
    _report("9", ok, f"in-process identical={r1 == r2} cli identical={files[0] == files[1]}")
    assert r1 == r2
    assert files[0] == files[1]
