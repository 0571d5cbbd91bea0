"""Balanced Hermitian 2-forms on the twistor space of a scalar-flat base.

Omega_h = tau + e^{h} omega_FS is Hermitian for the tautological complex
structure, and d(Omega_h^2) = 0 for every rotation-invariant fiber weight
h -- the balanced condition in complex dimension 3.  Two controls show the
hypotheses are needed: a base-dependent weight, and a base with positive
scalar curvature.
"""

import numpy as np

from twistorcheck import jets, kahler, twistor

SEED = 11

weights = (
    ("h = 0", None),
    ("h = -log(1-z^2)", lambda z: -1.0 * jets.log(1.0 - z * z)),
    ("h = -2 log(1-z^2)", lambda z: -2.0 * jets.log(1.0 - z * z)),
    ("h = +log(1-z^2)", lambda z: jets.log(1.0 - z * z)),
)

for name in ("eguchi_hanson", "burns"):
    chart = twistor.TwistorChart(kahler.get_fixture(name))
    ctx = twistor.ChartEval(chart, chart.sample(15, SEED))  # one evaluation, four weights
    print(f"=== {name}")
    for label, h in weights:
        rep = twistor.balanced_check(ctx, h)
        print(f"  {label:22s} max|d(Omega_h^2)| = {rep.max_residual:.3e}")

print("\ncontrols:")
eh_chart = twistor.TwistorChart(kahler.get_fixture("eguchi_hanson"))
ctrl = twistor.balanced_check(twistor.ChartEval(eh_chart, eh_chart.sample(15, SEED)), None,
                              weight_mode="x_dependent")
print(f"  base-dependent weight e^{{x0}} on EH   : {ctrl.max_residual:.3e}  (not balanced)")
fs_chart = twistor.TwistorChart(kahler.get_fixture("fubini_study"))
fs = twistor.balanced_check(twistor.ChartEval(fs_chart, fs_chart.sample(10, SEED)), None)
print(f"  positive scalar curvature base (FS)  : {fs.max_residual:.3e}  (not balanced)")

# Hermitian positivity of the family, and the wedge-cone constants.
ctx = twistor.ChartEval(eh_chart, eh_chart.sample(10, SEED))
pos = twistor.hermitian_positivity(ctx, weights[1][1])
print(f"\nmin Omega_h(v, Jv) over unit v        : {pos:.4f}  (> 0)")
for a, b in ((1.0, 1.0), (2.0, 1.0), (2.0, 2.0)):
    r = twistor.cone_wedge_constants(ctx, a, b)
    print(f"a={a} b={b}:  Omega^2^fiber/vol = {r.c1:.6f} (=2a^2)   "
          f"Omega^2^tau/vol = {r.c2:.6f} (=4ab)")
