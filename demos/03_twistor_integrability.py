"""The integrability dichotomy on plain and modified twistor charts.

The tautological almost-complex structure is integrable exactly over
anti-self-dual bases (here: scalar-flat Kahler fixtures), and on a modified
chart exactly when the equivariant fiber map is holomorphic.  The sup-norm
of the Nijenhuis tensor over sampled chart points tells the two cases
apart by ten orders of magnitude.
"""

import numpy as np

from twistorcheck import fibermap, kahler, twistor

SEED = 7


def show(label, chart, n=25):
    ctx = twistor.ChartEval(chart, chart.sample(n, SEED))  # J, h, beta at the points
    print(f"{label:55s} max|N| = {np.max(twistor.nijenhuis_max(ctx)):.3e}")


for name in ("flat", "eguchi_hanson", "burns"):
    show(f"{name}: plain twistor chart",
         twistor.TwistorChart(kahler.get_fixture(name)))

show("fubini_study: plain twistor chart (W+ != 0, obstructed)",
     twistor.TwistorChart(kahler.get_fixture("fubini_study")))

# Modified charts over Eguchi-Hanson: the fiber is a cylinder, and the
# isothermal-coordinate solution phi = tanh(z + c) is the holomorphic map.
eh = kahler.get_fixture("eguchi_hanson")
good = fibermap.solve_phi(fibermap.cylinder_profile(), c=0.0, branch="quadrature")
show("eguchi_hanson: cylinder fiber, isothermal map", twistor.TwistorChart(eh, good))
show("eguchi_hanson: cylinder fiber, perturbed map (obstructed)",
     twistor.TwistorChart(eh, good.perturbed(0.1)))

# The same dichotomy through the independent route: the Nijenhuis tensor
# evaluated from the Levi-Civita connection of the total-space metric.
chart = twistor.TwistorChart(eh)
ctx = twistor.ChartEval(chart, chart.sample(3, SEED))
agree = np.max(twistor.nijenhuis_route_agreement(ctx, n_triples=10, seed=SEED))  # worst point
print(f"\nbracket route vs connection route (20 random triples): {agree:.3e}")
