"""Curvature operators of the bundled metric fixtures, in block form.

The 6x6 matrix of the curvature operator on self-dual + anti-self-dual
2-vectors splits as

    [ W+ + Scal/12      Ric0        ]
    [ Ric0^T            W- + Scal/12]

The four fixtures realize the interesting corners: flat (everything 0),
Fubini-Study (W+ != 0, Scal = 24: the negative control for twistor
integrability), Eguchi-Hanson (hyperkahler: whole ++ block and Ric0
vanish), Burns (scalar-flat but not Ricci-flat: Ric0 survives).

The metric is evaluated once per point: a ``kahler.BaseEval`` keeps the
metric jets, and the curvature and the adapted frame are both built from
those same jets.
"""

import numpy as np

from twistorcheck import geometry as geo, kahler

np.set_printoptions(precision=5, suppress=True)

for name in ("flat", "fubini_study", "eguchi_hanson", "burns"):
    metric = kahler.get_fixture(name)
    x = metric.chart.sample(1, np.random.default_rng(1))[0]
    base = kahler.BaseEval(metric, x)  # the one evaluation of the metric
    data, basis = base.curvature(), base.basis
    op = geo.curvature_operator(data, basis)
    print(f"=== {name} at x={np.round(x, 3)}")
    print("Scal          :", float(np.round(data.scal, 10)))
    print("matrix:\n", op.matrix)
    print("trace ++ block:", float(np.trace(op.plus_block)), " (= Scal/4)")
    print("|W+|_max      :", float(np.max(np.abs(op.wplus))))
    print("|Ric0|_max    :", float(np.max(np.abs(op.ric0))))
    print()
