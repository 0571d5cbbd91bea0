"""Workload definitions and their seed-driven inputs.

Every input of a run is derived from ``--seed`` here, so the same seed
gives the same inputs.  Workload names are fixed: results are compared by them.

* ``verify_all``: each fixture's ``suite="all"`` at default point counts in
  a fresh interpreter, one after another, as ``twistorcheck verify`` runs
  it: the user's time to a certificate.
* ``dense_balanced``: ``suite="balanced"`` on Eguchi-Hanson at a large
  batch, the ``verify --points N`` path where array arithmetic dominates.
  It bypasses epsilon calibration (negligible on Eguchi-Hanson) and
  fiber-map quadrature (the plain chart uses the identity map).
"""

from __future__ import annotations

FIXTURES = ("flat", "eguchi_hanson", "burns", "fubini_study", "conformal_hermitian")

# Suite seeds a run may use.  Each has the seed commit's report pinned under
# pins/, so verdicts are checked exactly and residual drift is measurable.
CONFIG_SEEDS = (2024, 7, 11, 101, 1234, 31337, 424242, 99991)

DENSE_FIXTURE = "eguchi_hanson"
DENSE_POINTS = 400


def config_seed(seed: int) -> int:
    """The suite seed a run with benchmark seed ``seed`` uses."""
    return CONFIG_SEEDS[seed % len(CONFIG_SEEDS)]


def verify_all_specs(seed: int, trace: bool) -> list:
    return [{"mode": "suite", "fixture": f, "suite": "all", "points": None,
             "seed": config_seed(seed), "seconds": 0.0, "trace": trace, "probe": False}
            for f in FIXTURES]


def dense_spec(seed: int, seconds: float, trace: bool) -> dict:
    return {"mode": "suite", "fixture": DENSE_FIXTURE, "suite": "balanced",
            "points": DENSE_POINTS, "seed": config_seed(seed),
            "seconds": 0.0 if trace else seconds, "trace": trace, "probe": not trace}
