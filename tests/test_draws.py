"""The value-level identity checks against their per-draw loops.

The structure identities, the two Nijenhuis routes, the horizontal and
mixed Nijenhuis identities, the curvature operator and the curvature
suite's rho duality spot check evaluate all their random draws at once, in
blocks within jets.CHUNK_DOUBLES, and the Nijenhuis tensor comes from two
einsums.  tests/scalar_reference.py keeps the loops over the draws, one
draw at a time, and the four-einsum tensor.  Results must be equal bit for
bit, signs of zero included: on every fixture, at 1, 7 and 20 points, on
the plain chart and its flipped evaluation, with the draws in one block,
in blocks of two and one draw a block (the loop at large point counts).
"""

from dataclasses import astuple

import numpy as np
import pytest

import scalar_reference as ref
from twistorcheck import fibermap as fm, geometry as geo, jets, kahler, report, twistor as tw

FIXTURES = ("flat", "eguchi_hanson", "burns", "fubini_study", "conformal_hermitian")
SEED = 2024
# draws a block: all at once (the default CHUNK_DOUBLES at these point
# counts), two, one (what the default gives from 76 points)
BLOCKS = (None, 2, 1)


def assert_bits(new, old):
    new, old = np.asarray(new, dtype=float), np.asarray(old, dtype=float)
    assert new.shape == old.shape
    assert new.tobytes() == old.tobytes()  # every bit, signs of zero included


@pytest.fixture(scope="module", params=FIXTURES)
def metric(request):
    return kahler.get_fixture(request.param)


@pytest.fixture(scope="module")
def evals(metric):
    """The plain chart's ChartEval at each point count, and its flipped one."""
    chart = tw.TwistorChart(metric)
    out = {}
    for n in (1, 7, 20):
        ctx = tw.ChartEval(chart, chart.sample(n, SEED))
        out[n] = (ctx, ctx.flipped())
    return out


def draw_blocks(monkeypatch, n, per_block):
    """Patch CHUNK_DOUBLES so that the draws at ``n`` points run
    ``per_block`` to a block (unpatched for None)."""
    if per_block is not None:
        monkeypatch.setattr(jets, "CHUNK_DOUBLES", per_block * n * tw.TOTAL_DIM ** 3)
        assert len(jets.blocks(20, n * tw.TOTAL_DIM ** 3)) == 20 // per_block


@pytest.mark.parametrize("n", (1, 7, 20))
def test_nijenhuis_from_two_einsums(evals, n):
    for ctx in evals[n]:
        assert_bits(ctx.nijenhuis, ref.nijenhuis_values(ctx))


def test_nijenhuis_on_modified_charts(metric):
    prof = fm.get_profile("cylinder")
    emap = fm.solve_phi(prof, c=0.0, sign=1, branch="quadrature")
    for fmap in (emap, emap.perturbed(0.1)):
        chart = tw.TwistorChart(metric, fmap)
        ctx = tw.ChartEval(chart, chart.sample(7, SEED))
        assert_bits(ctx.nijenhuis, ref.nijenhuis_values(ctx))
        assert_bits(ctx.flipped().nijenhuis, ref.nijenhuis_values(ctx.flipped()))


@pytest.mark.parametrize("per_block", BLOCKS)
@pytest.mark.parametrize("n", (1, 7, 20))
def test_identity_checks_match_the_draw_loops(evals, n, per_block, monkeypatch):
    draw_blocks(monkeypatch, n, per_block)
    for ctx in evals[n]:
        assert_bits(tw.nijenhuis_route_agreement(ctx, n_triples=20, seed=SEED),
                    ref.route_agreement(ctx, n_triples=20, seed=SEED))
        assert_bits(astuple(tw.verify_structure_identities(ctx, n_random=6, seed=SEED)),
                    ref.structure_identities(ctx, n_random=6, seed=SEED))
        assert_bits(tw.horizontal_nijenhuis_residual(ctx, n_random=6, seed=SEED),
                    ref.horizontal_nijenhuis(ctx, n_random=6, seed=SEED))


@pytest.mark.parametrize("per_block", BLOCKS)
def test_curvature_operator_matches_the_pair_loop(metric, per_block, monkeypatch):
    for n in (1, 7, 50):
        if per_block is not None:
            monkeypatch.setattr(jets, "CHUNK_DOUBLES", per_block * n * geo.DIM ** 4)
        base = kahler.BaseEval(metric, metric.chart.sample(n, SEED))
        data = base.curvature()
        assert_bits(geo.curvature_operator(data, base.basis).matrix,
                    ref.curvature_operator_matrix(data, base.basis))
    # one unbatched point, as the tests of geometry pass it
    base = kahler.BaseEval(metric, metric.chart.sample(1, SEED)[0])
    data = base.curvature()
    assert_bits(geo.curvature_operator(data, base.basis).matrix,
                ref.curvature_operator_matrix(data, base.basis))


def test_mixed_nijenhuis_takes_stacked_draws(metric):
    prof = fm.get_profile("cylinder")
    fmap = fm.solve_phi(prof, c=0.0, sign=1, branch="quadrature").perturbed(0.1)
    chart = tw.TwistorChart(metric, fmap)
    ctx = tw.ChartEval(chart, chart.sample(7, SEED))
    rng = np.random.default_rng(SEED)
    X, Z = rng.normal(size=(2, 5, 4))
    U = rng.normal(size=(5, 2))
    each = [ref.mixed_nijenhuis(ctx, X[i], U[i], Z[i]) for i in range(5)]
    for i in range(5):
        assert_bits(tw.mixed_nijenhuis_residual(ctx, X[i], U[i], Z[i]), each[i])
    assert_bits(tw.mixed_nijenhuis_residual(ctx, X, U, Z), max(each))


def test_rho_duality_matches_the_draw_loop(metric):
    base = kahler.BaseEval(metric, metric.chart.sample(1, SEED)[0])
    data, s = base.curvature(), [b.comps for b in base.basis[:3]]
    for seed in (SEED, 7):
        assert_bits(report._rho_duality(data, s, np.random.default_rng(seed)),
                    ref.rho_duality(data, s, np.random.default_rng(seed)))


def test_draws_continue_the_generator_as_the_loop():
    # the rho duality check continues the curvature suite's generator, so
    # the batched draws leave it where the loop left it
    rngs = [np.random.default_rng(SEED) for _ in range(2)]
    burns = kahler.get_fixture("burns")
    base = kahler.BaseEval(burns, burns.chart.sample(1, SEED)[0])
    data, s = base.curvature(), [b.comps for b in base.basis[:3]]
    report._rho_duality(data, s, rngs[0])
    ref.rho_duality(data, s, rngs[1])
    assert rngs[0].normal() == rngs[1].normal()
