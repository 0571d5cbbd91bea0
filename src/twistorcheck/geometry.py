"""Riemannian geometry on 4-dimensional charts.

Evaluates metrics and their curvature through jet arithmetic: Christoffel
symbols, the full Riemann tensor, the half-determinant inner product on
2-vectors, self-dual / anti-self-dual bases, and the curvature operator in
block form.

A metric is evaluated once per point set: :meth:`MetricField.jets_at`
returns the metric jets as one stacked (4, 4) jet, and :func:`curvature_data`
bundles those jets with the curvature computed from them.  Functions
downstream take the jets or the :class:`CurvatureData` they need, never the
metric and the points again; jets carry their own truncation order.  A
tensor of jets is always one stacked jet (see :mod:`twistorcheck.jets`);
:func:`tensor_values` and :func:`tensor_partials` read its values and first
partials with the batch axes leading, the layout of every values-level
array in this package.

Conventions (fixed once, validated by the test suite):

* curvature sign: R(X,Y) = nabla_X nabla_Y - nabla_Y nabla_X - nabla_[X,Y];
  with this choice the reference Fubini-Study chart has Scal = +24.
* Rlow[i,j,k,l] = g(R(d_i, d_j) d_k, d_l).
* 2-vector inner product: g(X^Y, Z^W) = (1/2) det of the 2x2 Gram matrix;
  components store B^{ij} with b = (1/2) B^{ij} d_i ^ d_j (antisymmetric).
* the curvature operator carried by :class:`CurvatureOperator` is the block
  form W+- + (Scal/12) Id with off-diagonal traceless Ricci; as an
  endomorphism it equals -1/2 times the operator dual to the 2-form
  curvature under the Lambda2+ cross product (see :func:`rho_apply`).
* on Kahler charts <W+(s1), s1> = Scal/6 in the half-determinant metric
  (|s1|^2 = 1) and Scal/3 in the Gram-determinant metric
  g(X^Y, Z^W) = det Gram (|s1|^2 = 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import jets
from .errors import ConfigurationError, FrameError, GeometryError, UsageError

DIM = 4
SAMPLE_MARGIN = 1e-2  # chart sampling keeps this fraction of each side clear


class ChartDomain:
    """A coordinate box with an optional excluded region.

    ``exclusion`` returns True on points that must be rejected (e.g. the
    puncture of a Burns chart).  Sampling shrinks the box by
    :data:`SAMPLE_MARGIN` of each side and rejects excluded points.
    """

    def __init__(self, box, exclusion: Optional[Callable] = None):
        self.box = np.asarray(box, dtype=float)
        if self.box.shape != (DIM, 2) or np.any(self.box[:, 1] <= self.box[:, 0]):
            raise ConfigurationError("box must be 4 nonempty intervals")
        self.exclusion = exclusion

    def sample(self, n: int, rng) -> np.ndarray:
        """Draw ``n`` admissible points; deterministic for a seeded rng."""
        if isinstance(rng, (int, np.integer)):
            rng = np.random.default_rng(rng)
        lo = self.box[:, 0] + SAMPLE_MARGIN * (self.box[:, 1] - self.box[:, 0])
        hi = self.box[:, 1] - SAMPLE_MARGIN * (self.box[:, 1] - self.box[:, 0])
        out = np.empty((n, DIM))
        for i in range(n):
            for _ in range(1000):
                x = lo + (hi - lo) * rng.uniform(size=DIM)
                if self.exclusion is None or not self.exclusion(x):
                    out[i] = x
                    break
            else:
                raise GeometryError("could not sample an admissible chart point")
        return out


@dataclass(frozen=True)
class Hypotheses:
    """What a metric is declared to satisfy; the suites gate their claims on
    it.  ``scal`` is a declared nonzero constant scalar curvature."""

    kahler: bool = False
    scalar_flat: bool = False
    flat: bool = False
    scal: Optional[float] = None


class MetricField:
    """Smooth metric components over a chart, evaluable on jets.

    ``component_fn`` maps a tuple of 4 coordinate jets to a nested 4x4 list
    of jets g_{ij}.  Subclasses (potential-derived metrics) may override
    :meth:`jets_at` entirely.
    """

    hypotheses = Hypotheses()  # a bare metric declares nothing; see kahler.FIXTURES

    def __init__(self, chart: ChartDomain, component_fn, name: str = "custom"):
        self.chart = chart
        self._fn = component_fn
        self.name = name

    def jets_at(self, x, order: int) -> jets.Jet:
        """The g_{ij} jets of order ``order`` at ``x``, stacked (4, 4)."""
        with np.errstate(over="ignore", invalid="ignore"):
            gjets = jets.stack(self._fn(jets.seed_raw(np.asarray(x, dtype=float), order)))
        return check_finite(gjets, x)


def _batch_leading(arr: np.ndarray, ndim: int) -> np.ndarray:
    """``arr`` with its first ``ndim`` axes moved behind the rest, C-contiguous."""
    return np.ascontiguousarray(np.moveaxis(arr, range(ndim), range(arr.ndim - ndim, arr.ndim)))


def tensor_values(stacked: jets.Jet, ndim: int) -> np.ndarray:
    """Values of a stacked jet with ``ndim`` tensor axes, batch axes leading."""
    return _batch_leading(stacked.value, ndim)


def tensor_partials(stacked: jets.Jet, ndim: int) -> np.ndarray:
    """First partials of a stacked jet with ``ndim`` tensor axes, batch axes
    leading: [..., k, *tensor] = d_k of the component, one gather."""
    return _batch_leading(stacked.partials(), ndim + 1)


def _inverse(m: jets.Jet) -> jets.Jet:
    """Gauss-Jordan inverse (no pivoting) of a stacked (n, n) jet matrix,
    valid while the leading principal minors stay nonsingular (SPD metrics
    qualify).  Each pivot step scales the pivot row and updates every other
    row with stacked products, a chunk of columns at a time."""
    space, n = m.space, m.coeffs.shape[1]
    batch = m.coeffs.shape[3:]
    one = m.coeffs[:, 0, 0] * 0  # as the scalar loop built it, signed zeros included
    one[0] = one[0] + 1.0
    a = np.empty(m.coeffs.shape[:2] + (2 * n,) + batch)
    a[:, :, :n] = m.coeffs
    a[:, :, n:] = (one * 0.0)[:, None, None]
    a[:, range(n), range(n, 2 * n)] = one[:, None]
    for col in range(n):
        piv = (1.0 / jets.Jet(space, a[:, col, col])).coeffs[:, None]
        rows = [r for r in range(n) if r != col]
        f = a[:, rows, col, None]
        for c in space.chunks(2 * n - col, n * int(np.prod(batch))):
            cols = slice(col + c.start, col + c.stop)
            a[:, col, cols] = space.multiply(a[:, col, cols], piv)
            a[:, rows, cols] -= space.multiply(f, a[:, None, col, cols])
    return jets.Jet(space, a[:, :, n:].copy())


def _at(x, bad) -> str:
    """`` at x=...``, the first point whose batch index is a row of ``bad``."""
    return "" if x is None else f" at x={np.asarray(x)[bad[0][0]] if np.asarray(x).ndim > 1 else x}"


def check_finite(gjets: jets.Jet, x) -> jets.Jet:
    """``gjets``, the metric jets at ``x``; GeometryError (naming the point)
    if any coefficient is not finite, as a fixture parameter that overflows
    inside the potential leaves it."""
    finite = np.isfinite(gjets.coeffs).all(axis=(0, 1, 2))
    if not np.all(finite):
        raise GeometryError(f"metric jets are not finite{_at(x, np.argwhere(~finite))}")
    return gjets


def check_spd(gvals: np.ndarray, x=None):
    """Raise GeometryError (naming the point) unless g is finite and SPD."""
    finite = np.isfinite(gvals).all(axis=(-2, -1))
    if not np.all(finite):
        raise GeometryError(f"metric values are not finite{_at(x, np.argwhere(~finite))}")
    ev = np.linalg.eigvalsh(gvals)
    if np.any(ev <= 0.0):
        bad = np.argwhere(ev <= 0.0)
        raise GeometryError(f"metric is not positive definite{_at(x, bad)} (eigenvalues {ev[tuple(bad[0][:-1])]})")


# ---------------------------------------------------------------------------
# Christoffel symbols and curvature
# ---------------------------------------------------------------------------

def christoffel_jets(gjets: jets.Jet) -> jets.Jet:
    """Gamma[k, i, j] = Gamma^k_{ij} = (1/2) sum_l ginv[k, l] (d_i g_jl +
    d_j g_il - d_l g_ij) of a stacked (n, n) metric jet, one order below it,
    summed over l in order.  Works for any n (also the 6x6 total-space
    metric)."""
    if gjets.space.order < 1:
        raise ConfigurationError("christoffel needs metric jets of order >= 1")
    n = gjets.coeffs.shape[1]
    low = jets.get_space(gjets.space.n_vars, gjets.space.order - 1)
    ginv = jets.Jet(low, _inverse(gjets).coeffs[:low.ncoef].copy())
    batch = gjets.coeffs.shape[3:]
    dg = np.empty((low.ncoef, n, n, n) + batch)  # [i, j, l] = d_i g_jl
    for i in range(n):
        dg[:, i] = gjets.deriv(i).coeffs
    s = dg + dg.swapaxes(1, 2)
    s -= np.moveaxis(dg, 1, 3)  # [i, j, l]
    del dg
    gamma = jets.contract("kl,ijl->kij", ginv, jets.Jet(low, s))
    gamma.coeffs *= 0.5  # in place: no second array of the size of gamma
    return gamma


@dataclass
class CurvatureData:
    """Evaluated curvature bundle reused across higher-level checks; its
    stacked ``gjets``, their Christoffel jets ``gamma_jets`` and the values
    ``gamma`` of those serve the adapted frame, beta and the Kahler
    residuals as well."""

    gvals: np.ndarray
    ginv: np.ndarray
    gjets: jets.Jet
    gamma_jets: jets.Jet
    gamma: np.ndarray
    rlow: np.ndarray
    ric: np.ndarray
    scal: np.ndarray
    rup: np.ndarray


def curvature_data(metric: MetricField, x) -> CurvatureData:
    """Full curvature at x (Rlow, Ric, Scal, Rup) from one order-2 evaluation."""
    gjets = metric.jets_at(x, 2)
    gvals = tensor_values(gjets, 2)
    check_spd(gvals, x)
    return _curvature_from_jets(gjets, gvals, christoffel_jets(gjets))


def _curvature_from_jets(gjets, gvals, gamma_jets) -> CurvatureData:
    """Curvature of metric jets of order >= 2 whose values ``gvals`` are SPD,
    from their Christoffel jets ``gamma_jets`` (:func:`christoffel_jets`)."""
    gamma = tensor_values(gamma_jets, 3)
    dgamma = tensor_partials(gamma_jets, 3)  # [..., i, l, j, k] = d_i Gamma^l_{jk}
    # R(d_i, d_j) d_k = Rup[..., l, k, i, j] d_l
    rup = (
        np.einsum("...iljk->...lkij", dgamma)
        - np.einsum("...jlik->...lkij", dgamma)
        + np.einsum("...lim,...mjk->...lkij", gamma, gamma)
        - np.einsum("...ljm,...mik->...lkij", gamma, gamma)
    )
    rlow = np.einsum("...lm,...mkij->...ijkl", gvals, rup)
    ric = np.einsum("...kjki->...ij", rup)
    ginv = np.linalg.inv(gvals)
    scal = np.einsum("...ij,...ij->...", ginv, ric)
    # the curvature actions consume Rup raised back from Rlow
    return CurvatureData(gvals, ginv, gjets, gamma_jets, gamma, rlow, ric, scal,
                         np.einsum("...lm,...ijkm->...lkij", ginv, rlow))


# ---------------------------------------------------------------------------
# 2-vectors
# ---------------------------------------------------------------------------

class TwoVector:
    """Element of Lambda^2 TM in coordinate components B^{ij} = -B^{ji}."""

    __slots__ = ("comps",)

    def __init__(self, comps):
        comps = np.asarray(comps, dtype=float)
        if comps.shape[-2:] != (DIM, DIM):
            raise UsageError("two-vector components must be 4x4")
        if np.max(np.abs(comps + np.swapaxes(comps, -1, -2))) > 1e-12 * max(1.0, np.max(np.abs(comps))):
            raise UsageError("two-vector components must be antisymmetric")
        self.comps = comps

    @staticmethod
    def wedge(X, Y) -> "TwoVector":
        X = np.asarray(X, float)
        Y = np.asarray(Y, float)
        return TwoVector(np.einsum("...i,...j->...ij", X, Y) - np.einsum("...j,...i->...ij", X, Y))

    def __add__(self, other):
        return TwoVector(self.comps + other.comps)

    def __sub__(self, other):
        return TwoVector(self.comps - other.comps)

    def __mul__(self, s):
        return TwoVector(self.comps * s)

    __rmul__ = __mul__

    def __neg__(self):
        return TwoVector(-self.comps)


def _inner_kernel(gvals, B1, B2):
    return 0.25 * np.einsum("...ij,...kl,...ik,...jl->...", B1, B2, gvals, gvals)


def sd_basis(E: np.ndarray, gvals: np.ndarray):
    """Orthonormal basis (s1,s2,s3,t1,t2,t3) of Lambda2+ + Lambda2- from the
    frame ``E`` (rows = frame vector components, (..., 4, 4)), whose
    orthonormality in the metric values ``gvals`` is validated to 1e-10."""
    gram = np.einsum("...ai,...ij,...bj->...ab", E, gvals, E)
    resid = np.max(np.abs(gram - np.eye(DIM)))
    if resid > 1e-10:
        raise FrameError(f"frame is not orthonormal (Gram residual {resid:.3e})")
    e = [E[..., a, :] for a in range(DIM)]
    w = TwoVector.wedge
    s1 = w(e[0], e[1]) + w(e[2], e[3])
    s2 = w(e[0], e[2]) + w(e[3], e[1])
    s3 = w(e[0], e[3]) + w(e[1], e[2])
    t1 = w(e[0], e[1]) - w(e[2], e[3])
    t2 = w(e[0], e[2]) - w(e[3], e[1])
    t3 = w(e[0], e[3]) - w(e[1], e[2])
    return s1, s2, s3, t1, t2, t3


# ---------------------------------------------------------------------------
# Curvature acting on 2-vectors
# ---------------------------------------------------------------------------

def curvature_two_vector_action(data: CurvatureData, v: np.ndarray) -> np.ndarray:
    """Endomorphism dual to the connection curvature on Lambda2 ("rho-dual").

    Defined by <Rhat(v), w> = (1/4) v^{ij} w^{kl} Rlow_{ijkl} in the
    half-determinant metric; satisfies the cross-product duality checked by
    :func:`rho_apply` tests.  Returns components of Rhat(v).
    """
    x_low = np.einsum("...ij,...ijkl->...kl", v, data.rlow)
    return np.einsum("...ka,...ab,...lb->...kl", data.ginv, x_low, data.ginv)


def curvature_endomorphism(data: CurvatureData, xi: np.ndarray) -> np.ndarray:
    """R(xi) in End(TM): bilinear extension of R(X,Y) over xi = X^Y."""
    return 0.5 * np.einsum("...ij,...lkij->...lk", xi, data.rup)


def rho_apply(data: CurvatureData, xi: TwoVector, v: TwoVector) -> TwoVector:
    """Derivation action rho(xi) v of the curvature on Lambda^2 TM.

    rho(X^Y)(Z^W) = R(X,Y)Z ^ W + Z ^ R(X,Y)W, extended bilinearly in xi.
    """
    A = curvature_endomorphism(data, xi.comps)
    B = v.comps
    out = np.einsum("...km,...ml->...kl", A, B) - np.einsum("...lm,...mk->...kl", A, B)
    return TwoVector(out)


@dataclass
class CurvatureOperator:
    """6x6 block matrix of the curvature operator on Lambda2+ + Lambda2-."""

    matrix: np.ndarray

    @property
    def plus_block(self):
        return self.matrix[..., 0:3, 0:3]

    @property
    def minus_block(self):
        return self.matrix[..., 3:6, 3:6]

    @property
    def ric0(self):
        return self.matrix[..., 0:3, 3:6]

    @property
    def wplus(self):
        pb = self.plus_block
        tr = np.trace(pb, axis1=-2, axis2=-1)
        return pb - (tr[..., None, None] / 3.0) * np.eye(3)

    @property
    def wminus(self):
        mb = self.minus_block
        tr = np.trace(mb, axis1=-2, axis2=-1)
        return mb - (tr[..., None, None] / 3.0) * np.eye(3)


def curvature_operator(data: CurvatureData, basis) -> CurvatureOperator:
    """Matrix of the curvature operator in an (s1,s2,s3,t1,t2,t3) basis.

    Normalized so the diagonal blocks are W+- + (Scal/12) Id: this is -1/2
    times the rho-dual endomorphism of :func:`curvature_two_vector_action`.
    """
    comps = [b.comps for b in basis]
    n = len(comps)
    batch = data.scal.shape
    M = np.empty(batch + (n, n))
    for a in range(n):
        va = curvature_two_vector_action(data, comps[a])
        for b in range(n):
            M[..., a, b] = -0.5 * _inner_kernel(data.gvals, va, comps[b])
    return CurvatureOperator(M)
