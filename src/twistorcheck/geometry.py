"""Riemannian geometry on 4-dimensional charts.

Evaluates metrics and their curvature through jet arithmetic: Christoffel
symbols, the full Riemann tensor, the half-determinant inner product on
2-vectors, self-dual / anti-self-dual bases, and the curvature operator in
block form.  :func:`covariant_derivative` (of a 2-tensor field) and
:func:`wedge` (of two vectors) serve the base and the total space alike.
A 2-vector is a plain (..., 4, 4) array, antisymmetric by the formula that
builds it (a :func:`wedge`, sums of them, M - M^T or AB - (AB)^T); the
tests check it of :func:`sd_basis` and :func:`rho_apply`.

A metric is evaluated once per point set, by :class:`kahler.BaseEval`:
:meth:`MetricField.jets_at` returns the metric jets as one stacked (4, 4)
jet, and :func:`curvature_data` bundles those jets with the curvature
computed from them and their :func:`christoffel_jets`.  Functions
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

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import jets
from .errors import ConfigurationError, FrameError, GeometryError

DIM = 4
SAMPLE_MARGIN = 1e-2  # chart sampling keeps this fraction of each side clear


class ChartDomain:
    """A coordinate box, sampled :data:`SAMPLE_MARGIN` of each side clear of
    its faces.  Every point drawn is kept, so a fixture's box keeps clear of
    its metric's singular points (the puncture x = 0 of Burns and
    Eguchi-Hanson, where the potential's log diverges)."""

    def __init__(self, box):
        self.box = np.asarray(box, dtype=float)
        if self.box.shape != (DIM, 2) or np.any(self.box[:, 1] <= self.box[:, 0]):
            raise ConfigurationError("box must be 4 nonempty intervals")

    def sample(self, n: int, rng) -> np.ndarray:
        """``n`` points from one ``rng.uniform(size=(n, 4))`` draw: the ``n``
        points of a seed are the first ``n`` of any wider sample at it."""
        if isinstance(rng, (int, np.integer)):
            rng = np.random.default_rng(rng)
        lo = self.box[:, 0] + SAMPLE_MARGIN * (self.box[:, 1] - self.box[:, 0])
        hi = self.box[:, 1] - SAMPLE_MARGIN * (self.box[:, 1] - self.box[:, 0])
        return lo + (hi - lo) * rng.uniform(size=(n, DIM))


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
    row with stacked products, a chunk of columns at a time, on the columns
    past the pivot: nothing reads the pivot column again."""
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
        for c in space.chunks(2 * n - col - 1, n * int(np.prod(batch))):
            cols = slice(col + 1 + c.start, col + 1 + c.stop)
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
    summed over l in order; ginv is inverted at that lower order, which
    gives the leading coefficients of the full-order inverse bit for bit.
    Works for any n (also the 6x6 total-space metric).

    Only the pairs i <= j are formed, 10 of 16 on the base and 21 of 36 on
    h, each written to (i, j) and (j, i): IEEE addition commutes, so the
    full sum gives Gamma^k_{ji} the bits of Gamma^k_{ij} wherever d_l g_ij
    has the bits of d_l g_ji.  That holds for every base metric, stored
    symmetric, and for h."""
    if gjets.space.order < 1:
        raise ConfigurationError("christoffel needs metric jets of order >= 1")
    n = gjets.coeffs.shape[1]
    ginv = _inverse(gjets.truncate(gjets.space.order - 1))
    low = ginv.space
    batch = gjets.coeffs.shape[3:]
    dg = np.empty((low.ncoef, n, n, n) + batch)  # [i, j, l] = d_i g_jl
    for i in range(n):
        dg[:, i] = gjets.deriv(i).coeffs
    i, j = _pairs(n)
    s = dg[:, i, j]  # [p, l] for the pairs p = (i, j), i <= j
    s += dg[:, j, i]
    s -= dg[:, :, i, j].swapaxes(1, 2)
    del dg
    out = np.empty((low.ncoef, n, n, n) + batch)  # in the block dg freed: a lower peak RSS
    gamma = jets.contract("kl,pl->kp", ginv, jets.Jet(low, s))
    del s
    gamma.coeffs *= 0.5  # in place, on the pairs only
    out[:, :, i, j] = out[:, :, j, i] = gamma.coeffs
    return jets.Jet(low, out)


@functools.lru_cache(maxsize=None)
def _pairs(n: int) -> tuple:
    """The index pairs (i, j) with i <= j of an n x n matrix, row by row
    (``np.triu_indices`` takes longer than the rest of a one-point
    :func:`christoffel_jets`)."""
    return np.triu_indices(n)


def covariant_derivative(t: jets.Jet, gamma: np.ndarray) -> np.ndarray:
    """Values of (D_k T)_{ab} = d_k T_ab - Gamma^m_{ka} T_mb - Gamma^m_{kb} T_am
    of a stacked (n, n) jet ``t`` (order >= 1), for the Christoffel values
    ``gamma`` ([..., m, k, a] = Gamma^m_{ka}); batch axes lead, then k, a, b."""
    tv = tensor_values(t, 2)
    return (
        tensor_partials(t, 2)
        - np.einsum("...mka,...mb->...kab", gamma, tv)
        - np.einsum("...mkb,...am->...kab", gamma, tv)
    )


@dataclass
class CurvatureData:
    """Evaluated curvature bundle reused across higher-level checks; its
    stacked ``gjets`` and the values ``gamma`` of their Christoffel symbols
    serve the Kahler residuals as well."""

    gvals: np.ndarray
    ginv: np.ndarray
    gjets: jets.Jet
    gamma: np.ndarray
    rlow: np.ndarray
    ric: np.ndarray
    scal: np.ndarray
    rup: np.ndarray


def curvature_data(gjets: jets.Jet, gvals: np.ndarray, gamma_jets: jets.Jet) -> CurvatureData:
    """Full curvature (Rlow, Ric, Scal, Rup) of metric jets ``gjets`` of order
    >= 2 whose values ``gvals`` are SPD, from their Christoffel jets
    ``gamma_jets`` (:func:`christoffel_jets`); at a metric's points, read
    :meth:`kahler.BaseEval.curvature`."""
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
    return CurvatureData(gvals, ginv, gjets, gamma, rlow, ric, scal,
                         np.einsum("...lm,...ijkm->...lkij", ginv, rlow))


# ---------------------------------------------------------------------------
# 2-vectors
# ---------------------------------------------------------------------------

def wedge(X, Y) -> np.ndarray:
    """Components X^i Y^j - X^j Y^i of the 2-vector X ^ Y (batch axes lead
    and broadcast)."""
    return np.einsum("...i,...j->...ij", X, Y) - np.einsum("...j,...i->...ij", X, Y)


def _inner_kernel(gvals, B1, B2):
    """g(B1, B2) in the half-determinant metric: the einsum
    "...ij,...kl,...ik,...jl->..." of B1, B2, gvals, gvals with the product
    B1 B2 formed beforehand: the same terms in the same order (see the
    docstring of :mod:`twistorcheck.twistor`)."""
    B1B2 = np.asarray(B1)[..., :, :, None, None] * np.asarray(B2)[..., None, None, :, :]
    return 0.25 * np.einsum("...ijkl,...ik,...jl->...", B1B2, gvals, gvals)


def sd_basis(E: np.ndarray, gvals: np.ndarray) -> np.ndarray:
    """Orthonormal basis (s1,s2,s3,t1,t2,t3) of Lambda2+ + Lambda2-, stacked
    (6, ..., 4, 4), from the frame ``E`` (rows = frame vector components,
    (..., 4, 4)), whose orthonormality in the metric values ``gvals`` is
    validated to 1e-10."""
    gram = np.einsum("...ai,...ij,...bj->...ab", E, gvals, E)
    resid = np.max(np.abs(gram - np.eye(DIM)))
    if resid > 1e-10:
        raise FrameError(f"frame is not orthonormal (Gram residual {resid:.3e})")
    e = [E[..., a, :] for a in range(DIM)]
    pairs = [(wedge(e[0], e[q]), wedge(e[r], e[s])) for q, r, s in ((1, 2, 3), (2, 3, 1), (3, 1, 2))]
    return np.stack([a + b for a, b in pairs] + [a - b for a, b in pairs])


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


def rho_apply(data: CurvatureData, xi: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Derivation action rho(xi) v of the curvature on Lambda^2 TM.

    rho(X^Y)(Z^W) = R(X,Y)Z ^ W + Z ^ R(X,Y)W, extended bilinearly in xi.
    """
    A = curvature_endomorphism(data, xi)
    return np.einsum("...km,...ml->...kl", A, v) - np.einsum("...lm,...mk->...kl", A, v)


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
        return _traceless(self.plus_block)

    @property
    def wminus(self):
        return _traceless(self.minus_block)


def _traceless(block):
    tr = np.trace(block, axis1=-2, axis2=-1)
    return block - (tr[..., None, None] / 3.0) * np.eye(3)


def curvature_operator(data: CurvatureData, basis) -> CurvatureOperator:
    """Matrix of the curvature operator in an (s1,s2,s3,t1,t2,t3) basis,
    stacked as :func:`sd_basis` returns it.

    Normalized so the diagonal blocks are W+- + (Scal/12) Id: this is -1/2
    times the rho-dual endomorphism of :func:`curvature_two_vector_action`.
    """
    n = len(basis)
    batch = data.scal.shape
    # the basis stacked ahead of the batch axes of data, which it may lack
    basis = basis.reshape((n,) + (1,) * (len(batch) + 3 - basis.ndim) + basis.shape[1:])
    va = curvature_two_vector_action(data, basis)
    a, b = np.divmod(np.arange(n * n), n)  # the pairs (a, b) in row order
    M = np.empty((n * n,) + batch)
    # in blocks of pairs whose products B1 B2 in _inner_kernel fit CHUNK_DOUBLES
    for p in jets.blocks(n * n, DIM ** 4 * int(np.prod(batch))):
        M[p] = -0.5 * _inner_kernel(data.gvals, va[a[p]], basis[b[p]])
    return CurvatureOperator(np.moveaxis(M, 0, -1).reshape(batch + (n, n)))
