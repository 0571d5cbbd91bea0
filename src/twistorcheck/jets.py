"""Truncated multivariate Taylor ("jet") arithmetic.

Every curvature, connection and exterior-derivative computation in this
package differentiates smooth fields by evaluating them on jets instead of
using finite differences.  A jet stores the raw Taylor coefficients c_alpha
of an expansion f(x0 + t) = sum_alpha c_alpha t^alpha truncated at a fixed
total degree; partial derivatives are recovered exactly (for polynomial
inputs) as c_alpha * alpha!.

Conventions
-----------
* Coefficients are stored densely over all multi-indices of total degree
  <= order, in graded lexicographic order.
* ``extract`` multiplies the raw coefficient by the multi-index factorial,
  so it returns the partial derivative itself.
* A coefficient array has shape ``(ncoef, *tensor, *batch)``.  Batch axes
  hold the same field at many chart points; tensor axes, between the
  coefficient axis and the batch axes, hold the components of a tensor
  field, so one ``JetSpace.multiply`` call multiplies all components of a
  product at once.  It indexes axis 0 only; the axes past the first
  broadcast numpy-style, aligned from the right.  So an unbatched operand
  times a batched one needs size-1 axes: coefficients ``(ncoef,)`` times
  ``(ncoef, 5)`` (or any operands with different numbers of axes) raise
  ``ValueError``, ``(ncoef, 1)`` times ``(ncoef, 5)`` give
  ``(ncoef, 5)``, and ``Jet.constant(space, v, (1,))`` builds the padded
  form.
  Indexing a jet selects tensor components (``g[i, j]`` is a view of one
  component of a stacked metric jet); :func:`stack` builds a stacked jet
  from a nested list of jets, and :meth:`Jet.partials` gathers the first
  partials of every component at once.
* Every stacked sum of products runs in one kernel,
  :meth:`JetSpace.sum_terms`, from a :class:`Terms` grid that lists each
  output's terms in the order of the scalar loop it replaces: each term
  multiplies its factors left to right and the terms are added one at a
  time in that order, so the coefficients equal those of the loop bit for
  bit.  :func:`contract` compiles an einsum spec such as ``"ma,mb->ab"``
  to a grid.  ``np.add.reduce`` does not promise that order: along a
  contiguous axis (batch of one, or no batch axis) it sums pairwise.
* ``JetSpace.multiply`` adds the terms ``p0, p1, ..., pm`` of each
  coefficient in the order of ``np.add.reduceat``: ``p0 +`` numpy's
  pairwise sum of the tail ``p1 ... pm``.  numpy sums a tail of fewer than
  8 terms left to right, ``(p1 + p2) + ...``; a tail of 8 to 128 terms in
  eight accumulators ``r_j = p(1+j) + p(9+j) + ...`` over its whole blocks
  of 8, combined as ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))``,
  then the last m mod 8 terms one at a time.  One kernel sums the products
  in that order by layers, on every space and at every batch size: one
  rank of term (or one block of 8) at a time across all coefficients that
  have it, in a few large array operations instead of one inner loop per
  coefficient and trailing element.  Its bits, signs of zero included, are
  those of ``reduceat``, which the tests keep as its oracle.
* The elementary functions, ``Jet._reciprocal`` (and so ``/``) and
  :func:`compose_univariate` compose a series F with a jet u by Horner's
  scheme ``r <- r w + c_k`` in w = u - u0 at rising order: step j of N
  multiplies in the space of order j, r padded with +0.0 at degree j and w
  cut there.  w has no constant term, so the N - j products still to come
  raise every degree of r, and only its degrees <= j reach the result
  (Griewank & Walther, *Evaluating Derivatives*, ch. 13).  At a dense
  (4, 4) jet that is 714 products where full order forms 1980.  Each
  coefficient keeps the terms and the order of the full-order product but
  one: the last term of each degree-j coefficient, r_gamma w0 with
  w0 = +0.0, is (+0.0)(+0.0).  That term is a zero, so only a zero sum
  can tell, by its sign: the result equals the full-order one coefficient
  for coefficient, and the tests find its bytes equal wherever no Taylor
  coefficient c_1 ... c_N of F vanishes.  Where one does (tanh and atan
  at u0 = 0, or an outer jet with a zero coefficient), a coefficient zero
  at both orders may be +0.0 where full order gives -0.0.  Where an
  intermediate above a step's degree overflows, full order forms
  inf * (+0.0) = NaN and carries it on; rising order does not form it,
  so it is non-finite only where full order is.
* :meth:`JetSpace.sum_terms` leaves out every cell that reads a component
  of a factor which is +0.0 or -0.0 in every coefficient at every point,
  found in the data at the call (:meth:`Terms.skip_zeros`).  A cell is
  formed whole or not at all and an output adds its terms one at a time,
  so every nonzero sum keeps its bits; only a zero sum can tell, by its
  sign (-0.0, or its ``init``, where the whole grid may give +0.0).  That
  needs finite factors, as a skipped 0 * inf would have been NaN: those of
  a run are, being built from metric jets that passed
  ``geometry.check_finite``.  ``JetSpace.multiply`` never skips, as it sums
  long tails pairwise.  The tests find every report byte-identical with
  every cell formed (:func:`nonzero_components` patched to "all live").
* Dividing by a jet whose constant term vanishes is an error (no Laurent
  extension).
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, UndefinedError, UsageError

__all__ = [
    "Jet",
    "JetSpace",
    "get_space",
    "seed",
    "exp",
    "log",
    "sqrt",
    "sin",
    "cos",
    "atan",
    "tanh",
    "antiderivative",
    "stack",
    "contract",
    "Terms",
    "nonzero_components",
    "blocks",
]

# Orders 1..3 are the public contract; internal evaluations (e.g. deriving a
# metric from a Kahler potential) sit at caller order + 2.
MAX_ORDER = 6

# Doubles one JetSpace.multiply call of a stacked product may form (256 kB);
# longer products run in blocks (see JetSpace.sum_terms and JetSpace.chunks),
# and so do the random draws of the value-level checks of twistor and
# geometry (see :func:`blocks`).
CHUNK_DOUBLES = 1 << 15


@functools.lru_cache(maxsize=None)
def get_space(n_vars: int, order: int) -> "JetSpace":
    return JetSpace(n_vars, order)


class JetSpace:
    """Index bookkeeping for jets with ``n_vars`` variables at a fixed order.

    Holds the multi-index enumeration, the truncated-convolution table used
    for products, and per-variable differentiation maps.  Instances are
    cached; always obtain them through :func:`get_space`.
    """

    def __init__(self, n_vars: int, order: int):
        if n_vars < 1:
            raise ConfigurationError(f"n_vars must be >= 1, got {n_vars}")
        if not (0 <= order <= MAX_ORDER):
            raise ConfigurationError(f"jet order must be in 0..{MAX_ORDER}, got {order}")
        self.n_vars = n_vars
        self.order = order
        self.multi_indices = [
            alpha
            for deg in range(order + 1)
            for alpha in itertools.combinations_with_replacement(range(n_vars), deg)
            for alpha in [_tuple_to_alpha(alpha, n_vars)]
        ]
        self.index = {alpha: i for i, alpha in enumerate(self.multi_indices)}
        self.ncoef = len(self.multi_indices)
        self._factorials = np.array(
            [float(np.prod([math.factorial(k) for k in a])) for a in self.multi_indices]
        )
        self._build_mul_table()
        self._deriv_maps = self._build_deriv_maps() if order > 0 else None

    def _build_mul_table(self):
        """The pairs (i, j) of multi-indices whose sum has degree <= order,
        i then j ascending, stably sorted by the index k of their sum: each
        coefficient's terms in loop order.  Each sum is looked up among the
        sorted multi-indices, each one record compared entry by entry."""
        alpha = np.array(self.multi_indices).reshape(self.ncoef, self.n_vars)
        deg = alpha.sum(axis=1)
        i, j = np.nonzero(deg[:, None] + deg <= self.order)
        records = lambda a: np.ascontiguousarray(a).view([("", a.dtype)] * self.n_vars).ravel()
        keys = records(alpha)
        by_key = np.argsort(keys)
        k = by_key[np.searchsorted(keys[by_key], records(alpha[i] + alpha[j]))]
        perm = np.argsort(k, kind="stable")
        self._mul_i = i[perm]
        self._mul_j = j[perm]
        self.npairs = len(k)
        k_sorted = k[perm]
        # every target index occurs (alpha = alpha + 0), so every coefficient has a start
        self._mul_starts = np.searchsorted(k_sorted, np.arange(self.ncoef))
        self._layers = self._build_layers()

    def _build_layers(self):
        """The product table of :meth:`multiply`.  Its rows are the
        coefficients with two or more terms ``p0, p1, ..., pm``, most terms
        first; the first term is ``(0, k)`` in every row and needs no table.
        A row's tail ``p1 ... pm`` is m = 8 q + s terms, and the table has
        two parts:

        * ``(rows, short)``, the rows with q = 0;
        * ``(rows, blocks, ranks)``, the rows with q >= 1: ``blocks[b]`` is
          ``(n, i, j)``, the pairs (i, j) of terms ``p(8b+1) ... p(8b+8)``
          of the first n of them, those with q > b, as (n, 8) arrays.

        ``short`` and ``ranks`` list ``(lo, hi, i, j)``, the pairs of term
        ``p(8q+t+1)`` of the rows lo..hi-1 of their part, those with a
        given q and s > t: a contiguous range, as rows of one q sort by s.
        Where a row of the table is a range or a constant, it is a slice.
        A tail has at most 2**MAX_ORDER - 1 = 63 terms (of x0 x1 ... x5),
        so numpy sums it in one pairwise block of up to 128."""
        starts = self._mul_starts
        counts = np.diff(np.append(starts, self.npairs))
        rows = np.argsort(-counts, kind="stable")[: np.count_nonzero(counts > 1)]
        q, s = divmod(counts[rows] - 1, 8)
        term = starts[rows] + 1  # pair index of p1, by row

        def rest(qv, lo):
            """The terms after the blocks of the rows with q = qv, which
            start at row lo of their part."""
            out = []
            for t in range(7):
                n = np.count_nonzero(s[q == qv] > t)
                if n:
                    at = term[q == qv][:n] + 8 * qv + t
                    out.append((lo, lo + n, _as_slice(self._mul_i[at]), _as_slice(self._mul_j[at])))
            return out

        blocks = []
        for b in range(q.max(initial=0)):
            at = term[q > b, None] + 8 * b + np.arange(8)
            blocks.append((len(at), self._mul_i[at], self._mul_j[at]))
        ranks = [r for qv in range(1, q.max(initial=0) + 1) for r in rest(qv, np.count_nonzero(q > qv))]
        return (_as_slice(rows[q == 0]), rest(0, 0)), (_as_slice(rows[q > 0]), blocks, ranks)

    def _build_deriv_maps(self):
        """(src, fac), each (n_vars, lower ncoef): coefficient i of d_var is
        fac[var, i] times coefficient src[var, i], of multi-index i + e_var."""
        lower = np.array(get_space(self.n_vars, self.order - 1).multi_indices)
        shifted = lower[None] + np.eye(self.n_vars, dtype=int)[:, None]  # [var, i]
        src = np.array([[self.index[tuple(a)] for a in row] for row in shifted.tolist()])
        return src, np.diagonal(shifted, axis1=0, axis2=2).T.astype(float)

    def multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Coefficients of the product of the jets with coefficients ``a``
        and ``b``.  The axes past the first broadcast numpy-style, aligned
        from the right: an unbatched operand times a batched one needs
        size-1 axes, as ``Jet.constant(space, v, batch_shape)`` with a
        ``batch_shape`` of ones gives, and operands with different numbers
        of axes raise ``ValueError``.

        Each coefficient's terms are added as ``np.add.reduceat`` adds them
        (see "Conventions"), by layers at every size: a few array operations
        per rank of term (or block of 8 terms) across all coefficients that
        have it.  A short tail is summed left to right; a long one in eight
        accumulators over its whole blocks of 8, their tree
        ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))``, then its last
        terms one at a time; then ``p0 +`` the tail's sum."""
        if a.ndim != b.ndim:
            raise ValueError(f"jet coefficients {a.shape} and {b.shape} do not line up")
        (rows, short), (long_rows, blocks, ranks) = self._layers
        out = a[:1] * b
        if short:
            (_, _, i, j), *rest = short
            tails = a[i] * b[j]
            for lo, hi, i, j in rest:
                tails[lo:hi] += a[i] * b[j]
            out[rows] += tails
        if blocks:
            (_, i, j), *rest = blocks
            acc = a[i] * b[j]
            for n, i, j in rest:
                acc[:n] += a[i] * b[j]
            np.add(acc[:, 0::2], acc[:, 1::2], out=acc[:, 0::2])
            np.add(acc[:, 0::4], acc[:, 2::4], out=acc[:, 0::4])
            tails = acc[:, 0]
            tails += acc[:, 4]
            for lo, hi, i, j in ranks:
                tails[lo:hi] += a[i] * b[j]
            out[long_rows] += tails
        return out

    def sum_terms(self, factors, terms: "Terms", init=None) -> np.ndarray:
        """Coefficients ``(ncoef, outputs, *batch)`` of the sums of the grid
        ``terms`` over the coefficient arrays ``factors``: each output adds
        its terms one at a time in rank order onto -0.0 (which changes no
        sum) or onto ``init``, which then receives the sums in place.  The
        cells that read a component of a factor that is +0.0 or -0.0
        everywhere are left out (:meth:`Terms.skip_zeros`, see
        "Conventions").  Products run in blocks within CHUNK_DOUBLES: as
        many columns as a block holds one rank of, up to the last that has
        its first rank, and as many ranks as fit."""
        terms = terms.skip_zeros(factors)
        ranks, n_out = terms.pad.shape
        batch = np.broadcast_shapes(*(f.shape[1 + len(ix):] for f, ix in zip(factors, terms.index)))
        out = np.full((self.ncoef, n_out) + batch, -0.0) if init is None else init
        for o in self.chunks(n_out, math.prod(batch)):
            dest = o if terms.cols is None else terms.cols[o]
            acc = np.ascontiguousarray(out[:, dest])  # sums onto it need no buffers (out, for a full slice)
            for r in self.chunks(ranks, (o.stop - o.start) * math.prod(batch)):
                stop = o.stop if terms.reach is None else min(o.stop, terms.reach[r.start])
                if stop <= o.start:
                    break
                prod = self._products(factors, terms, r, slice(o.start, stop))
                part = acc[:, :stop - o.start]
                for t in range(r.stop - r.start):  # a product constant along the ranks has one
                    part += prod[:, min(t, prod.shape[1] - 1)]
                del prod  # before the next block's products
            out[:, dest] = acc
        return out

    def _products(self, factors, terms, r, o):
        """The products of the cells (r, o), ``(ncoef, ranks or 1, outputs or
        1, *batch)``: factors left to right, then the sign, -0.0 in padding."""
        def cells(grid):  # an axis of length 1 broadcasts
            return grid[r if grid.shape[0] > 1 else slice(None), o if grid.shape[1] > 1 else slice(None)]

        prod = None
        for f, ix in zip(factors, terms.index):
            sel = f[(slice(None),) + tuple(map(cells, ix))] if ix else f[:, None, None]
            prod = sel if prod is None else self.multiply(prod, sel)
            del sel
        if terms.sign is not None:  # a new array of every cell: the padding can be written
            prod = prod * _col(terms.sign[r, o], prod.ndim - 1)
            prod[:, terms.pad[r, o]] = -0.0
        return prod

    def chunks(self, count: int, term_size: int) -> list:
        """Slices covering ``range(count)`` terms, each small enough that a
        product of terms of ``term_size`` values stays within CHUNK_DOUBLES."""
        return blocks(count, self.npairs * max(term_size, 1))

    def zero_coeffs(self, batch_shape=()):
        return np.zeros((self.ncoef,) + batch_shape)

    def embed_map(self, src: "JetSpace", var_map: tuple) -> np.ndarray:
        """Indices in ``self`` for each multi-index of ``src`` placed at ``var_map``."""
        out = np.empty(src.ncoef, dtype=int)
        for i, alpha in enumerate(src.multi_indices):
            beta = [0] * self.n_vars
            for v, a in zip(var_map, alpha):
                beta[v] = a
            out[i] = self.index[tuple(beta)]
        return out


def blocks(count: int, size: int) -> list:
    """Slices covering ``range(count)`` items of ``size`` doubles each, each
    slice as many items as fit in CHUNK_DOUBLES, and at least one."""
    step = max(1, CHUNK_DOUBLES // max(size, 1))
    return [slice(s, min(s + step, count)) for s in range(0, count, step)]


def _as_slice(idx):
    """``idx`` as a slice where it is a range, or one row where all its
    entries are equal (which broadcasts against the other operand's
    rows); otherwise ``idx`` itself."""
    step = int(idx[1] - idx[0]) if len(idx) > 1 else 1
    if len(idx) == 0 or np.any(np.diff(idx) != step):
        return idx
    start = int(idx[0])
    if step == 0:
        return slice(start, start + 1)
    stop = start + step * len(idx)
    return slice(start, stop if stop >= 0 else None, step)


def _tuple_to_alpha(combo, n_vars):
    alpha = [0] * n_vars
    for v in combo:
        alpha[v] += 1
    return tuple(alpha)


class Jet:
    """A truncated Taylor expansion; supports ring arithmetic and composition.

    Pure value semantics: every operation returns a fresh ``Jet``.
    """

    __slots__ = ("space", "coeffs")
    __array_priority__ = 100  # beat ndarray in mixed binary ops

    def __init__(self, space: JetSpace, coeffs: np.ndarray):
        self.space = space
        self.coeffs = coeffs

    # -- constructors ----------------------------------------------------
    @staticmethod
    def constant(space: JetSpace, value, batch_shape=()):
        value = np.asarray(value, dtype=float)
        coeffs = space.zero_coeffs(batch_shape if value.shape == () else value.shape)
        coeffs[0] = value
        return Jet(space, coeffs)

    @staticmethod
    def variable(space: JetSpace, var: int, value):
        value = np.asarray(value, dtype=float)
        coeffs = space.zero_coeffs(value.shape)
        coeffs[0] = value
        if space.order >= 1:
            e = tuple(1 if i == var else 0 for i in range(space.n_vars))
            coeffs[space.index[e]] = 1.0
        return Jet(space, coeffs)

    # -- basic accessors -------------------------------------------------
    @property
    def value(self):
        return self.coeffs[0]

    @property
    def shape(self):
        """Tensor and batch axes of the coefficient array (all but axis 0)."""
        return self.coeffs.shape[1:]

    @property
    def order(self):
        return self.space.order

    def extract(self, multi_index):
        """Partial derivative d^{multi_index} f at the expansion point."""
        multi_index = tuple(int(k) for k in multi_index)
        if len(multi_index) != self.space.n_vars or any(k < 0 for k in multi_index):
            raise UsageError(f"bad multi-index {multi_index} for {self.space.n_vars} variables")
        if sum(multi_index) > self.space.order:
            raise UsageError(
                f"multi-index {multi_index} exceeds jet order {self.space.order}"
            )
        i = self.space.index[multi_index]
        return self.coeffs[i] * self.space._factorials[i]

    def deriv(self, var, comp=...) -> "Jet":
        """Jet of the partial derivative along ``var`` (order drops by one).
        With index arrays ``var`` and ``comp``, the jets d_{var[t]} of the
        components ``comp[t]`` of a jet with one tensor axis, stacked along
        that axis: many partial derivatives in one gather."""
        if self.space.order == 0:
            raise UsageError("cannot differentiate an order-0 jet")
        src, fac = (m[var].T for m in self.space._deriv_maps)
        lower = get_space(self.space.n_vars, self.space.order - 1)
        d = self.coeffs[src, comp]
        d *= _col(fac, d.ndim)  # in place: no second array of the size of d
        return Jet(lower, d)

    def partials(self) -> np.ndarray:
        """Values of the first partials d_k f, k = 0..n_vars-1, on a new
        leading axis: the value of every :meth:`deriv` in one gather (the
        degree-1 coefficients follow the constant one in graded-lex order)."""
        if self.space.order == 0:
            raise UsageError("cannot differentiate an order-0 jet")
        return self.coeffs[1:1 + self.space.n_vars]

    def __getitem__(self, idx) -> "Jet":
        """The tensor component(s) ``idx`` of a stacked jet, as a view."""
        idx = idx if isinstance(idx, tuple) else (idx,)
        return Jet(self.space, self.coeffs[(slice(None),) + idx])

    def head(self, n: int) -> "Jet":
        """The jet at the first ``n`` entries of its last batch axis, copied."""
        return Jet(self.space, self.coeffs[..., :n].copy())

    def truncate(self, order: int) -> "Jet":
        if order == self.space.order:
            return self
        if order > self.space.order:
            raise UsageError("cannot truncate to a higher order")
        target = get_space(self.space.n_vars, order)
        return Jet(target, self.coeffs[: target.ncoef].copy())

    def embed(self, space: JetSpace, var_map=None) -> "Jet":
        """Reinterpret in a larger space, placing variables at ``var_map``."""
        if var_map is None:
            var_map = tuple(range(self.space.n_vars))
        idx = space.embed_map(self.space, tuple(var_map))
        coeffs = space.zero_coeffs(self.coeffs.shape[1:])
        coeffs[idx] = self.coeffs
        return Jet(space, coeffs)

    # -- ring operations -------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, Jet):
            if other.space is not self.space:
                raise UsageError("jets from different spaces cannot be combined")
            return other
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is not None:
            return Jet(self.space, self.coeffs + o.coeffs)
        coeffs = self.coeffs.copy()
        coeffs[0] = coeffs[0] + other
        return Jet(self.space, coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -np.asarray(other))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Jet(self.space, -self.coeffs)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is not None:
            return Jet(self.space, self.space.multiply(self.coeffs, o.coeffs))
        return Jet(self.space, self.coeffs * np.asarray(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is not None:
            return self * o._reciprocal()
        return Jet(self.space, self.coeffs / np.asarray(other))

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def __pow__(self, k):
        if not isinstance(k, (int, np.integer)) or k < 0:
            raise UsageError("jet powers must be nonnegative integers; use sqrt/exp/log")
        result = Jet.constant(self.space, 1.0, self.coeffs.shape[1:])
        base = self
        k = int(k)
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def _reciprocal(self):
        u0 = self.coeffs[0]
        if np.any(np.abs(u0) < 1e-300):
            raise UndefinedError("division by a jet with zero constant term")
        vals = [1.0 / u0]
        for k in range(1, self.space.order + 1):
            vals.append(((-1.0) ** k) / u0 ** (k + 1))
        return _apply_series(self, _series_axis(vals))

    def __repr__(self):
        return f"Jet(n={self.space.n_vars}, order={self.space.order}, value={self.value})"


def _col(arr, ndim):
    """Reshape a factor so it broadcasts against coefficients of ``ndim``
    axes, matching their leading axes."""
    return arr.reshape(arr.shape + (1,) * (ndim - arr.ndim))


def _series_axis(vals):
    return np.stack(np.broadcast_arrays(*[np.asarray(v, dtype=float) for v in vals]))


def _apply_series(u: Jet, series: np.ndarray) -> Jet:
    """Compose: F(u) given Taylor coefficients of F at u.value (axis 0).

    Horner's scheme ``r <- r w + c_{N-j}`` in w = u - u.value at rising
    order (see "Conventions"): step j, j = 1..N, multiplies r, padded with
    +0.0 at degree j, by w in the space of order j, whose coefficients are
    the ones the step settles, then adds c_{N-j} to the constant term."""
    w = u.coeffs.copy()
    w[0] = 0.0
    r = np.zeros_like(w)  # before step j, its degrees < j hold r and the rest +0.0
    r[0] = series[u.space.order]
    for j in range(1, u.space.order + 1):
        space = get_space(u.space.n_vars, j)
        r[:space.ncoef] = space.multiply(r[:space.ncoef], w[:space.ncoef])
        r[0] += series[u.space.order - j]
    return Jet(u.space, r)


# -- elementary functions ------------------------------------------------

def _dispatch(fn_jet, fn_plain):
    def wrapper(u):
        if isinstance(u, Jet):
            return fn_jet(u)
        return fn_plain(u)

    return wrapper


def _exp_jet(u):
    e = np.exp(u.value)
    series = _series_axis([e / math.factorial(k) for k in range(u.order + 1)])
    return _apply_series(u, series)


def _log_jet(u):
    u0 = u.value
    if np.any(u0 <= 0):
        raise UndefinedError("log of a jet with nonpositive constant term")
    vals = [np.log(u0)]
    for k in range(1, u.order + 1):
        vals.append(((-1.0) ** (k + 1)) / (k * u0**k))
    return _apply_series(u, _series_axis(vals))


def _sqrt_jet(u):
    u0 = u.value
    if np.any(u0 <= 0):
        raise UndefinedError("sqrt of a jet with nonpositive constant term")
    vals, binom = [np.sqrt(u0)], 1.0
    for k in range(1, u.order + 1):
        binom *= (0.5 - (k - 1)) / k
        vals.append(binom * u0 ** (0.5 - k))
    return _apply_series(u, _series_axis(vals))


def _sin_jet(u):
    u0 = u.value
    vals = [np.sin(u0 + k * np.pi / 2) / math.factorial(k) for k in range(u.order + 1)]
    return _apply_series(u, _series_axis(vals))


def _cos_jet(u):
    u0 = u.value
    vals = [np.cos(u0 + k * np.pi / 2) / math.factorial(k) for k in range(u.order + 1)]
    return _apply_series(u, _series_axis(vals))


def _atan_jet(u):
    a = np.asarray(u.value, dtype=complex)
    vals = [np.arctan(u.value)]
    for k in range(u.order):
        d_k = ((-1.0) ** k) * np.imag((a - 1j) ** -(k + 1))
        vals.append(d_k / (k + 1))
    return _apply_series(u, _series_axis(vals))


def _tanh_jet(u):
    c = [np.tanh(u.value)]
    for k in range(u.order):
        conv = sum(c[j] * c[k - j] for j in range(k + 1))
        c.append(((1.0 if k == 0 else 0.0) - conv) / (k + 1))
    return _apply_series(u, _series_axis(c))


exp = _dispatch(_exp_jet, np.exp)
log = _dispatch(_log_jet, np.log)
sqrt = _dispatch(_sqrt_jet, np.sqrt)
sin = _dispatch(_sin_jet, np.sin)
cos = _dispatch(_cos_jet, np.cos)
atan = _dispatch(_atan_jet, np.arctan)
tanh = _dispatch(_tanh_jet, np.tanh)


# -- stacked jets ------------------------------------------------------------

def stack(components) -> Jet:
    """One jet from a nested list of jets of one space; the nesting becomes
    the leading tensor axes (coefficients copied, batch shapes broadcast)."""
    if isinstance(components, Jet):
        return components
    parts = [stack(c) for c in components]
    coeffs = np.stack(np.broadcast_arrays(*[p.coeffs for p in parts]), axis=1)
    return Jet(parts[0].space, coeffs)


def contract(spec: str, *factors: Jet) -> Jet:
    """Stacked products and sums written as an einsum ``spec``: for
    ``"im,mn,nj->ij"``, out[i, j] = sum over m, n of (f0[i, m] * f1[m, n])
    * f2[n, j], summed in loop order: summed indices in order of first
    appearance, the last one fastest.  An empty index string is a scalar
    factor; a spec without summed indices is an outer product."""
    letters = spec.split("->")[0].split(",")
    out_shape, terms = _contract_terms(spec, tuple(f.shape[:len(fl)] for fl, f in zip(letters, factors)))
    space = factors[0].space
    coeffs = space.sum_terms([f.coeffs for f in factors], terms)
    return Jet(space, coeffs.reshape((space.ncoef,) + out_shape + coeffs.shape[2:]))


@functools.lru_cache(maxsize=None)
def _contract_terms(spec: str, shapes: tuple) -> tuple:
    """The output shape and the :class:`Terms` of ``spec`` on tensors of
    ``shapes``; output indices are rows, summed ones columns."""
    lhs, out = spec.split("->")
    letters = lhs.split(",")
    size = {c: n for fl, shape in zip(letters, shapes) for c, n in zip(fl, shape)}
    summed = [c for c in size if c not in out]  # in order of first appearance
    out_shape, sum_shape = tuple(size[c] for c in out), tuple(size[c] for c in summed)
    grid = np.indices(out_shape + sum_shape).reshape(len(size), math.prod(out_shape), -1).transpose(0, 2, 1)
    axis = {c: (g[:1] if c in out else g[:, :1]).copy() for c, g in zip(list(out) + summed, grid)}
    return out_shape, Terms(tuple(tuple(axis[c] for c in fl) for fl in letters), None,
                            np.zeros(grid.shape[1:], dtype=bool))


class Terms(NamedTuple):
    """A sum of products as a grid, run by :meth:`JetSpace.sum_terms`: cell
    (r, o) is the r-th term, in loop order, of the output of column o (output
    ``cols[o]``, or o where ``cols`` is None).  ``index[f]`` holds the
    components factor f reads, one index array per tensor axis, each
    (ranks, columns), or of length 1 along an axis it does not vary along,
    so that it is gathered once and broadcast.  ``sign`` holds the sign, +1
    or -1, of every cell, or is None where all are +1 and no cell is
    padding.  ``pad``, (ranks, columns), marks the cells past the last term
    of their output.  Where ``reach`` is given, columns run from most terms
    to fewest, so padding ends each row, and rank r fills the first
    ``reach[r]`` columns; where it is None, padding may be anywhere.
    Padding products are skipped, or replaced by -0.0, and adding -0.0
    leaves every sum unchanged, signs of zero included."""

    index: tuple
    sign: np.ndarray | None
    pad: np.ndarray
    cols: np.ndarray | None = None
    reach: tuple | None = None

    @staticmethod
    def of(outs, index, sign=None, by_count=True) -> "Terms":
        """The grid of the terms t listed in loop order: term t adds to the
        output labelled ``outs[t]`` (outputs in order of first appearance)
        the product of the components ``index[f][axis][t]`` of the factors
        f, times ``sign[t]`` where given.  The columns run from most terms
        to fewest, so that blocks of padding products are skipped; with
        ``by_count`` False they run in output order, for a grid that forms
        no products, whose padding costs less than the permutation."""
        ids = {}
        outs = np.array([ids.setdefault(o, len(ids)) for o in outs], dtype=np.intp)
        counts = np.bincount(outs, minlength=len(ids))
        # the outputs by term count, most first, or in order
        cols = np.argsort(-counts, kind="stable") if by_count else np.arange(counts.size)
        outs, counts = np.argsort(cols, kind="stable")[outs], counts[cols]  # outputs are columns now
        first = np.cumsum(counts) - counts  # each output's first term, with terms sorted by output
        rank = np.empty_like(outs)
        rank[np.argsort(outs, kind="stable")] = np.arange(outs.size) - np.repeat(first, counts)
        pad = np.arange(counts.max(initial=0))[:, None] >= counts

        def grid(values):  # padding reads component 0
            g = np.zeros(pad.shape, np.asarray(values).dtype)
            g[rank, outs] = values
            return g

        sign = np.ones(outs.size) if sign is None else sign  # padding is written into signed products
        # integer grids even for no terms, which skip_zeros indexes masks with
        return Terms(tuple(tuple(grid(np.asarray(a, dtype=np.intp)) for a in ix) for ix in index),
                     grid(sign), pad,
                     None if np.all(cols == np.arange(cols.size)) else cols,
                     tuple(np.count_nonzero(~pad, axis=1).tolist()) if by_count else None)

    # hashed by identity, so that its grids without zero cells are cached per grid
    __hash__ = object.__hash__
    __eq__ = object.__eq__

    def skip_zeros(self, factors) -> "Terms":
        """This grid without its cells that read a component of a factor in
        ``factors``, the coefficient arrays :meth:`JetSpace.sum_terms`
        reads, that is +0.0 or -0.0 in every coefficient at every point
        (:func:`nonzero_components`; see "Conventions"), or this grid
        itself where no component is.  Each output keeps its other terms in
        rank order, and an output left with no term is -0.0, or ``init``.
        Where whole ranks go, the index arrays keep their shapes; otherwise
        columns run from most terms to fewest.  The grid is built once per
        grid and pattern of zero components."""
        live = [nonzero_components(f, len(ix)) for f, ix in zip(factors, self.index)]
        if all(m.all() for m in live):
            return self
        return self._without(tuple((m.shape, m.tobytes()) for m in live))

    @functools.lru_cache(maxsize=256)
    def _without(self, live) -> "Terms":
        """:meth:`skip_zeros` for the nonzero-component masks ``live`` of
        the factors, each as (shape, bytes)."""
        keep = ~self.pad
        for (shape, mask), ix in zip(live, self.index):
            keep = keep & np.frombuffer(mask, dtype=bool).reshape(shape)[ix]
        if keep.shape[1] and np.all(keep == keep[:, :1]):  # whole ranks: index arrays keep their shapes
            rows = np.flatnonzero(keep[:, 0])
            cut = lambda g: g if g is None or g.shape[0] == 1 else g[rows]
            return Terms(tuple(tuple(map(cut, ix)) for ix in self.index), cut(self.sign),
                         self.pad[rows], self.cols, None if self.reach is None else (keep.shape[1],) * rows.size)
        counts = np.count_nonzero(keep, axis=0)
        perm = np.argsort(-counts, kind="stable")
        keep, counts = keep[:, perm], counts[perm]
        r, c = np.nonzero(keep)
        rank = (np.cumsum(keep, axis=0) - 1)[r, c]
        pad = np.arange(counts.max(initial=0))[:, None] >= counts

        def grid(values):  # padding reads component 0
            g = np.zeros(pad.shape, np.asarray(values).dtype)
            g[rank, c] = np.broadcast_to(values, keep.shape)[:, perm][r, c]
            return g

        cols = perm if self.cols is None else self.cols[perm]
        return Terms(tuple(tuple(map(grid, ix)) for ix in self.index),
                     grid(1.0 if self.sign is None else self.sign), pad,
                     None if np.all(cols == np.arange(cols.size)) else cols,
                     tuple(np.count_nonzero(~pad, axis=1).tolist()))


def nonzero_components(coeffs: np.ndarray, ndim: int) -> np.ndarray:
    """Boolean mask over the first ``ndim`` tensor axes of the coefficient
    array ``coeffs``: False where the component is +0.0 or -0.0 in every
    coefficient at every point.  The values decide most components; only
    those whose values are all zero are read further."""
    live = np.asarray(np.any(coeffs[0], axis=tuple(range(ndim, coeffs.ndim - 1))))
    if not live.all():
        dead = ~live
        live[dead] = np.any(coeffs[1:, dead], axis=(0,) + tuple(range(2, coeffs.ndim - ndim + 1)))
    return live


# -- seeding and extraction (module-level operations) ---------------------

def seed(point, order: int, n_vars: int | None = None):
    """Coordinate jets at ``point``: value + unit first-order coefficient.

    ``order`` must be 1, 2 or 3, the public contract; the package itself
    seeds through :func:`seed_raw`, at order 4 too (a potential under base
    order 2).  ``point`` may be a flat coordinate tuple or an array whose
    last axis is the coordinate axis (leading axes become the jet batch).
    """
    if order not in (1, 2, 3):
        raise ConfigurationError(f"jet order must be 1, 2 or 3, got {order}")
    return seed_raw(point, order, n_vars)


def seed_raw(point, order: int, n_vars: int | None = None):
    """Like :func:`seed` without the public order restriction (internal)."""
    pt = np.asarray(point, dtype=float)
    if not np.all(np.isfinite(pt)):
        raise ConfigurationError("seed point must be finite")
    if pt.ndim == 0:
        pt = pt.reshape(1)
    if n_vars is None:
        n_vars = pt.shape[-1]
    space = get_space(n_vars, order)
    return tuple(Jet.variable(space, i, pt[..., i]) for i in range(pt.shape[-1]))


def seed_univariate(values, order: int) -> Jet:
    """One univariate coordinate jet; ``values`` may be a batch array."""
    values = np.asarray(values, dtype=float)
    return Jet.variable(get_space(1, order), 0, values)


def compose_univariate(outer: Jet, inner: Jet) -> Jet:
    """outer(inner): outer is a univariate jet expanded at inner.value."""
    if outer.space.n_vars != 1:
        raise UsageError("compose_univariate needs a univariate outer jet")
    if outer.space.order < inner.space.order:
        raise UsageError("outer jet order too low for composition")
    series = outer.coeffs[: inner.space.order + 1]
    return _apply_series(inner, series)


def antiderivative(u: Jet, value0) -> Jet:
    """Univariate antiderivative with constant term ``value0`` (same order).

    The top Taylor coefficient of the result would need order+1 data and is
    dropped; callers must hold one spare order if they differentiate again.
    """
    if u.space.n_vars != 1:
        raise UsageError("antiderivative is defined for univariate jets only")
    coeffs = u.space.zero_coeffs(u.coeffs.shape[1:])
    coeffs[0] = np.asarray(value0, dtype=float)
    for k in range(u.space.order):
        coeffs[k + 1] = u.coeffs[k] / (k + 1)
    return Jet(u.space, coeffs)
