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
* :func:`contract` forms the stacked products of a contraction such as
  ``sum_m J[m, a] h[m, b]``: each term multiplies its factors left to right
  and the terms are added in loop order, so the coefficients equal those of
  a loop over scalar jets bit for bit.  Sums of stacked terms keep the
  order of the scalar loop they replace: :func:`fold` adds slices one at a
  time, left to right.  ``np.add.reduce`` does not promise that order:
  along a contiguous axis (batch of one, or no batch axis) it sums
  pairwise, which moves the last bits.
* ``JetSpace.multiply`` adds the terms ``p0, p1, ..., pm`` of each
  coefficient in the order of ``np.add.reduceat``: ``p0 +`` numpy's
  pairwise sum of the tail ``p1 ... pm``.  numpy sums a tail of fewer than
  8 terms left to right, ``(p1 + p2) + ...``; a tail of 8 to 128 terms in
  eight accumulators ``r_j = p(1+j) + p(9+j) + ...`` over its whole blocks
  of 8, combined as ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))``,
  then the last m mod 8 terms one at a time.  Every space sums its
  products in that order by layers: one rank of term (or one block of 8)
  at a time across all coefficients that have it, in a few large array
  operations instead of one inner loop per coefficient and trailing
  element.  ``reduceat`` still runs on operands of fewer than
  LAYERED_MIN_TRAILING values per coefficient, where its per-call cost is
  lower.  Both give the same bits, signs of zero included.
* Dividing by a jet whose constant term vanishes is an error (no Laurent
  extension).
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import ConfigurationError, UsageError

__all__ = [
    "Jet",
    "JetSpace",
    "get_space",
    "seed",
    "extract",
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
    "fold",
]

# Orders 1..3 are the public contract; internal evaluations (e.g. deriving a
# metric from a Kahler potential) sit at caller order + 2.
MAX_ORDER = 6

# Doubles one JetSpace.multiply call of a stacked product may form (256 kB);
# longer products run in chunks of terms (see JetSpace.chunks).
CHUNK_DOUBLES = 1 << 15

# JetSpace.multiply sums by layers (see "Conventions") where an operand
# holds at least LAYERED_MIN_TRAILING values per coefficient.  Summed over
# eight spaces of 1, 4 and 6 variables up to order 3, the layered sum takes
# 3.7x the time of reduceat at 1 value, 1.0x at 64, 0.68x at 128, 0.27x at
# 1000.
LAYERED_MIN_TRAILING = 128


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
        self.degrees = np.array([sum(a) for a in self.multi_indices])
        self._factorials = np.array(
            [float(np.prod([math.factorial(k) for k in a])) for a in self.multi_indices]
        )
        self._build_mul_table()
        self._deriv_maps = self._build_deriv_maps() if order > 0 else None

    def _build_mul_table(self):
        pairs_i, pairs_j, pairs_k = [], [], []
        for i, a in enumerate(self.multi_indices):
            da = sum(a)
            for j, b in enumerate(self.multi_indices):
                if da + sum(b) > self.order:
                    continue
                c = tuple(x + y for x, y in zip(a, b))
                pairs_i.append(i)
                pairs_j.append(j)
                pairs_k.append(self.index[c])
        k = np.array(pairs_k)
        perm = np.argsort(k, kind="stable")
        self._mul_i = np.array(pairs_i)[perm]
        self._mul_j = np.array(pairs_j)[perm]
        self.npairs = len(k)
        k_sorted = k[perm]
        # every target index occurs (alpha = alpha + 0), so reduceat covers all
        self._mul_starts = np.searchsorted(k_sorted, np.arange(self.ncoef))
        self._layers = self._build_layers()

    def _build_layers(self):
        """The product table of :meth:`_multiply_layered`.  Its rows are the
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
        (see "Conventions"): left to right for a tail of fewer than 8 terms,
        in numpy's eight-accumulator pairwise order for a longer one.  From
        LAYERED_MIN_TRAILING values per coefficient one layered kernel does
        it in that order on every space; below, ``reduceat`` itself."""
        if a.ndim != b.ndim:
            raise ValueError(f"jet coefficients {a.shape} and {b.shape} do not line up")
        if max(a.size, b.size) < self.ncoef * LAYERED_MIN_TRAILING:
            return self._multiply_reduceat(a, b)
        return self._multiply_layered(a, b)

    def _multiply_reduceat(self, a, b):
        prod = a[self._mul_i] * b[self._mul_j]
        return np.add.reduceat(prod, self._mul_starts, axis=0)

    def _multiply_layered(self, a, b):
        """The sums of :meth:`_multiply_reduceat`, a few array operations
        per rank of term (or block of 8 terms) across all coefficients that
        have it: a short tail left to right; a long one in eight
        accumulators over its whole blocks of 8, their tree
        ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))``, then its last
        terms one at a time; then ``p0 +`` the tail's sum."""
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

    def chunks(self, count: int, term_size: int) -> list:
        """Slices covering ``range(count)`` terms, each small enough that a
        product of terms of ``term_size`` values stays within CHUNK_DOUBLES."""
        step = max(1, CHUNK_DOUBLES // (self.npairs * max(term_size, 1)))
        return [slice(s, min(s + step, count)) for s in range(0, count, step)]

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

    @property
    def n_vars(self):
        return self.space.n_vars

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
        return Jet(lower, self.coeffs[src, comp] * _col(fac, self.coeffs.ndim))

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
            raise UsageError("division by a jet with zero constant term")
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
    return np.stack([np.broadcast_arrays(*[np.asarray(v, dtype=float) for v in vals])[i]
                     for i in range(len(vals))], axis=0) if len(vals) > 1 else np.asarray(vals)


def _apply_series(u: Jet, series: np.ndarray) -> Jet:
    """Compose: F(u) given Taylor coefficients of F at u.value (axis 0)."""
    w = Jet(u.space, u.coeffs.copy())
    w.coeffs[0] = np.zeros_like(w.coeffs[0])
    order = u.space.order
    coeffs = u.space.zero_coeffs(u.coeffs.shape[1:])
    coeffs[0] = series[order]
    result = Jet(u.space, coeffs)
    for k in range(order - 1, -1, -1):
        result = result * w
        result.coeffs[0] = result.coeffs[0] + series[k]
    return result


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
        raise UsageError("log of a jet with nonpositive constant term")
    vals = [np.log(u0)]
    for k in range(1, u.order + 1):
        vals.append(((-1.0) ** (k + 1)) / (k * u0**k))
    return _apply_series(u, _series_axis(vals))


def _sqrt_jet(u):
    u0 = u.value
    if np.any(u0 <= 0):
        raise UsageError("sqrt of a jet with nonpositive constant term")
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
    ``"im,mn,nj->ij"``, out[i, j] = sum over m, n of
    (f0[i, m] * f1[m, n]) * f2[n, j].

    Each term multiplies its factors left to right, and the terms of an
    output entry are folded in loop order: summed indices in order of first
    appearance, the last one fastest.  Coefficients therefore equal those of
    the scalar loop bit for bit.  An empty index string is a scalar factor;
    a spec without summed indices is an outer product.  Products run in
    chunks of output entries, or of terms when one entry is too large, so a
    temporary stays within CHUNK_DOUBLES."""
    lhs, out = spec.split("->")
    letters = lhs.split(",")
    space = factors[0].space
    size = {}
    for f_letters, f in zip(letters, factors):
        size.update(zip(f_letters, f.coeffs.shape[1:1 + len(f_letters)]))
    summed = [c for c in dict.fromkeys("".join(letters)) if c not in out]
    out_shape = tuple(size[c] for c in out)
    n_out = int(np.prod(out_shape))
    n_sum = int(np.prod([size[c] for c in summed]))
    grid = np.indices(out_shape + tuple(size[c] for c in summed)).reshape(-1, n_out, n_sum)
    axis = {c: grid[k] for k, c in enumerate(list(out) + summed)}
    batch = np.broadcast_shapes(*[f.coeffs.shape[1 + len(fl):] for fl, f in zip(letters, factors)])
    nbatch = int(np.prod(batch))
    if n_sum * space.npairs * nbatch <= CHUNK_DOUBLES:  # chunks of whole outputs
        blocks = [(o, slice(0, n_sum)) for o in space.chunks(n_out, n_sum * nbatch)]
    else:  # chunks of terms, for as many outputs as fit
        step = max(1, min(n_out, CHUNK_DOUBLES // (space.npairs * nbatch)))
        blocks = [(slice(o, min(o + step, n_out)), r) for o in range(0, n_out, step)
                  for r in space.chunks(n_sum, step * nbatch)]
    # a factor that does not vary along the outputs (or the terms) of a block
    # is gathered once and broadcast, not copied for each of them
    varies = [(any(c in out for c in fl), any(c in summed for c in fl)) for fl in letters]
    coeffs = np.empty((space.ncoef, n_out) + batch)
    acc = None
    for o, r in blocks:
        prod = None
        for f_letters, f, (by_out, by_term) in zip(letters, factors, varies):
            rows = o if by_out else slice(o.start, o.start + 1)
            cols = r if by_term else slice(r.start, r.start + 1)
            idx = tuple(axis[c][rows, cols] for c in f_letters)
            sel = f.coeffs[(slice(None),) + idx] if idx else f.coeffs[:, None, None]
            prod = sel if prod is None else space.multiply(prod, sel)
        prod = np.broadcast_to(prod, (space.ncoef, o.stop - o.start, r.stop - r.start) + batch)
        acc = fold(prod, 2, acc if r.start else None)
        if r.stop == n_sum:
            coeffs[:, o] = acc
    return Jet(space, coeffs.reshape((space.ncoef,) + out_shape + batch))


def fold(terms: np.ndarray, axis: int, acc: np.ndarray | None = None) -> np.ndarray:
    """``((acc + t0) + t1) + ...`` over the slices ``t`` of ``terms`` along
    ``axis``, in index order (from ``t0`` when ``acc`` is None)."""
    lead = (slice(None),) * axis
    acc = terms[lead + (0,)].copy() if acc is None else acc + terms[lead + (0,)]
    for r in range(1, terms.shape[axis]):
        acc += terms[lead + (r,)]
    return acc


# -- seeding and extraction (module-level operations) ---------------------

def seed(point, order: int, n_vars: int | None = None):
    """Coordinate jets at ``point``: value + unit first-order coefficient.

    ``order`` must be 1, 2 or 3 (the orders any verification run needs).
    ``point`` may be a flat coordinate tuple or an array whose last axis is
    the coordinate axis (leading axes become the jet batch).
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
    if pt.ndim == 1:
        return tuple(Jet.variable(space, i, pt[i]) for i in range(pt.shape[-1]))
    return tuple(Jet.variable(space, i, pt[..., i]) for i in range(pt.shape[-1]))


def seed_univariate(values, order: int) -> Jet:
    """One univariate coordinate jet; ``values`` may be a batch array."""
    values = np.asarray(values, dtype=float)
    return Jet.variable(get_space(1, order), 0, values)


def extract(value: Jet, multi_index):
    """Partial derivative of a jet; see :meth:`Jet.extract`."""
    return value.extract(multi_index)


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
