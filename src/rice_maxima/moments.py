"""Conditional moments of (Q, Q', Q'') that the Kac-Rice density of local
maxima consumes, evaluated without overflow or catastrophic cancellation for
any degree and any point.

At each x the density needs three quantities of the Gaussian triple
(Q, Q', Q''): sigma_U, the standard deviation of Q given Q' = 0;
sigma_W / B, that of Q'' given Q' = 0 over the standard deviation B of Q';
and rho, the correlation of Q and Q'' given Q' = 0.  ``moments`` returns
them for every point of a batch as ``MomentRows``, with 1 - rho^2 formed
from residual norms so it stays accurate as rho approaches +-1.

Batching.  ``moments`` takes a float or a 1-D array of points (a round of
quadrature panels); a float is a batch of one.  It builds the weighted basis
vectors of every point as rows of (rows, width) arrays and reads all Gram
quantities off them with row-wise dot products.  A row stops at its
precision horizon, the power of x (or of 1/x) past which the dropped
columns change no frame quantity by more than rounding, even where a
residual has cancelled to ``_RESIDUAL_RTOL`` of its row (the tail bound of a
truncated sum, Higham 2002, ch. 4).  That is B bits below x**k0, the row's
first weighted power, with

    B = 53 + log2(1 / _RESIDUAL_RTOL) + 2 log2(n + 1) + log2(w_max / w_min) / 2

plus a margin, the weights' ratio taken over the positive w_k and the
2 log2(n + 1) for the j and j(j-1) factors of b and d.  k0 is the first k
with w_k > 0 on plain and near-origin rows, and n minus the last such k on
peeled rows, whose columns run from k = n down.  So a row keeps the powers
j <= k0 + B / |log2|x||, never past n or past the last power that is a
normal float64 (subnormal arithmetic is an order of magnitude slower), and
costs O(min(n, k0 + B / |log2|x||)) at any point.  Widths are rounded up to
a multiple of ``_WIDTH_STEP`` columns, and to n + 1 where that would cut
fewer than ``_WIDTH_STEP``, so every row of degree n < 2 ``_WIDTH_STEP``
is whole.  The rows of a batch are grouped by kind and width, and each
group is cut into chunks by its own width, max(1, ``_CHUNK_ELEMENTS`` //
width) rows each.  So the temporaries stay small at any degree, narrow rows
(far tails, near the origin) share a chunk even where whole rows take one
each, and a row's result does not depend on the other rows of its batch.

Reuse.  The rows do not depend on the level u (it enters the density only
through q = u / sigma_U), so counts on one model at several levels, or on
nested intervals, evaluate the same points again.  Each model therefore
keeps a memo of the rows it has computed, keyed by the float x (0.0 and
-0.0 share a row, which is the same for both).  The rows are the columns of
one float array, so the hits of a call are one gather from it.  ``moments``
looks every point up first and computes only the misses, as one batch in
batch order; because a row does not depend on its batch, a hit is
bit-identical to recomputing.  A missed row is stored only after its batch
has passed the rank check, so a failing batch stores nothing and fails
again the same way on a repeat call.  The memo holds at most ``_MEMO_ROWS``
rows; past that, rows are computed and not stored.  Threads sharing a model
may compute a row twice, but rows are stored under a lock, so none is
stored wrong and the cap holds.

Row kinds.  Each point's weighted basis is stacked as three rows (G, v, H),
v the row of Q', in one of three kinds, chosen so that no conditioning
step cancels:

- plain (|x| <= 1): (G, v, H) = (a, b, d), the rows of Q, Q' and Q'';
- near the origin (no constant term and |x| < ``_ORIGIN_SWITCH``):
  (G, H) = (E, F) with E_k = sum (j-1) x**(j-2) over j >= max(k, 2) and
  F_k = sum (j-1)(j-2) x**(j-3) over j >= max(k, 3), the summands of b and
  d one power down.  With A_0 = 0, a = x b - x**2 E and d = 2 E + x F, so Q
  given Q' = 0 is x**2 times the E residual and 1 - rho^2 ~ x^2 comes out
  of an explicit factor x instead of a difference of near-equal sums;
- peeled (|x| > 1, y = 1/x): x**n, x**(n-1) and x**(n-2) come off a, b, d
  analytically and (G, v, H) = (P', v, P'') with P' = sum m y**(m-1),
  v = sum (n-m) y**m and P'' = sum m(m-1) y**(m-2) over m <= n - k, where
  a = (v + y P') / n and d = (n-1)(v - y P') + y**2 P''.  Past the
  horizon the powers are dropped and the partial sums stay fixed: in a row
  of ``width`` of them the columns k <= n - width all hold the last, so one
  lumped column, that sum times sqrt(W_(n+1-width)) with W_m the sum of w_k
  over k < m, stands for them with every dot product unchanged.

The frame and the read-out.  Each row is reduced, by progressive
orthogonalization (every quantity a sum of squares), to an orthogonal
frame: |v|^2; |g|^2 for g = G with v projected out; eta, the g-coordinate
of H after v; and |h|^2 for h = H with v and g projected out.  With four
per-kind coefficients (s, delta, eps, kappa) and W^2 = (delta + eps
eta)^2 |g|^2 + eps^2 |h|^2,

    sigma_W / B = kappa W / |v|        rho = s (delta + eps eta) |g| / W
    1 - rho^2 = eps^2 |h|^2 / W^2      ln sigma_U = ln|beta| + ln|g|

    kind       s   delta   eps   kappa   beta
    plain      1   0       1     1       1
    near      -1   2       x     1       x^2
    peeled     1   1 - n   y     y^2     x^n y / n

sigma_U is returned only as its log, with ln|beta| a sum of logs (2 ln|x|
near the origin, n ln|x| + ln(|y| / n) peeled), so it neither overflows
far out nor underflows at the origin.  Beyond |x| ~ 1e154, y^2 underflows
to 0: sigma_W / B = 1 - rho^2 = 0 and rho = -1, the limit; below |x| ~ 1e-154
near the origin 1 - rho^2 = 0 and rho = -1 likewise.  A point is refused
only where the covariance has lost rank: where Q' or Q is deterministic
(|v| = 0, or x = 0 without a constant term, where sigma_U = 0), or where a
residual g or h is shorter than ``_RESIDUAL_RTOL`` of its row.
"""

from __future__ import annotations

import math
import threading
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import DegenerateCovariance
from .model import PolynomialModel

__all__ = ["MomentRows", "moments"]

# A residual direction shorter than this fraction of its parent vector is
# treated as numerically zero: the covariance is rank-deficient within
# working precision and the Rice density would divide noise by noise.
_RESIDUAL_RTOL = 1e-12
# Largest (rows, width) temporary of more than one row that the batched
# kernel builds at once.
_CHUNK_ELEMENTS = 1 << 14
# log2 of the smallest normal float64: powers below it are taken as zero.
_LOG2_TINY = -1022.0
# Bits a row keeps below its first weighted power (module docstring,
# Batching): float64's 53, the cancellation ``_RESIDUAL_RTOL`` lets a
# residual reach and a margin of 4; ``_gram`` adds the degree's and the
# weights' bits.
_PRECISION_BITS = 53.0 + math.log2(1.0 / _RESIDUAL_RTOL) + 4.0
# Row widths are rounded up to a multiple of this many columns, so that
# rows of nearby points share a (kind, width) group; a row is cut only where
# that saves at least this many, since each group costs ~0.15 ms of numpy
# calls (at n = 100 two groups a kind made a round of rows 50% slower).
# It is also the block of ``_powers``' table, which needs it even.
_WIDTH_STEP = 64
# Rows one model's memo keeps; past this, rows are computed and not stored.
_MEMO_ROWS = 1 << 15
# Below this |x| a model without a constant term takes near-origin rows.
# Plain rows lose ~1e-19 / x^2 of 1 - rho^2 there; counts on the canonical
# intervals put no node nearer to 0 than 1.07e-3, so their rounds build
# plain and peeled rows only.
_ORIGIN_SWITCH = 2.0**-10
# Row kinds (module docstring), in the order a chunk builds them.
_PLAIN, _NEAR_ORIGIN, _PEELED = 0, 1, 2


class _Gram(NamedTuple):
    """The orthogonal frame of each row's stacked basis G, v, H (module
    docstring): ``vv = |v|^2``, ``gg = |g|^2``, ``eta`` the g-coordinate of
    H after v and ``hh = |h|^2``, with ``gg`` or ``hh`` zero where that
    residual is below tolerance."""

    vv: np.ndarray
    gg: np.ndarray
    eta: np.ndarray
    hh: np.ndarray


class MomentRows(NamedTuple):
    """The density inputs at each point of a batch, one entry per row.

    ``sigma_w_over_b`` is sigma_W / B, ``rho`` the conditional correlation,
    ``one_minus_rho_sq`` is 1 - rho^2 from residual norms and
    ``log_sigma_u`` is ln sigma_U, finite at every point that evaluates.
    """

    sigma_w_over_b: np.ndarray
    rho: np.ndarray
    one_minus_rho_sq: np.ndarray
    log_sigma_u: np.ndarray


def _horizon(base: np.ndarray, first: np.ndarray, bits: float) -> np.ndarray:
    """Last power j of base, |base| <= 1, that each row keeps (inf for
    |base| = 1): ``bits`` below base**first, its first weighted power, and
    never past the last power that is a normal float64."""
    with np.errstate(divide="ignore"):
        log2 = np.log2(np.abs(base))
        last = np.minimum(first - bits / log2, _LOG2_TINY / log2)
        return np.where(log2 < 0.0, np.floor(last), np.inf)


def _powers(base: np.ndarray, horizon: np.ndarray, j: np.ndarray, out: np.ndarray) -> None:
    """Write base**j for the exponents ``j`` into ``out`` (rows, len(j)),
    with every power beyond the row's horizon set to zero.

    The powers come from a two-level table in blocks of b = ``_WIDTH_STEP``
    columns, base**(b q + r) = |base|**(b q) base**r: one pow gives the first
    block, base**r for r < b, in place, one more the ceil(len(j) / b) - 1
    block powers, and one product each fills the other columns.  Each pow is
    within about u = 2^-53 relative and the product adds at most u, so a
    power is ~3u, ~1.5 ulp, off (Higham 2002, ch. 3); exp(j ln|x|) would be
    ~j |ln x| u off.  The pows are taken of |base|, since numpy's vectorised
    pow covers nonnegative bases only and falls back to a scalar loop about
    20 times slower otherwise; b is even, so the sign of a negative base
    goes on the odd powers of the first block alone.  The block products are
    a matmul over an inner dimension of one, each entry a product rounded
    once: a broadcast multiply gives the same values but allocates numpy's
    iterator buffers, up to 128 KB a call.  Widths are rounded up
    (``_WIDTH_STEP``), so up to about 2 ``_WIDTH_STEP`` of a row's last
    columns lie past its horizon.
    """
    rows, width, block = len(base), len(j), _WIDTH_STEP
    magnitude = np.abs(base)[:, None]
    low = out[:, :block]  # base**r for r < b, the first block
    np.power(magnitude, j[:block], out=low)
    low[:, 1::2] *= np.where(base < 0.0, -1.0, 1.0)[:, None]
    high = np.power(magnitude, j[block::block])  # |base|**(b q), q >= 1
    whole = width // block
    if whole > 1:
        tiles = out[:, block : whole * block].reshape(rows, whole - 1, block, copy=False)
        np.matmul(high[:, : whole - 1, None], low[:, None, :], out=tiles)
    if block < width and width % block:
        np.multiply(high[:, -1:], low[:, : width % block], out=out[:, whole * block :])
    cut = int(min(horizon.min(), width - 1.0)) + 1
    if cut < width:
        out[:, cut:][j[cut:] > horizon[:, None]] = 0.0


def _put(out: np.ndarray, coef: np.ndarray, powers: np.ndarray, lag: int) -> None:
    """out[:, k] = coef[k - lag] * powers[:, k - lag], zero for k < lag."""
    out[:, :lag] = 0.0
    width = out.shape[1] - lag
    np.multiply(coef[:width], powers[:, :width], out=out[:, lag:])


class _Columns(NamedTuple):
    """Vectors over the columns j = 0..n that one ``_gram`` call shares:
    j, j(j-1), n - j, sqrt(w_j) and its reverse, and W_m, the sum of w_k
    over k < m (m = 0..n+1)."""

    j: np.ndarray
    jj: np.ndarray
    n_j: np.ndarray
    root_w: np.ndarray
    root_w_reversed: np.ndarray
    prefix_w: np.ndarray


def _inner_basis(x, horizon, cols: _Columns, width: int, near: bool) -> np.ndarray:
    """Weighted basis rows for |x| <= 1, cut to ``width`` columns, stacked
    as G, v, H along the first axis of a (3, rows, width) array: a, b, d,
    or near the origin E, b, F (the summands of b and d one power down)."""
    basis = np.empty((3, len(x), width))
    powers = np.empty((len(x), width)) if near else basis[0]
    _powers(x, horizon, cols.j[:width], powers)
    if near:
        _put(basis[0], cols.j[1:], powers, 2)
    _put(basis[1], cols.j[1:], powers, 1)
    _put(basis[2], cols.jj[2:], powers, 2 + near)
    # reversed cumulative sums: entry k holds the sum over j >= k
    backward = basis[..., ::-1]
    np.cumsum(backward, axis=2, out=backward)
    basis *= cols.root_w[:width]
    return basis


def _outer_basis(n: int, y, horizon, cols: _Columns, width: int) -> np.ndarray:
    """Weighted basis rows P', v, P'' for |x| > 1 from y = 1/x, stacked like
    ``_inner_basis``: the partial sums over m <= i, i < ``width``, each the
    column k = n - i, then the lumped column (module docstring)."""
    basis = np.empty((3, len(y), width + 1))
    sums = basis[..., :width]
    _powers(y, horizon, cols.j[:width], sums[1])
    _put(sums[0], cols.j[1:], sums[1], 1)
    _put(sums[2], cols.jj[2:], sums[1], 2)
    sums[1] *= cols.n_j[:width]
    np.cumsum(sums, axis=2, out=sums)
    np.multiply(sums[..., -1], np.sqrt(cols.prefix_w[n + 1 - width]), out=basis[..., -1])
    sums *= cols.root_w_reversed[:width]
    return basis


def _gram_sums(basis: np.ndarray) -> _Gram:
    """The orthogonal frame, row by row, of the stacked basis G, v, H:
    project v out of G and H, then g out of what is left of H, in place."""
    dot = np.vecdot
    G, v, H = basis
    (gv, vv, hv), (GG, HH) = dot(basis, v), dot(basis[0::2], basis[0::2])
    # Degenerate rows (refused by _check) may produce inf/nan here.
    with np.errstate(divide="ignore", invalid="ignore"):
        scratch = (gv / vv)[:, None] * v
        G -= scratch  # G is now g
        H -= np.multiply((hv / vv)[:, None], v, out=scratch)  # H after v
        gg, gh = dot(G, basis[0::2])
        eta = gh / gg
        H -= np.multiply(eta[:, None], G, out=scratch)  # H is now h
        hh = dot(H, H)
        gg = np.where(gg > _RESIDUAL_RTOL**2 * GG, gg, 0.0)
        hh = np.where(hh > _RESIDUAL_RTOL**2 * HH, hh, 0.0)
    return _Gram(vv, gg, eta, hh)


def _gram(model: PolynomialModel, base: np.ndarray, kind: np.ndarray) -> _Gram:
    """The batched kernel: the frame at every point, given as ``base`` = x,
    or y = 1/x on peeled rows, and built as its row ``kind``, chunk by
    chunk."""
    n = model.degree
    w, j = model.variance_weights(), np.arange(n + 1, dtype=float)
    root_w, prefix_w = np.sqrt(w), np.concatenate(([0.0], w)).cumsum()
    cols = _Columns(j, j * (j - 1.0), n - j, root_w, root_w[::-1].copy(), prefix_w)
    out = np.empty((len(_Gram._fields), len(base)))
    # the first weighted column: k for plain and near-origin rows, n - k
    # peeled; and the bits lost to the j(j-1) factors and the weights' spread
    first = np.where(kind == _PEELED, (w[::-1] > 0.0).argmax(), (w > 0.0).argmax())
    spread = w.max() / w.min(where=w > 0.0, initial=np.inf)
    bits = _PRECISION_BITS + 2.0 * math.log2(n + 1.0) + 0.5 * math.log2(spread)
    horizon = _horizon(base, first, bits)
    # Rows are grouped by kind and width: the columns up to the horizon plus
    # the derivative shifts (one more near the origin), past which every
    # summand is zero, rounded up (``_WIDTH_STEP``).  A row's result then
    # never depends on its batch.
    width = np.ceil((horizon + 3.0 + (kind == _NEAR_ORIGIN)) / _WIDTH_STEP) * _WIDTH_STEP
    width = np.where(width + _WIDTH_STEP > n + 1.0, n + 1.0, width)
    groups: dict[tuple[int, int], list[int]] = {}
    for i, key in enumerate(zip(kind.tolist(), width.astype(int).tolist())):
        groups.setdefault(key, []).append(i)
    for (row_kind, size), members in sorted(groups.items()):
        step = max(1, _CHUNK_ELEMENTS // size)
        for start in range(0, len(members), step):
            rows = members[start : start + step]
            if row_kind == _PEELED:
                basis = _outer_basis(n, base[rows], horizon[rows], cols, size)
            else:
                near = row_kind == _NEAR_ORIGIN
                basis = _inner_basis(base[rows], horizon[rows], cols, size, near)
            out[:, rows] = _gram_sums(basis)
            del basis  # freed before the next chunk's basis is built
    return _Gram(*out)


def _check(xs: np.ndarray, g: _Gram, kind: np.ndarray) -> None:
    """Raise DegenerateCovariance at the first row, in batch order, whose
    covariance is singular within tolerance."""
    # sigma_U = 0 at x = 0 without a constant term
    deterministic = (g.vv <= 0.0) | ((kind == _NEAR_ORIGIN) & (xs == 0.0))
    bad = deterministic | (g.gg <= 0.0) | (g.hh <= 0.0)
    if bad.any():
        i = int(bad.argmax())
        if deterministic[i]:
            raise DegenerateCovariance(float(xs[i]), "a component of (Q, Q', Q'') is deterministic")
        raise DegenerateCovariance(float(xs[i]), "conditional variance below tolerance")


def moments(model: PolynomialModel, xs, *, clamp_rho: bool = False) -> MomentRows:
    """The density inputs at ``xs``, a float or a 1-D array of points (a
    float gives one row).

    Raises DegenerateModel when fewer than three increments carry noise (the
    covariance of (Q, Q', Q'') is then singular everywhere), ValueError for
    a non-finite point, and DegenerateCovariance, carrying the first failing
    point, when the covariance at a point has lost rank within tolerance,
    as at x = 0 for a model with no constant term.  Every other finite
    point evaluates: out to |x| ~ 1e308, where rho = -1 and 1 - rho^2 = 0,
    and, without a constant term, in to |x| = 5e-324, where sigma_U ~ x^2
    is carried as its log.  Rows already computed on ``model`` are
    read from its memo (module docstring, Reuse).

    ``clamp_rho`` is ignored: it is kept so that existing callers still
    work, but no correlation needs clamping.
    """
    model.require_rank_for_density()
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if xs.ndim != 1:
        raise ValueError(f"x must be a float or a 1-D array, got shape {xs.shape}")
    if not np.isfinite(xs).all():
        raise ValueError(f"x must be finite, got {float(xs[~np.isfinite(xs)][0])!r}")
    memo = model._moments_memo
    keys = xs.tolist()
    index = np.fromiter(map(memo.get, keys, repeat(-1)), np.intp, len(keys))
    missed = np.flatnonzero(index < 0)
    if not missed.size:
        return MomentRows(*memo.table[:, index])
    fresh = np.array(_fresh_rows(model, xs[missed]))
    memo.store([keys[i] for i in missed.tolist()], fresh)
    out = np.empty((len(fresh), len(keys)))
    hit = np.flatnonzero(index >= 0)
    out[:, hit] = memo.table[:, index[hit]]
    out[:, missed] = fresh
    return MomentRows(*out)


class _Memo(dict):
    """The rows ``moments`` has computed on one model (module docstring,
    Reuse): x -> the column of its row in ``table``, which holds the
    ``MomentRows`` fields down its first axis, one column a row.

    ``store`` writes a row's column before it enters the dict, and only
    under the lock; ``table`` is replaced, never resized, when it grows.  So
    a column found in the dict holds its row in any later ``table``.
    """

    def __init__(self) -> None:
        super().__init__()
        self.table = np.empty((len(MomentRows._fields), 0))
        self._lock = threading.Lock()

    def store(self, keys: list[float], rows: np.ndarray) -> None:
        """Store the columns of ``rows`` under the points ``keys``, as many
        of those not yet stored as fit under ``_MEMO_ROWS``."""
        with self._lock:
            new = {x: i for i, x in enumerate(keys) if x not in self}
            start = len(self)
            new_keys = list(new)[: _MEMO_ROWS - start]
            stop = start + len(new_keys)
            if stop > self.table.shape[1]:
                grown = np.empty((len(rows), min(_MEMO_ROWS, max(stop, 2 * start))))
                grown[:, :start] = self.table[:, :start]
                self.table = grown
            self.table[:, start:stop] = rows[:, [new[x] for x in new_keys]]
            self.update(zip(new_keys, range(start, stop)))


def _fresh_rows(model: PolynomialModel, xs: np.ndarray) -> tuple:
    """The ``MomentRows`` columns, computed at the finite points ``xs`` and
    checked like ``moments``: the one read-out of the module docstring, with
    the coefficients of each row's kind."""
    n, ax = model.degree, np.abs(xs)
    near = (ax < _ORIGIN_SWITCH) & (model.variance_weights()[0] == 0.0)
    outer = ax > 1.0
    kind = np.where(outer, _PEELED, np.where(near, _NEAR_ORIGIN, _PLAIN))
    base = np.where(outer, 1.0 / np.where(outer, xs, 1.0), xs)  # x, or y = 1/x
    g = _gram(model, base, kind)
    _check(xs, g, kind)
    # per kind: s, delta and the exponent of the power of x in beta
    s, delta, power = np.array([[1.0, 0.0, 0.0], [-1.0, 2.0, 2.0], [1.0, 1.0 - n, n]])[kind].T
    eps = np.where(kind == _PLAIN, 1.0, base)
    norm_g = np.sqrt(g.gg)
    mix = (delta + eps * g.eta) * norm_g  # (delta + eps eta) |g|
    eh = eps * np.sqrt(g.hh)
    w = np.hypot(mix, eh)
    swb = np.where(outer, base * base, 1.0) * w / np.sqrt(g.vv)  # kappa W / |v|
    # ln(|beta| |g|) as a sum of logs, each finite past the check
    log_beta = np.log(np.where(outer, np.abs(base) / n, 1.0))
    log_beta += power * np.log(np.where(power > 0.0, ax, 1.0))
    return swb, s * mix / w, (eh / w) ** 2, np.log(norm_g) + log_beta
