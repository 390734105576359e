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
vectors of every point as rows of (rows, n+1) arrays and reads all Gram
quantities off them with row-wise dot products.  Rows are processed in
chunks of at most ``_CHUNK_ELEMENTS`` array elements, so the temporaries
stay small at any degree (one row per chunk once n + 1 exceeds that
budget).  A row's result does not depend on the other rows of its batch.

Reuse.  The rows do not depend on the level u (it enters the density only
through q = u / sigma_U), so counts on one model at several levels, or on
nested intervals, evaluate the same points again.  Each model therefore
keeps a memo of the rows it has computed, keyed by the float x (0.0 and
-0.0 share a row, which is the same for both).  ``moments`` looks every
point up first and computes only the misses, as one batch in batch order;
because a row does not depend on its batch, a hit is bit-identical to
recomputing.  A missed row is stored only after its batch has passed the
rank check, so a failing batch stores nothing and fails again the same way
on a repeat call.  The memo holds at most ``_MEMO_ROWS`` rows; past that,
rows are computed and not stored.  Threads sharing a model may compute a
row twice or pass the cap by a row each, but never store a wrong row.

Scaling.  For |x| <= 1 every basis sum is bounded by a small polynomial in
n, so the weighted basis vectors are formed directly.  For |x| > 1 the
powers x**n, x**(n-1) and x**(n-2) are peeled off a_k, b_k and d_k
analytically.  What remains, sums over m <= n - k of y**m, (n-m) y**m and
(n-m)(n-m-1) y**m with y = 1/x, shares its leading terms, so conditioning
one sum on another would cancel every digit of 1 - rho^2 ~ y^2.  The rows
used instead are triangular in powers of y:

    P' = sum m y**(m-1),    v = sum (n-m) y**m,    P'' = sum m(m-1) y**(m-2)

They span the same space (a = (v + y P') / n, d = (n-1)(v - y P') + y^2 P''),
so with W2 = |(n-1) ru - y rz|^2 for the residuals ru, rz, rzz below,

    sigma_W / B = y^2 sqrt(W2 / |v|^2)      sigma_U = |y| |ru| / n * |x|**n
    rho = (y ru.rz - (n-1) |ru|^2) / (|ru| sqrt(W2))
    1 - rho^2 = y^2 |rzz|^2 / W2

where every power of y is explicit.  Beyond |x| ~ 1e154, y^2 underflows
to 0: sigma_W / B = 1 - rho^2 = 0 and rho = -1, the limit.  The peeled
|x|**n of sigma_U is returned as n log|x| (the ``peel``, used by the level
ratio u / sigma_U).  Powers below the smallest normal float64 are set to
zero instead of computed: they cannot change any Gram sum, and subnormal
arithmetic is an order of magnitude slower.

Conditioning.  Near |x| = 1 at large degree the three weighted basis
vectors become nearly collinear (the covariance approaches rank one), and
determinant-style differences such as A2*B2 - C^2 lose all significant
digits.  All such differences are therefore computed by progressive
orthogonalization: project out the Q' direction, then the conditioned Q
direction, and read Gram determinants off as products of residual squared
norms — sums of squares, which cancel nothing.  A point is refused only
where the covariance has lost rank, as at x = 0 without a constant term.
(Near that x = 0 the unpeeled basis still cancels: 1 - rho^2 ~ x^2 is
computed with a relative error of ~1e-19 / x^2.)
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DegenerateCovariance
from .model import PolynomialModel

__all__ = ["MomentRows", "moments"]

# A residual direction shorter than this fraction of its parent vector is
# treated as numerically zero: the covariance is rank-deficient within
# working precision and the Rice density would divide noise by noise.
_RESIDUAL_RTOL = 1e-12
# Largest (rows, n+1) temporary the batched kernel builds at once.
_CHUNK_ELEMENTS = 1 << 14
# log2 of the smallest normal float64: powers below it are taken as zero.
_LOG2_TINY = -1022.0
# Rows one model's memo keeps; past this, rows are computed and not stored.
_MEMO_ROWS = 1 << 15


class _Gram(NamedTuple):
    """Per-row Gram quantities of the weighted basis vectors u, v, z (for Q,
    Q', Q''; for |x| > 1 the rows P', v, P'' of the peeled basis).

    ``sa, sb, sd`` are u.u, v.v, z.z; ``ru`` and ``rz`` are u and z with the
    v direction projected out, ``rzz`` is rz with the ru direction projected
    out: ``nu2 = |ru|^2``, ``nz2 = |rz|^2``, ``cr = ru.rz`` and
    ``rzz2 = |rzz|^2``.
    """

    sa: np.ndarray
    sb: np.ndarray
    sd: np.ndarray
    nu2: np.ndarray
    nz2: np.ndarray
    cr: np.ndarray
    rzz2: np.ndarray


class MomentRows(NamedTuple):
    """The density inputs at each point of a batch, one entry per row.

    ``sigma_w_over_b`` is sigma_W / B, ``rho`` the conditional correlation
    and ``one_minus_rho_sq`` is 1 - rho^2 from residual norms.
    ``sigma_u_tilde`` is sigma_U with the peeled power removed and ``peel``
    is n log|x| for |x| > 1 (0 otherwise), so that
    sigma_U = sigma_u_tilde * exp(peel).
    """

    x: np.ndarray
    sigma_w_over_b: np.ndarray
    rho: np.ndarray
    one_minus_rho_sq: np.ndarray
    sigma_u_tilde: np.ndarray
    peel: np.ndarray

    def level_ratio(self, u: float) -> np.ndarray:
        """q = u / sigma_U for every row (a finite level ``u``)."""
        with np.errstate(divide="ignore", over="ignore"):
            q = u / self.sigma_u_tilde
            outer = self.peel > 0.0
            if outer.any():
                log_u = math.log(abs(u)) if u != 0.0 else -math.inf
                log_q = log_u - np.log(self.sigma_u_tilde[outer]) - self.peel[outer]
                q[outer] = np.copysign(np.exp(log_q), u)
        return q


def _horizon(base: np.ndarray) -> np.ndarray:
    """Largest j with |base|**j a normal float64, per row, for |base| <= 1
    (inf for |base| = 1)."""
    with np.errstate(divide="ignore"):
        log2 = np.log2(np.abs(base))
        return np.where(log2 < 0.0, np.floor(_LOG2_TINY / log2), np.inf)


def _powers(base: np.ndarray, horizon: np.ndarray, width: int) -> np.ndarray:
    """base**j for j = 0..width-1 as a (rows, width) array, with every power
    beyond the row's horizon set to zero instead of computed.

    Powers are taken of |base| and the odd ones negated for a negative base:
    numpy's vectorised pow covers nonnegative bases only and falls back to a
    scalar loop about 20 times slower otherwise.
    """
    j = np.arange(width, dtype=float)
    live = j <= horizon[:, None]
    magnitude = np.power(np.abs(base)[:, None], np.where(live, j, 0.0))
    powers = np.where(live, magnitude, 0.0)
    powers[base < 0.0, 1::2] *= -1.0
    return powers


def _terms(powers: np.ndarray) -> np.ndarray:
    """Summands p_j, j p_(j-1) and j(j-1) p_(j-2) of powers p_j (j along
    the last axis), stacked as a (3, rows, width) array."""
    j = np.arange(powers.shape[1], dtype=float)
    terms = np.zeros((3,) + powers.shape)
    terms[0] = powers
    terms[1, :, 1:] = j[1:] * powers[:, :-1]
    terms[2, :, 2:] = (j[2:] * (j[2:] - 1.0)) * powers[:, :-2]
    return terms


def _inner_basis(x: np.ndarray, horizon: np.ndarray, root_w: np.ndarray, width: int):
    """Weighted basis rows for |x| <= 1, cut to ``width`` columns, stacked
    as u, v, z along the first axis of a (3, rows, width) array."""
    terms = _terms(_powers(x, horizon, width))
    # reversed cumulative sums: entry k holds the sum over j >= k
    return root_w[:width] * np.cumsum(terms[..., ::-1], axis=2)[..., ::-1]


def _outer_basis(n: int, y: np.ndarray, horizon: np.ndarray, root_w: np.ndarray):
    """Weighted basis rows P', v, P'' for |x| > 1 from y = 1/x, stacked
    like ``_inner_basis``."""
    width = int(min(n, horizon.max() + 2.0)) + 1
    terms = _terms(_powers(y, horizon, width))
    terms[[0, 1]] = terms[1], (n - np.arange(width, dtype=float)) * terms[0]
    np.cumsum(terms, axis=2, out=terms)
    out = _by_increment(terms, n)
    out *= root_w  # in place: one more (3, rows, n+1) array costs page faults
    return out


def _by_increment(partial: np.ndarray, n: int) -> np.ndarray:
    """Map truncation index i to increment index k = n - i along the last
    axis.  Past the horizon the partial sums no longer change, so i is
    capped at the last column."""
    width = partial.shape[-1]
    out = np.empty(partial.shape[:-1] + (n + 1,))
    out[..., n + 1 - width :] = partial[..., ::-1]
    out[..., : n + 1 - width] = partial[..., -1:]
    return out


def _gram_sums(basis: np.ndarray) -> _Gram:
    """Dot products and progressive orthogonalisation, row by row, of the
    stacked basis u, v, z."""
    dot = np.vecdot
    gram = dot(basis[:, None], basis[None, :])  # (3, 3, rows)
    sb = gram[1, 1]
    # Project out the Q' direction, then the conditioned-Q direction.
    # Degenerate rows (checked by the caller) may produce inf/nan here.
    with np.errstate(divide="ignore", invalid="ignore"):
        resid = basis[0::2] - (gram[0::2, 1] / sb)[..., None] * basis[1]
        ru, rz = resid
        # nu2 = (A2 B2 - C^2) / B2, nz2 = (B2 D2 - F^2) / B2 and
        # cr = (B2 E - C F) / B2, all cancellation-free
        (nu2, cr), (_, nz2) = dot(resid[:, None], resid[None, :])
        rzz = rz - (cr / nu2)[:, None] * ru
        rzz2 = dot(rzz, rzz)  # = nz2 (1 - rho^2)
    return _Gram(gram[0, 0], sb, gram[2, 2], nu2, nz2, cr, rzz2)


def _gram(model: PolynomialModel, xs: np.ndarray) -> _Gram:
    """The batched kernel: Gram quantities at every (finite) point of
    ``xs``, chunk by chunk."""
    n = model.degree
    root_w = np.sqrt(model.variance_weights())
    out = np.empty((len(_Gram._fields), len(xs)))
    outer = np.abs(xs) > 1.0
    base = xs.copy()  # x, or y = 1/x on the peeled side
    base[outer] = 1.0 / xs[outer]
    horizon = _horizon(base)
    # Rows are grouped by basis shape: 0 marks the peeled side (n+1
    # columns), otherwise the inner width, past which (the horizon plus the
    # two derivative shifts) every entry vanishes.  A row's result then
    # never depends on which other rows share its batch.
    inner_width = np.minimum(n, horizon + 2.0) + 1.0
    shape = np.where(outer, 0, inner_width).astype(int).tolist()
    step = max(1, _CHUNK_ELEMENTS // (n + 1))
    for start in range(0, len(xs), step):
        chunk = shape[start : start + step]
        for width in sorted(set(chunk)):
            rows = [start + i for i, w in enumerate(chunk) if w == width]
            if width == 0:
                basis = _outer_basis(n, base[rows], horizon[rows], root_w)
            else:
                basis = _inner_basis(base[rows], horizon[rows], root_w, width)
            out[:, rows] = _gram_sums(basis)
    return _Gram(*out)


def _check(xs: np.ndarray, g: _Gram) -> None:
    """Raise DegenerateCovariance at the first row whose covariance is
    singular within tolerance."""
    tol2 = _RESIDUAL_RTOL**2
    columns = (g.sa, g.sb, g.sd, g.nu2, g.nz2)
    for x, sa, sb, sd, nu2, nz2 in zip(xs.tolist(), *(c.tolist() for c in columns)):
        if sa <= 0.0 or sb <= 0.0 or sd <= 0.0:
            raise DegenerateCovariance(x, "a component of (Q, Q', Q'') is deterministic")
        if nu2 <= tol2 * sa or nz2 <= tol2 * sd:
            raise DegenerateCovariance(x, "conditional variance below tolerance")


def moments(model: PolynomialModel, xs, *, clamp_rho: bool = False) -> MomentRows:
    """The density inputs at ``xs``, a float or a 1-D array of points (a
    float gives one row).

    Raises DegenerateModel when fewer than three increments carry noise (the
    covariance of (Q, Q', Q'') is then singular everywhere), ValueError for
    a non-finite point, and DegenerateCovariance, carrying the first failing
    point, when the covariance at a point has lost rank within tolerance:
    at x = 0 for a model with no constant term, and there also at
    0 < |x| < ~1e-12, where the unpeeled basis cancels.  Every point with
    |x| > 1 evaluates, out to |x| ~ 1e308, where rho = -1 and 1 - rho^2 = 0.
    Rows already computed on ``model`` are read from its memo (module
    docstring, Reuse).

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
    rows = [memo.get(x) for x in keys]
    missed = [i for i, row in enumerate(rows) if row is None]
    if missed:
        fresh = _fresh_rows(model, xs[missed])
        for i, row in zip(missed, zip(*(column.tolist() for column in fresh))):
            rows[i] = row
            if len(memo) < _MEMO_ROWS:
                memo[keys[i]] = row
    table = np.array(rows, dtype=float).reshape(len(keys), 5)  # a row per point
    return MomentRows(xs, *table.T.copy())


def _fresh_rows(model: PolynomialModel, xs: np.ndarray) -> tuple:
    """The five ``MomentRows`` columns after ``x``, computed at the finite
    points ``xs`` and checked like ``moments``."""
    g = _gram(model, xs)
    _check(xs, g)
    swb = np.sqrt(g.nz2 / g.sb)
    rho = g.cr / np.sqrt(g.nu2 * g.nz2)
    omr = g.rzz2 / g.nz2
    sigma_u = np.sqrt(g.nu2)
    peel = np.zeros_like(xs)
    outer = np.abs(xs) > 1.0
    if outer.any():
        # the peeled read-out of the module docstring, W2 = |(n-1) ru - y rz|^2
        n, y = model.degree, 1.0 / xs[outer]
        nu2, nz2, cr = g.nu2[outer], g.nz2[outer], g.cr[outer]
        w2 = (n - 1.0) ** 2 * nu2 - 2.0 * (n - 1.0) * y * cr + y * y * nz2
        swb[outer] = y * y * np.sqrt(w2 / g.sb[outer])
        rho[outer] = (y * cr - (n - 1.0) * nu2) / np.sqrt(nu2 * w2)
        omr[outer] = y * y * g.rzz2[outer] / w2
        sigma_u[outer] = np.abs(y) * np.sqrt(nu2) / n
        peel[outer] = n * np.log(np.abs(xs[outer]))
    return swb, rho, omr, sigma_u, peel
