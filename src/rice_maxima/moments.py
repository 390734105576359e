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

Scaling.  For |x| <= 1 every basis sum is bounded by a small polynomial in
n, so the weighted basis vectors are formed directly.  For |x| > 1 the
dominant factor ``x**n`` is peeled off analytically: with y = 1/x,

    a_k(x) = x**n     * sum_{m=0}^{n-k} y**m
    b_k(x) = x**(n-1) * sum_{m=0}^{n-k} (n-m) y**m
    d_k(x) = x**(n-2) * sum_{m=0}^{n-k} (n-m)(n-m-1) y**m

so each moment is (bounded tilde sum) x (pure power of x), and every ratio
is formed so the powers of x cancel analytically rather than numerically.
The peeled powers enter only as 1/|x| (in sigma_W/B) and as n log|x| (the
``peel`` of sigma_U, used by the level ratio u/sigma_U).  Powers below the
smallest normal float64 are set to zero instead of computed: they cannot
change any Gram sum, and subnormal arithmetic is an order of magnitude
slower.

Conditioning.  Near |x| = 1 at large degree the three weighted basis
vectors become nearly collinear (the covariance approaches rank one), and
determinant-style differences such as A2*B2 - C^2 lose all significant
digits.  All such differences are therefore computed by progressive
orthogonalization: project out the Q' direction, then the conditioned Q
direction, and read Gram determinants off as products of residual squared
norms — sums of squares, which cancel nothing.
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


class _Gram(NamedTuple):
    """Per-row Gram quantities of the weighted basis vectors u, v, z (for Q,
    Q', Q''), with the powers of x peeled off for |x| > 1.

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


def _inner_basis(x: np.ndarray, horizon: np.ndarray, root_w: np.ndarray, width: int):
    """Weighted basis rows for |x| <= 1, cut to ``width`` columns, stacked
    as u, v, z along the first axis of a (3, rows, width) array."""
    j = np.arange(width, dtype=float)
    powers = _powers(x, horizon, width)
    terms = np.zeros((3,) + powers.shape)
    terms[0] = powers
    terms[1, :, 1:] = j[1:] * powers[:, :-1]
    terms[2, :, 2:] = (j[2:] * (j[2:] - 1.0)) * powers[:, :-2]
    # reversed cumulative sums: entry k holds the sum over j >= k
    return root_w[:width] * np.cumsum(terms[..., ::-1], axis=2)[..., ::-1]


def _outer_basis(n: int, y: np.ndarray, horizon: np.ndarray, root_w: np.ndarray):
    """Weighted tilde basis rows for |x| > 1 (x**n, x**(n-1), x**(n-2)
    peeled off), from y = 1/x, stacked like ``_inner_basis``."""
    width = int(min(n, horizon.max())) + 1
    m_idx = np.arange(width, dtype=float)
    ym = _powers(y, horizon, width)
    # sum_{m<=i} y^m, m y^m and m^2 y^m
    partial = np.cumsum(np.stack([ym, m_idx * ym, m_idx * m_idx * ym]), axis=2)
    ta, tsb, tsm2 = _by_increment(partial, n)
    tb = n * ta - tsb
    td = n * (n - 1.0) * ta - (2.0 * n - 1.0) * tsb + tsm2
    return root_w * np.stack([ta, tb, td])


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


def _check(xs: np.ndarray, g: _Gram, clamp_rho: bool) -> None:
    """Raise DegenerateCovariance at the first row whose covariance is
    singular within tolerance."""
    tol2 = _RESIDUAL_RTOL**2
    columns = (g.sa, g.sb, g.sd, g.nu2, g.nz2, g.rzz2)
    for x, sa, sb, sd, nu2, nz2, rzz2 in zip(
        xs.tolist(), *(c.tolist() for c in columns)
    ):
        if sa <= 0.0 or sb <= 0.0 or sd <= 0.0:
            raise DegenerateCovariance(x, "a component of (Q, Q', Q'') is deterministic")
        if nu2 <= tol2 * sa or nz2 <= tol2 * sd:
            raise DegenerateCovariance(x, "conditional variance below tolerance")
        if rzz2 <= tol2 * nz2 and not clamp_rho:
            raise DegenerateCovariance(x, "conditional correlation within tolerance of 1")


def moments(model: PolynomialModel, xs, *, clamp_rho: bool = False) -> MomentRows:
    """The density inputs at ``xs``, a float or a 1-D array of points (a
    float gives one row).

    Raises DegenerateModel when fewer than three increments carry noise (the
    covariance of (Q, Q', Q'') is then singular everywhere), ValueError for
    a non-finite point, and DegenerateCovariance, carrying the first failing
    point, when a covariance is singular within tolerance at a point, such
    as x = 0 for a model with no constant term.

    With ``clamp_rho=True`` a conditional correlation that is within
    float64 resolution of +-1 is clamped to the resolvable boundary instead
    of raising.  This happens far out in the tails (|x| very large), where
    the three basis directions genuinely collapse towards one another while
    every density-relevant quantity keeps a finite limit; the clamp lets the
    density be evaluated continuously there.  Rank-type degeneracies still
    raise regardless of the flag.
    """
    model.require_rank_for_density()
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if xs.ndim != 1:
        raise ValueError(f"x must be a float or a 1-D array, got shape {xs.shape}")
    if not np.isfinite(xs).all():
        raise ValueError(f"x must be finite, got {float(xs[~np.isfinite(xs)][0])!r}")
    g = _gram(model, xs)
    _check(xs, g, clamp_rho)
    if clamp_rho:
        np.maximum(g.rzz2, _RESIDUAL_RTOL**2 * g.nz2, out=g.rzz2)
    abs_x = np.abs(xs)
    outer = abs_x > 1.0
    # sigma_W/B carries x**(n-2) / x**(n-1) = 1/x on the peeled side
    swb = np.sqrt(g.nz2 / g.sb)
    swb[outer] /= abs_x[outer]
    rho = g.cr / np.sqrt(g.nu2 * g.nz2)
    # |rho| >= 1 is only reachable through rounding of cr
    rho = np.where(np.abs(rho) >= 1.0, np.copysign(1.0 - 1e-15, rho), rho)
    peel = np.zeros_like(xs)
    peel[outer] = model.degree * np.log(abs_x[outer])
    return MomentRows(xs, swb, rho, g.rzz2 / g.nz2, np.sqrt(g.nu2), peel)
