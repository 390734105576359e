"""Covariance moments of (Q, Q', Q'') and the derived quadratic-form
parameters, evaluated without overflow or catastrophic cancellation for any
degree and any point.

Batching.  One private kernel evaluates a whole batch of points (a round
of quadrature panels) at once: it builds the weighted basis vectors of every
point as rows of (rows, n+1) arrays and reads all Gram quantities off them
with row-wise dot products.  ``moment_rows`` returns the per-point results
the density consumes; ``moments`` is the one-row view that also assembles
the full ``MomentSet``.  Rows are processed in chunks of at most
``_CHUNK_ELEMENTS`` array elements, so the temporaries stay small at any
degree (one row per chunk once n + 1 exceeds that budget).

Scaling.  For |x| <= 1 every basis sum is bounded by a small polynomial in
n, so the weighted basis vectors are formed directly.  For |x| > 1 the
dominant factor ``x**n`` is peeled off analytically: with y = 1/x,

    a_k(x) = x**n     * sum_{m=0}^{n-k} y**m
    b_k(x) = x**(n-1) * sum_{m=0}^{n-k} (n-m) y**m
    d_k(x) = x**(n-2) * sum_{m=0}^{n-k} (n-m)(n-m-1) y**m

so each moment is (bounded tilde sum) x (pure power of x), and every ratio
is formed so the powers of x cancel analytically rather than numerically.
On the batched path the peeled powers enter only as 1/|x| (in sigma_W/B)
and as n log|x| (in the level ratio u/sigma_U); ``moments`` carries them as
``ScaledValue`` for its covariance fields.  Powers below the smallest
normal float64 are set to zero instead of computed: they cannot change any
Gram sum, and subnormal arithmetic is an order of magnitude slower.

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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateCovariance
from .model import PolynomialModel
from .scaled import ScaledValue

__all__ = ["MomentRows", "MomentSet", "moment_rows", "moments"]

# A residual direction shorter than this fraction of its parent vector is
# treated as numerically zero: the covariance is rank-deficient within
# working precision and the Rice density would divide noise by noise.
_RESIDUAL_RTOL = 1e-12
# Largest (rows, n+1) temporary the batched kernel builds at once.
_CHUNK_ELEMENTS = 1 << 14
# log2 of the smallest normal float64: powers below it are taken as zero.
_LOG2_TINY = -1022.0


@dataclass(frozen=True)
class MomentSet:
    """Moments of (Q, Q', Q'') at a point, plus the quadratic-form ratios.

    ``a2, b2, d2`` are the variances of Q, Q', Q''; ``c, e, f`` the
    covariances (Q,Q'), (Q,Q''), (Q',Q'').  ``k, l, m`` are the coefficients
    of the exponent -L r^2 - 2 M r t - K t^2 of the joint density of
    (Q, Q'') at Q' = 0, with r the value coordinate (Q) and t the curvature
    coordinate (Q''), and ``s = k - m**2/(4l)``; ``s_conditional =
    k - m**2/l`` is the completed-square variant (the reciprocal of twice
    the variance of Q'' given Q' = 0).

    ``sigma_u`` is the conditional standard deviation of Q given Q' = 0;
    ``sigma_w_over_b`` is the conditional standard deviation of Q'' given
    Q' = 0 divided by the standard deviation of Q'; ``rho`` is the
    conditional correlation of (Q, Q'') given Q' = 0.  These three are the
    well-scaled quantities the density evaluation consumes.
    """

    x: float
    a2: ScaledValue
    b2: ScaledValue
    d2: ScaledValue
    c: ScaledValue
    e: ScaledValue
    f: ScaledValue
    det_sigma: ScaledValue
    k: float
    l: float
    m: float
    s: float
    s_conditional: float
    sigma_u: ScaledValue
    sigma_w_over_b: float
    rho: float
    # 1 - rho**2 computed from residual norms (not from rho), so it stays
    # accurate when the conditional correlation approaches +-1.
    one_minus_rho_sq: float


class _Gram(NamedTuple):
    """Per-row Gram quantities of the weighted basis vectors u, v, z (for Q,
    Q', Q''), with the powers of x peeled off for |x| > 1.

    ``sa, sb, sd, sc, se, sf`` are u.u, v.v, z.z, u.v, u.z, v.z; ``ru`` and
    ``rz`` are u and z with the v direction projected out, ``rzz`` is rz
    with the ru direction projected out: ``nu2 = |ru|^2``, ``nz2 = |rz|^2``,
    ``cr = ru.rz`` and ``rzz2 = |rzz|^2``.
    """

    sa: np.ndarray
    sb: np.ndarray
    sd: np.ndarray
    sc: np.ndarray
    se: np.ndarray
    sf: np.ndarray
    nu2: np.ndarray
    nz2: np.ndarray
    cr: np.ndarray
    rzz2: np.ndarray


class MomentRows(NamedTuple):
    """What the density needs at each point of a batch, one entry per row.

    ``sigma_w_over_b``, ``rho`` and ``one_minus_rho_sq`` are the
    ``MomentSet`` fields of the same names.  ``sigma_u_tilde`` is sigma_U
    with the peeled power removed and ``peel`` is n log|x| for |x| > 1 (0
    otherwise), so that sigma_U = sigma_u_tilde * exp(peel).
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
    sa, sd = gram[0, 0], gram[2, 2]
    sc, se, sf = gram[0, 1], gram[0, 2], gram[1, 2]
    return _Gram(sa, sb, sd, sc, se, sf, nu2, nz2, cr, rzz2)


def _gram(model: PolynomialModel, xs: np.ndarray, clamp_rho: bool) -> _Gram:
    """The batched kernel: Gram quantities at every point of ``xs``.

    Raises ValueError for a non-finite point and DegenerateCovariance,
    carrying the first failing point, when any covariance is singular
    within tolerance (see ``moments``).
    """
    if not np.isfinite(xs).all():
        raise ValueError(f"x must be finite, got {float(xs[~np.isfinite(xs)][0])!r}")
    if model.effective_rank < 3:
        raise DegenerateCovariance(
            float(xs[0]), f"effective rank {model.effective_rank} < 3"
        )
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
    g = _Gram(*out)

    _check(xs, g, clamp_rho)
    if clamp_rho:
        np.maximum(g.rzz2, _RESIDUAL_RTOL**2 * g.nz2, out=g.rzz2)
    return g


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


def moment_rows(
    model: PolynomialModel, xs, *, clamp_rho: bool = False
) -> MomentRows:
    """Density inputs at every point of the 1-D array ``xs`` in one call.

    Same errors and ``clamp_rho`` semantics as ``moments``.
    """
    xs = np.asarray(xs, dtype=float)
    return _rows(model, xs, _gram(model, xs, clamp_rho))


def _rows(model: PolynomialModel, xs: np.ndarray, g: _Gram) -> MomentRows:
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


def moments(
    model: PolynomialModel, x: float, *, clamp_rho: bool = False
) -> MomentSet:
    """Covariance moments of (Q, Q', Q'') at ``x``.

    Raises DegenerateCovariance when the 3x3 covariance is singular within
    tolerance: fewer than three active increments, or a structurally
    degenerate point such as x = 0 for a model with no constant term.

    With ``clamp_rho=True`` a conditional correlation that is within
    float64 resolution of +-1 is clamped to the resolvable boundary instead
    of raising.  This happens far out in the tails (|x| very large), where
    the three basis directions genuinely collapse towards one another while
    every density-relevant quantity keeps a finite limit; the clamp lets the
    density be evaluated continuously there.  Rank-type degeneracies still
    raise regardless of the flag.
    """
    x = float(x)
    xs = np.array([x])
    g = _gram(model, xs, clamp_rho)
    rows = _rows(model, xs, g)
    n = model.degree
    if abs(x) <= 1.0:
        pa = pb = pd = ScaledValue.from_float(1.0)
    else:
        xv = ScaledValue.from_float(x)
        pa, pb, pd = xv.powi(n), xv.powi(n - 1), xv.powi(n - 2)
    SA, SB, SD, SC, SE, SF, nu2, nz2, cr, rzz2 = (float(v[0]) for v in g)

    sv = ScaledValue.from_float
    pa2 = pa * pa
    pd2 = pd * pd
    papd = pa * pd

    # det(Sigma) = x^(6n-6) * B2 * |u_perp|^2 * |z_perp_perp|^2
    det_sigma = (pa * pb * pd).powi(2) * sv(SB * nu2 * rzz2)

    k_sv = one_over(pd2 * sv(2.0 * rzz2))
    l_sv = sv(nz2) / (pa2 * sv(2.0 * nu2 * rzz2))
    m_sv = sv(-cr) / (papd * sv(2.0 * nu2 * rzz2))
    s_cond_sv = one_over(pd2 * sv(2.0 * nz2))
    m2_over_l_sv = sv(cr * cr) / (pd2 * sv(2.0 * nu2 * rzz2 * nz2))

    return MomentSet(
        x=x,
        a2=pa2 * sv(SA),
        b2=(pb * pb) * sv(SB),
        d2=pd2 * sv(SD),
        c=(pa * pb) * sv(SC),
        e=papd * sv(SE),
        f=(pb * pd) * sv(SF),
        det_sigma=det_sigma,
        k=k_sv.to_float(),
        l=l_sv.to_float(),
        m=m_sv.to_float(),
        s=(s_cond_sv + sv(0.75) * m2_over_l_sv).to_float(),
        s_conditional=s_cond_sv.to_float(),
        sigma_u=abs(pa) * sv(math.sqrt(nu2)),
        sigma_w_over_b=float(rows.sigma_w_over_b[0]),
        rho=float(rows.rho[0]),
        one_minus_rho_sq=float(rows.one_minus_rho_sq[0]),
    )


def one_over(value: ScaledValue) -> ScaledValue:
    return ScaledValue.from_float(1.0) / value
