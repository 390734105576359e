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
  a = (v + y P') / n and d = (n-1)(v - y P') + y**2 P''.

Powers below the smallest normal float64 are set to zero instead of
computed: they cannot change any Gram sum, and subnormal arithmetic is an
order of magnitude slower.

The frame and the read-out.  Each row is reduced, by progressive
orthogonalization (every quantity a sum of squares), to an orthogonal
frame: |v|^2; |g|^2 for g = G with v projected out; eta, the g-coordinate
of H after v; and |h|^2 for h = H with v and g projected out.  With four
per-kind coefficients (s, delta, eps, kappa) and W^2 = (delta + eps
eta)^2 |g|^2 + eps^2 |h|^2,

    sigma_W / B = kappa W / |v|        rho = s (delta + eps eta) |g| / W
    1 - rho^2 = eps^2 |h|^2 / W^2      sigma_U = |beta| |g|

    kind       s   delta   eps   kappa   beta
    plain      1   0       1     1       1
    near      -1   2       x     1       x^2
    peeled     1   1 - n   y     y^2     x^n y / n

The power x^2 or x^n of beta is returned as its log (the ``peel``, used by
the level ratio u / sigma_U), so sigma_U neither overflows far out nor
underflows at the origin.  Beyond |x| ~ 1e154, y^2 underflows to 0:
sigma_W / B = 1 - rho^2 = 0 and rho = -1, the limit; below |x| ~ 1e-154
near the origin 1 - rho^2 = 0 and rho = -1 likewise.  A point is refused
only where the covariance has lost rank: where Q' or Q is deterministic
(|v| = 0, or x = 0 without a constant term, where sigma_U = 0), or where a
residual g or h is shorter than ``_RESIDUAL_RTOL`` of its row.
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

    ``sigma_w_over_b`` is sigma_W / B, ``rho`` the conditional correlation
    and ``one_minus_rho_sq`` is 1 - rho^2 from residual norms.
    ``sigma_u_tilde`` is sigma_U with the peeled power removed and ``peel``
    the log of that power: n log|x| for |x| > 1, 2 log|x| on near-origin
    rows and 0 otherwise, so that sigma_U = sigma_u_tilde * exp(peel).
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
            peeled = self.peel != 0.0
            if peeled.any():
                log_u = math.log(abs(u)) if u != 0.0 else -math.inf
                log_q = log_u - np.log(self.sigma_u_tilde[peeled]) - self.peel[peeled]
                q[peeled] = np.copysign(np.exp(log_q), u)
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


def _inner_basis(x, horizon, root_w, width: int, near: bool) -> np.ndarray:
    """Weighted basis rows for |x| <= 1, cut to ``width`` columns, stacked
    as G, v, H along the first axis of a (3, rows, width) array: a, b, d,
    or near the origin E, b, F."""
    terms = _terms(_powers(x, horizon, width))
    if near:  # the summands of b and d one power down give E and F
        down = np.pad(terms[1:, :, :-1], ((0, 0), (0, 0), (1, 0)))
        terms = np.stack((down[0], terms[1], down[1]))
    # reversed cumulative sums: entry k holds the sum over j >= k
    return root_w[:width] * np.cumsum(terms[..., ::-1], axis=2)[..., ::-1]


def _outer_basis(n: int, y: np.ndarray, horizon: np.ndarray, root_w: np.ndarray):
    """Weighted basis rows P', v, P'' for |x| > 1 from y = 1/x, stacked
    like ``_inner_basis``."""
    width = int(min(n, horizon.max() + 2.0)) + 1
    terms = _terms(_powers(y, horizon, width))
    terms[[0, 1]] = terms[1], (n - np.arange(width, dtype=float)) * terms[0]
    np.cumsum(terms, axis=2, out=terms)
    # truncation index i is increment index k = n - i; past the horizon the
    # partial sums no longer change, so i is capped at the last column
    out = np.empty((3, len(y), n + 1))
    out[..., n + 1 - width :] = terms[..., ::-1]
    out[..., : n + 1 - width] = terms[..., -1:]
    out *= root_w  # in place: one more (3, rows, n+1) array costs page faults
    return out


def _gram_sums(basis: np.ndarray) -> _Gram:
    """The orthogonal frame, row by row, of the stacked basis G, v, H:
    project v out of G and H, then g out of what is left of H."""
    dot = np.vecdot
    gram = dot(basis[:, None], basis[None, :])  # (3, 3, rows)
    vv = gram[1, 1]
    # Degenerate rows (refused by _check) may produce inf/nan here.
    with np.errstate(divide="ignore", invalid="ignore"):
        resid = basis[0::2] - (gram[0::2, 1] / vv)[..., None] * basis[1]
        gg, gh = dot(resid[0], resid)  # g = resid[0], H after v = resid[1]
        eta = gh / gg
        h = resid[1] - eta[:, None] * resid[0]
        hh = dot(h, h)
        gg = np.where(gg > _RESIDUAL_RTOL**2 * gram[0, 0], gg, 0.0)
        hh = np.where(hh > _RESIDUAL_RTOL**2 * gram[2, 2], hh, 0.0)
    return _Gram(vv, gg, eta, hh)


def _gram(model: PolynomialModel, base: np.ndarray, kind: np.ndarray) -> _Gram:
    """The batched kernel: the frame at every point, given as ``base`` = x,
    or y = 1/x on peeled rows, and built as its row ``kind``, chunk by
    chunk."""
    n = model.degree
    root_w = np.sqrt(model.variance_weights())
    out = np.empty((len(_Gram._fields), len(base)))
    outer = kind == _PEELED
    horizon = _horizon(base)
    # Rows are grouped by kind and basis width: all n+1 columns on the
    # peeled side, otherwise the columns up to the horizon plus the
    # derivative shifts (one more near the origin), past which every entry
    # vanishes.  A row's result then never depends on its batch.
    width = np.where(outer, n, np.minimum(n, horizon + 2.0 + (kind == _NEAR_ORIGIN))) + 1.0
    shape = list(zip(kind.tolist(), width.astype(int).tolist()))
    step = max(1, _CHUNK_ELEMENTS // (n + 1))
    for start in range(0, len(base), step):
        chunk = shape[start : start + step]
        for key in sorted(set(chunk)):
            rows = [start + i for i, k in enumerate(chunk) if k == key]
            if key[0] == _PEELED:
                basis = _outer_basis(n, base[rows], horizon[rows], root_w)
            else:
                near = key[0] == _NEAR_ORIGIN
                basis = _inner_basis(base[rows], horizon[rows], root_w, key[1], near)
            out[:, rows] = _gram_sums(basis)
    return _Gram(*out)


def _check(xs: np.ndarray, g: _Gram, peel: np.ndarray) -> None:
    """Raise DegenerateCovariance at the first row, in batch order, whose
    covariance is singular within tolerance."""
    deterministic = (g.vv <= 0.0) | (peel == -math.inf)  # sigma_U = 0 at x = 0
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
    is carried in the ``peel``.  Rows already computed on ``model`` are
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
    points ``xs`` and checked like ``moments``: the one read-out of the
    module docstring, with the coefficients of each row's kind."""
    n, ax = model.degree, np.abs(xs)
    near = (ax < _ORIGIN_SWITCH) & (model.variance_weights()[0] == 0.0)
    outer = ax > 1.0
    kind = np.where(outer, _PEELED, np.where(near, _NEAR_ORIGIN, _PLAIN))
    base = np.where(outer, 1.0 / np.where(outer, xs, 1.0), xs)  # x, or y = 1/x
    g = _gram(model, base, kind)
    # per kind: s, delta and the exponent of the peeled power of beta
    s, delta, power = np.array([[1.0, 0.0, 0.0], [-1.0, 2.0, 2.0], [1.0, 1.0 - n, n]])[kind].T
    with np.errstate(divide="ignore"):
        peel = power * np.log(np.where(power > 0.0, ax, 1.0))
    _check(xs, g, peel)
    eps = np.where(kind == _PLAIN, 1.0, base)
    norm_g = np.sqrt(g.gg)
    mix = (delta + eps * g.eta) * norm_g  # (delta + eps eta) |g|
    eh = eps * np.sqrt(g.hh)
    w = np.hypot(mix, eh)
    swb = np.where(outer, base * base, 1.0) * w / np.sqrt(g.vv)  # kappa W / |v|
    sigma_u = np.where(outer, np.abs(base) / n, 1.0) * norm_g  # beta without its power
    return swb, s * mix / w, (eh / w) ** 2, sigma_u, peel
