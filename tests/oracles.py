"""Independent oracle implementations the tests pin the engine against.

Everything here is deliberately built from first principles rather than
from the package's formulas: covariances by direct summation over the
monomial basis, the pointwise density by generic multivariate-normal
conditioning plus 2-D quadrature, the simulation checks by closed-form
(degree 3) or companion-matrix root finding, and the kernel brackets by
arbitrary-precision or exact rational arithmetic on the rational tables.
Agreement with the engine is then evidence, not tautology.  The
exceptions: ``density_split``, a two-term rearrangement of the density's
closed form kept to compare the two conditional-variance conventions (its
inputs come from ``brute_force_covariance``), ``density_mp``, the closed
form itself in mpmath on the inputs of ``moments_mp`` (exact-integer direct
sums), ``scale_model``, a model transform the invariance checks use, and
``bracket_names``/``bracket_value``, which expose the engine's brackets to
be checked against the oracles here.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple

import mpmath
import numpy as np
from numpy.polynomial import polynomial as P
from scipy import integrate

from rice_maxima import PolynomialModel
from rice_maxima.kernels import _BRACKETS, _bracket_values


def bracket_names() -> tuple[str, ...]:
    """The engine's brackets: the tables and their reflections."""
    return tuple(_BRACKETS)


def bracket_value(name: str, t):
    """The engine's value of one bracket at ``t`` (a float, or an array of
    floats)."""
    array = np.atleast_1d(np.asarray(t, dtype=float))
    with np.errstate(all="ignore"):
        value = dict(zip(_BRACKETS, _bracket_values(array)))[name]
    return float(value[0]) if np.ndim(t) == 0 else value


def bracket_value_mp(name: str, t, dps: int = 60):
    """One kernel bracket, sum_d P_d(t) e^{-dt}, at ``t`` in ``dps``-digit
    arithmetic from its exact rational rows."""
    with mpmath.workdps(dps):
        tt = mpmath.mpf(t)
        acc = mpmath.mpf(0)
        for d, poly in _BRACKETS[name].rows:
            p = mpmath.mpf(0)
            for c in reversed(poly):
                p = p * tt + mpmath.mpf(c.numerator) / c.denominator
            acc += p * mpmath.exp(-d * tt)
        return acc


def bracket_taylor(name: str, terms: int) -> list[Fraction]:
    """The first ``terms`` Taylor coefficients at t = 0 of one bracket, in
    exact fractions: c_m = sum_d sum_j a_{d,j} (-d)^{m-j} / (m-j)!."""
    coeff = [Fraction(0)] * terms
    for d, poly in _BRACKETS[name].rows:
        for j, a in enumerate(poly):
            power = Fraction(1)
            for m in range(j, terms):
                coeff[m] += a * power
                power = power * (-d) / (m - j + 1)
    return coeff


def brute_force_covariance(model: PolynomialModel, x: float) -> np.ndarray:
    """3x3 covariance of (Q, Q', Q'') at ``x`` by direct summation.

    Increment D_k (variance sigma_k^2) feeds every coefficient A_j with
    j >= k, so its contribution to (Q, Q', Q'') is the literal sum of
    monomial derivatives over j = k..n.
    """
    n = model.degree
    weights = [model.sigma0**2] + [s * s for s in model.sigma]
    cov = np.zeros((3, 3))
    for k in range(0, n + 1):
        if weights[k] == 0.0:
            continue
        a = sum(x**j for j in range(k, n + 1))
        b = sum(j * x ** (j - 1) for j in range(max(k, 1), n + 1))
        d = sum(j * (j - 1) * x ** (j - 2) for j in range(max(k, 2), n + 1))
        v = np.array([a, b, d])
        cov += weights[k] * np.outer(v, v)
    return cov


def conditional_pair_cov(cov: np.ndarray) -> np.ndarray:
    """Covariance of (Q, Q'') given Q' = 0, from the full 3x3 covariance."""
    cross = cov[[0, 2], 1]
    return cov[np.ix_([0, 2], [0, 2])] - np.outer(cross, cross) / cov[1, 1]


def conditional_moments(model: PolynomialModel, x: float) -> tuple[float, ...]:
    """(sigma_U, sigma_W / B, rho, 1 - rho^2) at ``x`` by Gaussian
    conditioning of ``brute_force_covariance`` in float64: sigma_U and
    sigma_W are the standard deviations of Q and Q'' given Q' = 0, rho their
    correlation and B the standard deviation of Q'."""
    cov = brute_force_covariance(model, x)
    pair = conditional_pair_cov(cov)
    rho = pair[0, 1] / math.sqrt(pair[0, 0] * pair[1, 1])
    return (
        math.sqrt(pair[0, 0]),
        math.sqrt(pair[1, 1] / cov[1, 1]),
        rho,
        1.0 - rho * rho,
    )


def quadratic_form(model: PolynomialModel, x: float) -> tuple[float, ...]:
    """(k, l, m, det Sigma) at ``x`` from ``brute_force_covariance``:
    -l r^2 - 2 m r t - k t^2 is the exponent of the joint density of
    (Q, Q'') = (r, t) given Q' = 0 (half the inverse of their conditional
    covariance), and det Sigma the determinant of the full 3x3 covariance."""
    cov = brute_force_covariance(model, x)
    inv = np.linalg.inv(conditional_pair_cov(cov))
    det = float(np.linalg.det(cov))
    return inv[1, 1] / 2.0, inv[0, 0] / 2.0, inv[0, 1] / 2.0, det


class MomentsMp(NamedTuple):
    """The density inputs at one point in mpmath numbers: sigma_W / B, rho,
    1 - rho^2 and ln sigma_U."""

    sigma_w_over_b: mpmath.mpf
    rho: mpmath.mpf
    one_minus_rho_sq: mpmath.mpf
    log_sigma_u: mpmath.mpf


def moments_mp(model: PolynomialModel, x: float, dps: int = 50) -> MomentsMp:
    """The density inputs at ``x`` from the covariance of (Q, Q', Q'')
    summed directly over the increments (see ``_conditioned_sums``), with
    only the final ratios rounded, to ``dps`` digits."""
    nu, nz, cr, det, sbb, log2_scale = _conditioned_sums(model, x)
    with mpmath.workdps(dps):
        xx = abs(mpmath.mpf(x))
        nu, nz = mpmath.mpf(nu), mpmath.mpf(nz)
        swb = mpmath.sqrt(nz) / sbb / (xx if abs(x) > 1.0 else 1)
        log_sigma_u = (mpmath.log(nu / sbb) - log2_scale * mpmath.log(2)) / 2
        if abs(x) > 1.0:
            log_sigma_u += model.degree * mpmath.log(xx)
        return MomentsMp(swb, cr / mpmath.sqrt(nu * nz), det / (nu * nz), log_sigma_u)


@functools.lru_cache(maxsize=None)
def _conditioned_sums(model: PolynomialModel, x: float) -> tuple[int, ...]:
    """Exact integers (nu, nz, cr, det, sbb, log2_scale) at ``x``: with
    Gram sums s.. of the basis vectors a, b, d of (Q, Q', Q''), nu = saa sbb
    - sab^2, nz = sdd sbb - sbd^2, cr = sad sbb - sab sbd (sbb times the
    residual Gram entries after projecting out Q') and det = nu nz - cr^2;
    nu / sbb is sigma_U^2 (over x^(2n) for |x| > 1) times 2^log2_scale.

    The basis sums are accumulated from k = n down in binary fixed point,
    for |x| > 1 as the exact quotients a_k / x^n, b_k / x^(n-1) and
    d_k / x^(n-2), which are sums of powers of 1/x.  They carry enough bits
    that rounding them cannot reach the outputs; weights, Gram sums and
    determinants are then exact.  The fixed-point powers reach 0 after a
    horizon of ~bits / |log2 x| terms; from there on a, b and d stop
    changing, and the remaining weights add their fixed products in one
    step.  O(min(n, horizon)) integer operations, cached.
    """
    n = model.degree
    variances = [model.sigma0**2] + [s * s for s in model.sigma]
    ratios = [w.as_integer_ratio() for w in variances]
    shift = max(den.bit_length() for _, den in ratios)
    weights = [num << (shift - den.bit_length()) for num, den in ratios]
    peeled = abs(x) > 1.0
    num, den = x.as_integer_ratio()
    if peeled:
        num, den = den, num
    # more bits the farther from |x| = 1, out or in: the determinants cancel
    # ~ x^-6 of saa sbb^2 sdd far out and a power of x near the origin; and
    # first |log2 x| more, so that the sums keep those bits below the power
    # of the first weighted column (k from 0, or n - k peeled)
    weighted = [k for k, w in enumerate(variances) if w]
    first = n - weighted[-1] if peeled else weighted[0]
    bits = 256 + 8 * abs(math.frexp(x)[1])
    if x:
        bits += first * math.ceil(abs(math.log2(abs(x))))
    base = (num << bits) // den
    powers = [1 << bits]
    while len(powers) <= n and powers[-1]:
        powers.append((powers[-1] * base) >> bits)
    horizon = len(powers)  # the powers from here on are 0, or past n
    powers += [0, 0]
    # peeled, a, b and d are fixed below k = n - horizon + 1 (``bottom``);
    # plain, they are 0 above k = horizon
    top, bottom = (n, max(n - horizon + 1, 0)) if peeled else (min(n, horizon), 0)
    a = b = d = 0
    saa = sab = sad = sbb = sbd = sdd = 0
    for k in range(top, bottom - 1, -1):
        if peeled:
            power = powers[n - k]
            a, b, d = a + power, b + k * power, d + k * (k - 1) * power
        else:
            a += powers[k]
            b += k * powers[k - 1] if k >= 1 else 0
            d += k * (k - 1) * powers[k - 2] if k >= 2 else 0
        w = weights[k]
        if w:
            wa, wb = w * a, w * b
            saa, sab, sad = saa + wa * a, sab + wa * b, sad + wa * d
            sbb, sbd, sdd = sbb + wb * b, sbd + wb * d, sdd + w * d * d
    w = sum(weights[:bottom])
    saa, sab, sad = saa + w * a * a, sab + w * a * b, sad + w * a * d
    sbb, sbd, sdd = sbb + w * b * b, sbd + w * b * d, sdd + w * d * d
    nu = saa * sbb - sab * sab
    nz = sdd * sbb - sbd * sbd
    cr = sad * sbb - sab * sbd
    return nu, nz, cr, nu * nz - cr * cr, sbb, 2 * bits + shift - 1


def density_mp(model: PolynomialModel, x: float, u: float):
    """The closed-form density at ``x`` in mpmath, from ``moments_mp``:
    (sigma_W / B) / (4 pi) [erfc(-q g) + rho e^(-q^2/2) erfc(rho q g)] with
    q = u / sigma_U and g = 1 / sqrt(2 (1 - rho^2)).  The two terms cancel
    to ~1 - rho^2 as rho -> -1, so the working precision grows with it."""
    dps = max(50, 30 + int(-mpmath.log10(moments_mp(model, x).one_minus_rho_sq)))
    m = moments_mp(model, x, dps)
    with mpmath.workdps(dps):
        if u == math.inf:
            return m.sigma_w_over_b / (2 * mpmath.pi)
        q = u * mpmath.exp(-m.log_sigma_u)
        g = 1 / mpmath.sqrt(2 * m.one_minus_rho_sq)
        bracket = mpmath.erfc(-q * g) + m.rho * mpmath.exp(-q * q / 2) * mpmath.erfc(
            m.rho * q * g
        )
        return m.sigma_w_over_b / (4 * mpmath.pi) * bracket


def tail_count_mp(model: PolynomialModel, lo: float, u: float):
    """Expected count on (lo, inf), lo > 1, as mpmath.quad of ``density_mp``
    in s = 1/x over (0, 1/lo), where the integrand is smooth."""
    with mpmath.workdps(20):
        return mpmath.quad(
            lambda s: density_mp(model, float(1 / s), u) / (s * s),
            [0, 1 / mpmath.mpf(lo)],
            method="gauss-legendre",
        )


def scale_model(model: PolynomialModel, c: float) -> PolynomialModel:
    """Multiply every increment deviation by ``c > 0``.

    The paths of the scaled model are exactly ``c`` times the originals, so
    maxima locations are unchanged and levels scale linearly — the basis of
    the scale-covariance checks.
    """
    c = float(c)
    if not (c > 0) or not np.isfinite(c):
        raise ValueError(f"scale factor must be positive and finite, got {c!r}")
    return PolynomialModel(
        degree=model.degree,
        sigma=tuple(c * s for s in model.sigma),
        sigma0=c * model.sigma0,
    )


def oracle_density(
    model: PolynomialModel, x: float, u: float, *, sd_span: float = 12.0
) -> float:
    """Density of local maxima with value below ``u`` at ``x``, computed by
    2-D quadrature of the conditioned Gaussian triple.

    Conditions (Q'', Q) on Q' = 0, then integrates |w| times the bivariate
    normal density over {w < 0, q <= u}, truncating each variable at
    ``sd_span`` conditional standard deviations (the truncated mass is of
    order exp(-sd_span**2 / 2), far below the comparison tolerances).
    """
    if u == -math.inf:
        return 0.0
    cov = brute_force_covariance(model, x)
    # reorder to (Q', Q'', Q)
    s = cov[np.ix_([1, 2, 0], [1, 2, 0])]
    var_slope = s[0, 0]
    if var_slope <= 0.0:
        raise ValueError(f"degenerate slope variance at x={x!r}")
    s12 = s[1:, 0]
    c2 = s[1:, 1:] - np.outer(s12, s12) / var_slope
    det2 = c2[0, 0] * c2[1, 1] - c2[0, 1] ** 2
    if det2 <= 0.0:
        raise ValueError(f"degenerate conditional covariance at x={x!r}")
    inv2 = np.array([[c2[1, 1], -c2[0, 1]], [-c2[0, 1], c2[0, 0]]]) / det2
    norm2 = 1.0 / (2.0 * math.pi * math.sqrt(det2))

    def pdf(w: float, q: float) -> float:
        e = inv2[0, 0] * w * w + 2.0 * inv2[0, 1] * w * q + inv2[1, 1] * q * q
        return norm2 * math.exp(-0.5 * e)

    sd_w = math.sqrt(c2[0, 0])
    slope = c2[0, 1] / c2[0, 0]
    sd_q = math.sqrt(max(c2[1, 1] - c2[0, 1] ** 2 / c2[0, 0], 0.0))

    def q_lo(w: float) -> float:
        return slope * w - sd_span * sd_q

    def q_hi(w: float) -> float:
        hi = min(u, slope * w + sd_span * sd_q)
        lo = q_lo(w)
        return hi if hi > lo else lo

    value, _ = integrate.dblquad(
        lambda q, w: -w * pdf(w, q),
        -sd_span * sd_w,
        0.0,
        q_lo,
        q_hi,
        epsabs=1e-14,
        epsrel=1e-11,
    )
    slope_pdf_at_zero = 1.0 / math.sqrt(2.0 * math.pi * var_slope)
    return slope_pdf_at_zero * value


def sample_cubic_coefficients(trials: int, seed: int) -> np.ndarray:
    """(trials, 4) coefficient rows (A_0..A_3) of the unit degree-3 model,
    drawn with a plain generator (independent of the engine's per-trial
    seeding scheme)."""
    rng = np.random.default_rng(seed)
    increments = rng.standard_normal((trials, 3))
    coeffs = np.zeros((trials, 4))
    coeffs[:, 1:] = np.cumsum(increments, axis=1)
    return coeffs


def cubic_count_below(
    coeffs: np.ndarray, lo: float, hi: float, u: float
) -> np.ndarray:
    """Exact per-trial count of local maxima of degree-3 samples on
    (lo, hi) with value below ``u``, from the quadratic formula.

    Q'(x) = A1 + 2 A2 x + 3 A3 x^2; a maximum is a root with
    Q''(x) = 2 A2 + 6 A3 x < 0, counted when x is inside the interval
    and Q(x) <= u.
    """
    a0, a1, a2, a3 = (coeffs[:, j] for j in range(4))
    qa, qb, qc = 3.0 * a3, 2.0 * a2, a1
    counts = np.zeros(len(coeffs), dtype=np.int64)

    def accept(x: np.ndarray, mask: np.ndarray) -> None:
        with np.errstate(over="ignore", invalid="ignore"):
            curvature = qb + 2.0 * qa * x
            inside = (x > lo) & (x < hi)
            value = ((a3 * x + a2) * x + a1) * x + a0
            below = value <= u if u != math.inf else np.ones_like(x, dtype=bool)
            good = mask & inside & (curvature < 0.0) & below
        counts[good] += 1

    quadratic = qa != 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        disc = qb * qb - 4.0 * qa * qc
        has_roots = quadratic & (disc > 0.0)
        sq = np.sqrt(np.where(has_roots, disc, 0.0))
        for sign in (-1.0, 1.0):
            accept(
                np.where(has_roots, (-qb + sign * sq) / (2.0 * qa), np.nan),
                has_roots,
            )
        # degenerate-leading case: Q' linear (probability zero under the
        # continuous law, handled for completeness)
        linear = ~quadratic & (qb != 0.0)
        accept(np.where(linear, -qc / np.where(linear, qb, 1.0), np.nan), linear)
    return counts


def root_count_below(
    coeffs: np.ndarray, levels, lo: float = -math.inf, hi: float = math.inf
) -> np.ndarray:
    """Per-trial counts (trials, len(levels)) of local maxima strictly
    inside (lo, hi) with value <= each level, from the companion-matrix
    roots of Q'.

    A root is real when |imag| <= 1e-7 max(1, |root|); it is a maximum
    when Q'' < 0 there.
    """
    levels = np.asarray(levels, dtype=float)
    counts = np.zeros((len(coeffs), levels.size), dtype=np.int64)
    for i, a in enumerate(coeffs):
        d1 = P.polyder(a)
        roots = P.polyroots(d1)
        real = roots[np.abs(roots.imag) <= 1e-7 * np.maximum(1.0, np.abs(roots))].real
        real = real[(real > lo) & (real < hi)]
        maxima = real[P.polyval(real, P.polyder(d1)) < 0.0]
        values = P.polyval(maxima, a)
        counts[i] = (values[:, None] <= levels).sum(axis=0)
    return counts


def cubic_em_mc(
    lo: float, hi: float, u: float, trials: int, seed: int
) -> tuple[float, float]:
    """Simulation estimate (mean, stderr) of the degree-3 expected count."""
    counts = cubic_count_below(sample_cubic_coefficients(trials, seed), lo, hi, u)
    mean = float(counts.mean())
    stderr = float(counts.std(ddof=1) / math.sqrt(trials))
    return mean, stderr


def density_split(
    model: PolynomialModel,
    x: float,
    u: float,
    *,
    s_convention: str = "conditional",
) -> tuple[float, float]:
    """Diagnostic two-term form of the density at a finite level.

    Returns ``(base_term, correction_term)`` where the base term uses only the
    level through ``erf(u sqrt(L))`` and the correction term carries the
    exponentially damped factor.  Their sum equals ``maxima_density`` when
    ``s_convention="conditional"`` (rate constant ``S = K - M^2 / L``).  The
    alternative ``s_convention="combined"`` uses ``S = K - M^2 / (4 L)``,
    which rescales the base amplitude and is kept for cross-checking only.

    This diagnostic works with the float64 quadratic-form coefficients of
    ``quadratic_form`` and composes ``erf(.) + 1``, which loses accuracy deep
    in the lower tail (``u * sqrt(L) << -1``) where the production ``erfc``
    form stays exact.
    It is intended for moderate degrees, locations and levels; the production
    path is ``maxima_density``.
    """
    if u in (math.inf, -math.inf):
        raise ValueError("density_split requires a finite level u")
    k, l, m, det = quadratic_form(model, x)
    if s_convention == "conditional":
        s = k - m * m / l
    elif s_convention == "combined":
        s = k - m * m / (4.0 * l)
    else:
        raise ValueError(f"unknown s_convention: {s_convention!r}")
    amp = 1.0 / (2.0 * s * math.sqrt(2.0 * l * det))
    base = amp / (4.0 * math.pi) * (math.erf(u * math.sqrt(l)) + 1.0)
    ratio = abs(m) / math.sqrt(l * k)
    arg = u * m / math.sqrt(k)
    rate = -l * s * u * u / k
    sign = 1.0 if m >= 0.0 else -1.0
    correction = -sign * amp / (4.0 * math.pi) * ratio * (math.erf(arg) + 1.0) * math.exp(rate)
    return base, correction
