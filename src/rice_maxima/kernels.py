"""Boundary-layer kernels of the four interval families.

As the degree n grows, the maxima density concentrates near |x| = 1 and the
stretched coordinates

    family 1:  x =  1 + t/n      (interval (1, +inf))
    family 2:  x = -1 - t/n      (interval (-inf, -1))
    family 3:  x =  n / (n + t)  (interval (0, 1))
    family 4:  x = -n / (n + t)  (interval (-1, 0))

turn the density into n-free limit kernels H_{f,i}(t), four per family:

    index 1 — amplitude of the always-counted term,
    index 2 — slope of the level correction in the always-counted term,
    index 3 — amplitude ratio of the damped correction term,
    index 4 — slope of the level correction in the damped term.

Every kernel is built from "brackets": finite combinations

    b(t) = sum_d  P_d(t) * exp(-d * t)

with exact rational polynomial coefficients.  Thirteen are tabulated below:
p1 p2 p3 n13 z for family 1, n21 r2 d21 b23 c23 for family 2 and n41 d41 z43
for family 4.  The rest follow from two rules:

* rescaling: a bracket that is a rational multiple of another (times
  e^{-2t} in one case) is not kept; its constant sits in the kernel
  expression instead;
* reflection: x -> 1/x maps family 1 onto family 3 and family 2 onto
  family 4, and on the brackets it acts as R(b)(t) = e^{-Dt} b(-t), D the
  largest decay of b.  Family 3 uses the reflections of all five family-1
  tables (n31 r3 d31 n34 c33); family 4 shares only r and b with family 2
  (r4 = R(r2), b44 = R(b23)) and has its own tables for the rest.

Each family's four kernels thus share five brackets.  All brackets vanish
at t = 0 (their constant terms cancel across rows, checked at import
time), so the rows cancel badly for small t.  Two switches, the same for
every bracket, give each node one of three regimes for all twenty brackets:

* series, ``t <= 0.45``: a Taylor series whose coefficients are derived
  exactly from the rational tables;
* double-double rows, ``0.45 < t < 6.3``: the rows summed in error-free
  float arithmetic (hi + lo pairs, ~32 digits), which absorbs the remaining
  cancellation of up to ~1e16;
* float rows, ``t >= 6.3``: plain float64, where the decaying rows
  underflow harmlessly and the d = 0 row alone reproduces the tail law.

Evaluation works on arrays of t, in one pass for all twenty brackets over
tables stacked at import, with a gather that sums each bracket's rows in
order: the series on (brackets, nodes), the double-double rows on (rows,
nodes) with one table of e^{-dt}, and the float rows each run once, on
their own nodes.  The zero padding of the tables is exact, so the value at
a node does not depend on the other nodes.
``h_kernel`` evaluates one kernel at a float or an array, ``all_kernels``
the sixteen at an array.  All constant tables are built from exact
fractions; no arbitrary-precision library is used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from typing import Mapping

import numpy as np

from .errors import NonFiniteResult
from .model import require_integer

__all__ = ["KernelId", "h_kernel", "all_kernels", "TAIL_LAWS"]

# --------------------------------------------------------------------------
# Exact bracket tables: name -> {decay d: coefficients of P_d, ascending in
# t}.  A plain integer is exact; a pair (p, q) means p/q.
# --------------------------------------------------------------------------

_TABLES: dict[str, dict[int, tuple]] = {
    # ---- family 1 (x = 1 + t/n) ------------------------------------------
    # numerator of H11; under the roots of H12 and H14
    "p1": {
        0: (-140, 24),
        1: (272, 224, 160),
        2: (20, 16, -80, -704, 176, -64),
        3: (-288, -768, -1152, 256, 192),
        4: (124, 472, 1040, 736, 208, 32),
        5: (16, 32, 32),
        6: (-4,),
    },
    # radicand of H11 and H12; its negation is a radicand factor of H13
    "p2": {
        0: (-253, 1012, -1400, 736, -172, 16),
        1: (544, -1632, 1056, 512, -192),
        2: (-294, 588, 324, -600, -216, -80),
        3: (-32, 32, -160),
        4: (35,),
    },
    # denominator of H11
    "p3": {
        0: ((12155, 192), (-6281, 24), (19097, 48), (-787, 3), (1385, 16), (-29, 2), 1),
        1: ((-2141, 8), (6749, 8), (-2018, 3), (-1243, 6), (527, 2), (-401, 6), 6),
        2: (
            (20383, 48),
            (-7297, 8),
            (-4023, 16),
            (29851, 24),
            (-3907, 24),
            (397, 4),
            (-547, 6),
            (68, 3),
            (-8, 3),
        ),
        3: (
            (-6887, 24),
            (7153, 24),
            (12731, 12),
            (-5627, 6),
            (-2335, 6),
            (-1697, 6),
            (-173, 3),
            26,
        ),
        4: (
            (1239, 32),
            (507, 8),
            (-32777, 48),
            (1043, 12),
            (5177, 16),
            (2161, 12),
            (1949, 12),
            43,
            (31, 3),
        ),
        5: ((1043, 24), (-125, 8), 162, (364, 3), (-232, 3), -14, (-34, 3)),
        6: ((-733, 48), (-485, 24), (-523, 48), (-1073, 24), (-73, 12), (-5, 3)),
        7: ((-7, 8), (37, 8), (-35, 12)),
        8: ((115, 192),),
    },
    # numerator of H13 and H14
    "n13": {
        0: (-55, 132, -58, 8),
        1: (124, -156, -120, 24),
        2: (-78, -12, 150, 52, 24),
        3: (4, 36, -8),
        4: (5,),
    },
    # radicand factor of H13 and H14
    "z": {
        0: (15, -4),
        1: (-32, -24),
        2: (18, 36, 12, 8),
        3: (0, -8),
        4: (-1,),
    },
    # ---- family 2 (x = -1 - t/n) -----------------------------------------
    # numerator of H21; under the roots of H22 and H24
    "n21": {
        0: ((1, 8), (3, 4)),
        2: ((-3, 8), (-3, 2), (-9, 2), -2, (3, 2), -2),
        4: ((3, 8), (3, 4), (9, 2), 7, (9, 2), 1),
        6: ((-1, 8),),
    },
    # radicand of H21 and H22, radicand factor of H23
    "r2": {
        0: (3, -12, 24, 32, -44, 16),
        2: (-6, 12, -12, -56, -56, -16),
        4: (3,),
    },
    # denominator of H21
    "d21": {
        0: ((11, 192), (1, 24), (-23, 48), (13, 6), (25, 16), (-5, 2), 1),
        2: (
            (-11, 48),
            (-1, 8),
            (-3, 16),
            (-49, 24),
            (-211, 24),
            (-51, 4),
            (13, 6),
            (8, 3),
            (-8, 3),
        ),
        4: (
            (11, 32),
            (1, 8),
            (29, 16),
            (7, 4),
            (259, 48),
            (221, 12),
            (257, 12),
            (35, 3),
            (7, 3),
        ),
        6: ((-11, 48), (-1, 24), (-55, 48), (-15, 8), (-5, 4), (-1, 3)),
        8: ((11, 192),),
    },
    # numerator of H23 and H24
    "b23": {
        0: (1, -4, -10, 8),
        2: (-2, 4, 14, 20, 8),
        4: (1,),
    },
    # radicand factor of H23 and H24
    "c23": {
        0: ((1, 4), 1),
        2: ((-1, 2), -1, -3, -2),
        4: ((1, 4),),
    },
    # ---- family 4 (x = -n/(n+t)) -----------------------------------------
    # numerator of H41; under the roots of H42 and H44
    "n41": {
        0: ((1, 8),),
        2: ((3, 8), (3, 4), (-9, 2), 7, (-9, 2), 1),
        4: ((-9, 8), (-9, 2), (3, 2), 12, (-31, 2), 2),
        6: ((5, 8), (15, 4), 6, -8, -11, -4),
    },
    # denominator of H41
    "d41": {
        0: ((11, 512),),
        2: ((1, 128), (1, 64), (-55, 128), (45, 64), (-15, 32), (1, 8)),
        4: (
            (-39, 256),
            (-39, 64),
            (15, 128),
            (47, 32),
            (35, 128),
            (-205, 32),
            (257, 32),
            (-35, 8),
            (7, 8),
        ),
        6: (
            (25, 128),
            (75, 64),
            (279, 128),
            (-79, 64),
            (-459, 64),
            (73, 32),
            (165, 16),
            -9,
            1,
        ),
        8: (
            (-37, 512),
            (-37, 64),
            (-239, 128),
            (-27, 16),
            (507, 128),
            (147, 16),
            (1, 8),
            (-9, 2),
            -2,
        ),
    },
    # radicand factor of H43 and H44
    "z43": {
        0: (1,),
        2: (2, 4, -12, 8),
        4: (-3, -12, -8, 16),
    },
}


# The brackets of families 3 and 4 that are reflections R(b)(t) = e^{-Dt} b(-t)
# of a table b, times an exact constant: name -> (table, constant).
_REFLECTIONS: dict[str, tuple[str, Fraction]] = {
    "n31": ("p1", Fraction(1, 64)),
    "r3": ("p2", Fraction(1)),
    "d31": ("p3", Fraction(3, 31)),
    "n34": ("n13", Fraction(1)),
    "c33": ("z", Fraction(1, 8)),
    "r4": ("r2", Fraction(1)),
    "b44": ("b23", Fraction(1)),
}


def _exact(table: Mapping[int, tuple]) -> dict[int, tuple[Fraction, ...]]:
    return {
        d: tuple(Fraction(*c) if isinstance(c, tuple) else Fraction(c) for c in coeffs)
        for d, coeffs in table.items()
    }


def _reflect(
    rows: Mapping[int, tuple[Fraction, ...]], constant: Fraction
) -> dict[int, tuple[Fraction, ...]]:
    """``constant`` * R(b): the decay order reversed, odd powers of t negated."""
    top = max(rows)
    return {
        top - d: tuple(constant * (-c if j % 2 else c) for j, c in enumerate(poly))
        for d, poly in rows.items()
    }


_ROWS = {name: _exact(table) for name, table in _TABLES.items()}
_ROWS.update(
    {name: _reflect(_ROWS[source], c) for name, (source, c) in _REFLECTIONS.items()}
)


_SERIES_CUTOFF = 0.45
_SERIES_TERMS = 44

# Double-double rows below this t, float64 rows from it on, for every
# bracket: 6.3 is where the float rows of p3, the slowest bracket to stop
# cancelling, reach ~1e-14 (the tests check all against a 60-digit sum).
_DD_LIMIT = 6.3
_MAX_DECAY = max(max(table) for table in _TABLES.values())

# --------------------------------------------------------------------------
# Double-double arithmetic (Dekker 1971; Ogita, Rump and Oishi 2005): a
# value is an unevaluated sum hi + lo of two float64 arrays with
# |lo| <= ulp(hi)/2, good to ~1e-32 relative.  Products split their factors
# into 26-bit halves, so no fused multiply-add is needed.
# --------------------------------------------------------------------------

_SPLITTER = 134217729.0  # 2**27 + 1


def _split(a):
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _fast_two_sum(a, b):
    """a + b exactly as s + e, for |a| >= |b|."""
    s = a + b
    return s, b - (s - a)


def _add(a_hi, a_lo, b_hi, b_lo):
    s = a_hi + b_hi
    v = s - a_hi
    e = (a_hi - (s - v)) + (b_hi - v)
    return _fast_two_sum(s, e + (a_lo + b_lo))


def _two_prod(a, b, b_split):
    """a * b exactly as p + e; ``b_split`` is ``_split(b)``."""
    b1, b2 = b_split
    p = a * b
    a1, a2 = _split(a)
    return p, ((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2


def _mul_float(a_hi, a_lo, b, b_split):
    """Double-double times the float ``b``, with ``b_split = _split(b)``."""
    p, e = _two_prod(a_hi, b, b_split)
    return _fast_two_sum(p, e + a_lo * b)


def _mul(a_hi, a_lo, b_hi, b_lo):
    p, e = _two_prod(a_hi, b_hi, _split(b_hi))
    return _fast_two_sum(p, e + (a_hi * b_lo + a_lo * b_hi))


def _split_rational(value: Fraction) -> tuple[float, float]:
    """(hi, lo) with hi the float nearest ``value`` and lo the float nearest
    ``value - hi`` (Python rounds integer division correctly)."""
    num, den = value.numerator, value.denominator
    hi = num / den
    a, b = hi.as_integer_ratio()
    return hi, (num * b - a * den) / (den * b)


# e^{-t} in the double-double regime: t = j/8 + r with |r| <= 1/16, e^{-j/8}
# from a table and e^{-r} from 17 Taylor terms (remainder below 1e-35).  The
# table comes from a 30-term rational Taylor sum of e^{-1/8} raised to
# exact powers.
_EXP_STEP = 8
_EXP_TAYLOR = tuple(
    _split_rational(Fraction(1, math.factorial(k))) for k in range(17)
)
_EIGHTH = sum(Fraction((-1) ** k, _EXP_STEP**k * math.factorial(k)) for k in range(30))
_EXP_TABLE = np.array(
    [_split_rational(_EIGHTH**j) for j in range(int(_EXP_STEP * _DD_LIMIT) + 2)]
).T


def _exp_dd(t):
    """e^{-t} as a double-double, for 0 <= t <= _DD_LIMIT."""
    j = np.rint(t * _EXP_STEP)
    x = j / _EXP_STEP - t  # exact
    x_split = _split(x)
    hi, lo = np.full_like(t, _EXP_TAYLOR[-1][0]), np.full_like(t, _EXP_TAYLOR[-1][1])
    for c_hi, c_lo in _EXP_TAYLOR[-2::-1]:
        hi, lo = _mul_float(hi, lo, x, x_split)
        hi, lo = _add(hi, lo, c_hi, c_lo)
    index = j.astype(int)
    return _mul(hi, lo, _EXP_TABLE[0][index], _EXP_TABLE[1][index])


def _taylor(rows) -> tuple[int, tuple[float, ...]]:
    """Order of the zero at t = 0 and the float Taylor coefficients from
    there on, for the bracket with exact ``rows``.

    The coefficient of t^m is c_m = sum_{d,j} a_{d,j} (-d)^{m-j} / (m-j)!.
    With L the common denominator of the a_{d,j}, L m! c_m is an integer,
    so each c_m is one correctly rounded division, equal to rounding the
    exact rational c_m.
    """
    common = math.lcm(*(c.denominator for _, poly in rows for c in poly))
    scaled = [
        (-d, j, c.numerator * (common // c.denominator))
        for d, poly in rows
        for j, c in enumerate(poly)
        if c
    ]
    numerators = [
        sum(
            a * math.perm(m, j) * minus_d ** (m - j)
            for minus_d, j, a in scaled
            if j <= m
        )
        for m in range(_SERIES_TERMS)
    ]
    lead = next((m for m, a in enumerate(numerators) if a), _SERIES_TERMS)
    series = tuple(
        numerators[m] / (common * math.factorial(m)) for m in range(lead, _SERIES_TERMS)
    )
    return lead, series


class _Bracket:
    """One decaying bracket: its exact rational rows, the order ``lead`` of
    its zero at t = 0 with the float Taylor coefficients ``series`` from
    there on.  ``_bracket_values`` evaluates every bracket at once from the
    tables stacked from these."""

    __slots__ = ("name", "rows", "lead", "series")

    def __init__(self, name: str, rows: Mapping[int, tuple[Fraction, ...]]):
        self.name = name
        self.rows = sorted(rows.items())
        self.lead, self.series = _taylor(self.rows)
        if self.lead == 0:
            raise AssertionError(f"bracket {name!r} does not vanish at t=0")


_BRACKETS = {name: _Bracket(name, rows) for name, rows in _ROWS.items()}

# The stacked tables, zero-padded at the high end (0 t + c = c, and a
# double-double step on (0, 0) returns it): the series, one row per
# bracket; every row of every bracket in bracket order, then one zero row,
# its coefficients split into hi + lo; and the gather _GATHER[k, i], the
# stacked index of row k of bracket i (-1, the zero row, past its last), so
# that adding rows _GATHER[0], _GATHER[1], ... sums each bracket's in order.
_SERIES = np.array(
    list(zip_longest(*(b.series for b in _BRACKETS.values()), fillvalue=0.0))
).T
_LEADS = np.array([[b.lead] for b in _BRACKETS.values()])
_STACKED = [(d, poly) for b in _BRACKETS.values() for d, poly in b.rows] + [(0, ())]
_ROW_HI, _ROW_LO = np.array(
    list(zip_longest(*(map(_split_rational, p) for _, p in _STACKED), fillvalue=(0, 0)))
).T
_DECAYS = np.array([d for d, _ in _STACKED])
_COUNTS = np.array([len(b.rows) for b in _BRACKETS.values()])
_GATHER = np.arange(_COUNTS.max())[:, None]
_GATHER = np.where(_GATHER < _COUNTS, _GATHER + _COUNTS.cumsum() - _COUNTS, -1)


def _series(t):
    acc = np.zeros((len(_SERIES), t.size))
    for column in _SERIES.T[::-1, :, None]:
        acc = acc * t + column
    return acc * t**_LEADS


def _double_double(t):
    """The rows in double-double at 0.45 < t < _DD_LIMIT, each bracket's
    summed and rounded once, with e^{-dt} from one table of its powers."""
    e_hi, e_lo = _exp_dd(t)
    powers = [(np.ones_like(t), np.zeros_like(t))]
    for _ in range(_MAX_DECAY):
        powers.append(_mul(*powers[-1], e_hi, e_lo))
    powers = np.array(powers)[_DECAYS]
    t_split = _split(t)
    shape = (len(_DECAYS), t.size)
    hi = np.broadcast_to(_ROW_HI[:, -1:], shape)
    lo = np.broadcast_to(_ROW_LO[:, -1:], shape)
    for k in range(_ROW_HI.shape[1] - 2, -1, -1):
        hi, lo = _mul_float(hi, lo, t, t_split)
        hi, lo = _add(hi, lo, _ROW_HI[:, k : k + 1], _ROW_LO[:, k : k + 1])
    hi, lo = _mul(hi, lo, powers[:, 0], powers[:, 1])
    acc_hi, acc_lo = hi[_GATHER[0]], lo[_GATHER[0]]
    for row in _GATHER[1:]:
        acc_hi, acc_lo = _add(acc_hi, acc_lo, hi[row], lo[row])
    return acc_hi


def _float_rows(t):
    p = np.zeros((len(_DECAYS), t.size))
    for column in _ROW_HI.T[::-1, :, None]:
        p = p * t + column
    terms = p * np.exp(-_DECAYS[:, None] * t)
    acc = terms[_GATHER[0]]
    for row in _GATHER[1:]:
        acc = acc + terms[row]
    return acc


def _bracket_values(t):
    """(brackets, len(t)) values of every bracket at the nodes ``t`` > 0:
    each regime runs once, on its own nodes, for every bracket."""
    out = np.empty((len(_BRACKETS), t.size))
    for regime, nodes in (
        (_series, t <= _SERIES_CUTOFF),
        (_double_double, (t > _SERIES_CUTOFF) & (t < _DD_LIMIT)),
        (_float_rows, t >= _DD_LIMIT),
    ):
        if nodes.any():
            out[:, nodes] = regime(t[nodes])
    return out


def _positive(t) -> np.ndarray:
    """``t`` as a 1-d float array, every element positive and finite."""
    array = np.atleast_1d(np.asarray(t, dtype=float))
    if array.ndim != 1:
        raise ValueError(f"t must be a float or a 1-D array, got shape {array.shape}")
    bad = ~(np.isfinite(array) & (array > 0.0))
    if bad.any():
        raise ValueError(f"t must be positive and finite, got {float(array[bad][0])!r}")
    return array


@dataclass(frozen=True)
class KernelId:
    """Kernel coordinates: family 1..4 (interval regime), index 1..4."""

    family: int
    index: int

    def __post_init__(self) -> None:
        require_integer("family", self.family, 1, maximum=4)
        require_integer("index", self.index, 1, maximum=4)


# The kernels: ``b(name)`` is a bracket at the node array ``t``.  Square
# roots of radicands that round to <= 0 give 0, as does a kernel whose
# radicand in the denominator does.


def _sqrt_clip(value):
    return np.sqrt(np.where(value > 0.0, value, 0.0))


def _over_sqrt(numerator, rad):
    """numerator / sqrt(rad) where rad > 0, else 0."""
    positive = rad > 0.0
    return np.where(positive, numerator / np.sqrt(np.where(positive, rad, 1.0)), 0.0)


def _h11(b, t):
    return b("p1") * _sqrt_clip(b("p2")) / (192.0 * t * b("p3"))


def _h12(b, t):
    return 2.0 * t**1.5 * np.exp(-t) * _sqrt_clip(b("p2") / b("p1"))


def _h13(b, t):
    return _over_sqrt(b("n13"), (-b("p2")) * b("z"))


def _h14(b, t):
    return _over_sqrt(2.0 * np.exp(-t) * b("n13") * t**1.5, (-b("z")) * b("p1"))


def _h21(b, t):
    return b("n21") * _sqrt_clip(b("r2")) / (6.0 * t * b("d21"))


def _h22(b, t):
    return 2.0 * np.sqrt(t) * np.exp(-t) * _sqrt_clip(b("r2") / (8.0 * b("n21")))


def _h23(b, t):
    return _over_sqrt(0.5 * np.abs(b("b23")), b("c23") * b("r2"))


def _h24(b, t):
    return _over_sqrt(2.0 * np.sqrt(t) * np.exp(-t) * b("b23"), 32.0 * b("n21") * b("c23"))


def _h31(b, t):
    return -b("n31") * _sqrt_clip(b("r3")) / (31.0 * t * b("d31"))


def _h32(b, t):
    return 0.25 * t**1.5 * _sqrt_clip(-b("r3") / b("n31"))


def _h33(b, t):
    return _over_sqrt(np.abs(b("n34")), -8.0 * b("c33") * b("r3"))


def _h34(b, t):
    return _over_sqrt(b("n34") * t**1.5, 128.0 * b("n31") * b("c33"))


def _h41(b, t):
    return b("n41") * _sqrt_clip(b("r4")) / (16.0 * t * b("d41"))


def _h42(b, t):
    return 2.0 * np.sqrt(t) * _sqrt_clip(b("r4") / (8.0 * b("n41")))


def _h43(b, t):
    return _over_sqrt(b("b44"), b("r4") * b("z43"))


def _h44(b, t):
    return _over_sqrt(2.0 * np.sqrt(t) * b("b44"), 8.0 * b("n41") * b("z43"))


_KERNELS = {
    (1, 1): _h11,
    (1, 2): _h12,
    (1, 3): _h13,
    (1, 4): _h14,
    (2, 1): _h21,
    (2, 2): _h22,
    (2, 3): _h23,
    (2, 4): _h24,
    (3, 1): _h31,
    (3, 2): _h32,
    (3, 3): _h33,
    (3, 4): _h34,
    (4, 1): _h41,
    (4, 2): _h42,
    (4, 3): _h43,
    (4, 4): _h44,
}


def _evaluate(kernel_ids, t: np.ndarray) -> np.ndarray:
    """(len(kernel_ids), len(t)) kernel values, from one pass over the
    brackets."""
    with np.errstate(all="ignore"):
        b = dict(zip(_BRACKETS, _bracket_values(t))).__getitem__
        values = np.array([_KERNELS[kid.family, kid.index](b, t) for kid in kernel_ids])
    bad = ~np.isfinite(values)
    if bad.any():
        row, column = np.argwhere(bad)[0]
        kid = kernel_ids[row]
        raise NonFiniteResult(
            f"kernel ({kid.family},{kid.index}) at t={float(t[column])!r} "
            "is not finite"
        )
    return values


def h_kernel(kernel_id: KernelId, t):
    """Evaluate one of the sixteen limit kernels at ``t > 0``: a float gives
    a float, an array of floats an array of the same length."""
    value = _evaluate([kernel_id], _positive(t))[0]
    return float(value[0]) if np.ndim(t) == 0 else value


def all_kernels(t) -> np.ndarray:
    """The sixteen kernels at an array of ``t > 0`` as a (4, 4, len(t))
    array, H_{f,i} at [f - 1, i - 1], from one pass over the brackets."""
    kernel_ids = [KernelId(f, i) for f in (1, 2, 3, 4) for i in (1, 2, 3, 4)]
    t = _positive(t)
    return _evaluate(kernel_ids, t).reshape(4, 4, t.size)


# t -> infinity laws: (power, constant) meaning  H ~ constant * t**power.
# Entries are None for the kernels whose tails decay like poly(t)*exp(-t)
# (families 1/2, indices 2 and 4) — those get envelope checks instead.
# The two tail-family leads (1,1) and (2,1) share the law t^{-7/2}/2.
TAIL_LAWS: dict[tuple[int, int], tuple[float, float] | None] = {
    (1, 1): (-3.5, 0.5),
    (1, 2): None,
    (1, 3): (0.0, 1.0),
    (1, 4): None,
    (2, 1): (-3.5, 0.5),
    (2, 2): None,
    (2, 3): (0.0, 1.0),
    (2, 4): None,
    (3, 1): (-1.0, 4.0 * math.sqrt(35.0) / 115.0),
    (3, 2): (1.5, math.sqrt(35.0)),
    (3, 3): (0.0, 5.0 / math.sqrt(35.0)),
    (3, 4): (1.5, 5.0),
    (4, 1): (-1.0, 4.0 * math.sqrt(3.0) / 11.0),
    (4, 2): (0.5, 2.0 * math.sqrt(3.0)),
    (4, 3): (0.0, 1.0 / math.sqrt(3.0)),
    (4, 4): (0.5, 2.0),
}
