"""Monte-Carlo estimation of the expected count by direct simulation.

Each trial draws the coefficient increments, scans the x-interval on a
degree-adapted sign grid for down-crossings (+ to -) of the derivative,
refines every crossing to a root of Q' by safeguarded Newton steps, and
counts the maximum if the polynomial value there lies at or below the
level.

Grid.  Critical points cluster in O(1/n) neighbourhoods of |x| = 1, and
their separations grow with the distance t = n ln|x| from that layer, so
the grid is uniform in the one coordinate sigma = asinh(t): points
x = +-exp(sinh(sigma)/n) at sigma = (k + 1/2)/ppu, k = -m .. m-1, with
m = ceil(ppu asinh(n ln(4 ppu))) and ppu = ``points_per_unit``.  That
covers |x| in [1/(4 ppu), 4 ppu], is symmetric under x -> 1/x, and spaces
the points cosh(sigma)/ppu ~ max(1, |t|)/ppu apart in t.  The grid is the
query end lo, the points strictly inside (lo, hi), then the end hi.  Either
end may be infinite; a finite end of a finite cell is moved 2^-40 of the
cell inside, so Q' there has the sign it has just inside the end, also
where it vanishes at the end itself (Q'(0) = 0 whenever A_1 = 0).  A
down-crossing is a strict sign change (+ to -) between neighbouring
points; a critical point at a query end is not inside the open interval
and is never counted.

Evaluation.  One rule serves the sign grid, the refinement and the level
test: a degree-d polynomial is evaluated as Q(x) / max(1, |x|)^d.  For
|x| <= 1 that is the plain sum; beyond, it is sum_j c_j y^(d-j) in y =
1/x times the sign of x^d, so every power lies in [-1, 1] and nothing
overflows.  Each evaluation builds one folded table of its points with
``_powers``: a point's column holds x^j inside and y^(d-j) beyond, so the
table, not the coefficient rows, is reversed, and a value is a row times
that column times the sign (+1 inside).  The level test multiplies |x|^n
back in; values past the float range become +-inf, which still compare
correctly with every finite level.

Sign grid. Inside the query interval the grid is +-p for one set of magnitudes
p; in z = p (p <= 1, the inner run) or 1/p (the outer run), Q'(+-p) / max(1,
p)^d = E(z) +- O(z), the even and odd j of sum e_j z^j, e_j = c_j inner and
c_(d-j) outer. The cells at an end point, across 0 and across |x| = 1 take Q'
from a table of their own points; each other cell lies in one coarse cell of K
cells of one run, cut also where the shorter side ends: K = ppu/8, 1/8 of a
unit of sigma, so the share of coarse cells holding a root does not change
with ppu (ppu/4 below ``_SMALL_WIDTH`` coefficients, where the cells' work
outweighs the products). On a coarse cell of midpoint m, half-width w and
largest z r, Taylor's theorem gives |f(z) - sum_(k<4) T_k u^k| <= R for f = E
+- O, u = (z - m)/w, T_k = f^(k)(m) w^k / k! and R = w^4/24 sum_j
j(j-1)(j-2)(j-3) |e_j| (r + w)^(j-4), so Q' has no root there if |T_0| > |T_1|
+ |T_2| + |T_3| + R + M. Per tile of trials, one product each of the even and
odd coefficients with a table of C(j, k) m^(j-k) w^k gives E_k and O_k (below
``_SMALL_WIDTH``, one product of the whole rows with the odd weights negated
for x < 0 gives both), and one of |e_j| gives R + M. The margin M: the
binomial terms of S = sum_j |e_j| (r + w)^j bound those weights, and each T_k
and R err by at most (2d + 6) u times their terms (u = 2^-53), rounding m
moves f by d u S, the test's sums and a fine point's cubic by 32 u S and the
fine grid's sum by (2d + 1) u S (its folded table, like every power table
here, comes from ``_powers``, which forms z^j with at most j - 1 roundings),
all below M = 2^-48 (d + 2) S; 2^-1000 sum |e_j| in M covers underflow for
rows not all below 2^-900. A failing (trial, sign, coarse cell) reaches the
fine grid: at its K + 1 points Q' takes the sign of sum T_k u^k where that
exceeds R + M, else its value by the rule above. A down-crossing is Q' > 0
at a point and Q' < 0 at the next in the order of x.

Plan.  What the scan needs besides the trials depends only on n, the
query ends and ppu: the grid and its split into the two signs and the two
runs, the edge cells with their folded table, the coarse cells, their
certificate tables (the weights of T_k and of R + M, ``_certificate_tables``)
and the layout of their fine points.  ``count_maxima_below`` takes this
plan from a memo keyed by (n, lo, hi, ppu) and the module settings the plan
reads (``_GRID_CHUNK_ELEMENTS``, ``_SMALL_WIDTH``, ``_MARGIN``), so every
group of a run and every later call on the same grid reuses it; a plan
holds the arrays a call would otherwise build, so the counts are the same
bits.  The memo keeps plans while they hold at most ``_GRID_CHUNK_ELEMENTS``
doubles in all, dropping the least recently used first, and keeps no plan
larger than that; a plan whose certificate tables would take it past that
keeps none, and each call builds them a chunk at a time.  Every array of a
plan that ``count_maxima_below`` uses is read-only.

Memory.  A count holds at most ``_GRID_CHUNK_ELEMENTS`` = 2^21 doubles
(16 MiB) in the tables of a chunk of 2^21 / (16 (d+1)) coarse cells, and
as many in the values of a tile (16 a cell and trial), of which each
thread keeps a buffer of up to ``_SCRATCH_ELEMENTS`` = 2^18 doubles (2 MiB)
between calls; the plans kept between calls hold at most
``_GRID_CHUNK_ELEMENTS`` doubles in all.  Every array with
a row per trial, crossing or fine point is at most as large as the call's
coefficient matrix or ``_ROW_ELEMENTS`` = 2^16 doubles (512 KiB); a run
counts its trials in groups that keep the coefficient matrix within that
too, except where one block of 256 trials alone is larger (n >= 256).

Refinement.  Each crossing keeps a bracket (x_lo, x_hi) with Q' > 0 at
x_lo and Q' < 0 at x_hi, starting from its grid cell, and steps from the
bracket midpoint (``rtsafe`` in Press et al., Numerical Recipes).  An
infinite query end is first pulled in to 2 max(1, |other end|), or
further, to Fujiwara's bound on the roots of Q' of that trial, so the
bracket holds a maximum that lies past the last grid point.  One folded
table of the point gives both Q' and Q'' by the rule above, for Q' of
degree d: S = Q' / max(1, |x|)^d, and T, the sum of j c_j times x^(j-1)
inside and times y^(d-j) beyond, times the same sign.  So Q'' = T inside
and |x|^d T / x beyond: Q'' < 0 where T > 0 for x < -1 and where T < 0
elsewhere, and Q'/Q'' = S/T inside and x S/T beyond.  The sign of Q'
moves one bracket end to the point; where Q' is exactly 0 (x = 0
whenever A_1 = 0) its sign is read 2^-40 of the bracket toward x_hi, as
at the grid ends.  The Newton point is taken only where Q'' < 0
and it lies strictly inside the bracket, otherwise the bracket midpoint,
so the iteration ends on a maximum, never on a minimum sharing the cell.
A crossing is done when Q'' < 0 and the Newton correction is at most
2^-30 max(1, |x|), ending on the Newton point (also where x was the root
to rounding, so the point is a bracket end), or when its bracket is that
narrow; ``_REFINE_STEPS`` = 64 caps the steps, of which a crossing takes
~3.  Q moves only to second order in the distance to a root of Q', so
such a root gives Q to about rounding.

Reproducibility.  Trials come in blocks of ``_BLOCK`` = 256: block k draws
all its rows from one generator seeded by ``SeedSequence(seed,
spawn_key=(k,))``, and trial i is row i mod 256 of block i // 256.  A short
last block draws only its rows, which equal the first rows of a full
block.  One ``count_maxima_below`` call counts a group of consecutive
blocks, as many as hold at most ``_ROW_ELEMENTS`` coefficients (one at
least).  A trial's counts do not depend on the rows it is counted with, so
the estimate is a pure function of (model, interval, levels, trials, seed,
points_per_unit).
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace

import numpy as np

from .model import PolynomialModel, require_integer, require_real

__all__ = [
    "MCConfig",
    "MCEstimate",
    "count_maxima_below",
    "estimate_many",
    "sample_coefficients",
]

_BLOCK = 256
_REFINE_TOL = 2.0**-30
_REFINE_STEPS = 64
# Memory of one count, in doubles (module docstring).  The sign grid: the
# largest power table, and the largest value array of one tile.
_GRID_CHUNK_ELEMENTS = 1 << 21
# Arrays with a row per trial or per crossing: the most coefficients one
# group of blocks holds, and the most coefficient rows of one refinement
# batch.
_ROW_ELEMENTS = 1 << 16
# Most trials whose coarse-cell values one sign-grid product gives.
_TILE_ROWS = 128
# The values of a tile, in one buffer per thread kept between calls up to
# this many doubles (2 MiB).  A new array that large may be mapped afresh
# by the allocator on every call: at n = 64, ppu 64 and 400 trials its ~320
# page faults took 0.6 ms of a 4.7 ms count (2-core Xeon).
_SCRATCH, _SCRATCH_ELEMENTS = threading.local(), 1 << 18
# Certificate margin per (d + 2) S; below _SMALL_WIDTH coefficients K = ppu/4 and one
# whole-row product, each faster there in timings of the scan (module docstring)
_MARGIN, _SMALL_WIDTH = 2.0**-48, 32
# Smallest value of each integer setting, in ``MCConfig`` and the helpers.
_MINIMUMS = {"trials": 1, "seed": 0, "points_per_unit": 8}


@dataclass(frozen=True)
class MCConfig:
    """Trial budget and sign grid of a Monte-Carlo run.

    ``trials`` and ``seed`` define the sample; ``points_per_unit`` sets
    the sign grid that defines the count (points per unit of sigma =
    asinh(n ln|x|), so per unit of t = n ln|x| near |x| = 1), while its
    cost follows the coarse cells the certificate leaves uncertain.
    """

    trials: int
    seed: int = 0
    points_per_unit: int = 512

    def __post_init__(self) -> None:
        for name, minimum in _MINIMUMS.items():
            value = require_integer(name, getattr(self, name), minimum)
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class MCEstimate:
    """Sample mean, standard error and provenance of one estimate."""

    mean: float
    stderr: float
    trials: int
    seed: int


def _blocks(trials: int) -> list[tuple[int, int]]:
    """(k, rows) for each block of a run of ``trials`` trials."""
    return [(k, min(_BLOCK, trials - k * _BLOCK)) for k in range(-(-trials // _BLOCK))]


def _sample_block(model: PolynomialModel, seed: int, k: int, rows: int) -> np.ndarray:
    """The first ``rows`` rows of block k (module docstring): increments
    D_j ~ N(0, sigma_j^2) accumulate into A_j = D_0 + ... + D_j (with
    D_0 = 0 unless the model carries sigma0 > 0)."""
    key = np.random.SeedSequence(seed, spawn_key=(k,))
    rng = np.random.Generator(np.random.PCG64(key))
    scale = np.array((model.sigma0, *model.sigma))
    return np.cumsum(rng.standard_normal((rows, scale.size)) * scale, axis=1)


def sample_coefficients(model: PolynomialModel, trials: int, seed: int) -> np.ndarray:
    """Coefficient matrix A of shape (trials, n+1), one row per trial, in
    the order of the blocks (module docstring).  Raises ``ValueError``
    unless ``trials`` >= 1 and ``seed`` >= 0 are integers."""
    trials = require_integer("trials", trials, _MINIMUMS["trials"])
    seed = require_integer("seed", seed, _MINIMUMS["seed"])
    blocks = _blocks(trials)
    return np.concatenate([_sample_block(model, seed, k, r) for k, r in blocks])


# ----------------------------------------------------------------------
# sign grid and evaluation


def _build_grid(n: int, lo: float, hi: float, ppu: int) -> np.ndarray:
    """The sign grid (module docstring): lo, the stretched points strictly
    inside (lo, hi), then hi."""
    m = math.ceil(ppu * math.asinh(n * math.log(4 * ppu)))
    pos = np.exp(np.sinh((np.arange(-m, m) + 0.5) / ppu) / n)
    x = np.concatenate([-pos[::-1], pos])
    x = np.concatenate([[lo], x[(x > lo) & (x < hi)], [hi]])
    # a zero of Q' at an end would hide a maximum just inside it
    for end, inner in ((0, 1), (-1, -2)):
        if math.isfinite(x[end]) and math.isfinite(x[inner]):
            x[end] += math.ldexp(x[inner] - x[end], -40)
    return x


def _folded(x: np.ndarray, width: int):
    """The reversed-form rule (module docstring) at points x, for degree
    deg = width - 1: (table, sign) such that Q(x) / max(1, |x|)^deg is
    sign * (coefficient row @ column i of the table).  Column i holds x^j
    where |x| <= 1 and y^(deg-j), y = 1/x, beyond; sign is the sign of
    x^deg beyond, +1 inside.  The sign reads x, not y: at x = -inf, y is
    -0.0."""
    outer = np.abs(x) > 1.0
    table = _powers(np.divide(1.0, x, out=x.copy(), where=outer), width)
    table[:, outer] = table[::-1, outer]
    sign = np.where(outer & (x < 0.0) & (width % 2 == 0), -1.0, 1.0)
    return table, sign


def _scaled_value(rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Q(x) / max(1, |x|)^deg for coefficient row i (ascending powers) at
    x[i]; finite wherever the coefficients are."""
    table, sign = _folded(x, rows.shape[1])
    return sign * np.vecdot(rows, table.T)


def _powers(z: np.ndarray, width: int) -> np.ndarray:
    """(width, z.size) table of z^j, row s + i the product of rows s and i."""
    table, s = np.ones((width, z.size)), 1
    while s < width:
        np.multiply(table[s - 1], z, out=table[s])
        np.multiply(table[1 : min(s, width - s)], table[s], out=table[s + 1 : 2 * s])
        s *= 2
    return table


def _coarse_cells(size: int, inner: int, short: int, step: int):
    """(first, last) magnitude of each coarse cell (module docstring)."""
    first, last = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for start, end in ((0, inner - 1), (inner, size - 1)):
        if end > start:
            cut = np.arange(start, end, step)
            cut = np.union1d(cut, short - 1) if start < short - 1 < end else cut
            first, last = first + [cut], last + [np.append(cut[1:], end)]
    return np.concatenate(first), np.concatenate(last)


def _certificate_tables(mid, h, split, width):
    """(start, table, size) of each chunk of the coarse cells from ``start``
    (module docstring): ``table`` (width, 4, c) holds the weights C(j, k)
    m^(j-k) w^k of e_j in T_k, with the odd ones negated in a second copy
    along a third axis below ``_SMALL_WIDTH``, and ``size`` (width, c) those
    of |e_j| in R + M, both reversed over the outer cells, the first
    ``split`` being inner.  Built one chunk at a time."""
    j = np.arange(width, dtype=float)
    binom = np.cumprod([np.ones(width), j, j - 1.0, j - 2.0, j - 3.0], axis=0)
    binom /= [[1.0], [1.0], [2.0], [6.0], [24.0]]  # C(j, k)
    cols = max(1, _GRID_CHUNK_ELEMENTS // (16 * width))
    for start in range(0, mid.size, cols):
        cut = slice(start, start + cols)
        w, inside = 0.5 * h[cut], max(0, split - start)
        # the weights of e_j in T_k, column (k, cell), then of |e_j| in R + M
        table = _powers(mid[cut], width)[:, None] * (w / mid[cut]) ** np.arange(4)[:, None]
        table *= binom[:4].T[:, :, None]  # C(j, k) m^(j-k) w^k
        table[..., inside:] = table[::-1, :, inside:]
        power = _powers(mid[cut] + h[cut], width)  # (r + w)^j
        size = _MARGIN * (width + 1) * power + 2.0**-1000
        size[4:] += binom[4, 4:, None] * power[:-4] * w**4
        size[:, inside:] = size[::-1, inside:]
        if width < _SMALL_WIDTH:  # one product for both signs: odd weights negated for x < 0
            table = np.stack([table, table * np.where(j % 2, -1.0, 1.0)[:, None, None]], 2)
        yield start, table, size


def _scratch(size: int) -> np.ndarray:
    """``size`` doubles of the calling thread's scratch buffer, kept between
    calls up to ``_SCRATCH_ELEMENTS`` doubles; a new array where larger."""
    if size > _SCRATCH_ELEMENTS:
        return np.empty(size)
    buf = getattr(_SCRATCH, "buf", None)
    if buf is None or buf.size < size:
        buf = _SCRATCH.buf = np.empty(size)
    return buf[:size]


def _uncertain_cells(dcoef, chunks, hold):
    """(side, trial, cell, T_0 .. T_3, R + M) of each failing certificate (module
    docstring) on a side that holds the cell, side 0 for x > 0; inner cells first.
    ``chunks`` are ``_certificate_tables``' for the width of ``dcoef``."""
    trials, width = dcoef.shape
    found = [(np.empty(0, dtype=np.intp),) * 3 + (np.empty((0, 4)), np.empty(0))]
    for start, table, size in chunks:
        c = size.shape[1]
        cut = slice(start, start + c)
        tile = max(1, min(trials, _TILE_ROWS, _GRID_CHUNK_ELEMENTS // (16 * c)))
        value_buf, abs_buf = _scratch(16 * c * tile).reshape(2, -1)
        for t in range(0, trials, tile):
            block = dcoef[t : t + tile]
            r = block.shape[0]
            value = value_buf[: 8 * c * r].reshape(4, 2, c, r)
            if width < _SMALL_WIDTH:
                np.matmul(table.reshape(width, -1).T, block.T, out=value.reshape(8 * c, r))
            else:
                e, o = abs_buf[: 8 * c * r].reshape(2, 4, c, r)
                np.matmul(table[0::2].reshape(-1, 4 * c).T, block[:, 0::2].T, out=e.reshape(-1, r))
                np.matmul(table[1::2].reshape(-1, 4 * c).T, block[:, 1::2].T, out=o.reshape(-1, r))
                np.add(e, o, out=value[:, 0])
                np.subtract(e, o, out=value[:, 1])
            bound = size.T @ np.abs(block).T
            a = np.abs(value, out=abs_buf[: 8 * c * r].reshape(4, 2, c, r))
            a[1] += np.add(a[2], a[3], out=a[2])
            a[1] += bound
            at = np.flatnonzero((a[0] <= a[1]) & hold[:, cut, None])
            side, cell = np.divmod(at // r, c)
            taylor = value.reshape(4, -1)[:, at].T
            found.append((side, at % r + t, cell + start, taylor, bound.ravel()[at % (c * r)]))
    return [np.concatenate(v) for v in zip(*found)]


@dataclass(frozen=True, eq=False)
class _Plan:
    """What a sign-grid scan needs besides the trials (module docstring,
    Plan); ``_plan`` makes every array read-only."""

    x: np.ndarray  # the grid
    a: int  # x[1..a] < 0 < x[a+1..a+b]
    mag: np.ndarray  # the magnitudes p of the longer side, ascending
    step: int  # K
    edge: np.ndarray  # the cells whose Q' comes from the edge table
    edge_table: np.ndarray
    edge_sign: np.ndarray
    mid: np.ndarray  # each coarse cell's midpoint and width in z
    h: np.ndarray
    hold: np.ndarray  # (2, cells): the cell lies on the side x > 0, x < 0
    split: int  # the coarse cells before it are inner
    point: np.ndarray  # the fine points of each coarse cell, indices into mag
    u: np.ndarray  # and their u = (z - m) / (h/2)
    chunks: tuple | None  # the certificate tables, or None: built on each call

    def arrays(self) -> list:
        """Every array of the plan, its certificate tables last."""
        tables = [a for _, *chunk in self.chunks or () for a in chunk]
        return [v for v in vars(self).values() if isinstance(v, np.ndarray)] + tables

    @property
    def doubles(self) -> int:
        """The doubles its arrays hold (8 bytes counted as one)."""
        return sum(v.nbytes for v in self.arrays()) // 8


def _make_plan(x: np.ndarray, width: int, ppu: int | None = None) -> _Plan:
    """The plan of the sorted grid x for derivative rows of ``width``
    coefficients.  The points strictly inside x are ``_build_grid``'s for
    degree n = ``width``: they are mirrored, and where ``ppu`` is None it is
    read back from the first two, 1/ppu apart in asinh(n ln p).  The
    certificate tables are kept where they and the rest of the plan hold at
    most ``_GRID_CHUNK_ELEMENTS`` doubles."""
    a = int(np.searchsorted(x[1:-1], 0.0))  # x[1..a] < 0 < x[a+1..b+a]
    b = x.size - 2 - a
    mag = x[a + 1 : -1] if b >= a else -x[a:0:-1]
    inner = int(np.searchsorted(mag, 1.0, side="right"))  # mag[:inner] <= 1
    z = np.divide(1.0, mag, out=mag.copy(), where=mag > 1.0)

    # cells 0, a and b + a join an end point or the two signs, a -+ inner the
    # two runs: Q' at their points by the reversed-form rule, in one table
    edge = np.unique([0, a, b + a] + [a + s * inner for s, n in ((1, b), (-1, a)) if 0 < inner < n])
    edge_table, edge_sign = _folded(x[np.concatenate([edge, edge + 1])], width)

    # every other cell lies in one coarse cell of K (module docstring)
    if ppu is None:
        ppu = round(1.0 / np.diff(np.arcsinh(width * np.log(mag[:2])))[0]) if mag.size > 1 else 1
    step = max(1, ppu // (4 if width < _SMALL_WIDTH else 8))
    first, last = _coarse_cells(mag.size, inner, min(a, b), step)
    h, mid = np.abs(z[last] - z[first]), 0.5 * (z[first] + z[last])
    hold = last < np.array([[b], [a]])  # x > 0, x < 0
    split = int(np.count_nonzero(first < inner))
    # their fine points in the order of p, at u = (z - m) / (h/2)
    point = np.minimum(first[:, None] + np.arange(step + 1), last[:, None])
    u = (z[point] - mid[:, None]) / (0.5 * h[:, None])
    plan = _Plan(x, a, mag, step, edge, edge_table, edge_sign, mid, h, hold, split, point, u, None)
    # _certificate_tables hold (8 + 1) width doubles a coarse cell below
    # _SMALL_WIDTH, else (4 + 1) width
    tables = (9 if width < _SMALL_WIDTH else 5) * width * mid.size
    if plan.doubles + tables <= _GRID_CHUNK_ELEMENTS:
        plan = replace(plan, chunks=tuple(_certificate_tables(mid, h, split, width)))
    return plan


# Plans kept between calls (module docstring, Plan), least recently used first
_PLANS: OrderedDict = OrderedDict()
_PLANS_LOCK = threading.Lock()


def _plan(n: int, lo: float, hi: float, ppu: int) -> _Plan:
    """The plan of ``_build_grid(n, lo, hi, ppu)``, kept in ``_PLANS`` while
    the plans there hold at most ``_GRID_CHUNK_ELEMENTS`` doubles."""
    key = (n, float(lo), float(hi), ppu, _GRID_CHUNK_ELEMENTS, _SMALL_WIDTH, _MARGIN)
    with _PLANS_LOCK:
        plan = _PLANS.get(key)
        if plan is not None:
            _PLANS.move_to_end(key)
            return plan
    plan = _make_plan(_build_grid(n, lo, hi, ppu), n, ppu)
    for array in plan.arrays():
        array.flags.writeable = False
    with _PLANS_LOCK:
        if plan.doubles <= _GRID_CHUNK_ELEMENTS:
            _PLANS[key] = plan
            held = sum(p.doubles for p in _PLANS.values())
            while held > _GRID_CHUNK_ELEMENTS:
                held -= _PLANS.popitem(last=False)[1].doubles
    return plan


def _down_crossings(dcoef: np.ndarray, x):
    """(cell, trial) of every down-crossing of Q' between neighbouring
    points of the sorted grid, cell k lying between x[k] and x[k+1], for
    the derivative rows ``dcoef`` (module docstring).  ``x`` is the grid's
    ``_Plan``, or the grid itself, planned here by ``_make_plan``."""
    width = dcoef.shape[1]
    plan = x if isinstance(x, _Plan) else _make_plan(x, width)
    at = dcoef @ plan.edge_table * plan.edge_sign
    edge = plan.edge
    trial, k = np.nonzero((at[:, : edge.size] > 0.0) & (at[:, edge.size :] < 0.0))
    cells, rows = [edge[k]], [trial]

    chunks = plan.chunks
    if chunks is None:
        chunks = _certificate_tables(plan.mid, plan.h, plan.split, width)
    side, trial, cell, taylor, bound = _uncertain_cells(dcoef, chunks, plan.hold)

    # the sign of Q' at the fine points (negated for x < 0, where x descends
    # with p) by the cubic or Q'
    step, point, a, mag = plan.step, plan.point, plan.a, plan.mag
    batch, chunk = max(1, _ROW_ELEMENTS // (8 * (step + 1))), max(1, _ROW_ELEMENTS // width)
    for start in range(0, cell.size, batch):
        part = slice(start, start + batch)
        c, t, sign = cell[part], trial[part], np.where(side[part] == 1, -1.0, 1.0)
        coef, uc = taylor[part] * sign[:, None], plan.u[c]
        value = coef[:, :1] + uc * (coef[:, 1:2] + uc * (coef[:, 2:3] + uc * coef[:, 3:]))
        p, q = np.divmod(np.flatnonzero(np.abs(value) <= bound[part, None]), step + 1)
        for s in range(0, p.size, chunk):
            pp, qq = p[s : s + chunk], q[s : s + chunk]
            value[pp, qq] = sign[pp] * _scaled_value(dcoef[t[pp]], sign[pp] * mag[point[c[pp], qq]])
        p, q = np.divmod(np.flatnonzero((value[:, :-1] > 0.0) & (value[:, 1:] < 0.0)), step)
        k = point[c[p], q]
        cells.append(np.where(sign[p] < 0.0, a - 1 - k, a + 1 + k))
        rows.append(t[p])
    return np.concatenate(cells), np.concatenate(rows)


def _newton_terms(drows: np.ndarray, x: np.ndarray):
    """(S, T, outer) for derivative row i at x[i] from one folded table:
    Q' = S max(1, |x|)^deg, and Q'' = T inside, |x|^deg T / x on the
    ``outer`` side, where |x| > 1."""
    table, sign = _folded(x, drows.shape[1])
    outer = np.abs(x) > 1.0
    # j c_j, j = 1..deg, times x^(j-1) inside and y^(deg-j) beyond
    ramped = drows[:, 1:] * np.arange(1.0, drows.shape[1])
    t = np.where(outer, np.vecdot(ramped, table[1:].T), np.vecdot(ramped, table[:-1].T))
    return sign * np.vecdot(drows, table.T), sign * t, outer


def _root_bound(drows: np.ndarray) -> np.ndarray:
    """Fujiwara's bound 2 max_k |c_(d-k) / c_d|^(1/k) on the moduli of the
    roots of each row (ascending coefficients c_0 .. c_d, c_d != 0), here
    without its usual halving of c_0, which keeps it above the root of a
    linear row."""
    d = drows.shape[1] - 1
    with np.errstate(over="ignore"):
        ratio = np.abs(drows[:, :-1] / drows[:, -1:])
    return 2.0 * np.max(ratio ** (1.0 / np.arange(d, 0, -1)), axis=1)


def _refine(drows: np.ndarray, x_lo: np.ndarray, x_hi: np.ndarray) -> np.ndarray:
    """A maximum of Q in each finite bracket (x_lo[i], x_hi[i]) across which
    Q' (derivative row i, ascending powers) goes from + to -: safeguarded
    Newton steps, each crossing on its own row (module docstring)."""
    x = 0.5 * (x_lo + x_hi)
    root = np.empty_like(x)
    active = np.arange(x.size)
    for _ in range(_REFINE_STEPS):
        q, t, outer = _newton_terms(drows, x)
        # a zero of Q' (x = 0 whenever A_1 = 0): read the sign just toward
        # x_hi, as at the grid ends
        zero = q == 0.0
        if zero.any():
            nudged = x[zero] + np.ldexp(x_hi[zero] - x[zero], -40)
            q[zero] = _scaled_value(drows[zero], nudged)
        pos = q > 0.0
        x_lo = np.where(pos, x, x_lo)
        x_hi = np.where(pos, x_hi, x)
        curved = np.where(outer & (x < 0.0), t > 0.0, t < 0.0)  # Q'' < 0
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(outer, x, 1.0) * (q / t)  # Q'/Q''
        newton = x - step
        tol = _REFINE_TOL * np.maximum(np.abs(x), 1.0)
        # a step from the root to rounding may end on x, now a bracket end;
        # where Q'' > 0 the Newton point leaves the bracket on its own
        close = curved & (np.abs(step) <= tol)
        take = close | (x_lo < newton) & (newton < x_hi)
        x = np.where(take, newton, 0.5 * (x_lo + x_hi))
        done = close | (x_hi - x_lo <= tol)
        if done.any():
            root[active[done]] = x[done]
            keep = ~done
            active, drows = active[keep], drows[keep]
            x, x_lo, x_hi = x[keep], x_lo[keep], x_hi[keep]
            if active.size == 0:
                break
    root[active] = x
    return root


def count_maxima_below(
    model: PolynomialModel,
    coeff: np.ndarray,
    lo: float,
    hi: float,
    levels,
    *,
    points_per_unit: int = MCConfig.points_per_unit,
) -> np.ndarray:
    """Counts of local maxima with value <= level, per trial and level.

    ``coeff`` is a (trials, n+1) coefficient matrix (see
    ``sample_coefficients``); returns an integer array of shape
    (trials, len(levels)).  Raises ``ValueError`` unless ``coeff`` is a
    2-D array of finite numbers with n + 1 columns, lo < hi, every level is
    a real number other than NaN (+-inf allowed, a bool is not) and ``points_per_unit`` is an integer >= 8, as
    in ``MCConfig``.
    """
    points_per_unit = require_integer(
        "points_per_unit", points_per_unit, _MINIMUMS["points_per_unit"]
    )
    if not lo < hi:
        raise ValueError(f"need lo < hi, got ({lo!r}, {hi!r})")
    levels = [levels] if np.ndim(levels) == 0 else levels
    levels = np.array([require_real("level", u) for u in levels], dtype=float)
    n = model.degree
    coeff = np.asarray(coeff, dtype=float)
    if coeff.ndim != 2 or coeff.shape[1] != n + 1 or not np.isfinite(coeff).all():
        shape = coeff.shape
        raise ValueError(f"coeff must be a finite (trials, {n + 1}) matrix, got shape {shape}")
    plan = _plan(n, lo, hi, points_per_unit)
    x = plan.x
    dcoef = coeff[:, 1:] * np.arange(1, n + 1, dtype=float)  # j A_j, j = 1..n
    counts = np.zeros((coeff.shape[0], levels.size), dtype=np.int64)

    cells, rows = _down_crossings(dcoef, plan)
    # refined and tested together, in batches of at most _ROW_ELEMENTS
    # coefficients
    step = max(1, _ROW_ELEMENTS // (n + 1))
    for start in range(0, rows.size, step):
        k = cells[start : start + step]  # crossing bracketed by points k, k+1
        trial = rows[start : start + step]
        x_lo = x[k]
        x_hi = x[k + 1]
        # an infinite query end: pull the bracket end in to 2 max(1, |other
        # end|), or further, past every root of Q', where Q' has the sign it
        # has at infinity
        inf_lo, inf_hi = np.isinf(x_lo), np.isinf(x_hi)
        pull = 2.0 * np.maximum(np.abs(np.where(inf_lo, x_hi, x_lo)), 1.0)
        far = inf_lo | inf_hi
        pull[far] = np.maximum(pull[far], _root_bound(dcoef[trial[far]]))
        x_lo = np.where(inf_lo, -pull, x_lo)
        x_hi = np.where(inf_hi, pull, x_hi)
        root = _refine(dcoef[trial], x_lo, x_hi)
        # undo the scaling: past the float range Q reads +-inf, so an
        # infinite level is decided by its sign alone
        with np.errstate(over="ignore", invalid="ignore"):
            scale = np.maximum(np.abs(root), 1.0) ** n
            value = _scaled_value(coeff[trial], root) * scale
        below = np.where(np.isinf(levels), levels > 0.0, value[:, None] <= levels)
        np.add.at(counts, trial, below.astype(np.int64))
    return counts


# ----------------------------------------------------------------------
# estimation


def _groups(trials: int, n: int) -> list[list[tuple[int, int]]]:
    """The blocks of a run in groups of consecutive blocks, each counted by
    one call and holding at most ``_ROW_ELEMENTS`` coefficients (one block
    at least)."""
    blocks = _blocks(trials)
    per_group = max(1, _ROW_ELEMENTS // (_BLOCK * (n + 1)))
    return [blocks[i : i + per_group] for i in range(0, len(blocks), per_group)]


def _run_groups(model, lo, hi, levels, config):
    """Sums of the counts and of their squares per level, over all trials."""
    total = total_sq = 0
    for group in _groups(config.trials, model.degree):
        coeff = np.concatenate([_sample_block(model, config.seed, *b) for b in group])
        c = count_maxima_below(
            model, coeff, lo, hi, levels, points_per_unit=config.points_per_unit
        )
        total, total_sq = total + c.sum(axis=0), total_sq + (c * c).sum(axis=0)
    return total, total_sq


def estimate_many(
    model: PolynomialModel,
    lo: float,
    hi: float,
    levels,
    config: MCConfig,
) -> tuple[MCEstimate, ...]:
    """One Monte-Carlo run, counted against several levels at once.

    All levels share the same trials, so estimates are comparable across
    levels with no extra simulation cost.
    """
    levels = [require_real("level", u) for u in levels]
    if not levels:
        raise ValueError("levels must be non-empty")
    n = config.trials
    total, total_sq = _run_groups(model, lo, hi, levels, config)
    out = []
    for k in range(len(levels)):
        mean = float(total[k] / n)
        if n > 1:
            var = float(total_sq[k] - total[k] * total[k] / n) / (n - 1)
            stderr = math.sqrt(max(var, 0.0) / n)
        else:
            stderr = math.inf
        out.append(MCEstimate(mean=mean, stderr=stderr, trials=n, seed=config.seed))
    return tuple(out)
