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
|x| <= 1 that is the plain sum; beyond, it is the coefficient-reversed
polynomial in y = 1/x times the sign of x^d, so every power lies in
[-1, 1] and nothing overflows.  The level test multiplies |x|^n back in;
values past the float range become +-inf, which still compare correctly
with every finite level.

Sign grid.  All trials, and both signs of x, share one power table.  The
points strictly inside the query interval are +-p for one set of
magnitudes p (the grid is mirrored), and 1/(-p) = -(1/p) exactly, so by
the rule above Q'(+-p) / max(1, p)^d sums the powers of p (p <= 1) or of
1/p (beyond, with the coefficients reversed), the power of x in each term
times (+-1)^j.  Row j of the table holds p^j, or (1/p)^j, the product of
the last row and p or 1/p.  The derivative rows, stacked over the same
rows with the odd powers negated, times the table give Q' at +p and -p
for every trial of a tile: one product over the magnitudes p <= 1, one of
the reversed rows over the rest.  A down-crossing is read off these
values: Q' < 0 at a point and not at the point before it, in the order of
x, which descends with p on the negative side, and Q' > 0 read again at
the few such first points.  The three cells that join an end point or
the two signs (the first, the last and the one across 0) take Q' from a
small table of their own points.  The magnitudes are taken in chunks of
even size that share their end points, of at most
``_GRID_CHUNK_ELEMENTS`` / max(d+1, 2 r) magnitudes, and a chunk ends
where the shorter side ends, so a side's rows enter only the products of
chunks it holds whole.  Only an interval with 0 inside has two sides, and
only a mirrored one, (-a, a), has them equal: on (-7, 0.2), say, the
magnitudes past 0.2 serve the negative side alone.  The trials go in
tiles of r <= ``_TILE_ROWS`` rows with 2 r (d+1) <=
``_GRID_CHUNK_ELEMENTS``.  Every crossing of the call is then refined and
tested together, in batches of at most ``_ROW_ELEMENTS`` / (n+1)
crossings.

Memory.  A count holds at most ``_GRID_CHUNK_ELEMENTS`` = 2^21 doubles
(16 MiB) in the power table of a grid chunk, and as many in the values of
a tile, at any degree.  Every array with a row per trial or per crossing
(the coefficients and derivative rows of the call, the rows and power
tables of one refinement batch) is at most as large as the call's
coefficient matrix or ``_ROW_ELEMENTS`` = 2^16 doubles (512 KiB).  A run
counts its trials in groups that keep the coefficient matrix within that
too, except where one block of 256 trials alone is larger (n >= 256).

Refinement.  Each crossing keeps a bracket (x_lo, x_hi) with Q' > 0 at
x_lo and Q' < 0 at x_hi, starting from its grid cell, and steps from the
bracket midpoint (``rtsafe`` in Press et al., Numerical Recipes).  An
infinite query end is first pulled in to 2 max(1, |other end|), or
further, to Fujiwara's bound on the roots of Q' of that trial, so the
bracket holds a maximum that lies past the last grid point.  One
power table of the folded point gives both Q' and Q'' by the rule above:
on the outer side Q''/x^(d-1) = sum_i (d-i) c_(d-i) y^i uses the same
powers as Q', and Q'/Q'' = x S/T there for the two sums S and T.  The
sign of Q' moves one bracket end to the point; where Q' is exactly 0
(x = 0 whenever A_1 = 0) its sign is read 2^-40 of the bracket toward
x_hi, as at the grid ends.  The Newton point is taken only where Q'' < 0
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
block.  The block is the generator unit; the work unit is a group of
consecutive blocks, counted by one ``count_maxima_below`` call.  A run is
one group, unless it would hold more than ``_ROW_ELEMENTS`` coefficients
(then as few groups as fit, of one block at least) or
``workers`` > 1 (then at least ``workers`` groups, which the threads
share).  A trial's counts do not depend on the rows it is counted with, so
the estimate is a pure function of (model, interval, levels, trials, seed,
points_per_unit), whatever the worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import PolynomialModel, require_integer

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
# Most trials whose values one sign-grid product gives.  Tuned on one
# host: 128 rows keep an n = 8 value tile inside its 2 MiB L2 cache.
_TILE_ROWS = 128
# Smallest value of each integer setting, in ``MCConfig`` and the helpers.
_MINIMUMS = {"trials": 1, "seed": 0, "points_per_unit": 8, "workers": 1}


@dataclass(frozen=True)
class MCConfig:
    """Trial budget and execution knob for a Monte-Carlo run.

    ``trials`` and ``seed`` define the estimate; ``points_per_unit``
    controls the sign-grid resolution (points per unit of the grid
    coordinate sigma = asinh(n ln|x|), so per unit of t = n ln|x| near
    |x| = 1); with ``workers`` > 1 a run is counted in at least that many
    groups of blocks of 256 trials, which as many threads share (module
    docstring): this affects speed only, never the result.
    """

    trials: int
    seed: int = 0
    points_per_unit: int = 512
    workers: int = 1

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


def _fold(x: np.ndarray, deg: int):
    """The reversed-form rule (module docstring) at points x, for degree
    ``deg``: (y, outer, sign) with outer = |x| > 1, y = 1/x there and x
    elsewhere, and sign = the sign of x^deg on ``outer``, +1 elsewhere.
    The sign reads x, not y: at x = -inf, y is -0.0.
    """
    outer = np.abs(x) > 1.0
    y = np.divide(1.0, x, out=x.copy(), where=outer)
    sign = np.where(outer & (x < 0.0) & (deg % 2 == 1), -1.0, 1.0)
    return y, outer, sign


def _scaled_value(rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Q(x) / max(1, |x|)^deg for coefficient row i (ascending powers) at
    x[i]; finite wherever the coefficients are."""
    width = rows.shape[1]
    y, outer, sign = _fold(x, width - 1)
    rows = np.where(outer[:, None], rows[:, ::-1], rows)
    return sign * np.vecdot(rows, np.vander(y, N=width, increasing=True))


def _down_crossings(dcoef: np.ndarray, x: np.ndarray):
    """(cell, trial) of every down-crossing of Q' between neighbouring
    points of the sorted grid x, cell k lying between x[k] and x[k+1], for
    the derivative rows ``dcoef`` (module docstring).  The points strictly
    inside x are mirrored, as ``_build_grid`` makes them: the magnitudes of
    the shorter sign are the first magnitudes of the longer."""
    trials, width = dcoef.shape
    a = int(np.searchsorted(x[1:-1], 0.0))  # x[1..a] < 0 < x[a+1..b+a]
    b = x.size - 2 - a
    mag = x[a + 1 : -1] if b >= a else -x[a:0:-1]

    # cells 0, a and b + a join an end point or the two signs: Q' at their
    # points by the reversed-form rule, from a table of their own
    edge = np.unique([0, a, b + a])
    y, outer, sign = _fold(x[np.concatenate([edge, edge + 1])], width - 1)
    power = np.vander(y, N=width, increasing=True)
    at = dcoef @ np.where(outer[:, None], sign[:, None] * power[:, ::-1], power).T
    crossed = at[:, : edge.size] > 0.0
    crossed &= at[:, edge.size :] < 0.0
    trial, k = np.nonzero(crossed)
    cells, rows = [edge[k]], [trial]

    # every other cell joins two points of one sign, cell k, k+1 of mag on
    # either side: one table of the chunk's magnitudes, and the rows of each
    # side that holds the chunk times it (module docstring)
    parity = np.where(np.arange(width) % 2 == 1, -1.0, 1.0)
    tile = max(1, min(trials, _TILE_ROWS, _GRID_CHUNK_ELEMENTS // (2 * width)))
    most = max(1, _GRID_CHUNK_ELEMENTS // max(width, 2 * tile) - 1)
    # a side of count points has cells 0 .. count - 2, taken in chunks of
    # cells that share their end points: as few as the budget allows, of
    # even size, and one ends where the shorter side does, so that each
    # side holds a chunk whole or not at all
    cuts = [0]
    for end in sorted({a - 1, b - 1}):
        start = cuts[-1]
        if end > start:
            parts = math.ceil((end - start) / most)
            cuts += [start + (end - start) * m // parts for m in range(1, parts + 1)]
    step = int(max(np.diff(cuts), default=0))
    # flat buffers, reused by every chunk and tile
    table_buf = np.empty(width * (step + 1))
    value_buf = np.empty(2 * tile * (step + 1))
    below, hit = np.empty(value_buf.size, dtype=bool), np.empty(tile * step, dtype=bool)
    for start, stop in zip(cuts, cuts[1:]):
        p = mag[start : stop + 1]
        sides = [negative for negative, count in ((False, b), (True, a)) if count > stop]
        # row j holds p^j, or (1/p)^j past p = 1, each row the product of
        # the last and that base (the product sequence of np.vander); the
        # reversed rows take the columns past p = 1
        i = int(np.searchsorted(p, 1.0, side="right"))
        base = np.divide(1.0, p, out=p.copy(), where=p > 1.0)
        table = table_buf[: width * p.size].reshape(width, p.size)
        table[0] = 1.0
        for j in range(1, width):
            np.multiply(table[j - 1], base, out=table[j])
        for first in range(0, trials, tile):
            block = dcoef[first : first + tile]
            r = block.shape[0]
            stacked = np.concatenate([block * parity if negative else block for negative in sides])
            shape = (stacked.shape[0], p.size)
            value = value_buf[: math.prod(shape)].reshape(shape)
            np.matmul(stacked, table[:, :i], out=value[:, :i])
            np.matmul(np.ascontiguousarray(stacked[:, ::-1]), table[:, i:], out=value[:, i:])
            neg = np.less(value, 0.0, out=below[: value.size].reshape(shape))
            out = hit[: r * (p.size - 1)].reshape(r, p.size - 1)
            for q, negative in enumerate(sides):
                # in the order of x, which descends with p on the negative
                # side: Q' >= 0 at a point and Q' < 0 at the next, then
                # Q' > 0 read again at the few such first points
                before, after = slice(0, -1), slice(1, None)
                if negative:
                    before, after = after, before
                own = slice(q * r, (q + 1) * r)
                h = np.greater(neg[own, after], neg[own, before], out=out)
                trial, k = np.divmod(np.flatnonzero(h), p.size - 1)
                sure = value[own][trial, k + negative] > 0.0
                trial, k = trial[sure], k[sure] + start
                cells.append(a - 1 - k if negative else a + 1 + k)
                rows.append(first + trial)
    return np.concatenate(cells), np.concatenate(rows)


def _newton_terms(drows: np.ndarray, x: np.ndarray):
    """(S, T, outer, sign) for derivative row i at x[i] by the reversed-form
    rule: Q' = sign S max(1, |x|)^deg, and Q'' = T inside, x^(deg-1) T on
    the ``outer`` side, from one power table of the folded point."""
    width = drows.shape[1]
    ramp = np.arange(1.0, width)
    y, outer, sign = _fold(x, width - 1)
    power = np.vander(y, N=width, increasing=True)
    rows = np.where(outer[:, None], drows[:, ::-1], drows)
    s = np.vecdot(rows, power)
    # T over y^0 .. y^(deg-1): (j+1) c_(j+1) inside, (deg-j) times the
    # reversed row on the outer side
    t = np.where(
        outer,
        np.einsum("kj,kj,j->k", rows[:, :-1], power[:, :-1], ramp[::-1]),
        np.einsum("kj,kj,j->k", rows[:, 1:], power[:, :-1], ramp),
    )
    return s, t, outer, sign


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
    odd = drows.shape[1] % 2 == 1  # deg - 1 odd: x^(deg-1) < 0 for x < 0
    x = 0.5 * (x_lo + x_hi)
    root = np.empty_like(x)
    active = np.arange(x.size)
    for _ in range(_REFINE_STEPS):
        s, t, outer, sign = _newton_terms(drows, x)
        q = sign * s
        # a zero of Q' (x = 0 whenever A_1 = 0): read the sign just toward
        # x_hi, as at the grid ends
        zero = q == 0.0
        if zero.any():
            nudged = x[zero] + np.ldexp(x_hi[zero] - x[zero], -40)
            q[zero] = _scaled_value(drows[zero], nudged)
        pos = q > 0.0
        x_lo = np.where(pos, x, x_lo)
        x_hi = np.where(pos, x_hi, x)
        curved = np.where(outer & (x < 0.0) & odd, t > 0.0, t < 0.0)  # Q'' < 0
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(outer, x, 1.0) * (s / t)  # Q'/Q''
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
    (trials, len(levels)).  Raises ``ValueError`` unless lo < hi, every
    level is a number (+-inf allowed) and ``points_per_unit`` is an integer
    >= 8, as in ``MCConfig``.
    """
    points_per_unit = require_integer(
        "points_per_unit", points_per_unit, _MINIMUMS["points_per_unit"]
    )
    if not lo < hi:
        raise ValueError(f"need lo < hi, got ({lo!r}, {hi!r})")
    levels = np.atleast_1d(np.asarray(levels, dtype=float))
    if np.isnan(levels).any():
        raise ValueError(f"levels must not be NaN, got {levels.tolist()!r}")
    n = model.degree
    x = _build_grid(n, lo, hi, points_per_unit)
    dcoef = coeff[:, 1:] * np.arange(1, n + 1, dtype=float)  # j A_j, j = 1..n
    counts = np.zeros((coeff.shape[0], levels.size), dtype=np.int64)

    cells, rows = _down_crossings(dcoef, x)
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


def _groups(trials: int, n: int, workers: int) -> list[list[tuple[int, int]]]:
    """The blocks of a run in groups of consecutive blocks, each counted by
    one call: as few groups as hold at most ``_ROW_ELEMENTS`` coefficients
    (one block at least), and at least ``workers``."""
    blocks = _blocks(trials)
    per_group = max(1, _ROW_ELEMENTS // (_BLOCK * (n + 1)))
    count = min(len(blocks), max(workers, -(-len(blocks) // per_group)))
    cut = [len(blocks) * i // count for i in range(count + 1)]
    return [blocks[i:j] for i, j in zip(cut, cut[1:])]


def _run_groups(model, lo, hi, levels, config):
    """Sums of the counts and of their squares per level, over all trials."""

    def one(group):
        coeff = np.concatenate([_sample_block(model, config.seed, *b) for b in group])
        c = count_maxima_below(
            model, coeff, lo, hi, levels, points_per_unit=config.points_per_unit
        )
        return c.sum(axis=0), (c * c).sum(axis=0)

    groups = _groups(config.trials, model.degree, config.workers)
    if config.workers == 1:
        parts = [one(g) for g in groups]
    else:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            parts = list(pool.map(one, groups))
    return sum(c1 for c1, _ in parts), sum(c2 for _, c2 in parts)


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
    levels = [float(u) for u in levels]
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
