r"""Key rates: single-point, Monte-Carlo integrated, and quadrature checked.

The single-point rate is the sign mutual information I(A:B) of parties A
and B minus the Holevo bound chi(A) on A's sign.  Averaging it over the
announced variables gives the raw rate; averaging its positive part gives
the post-selected rate, in which the parties keep only the instances
whose announcement-conditioned rate is positive.

The keep/drop decision is certified: every announcement carries a bound
on the distance between the computed and the exact I - chi, and it is
kept only when the computed rate exceeds that bound, so every kept
announcement has an exactly positive rate.  Both estimators share this
decision, and one node loop computes it for both (:func:`_node_rates`)
from one per-row evaluation (:func:`_rate_terms`).

The Monte-Carlo estimator importance-samples the announcements from a
defensive mixture (Hesterberg, Technometrics 1995; Owen, *Monte Carlo
theory, methods and examples*, ch. 9): uniform signs; magnitudes, for
all three parties at once, from the physical half-normal or, with
probability 1/2, from one three times as wide; and the outcome drawn from
the outcome model itself (:func:`~cvconf.protocol._draw_outcomes`), so
only the magnitudes need a correction.  Each sample is weighted by the
likelihood ratio of the physical to the mixture density, which never
exceeds 2, so the estimator's variance is at most twice that of plain
sampling while the wide component reaches the large magnitudes where
post-selection keeps announcements.  Reproducibility contract: sample i
draws its randomness from (seed, i) alone via counter-based generators
keyed per fixed-size block, and all reductions run in fixed block order,
so results are bit-identical for any degree of parallelism.

A deterministic tensor-product quadrature over the truncated announcement
domain, using the explicit joint density as weight, cross-validates the
estimator.

The node loop of both skips the spectra of rows that a closed-form lower
bound chi(A; E_A) on chi(A) proves the certified rule cannot keep, so the
post-selected part is bit for bit the full rule's.  The quadrature needs
only that part.  The Monte-Carlo raw column takes I - chi(A; E_A) on those
rows, so it estimates an upper bound on the mean of I - chi, while the
spectra run on a few percent of the draws.
"""

from __future__ import annotations

import contextlib
import functools
import math
import operator
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .holevo import _holevo_in_range, _holevo_with_bound, _own_tap_holevo_with_bound, \
    overlap_deficits_batch
from .inference import _EPS, _mi_with_bound, _row_sum, posterior_rel_err, posterior_table_batch
from .protocol import ProtocolParams, _draw_outcomes, _joint_density_factors, \
    _one_announcement, mean_coefficients
# Not called here; the benchmark's span tracer wraps these two names of this module.
from .holevo import single_point_holevo  # noqa: F401
from .inference import single_point_mi  # noqa: F401

__all__ = [
    "BLOCK_SIZE",
    "MAX_SAMPLES",
    "RateEstimate",
    "SweepPoint",
    "single_point_rate",
    "certified_rates",
    "estimate_rates_mc",
    "quadrature_cross_check",
    "sweep_distance",
]

# Samples per randomness block.  Part of the reproducibility contract:
# block b is generated from Philox key (seed, b), so changing this value
# changes the sample stream (the worker count never does).  It is also the
# quadrature's chunk: grid points built, evaluated and summed at a time.
BLOCK_SIZE = 1 << 16

# Largest sample count per estimate: 2**18 blocks, so the block task list
# stays small (days of CPU at ~1e5 samples/s per process).
MAX_SAMPLES = 1 << 34

# Width of the defensive mixture's second magnitude component, in units
# of sigma, and the per-draw log density ratio it implies.
_WIDE = 3.0
_LOG_WIDE_RATIO_SLOPE = (1.0 - 1.0 / _WIDE ** 2) / 2.0
_LOG_WIDE_RATIO_OFFSET = -3.0 * math.log(_WIDE)

# Rows per tile of the node loop _node_rates; each row's result does not
# depend on it.  The screen leaves the spectra 2-8% of a tile's rows, so much
# of a tile's time is what one _rate_terms call costs whatever its rows (0.37
# ms for 16 rows against 2.9 ms for 4096 at 2 km), and the tile sets the calls
# per batch.  Its memory is the every-row terms and the live rows' (n, 8, 8)
# matrices; 8192 is the largest power of two that keeps certified_rates on
# one 2 km block under 16 MiB.  CPU-s of _mc_block on 2 blocks of the 0-7 km
# trace grid and of one quadrature round (16 nodes at 0 and 2 km), medians of
# 15 alternating timings, one BLAS thread; tracemalloc peaks of
# certified_rates on one 2 km block of mixture draws and of _mc_block on one
# block of that grid:
#
#      tile   2 blocks   quadrature   certified_rates   _mc_block
#      4096     0.52        0.21          6.4 MB          7.8 MB
#      8192     0.47        0.20         11.7 MB          8.4 MB
#     16384     0.50        0.20         22.4 MB         11.1 MB
_TILE = 1 << 13

# Gauss-Legendre points per quadrature panel, and the most grid points one
# quadrature evaluates.
_PANEL_DEGREE = 8
_MAX_QUAD_POINTS = 1 << 26


@dataclass(frozen=True)
class RateEstimate:
    """A rate value in bits per protocol use with its uncertainty."""

    value: float
    std_error: float
    n_samples: int
    method: str  # "mc" or "quadrature"


@dataclass(frozen=True)
class SweepPoint:
    """Rates of the symmetric configuration at one relay distance."""

    distance_km: float
    tau: float
    estimate: RateEstimate         # post-selected rate
    estimate_no_ps: RateEstimate   # upper bound on the raw (non-post-selected) rate


def single_point_rate(mags, gamma: float, params: ProtocolParams) -> float:
    """Single-point rate I(A:B) - chi(A) for one announcement; may be negative.

    The n = 1 view of :func:`_rate_terms`: both terms come from one
    posterior table and equal ``single_point_mi`` and ``single_point_holevo``
    exactly, so the rate is their difference bit for bit.
    """
    mi, chi = _single_point_terms(mags, gamma, params)
    return mi - chi


def _single_point_terms(mags, gamma: float, params: ProtocolParams) -> tuple[float, float]:
    """I(A:B) and chi(A) of one announcement from one posterior table, chi checked
    and projected onto [0, 1] as by ``single_point_holevo``."""
    terms = _rate_terms(*_one_announcement(mags, gamma), params)
    return float(terms.mi[0]), _holevo_in_range(float(terms.chi[0]))


class _RowTerms(NamedTuple):
    """The terms :func:`_rate_terms` gives a batch of rows."""

    mi: np.ndarray               # I(A:B) of every row
    chi_low: np.ndarray | None   # chi(A; E_A) of every row, where the screen runs
    live: np.ndarray | slice     # the rows that get spectra
    chi: np.ndarray              # chi(A) of the live rows
    err: np.ndarray              # bound on |computed - exact| of I - chi, live rows


def _rate_terms(mags: np.ndarray, gamma: np.ndarray, params: ProtocolParams,
                screen: bool = False) -> _RowTerms:
    """The one per-row evaluation.

    Every row gets I(A:B).  chi(A) and the bound ``err`` on |computed -
    exact| of I - chi are those of the rows ``live``.  Without ``screen``,
    every row is live and ``chi_low`` is None.  With it, every row gets
    chi(A; E_A), and the live rows are those the screen (:func:`_screened`)
    leaves.  Where A's own deficit is 0 on every row (0 km, or A lossless),
    chi(A; E_A) and its bound are the closed form's exact 0 there, not
    computed.  Each row's values are its own, whatever the batch.
    """
    tables, rel_err, mi, mi_err = _information_terms(mags, gamma, params)
    deficits = overlap_deficits_batch(mags, params)
    chi_low, live = None, slice(None)
    if screen:
        if deficits[:, 0].any():
            chi_low, chi_low_err = _own_tap_holevo_with_bound(tables, deficits, rel_err)
        else:
            chi_low = chi_low_err = np.zeros(len(mi))
        live = ~_screened(mi, mi_err, chi_low, chi_low_err)
    chi, chi_err = _holevo_with_bound(tables[live], deficits[live], rel_err[live])
    return _RowTerms(mi, chi_low, live, chi, _rate_bound(mi[live], mi_err[live], chi, chi_err))


def _information_terms(mags: np.ndarray, gamma: np.ndarray, params: ProtocolParams
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The posterior tables, their relative error bound, and I(A:B) with its bound.

    A bound that overflows, which the estimators reach only through a huge
    sigma, raises ValueError naming sigma before any spectrum.
    """
    with np.errstate(over="ignore"):
        rel_err = posterior_rel_err(mags, gamma, params)
    if not np.isfinite(rel_err).all():
        raise ValueError("sigma is too large: an announcement's "
                         "32*(|gamma| + sum_i w_i*mag_i)**2 is not finite")
    tables = posterior_table_batch(mags, gamma, params)
    mi, mi_err = _mi_with_bound(tables, rel_err)
    return tables, rel_err, mi, mi_err


def _rate_bound(mi, mi_err, chi, chi_err):
    """Bound on |computed - exact| of mi - chi from the two terms' bounds,
    with an ulp of each term for the subtraction and this sum."""
    return mi_err + chi_err + _EPS * (mi + chi)


def certified_rates(mags: np.ndarray, gamma: np.ndarray,
                    params: ProtocolParams) -> tuple[np.ndarray, np.ndarray]:
    """Single-point rates and their certified post-selected parts.

    Returns ``(rate, rate_ps)`` for (n, 3) magnitudes and (n,) outcomes.
    ``rate_ps`` equals ``rate`` where the computed rate exceeds its error
    bound, so the exact rate is positive, and 0 elsewhere: announcements
    whose sign floating point cannot settle are dropped.  The full-chi view
    of :func:`_rate_terms`: the node loop :func:`_node_rates` without its
    screen, so ``rate`` is I - chi on every row, bit for bit.  Both
    estimators spend chi on fewer rows; this is their oracle.
    """
    return _node_rates(mags, gamma, params, screen=False)


def _node_rates(mags: np.ndarray, gamma: np.ndarray, params: ProtocolParams,
                screen: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """The raw and post-selected columns ``(rate, rate_ps)`` of n rows, in
    tiles of ``_TILE`` so the core's memory does not grow with n.

    Each tile is one call of :func:`_rate_terms`, whose values are those of
    each row alone.  With ``screen``, chi(A) runs only on the rows
    :func:`_screened` leaves (1.9% of mixture draws at 2 km).  ``rate_ps``
    is the certified rule's on every row: a screened row gets 0, as the
    full rule would give it.  The raw term of a row is mi - chi where it
    has spectra, and mi - chi_low on a screened row.

    Since chi(A; E_A) <= chi(A) (discarding E_B and E_C cannot raise
    Holevo information), each raw term is at least the row's I - chi to
    within the two terms' bounds, and the raw column's mean is an unbiased
    estimate of an upper bound on the mean of I - chi.  Where rate_ps is
    positive the row has spectra, so its raw term is the rate itself.
    Without ``screen`` every row has spectra: the full-chi oracle
    :func:`certified_rates`.
    """
    rate, rate_ps = np.empty(len(gamma)), np.zeros(len(gamma))
    for start in range(0, len(gamma), _TILE):
        tile = slice(start, start + _TILE)
        terms = _rate_terms(mags[tile], gamma[tile], params, screen)
        live = terms.live
        rate_live = terms.mi[live] - terms.chi
        # Kept where it exceeds its bound, so the exact rate is positive.
        rate_ps[tile][live] = np.where(rate_live > terms.err, rate_live, 0.0)
        if screen:
            rate[tile] = terms.mi - terms.chi_low
        rate[tile][live] = rate_live
    return rate, rate_ps


def _screened(mi, mi_err, chi_low, chi_low_err) -> np.ndarray:
    """Rows the certified keep rule provably cannot keep, found without spectra.

    A row is screened when ``mi - chi_low + chi_low_err <= mi_err / 2``,
    where chi_low = chi(A; E_A) has a closed form with the bound chi_low_err
    (:func:`~cvconf.holevo._own_tap_holevo_with_bound`).  A NaN anywhere
    leaves the row unscreened, for the spectra's checks to reject.

    Why no such row is kept.  Write u = eps/2 for the unit roundoff, c and
    e for the chi(A) and bound that the core would compute, and
    D = mi - chi_low + chi_low_err exactly.  Then c >= chi(A) - e >=
    chi(A; E_A) - e >= chi_low - chi_low_err - e: discarding E_B and E_C
    cannot raise Holevo information.  The keep rule ``fl(mi - c) >
    fl(_rate_bound)`` needs mi > c, so its left side is at most
    (1 + u)(D + e).  Its right side adds mi_err, e and an ulp term of at
    least -eps e (c >= -e), so it is at least (1 - u)**2 (mi_err + e) -
    2u (1 + 3u) e.  Keeping therefore needs

        (1 + u) D > (1 - u)**2 mi_err - 6u e,

    in which the unknown e cancels but for its roundings, and these need
    an a-priori cap.  Each eigenvalue's term of a bound from
    :func:`~cvconf.holevo._entropy_with_bound` is at most the peak 0.531
    of -x*log2(x), since both its ends lie in [0, peak]: at most 8 peaks
    for the total state and 4 for each conditional one, whose marginals sum
    to 1.  Each entropy is at most as many peaks, so the ``rel`` terms add
    at most 4 peaks times rel = rel_err + 32 ulps.  Hence e < 7 (1 + rel)
    and 6u e < 22 eps (1 + rel_err).  On the screen's side,
    fl(mi - chi_low) is off by at most u |mi - chi_low| <= 1.07u (mi is
    clipped to [0, 1] and chi_low, two entropy terms, is at most 1.07),
    adding chi_low_err rounds once more, and halving mi_err is exact; so a
    screened row has D <= mi_err / (2 (1 - u)) + 1.07u.  Together with
    the keep condition that gives

        mi_err ((1 - u)**2 - (1 + u) / (2 (1 - u))) < 6u e + 1.07u (1 + u),

    whose left factor exceeds 0.49: keeping would need 0.49 mi_err <
    23 eps + 22 eps rel_err.  But :func:`~cvconf.inference._mi_with_bound`
    gives mi_err >= 6 (rel_err + 8 eps) less its own roundings, with
    rel_err >= 16 eps (:func:`~cvconf.inference.posterior_rel_err`), so
    0.49 mi_err > 47 eps + 1.4 rel_err: no screened row is kept.  The
    margin mi_err / 2 leaves half of mi_err for these roundings.

    Asking only whether chi(A; E_A) proves the exact rate negative would
    leave the rows whose rate lies within its own bound (the grid's tail,
    where I and chi are both tiny) to spectra that then drop them.
    """
    return mi - chi_low + chi_low_err <= mi_err / 2.0


def _mc_block(args) -> np.ndarray:
    """Weighted sums of the rate and its post-selected part over one block,
    shape (params, column, moment): the :func:`_weighted_sums` of each
    params of the grid, in grid order.

    The block's signs, magnitudes, weights and standard normals are drawn
    once; each params' outcomes are its own mean plus those normals
    (:func:`~cvconf.protocol._draw_outcomes`), the bits a block of that
    params alone would draw.  The grid's params share sigma.
    """
    seed, block_index, count, grid = args
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, block_index], dtype=np.uint64)))
    wide = rng.integers(0, 2, size=count) == 1
    signs = 2.0 * rng.integers(0, 2, size=(count, 3)) - 1.0
    z = np.abs(rng.normal(0.0, 1.0, size=(count, 3))) * np.where(wide, _WIDE, 1.0)[:, None]
    del wide
    # p/q = 2 / (1 + q_wide/p) with log(q_wide/p) = slope*|z|^2 + offset.
    weight = 2.0 * np.exp(-np.logaddexp(
        0.0, _LOG_WIDE_RATIO_SLOPE * _row_sum(z * z) + _LOG_WIDE_RATIO_OFFSET))
    mags = z
    mags *= np.asarray(grid[0].sigma)  # in place: z is spent once the weight is formed
    outcomes = _draw_outcomes(rng, signs, mags, grid)

    return np.array([_weighted_sums(_node_rates(mags, gamma, params), weight.__getitem__)
                     for params, gamma in zip(grid, outcomes)])


def _weighted_sums(columns, weigh) -> np.ndarray:
    """Sums of w*r and (w*r)**2 for each rate column r, shape (column, moment),
    over the rows where r is non-zero alone (the others add nothing): w =
    weigh(rows) is formed on those rows only."""
    sums = np.empty((len(columns), 2))
    for column_sums, rate in zip(sums, columns):
        rows = np.flatnonzero(rate)
        terms = weigh(rows) * rate[rows]
        column_sums[:] = terms.sum(), (terms * terms).sum()
    return sums


def _estimate_from_sums(total: float, total_sq: float, n: int) -> RateEstimate:
    mean = float(total) / n
    if n > 1:
        variance = max((float(total_sq) - n * mean * mean) / (n - 1), 0.0)
        std_error = math.sqrt(variance / n)
    else:
        std_error = 0.0
    return RateEstimate(mean, std_error, n, "mc")


def _integer(value, name: str) -> int:
    """``value`` as an int; a float or other non-integer raises ValueError naming ``name``."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _check_mc_arguments(n_samples, seed, n_workers) -> tuple[int, int, int]:
    """The Monte-Carlo arguments as ints; one out of range raises ValueError naming it."""
    n_samples = _integer(n_samples, "n_samples")
    seed = _integer(seed, "seed")
    n_workers = _integer(n_workers, "n_workers")
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    if n_samples > MAX_SAMPLES:
        raise ValueError(f"n_samples must be at most {MAX_SAMPLES}")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    if seed >= 2**64:
        raise ValueError("seed must be below 2**64")
    if n_workers < 1:
        raise ValueError("n_workers must be at least 1")
    return n_samples, seed, n_workers


def estimate_rates_mc(params: ProtocolParams, n_samples: int, seed: int = 0,
                      n_workers: int = 1) -> tuple[RateEstimate, RateEstimate]:
    """Monte-Carlo estimates of the raw rate's upper bound and the post-selected rate.

    :func:`_estimate_each` on a grid of one params: a sweep's point at a
    distance is this estimate at that distance, bit for bit.

    Parameters
    ----------
    params : ProtocolParams
    n_samples : int
        Total announcement samples, in [1, MAX_SAMPLES].
    seed : int
        Stream seed in [0, 2**64); together with the sample index it fully
        determines each sample's randomness.
    n_workers : int
        Blocks are evaluated in one pool of min(n_workers, blocks, CPUs)
        processes when that is > 1; the result is bit-identical for every
        value.

    Returns
    -------
    (RateEstimate, RateEstimate)
        An upper bound on the raw rate, and the post-selected rate, from
        the same samples.  The post-selected estimate is never negative,
        and is the certified rule's on every sample; chi(A) runs only on
        the samples the screen cannot settle (0.85-4.7% of them at 1-3
        km).  The raw estimate takes chi(A; E_A) <= chi(A) in place of
        chi(A) on the screened samples (:func:`_node_rates`), so it is an
        unbiased estimate of an upper bound on the mean of I - chi, with
        the plain iid standard error.  The bound lies 0.006-0.008 bits
        above the full-chi mean of the same samples at trace 1-7 km (two
        blocks, seed 3); a post-selected rate above the bound is above the
        raw rate too.  At unit transmissivity chi and chi(A; E_A) are
        exactly 0, so the raw estimate is the mean of I itself; the
        post-selected one falls below it only by the dropped samples whose
        I lies within its own error bound (3e-18 to 3e-17 at 2**17 samples,
        seeds 0-7).
    """
    return _estimate_each([params], *_check_mc_arguments(n_samples, seed, n_workers))[0]


def _estimate_each(grid, n_samples: int, seed: int,
                   n_workers: int) -> list[tuple[RateEstimate, RateEstimate]]:
    """(raw, post-selected) estimates at each params of ``grid``, in order.

    Takes checked arguments and a grid whose params share sigma.  There is
    one task per block, and each task evaluates its block at every params
    of the grid (:func:`_mc_block`), so the block is drawn once for the
    whole grid.  One pool of min(n_workers, blocks, CPUs) processes runs the
    tasks when that is > 1; an empty grid starts none and draws nothing.
    The blocks' sums are reduced once, over the stacked blocks in block
    order, which adds them left to right: the bits of a running sum.
    """
    if any(params.sigma != grid[0].sigma for params in grid):
        raise ValueError("the params of one Monte-Carlo grid must share sigma")
    if not grid:
        return []
    n_blocks = (n_samples + BLOCK_SIZE - 1) // BLOCK_SIZE
    tasks = [(seed, b, min(BLOCK_SIZE, n_samples - b * BLOCK_SIZE), grid)
             for b in range(n_blocks)]
    n_processes = min(n_workers, n_blocks, os.cpu_count() or 1)
    with contextlib.ExitStack() as stack:
        run_blocks = map
        if n_processes > 1:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=n_processes))
            run_blocks = functools.partial(pool.map, chunksize=1)
        block_sums = list(run_blocks(_mc_block, tasks))
    return [(_estimate_from_sums(*raw, n_samples), _estimate_from_sums(*post, n_samples))
            for raw, post in np.sum(np.asarray(block_sums), axis=0)]


def _rule_size(n_nodes: int) -> int:
    """Points of the composite rule asked for n_nodes: whole panels, at least one."""
    return _PANEL_DEGREE * max(1, -(-n_nodes // _PANEL_DEGREE))


def _composite_gauss_legendre(hi: float, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule on [0, hi] with ``_rule_size(n_nodes)`` points."""
    n_panels = _rule_size(n_nodes) // _PANEL_DEGREE
    base_x, base_w = np.polynomial.legendre.leggauss(_PANEL_DEGREE)
    edges = np.linspace(0.0, hi, n_panels + 1)
    half = np.diff(edges) / 2.0
    mid = (edges[:-1] + edges[1:]) / 2.0
    nodes = (mid[:, None] + half[:, None] * base_x[None, :]).reshape(-1)
    weights = (half[:, None] * base_w[None, :]).reshape(-1)
    return nodes, weights


def quadrature_cross_check(params: ProtocolParams, nodes_per_axis: int = 24) -> RateEstimate:
    """Deterministic quadrature of the post-selected rate integral.

    Tensor-product composite Gauss-Legendre over mag_i in [0, 8*sigma_i]
    and the outcome in [-(m_max+8), m_max+8], where m_max is the largest
    outcome mean on the truncated magnitude box; the excluded tail mass
    is below 1e-15 per axis.  ``nodes_per_axis``, an integer of at least
    8, sets the magnitude axes; the outcome axis gets proportionally more
    nodes to keep the same node density over its longer range.  The
    integrand weight is the explicit joint announcement density.

    The integrand is even in the outcome: negating it maps the posterior
    table t -> 7 - t (every sign flipped), which leaves I(A:B) unchanged
    and maps each party's eavesdropper states by a local unitary (Z on
    {Phi_0, Phi_1}), which leaves chi(A) unchanged; the joint density is
    even too.  The outcome rule is built on [0, g_hi] and mirrored, so
    only its non-negative half (no node sits at 0) is evaluated, with
    doubled weights.  A kept node's exact rate at the mirrored outcome is
    the same, so still positive.  ``n_samples`` counts the nodes of the
    full symmetric rule.

    The nodes go through the screened node loop :func:`_node_rates`, whose
    raw column the quadrature does not read: chi(A; E_A) spares the spectra
    of 97% of the 16-node grid at 2 km.  Node weights and joint density are formed on
    the kept nodes alone (0.3% of that grid); the values are bit for bit
    those of ``certified_rates`` on every node.

    The grid is counted before it is built: a sigma whose magnitude box
    overflows the floats raises ValueError naming ``sigma``, and one of
    more than ``_MAX_QUAD_POINTS`` (2**26) evaluated points raises
    ValueError naming ``sigma`` and ``nodes_per_axis``.  The outcome axis
    keeps the node density of the widest magnitude axis over a range of at
    least 16, so a small sigma asks for many points: at tau = 0.9 and 8
    nodes, sigma = (1e-4,)*3 gives 4.1e7 and is admitted, and 1e-8 would
    give 4.1e11.  The 32-node rule gives 2.9e6 at sigma = 1 and 7.1e6 at
    0.2.

    It under-resolves an asymmetric sigma: the outcome axis's node density
    follows the largest sigma, and the wide axis gets no more nodes than the
    narrow ones.  At 0 km, sigma = (30, 1, 1), 8, 16 and 24 nodes give
    2.4e-5, 6.52e-3 and 4.04e-3 against an MC value of 6.01e-3 +- 1.1e-4.
    """
    if _integer(nodes_per_axis, "nodes_per_axis") < 8:
        raise ValueError("nodes_per_axis must be at least 8")
    sigma = np.asarray(params.sigma)
    # The grid is counted before any axis is built.  A sigma near the float
    # limit overflows here: a huge one is named at once; a tiny one leaves
    # an infinite density, whose outcome request the cap then refuses.
    with np.errstate(over="ignore"):
        m_max = float(mean_coefficients(params) @ (8.0 * sigma))
        density = float(nodes_per_axis / (8.0 * sigma.max()))
    if not math.isfinite(m_max):
        raise ValueError(f"sigma {params.sigma} is too large: the magnitude box "
                         f"[0, 8*sigma] overflows")
    g_hi = m_max + 8.0

    # An outcome request past the cap is clipped to it: the grid is then
    # refused whatever its size.
    g_half_req = max(nodes_per_axis // 2, math.ceil(min(g_hi * density, _MAX_QUAD_POINTS)), 8)
    shape = tuple(_rule_size(n) for n in (nodes_per_axis,) * 3 + (g_half_req,))
    n_points = math.prod(shape)
    if n_points > _MAX_QUAD_POINTS:
        raise ValueError(f"sigma {params.sigma} and nodes_per_axis {nodes_per_axis} ask for "
                         f"{n_points:.3g} grid points, above the cap of {_MAX_QUAD_POINTS}")

    mag_axes = [_composite_gauss_legendre(8.0 * s, nodes_per_axis) for s in sigma]
    g_nodes, g_half_weights = _composite_gauss_legendre(g_hi, g_half_req)
    axes = mag_axes + [(g_nodes, 2.0 * g_half_weights)]

    # Row-major (mag_A, mag_B, mag_C, outcome) grid, built one chunk of
    # BLOCK_SIZE points at a time.
    total = 0.0
    for start in range(0, n_points, BLOCK_SIZE):
        index = np.unravel_index(np.arange(start, min(start + BLOCK_SIZE, n_points)), shape)
        points = np.stack([nodes[i] for (nodes, _), i in zip(axes, index)], axis=1)
        mags, gamma = points[:, :3], points[:, 3]

        def weigh(rows):
            node_weights = np.prod([w[i[rows]] for (_, w), i in zip(axes, index)], axis=0)
            outcome, mag_density = _joint_density_factors(mags[rows], gamma[rows], params)
            return node_weights * outcome * mag_density

        _, rate_ps = _node_rates(mags, gamma, params)
        total += float(_weighted_sums([rate_ps], weigh)[0, 0])
    return RateEstimate(total, 0.0, 2 * n_points, "quadrature")


def sweep_distance(params_template: ProtocolParams, distances, n_samples: int,
                   seed: int = 0, n_workers: int = 1) -> list[SweepPoint]:
    """Rates of the symmetric configuration over a distance grid.

    Every distance reuses the same seed, so adjacent points share their
    announcement randomness (common random numbers) and the sweep is
    deterministic given (seed, n_samples).  The arguments are checked,
    ``distances`` included (ValueError naming it for one that is not a
    number), before any pool starts, so an empty grid rejects bad ones too.
    There is one task per block for the whole grid (:func:`_estimate_each`):
    each draws its block once and evaluates it at every distance.  Each
    point is bit-identical to :func:`estimate_rates_mc` at that distance,
    for any worker count.
    """
    checked = _check_mc_arguments(n_samples, seed, n_workers)
    try:
        distances = [float(d) for d in distances]
    except (TypeError, ValueError):
        raise ValueError(f"distances must be real numbers, got {distances!r}") from None
    grid = [params_template.at_distance(d) for d in distances]
    estimates = _estimate_each(grid, *checked)
    return [SweepPoint(d, params.tau[0], post, raw)
            for d, params, (raw, post) in zip(distances, grid, estimates)]
