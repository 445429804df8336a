"""Tests for the Monte-Carlo rate engine and its quadrature cross-check."""

import math
import os
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import cvconf.holevo
import cvconf.inference
import cvconf.rates
from cvconf.holevo import _own_tap_holevo_with_bound, overlap_deficits_batch, \
    single_point_holevo
from cvconf.inference import single_point_mi
from cvconf.protocol import CASCADE_T1, CASCADE_T2, ProtocolParams, mean_coefficients, \
    transmissivity_from_distance
from cvconf.rates import (
    BLOCK_SIZE,
    MAX_SAMPLES,
    SweepPoint,
    certified_rates,
    estimate_rates_mc,
    quadrature_cross_check,
    single_point_rate,
    sweep_distance,
    _SUBSAMPLE,
    _TILE,
    _information_terms,
    _mc_block,
    _node_rates,
    _rate_bound,
    _rate_terms,
    _screened,
)


@pytest.fixture
def recording_pool(monkeypatch):
    """Replace the process pool with one that runs its tasks in-process.

    Records each pool's ``max_workers`` in ``started`` and each ``map``
    call's task list in ``mapped``.
    """
    record = SimpleNamespace(started=[], mapped=[])

    class RecordingPool:
        """Stands in for the process pool and runs the tasks in-process."""

        def __init__(self, max_workers=None, **kwargs):
            record.started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            tasks = list(tasks)
            record.mapped.append(tasks)
            return map(fn, tasks)

    monkeypatch.setattr(cvconf.rates, "ProcessPoolExecutor", RecordingPool)
    return record


def _mixture_draws(params, n, seed):
    """Announcements drawn as the Monte-Carlo sampler draws them: magnitudes
    from the physical half-normal or one three times as wide, the outcome
    around its conditional mean."""
    rng = np.random.default_rng(seed)
    wide = rng.integers(0, 2, size=n) == 1
    signs = rng.choice([-1.0, 1.0], size=(n, 3))
    mags = np.abs(rng.normal(0.0, 1.0, size=(n, 3))) * np.where(wide, 3.0, 1.0)[:, None]
    mags *= np.asarray(params.sigma)
    return mags, rng.normal((signs * mags) @ mean_coefficients(params), 1.0)


def _post_selected(mags, gamma, params):
    """The post-selected column of the node loop as the quadrature runs it,
    with spectra on the unscreened rows alone."""
    rate, rate_ps = _node_rates(mags, gamma, params, stride=None)
    assert rate is None
    return rate_ps


def _screen(mags, gamma, params):
    """The rows that the node loop screens out before their spectra."""
    return _screened(*_own_tap_terms(mags, gamma, params))


def _own_tap_terms(mags, gamma, params):
    """I(A:B) and chi(A; E_A), each with its bound, as the screen sees them."""
    tables, rel_err, mi, mi_err = _information_terms(mags, gamma, params)
    chi_low, chi_low_err = _own_tap_holevo_with_bound(
        tables, overlap_deficits_batch(mags, params), rel_err)
    return mi, mi_err, chi_low, chi_low_err


def _proves_negative(mi, mi_err, chi_low, chi_low_err):
    """Rows whose exact rate chi(A; E_A) proves negative: a narrower test than
    the screen's, which asks whether the certified rule can keep a row."""
    return mi - chi_low < -_rate_bound(mi, mi_err, chi_low, chi_low_err)


def _grid_points(params, nodes_per_axis):
    """The (magnitudes, outcomes) at which the quadrature evaluates its integrand."""
    chunks = []

    def recording(mags, gamma, params, stride):
        chunks.append((mags.copy(), gamma.copy()))
        return None, np.zeros(len(gamma))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cvconf.rates, "_node_rates", recording)
        quadrature_cross_check(params, nodes_per_axis=nodes_per_axis)
    return np.concatenate([m for m, _ in chunks]), np.concatenate([g for _, g in chunks])


class TestSinglePointRate:
    def test_lossless_zero_magnitudes(self):
        p = ProtocolParams(tau=(1.0, 1.0, 1.0))
        assert single_point_rate((0, 0, 0), 0.0, p) == 0.0

    def test_lossless_equals_mutual_information(self):
        p = ProtocolParams(tau=(1.0, 1.0, 1.0))
        mags, gamma = (2.0, 2.0, 2.0), 0.0
        rate = single_point_rate(mags, gamma, p)
        mi = single_point_mi(mags, gamma, p)
        assert abs(single_point_holevo(mags, gamma, p)) <= 1e-12
        assert rate == pytest.approx(mi, abs=1e-12)
        assert rate > 0.0

    def test_recomposition(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            p = ProtocolParams(tau=tuple(rng.uniform(0.3, 1.0, 3)))
            mags = np.abs(rng.normal(0, 1.2, 3))
            gamma = rng.normal(0, 2)
            want = single_point_mi(mags, gamma, p) - single_point_holevo(mags, gamma, p)
            assert single_point_rate(mags, gamma, p) == pytest.approx(want, abs=1e-12)

    def test_can_be_negative(self):
        p = ProtocolParams(tau=(0.5, 0.5, 0.5))
        assert single_point_rate((1.0, 1.0, 1.0), 0.0, p) < 0.0

    @pytest.mark.parametrize("convention", ["trace", "amplitude"])
    def test_is_mi_minus_holevo_bit_for_bit(self, convention):
        """The rate of one announcement is exactly the difference of its two terms."""
        rng = np.random.default_rng(57)
        template = ProtocolParams(tau=(1.0, 1.0, 1.0), overlap_convention=convention)
        for distance in range(8):
            p = template.at_distance(float(distance))
            for _ in range(12):
                mags = np.abs(rng.normal(0, 1.0, 3)) * rng.choice([1.0, 3.0])
                gamma = rng.normal(mean_coefficients(p) @ mags, 1.0)
                want = single_point_mi(mags, gamma, p) - single_point_holevo(mags, gamma, p)
                assert single_point_rate(mags, gamma, p) == want

    def test_builds_one_posterior_table(self, monkeypatch):
        calls = []
        original = cvconf.inference.posterior_table_batch

        def counting(mags, gamma, params):
            calls.append(len(gamma))
            return original(mags, gamma, params)

        for module in (cvconf.inference, cvconf.holevo, cvconf.rates):
            monkeypatch.setattr(module, "posterior_table_batch", counting, raising=False)
        p = ProtocolParams(tau=(0.6, 0.6, 0.6))
        for gamma in (-1.5, 0.0, 0.7):
            calls.clear()
            single_point_rate((1.2, 0.4, 2.0), gamma, p)
            assert calls == [1]


class TestEstimateRatesMc:
    def test_post_selected_dominates_raw(self):
        p = ProtocolParams(tau=(0.9, 0.9, 0.9))
        raw, post = estimate_rates_mc(p, 50_000, seed=1)
        assert post.value >= raw.value
        assert post.value >= 0.0
        assert post.value >= -3.0 * post.std_error

    def test_lossless_rates_coincide(self):
        p = ProtocolParams(tau=(1.0, 1.0, 1.0))
        raw, post = estimate_rates_mc(p, 100_000, seed=2)
        assert post.value == pytest.approx(raw.value, abs=1e-12)

    def test_reproducible_given_seed(self):
        p = ProtocolParams(tau=(0.9, 0.9, 0.9))
        a = estimate_rates_mc(p, 30_000, seed=7)
        b = estimate_rates_mc(p, 30_000, seed=7)
        assert a == b

    def test_bit_identical_across_worker_counts(self):
        p = ProtocolParams(tau=(0.93, 0.93, 0.93))
        n = 2 * BLOCK_SIZE + 1234  # more blocks than workers, ragged tail
        serial = estimate_rates_mc(p, n, seed=3, n_workers=1)
        parallel = estimate_rates_mc(p, n, seed=3, n_workers=2)
        assert serial[0].value == parallel[0].value
        assert serial[0].std_error == parallel[0].std_error
        assert serial[1].value == parallel[1].value
        assert serial[1].std_error == parallel[1].std_error

    def test_at_most_one_process_per_block(self, monkeypatch, recording_pool):
        """No pool for a single block; never more processes than blocks."""
        started = recording_pool.started
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        p = ProtocolParams(tau=(0.93, 0.93, 0.93))
        one_block = estimate_rates_mc(p, 64, seed=3, n_workers=4)
        assert started == []
        assert one_block == estimate_rates_mc(p, 64, seed=3, n_workers=1)
        two_blocks = estimate_rates_mc(p, BLOCK_SIZE + 64, seed=3, n_workers=4)
        assert started == [2]
        assert two_blocks == estimate_rates_mc(p, BLOCK_SIZE + 64, seed=3, n_workers=1)
        # Never more processes than CPUs, however many workers are asked for.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        estimate_rates_mc(p, 2 * BLOCK_SIZE + 64, seed=3, n_workers=100_000)
        assert started == [2, 2]
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: one process
        assert estimate_rates_mc(p, BLOCK_SIZE + 64, seed=3, n_workers=100_000) == two_blocks
        assert started == [2, 2]

    def test_doubling_samples_is_statistically_stable(self):
        p = ProtocolParams(tau=(0.95, 0.95, 0.95))
        small = estimate_rates_mc(p, 50_000, seed=4)[1]
        large = estimate_rates_mc(p, 100_000, seed=4)[1]
        combined = math.hypot(small.std_error, large.std_error)
        assert abs(small.value - large.value) <= 4.0 * combined

    def test_pointwise_bounds(self):
        rng = np.random.default_rng(52)
        p = ProtocolParams(tau=tuple(rng.uniform(0.4, 1.0, 3)))
        mags = np.abs(rng.normal(0, 1.0, size=(5_000, 3)))
        gamma = rng.normal(0, 2, 5_000)
        _, mi, _, _, chi, _ = _rate_terms(mags, gamma, p)
        rate = mi - chi
        assert np.all(rate <= mi + 1e-12)
        assert np.all(mi <= 1.0)
        assert np.all(rate >= -chi - 1e-12)
        assert np.all(chi <= 1.0 + 1e-9)

    def test_rejects_bad_arguments(self):
        p = ProtocolParams(tau=(1.0, 1.0, 1.0))
        for n_samples in (0, MAX_SAMPLES + 1):
            with pytest.raises(ValueError, match="n_samples"):
                estimate_rates_mc(p, n_samples)
        with pytest.raises(ValueError, match="seed"):
            estimate_rates_mc(p, 10, seed=-1)
        with pytest.raises(ValueError, match=r"seed must be below 2\*\*64"):
            estimate_rates_mc(p, 10, seed=2**64)
        with pytest.raises(ValueError, match=r"seed must be below 2\*\*64"):
            sweep_distance(p, [0.0], 10, seed=2**64)
        for n_workers in (0, -5):
            with pytest.raises(ValueError, match="n_workers must be at least 1"):
                estimate_rates_mc(p, 10, n_workers=n_workers)
            with pytest.raises(ValueError, match="n_workers must be at least 1"):
                sweep_distance(p, [0.0, 1.0], 10, n_workers=n_workers)
        # A float never stands in for an integer: seed 1.5 would key the stream of seed 1.
        for kwargs, name in (({"seed": 1.5}, "seed"), ({"seed": 1.0}, "seed"),
                             ({"n_workers": 2.0}, "n_workers")):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                estimate_rates_mc(p, 10, **kwargs)
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                sweep_distance(p, [0.0], 10, **kwargs)
        for n_samples in (1000.5, 1000.0, "1000"):
            with pytest.raises(ValueError, match="n_samples must be an integer"):
                estimate_rates_mc(p, n_samples)

    @pytest.mark.parametrize("kwargs,name", [
        ({"n_samples": 0}, "n_samples"),
        ({"n_samples": 10.5}, "n_samples"),
        ({"seed": 1.5}, "seed"),
        ({"n_workers": -3}, "n_workers"),
    ])
    def test_sweep_checks_arguments_without_distances(self, kwargs, name):
        """An empty grid runs no estimate, yet still rejects a bad argument."""
        p = ProtocolParams(tau=(1.0, 1.0, 1.0))
        with pytest.raises(ValueError, match=name):
            sweep_distance(p, [], **{"n_samples": 10, **kwargs})


def _mpmath_rate(mp, mags, gamma, params):
    """I - chi of one announcement at the working precision of ``mp``.

    Independent of the package: the outcome-mean weights come from their
    closed form, the mutual information from the four joint sign
    probabilities, and both entropies of the Holevo bound from the
    weighted Gram matrix of the pure conditional states.
    """
    bits = [((t >> 2) & 1, (t >> 1) & 1, t & 1) for t in range(8)]
    t1, t2 = mp.mpf(CASCADE_T1), mp.mpf(CASCADE_T2)
    tau = [mp.mpf(t) for t in params.tau]
    w = [mp.sqrt(t1 * t2 * tau[0]), mp.sqrt((1 - t1) * t2 * tau[1]),
         mp.sqrt((1 - t2) * tau[2])]
    m = [mp.mpf(float(v)) for v in mags]
    g = mp.mpf(float(gamma))
    loglik = [-(g - sum(w[x] * m[x] * (2 * b[x] - 1) for x in range(3))) ** 2 / 2
              for b in bits]
    top = max(loglik)
    unnorm = [mp.exp(v - top) for v in loglik]
    probs = [v / sum(unnorm) for v in unnorm]

    def entropy(values):
        return -sum((v * mp.log(v, 2) for v in values if v > 0), mp.mpf(0))

    def marginal(cond):
        return sum(probs[t] for t in range(8) if cond(bits[t]))

    mi = (entropy([marginal(lambda b: b[0] == 1), marginal(lambda b: b[0] == 0)])
          + entropy([marginal(lambda b: b[1] == 1), marginal(lambda b: b[1] == 0)])
          - entropy([marginal(lambda b, s=s, r=r: b[0] == s and b[1] == r)
                     for s in (0, 1) for r in (0, 1)]))

    scale = 1 if params.overlap_convention == "trace" else mp.mpf(1) / 2
    overlaps = [mp.exp(-(1 - tau[x]) * m[x] ** 2 * scale) for x in range(3)]

    def gram_entropy(weights, xs):
        k = len(xs)
        gram = mp.matrix(2 ** k, 2 ** k)
        for r in range(2 ** k):
            for c in range(2 ** k):
                v = mp.sqrt(weights[r] * weights[c])
                for x in range(k):
                    if (r >> (k - 1 - x)) & 1 != (c >> (k - 1 - x)) & 1:
                        v *= xs[x]
                gram[r, c] = v
        return entropy(mp.eigsy(gram, eigvals_only=True))

    chi = gram_entropy(probs, overlaps)
    for sign in (0, 1):
        rows = [t for t in range(8) if bits[t][0] == sign]
        weight = sum(probs[t] for t in rows)
        if weight > 0:
            chi -= weight * gram_entropy([probs[t] / weight for t in rows], overlaps[1:])
    return mi - chi


class TestCertifiedDecision:
    """The post-selection decision against a 60-digit oracle.

    Draws at 2, 4 and 6 km under the trace convention and at 3 and 5 km
    under the amplitude convention (magnitudes three times as wide as the
    modulation), including the sigma = 8 tail where a floating-point
    evaluation makes many exactly negative rates positive.  The oracle
    points are the largest computed rates, every kept draw up to a cap, the
    screened draws with the largest computed rates, and a random handful.
    """

    @pytest.mark.parametrize("distance, sigma, convention, kept_any", [
        pytest.param(2.0, 1.0, "trace", True, id="2.0-1.0"),
        pytest.param(4.0, 1.0, "trace", False, id="4.0-1.0"),
        pytest.param(6.0, 1.0, "trace", False, id="6.0-1.0"),
        pytest.param(6.0, 8.0, "trace", False, id="6.0-8.0"),
        pytest.param(3.0, 1.0, "amplitude", True, id="amplitude-3.0-1.0"),
        pytest.param(5.0, 1.0, "amplitude", True, id="amplitude-5.0-1.0"),
    ])
    def test_against_mpmath_oracle(self, distance, sigma, convention, kept_any):
        mp = pytest.importorskip("mpmath")
        params = ProtocolParams(tau=(1.0, 1.0, 1.0), sigma=(sigma,) * 3,
                                overlap_convention=convention).at_distance(distance)
        rng = np.random.default_rng(60)
        n = 20_000
        signs = rng.choice([-1.0, 1.0], size=(n, 3))
        mags = np.abs(rng.normal(0.0, 3.0 * sigma, size=(n, 3)))
        gamma = rng.normal((signs * mags) @ mean_coefficients(params), 1.0)
        rate, rate_ps = certified_rates(mags, gamma, params)
        err = _rate_terms(mags, gamma, params).err
        kept = rate_ps > 0.0
        screened = _screen(mags, gamma, params)
        mi, mi_err, chi_low, chi_low_err = _own_tap_terms(mags, gamma, params)
        proved_negative = _proves_negative(mi, mi_err, chi_low, chi_low_err)
        if kept_any:
            assert kept.any()
        else:
            assert not kept.any()
            assert (rate > 0.0).any()  # floating point alone would keep some
        assert screened.any() and not (screened & kept).any()
        closest = np.flatnonzero(screened)[np.argsort(-rate[screened])[:10]]
        picks = np.unique(np.concatenate([
            np.argsort(-rate)[:10], np.flatnonzero(kept)[:10], closest,
            rng.choice(n, 5, replace=False)]))
        with mp.workdps(60):
            exact_mp = [_mpmath_rate(mp, mags[k], gamma[k], params) for k in picks]
            # Signs from the 60-digit values: some screened rates lie below
            # the smallest float and would round to -0.0.
            negative = np.array([v < 0 for v in exact_mp])
            # The screen's ceiling on the exact rate, summed exactly:
            # I <= mi + mi_err and chi(A) >= chi(A; E_A) >= chi_low - chi_low_err.
            below_ceiling = np.array([
                v <= (mp.mpf(float(mi[k])) + mp.mpf(float(mi_err[k]))
                      - mp.mpf(float(chi_low[k])) + mp.mpf(float(chi_low_err[k])))
                for v, k in zip(exact_mp, picks)])
        exact = np.array([float(v) for v in exact_mp])
        assert np.all(np.abs(rate[picks] - exact) <= err[picks])
        assert np.all(exact[kept[picks]] > 0.0)
        assert np.all(negative[(screened & proved_negative)[picks]])
        undecided = (screened & ~proved_negative)[picks]
        assert np.all(rate_ps[picks][undecided] == 0.0)
        assert np.all(below_ceiling[undecided])

    def test_certified_rates_keep_only_beyond_bound(self):
        p = ProtocolParams(tau=(0.9, 0.9, 0.9))
        rng = np.random.default_rng(61)
        mags = np.abs(rng.normal(0.0, 2.0, size=(2_000, 3)))
        gamma = rng.normal(0.0, 2.0, 2_000)
        rate, rate_ps = certified_rates(mags, gamma, p)
        _, mi, _, _, chi, err = _rate_terms(mags, gamma, p)
        assert np.array_equal(rate, mi - chi)
        assert np.array_equal(rate_ps, np.where(rate > err, rate, 0.0))
        assert np.all(err > 0.0)

    @pytest.mark.parametrize("distance", [1.0, 2.0])
    def test_tiles_equal_the_whole_batch(self, distance):
        """Tiling changes no row: a ragged batch of mixture draws gets the
        values of one whole-batch evaluation, bit for bit."""
        params = ProtocolParams(tau=(1.0, 1.0, 1.0)).at_distance(distance)
        mags, gamma = _mixture_draws(params, 2 * _TILE + 37, seed=63)
        rate, rate_ps = certified_rates(mags, gamma, params)
        _, mi, *_, chi, err = _rate_terms(mags, gamma, params)
        whole = mi - chi
        assert np.array_equal(rate, whole)
        assert np.array_equal(rate_ps, np.where(whole > err, whole, 0.0))

    def test_peak_memory_is_bounded_by_a_tile(self):
        """One 2 km sample block traces ~6 MB in tiles, ~76 MB as one batch."""
        params = ProtocolParams(tau=(1.0, 1.0, 1.0)).at_distance(2.0)
        mags, gamma = _mixture_draws(params, BLOCK_SIZE, seed=64)
        tracemalloc.start()
        try:
            certified_rates(mags, gamma, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_no_dust_beyond_the_positivity_boundary(self):
        """Floating-point noise once gave 2.78e-14 +- 1.6e-15 here; every
        announcement at 6 km has an exactly negative rate."""
        params = ProtocolParams(tau=(1.0, 1.0, 1.0), sigma=(8.0, 8.0, 8.0),
                                overlap_convention="trace").at_distance(6.0)
        _, post = estimate_rates_mc(params, 1 << 18, seed=0)
        assert post.value == 0.0
        assert post.std_error == 0.0


class TestRowLocality:
    """A row whose overlap deficits are all exactly 0 gets chi = 0 with a zero
    bound, and every other row its own spectra, whatever rows share its batch."""

    @staticmethod
    def draws(n, seed):
        """Announcements at tau = (1, 1, 0.5), every third one with mag_C = 0
        and so no deficit; the first two once moved with their batch."""
        rng = np.random.default_rng(seed)
        mags = np.abs(rng.normal(0.0, 1.0, size=(n, 3)))
        mags[::3, 2] = 0.0
        mags[:2] = [[1.366e-3, 1.366e-3, 0.0], [1.159e-2, 1.159e-2, 0.0]]
        gamma = rng.normal(0.0, 2.0, n)
        gamma[:2] = [0.3, 0.5]
        return mags, gamma

    @pytest.mark.parametrize("convention", ["trace", "amplitude"])
    def test_rows_equal_the_row_alone(self, convention):
        params = ProtocolParams(tau=(1.0, 1.0, 0.5), overlap_convention=convention)
        mags, gamma = self.draws(300, seed=72)
        tables, rel_err, _, _ = _information_terms(mags, gamma, params)
        deficits = overlap_deficits_batch(mags, params)
        zero = ~deficits.any(axis=1)
        assert np.array_equal(zero, mags[:, 2] == 0.0) and zero.sum() == 101
        chi, err = cvconf.rates._holevo_with_bound(tables, deficits, rel_err)
        assert not chi[zero].any() and not err[zero].any()
        rate, rate_ps = certified_rates(mags, gamma, params)
        assert rate_ps[0] > 0.0  # 2.8e-13, once dropped beside a lossy row
        for k in range(len(gamma)):
            one = slice(k, k + 1)
            alone = cvconf.rates._holevo_with_bound(tables[one], deficits[one], rel_err[one])
            assert (chi[k], err[k]) == (alone[0][0], alone[1][0])
            assert (rate[k], rate_ps[k]) == tuple(
                v[0] for v in certified_rates(mags[one], gamma[one], params))

    @pytest.mark.parametrize("convention", ["trace", "amplitude"])
    def test_tile_with_a_single_live_row(self, convention, monkeypatch):
        """The spectra see only the tile's one lossy row, and each row gets its
        value alone."""
        params = ProtocolParams(tau=(1.0, 1.0, 0.5), overlap_convention=convention)
        mags, gamma = self.draws(_TILE, seed=73)
        mags[:, 2] = 0.0
        mags[1000, 2] = 0.8
        assembled = []
        original = cvconf.holevo._assemble_batch

        def counting(weights, *args):
            assembled.append(weights.shape)
            return original(weights, *args)

        monkeypatch.setattr(cvconf.holevo, "_assemble_batch", counting)
        rate, rate_ps = certified_rates(mags, gamma, params)
        assert assembled == [(1, 8), (1, 2, 4)]
        for k in (0, 1, 999, 1000, 1001):
            one = slice(k, k + 1)
            assert (rate[k], rate_ps[k]) == tuple(
                v[0] for v in certified_rates(mags[one], gamma[one], params))
        assert rate[1000] != rate[999]


class TestScreen:
    """The node loop skips the spectra of rows that chi(A; E_A) proves the
    certified rule cannot keep, and returns the post-selected part of
    certified_rates bit for bit."""

    @pytest.fixture
    def chi_rows(self, monkeypatch):
        """Rows per call of the spectra core made from the rates module."""
        rows = []
        original = cvconf.rates._holevo_with_bound

        def counting(tables, *args):
            rows.append(len(tables))
            return original(tables, *args)

        monkeypatch.setattr(cvconf.rates, "_holevo_with_bound", counting)
        return rows

    @pytest.mark.parametrize("distance", [1.0, 2.0, 3.0, 4.0])
    @pytest.mark.parametrize("convention", ["trace", "amplitude"])
    def test_own_tap_never_exceeds_full_chi(self, distance, convention):
        """chi(A; E_A) <= chi(A) on mixture draws, to within the two bounds."""
        params = ProtocolParams(tau=(1.0, 1.0, 1.0), overlap_convention=convention
                                ).at_distance(distance)
        mags, gamma = _mixture_draws(params, _TILE, seed=66)
        *_, chi, err = _rate_terms(mags, gamma, params)
        tables, rel_err, _, _ = _information_terms(mags, gamma, params)
        chi_low, chi_low_err = _own_tap_holevo_with_bound(
            tables, overlap_deficits_batch(mags, params), rel_err)
        assert np.all(chi_low <= chi + chi_low_err + err)
        assert np.median(chi_low / chi) > 0.5  # close enough to screen most draws

    @pytest.mark.parametrize("convention, distance", [
        ("trace", 1.0), ("trace", 2.0), ("amplitude", 3.0)])
    def test_equals_certified_rates(self, convention, distance, chi_rows):
        params = ProtocolParams(tau=(1.0, 1.0, 1.0), overlap_convention=convention
                                ).at_distance(distance)
        mags, gamma = _mixture_draws(params, 2 * _TILE + 37, seed=65)
        rate_ps = _post_selected(mags, gamma, params)
        live = sum(chi_rows)
        assert 0 < live < len(gamma) // 10  # over 90% screened
        assert live == np.count_nonzero(~_screen(mags, gamma, params))
        assert np.array_equal(rate_ps, certified_rates(mags, gamma, params)[1])
        assert (rate_ps > 0.0).any()

    def test_grid_equals_certified_rates(self, monkeypatch):
        """Every chunk of an 8-node grid at 2 km, over 90% of it screened."""
        params = ProtocolParams(tau=(1.0, 1.0, 1.0)).at_distance(2.0)
        shares = []
        node_rates = cvconf.rates._node_rates

        def checking(mags, gamma, params, stride):
            assert stride is None
            rate, rate_ps = node_rates(mags, gamma, params, stride)
            # The certified rule on every row, as certified_rates runs it.
            assert np.array_equal(rate_ps, node_rates(mags, gamma, params, stride=1)[1])
            shares.append(_screen(mags, gamma, params).mean())
            return rate, rate_ps

        monkeypatch.setattr(cvconf.rates, "_node_rates", checking)
        quad = quadrature_cross_check(params, nodes_per_axis=8)
        assert quad.value > 0.0
        assert shares and np.mean(shares) > 0.9

    def test_tile_with_every_row_screened(self, chi_rows):
        params = ProtocolParams(tau=(1.0, 1.0, 1.0)).at_distance(2.0)
        mags, gamma = _mixture_draws(params, 2 * _TILE, seed=67)
        screened = np.flatnonzero(_screen(mags, gamma, params))[:_TILE]
        assert len(screened) == _TILE
        mags, gamma = mags[screened], gamma[screened]
        rate_ps = _post_selected(mags, gamma, params)
        assert chi_rows == [0]
        assert np.array_equal(rate_ps, certified_rates(mags, gamma, params)[1])

    def test_zero_km_tile_screens_only_rows_within_their_bound(self, chi_rows):
        """At unit transmissivity chi(A; E_A) is 0, so only rows whose I lies
        within its own bound can be screened."""
        params = ProtocolParams(tau=(1.0, 1.0, 1.0))
        mags, gamma = _mixture_draws(params, _TILE, seed=68)
        rate_ps = _post_selected(mags, gamma, params)
        screened = _screen(mags, gamma, params)
        _, _, mi, mi_err = _information_terms(mags, gamma, params)
        assert chi_rows == [np.count_nonzero(~screened)]
        assert np.all(mi[screened] <= mi_err[screened])
        assert np.array_equal(rate_ps, certified_rates(mags, gamma, params)[1])
        assert (rate_ps > 0.0).any()

    @pytest.mark.parametrize("convention", ["trace", "amplitude"])
    def test_tiles_with_one_live_row(self, convention, chi_rows):
        """A row's chi is that of the tile it sits in, even where it is the
        tile's only unscreened row and so reaches the spectra alone."""
        params = ProtocolParams(tau=(1.0, 1.0, 1.0), overlap_convention=convention
                                ).at_distance(2.0)
        mags, gamma = _mixture_draws(params, 2 * _TILE, seed=69)
        screened = _screen(mags, gamma, params)
        filler = np.flatnonzero(screened)[:_TILE - 1]
        _, want = certified_rates(mags, gamma, params)
        live = np.flatnonzero(~screened)
        picks = np.concatenate([np.flatnonzero(want > 0.0)[:4], live[want[live] == 0.0][:4]])
        assert len(picks) == 8
        for k, row in enumerate(picks):
            tile = np.insert(filler, 500 * k, row)
            chi_rows.clear()
            rate_ps = _post_selected(mags[tile], gamma[tile], params)
            assert chi_rows == [1]
            assert np.array_equal(rate_ps, want[tile])

    def test_sampler_block_equals_certified_rates(self, monkeypatch):
        """Draws of one sampler block (Philox key (11, 3), amplitude, 3 km)
        in which one tile once had a single unscreened row whose chi moved:
        the block's post-selected column is the certified rule's."""
        params = ProtocolParams(tau=(1.0, 1.0, 1.0), overlap_convention="amplitude"
                                ).at_distance(3.0)
        draws = []
        node_rates = cvconf.rates._node_rates

        def recording(mags, gamma, params, stride):
            rate, rate_ps = node_rates(mags, gamma, params, stride)
            draws.append((mags, gamma, rate_ps))
            return rate, rate_ps

        monkeypatch.setattr(cvconf.rates, "_node_rates", recording)
        _mc_block((11, 3, 2 * _TILE + 37, params))
        (mags, gamma, rate_ps), = draws
        assert np.array_equal(rate_ps, certified_rates(mags, gamma, params)[1])
        assert (rate_ps > 0.0).any()

    def test_grid_spectra_for_few_rows(self, chi_rows):
        """At most 5% of the 16-node grid at 2 km reaches the spectra."""
        params = ProtocolParams(tau=(1.0, 1.0, 1.0)).at_distance(2.0)
        quad = quadrature_cross_check(params, nodes_per_axis=16)
        assert 0 < sum(chi_rows) <= 0.05 * quad.n_samples / 2

    @pytest.mark.parametrize("convention, distance", [
        ("trace", 1.0), ("trace", 2.0), ("amplitude", 3.0)])
    def test_closest_kept_grid_rows_are_not_screened(self, convention, distance):
        """The 20 kept rows of the 24-node grid with the smallest margin
        rate - err.  Rows that chi(A; E_A) proves negative are left out of
        the search; the certified rule cannot keep them."""
        params = ProtocolParams(tau=(1.0, 1.0, 1.0), overlap_convention=convention
                                ).at_distance(distance)
        mags, gamma = _grid_points(params, 24)
        open_rows = np.flatnonzero(~_proves_negative(*_own_tap_terms(mags, gamma, params)))
        mags, gamma = mags[open_rows], gamma[open_rows]
        rate, rate_ps = certified_rates(mags, gamma, params)
        kept = np.flatnonzero(rate_ps > 0.0)
        err = _rate_terms(mags[kept], gamma[kept], params).err
        closest = kept[np.argsort(rate[kept] - err)[:20]]
        assert len(closest) == 20
        assert not _screen(mags[closest], gamma[closest], params).any()
        assert np.array_equal(_post_selected(mags[closest], gamma[closest], params),
                              rate_ps[closest])


def _block_draws(params, count, monkeypatch, seed=11, block=3):
    """The rows, outcomes and likelihood-ratio weights of one sampler block
    (Philox key (seed, block)), with the block's own estimate's sums."""
    record = {}
    node_rates = cvconf.rates._node_rates
    weighted_sums = cvconf.rates._weighted_sums

    def recording_rates(mags, gamma, params, stride):
        record.update(mags=mags, gamma=gamma, stride=stride)
        return node_rates(mags, gamma, params, stride)

    def recording_sums(columns, weigh):
        record["weight"] = weigh(np.arange(len(record["gamma"])))
        return weighted_sums(columns, weigh)

    with monkeypatch.context() as patch:
        patch.setattr(cvconf.rates, "_node_rates", recording_rates)
        patch.setattr(cvconf.rates, "_weighted_sums", recording_sums)
        sums = _mc_block((seed, block, count, params))
    return record, sums


class TestRawColumn:
    """The Monte-Carlo raw column: I - chi on the unscreened rows, I -
    chi(A; E_A) on the screened ones, and a correction _SUBSAMPLE * (chi(A;
    E_A) - chi) on the screened rows whose index is 0 mod _SUBSAMPLE."""

    @pytest.mark.parametrize("convention, distance", [
        ("trace", 1.0), ("trace", 2.0), ("amplitude", 3.0)])
    def test_terms_of_each_row_class(self, convention, distance, monkeypatch):
        params = ProtocolParams(tau=(1.0, 1.0, 1.0), overlap_convention=convention
                                ).at_distance(distance)
        record, _ = _block_draws(params, 2 * _TILE + 37, monkeypatch)
        mags, gamma = record["mags"], record["gamma"]
        assert record["stride"] == _SUBSAMPLE == 16
        rate, rate_ps = _node_rates(mags, gamma, params, _SUBSAMPLE)
        full, full_ps = certified_rates(mags, gamma, params)
        terms = _rate_terms(mags, gamma, params, slice(0))
        screened = terms.screened
        sampled = screened & (np.arange(len(gamma)) % _SUBSAMPLE == 0)
        rest = screened & ~sampled
        assert 0.9 < screened.mean() < 1.0 and sampled.sum() > 400
        assert np.array_equal(rate[~screened], full[~screened])
        assert np.array_equal(rate[rest], (terms.mi - terms.chi_low)[rest])
        correction = (_SUBSAMPLE - 1) * (terms.chi_low - _rate_terms(mags, gamma, params).chi)
        assert np.array_equal(rate[sampled], (full + correction)[sampled])
        assert np.array_equal(rate_ps, full_ps)

    @pytest.mark.parametrize("convention, distance", [("trace", 2.0), ("amplitude", 4.0)])
    def test_mean_over_offsets_is_the_full_sum(self, convention, distance):
        """Each screened row lands in the subsample at exactly one of the
        _SUBSAMPLE cyclic shifts of a batch, so the raw column's sum averaged
        over the shifts is the full-chi sum: the estimator's unbiasedness,
        checked on fixed rows."""
        params = ProtocolParams(tau=(1.0, 1.0, 1.0), overlap_convention=convention
                                ).at_distance(distance)
        mags, gamma = _mixture_draws(params, 2 * _TILE, seed=70)
        full = certified_rates(mags, gamma, params)[0]
        sums = [_node_rates(np.roll(mags, shift, axis=0), np.roll(gamma, shift), params,
                            _SUBSAMPLE)[0].sum() for shift in range(_SUBSAMPLE)]
        assert np.mean(sums) == pytest.approx(full.sum(), rel=1e-12, abs=0.0)
        assert np.ptp(sums) > 1e-6 * np.abs(full).sum()  # the shifts differ

    @pytest.mark.parametrize("convention, distance", [
        ("trace", 1.0), ("trace", 2.0), ("amplitude", 3.0)])
    def test_mean_within_three_se_of_full_chi(self, convention, distance, monkeypatch):
        """One block's raw estimate against the weighted full-chi mean of the
        same draws."""
        params = ProtocolParams(tau=(1.0, 1.0, 1.0), overlap_convention=convention
                                ).at_distance(distance)
        record, sums = _block_draws(params, BLOCK_SIZE, monkeypatch, seed=23, block=0)
        raw = cvconf.rates._estimate_from_sums(sums[0], sums[1], BLOCK_SIZE)
        assert raw == estimate_rates_mc(params, BLOCK_SIZE, seed=23)[0]
        full = certified_rates(record["mags"], record["gamma"], params)[0]
        full_mean = float((record["weight"] * full).sum()) / BLOCK_SIZE
        assert raw.std_error > 0.0
        assert abs(raw.value - full_mean) <= 3.0 * raw.std_error

    def test_lossless_raw_column_is_the_information(self):
        """At unit transmissivity chi and chi(A; E_A) are exactly 0, so every
        row's raw term is its I, screened, subsampled or not."""
        params = ProtocolParams(tau=(1.0, 1.0, 1.0))
        mags, gamma = _mixture_draws(params, _TILE, seed=71)
        rate, _ = _node_rates(mags, gamma, params, _SUBSAMPLE)
        terms = _rate_terms(mags, gamma, params, slice(0))
        assert terms.screened[::_SUBSAMPLE].any() and terms.screened.any()
        assert not terms.chi_low.any()
        assert np.array_equal(rate, terms.mi)


class TestOutcomeMirror:
    """The rate is even in the outcome, which the quadrature relies on."""

    @pytest.mark.parametrize("distance", [1.0, 2.0, 4.0])
    @pytest.mark.parametrize("convention", ["trace", "amplitude"])
    def test_certified_rates_agree_at_mirrored_outcomes(self, distance, convention):
        params = ProtocolParams(tau=(1.0, 1.0, 1.0), overlap_convention=convention
                                ).at_distance(distance)
        rng = np.random.default_rng(62)
        n = 4_000
        signs = rng.choice([-1.0, 1.0], size=(n, 3))
        mags = np.abs(rng.normal(0.0, 3.0, size=(n, 3)))
        gamma = rng.normal((signs * mags) @ mean_coefficients(params), 1.0)
        rate, rate_ps = certified_rates(mags, gamma, params)
        mirror, mirror_ps = certified_rates(mags, -gamma, params)
        err = _rate_terms(mags, gamma, params).err
        mirror_err = _rate_terms(mags, -gamma, params).err
        assert np.all(np.abs(rate - mirror) <= err + mirror_err)
        decisive = np.abs(rate) > 2.0 * np.maximum(err, mirror_err)
        assert np.array_equal((rate_ps > 0.0)[decisive], (mirror_ps > 0.0)[decisive])
        if distance == 1.0:
            assert (rate_ps[decisive] > 0.0).any()


class TestQuadratureCrossCheck:
    @pytest.mark.parametrize("distance, want", [
        (0.0, 0.019820915753750678), (2.0, 1.3443164922862247e-10), (4.0, 0.0)])
    def test_matches_full_outcome_rule(self, distance, want):
        """Values of the full symmetric outcome rule (16 nodes, trace) that
        the mirrored half rule reproduces, and the half rule's own bits,
        which any change to the grid or its chunking must keep."""
        p = ProtocolParams(tau=(1.0, 1.0, 1.0)).at_distance(distance)
        quad = quadrature_cross_check(p, nodes_per_axis=16)
        assert quad.n_samples == 393_216
        if want == 0.0:
            assert quad.value == 0.0
        else:
            assert quad.value == pytest.approx(want, rel=1e-12, abs=0.0)
        assert quad.value == {0.0: 0.019820915753750706, 2.0: 1.3443164922861686e-10,
                              4.0: 0.0}[distance]

    def test_evaluates_half_the_rule(self, monkeypatch):
        rows = []
        node_rates = cvconf.rates._node_rates

        def counting(mags, gamma, params, stride):
            rows.append(gamma.copy())
            return node_rates(mags, gamma, params, stride)

        monkeypatch.setattr(cvconf.rates, "_node_rates", counting)
        quad = quadrature_cross_check(ProtocolParams(tau=(1.0, 1.0, 1.0)), nodes_per_axis=8)
        gamma = np.concatenate(rows)
        assert 2 * gamma.size == quad.n_samples
        assert np.all(gamma > 0.0)

    def test_lossless_agrees_with_monte_carlo(self):
        """At unit transmissivity the integrand is the mutual information
        alone, so the deterministic integral must sit on the MC estimate."""
        p = ProtocolParams(tau=(1.0, 1.0, 1.0))
        quad = quadrature_cross_check(p, nodes_per_axis=24)
        raw, post = estimate_rates_mc(p, 200_000, seed=5)
        assert quad.std_error == 0.0
        assert quad.method == "quadrature"
        assert abs(quad.value - post.value) <= 4.0 * post.std_error
        assert abs(quad.value - raw.value) <= 4.0 * raw.std_error

    def test_node_count_convergence(self):
        p = ProtocolParams(tau=(1.0, 1.0, 1.0))
        coarse = quadrature_cross_check(p, nodes_per_axis=16)
        fine = quadrature_cross_check(p, nodes_per_axis=32)
        assert coarse.value == pytest.approx(fine.value, rel=1e-3)

    def test_rejects_too_few_nodes(self):
        """A count below 8, or one that is not an integer, is named."""
        p = ProtocolParams(tau=(1.0, 1.0, 1.0))
        for bad in (4, 16.5, "16", None):
            with pytest.raises(ValueError, match="nodes_per_axis"):
                quadrature_cross_check(p, nodes_per_axis=bad)

    @pytest.mark.parametrize("sigma", [1e-8, 1e-30])
    def test_rejects_a_grid_past_the_cap(self, sigma):
        """A small sigma's outcome axis once asked numpy for ~6 GiB (1e-8)
        or for an array past its size limit (1e-30), named nothing, before
        the grid was counted."""
        p = ProtocolParams(tau=(0.9, 0.9, 0.9), sigma=(sigma,) * 3)
        with pytest.raises(ValueError, match="sigma.*nodes_per_axis.*cap"):
            quadrature_cross_check(p, nodes_per_axis=8)

    @pytest.mark.parametrize("sigma", [1e308, 1e-310])
    @pytest.mark.filterwarnings("error")
    def test_names_sigma_at_the_float_limit(self, sigma, monkeypatch):
        """sigma = 1e308 overflowed the magnitude box and raised "cannot
        convert float NaN to integer"; the subnormal 1e-310 warned of an
        overflow before its cap error.  Both are named, without a warning,
        before any axis is built."""
        def no_axis(*args):
            raise AssertionError("an axis was built")

        monkeypatch.setattr(cvconf.rates, "_composite_gauss_legendre", no_axis)
        p = ProtocolParams(tau=(0.9, 0.9, 0.9), sigma=(sigma,) * 3)
        with pytest.raises(ValueError, match="sigma"):
            quadrature_cross_check(p, nodes_per_axis=8)

    def test_cap_counts_the_evaluated_points(self, monkeypatch):
        """The cap is on the points the rule evaluates: a grid of exactly the
        cap runs, and one point fewer refuses it."""
        p = ProtocolParams(tau=(1.0, 1.0, 1.0))
        want = quadrature_cross_check(p, nodes_per_axis=8)
        monkeypatch.setattr(cvconf.rates, "_MAX_QUAD_POINTS", want.n_samples // 2)
        assert quadrature_cross_check(p, nodes_per_axis=8) == want
        monkeypatch.setattr(cvconf.rates, "_MAX_QUAD_POINTS", want.n_samples // 2 - 1)
        with pytest.raises(ValueError, match="nodes_per_axis"):
            quadrature_cross_check(p, nodes_per_axis=8)


class TestSweepDistance:
    def test_tau_mapping_and_determinism(self):
        template = ProtocolParams(tau=(1.0, 1.0, 1.0))
        distances = [0.0, 1.0, 2.0]
        a = sweep_distance(template, distances, 20_000, seed=6)
        b = sweep_distance(template, distances, 20_000, seed=6)
        for pa, pb in zip(a, b):
            assert pa == pb
        for point in a:
            want = transmissivity_from_distance(point.distance_km, 0.02)
            assert abs(point.tau - want) <= 1e-15

    def test_one_pool_per_sweep(self, monkeypatch, recording_pool):
        """One pool serves the whole grid, one distance's blocks at a time,
        and every point is the serial estimate at its distance."""
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        template = ProtocolParams(tau=(1.0, 1.0, 1.0))
        n = BLOCK_SIZE + 64
        points = sweep_distance(template, [float(d) for d in range(8)], n, seed=3, n_workers=4)
        assert recording_pool.started == [2]
        assert len(recording_pool.mapped) == 8
        for tasks in recording_pool.mapped:
            assert [t[1] for t in tasks] == [0, 1]
            assert all(t[3] == tasks[0][3] for t in tasks)
        for point in points:
            params = template.at_distance(point.distance_km)
            raw, post = estimate_rates_mc(params, n, seed=3, n_workers=1)
            assert point == SweepPoint(point.distance_km, params.tau[0], post, raw)

    def test_zero_distance_has_largest_rate(self):
        template = ProtocolParams(tau=(1.0, 1.0, 1.0))
        points = sweep_distance(template, [0.0, 1.0, 2.0, 3.0], 50_000, seed=7)
        best = max(points, key=lambda s: s.estimate.value)
        assert best.distance_km == 0.0

    def test_non_increasing_within_noise(self):
        template = ProtocolParams(tau=(1.0, 1.0, 1.0))
        points = sweep_distance(template, [0.0, 1.0, 2.0, 3.0], 50_000, seed=8)
        for near, far in zip(points, points[1:]):
            slack = 2.0 * math.hypot(near.estimate.std_error, far.estimate.std_error)
            assert far.estimate.value <= near.estimate.value + slack


def test_weights_shrink_with_distance():
    """The outcome-mean coefficients decay like sqrt(tau)."""
    template = ProtocolParams(tau=(1.0, 1.0, 1.0))
    w0 = mean_coefficients(template.at_distance(0.0))
    w5 = mean_coefficients(template.at_distance(5.0))
    tau5 = transmissivity_from_distance(5.0, template.attenuation_exponent)
    assert np.allclose(w5, w0 * math.sqrt(tau5), atol=1e-14)


@pytest.mark.parametrize("estimate", [
    lambda params: estimate_rates_mc(params, 100),
    lambda params: quadrature_cross_check(params, 8),
], ids=["mc", "quadrature"])
@pytest.mark.filterwarnings("error")
def test_overflowing_sigma_is_named(estimate):
    """A sigma whose announcements square past the float range is named
    before any spectrum, not left to the eigensolver's LinAlgError, and
    before any warning of an overflow on the way."""
    params = ProtocolParams(tau=(1.0, 1.0, 1.0), sigma=(1e160, 1.0, 1.0))
    with pytest.raises(ValueError, match="sigma is too large"):
        estimate(params)
