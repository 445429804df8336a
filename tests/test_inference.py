"""Tests for sign posteriors, entropies and the single-point mutual information."""

import math

import numpy as np
import pytest

import cvconf.inference
from cvconf.holevo import _A_ROWS, _condition
from cvconf.inference import (
    _JOINT_ROWS,
    _MARGINAL_ROWS,
    PosteriorTable,
    _mi_with_bound,
    _pairwise,
    _row_sum,
    posterior_table_batch,
    sign_posterior_table,
    single_point_mi,
)
from cvconf.protocol import SIGN_PATTERNS, ProtocolParams, _outcome_exponents, \
    mean_coefficients, outcome_density


def random_params(rng, **overrides):
    kwargs = dict(
        tau=tuple(rng.uniform(0.05, 1.0, 3)),
        sigma=tuple(rng.uniform(0.2, 3.0, 3)),
    )
    kwargs.update(overrides)
    return ProtocolParams(**kwargs)


def random_announcement(rng, params):
    mags = np.abs(rng.normal(0.0, params.sigma))
    signs = rng.choice([-1.0, 1.0], 3)
    mean = float(mean_coefficients(params) @ (signs * mags))
    gamma = float(rng.normal(mean, 1.0))
    return mags, gamma


class TestPosteriorTable:
    def test_validates_shape_and_normalisation(self):
        with pytest.raises(ValueError, match="eight"):
            PosteriorTable(np.ones(4) / 4)
        with pytest.raises(ValueError, match="sum"):
            PosteriorTable(np.ones(8))
        with pytest.raises(ValueError, match="non-negative"):
            PosteriorTable(np.array([1.5, -0.5, 0, 0, 0, 0, 0, 0]))
        for bad in (math.nan, math.inf, -math.inf):
            probs = np.full(8, 0.125)
            probs[3] = bad
            with pytest.raises(ValueError, match="finite"):
                PosteriorTable(probs)
            with pytest.raises(ValueError, match="finite"):
                PosteriorTable(np.full(8, bad))

    def test_zero_magnitudes_give_uniform_table(self):
        p = ProtocolParams(tau=(0.9, 0.8, 0.7))
        table = sign_posterior_table((0, 0, 0), 1.3, p)
        assert np.allclose(table.probs, 0.125, atol=1e-15)

    def test_zero_outcome_is_flip_symmetric(self):
        rng = np.random.default_rng(21)
        p = random_params(rng)
        mags = np.abs(rng.normal(0, 1.5, 3))
        table = sign_posterior_table(mags, 0.0, p)
        # Triple t and its global negation sit at mirrored indices.
        assert np.allclose(table.probs, table.probs[::-1], atol=1e-12)

    def test_aligned_outcome_peaks_on_all_plus(self):
        """With gamma at the all-plus mean, (+,+,+) is the strict maximum."""
        p = ProtocolParams(tau=(1.0, 1.0, 1.0), sigma=(1.0, 1.0, 1.0))
        table = sign_posterior_table((1, 1, 1), math.sqrt(3.0), p)
        assert np.argmax(table.probs) == 7
        assert table.probs[7] > np.max(table.probs[:7])

    def test_extreme_announcements_never_nan(self):
        p = ProtocolParams(tau=(0.9, 0.9, 0.9))
        for gamma in (1e6, -1e6, 0.0):
            table = sign_posterior_table((50.0, 80.0, 120.0), gamma, p)
            assert np.all(np.isfinite(table.probs))
            assert table.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_matches_direct_bayes_enumeration(self):
        """Unnormalised Gaussian likelihoods, normalised by brute force."""
        rng = np.random.default_rng(22)
        for _ in range(50):
            p = random_params(rng)
            mags, gamma = random_announcement(rng, p)
            w = mean_coefficients(p)
            lik = np.array([
                math.exp(-0.5 * (gamma - float(w @ (s * mags))) ** 2)
                for s in SIGN_PATTERNS
            ])
            want = lik / lik.sum()
            got = sign_posterior_table(mags, gamma, p)
            assert np.allclose(got.probs, want, atol=1e-12)

    def test_rows_are_the_normalised_outcome_density(self):
        """The posterior both estimators use and the density the phase-space
        pipeline checks are one likelihood, in ``SIGN_PATTERNS`` order."""
        rng = np.random.default_rng(30)
        for _ in range(200):
            p = random_params(rng)
            mags, gamma = random_announcement(rng, p)
            density = np.array([outcome_density(s, mags, gamma, p) for s in SIGN_PATTERNS])
            row = posterior_table_batch(mags[None, :], np.array([gamma]), p)[0]
            np.testing.assert_allclose(row, density / density.sum(), rtol=1e-14, atol=0.0)


def conditioned(probs):
    """A's sign marginals (+1, -1) and the conditional weights from the core."""
    marginal, cond = _condition(np.asarray(probs, dtype=float)[None, :])
    return marginal[0], cond[0]


def other_index(signs):
    """Row of a conditional table: B's and C's bits."""
    return 2 * int(signs[1] > 0) + int(signs[2] > 0)


class TestMarginalsAndConditionals:
    """A's sign marginals and conditionals in the Holevo core (``_condition``)."""

    def test_uniform_marginal_is_half(self):
        marginal, _ = conditioned(np.full(8, 0.125))
        assert marginal == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_concentrated_table(self):
        probs = np.zeros(8)
        probs[7] = 1.0  # (+,+,+)
        marginal, cond = conditioned(probs)
        assert marginal[0] == 1.0 and marginal[1] == 0.0
        assert list(cond[0]) == [0.0, 0.0, 0.0, 1.0]
        assert list(cond[1]) == [0.25] * 4  # zero marginal: uniform fallback

    def test_marginal_matches_brute_force(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            probs = rng.dirichlet(np.ones(8))
            marginal, _ = conditioned(probs)
            for k, sign in enumerate((1, -1)):
                want = sum(pr for pr, s in zip(probs, SIGN_PATTERNS) if s[0] == sign)
                assert marginal[k] == pytest.approx(want, abs=1e-12)

    def test_uniform_conditional_is_half(self):
        _, cond = conditioned(np.full(8, 0.125))
        assert cond == pytest.approx(np.full((2, 4), 0.25), abs=1e-15)
        # B is +1 in two of the four rows.
        assert cond[0, 2] + cond[0, 3] == pytest.approx(0.5, abs=1e-15)

    def test_perfectly_correlated_conditional(self):
        probs = np.zeros(8)
        probs[7] = 0.5  # (+,+,+)
        probs[0] = 0.5  # (-,-,-)
        _, cond = conditioned(probs)
        # Rows over (B, C): given A = +1, B is +1 (rows 2, 3) with certainty.
        assert cond[0, 2] + cond[0, 3] == 1.0
        assert cond[1, 2] + cond[1, 3] == 0.0

    def test_conditional_matches_brute_force(self):
        rng = np.random.default_rng(24)
        for _ in range(30):
            probs = rng.dirichlet(np.ones(8))
            _, cond = conditioned(probs)
            for k, sign in enumerate((1, -1)):
                den = sum(pr for pr, s in zip(probs, SIGN_PATTERNS) if s[0] == sign)
                want = np.zeros(4)
                for pr, s in zip(probs, SIGN_PATTERNS):
                    if s[0] == sign:
                        want[other_index(s)] += pr / den
                assert cond[k] == pytest.approx(want, abs=1e-12)

    def test_zero_marginal_returns_half(self):
        """A zero conditioning marginal falls back to the uniform conditional."""
        probs = np.zeros(8)
        probs[:4] = 0.25  # A is always -1
        marginal, cond = conditioned(probs)
        assert marginal[0] == 0.0
        assert list(cond[0]) == [0.25] * 4
        assert cond[0, 2] + cond[0, 3] == 0.5  # B = +1 given A = +1


def correlated_mi(p):
    """I(A:B) from the core for A = B, positive with probability p: the binary entropy h(p)."""
    probs = np.zeros(8)
    probs[7] = p        # (+,+,+)
    probs[0] = 1.0 - p  # (-,-,-)
    return float(_mi_with_bound(probs[None, :], 0.0)[0][0])


class TestBinaryEntropy:
    """Perfectly correlated signs share exactly the binary entropy of either."""

    def test_half_is_one_bit(self):
        assert correlated_mi(0.5) == 1.0

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_degenerate_is_zero(self, p):
        assert correlated_mi(p) == 0.0

    def test_direct_evaluation(self):
        assert correlated_mi(0.11) == pytest.approx(0.499915958164528, abs=1e-12)

    def test_symmetry(self):
        for p in (0.03, 0.2, 0.41):
            assert correlated_mi(p) == pytest.approx(correlated_mi(1 - p), abs=1e-14)


class TestSinglePointMi:
    def test_zero_magnitudes_give_zero(self):
        p = ProtocolParams(tau=(0.9, 0.8, 0.7))
        assert single_point_mi((0, 0, 0), 0.4, p) == 0.0

    def test_vanishing_weights_give_zero(self):
        p = ProtocolParams(tau=(1e-12, 1e-12, 1e-12))
        assert single_point_mi((1.0, 2.0, 0.5), 0.8, p) <= 1e-9

    def test_equal_magnitudes_at_zero_outcome(self):
        """Frozen from the enumerated-likelihood oracle: the posterior spreads
        over the six mixed sign triples, giving a small anticorrelation MI."""
        p = ProtocolParams(tau=(1.0, 1.0, 1.0), sigma=(1.0, 1.0, 1.0))
        assert single_point_mi((5, 5, 5), 0.0, p) == pytest.approx(
            0.08170416594550987, abs=1e-12)

    def test_matches_kl_form_oracle(self):
        """Entropy decomposition vs the KL definition of mutual information."""
        rng = np.random.default_rng(25)
        for _ in range(100):
            p = random_params(rng)
            mags, gamma = random_announcement(rng, p)
            table = sign_posterior_table(mags, gamma, p).probs
            joint = np.zeros((2, 2))
            for pr, s in zip(table, SIGN_PATTERNS):
                joint[int(s[0] > 0), int(s[1] > 0)] += pr
            pa = joint.sum(axis=1)
            pb = joint.sum(axis=0)
            want = sum(
                joint[a, b] * math.log2(joint[a, b] / (pa[a] * pb[b]))
                for a in range(2) for b in range(2) if joint[a, b] > 0
            )
            got = single_point_mi(mags, gamma, p)
            assert got == pytest.approx(want, abs=1e-9)

    def test_bounds_on_random_draws(self):
        rng = np.random.default_rng(26)
        p = random_params(rng)
        mags = np.abs(rng.normal(0, p.sigma, size=(10_000, 3)))
        means = (mags * mean_coefficients(p)) @ SIGN_PATTERNS.T
        gamma = rng.normal(means[:, 0], 1.0)
        tables = posterior_table_batch(mags, gamma, p)
        mi = _mi_with_bound(tables, 0.0)[0]
        assert np.all(mi >= 0.0) and np.all(mi <= 1.0)

    def test_outcome_parity(self):
        rng = np.random.default_rng(29)
        for _ in range(40):
            p = random_params(rng)
            mags, gamma = random_announcement(rng, p)
            assert single_point_mi(mags, gamma, p) == pytest.approx(
                single_point_mi(mags, -gamma, p), abs=1e-12)

    def test_average_over_outcomes_is_bounded(self):
        """E[MI | mags] under the outcome mixture lies in [0, 1]."""
        p = ProtocolParams(tau=(0.85, 0.85, 0.85))
        mags = np.array([0.9, 1.4, 0.3])
        w = mean_coefficients(p)
        means = SIGN_PATTERNS @ (w * mags)
        gammas = np.linspace(-10, 10, 2001)
        mix = np.exp(-0.5 * (gammas[:, None] - means) ** 2).sum(axis=1) \
            / (8.0 * math.sqrt(2 * math.pi))
        tables = posterior_table_batch(np.tile(mags, (gammas.size, 1)), gammas, p)
        mi = _mi_with_bound(tables, 0.0)[0]
        avg = np.trapezoid(mix * mi, gammas) / np.trapezoid(mix, gammas)
        assert -1e-6 <= avg <= 1.0 + 1e-6

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(30)
        p = random_params(rng)
        mags = np.abs(rng.normal(0, p.sigma, size=(50, 3)))
        gamma = rng.normal(0, 2, 50)
        tables = posterior_table_batch(mags, gamma, p)
        batch = _mi_with_bound(tables, 0.0)[0]
        for k in range(50):
            assert batch[k] == pytest.approx(
                single_point_mi(mags[k], gamma[k], p), abs=1e-13)


def numpy_row_sum(x):
    """The numpy row reduction that ``_row_sum`` replaces."""
    return x.sum(axis=-1)


def same_bits(a, b):
    """Equal to the last bit, the sign of zero included."""
    a, b = np.ascontiguousarray(a, dtype=float), np.ascontiguousarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def extreme_values(rng, shape):
    """Random magnitudes over 40 decades and signs, a third of them replaced
    by zeros of either sign, subnormals, the smallest normal, 1 and 1e300."""
    x = rng.uniform(0.0, 1.0, shape) * 10.0 ** rng.integers(-20, 20, shape)
    special = rng.random(shape) < 0.35
    pool = [0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.0, 1e300]
    x[special] = rng.choice(pool, int(special.sum()))
    return x * rng.choice([-1.0, 1.0], shape)


def extreme_announcements(rng, n, params):
    """Announcements whose tables hold ordinary entries, zeros, subnormals and
    ones: magnitudes from 0 to 40 sigma, some exactly 0 or subnormal, and
    outcomes up to 1e150."""
    mags = np.abs(rng.normal(0.0, 1.0, (n, 3))) * 10.0 ** rng.uniform(-1.0, 1.6, (n, 1))
    mags[: n // 8] = 0.0
    mags[n // 8: n // 4, 1] = 5e-324
    gamma = rng.normal(0.0, 3.0, n) * 10.0 ** rng.uniform(0.0, 1.0, n)
    gamma[n // 4: n // 4 + 8] = [1e150, -1e150, 1e20, 0.0, -0.0, 5e-324, 1e-310, 1.0]
    return mags, gamma


class TestColumnSums:
    """The every-row level sums short rows over whole columns
    (``_row_sum``); every such sum keeps numpy's bits."""

    @pytest.mark.parametrize("k", range(1, 9))
    def test_row_sum_is_numpy_sum(self, k):
        rng = np.random.default_rng(100 + k)
        for shape in ((2000, k), (300, 2, k), (k,)):
            x = extreme_values(rng, shape)
            assert same_bits(_row_sum(x), numpy_row_sum(x))
        zeros = np.full((3, k), -0.0)
        assert same_bits(_row_sum(zeros), numpy_row_sum(zeros))

    @pytest.mark.parametrize("rows", [_MARGINAL_ROWS, _JOINT_ROWS, _A_ROWS],
                             ids=["marginals", "joints", "A's rows"])
    def test_gathered_table_entries_are_numpy_sums(self, rows):
        """The sums of table entries that the information and the Holevo
        core gather, non-contiguous columns included."""
        rng = np.random.default_rng(110)
        x = np.abs(extreme_values(rng, (2000, 8)))[:, rows]
        assert same_bits(_row_sum(x), numpy_row_sum(x))

    def test_pairwise_max_is_numpy_max(self):
        """The posterior's shift: any order gives the same maximum, NaN included."""
        rng = np.random.default_rng(111)
        x = extreme_values(rng, (2000, 8))
        x[:5, 3] = np.nan
        assert np.array_equal(_pairwise(np.maximum, x), x.max(axis=1, keepdims=True),
                              equal_nan=True)

    @pytest.mark.parametrize("convention", ["trace", "amplitude"])
    def test_posterior_keeps_the_row_reductions_bits(self, convention):
        rng = np.random.default_rng(112)
        params = random_params(rng, overlap_convention=convention)
        mags, gamma = extreme_announcements(rng, 4096, params)
        loglik = _outcome_exponents(mags, gamma, params)
        loglik -= loglik.max(axis=1, keepdims=True)
        want = np.exp(loglik)
        want /= want.sum(axis=1, keepdims=True)
        got = posterior_table_batch(mags, gamma, params)
        assert same_bits(got, want)
        assert (got == 0.0).any() and (got == 1.0).any() and ((0.0 < got) & (got < 1e-308)).any()

    def test_information_keeps_the_row_reductions_bits(self, monkeypatch):
        rng = np.random.default_rng(113)
        params = random_params(rng)
        tables = posterior_table_batch(*extreme_announcements(rng, 4096, params), params)
        rel_err = rng.uniform(0.0, 1e-12, 4096)
        got = _mi_with_bound(tables, rel_err)
        monkeypatch.setattr(cvconf.inference, "_row_sum", numpy_row_sum)
        want = _mi_with_bound(tables, rel_err)
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
