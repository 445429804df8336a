"""Tests for the protocol structure: densities, weights, relay pipeline."""

import math

import numpy as np
import pytest

from cvconf.holevo import single_point_holevo
from cvconf.inference import sign_posterior_table, single_point_mi
from cvconf.protocol import (
    SIGN_PATTERNS,
    ProtocolParams,
    _draw_outcomes,
    _joint_density_factors,
    _one_announcement,
    _outcome_exponents,
    eve_conditional_means,
    mean_coefficients,
    outcome_density,
    simulate_relay,
    transmissivity_from_distance,
)
from cvconf.rates import single_point_rate

SQRT_2PI = math.sqrt(2.0 * math.pi)


def normal_pdf(x, mean=0.0, sd=1.0):
    return math.exp(-0.5 * ((x - mean) / sd) ** 2) / (SQRT_2PI * sd)


def random_params(rng, **overrides):
    kwargs = dict(
        tau=tuple(rng.uniform(0.05, 1.0, 3)),
        sigma=tuple(rng.uniform(0.2, 3.0, 3)),
    )
    kwargs.update(overrides)
    return ProtocolParams(**kwargs)


class TestProtocolParams:
    def test_defaults(self):
        p = ProtocolParams(tau=(1.0, 1.0, 1.0))
        assert p.attenuation_db_per_km == 0.2
        assert p.attenuation_exponent == pytest.approx(0.02)
        assert p.overlap_convention == "trace"

    @pytest.mark.parametrize("tau", [(0.0, 1, 1), (1.2, 1, 1), (1, 1, -0.5)])
    def test_rejects_bad_tau(self, tau):
        with pytest.raises(ValueError, match="tau"):
            ProtocolParams(tau=tau)

    def test_rejects_bad_sigma(self):
        for sigma in ((1.0, 0.0, 1.0), (math.inf, 1, 1), (1, math.nan, 1), (1, 1, -math.inf)):
            with pytest.raises(ValueError, match="sigma"):
                ProtocolParams(tau=(1, 1, 1), sigma=sigma)

    @pytest.mark.parametrize("atten", [math.nan, math.inf])
    def test_rejects_non_finite_attenuation(self, atten):
        with pytest.raises(ValueError, match="attenuation_db_per_km"):
            ProtocolParams(tau=(1, 1, 1), attenuation_db_per_km=atten)

    def test_cascade_is_fixed(self):
        with pytest.raises(TypeError, match="cascade"):
            ProtocolParams(tau=(1, 1, 1), cascade=(0.4, 0.6))

    def test_rejects_unknown_convention(self):
        with pytest.raises(ValueError, match="convention"):
            ProtocolParams(tau=(1, 1, 1), overlap_convention="fidelity")

    def test_at_distance(self):
        p = ProtocolParams(tau=(1.0, 1.0, 1.0)).at_distance(50.0)
        assert p.tau == (pytest.approx(0.1), pytest.approx(0.1), pytest.approx(0.1))

    @pytest.mark.parametrize("kwargs,name", [
        (dict(tau=(1, 1, 1), attenuation_db_per_km="0.2"), "attenuation_db_per_km"),
        (dict(tau=(1, 1, 1), attenuation_db_per_km=None), "attenuation_db_per_km"),
        (dict(tau=(1, 1, 1), sigma=None), "sigma"),
        (dict(tau=(1, 1, 1), sigma=(1, "x", 1)), "sigma"),
        (dict(tau="abc"), "tau"),
        (dict(tau="111"), "tau"),
        (dict(tau=0.5), "tau"),
        (dict(tau=(1, None, 1)), "tau"),
    ])
    def test_non_numeric_input_names_its_argument(self, kwargs, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            ProtocolParams(**kwargs)

    @pytest.mark.parametrize("distance", ["3", None, (3.0,)])
    def test_at_distance_names_a_non_numeric_distance(self, distance):
        with pytest.raises(ValueError, match="^distance_km must be"):
            ProtocolParams(tau=(1, 1, 1)).at_distance(distance)


class TestTransmissivityFromDistance:
    def test_zero_distance(self):
        assert transmissivity_from_distance(0.0, 0.02) == 1.0

    def test_fifty_km(self):
        assert transmissivity_from_distance(50.0, 0.02) == pytest.approx(0.1, rel=1e-14)

    def test_three_km(self):
        assert transmissivity_from_distance(3.0, 0.02) == pytest.approx(
            10.0 ** (-0.06), rel=1e-14)
        assert transmissivity_from_distance(3.0, 0.02) == pytest.approx(0.8710, abs=5e-5)

    def test_rejects_negative_distance(self):
        with pytest.raises(ValueError, match="distance"):
            transmissivity_from_distance(-1.0, 0.02)

    @pytest.mark.parametrize("distance", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_distance(self, distance):
        """Named here, rather than later as an out-of-range transmissivity."""
        with pytest.raises(ValueError, match="distance_km must be finite and non-negative"):
            transmissivity_from_distance(distance, 0.02)
        with pytest.raises(ValueError, match="distance_km"):
            ProtocolParams(tau=(1.0, 1.0, 1.0)).at_distance(distance)

    def test_rejects_distance_whose_transmissivity_underflows(self):
        """Beyond about 16 000 km at 0.2 dB/km, tau underflows to 0: named as
        the distance, rather than later as an out-of-range transmissivity."""
        assert transmissivity_from_distance(16_000.0, 0.02) > 0.0
        with pytest.raises(ValueError, match="distance_km 20000.0 is too far"):
            transmissivity_from_distance(20_000.0, 0.02)
        with pytest.raises(ValueError, match="distance_km"):
            ProtocolParams(tau=(1.0, 1.0, 1.0)).at_distance(20_000.0)

    def test_zero_exponent_is_lossless(self):
        assert transmissivity_from_distance(5.0, 0.0) == 1.0

    @pytest.mark.parametrize("exponent", [math.nan, math.inf, -math.inf, -0.02, "0.02", None])
    def test_rejects_bad_attenuation_exponent(self, exponent):
        """Named, rather than returned as NaN or, for -0.02 over 1 km, as tau = 1.047."""
        with pytest.raises(ValueError, match="attenuation_exponent must be finite"):
            transmissivity_from_distance(1.0, exponent)


class TestMeanCoefficients:
    def test_unit_transmissivity_is_balanced(self):
        w = mean_coefficients(ProtocolParams(tau=(1.0, 1.0, 1.0)))
        assert np.allclose(w, 1.0 / math.sqrt(3.0), atol=1e-15)

    def test_symmetric_configuration_is_balanced(self):
        for tau in (0.9, 0.5, 0.2):
            w = mean_coefficients(ProtocolParams(tau=(tau,) * 3))
            assert np.allclose(w, math.sqrt(tau / 3.0), atol=1e-15)

    def test_vanishing_transmissivity_decouples_party(self):
        w = mean_coefficients(ProtocolParams(tau=(1.0, 1.0, 1e-30)))
        assert w[2] == pytest.approx(0.0, abs=1e-12)


class TestOutcomeDensity:
    def test_zero_magnitudes_give_standard_normal(self):
        p = ProtocolParams(tau=(0.8, 0.9, 1.0))
        for gamma in (-1.3, 0.0, 2.4):
            got = outcome_density((1, -1, 1), (0, 0, 0), gamma, p)
            assert got == pytest.approx(normal_pdf(gamma), rel=1e-14)

    def test_peak_value(self):
        p = ProtocolParams(tau=(0.7, 0.7, 0.7))
        w = mean_coefficients(p)
        mags = (1.0, 2.0, 0.5)
        signs = (1, 1, -1)
        mean = float(np.dot(w, np.array(signs) * np.array(mags)))
        assert outcome_density(signs, mags, mean, p) == pytest.approx(
            1.0 / SQRT_2PI, rel=1e-14)

    def test_parity(self):
        rng = np.random.default_rng(11)
        p = random_params(rng)
        for _ in range(50):
            signs = rng.choice([-1.0, 1.0], 3)
            mags = np.abs(rng.normal(0, 1.5, 3))
            gamma = rng.normal(0, 2)
            assert outcome_density(signs, mags, gamma, p) == pytest.approx(
                outcome_density(-signs, mags, -gamma, p), rel=1e-13)

    def test_rejects_bad_signs(self):
        p = ProtocolParams(tau=(1, 1, 1))
        with pytest.raises(ValueError, match="signs"):
            outcome_density((1, 0, 1), (1, 1, 1), 0.0, p)


class _ConstantRng:
    """Draws every standard normal as ``value``."""

    def __init__(self, value):
        self.value = value

    def standard_normal(self, size):
        return np.full(size, self.value)


def _philox(seed=7, block=2):
    return np.random.Generator(np.random.Philox(key=np.array([seed, block], dtype=np.uint64)))


class TestDrawOutcomes:
    """The draw is the likelihood's own: each outcome is centred where its sign
    triple's exponent peaks, and one unit of spread away the exponent is -1/2."""

    def test_centre_and_spread_are_the_likelihoods(self):
        rng = np.random.default_rng(12)
        p = random_params(rng)
        mags = np.abs(rng.normal(0.0, 2.0, (8, 3)))
        [centre] = _draw_outcomes(_ConstantRng(0.0), SIGN_PATTERNS, mags, [p])
        [spread] = _draw_outcomes(_ConstantRng(1.0), SIGN_PATTERNS, mags, [p])
        assert centre.shape == spread.shape == (8,)
        # Row t draws under SIGN_PATTERNS[t], column t of the exponents.
        assert np.diag(_outcome_exponents(mags, centre, p)) == pytest.approx(0.0, abs=1e-28)
        assert np.diag(_outcome_exponents(mags, spread, p)) == pytest.approx(-0.5, rel=1e-12)

    def test_one_announcement_draws_one_standard_normal(self):
        p = ProtocolParams(tau=(0.7, 0.8, 0.9))
        signs, mags = np.array([1.0, -1.0, 1.0]), np.array([1.2, 0.3, 2.0])
        got = next(_draw_outcomes(np.random.default_rng(5), signs, mags, [p]))
        rng = np.random.default_rng(5)
        want = float(mean_coefficients(p) @ (signs * mags)) + rng.standard_normal()
        assert got == pytest.approx(want, rel=1e-15)

    def test_grid_draw_is_each_params_normal_draw(self):
        """Each params' outcomes are, bit for bit, what ``rng.normal(mean, 1.0)``
        draws for that params alone from the same stream, and the grid uses
        one standard normal per outcome whatever its length."""
        rng = np.random.default_rng(13)
        grid = [random_params(rng, overlap_convention=c) for c in ("trace", "amplitude") * 3]
        signs = rng.choice([-1.0, 1.0], (5000, 3))
        mags = np.abs(rng.normal(0.0, 3.0, (5000, 3)))
        drawn = _philox()
        outcomes = list(_draw_outcomes(drawn, signs, mags, grid))
        assert len(outcomes) == len(grid)
        for params, got in zip(grid, outcomes):
            alone = _philox()
            assert np.array_equal(got, alone.normal((signs * mags) @ mean_coefficients(params),
                                                    1.0))
        # The grid's stream stands where one params' draw leaves it.
        assert drawn.standard_normal() == alone.standard_normal()


def _outcome_density(mags, gamma, p):
    """``outcome_density`` with a fixed sign triple, called like the other views."""
    return outcome_density((1, -1, 1), mags, gamma, p)


_VIEWS = [sign_posterior_table, single_point_mi, single_point_holevo, single_point_rate,
          _outcome_density]


class TestOneAnnouncement:
    """The input check behind every single-announcement view of a batch core."""

    def test_returns_a_batch_of_one(self):
        mags, gamma = _one_announcement([1, 2.5, 0], -0.25)
        assert mags.shape == (1, 3) and mags.dtype == float
        assert list(mags[0]) == [1.0, 2.5, 0.0]
        assert gamma.shape == (1,) and gamma[0] == -0.25

    @pytest.mark.parametrize("mags", [(1, 1), (1, -1, 1), (1, math.nan, 1), (math.inf, 1, 1)])
    def test_rejects_bad_magnitudes(self, mags):
        with pytest.raises(ValueError, match="magnitudes"):
            _one_announcement(mags, 0.0)

    @pytest.mark.parametrize("view", _VIEWS)
    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
    def test_every_view_rejects_a_non_finite_outcome(self, view, gamma):
        p = ProtocolParams(tau=(0.9, 0.8, 0.7))
        with pytest.raises(ValueError, match="gamma must be finite"):
            view((1.0, 1.0, 1.0), gamma, p)

    @pytest.mark.parametrize("view", _VIEWS)
    @pytest.mark.parametrize("mags,gamma", [((1, 1, 1), 1e200), ((0, 0, 0), 1e155),
                                            ((1e200, 1, 1), 0.0), ((1e308, 1e308, 1), 0.0)])
    def test_every_view_rejects_an_overflowing_announcement(self, view, mags, gamma):
        p = ProtocolParams(tau=(0.9, 0.8, 0.7))
        with pytest.raises(ValueError, match="gamma and mags are too large"):
            view(mags, gamma, p)

    @pytest.mark.parametrize("view", _VIEWS)
    @pytest.mark.parametrize("mags,gamma,name", [
        ((1, 1, 1), "x", "gamma"), ((1, 1, 1), None, "gamma"),
        ((1, "x", 1), 0.0, "magnitudes"), ("abc", 0.0, "magnitudes"),
    ])
    def test_every_view_names_a_non_numeric_argument(self, view, mags, gamma, name):
        p = ProtocolParams(tau=(0.9, 0.8, 0.7))
        with pytest.raises(ValueError, match=name):
            view(mags, gamma, p)

    def test_accepts_a_large_finite_spread(self):
        mags, gamma = _one_announcement((0, 0, 0), 1e153)
        assert gamma[0] == 1e153


def joint_pdf(mags, gammas, p):
    """Product of the two joint-density factors per row of (n, 3) magnitudes."""
    outcome, mag_density = _joint_density_factors(np.asarray(mags, dtype=float),
                                                  np.asarray(gammas, dtype=float), p)
    return outcome * mag_density


class TestJointDensity:
    def test_explicit_sum_at_zero_magnitudes(self):
        """All eight sign terms coincide at zero magnitudes."""
        p = ProtocolParams(tau=(0.9, 0.8, 0.7), sigma=(1.0, 1.0, 1.0))
        values = joint_pdf(np.zeros((2, 3)), [0.0, 1.0], p)
        for value, gamma in zip(values, (0.0, 1.0)):
            want = 8.0 * normal_pdf(gamma) * normal_pdf(0.0) ** 3
            assert value == pytest.approx(want, rel=1e-13)

    def test_matches_term_by_term_sum(self):
        rng = np.random.default_rng(12)
        p = random_params(rng)
        mags = np.abs(rng.normal(0, 1.5, 3))
        gamma = rng.normal(0, 2)
        want = sum(
            outcome_density(signs, mags, gamma, p)
            * np.prod([normal_pdf(m, 0.0, s) for m, s in zip(mags, p.sigma)])
            for signs in SIGN_PATTERNS
        )
        assert joint_pdf([mags], [gamma], p)[0] == pytest.approx(want, rel=1e-12)

    def test_even_in_gamma_and_positive(self):
        rng = np.random.default_rng(13)
        p = random_params(rng)
        draws = [(np.abs(rng.normal(0, 1.5, 3)), rng.normal(0, 2)) for _ in range(20)]
        mags = np.array([m for m, _ in draws])
        gammas = np.array([g for _, g in draws])
        values = joint_pdf(mags, gammas, p)
        assert np.all(values > 0.0)
        assert values == pytest.approx(joint_pdf(mags, -gammas, p), rel=1e-12)

    def test_normalisation(self):
        """Integrates to 1 over the truncated announcement domain."""
        p = ProtocolParams(tau=(0.8, 0.95, 0.6), sigma=(1.0, 0.7, 1.3))
        n_mag, n_gam = 48, 200
        axes = [np.linspace(0, 8 * s, n_mag + 1) for s in p.sigma]
        g_hi = float(mean_coefficients(p) @ (8.0 * np.asarray(p.sigma))) + 8.0
        gammas = np.linspace(-g_hi, g_hi, n_gam + 1)

        m1, m2, m3 = np.meshgrid(*axes, indexing="ij")
        mags = np.stack([m1.ravel(), m2.ravel(), m3.ravel()], axis=1)
        per_gamma = np.empty(gammas.size)
        for k, g in enumerate(gammas):
            vals = joint_pdf(mags, np.full(len(mags), g), p).reshape(m1.shape)
            for nodes in axes:
                vals = np.trapezoid(vals, nodes, axis=0)
            per_gamma[k] = vals
        total = np.trapezoid(per_gamma, gammas)
        assert total == pytest.approx(1.0, abs=1e-4)


class TestEveConditionalMeans:
    def test_unit_transmissivity_leaks_nothing(self):
        p = ProtocolParams(tau=(1.0, 1.0, 1.0))
        means = eve_conditional_means((1, -1, 1), (2.0, 3.0, 1.0), p)
        assert np.allclose(means, 0.0, atol=1e-15)

    def test_half_tap_displacement(self):
        p = ProtocolParams(tau=(0.5, 1.0, 1.0))
        means = eve_conditional_means((1, 1, 1), (1.0, 0.0, 0.0), p)
        assert means[0][1] == pytest.approx(math.sqrt(0.5), rel=1e-14)
        assert means[0][0] == 0.0

    def test_sign_flip_negates_only_that_mode(self):
        p = ProtocolParams(tau=(0.5, 0.7, 0.9))
        mags = (1.0, 2.0, 0.5)
        base = eve_conditional_means((1, -1, 1), mags, p)
        flipped = eve_conditional_means((-1, -1, 1), mags, p)
        assert flipped[0][1] == pytest.approx(-base[0][1], rel=1e-14)
        assert flipped[1] == base[1]
        assert flipped[2] == base[2]


class TestSimulateRelay:
    def test_no_loss_leaves_eve_with_vacuum(self):
        rng = np.random.default_rng(14)
        p = ProtocolParams(tau=(1.0, 1.0, 1.0))
        for _ in range(10):
            result = simulate_relay(
                rng.choice([-1.0, 1.0], 3),
                np.abs(rng.normal(0, 1, 3)),
                np.abs(rng.normal(0, 1, 3)),
                p,
                rng.normal(0, 1, 3),
            )
            assert np.allclose(result.eve_state.mean, 0.0, atol=1e-14)
            assert np.allclose(result.eve_state.cov, np.eye(6), atol=1e-14)

    def test_marginal_matches_analytic_density(self):
        """The pipeline is the oracle for the outcome density."""
        rng = np.random.default_rng(15)
        for _ in range(300):
            p = random_params(rng)
            signs = rng.choice([-1.0, 1.0], 3)
            p_mags = np.abs(rng.normal(0, p.sigma))
            q_mags = np.abs(rng.normal(0, p.sigma))
            gamma = rng.normal(0, 2)
            result = simulate_relay(signs, q_mags, p_mags, p,
                                    (rng.normal(), rng.normal(), gamma))
            want = outcome_density(signs, p_mags, gamma, p)
            assert result.reconciled_likelihood == pytest.approx(want, rel=1e-10)

    def test_eve_state_properties(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            p = random_params(rng)
            signs = rng.choice([-1.0, 1.0], 3)
            p_mags = np.abs(rng.normal(0, p.sigma))
            q_mags = np.abs(rng.normal(0, p.sigma))
            result = simulate_relay(signs, q_mags, p_mags, p, rng.normal(0, 1, 3))
            eve = result.eve_state
            assert np.max(np.abs(eve.cov - np.eye(6))) <= 1e-12
            for mode, (_, want_p) in enumerate(eve_conditional_means(signs, p_mags, p)):
                assert abs(eve.mean[2 * mode + 1] - want_p) <= 1e-12

    @pytest.mark.parametrize("outcomes", [(math.nan, 0.0, 0.0), (0.0, 0.0, math.inf),
                                          (0.0, -math.inf, 0.0)])
    def test_rejects_non_finite_outcomes(self, outcomes):
        """(nan, 0, 0) once gave NaN likelihoods and (0, 0, inf) a zero one."""
        p = ProtocolParams(tau=(0.9, 0.9, 0.9))
        with pytest.raises(ValueError, match="outcomes"):
            simulate_relay((1, 1, 1), (1, 1, 1), (1, 1, 1), p, outcomes)

    def test_eve_state_independent_of_outcomes(self):
        p = ProtocolParams(tau=(0.6, 0.7, 0.8))
        signs = (1.0, -1.0, 1.0)
        q_mags, p_mags = (0.4, 1.1, 0.2), (0.9, 0.3, 1.5)
        a = simulate_relay(signs, q_mags, p_mags, p, (0.0, 0.0, 0.0))
        b = simulate_relay(signs, q_mags, p_mags, p, (1.7, -2.2, 0.9))
        assert np.allclose(a.eve_state.mean, b.eve_state.mean, atol=1e-13)
        assert np.allclose(a.eve_state.cov, b.eve_state.cov, atol=1e-13)

    def test_permutation_symmetry_of_reconciled_density(self):
        """Symmetric params: permuting parties with their data changes nothing."""
        p = ProtocolParams(tau=(0.8, 0.8, 0.8), sigma=(1.2, 1.2, 1.2))
        mags = np.array([0.7, 1.4, 0.2])
        signs = np.array([1.0, -1.0, 1.0])
        base = outcome_density(signs, mags, 0.9, p)
        for perm in ([1, 0, 2], [2, 1, 0], [1, 2, 0]):
            assert outcome_density(signs[perm], mags[perm], 0.9, p) == pytest.approx(
                base, rel=1e-13)
