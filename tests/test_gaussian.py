"""Tests for the Gaussian phase-space toolkit."""

import math

import numpy as np
import pytest

from cvconf.gaussian import (
    GaussianState,
    apply_beamsplitter,
    homodyne_condition,
    make_coherent_product,
    overlap_trace,
    pure_loss_tap,
    symplectic_eigenvalues,
)


def random_coherent(rng, n_modes):
    return make_coherent_product(rng.normal(0.0, 2.0, size=(n_modes, 2)))


class TestMakeCoherentProduct:
    def test_empty_input_gives_zero_mode_state(self):
        state = make_coherent_product([])
        assert state.n_modes == 0
        assert state.mean.size == 0
        assert state.cov.shape == (0, 0)

    def test_vacuum(self):
        state = make_coherent_product([(0.0, 0.0)])
        assert np.array_equal(state.mean, [0.0, 0.0])
        assert np.array_equal(state.cov, np.eye(2))

    def test_sign_encoded_displacement(self):
        """Sign variables flip the corresponding mean quadratures."""
        state = make_coherent_product([(+1 * 2.0, -1 * 3.0)])
        assert np.array_equal(state.mean, [2.0, -3.0])
        assert np.array_equal(state.cov, np.eye(2))

    def test_rejects_non_finite_means(self):
        with pytest.raises(ValueError, match="finite"):
            make_coherent_product([(np.inf, 0.0)])


class TestApplyBeamsplitter:
    def test_full_transmission_is_identity(self):
        rng = np.random.default_rng(1)
        state = random_coherent(rng, 3)
        out = apply_beamsplitter(state, 0, 2, 1.0)
        assert np.allclose(out.mean, state.mean, atol=1e-15)
        assert np.allclose(out.cov, state.cov, atol=1e-15)

    def test_full_reflection_swaps_modes(self):
        state = make_coherent_product([(1.0, 2.0), (3.0, -4.0)])
        out = apply_beamsplitter(state, 0, 1, 0.0)
        assert np.allclose(out.mean, [3.0, -4.0, -1.0, -2.0], atol=1e-15)

    def test_balanced_splitter_matches_matrix_oracle(self):
        """Direct symplectic-matrix multiplication as the oracle."""
        state = make_coherent_product([(2.0, 0.0), (0.0, 0.0)])
        out = apply_beamsplitter(state, 0, 1, 0.5)
        t = math.sqrt(0.5)
        s = np.array([
            [t, 0, t, 0],
            [0, t, 0, t],
            [-t, 0, t, 0],
            [0, -t, 0, t],
        ])
        assert np.allclose(out.mean, s @ state.mean, atol=1e-15)
        assert np.allclose(out.mean, [math.sqrt(2.0), 0.0, -math.sqrt(2.0), 0.0], atol=1e-15)
        assert np.allclose(out.cov, np.eye(4), atol=1e-15)

    def test_preserves_symplectic_form(self):
        rng = np.random.default_rng(2)
        state = random_coherent(rng, 2)
        out = apply_beamsplitter(state, 0, 1, 0.3)
        assert np.allclose(out.cov, np.eye(4), atol=1e-14)
        assert np.min(symplectic_eigenvalues(out.cov)) >= 1.0 - 1e-9

    @pytest.mark.parametrize("bad", [-0.1, 1.1])
    def test_rejects_bad_transmissivity(self, bad):
        state = make_coherent_product([(0, 0), (0, 0)])
        with pytest.raises(ValueError, match="transmissivity"):
            apply_beamsplitter(state, 0, 1, bad)

    def test_rejects_bad_indices(self):
        state = make_coherent_product([(0, 0), (0, 0)])
        with pytest.raises(ValueError, match="out of range"):
            apply_beamsplitter(state, 0, 2, 0.5)
        with pytest.raises(ValueError, match="differ"):
            apply_beamsplitter(state, 1, 1, 0.5)


class TestPureLossTap:
    def test_no_leakage(self):
        state = make_coherent_product([(1.5, -2.5)])
        out = pure_loss_tap(state, 0, 1.0)
        assert out.n_modes == 2
        assert np.allclose(out.mean, [1.5, -2.5, 0.0, 0.0], atol=1e-15)

    def test_full_leakage(self):
        state = make_coherent_product([(1.5, -2.5)])
        out = pure_loss_tap(state, 0, 0.0)
        # Signal becomes vacuum-mean; ancilla carries the displacement.
        assert np.allclose(out.mean[:2], [0.0, 0.0], atol=1e-15)
        assert np.allclose(np.abs(out.mean[2:]), [1.5, 2.5], atol=1e-15)

    def test_half_tap_matches_matrix_oracle(self):
        state = make_coherent_product([(0.0, 2.0)])
        out = pure_loss_tap(state, 0, 0.5)
        assert np.allclose(out.mean, [0.0, math.sqrt(2.0), 0.0, math.sqrt(2.0)], atol=1e-15)
        assert np.allclose(out.cov, np.eye(4), atol=1e-15)

    def test_taps_on_distinct_modes_commute(self):
        rng = np.random.default_rng(3)
        state = random_coherent(rng, 2)
        a = pure_loss_tap(pure_loss_tap(state, 0, 0.3), 1, 0.8)
        b = pure_loss_tap(pure_loss_tap(state, 1, 0.8), 0, 0.3)
        # Ancilla order differs; compare after aligning modes (2 <-> 3).
        perm = [0, 1, 2, 3, 6, 7, 4, 5]
        assert np.allclose(a.mean, b.mean[perm], atol=1e-12)
        assert np.allclose(a.cov, b.cov[np.ix_(perm, perm)], atol=1e-12)


class TestHomodyneCondition:
    def test_vacuum_q_outcome_zero(self):
        state = make_coherent_product([(0.0, 0.0), (1.0, 1.0)])
        out, lik = homodyne_condition(state, 0, "q", 0.0)
        assert lik == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), abs=1e-15)
        assert np.allclose(out.mean, [1.0, 1.0], atol=1e-15)
        assert np.allclose(out.cov, np.eye(2), atol=1e-15)

    def test_product_state_leaves_other_modes_untouched(self):
        rng = np.random.default_rng(4)
        state = random_coherent(rng, 3)
        out, _ = homodyne_condition(state, 1, "p", 0.7)
        keep = [0, 1, 4, 5]
        assert np.allclose(out.mean, state.mean[keep], atol=1e-15)
        assert np.allclose(out.cov, np.eye(4), atol=1e-15)

    def test_correlated_state_matches_dense_conditioning_oracle(self):
        """Brute-force joint-Gaussian conditioning on the measured index."""
        state = make_coherent_product([(1.0, -0.5), (0.3, 2.0)])
        mixed = apply_beamsplitter(state, 0, 1, 0.3)
        # Inject correlations beyond identity: squeeze-free cross terms via
        # an extra beamsplitter against a displaced third mode.
        three = make_coherent_product([(1.0, -0.5), (0.3, 2.0), (0.0, 0.1)])
        mixed = apply_beamsplitter(apply_beamsplitter(three, 0, 1, 0.3), 1, 2, 0.6)

        m_idx = 2  # q of mode 1
        keep = [k for k in range(6) if k not in (2, 3)]
        outcome = 0.4
        cov = mixed.cov
        gain = cov[keep, m_idx] / cov[m_idx, m_idx]
        want_mean = mixed.mean[keep] + gain * (outcome - mixed.mean[m_idx])
        want_cov = cov[np.ix_(keep, keep)] - np.outer(gain, cov[m_idx, keep])
        want_lik = math.exp(-0.5 * (outcome - mixed.mean[m_idx]) ** 2 / cov[m_idx, m_idx]) \
            / math.sqrt(2 * math.pi * cov[m_idx, m_idx])

        out, lik = homodyne_condition(mixed, 1, "q", outcome)
        assert np.allclose(out.mean, want_mean, atol=1e-13)
        assert np.allclose(out.cov, want_cov, atol=1e-13)
        assert lik == pytest.approx(want_lik, rel=1e-13)

    def test_likelihood_integrates_to_one(self):
        state = make_coherent_product([(0.7, -1.2), (0.0, 0.4)])
        mixed = apply_beamsplitter(state, 0, 1, 0.4)
        xs = np.linspace(-10, 10, 4001)
        liks = [homodyne_condition(mixed, 0, "p", x)[1] for x in xs]
        assert np.trapezoid(liks, xs) == pytest.approx(1.0, abs=1e-6)

    def test_zero_variance_branch(self):
        # A manually degenerate state: q variance zero on mode 0.
        cov = np.diag([0.0, 1.0])
        state = GaussianState(np.array([1.0, 0.0]), cov)
        _, lik = homodyne_condition(state, 0, "q", 2.0)
        assert lik == 0.0
        _, lik = homodyne_condition(state, 0, "q", 1.0)
        assert lik == math.inf

    @pytest.mark.parametrize("outcome", [math.nan, math.inf, -math.inf, "a", None])
    def test_rejects_non_finite_outcome(self, outcome):
        """A NaN outcome once gave a NaN likelihood, an infinite one 0.0, and
        one that is not a number a TypeError naming nothing."""
        state = make_coherent_product([(0.0, 0.0), (1.0, 1.0)])
        with pytest.raises(ValueError, match="outcome"):
            homodyne_condition(state, 0, "q", outcome)


class TestOverlapTrace:
    def test_identical_states(self):
        state = make_coherent_product([(0.3, 0.9)])
        assert overlap_trace(state, state) == pytest.approx(1.0, abs=1e-15)

    def test_displaced_pair(self):
        a = make_coherent_product([(0.0, 0.0)])
        b = make_coherent_product([(2.0, 0.0)])
        assert overlap_trace(a, b) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_tap_displacement_pair(self):
        """Mean gap 2*sqrt(1-tau)*P with tau=0.5, P=1 gives exp(-1/2)."""
        tau = 0.5
        gap = 2.0 * math.sqrt(1.0 - tau) * 1.0
        a = make_coherent_product([(0.0, gap / 2)])
        b = make_coherent_product([(0.0, -gap / 2)])
        assert overlap_trace(a, b) == pytest.approx(math.exp(-0.5), rel=1e-14)

    def test_symmetric_and_decreasing(self):
        base = make_coherent_product([(0.0, 0.0)])
        last = 1.0
        for step in range(1, 6):
            shifted = make_coherent_product([(0.4 * step, -0.3 * step)])
            fwd = overlap_trace(base, shifted)
            assert fwd == pytest.approx(overlap_trace(shifted, base), rel=1e-15)
            assert fwd < last
            last = fwd

    def test_rejects_covariance_mismatch(self):
        a = make_coherent_product([(0.0, 0.0)])
        b = GaussianState(np.zeros(2), 2.0 * np.eye(2))
        with pytest.raises(ValueError, match="covariance"):
            overlap_trace(a, b)

    def test_covariance_tolerance_is_1e_10(self):
        a = make_coherent_product([(0.0, 0.0)])
        near = GaussianState(np.zeros(2), np.eye(2) + 5e-11)
        assert overlap_trace(a, near) == 1.0
        far = GaussianState(np.zeros(2), np.eye(2) + 2e-10)
        with pytest.raises(ValueError, match="differ beyond 1e-10"):
            overlap_trace(a, far)


class TestInvariants:
    def test_passive_ops_preserve_norm_and_identity_cov(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            state = random_coherent(rng, 3)
            norm = np.linalg.norm(state.mean)
            state = pure_loss_tap(state, 0, rng.uniform(0, 1))
            state = apply_beamsplitter(state, 0, 1, rng.uniform(0, 1))
            state = apply_beamsplitter(state, 0, 2, rng.uniform(0, 1))
            state = pure_loss_tap(state, 2, rng.uniform(0, 1))
            assert np.linalg.norm(state.mean) == pytest.approx(norm, abs=1e-12)
            assert np.max(np.abs(state.cov - np.eye(2 * state.n_modes))) < 1e-12

    def test_uncertainty_principle(self):
        rng = np.random.default_rng(7)
        state = random_coherent(rng, 2)
        state = apply_beamsplitter(state, 0, 1, 0.7)
        state, _ = homodyne_condition(state, 0, "q", 0.2)
        assert np.min(symplectic_eigenvalues(state.cov)) >= 1.0 - 1e-9
