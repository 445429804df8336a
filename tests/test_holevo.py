"""Tests for the eavesdropper state construction and Holevo bound."""

import math
from fractions import Fraction

import numpy as np
import pytest

from cvconf.gaussian import make_coherent_product, overlap_trace, pure_loss_tap
import cvconf.holevo
from cvconf.holevo import (
    _A_ROWS,
    _BITS4,
    EveDensityMatrix,
    _assemble_batch,
    _coefficient_vectors,
    _condition,
    _holevo_with_bound,
    _overlap_exponents,
    _own_tap_holevo_with_bound,
    _parity_sums,
    _RULES,
    assemble_total_state,
    eve_overlaps,
    gram_oracle_entropy,
    gram_spectrum,
    overlap_deficits_batch,
    single_point_holevo,
    von_neumann_entropy,
)
from cvconf.inference import PosteriorTable, posterior_table_batch, sign_posterior_table
from cvconf.protocol import SIGN_PATTERNS, ProtocolParams, _tap_exponents, \
    eve_conditional_means, mean_coefficients
from cvconf.rates import _rate_terms


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


def kron_overlap_matrix(overlaps):
    out = np.array([[1.0]])
    for x in overlaps:
        out = np.kron(out, np.array([[1.0, x], [x, 1.0]]))
    return out


class TestEveOverlaps:
    def test_unit_transmissivity(self):
        p = ProtocolParams(tau=(1.0, 1.0, 1.0))
        assert np.allclose(eve_overlaps((2, 3, 1), p), 1.0, atol=1e-15)

    @pytest.mark.parametrize("convention", ["trace", "amplitude"])
    def test_overlaps_and_means_are_views_of_the_tap_model(self, convention):
        """The overlap exponents are the tap exponents (halved under the
        amplitude convention) bit for bit, and the phase-space pipeline's
        means square to them."""
        rng = np.random.default_rng(38)
        for _ in range(200):
            p = random_params(rng, overlap_convention=convention)
            mags = np.abs(rng.normal(0.0, p.sigma, size=(5, 3)))
            mags[0, rng.integers(3)] = 0.0
            tap = _tap_exponents(mags, p)
            want = tap if convention == "trace" else tap / 2.0
            assert np.array_equal(_overlap_exponents(mags, p), want)
            for row, signs, exponents in zip(mags, rng.choice([-1.0, 1.0], size=(5, 3)), tap):
                means = np.array([mp for _, mp in eve_conditional_means(signs, row, p)])
                np.testing.assert_allclose(means ** 2, exponents, rtol=1e-15, atol=0.0)
                assert np.array_equal(np.sign(means), signs * (means != 0.0))

    def test_zero_magnitudes(self):
        p = ProtocolParams(tau=(0.3, 0.5, 0.7))
        assert np.allclose(eve_overlaps((0, 0, 0), p), 1.0, atol=1e-15)

    def test_trace_value_matches_phase_space_oracle(self):
        """Overlap of the two actually-tapped states, via the trace formula."""
        tau = 0.5
        p = ProtocolParams(tau=(tau, 1.0, 1.0))
        plus = pure_loss_tap(make_coherent_product([(0.0, +1.0)]), 0, tau)
        minus = pure_loss_tap(make_coherent_product([(0.0, -1.0)]), 0, tau)
        eve_plus = make_coherent_product([tuple(plus.mean[2:])])
        eve_minus = make_coherent_product([tuple(minus.mean[2:])])
        want = overlap_trace(eve_plus, eve_minus)
        got = eve_overlaps((1.0, 0.0, 0.0), p)[0]
        assert got == pytest.approx(want, rel=1e-13)
        assert got == pytest.approx(math.exp(-0.5), rel=1e-13)

    def test_amplitude_is_square_root_of_trace(self):
        rng = np.random.default_rng(31)
        taus = tuple(rng.uniform(0.1, 0.95, 3))
        mags = np.abs(rng.normal(0, 1.5, 3))
        tr = eve_overlaps(mags, ProtocolParams(tau=taus))
        am = eve_overlaps(mags, ProtocolParams(tau=taus, overlap_convention="amplitude"))
        assert np.allclose(am ** 2, tr, atol=1e-14)

    def test_batch_matches_scalar(self):
        """The rate core's batched deficits are 1 - X of the one-announcement overlaps."""
        rng = np.random.default_rng(32)
        p = random_params(rng)
        mags = np.abs(rng.normal(0, 1.5, size=(20, 3)))
        batch = overlap_deficits_batch(mags, p)
        for k in range(20):
            assert np.allclose(1.0 - batch[k], eve_overlaps(mags[k], p), atol=1e-15)


def coefficient_moduli(overlap):
    """(c0, c1) of one party from the core, at overlap X (deficit 1 - X)."""
    c0, c1 = _coefficient_vectors(np.array([1.0 - overlap]), np.array([[0.0], [1.0]]))
    return c0, c1


class TestCoefficientModuli:
    """One party's expansion moduli c0 = sqrt((1+X)/2), c1 = sqrt((1-X)/2)."""

    def test_identical_states(self):
        assert coefficient_moduli(1.0) == (1.0, 0.0)

    def test_orthogonal_states(self):
        c0, c1 = coefficient_moduli(0.0)
        assert c0 == pytest.approx(math.sqrt(0.5), abs=1e-15)
        assert c1 == pytest.approx(math.sqrt(0.5), abs=1e-15)

    def test_intermediate_overlap(self):
        c0, c1 = coefficient_moduli(math.exp(-0.5))
        assert c0 == pytest.approx(0.8962507070325338, abs=1e-14)
        assert c1 == pytest.approx(0.443547821709997, abs=1e-14)

    def test_normalised(self):
        for x in np.linspace(0, 1, 11):
            c0, c1 = coefficient_moduli(x)
            assert c0 * c0 + c1 * c1 == pytest.approx(1.0, abs=1e-12)
            # The overlap is reproduced by the expansion signs.
            assert c0 * c0 - c1 * c1 == pytest.approx(x, abs=1e-12)


def exact_parity_sums(row):
    """The Walsh-Hadamard transform of one row in exact rational arithmetic."""
    d = len(row)
    return [sum(Fraction(float(w)) * (-1) ** bin(k & t).count("1") for t, w in enumerate(row))
            for k in range(d)]


class TestParitySums:
    """S[k] = sum_t (-1)**popcount(k & t) * w[t] by the butterfly, for both state sizes."""

    @pytest.mark.parametrize("d", [8, 4])
    def test_rounding_within_log2_d_ulps_of_the_weights(self, d):
        """Off the exact transform by at most log2(d) * eps * sum |w|, the
        rounding that ``_EIG_ABS_ERR`` and the 32 ulps of ``rel`` assume."""
        rng = np.random.default_rng(61 + d)
        spread = rng.normal(0.0, 1.0, (100, d)) * 10.0 ** rng.integers(-8, 8, (100, d))
        weights = np.concatenate([rng.dirichlet(np.ones(d), 200), spread])
        sums = _parity_sums(weights)
        eps = Fraction(np.finfo(float).eps)
        for row, got in zip(weights, sums):
            scale = (d.bit_length() - 1) * eps * sum(abs(Fraction(float(w))) for w in row)
            for want, value in zip(exact_parity_sums(row), got):
                assert abs(Fraction(float(value)) - want) <= scale

    @pytest.mark.parametrize("d", [8, 4])
    def test_exact_on_dyadic_weights(self, d):
        rng = np.random.default_rng(71 + d)
        weights = rng.integers(-2 ** 20, 2 ** 20, (100, d)) / 2.0 ** 12
        for row, got in zip(weights, _parity_sums(weights)):
            assert [Fraction(float(value)) for value in got] == exact_parity_sums(row)

    @pytest.mark.parametrize("d", [8, 4])
    def test_same_bits_for_any_layout_and_batch(self, d):
        """C-ordered, Fortran-ordered and strided weights give the same
        bits, and so does a row alone against its row in a 4096-row tile."""
        rng = np.random.default_rng(81 + d)
        weights = rng.dirichlet(np.ones(d), 4096)
        batch = _parity_sums(weights)
        strided = np.zeros((4096, 3 * d))
        strided[:, ::3] = weights
        for layout in (np.asfortranarray(weights), strided[:, ::3], weights.reshape(2048, 2, d)):
            assert _parity_sums(layout).tobytes() == batch.tobytes()
        assert _parity_sums(weights[::-1])[::-1].tobytes() == batch.tobytes()
        for i in (0, 1, 2047, 4095):
            assert _parity_sums(weights[i]).tobytes() == batch[i].tobytes()
            assert _parity_sums(weights[i:i + 1]).tobytes() == batch[i:i + 1].tobytes()

    def test_basis_rows_are_the_binary_digits_of_their_index(self):
        """The butterfly's order: row r of each basis holds r's bits, most
        significant first, so the parity sum of entry (r, c) is S[r XOR c]."""
        for d, (bits, xor) in _RULES.items():
            assert np.array_equal(bits @ 2.0 ** np.arange(bits.shape[1])[::-1], np.arange(d))
            assert np.array_equal(bits[xor], np.abs(bits[:, None, :] - bits[None, :, :]))


class TestAssembleTotalState:
    def test_uniform_orthogonal_is_maximally_mixed(self):
        table = PosteriorTable(np.full(8, 0.125))
        rho = assemble_total_state(table, (0.0, 0.0, 0.0))
        assert np.allclose(rho.matrix, np.eye(8) / 8.0, atol=1e-14)
        assert von_neumann_entropy(rho) == pytest.approx(3.0, abs=1e-12)

    def test_unit_overlaps_are_pure(self):
        rng = np.random.default_rng(33)
        table = PosteriorTable(rng.dirichlet(np.ones(8)))
        rho = assemble_total_state(table, (1.0, 1.0, 1.0))
        eigs = np.linalg.eigvalsh(rho.matrix)
        assert eigs[-1] == pytest.approx(1.0, abs=1e-12)
        assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("overlaps", [(2.0, 0.5, 0.5), (math.nan, 0.5, 0.5),
                                          (-0.1, 0.5, 0.5), (0.5, 0.5, math.inf)])
    def test_rejects_overlaps_outside_the_unit_interval(self, overlaps):
        """Named before any square root, rather than built into a NaN matrix."""
        table = PosteriorTable(np.full(8, 0.125))
        with pytest.raises(ValueError, match="overlaps must lie in"):
            assemble_total_state(table, overlaps)

    def test_rejects_wrong_overlap_count(self):
        with pytest.raises(ValueError, match="overlaps"):
            assemble_total_state(PosteriorTable(np.full(8, 0.125)), (0.5, 0.5))

    def test_valid_density_matrix(self):
        rng = np.random.default_rng(34)
        for _ in range(50):
            p = random_params(rng)
            mags, gamma = random_announcement(rng, p)
            rho = assemble_total_state(
                sign_posterior_table(mags, gamma, p), eve_overlaps(mags, p))
            rho.validate()

    def test_spectrum_matches_gram_oracle(self):
        rng = np.random.default_rng(35)
        for _ in range(200):
            p = random_params(rng)
            mags, gamma = random_announcement(rng, p)
            table = sign_posterior_table(mags, gamma, p)
            overlaps = eve_overlaps(mags, p)
            constructed = np.linalg.eigvalsh(assemble_total_state(table, overlaps).matrix)
            root = np.sqrt(table.probs)
            gram = kron_overlap_matrix(overlaps) * np.outer(root, root)
            oracle = np.linalg.eigvalsh(gram)
            assert np.max(np.abs(constructed - oracle)) <= 1e-10


def conditional_state(table, overlaps, sign):
    """The 4x4 state conditioned on A's sign, as the Holevo core assembles
    it (its marginal split, then B's and C's overlaps)."""
    _, cond = _condition(table.probs[None, :])
    rest = 1.0 - np.asarray(overlaps, dtype=float)[1:]
    return EveDensityMatrix(_assemble_batch(cond[0, 0 if sign == 1 else 1], rest))


class TestAssembleConditionalState:
    def test_uniform_orthogonal(self):
        table = PosteriorTable(np.full(8, 0.125))
        rho = conditional_state(table, (0.5, 0.0, 0.0), 1)
        assert np.allclose(rho.matrix, np.eye(4) / 4.0, atol=1e-14)
        assert von_neumann_entropy(rho) == pytest.approx(2.0, abs=1e-12)

    def test_unit_remaining_overlaps_are_pure(self):
        rng = np.random.default_rng(36)
        table = PosteriorTable(rng.dirichlet(np.ones(8)))
        rho = conditional_state(table, (0.3, 1.0, 1.0), -1)
        assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-10)

    def test_zero_marginal_falls_back_to_uniform(self):
        probs = np.zeros(8)
        probs[:4] = 0.25  # A never +1
        rho = conditional_state(PosteriorTable(probs), (0.5, 0.0, 0.0), 1)
        assert np.allclose(rho.matrix, np.eye(4) / 4.0, atol=1e-14)

    def test_entropy_matches_four_dim_gram_oracle(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            p = random_params(rng)
            mags, gamma = random_announcement(rng, p)
            table = sign_posterior_table(mags, gamma, p)
            overlaps = eve_overlaps(mags, p)
            for sign in (1, -1):
                mask = SIGN_PATTERNS[:, 0] == sign
                marg = table.probs[mask].sum()
                if marg <= 0:
                    continue
                rho = conditional_state(table, overlaps, sign)
                want = gram_oracle_entropy(table.probs[mask] / marg, overlaps[1:])
                assert von_neumann_entropy(rho) == pytest.approx(want, abs=1e-9)


class TestVonNeumannEntropy:
    def test_maximally_mixed(self):
        assert von_neumann_entropy(np.eye(8) / 8.0) == pytest.approx(3.0, abs=1e-12)

    def test_rank_one_projector(self):
        v = np.zeros(8)
        v[3] = 1.0
        assert von_neumann_entropy(np.outer(v, v)) == 0.0

    def test_two_level_mixture(self):
        rho = np.zeros((8, 8))
        rho[0, 0] = rho[1, 1] = 0.5
        assert von_neumann_entropy(rho) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            von_neumann_entropy(np.eye(8) / 4.0)

    def test_rejects_negative_eigenvalue(self):
        rho = np.eye(4) / 2.0
        rho[3, 3] = -0.5
        with pytest.raises(ValueError, match="negative"):
            von_neumann_entropy(rho)

    def test_rejects_asymmetric(self):
        rho = np.eye(4) / 4.0
        rho[0, 1] = 1e-6
        with pytest.raises(ValueError, match="symmetric"):
            von_neumann_entropy(rho)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, value):
        """A NaN matrix once reached the eigensolver, which raised
        LinAlgError; an infinite entry makes m - m.T NaN."""
        for rho in (np.full((8, 8), value), np.diag([value] + [1.0 / 7.0] * 7)):
            with pytest.raises(ValueError, match="finite"):
                von_neumann_entropy(rho)

    def test_diagonalises_once(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a):
            calls.append(np.shape(a))
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        assert von_neumann_entropy(np.eye(8) / 8.0) == pytest.approx(3.0, abs=1e-12)
        assert calls == [(8, 8)]


class TestGramOracleEntropy:
    def test_uniform_orthogonal(self):
        assert gram_oracle_entropy(np.full(8, 0.125), (0, 0, 0)) == pytest.approx(
            3.0, abs=1e-12)

    def test_unit_overlaps(self):
        rng = np.random.default_rng(38)
        weights = rng.dirichlet(np.ones(8))
        assert gram_oracle_entropy(weights, (1, 1, 1)) == pytest.approx(0.0, abs=1e-10)

    def test_rejects_mismatched_sizes(self):
        with pytest.raises(ValueError, match="weights"):
            gram_oracle_entropy(np.full(8, 0.125), (0.5, 0.5))

    @pytest.mark.parametrize("weights", [[math.nan] * 8, [0.25] * 4 + [math.nan] * 4,
                                         [0.375] + [0.125] * 6 + [-0.125], [0.25] * 8])
    def test_rejects_weights_that_are_not_a_probability_vector(self, weights):
        """NaN weights are named, rather than left to the eigensolver."""
        with pytest.raises(ValueError, match="weights must be a probability vector"):
            gram_spectrum(weights, (0.5, 0.5, 0.5))
        with pytest.raises(ValueError, match="weights must be a probability vector"):
            gram_oracle_entropy(weights, (0.5, 0.5, 0.5))

    @pytest.mark.parametrize("overlaps", [(2.0, 0.5, 0.5), (math.nan, 0.5, 0.5),
                                          (0.5, -1e-3, 0.5)])
    def test_rejects_overlaps_outside_the_unit_interval(self, overlaps):
        """Named, rather than returning a negative eigenvalue (-0.28 at X_A = 2)."""
        with pytest.raises(ValueError, match="overlaps must lie in"):
            gram_spectrum(np.full(8, 0.125), overlaps)
        with pytest.raises(ValueError, match="overlaps must lie in"):
            gram_oracle_entropy(np.full(8, 0.125), overlaps)

    def test_rejects_a_conditional_overlap_outside_the_unit_interval(self):
        with pytest.raises(ValueError, match="overlaps must lie in"):
            gram_spectrum(np.full(4, 0.25), (0.5, 1.5))

    def test_fock_space_anchor(self):
        """Independent of every package code path: the amplitude-convention
        total-state entropy equals a truncated Fock-space construction of
        the eight tapped coherent product states."""
        tau = np.array([0.6, 0.8, 0.45])
        mags = np.array([1.1, 0.4, 0.9])
        p = ProtocolParams(tau=tuple(tau), overlap_convention="amplitude")
        table = sign_posterior_table(mags, 0.7, p)

        # Tapped amplitudes satisfy |beta| < 0.5, so ten Fock levels leave
        # truncation error far below the assertion tolerance.
        cutoff = 10
        n = np.arange(cutoff)
        log_fact = np.array([math.lgamma(k + 1.0) for k in n])

        def coherent(beta):
            if beta == 0:
                vec = np.zeros(cutoff, dtype=complex)
                vec[0] = 1.0
                return vec
            return np.exp(-0.5 * abs(beta) ** 2
                          + n * np.log(complex(beta)) - 0.5 * log_fact)

        kets = []
        for signs in SIGN_PATTERNS:
            parts = [coherent(1j * s * math.sqrt(1 - t) * m / 2.0)
                     for s, t, m in zip(signs, tau, mags)]
            kets.append(np.kron(np.kron(parts[0], parts[1]), parts[2]))
        kets = np.array(kets)
        rho = np.einsum("t,ti,tj->ij", table.probs, kets, kets.conj())
        eigs = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
        eigs = eigs[eigs > 1e-13]
        fock_entropy = float(-(eigs * np.log2(eigs)).sum())

        overlaps = eve_overlaps(mags, p)
        rho_fin = assemble_total_state(table, overlaps)
        assert von_neumann_entropy(rho_fin) == pytest.approx(fock_entropy, abs=1e-9)
        assert gram_oracle_entropy(table.probs, overlaps) == pytest.approx(
            fock_entropy, abs=1e-9)


class TestSinglePointHolevo:
    def test_unit_transmissivity_gives_zero(self):
        p = ProtocolParams(tau=(1.0, 1.0, 1.0))
        assert abs(single_point_holevo((1.5, 0.3, 2.0), 0.7, p)) <= 1e-12

    def test_zero_magnitudes_give_zero(self):
        p = ProtocolParams(tau=(0.5, 0.6, 0.7))
        assert abs(single_point_holevo((0, 0, 0), 0.7, p)) <= 1e-12

    def test_frozen_interior_value(self):
        p = ProtocolParams(tau=(0.5, 0.5, 0.5), sigma=(1.0, 1.0, 1.0))
        chi = single_point_holevo((1, 1, 1), 0.0, p)
        assert 0.0 < chi < 1.0
        assert chi == pytest.approx(0.7211412974922284, abs=1e-11)

    @staticmethod
    def gram_holevo(table, overlaps):
        """chi on A's sign with both terms from the Gram oracle."""
        s_cond = 0.0
        for sign in (1, -1):
            mask = SIGN_PATTERNS[:, 0] == sign
            marg = table.probs[mask].sum()
            if marg > 0:
                s_cond += marg * gram_oracle_entropy(table.probs[mask] / marg, overlaps[1:])
        return gram_oracle_entropy(table.probs, overlaps) - s_cond

    def test_equals_gram_oracle_composition(self):
        """Both Holevo terms evaluated through the independent Gram route:
        the 8x8 state and A's two 4x4 conditional states."""
        rng = np.random.default_rng(39)
        for _ in range(50):
            p = random_params(rng)
            mags, gamma = random_announcement(rng, p)
            table = sign_posterior_table(mags, gamma, p)
            overlaps = eve_overlaps(mags, p)
            assert single_point_holevo(mags, gamma, p) == pytest.approx(
                self.gram_holevo(table, overlaps), abs=1e-9)
        # Unit remaining overlaps: A's conditional states are pure, so chi(A)
        # is the total entropy alone.
        p = ProtocolParams(tau=(0.3, 1.0, 1.0))
        mags, gamma = np.array([1.5, 0.7, 1.2]), 0.4
        table = sign_posterior_table(mags, gamma, p)
        overlaps = eve_overlaps(mags, p)
        s_tot = gram_oracle_entropy(table.probs, overlaps)
        assert s_tot > 0.01
        assert self.gram_holevo(table, overlaps) == pytest.approx(s_tot, abs=1e-12)
        assert single_point_holevo(mags, gamma, p) == pytest.approx(s_tot, abs=1e-9)

    def test_bounds_and_subadditivity_direction(self):
        rng = np.random.default_rng(40)
        p = random_params(rng)
        mags = np.abs(rng.normal(0, p.sigma, size=(10_000, 3)))
        means = (mags * mean_coefficients(p)) @ SIGN_PATTERNS.T
        gamma = rng.normal(means[:, 0], 1.0)
        chi = _rate_terms(mags, gamma, p).chi
        assert np.all(chi >= -1e-9)
        assert np.all(chi <= 1.0 + 1e-9)

    def test_outcome_parity(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            p = random_params(rng)
            mags, gamma = random_announcement(rng, p)
            assert single_point_holevo(mags, gamma, p) == pytest.approx(
                single_point_holevo(mags, -gamma, p), abs=1e-10)

    def test_more_leakage_never_reduces_holevo(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            sigma = tuple(rng.uniform(0.5, 2.0, 3))
            mags = np.abs(rng.normal(0, sigma))
            gamma = rng.normal(0, 2)
            last = -1e-9
            for scale in (1.0, 0.85, 0.6, 0.35, 0.15):
                p = ProtocolParams(tau=(scale, scale, scale), sigma=sigma)
                chi = single_point_holevo(mags, gamma, p)
                assert chi >= last - 1e-9
                last = chi

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(43)
        p = random_params(rng)
        mags = np.abs(rng.normal(0, p.sigma, size=(50, 3)))
        gamma = rng.normal(0, 2, 50)
        tables = posterior_table_batch(mags, gamma, p)
        batch = _holevo_with_bound(tables, overlap_deficits_batch(mags, p), 0.0)[0]
        for k in range(50):
            assert batch[k] == pytest.approx(
                single_point_holevo(mags[k], gamma[k], p), abs=1e-11)

    @pytest.mark.parametrize("convention", ["trace", "amplitude"])
    def test_equals_its_row_in_a_batch(self, convention):
        """An announcement's chi does not depend on the rows evaluated with
        it: alone it gets its row's value in a batch, bit for bit (projected
        onto [0, 1]).  The conditional weights once reached the 4x4 parity
        sums in another memory layout for one row than for many."""
        rng = np.random.default_rng(47)
        for _ in range(4):
            p = random_params(rng, overlap_convention=convention)
            wide = rng.choice([1.0, 3.0], (100, 1))
            mags = np.abs(rng.normal(0.0, p.sigma, size=(100, 3))) * wide
            gamma = rng.normal((rng.choice([-1.0, 1.0], (100, 3)) * mags) @ mean_coefficients(p))
            tables = posterior_table_batch(mags, gamma, p)
            batch = _holevo_with_bound(tables, overlap_deficits_batch(mags, p), 0.0)[0]
            alone = [single_point_holevo(m, g, p) for m, g in zip(mags, gamma)]
            assert alone == [min(max(chi, 0.0), 1.0) for chi in batch]

    def test_out_of_range_raises(self, monkeypatch):
        """The range check raises ValueError, so it also holds under
        ``python -O``, which strips assertions."""
        def too_large(lam, rel_err, abs_err):
            value = 2.0 if lam.shape[-1] == 8 else 0.0
            return np.full(lam.shape[:-1], value), np.zeros(lam.shape[:-1])

        monkeypatch.setattr(cvconf.holevo, "_entropy_with_bound", too_large)
        with pytest.raises(ValueError, match="outside"):
            single_point_holevo((1, 1, 1), 0.0, ProtocolParams(tau=(0.5, 0.5, 0.5)))

    def test_is_the_core_at_one_announcement(self):
        """Bit for bit the batched core's value, projected onto [0, 1]."""
        rng = np.random.default_rng(46)
        for _ in range(30):
            p = random_params(rng, overlap_convention=rng.choice(["trace", "amplitude"]))
            mags, gamma = random_announcement(rng, p)
            table = sign_posterior_table(mags, gamma, p)
            deficits = overlap_deficits_batch(mags[None, :], p)
            chi = _holevo_with_bound(table.probs[None, :], deficits, 0.0)[0][0]
            assert single_point_holevo(mags, gamma, p) == min(max(chi, 0.0), 1.0)

    @pytest.mark.parametrize("convention", ["trace", "amplitude"])
    def test_never_negative_at_unit_transmissivity(self, convention):
        """At tau = 1 every overlap is 1 and chi is exactly 0; rounding once
        gave about -1e-16 for a third of such announcements."""
        p = ProtocolParams(tau=(1.0, 1.0, 1.0), overlap_convention=convention)
        assert single_point_holevo((1.5, 0.75, 0.25), 2.0, p) >= 0.0
        rng = np.random.default_rng(44)
        for _ in range(200):
            mags = np.abs(rng.normal(0.0, 1.0, 3))
            gamma = rng.normal(0.0, 2.0)
            assert 0.0 <= single_point_holevo(mags, gamma, p) <= 1e-12

    @pytest.mark.parametrize("convention", ["trace", "amplitude"])
    def test_exactly_zero_at_unit_transmissivity(self, convention, monkeypatch):
        """At tau = 1 no state is assembled: the one-announcement view and
        the rate core over a batch both give exactly 0."""
        def refuse(*args):
            raise AssertionError("a state was assembled")

        monkeypatch.setattr(cvconf.holevo, "_assemble_batch", refuse)
        p = ProtocolParams(tau=(1.0, 1.0, 1.0), overlap_convention=convention)
        assert single_point_holevo((1.5, 0.75, 0.25), 2.0, p) == 0.0
        rng = np.random.default_rng(45)
        mags = np.abs(rng.normal(0.0, 1.0, size=(100, 3)))
        gamma = rng.normal(0.0, 2.0, 100)
        for m, g in zip(mags, gamma):
            assert single_point_holevo(m, g, p) == 0.0
        assert np.all(_rate_terms(mags, gamma, p).chi == 0.0)


class TestEveDensityMatrixType:
    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="4x4 or 8x8"):
            EveDensityMatrix(np.eye(3) / 3.0)


class TestExactZeros:
    """Where every overlap is 1, chi is exactly 0 and no spectrum is computed."""

    @staticmethod
    def batch(rng, n=400):
        mags = np.abs(rng.normal(0.0, 2.0, size=(n, 3)))
        gamma = rng.normal(0.0, 2.0, n)
        return mags, gamma

    @pytest.mark.parametrize("convention", ["trace", "amplitude"])
    def test_unit_transmissivity_runs_no_spectrum(self, convention, monkeypatch):
        calls = []

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(cvconf.holevo, "_assemble_batch",
                            counting("assemble", cvconf.holevo._assemble_batch))
        monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh))
        p = ProtocolParams(tau=(1.0, 1.0, 1.0), overlap_convention=convention)
        mags, gamma = self.batch(np.random.default_rng(70))
        tables = posterior_table_batch(mags, gamma, p)
        chi, bound = _holevo_with_bound(tables, overlap_deficits_batch(mags, p), 1e-14)
        assert np.array_equal(chi, np.zeros(len(mags)))
        assert np.array_equal(bound, np.zeros(len(mags)))
        assert calls == []

    def test_unit_overlap_alone_leaves_chi(self):
        """A lossless tap on A does not hide A's sign when B's and C's taps
        are lossy: the posterior correlates the signs."""
        p = ProtocolParams(tau=(1.0, 0.5, 0.5))
        mags, gamma = (1.0, 1.0, 1.0), 0.5
        table = sign_posterior_table(mags, gamma, p)
        overlaps = eve_overlaps(mags, p)
        assert overlaps[0] == 1.0
        want = gram_oracle_entropy(table.probs, overlaps) - sum(
            table.probs[mask].sum() * gram_oracle_entropy(
                table.probs[mask] / table.probs[mask].sum(), overlaps[1:])
            for mask in (SIGN_PATTERNS[:, 0] > 0, SIGN_PATTERNS[:, 0] < 0))
        assert want > 0.01
        assert single_point_holevo(mags, gamma, p) == pytest.approx(want, abs=1e-9)
        chi, _ = _holevo_with_bound(table.probs[None, :],
                                    overlap_deficits_batch(np.array([mags]), p), 0.0)
        assert chi[0] == pytest.approx(want, abs=1e-9)


class TestOwnTapHolevo:
    """chi(A; E_A) in closed form against the Gram spectrum of the two tap states."""

    @pytest.mark.parametrize("convention", ["trace", "amplitude"])
    def test_matches_gram_oracle(self, convention):
        rng = np.random.default_rng(49)
        params = random_params(rng, overlap_convention=convention)
        mags = np.abs(rng.normal(0.0, 2.0, size=(300, 3)))
        gamma = rng.normal(0.0, 3.0, 300)
        tables = posterior_table_batch(mags, gamma, params)
        deficits = overlap_deficits_batch(mags, params)
        chi, bound = _own_tap_holevo_with_bound(tables, deficits, 0.0)
        for k in range(300):
            p, q = tables[k, SIGN_PATTERNS[:, 0] > 0].sum(), tables[k, SIGN_PATTERNS[:, 0] < 0].sum()
            want = gram_oracle_entropy([p, q], [eve_overlaps(mags[k], params)[0]])
            assert chi[k] == pytest.approx(want, abs=1e-12)
        assert np.all(bound >= 0.0) and np.all(bound < 1e-13)

    @pytest.mark.parametrize("weights, overlap, want", [
        ((0.5, 0.5), 0.0, 1.0),    # orthogonal, equally likely: one bit
        ((0.5, 0.5), 1.0, 0.0),    # identical states
        ((1.0, 0.0), 0.3, 0.0),    # a certain sign
    ])
    def test_limits(self, weights, overlap, want):
        tables = np.zeros((1, 8))
        tables[0, 4:] = weights[0] / 4.0
        tables[0, :4] = weights[1] / 4.0
        chi, bound = _own_tap_holevo_with_bound(tables, np.full((1, 3), 1.0 - overlap), 0.0)
        assert chi[0] == pytest.approx(want, abs=1e-15)
        assert chi[0] == pytest.approx(gram_oracle_entropy(weights, [overlap]), abs=1e-15)
        assert 0.0 <= bound[0] < 1e-14


    @pytest.mark.parametrize("convention", ["trace", "amplitude"])
    def test_exactly_zero_without_own_deficit(self, convention):
        """Where A's own deficit is exactly 0, A's two tap states coincide:
        chi(A; E_A) and its bound are exactly 0 whatever B's and C's taps, and
        each row's values are its own beside lossy rows.  The closed form once
        left up to 4.8e-16 on a fifth of the rows at 0 km."""
        rng = np.random.default_rng(50)
        mags = np.abs(rng.normal(0.0, 2.0, size=(400, 3)))
        gamma = rng.normal(0.0, 3.0, 400)
        params = ProtocolParams(tau=(1.0, 0.6, 0.6), overlap_convention=convention)
        tables = posterior_table_batch(mags, gamma, params)
        deficits = overlap_deficits_batch(mags, params)
        assert not deficits[:, 0].any() and deficits[:, 1:].all()
        chi, bound = _own_tap_holevo_with_bound(tables, deficits, 1e-10)
        assert not chi.any() and not bound.any()

        mags[::2, 0] = 0.0  # lossy taps, but no deficit on A's where mag_A = 0
        params = ProtocolParams(tau=(0.6, 0.6, 0.6), overlap_convention=convention)
        tables = posterior_table_batch(mags, gamma, params)
        deficits = overlap_deficits_batch(mags, params)
        chi, bound = _own_tap_holevo_with_bound(tables, deficits, 1e-10)
        assert not chi[::2].any() and not bound[::2].any()
        assert np.all(chi[1::2] > 0.0) and np.all(bound[1::2] > 0.0)
        for k in range(6):
            one = slice(k, k + 1)
            alone = _own_tap_holevo_with_bound(tables[one], deficits[one], 1e-10)
            assert (chi[k], bound[k]) == (alone[0][0], alone[1][0])


class TestHolevoCore:
    """The batched core checks every spectrum it computes."""

    def test_sign_rows_follow_the_table_order(self):
        """A's rows and the 4x4 basis bits, derived from ``SIGN_PATTERNS``."""
        assert np.array_equal(_A_ROWS, np.array([[4, 5, 6, 7], [0, 1, 2, 3]]))
        assert np.array_equal(_BITS4, np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float))

    def test_rejects_bad_trace(self):
        tables = np.full((2, 8), 0.25)  # each row sums to 2
        with pytest.raises(ValueError, match="trace"):
            _holevo_with_bound(tables, np.full((2, 3), 0.5), 0.0)

    def test_rejects_negative_eigenvalue(self):
        # With every overlap 0 the total state's spectrum is the table itself.
        probs = np.full(8, 1.1 / 7.0)
        probs[0] = -0.1
        with pytest.raises(ValueError, match="negative"):
            _holevo_with_bound(probs[None, :], np.ones((1, 3)), 0.0)

    @pytest.mark.parametrize("certain_bit", [0, 1])
    def test_certain_sign_matches_gram_composition(self, certain_bit):
        """A's sign is certain, so one conditional marginal is exactly 0 and
        its state falls back to the uniform conditional with weight 0."""
        rng = np.random.default_rng(47 + certain_bit)
        known = SIGN_PATTERNS[:, 0] == 2 * certain_bit - 1
        for _ in range(20):
            probs = np.zeros(8)
            probs[known] = rng.dirichlet(np.ones(4))
            overlaps = rng.uniform(0.05, 0.95, 3)
            want = gram_oracle_entropy(probs, overlaps) - gram_oracle_entropy(
                probs[known], overlaps[1:])
            chi, bound = _holevo_with_bound(probs[None, :], 1.0 - overlaps[None, :], 0.0)
            assert chi[0] == pytest.approx(want, abs=1e-9)
            assert np.isfinite(bound[0]) and bound[0] >= 0.0
