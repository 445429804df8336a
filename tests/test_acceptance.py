"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL line of
every criterion as it completes.

Criteria 1 and 2 assert a rate floor of 1e-4 bits/use at 3 km and a
positive post-selected rate at 6 km for the default trace overlap
convention.  The exact integrals computed by this package fall far short
of those targets: under the trace convention the post-selected region
carries ~1e-10 of rate at 2 km, nothing that double precision can
resolve at 3 km, and is empty beyond 3.35 km (under the amplitude
convention, ~2e-7 at 3 km and ~4e-12 at 4 km).  The corresponding tests
are kept exactly as stated and fail honestly rather than being weakened;
see README "Numerical behaviour" for the analysis.

Criterion 7 compares the quadrature with the Monte-Carlo estimator at 0,
2 and 4 km.  At 2 km the mixture sampler resolves the ~1e-8-mass region
that post-selection keeps; at 4 km the certified keep/drop decision gives
exactly zero on both sides, since every announcement there has an exactly
negative rate.
"""

import math

import numpy as np
import pytest

from cvconf.cli import _pipeline_check, _spectrum_check, main as cli_main
from cvconf.protocol import ProtocolParams, mean_coefficients
from cvconf.rates import _rate_terms, estimate_rates_mc, quadrature_cross_check, \
    sweep_distance

SEED = 0
N_WORKERS = 2
TEMPLATE = ProtocolParams(tau=(1.0, 1.0, 1.0), sigma=(1.0, 1.0, 1.0),
                          overlap_convention="trace")


def report(number: int, name: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@pytest.fixture(scope="module")
def mc_rates():
    """Post-selected/raw rates at 0, 3 and 6 km, n = 1e7, shared by criteria 1-2."""
    out = {}
    for d in (0.0, 3.0, 6.0):
        raw, post = estimate_rates_mc(TEMPLATE.at_distance(d), 10_000_000,
                                      seed=SEED, n_workers=N_WORKERS)
        out[d] = (raw, post)
    return out


class TestCriterion1RateFloor:
    def test_rate_floor_at_3km(self, mc_rates):
        _, post = mc_rates[3.0]
        lower = post.value - 3.0 * post.std_error
        ok = lower >= 1e-4
        report(1, "rate floor at 3 km", ok,
               f"R_PS(3km) = {post.value:.3e} +- {post.std_error:.1e}, "
               f"3-sigma lower bound {lower:.3e} vs 1e-4")
        assert ok, (
            "R_PS(3 km) is far below 1e-4 under the trace convention; the "
            "positive region is astronomically thin beyond ~2 km (certified "
            "quadrature gives 0 at 3 km with 24 and 32 nodes)."
        )


class TestCriterion2PositiveRange:
    def test_positive_at_6km_and_ordering(self, mc_rates):
        post0 = mc_rates[0.0][1]
        post3 = mc_rates[3.0][1]
        post6 = mc_rates[6.0][1]
        positive = post6.value - 3.0 * post6.std_error > 0.0
        ordered = post6.value < post3.value < post0.value
        ok = positive and ordered
        report(2, "positive range to 6 km", ok,
               f"R_PS(6km) = {post6.value:.3e} +- {post6.std_error:.1e}, "
               f"ordering 6km<3km<0km = {ordered}")
        assert ok, (
            "R_PS(6 km) = 0 with zero variance under the trace convention: "
            "no sampled announcement has a positive single-point rate there."
        )


class TestCriterion3MonotoneSweep:
    def test_sweep_non_increasing(self):
        points = sweep_distance(TEMPLATE, range(8), 1_000_000,
                                seed=SEED, n_workers=N_WORKERS)
        worst = 0.0
        ok = True
        for near, far in zip(points, points[1:]):
            slack = 2.0 * math.hypot(near.estimate.std_error, far.estimate.std_error)
            excess = far.estimate.value - near.estimate.value - slack
            worst = max(worst, excess)
            ok &= excess <= 0.0
        report(3, "monotone sweep 0-7 km", ok,
               f"max adjacent increase beyond 2 combined SE: {worst:.2e}")
        assert ok


class TestCriterion4SpectrumOracle:
    def test_constructed_spectrum_matches_gram(self):
        rng = np.random.default_rng(SEED)
        max_eig_dev, max_ent_dev = np.max(
            [_spectrum_check(rng, ("trace", "amplitude")[k % 2]) for k in range(1000)], axis=0)
        ok = max_eig_dev <= 1e-10 and max_ent_dev <= 1e-9
        report(4, "spectrum oracle", ok,
               f"1000 draws, max eigenvalue dev {max_eig_dev:.2e}, "
               f"max entropy dev {max_ent_dev:.2e}")
        assert ok


class TestCriterion5PipelineOracle:
    def test_relay_pipeline_matches_analytic_density(self):
        rng = np.random.default_rng(SEED)
        max_rel = 0.0
        max_cov = 0.0
        for _ in range(1000):
            rel, cov_dev, mean_dev, min_nu = _pipeline_check(rng)
            max_rel = max(max_rel, rel)
            max_cov = max(max_cov, cov_dev)
            assert mean_dev <= 1e-12
            assert min_nu >= 1 - 1e-9
        ok = max_rel <= 1e-10 and max_cov <= 1e-12
        report(5, "pipeline oracle", ok,
               f"1000 draws, max relative density error {max_rel:.2e}, "
               f"max Eve covariance deviation {max_cov:.2e}")
        assert ok


class TestCriterion6LimitSuite:
    def test_limits_and_bounds(self):
        rng = np.random.default_rng(SEED)

        # tau = 1: the Holevo bound vanishes identically.
        params_lossless = ProtocolParams(tau=(1.0, 1.0, 1.0))
        mags = np.abs(rng.normal(0.0, 1.0, size=(10_000, 3)))
        gamma = rng.normal(0.0, 2.0, size=10_000)
        _, _, chi_lossless, _ = _rate_terms(mags, gamma, params_lossless)
        chi_lossless_ok = bool(np.max(np.abs(chi_lossless)) <= 1e-12)

        # Zero magnitudes: both information quantities vanish.
        zero_ok = True
        for _ in range(100):
            params = ProtocolParams(tau=tuple(rng.uniform(0.0, 1.0, 3) + 1e-12))
            g = rng.normal(0.0, 2.0, size=100)
            zero_mags = np.zeros((100, 3))
            _, mi, chi, _ = _rate_terms(zero_mags, g, params)
            zero_ok &= bool(np.max(mi) <= 1e-12)
            zero_ok &= bool(np.max(np.abs(chi)) <= 1e-12)

        # Bounds over 1e5 random draws.
        mi_lo = chi_lo = np.inf
        mi_hi = chi_hi = -np.inf
        for _ in range(100):
            params = ProtocolParams(
                tau=tuple(rng.uniform(0.0, 1.0, 3) + 1e-12),
                sigma=tuple(rng.uniform(0.2, 3.0, 3)),
            )
            m = np.abs(rng.normal(0.0, params.sigma, size=(1000, 3)))
            signs = rng.choice([-1.0, 1.0], size=(1000, 3))
            means = (signs * m) @ mean_coefficients(params)
            g = rng.normal(means, 1.0)
            _, mi, chi, _ = _rate_terms(m, g, params)
            mi_lo, mi_hi = min(mi_lo, mi.min()), max(mi_hi, mi.max())
            chi_lo, chi_hi = min(chi_lo, chi.min()), max(chi_hi, chi.max())
        bounds_ok = (mi_lo >= 0.0 and mi_hi <= 1.0
                     and chi_lo >= -1e-9 and chi_hi <= 1.0 + 1e-9)

        ok = chi_lossless_ok and zero_ok and bounds_ok
        report(6, "limit suite", ok,
               f"max |chi| at tau=1: {np.max(np.abs(chi_lossless)):.1e}; "
               f"zero-announcement limits hold: {zero_ok}; "
               f"MI in [{mi_lo:.1e}, {mi_hi:.6f}], chi in [{chi_lo:.1e}, {chi_hi:.6f}]")
        assert ok


class TestCriterion7EstimatorCrossValidation:
    def test_quadrature_against_monte_carlo(self):
        details = []
        ok = True
        for d in (0.0, 2.0, 4.0):
            params = TEMPLATE.at_distance(d)
            quad = quadrature_cross_check(params, nodes_per_axis=32)
            _, post = estimate_rates_mc(params, 1_000_000, seed=SEED,
                                        n_workers=N_WORKERS)
            combined = math.hypot(quad.std_error, post.std_error)
            diff = abs(quad.value - post.value)
            passed = diff <= 3.0 * combined
            ok &= passed
            details.append(f"d={d:.0f}: quad {quad.value:.3e} vs mc "
                           f"{post.value:.3e}+-{post.std_error:.1e} -> "
                           f"{'ok' if passed else 'mismatch'}")
        report(7, "estimator cross-validation", ok, "; ".join(details))
        assert ok, (
            "Quadrature and Monte Carlo disagree by more than 3 combined "
            "standard errors: " + "; ".join(details)
        )


class TestCriterion8Determinism:
    def test_csv_byte_identical_across_parallelism(self, tmp_path):
        args = ["--mode", "sweep", "--distances", "0,1,2", "--samples", "100000",
                "--seed", str(SEED)]
        path_serial = tmp_path / "serial.csv"
        path_parallel = tmp_path / "parallel.csv"
        assert cli_main(args + ["--workers", "1", "--out", str(path_serial)]) == 0
        assert cli_main(args + ["--workers", "2", "--out", str(path_parallel)]) == 0
        identical = path_serial.read_bytes() == path_parallel.read_bytes()
        report(8, "determinism across parallelism", identical,
               f"{path_serial.stat().st_size} bytes, identical = {identical}")
        assert identical
