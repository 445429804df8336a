r"""Fixed structure of the three-party relay protocol.

Three parties prepare Gaussian-modulated coherent states whose quadrature
signs carry the raw key material and whose magnitudes are announced.  Each
channel suffers pure loss (an eavesdropper beamsplitter of transmissivity
tau_i); the surviving modes are combined in a two-beamsplitter cascade
(T1 = 1/2 between A and B, then T2 = 2/3 with C) and homodyned: the two
relative ports in q and the sum port in p, and the parties reconcile the
p-quadrature signs.

The outcome model is written once: :func:`_outcome_exponents` gives the
log-likelihood, up to a constant, of the reconciled homodyne result under
each of the eight sign triples, in ``SIGN_PATTERNS`` order.  The sign
posterior both rate estimators use, the quadrature's joint density and the
one-announcement :func:`outcome_density` are views of it, so the full
phase-space pipeline built on :mod:`cvconf.gaussian`, its independent
oracle, checks the likelihood the estimators use.  Its draw side,
:func:`_draw_outcomes`, sits beside it: the Monte-Carlo estimator and both
oracle suites draw their outcomes from it.

So is the tap model, :func:`_tap_exponents`: the eavesdropper's means
that the pipeline checks and the overlaps behind every Holevo value are
views of it.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, replace

import numpy as np

from .gaussian import GaussianState, homodyne_condition, apply_beamsplitter, \
    make_coherent_product, pure_loss_tap

__all__ = [
    "CASCADE_T1",
    "CASCADE_T2",
    "SIGN_PATTERNS",
    "ProtocolParams",
    "RelayResult",
    "transmissivity_from_distance",
    "mean_coefficients",
    "outcome_density",
    "eve_conditional_means",
    "simulate_relay",
]

# Cascade transmissivities T_i = i/(i+1) for three parties.
CASCADE_T1 = 0.5
CASCADE_T2 = 2.0 / 3.0

# All eight sign triples (A, B, C), ordered with A as the most significant
# bit and -1 before +1:  (---, --+, -+-, -++, +--, +-+, ++-, +++).
# This ordering indexes posterior tables and the overlap-matrix basis.
SIGN_PATTERNS = np.array(
    [[2 * ((t >> 2) & 1) - 1, 2 * ((t >> 1) & 1) - 1, 2 * (t & 1) - 1]
     for t in range(8)],
    dtype=float,
)

_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class ProtocolParams:
    """Everything that determines the protocol's densities.

    Attributes
    ----------
    tau : (float, float, float)
        Channel transmissivities for parties A, B, C, each in (0, 1].
    sigma : (float, float, float)
        Modulation standard deviations (shot-noise units), each > 0.
    attenuation_db_per_km : float
        Fibre loss; tau = 10**(-d * attenuation_db_per_km / 10).
    overlap_convention : {"trace", "amplitude"}
        Whether the eavesdropper's pairwise state overlap is taken as the
        two-state trace formula or its square root; see
        :func:`cvconf.holevo.eve_overlaps`.
    """

    tau: tuple[float, float, float]
    sigma: tuple[float, float, float] = (1.0, 1.0, 1.0)
    attenuation_db_per_km: float = 0.2
    overlap_convention: str = "trace"

    def __post_init__(self):
        tau = _floats(self.tau, "tau")
        sigma = _floats(self.sigma, "sigma")
        if tau.shape != (3,) or not all(0.0 < t <= 1.0 for t in tau.tolist()):
            raise ValueError("tau must be three transmissivities in (0, 1]")
        if sigma.shape != (3,) or not all(0.0 < s < math.inf for s in sigma.tolist()):
            raise ValueError("sigma must be three positive finite standard deviations")
        if not (isinstance(self.attenuation_db_per_km, numbers.Real)
                and 0.0 <= self.attenuation_db_per_km < math.inf):
            raise ValueError("attenuation_db_per_km must be finite and non-negative, "
                             f"got {self.attenuation_db_per_km!r}")
        if self.overlap_convention not in ("trace", "amplitude"):
            raise ValueError("overlap_convention must be 'trace' or 'amplitude'")
        object.__setattr__(self, "tau", tuple(tau.tolist()))
        object.__setattr__(self, "sigma", tuple(sigma.tolist()))

    @property
    def attenuation_exponent(self) -> float:
        """Per-km exponent g in tau = 10**(-g*d); equals dB/km divided by 10."""
        return self.attenuation_db_per_km / 10.0

    def at_distance(self, distance_km: float) -> "ProtocolParams":
        """Symmetric configuration at the given relay distance."""
        t = transmissivity_from_distance(distance_km, self.attenuation_exponent)
        return replace(self, tau=(t, t, t))


@dataclass(frozen=True)
class RelayResult:
    """Outcome of one phase-space run of the relay pipeline."""

    likelihoods: tuple[float, float, float]
    eve_state: GaussianState

    @property
    def reconciled_likelihood(self) -> float:
        """Density of the reconciled-quadrature outcome (the final homodyne)."""
        return self.likelihoods[2]


def transmissivity_from_distance(distance_km: float, attenuation_exponent: float) -> float:
    """Map a fibre length to a transmissivity via tau = 10**(-g*d).

    A distance that is not a real number, or is NaN, infinite or negative,
    raises ValueError naming it, and so does one so far that tau underflows
    to 0 (beyond about 16 000 km at 0.2 dB/km).
    A non-real, NaN, infinite or negative ``attenuation_exponent`` raises
    ValueError naming it, as a negative one would give tau > 1.
    """
    if not (isinstance(distance_km, numbers.Real) and 0.0 <= distance_km < math.inf):
        raise ValueError(f"distance_km must be finite and non-negative, got {distance_km!r}")
    if not (isinstance(attenuation_exponent, numbers.Real)
            and 0.0 <= attenuation_exponent < math.inf):
        raise ValueError("attenuation_exponent must be finite and non-negative, "
                         f"got {attenuation_exponent!r}")
    tau = 10.0 ** (-attenuation_exponent * distance_km)
    if tau == 0.0:
        raise ValueError(f"distance_km {distance_km!r} is too far: the transmissivity "
                         f"10**(-{attenuation_exponent!r} * distance_km) underflows to 0")
    return tau


def mean_coefficients(params: ProtocolParams) -> np.ndarray:
    """Coefficients (w_A, w_B, w_C) of sign_i*mag_i in the reconciled outcome mean.

    w_A = sqrt(T1*T2*tau_A), w_B = sqrt((1-T1)*T2*tau_B),
    w_C = sqrt((1-T2)*tau_C).  For equal tau the three are equal, which is
    what makes the symmetric configuration exactly balanced.
    """
    ta, tb, tc = params.tau
    return np.array([
        math.sqrt(CASCADE_T1 * CASCADE_T2 * ta),
        math.sqrt((1.0 - CASCADE_T1) * CASCADE_T2 * tb),
        math.sqrt((1.0 - CASCADE_T2) * tc),
    ])


def _floats(values, name: str) -> np.ndarray:
    """``values`` as a float array, or ValueError naming ``name`` if they are not numbers."""
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be real numbers, got {values!r}") from None


def _check_signs(signs) -> np.ndarray:
    s = _floats(signs, "signs")
    if s.shape != (3,) or not np.all(np.abs(s) == 1.0):
        raise ValueError("signs must be three values in {-1, +1}")
    return s


def _check_mags(mags) -> np.ndarray:
    m = _floats(mags, "magnitudes")
    if m.shape != (3,) or not np.all(m >= 0.0) or not np.all(np.isfinite(m)):
        raise ValueError("magnitudes must be three finite non-negative reals")
    return m


def _one_announcement(mags, gamma) -> tuple[np.ndarray, np.ndarray]:
    """Checked magnitudes and outcome as the (1, 3) and (1,) batch of one announcement."""
    try:
        g = float(gamma)
    except (TypeError, ValueError):
        raise ValueError(f"the outcome gamma must be a real number, got {gamma!r}") from None
    if not math.isfinite(g):
        raise ValueError("the outcome gamma must be finite")
    m = _check_mags(mags)
    # The posterior table and its error bound square this spread (every w_i <= 1).
    spread = abs(g) + sum(m.tolist())
    if not math.isfinite(32.0 * spread * spread):
        raise ValueError("gamma and mags are too large: 32*(|gamma| + sum(mags))**2 overflows")
    return m[None, :], np.array([g])


def _outcome_exponents(mags: np.ndarray, gamma: np.ndarray,
                       params: ProtocolParams) -> np.ndarray:
    """The outcome model: (n, 8) exponents -(gamma - sum_i w_i * s_i * mag_i)**2 / 2
    of (n, 3) magnitudes and (n,) outcomes, one column per sign triple s in
    ``SIGN_PATTERNS`` order.

    Given the signs, the reconciled outcome is a unit-variance normal centred
    on sum_i w_i * s_i * mag_i; the unit conditional variance is what pure
    loss plus perfect homodyne detection produce in shot-noise units
    (verified against :func:`simulate_relay`).
    """
    means = (np.asarray(mags) * mean_coefficients(params)) @ SIGN_PATTERNS.T
    return -0.5 * (np.asarray(gamma)[:, None] - means) ** 2


def _draw_outcomes(rng: np.random.Generator, signs, mags,
                   grid: Sequence[ProtocolParams]) -> Iterator[np.ndarray]:
    """The draw side of :func:`_outcome_exponents`, at each params of ``grid``:
    reconciled outcomes ~ N(sum_i w_i * s_i * mag_i, 1) for signs and
    magnitudes (..., 3).

    One standard normal of ``rng`` is drawn per outcome, once for the whole
    grid, and each params' outcomes are its own mean plus those normals
    (common random numbers).  For one params these are the bits that
    ``rng.normal(mean, 1.0)`` draws.  Returns an iterator over the grid that
    forms each params' outcomes as it is read.
    """
    noise = rng.standard_normal(np.shape(signs)[:-1])
    return ((signs * mags) @ mean_coefficients(params) + noise for params in grid)


def outcome_density(signs, mags, gamma: float, params: ProtocolParams) -> float:
    """Density of the reconciled homodyne outcome given signs and magnitudes:
    the one-announcement view of :func:`_outcome_exponents`, checked as every
    single-announcement view is."""
    row = np.all(SIGN_PATTERNS == _check_signs(signs), axis=1)
    exponents = _outcome_exponents(*_one_announcement(mags, gamma), params)
    return math.exp(exponents[0, row][0]) / _SQRT_2PI


def _joint_density_factors(mags: np.ndarray, gamma: np.ndarray,
                           params: ProtocolParams) -> tuple[np.ndarray, np.ndarray]:
    """Joint density of (n, 3) magnitudes and (n,) outcomes as two factors, kept
    apart because the quadrature weights them in order: the outcome density
    summed over the eight equally-likely sign triples, and the product over
    parties of a zero-mean normal of deviation sigma_i at mag_i."""
    sigma = np.asarray(params.sigma)
    outcome = np.exp(_outcome_exponents(mags, gamma, params)).sum(axis=1) / _SQRT_2PI
    mag_density = np.prod(np.exp(-0.5 * (mags / sigma) ** 2) / (_SQRT_2PI * sigma), axis=1)
    return outcome, mag_density


def _tap_exponents(mags, params: ProtocolParams) -> np.ndarray:
    """The tap model: (1 - tau_i) * mag_i**2 over the last axis of mags, the
    squared mean sign_i * sqrt(1 - tau_i) * mag_i of party i's tap under pure loss."""
    return (1.0 - np.asarray(params.tau)) * np.asarray(mags) ** 2


def eve_conditional_means(signs, mags, params: ProtocolParams) -> list[tuple[float, float]]:
    """Means (q, p) of the eavesdropper's three memory modes: the view of
    :func:`_tap_exponents` that the phase-space pipeline checks.

    Mode i carries mean sign_i * sqrt((1 - tau_i) * mag_i**2) on the
    reconciled p quadrature.  The q mean is irrelevant to the state overlaps
    and is reported as 0; the covariance is the identity.
    """
    s = _check_signs(signs)
    exponents = _tap_exponents(_check_mags(mags), params)
    return [(0.0, si * math.sqrt(ei)) for si, ei in zip(s.tolist(), exponents.tolist())]


def simulate_relay(signs, q_mags, p_mags, params: ProtocolParams,
                   outcomes) -> RelayResult:
    """Run the full phase-space pipeline for one protocol instance.

    Builds the three-mode coherent product, taps each mode with pure loss,
    applies the detector cascade and conditions on the three homodyne
    outcomes in measurement order.  ``signs`` are the reconciled
    p-quadrature signs; the q-quadrature signs are fixed to +1, which
    affects neither the reconciled outcome's distribution nor the
    eavesdropper's p means.

    Parameters
    ----------
    signs : three values in {-1, +1}
    q_mags, p_mags : three non-negative quadrature magnitudes
    params : ProtocolParams
    outcomes : three homodyne results in measurement order
        (relative-AB port, relative-ABC port, sum port); the first two are
        q-homodynes and the last a p-homodyne.

    Returns
    -------
    RelayResult
        The per-measurement likelihoods and the eavesdropper's conditioned
        three-mode state (modes A, B, C).
    """
    s = _check_signs(signs)
    qm = _check_mags(q_mags)
    pm = _check_mags(p_mags)
    outs = _floats(outcomes, "outcomes")
    if outs.shape != (3,) or not np.all(np.isfinite(outs)):
        raise ValueError(f"outcomes must be three finite homodyne results, got {outcomes!r}")

    state = make_coherent_product([(qm[i], s[i] * pm[i]) for i in range(3)])
    for i, ti in enumerate(params.tau):
        state = pure_loss_tap(state, i, ti)  # appends Eve modes 3, 4, 5
    state = apply_beamsplitter(state, 0, 1, CASCADE_T1)
    state = apply_beamsplitter(state, 0, 2, CASCADE_T2)

    # Measure the two relative ports then the sum port; indices shift as
    # measured modes are removed (1 -> old 2, final 0 -> sum port).
    liks = []
    state, lik = homodyne_condition(state, 1, "q", outs[0])
    liks.append(lik)
    state, lik = homodyne_condition(state, 1, "q", outs[1])
    liks.append(lik)
    state, lik = homodyne_condition(state, 0, "p", outs[2])
    liks.append(lik)

    return RelayResult(likelihoods=tuple(liks), eve_state=state)
