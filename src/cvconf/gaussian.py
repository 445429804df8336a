r"""Minimal Gaussian phase-space toolkit.

States are described by a mean vector and covariance matrix over the
quadratures (q1, p1, ..., qn, pn) in shot-noise units, i.e. the vacuum
quadrature variance equals 1.  A coherent state with complex amplitude
alpha = (q + i*p)/2 has mean quadratures (q, p) and identity covariance.

Everything here is a pure function: operations return new states and
never mutate their inputs.  The module doubles as the brute-force oracle
for the analytic densities in :mod:`cvconf.protocol`, so the homodyne
update is implemented with the general Schur-complement rule rather than
the shortcut that suffices for coherent inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GaussianState",
    "make_coherent_product",
    "apply_beamsplitter",
    "pure_loss_tap",
    "homodyne_condition",
    "overlap_trace",
    "symplectic_eigenvalues",
]

# Largest entry-wise covariance difference overlap_trace accepts as equal.
_COV_TOL = 1e-10


@dataclass(frozen=True)
class GaussianState:
    """An n-mode Gaussian state in shot-noise units.

    Attributes
    ----------
    mean : ndarray, shape (2n,)
        Quadrature means ordered (q1, p1, ..., qn, pn).
    cov : ndarray, shape (2n, 2n)
        Symmetric covariance matrix in the same ordering.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.asarray(self.cov, dtype=float)
        if mean.ndim != 1 or mean.size % 2 != 0:
            raise ValueError("mean must be a vector of even length")
        if cov.shape != (mean.size, mean.size):
            raise ValueError("cov shape must match mean length")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def n_modes(self) -> int:
        return self.mean.size // 2


def make_coherent_product(means) -> GaussianState:
    """Build a product of coherent states from (q, p) mean pairs.

    Parameters
    ----------
    means : sequence of (q, p) pairs
        Mean quadratures of each mode; an empty sequence gives the
        0-mode state.

    Returns
    -------
    GaussianState
        Product coherent state with identity covariance.
    """
    pairs = np.asarray(list(means), dtype=float)
    if pairs.size == 0:
        return GaussianState(np.zeros(0), np.zeros((0, 0)))
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("means must be a sequence of (q, p) pairs")
    if not np.all(np.isfinite(pairs)):
        raise ValueError("coherent means must be finite")
    mean = pairs.reshape(-1)
    return GaussianState(mean, np.eye(mean.size))


def _beamsplitter_symplectic(n_modes: int, i: int, j: int, transmissivity: float) -> np.ndarray:
    t = math.sqrt(transmissivity)
    r = math.sqrt(1.0 - transmissivity)
    s = np.eye(2 * n_modes)
    for off in (0, 1):  # same rotation on q and p
        a, b = 2 * i + off, 2 * j + off
        s[a, a] = t
        s[a, b] = r
        s[b, a] = -r
        s[b, b] = t
    return s


def apply_beamsplitter(state: GaussianState, mode_i: int, mode_j: int,
                       transmissivity: float) -> GaussianState:
    """Mix two modes on a beamsplitter.

    Convention: x_i -> sqrt(T) x_i + sqrt(1-T) x_j and
    x_j -> -sqrt(1-T) x_i + sqrt(T) x_j, identically for q and p.

    Parameters
    ----------
    state : GaussianState
    mode_i, mode_j : int
        Distinct mode indices.
    transmissivity : float
        Power transmissivity T in [0, 1].

    Returns
    -------
    GaussianState
    """
    n = state.n_modes
    if not (0 <= mode_i < n and 0 <= mode_j < n):
        raise ValueError(f"mode index out of range for {n}-mode state")
    if mode_i == mode_j:
        raise ValueError("beamsplitter modes must differ")
    if not 0.0 <= transmissivity <= 1.0:
        raise ValueError("transmissivity must lie in [0, 1]")
    s = _beamsplitter_symplectic(n, mode_i, mode_j, transmissivity)
    return GaussianState(s @ state.mean, s @ state.cov @ s.T)


def pure_loss_tap(state: GaussianState, mode: int, transmissivity: float) -> GaussianState:
    """Tap a mode with a beamsplitter against an appended vacuum mode.

    The vacuum ancilla (the eavesdropper's output) becomes the last mode
    of the returned state and carries mean sqrt(1-tau) times the tapped
    mode's mean; the signal mode keeps sqrt(tau) of its mean.
    """
    n = state.n_modes
    if not 0 <= mode < n:
        raise ValueError(f"mode index out of range for {n}-mode state")
    mean = np.concatenate([state.mean, [0.0, 0.0]])
    cov = np.eye(2 * n + 2)
    cov[: 2 * n, : 2 * n] = state.cov
    enlarged = GaussianState(mean, cov)
    # Ancilla takes the i-slot so its mean picks up +sqrt(1-tau) of the signal.
    return apply_beamsplitter(enlarged, n, mode, transmissivity)


def homodyne_condition(state: GaussianState, mode: int, quadrature: str,
                       outcome: float) -> tuple[GaussianState, float]:
    """Condition on a perfect homodyne measurement of one quadrature.

    The measured mode is removed; the remaining modes are updated with
    the Gaussian conditional rule, using a pseudo-inverse on the measured
    1x1 covariance block so a deterministic (zero-variance) outcome is
    still well defined.

    Parameters
    ----------
    state : GaussianState
    mode : int
        Mode to measure.
    quadrature : {"q", "p"}
        Which quadrature is detected.
    outcome : float
        Measured value in shot-noise units; one that is not a real number,
        or is NaN or infinite, raises ValueError naming it.

    Returns
    -------
    (GaussianState, float)
        The conditioned (n-1)-mode state and the probability density of
        the outcome under the state's current marginal.
    """
    n = state.n_modes
    if not 0 <= mode < n:
        raise ValueError(f"mode index out of range for {n}-mode state")
    if quadrature not in ("q", "p"):
        raise ValueError("quadrature must be 'q' or 'p'")
    try:
        outcome = float(outcome)
    except (TypeError, ValueError):
        raise ValueError(f"outcome must be a real number, got {outcome!r}") from None
    if not math.isfinite(outcome):
        raise ValueError(f"outcome must be finite, got {outcome!r}")
    m_idx = 2 * mode + (0 if quadrature == "q" else 1)
    keep = [k for k in range(2 * n) if k not in (2 * mode, 2 * mode + 1)]

    var = state.cov[m_idx, m_idx]
    delta = outcome - state.mean[m_idx]
    cross = state.cov[keep, m_idx]

    if var > 0.0:
        gain = cross / var
        mean = state.mean[keep] + gain * delta
        cov = state.cov[np.ix_(keep, keep)] - np.outer(gain, cross)
        likelihood = math.exp(-0.5 * delta * delta / var) / math.sqrt(2.0 * math.pi * var)
    else:
        # Degenerate marginal: pseudo-inverse gain is zero.
        mean = state.mean[keep]
        cov = state.cov[np.ix_(keep, keep)]
        likelihood = math.inf if delta == 0.0 else 0.0
    return GaussianState(mean, cov), likelihood


def overlap_trace(state_a: GaussianState, state_b: GaussianState) -> float:
    """Trace overlap Tr(rho_a rho_b) of two Gaussian states with equal covariance.

    Evaluates exp(-1/4 d^T V^{-1} d) with d the mean difference.  For
    pure states this equals the squared modulus of the inner product.
    """
    if state_a.n_modes != state_b.n_modes:
        raise ValueError("states must have the same number of modes")
    if not np.allclose(state_a.cov, state_b.cov, rtol=0.0, atol=_COV_TOL):
        raise ValueError(f"covariance matrices differ beyond {_COV_TOL}")
    d = state_a.mean - state_b.mean
    return float(math.exp(-0.25 * d @ np.linalg.solve(state_a.cov, d)))


def symplectic_eigenvalues(cov: np.ndarray) -> np.ndarray:
    """Symplectic eigenvalues of a covariance matrix; ``--mode validate`` and
    the tests check the eavesdropper's state with them.

    Returns the n moduli of the eigenvalues of i*Omega*V, each of which
    appears twice in the raw spectrum.  The uncertainty principle in
    shot-noise units requires all of them to be >= 1.
    """
    cov = np.asarray(cov, dtype=float)
    n = cov.shape[0] // 2
    omega = np.zeros((2 * n, 2 * n))
    for k in range(n):
        omega[2 * k, 2 * k + 1] = 1.0
        omega[2 * k + 1, 2 * k] = -1.0
    nu = np.abs(np.linalg.eigvals(1j * omega @ cov))
    nu.sort()
    return nu[::2]
