"""Independent reference computations for the benchmark's correctness checks.

Everything here is written from the protocol's definitions with numpy
alone and shares no code with ``cvconf``:

- the sign posterior of an announcement and the pairwise sign mutual
  information, from the joint sign probabilities;
- the Holevo bound on party A's sign from the weighted Gram matrices of
  the eavesdropper's pure states (total, and conditioned on A's sign);
- E[I] by plain sampling of the physical announcement density, and by
  the composite Gauss-Legendre grid that ``quadrature_cross_check`` uses.
"""

from __future__ import annotations

import math

import numpy as np

# Sign triples (A, B, C), A most significant, -1 before +1.
SIGNS = np.array([[2 * ((t >> 2) & 1) - 1, 2 * ((t >> 1) & 1) - 1, 2 * (t & 1) - 1]
                  for t in range(8)], dtype=float)
_A_POS = SIGNS[:, 0] > 0
_B_POS = SIGNS[:, 1] > 0

# Detector cascade transmissivities (1/2 between A and B, then 2/3 with C).
_T1, _T2 = 0.5, 2.0 / 3.0


def transmissivity(distance_km: float, db_per_km: float = 0.2) -> float:
    return 10.0 ** (-db_per_km * distance_km / 10.0)


def mean_weights(tau: float) -> np.ndarray:
    """Weights of sign_i * mag_i in the reconciled outcome mean, symmetric tau."""
    return np.sqrt(np.array([_T1 * _T2, (1.0 - _T1) * _T2, 1.0 - _T2]) * tau)


def posterior(mags: np.ndarray, gamma: np.ndarray, tau: float) -> np.ndarray:
    """(n, 8) posterior over sign triples from the Gaussian outcome likelihoods."""
    means = (mags * mean_weights(tau)) @ SIGNS.T
    log_lik = -0.5 * (gamma[:, None] - means) ** 2
    lik = np.exp(log_lik - log_lik.max(axis=1, keepdims=True))
    return lik / lik.sum(axis=1, keepdims=True)


def _h(p: np.ndarray) -> np.ndarray:
    """-p*log2(p), 0 at p = 0."""
    return -p * np.log2(np.where(p > 0.0, p, 1.0))


def pair_mi(tables: np.ndarray) -> np.ndarray:
    """I(k_A; k_B) in bits from the four joint sign probabilities of each table."""
    joint = np.stack([tables[:, _A_POS & _B_POS].sum(axis=1),
                      tables[:, _A_POS & ~_B_POS].sum(axis=1),
                      tables[:, ~_A_POS & _B_POS].sum(axis=1),
                      tables[:, ~_A_POS & ~_B_POS].sum(axis=1)], axis=1)
    p_a = joint[:, 0] + joint[:, 1]
    p_b = joint[:, 0] + joint[:, 2]
    h_a = _h(p_a) + _h(joint[:, 2] + joint[:, 3])
    h_b = _h(p_b) + _h(joint[:, 1] + joint[:, 3])
    return h_a + h_b - _h(joint).sum(axis=1)


def overlaps(mags: np.ndarray, tau: float, convention: str) -> np.ndarray:
    """Pairwise overlaps of the eavesdropper's two sign states, per party."""
    exponent = (1.0 - tau) * np.asarray(mags) ** 2
    return np.exp(-exponent / 2.0 if convention == "amplitude" else -exponent)


def _gram_entropy(weights: np.ndarray, xs) -> float:
    """Entropy of sum_m w_m |psi_m><psi_m| for product states with overlaps xs."""
    gram = np.ones((1, 1))
    for x in xs:
        gram = np.kron(gram, np.array([[1.0, x], [x, 1.0]]))
    root = np.sqrt(weights)
    lam = np.clip(np.linalg.eigvalsh(gram * np.outer(root, root)), 0.0, 1.0)
    return float(_h(lam).sum())


def gram_holevo(table: np.ndarray, xs: np.ndarray) -> float:
    """chi(k_A; E) = S(total) - sum_b P(A = b) S(state given A = b)."""
    chi = _gram_entropy(table, xs)
    for rows in (_A_POS, ~_A_POS):
        marginal = float(table[rows].sum())
        if marginal > 0.0:
            chi -= marginal * _gram_entropy(table[rows] / marginal, xs[1:])
    return chi


def sample_announcements(rng: np.random.Generator, n: int,
                         tau: float) -> tuple[np.ndarray, np.ndarray]:
    """n announcements (magnitudes, outcome) from the physical density, sigma = (1, 1, 1)."""
    signs = rng.choice([-1.0, 1.0], size=(n, 3))
    mags = np.abs(rng.normal(0.0, 1.0, size=(n, 3)))
    gamma = rng.normal((signs * mags) @ mean_weights(tau), 1.0)
    return mags, gamma


def mc_mean_mi(rng: np.random.Generator, n: int, tau: float) -> tuple[float, float]:
    """Plain Monte-Carlo E[I] with its standard error, sigma = (1, 1, 1)."""
    chunks = []
    for start in range(0, n, 1 << 16):
        mags, gamma = sample_announcements(rng, min(1 << 16, n - start), tau)
        chunks.append(pair_mi(posterior(mags, gamma, tau)))
    mi = np.concatenate(chunks)
    return float(mi.mean()), float(mi.std(ddof=1) / math.sqrt(n))


def _composite_gl(lo: float, hi: float, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite 8-point Gauss-Legendre rule with ceil(n_nodes / 8) equal panels."""
    panels = max(1, -(-n_nodes // 8))
    x, w = np.polynomial.legendre.leggauss(8)
    edges = np.linspace(lo, hi, panels + 1)
    half = np.diff(edges)[:, None] / 2.0
    mid = (edges[:-1] + edges[1:])[:, None] / 2.0
    return (mid + half * x).ravel(), (half * w).ravel()


def grid_mean_mi(tau: float, nodes_per_axis: int) -> tuple[float, int]:
    """E[I] on the tensor grid of ``quadrature_cross_check``, sigma = (1, 1, 1).

    Magnitudes on [0, 8], the outcome on [-(m_max + 8), m_max + 8] with
    the node density of the magnitude axes, mirrored about 0.  Returns the
    integral and the number of grid points.
    """
    w = mean_weights(tau)
    g_hi = 8.0 * w.sum() + 8.0
    mag_x, mag_w = _composite_gl(0.0, 8.0, nodes_per_axis)
    half_req = max(nodes_per_axis // 2, math.ceil(g_hi * nodes_per_axis / 8.0), 8)
    hx, hw = _composite_gl(0.0, g_hi, half_req)
    g_x = np.concatenate([-hx[::-1], hx])
    g_w = np.concatenate([hw[::-1], hw])
    mag_density = np.exp(-0.5 * mag_x ** 2) / math.sqrt(2.0 * math.pi)
    a, b, c = np.meshgrid(mag_x, mag_x, mag_x, indexing="ij")
    mags = np.stack([a.ravel(), b.ravel(), c.ravel()], axis=1)
    wa, wb, wc = np.meshgrid(mag_w * mag_density, mag_w * mag_density,
                             mag_w * mag_density, indexing="ij")
    mag_weight = (wa * wb * wc).ravel()
    means = (mags * w) @ SIGNS.T
    total = 0.0
    for gx, gw in zip(g_x, g_w):
        outcome = np.exp(-0.5 * (gx - means) ** 2).sum(axis=1) / math.sqrt(2.0 * math.pi)
        mi = pair_mi(posterior(mags, np.full(len(mags), gx), tau))
        total += gw * float((mag_weight * outcome * mi).sum())
    return total, len(mags) * len(g_x)
