r"""The eavesdropper's states and the single-point Holevo information.

Under pure loss the eavesdropper holds, per party, one of two coherent
states whose sign follows the party's reconciled-quadrature sign.  Her
three-mode conditional states are pure products, so each party's pair
spans a two-dimensional space {Phi_0, Phi_1} in which the states read
c0*Phi_0 +/- c1*Phi_1 with c0^2 = (1+X)/2, c1^2 = (1-X)/2 for pairwise
overlap X.  Mixing the eight of them with the sign posterior gives an
8x8 real density matrix whose entries factor into coefficient products
times posterior-weighted parity sums; conditioning on A's sign leaves a
4x4 matrix over B and C (A's pure factor carries no entropy).  The rate
needs the Holevo information on A's sign only, so that is the one
conditioning the core does.

An independent route to the same spectra is the Gram construction: the
nonzero spectrum of a mixture of pure states equals that of the overlap
matrix weighted by the square roots of the mixture probabilities.  The
two routes share no code path and cross-validate each other.

The pairwise overlap itself is convention-dependent: ``trace`` uses the
two-state trace formula exp(-(1-tau)*mag^2) directly, ``amplitude`` its
square root (the literal inner product of the pure states).  ``trace``
is the default; it yields smaller overlaps, hence a larger Holevo bound
and a more conservative key rate.

Where every overlap of an announcement is exactly 1 (unit transmissivity,
as everywhere at 0 km) all eight states coincide, so the eavesdropper's
state does not depend on any sign: the Holevo information is exactly 0
and no spectrum is computed for that announcement, whatever the others in
its batch.  A's own overlap being 1 is not enough: with B's and C's taps
lossy, their states still reveal A's sign through the posterior
correlations.

The overlaps are views of :func:`cvconf.protocol._tap_exponents`.  The
assembly works with the overlap deficit 1 - X (from ``expm1`` when the
overlaps come from announcements), so the small coefficient c1 keeps full
relative accuracy, and builds both state sizes by one rule: entry (r, c)
is c_r * c_c * S[r XOR c], where S, the Walsh-Hadamard transform of the
sign weights, comes from one butterfly (:func:`_parity_sums`).  Entropies
use every eigenvalue, clipped to [0, 1].  Every Holevo value comes from one
batched core (:func:`single_point_holevo` is its n = 1 view); a spectrum
there with trace off 1, or an eigenvalue below 0, by more than 1e-10 raises
ValueError.  The core also returns a bound on the distance between the
computed and the exact bound, built from the inputs' relative errors
(which scale the spectrum) and the assembly and eigensolver rounding
(which shifts it).

A lower bound needs no eigensolver: the information about A's sign in
A's own tap, chi(A; E_A), is the entropy of a mixture of two pure states
with a closed-form spectrum, and discarding E_B and E_C cannot raise it
(:func:`_own_tap_holevo_with_bound`).  The rate engine uses it to skip the
spectra of announcements it proves unkeepable, and as the cheap level of
the Monte-Carlo raw rate on them.  Where A's own overlap is exactly 1 it
is exactly 0, as chi(A) is where every overlap is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .inference import _EPS, PosteriorTable, _eta, posterior_table_batch
from .protocol import SIGN_PATTERNS, ProtocolParams, _check_mags, _floats, _one_announcement, \
    _tap_exponents

__all__ = [
    "EveDensityMatrix",
    "eve_overlaps",
    "overlap_deficits_batch",
    "assemble_total_state",
    "von_neumann_entropy",
    "gram_spectrum",
    "gram_oracle_entropy",
    "single_point_holevo",
]

# Absolute error of the computed eigenvalues of an assembled n x n state
# of unit trace: 10 ulps for the entrywise assembly plus the eigensolver's
# backward error, taken as 2*n**2 ulps.  The butterfly puts each parity sum
# within log2(n) ulps of the weights' sum, 1, so at most 3 ulps for n = 8,
# and the two products of entry c_r * c_c * S add one more relative to it;
# the error matrix is thus within 4*eps times the rank-one coefficient outer
# product entrywise, whose norm is 1, well inside the 10 ulps allowed.
_EIG_ABS_ERR = {n: (10.0 + 2.0 * n * n) * _EPS for n in (4, 8)}

# Density-matrix checks: entrywise asymmetry; a spectrum's sum off 1 or
# smallest eigenvalue below 0.
_SYM_TOL = 1e-12
_SPECTRUM_TOL = 1e-10

# Maximum of -x*log2(x), attained at x = 1/e.
_ETA_PEAK_X = math.exp(-1.0)
_ETA_PEAK = 1.0 / (math.e * math.log(2.0))

# Sign bits per table row (1 for +1), A most significant.
_BITS8 = ((SIGN_PATTERNS + 1.0) / 2.0)                       # (8, 3)

# Table rows with A = +1, then A = -1, each holding (B, C) in the table's
# order.
_A_ROWS = np.stack([np.flatnonzero(SIGN_PATTERNS[:, 0] > 0),
                    np.flatnonzero(SIGN_PATTERNS[:, 0] < 0)])

# (B, C) sign bits of the 4x4 basis: those of A's rows, in the same order.
_BITS4 = _BITS8[_A_ROWS[0], 1:]


# One assembly rule per state size, the 8x8 total state and the 4x4
# conditional one: the basis bits, whose row r holds the binary digits of r
# (the butterfly's order), and, per (r, c), the row r XOR c.
_RULES = {len(bits): (bits, np.bitwise_xor.outer(np.arange(len(bits)), np.arange(len(bits))))
          for bits in (_BITS8, _BITS4)}


@dataclass(frozen=True)
class EveDensityMatrix:
    """A real symmetric density matrix in the finite overlap basis.

    ``matrix`` is 8x8 for the total state (basis ordered by the binary
    string (i, j, k) over the three parties' {Phi_0, Phi_1} factors) or
    4x4 for a state conditioned on A's sign.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] not in (4, 8):
            raise ValueError("density matrix must be 4x4 or 8x8")
        object.__setattr__(self, "matrix", m)

    def validate(self) -> np.ndarray:
        """Ascending eigenvalues; ValueError unless finite, symmetric, unit trace and PSD."""
        m = self.matrix
        if not (np.isfinite(m).all() and np.max(np.abs(m - m.T)) <= _SYM_TOL):
            raise ValueError("density matrix is not finite and symmetric")
        return _checked_eigvalsh(m)


def _checked_eigvalsh(rho: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of density matrices (..., d, d), checked to ``_SPECTRUM_TOL``."""
    lam = np.linalg.eigvalsh(rho)
    if not (np.abs(lam.sum(axis=-1) - 1.0) <= _SPECTRUM_TOL).all():
        raise ValueError("density matrix trace differs from 1")
    if not (lam[..., 0] >= -_SPECTRUM_TOL).all():
        raise ValueError("density matrix has a negative eigenvalue")
    return lam


def _overlap_exponents(mags, params: ProtocolParams) -> np.ndarray:
    """-log of the overlaps: the tap exponents, halved under the amplitude convention."""
    exponent = _tap_exponents(mags, params)
    return exponent / 2.0 if params.overlap_convention == "amplitude" else exponent


def eve_overlaps(mags, params: ProtocolParams) -> np.ndarray:
    """Pairwise overlaps (X_A, X_B, X_C) of the eavesdropper's sign states.

    Party i's two conditional states differ only by the reconciled-
    quadrature mean gap 2*sqrt(1-tau_i)*mag_i, so the trace formula with
    identity covariance gives exp(-(1-tau_i)*mag_i**2); the amplitude
    convention takes the square root.  Independent of the relay outcome:
    the taps are uncorrelated with the detector given signs and
    magnitudes.
    """
    return np.exp(-_overlap_exponents(_check_mags(mags), params))


def overlap_deficits_batch(mags: np.ndarray, params: ProtocolParams) -> np.ndarray:
    """1 - X for (n, 3) magnitude arrays, to full relative accuracy."""
    return -np.expm1(-_overlap_exponents(mags, params))


def _coefficient_vectors(deficits: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """Products of per-party coefficients for every basis string.

    deficits: (..., k) values of 1 - X; bits: (2^k, k).  Returns
    (..., 2^k) with entry [..., r] = prod_x c_{bits[r, x]}(X[..., x]).
    """
    c0 = np.sqrt(1.0 - deficits / 2.0)
    c1 = np.sqrt(deficits / 2.0)
    chosen = np.where(bits == 1.0, c1[..., None, :], c0[..., None, :])
    return chosen.prod(axis=-1)


def _assemble_batch(weights: np.ndarray, deficits: np.ndarray) -> np.ndarray:
    """Density matrices (..., d, d) from sign weights (..., d), d = 8 or 4, and
    overlap deficits (..., k), broadcast over the leading axes: entry (r, c)
    is c_r * c_c * S[r XOR c], S the parity sums :func:`_parity_sums`."""
    bits, xor = _RULES[weights.shape[-1]]
    cvec = _coefficient_vectors(deficits, bits)
    return cvec[..., :, None] * cvec[..., None, :] * _parity_sums(weights)[..., xor]


def _parity_sums(weights: np.ndarray) -> np.ndarray:
    """S[..., k] = sum_t (-1)**popcount(k & t) * weights[..., t], the
    Walsh-Hadamard transform of the last axis (length a power of 2), by the
    butterfly on a C-ordered copy: one stage per bit of t, least significant
    first, each replacing the pair (a, b) differing in that bit by (a + b,
    a - b).

    Each stage is elementwise along a row, so a row's sums are the same bits
    whatever its batch and the weights' memory layout.  Each S[k] is a sum of
    d terms +-w_t formed by log2(d) roundings along every path, so it is off
    the exact transform by at most log2(d) * eps * sum_t |w_t|.
    """
    sums = np.array(weights, dtype=float, order="C")
    half = 1
    while half < sums.shape[-1]:
        pairs = sums.reshape(sums.shape[:-1] + (-1, 2, half))
        low, high = pairs[..., 0, :], pairs[..., 1, :]
        diff = low - high
        low += high
        high[...] = diff
        half *= 2
    return sums


def _condition(tables: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A's sign marginals (n, 2) and the conditional (B, C) weights (n, 2, 4), A = +1 first.

    A zero marginal gets the uniform conditional: it only ever enters the
    Holevo average with weight zero.
    """
    weights = tables[:, _A_ROWS]
    marginal = weights.sum(axis=-1)
    safe = np.where(marginal > 0.0, marginal, 1.0)
    return marginal, np.where(marginal[..., None] > 0.0, weights / safe[..., None], 0.25)


def assemble_total_state(table: PosteriorTable, overlaps) -> EveDensityMatrix:
    """The eavesdropper's total state mixed over all eight sign triples.

    Entry ((i,j,k), (i',j',k')) equals the coefficient product
    c_i c_i' c_j c_j' c_k c_k' times the posterior-weighted parity sum
    over sign triples; on the diagonal the sum collapses to 1, leaving
    the squared coefficient products.
    """
    x = _checked_overlaps(overlaps)
    if x.shape != (3,):
        raise ValueError("overlaps: need one per party")
    rho = _assemble_batch(table.probs[None, :], 1.0 - x[None, :])[0]
    return EveDensityMatrix(rho)


def _checked_overlaps(overlaps) -> np.ndarray:
    """Pairwise overlaps as a 1-D float array; one outside [0, 1], NaN
    included, raises ValueError naming them."""
    x = np.atleast_1d(_floats(overlaps, "overlaps"))
    if not all(0.0 <= xi <= 1.0 for xi in x.ravel().tolist()):
        raise ValueError(f"overlaps must lie in [0, 1], got {overlaps!r}")
    return x


def _entropy_with_bound(lam: np.ndarray, rel_err, abs_err: float) -> tuple[np.ndarray, np.ndarray]:
    """Entropy of computed eigenvalues and a bound on its distance to the exact one.

    The exact eigenvalues lie within abs_err of the computed ones after a
    relative scaling by at most ``rel_err`` (shape broadcastable to the
    sample axis, with a trailing axis for the eigenvalues).  Each term
    -x*log2(x) is unimodal, so its largest deviation over that interval
    is reached at an end or at the peak x = 1/e.
    """
    x = np.clip(lam, 0.0, 1.0)
    lo = np.clip((lam - abs_err) / (1.0 + rel_err), 0.0, 1.0)
    # A relative error of 1 or more leaves the eigenvalue unbounded above.
    hi = np.clip((lam + abs_err) / np.maximum(1.0 - rel_err, _EPS), 0.0, 1.0)
    eta = _eta(x)
    dev = np.maximum(np.abs(_eta(lo) - eta), np.abs(_eta(hi) - eta))
    dev = np.where((lo < _ETA_PEAK_X) & (hi > _ETA_PEAK_X), np.maximum(dev, _ETA_PEAK - eta), dev)
    entropy = eta.sum(axis=-1) + 0.0
    return entropy, dev.sum(axis=-1) + 4.0 * _EPS * entropy


def von_neumann_entropy(rho) -> float:
    """Von Neumann entropy in bits of a real symmetric density matrix.

    Every eigenvalue counts, after clipping rounding excursions to
    [0, 1]; an asymmetric matrix, or a trace or positivity violation
    beyond tolerance, raises ValueError.  The matrix is diagonalised once.
    """
    dm = rho if isinstance(rho, EveDensityMatrix) else EveDensityMatrix(np.asarray(rho))
    return float(_entropy_with_bound(dm.validate(), 0.0, 0.0)[0])


def gram_spectrum(weights, overlaps) -> np.ndarray:
    """Ascending eigenvalues of the weighted Gram matrix of the pure states.

    For rho = sum_m w_m |psi_m><psi_m| the nonzero spectrum equals that of
    G_mn = sqrt(w_m w_n) <psi_m|psi_n>, with the overlaps given by the
    tensor product of per-party 2x2 blocks [[1, X], [X, 1]].  Accepts
    eight weights with three overlaps, or four weights with two; an overlap
    outside [0, 1], or weights that are not a probability vector (NaN
    included), raise ValueError naming them.
    """
    w = _floats(weights, "weights")
    x = _checked_overlaps(overlaps)
    if w.shape != (2 ** x.size,):
        raise ValueError("need 2**k weights for k overlaps")
    # Written so that NaN weights fail too.
    if not (np.all(w >= 0.0) and abs(w.sum() - 1.0) <= 1e-10):
        raise ValueError(f"weights must be a probability vector, got {weights!r}")
    gram = np.array([[1.0]])
    for xi in x:
        gram = np.kron(gram, np.array([[1.0, xi], [xi, 1.0]]))
    root = np.sqrt(w)
    return np.linalg.eigvalsh(gram * np.outer(root, root))


def gram_oracle_entropy(weights, overlaps) -> float:
    """Mixture entropy in bits from :func:`gram_spectrum`."""
    return float(_entropy_with_bound(gram_spectrum(weights, overlaps), 0.0, 0.0)[0])


def single_point_holevo(mags, gamma: float, params: ProtocolParams) -> float:
    """Holevo information chi(A) on A's sign given one announcement.

    The n = 1 view of the batched core: S(total) minus the posterior-
    weighted average of the two conditional entropies.  The exact value
    lies in [0, 1] bits; a result outside that interval by more than 1e-9
    (eigensolver slack) raises ValueError, and one within it is projected
    onto [0, 1], which never moves it further from the exact value.  Where
    every overlap is 1 it is exactly 0 (see the module notes).
    """
    mags, gamma = _one_announcement(mags, gamma)
    tables = posterior_table_batch(mags, gamma, params)
    chi = _holevo_with_bound(tables, overlap_deficits_batch(mags, params), 0.0)[0]
    return _holevo_in_range(float(chi[0]))


def _holevo_in_range(chi: float) -> float:
    """A computed Holevo information projected onto its exact range [0, 1].

    Outside it by more than 1e-9 (eigensolver slack), or NaN, raises
    ValueError; the projection never moves a value further from the exact one.
    """
    if not -1e-9 <= chi <= 1.0 + 1e-9:
        raise ValueError(f"Holevo information {chi} outside [0, 1]")
    return min(max(chi, 0.0), 1.0)


def _own_tap_holevo_with_bound(tables: np.ndarray, deficits: np.ndarray,
                               rel_err) -> tuple[np.ndarray, np.ndarray]:
    """chi(A; E_A), A's sign against A's tap alone, in closed form, with an error bound.

    Given the announcement, E_A holds one of two pure states with overlap
    X = 1 - delta, weighted by A's sign marginals p and q.  In {Phi_0, Phi_1}
    their mixture is D M D with D = diag(c0, c1) and M = [[p+q, p-q], [p-q,
    p+q]], so its eigenvalues have product pq*delta*(2-delta) and the larger
    is ((p+q) + sqrt((p-q)**2 + 4pq*X**2)) / 2, a sum of non-negative terms;
    the smaller is the product over the larger, so neither cancels.  Both
    conditional states are pure, so chi(A; E_A) is the mixture's entropy.
    Discarding E_B and E_C cannot raise Holevo information (data processing;
    Lindblad, Commun. Math. Phys. 40, 1975), so chi(A) >= chi(A; E_A).

    ``deficits`` holds 1 - X per party and ``rel_err`` bounds the relative
    error of every table entry.  Relative to the exact eigenvalues of the
    same announcement, the computed ones are scaled by at most:
    rel_err + 1.5 ulps from p and q (sums of four entries), which bounds M
    between (1 -/+ that) M in the positive semidefinite order; 2.5 ulps from
    delta (three roundings in its exponent, one ulp of ``expm1``), which
    rescales c0**2 and c1**2 by at most as much, a congruence of D M D that
    scales each eigenvalue by as much (Ostrowski); and 5 ulps from the
    formula (at most 10 roundings of half an ulp along either eigenvalue's
    expression).  That is rel_err + 9 ulps; the products of these factors
    add under 7.5 ulps per unit of rel_err, hence rel_err + 16 ulps *
    (1 + rel_err) below.  The eigenvalues carry no absolute error.

    A row whose own deficit is exactly 0 gets (0, 0), as in
    :func:`_holevo_with_bound`: A's two states coincide, so E_A holds
    nothing about A's sign, where the formula would leave the entropy of a
    larger eigenvalue one rounding off 1.
    """
    p, q = tables[:, _A_ROWS].sum(axis=-1).T
    delta = deficits[:, 0]
    overlap = 1.0 - delta
    larger = 0.5 * ((p + q) + np.sqrt((p - q) ** 2 + 4.0 * p * q * (overlap * overlap)))
    smaller = p * q * (delta * (2.0 - delta)) / larger
    rel = np.asarray(rel_err, dtype=float)
    rel = rel + 16.0 * _EPS * (1.0 + rel)
    chi, bound = _entropy_with_bound(np.stack([smaller, larger], axis=-1), rel[..., None], 0.0)
    lossless = delta == 0.0
    return np.where(lossless, 0.0, chi), np.where(lossless, 0.0, bound)


def _holevo_with_bound(tables: np.ndarray, deficits: np.ndarray,
                       rel_err) -> tuple[np.ndarray, np.ndarray]:
    """Batched Holevo bound chi(A) and a bound on its error against the exact value.

    ``deficits`` holds 1 - X per party and ``rel_err`` bounds the relative
    error of every table entry.  A row whose deficits are all exactly 0
    gets (0, 0) without spectra (see the module notes), whatever the other
    rows, and the other rows get the spectra of their own states, so no
    row's values depend on its batch.  A relative error eps of each sign
    weight scales the mixture by a factor within [1 - eps, 1 + eps] in the
    positive semidefinite order, and a relative error of the coefficients
    is a congruence close to the identity; both scale every eigenvalue by
    at most that relative amount.  Assembly and eigensolver rounding then
    shift each eigenvalue by at most ``_EIG_ABS_ERR``.
    """
    live = deficits.any(axis=-1)
    if live.size == 0 or not live.all():
        chi, bound = np.zeros(len(tables)), np.zeros(len(tables))
        if live.any():
            chi[live], bound[live] = _holevo_with_bound(
                tables[live], deficits[live], np.broadcast_to(rel_err, live.shape)[live])
        return chi, bound
    rel = np.asarray(rel_err, dtype=float) + 32.0 * _EPS  # coefficients and sums
    total, bound = _entropy_with_bound(
        _checked_eigvalsh(_assemble_batch(tables, deficits)),
        rel[..., None], _EIG_ABS_ERR[8])

    marginal, cond = _condition(tables)
    rest = deficits[:, None, 1:]
    # Normalising by the marginal doubles the weights' relative error.
    entropy, err = _entropy_with_bound(
        _checked_eigvalsh(_assemble_batch(cond, rest)),
        2.0 * rel[..., None, None], _EIG_ABS_ERR[4])
    terms = marginal * entropy
    bounds = marginal * (err + rel[..., None] * entropy)
    averaged = terms[:, 0] + terms[:, 1]
    chi = total - averaged
    return chi, bound + bounds[:, 0] + bounds[:, 1] + 2.0 * _EPS * (total + averaged)
