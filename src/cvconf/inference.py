r"""Bayesian sign posteriors and the single-point mutual information.

Given the announced magnitudes and the reconciled homodyne outcome, the
eight sign triples are a priori equally likely, so their posterior is the
normalised vector of the outcome likelihoods that :mod:`cvconf.protocol`
models.  All marginal and conditional sign probabilities, and the
single-point mutual information I(A:B) of A's and B's signs, derive from
that eight-entry table.

Likelihoods are always formed in log space and shifted by their maximum
before exponentiation, so extreme announcements never produce 0/0.  The
mutual information is evaluated from the four joint sign probabilities,
each summed directly from the table, so no probability is ever formed as
a difference 1 - p and none needs clamping; :func:`posterior_rel_err`
bounds the table's relative rounding error, from which the rate engine
derives a per-announcement error bound on the information.

The batch core (:func:`posterior_table_batch`, :func:`posterior_rel_err`
and the information with its bound) takes arrays with a leading
announcement axis and serves both rate estimators.  The scalar views,
:func:`sign_posterior_table` and :func:`single_point_mi`, are that core
at one announcement; marginals and conditionals are sums over table
entries inside the core, not functions of their own.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .protocol import SIGN_PATTERNS, ProtocolParams, _one_announcement, _outcome_exponents, \
    mean_coefficients

__all__ = [
    "PosteriorTable",
    "sign_posterior_table",
    "posterior_table_batch",
    "posterior_rel_err",
    "single_point_mi",
]

# Table entries, in table order, under each sign of A and then of B, and
# under each sign pair (A, B), each positive sign first.
_MARGINAL_ROWS = np.array([np.flatnonzero(SIGN_PATTERNS[:, party] == sign)
                           for party in (0, 1) for sign in (1, -1)])
_JOINT_ROWS = np.array([np.flatnonzero((SIGN_PATTERNS[:, 0] == a) & (SIGN_PATTERNS[:, 1] == b))
                        for a in (1, -1) for b in (1, -1)])

# Machine epsilon: every error bound of the package counts in its ulps.
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class PosteriorTable:
    """Posterior probabilities of the eight sign triples.

    ``probs[t]`` is the probability of ``SIGN_PATTERNS[t]`` given the
    announced magnitudes and the reconciled outcome; the order runs
    (---, --+, -+-, -++, +--, +-+, ++-, +++).
    """

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.shape != (8,):
            raise ValueError("a posterior table has exactly eight entries")
        # Written so that NaN and inf entries fail too.
        if not (np.all(p >= 0.0) and abs(p.sum() - 1.0) <= 1e-12):
            raise ValueError("posterior entries must be finite, non-negative and sum to 1")
        object.__setattr__(self, "probs", p)


def posterior_table_batch(mags: np.ndarray, gamma: np.ndarray,
                          params: ProtocolParams) -> np.ndarray:
    """Posterior tables for a batch of announcements: the outcome model's
    exponents (:func:`cvconf.protocol._outcome_exponents`) shifted by their
    row maximum, exponentiated and normalised.

    Parameters
    ----------
    mags : ndarray, shape (n, 3)
    gamma : ndarray, shape (n,)
    params : ProtocolParams

    Returns
    -------
    ndarray, shape (n, 8)
    """
    loglik = _outcome_exponents(mags, gamma, params)
    loglik -= _pairwise(np.maximum, loglik)
    table = np.exp(loglik)
    table /= _row_sum(table)[:, None]
    return table


def posterior_rel_err(mags: np.ndarray, gamma: np.ndarray,
                      params: ProtocolParams) -> np.ndarray:
    """Bound on the relative rounding error of every entry of each table.

    Each log-likelihood -(gamma - mean)**2 / 2 is formed with an absolute
    error of a few ulps of (|gamma| + sum_i w_i*mag_i)**2; exponentiation
    turns that into a relative error of the unnormalised entry, and the
    normalisation at most doubles it.  The bound is relative to the table
    computed exactly from the same (float) announcement.
    """
    spread = np.abs(np.asarray(gamma)) + np.abs(np.asarray(mags)) @ mean_coefficients(params)
    return _EPS * (16.0 + 32.0 * spread ** 2)


def sign_posterior_table(mags, gamma: float, params: ProtocolParams) -> PosteriorTable:
    """Posterior over the eight sign triples for one announcement."""
    return PosteriorTable(posterior_table_batch(*_one_announcement(mags, gamma), params)[0])


def single_point_mi(mags, gamma: float, params: ProtocolParams) -> float:
    """Mutual information I(A:B) between A's and B's signs given one announcement.

    Implements H(k_A) + H(k_B) - H(k_A, k_B) over the posterior, in bits;
    the one-announcement view of the batched core, clipped to [0, 1].
    """
    table = sign_posterior_table(mags, gamma, params)
    return float(_mi_with_bound(table.probs[None, :], 0.0)[0][0])


def _row_sum(x: np.ndarray) -> np.ndarray:
    """``np.sum(x, axis=-1)`` bit for bit, for at most eight entries per row.

    numpy adds such a row onto 0.0, left to right below eight entries and as
    a balanced pairwise tree at eight.  Written out over whole columns, each
    addition is one elementwise pass over the batch, where numpy's reduction
    runs one short inner loop per row.
    """
    if x.shape[-1] == 8:
        x = _pairwise(np.add, x)
    return functools.reduce(operator.add, x.T, 0.0).T


def _pairwise(ufunc, x: np.ndarray) -> np.ndarray:
    """The last axis of x, a power of 2 long, reduced by ``ufunc`` over a
    balanced pairwise tree, each stage one elementwise pass over the batch;
    the axis is kept, with length 1."""
    while x.shape[-1] > 1:
        x = ufunc(x[..., 0::2], x[..., 1::2])
    return x


def _eta(x: np.ndarray) -> np.ndarray:
    """-x*log2(x) elementwise, with 0*log(0) = 0: one term of an entropy."""
    return -x * np.log2(np.where(x > 0.0, x, 1.0))


def _mi_with_bound(tables: np.ndarray, rel_err) -> tuple[np.ndarray, np.ndarray]:
    """The sign mutual information I(A:B) and a bound on its rounding error.

    ``rel_err`` bounds the relative error of every table entry.  Perturbing
    each joint probability by a relative eps moves every logarithm in
    H(A) + H(B) - H(A, B) by at most 4*eps/ln 2 and every weight by 2*eps
    relative, so the information moves by at most eps * (6 + 2*S) with
    S = H(A) + H(B) + H(A, B).  The bound adds eight ulps to eps and one
    more S for the rounding of the sums and logarithms themselves.
    """
    marginal = _eta(_row_sum(tables[:, _MARGINAL_ROWS]))
    h_a = marginal[:, 0] + marginal[:, 1]
    h_b = marginal[:, 2] + marginal[:, 3]
    h_ab = sum(_eta(_row_sum(tables[:, _JOINT_ROWS])).T)
    mi = np.clip(h_a + h_b - h_ab, 0.0, 1.0)
    bound = (rel_err + 8.0 * _EPS) * (6.0 + 3.0 * (h_a + h_b + h_ab))
    return mi, bound
