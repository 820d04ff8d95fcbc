"""Test oracle for the count chain's steady state.

The (L+1)-state chain over the number of invalid links of one link
class, its dense transition matrix and its stationary vector by
Grassmann-Taksar-Heyman state elimination.  The package computes the
steady state in closed form (`binom_pmf_vector`); criterion 4 and
`TestCountChain` check it against this chain.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cubenet.errors import NumericError, ResourceLimitError, SpecError
from cubenet.reliability import binom_pmf_vector


@dataclass(frozen=True)
class CountChain:
    """(L+1)-state chain over the number of invalid links, single class."""

    L: int
    lam: float
    mu: float

    def __post_init__(self):
        if self.L < 1:
            raise SpecError("count chain needs at least one link")
        if not (0.0 < self.lam < 1.0 and 0.0 < self.mu <= 1.0):
            raise SpecError("lambda must lie in (0,1) and mu in (0,1]")

    @property
    def down_prob(self) -> float:
        return self.lam / (self.lam + self.mu)


@dataclass
class StationaryDist:
    pi: np.ndarray
    residual: float = 0.0

    def __post_init__(self):
        pi = np.asarray(self.pi, dtype=float)
        if np.any(pi < 0):
            raise NumericError("stationary distribution has negative entries")
        if abs(pi.sum() - 1.0) > 1e-10:
            raise NumericError(f"stationary distribution sums to {pi.sum()}")
        self.pi = pi


def transition_matrix(chain: CountChain) -> np.ndarray:
    """Full row-stochastic transition matrix of the count chain.

    Row i is the convolution of the kept-invalid distribution
    Binomial(i, 1-mu) with the new-failure distribution
    Binomial(L-i, lambda); identical to the per-entry formula.
    """
    L = chain.L
    if L > 5000:
        raise ResourceLimitError(f"dense transition matrix for L={L} refused")
    P = np.zeros((L + 1, L + 1))
    for i in range(L + 1):
        keep = binom_pmf_vector(i, 1.0 - chain.mu)
        new = binom_pmf_vector(L - i, chain.lam)
        P[i, :] = np.convolve(keep, new)
    return P


def _gth_stationary(P: np.ndarray) -> np.ndarray:
    """Grassmann-Taksar-Heyman state elimination; no subtractions."""
    A = P.astype(float).copy()
    n = A.shape[0]
    scale = np.ones(n)
    for k in range(n - 1, 0, -1):
        s = A[k, :k].sum()
        if s <= 0.0:
            raise NumericError(f"GTH elimination hit a zero pivot {s} at state {k}")
        scale[k] = s
        A[k, :k] /= s
        A[:k, :k] += np.outer(A[:k, k], A[k, :k])
    x = np.zeros(n)
    x[0] = 1.0
    for k in range(1, n):
        x[k] = float(x[:k] @ A[:k, k]) / scale[k]
    return x / x.sum()


def stationary(chain: CountChain) -> StationaryDist:
    """Steady state of the count chain via GTH elimination.

    Agrees with the closed form Binomial(L, lambda/(lambda+mu)): each
    link is an independent two-state chain with stationary down
    probability lambda/(lambda+mu).
    """
    P = transition_matrix(chain)
    pi = _gth_stationary(P)
    residual = float(np.max(np.abs(pi @ P - pi)))
    if residual > 1e-8:
        raise NumericError(f"stationary solve did not converge: residual {residual:.3g}")
    return StationaryDist(pi, residual)


def binomial_stationary(chain: CountChain) -> np.ndarray:
    """Closed-form steady state (independent-link product chain)."""
    return binom_pmf_vector(chain.L, chain.down_prob)
