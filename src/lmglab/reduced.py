"""Reduction of a Dicke-basis ground state to an M-spin subsystem.

Splitting the N spins into a block A of M spins and its complement B, a
Dicke state decomposes over products |J_A, -J_A + p> |J_B, -J_B + k>,
where p and k count the excitations in A and in B.  The amplitude of the
product is the Schmidt matrix

    Psi[p, k] = C_{p+k} * sqrt(H(p; N, M, p+k)),

with H the hypergeometric distribution: the probability that p of the
p+k collective excitations fall in block A.  Tracing out B leaves

    rho_A = Psi Psi^T,

an (M+1)x(M+1) real symmetric matrix, at a cost of O(M^2 (N-M)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .model import DickeGroundState

TRACE_TOL = 1e-12
# Eigenvalues of rho_A in [PSD_FLOOR, 0) are clamped to 0; below is a bug.
PSD_FLOOR = -1e-10
ENTROPY_CUTOFF = 1e-14


class ReducedDensityError(RuntimeError):
    """A reduced density matrix violated a structural invariant."""


@dataclass(frozen=True)
class Bipartition:
    """Split of n spins into a subsystem of m_sub spins and the rest."""

    n: int
    m_sub: int

    def __post_init__(self):
        if not (1 <= self.m_sub <= self.n):
            raise ValueError(
                f"subsystem size must lie in [1, {self.n}], got {self.m_sub}"
            )

    @cached_property
    def tau(self) -> float:
        return self.m_sub / self.n


@dataclass(frozen=True)
class ReducedDensity:
    """Real symmetric PSD unit-trace matrix of an M-spin subsystem.

    The eigendecomposition is computed once and cached so that entropy
    and fidelity evaluations at the same (h, M) share it.
    """

    m_sub: int
    matrix: np.ndarray

    @cached_property
    def _decomposition(self) -> tuple[np.ndarray, np.ndarray]:
        w, v = np.linalg.eigh(self.matrix)
        if w[0] < PSD_FLOOR:
            raise ReducedDensityError(
                f"min eigenvalue {w[0]:.3e} below floor {PSD_FLOOR:.0e}"
            )
        return np.clip(w, 0.0, None), v

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._decomposition[0]

    @property
    def eigenvectors(self) -> np.ndarray:
        return self._decomposition[1]


@lru_cache(maxsize=None)
def _log_binomials(n: int) -> np.ndarray:
    """log C(n, k) for k = 0..n from exact integer binomials.

    Exact combinatorics keeps the absolute error at ~1 ulp of log C even
    for n ~ 2000, where differences of large log-gamma values would lose
    enough precision to push density-matrix traces past 1e-12.
    """
    vals = np.array([math.log(math.comb(n, k)) for k in range(n + 1)])
    vals.flags.writeable = False
    return vals


def hypergeometric_weight(p: int, two_j: int, two_j1: int, m: int) -> float:
    """Hypergeometric probability C(2j1, p) C(2j2, m-p) / C(2j, m).

    Here 2j2 = 2j - 2j1.  Out-of-support combinations (m - p < 0 or
    m - p > 2j2) return 0; malformed argument ranges raise.  Computed in
    log space so it stays finite far beyond the n ~ 60 overflow point of
    naive binomials.
    """
    if not (0 <= two_j1 <= two_j):
        raise ValueError(f"need 0 <= two_j1 <= two_j, got {two_j1}, {two_j}")
    if not (0 <= p <= two_j1):
        raise ValueError(f"need 0 <= p <= two_j1, got p={p}, two_j1={two_j1}")
    if not (0 <= m <= two_j):
        raise ValueError(f"need 0 <= m <= two_j, got m={m}, two_j={two_j}")
    two_j2 = two_j - two_j1
    k = m - p
    if k < 0 or k > two_j2:
        return 0.0
    log_h = (
        _log_binomials(two_j1)[p]
        + _log_binomials(two_j2)[k]
        - _log_binomials(two_j)[m]
    )
    return math.exp(log_h)


@lru_cache(maxsize=8)
def _schmidt_weights(n: int, m_sub: int) -> np.ndarray:
    """sqrt(H(p; N, M, p+k)) as an (M+1) x (N-M+1) table over p and k."""
    lb_a = _log_binomials(m_sub)
    lb_b = _log_binomials(n - m_sub)
    lb_j = _log_binomials(n)
    p = np.arange(m_sub + 1)[:, None]
    k = np.arange(n - m_sub + 1)
    table = np.exp(0.5 * (lb_a[p] + lb_b - lb_j[p + k]))
    table.flags.writeable = False
    return table


def reduce_state(state: DickeGroundState, part: Bipartition) -> ReducedDensity:
    """Trace the ground state down to the m_sub-spin reduced density matrix.

    Builds the Schmidt matrix Psi[p, k] = C_{p+k} sqrt(H(p; N, M, p+k))
    and returns rho_A = Psi Psi^T, one matrix product costing
    O(M^2 (N-M)).  The result is symmetrized as (rho + rho^T)/2 to remove
    roundoff asymmetry, and its trace is required to be 1 within 1e-12.
    """
    if part.n != state.params.n:
        raise ValueError(
            f"bipartition is for n={part.n} but state has n={state.params.n}"
        )
    n = part.n
    m_sub = part.m_sub
    hankel = sliding_window_view(state.coefficients, n - m_sub + 1)
    psi = _schmidt_weights(n, m_sub) * hankel
    rho = psi @ psi.T
    rho = 0.5 * (rho + rho.T)

    trace_err = abs(rho.trace() - 1.0)
    if trace_err > TRACE_TOL:
        raise ReducedDensityError(
            f"trace deviates from 1 by {trace_err:.3e} (n={n}, m_sub={m_sub})"
        )
    return ReducedDensity(m_sub=m_sub, matrix=rho)


def von_neumann_entropy(rho: ReducedDensity) -> float:
    """Entanglement entropy -tr(rho ln rho) in nats.

    Eigenvalues at or below 1e-14 contribute zero.
    """
    w = rho.eigenvalues
    w = w[w > ENTROPY_CUTOFF]
    # An eigenvalue can sit one ulp above 1 and push the sum to -1e-16.
    return max(float(-(w * np.log(w)).sum()), 0.0)
