"""Reduction of a Dicke-basis ground state to an M-spin subsystem.

Splitting the N spins into a block A of M spins and its complement B, a
Dicke state decomposes over products |J_A, -J_A + p> |J_B, -J_B + k>,
where p and k count the excitations in A and in B.  The amplitude of the
product is the Schmidt matrix

    Psi[p, k] = C_{p+k} * sqrt(H(p; N, M, p+k)),

with H the hypergeometric distribution: the probability that p of the
p+k collective excitations fall in block A.  Tracing out B leaves

    rho_A = Psi Psi^T,

an (M+1)x(M+1) real symmetric matrix.  The ground state has support on a
single k-parity sector s, so Psi[p, k] vanishes unless k = s - p (mod 2):
rho_A is block diagonal in the parity of p, rho_A = rho_even + rho_odd,
and its entries at odd p - q are exactly zero.  It is built, stored and
decomposed as those two blocks, each one product over a quarter of Psi;
the dense matrix is only embedded on demand.
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

    Stored as its two parity blocks rho[r::2, r::2], r = 0 (even p) and 1
    (odd p); the entries at odd p - q are exactly zero.  The eigendecomposition
    is taken per block and cached, shared by entropy and fidelity.
    """

    block_matrices: tuple[np.ndarray, np.ndarray]

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> ReducedDensity:
        """The reduced density of a dense (M+1)x(M+1) matrix.

        Raises ReducedDensityError if an entry at odd p - q is nonzero.
        """
        matrix = np.asarray(matrix, dtype=float)
        if matrix[0::2, 1::2].any() or matrix[1::2, 0::2].any():
            raise ReducedDensityError("matrix has a nonzero entry at odd p - q")
        return cls((matrix[0::2, 0::2], matrix[1::2, 1::2]))

    @property
    def m_sub(self) -> int:
        return sum(len(block) for block in self.block_matrices) - 1

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense (M+1)x(M+1) matrix, zero at odd p - q; built on first use."""
        matrix = np.zeros((self.m_sub + 1,) * 2)
        for r, block in enumerate(self.block_matrices):
            matrix[r::2, r::2] = block
        return matrix

    @cached_property
    def _decomposition(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        blocks = []
        for block in self.block_matrices:
            w, v = np.linalg.eigh(block)
            if w.size and w[0] < PSD_FLOOR:
                raise ReducedDensityError(
                    f"min eigenvalue {w[0]:.3e} below floor {PSD_FLOOR:.0e}"
                )
            blocks.append((np.clip(w, 0.0, None), v))
        return tuple(blocks)

    @property
    def blocks(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """(eigenvalues, eigenvectors) of the even-p and odd-p blocks.

        Eigenvalues ascend within each block, clamped at zero; the
        eigenvectors are columns over the block's own indices p = r, r+2, ...
        """
        return self._decomposition

    @property
    def eigenvalues(self) -> np.ndarray:
        """The even-p block's eigenvalues, ascending, then the odd-p block's."""
        return np.concatenate([w for w, _ in self._decomposition])


@lru_cache(maxsize=None)
def _log_binomials(n: int) -> np.ndarray:
    """log C(n, k) for k = 0..n from exact integer binomials.

    The exact integers C(n, k) for k <= n/2 are walked by the recurrence
    C(n, k+1) = C(n, k) (n - k) / (k + 1), which divides exactly, and
    each is passed to ``math.log``; the upper half mirrors the lower by
    C(n, k) = C(n, n - k).  Each step multiplies and divides an integer
    of at most n bits by a small one, so the table costs O(n^2) word
    operations: about 11 ms at n = 8192 and 0.16 s at n = 32768.

    Exact combinatorics keeps the absolute error at ~1 ulp of log C even
    for n ~ 2000, where differences of large log-gamma values would lose
    enough precision to push density-matrix traces past 1e-12.
    """
    vals = np.empty(n + 1)
    c = 1
    for k in range(n // 2 + 1):
        vals[k] = vals[n - k] = math.log(c)
        c = c * (n - k) // (k + 1)
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


# The CLI evaluates all points of one (N, M) pair in a row, so two entries
# keep its hit rate; more would only hold (M+1) x (N-M+1) tables alive.
@lru_cache(maxsize=2)
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

    Returns rho_A = Psi Psi^T as its two parity blocks: block r is the
    product of rows p = r (mod 2) and columns k = s - r (mod 2) of Psi, s
    being the state's k-parity sector, with its transpose, symmetrized as
    (b + b^T)/2.  The trace is required to be 1 within 1e-12.
    """
    if part.n != state.params.n:
        raise ValueError(
            f"bipartition is for n={part.n} but state has n={state.params.n}"
        )
    n, m_sub = part.n, part.m_sub
    sector = state.sector
    if sector is None:
        raise ReducedDensityError(
            f"state has support on both k-parity sectors (n={n}, m_sub={m_sub})"
        )
    hankel = sliding_window_view(state.coefficients, n - m_sub + 1)
    weights = _schmidt_weights(n, m_sub)
    blocks = []
    for r in (0, 1):
        c = (sector - r) % 2
        psi = weights[r::2, c::2] * hankel[r::2, c::2]
        block = psi @ psi.T
        blocks.append(0.5 * (block + block.T))

    trace_err = abs(blocks[0].trace() + blocks[1].trace() - 1.0)
    if trace_err > TRACE_TOL:
        raise ReducedDensityError(
            f"trace deviates from 1 by {trace_err:.3e} (n={n}, m_sub={m_sub})"
        )
    return ReducedDensity(tuple(blocks))


def von_neumann_entropy(rho: ReducedDensity) -> float:
    """Entanglement entropy -tr(rho ln rho) in nats.

    Eigenvalues at or below 1e-14 contribute zero.
    """
    w = rho.eigenvalues
    w = w[w > ENTROPY_CUTOFF]
    # An eigenvalue can sit one ulp above 1 and push the sum to -1e-16.
    return max(float(-(w * np.log(w)).sum()), 0.0)
