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
and its entries at odd p - q are exactly zero.

Each block keeps its Schmidt factor, the quarter Psi[r::2, c::2] of Psi,
cut to the contiguous rows and columns whose squared norms exceed
WINDOW_FLOOR = 1e-30.  Near h = 1 that leaves a few dozen of the M/2 rows
(56 of 513 at N = 2048, M = 1024, h = 0.97), while the dropped rows carry
less than (N + 2) * 1e-30 of the trace.  C is exactly zero outside the
span [c_lo, c_hi] of its solve window, so Psi, its weights included, is
formed only on the box of rows and columns that can meet
c_lo <= p + k <= c_hi: a reduction holds that box and the O(N) exact
log-binomials, never an (M+1) x (N-M+1) array.  The factor is
the only form in which rho_A is held: the eigensystem of a block is the
thin SVD of its window, U s V^T, giving eigenvectors U and eigenvalues
s^2, which cannot be negative.  This is the Schmidt decomposition of a
Dicke state across two blocks (Latorre, Orus, Rico and Vidal, PRA 71,
064101 (2005)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .model import DickeGroundState

TRACE_TOL = 1e-12
# Rows and columns of Psi whose squared norms are at or below this are
# left out of a block's Schmidt factor.
WINDOW_FLOOR = 1e-30
ENTROPY_CUTOFF = 1e-14


class ReducedDensityError(RuntimeError):
    """A reduced density matrix violated a structural invariant."""


@dataclass(frozen=True)
class Bipartition:
    """Split of n spins into a subsystem of m_sub spins and the rest."""

    n: int
    m_sub: int

    def __post_init__(self):
        for name in ("n", "m_sub"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not (1 <= self.m_sub <= self.n):
            raise ValueError(
                f"subsystem size must lie in [1, {self.n}], got {self.m_sub}"
            )


@dataclass(frozen=True)
class ReducedDensity:
    """Real symmetric PSD unit-trace matrix of an M-spin subsystem.

    Held as its two parity blocks rho[r::2, r::2], r = 0 (even p) and 1
    (odd p); the entries at odd p - q are exactly zero.  Block r is zero
    outside a window of its rows, ``windows[r] = (offset, a)``, and is
    a a^T there: ``a`` is the block's Schmidt factor, its quarter of Psi
    cut to the rows and columns whose squared norms exceed WINDOW_FLOOR.
    No dense block is ever formed.  The eigensystem is the thin SVD of
    each factor, taken once and cached: the entropy reads its singular
    values and the spectral susceptibility its left singular vectors.
    The fidelity works from the factors themselves.
    """

    m_sub: int
    windows: tuple[tuple[int, np.ndarray], tuple[int, np.ndarray]]

    @cached_property
    def _decomposition(self) -> tuple[tuple[int, np.ndarray, np.ndarray], ...]:
        blocks = []
        for offset, a in self.windows:
            u, s, _ = np.linalg.svd(a, full_matrices=False)
            blocks.append((offset, u, s * s))
        return tuple(blocks)

    @property
    def spectra(self) -> tuple[tuple[int, np.ndarray, np.ndarray], ...]:
        """(offset, eigenvectors, eigenvalues) of the even-p and odd-p blocks.

        The eigenvectors are the columns over the block's window, rows
        offset, offset + 1, ... of the block (p = 2 offset + r, ...); the
        eigenvalues are the squared singular values of the Schmidt factor,
        descending.  Modes outside these have eigenvalue 0.
        """
        return self._decomposition


@lru_cache(maxsize=None)
def _log_binomials(n: int) -> np.ndarray:
    """log C(n, k) for k = 0..n from exact integer binomials.

    The exact integers C(n, k) for k <= n/2 are walked by the recurrence
    C(n, k+1) = C(n, k) (n - k) / (k + 1), which divides exactly, and
    each is passed to ``math.log``; the upper half mirrors the lower by
    C(n, k) = C(n, n - k).  Each step multiplies and divides an integer
    of at most n bits by a small one, so the table costs O(n^2) word
    operations the first time each n is met: about 11 ms at n = 8192,
    0.16 s at n = 32768 and 1.3 s at n = 10^5.  A reduction reads the
    tables for M, N - M and N, O(N) doubles, and forms weights only on
    its box (``_box_weights``).

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


def _hankel(values: np.ndarray, start: int, n_rows: int, n_cols: int) -> np.ndarray:
    """The view H[i, j] = values[start + 2(i + j)] of a contiguous 1-D array."""
    step = 2 * values.itemsize
    return np.ndarray(
        (n_rows, n_cols), dtype=values.dtype, buffer=values, strides=(step, step),
        offset=start * values.itemsize if n_rows and n_cols else 0,
    )


def _box_weights(n: int, m_sub: int, p_lo: int, k_lo: int, n_rows: int,
                 n_cols: int) -> np.ndarray:
    """sqrt(H(p; N, M, p + k)) on the box p = p_lo + 2i, k = k_lo + 2j.

    Here i < n_rows and j < n_cols.  Each weight is
    exp(0.5 (log C(M, p) + log C(N - M, k) - log C(N, p + k))) from the
    exact ``_log_binomials``, so only the box is ever formed.
    """
    lb_a = _log_binomials(m_sub)[p_lo::2][:n_rows, None]
    lb_b = _log_binomials(n - m_sub)[k_lo::2][:n_cols]
    lb_j = _hankel(_log_binomials(n), p_lo + k_lo, n_rows, n_cols)
    # In place, so the box is allocated once.
    weights = lb_a + lb_b
    weights -= lb_j
    weights *= 0.5
    return np.exp(weights, out=weights)


def _span(mask: np.ndarray) -> slice:
    """The smallest contiguous slice holding every True entry of ``mask``."""
    hits = np.flatnonzero(mask)
    return slice(int(hits[0]), int(hits[-1]) + 1) if hits.size else slice(0, 0)


def reduce_state(state: DickeGroundState, part: Bipartition) -> ReducedDensity:
    """Trace the ground state down to the m_sub-spin reduced density matrix.

    Returns rho_A = Psi Psi^T as its two parity blocks: block r is the
    product of rows p = r (mod 2) and columns k = s - r (mod 2) of Psi, s
    being the state's k-parity sector, with its transpose.  Each block
    keeps the Schmidt factor Psi[r::2, c::2] over the contiguous rows and
    columns whose squared norms exceed WINDOW_FLOOR; the rest carries less
    than (N + 2) * WINDOW_FLOOR of the trace.  Psi is formed only where
    C_{p+k} can be nonzero (see the module docstring).  The trace of the
    full blocks, kept plus dropped mass, is required to be 1 within 1e-12.
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
    # C vanishes outside [c_lo, c_hi], so Psi[p, k] = 0 unless
    # c_lo <= p + k <= c_hi: the box below holds every nonzero entry.
    coefficients = np.ascontiguousarray(state.coefficients)
    support = _span(coefficients != 0.0)
    c_lo, c_hi = support.start, support.stop - 1
    windows = []
    trace = 0.0
    for r in (0, 1):
        c = (sector - r) % 2
        # The box's rows p = r (mod 2) and columns k = c (mod 2).
        p_lo = max(c_lo - (n - m_sub), 0)
        p_lo += (p_lo - r) % 2
        k_lo = max(c_lo - m_sub, 0)
        k_lo += (k_lo - c) % 2
        n_rows = max((min(c_hi, m_sub) - p_lo) // 2 + 1, 0)
        n_cols = max((min(c_hi, n - m_sub) - k_lo) // 2 + 1, 0)
        # Psi[p_lo + 2i, k_lo + 2j] = weight * C[p_lo + k_lo + 2(i + j)]: a
        # Hankel slice of C, viewed in place.
        psi = _box_weights(n, m_sub, p_lo, k_lo, n_rows, n_cols)
        psi *= _hankel(coefficients, p_lo + k_lo, n_rows, n_cols)
        row_mass = np.einsum("ij,ij->i", psi, psi)
        trace += row_mass.sum()
        rows = _span(row_mass > WINDOW_FLOOR)
        cols = _span(np.einsum("ij,ij->j", psi[rows], psi[rows]) > WINDOW_FLOOR)
        offset = (p_lo - r) // 2 + rows.start if rows.stop else 0
        windows.append((offset, psi[rows, cols].copy()))

    trace_err = abs(trace - 1.0)
    if not trace_err <= TRACE_TOL:  # also true for a NaN trace
        raise ReducedDensityError(
            f"trace deviates from 1 by {trace_err:.3e} (n={n}, m_sub={m_sub})"
        )
    return ReducedDensity(m_sub, tuple(windows))


def von_neumann_entropy(rho: ReducedDensity) -> float:
    """Entanglement entropy -tr(rho ln rho) in nats.

    Eigenvalues at or below 1e-14 contribute zero.
    """
    w = np.concatenate([np.sort(w) for _, _, w in rho.spectra])
    w = w[w > ENTROPY_CUTOFF]
    # An eigenvalue can sit one ulp above 1 and push the sum to -1e-16, and
    # one eigenvalue of exactly 1 gives -0.0; adding +0.0 makes that +0.0
    # and keeps a NaN.
    return max(float(-(w * np.log(w)).sum()), 0.0) + 0.0
