"""Brute-force oracles in the full 2^N product basis (N <= ~12).

These deliberately avoid the banded/Dicke machinery under test: the
Hamiltonian is assembled from explicit Pauli kron chains, the symmetric
sector is reached by projection onto normalized Dicke vectors, and
reduced matrices come from a literal partial trace.  The forms that
production never builds, the full bands of H and the dense matrices, and
exact hypergeometric weights live here too.

Conventions: basis index b has spin i on bit (n-1-i), single-spin state
0 is sigma_z = +1 (up), so a product state with k spins up has
popcount(b) == n - k.  Subsystem A is the first m_sub spins (the most
significant bits), matching a C-order reshape into (2^M, 2^(N-M)).

The routines that production replaced by cheaper ones that must agree
with them bit for bit, or to roundoff, are kept at the end as references:
the two-block ground-state solve, the whole Schmidt-weight table, the
full-quarter reduction, the eigen-core Uhlmann fidelity and the
completed-basis spectral sum.
"""

import math
from functools import lru_cache, reduce

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from lmglab.fidelity import DEGENERACY_TOL, POPULATION_CUTOFF
from lmglab.model import (
    RESIDUAL_TOL,
    DickeGroundState,
    EigensolverError,
    _lowest_block_eigenpair,
    _row_sum_max,
    hamiltonian_blocks,
)
from lmglab.reduced import (
    TRACE_TOL,
    WINDOW_FLOOR,
    ReducedDensity,
    ReducedDensityError,
    _log_binomials,
    _span,
)

# The north star's floor: a density matrix may have no eigenvalue below this.
PSD_FLOOR = -1e-10

SX = np.array([[0.0, 1.0], [1.0, 0.0]]) / 2.0
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]]) / 2.0
SZ = np.array([[1.0, 0.0], [0.0, -1.0]]) / 2.0
EYE = np.eye(2)


def _embed(op: np.ndarray, site: int, n: int) -> np.ndarray:
    mats = [EYE] * n
    mats[site] = op
    return reduce(np.kron, mats)


@lru_cache(maxsize=4)
def collective_squares(n: int):
    """(S_x^2, S_y^2, S_z) as dense 2^n matrices."""
    sx = sum(_embed(SX, i, n) for i in range(n))
    sy = sum(_embed(SY, i, n) for i in range(n))
    sz = sum(_embed(SZ, i, n) for i in range(n))
    sx2 = (sx @ sx).real
    sy2 = (sy @ sy).real
    return sx2, sy2, sz.real


def pauli_hamiltonian(n: int, gamma: float, h: float) -> np.ndarray:
    sx2, sy2, sz = collective_squares(n)
    return -(sx2 + gamma * sy2) / n - h * sz


@lru_cache(maxsize=8)
def dicke_basis(n: int) -> np.ndarray:
    """(2^n, n+1) matrix whose column k is |J, -J+k> (k spins up)."""
    basis = np.zeros((2**n, n + 1))
    for b in range(2**n):
        k = n - bin(b).count("1")
        basis[b, k] = 1.0 / math.sqrt(math.comb(n, k))
    return basis


def projected_spectrum(n: int, gamma: float, h: float) -> np.ndarray:
    """Eigenvalues of the 2^n Hamiltonian restricted to the J = n/2 sector."""
    ham = pauli_hamiltonian(n, gamma, h)
    basis = dicke_basis(n)
    return np.linalg.eigvalsh(basis.T @ ham @ basis)


def lift_to_product_basis(coefficients: np.ndarray) -> np.ndarray:
    """Full 2^n vector of a symmetric state given its Dicke coefficients."""
    n = coefficients.size - 1
    return dicke_basis(n) @ coefficients


def partial_trace_first(psi: np.ndarray, m_sub: int, n: int) -> np.ndarray:
    """Reduced density matrix of the first m_sub spins, in the product basis."""
    block = psi.reshape(2**m_sub, 2 ** (n - m_sub))
    return block @ block.T


def lift_reduced(matrix: np.ndarray) -> np.ndarray:
    """Embed an (M+1)x(M+1) symmetric-sector matrix into the 2^M basis."""
    m_sub = matrix.shape[0] - 1
    basis = dicke_basis(m_sub)
    return basis @ matrix @ basis.T


def dense_hamiltonian(blocks) -> np.ndarray:
    """The (N+1)x(N+1) matrix whose k-parity blocks are the tridiagonal blocks."""
    diagonal, superdiagonal2 = full_bands(blocks)
    off = np.diag(superdiagonal2, k=2)
    return np.diag(diagonal) + off + off.T


def full_bands(blocks) -> tuple[np.ndarray, np.ndarray]:
    """The (N+1)-row diagonal and the couplings of k and k + 2 (N - 1 of them)."""
    diagonal = np.empty(sum(diag.size for diag, _ in blocks))
    superdiagonal2 = np.empty(diagonal.size - 2)
    for start, (diag, off) in enumerate(blocks):
        diagonal[start::2] = diag
        superdiagonal2[start::2] = off
    return diagonal, superdiagonal2


def band_matvec(diagonal, superdiagonal2, v) -> np.ndarray:
    """H v over the full bands."""
    out = diagonal * v
    out[:-2] += superdiagonal2 * v[2:]
    out[2:] += superdiagonal2 * v[:-2]
    return out


def band_norm_inf(diagonal, superdiagonal2) -> float:
    """||H||_inf as the max absolute row sum over the full bands."""
    rows = np.abs(diagonal)
    rows[:-2] += np.abs(superdiagonal2)
    rows[2:] += np.abs(superdiagonal2)
    return float(rows.max())


def window_block(rho: ReducedDensity, r: int, start: int, size: int) -> np.ndarray:
    """Rows and columns start .. start + size - 1 of rho's parity block r.

    The range must contain the block's window; the block is zero outside
    it, and a a^T, symmetrized, inside.
    """
    offset, a = rho.windows[r]
    product = a @ a.T
    matrix = np.zeros((size, size))
    i = offset - start
    matrix[i:i + len(a), i:i + len(a)] = 0.5 * (product + product.T)
    return matrix


def dense_reduced(rho: ReducedDensity) -> np.ndarray:
    """The (M+1)x(M+1) matrix of rho, checked as a density matrix.

    Zero at odd p - q by construction; asserts symmetry, unit trace within
    1e-12 and no eigenvalue below PSD_FLOOR.
    """
    matrix = np.zeros((rho.m_sub + 1,) * 2)
    for r in (0, 1):
        matrix[r::2, r::2] = window_block(rho, r, 0, len(matrix[r::2]))
    assert np.array_equal(matrix, matrix.T)
    assert abs(matrix.trace() - 1.0) <= 1e-12
    assert np.linalg.eigvalsh(matrix)[0] >= PSD_FLOOR
    return matrix


def reduced_from_matrix(matrix) -> ReducedDensity:
    """A ReducedDensity holding each parity block V diag(w) V^T as V sqrt(w).

    Eigenvalues in [PSD_FLOOR, 0) count as 0.  Raises ReducedDensityError on
    a nonzero entry at odd p - q or an eigenvalue below PSD_FLOOR.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix[0::2, 1::2].any() or matrix[1::2, 0::2].any():
        raise ReducedDensityError("matrix has a nonzero entry at odd p - q")
    windows = []
    for r in (0, 1):
        w, v = np.linalg.eigh(matrix[r::2, r::2])
        if w[0] < PSD_FLOOR:
            raise ReducedDensityError(f"min eigenvalue {w[0]:.3e} below {PSD_FLOOR}")
        windows.append((0, v * np.sqrt(np.clip(w, 0.0, None))))
    return ReducedDensity(len(matrix) - 1, tuple(windows))


def hypergeometric(n: int, m_sub: int) -> np.ndarray:
    """H(p; N, M, m) = C(M, p) C(N - M, m - p) / C(N, m) over p and m.

    A quotient of exact integers, rounded once; 0 where m - p is outside 0..N-M.
    """
    table = np.zeros((m_sub + 1, n + 1))
    for p in range(m_sub + 1):
        for k in range(n - m_sub + 1):
            ways = math.comb(m_sub, p) * math.comb(n - m_sub, k)
            table[p, p + k] = ways / math.comb(n, p + k)
    return table


def two_block_ground_state(params) -> DickeGroundState:
    """``ground_state`` solving both parity blocks and comparing them.

    The even block is returned when E_even <= E_odd + RESIDUAL_TOL * ||H||_inf,
    and ||H||_inf and the residual are taken over the full bands.
    """
    blocks = hamiltonian_blocks(params.n, params.gamma, params.h)
    pairs = [_lowest_block_eigenpair(*block, _row_sum_max(*block)) for block in blocks]
    d, e = full_bands(blocks)
    scale = band_norm_inf(d, e)
    start = 0 if pairs[0][0] <= pairs[1][0] + RESIDUAL_TOL * scale else 1
    energy, first, window = pairs[start]
    coefficients = np.zeros(params.n + 1)
    coefficients[start::2][first : first + window.size] = window
    coefficients /= np.linalg.norm(coefficients)
    residual = np.linalg.norm(band_matvec(d, e, coefficients) - energy * coefficients)
    if not residual <= RESIDUAL_TOL * scale:  # NaN fails too
        raise EigensolverError(f"residual {residual:.3e}", params)
    return DickeGroundState(params=params, coefficients=coefficients, energy=energy)


@lru_cache(maxsize=2)
def schmidt_weights(n: int, m_sub: int) -> np.ndarray:
    """sqrt(H(p; N, M, p+k)) as an (M+1) x (N-M+1) table over p and k."""
    lb_a = _log_binomials(m_sub)
    lb_b = _log_binomials(n - m_sub)
    lb_j = _log_binomials(n)
    p = np.arange(m_sub + 1)[:, None]
    k = np.arange(n - m_sub + 1)
    table = np.exp(0.5 * (lb_a[p] + lb_b - lb_j[p + k]))
    table.flags.writeable = False
    return table


def full_quarter_reduce(state: DickeGroundState, n: int, m_sub: int) -> ReducedDensity:
    """``reduce_state`` forming each parity block's whole quarter of Psi.

    The quarter Psi[r::2, c::2] over all p and k is cut to the rows and
    columns whose squared norms exceed WINDOW_FLOOR.
    """
    hankel = sliding_window_view(state.coefficients, n - m_sub + 1)
    weights = schmidt_weights(n, m_sub)
    windows = []
    trace = 0.0
    for r in (0, 1):
        c = (state.sector - r) % 2
        psi = weights[r::2, c::2] * hankel[r::2, c::2]
        row_mass = np.einsum("ij,ij->i", psi, psi)
        trace += row_mass.sum()
        rows = _span(row_mass > WINDOW_FLOOR)
        cols = _span(np.einsum("ij,ij->j", psi[rows], psi[rows]) > WINDOW_FLOOR)
        windows.append((rows.start, psi[rows, cols].copy()))
    assert abs(trace - 1.0) <= TRACE_TOL
    return ReducedDensity(m_sub, tuple(windows))


def eigen_core_fidelity(rho: ReducedDensity, sigma: ReducedDensity) -> float:
    """Uhlmann fidelity from each block's eigensystem, U s V^T = thin SVD of A.

    Per block, the nuclear norm of the core s (U^T U') s', whose middle
    product runs over the rows where the two windows overlap.
    """
    fid = 0.0
    for (o_r, u_r, w_r), (o_s, u_s, w_s) in zip(rho.spectra, sigma.spectra):
        lo = max(o_r, o_s)
        hi = max(lo, min(o_r + len(u_r), o_s + len(u_s)))
        overlap = u_r[lo - o_r:hi - o_r].T @ u_s[lo - o_s:hi - o_s]
        core = np.sqrt(w_r)[:, None] * overlap * np.sqrt(w_s)[None, :]
        fid += float(np.linalg.svd(core, compute_uv=False).sum())
    return min(max(fid, 0.0), 1.0)


def completed_basis_spectral(rho_minus, rho, rho_plus, delta: float) -> float:
    """``fs_spectral`` over a full basis of each block's union window.

    rho(h)'s modes are completed to an orthonormal basis of the union of
    the three windows by Householder QR, the null modes taking p = 0, and
    d_rho is formed as the difference of the dense window blocks of
    rho(h +- delta); the sum then runs over every pair of basis vectors.
    """
    chi = 0.0
    for r, (offset, u, p) in enumerate(rho.spectra):
        windows = ((offset, u), rho_plus.windows[r], rho_minus.windows[r])
        spans = [(o, o + len(a)) for o, a in windows if len(a)]
        if not spans:
            continue
        lo = min(start for start, _ in spans)
        size = max(stop for _, stop in spans) - lo
        d_rho = (window_block(rho_plus, r, lo, size)
                 - window_block(rho_minus, r, lo, size)) / (2.0 * delta)

        modes = np.zeros((size, u.shape[1]))
        modes[offset - lo:offset - lo + len(u)] = u
        # Householder QR keeps the first columns (up to sign) and adds an
        # orthonormal basis of their complement: the null modes.
        basis = np.linalg.qr(modes, mode="complete")[0]
        w = np.zeros(size)
        w[:len(p)] = p
        overlap = basis.T @ d_rho @ basis

        dp = np.diag(overlap)
        occupied = w >= POPULATION_CUTOFF
        chi += float((dp[occupied] ** 2 / (4.0 * w[occupied])).sum())

        pair_mask = np.abs(w[:, None] - w[None, :]) >= DEGENERACY_TOL
        np.fill_diagonal(pair_mask, False)
        denom = w[:, None] + w[None, :]
        chi += float(0.5 * (overlap[pair_mask] ** 2 / denom[pair_mask]).sum())
    return chi
