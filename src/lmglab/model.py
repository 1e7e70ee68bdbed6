"""Lipkin-Meshkov-Glick Hamiltonian in the maximal-spin Dicke basis.

The model describes N spin-1/2 particles with an all-to-all ferromagnetic
interaction in a transverse field,

    H = -(1/N) * (S_x^2 + gamma * S_y^2) - h * S_z,

with the interaction strength fixed to 1 and collective spin operators
S_a = sum_i sigma_a^i / 2.  The ground state lives in the symmetric
J = N/2 sector, so the relevant Hilbert space is only N+1 dimensional.
In that sector H couples the Dicke state k only to k and k +- 2 (S_+^2
and S_-^2 move m by 2), so it splits exactly into two symmetric
tridiagonal m-parity blocks, which ``hamiltonian_blocks`` returns and
``ground_state`` solves one at a time.  A block's max row sum ||T||_inf
(``_row_sum_max``) scales its certificate below; the larger, ||H||_inf,
scales the parity tie-break and the residual bound, checked on the
ground state's block.  No sign is imposed, and no result reads it:
``dstein`` makes the largest entry positive, and with couplings <= 0 the
lowest eigenvector has one sign.

The ground state occupies only a small part of a block's N/2 rows, so
each block's lowest pair is solved on a window of rows: it starts around
the minimum of the block's Gershgorin lower edges d_i - |e_{i-1}| - |e_i|
and doubles on each side whose end amplitude exceeds ``EDGE_FLOOR``.
The window's energy E_w is then certified against the whole block:
Cauchy interlacing gives E_w >= lambda_min, and one LDL^T factorization
(``dpttrf``) of the block shifted to E_w - 1e-12 * ||T||_inf succeeding
proves lambda_min > E_w - 1e-12 * ||T||_inf.  A window that fails the
certificate widens; the whole block needs none.

Only one block is solved when the other cannot hold the ground state: the
block of N's parity (which holds k = N, the ground state at large h) is
solved first, and one ``dpttrf`` of the other, whole block, shifted to
the first block's energy minus or plus the parity tie-break tolerance,
proves the other block's lowest eigenvalue lies beyond the tie-break.

The three LAPACK drivers come from scipy's compiled extension
``scipy.linalg._flapack``, loaded directly (``_load_flapack``) rather
than through ``scipy.linalg``, because importing ``scipy.linalg`` costs
more than a typical command-line run computes.  Its ``__init__`` reaches
``scipy._lib._array_api``, whose ``array_api_compat.numpy`` calls
``clone_module("numpy")`` and so imports every lazy numpy submodule:
``numpy.f2py``, ``numpy.testing``, ``numpy.ma`` and ``numpy.random``.
The drivers are the very objects ``scipy.linalg.lapack`` re-exports
(``from scipy.linalg._flapack import *``), whichever of the two is
imported first.  Not even the top-level ``scipy`` package is imported:
its ``__init__`` reaches ``scipy._lib._testutils`` and with it
``subprocess``, ``locale``, ``signal``, ``selectors`` and ``sysconfig``,
so the extension is found from the ``linalg`` subdirectory of scipy's
package directory.  There is no fallback: if a scipy release moves the
extension, importing this module fails.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

# Accepted relative residual ||H v - E v|| / ||H||_inf of the ground pair.
RESIDUAL_TOL = 1e-10

# A block's window widens on each side whose end row holds more than this
# amplitude of the (unit) window eigenvector.
EDGE_FLOOR = 1e-18

# The certificate bounds the block's lowest eigenvalue below the window's
# energy by this multiple of the block's ||T||_inf.
CERTIFICATE_SLACK = 1e-12


def _load_flapack():
    """scipy's ``scipy.linalg._flapack`` module, without importing scipy.

    Reuses the module when it is already loaded; otherwise loads it from
    the ``linalg`` subdirectory of scipy's package directory (``find_spec``
    of a top-level name imports nothing) and registers it under its own
    name, where ``scipy.linalg.lapack`` will find it.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    scipy_dirs = scipy.submodule_search_locations if scipy else ()
    path = [os.path.join(directory, "linalg") for directory in scipy_dirs]
    spec = importlib.machinery.PathFinder.find_spec(name, path)
    if spec is None:
        raise ImportError(f"{name} not found in {path}", name=name)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()
dpttrf, dstebz, dstein = _flapack.dpttrf, _flapack.dstebz, _flapack.dstein


class EigensolverError(RuntimeError):
    """Ground-state eigensolve failed or did not meet the residual bound."""

    def __init__(self, message: str, params: "ModelParams"):
        super().__init__(
            f"{message} [n={params.n}, gamma={params.gamma}, h={params.h}]"
        )
        self.params = params


@dataclass(frozen=True)
class ModelParams:
    """Parameters (N, gamma, h) of one Hamiltonian instance.

    The spin-spin coupling is identically 1 and is not a parameter.  The
    studied regime is n >= 2, 0 <= gamma <= 1, h >= 0; anything else is
    rejected at construction.
    """

    n: int
    gamma: float
    h: float

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or isinstance(self.n, bool):
            raise ValueError(f"particle count must be an integer, got {self.n!r}")
        if self.n < 2:
            raise ValueError(f"particle count must be >= 2, got {self.n}")
        if not (0.0 <= self.gamma <= 1.0):
            raise ValueError(f"anisotropy must lie in [0, 1], got {self.gamma}")
        if not (math.isfinite(self.h) and self.h >= 0.0):
            raise ValueError(f"field must be finite and >= 0, got {self.h}")


@dataclass(frozen=True)
class DickeGroundState:
    """Ground state as the coefficient vector C_k over |J, -J + k>.

    Invariants guaranteed by :func:`ground_state`: unit norm, support on
    a single k-parity sector.  The sign is ``dstein``'s, which no result
    reads (see the module docstring).
    """

    params: ModelParams
    coefficients: np.ndarray
    energy: float

    @functools.cached_property
    def sector(self) -> int | None:
        """k-parity (0 or 1) of the support, None if it spans both sectors."""
        even, odd = self.coefficients[0::2].any(), self.coefficients[1::2].any()
        return None if even and odd else int(odd)


def hamiltonian_blocks(n: int, gamma: float,
                       h: float) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The J = N/2 sector Hamiltonian as its two tridiagonal parity blocks.

    Index k = 0..N labels the Dicke state |J, -J + k> with J = N/2, so
    half-integer magnetic quantum numbers never appear in indexing.  H
    couples k only to k and k +- 2, so the even-k and odd-k rows decouple
    exactly; block s = 0, 1 is returned as (diag, off), the diagonal at
    k = s, s + 2, ... and the couplings of consecutive rows, both strided
    views of the bands over all N + 1 rows.  Matrix elements follow from
    rewriting the interaction with ladder operators,
    S_x^2 + gamma*S_y^2 = ((1+gamma)/2)(S^2 - S_z^2)
    + ((1-gamma)/4)(S_+^2 + S_-^2):

        <k|H|k>   = -(1+gamma)/(2N) * [J(J+1) - m^2] - h*m
        <k+2|H|k> = -(1-gamma)/(4N) * sqrt([J(J+1) - m(m+1)][J(J+1) - (m+1)(m+2)])

    with m = k - J.  The arguments are not checked, so h < 0 is allowed.
    """
    jj = 0.25 * n * (n + 2)  # J(J+1)
    m = np.arange(n + 1.0) - 0.5 * n
    diag = -(1.0 + gamma) / (2.0 * n) * (jj - m * m) - h * m
    m2 = m[:-2]
    ladder = (jj - m2 * (m2 + 1.0)) * (jj - (m2 + 1.0) * (m2 + 2.0))
    off = -(1.0 - gamma) / (4.0 * n) * np.sqrt(ladder)  # off[k] couples k and k + 2
    return (diag[0::2], off[0::2]), (diag[1::2], off[1::2])


def _row_sum_max(diag: np.ndarray, off: np.ndarray) -> float:
    # Max of |d_i| + |e_i| + |e_{i-1}|, added in that order, so the max over
    # both blocks is ||H||_inf of the whole band to the last bit.
    rows = np.abs(diag)
    rows[:-1] += np.abs(off)
    rows[1:] += np.abs(off)
    return float(rows.max())


def _block_residual(diag: np.ndarray, off: np.ndarray, v: np.ndarray, energy: float) -> float:
    # ||T v - E v|| for the tridiagonal block T = (diag, off).
    tv = diag * v
    tv[:-1] += off * v[1:]
    tv[1:] += off * v[:-1]
    return float(np.linalg.norm(tv - energy * v))


def _lowest_pair(diag: np.ndarray, off: np.ndarray) -> tuple[float, np.ndarray]:
    # Bisection for the lowest eigenvalue (range 2: by index, il = iu = 1;
    # order "B", as dstein needs), inverse iteration for its vector.
    _, w, iblock, isplit, info = dstebz(diag, off, 2, 0.0, 0.0, 1, 1, 0.0, "B")
    if info != 0:
        raise np.linalg.LinAlgError(f"dstebz returned info={info}")
    vectors, info = dstein(diag, off, w[:1], iblock, isplit)
    if info != 0:
        raise np.linalg.LinAlgError(f"dstein returned info={info}")
    return float(w[0]), vectors[:, 0]


def _bounded_below(diag: np.ndarray, off: np.ndarray, shift: float) -> bool:
    # True when T - shift * I is positive definite, i.e. lambda_min(T) > shift.
    if diag.size == 1:
        # The f2py dpttrf rejects an empty off-diagonal.
        return bool(diag[0] > shift)
    _, _, info = dpttrf(diag - shift, off, overwrite_d=1)
    if info < 0:
        raise np.linalg.LinAlgError(f"dpttrf returned info={info}")
    return info == 0


def _lowest_block_eigenpair(diag: np.ndarray, off: np.ndarray,
                            norm: float) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of the symmetric tridiagonal block (diag, off).

    ``norm`` is the block's ``_row_sum_max``, which scales the certificate.
    Solved on a certified window of rows (see the module docstring); the
    returned vector is zero outside the window.
    """
    size = diag.size
    if size == 1:
        return float(diag[0]), np.ones(1)
    if not math.isfinite(norm):
        raise ValueError("tridiagonal block has non-finite entries")
    coupling = np.abs(off)
    radius = np.zeros(size)
    radius[:-1] = coupling
    radius[1:] += coupling
    centre = int(np.argmin(diag - radius))
    half = 4 * math.isqrt(size) + 8
    lo, hi = max(centre - half, 0), min(centre + half + 1, size)
    while True:
        energy, vec = _lowest_pair(diag[lo:hi], off[lo : hi - 1])
        if lo == 0 and hi == size:
            return energy, vec
        widen_lo = lo > 0 and abs(vec[0]) > EDGE_FLOOR
        widen_hi = hi < size and abs(vec[-1]) > EDGE_FLOOR
        if not (widen_lo or widen_hi):
            if _bounded_below(diag, off, energy - CERTIFICATE_SLACK * norm):
                full = np.zeros(size)
                full[lo:hi] = vec
                return energy, full
            widen_lo = widen_hi = True
        width = hi - lo
        if widen_lo:
            lo = max(lo - width, 0)
        if widen_hi:
            hi = min(hi + width, size)


def ground_state(params: ModelParams) -> DickeGroundState:
    """Lowest eigenpair of the Hamiltonian's parity blocks, with ``dstein``'s sign.

    The solve is done per m-parity block (each block is symmetric
    tridiagonal).  This is not just an optimization: in the broken phase
    the even/odd gap closes exponentially in N and falls below machine
    resolution near N ~ 250, where a full-band solver returns an
    arbitrary mixture of the two parity eigenvectors.  Solving blocks
    separately keeps the returned state in a definite parity sector and
    keeps it continuous in h.  Each block is solved on a certified window
    of rows (bisection and inverse iteration, ``dstebz`` and ``dstein``;
    see the module docstring); coefficients outside it are exactly zero.

    The even sector is returned when E_even <= E_odd + 1e-10 * ||H||_inf,
    ||H||_inf being the larger of the two blocks' max row sums.
    This is a tolerance, not a degeneracy test: within it the even state
    is returned even when the odd one is lower, so near a level crossing
    of the two sectors the returned sector switches where the splitting
    passes that tolerance, not where it changes sign (at N = 40,
    gamma = 0.5 the splitting changes sign at h = 0.65407 and the sector
    switches at h = 0.65503).  Deep in the broken phase, where the doublet
    is degenerate below machine resolution, the even state is returned.
    The other block is solved only when one ``dpttrf`` of it cannot prove
    that its lowest eigenvalue lies beyond the tie-break (see the module
    docstring).

    Raises
    ------
    EigensolverError
        If LAPACK fails to converge or the residual test
        ||T v - E v|| <= 1e-10 * ||H||_inf on the returned block T fails.
    """
    blocks = hamiltonian_blocks(params.n, params.gamma, params.h)
    norms = [_row_sum_max(*block) for block in blocks]
    tol = RESIDUAL_TOL * max(norms)
    start = params.n % 2  # the block holding k = N
    other = 1 - start
    try:
        energy, block = _lowest_block_eigenpair(*blocks[start], norms[start])
        # The even block wins ties, so the odd block must be lower by more
        # than the tolerance to win.
        shift = energy - tol if start == 0 else energy + tol
        if not _bounded_below(*blocks[other], shift):
            pairs = {start: (energy, block),
                     other: _lowest_block_eigenpair(*blocks[other], norms[other])}
            start = 0 if pairs[0][0] <= pairs[1][0] + tol else 1
            energy, block = pairs[start]
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise EigensolverError(f"tridiagonal eigensolver failed: {exc}", params) from exc

    coefficients = np.zeros(params.n + 1)
    coefficients[start::2] = block
    coefficients /= np.linalg.norm(coefficients)

    # The other block's rows of H C - E C are exactly zero.
    residual = _block_residual(*blocks[start], coefficients[start::2], energy)
    # Written so that a NaN residual (a NaN vector from dstein) fails too.
    if not np.isfinite(energy) or not residual <= tol:
        raise EigensolverError(
            f"residual {residual:.3e} exceeds {RESIDUAL_TOL:.0e} * ||H|| = {tol:.3e}",
            params,
        )
    # Read-only: the state is shared between calls and caches its sector.
    coefficients.flags.writeable = False
    return DickeGroundState(params=params, coefficients=coefficients, energy=energy)

