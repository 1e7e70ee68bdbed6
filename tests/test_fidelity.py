import math
import warnings
from dataclasses import replace
from functools import cached_property

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import sqrtm

import lmglab.fidelity
import lmglab.model
from lmglab.fidelity import (
    DEGENERACY_TOL,
    POPULATION_CUTOFF,
    DeltaProbeWarning,
    FidelityError,
    SweepPoint,
    auto_delta,
    bures_distance_sq,
    fs_finite_difference,
    fs_spectral,
    sweep_point,
    uhlmann_fidelity,
)
from lmglab.model import DickeGroundState, ModelParams, ground_state
from lmglab.reduced import (
    ENTROPY_CUTOFF,
    Bipartition,
    ReducedDensity,
    ReducedDensityError,
    reduce_state,
    von_neumann_entropy,
)

from oracles import (
    PSD_FLOOR,
    completed_basis_spectral,
    dense_reduced,
    eigen_core_fidelity,
    partial_trace_first,
    pauli_hamiltonian,
    reduced_from_matrix,
    schmidt_weights,
)

# Ground states in the odd k-parity sector, alongside the even-sector
# inputs: odd N in the broken phase (N = 9, 15) and gamma = 1 (N = 16).
ODD_SECTOR = [(9, 0.5, 0.7), (9, 0.5, 0.9), (15, 0.5, 0.3), (16, 1.0, 0.9)]


def _rho(diag):
    return reduced_from_matrix(np.diag(np.asarray(diag, dtype=float)))


def _sector(n, gamma, h):
    """k-parity sector (0 or 1) of the ground state."""
    return ground_state(ModelParams(n, gamma, h)).sector


def _reduced(n, gamma, h, m_sub):
    return reduce_state(ground_state(ModelParams(n, gamma, h)), Bipartition(n, m_sub))


# Dense reference: the full-matrix formulas on (M+1)x(M+1) arrays, no parity blocks.

def _dense_eigh(matrix):
    w, v = np.linalg.eigh(matrix)
    assert w[0] >= PSD_FLOOR
    return np.clip(w, 0.0, None), v


def _dense_uhlmann(rho, sigma):
    w_r, v_r = _dense_eigh(rho)
    w_s, v_s = _dense_eigh(sigma)
    core = np.sqrt(w_r)[:, None] * (v_r.T @ v_s) * np.sqrt(w_s)[None, :]
    return min(max(float(np.linalg.svd(core, compute_uv=False).sum()), 0.0), 1.0)


def _dense_spectral(rho_minus, rho, rho_plus, delta):
    w, v = _dense_eigh(rho)
    overlap = v.T @ ((rho_plus - rho_minus) / (2.0 * delta)) @ v
    dp = np.diag(overlap)
    occupied = w >= POPULATION_CUTOFF
    first = float((dp[occupied] ** 2 / (4.0 * w[occupied])).sum())
    pair_mask = np.abs(w[:, None] - w[None, :]) >= DEGENERACY_TOL
    np.fill_diagonal(pair_mask, False)
    denom = w[:, None] + w[None, :]
    return first + float(0.5 * (overlap[pair_mask] ** 2 / denom[pair_mask]).sum())


def _oracle_fidelity(n, gamma, h1, h2, m_sub):
    """Uhlmann fidelity of M-spin partial traces of dense 2^n ground states."""
    lo = np.linalg.eigh(pauli_hamiltonian(n, gamma, h1))[1][:, 0]
    hi = np.linalg.eigh(pauli_hamiltonian(n, gamma, h2))[1][:, 0]
    root = sqrtm(partial_trace_first(lo, m_sub, n))
    return float(np.trace(sqrtm(root @ partial_trace_first(hi, m_sub, n) @ root)).real)


class TestUhlmannFidelity:
    def test_identity(self):
        state = ground_state(ModelParams(20, 0.5, 0.7))
        rho = reduce_state(state, Bipartition(20, 8))
        assert uhlmann_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_commuting_diagonal_case(self):
        # classical fidelity sum_i sqrt(p_i q_i) = sqrt(.45) + sqrt(.05)
        fid = uhlmann_fidelity(_rho([0.5, 0.5]), _rho([0.9, 0.1]))
        assert fid == pytest.approx(math.sqrt(0.45) + math.sqrt(0.05), abs=1e-12)

    def test_orthogonal_pure_states(self):
        assert uhlmann_fidelity(_rho([1.0, 0.0]), _rho([0.0, 1.0])) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_symmetric_in_arguments(self):
        cases = (
            [(30, 12, 0.5, 0.9, 1.1)]
            + [(n, n // 2, gamma, h, h + 0.2) for n, gamma, h in ODD_SECTOR]
            + [(9, 4, 1.0, 0.3, 0.5)]  # even sector against odd
        )
        for n, m_sub, gamma, h, h2 in cases:
            rho = _reduced(n, gamma, h, m_sub)
            sigma = _reduced(n, gamma, h2, m_sub)
            assert abs(uhlmann_fidelity(rho, sigma) - uhlmann_fidelity(sigma, rho)) < 1e-10

    def test_pure_inputs_equal_absolute_overlap(self):
        a = ground_state(ModelParams(16, 0.5, 0.8)).coefficients
        b = ground_state(ModelParams(16, 0.5, 0.9)).coefficients
        rho_a = reduced_from_matrix(np.outer(a, a))
        rho_b = reduced_from_matrix(np.outer(b, b))
        assert uhlmann_fidelity(rho_a, rho_b) == pytest.approx(
            abs(float(a @ b)), abs=1e-10
        )

    def test_bounds(self):
        for n, gamma, h in [(14, 0.2, 0.7)] + ODD_SECTOR:
            for h2 in (0.75, 0.9, 1.3):
                rho = _reduced(n, gamma, h, n // 2)
                sig = _reduced(n, gamma, h2, n // 2)
                fid = uhlmann_fidelity(rho, sig)
                assert 0.0 <= fid <= 1.0

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    @pytest.mark.parametrize(
        "n, gamma, h1, h2",
        [
            (8, 0.5, 0.7, 0.8),  # even sector
            (7, 0.5, 0.3, 0.7),  # odd sector
            (9, 0.5, 0.7, 0.75),  # odd sector
            (9, 1.0, 0.3, 0.5),  # even against odd: orthogonal at M = N
        ],
    )
    def test_matches_dense_product_basis_oracle(self, n, gamma, h1, h2):
        # sqrtm of the rank-deficient 2^M matrices is good to ~1e-7 here;
        # 1 - F is above 1e-3 at every M, so a lost block would show.
        for m_sub in range(1, n + 1):
            fid = uhlmann_fidelity(_reduced(n, gamma, h1, m_sub),
                                   _reduced(n, gamma, h2, m_sub))
            oracle = _oracle_fidelity(n, gamma, h1, h2, m_sub)
            assert fid == pytest.approx(oracle, abs=1e-6), m_sub

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            uhlmann_fidelity(_rho([1.0, 0.0]), _rho([1.0, 0.0, 0.0]))


class TestBuresDistance:
    def test_identical_states(self):
        assert bures_distance_sq(_rho([0.3, 0.7]), _rho([0.3, 0.7])) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_orthogonal_pure_states(self):
        assert bures_distance_sq(_rho([1.0, 0.0]), _rho([0.0, 1.0])) == pytest.approx(
            2.0, abs=1e-12
        )

    def test_diagonal_example(self):
        expected = 2.0 * (1.0 - (math.sqrt(0.45) + math.sqrt(0.05)))
        assert bures_distance_sq(_rho([0.5, 0.5]), _rho([0.9, 0.1])) == pytest.approx(
            expected, abs=1e-12
        )


class TestFsFiniteDifference:
    def test_h_independent_family_is_zero(self):
        vec = np.array([0.6, 0.8])
        assert fs_finite_difference(lambda h: vec, 1.0, 1e-3) == pytest.approx(
            0.0, abs=1e-9
        )
        rho = _rho([0.25, 0.75])
        assert fs_finite_difference(lambda h: rho, 1.0, 1e-3) == pytest.approx(
            0.0, abs=1e-7
        )

    def test_chi_g_approaches_closed_form(self):
        # (1-gamma)^2/(32 (h-gamma)^2 (h-1)^2) = 1/32 at gamma=.5, h=1.5
        devs = []
        for n in (128, 256, 512):
            chi = fs_finite_difference(
                lambda h, n=n: ground_state(ModelParams(n, 0.5, h)).coefficients,
                1.5,
                auto_delta(1.5),
            )
            devs.append(abs(chi - 1.0 / 32.0) / (1.0 / 32.0))
        assert devs[0] > devs[1] > devs[2]
        assert devs[-1] < 0.03

    def test_step_robustness(self):
        n = 128
        def state(h):
            return ground_state(ModelParams(n, 0.5, h)).coefficients
        chi_a = fs_finite_difference(state, 1.5, 1e-3)
        chi_b = fs_finite_difference(state, 1.5, 5e-4)
        assert abs(chi_a - chi_b) / chi_a < 1e-4

    def test_boundary_uses_one_sided_stencil(self):
        seen = []
        vec = np.array([1.0, 0.0])
        def recording(h):
            seen.append(h)
            return vec
        fs_finite_difference(recording, 0.0, 1e-3)
        assert seen == [0.0, 1e-3]

    def test_bad_delta(self):
        with pytest.raises(ValueError):
            fs_finite_difference(lambda h: np.array([1.0]), 1.0, 0.0)

    @pytest.mark.parametrize("delta", [math.inf, math.nan, -1e-3])
    def test_non_finite_or_negative_delta(self, delta):
        # An infinite step would read chi = 2 (1 - F) / inf^2 = 0.
        with pytest.raises(ValueError, match=f"delta must be finite and positive, got {delta}"):
            fs_finite_difference(lambda h: np.array([1.0]), 1.0, delta)


class TestFsSpectral:
    def test_h_independent_family_is_zero(self):
        rho = _rho([0.25, 0.75])
        assert fs_spectral(rho, rho, rho, 1e-3) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("delta", [math.inf, math.nan, 0.0, -1e-3])
    def test_non_finite_or_non_positive_delta(self, delta):
        rho, sigma = _rho([0.25, 0.75]), _rho([0.5, 0.5])
        with pytest.raises(ValueError, match=f"delta must be finite and positive, got {delta}"):
            fs_spectral(rho, rho, sigma, delta)

    def test_no_basis_completion(self, monkeypatch):
        # The null modes enter through the factors, not through a QR
        # completion of rho(h)'s modes to a full basis.
        stencil = [_reduced(64, 0.5, h, 32) for h in (0.899, 0.9, 0.901)]

        def no_qr(*args, **kwargs):
            raise AssertionError("np.linalg.qr called")

        monkeypatch.setattr(np.linalg, "qr", no_qr)
        assert fs_spectral(*stencil, 1e-3) > 0.0

    def test_two_level_hand_built_family(self):
        # rho(h) = diag(h, 1-h): chi = 1/(4h) + 1/(4(1-h)); at h=0.5 -> 1.
        def rho(h):
            return _rho([h, 1.0 - h])
        delta = 1e-4
        chi = fs_spectral(rho(0.5 - delta), rho(0.5), rho(0.5 + delta), delta)
        assert chi == pytest.approx(1.0, rel=1e-10)
        chi = fs_spectral(rho(0.3 - delta), rho(0.3), rho(0.3 + delta), delta)
        assert chi == pytest.approx(1.0 / (4 * 0.3) + 1.0 / (4 * 0.7), rel=1e-10)

    def test_agrees_with_finite_difference(self):
        # N = 256 is in the even sector, the other three in the odd one.
        for n, m_sub, h in [(256, 128, 1.5), (255, 128, 1.5), (9, 4, 0.7), (15, 7, 0.3)]:
            part = Bipartition(n, m_sub)
            fd = sweep_point(ModelParams(n, 0.5, h), part, delta=auto_delta(h))
            sp = sweep_point(ModelParams(n, 0.5, h), part, delta=auto_delta(h),
                             method="spectral")
            assert abs(fd.chi_r - sp.chi_r) / fd.chi_r < 1e-3, n

    def test_dimension_mismatch(self):
        # Blocks of different sizes would broadcast into a wrong sum.
        minus, rho, plus = (_reduced(8, 0.5, 0.899, 1), _reduced(8, 0.5, 0.9, 3),
                            _reduced(8, 0.5, 0.901, 3))
        with pytest.raises(ValueError, match="dimension mismatch"):
            fs_spectral(minus, rho, plus, 1e-3)

    def test_degenerate_pairs_skipped(self):
        # Exactly degenerate pair: the pair term must be dropped, not 0/0.
        base = _rho([0.4, 0.4, 0.2])
        bump = np.zeros((3, 3))
        bump[0, 2] = bump[2, 0] = 1e-3
        plus = reduced_from_matrix(dense_reduced(base) + bump)
        minus = reduced_from_matrix(dense_reduced(base) - bump)
        chi = fs_spectral(minus, base, plus, 1e-2)
        assert math.isfinite(chi) and chi >= 0.0

    def test_error_names_the_point_field(self, monkeypatch):
        # NaNs in the even block of rho(h + delta) make chi non-finite; the
        # error must carry the point's h, not a placeholder.
        def poisoned(state, part):
            rho = reduce_state(state, part)
            if state.params.h <= 0.9:
                return rho
            offset, a = rho.windows[0]
            return replace(rho, windows=((offset, a * math.nan), rho.windows[1]))

        monkeypatch.setattr(lmglab.fidelity, "reduce_state", poisoned)
        with pytest.raises(FidelityError) as info:
            sweep_point(ModelParams(16, 0.5, 0.9), Bipartition(16, 8),
                        method="spectral")
        assert info.value.h == 0.9
        assert "h=0.9," in str(info.value)


def _dense_cases():
    for n in (8, 9, 16, 64):
        for m_sub in sorted({1, 2, n // 2, n - 1, n}):
            for gamma in (0.5, 1.0):
                yield n, m_sub, gamma


class TestParityBlocks:
    """The per-block paths against the dense full-matrix formulas."""

    @pytest.mark.parametrize("n, m_sub, gamma", list(_dense_cases()))
    def test_match_dense_reference(self, n, m_sub, gamma):
        delta = 1e-3
        for h in (0.0, 0.5, 1.0, 1.5):
            lo = max(h - delta, 0.0)
            minus, rho, plus = (_reduced(n, gamma, x, m_sub) for x in (lo, h, h + delta))
            step = 0.5 * (h + delta - lo)
            d_minus, d_rho, d_plus = (dense_reduced(x) for x in (minus, rho, plus))
            w_dense = _dense_eigh(d_rho)[0]
            # The modes outside the factors' spectra have eigenvalue 0.
            w = np.concatenate([w for _, _, w in rho.spectra])
            np.testing.assert_allclose(np.sort(np.pad(w, (len(w_dense) - len(w), 0))),
                                       w_dense, rtol=0, atol=1e-13)

            fid, dense_fid = uhlmann_fidelity(rho, plus), _dense_uhlmann(d_rho, d_plus)
            if m_sub == n and _sector(n, gamma, h) != _sector(n, gamma, h + delta):
                # The stencil crosses a level crossing into the other k-parity
                # sector: rho and sigma are orthogonal pure states.  Per block,
                # F is exactly 0; the dense core pairs rho's eigenvector with
                # sigma's null space, whose sqrt(roundoff) eigenvalues leave
                # ~1e-9 (N = 9, h = 0).
                assert fid == 0.0 and dense_fid < 1e-8, h
            else:
                assert fid == pytest.approx(dense_fid, abs=1e-13), h

            chi = fs_spectral(minus, rho, plus, step)
            dense = _dense_spectral(d_minus, d_rho, d_plus, step)
            (_, _, w0), (_, _, w1) = rho.spectra
            w0, w1 = w0[w0 >= POPULATION_CUTOFF], w1[w1 >= POPULATION_CUTOFF]
            if np.any(np.abs(w0[:, None] - w1[None, :]) < DEGENERACY_TOL):
                # An occupied eigenvalue shared by both blocks (N = 8, M = 4,
                # h = 0.5): the dense eigh may mix the blocks in that
                # eigenspace, and the dense first term, which skips the
                # degenerate pair, depends on that mixing and can only lose
                # weight by it.  d_rho has no cross-block entries, so the
                # parity basis is the one that diagonalizes it there.
                assert dense <= chi * (1.0 + 1e-12), h
                assert chi == pytest.approx(dense, rel=1e-8), h
            else:
                # Where rho does not move (gamma = 1 between level
                # crossings), both sums are roundoff around 0.
                assert chi == pytest.approx(dense, rel=1e-9, abs=1e-12), h

    def test_eigenvalue_order(self):
        # The even-p block's eigenvalues descending, then the odd-p block's.
        # Squares of dyadic numbers, so the factor's s^2 returns them exactly.
        rho = _rho([1 / 16, 9 / 16, 1 / 4, 1 / 64])
        (_, _, even), (_, _, odd) = rho.spectra
        np.testing.assert_array_equal(even, [1 / 4, 1 / 16])
        np.testing.assert_array_equal(odd, [9 / 16, 1 / 64])

    @pytest.mark.parametrize("entry", [(0, 1), (2, 1), (3, 0)])
    def test_odd_offset_entry_rejected(self, entry):
        # Hand-made inputs are checked for definite parity when factored.
        matrix = np.diag([0.4, 0.3, 0.2, 0.1])
        matrix[entry] = 1e-3
        with pytest.raises(ReducedDensityError):
            reduced_from_matrix(matrix)

    def test_even_offset_entries_accepted(self):
        matrix = np.diag([0.4, 0.3, 0.2, 0.1])
        matrix[0, 2] = matrix[2, 0] = 1e-3
        matrix[1, 3] = matrix[3, 1] = 1e-3
        rho = reduced_from_matrix(matrix)
        assert sum(w.sum() for _, _, w in rho.spectra) == pytest.approx(1.0, abs=1e-15)
        assert uhlmann_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)


def _full_reference(n, gamma, h, m_sub):
    """rho_A = Psi Psi^T from the whole Schmidt matrix, no parity blocks or windows."""
    state = ground_state(ModelParams(n, gamma, h))
    hankel = sliding_window_view(state.coefficients, n - m_sub + 1)
    psi = schmidt_weights(n, m_sub) * hankel
    product = psi @ psi.T
    return 0.5 * (product + product.T)


class TestWindowedFactors:
    """The windowed Schmidt factors against the full dense rho_A = Psi Psi^T."""

    @pytest.mark.parametrize("n, m_sub", [(512, 51), (512, 256), (2048, 204),
                                          (2048, 1024)])
    def test_match_full_reference(self, n, m_sub):
        delta = 1e-3
        for h in (0.5, 0.8, 0.97, 1.0, 1.1, 1.3):
            fields = (h - delta, h, h + delta)
            minus, rho, plus = (_reduced(n, 0.5, x, m_sub) for x in fields)
            refs = [_full_reference(n, 0.5, x, m_sub) for x in fields]
            for ours, ref in zip((minus, rho, plus), refs):
                np.testing.assert_allclose(dense_reduced(ours), ref, rtol=0, atol=1e-14)

            dense_fid = _dense_uhlmann(refs[0], refs[2])
            assert uhlmann_fidelity(minus, plus) == pytest.approx(dense_fid, abs=1e-13), h

            dense_chi = _dense_spectral(*refs, delta)
            chi = fs_spectral(minus, rho, plus, delta)
            assert chi == pytest.approx(dense_chi, rel=1e-10), h

            w = np.linalg.eigvalsh(refs[1])
            w = w[w > ENTROPY_CUTOFF]
            dense_entropy = float(-(w * np.log(w)).sum())
            assert von_neumann_entropy(rho) == pytest.approx(dense_entropy, abs=1e-13), h


def _spectral_stencil(n, gamma, h, m_sub):
    """fs_spectral's arguments at the automatic step, as sweep_point passes them."""
    step = auto_delta(h)
    if h - step < 0.0:
        rho = _reduced(n, gamma, h, m_sub)
        return rho, rho, _reduced(n, gamma, h + step, m_sub), 0.5 * step
    return (*(_reduced(n, gamma, h + s * step, m_sub) for s in (-1, 0, 1)), step)


class TestFactorSpectral:
    """fs_spectral through the Schmidt factors against the completed-basis sum."""

    @pytest.mark.parametrize("n", [128, 256, 512])
    def test_tau_spectral_grid(self, n):
        for tau in np.linspace(0.1, 1.0, 10):
            m_sub = round(tau * n)
            for h in (0.6, 0.9, 1.0, 1.1):
                args = _spectral_stencil(n, 0.5, h, m_sub)
                assert fs_spectral(*args) == pytest.approx(
                    completed_basis_spectral(*args), rel=1e-10), (m_sub, h)

    @pytest.mark.parametrize("n", [64, 65])
    def test_zero_field_forward_stencil(self, n):
        # At odd N, h = 0 is a k-parity level crossing: rho(delta) may hold
        # its weight on other rows than rho(0).
        for m_sub in (1, 2, n // 2, n - 1, n):
            args = _spectral_stencil(n, 0.5, 0.0, m_sub)
            assert fs_spectral(*args) == pytest.approx(
                completed_basis_spectral(*args), rel=1e-10), m_sub

    @pytest.mark.parametrize("n, m_sub", [(64, 1), (65, 1), (1024, 1), (64, 64), (65, 65),
                                          (512, 512)])
    def test_single_spin_and_whole_system(self, n, m_sub):
        for h in (0.3, 0.8, 0.97, 1.0, 1.3, 3.0):
            args = _spectral_stencil(n, 0.5, h, m_sub)
            assert fs_spectral(*args) == pytest.approx(
                completed_basis_spectral(*args), rel=1e-10), h

    @pytest.mark.parametrize("seed", range(4))
    def test_neighbour_windows_reach_past_rho(self, seed):
        # Even blocks: rho's lives on rows 3-6 with rank 3, so it has a null
        # mode inside its window; rho(h - delta)'s adds rows 2 and 7-9 and
        # rho(h + delta)'s rows 1-2 and 7.  On rows 3-6 both equal rho's, so
        # d_rho psi_n lies wholly on the null modes: without the null term
        # the even block's chi would read ~0.  The odd blocks are generic.
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(4, 3))
        minus = np.vstack([rng.normal(size=(1, 3)), a, rng.normal(size=(3, 3))])
        plus = np.vstack([rng.normal(size=(2, 3)), a, rng.normal(size=(1, 3))])
        odd = [rng.normal(size=(5, 4)) for _ in range(3)]
        stencil = [ReducedDensity(30, windows) for windows in (
            ((2, minus), (6, odd[0])), ((3, a), (4, odd[1])), ((1, plus), (2, odd[2])))]
        even = [ReducedDensity(30, (rho.windows[0], (0, np.zeros((0, 0)))))
                for rho in stencil]
        for args in (stencil, even):
            assert fs_spectral(*args, 0.1) == pytest.approx(
                completed_basis_spectral(*args, 0.1), rel=1e-10)
        assert fs_spectral(*even, 0.1) > 1.0


class TestFactorFidelity:
    """The Uhlmann fidelity from the Schmidt factors against the eigen-core."""

    @pytest.mark.parametrize("n", [64, 128, 256, 512])
    def test_fig1_grid(self, n):
        part = Bipartition(n, n // 2)
        for h in np.linspace(0.8, 1.2, 41):
            delta = auto_delta(h)
            lo, hi = (_reduced(n, 0.5, h + s * delta, n // 2) for s in (-0.5, 0.5))
            assert abs(uhlmann_fidelity(lo, hi) - eigen_core_fidelity(lo, hi)) <= 1e-14, h

    @pytest.mark.parametrize("h", [0.5, 0.97, 1.0, 1.5])
    def test_single_spin_at_n_4096(self, h):
        # Each block's factor is one row of about N/2 Schmidt columns.
        lo, hi = (_reduced(4096, 0.5, h + s * 5e-4, 1) for s in (-1, 1))
        assert max(len(a) for _, a in lo.windows) == 1
        assert abs(uhlmann_fidelity(lo, hi) - eigen_core_fidelity(lo, hi)) <= 1e-14

    @pytest.mark.parametrize("n, gamma, h", [(64, 0.5, 0.9), (65, 0.5, 1.1), (512, 0.5, 1.0),
                                             (16, 1.0, 0.9)])
    def test_whole_system(self, n, gamma, h):
        lo, hi = (_reduced(n, gamma, h + s * 5e-4, n) for s in (-1, 1))
        assert abs(uhlmann_fidelity(lo, hi) - eigen_core_fidelity(lo, hi)) <= 1e-14

    def test_disjoint_windows(self):
        # Rows 0-1 against rows 3-4 of each block: no overlap, F = 0.
        factor = np.array([[0.6, 0.1], [0.3, 0.2]])
        rho = ReducedDensity(9, ((0, factor), (0, factor)))
        sigma = ReducedDensity(9, ((3, factor), (3, factor.T)))
        assert uhlmann_fidelity(rho, sigma) == eigen_core_fidelity(rho, sigma) == 0.0

    def test_partly_overlapping_windows(self):
        # Rows 2-7 against rows 5-9, with different column counts, both ways.
        rng = np.random.default_rng(7)
        a, b = rng.normal(size=(6, 4)), rng.normal(size=(5, 7))
        empty = (0, np.zeros((0, 0)))
        rho = ReducedDensity(20, ((2, a / np.linalg.norm(a)), empty))
        sigma = ReducedDensity(20, ((5, b / np.linalg.norm(b)), empty))
        for pair in ((rho, sigma), (sigma, rho)):
            assert uhlmann_fidelity(*pair) == pytest.approx(
                eigen_core_fidelity(*pair), abs=1e-14)


class TestSweep:
    """sweep_point over a grid of fields, one call per point."""

    def test_points_and_invariants(self):
        part = Bipartition(32, 16)
        points = [sweep_point(ModelParams(32, 0.5, h), part, delta=auto_delta(h))
                  for h in (0.6, 0.9, 1.2)]
        assert [p.h for p in points] == [0.6, 0.9, 1.2]
        for p in points:
            assert isinstance(p, SweepPoint)
            assert p.chi_g >= 0.0 and p.chi_r >= 0.0
            assert 0.0 <= p.eta <= 1.0 + 1e-6
            assert p.chi_r <= p.chi_g * (1.0 + 1e-6)
            assert p.method == "finite-difference"

    def test_auto_delta_recorded(self):
        point = sweep_point(ModelParams(24, 0.5, 2.0), Bipartition(24, 12))
        assert point.delta == pytest.approx(2e-3)

    @pytest.mark.parametrize("method", ["finite-difference", "spectral"])
    def test_non_finite_delta_blames_the_step(self, method):
        with pytest.raises(ValueError, match="delta must be finite and positive, got nan"):
            sweep_point(ModelParams(16, 0.5, 0.9), Bipartition(16, 8), delta=math.nan,
                        method=method)

    def test_zero_chi_g_point_raises(self):
        # gamma=1, h=0 makes chi_g exactly zero (S_z is conserved, the
        # polarized tower is h-independent), so eta is undefined there.
        with pytest.raises(FidelityError):
            sweep_point(ModelParams(16, 1.0, 0.0), Bipartition(16, 8),
                        delta=auto_delta(0.0))

    @pytest.mark.parametrize("method", ["finite-difference", "spectral"])
    @pytest.mark.parametrize("n, h", [(9, 0.0), (9, 0.157), (9, 0.1575), (8, 0.0883)])
    def test_stencil_across_level_crossing_raises(self, n, h, method):
        # Exact k-parity level crossings: h = 0 for odd N (the spin flip maps
        # k to N - k) and, at gamma < 1, points in the broken phase (N = 9
        # near 0.1572, N = 8 near 0.0883).  A stencil across one compares
        # orthogonal states, so chi_g would read 2/delta^2.  The error comes
        # before the delta-probe, so no DeltaProbeWarning is raised.
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeltaProbeWarning)
            with pytest.raises(FidelityError, match="k-parity level crossing") as info:
                sweep_point(ModelParams(n, 0.5, h), Bipartition(n, n // 2),
                            method=method)
        assert info.value.h == h

    @pytest.mark.parametrize("method", ["finite-difference", "spectral"])
    def test_even_n_at_zero_field_is_not_a_crossing(self, method):
        # For even N the spin flip keeps the k-parity.
        point = sweep_point(ModelParams(10, 0.5, 0.0), Bipartition(10, 5),
                            method=method)
        assert point.chi_g == pytest.approx(4.163, rel=1e-3)

    def test_probe_warns_when_step_too_coarse(self):
        # At N = 4096, M = 1, h = 1 the automatic step is too coarse: chi_g
        # drifts about 2e-3 when it is halved.  A step given explicitly,
        # even the same one, is not probed.
        params, part = ModelParams(4096, 0.5, 1.0), Bipartition(4096, 1)
        with pytest.warns(DeltaProbeWarning, match="chi_g drifts"):
            sweep_point(params, part)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeltaProbeWarning)
            sweep_point(params, part, delta=1e-3)

    def test_peak_sharpens_and_migrates(self):
        hs = np.linspace(0.7, 1.1, 21)
        peaks = {}
        for n in (32, 64):
            part = Bipartition(n, n // 2)
            chis = np.array([sweep_point(ModelParams(n, 0.5, float(h)), part,
                                         delta=auto_delta(h)).chi_r for h in hs])
            peaks[n] = (hs[int(np.argmax(chis))], chis.max())
        assert abs(peaks[64][0] - 1.0) < abs(peaks[32][0] - 1.0)
        assert peaks[64][1] > peaks[32][1]


class TestStencilSharing:
    """sweep_point solves each distinct stencil field once per call."""

    @pytest.fixture
    def solved_fields(self, monkeypatch):
        fields = []

        def counting(params):
            fields.append(params.h)
            return ground_state(params)

        monkeypatch.setattr(lmglab.fidelity, "ground_state", counting)
        return fields

    @pytest.mark.parametrize(
        "h, method, delta, solves",
        [
            (0.8, "finite-difference", None, 5),
            (0.8, "finite-difference", auto_delta(0.8), 3),
            (0.8, "spectral", None, 7),
            (0.0, "finite-difference", None, 3),
        ],
    )
    def test_solve_counts(self, solved_fields, h, method, delta, solves):
        sweep_point(ModelParams(40, 0.5, h), Bipartition(40, 20), delta=delta,
                    method=method)
        assert len(solved_fields) == solves
        assert len(set(solved_fields)) == solves

    def test_one_block_solve_per_field(self, monkeypatch):
        # Five fields (h, h +- delta/2, h +- delta/4), one parity block each.
        sizes = []
        real = lmglab.model._lowest_block_eigenpair

        def counting(diag, off, norm):
            sizes.append(diag.size)
            return real(diag, off, norm)

        monkeypatch.setattr(lmglab.model, "_lowest_block_eigenpair", counting)
        sweep_point(ModelParams(64, 0.5, 1.0), Bipartition(64, 32))
        assert sizes == [33] * 5

    def test_one_decomposition_per_point(self, monkeypatch):
        # The fidelity works from the Schmidt factors; only rho_A(h) is
        # decomposed, for the entropy.
        decomposed = []
        prop = ReducedDensity.__dict__["_decomposition"]

        def counting(rho):
            decomposed.append(rho)
            return prop.func(rho)

        counted = cached_property(counting)
        counted.__set_name__(ReducedDensity, "_decomposition")
        monkeypatch.setattr(ReducedDensity, "_decomposition", counted)
        sweep_point(ModelParams(64, 0.5, 1.0), Bipartition(64, 32))
        assert len(decomposed) == 1

    def test_states_shared_across_tau_hold_ground_states_only(self):
        # One cache across subsystem sizes, as tests/test_paper_claims.py's
        # points() shares it: the ground states stay, and only the last
        # size's reduced density matrices do.
        cache = {}
        params = ModelParams(40, 0.5, 0.8)
        for m_sub in (10, 20, 30):
            sweep_point(params, Bipartition(40, m_sub), delta=1e-4, cache=cache)
        states = [v for v in cache.values() if isinstance(v, DickeGroundState)]
        reductions = [v for v in cache.values() if isinstance(v, ReducedDensity)]
        assert len(states) == 3 and len(states) + len(reductions) == len(cache)
        assert [rho.m_sub for rho in reductions] == [30] * 3  # h and h +- d/2

    def test_reductions_shared_by_the_methods_of_one_size(self, monkeypatch):
        # h, h +- d/2 for finite differences and h +- d for spectral.
        reduced = []

        def counting(state, part):
            reduced.append(state.params.h)
            return reduce_state(state, part)

        monkeypatch.setattr(lmglab.fidelity, "reduce_state", counting)
        params, part = ModelParams(40, 0.5, 0.8), Bipartition(40, 20)
        cache = {}
        shared = [sweep_point(params, part, method=method, cache=cache)
                  for method in ("finite-difference", "spectral")]
        reductions = [v for v in cache.values() if isinstance(v, ReducedDensity)]
        assert len(reduced) == len(set(reduced)) == len(reductions) == 5
        assert shared == [sweep_point(params, part, method=method)
                          for method in ("finite-difference", "spectral")]

    def test_cache_drops_the_reductions_of_another_point(self):
        # One cache, two h values at one M: the second call keeps the
        # ground states of both but the reductions of its own point only.
        def reductions(cache):
            return [v for v in cache.values() if isinstance(v, ReducedDensity)]

        part = Bipartition(40, 20)
        first, second = ModelParams(40, 0.5, 0.8), ModelParams(40, 0.5, 1.2)
        cache = {}
        shared = [sweep_point(first, part, method="spectral", cache=cache)]
        first_reductions = reductions(cache)
        assert len(first_reductions) == 3  # h and h +- d
        shared.append(sweep_point(second, part, method="spectral", cache=cache))
        assert len(reductions(cache)) == 3
        assert not any(rho is old for rho in reductions(cache) for old in first_reductions)
        assert sum(isinstance(v, DickeGroundState) for v in cache.values()) == 2 * 7
        assert shared == [sweep_point(params, part, method="spectral")
                          for params in (first, second)]

    @pytest.mark.parametrize("h", [0.0, 0.8])
    def test_values_equal_fresh_solves(self, h):
        params = ModelParams(40, 0.5, h)
        part = Bipartition(40, 20)
        point = sweep_point(params, part)

        def fresh(x):
            return ground_state(replace(params, h=x))

        chi_g = fs_finite_difference(lambda x: fresh(x).coefficients, h, point.delta)
        chi_r = fs_finite_difference(lambda x: reduce_state(fresh(x), part), h,
                                     point.delta)
        assert point.chi_g == chi_g
        assert point.chi_r == chi_r
